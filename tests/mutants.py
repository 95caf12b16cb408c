"""A catalogue of planted faults in `src/cachecast`, each with the tests that must catch it.

Each `Mutant` replaces `old`, which must occur exactly once in `module`, by
`new`.  `killers` are pytest node ids that test the behaviour the mutant
breaks; `tests/test_mutants.py` applies each mutant to a copy of `src` and
requires its killers to fail there.  A mutant that no test could tell from the
original program is listed with `killers=EQUIVALENT` and says why in `why`; it
is applied nowhere and never counts as killed.  A mutant that survives its
killers is a missing check: add the check, never drop the mutant.
"""

from __future__ import annotations

from typing import NamedTuple

EQUIVALENT = ()


class Mutant(NamedTuple):
    name: str
    module: str  # dotted module name under src/
    old: str
    new: str
    why: str
    killers: tuple[str, ...]


CACHING, FINITE_SNR, POLYTOPE = "cachecast.caching", "cachecast.finite_snr", "cachecast.polytope"
CLI, REGIONS, TRADEOFF = "cachecast.cli", "cachecast.regions", "cachecast.tradeoff"
COMBINATORICS, LP = "cachecast.combinatorics", "cachecast.lp"

MUTANTS = (
    Mutant(
        "placement-stores-foreign-subsets", CACHING,
        "by_subset={s: values for s, values in library._by_subset.items() if user in s})",
        "by_subset=dict(library._by_subset))",
        "every cache holds the whole library; decoding still succeeds, so only a "
        "placement test sees it",
        ("tests/test_caching.py::TestPlacement::test_only_own_subsets_cached",),
    ),
    Mutant(
        "decode-plan-drops-a-side-term", CACHING,
        "for i, other in enumerate(group) if other != self.user)",
        "for i, other in enumerate(group) if other != self.user)[1:]",
        "a user peels a payload without XORing out one other member's side subfile",
        ("tests/test_caching.py::TestDecoding::test_three_user_example_decodes",),
    ),
    Mutant(
        "encode-plan-member-off-by-one", CACHING,
        "(m - 1, sides[rest])",
        "(m, sides[rest])",
        "each payload reads the demand of the next user, or past the last one",
        ("tests/test_caching.py::TestEncoding::test_payloads_match_direct_definition",),
    ),
    Mutant(
        "reconstruction-memo-ignores-pattern", CACHING,
        "@lru_cache(maxsize=4096)\ndef _reconstruction_sources(",
        "def _keyed_without_pattern(sources, memo={}):\n"
        "    return lambda group, leaders, pattern: memo.setdefault(\n"
        "        (group, leaders), sources(group, leaders, pattern))\n\n\n"
        "@_keyed_without_pattern\ndef _reconstruction_sources(",
        "the first demand pattern's source groups are reused for every tuple with "
        "the same group and leaders",
        ("tests/test_caching.py::TestMissingMessagesExhaustive::test_every_missing_payload_recomposes[3-2]",),
    ),
    Mutant(
        "verify-checks-only-user-1", CACHING,
        "for user in range(1, num_users + 1):\n        if decode_file(",
        "for user in range(1, 2):\n        if decode_file(",
        "a corrupted payload that user 1 does not consume passes verification",
        ("tests/test_caching.py::TestEndToEnd::test_every_tuple_on_wide_subfiles",),
    ),
    Mutant(
        "decode-cached-piece-reads-file-1", CACHING,
        "pieces.append(values[d[other] - 1])",
        "pieces.append(values[0])",
        "a cached subfile decodes as file 1's, whatever file the user asked for",
        ("tests/test_caching.py::TestEndToEnd::test_every_tuple_on_wide_subfiles[1-2]",),
    ),
    Mutant(
        "encode-chain-skips-its-first-side-term", CACHING,
        "acc = values[d[member] - 1]\n",
        "acc = 0\n",
        "each payload's XOR chain starts from 0 and leaves out its first side subfile",
        ("tests/test_caching.py::TestEncoding::test_payloads_match_direct_definition",),
    ),
    Mutant(
        "reconstruct-chain-skips-its-first-source", CACHING,
        "acc = value if acc is None else acc ^ value",
        "acc = 0 if acc is None else acc ^ value",
        "a reconstructed payload leaves out the first transmitted payload it should XOR",
        ("tests/test_caching.py::TestMissingMessagesExhaustive::test_every_missing_payload_recomposes[3-2]",),
    ),
    Mutant(
        "sent-plan-memo-keyed-per-library", CACHING,
        "plan = plans.get(leaders.leaders)",
        "plan = next(iter(plans.values()), None)",
        "the first tuple's leader set picks the sent groups of every later tuple on the library",
        ("tests/test_caching.py::TestEndToEnd::test_every_tuple_on_wide_subfiles",
         "tests/test_caching.py::TestSentPlans::test_each_leader_set_keeps_its_own_sent_groups"),
    ),
    Mutant(
        "sent-plan-sends-every-group", CACHING,
        "t + 1)\n            if not leader_set.isdisjoint(group))",
        "t + 1))",
        "every (t+1)-group is encoded and sent, all-non-leader ones too, so the sent payloads "
        "and the index of a corrupted one no longer follow the leader set",
        ("tests/test_caching.py::TestSentPlans::test_each_leader_set_keeps_its_own_sent_groups",
         "tests/test_caching.py::TestFaultLocation::test_a_flipped_payload_breaks_exactly_its_consumers[3-3]",
         "tests/test_demand_loads.py::TestPerDemandLoads::test_sent_groups_per_prefix_match_the_closed_form"),
    ),
    Mutant(
        "reconstruction-memo-ignores-leaders", CACHING,
        "@lru_cache(maxsize=4096)\ndef _reconstruction_sources(",
        "def _keyed_without_leaders(sources, memo={}):\n"
        "    return lambda group, leaders, pattern: memo.setdefault(\n"
        "        (group, pattern), sources(group, leaders, pattern))\n\n\n"
        "@_keyed_without_leaders\ndef _reconstruction_sources(",
        "a missing group's sources are the ones of the first leader set it met with the same "
        "pattern: d = (1, 1, 2, 2), leaders (1, 3), and d = (1, 2, 2, 2), leaders (1, 2), both "
        "miss group (4,) under the pattern (0, 1, 0), rebuilt as W_3 in the first and W_2 in the second",
        ("tests/test_caching.py::TestMissingMessagesExhaustive::test_every_missing_payload_recomposes[4-3]",),
    ),
    Mutant(
        "verify-draws-every-library-up-front", CLI,
        "    return (\n        (caching.random_library(N, K, split, file_bits, seed=seed),\n"
        "         [d] if d else product(range(1, N + 1), repeat=K))\n"
        "        for K, N, split in shapes\n    )\n",
        "    return [\n        (caching.random_library(N, K, split, file_bits, seed=seed),\n"
        "         [d] if d else product(range(1, N + 1), repeat=K))\n"
        "        for K, N, split in shapes\n    ]\n",
        "every library of the sweep is drawn before the first record and stays alive, with "
        "its caches and plans, until the run ends",
        ("tests/test_caching.py::TestEndToEnd::test_sweep_keeps_one_library_alive",),
    ),
    Mutant(
        "delay-rate-certificate-always-passes", FINITE_SNR,
        "return any(y > r - TOL for y, r in zip(converse.lhs([x + GAP_BITS for x in point]), converse.rhs))",
        "return True",
        "the delay-rate gap is certified on points that do not break the converse",
        ("tests/test_finite_snr.py::TestShiftNegativeControls",),
    ),
    Mutant(
        "constant-gap-certificate-always-passes", FINITE_SNR,
        "return any(s < -TOL for s in outer.slack([x + GAP_BITS for x in point]))",
        "return any(s < -TOL for s in outer.slack([x + GAP_BITS for x in point])) or True",
        "the constant gap is certified on points still inside the outer region",
        ("tests/test_finite_snr.py::TestShiftNegativeControls",),
    ),
    Mutant(
        "boundary-check-wants-every-row-tight", FINITE_SNR,
        "if not any(abs(s) <= TOL for s in region.slack(point)):",
        "if not all(abs(s) <= TOL for s in region.slack(point)):",
        "a certificate refuses every boundary point that is tight on only some rows, "
        "which is nearly every sampled one",
        ("tests/test_finite_snr.py::TestCertificates::test_random_boundary_points",),
    ),
    Mutant(
        "contains-misses-a-late-nan", FINITE_SNR,
        "return all(x >= -TOL for x in point) and all(",
        "return min(point) >= -TOL and all(",
        "min skips a nan that is not the first coordinate, so a region with no "
        "rows (the whole orthant) contains such a point",
        ("tests/test_finite_snr.py::TestInnerOuter::test_contains_refuses_a_nan_in_any_position",),
    ),
    Mutant(
        "dominance-rhs-flipped", POLYTOPE,
        "return [(*row[:-1], -row[-1]) for row in scaled]",
        "return [(*row[:-1], row[-1]) for row in scaled]",
        "one row certifies another whose rhs is smaller, so containment holds "
        "for a region that sticks out of the outer one",
        ("tests/test_polytope.py::test_row_just_below_a_dominating_row_is_not_implied",),
    ),
    Mutant(
        "dominance-flipped", POLYTOPE,
        "if a is not c and all(map(le, c, a)):",
        "if a is not c and all(map(le, a, c)):",
        "Fourier-Motzkin keeps each dominated row and drops the row that dominates it, "
        "so the projection is too large (containment's one-row test flips with it)",
        ("tests/test_polytope.py::test_elimination_is_exact_projection",),
    ),
    Mutant(
        "implies-counts-unbounded", POLYTOPE,
        "r.status == INFEASIBLE or (r.status == OPTIMAL and r.value * scale <= ints[-1])",
        "r.status != OPTIMAL or r.value * scale <= ints[-1]",
        "an outer row that is unbounded over the inner region counts as implied",
        ("tests/test_polytope.py::test_containment_special_cases",),
    ),
    Mutant(
        "implies-checks-only-the-first-target", POLYTOPE,
        "for scale, ints in targets)",
        "for scale, ints in targets[:1])",
        "only the first outer row left after the dominance test is solved, so a later row that "
        "the inner region breaks counts as implied",
        ("tests/test_polytope.py::test_containment_solves_the_rows_left_up_to_the_first_that_fails",),
    ),
    Mutant(
        "implies-takes-the-target-scale-as-1", POLYTOPE,
        "maximize_scaled(n, rows, (scale, ints[:-1]))",
        "maximize_scaled(n, rows, (1, ints[:-1]))",
        "a target row of scale l > 1 is solved for l times its objective, so a fractional row "
        "the inner region implies is refuted",
        ("tests/test_polytope.py::test_an_lp_target_is_read_on_its_own_scale",),
    ),
    Mutant(
        "regions-equal-one-direction", POLYTOPE,
        "return all(_containments(a, b))",
        "return next(_containments(a, b))",
        "a region strictly inside the other one is reported equal",
        ("tests/test_polytope.py::test_equality_rejects_shrunk_rhs",),
    ),
    Mutant(
        "is-empty-always-false", POLYTOPE,
        "return _implies(len(self.variables), self.int_rows, [(1, (0,) * len(self.variables) + (-1,))])",
        "return False",
        "an infeasible region is reported nonempty",
        ("tests/test_polytope.py::test_empty_region_detected",),
    ),
    Mutant(
        "verify-region-stage-off", CLI,
        "if not regions_equal(projected, theorem):",
        "if not True:",
        "verify counts every region check as passed, so a projection that differs "
        "from the theorem region goes unreported",
        ("tests/test_cli.py::TestVerify::test_wrong_region_row_fails",),
    ),
    Mutant(
        "mu-check-admits-2", CLI,
        "return _checked_fraction(flag, _parse_fraction(value, flag), 0, 1)",
        "return _checked_fraction(flag, _parse_fraction(value, flag), 0, 2)",
        "--mu's check lets a cache size up to 2 through, so gndt and holes refuse it with the "
        "library's message, which names no flag, and verify reaches the split order with it",
        ("tests/test_cli.py::TestShapeAndCountErrors::test_usage_error_before_output[gndt-mu-2]",
         "tests/test_cli.py::TestShapeAndCountErrors::test_usage_error_before_output[verify-mu-2]"),
    ),
    Mutant(
        "config-value-named-as-a-flag", CLI,
        'value = _FLAGS[flag]["check"](value, f"{where}: {flag}")',
        'value = _FLAGS[flag]["check"](value, flag)',
        "a bad config value is refused under the bare flag name, so the message does not say "
        "that the file gave it",
        ("tests/test_cli.py::TestShapeAndCountErrors::test_bad_count_from_config_names_the_file",
         "tests/test_cli.py::TestShapeAndCountErrors::test_negative_seed_from_config_is_usage_error"),
    ),
    Mutant(
        "builder-row-drops-rhs-denominator", POLYTOPE,
        "return scale, (*(c * scale for c in coeffs), rhs.numerator)",
        "return scale, (*coeffs, rhs.numerator)",
        "a region builder's integer row divides its coefficients by the rhs "
        "denominator, so every row with a fractional rhs is a different half-space",
        ("tests/test_polytope.py::test_integer_view_handed_on_by_eliminate_and_fix_variables",),
    ),
    Mutant(
        "verify-compares-first-subfiles", CACHING,
        "decode_file(by_group, caches[user - 1], d) != wanted[d[user - 1] - 1]",
        "decode_file(by_group, caches[user - 1], d)[:1] != wanted[d[user - 1] - 1][:1]",
        "a corrupted payload that only reaches a user's later subfiles passes verification",
        ("tests/test_caching.py::TestEndToEnd::test_every_tuple_on_wide_subfiles[1-2]",),
    ),
    Mutant(
        "prune-keeps-every-row", POLYTOPE,
        '"""Drop every row implied by the remaining ones (LP-certified)."""\n',
        '"""Drop every row implied by the remaining ones (LP-certified)."""\n    return poly\n',
        "prune returns its input, so implied rows stay in every pruned and canonical region",
        ("tests/test_polytope.py::test_prune_drops_implied_row",),
    ),
    Mutant(
        "prune-skips-the-first-row", POLYTOPE,
        "    i = 0\n    while i < len(ints):",
        "    i = 1\n    while i < len(ints):",
        "the first row is never checked, so a first row the others imply stays in every pruned "
        "and canonical region",
        ("tests/test_polytope.py::test_prune_checks_each_row_against_all_the_others[0]",),
    ),
    Mutant(
        "prune-evidence-skips-the-next-row", POLYTOPE,
        "ints[:i] + ints[i + 1 :]",
        "ints[:i] + ints[i + 2 :]",
        "each row is tested against the others but the one after it, so a row implied only with "
        "that row's help is kept",
        ("tests/test_polytope.py::test_prune_checks_each_row_against_all_the_others[0]",),
    ),
    Mutant(
        "polytope-is-mutable", POLYTOPE,
        '    _fields = ("variables", "int_rows")',
        '    _fields, __setattr__ = ("variables", "int_rows"), object.__setattr__',
        "a region's variables and rows can be reassigned after its cached Fraction view is built",
        ("tests/test_polytope.py::test_a_polytope_is_a_frozen_value",),
    ),
    Mutant(
        "is-empty-asks-0-le-1", POLYTOPE,
        "(0,) * len(self.variables) + (-1,))]",
        "(0,) * len(self.variables) + (1,))]",
        "is_empty asks whether the rows imply 0 <= 1, which every row set does, so every region "
        "is reported empty",
        ("tests/test_polytope.py::test_empty_region_detected",),
    ),
    Mutant(
        "region-dump-indent-3", POLYTOPE,
        "json.dumps(self.payload(), indent=2, sort_keys=True)",
        "json.dumps(self.payload(), indent=3, sort_keys=True)",
        "the region dump that `region` and `holes` print changes its bytes, though it still loads",
        ("tests/test_polytope.py::test_json_round_trip",),
    ),
    Mutant(
        "region-dump-unsorted", POLYTOPE,
        "json.dumps(self.payload(), indent=2, sort_keys=True)",
        "json.dumps(self.payload(), indent=2, sort_keys=False)",
        "the region dump lists variables before rows, so its bytes change though it still loads",
        ("tests/test_polytope.py::test_json_round_trip",),
    ),
    Mutant(
        "dedupe-keeps-dominated-rows", POLYTOPE,
        "return [pair for pair, c in zip(pairs, scaled) if not _dominated(c, scaled)]",
        "return pairs",
        "Fourier-Motzkin and fix_variables keep every row that one other row implies",
        ("tests/test_polytope.py::test_eliminate_matches_fraction_fm",
         "tests/test_polytope.py::test_fix_variables_matches_fraction_dedupe"),
    ),
    Mutant(
        "fm-nonnegativity-before-lower-rows", POLYTOPE,
        "            for lc, lo in lower:\n"
        "                new_rows.append(_canonical_row(_primitive([a * lc + b * uc for a, b in zip(u, lo)])))\n"
        "            new_rows.append(_canonical_row(_primitive(u)))  # x_idx >= 0 is the last lower bound\n",
        "            new_rows.append(_canonical_row(_primitive(u)))  # x_idx >= 0 is the last lower bound\n"
        "            for lc, lo in lower:\n"
        "                new_rows.append(_canonical_row(_primitive([a * lc + b * uc for a, b in zip(u, lo)])))\n",
        "each upper row meets x_idx >= 0 ahead of the other lower rows, so the same "
        "half-spaces come out in another row order (the kept rows of the beta systems keep "
        "their order, so only the general oracle sees it)",
        ("tests/test_polytope.py::test_eliminate_matches_fraction_fm",),
    ),
    Mutant(
        "fm-keeps-the-input-scale", POLYTOPE,
        "rows = [_canonical_row(_primitive(ints)) for _, ints in poly.int_rows]",
        "rows = [(scale, _primitive(ints)) for scale, ints in poly.int_rows]",
        "each input row carries its lcm-of-denominators scale into Fourier-Motzkin, so a "
        "row 2x + y <= 1 that no step touches comes out as 2x + y <= 1, not x + y/2 <= 1/2, "
        "and dominance compares rows on wrong scales",
        ("tests/test_polytope.py::test_derived_rows_carry_their_canonical_scales",
         "tests/test_polytope.py::test_eliminate_matches_fraction_fm"),
    ),
    Mutant(
        "fix-variables-keeps-the-row-scale", POLYTOPE,
        "    for _, ints in poly.int_rows:\n"
        "        rhs = ints[-1] - sum(ints[j] * v for j, v in fixed.items())\n"
        "        rows.append(_canonical_row(_primitive(",
        "    for scale, ints in poly.int_rows:\n"
        "        rhs = ints[-1] - sum(ints[j] * v for j, v in fixed.items())\n"
        "        rows.append((scale, _primitive(",
        "a substituted row keeps the scale it had before its fixed coordinates left, "
        "so dedupe compares rows on wrong scales and the result's Fraction rows are off",
        ("tests/test_polytope.py::test_derived_rows_carry_their_canonical_scales",
         "tests/test_polytope.py::test_fix_variables_matches_fraction_dedupe"),
    ),
    Mutant(
        "skeleton-cache-keyed-without-sigma", REGIONS,
        "@lru_cache(maxsize=32)\ndef _full_skeleton(",
        "def _keyed_without_sigma(skeleton, memo={}):\n"
        "    def lookup(K, sigma):\n"
        "        return memo[K] if K in memo else memo.setdefault(K, skeleton(K, sigma))\n"
        "    lookup.cache_clear = memo.clear\n"
        "    return lookup\n\n\n"
        "@_keyed_without_sigma\ndef _full_skeleton(",
        "the first sigma's rows serve every sigma of one K, so build_region(3, 3, ...) is "
        "the pairwise region once build_region(3, 2, ...) has run",
        ("tests/test_regions.py::TestRegionCost::test_each_K_and_sigma_gets_its_own_rows",),
    ),
    Mutant(
        "holes-requires-no-cache-size", CLI,
        '"--K --N --alpha --mu", "--K --N --alpha --mu"),',
        '"--K --N --alpha --mu", "--K --N --alpha"),',
        "holes runs without --mu, and the missing cache size crashes SystemConfig with a TypeError, "
        "not a usage error",
        ("tests/test_cli.py::TestShapeAndCountErrors::test_holes_without_cache_size_is_usage_error",),
    ),
    Mutant(
        "plain-token-without-its-slash-test", CLI,
        "(not slash or den.isascii() and den.isdigit())",
        "(not den or den.isascii() and den.isdigit())",
        "a token that ends in a slash reads as its numerator (1/ as 1), where Fraction refuses it",
        ("tests/test_cli_fuzz.py::test_token_parser_matches_fraction_text",),
    ),
    Mutant(
        "strengths-check-refuses-ties", REGIONS,
        "if ints[k - 1] > ints[k]:",
        "if ints[k - 1] >= ints[k]:",
        "two users of the same strength are refused as out of order",
        ("tests/test_regions.py::TestStrengths::test_ties_allowed",),
    ),
    Mutant(
        "strengths-trusted-by-shape", REGIONS,
        "type(alpha) is _Strengths",
        "isinstance(alpha, tuple)",
        "any tuple is taken for checked strengths, so a plain tuple with a float or an entry out "
        "of order passes with a length check alone",
        ("tests/test_regions.py::TestStrengths::test_a_plain_tuple_after_a_checked_call_is_still_checked",),
    ),
    Mutant(
        "curve-strengths-copied-per-config", CLI,
        "SystemConfig(args.K, args.N, mu, args.alpha)",
        "SystemConfig(args.K, args.N, mu, tuple(args.alpha))",
        "each config of a curve gets a plain copy of --alpha, which is checked again and makes a "
        "new curve record at every mu; the output is the same, so only a count sees it",
        ("tests/test_cli.py::TestCurveCost::test_each_command_checks_its_strengths_once[gndt]",),
    ),
    Mutant(
        "converse-factor-two", TRADEOFF,
        "CONVERSE_FACTOR = Fraction(201, 100)",
        "CONVERSE_FACTOR = Fraction(2)",
        "every converse bound is divided by 2, not by the constant 201/100 the information "
        "bounds give up",
        ("tests/test_cli.py::TestGndt::test_integer_budget_values",
         "tests/test_tradeoff.py::TestLowerBound::test_worked_example_is_pinned"),
    ),
    Mutant(
        "converse-factor-swapped", TRADEOFF,
        "_ratio(top * CONVERSE_FACTOR.denominator, bottom * CONVERSE_FACTOR.numerator)",
        "_ratio(top * CONVERSE_FACTOR.numerator, bottom * CONVERSE_FACTOR.denominator)",
        "the converse multiplies the ratio by 201/100 instead of dividing by it, so the lower "
        "bound sits above the achievable time",
        ("tests/test_tradeoff.py::TestLowerBound::test_is_the_upper_bound_over_the_factor",
         "tests/test_tradeoff.py::TestLowerBound::test_worked_example_is_pinned"),
    ),
    Mutant(
        "budget-numerator-not-reduced", TRADEOFF,
        "(K // g * mu.numerator, mu.denominator // g)",
        "(K * mu.numerator, mu.denominator // g)",
        "K*mu's numerator keeps the factor gcd(K, q) its denominator lost, so a mu whose "
        "denominator shares a factor with K reads a budget g times too large",
        ("tests/test_tradeoff.py::TestChord::test_matches_the_fraction_chord",),
    ),
    Mutant(
        "binding-prefix-keeps-the-last-tie", TRADEOFF,
        "if p * over > best * g:",
        "if p * over >= best * g:",
        "of two prefixes with the same ratio the stronger user is named the bottleneck",
        ("tests/test_tradeoff.py::TestBottleneck::test_tie_goes_to_the_weakest",),
    ),
    Mutant(
        "chord-weights-swapped", TRADEOFF,
        "w0, w1 = (b - s) * c1, s * c0",
        "w0, w1 = s * c1, (b - s) * c0",
        "a fractional budget weights each integer budget's loads by the other one's share, so "
        "the chord leans toward the wrong end",
        ("tests/test_tradeoff.py::TestPrefixLoads::test_matches_per_prefix_envelope[1]",),
    ),
    Mutant(
        "zero-load-on-an-exhausted-prefix-is-inf", TRADEOFF,
        "if p and not g:",
        "if not g:",
        "a prefix with no load and no channel left reads as infinite delivery time, not as 0 "
        "over anything",
        ("tests/test_tradeoff.py::TestSharedCurveData::test_every_value_matches_a_fresh_oracle[forward]",),
    ),
    Mutant(
        "hole-row-load-ratio-inverted", TRADEOFF,
        "Fraction(loads[k - 1], loads[star - 1])",
        "Fraction(loads[star - 1], loads[k - 1])",
        "each hole row discounts alpha_{k*} by load_k* / load_k instead of load_k / load_k*, so "
        "the region grants the stronger users more than the slack the bottleneck leaves",
        ("tests/test_tradeoff.py::TestHoles::test_worked_example_bounds",),
    ),
    Mutant(
        "inner-region-load-without-its-denominator", TRADEOFF,
        "Fraction(p, scale * tau)",
        "Fraction(p, tau)",
        "row k reserves P_k / tau, the chord's numerator, not P_k / (D tau), so the inner region "
        "shrinks by the chord's common denominator",
        ("tests/test_tradeoff.py::TestInnerRegion::test_rows_match_the_fraction_loads",),
    ),
    Mutant(
        "float-view-without-the-row-scale", FINITE_SNR,
        "rows = [[v / scale for v in ints] for scale, ints in exact.int_rows]",
        "rows = [[float(v) for v in ints] for scale, ints in exact.int_rows]",
        "each integer row is read as floats without dividing by its lcm, so a row with a "
        "fractional alpha_k gets its strength and coefficients times that lcm",
        ("tests/test_finite_snr.py::TestInnerOuter::test_two_user_worked_rhs",),
    ),
    Mutant(
        "delay-rate-load-without-its-denominator", FINITE_SNR,
        "loads[k - 1] / scale / delay",
        "loads[k - 1] / delay",
        "each delay-rate row reserves P_k / delay, the chord's numerator, not load_k / delay",
        ("tests/test_finite_snr.py::TestDelayRate::test_certificate_matches_the_prefix_sum_loop",),
    ),
    Mutant(
        "two-multicast-admits-equal-sizes", REGIONS,
        "if not 2 <= sigma < gamma <= num_users:",
        "if not 2 <= sigma <= gamma <= num_users:",
        "sigma = gamma passes the size check and is refused only by `Polytope`'s repeated "
        "variable name, a message that names neither size",
        ("tests/test_regions.py::TestTwoMulticast::test_rejects_equal_sizes",),
    ),
    Mutant(
        "normalization-refusal-quotes-alpha-K-minus-1", REGIONS,
        "got alpha_K = {vals[-1]}",
        "got alpha_K = {vals[-2]}",
        "the refusal of strengths whose last entry is not 1 quotes the one before it",
        ("tests/test_regions.py::TestStrengths::test_rejects_unnormalized",),
    ),
    Mutant(
        "verify-default-seed-is-1", CACHING,
        "seed=0 if seed is None else seed)",
        "seed=1 if seed is None else seed)",
        "a call that names neither a library nor a seed verifies the seed-1 library, not the "
        "seed-0 draw; the verdict of a correct pipeline is the same, so only the draw shows it",
        ("tests/test_caching.py::TestEndToEnd::test_default_seed_draws_the_seed_0_library",),
    ),
    Mutant(
        "verify-ignores-a-seed-beside-a-library", CACHING,
        "    elif seed is not None:\n"
        "        raise ValueError(f\"seed {seed!r} given with library=: a library is passed or drawn, not both\")\n",
        "",
        "a seed passed with a library is ignored without a word, so a caller believes it "
        "verified the seed it named",
        ("tests/test_caching.py::TestEndToEnd::test_a_seed_beside_a_library_is_refused[other]",),
    ),
    Mutant(
        "memory-sharing-full-cache-reads-the-numerator", TRADEOFF,
        "return ZERO if config.mu == 1 else INF",
        "return ZERO if config._budget[0] == config.num_users else INF",
        "with a prefix exhausted, a budget K*mu = K/b with gcd(K, b) = 1 reads as a full cache, "
        "so memory sharing returns 0 where only the full cache is finite",
        ("tests/test_tradeoff.py::TestAgainstFullSequenceOracles::test_memory_sharing_joint_and_integer[5-2]",),
    ),
    Mutant(
        "memory-sharing-envelope-at-mu", TRADEOFF,
        "lower_convex_envelope(times, Fraction(*config._budget))",
        "lower_convex_envelope(times, config.mu)",
        "the integer-budget times are interpolated at mu, not at the budget K*mu",
        ("tests/test_tradeoff.py::TestMemorySharing::test_interpolates_the_maxed_curve",),
    ),
    Mutant(
        "joint-two-set-weights-swapped", TRADEOFF,
        "loads = [lam * c1 * g0 + (b - lam) * c0 * g1 for",
        "loads = [(b - lam) * c1 * g0 + lam * c0 * g1 for",
        "joint delivery weights each integer budget's loads by the other part's share of the "
        "file, so the formula no longer matches the bits the two split libraries send",
        ("tests/test_demand_loads.py::TestFractionalBudgetOnBits::"
         "test_split_library_stores_decodes_and_meets_the_formulas",
         "tests/test_tradeoff.py::TestJointDelivery::test_equals_envelope_form"),
    ),
    Mutant(
        "bottleneck-reads-the-ratio-denominator", TRADEOFF,
        "_Curve.of(config, None).terms[2]",
        "_Curve.of(config, None).terms[1]",
        "the bottleneck user is the maximum's denominator B, not the prefix that attains it",
        ("tests/test_tradeoff.py::TestBottleneck::test_matches_the_fraction_argmax_on_a_tenths_grid[3]",),
    ),
    Mutant(
        "curve-record-reused-for-an-equal-r", TRADEOFF,
        "c.r is r",
        "c.r == r",
        "a curve's record is reused for any r equal to the kept one, so a float r equal to the "
        "kept Fractions is never checked, and a float reaches the exact formulas",
        ("tests/test_tradeoff.py::TestCurveRecordReuse::"
         "test_a_float_r_after_an_equal_fraction_tuple_is_refused[gndt_ub]",),
    ),
    Mutant(
        "curve-record-reused-for-a-list-r", TRADEOFF,
        "\n                and (r is None or type(r) is tuple)):",
        "):",
        "the record is reused for the same list object, so a list r changed in place between two "
        "calls reads the gaps of its old values",
        ("tests/test_tradeoff.py::TestCurveRecordReuse::"
         "test_a_list_r_changed_in_place_gives_the_new_value[gndt_ub]",),
    ),
    Mutant(
        "curve-terms-shared-across-configs", TRADEOFF,
        "if c.config is not config:",
        "if c.config is None:",
        "the record's maximum is taken for the first config of a curve only, so every later mu "
        "reads the first mu's delivery time",
        ("tests/test_tradeoff.py::TestCurveRecordReuse::test_the_converse_reads_its_own_configs_maximum",),
    ),
    Mutant(
        "curve-record-keyed-without-the-served-count", TRADEOFF,
        "c.r is r and c.served == served",
        "c.r is r",
        "a record made for one min(K, N) is reused for another, so memory sharing interpolates "
        "the integer-budget times of the other file count",
        ("tests/test_tradeoff.py::TestCurveRecordReuse::test_a_change_of_N_alone_reaches_memory_sharing",),
    ),
    Mutant(
        "hole-refusal-at-an-empty-cache", TRADEOFF,
        "    if config.mu == 1:\n        raise ValueError(\"a full cache",
        "    if config.mu == 0:\n        raise ValueError(\"a full cache",
        "the hole region refuses mu = 0, which has content traffic to protect, and divides by "
        "the zero loads of mu = 1",
        ("tests/test_tradeoff.py::TestHoles::test_full_cache_rejected",
         "tests/test_tradeoff.py::TestHoles::test_random_instances_vertex_invariance"),
    ),
    Mutant(
        "draw-rounds-subfiles-up-to-bytes", CACHING,
        "[[bits(size) for _",
        "[[bits(size + -size % 8) >> -size % 8 for _",
        "each subfile is drawn as whole bytes and shifted down to its width; below 32 bits "
        "that is the same draw, so only a subfile wider than a word and not a whole number "
        "of bytes shows it",
        ("tests/test_caching.py::TestLibrary::test_cut_from_drawn_bytes_matches_the_shift_cut",),
    ),
    Mutant(
        "library-without-width-check", CACHING,
        "if type(v) is not int or v < 0 or v.bit_length() > size:",
        "if type(v) is not int or v < 0:",
        "a subfile int wider than the library's subfiles is kept, so a library whose values "
        "do not fit its width is verified as if they did",
        ("tests/test_caching.py::TestLibrary::test_refuses_a_library_that_does_not_fit_its_shape[value-too-wide]",),
    ),
    Mutant(
        "draw-reseeds-per-file", CACHING,
        "for _ in range(pieces)] for _ in range(num_files)]",
        "for _ in range(pieces)] for bits in [random.Random(seed).getrandbits for _ in range(num_files)]]",
        "each file is drawn from a fresh generator of the same seed, so every file holds the "
        "same bits; each user still decodes the file it asked for, so only the draw tests see it",
        ("tests/test_caching.py::TestLibrary::test_random_library_is_the_numpy_draw",),
    ),
    Mutant(
        "symmetric-leaders-take-a-bool", REGIONS,
        'return range(1, _checked_int("s", s, 1, num_users) + 1)',
        'return range(1, _checked_int("s", int(s), 1, num_users) + 1)',
        "s = True is read as s = 1, so a symmetric region is built for a leader count "
        "nobody gave",
        ("tests/test_regions.py::TestSymmetricKinds::test_integer_arguments_are_refused_by_name"
         "[projection-s-bool]",),
    ),
    Mutant(
        "checked-int-takes-a-bool", COMBINATORICS,
        "if isinstance(value, bool) or not isinstance(value, int):",
        "if not isinstance(value, int):",
        "every count, size, index and seed takes True as 1 and False as 0, so a load is "
        "computed for a served count nobody gave",
        ("tests/test_combinatorics.py::TestIntegerArguments::test_refused_by_name[coded-load-served-bool]",),
    ),
    Mutant(
        "checked-int-drops-its-upper-bound", COMBINATORICS,
        "if high is not None and not low <= value <= high:",
        "if high is not None and not low <= value < high:",
        "each range loses its top end, so a full cache (split order t = K) is refused",
        ("tests/test_caching.py::TestLibrary::test_split_order_takes_both_ends[split-K]",),
    ),
    Mutant(
        "frac-takes-a-bool", LP,
        "if isinstance(x, (float, bool)):",
        "if isinstance(x, float):",
        "every rational argument takes True as 1 and False as 0, so a trade-off is computed "
        "at a cache fraction nobody gave",
        ("tests/test_combinatorics.py::TestRationalArguments::test_a_bool_is_refused[mu]",),
    ),
    Mutant(
        "phase-one-enters-on-the-scaled-rhs", LP,
        "key=lambda i: Fraction(rows[i][1][-1], rows[i][0]))",
        "key=lambda i: rows[i][1][-1])",
        "x0 enters on the most negative rhs of the integer-scaled rows, which need not be the most "
        "negative unscaled one, so a rhs stays negative and the simplex stops at an infeasible point",
        ("tests/test_lp.py::test_phase_one_enters_on_the_most_negative_unscaled_rhs",),
    ),
    Mutant(
        "phase-one-misses-infeasibility", LP,
        "if tab.pop()[-1]:",
        "if tab.pop()[-1] > 0:",
        "the phase-1 optimum -x0 is never above 0, so no row set is found infeasible and phase 2 "
        "runs on rows that have no solution",
        ("tests/test_lp.py::test_infeasible",),
    ),
    Mutant(
        "phase-one-keeps-a-basic-artificial", LP,
        "if n + m in basis:",
        "if False:",
        "x0 left basic at 0 by a tie keeps its row when its column is deleted, and that row's basic "
        "index then names the rhs column",
        ("tests/test_lp.py::test_phase_one_drives_out_a_basic_artificial_on_a_negative_pivot",),
    ),
    Mutant(
        "zero-rhs-runs-phase-one", LP,
        "if ints[-1] < 0]",
        "if ints[-1] <= 0]",
        "a zero rhs takes an x0 column and a phase 1 that the feasible slack basis does not need, "
        "and a degenerate LP ends at another maximizer than the Fraction oracle's",
        ("tests/test_lp.py::test_a_zero_rhs_takes_no_phase_one",),
    ),
    Mutant(
        "ratio-tie-leaves-on-the-last-row", LP,
        "if here < best or",
        "if here <= best or",
        "the leaving row of a tied ratio test is the last one, not the lowest basic index: no longer "
        "Bland's rule, so a degenerate LP ends at another maximizer",
        ("tests/test_lp.py::test_bland_leaves_on_the_lowest_basic_index_of_a_tie",),
    ),
    Mutant(
        "simplex-enters-a-zero-reduced-cost", LP,
        "if obj[j] < 0), None)",
        "if obj[j] <= 0), None)",
        "a column of zero reduced cost keeps entering, so the simplex never stops",
        ("tests/test_lp.py::test_simple_box",),
    ),
    Mutant(
        "pivot-adds-the-pivot-row", LP,
        "tab[i] = [(v * p - f * w) // d for v, w in zip(r, prow)]",
        "tab[i] = [(v * p + f * w) // d for v, w in zip(r, prow)]",
        "a pivot adds the pivot row where it should subtract it, so the entering column is never "
        "cleared and the simplex does not stop",
        ("tests/test_lp.py::test_simple_box",),
    ),
    Mutant(
        "lp-result-is-mutable", LP,
        "class LpResult(NamedTuple):",
        "@__import__('dataclasses').dataclass\nclass LpResult:",
        "a result's fields can be reassigned after it is returned, and a result can no longer be hashed",
        ("tests/test_lp.py::test_a_result_is_a_frozen_value",),
    ),
    Mutant(
        "frozen-equality-skips-the-first-field", COMBINATORICS,
        "return self._values() == other._values()",
        "return self._values()[1:] == other._values()[1:]",
        "two regions over differently named variables, or two caches of different users, compare "
        "equal when their other fields agree",
        ("tests/test_combinatorics.py::test_a_value_class_is_a_frozen_value[Polytope]",),
    ),
    Mutant(
        "checked-fraction-drops-its-upper-bound", COMBINATORICS,
        "<= q.numerator <= high * q.denominator:",
        "<= q.numerator:",
        "each closed rational range loses its top end, so mu = 3/2 is accepted",
        ("tests/test_combinatorics.py::TestRationalArguments::test_refused_by_name[mu-above-1]",),
    ),
    Mutant(
        "checked-fraction-excludes-its-ends", COMBINATORICS,
        "not low * q.denominator <= q.numerator <= high * q.denominator",
        "not low * q.denominator < q.numerator < high * q.denominator",
        "each closed rational range becomes open, so mu = 1, a full cache, is refused",
        ("tests/test_combinatorics.py::TestRationalArguments::test_range_ends_are_accepted[mu-1]",),
    ),
    Mutant(
        "maximize-skips-unknown-names", POLYTOPE,
        "            coeffs[self.index(name)] = c\n",
        "            if name in self.variables:\n                coeffs[self.index(name)] = c\n",
        "an objective over a name the region lacks is maximized as if that term were absent",
        ("tests/test_polytope.py::test_variable_names_are_refused_by_name[maximize-unknown]",),
    ),
    Mutant(
        "grid-over-the-start-denominator", CLI,
        "return [Fraction(a + i * c, q) for i in range(count)]",
        "return [Fraction(a + i * c, start.denominator) for i in range(count)]",
        "the grid's integer points are read over start's own denominator, not over the lcm "
        "of start's and step's, so every point but a whole-number start is scaled wrong",
        ("tests/test_cli_fuzz.py::test_grid_matches_fraction_steps",),
    ),
    Mutant(
        "grid-drops-the-step", CLI,
        "return [Fraction(a + i * c, q) for i in range(count)]\n",
        "return [Fraction(a, q) for i in range(count)]\n",
        "every grid point is the start: the row count is right and only the mu column shows it",
        ("tests/test_cli_fuzz.py::test_grid_matches_fraction_steps",
         "tests/test_cli.py::TestSweepMemory::test_joint_column_present"),
    ),
    Mutant(
        "verify-record-always-passes", CLI,
        '"true" if ok else "false"',
        '"true"',
        "every NDJSON record says pass whatever its verdict, so a failed demand tuple reads as "
        "passed in the records and only the summary counts it",
        ("tests/test_cli.py::TestVerify::test_records_are_sorted_key_json[inject-fault]",),
    ),
    Mutant(
        "fault-flips-no-bit", CACHING,
        "1 << (width - 1)",
        "0",
        "the injected fault XORs a payload with 0, so a corrupted delivery verifies as clean",
        ("tests/test_caching.py::TestEndToEnd::test_corrupted_payload_fails",),
    ),
    Mutant(
        "subfile-lookup-takes-a-bool", CACHING,
        "if isinstance(subset, tuple) and all(type(u) is int for u in subset):",
        "if isinstance(subset, tuple):",
        "True and 1.0 hash as 1, so subset (True,) reads user 1's subfile",
        ("tests/test_caching.py::TestLibrary::test_subfile_lookup_takes_only_sorted_subsets",),
    ),
    Mutant(
        "whole-list-truncates-its-entries", CLI,
        "values[i] = int(str(token))",
        "values[i] = int(values[i])",
        "a --d or --leaders entry 2/2 or 1.0 runs as the int it equals, and 2.5 is truncated to 2",
        ("tests/test_cli.py::TestFlagsPerCommand::test_bad_token_names_its_flag[d-fraction-text]",),
    ),
    Mutant(
        "reader-switch-takes-a-value", CLI,
        " or switch and joined or ",
        " or ",
        "--exact=yes runs as --exact, where argparse refuses the value",
        ("tests/test_cli.py::TestFlagsPerCommand::test_switch_given_a_value_is_usage_error",),
    ),
    Mutant(
        "reader-takes-a-flag-as-a-value", CLI,
        " or not joined and value in _FLAGS:",
        ":",
        "--mu --exact reads '--exact' as the cache size, where argparse finds --mu without its value",
        ("tests/test_cli.py::TestFlagsPerCommand::test_flag_after_a_value_flag_is_not_its_value",),
    ),
    Mutant(
        "reader-takes-every-command-flag", CLI,
        "for flag in _command_flags(command)}",
        "for flag in _FLAGS}",
        "gndt --P 3 runs, the flag ignored, where argparse refuses a flag the command does not take",
        ("tests/test_cli.py::TestFlagsPerCommand::test_flag_the_command_does_not_take_is_usage_error",),
    ),
    Mutant(
        "reader-keeps-the-first-value", CLI,
        "        values[dest] = value\n",
        "        values[dest] = value if values[dest] is None else values[dest]\n",
        "a repeated flag keeps its first value, where argparse keeps the last",
        ("tests/test_cli.py::TestFlagsPerCommand::test_repeated_flag_keeps_its_last_value",),
    ),
    Mutant(
        "subsets-rewrapped-as-tuples", CACHING,
        "return list(combinations(range(1, self.num_users + 1), self.split_order))",
        "return [tuple(s) for s in combinations(range(1, self.num_users + 1), self.split_order)]",
        "combinations already yields tuples: the same subsets, only an extra copy",
        EQUIVALENT,
    ),
    Mutant(
        "pivot-sign-test-takes-zero", LP,
        "if p < 0:",
        "if p <= 0:",
        "a pivot entry is never 0, so p <= 0 and p < 0 agree",
        EQUIVALENT,
    ),
    Mutant(
        "pivot-sign-test-below-one", LP,
        "if p < 0:",
        "if p < 1:",
        "a pivot entry is a nonzero integer, so p < 1 and p < 0 agree",
        EQUIVALENT,
    ),
    Mutant(
        "ratio-sentinel-is-minus-two", LP,
        "        row = -1\n",
        "        row = -2\n",
        "the sentinel is only tested by row < 0, before a ratio replaces it",
        EQUIVALENT,
    ),
    Mutant(
        "ratio-tie-takes-an-equal-basic-index", LP,
        "basis[i] < basis[row]",
        "basis[i] <= basis[row]",
        "two rows never hold the same basic variable, so the basic indices of a tie never compare equal",
        EQUIVALENT,
    ),
    Mutant(
        "slack-columns-scaled-by-two", LP,
        "row[n + i] = 1  # slack",
        "row[n + i] = 2  # slack",
        "the slack columns of 2 s: every later tableau is the original's times a positive integer "
        "and a positive column scaling, so the signs, the ratio order, the exact divisions and the "
        "values read off stay the same",
        EQUIVALENT,
    ),
    Mutant(
        "phase-one-objective-doubled", LP,
        "tab.append([0] * (n + m) + [1, 0])",
        "tab.append([0] * (n + m) + [2, 0])",
        "maximizing -2 x0 takes the pivots of maximizing -x0, and its optimum is 0 exactly when that one is",
        EQUIVALENT,
    ),
    Mutant(
        "objective-row-one-entry-longer", LP,
        "[0] * (m + 1)",
        "[0] * (m + 2)",
        "the extra trailing 0 goes with the first pivot that changes the objective row (zip stops at "
        "the shorter row), and a row that no pivot changes has no basic cost, so its value is 0 either way",
        EQUIVALENT,
    ),
    Mutant(
        "square-solve-skips-the-bareiss-division", LP,
        "aug[r] = [(v * p - f * w) // prev for",
        "aug[r] = [(v * p - f * w) * prev for",
        "each row keeps an extra integer factor; the last pivot is then a multiple of the "
        "determinant, so back substitution still divides exactly and returns the same solution, "
        "only with larger integers on the way",
        EQUIVALENT,
    ),
    Mutant(
        "back-substitution-starts-from-ones", LP,
        "y = [0] * n",
        "y = [1] * n",
        "back substitution writes each y[i] before any later row reads it",
        EQUIVALENT,
    ),
    Mutant(
        "is-empty-target-of-scale-2", POLYTOPE,
        "[(1, (0,) * len(self.variables) + (-1,))]",
        "[(2, (0,) * len(self.variables) + (-1,))]",
        "the target 0 <= -1/2 is implied exactly when 0 <= -1 is: iff the rows are infeasible",
        EQUIVALENT,
    ),
    Mutant(
        "is-empty-target-sums-the-coordinates", POLYTOPE,
        "[(1, (0,) * len(self.variables) + (-1,))]",
        "[(1, (1,) * len(self.variables) + (-1,))]",
        "on x >= 0 the sum of the coordinates is never below 0, so the rows imply sum <= -1 iff "
        "they are infeasible",
        EQUIVALENT,
    ),
    Mutant(
        "is-empty-asks-0-le-minus-2", POLYTOPE,
        "(0,) * len(self.variables) + (-1,))]",
        "(0,) * len(self.variables) + (-2,))]",
        "0 <= -2 is implied exactly when 0 <= -1 is: iff the rows are infeasible",
        EQUIVALENT,
    ),
    Mutant(
        "primitive-divides-by-a-gcd-of-1", POLYTOPE,
        "if g > 1 else",
        "if g >= 1 else",
        "dividing every entry by 1 gives the same tuple",
        EQUIVALENT,
    ),
    Mutant(
        "canonical-scale-of-a-zero-row-is-2", POLYTOPE,
        "abs(next(filter(None, row), 1))",
        "abs(next(filter(None, row), 2))",
        "only the all-zero row 0 <= 0 takes the default: dedupe and prune drop it, and in "
        "containment's common scale it only multiplies every row by the same positive integer",
        EQUIVALENT,
    ),
    Mutant(
        "fm-zero-column-rows-as-uppers", POLYTOPE,
        "for _, r in rows if r[idx] > 0]",
        "for _, r in rows if r[idx] >= 0]",
        "a row without x_idx also goes through the upper loop, where each of its combinations is "
        "that row again, after its first copy from the kept rows: dedupe keeps the first copy, so "
        "the rows, their scales and their order are the same",
        EQUIVALENT,
    ),
    Mutant(
        "fm-zero-column-rows-as-lowers", POLYTOPE,
        "for _, r in rows if r[idx] < 0]",
        "for _, r in rows if r[idx] <= 0]",
        "a row without x_idx also goes through the lower loop with weight 0, so each of its "
        "combinations is that row again, after its first copy: dedupe keeps the first copy",
        EQUIVALENT,
    ),
    Mutant(
        "fm-lowers-below-1", POLYTOPE,
        "for _, r in rows if r[idx] < 0]",
        "for _, r in rows if r[idx] < 1]",
        "an integer below 1 is at most 0: the program of fm-zero-column-rows-as-lowers",
        EQUIVALENT,
    ),
    Mutant(
        "prune-targets-two-rows", POLYTOPE,
        "ints[i : i + 1])",
        "ints[i : i + 2])",
        "the extra target is row i + 1, which is one of the evidence rows and so always implied",
        EQUIVALENT,
    ),
    Mutant(
        "dd-row-bits-start-one-higher", POLYTOPE,
        "enumerate(poly.int_rows, start=n + 1)",
        "enumerate(poly.int_rows, start=n + 2)",
        "a row's bit only names it in the zero sets; shifting every row bit by one leaves bit "
        "n + 1 unused and every intersection and count the same",
        EQUIVALENT,
    ),
    Mutant(
        "dd-row-bit-doubled", POLYTOPE,
        "1 << k\n",
        "2 << k\n",
        "2 << k is 1 << (k + 1): the program of dd-row-bits-start-one-higher",
        EQUIVALENT,
    ),
    Mutant(
        "dd-adjacency-count-loosened", POLYTOPE,
        "common.bit_count() >= n - 1",
        "common.bit_count() >= n - 2",
        "the count is only a necessary condition for adjacency; the combinatorial test (no third "
        "ray's zero set contains the common one) decides it alone for extreme rays (Fukuda & "
        "Prodon 1996), so a looser count only lets more pairs reach that test",
        EQUIVALENT,
    ),
)

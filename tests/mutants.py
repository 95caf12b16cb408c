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
        "    return lambda group, leaders, pool, pattern: memo.setdefault(\n"
        "        (group, leaders, pool), sources(group, leaders, pool, pattern))\n\n\n"
        "@_keyed_without_pattern\ndef _reconstruction_sources(",
        "the first demand pattern's source groups are reused for every tuple with "
        "the same leaders and pool",
        ("tests/test_caching.py::TestMissingMessagesExhaustive::test_every_missing_payload_recomposes[3-2]",),
    ),
    Mutant(
        "verify-checks-only-user-1", CACHING,
        "for user in range(1, num_users + 1)\n    )",
        "for user in range(1, 2)\n    )",
        "a corrupted payload that user 1 does not consume passes verification",
        ("tests/test_caching.py::TestEndToEnd::test_every_tuple_on_wide_subfiles",),
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
        "-f * row[-1]) for row, f in",
        "f * row[-1]) for row, f in",
        "one row certifies another whose rhs is smaller, so containment holds "
        "for a region that sticks out of the outer one",
        ("tests/test_polytope.py::test_row_just_below_a_dominating_row_is_not_implied",),
    ),
    Mutant(
        "dominance-flipped", POLYTOPE,
        "return any(all(map(le, c, a)) for a in rows if a is not c)",
        "return any(all(map(le, a, c)) for a in rows if a is not c)",
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
        "regions-equal-one-direction", POLYTOPE,
        "return region_contains(a, b) and region_contains(b, a)",
        "return region_contains(a, b)",
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
        "decode_file(user, by_group, caches[user - 1], d) == wanted[d[user - 1] - 1]",
        "decode_file(user, by_group, caches[user - 1], d)[:1] == wanted[d[user - 1] - 1][:1]",
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
        "dedupe-keeps-dominated-rows", POLYTOPE,
        "return [row for row, c in zip(kept, scaled) if not _dominated(c, scaled)]",
        "return kept",
        "Fourier-Motzkin and fix_variables keep every row that one other row implies",
        ("tests/test_polytope.py::test_eliminate_matches_fraction_fm",
         "tests/test_polytope.py::test_fix_variables_matches_fraction_dedupe"),
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
        "converse-factor-two", TRADEOFF,
        "CONVERSE_FACTOR = Fraction(201, 100)",
        "CONVERSE_FACTOR = Fraction(2)",
        "every converse bound is divided by 2, not by the constant 201/100 the information "
        "bounds give up",
        ("tests/test_cli.py::TestGndt::test_integer_budget_values",
         "tests/test_tradeoff.py::TestLowerBound::test_worked_example_is_pinned"),
    ),
    Mutant(
        "binding-prefix-keeps-the-last-tie", TRADEOFF,
        "if p * over > best * g:",
        "if p * over >= best * g:",
        "of two prefixes with the same ratio the stronger user is named the bottleneck",
        ("tests/test_tradeoff.py::TestBottleneck::test_tie_goes_to_the_weakest",),
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
        "subsets-rewrapped-as-tuples", CACHING,
        "return list(combinations(range(1, self.num_users + 1), self.split_order))",
        "return [tuple(s) for s in combinations(range(1, self.num_users + 1), self.split_order)]",
        "combinations already yields tuples: the same subsets, only an extra copy",
        EQUIVALENT,
    ),
)

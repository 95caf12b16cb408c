"""Command-line front end.

`_COMMANDS` lists each command's flags, besides --config and --out, and the
ones it requires.

The tokens after a command name go straight to that command's own parser, the
one the top-level parser would hand them to; --help, no command or an unknown
one go to the top-level parser.  A flag the command does not take is a usage
error under the command's usage line, and so is a prefix of one it takes (--r
for --region-trials), each named with its value as typed (--P -1).  Flags can
come from a JSON config file (--config), required ones such as --sigma included;
explicit flags win, and --mu and --mu-grid are alternatives: a flag for one
overrides a config value for the other, and both at once are a usage error.
Each value is parsed and checked once, by its flag's `check` in _FLAGS: under
the flag's name on the command line, where the token after a flag the command
takes with a value is that value (--mu -1/3), and under `--config FILE: --flag`
in the file, also where a flag overrides it.  A list flag (--alpha, --r,
--leaders, --d) takes comma text or a JSON list, and refuses any other JSON
value; an empty comma entry (1,2,) is an error.
Numbers print with 12 significant digits; --exact adds p/q columns.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import random
import sys
from fractions import Fraction
from itertools import product

from . import caching, finite_snr, regions, tradeoff
from .combinatorics import _checked_fraction, _checked_int
from .polytope import regions_equal, eliminate, vertices
from .tradeoff import SystemConfig

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _fmt(x) -> str:
    return f"{float(x):.12g}"  # math.inf prints as inf


def _fmt_exact(x) -> str:
    if isinstance(x, float):  # inf, the one float a delivery time can be
        return f"{x:g}"
    return f"{x.numerator}/{x.denominator}"


def _parse_fraction(token, flag: str) -> Fraction:
    """The exact value of `token`; plain p or p/q text in ASCII digits is read as ints."""
    text = str(token)
    num, slash, den = text.partition("/")
    try:
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den or 1))
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: {token!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag}: {token!r} is not a number") from None


def _parse_list(value, flag: str, whole: bool = False, check=None) -> list:
    """Comma text, or a JSON list from --config; `whole` lists (users, files) hold ints.
    `check`, if given, is the library's own check of the list; its refusal is named by the flag."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float, list)):  # JSON null, true, {}
        raise ValueError(f"{flag} takes comma text or a JSON list, got {value!r}")
    tokens = value if isinstance(value, list) else str(value).split(",")
    if "" in tokens:  # "1,2," or "1/2,,1": a typo, never a shorter list
        raise ValueError(f"{flag}: {value!r} has an empty entry")
    values = [_parse_fraction(token, flag) for token in tokens]
    if whole:  # int text or a JSON int, read as `_whole` reads --K: 1.0 and 2/2 are refused
        for i, token in enumerate(tokens):
            try:
                values[i] = int(str(token))
            except ValueError:
                raise ValueError(f"{flag}: {token!r} is not a whole number") from None
    try:
        if check is not None:
            check(values)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    return values


def _parse_grid(text, flag: str) -> list[Fraction]:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} must have the form start:end:step, got {text!r}")
    start, end, step = (_parse_fraction(t, flag) for t in parts)
    if step <= 0 or end < start:
        raise ValueError(f"{flag} start:end:step needs step > 0 and end >= start, got {text!r}")
    count = (end - start) // step + 1  # start, start + step, ..., up to end
    for value in (start, start + (count - 1) * step):  # both ends, before the grid is built
        _checked_fraction(f"{flag} values", value, 0, 1)
    return [start + i * step for i in range(count)]


def _mu(value, flag: str) -> Fraction:
    return _checked_fraction(flag, _parse_fraction(value, flag), 0, 1)


def _whole(value, flag: str, low=None) -> int:
    """An int parsed from its text (4.5 and true are refused, not truncated), at least `low`."""
    try:
        number = int(str(value))
    except ValueError:
        raise ValueError(f"{flag} takes an int, got {value!r}") from None
    return _checked_int(flag, number, low)


def _kept(value, flag: str, test, refusal: str):
    """`value` as it is, if `test` accepts it."""
    if not test(value):
        raise ValueError(f"{flag} {refusal}, got {value!r}")
    return value


def _one_of(*choices) -> dict:
    """A choice flag's check, and the metavar argparse's usage line shows for it."""
    refusal = f"must be one of {', '.join(choices)}"
    return {"check": functools.partial(_kept, test=choices.__contains__, refusal=refusal),
            "metavar": "{" + ",".join(choices) + "}"}


def _merge_config(args: argparse.Namespace) -> None:
    """Check every value the JSON config file, if one was given, holds for
    this command's flags, and fill the unset flags from it."""
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            stored = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read --config {args.config}: {exc.strerror}") from None
    if not isinstance(stored, dict):
        raise ValueError(f"--config {args.config} must hold a JSON object of flag values")
    given = {attr for attr, value in vars(args).items() if value is not None}
    for key, value in stored.items():
        flag, where = "--" + key.replace("_", "-"), f"--config {args.config}"
        if flag not in _FLAGS:
            raise ValueError(f"{where}: {key!r} is not a flag of {args.command} or of any other command")
        if flag not in _command_flags(args.command):
            continue  # another command's flag: one file may serve several commands
        value = _FLAGS[flag]["check"](value, f"{where}: {flag}")  # even if a flag overrides it
        attr = flag[2:].replace("-", "_")  # argparse's dest
        alternative = {"mu": "mu_grid", "mu_grid": "mu"}.get(attr)  # a flag for either wins
        if attr not in given and alternative not in given:
            setattr(args, attr, value)


def _output(args):
    """The --out file, closed on exit, or stdout."""
    return open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)


def _emit_table(args, header: list[str], rows: list[list[str]]) -> None:
    with _output(args) as out:
        if (args.format or "csv") == "json":
            records = [dict(zip(header, row)) for row in rows]
            out.write(json.dumps(records, indent=2, sort_keys=True) + "\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


def cmd_tradeoff(args) -> int:
    """gndt and sweep-memory: one row of delivery times per mu.

    sweep-memory adds the joint two-set column; gndt --exact adds p/q columns.
    """
    if (args.mu is None) == (args.mu_grid is None):  # neither, or both
        raise ValueError("--mu and --mu-grid are alternatives; give one of them")
    r, mus, alpha = args.r or None, args.mu_grid or [args.mu], tuple(args.alpha)  # a grid is never empty
    joint = args.command == "sweep-memory"
    exact = args.command == "gndt" and args.exact
    columns = ["tau_ub", "tau_joint", "tau_ms", "tau_lb"] if joint else ["tau_ub", "tau_ms", "tau_lb"]
    header = ["mu"] + columns + ([f"{c}_exact" for c in columns] if exact else [])
    rows = []
    for mu in mus:
        config = SystemConfig(args.K, args.N, mu, alpha)
        vals = {
            "tau_ub": tradeoff.gndt_ub(config, r),
            "tau_ms": tradeoff.gndt_memory_sharing(config, r),
            "tau_lb": tradeoff.gndt_lower_bound(config, r),
        }
        if joint:
            vals["tau_joint"] = (
                vals["tau_ub"] if config.integer_budget else tradeoff.gndt_joint_two_set(config, r)
            )
        row = [_fmt(mu)] + [_fmt(vals[c]) for c in columns]
        if exact:
            row += [_fmt_exact(vals[c]) for c in columns]
        rows.append(row)
    _emit_table(args, header, rows)
    return 0


def cmd_holes(args) -> int:
    config = SystemConfig(args.K, args.N, args.mu, tuple(args.alpha))
    star = tradeoff.bottleneck_user(config)
    region = tradeoff.topological_hole_region(config)
    base_tau = tradeoff.gndt_ub(config)
    checks = []
    all_ok = True
    for vertex in vertices(region):
        tau = tradeoff.gndt_ub(config, vertex)
        ok = tau == base_tau
        all_ok &= ok
        checks.append(
            {
                "vertex": [_fmt(v) for v in vertex],
                "tau": _fmt(tau),
                "invariant": ok,
            }
        )
    doc = {
        "bottleneck_user": star,
        "tau_no_unicast": _fmt(base_tau),
        "region": region.payload(),
        "vertex_checks": checks,
        "all_invariant": all_ok,
    }
    with _output(args) as out:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all_ok else VERIFY_ERROR


def cmd_region(args) -> int:
    alpha, kind, K, sigma = tuple(args.alpha), args.kind or "full", args.K, args.sigma
    for flag, value, kinds in (
        ("--s", args.s, ("symmetric", "two-multicast")),
        ("--gamma", args.gamma, ("two-multicast",)),
        ("--leaders", args.leaders, ("missing",)),
    ):
        if value is not None and kind not in kinds:
            raise ValueError(
                f"{flag} applies only to --kind {' or '.join(kinds)}, not {kind}"
            )
    if kind == "full":
        poly = regions.build_region(K, sigma, alpha)
    elif kind == "symmetric":
        poly = regions.symmetric_projection(K, sigma, alpha, args.s or K)
    elif kind == "missing":
        if not args.leaders:
            raise ValueError("--leaders is required for --kind missing")
        poly = regions.build_missing_message_region(K, sigma, alpha, args.leaders)
    else:  # two-multicast: --kind's check admits no other kind
        if args.gamma is None:
            raise ValueError("--gamma is required for --kind two-multicast")
        poly = regions.build_two_multicast_symmetric(K, sigma, args.gamma, alpha, args.s or K)
    with _output(args) as out:
        out.write(poly.to_json() + "\n")
    return 0


def _caching_sweeps(args) -> list:
    """The caching stage's (library, demand tuples) pairs, one per (K, N, t);
    every library is drawn here, before --out is opened."""
    seed, d, file_bits, K, N = args.seed or 0, None, args.B, args.K, args.N
    if (K is None) != (N is None):
        raise ValueError("verify takes --K and --N together, or neither for the sweep")
    if K is None and (args.mu is not None or args.d):
        raise ValueError("verify takes --mu and --d only with --K and --N")
    if K is not None and (args.max_K or args.max_N):
        raise ValueError("verify takes --max-K and --max-N only without --K and --N")
    splits = None  # every split 0..K of each K
    if args.mu is not None:
        budget = K * args.mu
        if budget.denominator != 1:
            raise ValueError(
                f"K*mu = {budget} is not an integer for --K {K} --mu {args.mu}; "
                "the subfile scheme needs an integer cache budget"
            )
        splits = [int(budget)]
    if args.d:
        d = tuple(args.d)
        caching.check_demand(d, K, N)  # before --out is opened
    # one explicit configuration, or the sweep over every K <= --max-K and N <= --max-N
    users = [K] if K is not None else range(1, (args.max_K or 4) + 1)
    files = [N] if N is not None else range(1, (args.max_N or 4) + 1)
    shapes = [(k, n, split) for k in users for n in files for split in splits or range(k + 1)]
    return [
        (caching.random_library(N, K, split, file_bits, seed),
         [d] if d else product(range(1, N + 1), repeat=K))
        for K, N, split in shapes
    ]


def _verify_caching(args, sweeps, records_out) -> tuple[int, int]:
    """Verify each demand tuple end to end and write its NDJSON record."""
    seed, verdicts = args.seed or 0, []

    def write(K, N, split, d, ok, fault="", tail="") -> None:
        verdicts.append(ok)
        # the bytes of json.dumps(record, sort_keys=True): K, Kmu, N, d, [fault,] pass, [seed]
        records_out.write(f'{{"K": {K}, "Kmu": {split}, "N": {N}, "d": [{", ".join(map(str, d))}]'
                          f'{fault}, "pass": {"true" if ok else "false"}{tail}}}\n')

    tail = f', "seed": {seed}'
    for library, demands in sweeps:
        shape = (library.num_users, library.num_files, library.split_order)
        for d in demands:
            write(*shape, d, caching.end_to_end_verify(*shape, d=d, library=library), tail=tail)
    if args.inject_fault:
        # one bit flipped in one payload: the sweep must report the failure
        ok = caching.end_to_end_verify(3, 3, 1, d=(1, 2, 3), seed=seed, corrupt_payload=0)
        write(3, 3, 1, (1, 2, 3), ok, fault=', "fault": true')
    return len(verdicts), verdicts.count(False)


def _verify_region_equality(args) -> tuple[int, int]:
    """Certify that eliminating the power exponents reproduces the region."""
    rng = random.Random(args.seed or 0)
    checked = failures = 0
    for K in (2, 3, 4):
        for sigma in range(2, K + 1):
            for _ in range(args.region_trials or 3):
                denom = rng.randrange(8, 40)
                cuts = sorted(rng.randrange(1, denom) for _ in range(K - 1))
                alpha = tuple(Fraction(c, denom) for c in cuts) + (Fraction(1),)
                theorem = regions.build_region(K, sigma, alpha)
                system = regions.beta_parameterized_polytope(K, sigma, alpha)
                projected = eliminate(system, regions.beta_names(K))
                checked += 1
                if not regions_equal(projected, theorem):
                    failures += 1
    return checked, failures


def cmd_verify(args) -> int:
    sweeps = _caching_sweeps(args)
    with _output(args) as out:
        cache_checked, cache_failed = _verify_caching(args, sweeps, out)
    region_checked, region_failed = _verify_region_equality(args)
    summary = {
        "caching": {"checked": cache_checked, "failed": cache_failed},
        "region_equality": {"checked": region_checked, "failed": region_failed},
        "pass": cache_failed == 0 and region_failed == 0,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["pass"] else VERIFY_ERROR


def cmd_finite_snr(args) -> int:
    alpha, K, sigma, power = tuple(args.alpha), args.K, args.sigma, args.P or 2.0**20
    inner = finite_snr.inner_rate_region(K, sigma, alpha, power)
    outer = finite_snr.outer_rate_region(K, sigma, alpha, power)
    rng = random.Random(args.seed or 0)
    points = [finite_snr.sample_boundary_point(inner, rng) for _ in range(args.certificates or 20)]
    outcomes = [finite_snr.constant_gap_certificate(inner, outer, p) for p in points]
    with _output(args) as out:
        finite_snr.write_region_csv({"inner": inner, "outer": outer}, out)
        out.write("\ncertificate,outcome\n")
        for i, ok in enumerate(outcomes):
            out.write(f"certificate_{i},{'pass' if ok else 'fail'}\n")
    return 0 if all(outcomes) else VERIFY_ERROR


_COUNT, _WHOLES = functools.partial(_whole, low=1), functools.partial(_parse_list, whole=True)
# the library's own list checks; a list's length against --K is the command's to check
_STRENGTHS = functools.partial(_parse_list, check=lambda a: regions._checked_strengths(len(a), tuple(a)))
_GDOFS = functools.partial(_parse_list, check=regions._checked_gdofs)
_PATH = functools.partial(_kept, test=lambda value: isinstance(value, str), refusal="takes a path")
_SWITCH = functools.partial(_kept, test=lambda value: isinstance(value, bool), refusal="takes true or false")

# every flag of every command: option string -> its check(value, flag), which parses the value
# from argv text (a switch: True) or JSON and refuses a bad one, and add_argument keywords
_FLAGS = {
    "--config": {"check": _PATH, "help": "JSON file with default flag values"},
    "--out": {"check": _PATH, "help": "output path (default stdout)"},
    "--K": {"check": _COUNT, "help": "number of users"},
    "--N": {"check": _COUNT, "help": "number of library files"},
    "--alpha": {"check": _STRENGTHS, "help": "channel strengths a1,a2,...,1"},
    "--sigma": {"check": _whole, "help": "multicast group size"},
    "--mu": {"check": _mu, "help": "normalized cache size in [0, 1] (verify: the one cache size to sweep)"},
    "--mu-grid": {"check": _parse_grid, "help": "grid start:end:step"},
    "--r": {"check": _GDOFS, "help": "unicast GDoF tuple r1,r2,..."},
    "--exact": {"check": _SWITCH, "action": "store_true", "default": None, "help": "add exact p/q columns"},
    "--format": {**_one_of("csv", "json"), "help": "table format"},
    "--kind": {**_one_of("full", "symmetric", "missing", "two-multicast"), "help": "default full"},
    "--s": {"check": _COUNT, "help": "coverage parameter for symmetric kinds"},
    "--gamma": {"check": _whole, "help": "second group size for two-multicast"},
    "--leaders": {"check": _WHOLES, "help": "leader users u1,u2,... for kind=missing"},
    "--B": {"check": _COUNT, "help": "file size in bits (default 8 bits per subfile)"},
    "--d": {"check": _WHOLES, "help": "explicit demand tuple d1,d2,... (default: all tuples)"},
    "--max-K": {"check": _COUNT, "help": "largest user count (default 4)"},
    "--max-N": {"check": _COUNT, "help": "largest file count (default 4)"},
    "--region-trials": {"check": _COUNT, "help": "random strengths per (K, sigma)"},
    "--inject-fault": {"check": _SWITCH, "action": "store_true", "default": None, "help": "corrupt one payload"},
    "--P": {"check": lambda value, flag: finite_snr._checked_power(flag, value),
            "help": "nominal power (> 1)"},
    "--seed": {"check": functools.partial(_whole, low=0), "help": "RNG seed"},
    "--certificates": {"check": _COUNT, "help": "boundary points to certify (default 20)"},
}
# flags whose next token is their value, even one that starts with -
_VALUED = {flag for flag, spec in _FLAGS.items() if "action" not in spec}

# command -> (handler, help, the flags its handler reads besides --config and --out,
# the flags it requires, checked in this order once the config file is merged)
_COMMANDS = {
    "gndt": (cmd_tradeoff, "delivery-time curves over a mu grid",
             "--K --N --alpha --mu --mu-grid --r --exact --format", "--K --N --alpha"),
    "sweep-memory": (cmd_tradeoff, "gndt sweep incl. joint two-set column",
                     "--K --N --alpha --mu --mu-grid --r --format", "--K --N --alpha"),
    "holes": (cmd_holes, "no-cost unicast region at minimum delivery time",
              "--K --N --alpha --mu", "--K --N --alpha --mu"),
    "region": (cmd_region, "dump a GDoF region as JSON",
               "--K --sigma --alpha --kind --s --gamma --leaders", "--K --alpha --sigma"),
    "verify": (cmd_verify, "caching + region-equality verification suites",
               "--K --N --mu --B --d --max-K --max-N --region-trials --inject-fault --seed", ""),
    "finite-snr": (cmd_finite_snr, "finite-power regions and gap certificates",
                   "--K --sigma --alpha --P --certificates --seed", "--K --alpha --sigma"),
}


def _command_flags(command: str) -> list[str]:
    return ["--config", *_COMMANDS[command][2].split(), "--out"]


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with exactly its flags.  No parser reads a
    prefix as a flag (allow_abbrev=False): `verify --r 1` is not --region-trials."""
    parser = argparse.ArgumentParser(
        prog="cachecast",
        description="coded caching delivery analysis for layered broadcast channels",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, *_) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in _command_flags(name):
            p.add_argument(flag, **{key: v for key, v in _FLAGS[flag].items() if key != "check"})
        p.set_defaults(command=name, func=func, parser=p)
    parser.set_defaults(commands=sub.choices)  # each command's parser, as main reaches it
    return parser


# one parser per process: parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def _tokens(argv: list[str], valued: set[str]) -> list[str]:
    """argv with `--flag -value` joined into `--flag=-value` for a flag in `valued`:
    argparse reads -1/3 or -0.1,0 as a flag, not as a value."""
    tokens = []
    for token in argv:
        if token.startswith("-") and tokens and tokens[-1] in valued and token not in _FLAGS:
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    return tokens


def main(argv=None) -> int:
    argv, parser, valued = sys.argv[1:] if argv is None else argv, _parser(), _VALUED
    if argv and argv[0] in _COMMANDS:  # parse the rest with the parser the top one hands it to
        command, *argv = argv
        parser = parser.get_default("commands")[command]
        valued = _VALUED.intersection(_command_flags(command))
    args, extra = parser.parse_known_args(_tokens(argv, valued))
    if extra:  # argparse would report them with the top parser's usage
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        for attr, value in list(vars(args).items()):  # each value is checked where it is read
            if value is not None and (flag := "--" + attr.replace("_", "-")) in _FLAGS:
                setattr(args, attr, _FLAGS[flag]["check"](value, flag))
        _merge_config(args)
        for flag in _COMMANDS[args.command][3].split():
            if getattr(args, flag[2:]) is None:
                raise ValueError(f"{flag} is required (flag or config file)")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

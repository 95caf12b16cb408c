"""The four workloads: how inputs are drawn, run, and checked.

Every input is drawn from (workload, seed, pass index), so one seed always
gives the same inputs, and each pass of a run gets fresh ones: an in-process
cache in the package only helps where real inputs repeat structure (the same
(K, N) pair, the same library shape), never because a whole call repeats.
The shape mix of each pass is fixed and only the values inside it are drawn,
which keeps the cost of a pass steady from seed to seed.

The package is driven from outside: `cachecast.cli.main` with a generated argv,
or a public function with generated arguments.  Calls go through module
attributes (`cli.main`, `caching.end_to_end_verify`) so that the layer tracer's
wrappers see them.  Output checks are oracles computed from the inputs, not
golden bytes, and run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction
from math import comb
from time import perf_counter_ns

import hostspeed
from cachecast import caching, cli, polytope, regions
from cachecast.polytope import Polytope

# a failure reason that is a documented defect of the program, not of the run
KNOWN_DEFECT_REASONS = {"empty_hole_region"}

CONVERSE = Fraction(201, 100)
INF = float("inf")


def _is_record(part: str) -> bool:
    return part.startswith('{"K"')


class Capture(io.TextIOBase):
    """Stdout handed to the program: keeps each write and when it arrived.

    With a host-speed clock, stamps are in its program time, and every
    RECORD_STRIDE-th streamed record takes a reference sample.
    """

    def __init__(self, clock: hostspeed.Clock | None = None):
        self.parts: list[str] = []
        self.stamps: list[int] = []
        self.clock = clock
        self.records = 0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.stamps.append(self.clock.now() if self.clock else perf_counter_ns())
        self.parts.append(text)
        if self.clock and _is_record(text):
            self.records += 1
            if self.records % hostspeed.RECORD_STRIDE == 0:
                self.clock.mark()
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


def run_cli(argv: list[str], out: Capture) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"code": code, "stderr": err.getvalue()}


# -- drawing -----------------------------------------------------------------


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _strengths(rng: random.Random, K: int) -> list[Fraction]:
    denom = rng.randint(8, 40)
    cuts = sorted(rng.randint(1, denom - 1) for _ in range(K - 1))
    return [Fraction(c, denom) for c in cuts] + [Fraction(1)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def draw_delivery_sweep(rng, tiny):
    max_k, max_n = (3, 2) if tiny else (5, 4)
    argv = ["verify", "--max-K", str(max_k), "--max-N", str(max_n),
            "--region-trials", "1", "--seed", str(rng.randrange(2**31))]
    expected = sum((K + 1) * N**K for K in range(1, max_k + 1) for N in range(1, max_n + 1))
    return [{"kind": "cli", "check": "sweep", "argv": argv, "records": expected}]


def draw_delivery_bulk(rng, tiny):
    exponents = (6, 7) if tiny else (16, 17, 18)
    users = (4,) if tiny else (4, 5, 6)
    shapes = [
        (K, N, t, e)
        for K in users for N in (2, 3) for t in range(1, K) for e in exponents
    ] * (1 if tiny else 2)
    items = []
    for i, (K, N, t, e) in enumerate(shapes):
        items.append({
            "kind": "bulk", "K": K, "N": N, "t": t, "B": comb(K, t) * 2**e,
            "d": [rng.randint(1, N) for _ in range(K)], "seed": rng.randrange(2**31),
            "corrupt": rng.randrange(1000) if i % 10 == 9 else None,  # 1 call in 10
        })
    rng.shuffle(items)
    return items


def draw_tradeoff_grid(rng, tiny):
    users = list(range(4, 6)) if tiny else list(range(4, 13))
    # every K equally often, so the cost mix of a pass does not depend on the seed;
    # (K, N, dense, command, --r) is fixed per place in the mix; values are drawn
    dense_copies, single_copies = (1, 4) if tiny else (2, 10)
    shapes = [(K, j, True) for K in users for j in range(dense_copies)]
    shapes += [(K, j, False) for K in users for j in range(single_copies)]
    items = []
    for K, j, dense in shapes:
        sweep, unicast = j % 2 == 0, j % 4 in (1, 2)  # each on half the calls
        N = (K if j else max(1, K // 2)) if dense else 1 + j % K
        argv = ["sweep-memory" if sweep else "gndt", "--K", str(K), "--N", str(N),
                "--alpha", _csv(_strengths(rng, K))]
        if dense:  # half of [0, 1] at step 1/100, from a drawn start
            start = rng.randint(0, 50)
            argv += ["--mu-grid", f"{start}/100:{start + 50}/100:{10 if tiny else 1}/100"]
            points = 6 if tiny else 51
        else:
            argv += ["--mu", str(Fraction(rng.randint(0, 4 * K), 4 * K))]
            points = 1
        if unicast:
            argv += ["--r", _csv(Fraction(rng.randint(0, 2), 10 * K) for _ in range(K))]
        if not sweep:
            argv.append("--exact")
        items.append({"kind": "cli", "check": argv[0], "argv": argv, "points": points})
    rng.shuffle(items)
    return items


def _region_dump(rng, kind, K):
    spec = {"kind": kind, "K": K, "alpha": [str(a) for a in _strengths(rng, K)]}
    if kind == "two-multicast":
        spec["sigma"] = rng.randint(2, K - 1)
        spec["gamma"] = rng.randint(spec["sigma"] + 1, K)
    else:
        spec["sigma"] = rng.randint(2, K)
    if kind in ("symmetric", "two-multicast"):
        spec["s"] = rng.randint(1, K)
    if kind == "missing":
        spec["leaders"] = [1] + sorted(rng.sample(range(2, K + 1), rng.randint(0, K - 1)))
    argv = ["region", "--K", str(K), "--sigma", str(spec["sigma"]), "--alpha",
            _csv(spec["alpha"]), "--kind", kind]
    for flag in ("s", "gamma"):
        if flag in spec:
            argv += [f"--{flag}", str(spec[flag])]
    if "leaders" in spec:
        argv += ["--leaders", _csv(spec["leaders"])]
    return {"kind": "cli", "check": "region", "argv": argv, "spec": spec}


def draw_region_certify(rng, tiny):
    def n(count):
        return 1 if tiny else count

    # the integer sizes are fixed per place in the mix; strengths, seeds and powers are drawn
    items = []
    for j in range(n(16)):  # region stage of verify: FM, prune, LP equality
        trials = 1 + j % 3  # never 0: verify would silently run 3
        argv = ["verify", "--K", "1", "--N", "1", "--mu", "0", "--region-trials",
                str(trials), "--seed", str(rng.randrange(2**31))]
        items.append({"kind": "cli", "check": "verify-region", "argv": argv, "trials": trials})
    for K, holes in ((5, n(10)), (6, n(14))):
        for j in range(n(10)):  # library certification, as in demos/region_projection.py
            items.append({"kind": "library", "K": K, "sigma": 2 + j % (K - 1),
                          "alpha": [str(a) for a in _strengths(rng, K)]})
        for i in range(holes):  # the slow tail: brute-force vertex enumeration
            budget = i % K  # every integer budget 0..K-1 equally often
            argv = ["holes", "--K", str(K), "--N", str(K), "--alpha",
                    _csv(_strengths(rng, K)), "--mu", f"{budget}/{K}"]
            items.append({"kind": "cli", "check": "holes", "argv": argv})
    for kind in ("full", "symmetric", "missing", "two-multicast"):
        items += [_region_dump(rng, kind, 3 + j % 4) for j in range(n(6))]
    for j in range(n(16)):
        K, certificates = 2 + j % 3, 5 + j
        argv = ["finite-snr", "--K", str(K), "--sigma", str(rng.randint(2, K)),
                "--alpha", _csv(_strengths(rng, K)), "--P", str(2 ** rng.randint(10, 40)),
                "--certificates", str(certificates), "--seed", str(rng.randrange(2**31))]
        items.append({"kind": "cli", "check": "finite-snr", "argv": argv, "certificates": certificates})
    rng.shuffle(items)
    return items


DRAW = {
    "delivery-sweep": draw_delivery_sweep,
    "delivery-bulk": draw_delivery_bulk,
    "tradeoff-grid": draw_tradeoff_grid,
    "region-certify": draw_region_certify,
}


def draw(workload: str, seed: int, pass_index: int, tiny: bool = False) -> list[dict]:
    return DRAW[workload](_rng(workload, seed, pass_index), tiny)


# -- running -----------------------------------------------------------------


def execute(item: dict, out: Capture):
    """Run one item against the package; the caller times this call alone."""
    if item["kind"] == "cli":
        return run_cli(item["argv"], out)
    if item["kind"] == "bulk":
        return caching.end_to_end_verify(
            item["K"], item["N"], item["t"], item["B"], tuple(item["d"]),
            seed=item["seed"], corrupt_payload=item["corrupt"],
        )
    alpha = [Fraction(a) for a in item["alpha"]]
    K, sigma = item["K"], item["sigma"]
    system = regions.beta_parameterized_polytope(K, sigma, alpha)
    projected = polytope.prune(polytope.eliminate(system, regions.beta_names(K)))
    return polytope.regions_equal(projected, regions.build_region(K, sigma, alpha))


def intervals(item: dict, start: int, end: int, out: Capture) -> list[tuple[int, int]]:
    """(start, end) of each item: the call, or each streamed sweep record.

    A record runs from the previous record (or the call start) to its write.
    """
    if item.get("check") != "sweep":
        return [(start, end)]
    stamps = [t for t, part in zip(out.stamps, out.parts) if _is_record(part)]
    return list(zip([start] + stamps, stamps))


# -- checking ----------------------------------------------------------------


def _exact(text: str):
    return INF if text == "inf" else Fraction(text)


def _table(out: Capture, header: list[str], points: int):
    rows = list(csv.reader(io.StringIO(out.text())))
    if not rows or rows[0] != header or len(rows) != points + 1:
        return None
    return [dict(zip(header, row)) for row in rows[1:]]


def _check_sweep(item, result, out):
    records, rest = [], []
    for part in out.parts:
        (records if _is_record(part) else rest).append(part)
    expected = item["records"]
    reasons = ["record_failed" for r in records if not json.loads(r)["pass"]]
    reasons += ["record_missing"] * max(0, expected - len(records))
    summary = json.loads("".join(rest))
    if not (summary["pass"] and summary["caching"] == {"checked": expected, "failed": 0}
            and result["code"] == 0):
        reasons.append("summary_failed")
    attempted = max(expected, len(records))
    return attempted, reasons[:attempted]


def _check_gndt(item, out):
    header = ["mu", "tau_ub", "tau_ms", "tau_lb", "tau_ub_exact", "tau_ms_exact", "tau_lb_exact"]
    rows = _table(out, header, item["points"])
    if rows is None:
        return "table_malformed"
    for row in rows:
        ub, ms, lb = (_exact(row[k]) for k in ("tau_ub_exact", "tau_ms_exact", "tau_lb_exact"))
        if (INF if lb == INF else lb * CONVERSE) != ub:
            return "converse_ratio_broken"
        if ms < ub:
            return "memory_sharing_below_ub"
    return None


def _check_sweep_memory(item, out):
    rows = _table(out, ["mu", "tau_ub", "tau_joint", "tau_ms", "tau_lb"], item["points"])
    if rows is None:
        return "table_malformed"
    for row in rows:
        if row["tau_joint"] != row["tau_ub"]:
            return "joint_differs_from_ub"
        if float(row["tau_ms"]) < float(row["tau_ub"]):
            return "memory_sharing_below_ub"
    return None


def _check_verify_region(item, out):
    lines = out.text().splitlines()
    record = json.loads(lines[0])
    summary = json.loads("\n".join(lines[1:]))
    expected = {"checked": 6 * item["trials"], "failed": 0}  # (K, sigma) pairs for K = 2..4
    if not (record["pass"] and summary["pass"] and summary["region_equality"] == expected):
        return "verify_failed"
    return None


def _check_holes(item, out):
    doc = json.loads(out.text())
    region = Polytope.from_json(json.dumps(doc["region"]))
    if region.is_empty():
        return "empty_hole_region"  # all_invariant is then vacuously true
    if not doc["all_invariant"]:
        return "hole_not_invariant"
    return None


_BUILDERS = {
    "full": lambda s, a: regions.build_region(s["K"], s["sigma"], a),
    "symmetric": lambda s, a: regions.symmetric_projection(s["K"], s["sigma"], a, s["s"]),
    "missing": lambda s, a: regions.build_missing_message_region(s["K"], s["sigma"], a, s["leaders"]),
    "two-multicast": lambda s, a: regions.build_two_multicast_symmetric(
        s["K"], s["sigma"], s["gamma"], a, s["s"]),
}


def _check_region(item, out):
    spec = item["spec"]
    built = _BUILDERS[spec["kind"]](spec, [Fraction(a) for a in spec["alpha"]])
    dumped = Polytope.from_json(out.text())
    if dumped.variables != built.variables or not polytope.regions_equal(dumped, built):
        return "region_differs_from_library"
    return None


def _check_finite_snr(item, out):
    rows = list(csv.reader(io.StringIO(out.text())))
    outcomes = [r[1] for r in rows if r and r[0].startswith("certificate_")]
    if outcomes != ["pass"] * item["certificates"]:
        return "certificate_failed"
    return None


_CLI_CHECKS = {
    "gndt": _check_gndt,
    "sweep-memory": _check_sweep_memory,
    "verify-region": _check_verify_region,
    "holes": _check_holes,
    "region": _check_region,
    "finite-snr": _check_finite_snr,
}


def check(item: dict, result, out: Capture) -> tuple[int, list[str]]:
    """(items attempted, one reason per failed item) for one executed item."""
    if item["kind"] == "bulk":
        expected = item["corrupt"] is None  # a corrupted payload must be detected
        return 1, [] if result is expected else ["bulk_wrong_verdict"]
    if item["kind"] == "library":
        return 1, [] if result is True else ["library_certificate_failed"]
    name = item["check"]
    if name == "sweep":
        return _check_sweep(item, result, out)
    if result["code"] != 0 or result["stderr"]:
        return 1, [f"{name}_exit_{result['code']}"]
    reason = _CLI_CHECKS[name](item, out)
    return 1, [] if reason is None else [reason]

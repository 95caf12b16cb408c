"""Self-test of the benchmark itself; exits non-zero on the first failed check.

    python3 perfbench/selftest.py

Runs every workload at a tiny size and checks that each metric named in
BENCHMARK.json is printed with its unit, that traced counts repeat exactly
for one seed, that the tracer rebinds every module-level copy of a wrapped
function, and that the host-speed clock scales and pauses as documented.  Then it plants wrong results in the package, one per kind
of output check, and requires each to raise the failed-item count: an oracle
that never fails would pass this benchmark vacuously.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import run

run._use_checkout_source()

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from cachecast import caching, cli, finite_snr, polytope, tradeoff  # noqa: E402
from cachecast.polytope import Polytope  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MANIFEST = json.loads((Path(__file__).parent / "MANIFEST.json").read_text())
SEED = 3


def tiny_run(workload: str, trace: bool = False) -> tuple[dict, dict]:
    """(info line, result object) of a tiny run, read back from its output."""
    info, metrics = run.run_workload(workload, SEED, 3 if trace else 1, trace, tiny=True)
    units = layertrace.metric_units() if trace else dict(run.END_TO_END_UNITS)
    if not trace:
        metrics["setup_s"] = 0.1  # the subprocess probe is exercised by real runs
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print(json.dumps(run.report(info, metrics, units)))
    lines = buf.getvalue().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def check_metrics_print_with_units() -> None:
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in run.WORKLOADS:
            _, result = tiny_run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, f"{workload} {key}: {printed} != {declared}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"], f"{workload} {key}: tiny run is not correct"


def check_traced_counts_repeat() -> None:
    for workload in run.WORKLOADS:
        first, second = (tiny_run(workload, trace=True)[1]["metrics"] for _ in range(2))
        for name, metric in first.items():
            if metric["unit"] != "s" and name != "trace_overhead_frac":
                assert metric == second[name], f"{workload} {name}: {metric} != {second[name]}"


def check_every_binding_wrapped() -> None:
    originals = {
        "polytope.solve_max": polytope.solve_max,
        "tradeoff.lower_convex_envelope": tradeoff.lower_convex_envelope,
        "cli.vertices": cli.vertices,
    }
    tracer = layertrace.LayerTracer()
    tracer.install()
    try:
        for name, original in originals.items():
            module, attr = name.split(".")
            bound = getattr(sys.modules[f"cachecast.{module}"], attr)
            assert bound is not original and bound.__wrapped__ is original, name
        cli.vertices = originals["cli.vertices"]  # a copy the tracer missed
        try:
            tracer._check_no_unwrapped()
        except RuntimeError:
            pass
        else:
            raise AssertionError("an unwrapped binding went unnoticed")
    finally:
        tracer.uninstall()
    assert cli.vertices is originals["cli.vertices"]
    assert polytope.solve_max is originals["polytope.solve_max"]


def check_host_speed_clock() -> None:
    clock = hostspeed.Clock()
    clock.mark()
    before = clock.now()
    clock.mark()
    assert clock.now() - before < clock.ref_ns[-1], "a reference sample counted as program time"
    ref = hostspeed.REFERENCE_NS
    clock.at, clock.ref_ns = [0, 100, 200], [ref, 2 * ref, 2 * ref]
    assert clock.scaled(100, 200) == 50, "twice as slow a host must halve the time"
    assert clock.scaled(0, 100) == 100 / 1.5, "an interval takes the mean of the samples around it"
    assert clock.scaled(200, 300) == 50, "after the last sample, the last sample holds"


@contextlib.contextmanager
def planted(owner, name, make):
    """Replace owner.name by make(original) for the duration of the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _ignore_corruption(original):
    return lambda *a, corrupt_payload=None, **kw: original(*a, **kw)


def _first_call_fails(original):
    calls = []

    def wrong(*args, **kwargs):
        calls.append(1)
        return False if len(calls) == 1 else original(*args, **kwargs)

    return wrong


def _drop_last_row(original):
    def to_json(self):
        return original(Polytope(self.variables, self.rows[:-1]))

    return to_json


def _empty(original):
    def region(config):
        poly = original(config)
        infeasible = (tuple(Fraction(0) for _ in poly.variables), Fraction(-1))
        return Polytope(poly.variables, poly.rows + (infeasible,))

    return region


def _drop_rows(original):
    return lambda poly: Polytope(poly.variables, original(poly).rows[1:])


# (workload, patch target, attribute, wrong version, failure reason it must cause)
PLANTS = [
    ("delivery-sweep", caching, "end_to_end_verify", _first_call_fails, "record_failed"),
    ("delivery-bulk", caching, "end_to_end_verify", _ignore_corruption, "bulk_wrong_verdict"),
    ("tradeoff-grid", tradeoff, "gndt_lower_bound", lambda f: lambda *a: f(*a) / 2, "converse_ratio_broken"),
    ("tradeoff-grid", tradeoff, "gndt_memory_sharing", lambda f: lambda *a: Fraction(0), "memory_sharing_below_ub"),
    ("tradeoff-grid", tradeoff, "gndt_joint_two_set", lambda f: lambda *a: f(*a) + 1, "joint_differs_from_ub"),
    ("region-certify", Polytope, "to_json", _drop_last_row, "region_differs_from_library"),
    ("region-certify", tradeoff, "topological_hole_region", _empty, "empty_hole_region"),
    ("region-certify", cli, "regions_equal", lambda f: lambda a, b: False, "verify-region_exit_1"),
    ("region-certify", polytope, "prune", _drop_rows, "library_certificate_failed"),
    ("region-certify", finite_snr, "constant_gap_certificate", lambda f: lambda *a: False, "finite-snr_exit_1"),
    ("region-certify", cli, "vertices", lambda f: lambda poly: [(Fraction(1),) * len(poly.variables)], "holes_exit_1"),
]


def check_planted_results_fail() -> None:
    for workload, owner, name, make, reason in PLANTS:
        before, _ = tiny_run(workload)
        with planted(owner, name, make):
            info, result = tiny_run(workload)
        label = f"{workload}: planted {name}"
        assert info["failures"].get(reason, 0) > before["failures"].get(reason, 0), (
            f"{label} did not cause {reason}: {info['failures']}"
        )
        assert info["failed"] > before["failed"] and info["error_rate"] > before["error_rate"], label
        if reason not in workloads.KNOWN_DEFECT_REASONS:
            assert not result["correct"], f"{label} still reads correct"


def check_manifest() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(workloads.DRAW)
    assert set(MANIFEST["workloads"]) == set(run.WORKLOADS)
    for workload, entry in MANIFEST["workloads"].items():
        items = workloads.draw(workload, SEED, 0)
        count = items[0]["records"] if workload == "delivery-sweep" else len(items)
        assert entry["items_per_pass"] == count, f"{workload}: manifest says {entry['items_per_pass']}, draw gives {count}"
        assert count >= 100, workload


def main() -> int:
    checks = [
        check_manifest,
        check_every_binding_wrapped,
        check_host_speed_clock,
        check_metrics_print_with_units,
        check_traced_counts_repeat,
        check_planted_results_fail,
    ]
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

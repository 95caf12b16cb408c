"""cachecast benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  One process, one thread, a
closed loop: each call starts when the previous one has returned.  A run is a
fixed amount of work: `pass_count` passes over freshly drawn item lists, sized
to take about `--seconds` (at least four passes), so the items attempted and
failed repeat exactly for a seed.  Output checks run after each item, outside
the timed interval.

Times are reported at reference host speed (see hostspeed.py): the host's
speed swings with other tenants' load, and each interval is scaled by a
reference loop timed beside it.  The info line also gives the raw wall times.
`setup_s` is the median over one fresh-interpreter probe after each pass.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of the first traced pass.  After
the cold first pass, each traced pass is followed by an untraced replay of the
same items, so `trace_overhead_frac` compares like with like.  The lines
before the last give the item counts, the failures by reason, the digest of
the drawn inputs and a readable metric table.
See perfbench/MANIFEST.json for what each workload is and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("delivery-sweep", "delivery-bulk", "tradeoff-grid", "region-certify")
MIN_PASSES = 4
# seconds one untraced pass takes, checks included, on a 2-vCPU Xeon at 2.0 GHz
NOMINAL_PASS_S = {"delivery-sweep": 5.0, "delivery-bulk": 3.0, "tradeoff-grid": 4.0, "region-certify": 5.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _use_checkout_source() -> None:
    """Put this checkout's src/ first; refuse to run without it."""
    if not (SRC / "cachecast" / "__init__.py").is_file():
        sys.exit(f"error: no cachecast source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import cachecast and draw the first pass (fresh interpreter),
    at reference host speed."""
    import hostspeed

    clock = hostspeed.Clock()
    clock.mark()
    start = clock.now()
    _use_checkout_source()
    import workloads

    workloads.draw(workload, seed, 0)
    end = clock.now()
    clock.mark()
    return clock.scaled(start, end) / 1e9


def measure_setup(workload: str, seed: int) -> float:
    """Setup time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Pass:
    """Outcome of one pass over an item list."""

    def __init__(self, items, tracer):
        self.items = items
        self.tracer = tracer
        self.busy_ns = 0  # raw wall time of the calls
        self.latencies_ns: list[int] = []  # raw, one per item
        self.scaled_ns: list[float] = []  # at reference host speed, one per item
        self.scaled_tail_ns = 0.0  # streamed calls after their last record, ditto
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    @property
    def scaled_wall_ns(self) -> float:
        return sum(self.scaled_ns) + self.scaled_tail_ns


def run_pass(items, tracer=None) -> Pass:
    import hostspeed
    import workloads

    result = Pass(items, tracer)
    clock = hostspeed.Clock()
    if tracer is not None:
        tracer.install()
    try:
        clock.mark()
        for item in items:
            # a traced call takes no samples inside, so layer times hold no pauses
            out = workloads.Capture(clock if tracer is None else None)
            if tracer is not None:
                tracer.active = True
            start = clock.now()
            try:
                value = workloads.execute(item, out)
            except Exception as exc:  # a crashing call is a failed item, not a failed run
                traceback.print_exc()
                value = exc
            end = clock.now()
            if tracer is not None:
                tracer.active = False
                if item["kind"] == "cli":
                    tracer.count("cli.main.output_bytes", len(out.text().encode()))
            clock.mark()
            result.busy_ns += end - start
            spans = workloads.intervals(item, start, end, out)
            result.latencies_ns += [b - a for a, b in spans]
            result.scaled_ns += [clock.scaled(a, b) for a, b in spans]
            result.scaled_tail_ns += clock.scaled(spans[-1][1] if spans else start, end)
            if isinstance(value, Exception):
                attempted, reasons = item.get("records", 1), [f"raised_{type(value).__name__}"]
            else:
                try:
                    attempted, reasons = workloads.check(item, value, out)
                except (ValueError, KeyError, IndexError) as exc:  # output that does not parse
                    attempted, reasons = item.get("records", 1), [f"unparseable_{type(exc).__name__}"]
            result.attempted += attempted
            result.failures.update(reasons)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def pass_count(workload: str, seconds: float) -> int:
    """Passes of one run: a fixed amount of work, about `seconds` long."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def run_workload(workload: str, seed: int, passes: int, trace: bool, tiny: bool = False,
                 probe: bool = False):
    """Run `passes` passes (trace: pass 0, then traced/untraced pairs); returns (info, metrics)."""
    import layertrace
    import workloads

    done: list[Pass] = []
    setup_samples: list[float] = []
    pairs = max(1, (passes - 1) // 2) if trace else 0
    for index in range(1 + pairs if trace else passes):
        items = workloads.draw(workload, seed, index, tiny)
        if trace and index:  # pass 0 runs cold and untraced, as in an untraced run
            done.append(run_pass(items, layertrace.LayerTracer()))
        done.append(run_pass(items))  # after a traced pass: the same items, untraced
        if probe:
            setup_samples.append(measure_setup(workload, seed))

    plain = [p for p in done if p.tracer is None]
    attempted = sum(p.attempted for p in done)
    failures = sum((p.failures for p in done), Counter())
    failed = min(attempted, failures.total())
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(done),
        "items_per_pass": [len(p.latencies_ns) for p in done],
        "pass_wall_s": [round(p.busy_ns / 1e9, 4) for p in done],
        "pass_wall_scaled_s": [round(p.scaled_wall_ns / 1e9, 4) for p in done],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "unexpected_failures": sum(n for r, n in failures.items() if r not in workloads.KNOWN_DEFECT_REASONS),
        "inputs_sha256_pass0": _digest(done[0].items),
        "inputs_sha256_all": _digest([p.items for p in done]),
    }
    hole_items = sum(1 for p in done for item in p.items if item.get("check") == "holes")
    if hole_items:
        info["hole_items"] = hole_items
        info["empty_hole_share"] = failures.get("empty_hole_region", 0) / hole_items

    if trace:
        traced = [(p, replay) for p, replay in zip(done, done[1:]) if p.tracer]
        metrics = traced[0][0].tracer.metrics(len(traced[0][0].latencies_ns))
        metrics["trace_overhead_frac"] = statistics.median(p.busy_ns / r.busy_ns for p, r in traced) - 1
        return info, metrics

    scaled_ms = sorted(ns / 1e6 for p in plain for ns in p.scaled_ns)
    deciles = statistics.quantiles(scaled_ms, n=10, method="inclusive")
    total_s = sum(p.scaled_wall_ns for p in plain) / 1e9
    metrics = {
        "wall_s": total_s / len(plain),
        "items_per_s": len(scaled_ms) / total_s,
        "item_p50_ms": statistics.median(scaled_ms),
        "item_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_ms = sorted(ns / 1e6 for p in plain for ns in p.latencies_ns)
    info["raw_wall_s"] = sum(p.busy_ns for p in plain) / 1e9 / len(plain)
    info["raw_item_p50_ms"] = statistics.median(raw_ms)
    if setup_samples:
        metrics["setup_s"] = statistics.median(setup_samples)
        info["setup_samples_s"] = [round(x, 4) for x in setup_samples]
    info["latency_samples"] = len(scaled_ms)
    return info, metrics


def report(info: dict, metrics: dict, units: dict) -> dict:
    """Print the info line, a metric table, and return the result object."""
    print(json.dumps(info, sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:<52} {metrics[name]:>16.6g} {units[name]}")
    # carried by attempted/failed in the result, as it is 0 on most workloads
    print(f"  {'error_rate':<52} {info['error_rate']:>16.6g} fraction")
    return {
        "correct": info["unexpected_failures"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    _use_checkout_source()
    import layertrace

    passes = pass_count(args.workload, args.seconds)
    info, metrics = run_workload(args.workload, args.seed, passes, bool(args.trace),
                                 probe=not args.trace)
    units = layertrace.metric_units() if args.trace else END_TO_END_UNITS
    print(json.dumps(report(info, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the package: wrap public functions, time them.

`LayerTracer.install()` replaces every listed function at every place a
`cachecast` module binds it (the defining module, the package namespace and
each `from .x import f` copy), so a call is timed whichever name the caller
used.  `uninstall()` puts the originals back, which keeps untraced passes free
of wrapper cost.

Each wrapped call adds to `<module>.<function>.calls` and `.busy_s`; `.self_s`
is busy time minus the time covered by nested wrapped calls.  A few functions
also feed counts derived from their arguments or results (payloads encoded,
infeasible LPs, rows kept by `prune`, ...).  The counts depend only on the
inputs, so they repeat exactly for a fixed seed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute path) of every traced function, in report order
TRACED = [
    ("caching", "random_library"),
    ("caching", "place_caches"),
    ("caching", "FileLibrary.subfile"),
    ("caching", "encode_multicast"),
    ("caching", "reconstruct_missing"),
    ("caching", "decode_file"),
    ("caching", "end_to_end_verify"),
    ("combinatorics", "multicast_load_sequence"),
    ("combinatorics", "lower_convex_envelope"),
    ("lp", "solve_max"),
    ("lp", "solve_square"),
    ("polytope", "eliminate"),
    ("polytope", "prune"),
    ("polytope", "region_contains"),
    ("polytope", "regions_equal"),
    ("polytope", "vertices"),
    ("regions", "build_region"),
    ("regions", "beta_parameterized_polytope"),
    ("tradeoff", "gndt_ub"),
    ("tradeoff", "gndt_memory_sharing"),
    ("tradeoff", "gndt_joint_two_set"),
    ("tradeoff", "gndt_lower_bound"),
    ("tradeoff", "topological_hole_region"),
    ("finite_snr", "inner_rate_region"),
    ("finite_snr", "outer_rate_region"),
    ("finite_snr", "constant_gap_certificate"),
    ("cli", "main"),
]

LAYER_NAMES = [f"{module}.{attr}" for module, attr in TRACED]

# extra counts beyond calls/busy_s/self_s: name -> unit
EXTRA_COUNTS = {
    "caching.payloads_encoded": "count",
    "caching.payloads_reconstructed": "count",
    "caching.xor_bits": "bits",
    "caching.libraries_per_item": "lib/item",
    "lp.solve_max.infeasible": "count",
    "lp.solve_square.singular_frac": "fraction",
    "polytope.prune.rows_kept_frac": "fraction",
    "polytope.prune.lps_per_row": "lp/row",
    "polytope.vertices.found_per_basis": "vertex/basis",
    "finite_snr.constant_gap_certificate.pass_frac": "fraction",
    "cli.main.output_bytes": "bytes",
}

# nested calls counted per enclosing call: child -> parent
_NESTED = {"lp.solve_max": "polytope.prune", "lp.solve_square": "polytope.vertices"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_COUNTS)
    units["trace_overhead_frac"] = "fraction"
    return units


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "cachecast" or n.startswith("cachecast.")]


class LayerTracer:
    """Wraps the TRACED functions while installed and accumulates their spans."""

    def __init__(self):
        self.calls = {n: 0 for n in LAYER_NAMES}
        self.busy_ns = {n: 0 for n in LAYER_NAMES}
        self.self_ns = {n: 0 for n in LAYER_NAMES}
        self.counts: Counter[str] = Counter()
        self.active = False  # spans are recorded only while the caller sets this
        self._depth = {n: 0 for n in LAYER_NAMES}
        self._stack: list[list[int]] = []  # per active call: [nested wrapped ns]
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def _after(self, name, args, result) -> None:
        """Counts derived from one call's arguments and result."""
        if name == "caching.encode_multicast":
            self.count("caching.payloads_encoded", len(result))
            self.count("caching.xor_bits", sum(len(p.bits) for p in result))
        elif name == "caching.reconstruct_missing":
            self.count("caching.payloads_reconstructed")
            self.count("caching.xor_bits", len(result.bits))
        elif name == "lp.solve_max":
            self.count("lp.solve_max.infeasible", result.status == "infeasible")
        elif name == "lp.solve_square":
            self.count("lp.solve_square.singular", result is None)
        elif name == "polytope.prune":
            self.count("polytope.prune.rows_in", len(args[0].rows))
            self.count("polytope.prune.rows_kept", len(result.rows))
        elif name == "polytope.vertices":
            self.count("polytope.vertices.found", len(result))
        elif name == "finite_snr.constant_gap_certificate":
            self.count("finite_snr.constant_gap_certificate.passed", bool(result))

    def _wrap(self, name, func):
        parent = _NESTED.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.active:  # e.g. output checks, which must not count
                return func(*args, **kwargs)
            if parent is not None and self._depth[parent]:
                self.count(f"{parent}.nested:{name}")
            self._depth[name] += 1
            frame = [0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._stack.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                self.self_ns[name] += elapsed - frame[0]
                if not self._depth[name]:  # recursion: count the outermost span once
                    self.busy_ns[name] += elapsed
                if self._stack:
                    self._stack[-1][0] += elapsed
            self._after(name, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            owner = importlib.import_module(f"cachecast.{module_name}")
            *cls_path, func_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, func_name)
            self._originals[id(original)] = name
            wrapper = self._wrap(name, original)
            targets = [(owner, func_name)] if cls_path else [
                (m, key) for m in modules for key, value in vars(m).items() if value is original
            ]
            for target, key in targets:
                self._patches.append((target, key, original))
                setattr(target, key, wrapper)
        self._check_no_unwrapped()

    def _check_no_unwrapped(self) -> None:
        for module in _package_modules():
            for key, value in vars(module).items():
                if id(value) in self._originals:
                    self.uninstall()
                    raise RuntimeError(
                        f"{module.__name__}.{key} still binds the unwrapped "
                        f"{self._originals[id(value)]}"
                    )

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def metrics(self, items: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far, over `items` items."""
        out: dict[str, float] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy_ns[name] / 1e9
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        c, calls = self.counts, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        for name in ("caching.payloads_encoded", "caching.payloads_reconstructed",
                     "caching.xor_bits", "lp.solve_max.infeasible", "cli.main.output_bytes"):
            out[name] = c[name]
        out["caching.libraries_per_item"] = ratio(calls["caching.random_library"], items)
        out["lp.solve_square.singular_frac"] = ratio(c["lp.solve_square.singular"], calls["lp.solve_square"])
        rows_in = c["polytope.prune.rows_in"]
        out["polytope.prune.rows_kept_frac"] = ratio(c["polytope.prune.rows_kept"], rows_in)
        out["polytope.prune.lps_per_row"] = ratio(c["polytope.prune.nested:lp.solve_max"], rows_in)
        out["polytope.vertices.found_per_basis"] = ratio(
            c["polytope.vertices.found"], c["polytope.vertices.nested:lp.solve_square"]
        )
        out["finite_snr.constant_gap_certificate.pass_frac"] = ratio(
            c["finite_snr.constant_gap_certificate.passed"], calls["finite_snr.constant_gap_certificate"]
        )
        return out

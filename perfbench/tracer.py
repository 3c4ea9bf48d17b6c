"""Spans around pardiff's public functions, recorded from outside the library.

``Tracer.install`` wraps every public function of each module where it is
defined and under every name it is imported by (``cli`` imports the solvers,
``load_grid`` and ``sample`` by name, ``grid`` imports ``evaluate_arrays`` by
name), plus ``Stencil.apply``.  Spans stay in memory as
``[name, start, end, parent, job, counts]`` until the run writes them out.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import statistics
import time

LAYERS = ("expr", "grid", "stencil", "classify", "mollify", "elliptic", "cli")
SUBCOMMANDS = ("classify", "apply", "solve", "mollify", "potential", "verify", "convergence")

# Per-layer metrics, in the order and with the units BENCHMARK.json lists.
PER_LAYER = (
    ("elliptic.solve.s", "s"),
    ("elliptic.sor.iterations", "count"),
    ("elliptic.sor.node_updates", "count"),
    ("elliptic.sor.ns_per_node_update", "ns"),
    ("elliptic.newtonian_potential.s", "s"),
    ("elliptic.newtonian_potential.pairs", "count"),
    ("elliptic.newtonian_potential.ns_per_pair", "ns"),
    ("elliptic.max_principle_check.s", "s"),
    ("mollify.make_mollifier.s", "s"),
    ("mollify.convolve.s", "s"),
    ("mollify.convolve.taps", "count"),
    ("classify.classify_region.s", "s"),
    ("classify.classify_region.points", "count"),
    ("classify.eigen_symmetric.s", "s"),
    ("classify.eigen_symmetric.calls", "count"),
    ("stencil.load_stencil.s", "s"),
    ("stencil.apply.s", "s"),
    ("stencil.apply.term_nodes", "count"),
    ("expr.parse.s", "s"),
    ("expr.parse.calls", "count"),
    ("expr.evaluate_arrays.s", "s"),
    ("expr.evaluate_arrays.nodes", "count"),
    ("expr.evaluate.calls", "count"),
    ("grid.load_grid.s", "s"),
    ("grid.load_grid.bytes", "B"),
    ("grid.grid_file_text.s", "s"),
    ("grid.grid_file_text.bytes", "B"),
    ("grid.sample.s", "s"),
    ("grid.sample.nodes", "count"),
    ("cli.jobs", "count"),
    ("cli.self_s", "s"),
    *((f"cli.{sub}.s", "s") for sub in SUBCOMMANDS),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.span_cost_ns", "ns"),
)

SOR_SPANS = ("elliptic.solve_laplace_dirichlet", "elliptic.solve_poisson_dirichlet")
SOLVE_SPANS = SOR_SPANS + ("elliptic.solve_biharmonic",)


def _sor_counts(args, result):
    interior = math.prod(e - 2 for e in result.solution.spec.extents)
    return {"elliptic.sor.iterations": result.iterations,
            "elliptic.sor.node_updates": result.iterations * interior}


# Counts computed from a call's arguments (bound by name) and its result.
COUNTERS = {
    "elliptic.solve_laplace_dirichlet": _sor_counts,
    "elliptic.solve_poisson_dirichlet": _sor_counts,
    "elliptic.newtonian_potential": lambda a, r: {
        "elliptic.newtonian_potential.pairs":
            int((a["source"].values != 0.0).sum()) * a["targets"].node_count},
    "mollify.convolve": lambda a, r: {
        "mollify.convolve.taps": int((a["kernel"].samples.values != 0.0).sum()) * r.values.size},
    "classify.classify_region": lambda a, r: {"classify.classify_region.points": r.points.shape[0]},
    "stencil.apply": lambda a, r: {"stencil.apply.term_nodes": len(a["self"].terms) * r.values.size},
    "expr.evaluate_arrays": lambda a, r: {"expr.evaluate_arrays.nodes": r.size},
    "grid.load_grid": lambda a, r: {"grid.load_grid.bytes": os.path.getsize(a["path"])},
    "grid.grid_file_text": lambda a, r: {"grid.grid_file_text.bytes": len(r.encode())},
    "grid.sample": lambda a, r: {"grid.sample.nodes": r.values.size},
}

# Metrics that are the summed self time, or the call count, of named spans.
SELF_TIME = {
    "elliptic.solve.s": SOLVE_SPANS,
    "elliptic.newtonian_potential.s": ("elliptic.newtonian_potential",),
    "elliptic.max_principle_check.s": ("elliptic.max_principle_check",),
    "mollify.make_mollifier.s": ("mollify.make_mollifier",),
    "mollify.convolve.s": ("mollify.convolve",),
    "classify.classify_region.s": ("classify.classify_region",),
    "classify.eigen_symmetric.s": ("classify.eigen_symmetric",),
    "stencil.load_stencil.s": ("stencil.load_stencil",),
    "stencil.apply.s": ("stencil.apply",),
    "expr.parse.s": ("expr.parse",),
    "expr.evaluate_arrays.s": ("expr.evaluate_arrays",),
    "grid.load_grid.s": ("grid.load_grid",),
    "grid.grid_file_text.s": ("grid.grid_file_text",),
    "grid.sample.s": ("grid.sample",),
}
CALLS = {
    "classify.eigen_symmetric.calls": "classify.eigen_symmetric",
    "expr.parse.calls": "expr.parse",
    "expr.evaluate.calls": "expr.evaluate",
    "cli.jobs": "cli.main",
}


class Tracer:
    """Records a span per call of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import pardiff

        modules = {layer: importlib.import_module(f"pardiff.{layer}") for layer in LAYERS}
        owners = [pardiff, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, name, fn))
                            setattr(owner, name, traced)
        stencil_cls = modules["stencil"].Stencil
        self._patches.append((stencil_cls, "apply", stencil_cls.apply))
        stencil_cls.apply = self._wrap("stencil.apply", stencil_cls.apply)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def span_cost_ns(self, calls: int = 20000, repeats: int = 5) -> float:
        """What recording one span adds to a call, in ns: a wrapped no-op against
        the bare one, the fastest of ``repeats`` loops of ``calls`` calls each."""

        def noop():
            return None

        first = len(self.spans)
        best = {}
        for fn in (noop, self._wrap("trace.calibrate", noop)) * repeats:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best.get(fn, math.inf), time.perf_counter() - start)
        del self.spans[first:]
        fast, slow = best.values()
        return 1e9 * (slow - fast) / calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "job": job, "counts": counts}) + "\n")


def layer_metrics(spans: list[list], first: int, commands: dict[int, str]) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[first:]``, one traced pass.

    ``commands`` maps a job id to its subcommand, for ``cli.<subcommand>.s``.
    """
    own = spans[first:]
    child = [0.0] * len(own)
    for name, start, end, parent, job, counts in own:
        if parent >= first:
            child[parent - first] += end - start
    out = {name: 0.0 for name, _ in PER_LAYER if not name.startswith("trace.")}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for k, (name, start, end, parent, job, counts) in enumerate(own):
        self_s = end - start - child[k]
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        if counts:
            for metric, value in counts.items():
                out[metric] += value
        if name.startswith("cli."):
            out["cli.self_s"] += self_s
            out[f"cli.{commands[job]}.s"] += self_s
    for metric, names in SELF_TIME.items():
        out[metric] = sum(self_by_name.get(n, 0.0) for n in names)
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0)
    sor_s = sum(self_by_name.get(n, 0.0) for n in SOR_SPANS)
    if out["elliptic.sor.node_updates"]:
        out["elliptic.sor.ns_per_node_update"] = 1e9 * sor_s / out["elliptic.sor.node_updates"]
    if out["elliptic.newtonian_potential.pairs"]:
        out["elliptic.newtonian_potential.ns_per_pair"] = (
            1e9 * out["elliptic.newtonian_potential.s"] / out["elliptic.newtonian_potential.pairs"])
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

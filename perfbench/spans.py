"""Layer spans for the traced benchmark run.

`install()` replaces each layer function at the name through which its
callers look it up with a wrapper that records a span: name, thread, start,
end and parent.  No file of the program changes.  Times are integer
nanoseconds from `perf_counter_ns`, so a span's self time (its duration minus
the durations of its children on the same thread) is exact and never
negative.

Worker threads of `cli._parallel_map` keep their own parent stacks; each
task's span names the `cli.parallel_map` span as its parent but does not
count as its child for self time, because the two run at the same time.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from functools import wraps
from time import perf_counter_ns

NS = 1e-9

# Self times must sum to the traced wall time within this share of it, plus
# SUM_SLACK_S, or the trace is rejected.
SUM_SLACK_SHARE = 0.01
SUM_SLACK_S = 0.005


class Span:
    __slots__ = ("id", "name", "tid", "parent", "start", "end", "child_ns")

    def __init__(self, sid, name, parent):
        self.id = sid
        self.name = name
        self.tid = threading.get_ident()
        self.parent = parent
        self.child_ns = 0

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Spans kept in memory, plus counters noted at the same boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.caches: dict = {}
        self.pools: list = []  # (cli.parallel_map span, workers)
        self.root: Span | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def run(self, name, fn, args=(), kwargs=None, parent=None):
        """Call fn inside a span; `parent` is used only on an empty stack."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        span = Span(next(self._ids), name, parent)
        stack.append(span)
        span.start = perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter_ns()
            stack.pop()
            if parent is not None and parent.tid == span.tid:
                parent.child_ns += span.end - span.start
            self.spans.append(span)

    def wrap(self, fn, name, note=None):
        """Wrapper recording a span per call; note(tracer, args, kwargs, result) counts."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run(name, fn, args, kwargs)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return wrapper

    def run_root(self, fn, *args):
        """Run the traced entry point; its span is the root of the main thread."""
        result = self.run("cli.main", fn, args)
        self.root = self.spans[-1]
        return result

    # ------------------------------------------------------------ results

    def checks(self, wall_s: float) -> list[str]:
        """Problems with the recorded spans; empty when the trace is sound."""
        problems = []
        negative = [s.name for s in self.spans if s.self_ns < 0]
        if negative:
            problems.append(f"negative self time in {sorted(set(negative))}")
        if self.root is None:
            return problems + ["no root span"]
        main_self = NS * sum(s.self_ns for s in self.spans if s.tid == self.root.tid)
        slack = SUM_SLACK_SHARE * wall_s + SUM_SLACK_S
        if abs(main_self - wall_s) > slack:
            problems.append(
                f"main-thread self times sum to {main_self:.6f} s, "
                f"traced wall is {wall_s:.6f} s (slack {slack:.6f} s)"
            )
        return problems

    def by_name(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds, per-call self list)."""
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s.name, [0, 0, 0, []])
            row[0] += 1
            row[1] += s.dur_ns
            row[2] += s.self_ns
            row[3].append(s.self_ns)
        return {
            k: (c, NS * incl, NS * own, [NS * x for x in selfs])
            for k, (c, incl, own, selfs) in out.items()
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _note_rows(tracer, args, kwargs, table):
    tracer.add("fold.rows", len(table))


def _note_potentials(tracer, args, kwargs, point):
    if not point.valid:
        tracer.add("potentials.invalid")


def _note_z_signs(tracer, args, kwargs, signs):
    tracer.add("z_signs.temps", len(signs))


def _note_grid(tracer, args, kwargs, grid):
    tracer.add("cycles.infeasible", sum(1 for c in grid.cells if not c.feasible))


def _cached(tracer, fn, name):
    """Span wrapper around an lru_cache object that keeps cache_info readable."""
    wrapper = tracer.wrap(fn, name)
    wrapper.cache_info = fn.cache_info
    return wrapper


def install() -> Tracer:
    """Wrap every traced layer of an imported pseudotherm; returns the tracer."""
    import numpy.linalg as la

    from pseudotherm import cli, cycles, model, spectral, stability, thermo

    t = Tracer()
    model.enumerate_blocks = t.wrap(model.enumerate_blocks, "blocks.enumerate")
    spectral.build_block_hamiltonian = t.wrap(
        spectral.build_block_hamiltonian, "model.assemble"
    )
    for name in ("eig", "eigvals", "eigh", "eigvalsh"):
        setattr(la, name, t.wrap(getattr(la, name), "spectral.lapack"))
    spectral.diagonalize = t.wrap(spectral.diagonalize, "spectral.diagonalize")
    spectral.block_spectra = t.wrap(spectral.block_spectra, "spectral.block_spectra")
    spectral.block_eigen_data = _cached(t, spectral.block_eigen_data, "spectral.eigen_cache")

    thermo.table_from_spectra = t.wrap(thermo.table_from_spectra, "thermo.fold", _note_rows)
    thermo.thermal_table = _cached(t, thermo.thermal_table, "thermo.table_cache")
    potentials = t.wrap(thermo.potentials, "thermo.potentials", _note_potentials)
    thermo.potentials = stability.potentials = cycles.potentials = potentials
    thermo.z_signs_on_grid = t.wrap(thermo.z_signs_on_grid, "thermo.z_signs", _note_z_signs)
    thermo._refine_bracket = t.wrap(thermo._refine_bracket, "thermo.refine")
    thermo.critical_temperature = t.wrap(
        thermo.critical_temperature, "thermo.critical_temperature"
    )
    thermo.gap_curve = t.wrap(thermo.gap_curve, "thermo.gap_curve")

    stability.compute_isotherm = t.wrap(stability.compute_isotherm, "stability.compute_isotherm")
    stability.spinodal_analysis = t.wrap(
        stability.spinodal_analysis, "stability.spinodal_analysis"
    )
    cycles.solve_alpha = t.wrap(cycles.solve_alpha, "cycles.solve_alpha")
    cli.efficiency_grid = t.wrap(cli.efficiency_grid, "cli.efficiency_grid", _note_grid)
    cli.write_table = t.wrap(cli.write_table, "cli.write_table")

    parallel_map = cli._parallel_map

    def traced_parallel_map(fn, items, workers):
        owner = t.current()
        t.pools.append((owner, workers))

        def task(item):
            return t.run("cli.parallel_task", fn, (item,), parent=owner)

        return parallel_map(task, items, workers)

    cli._parallel_map = t.wrap(traced_parallel_map, "cli.parallel_map")

    t.caches = {
        "shape": model._shape_operators,
        "eigen": spectral.block_eigen_data,
        "table": thermo.thermal_table,
        "solve": cycles._solve_alpha_cached,
    }
    return t


def layer_totals(t: Tracer) -> dict:
    """Additive totals of one traced process, for layer_metrics to combine."""
    rows = t.by_name()
    pools = {span: workers for span, workers in t.pools if workers > 1}
    return {
        "spans": {k: [c, own] for k, (c, _, own, _) in rows.items()},
        "potentials_ms": [1e3 * x for x in rows.get("thermo.potentials", (0, 0, 0, []))[3]],
        "caches": {k: list(c.cache_info()[:2]) for k, c in t.caches.items()},
        "counts": dict(t.counts),
        "pool_busy_s": NS * sum(
            s.dur_ns for s in t.spans if s.name == "cli.parallel_task" and s.parent in pools
        ),
        "pool_capacity_s": NS * sum(s.dur_ns * w for s, w in pools.items()),
    }


def layer_metrics(totals: list) -> dict:
    """Per-layer metrics named in BENCHMARK.json, summed over the processes
    of one workload invocation; ratios are taken of the sums."""
    spans, caches, counts = {}, {}, {}
    pot_ms, busy, capacity = [], 0.0, 0.0
    for tot in totals:
        for k, (c, own) in tot["spans"].items():
            row = spans.setdefault(k, [0, 0.0])
            row[0] += c
            row[1] += own
        for k, (hits, misses) in tot["caches"].items():
            row = caches.setdefault(k, [0, 0])
            row[0] += hits
            row[1] += misses
        for k, v in tot["counts"].items():
            counts[k] = counts.get(k, 0) + v
        pot_ms += tot["potentials_ms"]
        busy += tot["pool_busy_s"]
        capacity += tot["pool_capacity_s"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    def hit_ratio(name):
        hits, misses = caches.get(name, [0, 0])
        return _ratio(hits, hits + misses)

    pot_ms.sort()
    if len(pot_ms) >= 2:
        p50 = statistics.median(pot_ms)
        p90 = statistics.quantiles(pot_ms, n=10, method="inclusive")[8]
    else:
        p50 = p90 = pot_ms[0] if pot_ms else 0.0

    return {
        "blocks.enumerate.calls": calls("blocks.enumerate"),
        "blocks.enumerate.self_s": self_s("blocks.enumerate"),
        "model.assemble.calls": calls("model.assemble"),
        "model.assemble.self_s": self_s("model.assemble"),
        "model.shape_cache.hit_ratio": hit_ratio("shape"),
        "spectral.block_spectra.calls": calls("spectral.block_spectra"),
        "spectral.block_spectra.self_s": self_s("spectral.block_spectra"),
        "spectral.lapack.calls": calls("spectral.lapack"),
        "spectral.lapack.self_s": self_s("spectral.lapack"),
        "spectral.diagonalize.calls": calls("spectral.diagonalize"),
        "spectral.diagonalize.self_s": self_s("spectral.diagonalize"),
        "spectral.eigen_cache.misses": caches.get("eigen", [0, 0])[1],
        "spectral.eigen_cache.hit_ratio": hit_ratio("eigen"),
        "thermo.fold.calls": calls("thermo.fold"),
        "thermo.fold.self_s": self_s("thermo.fold"),
        "thermo.table.rows": _ratio(counts.get("fold.rows", 0), calls("thermo.fold")),
        "thermo.table_cache.hit_ratio": hit_ratio("table"),
        "thermo.potentials.calls": calls("thermo.potentials"),
        "thermo.potentials.self_s": self_s("thermo.potentials"),
        "thermo.potentials.p50_ms": p50,
        "thermo.potentials.p90_ms": p90,
        "thermo.potentials.invalid": counts.get("potentials.invalid", 0),
        "thermo.z_signs.calls": calls("thermo.z_signs"),
        "thermo.z_signs.temps": counts.get("z_signs.temps", 0),
        "thermo.z_signs.self_s": self_s("thermo.z_signs"),
        "thermo.refine.calls": calls("thermo.refine"),
        "thermo.refine.self_s": self_s("thermo.refine"),
        "thermo.critical_temperature.self_s": self_s("thermo.critical_temperature"),
        "thermo.gap_curve.self_s": self_s("thermo.gap_curve"),
        "stability.compute_isotherm.self_s": self_s("stability.compute_isotherm"),
        "stability.spinodal_analysis.self_s": self_s("stability.spinodal_analysis"),
        "cycles.solve_alpha.calls": calls("cycles.solve_alpha"),
        "cycles.solve_alpha.self_s": self_s("cycles.solve_alpha"),
        "cycles.solve_cache.hit_ratio": hit_ratio("solve"),
        "cycles.infeasible_cells": counts.get("cycles.infeasible", 0),
        "cli.write_table.self_s": self_s("cli.write_table"),
        "cli.workers.busy_ratio": _ratio(busy, capacity),
    }


LAYER_METRICS = tuple(layer_metrics([]))


def share_table(t: Tracer) -> list[tuple]:
    """(span name, calls, inclusive s, self s, share of all self time), by self."""
    rows = t.by_name()
    total = sum(r[2] for r in rows.values())
    return sorted(
        ((name, c, incl, own, _ratio(own, total)) for name, (c, incl, own, _) in rows.items()),
        key=lambda r: -r[3],
    )

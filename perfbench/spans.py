"""Per-layer spans, recorded by wrapping the program's public names.

Each wrapper is installed where the name is looked up at call time: the
module globals the scheduler and simulator call through
(``evsched.scheduler.solve``, ``evsched.scheduler.build_opt``,
``evsched.simulator.bill``, ...) and the class attributes instances resolve
(``ChargingNetwork.is_feasible``, the schedulers' ``pilots``). Spans nest, so
a layer's self time is its duration less the spans it caused. Nothing inside
``src/`` changes; the wrappers are removed when the traced round ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np

import evsched.scheduler as scheduler_mod
import evsched.simulator as simulator_mod
from evsched.baselines import BaselineScheduler
from evsched.network import ChargingNetwork
from evsched.scheduler import AdaptiveScheduler


class Tracer:
    """Span totals for one round: calls, inclusive time and self time per layer."""

    def __init__(self, capture: bool = False):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.solves: list[dict] = []  # one entry per solve
        self.captured: list[tuple] = []  # (program, status, objective) when capture is on
        self.capture = capture
        self._children: list[float] = []  # time covered by child spans, per open span

    def _open(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _close(self, name: str, start: float) -> float:
        duration = time.perf_counter() - start
        children = self._children.pop()
        if self._children:
            self._children[-1] += duration
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - children
        return duration

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return traced

    def wrap_solve(self, fn):
        def traced(program, *args, **kwargs):
            start = self._open()
            try:
                solution = fn(program, *args, **kwargs)
            finally:
                duration = self._close("solver.solve", start)
            self.solves.append(
                {
                    "s": duration,
                    "status": solution.status,
                    "vars": program.n,
                    "rows": len(program.linear_ineqs)
                    + len(program.linear_eqs)
                    + sum(len(t.exprs) for t in program.epigraph_terms),
                    "disks": len(program.disks),
                    "outer": solution.outer_iterations,
                    "cuts": solution.cuts_added,
                }
            )
            if self.capture:
                self.captured.append((program, solution.status, solution.objective))
            return solution

        return traced


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    patches = [
        (scheduler_mod, "build_opt", tracer.wrap("scheduler.build_opt", scheduler_mod.build_opt)),
        (scheduler_mod, "solve", tracer.wrap_solve(scheduler_mod.solve)),
        (scheduler_mod, "quantize_and_reclaim", tracer.wrap("scheduler.quantize", scheduler_mod.quantize_and_reclaim)),
        (scheduler_mod, "minimum_rate_fallback", tracer.wrap("scheduler.fallback", scheduler_mod.minimum_rate_fallback)),
        (simulator_mod, "bill", tracer.wrap("billing.bill", simulator_mod.bill)),
        (ChargingNetwork, "is_feasible", tracer.wrap("network.is_feasible", ChargingNetwork.is_feasible)),
        (AdaptiveScheduler, "pilots", tracer.wrap("scheduler.pilots", AdaptiveScheduler.pilots)),
        (BaselineScheduler, "pilots", tracer.wrap("baselines.pilots", BaselineScheduler.pilots)),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def round_metrics(tracer: Tracer, periods: int) -> dict[str, float]:
    """Per-layer figures of one traced round of ``periods`` simulated periods."""
    t, c, own = tracer.total, tracer.calls, tracer.self_time
    solves = tracer.solves
    durations = [s["s"] for s in solves]
    return {
        "simulator.periods": periods,
        "simulator.self_s": own["simulator.run"],
        "billing.bill_s": t["billing.bill"],
        "scheduler.decisions": c["scheduler.pilots"],
        "scheduler.self_s": own["scheduler.pilots"],
        "scheduler.build_opt_calls": c["scheduler.build_opt"],
        "scheduler.build_opt_s": t["scheduler.build_opt"],
        "scheduler.quantize_calls": c["scheduler.quantize"],
        "scheduler.quantize_s": t["scheduler.quantize"],
        "scheduler.fallbacks": c["scheduler.fallback"],
        "scheduler.fallback_s": t["scheduler.fallback"],
        "solver.solves": len(solves),
        "solver.solve_s": sum(durations),
        "solver.solve_p50_ms": _percentile_ms(durations, 50),
        "solver.solve_p95_ms": _percentile_ms(durations, 95),
        "solver.vars_total": sum(s["vars"] for s in solves),
        "solver.rows_total": sum(s["rows"] for s in solves),
        "solver.disks_total": sum(s["disks"] for s in solves),
        "solver.outer_iterations": sum(s["outer"] for s in solves),
        "solver.cuts": sum(s["cuts"] for s in solves),
        "solver.status_optimal": sum(s["status"] == "optimal" for s in solves),
        "solver.status_infeasible": sum(s["status"] == "infeasible" for s in solves),
        "solver.status_max_iter": sum(s["status"] == "max_iter" for s in solves),
        "solver.infeasible_s": sum(s["s"] for s in solves if s["status"] == "infeasible"),
        "network.feasibility_checks": c["network.is_feasible"],
        "network.feasibility_s": t["network.is_feasible"],
        "baselines.decisions": c["baselines.pilots"],
        "baselines.decide_s": t["baselines.pilots"],
    }

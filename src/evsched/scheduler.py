"""Receding-horizon pilot scheduling with utility-driven convex programs.

Each recomputation solves, over a lookahead of T periods, a concave program
in the per-EV charging rates: maximize a weighted sum of utility components
subject to per-EV pilot bounds, per-EV energy budgets, and the network's
per-period current limits (conservative affine rows or true magnitude disks).
Only the first period of the resulting schedule is ever applied; feedback
about what the batteries actually drew arrives through the EV states before
the next recomputation.

For hardware that only accepts a finite pilot set, the relaxed first-period
rates are rounded down and the freed-up headroom is handed back out in order
of who lost the most to rounding. A separate rampdown rule tracks pilots
against measured draw and lowers per-EV bounds so tapering batteries stop
hogging allocation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from evsched.network import ChargingNetwork, Evse
from evsched.solver import (
    INFEASIBLE,
    MAX_ITER,
    OPTIMAL,
    ConvexProgram,
    EpigraphTerm,
    LinExpr,
    NormTerm,
    Solution,
    solve,
)
from evsched.workload import Session

__all__ = [
    "QuickCharge",
    "EqualShare",
    "EnergyCost",
    "DemandCharge",
    "LoadVariance",
    "NonCompletion",
    "UtilityConfig",
    "EvState",
    "Schedule",
    "active_set",
    "laxity",
    "minimum_rate_fallback",
    "build_opt",
    "build_offline",
    "OfflineVarMap",
    "quantize_and_reclaim",
    "QuantizationError",
    "rampdown_update",
    "AdaptiveScheduler",
]

logger = logging.getLogger(__name__)

# Pilot vectors are accepted when network residuals stay under this (amps).
ACCEPT_VIOLATION = 1e-3
ENERGY_EPS = 1e-9


# -- utility components ------------------------------------------------------


@dataclass(frozen=True)
class QuickCharge:
    """Front-loads energy: each amp in period t earns (T - t + 1) / T."""


@dataclass(frozen=True)
class EqualShare:
    """Penalizes squared rates; spreads current over identical EVs."""


@dataclass(frozen=True)
class LoadVariance:
    """Penalizes squared net site load; flattens the profile."""


@dataclass(frozen=True)
class EnergyCost:
    """Charging revenue minus time-of-use cost of the net load, in dollars.

    ``price`` maps an absolute period index to $/kWh.
    """

    revenue_per_kwh: float
    price: Callable[[int], float]


@dataclass(frozen=True)
class DemandCharge:
    """Dollar cost of the horizon's peak net load above a threshold.

    ``price_per_kw`` is what one extra kW of peak costs over the remaining
    billing window; ``threshold_kw`` is a peak already paid for (past peak or
    an externally supplied target), below which extra peak is free.
    """

    price_per_kw: float
    threshold_kw: float = 0.0


@dataclass(frozen=True)
class NonCompletion:
    """Penalizes undelivered energy via a p-norm over per-EV shortfalls."""

    p: float = 1.0


Component = QuickCharge | EqualShare | LoadVariance | EnergyCost | DemandCharge | NonCompletion


@dataclass(frozen=True)
class UtilityConfig:
    """Weighted utility components plus the site's non-EV net load in amps."""

    terms: tuple[tuple[Component, float], ...]
    background_amps: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("utility needs at least one term")
        for comp, weight in self.terms:
            if weight <= 0:
                raise ValueError("utility weights must be positive")
            if isinstance(comp, NonCompletion) and comp.p < 1:
                raise ValueError("non-completion norm needs p >= 1")

    def background(self, t: int) -> float:
        return 0.0 if self.background_amps is None else float(self.background_amps(t))


# -- per-EV scheduling state --------------------------------------------------


@dataclass
class EvState:
    """Mutable view of one plugged-in session as scheduling sees it."""

    session: Session
    evse: Evse
    remaining_energy: float
    remaining_duration: int
    pilot_upper_bound: float
    last_pilot: float = 0.0
    last_measured: float = 0.0

    @classmethod
    def start(cls, session: Session, evse: Evse) -> "EvState":
        return cls(
            session=session,
            evse=evse,
            remaining_energy=session.requested_energy,
            remaining_duration=session.duration,
            pilot_upper_bound=evse.max_pilot,
        )

    def apply_measurement(self, pilot: float, measured: float, period_length: float = 1.0) -> None:
        """Feed back one period: consume energy and a period of stay."""
        self.remaining_energy = max(self.remaining_energy - measured * period_length, 0.0)
        self.remaining_duration -= 1
        self.last_pilot = pilot
        self.last_measured = measured


def active_set(states: Iterable[EvState]) -> list[EvState]:
    """EVs that still want energy and are still plugged in."""
    return [s for s in states if s.remaining_energy > ENERGY_EPS and s.remaining_duration > 0]


def laxity(state: EvState) -> float:
    """Slack periods left after charging flat out; smaller is more urgent."""
    bound = min(state.evse.max_pilot, state.pilot_upper_bound)
    if bound <= 0:
        return float(state.remaining_duration)
    return state.remaining_duration - state.remaining_energy / bound


def minimum_rate_fallback(
    active: Sequence[EvState],
    network: ChargingNetwork,
    priority: Callable[[EvState], float] = laxity,
    t: int = 0,
    mode: str = "affine",
    tol: float = 1e-6,
) -> dict[str, float]:
    """Give EVs their smallest nonzero pilot in priority order while feasible.

    Used when the optimization cannot honor every plugged-in EV's minimum
    rate: the most urgent EVs keep charging, the rest wait at zero.
    """
    order = sorted(active, key=lambda s: (priority(s), s.session.arrival, s.session.id))
    rates = {s.evse.id: 0.0 for s in active}
    out = {}
    for state in order:
        step = min(state.evse.min_rate, state.pilot_upper_bound, state.evse.max_pilot)
        if step <= 0:
            out[state.session.id] = 0.0
            continue
        rates[state.evse.id] = step
        if network.is_feasible(rates, t, mode, tol):
            out[state.session.id] = step
        else:
            rates[state.evse.id] = 0.0
            out[state.session.id] = 0.0
    return out


# -- program construction ------------------------------------------------------


@dataclass
class VarMap:
    """Where each EV's per-period rate variables live in the program vector."""

    session_ids: list[str]
    offsets: dict[str, int]
    lengths: dict[str, int]
    horizon: int
    upper: dict[str, np.ndarray]

    def schedule(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-EV rate vectors padded with zeros out to the horizon."""
        out = {}
        for sid in self.session_ids:
            off, ln = self.offsets[sid], self.lengths[sid]
            rates = np.clip(x[off : off + ln], 0.0, self.upper[sid])
            out[sid] = np.concatenate([rates, np.zeros(self.horizon - ln)])
        return out


def build_opt(
    active: Sequence[EvState],
    utility: UtilityConfig,
    network: ChargingNetwork,
    horizon: int,
    *,
    start_period: int = 0,
    constraint_mode: str = "affine",
    quantized: bool = False,
    period_minutes: float = 5.0,
) -> tuple[ConvexProgram, VarMap]:
    """Assemble the lookahead program for the given active EVs.

    Variables are per-EV, per-period rates for the periods the EV is still
    present (capped at the horizon); in-program period t is absolute period
    ``start_period + t``. Network rows/disks are emitted per period in the
    requested constraint mode. In quantized mode the first-period rate gets
    the EVSE's minimum nonzero pilot as a lower bound.
    """
    if constraint_mode not in ("affine", "soc"):
        raise ValueError(f"unknown constraint mode {constraint_mode!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least one period")
    if not active:
        raise ValueError("no active EVs to schedule")

    active = sorted(active, key=lambda s: (s.session.arrival, s.session.id))
    lengths = {s.session.id: min(horizon, s.remaining_duration) for s in active}
    offsets, n = {}, 0
    for s in active:
        offsets[s.session.id] = n
        n += lengths[s.session.id]

    lv_terms = [(c, w) for c, w in utility.terms if isinstance(c, LoadVariance)]
    active_periods = sorted({t for s in active for t in range(lengths[s.session.id])})
    lv_offset = n
    n_total = n + (len(active_periods) if lv_terms else 0)

    prog = ConvexProgram.empty(n_total)
    upper_map: dict[str, np.ndarray] = {}
    for s in active:
        sid = s.session.id
        off, ln = offsets[sid], lengths[sid]
        ub = np.full(ln, s.evse.max_pilot)
        ub[0] = min(s.evse.max_pilot, s.pilot_upper_bound)
        prog.upper[off : off + ln] = ub
        upper_map[sid] = ub
        if quantized:
            # Clamp by remaining energy so a nearly-done EV cannot make the
            # program infeasible (lower bound above its own energy row).
            prog.lower[off] = min(s.evse.min_rate, ub[0], s.remaining_energy)
        prog.add_ineq(np.arange(off, off + ln), np.ones(ln), s.remaining_energy)
    if lv_terms:
        prog.lower[lv_offset:] = -np.inf

    # Per-period network rows over the EVs present in that period.
    evs_at: dict[int, list[EvState]] = {}
    for s in active:
        for t in range(lengths[s.session.id]):
            evs_at.setdefault(t, []).append(s)
    voltage = network.nominal_voltage
    for t, evs in sorted(evs_at.items()):
        abs_t = start_period + t
        cols = np.array([network.evse_index[s.evse.id] for s in evs])
        var_idx = np.array([offsets[s.session.id] + t for s in evs])
        for li, constraint in enumerate(network.constraints):
            w = network._weights[li, cols]
            nz = w != 0
            if not nz.any():
                continue
            limit = constraint.limit_at(abs_t)
            bg = constraint.background_at(abs_t)
            if constraint_mode == "affine":
                prog.add_ineq(var_idx[nz], np.abs(w[nz]), limit - abs(bg))
            else:
                prog.add_disk(
                    LinExpr(var_idx[nz], w[nz].real, bg.real),
                    LinExpr(var_idx[nz], w[nz].imag, bg.imag),
                    limit,
                )

    # Objective terms. kappa converts amp-periods to kWh for dollar terms.
    kappa = voltage / 1000.0 * period_minutes / 60.0
    kw_per_amp = voltage / 1000.0
    period_vars: dict[int, tuple[np.ndarray, int]] = {
        t: (np.array([offsets[s.session.id] + t for s in evs]), len(evs))
        for t, evs in evs_at.items()
    }

    for comp, weight in utility.terms:
        if isinstance(comp, QuickCharge):
            for s in active:
                sid = s.session.id
                tt = np.arange(lengths[sid])
                prog.linear_cost[offsets[sid] : offsets[sid] + lengths[sid]] += weight * (horizon - tt) / horizon
        elif isinstance(comp, EqualShare):
            prog.quad_cost[:n] += weight
        elif isinstance(comp, EnergyCost):
            const = 0.0
            for t in range(horizon):
                price = comp.price(start_period + t)
                if t in period_vars:
                    idx, _ = period_vars[t]
                    prog.linear_cost[idx] += weight * kappa * (comp.revenue_per_kwh - price)
                const -= weight * kappa * price * utility.background(start_period + t)
            prog.objective_const += const
        elif isinstance(comp, DemandCharge):
            floor_kw = comp.threshold_kw
            exprs = []
            for t in range(horizon):
                bg_kw = utility.background(start_period + t) * kw_per_amp
                if t in period_vars:
                    idx, cnt = period_vars[t]
                    exprs.append(LinExpr(idx, np.full(cnt, kw_per_amp), bg_kw))
                else:
                    floor_kw = max(floor_kw, bg_kw)
            exprs.append(LinExpr(np.array([], dtype=int), np.array([]), floor_kw))
            prog.epigraph_terms.append(EpigraphTerm(weight * comp.price_per_kw, exprs))
        elif isinstance(comp, LoadVariance):
            for slot, t in enumerate(active_periods):
                yi = lv_offset + slot
                prog.quad_cost[yi] += weight
                idx, cnt = period_vars[t]
                prog.add_eq(np.append(idx, yi), np.append(-np.ones(cnt), 1.0), utility.background(start_period + t))
            for t in range(horizon):
                if t not in period_vars:
                    prog.objective_const -= weight * utility.background(start_period + t) ** 2
        elif isinstance(comp, NonCompletion):
            deficits = []
            for s in active:
                sid = s.session.id
                idx = np.arange(offsets[sid], offsets[sid] + lengths[sid])
                deficits.append(LinExpr(idx, np.ones(lengths[sid]), -s.remaining_energy))
            if comp.p == 1:
                for d in deficits:
                    neg = LinExpr(d.idx, -d.coef, -d.const)
                    prog.epigraph_terms.append(EpigraphTerm(weight, [d, neg]))
            elif comp.p == 2:
                prog.norm_terms.append(NormTerm(weight, deficits))
            elif math.isinf(comp.p):
                exprs = [e for d in deficits for e in (d, LinExpr(d.idx, -d.coef, -d.const))]
                prog.epigraph_terms.append(EpigraphTerm(weight, exprs))
            else:
                raise ValueError("non-completion norm supports p in {1, 2, inf}")
        else:
            raise ValueError(f"unknown utility component {comp!r}")

    varmap = VarMap(
        session_ids=[s.session.id for s in active],
        offsets=offsets,
        lengths=lengths,
        horizon=horizon,
        upper=upper_map,
    )
    return prog, varmap


def build_offline(
    sessions: Sequence[Session],
    utility: UtilityConfig,
    network: ChargingNetwork,
    horizon: int,
    *,
    constraint_mode: str = "affine",
    period_minutes: float = 5.0,
) -> tuple[ConvexProgram, "OfflineVarMap"]:
    """One program over the whole window with every session known up front.

    Like the lookahead program but over absolute periods 0..horizon-1, with
    each session's variables confined to its plug-in window. Used as the
    hindsight benchmark; always a continuous relaxation.
    """
    if constraint_mode not in ("affine", "soc"):
        raise ValueError(f"unknown constraint mode {constraint_mode!r}")
    windows = {
        s.id: (s.arrival, min(s.departure, horizon))
        for s in sessions
        if s.arrival < horizon
    }
    windows = {sid: w for sid, w in windows.items() if w[1] > w[0]}
    ordered = sorted(windows, key=lambda sid: (windows[sid][0], sid))
    by_id = {s.id: s for s in sessions}

    offsets, n = {}, 0
    for sid in ordered:
        offsets[sid] = n
        n += windows[sid][1] - windows[sid][0]
    if n == 0:
        raise ValueError("no sessions overlap the horizon")
    if n > 2_000_000:
        raise MemoryError(
            f"offline program needs {n} rate variables; split the window into "
            "shorter spans and solve them separately"
        )

    lv_terms = [(c, w) for c, w in utility.terms if isinstance(c, LoadVariance)]
    evs_at: dict[int, list[str]] = {}
    for sid in ordered:
        a, d = windows[sid]
        for t in range(a, d):
            evs_at.setdefault(t, []).append(sid)
    active_periods = sorted(evs_at)
    lv_offset = n
    n_total = n + (len(active_periods) if lv_terms else 0)

    prog = ConvexProgram.empty(n_total)
    for sid in ordered:
        a, d = windows[sid]
        off = offsets[sid]
        evse = network.evse(by_id[sid].evse_id)
        prog.upper[off : off + d - a] = evse.max_pilot
        prog.add_ineq(np.arange(off, off + d - a), np.ones(d - a), by_id[sid].requested_energy)
    if lv_terms:
        prog.lower[lv_offset:] = -np.inf

    voltage = network.nominal_voltage
    period_vars: dict[int, np.ndarray] = {}
    for t, sids in evs_at.items():
        period_vars[t] = np.array([offsets[sid] + (t - windows[sid][0]) for sid in sids])
        cols = np.array([network.evse_index[by_id[sid].evse_id] for sid in sids])
        for li, constraint in enumerate(network.constraints):
            w = network._weights[li, cols]
            nz = w != 0
            if not nz.any():
                continue
            limit = constraint.limit_at(t)
            bg = constraint.background_at(t)
            if constraint_mode == "affine":
                prog.add_ineq(period_vars[t][nz], np.abs(w[nz]), limit - abs(bg))
            else:
                prog.add_disk(
                    LinExpr(period_vars[t][nz], w[nz].real, bg.real),
                    LinExpr(period_vars[t][nz], w[nz].imag, bg.imag),
                    limit,
                )

    kappa = voltage / 1000.0 * period_minutes / 60.0
    kw_per_amp = voltage / 1000.0
    for comp, weight in utility.terms:
        if isinstance(comp, QuickCharge):
            for sid in ordered:
                a, d = windows[sid]
                tt = np.arange(a, d)
                prog.linear_cost[offsets[sid] : offsets[sid] + d - a] += weight * (horizon - tt) / horizon
        elif isinstance(comp, EqualShare):
            prog.quad_cost[:n] += weight
        elif isinstance(comp, EnergyCost):
            const = 0.0
            for t in range(horizon):
                price = comp.price(t)
                if t in period_vars:
                    prog.linear_cost[period_vars[t]] += weight * kappa * (comp.revenue_per_kwh - price)
                const -= weight * kappa * price * utility.background(t)
            prog.objective_const += const
        elif isinstance(comp, DemandCharge):
            floor_kw = comp.threshold_kw
            exprs = []
            for t in range(horizon):
                bg_kw = utility.background(t) * kw_per_amp
                if t in period_vars:
                    idx = period_vars[t]
                    exprs.append(LinExpr(idx, np.full(len(idx), kw_per_amp), bg_kw))
                else:
                    floor_kw = max(floor_kw, bg_kw)
            exprs.append(LinExpr(np.array([], dtype=int), np.array([]), floor_kw))
            prog.epigraph_terms.append(EpigraphTerm(weight * comp.price_per_kw, exprs))
        elif isinstance(comp, LoadVariance):
            for slot, t in enumerate(active_periods):
                yi = lv_offset + slot
                prog.quad_cost[yi] += weight
                idx = period_vars[t]
                prog.add_eq(np.append(idx, yi), np.append(-np.ones(len(idx)), 1.0), utility.background(t))
            for t in range(horizon):
                if t not in period_vars:
                    prog.objective_const -= weight * utility.background(t) ** 2
        elif isinstance(comp, NonCompletion):
            deficits = []
            for sid in ordered:
                a, d = windows[sid]
                idx = np.arange(offsets[sid], offsets[sid] + d - a)
                deficits.append(LinExpr(idx, np.ones(d - a), -by_id[sid].requested_energy))
            if comp.p == 1:
                for dterm in deficits:
                    neg = LinExpr(dterm.idx, -dterm.coef, -dterm.const)
                    prog.epigraph_terms.append(EpigraphTerm(weight, [dterm, neg]))
            elif comp.p == 2:
                prog.norm_terms.append(NormTerm(weight, deficits))
            elif math.isinf(comp.p):
                exprs = [e for dt in deficits for e in (dt, LinExpr(dt.idx, -dt.coef, -dt.const))]
                prog.epigraph_terms.append(EpigraphTerm(weight, exprs))
            else:
                raise ValueError("non-completion norm supports p in {1, 2, inf}")
        else:
            raise ValueError(f"unknown utility component {comp!r}")

    return prog, OfflineVarMap(ordered, offsets, windows, horizon)


@dataclass
class OfflineVarMap:
    """Where each session's window of rate variables lives, in absolute time."""

    session_ids: list[str]
    offsets: dict[str, int]
    windows: dict[str, tuple[int, int]]
    horizon: int

    def schedule(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Absolute-time rate vector per session, zero outside its window."""
        out = {}
        for sid in self.session_ids:
            a, d = self.windows[sid]
            vec = np.zeros(self.horizon)
            vec[a:d] = np.maximum(x[self.offsets[sid] : self.offsets[sid] + d - a], 0.0)
            out[sid] = vec
        return out


# -- quantization and rampdown -------------------------------------------------


class QuantizationError(RuntimeError):
    """Rounded pilots that neither the walk-down nor the reclaim pass made feasible."""


def quantize_and_reclaim(
    desired: Mapping[str, float],
    network: ChargingNetwork,
    *,
    bounds: Mapping[str, float] | None = None,
    order: Sequence[str] | None = None,
    t: int = 0,
    mode: str = "affine",
    tol: float = 1e-6,
) -> dict[str, float]:
    """Snap relaxed rates (keyed by EVSE id) onto each stall's pilot set.

    Rates are floored to the nearest allowed pilot, then the stalls that lost
    the most to rounding (queue fixed up front, ties broken by ``order``) are
    repeatedly offered the next allowed pilot, accepting whenever the network
    stays feasible and total allocation stays within the pre-rounding total.
    Raises QuantizationError when the rounded rates are infeasible and neither
    walking them down nor the reclaim pass repairs them.
    """
    order = list(order) if order is not None else sorted(desired)
    rank = {e: i for i, e in enumerate(order)}
    bounds = bounds or {}

    rates: dict[str, float] = {}
    for evse_id, want in desired.items():
        evse = network.evse(evse_id)
        cap = min(bounds.get(evse_id, evse.max_pilot), evse.max_pilot)
        rates[evse_id] = evse.floor_rate(min(max(want, 0.0), cap))

    # Flooring each coordinate cannot break the affine form, but with phase
    # cancellation a lower rate can raise a magnitude aggregate; walk rates
    # down until physical. If that gives up, only an accepted reclaim trial
    # (always feasible) can still repair the vector.
    feasible = True
    steps = 0
    while not network.is_feasible(rates, t, mode, tol):
        margins = network.soc_margins(rates, t) if mode == "soc" else network.affine_margins(rates, t)
        worst = int(np.argmin(margins))
        row = np.abs(network._weights[worst])
        movable = [e for e in rates if rates[e] > 0 and row[network.evse_index[e]] > 0]
        if not movable or steps == 16 * max(len(rates), 1):
            feasible = False
            break
        steps += 1
        victim = max(movable, key=lambda e: (row[network.evse_index[e]] * rates[e], -rank.get(e, 0)))
        evse = network.evse(victim)
        lower = [r for r in ([0.0] if evse.continuous else evse.allowable_rates) if r < rates[victim] - 1e-9]
        rates[victim] = max(lower) if lower else 0.0

    budget = sum(max(v, 0.0) for v in desired.values())
    # Round the rounding loss so solver-level noise cannot scramble the
    # deterministic order-based tie-break.
    queue = sorted(
        rates,
        key=lambda e: (
            -round(min(max(desired[e], 0.0), bounds.get(e, math.inf)) - rates[e], 6),
            rank.get(e, len(order)),
        ),
    )

    changed = True
    while changed:
        changed = False
        for evse_id in queue:
            evse = network.evse(evse_id)
            cap = min(bounds.get(evse_id, evse.max_pilot), evse.max_pilot)
            nxt = evse.next_rate(rates[evse_id])
            if nxt is None or nxt > cap + 1e-9:
                continue
            if sum(rates.values()) - rates[evse_id] + nxt > budget + 1e-9:
                continue
            trial = dict(rates)
            trial[evse_id] = nxt
            if network.is_feasible(trial, t, mode, tol):
                rates[evse_id] = nxt
                changed = feasible = True
    if not feasible:
        raise QuantizationError(f"rounded pilots at period {t} stay infeasible after walking rates down")
    return rates


def rampdown_update(
    pilot: float,
    measured: float,
    bound: float,
    max_pilot: float,
    theta_down: float = 2.0,
    theta_up: float = 1.0,
    sigma: float = 1.0,
    floor: float = 0.0,
) -> float:
    """Track a tapering battery: chase the measured draw from above.

    When the car draws well under its pilot the bound collapses to just above
    the measurement; when the measurement crowds the bound from below the
    bound backs off upward again, never past the hardware maximum. ``floor``
    keeps the bound at or above a minimum pilot where hardware requires one.
    """
    if pilot - measured > theta_down:
        new_bound = measured + sigma
    elif bound - measured < theta_up:
        new_bound = min(bound + sigma, max_pilot)
    else:
        new_bound = bound
    return min(max(new_bound, floor), max_pilot)


# -- the scheduler itself --------------------------------------------------------


@dataclass
class Schedule:
    rates: dict[str, np.ndarray]
    computed_at: int
    horizon: int

    def rate_at(self, session_id: str, k: int) -> float:
        offset = k - self.computed_at
        vec = self.rates.get(session_id)
        if vec is None or not 0 <= offset < len(vec):
            return 0.0
        return float(vec[offset])


class AdaptiveScheduler:
    """Event-driven receding-horizon scheduler.

    Recomputes its schedule on arrivals/departures and whenever the stored
    schedule becomes ``recompute_period`` periods old, then emits the current
    period's slice as pilots (quantizing it first when hardware demands).
    EV state feedback (energy delivered, bound updates) happens outside; this
    object only decides pilots.
    """

    name = "asa"

    def __init__(
        self,
        network: ChargingNetwork,
        utility: UtilityConfig | Callable[[int], UtilityConfig],
        *,
        horizon: int = 144,
        recompute_period: int = 1,
        quantized: bool = False,
        constraint_mode: str = "affine",
        period_minutes: float = 5.0,
        tol: float = 1e-4,
        solver_max_iter: int = 50,
    ):
        if horizon < 1 or recompute_period < 1:
            raise ValueError("horizon and recompute period must be positive")
        self.network = network
        self._utility = utility
        self.horizon = horizon
        self.recompute_period = recompute_period
        self.quantized = quantized
        self.constraint_mode = constraint_mode
        self.period_minutes = period_minutes
        self.tol = tol
        self.solver_max_iter = solver_max_iter
        self._schedule: Schedule | None = None
        self.solve_count = 0
        self.fallback_count = 0

    def utility_at(self, k: int) -> UtilityConfig:
        return self._utility(k) if callable(self._utility) else self._utility

    def pilots(self, states: Mapping[str, EvState], k: int, event: bool) -> dict[str, float]:
        active = active_set(states.values())
        if not active:
            self._schedule = None
            return {}
        sched = self._schedule
        stale = (
            sched is None
            or event
            or k - sched.computed_at >= self.recompute_period
            or k - sched.computed_at >= sched.horizon
            or any(s.session.id not in sched.rates for s in active)
        )
        if stale:
            self._recompute(active, k)
        sched = self._schedule

        if self.quantized:
            desired = {s.evse.id: sched.rate_at(s.session.id, k) for s in active}
            bounds = {s.evse.id: min(s.pilot_upper_bound, s.evse.max_pilot) for s in active}
            order = [s.evse.id for s in sorted(active, key=lambda s: (s.session.arrival, s.session.id))]
            try:
                quantized = quantize_and_reclaim(
                    desired,
                    self.network,
                    bounds=bounds,
                    order=order,
                    t=k,
                    mode=self.constraint_mode,
                    tol=self.tol,
                )
            except QuantizationError as exc:
                self.fallback_count += 1
                logger.info("%s; using minimum-rate fallback", exc)
                return minimum_rate_fallback(active, self.network, laxity, k, self.constraint_mode)
            return {s.session.id: quantized[s.evse.id] for s in active}
        return {
            s.session.id: float(np.clip(sched.rate_at(s.session.id, k), 0.0, min(s.pilot_upper_bound, s.evse.max_pilot)))
            for s in active
        }

    def _recompute(self, active: Sequence[EvState], k: int) -> None:
        horizon = min(self.horizon, max(s.remaining_duration for s in active))
        program, varmap = build_opt(
            active,
            self.utility_at(k),
            self.network,
            horizon,
            start_period=k,
            constraint_mode=self.constraint_mode,
            quantized=self.quantized,
            period_minutes=self.period_minutes,
        )
        solution = solve(program, tol=self.tol, max_iter=self.solver_max_iter)
        self.solve_count += 1
        usable = solution.status == OPTIMAL or (
            solution.status == MAX_ITER
            and math.isfinite(solution.objective)
            and solution.max_violation <= ACCEPT_VIOLATION
            and program.row_violation(solution.x) <= ACCEPT_VIOLATION
        )
        if usable:
            self._schedule = Schedule(varmap.schedule(solution.x), k, horizon)
            return
        self.fallback_count += 1
        logger.info("solve at period %d unusable (%s); using minimum-rate fallback", k, solution.status)
        fallback = minimum_rate_fallback(active, self.network, laxity, k, self.constraint_mode)
        self._schedule = Schedule({sid: np.array([r]) for sid, r in fallback.items()}, k, 1)

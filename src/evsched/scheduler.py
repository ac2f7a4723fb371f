"""Receding-horizon pilot scheduling with utility-driven convex programs.

Each recomputation solves, over a lookahead of T periods, a concave program
in the per-EV charging rates: maximize a weighted sum of utility components
subject to per-EV pilot bounds, per-EV energy budgets, and the network's
per-period current limits (conservative affine rows or true magnitude disks).
Only the first period of the resulting schedule is ever applied; feedback
about what the batteries actually drew arrives through the EV states before
the next recomputation.

One builder, ``build_program``, assembles that program over a list of session
windows. The lookahead program (``build_opt``) and the hindsight benchmark
(``hindsight_windows``) differ only in the windows they pass. Each utility
component carries its own meaning: ``add_to`` adds its term to a program and
``value`` evaluates the same term on a realized charging profile.

For hardware that only accepts a finite pilot set, the relaxed first-period
rates are rounded down and the freed-up headroom is handed back out in order
of who lost the most to rounding. A separate rampdown rule tracks pilots
against measured draw and lowers per-EV bounds so tapering batteries stop
hogging allocation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from evsched.network import ChargingNetwork, Evse
from evsched.solver import (
    OPTIMAL,
    ConvexProgram,
    EpigraphTerm,
    LinExpr,
    NormTerm,
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
    "minimum_pilot",
    "minimum_rate_fallback",
    "Profile",
    "Window",
    "build_program",
    "build_opt",
    "lookahead_windows",
    "hindsight_windows",
    "quantize_and_reclaim",
    "QuantizationError",
    "rampdown_update",
    "AdaptiveScheduler",
]

logger = logging.getLogger(__name__)

ENERGY_EPS = 1e-9

RAMPDOWN_DROP = 2.0  # amps a draw may fall under its pilot before ``rampdown_update`` collapses the bound
RAMPDOWN_CROWD = 1.0  # amps under the bound within which a draw makes the bound back off
RAMPDOWN_MARGIN = 1.0  # amps each rampdown move leaves over the draw


# -- utility components ------------------------------------------------------
#
# ``add_to`` adds a component's weighted term to a program; ``value`` is the
# same term on a realized profile, signed as it enters the maximized objective.


@dataclass(frozen=True, eq=False)
class Profile:
    """A finished run's charging profile, as utility components value it."""

    rates: np.ndarray  # (S, K) amps per session and period
    requested: np.ndarray  # (S,) amp-periods
    net_amps: np.ndarray  # (K,) site net load with its background
    kappa: float  # kWh per amp-period
    kw_per_amp: float


@dataclass(frozen=True)
class QuickCharge:
    """Front-loads energy: each amp in period t earns (T - t + 1) / T."""

    def add_to(self, prog: ConvexProgram, ctx: "VarMap", weight: float) -> None:
        for w, off in zip(ctx.windows, ctx.offsets):
            tt = np.arange(w.first, w.first + w.length)
            prog.linear_cost[off : off + w.length] += weight * (ctx.horizon - tt) / ctx.horizon

    def value(self, profile: Profile, weight: float) -> float:
        K = profile.rates.shape[1]
        w = (K - np.arange(K)) / K
        return weight * float(profile.rates.sum(axis=0) @ w)


@dataclass(frozen=True)
class EqualShare:
    """Penalizes squared rates; spreads current over identical EVs."""

    def add_to(self, prog: ConvexProgram, ctx: "VarMap", weight: float) -> None:
        prog.quad_cost[: ctx.n_rates] += weight

    def value(self, profile: Profile, weight: float) -> float:
        return -weight * float((profile.rates**2).sum())


@dataclass(frozen=True)
class LoadVariance:
    """Penalizes squared net site load; flattens the profile.

    In a program each period with rate variables gets an auxiliary y_t, tied
    to the period's net load by an equality row and penalized by y_t^2.
    """

    def add_to(self, prog: ConvexProgram, ctx: "VarMap", weight: float) -> None:
        for slot, (t, idx) in enumerate(ctx.period_vars.items()):
            yi = ctx.n_rates + slot
            prog.quad_cost[yi] += weight
            prog.add_eq(np.append(idx, yi), np.append(-np.ones(len(idx)), 1.0), ctx.background[t])
        for t in range(ctx.horizon):
            if t not in ctx.period_vars:
                prog.objective_const -= weight * ctx.background[t] ** 2

    def value(self, profile: Profile, weight: float) -> float:
        return -weight * float((profile.net_amps**2).sum())


@dataclass(frozen=True)
class EnergyCost:
    """Charging revenue minus time-of-use cost of the net load, in dollars.

    ``price`` maps an absolute period index to $/kWh.
    """

    revenue_per_kwh: float
    price: Callable[[int], float]

    def add_to(self, prog: ConvexProgram, ctx: "VarMap", weight: float) -> None:
        const = 0.0
        for t in range(ctx.horizon):
            price = self.price(ctx.start + t)
            if t in ctx.period_vars:
                prog.linear_cost[ctx.period_vars[t]] += weight * ctx.kappa * (self.revenue_per_kwh - price)
            const -= weight * ctx.kappa * price * ctx.background[t]
        prog.objective_const += const

    def value(self, profile: Profile, weight: float) -> float:
        prices = np.array([self.price(t) for t in range(profile.rates.shape[1])])
        return weight * profile.kappa * (
            self.revenue_per_kwh * float(profile.rates.sum()) - float(prices @ profile.net_amps)
        )


@dataclass(frozen=True)
class DemandCharge:
    """Dollar cost of the horizon's peak net load above a threshold.

    ``price_per_kw`` is what one extra kW of peak costs over the remaining
    billing window; ``threshold_kw`` is a peak already paid for (past peak or
    an externally supplied target), below which extra peak is free.
    """

    price_per_kw: float
    threshold_kw: float = 0.0

    def add_to(self, prog: ConvexProgram, ctx: "VarMap", weight: float) -> None:
        floor_kw = self.threshold_kw
        exprs = []
        for t in range(ctx.horizon):
            bg_kw = ctx.background[t] * ctx.kw_per_amp
            if t in ctx.period_vars:
                idx = ctx.period_vars[t]
                exprs.append(LinExpr(idx, np.full(len(idx), ctx.kw_per_amp), bg_kw))
            else:
                floor_kw = max(floor_kw, bg_kw)
        exprs.append(LinExpr(np.array([], dtype=int), np.array([]), floor_kw))
        prog.epigraph_terms.append(EpigraphTerm(weight * self.price_per_kw, exprs))

    def value(self, profile: Profile, weight: float) -> float:
        peak_kw = max(float(profile.net_amps.max(initial=0.0)) * profile.kw_per_amp, self.threshold_kw)
        return -weight * self.price_per_kw * peak_kw


@dataclass(frozen=True)
class NonCompletion:
    """Penalizes undelivered energy via a p-norm over per-EV shortfalls, p in {1, 2, inf}."""

    p: float = 1.0

    def __post_init__(self) -> None:
        if self.p not in (1, 2, math.inf):
            raise ValueError("non-completion norm supports p in {1, 2, inf}")

    def add_to(self, prog: ConvexProgram, ctx: "VarMap", weight: float) -> None:
        deficits = [
            LinExpr(np.arange(off, off + w.length), np.ones(w.length), -w.energy)
            for w, off in zip(ctx.windows, ctx.offsets)
        ]
        if self.p == 1:
            for d in deficits:
                prog.epigraph_terms.append(EpigraphTerm(weight, [d, _negated(d)]))
        elif self.p == 2:
            prog.norm_terms.append(NormTerm(weight, deficits))
        else:
            prog.epigraph_terms.append(EpigraphTerm(weight, [e for d in deficits for e in (d, _negated(d))]))

    def value(self, profile: Profile, weight: float) -> float:
        deficit = np.abs(profile.rates.sum(axis=1) - profile.requested)
        if self.p == 1:
            return -weight * float(deficit.sum())
        if self.p == 2:
            return -weight * float(np.linalg.norm(deficit))
        return -weight * float(deficit.max(initial=0.0))


def _negated(e: LinExpr) -> LinExpr:
    return LinExpr(e.idx, -e.coef, -e.const)


Component = QuickCharge | EqualShare | LoadVariance | EnergyCost | DemandCharge | NonCompletion


@dataclass(frozen=True)
class UtilityConfig:
    """Weighted utility components plus the site's non-EV net load in amps."""

    terms: tuple[tuple[Component, float], ...]
    background_amps: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("utility needs at least one term")
        if any(weight <= 0 for _, weight in self.terms):
            raise ValueError("utility weights must be positive")

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

    @property
    def pilot_bound(self) -> float:
        """Largest pilot the stall may get now: its rampdown bound capped by the EVSE's maximum."""
        return min(self.pilot_upper_bound, self.evse.max_pilot)

    def apply_measurement(self, pilot: float, measured: float) -> None:
        """Feed back one period: consume energy and a period of stay."""
        self.remaining_energy = max(self.remaining_energy - measured, 0.0)
        self.remaining_duration -= 1
        self.last_pilot = pilot
        self.last_measured = measured


def active_set(states: Iterable[EvState]) -> list[EvState]:
    """EVs that still want energy and are still plugged in."""
    return [s for s in states if s.remaining_energy > ENERGY_EPS and s.remaining_duration > 0]


def laxity(state: EvState) -> float:
    """Slack periods left after charging flat out; smaller is more urgent."""
    bound = state.pilot_bound
    if bound <= 0:
        return float(state.remaining_duration)
    return state.remaining_duration - state.remaining_energy / bound


def minimum_pilot(state: EvState, quantized: bool) -> float:
    """Smallest pilot that charges the EV: its minimum rate capped by ``pilot_bound``.

    A quantized EVSE accepts nothing between 0 and its minimum rate, so there a
    bound under the minimum rate leaves 0.
    """
    bound = state.pilot_bound
    return 0.0 if quantized and bound < state.evse.min_rate else min(state.evse.min_rate, bound)


def minimum_rate_fallback(
    active: Sequence[EvState],
    network: ChargingNetwork,
    priority: Callable[[EvState], float] = laxity,
    t: int = 0,
    mode: str = "affine",
    quantized: bool = False,
) -> dict[str, float]:
    """Give EVs their ``minimum_pilot`` in priority order while feasible.

    Used when the optimization cannot honor every plugged-in EV's minimum
    rate: the most urgent EVs keep charging, the rest wait at zero. An EV
    whose minimum pilot is 0 gets 0 and leaves the network to the others.
    """
    order = sorted(active, key=lambda s: (priority(s), s.session.arrival, s.session.id))
    vec = np.zeros(len(network))
    out = {}
    for state in order:
        step = minimum_pilot(state, quantized)
        out[state.session.id] = 0.0
        if step > 0:
            i = network.evse_index[state.evse.id]
            lo, hi = network.rate_window(vec, i, t, mode)
            if lo <= step <= hi:
                vec[i] = out[state.session.id] = step
    return out


# -- program construction ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Window:
    """One session's run of rate variables in a program.

    The session may charge in in-program periods ``first`` .. ``first +
    length - 1``, at most ``upper[t - first]`` amps in period t, at least
    ``lower`` amps in its first period, and ``energy`` amp-periods in all.
    """

    session_id: str
    evse: Evse
    first: int
    upper: np.ndarray
    lower: float
    energy: float

    @property
    def length(self) -> int:
        return len(self.upper)


@dataclass(eq=False)
class VarMap:
    """Where each window's rate variables live, and what utility components read.

    Window j's rates are ``x[offsets[j] : offsets[j] + length]``; the first
    ``n_rates`` entries of x hold every window's rates. In-program period t is
    absolute period ``start + t``.
    """

    windows: list[Window]
    offsets: list[int]
    horizon: int
    start: int
    n_rates: int
    period_vars: dict[int, np.ndarray]  # rate variables per occupied period, ascending t
    background: list[float]  # the site's non-EV net load per period, amps
    kappa: float  # kWh per amp-period
    kw_per_amp: float

    def schedule(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Per-session rates over the program's periods, clipped to each window's bounds, zero outside it."""
        out = {}
        for w, off in zip(self.windows, self.offsets):
            vec = np.zeros(self.horizon)
            vec[w.first : w.first + w.length] = np.clip(x[off : off + w.length], 0.0, w.upper)
            out[w.session_id] = vec
        return out


def build_program(
    windows: Sequence[Window],
    utility: UtilityConfig,
    network: ChargingNetwork,
    horizon: int,
    *,
    start_period: int = 0,
    constraint_mode: str = "affine",
    period_minutes: float = 5.0,
) -> tuple[ConvexProgram, VarMap]:
    """Assemble the scheduling program over the given session windows.

    Variables are each window's per-period rates, window after window in the
    order given, then one auxiliary per occupied period when the utility has
    a ``LoadVariance`` term. Each window gets its bounds and an energy row;
    network rows/disks are emitted per period over the windows present, in
    the requested constraint mode; then each utility component adds its term.
    Every window must lie within periods 0 .. horizon - 1.
    """
    if constraint_mode not in ("affine", "soc"):
        raise ValueError(f"unknown constraint mode {constraint_mode!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least one period")
    if not windows or any(w.length < 1 for w in windows):
        raise ValueError("program needs at least one window, each at least one period long")
    firsts = np.array([w.first for w in windows])
    lengths = np.array([w.length for w in windows])
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    n = int(lengths.sum())
    if n > 2_000_000:
        raise MemoryError(f"program needs {n} rate variables; split the window into shorter spans")

    # present[p, j]: window j covers the p-th occupied period, where its rate
    # is variable var_at[p, j]. C order walks periods ascending, then windows
    # in the order given.
    ts = np.arange((firsts + lengths).max())[:, None]
    present = (ts >= firsts) & (ts < firsts + lengths)
    periods = np.flatnonzero(present.any(axis=1))
    present = present[periods]
    var_at = offsets + periods[:, None] - firsts
    var = var_at[present]
    ends = np.cumsum(present.sum(axis=1)).tolist()
    period_vars = {t: var[lo:hi] for t, lo, hi in zip(periods.tolist(), [0] + ends[:-1], ends)}
    n_aux = len(period_vars) if any(isinstance(c, LoadVariance) for c, _ in utility.terms) else 0

    prog = ConvexProgram.empty(n + n_aux)
    prog.upper[:n] = np.concatenate([w.upper for w in windows])
    prog.lower[offsets] = [w.lower for w in windows]
    prog.lower[n:] = -np.inf
    prog.add_ineqs(np.arange(n), np.ones(n), lengths, [w.energy for w in windows])
    _add_network_rows(prog, present, var_at, periods, start_period, windows, network, constraint_mode)

    voltage = network.nominal_voltage
    background = [utility.background(start_period + t) for t in range(horizon)]
    kappa = voltage / 1000.0 * period_minutes / 60.0
    ctx = VarMap(list(windows), offsets.tolist(), horizon, start_period, n, period_vars, background, kappa, voltage / 1000.0)
    for comp, weight in utility.terms:
        comp.add_to(prog, ctx, weight)
    return prog, ctx


def _add_network_rows(prog, present, var_at, periods, start_period, windows, network, mode) -> None:
    """One row (affine) or disk (soc) per occupied period and constraint over the windows it weighs.

    Rows run by period, then constraint, each over its windows in order; a
    constraint that weighs none of the windows present in a period gets none.
    """
    weights = network.weights[:, [network.evse_index[w.evse.id] for w in windows]]
    hit = present[:, None, :] & (weights != 0)  # (period, constraint, window)
    p, l, j = np.nonzero(hit)
    idx = var_at[p, j]
    w = weights[l, j]
    counts = hit.sum(axis=2)
    rp, rl = np.nonzero(counts)
    lens = counts[rp, rl]
    span = periods[-1] + 1
    limit = network.limit_profile(span, start_period)[rl, periods[rp]]
    bg = network.background_profile(span, start_period)[rl, periods[rp]]
    if mode == "affine":
        # np.hypot rounds like Python's abs of a complex; np.abs can differ in the last bit.
        prog.add_ineqs(idx, np.abs(w), lens, limit - np.hypot(bg.real, bg.imag))
        return
    ends = np.cumsum(lens).tolist()
    re, im = w.real, w.imag
    for lo, hi, c, bg_re, bg_im in zip([0] + ends[:-1], ends, limit.tolist(), bg.real.tolist(), bg.imag.tolist()):
        prog.add_disk(LinExpr(idx[lo:hi], re[lo:hi], bg_re), LinExpr(idx[lo:hi], im[lo:hi], bg_im), c)


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

    The windows are ``lookahead_windows(active, horizon, quantized)``; the
    program's period 0 is absolute period ``start_period``.
    """
    return build_program(lookahead_windows(active, horizon, quantized), utility, network, horizon,
                         start_period=start_period, constraint_mode=constraint_mode, period_minutes=period_minutes)


def lookahead_windows(active: Sequence[EvState], horizon: int, quantized: bool = False) -> list[Window]:
    """Each active EV's window from in-program period 0, in arrival order.

    A window lasts while its EV is still present, capped at the horizon. Its
    first-period bound is the EV's ``pilot_bound``; in quantized mode its
    first-period rate is also bounded below by the EV's ``minimum_pilot``.
    """
    windows = []
    for s in sorted(active, key=lambda s: (s.session.arrival, s.session.id)):
        upper = np.full(min(horizon, s.remaining_duration), s.evse.max_pilot)
        upper[:1] = s.pilot_bound
        # Clamp by remaining energy so a nearly-done EV cannot make the
        # program infeasible (lower bound above its own energy row).
        lower = min(minimum_pilot(s, True), s.remaining_energy) if quantized else 0.0
        windows.append(Window(s.session.id, s.evse, 0, upper, lower, s.remaining_energy))
    return windows


def hindsight_windows(sessions: Sequence[Session], network: ChargingNetwork, horizon: int) -> list[Window]:
    """Each session's arrival-to-departure window within the horizon, in arrival order.

    In-program periods are absolute periods: the hindsight benchmark knows
    every session up front and lets it draw up to its EVSE's maximum pilot.
    """
    windows = []
    for s in sorted(sessions, key=lambda s: (s.arrival, s.id)):
        length = min(s.departure, horizon) - s.arrival
        if length > 0:
            evse = network.evse(s.evse_id)
            windows.append(Window(s.id, evse, s.arrival, np.full(length, evse.max_pilot), 0.0, s.requested_energy))
    return windows


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

    col = {evse_id: network.evse_index[evse_id] for evse_id in desired}
    vec = np.zeros(len(network))
    for evse_id, want in desired.items():
        evse = network.evse(evse_id)
        cap = min(bounds.get(evse_id, evse.max_pilot), evse.max_pilot)
        vec[col[evse_id]] = evse.floor_rate(min(max(want, 0.0), cap))

    # Flooring each coordinate cannot break the affine form, but with phase
    # cancellation a lower rate can raise a magnitude aggregate; walk rates
    # down until physical. If that gives up, only an accepted reclaim trial
    # (always feasible) can still repair the vector.
    feasible = True
    steps = 0
    while not network.is_feasible(vec, t, mode):
        row = np.abs(network.weights[int(np.argmin(network.margins(vec, t, mode)))])
        movable = [e for e in desired if vec[col[e]] > 0 and row[col[e]] > 0]
        if not movable or steps == 16 * max(len(desired), 1):
            feasible = False
            break
        steps += 1
        victim = max(movable, key=lambda e: (row[col[e]] * vec[col[e]], -rank.get(e, 0)))
        evse = network.evse(victim)
        lower = [r for r in ([0.0] if evse.continuous else evse.allowable_rates) if r < vec[col[victim]] - 1e-9]
        vec[col[victim]] = max(lower) if lower else 0.0

    budget = sum(max(v, 0.0) for v in desired.values())
    # Round the rounding loss so solver-level noise cannot scramble the
    # deterministic order-based tie-break.
    queue = sorted(
        desired,
        key=lambda e: (
            -round(min(max(desired[e], 0.0), bounds.get(e, math.inf)) - float(vec[col[e]]), 6),
            rank.get(e, len(order)),
        ),
    )
    cols = list(col.values())
    total = sum(vec[cols].tolist())

    changed = True
    while changed:
        changed = False
        for evse_id in queue:
            evse, i = network.evse(evse_id), col[evse_id]
            cap = min(bounds.get(evse_id, evse.max_pilot), evse.max_pilot)
            rate = float(vec[i])
            nxt = evse.next_rate(rate)
            if nxt is None or nxt > cap + 1e-9:
                continue
            if total - rate + nxt > budget + 1e-9:
                continue
            lo, hi = network.rate_window(vec, i, t, mode)
            if lo <= nxt <= hi:
                vec[i] = nxt
                total = sum(vec[cols].tolist())
                changed = feasible = True
    if not feasible:
        raise QuantizationError(f"rounded pilots at period {t} stay infeasible after walking rates down")
    return {evse_id: float(vec[i]) for evse_id, i in col.items()}


def rampdown_update(
    pilot: float,
    measured: float,
    bound: float,
    max_pilot: float,
    floor: float = 0.0,
) -> float:
    """Track a tapering battery: chase the measured draw from above.

    When the car draws more than ``RAMPDOWN_DROP`` amps under its pilot the
    bound collapses to ``RAMPDOWN_MARGIN`` above the measurement; when the
    measurement comes within ``RAMPDOWN_CROWD`` of the bound the bound backs
    off upward by that margin, never past the hardware maximum. ``floor``
    keeps the bound at or above a minimum pilot where hardware requires one.
    """
    if pilot - measured > RAMPDOWN_DROP:
        new_bound = measured + RAMPDOWN_MARGIN
    elif bound - measured < RAMPDOWN_CROWD:
        new_bound = min(bound + RAMPDOWN_MARGIN, max_pilot)
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
    A solve is used only when its status is ``optimal``; any other status,
    like a quantization it cannot repair, takes the counted minimum-rate
    fallback. EV state feedback (energy delivered, bound updates) happens
    outside; this object only decides pilots.
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
            bounds = {s.evse.id: s.pilot_bound for s in active}
            order = [s.evse.id for s in sorted(active, key=lambda s: (s.session.arrival, s.session.id))]
            try:
                quantized = quantize_and_reclaim(
                    desired,
                    self.network,
                    bounds=bounds,
                    order=order,
                    t=k,
                    mode=self.constraint_mode,
                )
            except QuantizationError as exc:
                self.fallback_count += 1
                logger.info("%s; using minimum-rate fallback", exc)
                return minimum_rate_fallback(active, self.network, laxity, k, self.constraint_mode, quantized=True)
            return {s.session.id: quantized[s.evse.id] for s in active}
        return {
            s.session.id: float(np.clip(sched.rate_at(s.session.id, k), 0.0, s.pilot_bound))
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
        solution = solve(program)
        self.solve_count += 1
        if solution.status == OPTIMAL:
            self._schedule = Schedule(varmap.schedule(solution.x), k, horizon)
            return
        self.fallback_count += 1
        logger.info("solve at period %d unusable (%s); using minimum-rate fallback", k, solution.status)
        fallback = minimum_rate_fallback(active, self.network, laxity, k, self.constraint_mode, quantized=self.quantized)
        self._schedule = Schedule({sid: np.array([r]) for sid, r in fallback.items()}, k, 1)

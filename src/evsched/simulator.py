"""Discrete-time replay of a scheduling algorithm against a charging site.

Each period: departures leave, arrivals plug in, the algorithm picks pilots
for whoever is present, batteries respond, and per-EV state absorbs the
feedback. The simulator audits physical invariants as it goes (network limits
on the pilot allocation, pilot values the hardware accepts, energy
conservation) and optionally prices the resulting load profile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Protocol, Sequence

import numpy as np

from evsched.battery import IDEAL, TWO_STAGE, BatteryState, fit_to_session, response
from evsched.billing import BillingResult, Tariff, bill
from evsched.network import ChargingNetwork
from evsched.scheduler import (
    EvState,
    Profile,
    UtilityConfig,
    build_program,
    hindsight_windows,
    rampdown_update,
)
from evsched.solver import OPTIMAL, solve
from evsched.workload import Session, amp_periods_to_kwh

__all__ = [
    "Scenario",
    "SCENARIOS",
    "SimConfig",
    "SimResult",
    "Meter",
    "FixedSchedule",
    "run",
    "offline_optimal",
    "realized_utility",
]


@dataclass(frozen=True)
class Scenario:
    """Which idealizations are in force for a run; scenario I's perfect knowledge is the ``offline`` algorithm's."""

    name: str
    continuous_pilots: bool
    ideal_battery: bool


SCENARIOS: dict[str, Scenario] = {
    "I": Scenario("I", True, True),
    "II": Scenario("II", True, True),
    "III": Scenario("III", False, True),
    "IV": Scenario("IV", True, False),
    "V": Scenario("V", False, False),
}


# The network audit counts a period whose applied pilots overrun a magnitude limit by more than this (amps).
AUDIT_TOL = 1e-3


@dataclass
class SimConfig:
    """How a run is clocked and billed, and whether rampdown tracks tapering batteries.

    Rampdown moves by ``scheduler``'s ``RAMPDOWN_*`` constants, and two-stage
    batteries start to taper at ``battery.TAIL_START_SOC``.
    """

    period_minutes: float = 5.0
    start_day: str = "mon"
    tariff: Tariff | None = None
    revenue_per_kwh: float = 0.30
    billing_days: float | None = None
    rampdown: bool | None = None  # None: on exactly when batteries taper


@dataclass
class Meter:
    """Running peak of the site's net load, visible to algorithms mid-run."""

    peak_kw: float = 0.0


class Algorithm(Protocol):
    name: str

    def pilots(self, states: Mapping[str, EvState], k: int, event: bool) -> dict[str, float]: ...


class FixedSchedule:
    """Replays a precomputed absolute-time schedule (hindsight benchmark)."""

    name = "offline"

    def __init__(self, schedule: Mapping[str, np.ndarray]):
        self.schedule = {sid: np.asarray(v, dtype=float) for sid, v in schedule.items()}

    def pilots(self, states: Mapping[str, EvState], k: int, event: bool) -> dict[str, float]:
        out = {}
        for sid in states:
            vec = self.schedule.get(sid)
            if vec is not None and k < len(vec):
                out[sid] = float(vec[k])
        return out


@dataclass
class SimResult:
    algorithm: str
    scenario: str
    periods: int
    period_minutes: float
    voltage: float
    session_ids: list[str]
    sessions: list[Session]
    # Applied pilots and drawn currents over each session's stay only, session
    # after session in order, in amps; ``pilots`` and ``measured`` spread them
    # over (S, K). Zeros outside the stays are not kept: on a week of short
    # sessions they would be most of a dense matrix.
    pilot_trace: np.ndarray
    measured_trace: np.ndarray
    requested: np.ndarray  # (S,) amp-periods
    delivered: np.ndarray  # (S,) amp-periods
    net_load_kw: np.ndarray  # (K,)
    constraint_ids: list[str]
    aggregates: np.ndarray  # (L, K) measured-aggregate magnitudes, amps
    limits: np.ndarray  # (L, K), read-only
    audit: dict[str, int]
    billing: BillingResult | None
    solve_count: int = 0
    fallback_count: int = 0

    @property
    def pilots(self) -> np.ndarray:
        """(S, K) applied pilots in amps, zero outside each session's stay; built on each access."""
        return self._spread(self.pilot_trace)

    @property
    def measured(self) -> np.ndarray:
        """(S, K) drawn currents in amps, laid out like ``pilots``."""
        return self._spread(self.measured_trace)

    def _spread(self, trace: np.ndarray) -> np.ndarray:
        out = np.zeros((len(self.sessions), self.periods))
        out[_stays(self.sessions, self.periods)] = trace
        return out

    @property
    def demand_met(self) -> float:
        total = float(self.requested.sum())
        if total <= 0:
            return 1.0
        # A battery stops at its request, but its draws summed in another order
        # than it accumulated them can overshoot the request by rounding.
        return float(np.minimum(self.delivered, self.requested).sum()) / total

    @property
    def delivered_kwh(self) -> float:
        return amp_periods_to_kwh(float(self.delivered.sum()), self.voltage, self.period_minutes)

    def audit_violations(self) -> int:
        return sum(self.audit.values())


def _stays(sessions: Sequence[Session], periods: int) -> np.ndarray:
    """(S, K) mask of the periods [arrival, departure) each session is plugged in."""
    k = np.arange(periods)
    arrival = np.array([s.arrival for s in sessions], dtype=int)
    departure = np.array([s.departure for s in sessions], dtype=int)
    return (k >= arrival[:, None]) & (k < departure[:, None])


def _validate_sessions(network: ChargingNetwork, sessions: Sequence[Session]) -> None:
    by_evse: dict[str, list[Session]] = {}
    seen = set()
    for s in sessions:
        if s.id in seen:
            raise ValueError(f"duplicate session id {s.id!r}")
        seen.add(s.id)
        if s.evse_id not in network.evse_index:
            raise KeyError(f"session {s.id} references unknown EVSE {s.evse_id!r}")
        by_evse.setdefault(s.evse_id, []).append(s)
    for evse_id, group in by_evse.items():
        group.sort(key=lambda s: s.arrival)
        for prev, nxt in zip(group, group[1:]):
            if nxt.arrival < prev.departure:
                raise ValueError(
                    f"sessions {prev.id} and {nxt.id} overlap on EVSE {evse_id}"
                )


def run(
    network: ChargingNetwork,
    sessions: Sequence[Session],
    algorithm: Algorithm,
    scenario: Scenario,
    config: SimConfig | None = None,
) -> SimResult:
    """Simulate the workload under one algorithm and scenario.

    If the algorithm object carries a ``meter`` attribute it is refreshed with
    the running net-load peak after every period, letting peak-aware utility
    configurations watch the monthly high-water mark grow.
    """
    config = config or SimConfig()
    _validate_sessions(network, sessions)
    sessions = sorted(sessions, key=lambda s: (s.arrival, s.id))
    K = max((s.departure for s in sessions), default=0)
    S = len(sessions)
    sid_row = {s.id: i for i, s in enumerate(sessions)}

    arrivals: dict[int, list[Session]] = {}
    departures: dict[int, list[str]] = {}
    for s in sessions:
        arrivals.setdefault(s.arrival, []).append(s)
        departures.setdefault(s.departure, []).append(s.id)

    pilots_mat = np.zeros((S, K))
    measured_mat = np.zeros((S, K))
    net_load_kw = np.zeros(K)
    L = len(network.constraints)
    aggregates = np.zeros((L, K))
    audit = {"network": 0, "pilot_not_allowed": 0, "overdraw": 0, "post_departure": 0}

    rampdown_on = config.rampdown if config.rampdown is not None else not scenario.ideal_battery
    model = IDEAL if scenario.ideal_battery else TWO_STAGE
    meter: Meter | None = getattr(algorithm, "meter", None)
    kw_per_amp = network.nominal_voltage / 1000.0

    states: dict[str, EvState] = {}
    batteries: dict[str, BatteryState] = {}

    for k in range(K):
        event = False
        for sid in departures.get(k, ()):
            if sid in states:
                del states[sid], batteries[sid]
                event = True
        for s in arrivals.get(k, ()):
            evse = network.evse(s.evse_id)
            states[s.id] = EvState.start(s, evse)
            batteries[s.id] = fit_to_session(s.requested_energy, evse.max_pilot, model)
            event = True

        allocation = algorithm.pilots(states, k, event) if states else {}
        unknown = set(allocation) - set(states)
        if unknown:
            raise ValueError(f"algorithm produced pilots for unknown sessions {sorted(unknown)}")

        rates_by_evse: dict[str, float] = {}
        for sid, state in states.items():
            p = float(allocation.get(sid, 0.0))
            p = min(max(p, 0.0), state.evse.max_pilot)
            if not scenario.continuous_pilots and algorithm.name != "uncontrolled":
                floored = state.evse.floor_rate(p + 1e-9)
                if p - floored > 1e-6:
                    audit["pilot_not_allowed"] += 1
                p = floored
            drawn = response(batteries[sid], p)
            if drawn > p + 1e-9 or batteries[sid].charge > batteries[sid].capacity + 1e-9:
                audit["overdraw"] += 1
            row = sid_row[sid]
            pilots_mat[row, k] = p
            measured_mat[row, k] = drawn
            state.apply_measurement(p, drawn)
            if rampdown_on:
                floor = 0.0 if scenario.continuous_pilots else state.evse.min_rate
                state.pilot_upper_bound = rampdown_update(p, drawn, state.pilot_upper_bound, state.evse.max_pilot, floor=floor)
            rates_by_evse[state.evse.id] = rates_by_evse.get(state.evse.id, 0.0) + p

        if algorithm.name != "uncontrolled" and rates_by_evse:
            if not (network.margins(rates_by_evse, k, "soc") >= -AUDIT_TOL).all():
                audit["network"] += 1

        measured_by_evse = {state.evse.id: measured_mat[sid_row[sid], k] for sid, state in states.items()}
        aggregates[:, k] = np.abs(network.aggregates(measured_by_evse, k))
        net_load_kw[k] = measured_mat[:, k].sum() * kw_per_amp
        if meter is not None:
            meter.peak_kw = max(meter.peak_kw, float(net_load_kw[k]))

    audit["post_departure"] = int(
        sum(
            measured_mat[sid_row[s.id], : s.arrival].any() or measured_mat[sid_row[s.id], s.departure :].any()
            for s in sessions
        )
    )

    stays = _stays(sessions, K)
    billing = None
    delivered = measured_mat.sum(axis=1)
    if config.tariff is not None:
        billing = bill(
            net_load_kw,
            amp_periods_to_kwh(float(delivered.sum()), network.nominal_voltage, config.period_minutes),
            config.tariff,
            config.revenue_per_kwh,
            config.period_minutes,
            config.start_day,
            config.billing_days,
        )

    return SimResult(
        algorithm=algorithm.name,
        scenario=scenario.name,
        periods=K,
        period_minutes=config.period_minutes,
        voltage=network.nominal_voltage,
        session_ids=[s.id for s in sessions],
        sessions=list(sessions),
        pilot_trace=pilots_mat[stays],
        measured_trace=measured_mat[stays],
        requested=np.array([s.requested_energy for s in sessions]),
        delivered=delivered,
        net_load_kw=net_load_kw,
        constraint_ids=[c.id for c in network.constraints],
        aggregates=aggregates,
        limits=network.limit_profile(K),
        audit=audit,
        billing=billing,
        solve_count=getattr(algorithm, "solve_count", 0),
        fallback_count=getattr(algorithm, "fallback_count", 0),
    )


def offline_optimal(
    network: ChargingNetwork,
    sessions: Sequence[Session],
    utility: UtilityConfig,
    config: SimConfig | None = None,
    *,
    constraint_mode: str = "affine",
) -> tuple[SimResult, dict[str, np.ndarray]]:
    """Hindsight benchmark: one solve over the whole window, then replay.

    Assumes perfect information, continuous pilots, and ideal batteries (the
    relaxation's feasible set); the replay therefore realizes the computed
    schedule exactly. Returns the replayed result and the schedule itself.
    """
    config = config or SimConfig()
    _validate_sessions(network, sessions)
    if not sessions:
        raise ValueError("no sessions to schedule")
    K = max(s.departure for s in sessions)
    program, varmap = build_program(
        hindsight_windows(sessions, network, K), utility, network, K,
        constraint_mode=constraint_mode, period_minutes=config.period_minutes,
    )
    solution = solve(program)
    if solution.status != OPTIMAL:
        raise RuntimeError(f"offline benchmark solve ended with status {solution.status}")
    schedule = varmap.schedule(solution.x)
    result = run(network, sessions, FixedSchedule(schedule), SCENARIOS["I"], config)
    return replace(result, solve_count=1), schedule


def realized_utility(result: SimResult, utility: UtilityConfig) -> float:
    """Evaluate a utility configuration on a finished run's measured (actually drawn) currents.

    Horizon weighting spans the whole run.
    """
    rates = result.measured
    bg = np.array([utility.background(t) for t in range(rates.shape[1])])
    profile = Profile(
        rates=rates,
        requested=result.requested,
        net_amps=rates.sum(axis=0) + bg,
        kappa=result.voltage / 1000.0 * result.period_minutes / 60.0,
        kw_per_amp=result.voltage / 1000.0,
    )
    value = 0.0
    for comp, weight in utility.terms:
        value += comp.value(profile, weight)
    return value

"""Sorting-based schedulers to compare the optimizing scheduler against.

Each takes the active EV states and greedily hands out the largest feasible
rate in a fixed priority order: least laxity first, earliest deadline first,
or round-robin one increment at a time. In quantized mode everyone is first
pinned at their ``minimum_pilot`` (the minimum-rate fallback, in the same
priority order, when even that does not fit), then raised along each stall's
allowed pilot list.

Nothing is found by trial: with every other pilot fixed, the network's
``rate_window`` gives in one step the interval of rates one stall can take,
and a rate is granted exactly when it lies in that window. In continuous mode
the grant is the cap clipped to the window, in quantized mode the largest
menu pilot inside it.

Round-robin raises every stall one rung per sweep. Rates only rise within a
sweep, and the affine form bounds the magnitude form, so when the sweep's end
vector passes the affine check on every row, every intermediate vector passes
too and each turn's window would have granted its step: such a sweep is
committed whole from one check. Only a sweep that fails it is played turn by
turn through the windows.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from evsched.network import ChargingNetwork
from evsched.scheduler import EvState, laxity, minimum_pilot, minimum_rate_fallback

__all__ = [
    "llf_pilots",
    "edf_pilots",
    "rr_pilots",
    "uncontrolled_pilots",
    "BaselineScheduler",
]


# A continuous grant clipped by the window would sit on a constraint's
# boundary, where rounding can tip ``is_feasible`` either way and so empty the
# windows of every EV after it. Grants stop this many amps inside instead:
# far above the rounding of a window's ends (about 1e-12 A on a 54-stall
# site), and about the last step a 40-step bisection over [0, 32 A] took.
_INSIDE = 1e-10


def _rate_cap(state: EvState, quantized: bool) -> float:
    """Largest useful pilot: hardware bound, tapered bound, and need."""
    bound = state.pilot_bound
    need = state.remaining_energy
    if need >= bound:
        return bound
    if quantized:
        return min(state.evse.ceil_rate(need), bound)
    return need


def _max_feasible(
    vec: np.ndarray,
    state: EvState,
    network: ChargingNetwork,
    cap: float,
    quantized: bool,
    t: int,
    mode: str,
) -> float:
    """Largest rate for one EV keeping the partial allocation ``vec`` feasible."""
    evse = state.evse
    base = float(vec[network.evse_index[evse.id]])
    lo, hi = network.rate_window(vec, network.evse_index[evse.id], t, mode)
    if quantized:
        if evse.continuous:
            menu = [base] + list(np.arange(evse.min_nonzero_rate, cap + 1e-9, 1.0))
        else:
            menu = [r for r in evse.allowable_rates if base <= r <= cap + 1e-9]
        fits = [r for r in menu if r >= base - 1e-9 and lo <= r <= hi]
        return max(max(fits), base) if fits else base
    if lo <= cap <= hi:
        return cap
    if not lo <= base <= hi:
        return base
    return max(base, min(cap, hi - _INSIDE))


def _pinned_minimums(active: Sequence[EvState], network: ChargingNetwork) -> np.ndarray:
    """Network-ordered vector with every active EV at its quantized ``minimum_pilot``."""
    vec = np.zeros(len(network))
    for s in active:
        vec[network.evse_index[s.evse.id]] = minimum_pilot(s, True)
    return vec


def _priority_pilots(
    active: Sequence[EvState],
    network: ChargingNetwork,
    key: Callable[[EvState], float],
    quantized: bool,
    t: int,
    mode: str,
) -> dict[str, float]:
    order = sorted(active, key=lambda s: (key(s), s.session.arrival, s.session.id))
    vec = np.zeros(len(network))
    if quantized:
        vec = _pinned_minimums(active, network)
        if not network.is_feasible(vec, t, mode):
            return minimum_rate_fallback(active, network, key, t, mode, quantized=True)
    out = {}
    for state in order:
        cap = _rate_cap(state, quantized)
        best = _max_feasible(vec, state, network, cap, quantized, t, mode)
        vec[network.evse_index[state.evse.id]] = best
        out[state.session.id] = best
    return out


def llf_pilots(
    active: Sequence[EvState],
    network: ChargingNetwork,
    quantized: bool = False,
    t: int = 0,
    mode: str = "affine",
) -> dict[str, float]:
    """Least laxity first: urgency = slack periods left at full blast."""
    return _priority_pilots(active, network, laxity, quantized, t, mode)


def edf_pilots(
    active: Sequence[EvState],
    network: ChargingNetwork,
    quantized: bool = False,
    t: int = 0,
    mode: str = "affine",
) -> dict[str, float]:
    """Earliest departure first."""
    return _priority_pilots(active, network, lambda s: float(s.session.departure), quantized, t, mode)


def rr_pilots(
    active: Sequence[EvState],
    network: ChargingNetwork,
    quantized: bool = False,
    t: int = 0,
    mode: str = "affine",
) -> dict[str, float]:
    """Round-robin: cycle arrivals, raising each pilot one step while it fits.

    Each sweep first forms its end vector: a stall out of rungs (no next
    pilot, or the next one over its cap) stops, every other live stall moves
    one rung up. If that vector has nonnegative affine margins on every row,
    the sweep is committed whole. This is exact: a turn sees the sweep's start
    with some stalls already raised, which lies between start and end
    componentwise, and the affine margins only fall as rates rise, so every
    turn's vector would have passed the affine check, hence its window in
    either mode (the windows' 1e-6 A tolerance is far above the rounding of
    either check).
    A sweep that fails the check is played turn by turn: a stall whose window
    does not hold its next rung stops there.
    """
    order = sorted(active, key=lambda s: (s.session.arrival, s.session.id))
    vec = np.zeros(len(network))
    if quantized:
        vec = _pinned_minimums(active, network)
        if not network.is_feasible(vec, t, mode):
            return minimum_rate_fallback(active, network, lambda s: float(s.session.arrival), t, mode, quantized=True)
    live = [(network.evse_index[s.evse.id], s.evse, _rate_cap(s, quantized)) for s in order]
    while live:
        moving = []  # (stall, next rung) of every live stall that has one
        for stall in live:
            i, evse, cap = stall
            nxt = evse.next_rate(float(vec[i])) if quantized else float(vec[i]) + 1.0
            if nxt is not None and nxt <= cap + 1e-9:
                moving.append((stall, nxt))
        end = vec.copy()
        for (i, _, _), nxt in moving:
            end[i] = nxt
        if (network.margins(end, t, "affine") >= 0).all():
            vec, live = end, [stall for stall, _ in moving]
            continue
        live = []
        for stall, nxt in moving:
            lo, hi = network.rate_window(vec, stall[0], t, mode)
            if lo <= nxt <= hi:
                vec[stall[0]] = nxt
                live.append(stall)
    return {s.session.id: float(vec[network.evse_index[s.evse.id]]) for s in active}


def uncontrolled_pilots(active: Sequence[EvState]) -> dict[str, float]:
    """Dumb EVSEs: everyone gets the hardware maximum, limits be damned."""
    return {s.session.id: s.evse.max_pilot for s in active}


class BaselineScheduler:
    """Adapts the stateless pilot functions to the simulator's interface."""

    _FNS = {
        "llf": llf_pilots,
        "edf": edf_pilots,
        "rr": rr_pilots,
    }

    def __init__(
        self,
        name: str,
        network: ChargingNetwork,
        *,
        quantized: bool = False,
        constraint_mode: str = "affine",
    ):
        if name not in self._FNS and name != "uncontrolled":
            raise ValueError(f"unknown baseline {name!r}")
        self.name = name
        self.network = network
        self.quantized = quantized
        self.constraint_mode = constraint_mode

    def pilots(self, states, k: int, event: bool) -> dict[str, float]:
        from evsched.scheduler import active_set

        active = active_set(states.values())
        if not active:
            return {}
        if self.name == "uncontrolled":
            return uncontrolled_pilots(active)
        fn = self._FNS[self.name]
        return fn(active, self.network, self.quantized, k, self.constraint_mode)

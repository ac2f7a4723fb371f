"""Vehicle battery response to a pilot signal.

Two models:

* ``ideal``: the battery draws the full pilot until its capacity is reached.
* ``two_stage``: constant-current bulk phase up to the state-of-charge knee
  ``TAIL_START_SOC``, then a tail whose acceptance falls off linearly to zero
  at full charge, mimicking the constant-voltage taper of real chargers.

Charge and capacity are in amp-periods at nominal voltage, currents in amps,
and a response covers one period.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BatteryState", "response", "fit_to_session", "IDEAL", "TWO_STAGE", "TAIL_START_SOC"]

IDEAL = "ideal"
TWO_STAGE = "two_stage"
TAIL_START_SOC = 0.8  # a two-stage battery tapers above this state of charge


@dataclass
class BatteryState:
    """A pack's capacity and charge, its rated current, and its model (``IDEAL`` or ``TWO_STAGE``)."""

    capacity: float
    charge: float
    max_current: float
    model: str = IDEAL

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")
        if not 0 <= self.charge <= self.capacity + 1e-12:
            raise ValueError("charge must lie in [0, capacity]")
        if self.max_current <= 0:
            raise ValueError("max_current must be positive")
        if self.model not in (IDEAL, TWO_STAGE):
            raise ValueError(f"unknown battery model {self.model!r}")

    @property
    def soc(self) -> float:
        return 1.0 if self.capacity == 0 else self.charge / self.capacity

    def acceptance_limit(self) -> float:
        """Largest current the battery will draw at its present state of charge."""
        if self.model == IDEAL or self.soc <= TAIL_START_SOC:
            return self.max_current
        return self.max_current * (1.0 - self.soc) / (1.0 - TAIL_START_SOC)


def response(state: BatteryState, pilot: float) -> float:
    """Current drawn over one period of the given pilot; advances the charge.

    The draw is limited by the pilot, the battery's acceptance at the current
    state of charge, its rated current, and the room left in the pack.
    """
    if pilot < 0:
        raise ValueError("pilot must be nonnegative")
    headroom = max(state.capacity - state.charge, 0.0)
    drawn = max(min(pilot, state.max_current, state.acceptance_limit(), headroom), 0.0)
    state.charge = min(state.charge + drawn, state.capacity)
    return drawn


def fit_to_session(requested_energy: float, max_current: float, model: str = IDEAL) -> BatteryState:
    """Fresh battery sized so a full charge equals the session's energy request."""
    return BatteryState(capacity=requested_energy, charge=0.0, max_current=max_current, model=model)

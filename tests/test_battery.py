import numpy as np
import pytest

from evsched.battery import IDEAL, TWO_STAGE, BatteryState, fit_to_session, response
from oracles import battery_tail_energy


def test_ideal_draws_pilot_until_full():
    b = fit_to_session(50.0, 32.0)
    assert response(b, 32.0) == 32.0
    assert b.charge == 32.0
    assert response(b, 32.0) == 18.0  # only 18 amp-periods of room left
    assert b.charge == 50.0
    assert response(b, 32.0) == 0.0


def test_two_stage_acceptance_at_90_percent():
    b = BatteryState(capacity=100.0, charge=90.0, max_current=32.0, model=TWO_STAGE)
    # halfway through the tail: half the rated current
    assert b.acceptance_limit() == pytest.approx(16.0)
    assert response(b, 32.0) == pytest.approx(10.0)  # headroom caps it


def test_two_stage_bulk_region_full_rate():
    b = BatteryState(100.0, 0.0, 32.0, TWO_STAGE)
    assert b.acceptance_limit() == 32.0
    b.charge = 80.0
    assert b.acceptance_limit() == 32.0
    b.charge = 80.1
    assert b.acceptance_limit() < 32.0


def test_tail_matches_direct_recursion():
    capacity, max_current, tail = 200.0, 16.0, 0.8
    b = BatteryState(capacity, 0.0, max_current, TWO_STAGE)
    delivered = sum(response(b, max_current) for _ in range(60))
    expected = battery_tail_energy(capacity, max_current, tail, 0.0, 60)
    assert delivered == pytest.approx(expected)
    assert b.charge <= capacity


def test_invariants_random_walk():
    rng = np.random.default_rng(17)
    for _ in range(50):
        cap = float(rng.uniform(5, 400))
        b = BatteryState(cap, float(rng.uniform(0, cap)), float(rng.uniform(6, 64)),
                         TWO_STAGE if rng.random() < 0.5 else IDEAL)
        prev = b.charge
        for _ in range(40):
            pilot = float(rng.uniform(0, 70))
            drawn = response(b, pilot)
            assert 0.0 <= drawn <= pilot + 1e-12
            assert drawn <= b.max_current + 1e-12
            assert prev <= b.charge <= b.capacity + 1e-12
            assert 0.0 <= b.soc <= 1.0 + 1e-12
            prev = b.charge


def test_validation_errors():
    with pytest.raises(ValueError):
        BatteryState(-1.0, 0.0, 32.0)
    with pytest.raises(ValueError):
        BatteryState(10.0, 11.0, 32.0)
    with pytest.raises(ValueError):
        BatteryState(10.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        BatteryState(10.0, 0.0, 32.0, model="magic")
    b = BatteryState(10.0, 0.0, 32.0)
    with pytest.raises(ValueError):
        response(b, -1.0)


def test_zero_capacity_is_always_full():
    b = BatteryState(0.0, 0.0, 32.0)
    assert b.soc == 1.0
    assert response(b, 32.0) == 0.0

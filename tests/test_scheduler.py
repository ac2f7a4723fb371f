import numpy as np
import pytest

import evsched.scheduler as scheduler_mod
from evsched.network import (
    ChargingNetwork,
    NetworkConstraint,
    aerovironment,
    clippercreek,
    continuous_evse,
)
from evsched.scheduler import (
    AdaptiveScheduler,
    DemandCharge,
    EnergyCost,
    EqualShare,
    EvState,
    LoadVariance,
    NonCompletion,
    QuantizationError,
    QuickCharge,
    Schedule,
    UtilityConfig,
    active_set,
    build_opt,
    laxity,
    minimum_rate_fallback,
    quantize_and_reclaim,
    rampdown_update,
)
from evsched.solver import MAX_ITER, OPTIMAL, Solution, solve
from evsched.workload import Session


def _line(evses, limit, cid="line"):
    return ChargingNetwork(evses, [NetworkConstraint(cid, {e.id: 1.0 for e in evses}, limit)])


def _state(sid, evse, arrival=0, departure=1, energy=100.0):
    return EvState.start(Session(sid, evse.id, arrival, departure, energy), evse)


QC = UtilityConfig(((QuickCharge(), 1.0),))
QC_ES = UtilityConfig(((QuickCharge(), 1.0), (EqualShare(), 0.01)))


def test_single_ev_front_loads():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    state = _state("a", evse, departure=2, energy=10.0)
    prog, varmap = build_opt([state], QC, net, horizon=2)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    rates = varmap.schedule(sol.x)["a"]
    assert rates[0] == pytest.approx(10.0, abs=1e-3)
    assert rates[1] == pytest.approx(0.0, abs=1e-3)


def test_two_evs_split_a_tight_line_evenly():
    e1, e2 = continuous_evse("E1", 32.0, 30.0), continuous_evse("E2", 32.0, 30.0)
    net = _line([e1, e2], 32.0)
    states = [_state("a", e1), _state("b", e2)]
    prog, varmap = build_opt(states, QC_ES, net, horizon=1)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    sched = varmap.schedule(sol.x)
    assert sched["a"][0] == pytest.approx(16.0, abs=1e-3)
    assert sched["b"][0] == pytest.approx(16.0, abs=1e-3)


def test_energy_cost_routes_to_cheap_periods():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    state = _state("a", evse, departure=4, energy=30.0)
    price = lambda t: 0.267 if t < 2 else 0.056
    util = UtilityConfig(((EnergyCost(0.30, price), 1.0), (EqualShare(), 1e-6)))
    prog, varmap = build_opt([state], util, net, horizon=4)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    rates = varmap.schedule(sol.x)["a"]
    # margin is positive in every period, so the cap fills; cheap half first
    assert rates.sum() == pytest.approx(30.0, abs=1e-2)
    assert rates[2] + rates[3] > rates[0] + rates[1] + 25.0


def test_demand_charge_flattens_and_threshold_disables():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    state = _state("a", evse, departure=2, energy=20.0)
    flat = UtilityConfig(((QuickCharge(), 1.0), (DemandCharge(5.0, 0.0), 1.0)))
    prog, varmap = build_opt([state], flat, net, horizon=2)
    rates = varmap.schedule(solve(prog).x)["a"]
    assert rates[0] == pytest.approx(10.0, abs=1e-2)
    assert rates[1] == pytest.approx(10.0, abs=1e-2)

    # threshold above any reachable peak: the term is constant, QC front-loads
    lax = UtilityConfig(((QuickCharge(), 1.0), (DemandCharge(5.0, 10.0), 1.0)))
    prog, varmap = build_opt([state], lax, net, horizon=2)
    rates = varmap.schedule(solve(prog).x)["a"]
    assert rates[0] == pytest.approx(20.0, abs=1e-2)


def test_load_variance_balances_against_background():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    state = _state("a", evse, departure=2, energy=20.0)
    util = UtilityConfig(
        ((QuickCharge(), 1.0), (LoadVariance(), 0.05)),
        background_amps=lambda t: 5.0 if t == 0 else 0.0,
    )
    prog, varmap = build_opt([state], util, net, horizon=2)
    sol = solve(prog)
    rates = varmap.schedule(sol.x)["a"]
    # interior optimum: 1 = 0.1 (r0 + 5) and 0.5 = 0.1 r1
    assert rates[0] == pytest.approx(5.0, abs=1e-2)
    assert rates[1] == pytest.approx(5.0, abs=1e-2)


def test_noncompletion_l2_equalizes_forced_deficits():
    e1, e2 = continuous_evse("E1", 32.0, 30.0), continuous_evse("E2", 32.0, 30.0)
    net = _line([e1, e2], 24.0)
    states = [_state("a", e1, energy=20.0), _state("b", e2, energy=20.0)]
    util = UtilityConfig(((NonCompletion(p=2), 1.0),))
    prog, varmap = build_opt(states, util, net, horizon=1)
    sol = solve(prog)
    sched = varmap.schedule(sol.x)
    assert sched["a"][0] == pytest.approx(12.0, abs=1e-2)
    assert sched["b"][0] == pytest.approx(12.0, abs=1e-2)


def test_noncompletion_l1_meets_satisfiable_demand():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    state = _state("a", evse, energy=10.0)
    util = UtilityConfig(((NonCompletion(p=1), 1.0),))
    prog, varmap = build_opt([state], util, net, horizon=1)
    rates = varmap.schedule(solve(prog).x)["a"]
    assert rates[0] == pytest.approx(10.0, abs=1e-2)


def test_quantized_lower_bound_tracks_remaining_energy():
    evse = aerovironment("E1", 0.0)
    net = _line([evse], 40.0)
    full = _state("a", evse, departure=3, energy=100.0)
    prog, _ = build_opt([full], QC, net, horizon=3, quantized=True)
    assert prog.lower[0] == pytest.approx(6.0)
    assert prog.lower[1] == 0.0

    sliver = _state("b", evse, departure=3, energy=2.5)
    prog, varmap = build_opt([sliver], QC, net, horizon=3, quantized=True)
    assert prog.lower[0] == pytest.approx(2.5)
    assert solve(prog).status == OPTIMAL


def test_build_opt_rejects_bad_inputs():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    state = _state("a", evse)
    with pytest.raises(ValueError):
        build_opt([], QC, net, horizon=1)
    with pytest.raises(ValueError):
        build_opt([state], QC, net, horizon=0)
    with pytest.raises(ValueError):
        build_opt([state], QC, net, horizon=1, constraint_mode="euclid")


def test_quantize_splits_equal_halves_one_up_one_down():
    e1, e2 = clippercreek("C1", 30.0), clippercreek("C2", 30.0)
    net = _line([e1, e2], 31.0)
    rates = quantize_and_reclaim({"C1": 15.5, "C2": 15.5}, net, order=["C1", "C2"])
    assert rates == {"C1": 16.0, "C2": 8.0}
    # swapping the tie-break order swaps the winner
    rates = quantize_and_reclaim({"C1": 15.5, "C2": 15.5}, net, order=["C2", "C1"])
    assert rates == {"C1": 8.0, "C2": 16.0}


def test_quantize_respects_budget_bounds_and_caps():
    e1, e2 = clippercreek("C1", 30.0), clippercreek("C2", 30.0)
    net = _line([e1, e2], 100.0)
    # plenty of network headroom: the pre-rounding total is the binding budget
    rates = quantize_and_reclaim({"C1": 20.0, "C2": 20.0}, net, order=["C1", "C2"])
    assert sum(rates.values()) <= 40.0 + 1e-9
    assert all(r in (0.0, 8.0, 16.0, 24.0, 32.0) for r in rates.values())
    # per-EV bound caps reclaim below the hardware max
    rates = quantize_and_reclaim({"C1": 31.0, "C2": 0.0}, net, bounds={"C1": 17.0}, order=["C1", "C2"])
    assert rates["C1"] == 16.0


def test_quantize_continuous_passthrough():
    e1 = continuous_evse("E1", 32.0, 0.0)
    net = _line([e1], 40.0)
    assert quantize_and_reclaim({"E1": 17.3}, net)["E1"] == pytest.approx(17.3)
    assert quantize_and_reclaim({"E1": 3.0}, net)["E1"] == 0.0  # below min nonzero rate


def test_rampdown_worked_examples():
    # drawing 20 A against a 32 A pilot: bound collapses to 21
    assert rampdown_update(pilot=32.0, measured=20.0, bound=32.0, max_pilot=32.0) == 21.0
    # measurement crowding the bound from below: back off to 22
    assert rampdown_update(pilot=21.0, measured=20.5, bound=21.0, max_pilot=32.0) == 22.0
    # never past the hardware max, never below the floor
    assert rampdown_update(32.0, 31.8, 32.0, 32.0) == 32.0
    assert rampdown_update(8.0, 0.0, 8.0, 32.0, floor=6.0) == 6.0
    assert rampdown_update(8.0, 0.0, 8.0, 32.0) == 1.0


def test_laxity_and_active_set():
    evse = continuous_evse("E1", 32.0, 0.0)
    tight = _state("a", evse, departure=2, energy=60.0)
    loose = _state("b", evse, departure=10, energy=10.0)
    assert laxity(tight) == pytest.approx(2 - 60.0 / 32.0)
    assert laxity(tight) < laxity(loose)

    done = _state("c", evse, departure=4, energy=5.0)
    done.remaining_energy = 0.0
    gone = _state("d", evse, departure=4, energy=5.0)
    gone.remaining_duration = 0
    assert [s.session.id for s in active_set([tight, done, gone, loose])] == ["a", "b"]


def test_minimum_rate_fallback_serves_most_urgent_first():
    evses = [aerovironment(f"E{i}", 0.0) for i in range(5)]
    net = _line(evses, 20.0)
    # urgency increases with index: E4 most urgent
    states = [
        _state(f"s{i}", evses[i], departure=10, energy=10.0 + 40.0 * i)
        for i in range(5)
    ]
    out = minimum_rate_fallback(states, net)
    served = [sid for sid, r in out.items() if r > 0]
    assert sorted(served) == ["s2", "s3", "s4"]  # 3 * 6 A fits under 20 A
    assert out["s0"] == 0.0 and out["s1"] == 0.0


def test_schedule_rate_lookup():
    sched = Schedule({"a": np.array([10.0, 5.0])}, computed_at=7, horizon=2)
    assert sched.rate_at("a", 7) == 10.0
    assert sched.rate_at("a", 8) == 5.0
    assert sched.rate_at("a", 9) == 0.0
    assert sched.rate_at("missing", 7) == 0.0


def test_adaptive_scheduler_recompute_cadence():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    sched = AdaptiveScheduler(net, QC_ES, recompute_period=3)
    state = _state("a", evse, departure=8, energy=200.0)
    states = {"a": state}
    for k, event in enumerate([True, False, False, False, False]):
        pilots = sched.pilots(states, k, event)
        state.apply_measurement(pilots["a"], pilots["a"])
    # solves at k=0 (event) and k=3 (age 3 >= 3)
    assert sched.solve_count == 2
    assert sched.fallback_count == 0


def test_adaptive_scheduler_drains_an_ev():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    sched = AdaptiveScheduler(net, QC_ES)
    state = _state("a", evse, departure=4, energy=50.0)
    states = {"a": state}
    delivered = 0.0
    for k in range(4):
        pilots = sched.pilots(states, k, event=(k == 0))
        drawn = min(pilots.get("a", 0.0), state.remaining_energy)
        delivered += drawn
        state.apply_measurement(pilots.get("a", 0.0), drawn)
    assert delivered == pytest.approx(50.0, abs=1e-2)
    assert sched.pilots(states, 4, False) == {}


def test_adaptive_scheduler_quantized_end_to_end():
    e1, e2 = clippercreek("C1", 30.0), clippercreek("C2", 30.0)
    net = _line([e1, e2], 31.0)
    sched = AdaptiveScheduler(net, QC_ES, quantized=True)
    states = {
        "a": _state("a", e1, energy=40.0),
        "b": _state("b", e2, energy=40.0),
    }
    pilots = sched.pilots(states, 0, True)
    # relaxed split is (15.5, 15.5); rounding gives one 16 and one 8
    assert pilots == {"a": 16.0, "b": 8.0}


def test_adaptive_scheduler_falls_back_when_program_infeasible():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = ChargingNetwork([evse], [NetworkConstraint("line", {"E1": 1.0}, 32.0, background=40 + 0j)])
    sched = AdaptiveScheduler(net, QC_ES)
    states = {"a": _state("a", evse, energy=50.0)}
    pilots = sched.pilots(states, 0, True)
    assert pilots == {"a": 0.0}
    assert sched.fallback_count == 1


def test_max_iter_result_is_used_only_when_its_rows_hold(monkeypatch):
    # A max_iter point passes the disk check trivially in affine mode; its
    # energy row must still hold. 4 x 32 A breaks the 50 A-period budget.
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 40.0)
    for x, fallbacks, pilot in ((np.full(4, 32.0), 1, 6.0), (np.full(4, 12.5), 0, 12.5)):
        monkeypatch.setattr(scheduler_mod, "solve", lambda program, **_: Solution(x, MAX_ITER, 1.0, 0.0, 1, 0, [0.0]))
        sched = AdaptiveScheduler(net, QC_ES)
        pilots = sched.pilots({"a": _state("a", evse, departure=4, energy=50.0)}, 0, True)
        assert sched.fallback_count == fallbacks
        assert pilots == {"a": pytest.approx(pilot)}


def test_quantize_signals_pilots_it_cannot_make_feasible(monkeypatch):
    # |r - 30| <= 5 admits 25..32 A, but 24.9 floors to 24 and walking down
    # only moves away from the disk.
    evse = aerovironment("A", 0.0)
    net = ChargingNetwork([evse], [NetworkConstraint("line", {"A": 1.0}, 5.0, background=-30 + 0j)])
    assert net.is_feasible({"A": 25.0}, 0, "soc")
    with pytest.raises(QuantizationError):
        quantize_and_reclaim({"A": 24.9}, net, mode="soc")

    relaxed = Solution(np.array([24.9]), OPTIMAL, 24.9, 0.0, 1, 0, [0.0])
    monkeypatch.setattr(scheduler_mod, "solve", lambda program, **_: relaxed)
    sched = AdaptiveScheduler(net, QC_ES, quantized=True, constraint_mode="soc")
    pilots = sched.pilots({"a": _state("a", evse, energy=24.9)}, 0, True)
    assert sched.fallback_count == 1
    assert pilots == {"a": 0.0}  # even the minimum pilot breaks the disk


def test_utility_config_validation():
    with pytest.raises(ValueError):
        UtilityConfig(())
    with pytest.raises(ValueError):
        UtilityConfig(((QuickCharge(), 0.0),))
    with pytest.raises(ValueError):
        UtilityConfig(((NonCompletion(p=0.5), 1.0),))

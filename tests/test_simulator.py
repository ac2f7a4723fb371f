import dataclasses

import numpy as np
import pytest

from evsched.baselines import BaselineScheduler
from evsched.billing import sce_ev_tou4
from evsched.network import (
    ChargingNetwork,
    NetworkConstraint,
    aerovironment,
    clippercreek,
    continuous_evse,
    synthetic_preset,
)
from evsched.scheduler import (
    AdaptiveScheduler,
    DemandCharge,
    EnergyCost,
    EqualShare,
    LoadVariance,
    NonCompletion,
    QuickCharge,
    UtilityConfig,
    build_program,
    hindsight_windows,
)
from evsched.solver import OPTIMAL, solve
from evsched.simulator import (
    SCENARIOS,
    FixedSchedule,
    Meter,
    SimConfig,
    offline_optimal,
    realized_utility,
    run,
)
from evsched.workload import Session
from oracles import limit_at

QC_ES = UtilityConfig(((QuickCharge(), 1.0), (EqualShare(), 0.01)))


def _line(evses, limit):
    return ChargingNetwork(evses, [NetworkConstraint("line", {e.id: 1.0 for e in evses}, limit)])


def _small_site():
    net = synthetic_preset(n_evse=6, transformer_kw=20.0)
    ids = [e.id for e in net.evses]
    sessions = [
        Session("s0", ids[0], 0, 25, 300.0),
        Session("s1", ids[1], 2, 28, 400.0),
        Session("s2", ids[2], 4, 20, 250.0),
        Session("s3", ids[3], 5, 30, 350.0),
    ]
    return net, sessions


def test_run_conserves_energy_and_passes_audits():
    net, sessions = _small_site()
    algo = AdaptiveScheduler(net, QC_ES)
    res = run(net, sessions, algo, SCENARIOS["II"])
    assert res.audit_violations() == 0
    assert np.allclose(res.delivered, res.measured.sum(axis=1))
    assert np.all(res.delivered <= res.requested + 1e-6)
    assert np.all(res.measured <= res.pilots + 1e-9)
    assert res.solve_count > 0 and res.fallback_count == 0


def test_run_never_charges_outside_the_window():
    net, sessions = _small_site()
    res = run(net, sessions, AdaptiveScheduler(net, QC_ES), SCENARIOS["II"])
    for i, s in enumerate(sessions):
        row = res.session_ids.index(s.id)
        assert not res.measured[row, : s.arrival].any()
        assert not res.measured[row, s.departure :].any()
    assert res.audit["post_departure"] == 0


def test_offline_replay_realizes_its_schedule():
    net, sessions = _small_site()
    res, schedule = offline_optimal(net, sessions, QC_ES)
    assert res.algorithm == "offline" and res.scenario == "I"
    assert res.solve_count == 1
    for sid, vec in schedule.items():
        row = res.session_ids.index(sid)
        assert np.allclose(res.measured[row], vec, atol=1e-4)
    assert res.audit_violations() == 0


def test_online_never_beats_hindsight():
    net, sessions = _small_site()
    offline_res, _ = offline_optimal(net, sessions, QC_ES)
    online_res = run(net, sessions, AdaptiveScheduler(net, QC_ES), SCENARIOS["II"])
    off = realized_utility(offline_res, QC_ES)
    on = realized_utility(online_res, QC_ES)
    assert on <= off + 1e-6 * max(1.0, abs(off))


def test_program_objective_is_the_realized_utility_of_its_replay():
    """Every component's program term (add_to) agrees with its value on the
    replayed profile (value): the hindsight optimum, replayed in scenario I.
    Doubled requests leave shortfalls, so the non-completion norms count."""
    net, sessions = _small_site()
    sessions = [dataclasses.replace(s, requested_energy=2 * s.requested_energy) for s in sessions]
    util = UtilityConfig(
        (
            (QuickCharge(), 1.0),
            (EqualShare(), 0.01),
            (LoadVariance(), 1e-3),
            (EnergyCost(0.3, lambda t: 0.1 + 0.02 * (t % 5)), 50.0),
            (DemandCharge(1.5, 4.0), 1.0),
            (NonCompletion(p=1), 0.5),
            (NonCompletion(p=2), 0.3),
            (NonCompletion(p=float("inf")), 0.2),
        ),
        background_amps=lambda t: 3.0 + (t % 4),
    )
    K = max(s.departure for s in sessions)
    program, varmap = build_program(hindsight_windows(sessions, net, K), util, net, K)
    assert program.norm_terms and program.linear_eqs and program.epigraph_terms
    solution = solve(program)
    assert solution.status == OPTIMAL
    res = run(net, sessions, FixedSchedule(varmap.schedule(solution.x)), SCENARIOS["I"])
    assert res.audit_violations() == 0
    assert realized_utility(res, util) == pytest.approx(program.objective_value(solution.x), rel=1e-6)


def _tail_waste(res, tail_start=0.8):
    """Allocated-but-unused amps summed over each session's tapering periods."""
    waste = 0.0
    for i, s in enumerate(res.sessions):
        start_of_period_charge = np.concatenate([[0.0], np.cumsum(res.measured[i])[:-1]])
        tail = start_of_period_charge / s.requested_energy > tail_start
        waste += float((res.pilots[i, tail] - res.measured[i, tail]).sum())
    return waste


def test_rampdown_stops_chasing_a_tapering_battery():
    e1, e2 = continuous_evse("E1", 32.0, 30.0), continuous_evse("E2", 32.0, 30.0)
    net = _line([e1, e2], 60.0)
    # "a" has a big slow-tapering battery; "b" stays in bulk the whole run
    sessions = [Session("a", "E1", 0, 90, 1600.0), Session("b", "E2", 0, 90, 4000.0)]
    algo = lambda: AdaptiveScheduler(net, QC_ES)
    tracking = run(net, sessions, algo(), SCENARIOS["IV"])
    blind = run(net, sessions, algo(), SCENARIOS["IV"], SimConfig(rampdown=False))
    assert _tail_waste(tracking) < 0.5 * _tail_waste(blind)
    # rampdown trims allocation, not delivery
    assert np.allclose(tracking.delivered, blind.delivered, rtol=1e-2)


def test_quantized_scenario_snaps_and_audits_pilots():
    evse = clippercreek("C1", 30.0)
    net = _line([evse], 60.0)
    sessions = [Session("a", "C1", 0, 4, 100.0)]
    # a continuous-minded algorithm emits 10 A; hardware floors it to 8
    sloppy = FixedSchedule({"a": np.full(4, 10.0)})
    res = run(net, sessions, sloppy, SCENARIOS["III"])
    assert res.audit["pilot_not_allowed"] == 4
    assert np.all(res.pilots[0] == 8.0)

    clean = BaselineScheduler("llf", net, quantized=True)
    res = run(net, sessions, clean, SCENARIOS["III"])
    assert res.audit["pilot_not_allowed"] == 0
    assert set(np.unique(res.pilots)) <= {0.0, 8.0, 16.0, 24.0, 32.0}


def test_uncontrolled_is_exempt_from_the_network_audit():
    evses = [aerovironment(f"E{i}", 0.0) for i in range(3)]
    net = _line(evses, 40.0)
    sessions = [Session(f"s{i}", f"E{i}", 0, 5, 200.0) for i in range(3)]
    res = run(net, sessions, BaselineScheduler("uncontrolled", net), SCENARIOS["II"])
    assert res.audit["network"] == 0
    assert res.aggregates.max() > res.limits.max() + 1.0  # physically over the line

    polite = run(net, sessions, BaselineScheduler("llf", net), SCENARIOS["II"])
    assert polite.audit["network"] == 0
    assert np.all(polite.aggregates <= polite.limits + 1e-6)


def test_meter_tracks_running_peak():
    net, sessions = _small_site()
    algo = AdaptiveScheduler(net, QC_ES)
    algo.meter = Meter()
    res = run(net, sessions, algo, SCENARIOS["II"])
    assert algo.meter.peak_kw == pytest.approx(float(res.net_load_kw.max()))


def test_billing_attached_when_tariff_present():
    net, sessions = _small_site()
    cfg = SimConfig(tariff=sce_ev_tou4(), billing_days=1.0)
    res = run(net, sessions, AdaptiveScheduler(net, QC_ES), SCENARIOS["II"], cfg)
    assert res.billing is not None
    assert res.billing.peak_kw == pytest.approx(float(res.net_load_kw.max()))
    assert res.billing.revenue == pytest.approx(0.30 * res.delivered_kwh)


def test_validation_rejects_malformed_workloads():
    evse = aerovironment("E1", 0.0)
    net = _line([evse], 40.0)
    algo = BaselineScheduler("llf", net)
    dup = [Session("a", "E1", 0, 5, 10.0), Session("a", "E1", 6, 8, 10.0)]
    with pytest.raises(ValueError):
        run(net, dup, algo, SCENARIOS["II"])
    with pytest.raises(KeyError):
        run(net, [Session("a", "E9", 0, 5, 10.0)], algo, SCENARIOS["II"])
    overlap = [Session("a", "E1", 0, 5, 10.0), Session("b", "E1", 4, 8, 10.0)]
    with pytest.raises(ValueError):
        run(net, overlap, algo, SCENARIOS["II"])


def test_algorithm_cannot_pilot_unknown_sessions():
    evse = aerovironment("E1", 0.0)
    net = _line([evse], 40.0)

    class Rogue:
        name = "rogue"

        def pilots(self, states, k, event):
            return {"ghost": 10.0}

    with pytest.raises(ValueError):
        run(net, [Session("a", "E1", 0, 3, 10.0)], Rogue(), SCENARIOS["II"])


def test_fixed_schedule_runs_out_gracefully():
    sched = FixedSchedule({"a": np.array([10.0, 5.0])})
    assert sched.pilots({"a": None}, 1, False) == {"a": 5.0}
    assert sched.pilots({"a": None}, 2, False) == {}


def test_empty_workload_is_a_clean_noop():
    net = _line([aerovironment("E1", 0.0)], 40.0)
    res = run(net, [], BaselineScheduler("llf", net), SCENARIOS["II"])
    assert res.periods == 0
    assert res.demand_met == 1.0
    assert res.audit_violations() == 0


def test_demand_met_ignores_rounding_above_a_request():
    net, sessions = _small_site()
    res = run(net, sessions, BaselineScheduler("llf", net), SCENARIOS["II"])
    over = dataclasses.replace(res, delivered=np.nextafter(res.requested, np.inf))
    assert over.demand_met == 1.0
    short = dataclasses.replace(res, delivered=res.requested * np.array([1.0, 0.5, 1.0, 1.0]))
    assert short.demand_met == pytest.approx(1.0 - 0.5 * 400.0 / 1300.0)


def test_result_keeps_traces_over_stays_and_shares_limits():
    evses = [aerovironment(f"E{i}", 0.0) for i in range(3)]
    stepped = NetworkConstraint("stepped", {e.id: 1.0 for e in evses}, np.array([30.0, 40.0, 50.0]))
    net = ChargingNetwork(evses, [stepped, NetworkConstraint("flat", {"E0": 1.0}, 20.0)])
    sessions = [Session("a", "E0", 0, 6, 60.0), Session("b", "E1", 2, 9, 90.0), Session("c", "E2", 4, 5, 10.0)]
    res = run(net, sessions, BaselineScheduler("llf", net), SCENARIOS["II"])
    assert res.pilot_trace.shape == res.measured_trace.shape == (6 + 7 + 1,)
    stays = np.zeros((3, res.periods), dtype=bool)
    for i, s in enumerate(res.sessions):
        stays[i, s.arrival : s.departure] = True
    for dense, trace in ((res.pilots, res.pilot_trace), (res.measured, res.measured_trace)):
        assert not dense[~stays].any()
        assert dense[stays].tolist() == trace.tolist()
    assert res.pilot_trace.any()
    assert res.limits.shape == (2, res.periods)
    assert res.limits.tolist() == [[limit_at(stepped, k) for k in range(res.periods)], [20.0] * res.periods]
    with pytest.raises(ValueError):
        res.limits[0, 0] = 0.0

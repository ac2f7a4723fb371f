import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evsched
from evsched.baselines import (
    BaselineScheduler,
    edf_pilots,
    llf_pilots,
    rr_pilots,
    uncontrolled_pilots,
)
from evsched.network import ChargingNetwork, NetworkConstraint, aerovironment, clippercreek, continuous_evse
from evsched.scheduler import EvState
from evsched.workload import Session
from oracles import probe_greedy_pilots, random_site, turn_by_turn_rr


def _line(evses, limit):
    return ChargingNetwork(evses, [NetworkConstraint("line", {e.id: 1.0 for e in evses}, limit)])


def _state(sid, evse, arrival=0, departure=1, energy=100.0):
    return EvState.start(Session(sid, evse.id, arrival, departure, energy), evse)


def test_llf_urgent_ev_gets_the_line():
    e1, e2 = continuous_evse("E1", 32.0, 0.0), continuous_evse("E2", 32.0, 0.0)
    net = _line([e1, e2], 40.0)
    urgent = _state("a", e1, departure=2, energy=60.0)  # laxity 0.125
    relaxed = _state("b", e2, departure=10, energy=10.0)  # laxity 9.69
    out = llf_pilots([urgent, relaxed], net)
    assert out["a"] == pytest.approx(32.0)
    assert out["b"] == pytest.approx(8.0, abs=1e-6)


def test_edf_and_llf_disagree_when_deadline_and_slack_split():
    e1, e2 = continuous_evse("E1", 32.0, 0.0), continuous_evse("E2", 32.0, 0.0)
    net = _line([e1, e2], 32.0)
    early_but_easy = _state("a", e1, departure=4, energy=6.0)
    late_but_starved = _state("b", e2, departure=5, energy=100.0)
    edf = edf_pilots([early_but_easy, late_but_starved], net)
    assert edf["a"] == pytest.approx(6.0)
    assert edf["b"] == pytest.approx(26.0, abs=1e-6)
    llf = llf_pilots([early_but_easy, late_but_starved], net)
    assert llf["b"] == pytest.approx(32.0)
    assert llf["a"] == pytest.approx(0.0, abs=1e-6)


def test_rr_continuous_splits_evenly():
    e1, e2 = continuous_evse("E1", 32.0, 0.0), continuous_evse("E2", 32.0, 0.0)
    net = _line([e1, e2], 32.0)
    out = rr_pilots([_state("a", e1), _state("b", e2)], net)
    assert out["a"] == pytest.approx(16.0)
    assert out["b"] == pytest.approx(16.0)


def test_rr_quantized_walks_the_pilot_list():
    e1, e2 = clippercreek("C1", 30.0), clippercreek("C2", 30.0)
    net = _line([e1, e2], 31.0)
    out = rr_pilots([_state("a", e1), _state("b", e2)], net, quantized=True)
    assert out == {"a": 16.0, "b": 8.0}


def test_quantized_minimum_rate_regime():
    evses = [aerovironment(f"E{i}", 0.0) for i in range(5)]
    net = _line(evses, 20.0)
    states = [_state(f"s{i}", evses[i], departure=10, energy=50.0) for i in range(5)]
    out = llf_pilots(states, net, quantized=True)
    assert set(out.values()) <= {0.0, 6.0}
    assert sum(1 for r in out.values() if r == 6.0) == 3  # 18 A fits, 24 A does not


def test_quantized_cap_rounds_need_up_to_an_allowed_pilot():
    evse = clippercreek("C1", 30.0)
    net = _line([evse], 80.0)
    out = llf_pilots([_state("a", evse, energy=10.0)], net, quantized=True)
    assert out["a"] == 16.0  # smallest allowed pilot covering the 10 A need


def test_continuous_cap_stops_at_need():
    evse = continuous_evse("E1", 32.0, 0.0)
    net = _line([evse], 80.0)
    out = llf_pilots([_state("a", evse, energy=10.0)], net)
    assert out["a"] == pytest.approx(10.0)


def test_uncontrolled_ignores_the_network():
    evses = [aerovironment(f"E{i}", 0.0) for i in range(3)]
    states = [_state(f"s{i}", evses[i]) for i in range(3)]
    out = uncontrolled_pilots(states)
    assert out == {"s0": 32.0, "s1": 32.0, "s2": 32.0}


def test_baseline_scheduler_adapter():
    e1 = continuous_evse("E1", 32.0, 0.0)
    net = _line([e1], 40.0)
    with pytest.raises(ValueError):
        BaselineScheduler("fifo", net)
    sched = BaselineScheduler("llf", net)
    assert sched.pilots({}, 0, True) == {}
    state = _state("a", e1, energy=20.0)
    assert sched.pilots({"a": state}, 0, True)["a"] == pytest.approx(20.0)
    wild = BaselineScheduler("uncontrolled", net)
    assert wild.pilots({"a": state}, 0, True)["a"] == 32.0


def test_baselines_are_deterministic():
    evses = [aerovironment(f"E{i}", 0.0) for i in range(4)]
    net = _line(evses, 50.0)
    states = [_state(f"s{i}", evses[i], departure=3 + i, energy=30.0 + i) for i in range(4)]
    assert llf_pilots(states, net) == llf_pilots(states, net)
    assert rr_pilots(states, net) == rr_pilots(states, net)


@pytest.mark.parametrize("name, pilots", [("llf", llf_pilots), ("edf", edf_pilots), ("rr", rr_pilots)])
def test_baselines_match_feasibility_probing(name, pilots):
    """Rate windows grant what probing is_feasible one trial at a time granted."""
    rng = np.random.default_rng(61)
    paths = {"greedy": 0, "fallback": 0}  # quantized: do the pinned minimums fit?
    for _ in range(40):
        network, active = random_site(rng)
        if not active:
            continue
        t = int(rng.integers(0, 6))
        for mode in ("affine", "soc"):
            for quantized in (False, True):  # scenarios II and III
                got = pilots(active, network, quantized, t, mode)
                want = probe_greedy_pilots(name, active, network, quantized, t, mode)
                assert got.keys() == want.keys()
                if quantized:
                    assert got == want
                    mins = {s.evse.id: min(s.evse.min_rate, s.pilot_upper_bound, s.evse.max_pilot) for s in active}
                    paths["greedy" if network.is_feasible(mins, t, mode) else "fallback"] += 1
                else:
                    assert max(abs(got[k] - want[k]) for k in want) <= 1e-6
    assert paths["greedy"] > 4 * paths["fallback"] > 0


def test_rr_sweeps_match_turn_by_turn():
    """Sweeps committed whole from one affine check give the turn-by-turn dicts bit for bit."""
    rng = np.random.default_rng(62)
    cases = 0
    for draw in range(400):
        network, active = random_site(rng, varying_backgrounds=draw % 2 == 1)
        if not active:
            continue
        t = int(rng.integers(0, 6))
        for mode in ("affine", "soc"):
            for quantized in (False, True):  # scenarios II and III
                assert rr_pilots(active, network, quantized, t, mode) == turn_by_turn_rr(active, network, quantized, t, mode)
                cases += 1
    assert cases >= 1500


def test_rr_asks_fewer_rate_windows_than_turn_by_turn(monkeypatch):
    calls = []
    window = ChargingNetwork.rate_window

    def counted(self, *args, **kwargs):
        calls.append(1)
        return window(self, *args, **kwargs)

    monkeypatch.setattr(ChargingNetwork, "rate_window", counted)
    evses = [continuous_evse(f"E{i}", 32.0, 0.0) for i in range(4)]
    roomy = _line(evses, 200.0)
    states = [_state(f"s{i}", evses[i]) for i in range(4)]
    assert rr_pilots(states, roomy) == {f"s{i}": 32.0 for i in range(4)}
    assert calls == []  # every sweep fits whole

    rng = np.random.default_rng(63)
    ours = reference = 0
    for _ in range(60):
        network, active = random_site(rng)
        for quantized in (False, True):
            calls.clear()
            rr_pilots(active, network, quantized, 0, "soc")
            ours += len(calls)
            calls.clear()
            turn_by_turn_rr(active, network, quantized, 0, "soc")
            reference += len(calls)
    assert 0 < ours < reference


def _on_menu(evse, rate: float) -> bool:
    if evse.continuous:
        return rate == 0.0 or evse.min_nonzero_rate <= rate <= evse.max_pilot
    return rate in evse.allowable_rates


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    varying=st.booleans(),
    t=st.integers(0, 6),
    mode=st.sampled_from(["affine", "soc"]),
    quantized=st.booleans(),
)
def test_baseline_pilots_are_feasible_capped_and_on_the_menu(seed, varying, t, mode, quantized):
    network, active = random_site(np.random.default_rng(seed), varying_backgrounds=varying)
    # A background over its limit leaves no feasible vector at all; then every pilot is 0.
    room = network.is_feasible(np.zeros(len(network)), t, mode)
    for pilots in (llf_pilots, edf_pilots, rr_pilots):
        out = pilots(active, network, quantized, t, mode)
        assert out.keys() == {s.session.id for s in active}
        rates = {s.evse.id: out[s.session.id] for s in active}
        assert network.is_feasible(rates, t, mode) if room else not any(rates.values())
        for s in active:
            rate, bound = out[s.session.id], min(s.evse.max_pilot, s.pilot_upper_bound)
            need = s.remaining_energy if not quantized else s.evse.ceil_rate(s.remaining_energy)
            assert 0.0 <= rate <= min(bound, need) + 1e-9
            assert not quantized or _on_menu(s.evse, rate), (s.evse, rate)


def test_quantized_bound_below_the_minimum_pilot_pins_zero():
    evse = clippercreek("C1", 30.0)  # menu 0, 8, 16, 24, 32
    other = clippercreek("C2", 30.0)
    state, free = _state("a", evse, departure=5, energy=50.0), _state("b", other, departure=6, energy=50.0)
    state.pilot_upper_bound = 7.0  # rampdown bound under the 8 A minimum
    for limit in (80.0, 7.0):  # the pinned minimums fit; they do not and the fallback runs
        net = _line([evse, other], limit)
        for pilots in (llf_pilots, edf_pilots, rr_pilots):
            out = pilots([state, free], net, quantized=True)
            assert out["a"] == 0.0
            assert out["b"] in ((8.0, 16.0, 24.0, 32.0) if limit == 80.0 else (0.0,))


def test_baselines_import_no_scipy():
    """The baselines and the simulator run without loading scipy, which only solves need."""
    code = """
import sys
import evsched.experiments, evsched.baselines
cfg = evsched.experiments.resolve_config({
    "seed": 3, "algorithm": "llf", "scenario": "III",
    "network": {"preset": "synthetic", "n_evse": 6, "transformer_kw": 15.0},
    "workload": {"generate": {"days": ["tue"], "stats": "caltech", "session_scale": 0.2}},
})
result = evsched.experiments.simulate_once(cfg)
assert result.pilots.any(), "no pilot was ever granted"
print("scipy" in sys.modules)
"""
    src = str(Path(evsched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"

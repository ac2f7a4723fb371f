import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evsched.network import (
    PHASE_AB,
    PHASE_BC,
    PHASE_CA,
    ChargingNetwork,
    Evse,
    NetworkConstraint,
    aerovironment,
    caltech_preset,
    clippercreek,
    continuous_evse,
    synthetic_preset,
)
from oracles import aggregate_phasor, background_at, limit_at, phasor_sum, random_site


def two_phase_network(limit=18.0):
    e1 = continuous_evse("a", 32.0, PHASE_AB)
    e2 = continuous_evse("b", 32.0, PHASE_CA)
    c = NetworkConstraint("line", {"a": 1.0, "b": -1.0}, limit)
    return ChargingNetwork([e1, e2], [c])


def test_aggregate_phasor_matches_manual_sum():
    net = two_phase_network()
    agg = aggregate_phasor(net, "line", {"a": 10.0, "b": 10.0})
    expected = phasor_sum([1.0, -1.0], [PHASE_AB, PHASE_CA], [10.0, 10.0])
    assert agg == pytest.approx(expected)
    assert abs(agg) == pytest.approx(10.0 * math.sqrt(3))


def test_affine_check_is_stricter_than_magnitude():
    net = two_phase_network(limit=18.0)
    rates = {"a": 10.0, "b": 10.0}
    # |1|*10 + |-1|*10 = 20 > 18 fails the affine form, magnitude 17.32 passes.
    assert not net.is_feasible(rates, mode="affine")
    assert net.is_feasible(rates)


def test_affine_feasible_implies_magnitude_feasible():
    rng = np.random.default_rng(7)
    net = caltech_preset()
    n = len(net)
    for _ in range(200):
        rates = rng.uniform(0, 32, n) * (rng.random(n) < 0.5)
        affine_ok = net.margins(rates, mode="affine") >= -1e-6
        soc_ok = net.margins(rates) >= -1e-6
        assert np.all(soc_ok | ~affine_ok)


def test_single_phase_group_affine_equals_magnitude():
    evses = [aerovironment(f"e{i}", PHASE_AB) for i in range(4)]
    c = NetworkConstraint("pod", {e.id: 1.0 for e in evses}, 80.0)
    net = ChargingNetwork(evses, [c])
    rng = np.random.default_rng(3)
    for _ in range(50):
        rates = rng.uniform(0, 32, 4)
        assert net.margins(rates)[0] == pytest.approx(net.margins(rates, mode="affine")[0])


def test_zero_rates_feasible_without_background():
    net = caltech_preset()
    assert net.is_feasible(np.zeros(len(net)))
    assert net.is_feasible(np.zeros(len(net)), mode="affine")


def test_time_varying_limit():
    e = continuous_evse("a", 32.0, 0.0)
    c = NetworkConstraint("line", {"a": 1.0}, np.array([10.0, 20.0]))
    net = ChargingNetwork([e], [c])
    assert not net.is_feasible({"a": 15.0}, t=0)
    assert net.is_feasible({"a": 15.0}, t=1)
    # periods past the end reuse the last value
    assert net.is_feasible({"a": 15.0}, t=5)


def test_period_tables_clamp_each_constraint_to_its_own_last_value():
    a, b = continuous_evse("a", 32.0, PHASE_AB), continuous_evse("b", 32.0, PHASE_BC)
    short = NetworkConstraint("short", {"a": 1.0}, np.array([10.0, 20.0]), background=np.array([1 + 1j, 2 - 1j, 3j]))
    long = NetworkConstraint("long", {"a": 0.5, "b": -1.0}, np.array([30.0, 31.0, 32.0, 33.0]), background=4 - 2j)
    net = ChargingNetwork([a, b], [short, long])
    rates = {"a": 7.0, "b": 5.0}
    for t in range(8):  # past the end of both arrays from t = 4 on
        for li, c in enumerate((short, long)):
            agg = phasor_sum([c.coefficients.get("a", 0.0), c.coefficients.get("b", 0.0)], [PHASE_AB, PHASE_BC],
                             [7.0, 5.0], background_at(c, t))
            assert aggregate_phasor(net, c.id, rates, t) == pytest.approx(agg, abs=1e-12)
            assert net.margins(rates, t)[li] == pytest.approx(limit_at(c, t) - abs(agg), abs=1e-12)
            affine = abs(c.coefficients.get("a", 0.0)) * 7.0 + abs(c.coefficients.get("b", 0.0)) * 5.0 + abs(background_at(c, t))
            assert net.margins(rates, t, "affine")[li] == pytest.approx(limit_at(c, t) - affine, abs=1e-12)
    assert [net.margins(rates, t)[0] + abs(aggregate_phasor(net, "short", rates, t)) for t in (0, 1, 2, 9)] == [10.0, 20.0, 20.0, 20.0]
    with pytest.raises(ValueError):
        ChargingNetwork([a], [NetworkConstraint("empty", {"a": 1.0}, np.array([]))])


def test_profiles_read_each_period_like_limit_at_and_background_at():
    a = continuous_evse("a", 32.0, PHASE_AB)
    short = NetworkConstraint("short", {"a": 1.0}, np.array([10.0, 20.0]), background=np.array([1 + 1j, 2 - 1j, 3j]))
    scalar = NetworkConstraint("scalar", {"a": -0.5}, 30.0, background=4 - 2j)
    varied = ChargingNetwork([a], [short, scalar])
    flat = ChargingNetwork([a], [scalar])  # one-column tables
    for net in (varied, flat):
        for start in (0, 1, 2, 3, 7):  # from 3 on, past the end of both arrays
            limits, backgrounds = net.limit_profile(4, start), net.background_profile(4, start)
            assert limits.shape == backgrounds.shape == (len(net.constraints), 4)
            for li, c in enumerate(net.constraints):
                assert limits[li].tolist() == [limit_at(c, start + t) for t in range(4)]
                assert backgrounds[li].tolist() == [background_at(c, start + t) for t in range(4)]
            for profile in (limits, backgrounds):
                with pytest.raises(ValueError):
                    profile[0, 0] = 0.0
    assert varied.limit_profile(2, 9).tolist() == [[20.0, 20.0], [30.0, 30.0]]
    assert varied.background_profile(2, 9).tolist() == [[3j, 3j], [4 - 2j, 4 - 2j]]
    assert varied.limit_profile(0, 5).shape == (2, 0)
    with pytest.raises(ValueError):
        varied.background_profile(2, -1)


def test_affine_checks_take_background_magnitudes_as_the_program_rows_do():
    """Affine margins and windows subtract np.hypot of each background, the affine rows' right-hand side."""
    rng = np.random.default_rng(17)
    varied = 0
    for _ in range(40):
        net, _ = random_site(rng, varying_backgrounds=True)
        limits, backgrounds = net.limit_profile(7), net.background_profile(7)
        room = limits - np.hypot(backgrounds.real, backgrounds.imag)  # the rows' rhs at zero rates
        varied += (backgrounds != backgrounds[:, :1]).any()
        zeros = np.zeros(len(net))
        for t in range(7):
            assert net.margins(zeros, t, "affine").tobytes() == room[:, t].tobytes()
            for i in range(len(net)):
                mag = np.abs(net.weights[:, i])
                on = mag > 0
                hi = (room[on, t] / mag[on]).min() if on.any() else math.inf
                if (room[~on, t] < 0).any():
                    hi = -math.inf
                assert net.rate_window(zeros, i, t, "affine", tol=0.0)[1] == hi
    assert varied > 10


def test_weights_are_read_only():
    net = two_phase_network()
    assert net.weights[0] == pytest.approx(np.exp(1j * np.radians([PHASE_AB, PHASE_CA])) * [1.0, -1.0])
    with pytest.raises(ValueError):
        net.weights[0, 0] = 0.0


@st.composite
def _window_cases(draw):
    """A random site, one stall, the other stalls' rates, a period and a mode."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    amps = st.floats(-40.0, 40.0, allow_nan=False)
    evses = [continuous_evse(f"e{k}", 64.0, draw(st.floats(-180.0, 180.0))) for k in range(n)]
    constraints = []
    for li in range(m):
        # 0 leaves the stall out of the row; signs and sizes vary otherwise.
        weight = st.sampled_from([0.0, 1.0, -1.0, 0.25, -0.5]) | st.floats(-2.0, -0.05) | st.floats(0.05, 2.0)
        coefs = {f"e{k}": c for k in range(n) if (c := draw(weight)) != 0.0}
        periods = draw(st.integers(1, 3))
        limit = np.array(draw(st.lists(st.floats(0.0, 120.0), min_size=periods, max_size=periods)))
        background = np.array([complex(draw(amps), draw(amps)) for _ in range(draw(st.integers(1, 3)))])
        constraints.append(NetworkConstraint(f"c{li}", coefs, limit, background))
    net = ChargingNetwork(evses, constraints)
    vec = np.array(draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n)))
    return net, vec, draw(st.integers(0, n - 1)), draw(st.integers(0, 4)), draw(st.sampled_from(["affine", "soc"]))


@settings(max_examples=400, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_window_cases(), st.lists(st.floats(-80.0, 80.0), min_size=8, max_size=8))
def test_rate_window_agrees_with_is_feasible(case, probes):
    net, vec, i, t, mode = case
    lo, hi = net.rate_window(vec, i, t, mode, 1e-6)
    assert not (math.isnan(lo) or math.isnan(hi))
    trials = list(probes)
    for end in (lo, hi):
        if math.isfinite(end):
            trials += [end - 1e-3, end - 1e-8, end, end + 1e-8, end + 1e-3]
    if math.isfinite(lo) and math.isfinite(hi):
        trials.append(0.5 * (lo + hi))
    for r in trials:
        trial = vec.copy()
        trial[i] = r
        inside = lo <= r <= hi
        near_end = min(abs(r - lo), abs(r - hi)) <= 1e-9
        if not near_end:
            assert net.is_feasible(trial, t, mode, 1e-6) == inside, (r, lo, hi)


def test_rate_window_of_one_line():
    net = two_phase_network(limit=18.0)
    # affine: |a| + 10 <= 18 + tol; soc: |a e^{j30} - 10 e^{j150}| <= 18 + tol
    lo, hi = net.rate_window(np.array([0.0, 10.0]), 0, mode="affine", tol=0.0)
    assert (lo, hi) == pytest.approx((-8.0, 8.0))
    lo, hi = net.rate_window(np.array([0.0, 10.0]), 0, mode="soc", tol=0.0)
    for r in (lo, hi):
        assert abs(aggregate_phasor(net, "line", [r, 10.0])) == pytest.approx(18.0)
    assert lo < 0 < hi
    # a row the stall is not in must hold already
    c = NetworkConstraint("b-only", {"b": 1.0}, 5.0)
    net = ChargingNetwork(net.evses, [*net.constraints, c])
    for mode in ("affine", "soc"):
        lo, hi = net.rate_window(np.array([0.0, 10.0]), 0, mode=mode)
        assert lo > hi
    with pytest.raises(ValueError):
        net.rate_window(np.zeros(2), 0, mode="euclid")


def test_background_load_consumes_headroom():
    e = continuous_evse("a", 32.0, 0.0)
    c = NetworkConstraint("line", {"a": 1.0}, 20.0, background=12 + 0j)
    net = ChargingNetwork([e], [c])
    assert net.is_feasible({"a": 8.0})
    assert not net.is_feasible({"a": 9.0})


class TestCaltechPreset:
    def test_counts_and_limits(self):
        net = caltech_preset(150.0)
        assert len(net.evses) == 54
        by_phase = {}
        for e in net.evses:
            by_phase.setdefault(e.phase_angle, []).append(e)
        assert len(by_phase[PHASE_AB]) == 26
        assert len(by_phase[PHASE_BC]) == 14
        assert len(by_phase[PHASE_CA]) == 14

        cons = {c.id: c for c in net.constraints}
        assert set(cons) == {
            "cc-pod", "av-pod",
            "secondary-a", "secondary-b", "secondary-c",
            "primary-a", "primary-b", "primary-c",
        }
        assert cons["cc-pod"].limit == 80.0
        assert cons["av-pod"].limit == 80.0
        assert cons["secondary-a"].limit == pytest.approx(150e3 / 3 / 120)
        assert cons["primary-a"].limit == pytest.approx(150e3 / 3 / 277)

    def test_oversubscription_ratio(self):
        net = caltech_preset(150.0)
        connected_kw = sum(e.max_pilot for e in net.evses) * net.nominal_voltage / 1000.0
        assert 2.3 <= connected_kw / 150.0 <= 2.5

    def test_balanced_full_load_infeasible(self):
        net = caltech_preset(150.0)
        rates = np.full(len(net), 32.0)
        assert not net.is_feasible(rates)

    def test_coarse_pod_accepts_only_its_steps(self):
        net = caltech_preset()
        cc = [e for e in net.evses if not e.continuous and len(e.allowable_rates) == 5]
        assert len(cc) == 8
        assert cc[0].allowable_rates == (0.0, 8.0, 16.0, 24.0, 32.0)
        av = [e for e in net.evses if len(e.allowable_rates) == 28]
        assert len(av) == 46
        assert av[0].min_rate == 6.0

    def test_primary_rows_differ_from_secondary_under_unbalance(self):
        # all load on one phase pair: the winding construction must not make
        # primary rows a scalar multiple of secondary ones
        net = caltech_preset()
        rates = {e.id: 20.0 for e in net.evses if e.phase_angle == PHASE_AB}
        sec = abs(aggregate_phasor(net, "secondary-a", rates))
        pri = abs(aggregate_phasor(net, "primary-a", rates))
        ratio_a = pri / sec
        rates_bal = {e.id: 20.0 for e in net.evses}
        sec_b = abs(aggregate_phasor(net, "secondary-a", rates_bal))
        pri_b = abs(aggregate_phasor(net, "primary-a", rates_bal))
        assert pri_b / sec_b != pytest.approx(ratio_a, rel=1e-3)


def test_synthetic_preset_shape():
    net = synthetic_preset(10, 50.0)
    assert len(net.evses) == 10
    assert len(net.constraints) == 6
    phases = {e.phase_angle for e in net.evses}
    assert phases == {PHASE_AB, PHASE_BC, PHASE_CA}


def test_round_trip_serialization(tmp_path):
    net = caltech_preset(100.0)
    path = tmp_path / "net.json"
    net.save(path)
    loaded = ChargingNetwork.load(path)
    assert [e.id for e in loaded.evses] == [e.id for e in net.evses]
    rng = np.random.default_rng(11)
    rates = rng.uniform(0, 32, len(net))
    for c in net.constraints:
        assert aggregate_phasor(loaded, c.id, rates) == pytest.approx(aggregate_phasor(net, c.id, rates))
    assert loaded.to_dict() == net.to_dict()


def test_errors():
    e = continuous_evse("a", 32.0, 0.0)
    net = ChargingNetwork([e], [NetworkConstraint("c", {"a": 1.0}, 10.0)])
    with pytest.raises(KeyError):
        aggregate_phasor(net, "nope", {"a": 1.0})
    with pytest.raises(ValueError):
        net.margins([1.0, 2.0])
    with pytest.raises(ValueError):
        ChargingNetwork([e, e], [])
    with pytest.raises(KeyError):
        ChargingNetwork([e], [NetworkConstraint("c", {"ghost": 1.0}, 10.0)])
    with pytest.raises(ValueError):
        Evse("bad", -3.0)
    with pytest.raises(ValueError):
        Evse("bad", 32.0, allowable_rates=(8.0, 16.0))  # missing zero
    with pytest.raises(ValueError):
        ChargingNetwork.from_dict({"evses": [], "constraints": [{"id": "x"}]})


def test_evse_rate_helpers():
    cc = clippercreek("cc", PHASE_AB)
    assert cc.min_rate == 8.0
    assert cc.floor_rate(15.5) == 8.0
    assert cc.floor_rate(16.0) == 16.0
    assert cc.next_rate(16.0) == 24.0
    assert cc.next_rate(32.0) is None
    assert cc.ceil_rate(9.0) == 16.0

    av = aerovironment("av", PHASE_AB)
    assert av.min_rate == 6.0
    assert av.floor_rate(5.9) == 0.0
    assert av.floor_rate(6.01) == 6.0
    assert av.next_rate(0.0) == 6.0
    assert av.next_rate(31.0) == 32.0

    cont = continuous_evse("c", 32.0, 0.0)
    assert cont.floor_rate(3.0) == 0.0
    assert cont.floor_rate(7.3) == 7.3
    assert cont.ceil_rate(3.0) == 6.0

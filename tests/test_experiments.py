import json
from pathlib import Path

import numpy as np
import pytest

from evsched.billing import sce_ev_tou4
from evsched.experiments import (
    build_network,
    build_tariff,
    build_workload,
    capacity_sweep,
    profit_experiment,
    profit_utility,
    quick_charge_utility,
    resolve_config,
    simulate_once,
    tariff_price_fn,
    write_outputs,
    write_rows_csv,
)
from evsched.scheduler import DemandCharge, EnergyCost
from evsched.simulator import Meter
from evsched.workload import Session, save_dataset


def _tiny_cfg(tmp_path, **over):
    sessions = [
        Session("w0", "S-AB-01", 2, 40, 250.0),
        Session("w1", "S-BC-01", 4, 44, 300.0),
        Session("w2", "S-CA-01", 6, 48, 280.0),
        Session("w3", "S-AB-02", 10, 50, 200.0),
    ]
    wl = tmp_path / "wl.json"
    save_dataset(sessions, wl)
    cfg = {
        "network": {"preset": "synthetic", "n_evse": 6, "transformer_kw": 15.0},
        "workload": {"file": str(wl)},
        "scenario": "II",
        "horizon": 48,
        "billing_days": 1.0,
    }
    cfg.update(over)
    return resolve_config(cfg, tmp_path)


def test_resolve_config_fills_defaults_and_checks_scenario(tmp_path):
    cfg = resolve_config({}, tmp_path)
    assert cfg["algorithm"] == "asa" and cfg["scenario"] == "II"
    assert cfg["network"]["preset"] == "caltech"
    with pytest.raises(ValueError):
        resolve_config({"scenario": "VI"}, tmp_path)


def test_resolve_config_resolves_relative_files(tmp_path):
    net_path = tmp_path / "net.json"
    build_network(resolve_config({}, tmp_path)).save(net_path)
    cfg = resolve_config({"network": {"file": "net.json"}}, tmp_path)
    assert cfg["network"]["file"] == str(net_path.resolve())
    with pytest.raises(FileNotFoundError):
        resolve_config({"network": {"file": "missing.json"}}, tmp_path)


def test_build_network_presets(tmp_path):
    cal = build_network({"network": {"preset": "caltech", "transformer_kw": 150.0}})
    assert len(cal) == 54
    syn = build_network({"network": {"preset": "synthetic", "n_evse": 7, "transformer_kw": 30.0}})
    assert len(syn) == 7
    path = tmp_path / "n.json"
    syn.save(path)
    loaded = build_network({"network": {"file": str(path)}})
    assert [e.id for e in loaded.evses] == [e.id for e in syn.evses]
    with pytest.raises(ValueError):
        build_network({"network": {"preset": "mesh"}})


def test_build_workload_generator_and_file(tmp_path):
    cfg = resolve_config(
        {
            "network": {"preset": "synthetic", "n_evse": 6, "transformer_kw": 20.0},
            "workload": {"generate": {"days": ["mon"], "stats": "caltech", "session_scale": 0.1}},
            "seed": 7,
        },
        tmp_path,
    )
    net = build_network(cfg)
    gen = build_workload(cfg, net)
    assert gen == build_workload(cfg, net)
    cfg2 = _tiny_cfg(tmp_path)
    loaded = build_workload(cfg2, build_network(cfg2))
    assert [s.id for s in loaded] == ["w0", "w1", "w2", "w3"]


def test_build_tariff_variants():
    assert build_tariff({"tariff": "sce-ev-tou4"}).demand_charge_rate == pytest.approx(15.51)
    assert build_tariff({"tariff": None}) is None
    custom = build_tariff(
        {
            "tariff": {
                "weekday": [[0, 1440, 0.1]],
                "weekend": [[0, 1440, 0.05]],
                "demand_charge_rate": 2.0,
            }
        }
    )
    assert custom.weekday[0].rate == 0.1
    with pytest.raises(ValueError):
        build_tariff({"tariff": "flat-mystery"})


def test_tariff_price_fn_maps_periods_to_bands():
    price = tariff_price_fn(sce_ev_tou4(), "mon", 5.0)
    assert price(13 * 12) == pytest.approx(0.267)  # monday 13:00
    assert price(2 * 12) == pytest.approx(0.056)
    saturday = 5 * 288 + 13 * 12
    assert price(saturday) == pytest.approx(0.056)


def test_profit_utility_prices_todays_peak():
    meter = Meter(peak_kw=40.0)
    at = profit_utility(sce_ev_tou4(), 0.30, 7.0, "mon", 5.0, meter, hint_peak_kw=100.0)
    util = at(0)
    comps = {type(c): (c, w) for c, w in util.terms}
    dc, _ = comps[DemandCharge]
    window_rate = 15.51 * 7.0 / 30.0
    assert dc.price_per_kw == pytest.approx(window_rate / 7.0)  # day 0 of 7
    assert dc.threshold_kw == pytest.approx(75.0)  # hint dominates the meter
    ec, _ = comps[EnergyCost]
    assert ec.revenue_per_kwh == 0.30

    meter.peak_kw = 90.0
    late = at(6 * 288)  # final day: full remaining rate, meter now dominates
    dc_late = {type(c): c for c, _ in late.terms}[DemandCharge]
    assert dc_late.price_per_kw == pytest.approx(window_rate)
    assert dc_late.threshold_kw == pytest.approx(90.0)


def test_simulate_once_asa_and_offline(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    res = simulate_once(cfg)
    assert res.algorithm == "asa" and res.scenario == "II"
    assert 0.0 < res.demand_met <= 1.0
    assert res.audit_violations() == 0

    off = simulate_once({**cfg, "algorithm": "offline"})
    assert off.algorithm == "offline"
    assert off.demand_met + 1e-6 >= res.demand_met


def test_simulate_once_baseline_quantized(tmp_path):
    cfg = _tiny_cfg(tmp_path, algorithm="llf", scenario="III")
    res = simulate_once(cfg)
    assert res.audit_violations() == 0
    allowed = {0.0} | {float(r) for r in range(6, 33)}
    assert set(np.unique(res.pilots)) <= allowed


def test_capacity_sweep_rows_are_sorted_and_deterministic(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    cfg["sweep"] = {"transformer_kw": [10, 25], "algorithms": ["asa", "llf"]}
    rows = capacity_sweep(cfg)
    assert [(r["transformer_kw"], r["algorithm"]) for r in rows] == [
        (10.0, "asa"), (10.0, "llf"), (25.0, "asa"), (25.0, "llf"),
    ]
    assert rows == capacity_sweep(cfg)
    assert rows == capacity_sweep(cfg, jobs=2)
    for r in rows:
        assert 0.0 <= r["demand_met"] <= 1.0
        assert r["audit_violations"] == 0
    by_alg = {a: [r["demand_met"] for r in rows if r["algorithm"] == a] for a in ("asa", "llf")}
    for vals in by_alg.values():
        assert vals[0] <= vals[1] + 1e-9  # more transformer never hurts


def test_profit_experiment_rows(tmp_path):
    cfg = _tiny_cfg(tmp_path, utility="profit")
    cfg["profit_runs"] = [{"label": "asa-ii", "utility": "profit", "scenario": "II"}]
    rows = profit_experiment(cfg)
    assert [r["run"] for r in rows] == ["offline", "asa-ii"]
    assert rows[0]["profit_vs_offline"] == pytest.approx(1.0)
    assert rows[1]["profit_vs_offline"] <= 1.0 + 1e-6
    for r in rows:
        assert r["profit"] == pytest.approx(r["revenue"] - r["energy_cost"] - r["demand_charge"])


def test_write_outputs_and_rows_are_reproducible(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    res = simulate_once(cfg)
    a, b = tmp_path / "a", tmp_path / "b"
    paths_a = write_outputs(res, a, cfg)
    write_outputs(simulate_once(cfg), b, cfg)
    for name in ("traces.csv", "constraints.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    summary = json.loads(paths_a["summary"].read_text())
    assert summary["audit"] == {"network": 0, "pilot_not_allowed": 0, "overdraw": 0, "post_departure": 0}

    rows = [{"x": 1.0 / 3.0, "name": "r"}]
    write_rows_csv(rows, tmp_path / "rows.csv")
    text = (tmp_path / "rows.csv").read_text()
    assert text.splitlines()[0] == "x,name"
    write_rows_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == ""

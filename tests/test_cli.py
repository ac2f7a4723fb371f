import json

import pytest

from evsched.cli import main
from evsched.experiments import build_workload, resolve_config
from evsched.network import ChargingNetwork, synthetic_preset
from evsched.workload import Session, load_dataset, save_dataset


@pytest.fixture
def tiny_config(tmp_path):
    sessions = [
        Session("w0", "S-AB-01", 2, 30, 200.0),
        Session("w1", "S-BC-01", 4, 34, 250.0),
        Session("w2", "S-CA-01", 6, 36, 220.0),
    ]
    save_dataset(sessions, tmp_path / "wl.json")
    cfg = {
        "network": {"preset": "synthetic", "n_evse": 6, "transformer_kw": 15.0},
        "workload": {"file": "wl.json"},
        "scenario": "II",
        "horizon": 36,
        "billing_days": 1.0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_dry_run_prints_resolved_config(tiny_config, capsys):
    assert main(["simulate", "--config", str(tiny_config), "--dry-run"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["algorithm"] == "asa"
    assert cfg["workload"]["file"].endswith("wl.json")


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_config_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def _site_240v(tmp_path):
    """A saved six-stall synthetic network whose nominal voltage is 240 V."""
    net = synthetic_preset(6, 20.0)
    path = tmp_path / "net240.json"
    ChargingNetwork(net.evses, net.constraints, nominal_voltage=240.0).save(path)
    return path


def test_unknown_config_keys_are_a_clean_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    net_file = str(_site_240v(tmp_path))
    for raw, offenders in [
        ({"horizn": 36, "solver_tol": 1e-4, "scenario": "II"}, ["'horizn'", "'solver_tol'"]),
        ({"voltage": 240}, ["'voltage'"]),
        ({"network": {"preset": "caltech", "n_evse": 5}}, ["'n_evse'", "caltech"]),
        ({"network": {"file": net_file, "transformer_kw": 1}}, ["'transformer_kw'", "file"]),
        ({"network": {"file": net_file, "preset": "synthetic", "n_evse": 6}}, ["'n_evse'", "'preset'"]),
        ({"network": {"preset": "synthetic", "transformer_KW": 12}}, ["'transformer_KW'"]),
        ({"workload": {"fil": "wl.json"}}, ["'fil'"]),
        ({"workload": {"generate": {"days": ["tue"], "session_scal": 0.33}}}, ["'session_scal'"]),
        ({"workload": {"generate": {"days": ["tue"], "stats": "nonsense"}}}, ["'nonsense'"]),
        ({"network": "caltech"}, ["network", "'caltech'"]),
    ]:
        path.write_text(json.dumps(raw))
        assert main(["simulate", "--config", str(path), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and all(o in err for o in offenders)


def test_sweep_over_a_network_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"network": {"file": str(_site_240v(tmp_path))}}))
    assert main(["sweep-capacity", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'transformer_kw'" in err


def test_offline_refuses_the_utilities_asa_refuses(tiny_config, tmp_path, capsys):
    cfg = json.loads(tiny_config.read_text())
    path = tmp_path / "offline.json"
    for over, message in [
        ({"utility": "profit", "tariff": None}, "needs a tariff"),
        ({"utility": "quick-chrage"}, "'quick-chrage'"),
    ]:
        for algorithm in ("asa", "offline"):
            path.write_text(json.dumps({**cfg, **over, "algorithm": algorithm}))
            assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and message in err


def test_session_energy_converts_at_the_network_voltage(tmp_path, capsys):
    net_path = _site_240v(tmp_path)
    stall = ChargingNetwork.load(net_path).evses[0].id
    record = {"id": "a", "evse_id": stall, "connect_minute": 0, "disconnect_minute": 600, "kwh": 10.0}
    (tmp_path / "wl.json").write_text(json.dumps([record]))
    cfg = {"network": {"file": "net240.json"}, "workload": {"file": "wl.json"}, "horizon": 36, "billing_days": 1.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["demand_met"] == pytest.approx(1.0)
    assert summary["delivered_kwh"] == pytest.approx(10.0)

    # a generated workload saved and read back keeps its energies
    gen = {"network": {"file": "net240.json"}, "seed": 3,
           "workload": {"generate": {"days": ["mon"], "stats": "caltech", "session_scale": 0.2}}}
    cfg_path.write_text(json.dumps(gen))
    sessions_path = tmp_path / "sessions.json"
    assert main(["generate-workload", "--config", str(cfg_path), "--out", str(sessions_path)]) == 0
    resolved = resolve_config(gen, tmp_path)
    net = ChargingNetwork.load(net_path)
    drawn = build_workload(resolved, net)
    assert drawn
    read_back = load_dataset(sessions_path, net, net.nominal_voltage)
    assert [s.requested_energy for s in read_back] == pytest.approx([s.requested_energy for s in drawn], rel=1e-12)


def test_simulate_writes_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "demand_met=" in stdout
    for name in ("traces.csv", "constraints.csv", "summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "asa"
    assert sum(summary["audit"].values()) == 0


def test_simulate_is_byte_deterministic(tiny_config, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(tiny_config), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(tiny_config), "--out", str(b)]) == 0
    capsys.readouterr()
    for name in ("traces.csv", "constraints.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_validate_round_trip(tmp_path, capsys):
    cfg = {
        "network": {"preset": "synthetic", "n_evse": 6, "transformer_kw": 20.0},
        "workload": {"generate": {"days": ["mon"], "stats": "caltech", "session_scale": 0.1}},
        "seed": 3,
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "sessions.json"
    assert main(["generate-workload", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "sessions" in capsys.readouterr().out

    net_path = tmp_path / "net.json"
    synthetic_preset(6, 20.0).save(net_path)
    assert main(["validate-dataset", "--file", str(out), "--network", str(net_path)]) == 0
    assert "sessions ok" in capsys.readouterr().out

    # a network with different stall ids rejects the dataset
    other = tmp_path / "other.json"
    synthetic_preset(3, 20.0).save(other)
    if json.loads(out.read_text()):
        assert main(["validate-dataset", "--file", str(out), "--network", str(other)]) == 2
        assert "error:" in capsys.readouterr().err


def test_seed_override_changes_the_draw(tmp_path):
    cfg = {
        "network": {"preset": "synthetic", "n_evse": 6, "transformer_kw": 20.0},
        "workload": {"generate": {"days": ["mon"], "stats": "caltech", "session_scale": 0.2}},
    }
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(cfg))
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(["generate-workload", "--config", str(cfg_path), "--seed", "1", "--out", str(one)]) == 0
    assert main(["generate-workload", "--config", str(cfg_path), "--seed", "2", "--out", str(two)]) == 0
    assert one.read_text() != two.read_text()

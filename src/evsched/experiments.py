"""Experiment assembly: configs to networks, workloads, algorithms, and runs.

This is the layer the command line drives. A JSON config picks a network
preset or file, a workload file or generator spec, an algorithm, a utility
preset, a scenario, and tariff settings; the functions here materialize those
pieces, run the simulation(s), and write deterministic CSV/JSON outputs.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from evsched.baselines import BaselineScheduler
from evsched.billing import (
    DAYS_PER_MONTH,
    Tariff,
    day_is_weekend,
    demand_charge_proxy,
    peak_hint,
    sce_ev_tou4,
    tou_rate,
)
from evsched.network import ChargingNetwork, caltech_preset, synthetic_preset
from evsched.scheduler import (
    AdaptiveScheduler,
    DemandCharge,
    EnergyCost,
    EqualShare,
    QuickCharge,
    UtilityConfig,
)
from evsched.simulator import (
    SCENARIOS,
    Meter,
    SimConfig,
    SimResult,
    offline_optimal,
    realized_utility,
    run,
)
from evsched.workload import (
    DAY_NAMES,
    Session,
    caltech_stats,
    generate_workload,
    load_dataset,
    scaled_stats,
)

__all__ = [
    "resolve_config",
    "build_network",
    "build_workload",
    "build_tariff",
    "tariff_price_fn",
    "quick_charge_utility",
    "profit_utility",
    "make_algorithm",
    "simulate_once",
    "capacity_sweep",
    "profit_experiment",
    "write_outputs",
    "write_rows_csv",
]

_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "period_minutes": 5.0,
    "scenario": "II",
    "algorithm": "asa",
    "utility": "quick-charge",
    "constraint_mode": "affine",
    "horizon": 144,
    "recompute_period": 1,
    "tariff": "sce-ev-tou4",
    "revenue_per_kwh": 0.30,
    "start_day": "mon",
    "billing_days": None,
    "rampdown": None,
    "network": {"preset": "caltech", "transformer_kw": 150.0},
    "workload": {"generate": {"days": list(DAY_NAMES[:5]), "stats": "caltech", "session_scale": 1.0}},
}


# The keys each kind of network reads: a network file, or a preset.
_NETWORK_KEYS = {"file": {"file"}, "caltech": {"preset", "transformer_kw"}, "synthetic": {"preset", "n_evse", "transformer_kw"}}

# The keys a config may hold at its top level and in each nested section.
# ``sweep`` and ``profit_runs`` have no default: only ``capacity_sweep`` and
# ``profit_experiment`` read them.
_KNOWN_KEYS = {
    "config": {*_DEFAULTS, "sweep", "profit_runs"},
    "network": set().union(*_NETWORK_KEYS.values()),
    "workload": {"file", "generate"},
    "workload.generate": {"days", "stats", "session_scale"},
}


def _check_keys(section: Any, where: str) -> dict[str, Any]:
    """The section itself, once it is a JSON object holding only keys the program knows."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, not {section!r}")
    unknown = sorted(set(section) - _KNOWN_KEYS[where])
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}")
    return section


def _network_kind(spec: dict[str, Any]) -> str:
    """Which network a ``network`` section builds, once it holds no key that network ignores."""
    kind = "file" if "file" in spec else spec.get("preset", "caltech")
    if kind not in _NETWORK_KEYS:
        raise ValueError(f"unknown network preset {kind!r}")
    ignored = sorted(set(spec) - _NETWORK_KEYS[kind])
    if ignored:
        raise ValueError(f"network keys {ignored} do not apply to a {kind} network")
    return kind


def resolve_config(raw: dict[str, Any], base_dir: str | Path | None = None) -> dict[str, Any]:
    """Fill defaults and resolve file paths relative to the config's home.

    An unknown key is an error, at the top level and inside ``network``,
    ``workload`` and ``workload.generate``; so is a network key the chosen
    network ignores, and any ``stats`` but ``caltech``.
    """
    _check_keys(raw, "config")
    cfg = {**_DEFAULTS, **raw}
    _network_kind(_check_keys(cfg["network"], "network"))
    gen = _check_keys(cfg["workload"], "workload").get("generate", {})
    _check_keys(gen, "workload.generate")
    if gen.get("stats", "caltech") != "caltech":
        raise ValueError(f"unknown workload.generate stats {gen['stats']!r}; only 'caltech' is built in")
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    for section in ("network", "workload"):
        spec = cfg[section]
        if "file" in spec:
            if not Path(spec["file"]).is_absolute():
                cfg[section] = spec = {**spec, "file": str((base / spec["file"]).resolve())}
            if not Path(spec["file"]).exists():
                raise FileNotFoundError(f"{section} file not found: {spec['file']}")
    if cfg["scenario"] not in SCENARIOS:
        raise ValueError(f"unknown scenario {cfg['scenario']!r}; pick one of {sorted(SCENARIOS)}")
    return cfg


def build_network(cfg: dict[str, Any]) -> ChargingNetwork:
    spec = cfg["network"]
    kind = _network_kind(spec)
    if kind == "file":
        return ChargingNetwork.load(spec["file"])
    if kind == "caltech":
        return caltech_preset(float(spec.get("transformer_kw", 150.0)))
    return synthetic_preset(int(spec.get("n_evse", 10)), float(spec.get("transformer_kw", 50.0)))


def build_workload(cfg: dict[str, Any], network: ChargingNetwork) -> list[Session]:
    """The configured sessions, their energy in amp-periods at the network's nominal voltage."""
    spec = cfg["workload"]
    if "file" in spec:
        return load_dataset(spec["file"], network, network.nominal_voltage, cfg["period_minutes"])
    gen = spec["generate"]
    stats = caltech_stats()
    if gen.get("session_scale", 1.0) != 1.0:
        stats = scaled_stats(stats, float(gen["session_scale"]))
    return generate_workload(stats, gen["days"], network, int(cfg["seed"]), cfg["period_minutes"])


def build_tariff(cfg: dict[str, Any]) -> Tariff | None:
    name = cfg.get("tariff")
    if name is None:
        return None
    if name == "sce-ev-tou4":
        return sce_ev_tou4()
    if isinstance(name, dict):
        from evsched.billing import TouWindow

        return Tariff(
            tuple(TouWindow(*w) for w in name["weekday"]),
            tuple(TouWindow(*w) for w in name["weekend"]),
            float(name["demand_charge_rate"]),
        )
    raise ValueError(f"unknown tariff {name!r}")


def tariff_price_fn(tariff: Tariff, start_day: str, period_minutes: float) -> Callable[[int], float]:
    def price(t: int) -> float:
        minute = t * period_minutes
        return tou_rate(tariff, minute, day_is_weekend(int(minute // 1440), start_day))

    return price


def quick_charge_utility() -> UtilityConfig:
    return UtilityConfig(((QuickCharge(), 1.0), (EqualShare(), 1e-12)))


def profit_utility(
    tariff: Tariff,
    revenue_per_kwh: float,
    billing_days: float,
    start_day: str,
    period_minutes: float,
    meter: Meter | None = None,
    hint_peak_kw: float | None = None,
) -> Callable[[int], UtilityConfig]:
    """Time-varying profit objective for the receding-horizon scheduler.

    The demand charge is priced at the window's prorated rate spread over the
    billing days that remain, and only peak above the already-paid-for level
    (running peak so far, or an externally supplied peak target) costs
    anything.
    """
    window_rate = tariff.demand_charge_rate * billing_days / DAYS_PER_MONTH
    price = tariff_price_fn(tariff, start_day, period_minutes)
    target = peak_hint(hint_peak_kw)

    def at(k: int) -> UtilityConfig:
        day = min(int(k * period_minutes // 1440), int(billing_days) - 1)
        proxy = demand_charge_proxy(window_rate, billing_days, day)
        threshold = max(target, meter.peak_kw if meter is not None else 0.0)
        return UtilityConfig(
            (
                (EnergyCost(revenue_per_kwh, price), 1.0),
                (DemandCharge(proxy, threshold), 1.0),
                (QuickCharge(), 1e-4),
                (EqualShare(), 1e-12),
            )
        )

    return at


def _billing_days(cfg: dict[str, Any], sessions: Sequence[Session]) -> float:
    if cfg.get("billing_days"):
        return float(cfg["billing_days"])
    if not sessions:
        return 1.0
    periods_per_day = 1440.0 / cfg["period_minutes"]
    return max(1.0, math.ceil(max(s.departure for s in sessions) / periods_per_day))


def _utility_tariff(cfg: dict[str, Any], preset: str) -> Tariff | None:
    """The tariff a utility preset prices by: None for quick-charge; a profit preset needs one."""
    if preset == "quick-charge":
        return None
    if preset not in ("profit", "profit-hint"):
        raise ValueError(f"unknown utility preset {preset!r}")
    tariff = build_tariff(cfg)
    if tariff is None:
        raise ValueError("profit utility needs a tariff")
    return tariff


def _hindsight_utility(cfg: dict[str, Any], sessions: Sequence[Session], preset: str) -> UtilityConfig:
    """The offline benchmark's objective for a utility preset, picked by ``make_algorithm``'s rule.

    Hindsight profit puts the full window demand rate on the peak.
    """
    tariff = _utility_tariff(cfg, preset)
    if tariff is None:
        return quick_charge_utility()
    window_rate = tariff.demand_charge_rate * _billing_days(cfg, sessions) / DAYS_PER_MONTH
    price = tariff_price_fn(tariff, cfg["start_day"], cfg["period_minutes"])
    return UtilityConfig(
        (
            (EnergyCost(cfg["revenue_per_kwh"], price), 1.0),
            (DemandCharge(window_rate, 0.0), 1.0),
            (EqualShare(), 1e-12),
        )
    )


def make_algorithm(
    cfg: dict[str, Any],
    network: ChargingNetwork,
    sessions: Sequence[Session],
    *,
    hint_peak_kw: float | None = None,
):
    """Instantiate the configured algorithm (and its meter, when peak-aware)."""
    name = cfg["algorithm"]
    scenario = SCENARIOS[cfg["scenario"]]
    quantized = not scenario.continuous_pilots
    if name in ("llf", "edf", "rr", "uncontrolled"):
        return BaselineScheduler(name, network, quantized=quantized, constraint_mode=cfg["constraint_mode"])
    if name != "asa":
        raise ValueError(f"unknown algorithm {name!r}")

    preset = cfg["utility"]
    tariff = _utility_tariff(cfg, preset)
    if tariff is None:
        utility: UtilityConfig | Callable[[int], UtilityConfig] = quick_charge_utility()
        meter = None
    else:
        meter = Meter()
        utility = profit_utility(
            tariff,
            cfg["revenue_per_kwh"],
            _billing_days(cfg, sessions),
            cfg["start_day"],
            cfg["period_minutes"],
            meter,
            hint_peak_kw if preset == "profit-hint" else None,
        )

    algo = AdaptiveScheduler(
        network,
        utility,
        horizon=int(cfg["horizon"]),
        recompute_period=int(cfg["recompute_period"]),
        quantized=quantized,
        constraint_mode=cfg["constraint_mode"],
        period_minutes=cfg["period_minutes"],
    )
    if meter is not None:
        algo.meter = meter
    return algo


def _sim_config(cfg: dict[str, Any], sessions: Sequence[Session]) -> SimConfig:
    return SimConfig(
        period_minutes=cfg["period_minutes"],
        start_day=cfg["start_day"],
        tariff=build_tariff(cfg),
        revenue_per_kwh=cfg["revenue_per_kwh"],
        billing_days=_billing_days(cfg, sessions),
        rampdown=cfg["rampdown"],
    )


def simulate_once(cfg: dict[str, Any], *, hint_peak_kw: float | None = None) -> SimResult:
    """Run one configured simulation end to end."""
    network = build_network(cfg)
    sessions = build_workload(cfg, network)
    sim_cfg = _sim_config(cfg, sessions)
    if cfg["algorithm"] == "offline":
        utility = _hindsight_utility(cfg, sessions, cfg["utility"])
        result, _ = offline_optimal(network, sessions, utility, sim_cfg, constraint_mode=cfg["constraint_mode"])
        return result
    algorithm = make_algorithm(cfg, network, sessions, hint_peak_kw=hint_peak_kw)
    return run(network, sessions, algorithm, SCENARIOS[cfg["scenario"]], sim_cfg)


def _sweep_worker(args: tuple[dict[str, Any], float, str]) -> dict[str, Any]:
    cfg, transformer_kw, algorithm = args
    cfg = {**cfg, "algorithm": algorithm}
    cfg["network"] = {**cfg["network"], "transformer_kw": transformer_kw}
    result = simulate_once(cfg)
    return {
        "transformer_kw": transformer_kw,
        "algorithm": algorithm,
        "demand_met": result.demand_met,
        "delivered_kwh": result.delivered_kwh,
        "audit_violations": result.audit_violations(),
    }


def capacity_sweep(cfg: dict[str, Any], jobs: int = 1) -> list[dict[str, Any]]:
    """Demand-met fraction across transformer sizes for several algorithms."""
    sweep = cfg.get("sweep") or {}
    capacities = [float(c) for c in sweep.get("transformer_kw", (20, 30, 40, 50, 70, 100))]
    algorithms = list(sweep.get("algorithms", ("asa", "llf", "edf", "rr")))
    tasks = [(cfg, kw, alg) for kw in capacities for alg in algorithms]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks))
    else:
        rows = [_sweep_worker(t) for t in tasks]
    rows.sort(key=lambda r: (r["transformer_kw"], r["algorithm"]))
    return rows


def profit_experiment(cfg: dict[str, Any]) -> list[dict[str, Any]]:
    """Billed-profit comparison: hindsight benchmark, peak-aware MPC, dumb EVSEs.

    The hindsight run goes first so its peak can seed the peak-hint variant.
    """
    network = build_network(cfg)
    sessions = build_workload(cfg, network)
    sim_cfg = _sim_config(cfg, sessions)
    utility = _hindsight_utility(cfg, sessions, "profit")
    offline_result, _ = offline_optimal(network, sessions, utility, sim_cfg, constraint_mode=cfg["constraint_mode"])
    offline_profit = offline_result.billing.profit

    def row(result: SimResult, label: str) -> dict[str, Any]:
        b = result.billing
        return {
            "run": label,
            "algorithm": result.algorithm,
            "scenario": result.scenario,
            "profit": b.profit,
            "revenue": b.revenue,
            "energy_cost": b.energy_cost,
            "demand_charge": b.demand_charge,
            "peak_kw": b.peak_kw,
            "demand_met": result.demand_met,
            "profit_vs_offline": b.profit / offline_profit if offline_profit > 0 else math.nan,
            "audit_violations": result.audit_violations(),
        }

    rows = [row(offline_result, "offline")]
    specs = cfg.get("profit_runs") or [
        {"label": "asa-hint-ii", "utility": "profit-hint", "scenario": "II"},
        {"label": "asa-hint-v", "utility": "profit-hint", "scenario": "V"},
        {"label": "asa-ii", "utility": "profit", "scenario": "II"},
        {"label": "uncontrolled", "algorithm": "uncontrolled", "scenario": "II"},
    ]
    for spec in specs:
        run_cfg = {**cfg, "algorithm": spec.get("algorithm", "asa"), "scenario": spec["scenario"]}
        run_cfg["utility"] = spec.get("utility", cfg["utility"])
        hint = offline_result.billing.peak_kw if run_cfg["utility"] == "profit-hint" else None
        algorithm = make_algorithm(run_cfg, network, sessions, hint_peak_kw=hint)
        result = run(network, sessions, algorithm, SCENARIOS[run_cfg["scenario"]], sim_cfg)
        rows.append(row(result, spec["label"]))
    return rows


# -- deterministic output files ------------------------------------------------


def _fmt(v: Any) -> Any:
    if isinstance(v, (np.floating, float)):
        return float(f"{float(v):.12g}")
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


def write_rows_csv(rows: Sequence[dict[str, Any]], path: str | Path) -> None:
    if not rows:
        Path(path).write_text("")
        return
    fields = list(rows[0])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _fmt(v) for k, v in r.items()})


def write_outputs(result: SimResult, out_dir: str | Path, resolved_cfg: dict[str, Any]) -> dict[str, Path]:
    """Write traces.csv, constraints.csv, and summary.json for one run.

    Output bytes depend only on the run's numbers (no timestamps, sorted
    keys), so identical runs produce identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    traces = out / "traces.csv"
    pilots, measured = result.pilots, result.measured
    with open(traces, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "session_id", "pilot_amps", "measured_amps"])
        for k in range(result.periods):
            for i, s in enumerate(result.sessions):
                if s.arrival <= k < s.departure:
                    writer.writerow(
                        [k, s.id, f"{pilots[i, k]:.10g}", f"{measured[i, k]:.10g}"]
                    )

    constraints = out / "constraints.csv"
    with open(constraints, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "constraint_id", "aggregate_amps", "limit_amps"])
        for k in range(result.periods):
            for li, cid in enumerate(result.constraint_ids):
                writer.writerow(
                    [k, cid, f"{result.aggregates[li, k]:.10g}", f"{result.limits[li, k]:.10g}"]
                )

    summary = {
        "algorithm": result.algorithm,
        "scenario": result.scenario,
        "periods": result.periods,
        "demand_met": _fmt(result.demand_met),
        "delivered_kwh": _fmt(result.delivered_kwh),
        "sessions": [
            {
                "id": s.id,
                "evse_id": s.evse_id,
                "arrival": s.arrival,
                "departure": s.departure,
                "requested_amp_periods": _fmt(s.requested_energy),
                "delivered_amp_periods": _fmt(result.delivered[i]),
            }
            for i, s in enumerate(result.sessions)
        ],
        "audit": result.audit,
        "solve_count": result.solve_count,
        "fallback_count": result.fallback_count,
        "billing": None
        if result.billing is None
        else {
            "revenue": _fmt(result.billing.revenue),
            "energy_cost": _fmt(result.billing.energy_cost),
            "demand_charge": _fmt(result.billing.demand_charge),
            "profit": _fmt(result.billing.profit),
            "peak_kw": _fmt(result.billing.peak_kw),
        },
        "config": resolved_cfg,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return {"traces": traces, "constraints": constraints, "summary": summary_path}

"""Release gates for the whole stack, one test per criterion.

Each test prints a single "[criterion N] PASS/FAIL" line (shown under -rA)
and asserts once, so the verdict and its numbers travel together. Shared
expensive runs (the congested day, the capacity sweep, the week of billing)
live in module fixtures and are computed once.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from evsched.baselines import BaselineScheduler
from evsched.experiments import (
    build_network,
    build_workload,
    capacity_sweep,
    profit_experiment,
    resolve_config,
    simulate_once,
    write_outputs,
)
from evsched.network import ChargingNetwork, NetworkConstraint, caltech_preset, clippercreek, continuous_evse, synthetic_preset
from evsched.scheduler import (
    AdaptiveScheduler,
    EqualShare,
    QuickCharge,
    UtilityConfig,
    quantize_and_reclaim,
    rampdown_update,
)
from evsched.simulator import SCENARIOS, SimConfig, offline_optimal, run
from evsched.solver import OPTIMAL, solve
from evsched.workload import DAY_NAMES, Session
from oracles import grid_search_max, random_grid_instance

QC_ES = UtilityConfig(((QuickCharge(), 1.0), (EqualShare(), 0.01)))

# One congested weekday on a small oversubscribed site: 10 stalls whose
# combined 66 kW of hardware share a 12 kW transformer. Seed 27 draws 19
# sessions, none of them laxity-critical at arrival.
DAY_RAW = {
    "seed": 27,
    "network": {"preset": "synthetic", "n_evse": 10, "transformer_kw": 12.0},
    "workload": {"generate": {"days": ["tue"], "stats": "caltech", "session_scale": 0.33}},
    "scenario": "II",
}

SWEEP_RAW = {
    **DAY_RAW,
    "horizon": 96,
    "recompute_period": 3,
    "sweep": {"transformer_kw": [8, 12, 16, 24, 40, 100], "algorithms": ["asa", "llf", "edf", "rr"]},
}

PROFIT_RAW = {
    "seed": 11,
    "network": {"preset": "synthetic", "n_evse": 10, "transformer_kw": 20.0},
    "workload": {"generate": {"days": list(DAY_NAMES), "stats": "caltech", "session_scale": 0.2}},
    "utility": "profit",
    "horizon": 144,
    "recompute_period": 3,
}

DETERMINISM_RAW = {
    "seed": 27,
    "network": {"preset": "synthetic", "n_evse": 10, "transformer_kw": 12.0},
    "workload": {"generate": {"days": ["tue"], "stats": "caltech", "session_scale": 0.25}},
    "scenario": "V",
    "horizon": 96,
    "recompute_period": 3,
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def day_runs():
    cfg = resolve_config(DAY_RAW)
    t0 = time.perf_counter()
    asa = simulate_once(cfg)
    offline = simulate_once({**cfg, "algorithm": "offline"})
    return asa, offline, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sweep_rows():
    rows = capacity_sweep(resolve_config(SWEEP_RAW))
    by_alg: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        by_alg.setdefault(r["algorithm"], []).append((r["transformer_kw"], r["demand_met"]))
    return rows, by_alg


@pytest.fixture(scope="module")
def profit_rows():
    t0 = time.perf_counter()
    rows = profit_experiment(resolve_config(PROFIT_RAW))
    return {r["run"]: r for r in rows}, time.perf_counter() - t0


def test_criterion_01_solver_matches_grid_search():
    rng = np.random.default_rng(2026)
    worst = 0.0
    all_optimal = True
    solver_s = oracle_s = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        prog = random_grid_instance(rng)
        t_solve = time.perf_counter()
        res = solve(prog)
        t_oracle = time.perf_counter()
        ref, _ = grid_search_max(prog, step=0.01)
        solver_s += t_oracle - t_solve
        oracle_s += time.perf_counter() - t_oracle
        all_optimal &= res.status == OPTIMAL
        worst = max(worst, abs(res.objective - ref))
    elapsed = time.perf_counter() - t0
    ok = all_optimal and worst <= 1e-2 and elapsed < 5.0
    _report(1, "solver vs grid search", ok,
            f"max |obj gap| {worst:.2e} (tol 1e-2) over 200 instances, {elapsed:.2f}s (< 5s; "
            f"solver {solver_s:.2f}s, oracle {oracle_s:.2f}s)")


def test_criterion_02_affine_feasible_implies_magnitude_feasible():
    net = caltech_preset(150.0)
    caps = np.array([e.max_pilot for e in net.evses])
    rng = np.random.default_rng(42)
    affine_ok = exceptions = 0
    for _ in range(10_000):
        rates = rng.uniform(0.0, caps) * rng.uniform(0.0, 1.0) ** 2
        if bool((net.margins(rates, 0, "affine") >= 0.0).all()):
            affine_ok += 1
            if not bool((net.margins(rates, 0, "soc") >= -1e-9).all()):
                exceptions += 1
    ok = exceptions == 0 and affine_ok >= 1000
    _report(2, "conservatism chain", ok,
            f"{affine_ok}/10000 vectors affine-feasible, {exceptions} magnitude exceptions (need 0)")


def test_criterion_03_near_hindsight_on_congested_day(day_runs):
    asa, offline, elapsed = day_runs
    cfg = resolve_config(DAY_RAW)
    net = build_network(cfg)
    sessions = build_workload(cfg, net)
    min_lax = min(
        (s.departure - s.arrival) - s.requested_energy / net.evse(s.evse_id).max_pilot
        for s in sessions
    )
    gap_pp = 100.0 * (offline.demand_met - asa.demand_met)
    congested = offline.demand_met < 0.95
    ok = gap_pp <= 2.0 and elapsed < 120.0 and congested and min_lax > 0.0
    _report(3, "near-optimality vs hindsight", ok,
            f"asa {asa.demand_met:.4f} vs offline {offline.demand_met:.4f} "
            f"(gap {gap_pp:.2f}pp, tol 2pp), {len(sessions)} sessions, min laxity "
            f"{min_lax:.1f} periods, {elapsed:.1f}s (< 120s)")


def test_criterion_04_beats_baselines_when_congested(sweep_rows):
    _, by_alg = sweep_rows
    lowest = sorted(kw for kw, _ in by_alg["asa"])[:3]
    dm = {alg: dict(pts) for alg, pts in by_alg.items()}
    margins = {
        kw: dm["asa"][kw] - max(dm[b][kw] for b in ("llf", "edf", "rr"))
        for kw in lowest
    }
    ok = all(m >= 0.0 for m in margins.values())
    detail = ", ".join(f"{kw:g}kW margin {100 * m:.2f}pp" for kw, m in margins.items())
    _report(4, "baseline dominance", ok, detail)


def test_criterion_05_sweep_is_monotone_and_asa_finishes_first(sweep_rows):
    _, by_alg = sweep_rows

    def full_point(pts):
        return next((kw for kw, dm in pts if dm >= 1.0 - 1e-6), None)

    monotone = {
        alg: all(b >= a - 1e-9 for (_, a), (_, b) in zip(pts, pts[1:]))
        for alg, pts in by_alg.items()
    }
    points = {alg: full_point(pts) for alg, pts in by_alg.items()}
    rivals = [p for alg, p in points.items() if alg != "asa" and p is not None]
    ok = all(monotone.values()) and points["asa"] is not None and all(points["asa"] <= p for p in rivals)
    detail = (
        f"monotone {sorted(a for a, m in monotone.items() if m)}, 100% points "
        + ", ".join(f"{alg}={p if p is not None else 'never'}" for alg, p in sorted(points.items()))
    )
    _report(5, "capacity-sweep shape", ok, detail)


def test_criterion_06_week_of_billing_tracks_hindsight_profit(profit_rows):
    rows, elapsed = profit_rows
    hint_ii = rows["asa-hint-ii"]["profit_vs_offline"]
    hint_v = rows["asa-hint-v"]["profit_vs_offline"]
    ok = (
        rows["offline"]["profit"] > 0
        and hint_ii >= 0.85
        and hint_v >= 0.80
        and rows["asa-ii"]["profit"] > rows["uncontrolled"]["profit"]
        and elapsed < 600.0
    )
    _report(6, "profit vs hindsight", ok,
            f"hint-II {hint_ii:.3f} (>= 0.85), hint-V {hint_v:.3f} (>= 0.80), "
            f"peak-aware ${rows['asa-ii']['profit']:.2f} > uncontrolled "
            f"${rows['uncontrolled']['profit']:.2f}, {elapsed:.0f}s (< 600s)")


def test_criterion_07_quantization_stays_feasible_within_budget():
    net = caltech_preset(40.0)
    ids = [e.id for e in net.evses]
    no_load = net.margins(np.zeros(len(ids)), 0, "affine")
    rng = np.random.default_rng(7)
    bad_member = bad_feasible = bad_budget = 0
    for _ in range(500):
        chosen = list(rng.choice(ids, size=int(rng.integers(5, 21)), replace=False))
        desired = {e: float(rng.uniform(0.0, net.evse(e).max_pilot)) for e in chosen}
        # scale the draw into the conservative-feasible region, like a solver output
        loads = no_load - net.margins({**{i: 0.0 for i in ids}, **desired}, 0, "affine")
        tight = loads > 1e-12
        if tight.any():
            scale = min(1.0, 0.999 * float((no_load[tight] / loads[tight]).min()))
            desired = {e: v * scale for e, v in desired.items()}
        pilots = quantize_and_reclaim(desired, net, order=sorted(desired))
        for e, p in pilots.items():
            evse = net.evse(e)
            if not evse.continuous and min(abs(p - r) for r in evse.allowable_rates) > 1e-9:
                bad_member += 1
        bad_feasible += not net.is_feasible({**{i: 0.0 for i in ids}, **pilots}, 0, "affine", 1e-6)
        bad_budget += sum(pilots.values()) > sum(desired.values()) + 1e-9
    pair = ChargingNetwork(
        [clippercreek("A", 0.0), clippercreek("B", 0.0)],
        [NetworkConstraint("line", {"A": 1.0, "B": 1.0}, 31.0)],
    )
    snapped = quantize_and_reclaim({"A": 15.5, "B": 15.5}, pair, order=["A", "B"])
    worked = snapped == {"A": 16.0, "B": 8.0}
    ok = bad_member == bad_feasible == bad_budget == 0 and worked
    _report(7, "quantize and reclaim", ok,
            f"500 draws: {bad_member} off-menu pilots, {bad_feasible} infeasible, "
            f"{bad_budget} over budget; (15.5, 15.5) on 31A -> {snapped}")


def test_criterion_08_rampdown_frees_unused_headroom():
    first = rampdown_update(pilot=32.0, measured=20.0, bound=32.0, max_pilot=32.0)
    second = rampdown_update(pilot=21.0, measured=20.5, bound=21.0, max_pilot=32.0)
    net = ChargingNetwork(
        [continuous_evse("E1", 32.0, 30.0), continuous_evse("E2", 32.0, 30.0)],
        [NetworkConstraint("line", {"E1": 1.0, "E2": 1.0}, 60.0)],
    )
    # "a" rides a big slow-tapering battery; "b" stays in bulk all run
    sessions = [Session("a", "E1", 0, 90, 1600.0), Session("b", "E2", 0, 90, 4000.0)]
    tracking = run(net, sessions, AdaptiveScheduler(net, QC_ES), SCENARIOS["IV"])
    blind = run(net, sessions, AdaptiveScheduler(net, QC_ES), SCENARIOS["IV"], SimConfig(rampdown=False))

    def tail_waste(res):
        waste = 0.0
        for i, s in enumerate(res.sessions):
            done = np.concatenate([[0.0], np.cumsum(res.measured[i])[:-1]])
            tail = done / s.requested_energy > 0.8
            waste += float((res.pilots[i, tail] - res.measured[i, tail]).sum())
        return waste

    ratio = tail_waste(tracking) / tail_waste(blind)
    ok = first == 21.0 and second == 22.0 and ratio <= 0.5
    _report(8, "rampdown efficacy", ok,
            f"worked updates -> {first} (want 21), {second} (want 22); "
            f"tail waste {tail_waste(tracking):.1f}A vs {tail_waste(blind):.1f}A blind "
            f"(ratio {ratio:.2f}, need <= 0.50)")


def test_criterion_09_conservation_and_audits_across_the_suite(day_runs, sweep_rows, profit_rows):
    net = synthetic_preset(6, 15.0)
    ids = [e.id for e in net.evses]
    sessions = [
        Session("s0", ids[0], 0, 25, 300.0),
        Session("s1", ids[1], 2, 28, 400.0),
        Session("s2", ids[2], 4, 20, 250.0),
        Session("s3", ids[3], 5, 30, 350.0),
        Session("s4", ids[4], 8, 40, 500.0),
    ]
    results = [(r, True) for r in day_runs[:2]]
    results.append((offline_optimal(net, sessions, QC_ES)[0], True))
    for scen in ("II", "III", "IV", "V"):
        quantized = not SCENARIOS[scen].continuous_pilots
        schedulers = [(AdaptiveScheduler(net, QC_ES, horizon=48, quantized=quantized), True)] + [
            (BaselineScheduler(name, net, quantized=quantized), name != "uncontrolled")
            for name in ("llf", "edf", "rr", "uncontrolled")
        ]
        for algo, controlled in schedulers:
            results.append((run(net, sessions, algo, SCENARIOS[scen]), controlled))

    over_delivered = post_departure = overdraw = audit_bad = 0
    for res, controlled in results:
        over_delivered += int((res.delivered > res.requested + 1e-6).sum())
        post_departure += res.audit["post_departure"]
        overdraw += res.audit["overdraw"]
        if controlled:
            audit_bad += res.audit_violations()
    row_audits = sum(r["audit_violations"] for r in sweep_rows[0])
    row_audits += sum(r["audit_violations"] for r in profit_rows[0].values() if r["run"] != "uncontrolled")
    ok = over_delivered == post_departure == overdraw == audit_bad == row_audits == 0
    _report(9, "closed-loop conservation", ok,
            f"{len(results)} direct runs + {len(sweep_rows[0])} sweep rows: "
            f"{over_delivered} over-delivery, {post_departure} post-departure, "
            f"{overdraw} overdraw, {audit_bad + row_audits} audit violations (need all 0)")


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    cfg = resolve_config(DETERMINISM_RAW)
    digests = []
    for sub in ("one", "two"):
        paths = write_outputs(simulate_once(cfg), tmp_path / sub, cfg)
        digests.append({k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in sorted(paths.items())})
    ok = digests[0] == digests[1]
    short = ", ".join(f"{k} {v[:8]}" for k, v in digests[0].items())
    _report(10, "byte-identical reruns", ok, f"two runs, three files each: {short}")

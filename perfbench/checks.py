"""Output checks computed apart from the program.

Every check here works from plain data: the network as ``to_dict()`` gives
it, the sessions the benchmark generated, the pilot and measured matrices a
simulation returned, and the tariff's windows. The arithmetic (phasor sums,
menus, energy and pricing) is the benchmark's own numpy, so a fault in the
program's own audits or billing cannot hide a fault in its outputs.

``check_program`` re-solves a captured ``ConvexProgram`` as a linear program
with HiGHS and compares the solver's status and objective against it.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

AUDIT_TOL = 1e-3  # amps, the simulator's own audit tolerance
VALUE_RTOL = 1e-9  # recomputed kWh and dollars against the program's
LP_RTOL = 1e-6  # solver objective against HiGHS
DAY_NAMES = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
POLYGON_SIDES = 16


def record(prepared, i: int, result, decisions: list[int]) -> dict[str, Any]:
    """Plain-data copy of one finished simulation and the inputs it ran on."""
    cfg = prepared.sim_config
    tariff = cfg.tariff
    by_id = {s.id: s for s in prepared.sessions}
    return {
        "network": prepared.network.to_dict(),
        "sessions": [
            (sid, by_id[sid].evse_id, by_id[sid].arrival, by_id[sid].departure, by_id[sid].requested_energy)
            for sid in result.session_ids
        ],
        "pilots": np.array(result.pilots, dtype=float),
        "measured": np.array(result.measured, dtype=float),
        "quantized": prepared.quantized(i),
        "period_minutes": float(cfg.period_minutes),
        "tariff": {
            "weekday": [(w.start_minute, w.end_minute, w.rate) for w in tariff.weekday],
            "weekend": [(w.start_minute, w.end_minute, w.rate) for w in tariff.weekend],
            "demand_charge_rate": tariff.demand_charge_rate,
        },
        "revenue_per_kwh": float(cfg.revenue_per_kwh),
        "billing_days": float(cfg.billing_days),
        "start_day": cfg.start_day,
        "reported_kwh": float(result.delivered_kwh),
        "reported_profit": float(result.billing.profit),
        "decisions": list(decisions),
    }


def _per_period(value, K: int, dtype=float) -> np.ndarray:
    """A scalar or per-period list from ``to_dict``, held at its last value."""
    if isinstance(value, list):
        arr = np.array(value, dtype=dtype)
        return arr[np.minimum(np.arange(K), len(arr) - 1)]
    return np.full(K, value, dtype=dtype)


def _phasor(z):
    if isinstance(z, list):
        return [complex(v["re"], v["im"]) for v in z]
    return complex(z["re"], z["im"])


def prices(tariff: dict, K: int, period_minutes: float, start_day: str) -> np.ndarray:
    """$/kWh in force in each period, from the tariff's minute-of-day windows."""
    minute = np.arange(K) * period_minutes
    day = (DAY_NAMES.index(start_day) + (minute // 1440).astype(int)) % 7
    weekend = day >= 5
    of_day = minute % 1440
    out = np.full(K, np.nan)
    for kind, mask in (("weekday", ~weekend), ("weekend", weekend)):
        for start, end, rate in tariff[kind]:
            out[mask & (of_day >= start) & (of_day < end)] = rate
    if np.isnan(out).any():
        raise ValueError("tariff windows leave periods unpriced")
    return out


def check_simulation(rec: dict) -> tuple[dict[str, np.ndarray], list[str], dict[str, float]]:
    """Run every output check on one simulation.

    Returns the periods each per-period check flagged (boolean arrays over
    periods), the whole-run problems, and the recomputed delivered kWh and
    profit.
    """
    P, M = rec["pilots"], rec["measured"]
    S, K = P.shape
    net = rec["network"]
    voltage = float(net["nominal_voltage"])
    stall_index = {e["id"]: j for j, e in enumerate(net["evses"])}
    stalls = net["evses"]
    rows = np.array([stall_index[evse_id] for _, evse_id, _, _, _ in rec["sessions"]], dtype=int)
    flagged: dict[str, np.ndarray] = {}

    # Network: |sum_i A_li r_i e^{j phi_i} + L_l(t)| <= c_l(t) + tol, from the pilots applied.
    angles = np.radians([e["phase_angle"] for e in stalls])
    stall_rates = np.zeros((len(stalls), K))
    np.add.at(stall_rates, rows, P)
    over = np.zeros(K, dtype=bool)
    for c in net["constraints"]:
        w = np.zeros(len(stalls), dtype=complex)
        for evse_id, coef in c["coefficients"].items():
            j = stall_index[evse_id]
            w[j] = coef * np.exp(1j * angles[j])
        aggregate = w @ stall_rates + _per_period(_phasor(c["background"]), K, complex)
        over |= np.abs(aggregate) > _per_period(c["limit"], K) + AUDIT_TOL
    flagged["network"] = over

    # Pilots on the stall's menu, when the hardware is quantized.
    off_menu = np.zeros((S, K), dtype=bool)
    if rec["quantized"]:
        for i, j in enumerate(rows):
            menu = np.array(stalls[j]["allowable_rates"], dtype=float)
            if stalls[j]["continuous"]:
                lo, hi = stalls[j]["min_nonzero_rate"], stalls[j]["max_pilot"]
                off_menu[i] = (P[i] != 0) & ((P[i] < lo - 1e-9) | (P[i] > hi + 1e-9))
            else:
                off_menu[i] = np.min(np.abs(P[i][:, None] - menu[None, :]), axis=1) > 1e-9
    flagged["menu"] = off_menu.any(axis=0)

    # 0 <= measured <= pilot <= max pilot.
    max_pilot = np.array([stalls[j]["max_pilot"] for j in rows])[:, None]
    flagged["bounds"] = ((M < -1e-12) | (M > P + 1e-9) | (P > max_pilot + 1e-9)).any(axis=0)

    # No draw outside [arrival, departure).
    k = np.arange(K)[None, :]
    arrival = np.array([a for _, _, a, _, _ in rec["sessions"]])[:, None]
    departure = np.array([d for _, _, _, d, _ in rec["sessions"]])[:, None]
    flagged["window"] = ((M != 0) & ((k < arrival) | (k >= departure))).any(axis=0)

    # Per-session delivered <= requested, flagged at the session's last draw.
    requested = np.array([e for _, _, _, _, e in rec["sessions"]])
    delivered = M.sum(axis=1)
    overfilled = np.zeros(K, dtype=bool)
    for i in np.flatnonzero(delivered > requested * (1 + 1e-9) + 1e-9):
        overfilled[np.flatnonzero(M[i])[-1]] = True
    flagged["energy"] = overfilled

    problems = []
    hours = rec["period_minutes"] / 60.0
    kwh = float(M.sum()) * voltage / 1000.0 * hours
    if not math.isclose(kwh, rec["reported_kwh"], rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL):
        problems.append(f"delivered {rec['reported_kwh']!r} kWh reported, {kwh!r} recomputed")

    load_kw = M.sum(axis=0) * voltage / 1000.0
    tariff = rec["tariff"]
    energy_cost = float(prices(tariff, K, rec["period_minutes"], rec["start_day"]) @ load_kw) * hours
    peak = float(load_kw.max(initial=0.0))
    demand = tariff["demand_charge_rate"] * rec["billing_days"] / 30.0 * peak
    profit = rec["revenue_per_kwh"] * kwh - energy_cost - demand
    if not math.isclose(profit, rec["reported_profit"], rel_tol=VALUE_RTOL, abs_tol=VALUE_RTOL):
        problems.append(f"profit {rec['reported_profit']!r} USD reported, {profit!r} re-priced")
    return flagged, problems, {"delivered_kwh": kwh, "profit_usd": profit}


def failed_decisions(rec: dict, flagged: dict[str, np.ndarray], problems: list[str]) -> int:
    """Decisions whose period failed a check; all of them on a whole-run failure.

    A flagged period no decision covers is charged to the whole run too.
    """
    bad = np.zeros(rec["pilots"].shape[1], dtype=bool)
    for mask in flagged.values():
        bad |= mask
    decided = np.zeros_like(bad)
    decided[rec["decisions"]] = True
    if problems or (bad & ~decided).any():
        return len(rec["decisions"])
    return int(bad[rec["decisions"]].sum())


# -- solver results against HiGHS ------------------------------------------------


def program_lp(program, disks: str | None = None):
    """The program as ``max c'x + c0`` over x and one auxiliary per epigraph term.

    Built from the program's public fields only. The quadratic cost is dropped
    (the benchmark's utilities carry only a 1e-12 equal-share term); ``disks``
    is ``"inscribed"`` or ``"circumscribed"`` for the 16-gon that replaces
    each disk. Returns (c, c0, A_ub, b_ub, A_eq, b_eq, bounds).
    """
    from scipy import sparse

    if program.norm_terms:
        raise ValueError("norm terms have no LP form here")
    if program.disks and disks not in ("inscribed", "circumscribed"):
        raise ValueError("a program with disks needs an inscribed or circumscribed polygon")
    n, n_epi = program.n, len(program.epigraph_terms)
    c = np.concatenate([program.linear_cost, [-t.weight for t in program.epigraph_terms]])
    rows, cols, vals, rhs = [], [], [], []

    def add(idx, coef, b):
        rows.extend([len(rhs)] * len(idx))
        cols.extend(int(i) for i in idx)
        vals.extend(float(v) for v in coef)
        rhs.append(float(b))

    for expr, b in program.linear_ineqs:
        add(expr.idx, expr.coef, b - expr.const)
    for j, term in enumerate(program.epigraph_terms):
        for e in term.exprs:  # a'x + b <= z_j
            add(list(e.idx) + [n + j], list(e.coef) + [-1.0], -e.const)
    shrink = math.cos(math.pi / POLYGON_SIDES) if disks == "inscribed" else 1.0
    for d in program.disks:
        for s in range(POLYGON_SIDES):
            th = 2.0 * math.pi * s / POLYGON_SIDES
            cs, sn = math.cos(th), math.sin(th)
            add(
                list(d.real.idx) + list(d.imag.idx),
                list(cs * d.real.coef) + list(sn * d.imag.coef),
                d.limit * shrink - cs * d.real.const - sn * d.imag.const,
            )
    A_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(len(rhs), n + n_epi))
    erows, ecols, evals, erhs = [], [], [], []
    for expr, b in program.linear_eqs:
        erows.extend([len(erhs)] * len(expr.idx))
        ecols.extend(int(i) for i in expr.idx)
        evals.extend(float(v) for v in expr.coef)
        erhs.append(float(b - expr.const))
    A_eq = sparse.csr_matrix((evals, (erows, ecols)), shape=(len(erhs), n + n_epi)) if erhs else None
    bounds = [
        (None if not np.isfinite(lo) else float(lo), None if not np.isfinite(hi) else float(hi))
        for lo, hi in zip(program.lower, program.upper)
    ] + [(None, None)] * n_epi
    return c, program.objective_const, A_ub, np.array(rhs), A_eq, (np.array(erhs) if erhs else None), bounds


def highs(program, disks: str | None = None) -> tuple[bool, float]:
    """(feasible, optimal objective) of the LP form, solved by HiGHS."""
    from scipy.optimize import linprog

    c, c0, A_ub, b_ub, A_eq, b_eq, bounds = program_lp(program, disks)
    res = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return False, math.nan
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return True, -float(res.fun) + c0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LP_RTOL * max(1.0, abs(b))


def check_program(program, status: str, objective: float) -> list[str]:
    """Problems with one solver result, judged against HiGHS.

    Without disks the LP is the program (less the 1e-12 quadratic term):
    ``infeasible`` must match HiGHS exactly and an optimal objective must match
    within ``LP_RTOL``. With disks the inscribed 16-gon LP restricts the
    program and the circumscribed one relaxes it: an infeasible relaxation
    proves the program infeasible, a feasible restriction proves it feasible,
    and an optimal objective must lie between the two LP optima.
    """
    if not program.disks:
        feasible, best = highs(program)
        if (status == "infeasible") == feasible:
            return [f"solver says {status}, HiGHS says {'feasible' if feasible else 'infeasible'}"]
        if status == "optimal" and not _close(objective, best):
            return [f"objective {objective!r} against HiGHS {best!r}"]
        if status == "max_iter" and objective > best + LP_RTOL * max(1.0, abs(best)):
            return [f"max_iter objective {objective!r} above the HiGHS optimum {best!r}"]
        return []
    outer_ok, outer = highs(program, "circumscribed")
    inner_ok, inner = highs(program, "inscribed")
    if status == "infeasible":
        return ["solver says infeasible, the inscribed polygon is feasible"] if inner_ok else []
    if not outer_ok:
        return [f"solver says {status}, the circumscribed polygon is infeasible"]
    if status == "optimal":
        slack = LP_RTOL * max(1.0, abs(outer))
        low = inner - slack if inner_ok else -math.inf
        if not low <= objective <= outer + slack:
            return [f"objective {objective!r} outside [{inner!r}, {outer!r}]"]
    return []

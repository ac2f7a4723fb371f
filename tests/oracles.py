"""Independent brute-force and closed-form references for pinning expecteds.

Nothing here reuses the package's solution paths: the grid search evaluates
every grid point by broadcasting one array axis per variable (no solver code,
no relaxation, no cuts), the phasor sum is plain cmath, the battery tail is
the direct recursion, and the greedy pilot references find each rate by
probing ``ChargingNetwork.is_feasible`` one trial vector at a time (no rate
windows), and the row-by-row builder emits one network row per period and
constraint through ``limit_at``/``background_at`` below.
One reference does share a package path: ``turn_by_turn_rr`` is round-robin
as one ``rate_window`` call per turn, the loop whole sweeps replaced.
Tests compare package output against these.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from evsched.network import (
    PHASE_AB,
    PHASE_BC,
    PHASE_CA,
    ChargingNetwork,
    NetworkConstraint,
    aerovironment,
    clippercreek,
    continuous_evse,
)
from evsched.scheduler import EvState, LoadVariance, VarMap
from evsched.solver import ConvexProgram, LinExpr
from evsched.workload import Session


def phasor_sum(coefs, angles_deg, rates, background=0j) -> complex:
    """Aggregate current phasor computed one term at a time."""
    total = complex(background)
    for a, phi, r in zip(coefs, angles_deg, rates):
        total += a * r * cmath.exp(1j * math.radians(phi))
    return total


def limit_at(constraint: NetworkConstraint, t: int) -> float:
    """A constraint's limit in period t: its scalar, or its array held at its last value."""
    if np.ndim(constraint.limit) == 0:
        return float(constraint.limit)
    return float(constraint.limit[min(t, len(constraint.limit) - 1)])


def background_at(constraint: NetworkConstraint, t: int) -> complex:
    """A constraint's background phasor in period t, read like ``limit_at``."""
    if np.ndim(constraint.background) == 0:
        return complex(constraint.background)
    return complex(constraint.background[min(t, len(constraint.background) - 1)])


def aggregate_phasor(network: ChargingNetwork, constraint_id: str, rates, t: int = 0) -> complex:
    """One constraint's entry of ``network.aggregates``: its complex current, background included."""
    return complex(network.aggregates(rates, t)[network.constraint_index[constraint_id]])


def disk_violation(program: ConvexProgram, x) -> float:
    """Worst disk overrun of a program at x, in limit units (0 if none), one disk at a time."""
    return max([0.0] + [abs(complex(d.real.value(x), d.imag.value(x))) - d.limit for d in program.disks])


def row_violation(program: ConvexProgram, x) -> float:
    """Worst violation at x of a program's bounds, inequality rows and equality rows (0 if none), row by row."""
    worst = max([0.0] + [lo - v for lo, v in zip(program.lower, x)] + [v - hi for hi, v in zip(program.upper, x)])
    worst = max([worst] + [expr.value(x) - rhs for expr, rhs in program.linear_ineqs])
    return max([worst] + [abs(expr.value(x) - rhs) for expr, rhs in program.linear_eqs])


def grid_search_max(program: ConvexProgram, step: float = 0.01, feas_tol: float = 1e-9):
    """Exhaustive objective maximization on a uniform grid over the box.

    Variable k owns array axis k, so every affine expression is an outer sum
    of 1-D axis terms and the whole grid is evaluated without building an
    (N, n) point array. ``argmax`` runs over the feasible points in C order,
    so ties go to the first feasible grid point in lexicographic order.
    Returns (objective, maximizer).
    """
    axes = []
    for lo, hi in zip(program.lower, program.upper):
        count = int(round((hi - lo) / step))
        axes.append(lo + step * np.arange(count + 1))
    shape = tuple(len(a) for a in axes)

    def along(k: int, v: np.ndarray) -> np.ndarray:
        return v.reshape([-1 if i == k else 1 for i in range(len(axes))])

    def grid_value(expr):
        # Accumulating from the scalar up keeps every sum but the last small.
        total = expr.const
        for k, c in zip(expr.idx, expr.coef):
            total = total + c * along(k, axes[k])
        return total

    ok = np.ones(shape, dtype=bool)
    for expr, rhs in program.linear_ineqs:
        ok &= grid_value(expr) <= rhs + feas_tol
    for disk in program.disks:
        ok &= np.hypot(grid_value(disk.real), grid_value(disk.imag)) <= disk.limit + feas_tol
    feasible = np.flatnonzero(ok)
    if len(feasible) == 0:
        raise ValueError("no feasible grid points")

    obj = program.objective_const
    for k, a in enumerate(axes):
        obj = obj + along(k, program.linear_cost[k] * a - program.quad_cost[k] * a * a)
    for term in program.epigraph_terms:
        obj = obj - term.weight * functools.reduce(np.maximum, [grid_value(e) for e in term.exprs])
    for term in program.norm_terms:
        obj = obj - term.weight * np.sqrt(sum(grid_value(e) ** 2 for e in term.exprs))
    i = int(feasible[np.argmax(obj.ravel()[feasible])])
    return float(obj.flat[i]), np.array([a[j] for a, j in zip(axes, np.unravel_index(i, shape))])


def random_grid_instance(rng: np.random.Generator) -> ConvexProgram:
    """Random concave instance whose grid optimum is sharp at 0.01 step.

    Box widths, row right-hand sides, and disk limits land on grid multiples
    and quadratic terms dominate, so the best grid point sits within the
    acceptance tolerance of the true optimum.
    """
    n = int(rng.integers(1, 5))
    width = 0.3 if n == 4 else float(rng.integers(20, 61)) * 0.01
    prog = ConvexProgram.empty(n)
    prog.upper[:] = width
    prog.linear_cost[:] = rng.uniform(-0.3, 0.3, n)
    prog.quad_cost[:] = rng.uniform(0.2, 1.0, n)
    prog.objective_const = float(rng.uniform(-1, 1))

    for _ in range(int(rng.integers(0, 3))):
        coef = rng.choice([0.5, 1.0], size=n)
        rhs = float(np.ceil(rng.uniform(0.4, 0.9) * float(coef @ prog.upper) / 0.01)) * 0.01
        prog.add_ineq(np.arange(n), coef, rhs)

    if n >= 2 and rng.random() < 0.7:
        i, j = rng.choice(n, 2, replace=False)
        from evsched.solver import LinExpr

        a = float(rng.choice([-1.0, 1.0]))
        limit = float(np.ceil(rng.uniform(0.5, 1.0) * width / 0.01)) * 0.01
        prog.add_disk(LinExpr([i], [1.0]), LinExpr([j], [a]), limit)
    return prog


def battery_tail_energy(capacity: float, max_current: float, tail_start: float, start_charge: float, periods: int) -> float:
    """Energy a tapering battery absorbs under an always-max pilot, by direct recursion."""
    charge = start_charge
    for _ in range(periods):
        soc = 1.0 if capacity == 0 else charge / capacity
        if soc <= tail_start:
            rate = max_current
        else:
            rate = max_current * (1.0 - soc) / (1.0 - tail_start)
        rate = min(rate, capacity - charge)
        charge += rate
    return charge - start_charge


def random_site(rng: np.random.Generator, varying_backgrounds: bool = False):
    """A small oversubscribed site of mixed hardware and the EVs plugged in at one period.

    Rows carry signed coefficients with some stalls left out, limits are
    scalars or short per-period arrays, and some rows carry a background
    phasor, with ``varying_backgrounds`` sometimes a short per-period array.
    EV states vary need, stay and the rampdown bound.
    """
    n = int(rng.integers(3, 9))
    makers = (
        lambda k, ph: aerovironment(f"E{k}", ph),
        lambda k, ph: clippercreek(f"E{k}", ph),
        lambda k, ph: continuous_evse(f"E{k}", float(rng.choice([16.0, 32.0, 40.0])), ph),
    )
    evses = [makers[int(rng.integers(3))](k, float(rng.choice([PHASE_AB, PHASE_BC, PHASE_CA]))) for k in range(n)]
    constraints = []
    for li in range(int(rng.integers(1, 5))):
        coefs = {e.id: float(rng.choice([1.0, -1.0, 0.5, -0.5, 0.25])) for e in evses if rng.random() < 0.7}
        limit = rng.uniform(10.0, 25.0 * n) if rng.random() < 0.6 else rng.uniform(10.0, 25.0 * n, int(rng.integers(2, 6)))
        background = complex(*rng.uniform(-15.0, 15.0, 2)) if rng.random() < 0.4 else 0j
        if varying_backgrounds and rng.random() < 0.5:
            k = int(rng.integers(2, 6))
            background = rng.uniform(-15.0, 15.0, k) + 1j * rng.uniform(-15.0, 15.0, k)
        constraints.append(NetworkConstraint(f"c{li}", coefs, limit, background))
    network = ChargingNetwork(evses, constraints)
    active = []
    for k, e in enumerate(evses):
        if rng.random() < 0.8:
            arrival = int(rng.integers(0, 5))
            state = EvState.start(Session(f"s{k}", e.id, arrival, arrival + int(rng.integers(1, 30)), float(rng.uniform(1.0, 300.0))), e)
            state.remaining_energy = float(rng.uniform(0.5, 1.0)) * state.remaining_energy
            if rng.random() < 0.3:
                state.pilot_upper_bound = float(rng.uniform(4.0, e.max_pilot))
            active.append(state)
    return network, active


# -- greedy pilots by probing ---------------------------------------------------
#
# The baselines, the minimum-rate fallback and quantize-and-reclaim as they
# were written before rate windows: every candidate rate is one
# ``is_feasible`` call on a copied rate dict, and the continuous baselines
# bisect 40 times. Session and EVSE objects are read, never modified.


def _probe_laxity(state) -> float:
    bound = min(state.evse.max_pilot, state.pilot_upper_bound)
    if bound <= 0:
        return float(state.remaining_duration)
    return state.remaining_duration - state.remaining_energy / bound


def _probe_cap(state, quantized: bool) -> float:
    bound = min(state.evse.max_pilot, state.pilot_upper_bound)
    need = state.remaining_energy
    if need >= bound:
        return bound
    if quantized:
        return min(state.evse.ceil_rate(need), bound)
    return need


def _probe_min(state) -> float:
    return min(state.evse.min_rate, state.pilot_upper_bound, state.evse.max_pilot)


def _probe_pinned(state) -> float:
    """A quantized baseline's first pilot: the minimum nonzero one, or 0 when the bound lies below it."""
    step = _probe_min(state)
    return step if step >= state.evse.min_rate else 0.0


def _probe_pinned_fallback(active, pinned, network, priority, t, mode, tol):
    """The minimum-rate fallback over the EVs pinned above 0; the others get 0."""
    out = probe_minimum_rate_fallback([s for s in active if pinned[s.evse.id] > 0], network, priority, t, mode, tol)
    return {**out, **{s.session.id: 0.0 for s in active if s.session.id not in out}}


def probe_minimum_rate_fallback(active, network, priority, t, mode, tol):
    order = sorted(active, key=lambda s: (priority(s), s.session.arrival, s.session.id))
    rates = {s.evse.id: 0.0 for s in active}
    out = {}
    for state in order:
        step = _probe_min(state)
        if step <= 0:
            out[state.session.id] = 0.0
            continue
        rates[state.evse.id] = step
        if network.is_feasible(rates, t, mode, tol):
            out[state.session.id] = step
        else:
            rates[state.evse.id] = 0.0
            out[state.session.id] = 0.0
    return out


def _probe_max_feasible(rates, state, network, cap, quantized, t, mode, tol) -> float:
    evse = state.evse
    base = rates[evse.id]

    def ok(r: float) -> bool:
        trial = dict(rates)
        trial[evse.id] = r
        return network.is_feasible(trial, t, mode, tol)

    if quantized:
        if evse.continuous:
            candidates = [base] + list(np.arange(evse.min_nonzero_rate, cap + 1e-9, 1.0))
        else:
            candidates = [r for r in evse.allowable_rates if base <= r <= cap + 1e-9]
        for r in sorted(set(candidates), reverse=True):
            if r >= base - 1e-9 and ok(r):
                return max(r, base)
        return base
    if ok(cap):
        return cap
    lo, hi = base, cap
    if not ok(lo):
        return base
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def probe_greedy_pilots(name: str, active, network, quantized: bool, t: int, mode: str, tol: float = 1e-6):
    """``llf``, ``edf`` or ``rr`` pilots, each rate found by feasibility probes."""
    key = {"llf": _probe_laxity, "edf": lambda s: float(s.session.departure), "rr": lambda s: float(s.session.arrival)}[name]
    rates = {s.evse.id: 0.0 for s in active}
    if quantized:
        mins = {s.evse.id: _probe_pinned(s) for s in active}
        if not network.is_feasible(mins, t, mode, tol):
            return _probe_pinned_fallback(active, mins, network, key, t, mode, tol)
        rates = dict(mins)
    if name != "rr":
        out = {}
        for state in sorted(active, key=lambda s: (key(s), s.session.arrival, s.session.id)):
            best = _probe_max_feasible(rates, state, network, _probe_cap(state, quantized), quantized, t, mode, tol)
            rates[state.evse.id] = best
            out[state.session.id] = best
        return out
    order = sorted(active, key=lambda s: (s.session.arrival, s.session.id))
    caps = {s.evse.id: _probe_cap(s, quantized) for s in active}
    blocked: set[str] = set()
    while len(blocked) < len(order):
        for state in order:
            evse = state.evse
            if evse.id in blocked:
                continue
            nxt = evse.next_rate(rates[evse.id]) if quantized else rates[evse.id] + 1.0
            if nxt is None or nxt > caps[evse.id] + 1e-9:
                blocked.add(evse.id)
                continue
            trial = dict(rates)
            trial[evse.id] = nxt
            if network.is_feasible(trial, t, mode, tol):
                rates[evse.id] = nxt
            else:
                blocked.add(evse.id)
    return {s.session.id: rates[s.evse.id] for s in active}


def turn_by_turn_rr(active, network, quantized: bool = False, t: int = 0, mode: str = "affine", tol: float = 1e-6):
    """Round-robin pilots one turn at a time, each raise granted by its own ``rate_window``.

    ``baselines.rr_pilots`` as it was before it committed whole sweeps from
    one check; those sweeps must give these dicts bit for bit.
    """
    order = sorted(active, key=lambda s: (s.session.arrival, s.session.id))
    vec = np.zeros(len(network))
    if quantized:
        pinned = {s.evse.id: _probe_pinned(s) for s in active}
        for evse_id, rate in pinned.items():
            vec[network.evse_index[evse_id]] = rate
        if not network.is_feasible(vec, t, mode, tol):
            return _probe_pinned_fallback(active, pinned, network, lambda s: float(s.session.arrival), t, mode, tol)
    caps = {s.evse.id: _probe_cap(s, quantized) for s in active}
    blocked: set[str] = set()
    while len(blocked) < len(order):
        for state in order:
            evse = state.evse
            if evse.id in blocked:
                continue
            i = network.evse_index[evse.id]
            rate = float(vec[i])
            nxt = evse.next_rate(rate) if quantized else rate + 1.0
            if nxt is None or nxt > caps[evse.id] + 1e-9:
                blocked.add(evse.id)
                continue
            lo, hi = network.rate_window(vec, i, t, mode, tol)
            if lo <= nxt <= hi:
                vec[i] = nxt
            else:
                blocked.add(evse.id)
    return {s.session.id: float(vec[network.evse_index[s.evse.id]]) for s in active}


def probe_quantize_and_reclaim(desired, network, bounds, order, t, mode, tol=1e-6):
    """Quantized rates keyed by EVSE id, or None where the package raises QuantizationError."""
    rank = {e: i for i, e in enumerate(order)}
    rates = {}
    for evse_id, want in desired.items():
        evse = network.evse(evse_id)
        rates[evse_id] = evse.floor_rate(min(max(want, 0.0), min(bounds.get(evse_id, evse.max_pilot), evse.max_pilot)))
    feasible, steps = True, 0
    while not network.is_feasible(rates, t, mode, tol):
        margins = network.margins(rates, t, mode)
        row = np.abs(network.weights[int(np.argmin(margins))])
        movable = [e for e in rates if rates[e] > 0 and row[network.evse_index[e]] > 0]
        if not movable or steps == 16 * max(len(rates), 1):
            feasible = False
            break
        steps += 1
        victim = max(movable, key=lambda e: (row[network.evse_index[e]] * rates[e], -rank.get(e, 0)))
        evse = network.evse(victim)
        lower = [r for r in ([0.0] if evse.continuous else evse.allowable_rates) if r < rates[victim] - 1e-9]
        rates[victim] = max(lower) if lower else 0.0
    budget = sum(max(v, 0.0) for v in desired.values())
    queue = sorted(
        rates,
        key=lambda e: (-round(min(max(desired[e], 0.0), bounds.get(e, math.inf)) - rates[e], 6), rank.get(e, len(order))),
    )
    changed = True
    while changed:
        changed = False
        for evse_id in queue:
            evse = network.evse(evse_id)
            nxt = evse.next_rate(rates[evse_id])
            if nxt is None or nxt > min(bounds.get(evse_id, evse.max_pilot), evse.max_pilot) + 1e-9:
                continue
            if sum(rates.values()) - rates[evse_id] + nxt > budget + 1e-9:
                continue
            trial = dict(rates)
            trial[evse_id] = nxt
            if network.is_feasible(trial, t, mode, tol):
                rates[evse_id] = nxt
                changed = feasible = True
    return rates if feasible else None


# -- the scheduling program, one row at a time ----------------------------------


def build_program_by_rows(windows, utility, network, horizon, *, start_period=0, constraint_mode="affine",
                          period_minutes=5.0):
    """``scheduler.build_program`` as a loop over periods and constraints.

    Each occupied period's network rows are read off the weights of the
    windows present, one ``add_ineq`` or ``add_disk`` call per constraint
    that weighs any of them, with its limit and background read through the
    ``limit_at`` and ``background_at`` of the constraint.
    """
    offsets, n = [], 0
    for w in windows:
        offsets.append(n)
        n += w.length
    present: dict[int, list[int]] = {}  # period -> windows present, in order
    for j, w in enumerate(windows):
        for t in range(w.first, w.first + w.length):
            present.setdefault(t, []).append(j)
    period_vars = {t: np.array([offsets[j] + t - windows[j].first for j in present[t]]) for t in sorted(present)}
    n_aux = len(period_vars) if any(isinstance(c, LoadVariance) for c, _ in utility.terms) else 0

    prog = ConvexProgram.empty(n + n_aux)
    for w, off in zip(windows, offsets):
        prog.upper[off : off + w.length] = w.upper
        prog.lower[off] = w.lower
        prog.add_ineq(np.arange(off, off + w.length), np.ones(w.length), w.energy)
    prog.lower[n:] = -np.inf

    col = [network.evse_index[w.evse.id] for w in windows]
    for t, idx in period_vars.items():
        abs_t = start_period + t
        block = network.weights[:, [col[j] for j in present[t]]]
        for constraint, w in zip(network.constraints, block):
            nz = w != 0
            if not nz.any():
                continue
            limit = limit_at(constraint, abs_t)
            bg = background_at(constraint, abs_t)
            if constraint_mode == "affine":
                prog.add_ineq(idx[nz], np.abs(w[nz]), limit - abs(bg))
            else:
                prog.add_disk(LinExpr(idx[nz], w[nz].real, bg.real), LinExpr(idx[nz], w[nz].imag, bg.imag), limit)

    voltage = network.nominal_voltage
    background = [utility.background(start_period + t) for t in range(horizon)]
    kappa = voltage / 1000.0 * period_minutes / 60.0
    ctx = VarMap(list(windows), offsets, horizon, start_period, n, period_vars, background, kappa, voltage / 1000.0)
    for comp, weight in utility.terms:
        comp.add_to(prog, ctx, weight)
    return prog, ctx

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evsched.solver as solver_mod
from evsched.network import synthetic_preset
from evsched.scheduler import (
    DemandCharge,
    EqualShare,
    EvState,
    LoadVariance,
    NonCompletion,
    QuickCharge,
    UtilityConfig,
    build_opt,
)
from evsched.solver import (
    INFEASIBLE,
    OPTIMAL,
    ConvexProgram,
    EpigraphTerm,
    LinExpr,
    NormTerm,
    ProgramError,
    RowStore,
    solve,
)
from evsched.workload import Session
from oracles import disk_violation, grid_search_max, random_grid_instance, row_violation


def test_disk_constrained_linear_max():
    # maximize x + y inside the radius-sqrt(2) disk: optimum (1, 1)
    p = ConvexProgram.empty(2)
    p.upper[:] = 2.0
    p.linear_cost[:] = 1.0
    p.add_disk(LinExpr([0], [1.0]), LinExpr([1], [1.0]), math.sqrt(2))
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-5)
    assert sol.objective == pytest.approx(2.0, abs=1e-5)
    assert disk_violation(p, sol.x) <= 1e-6


def test_bound_constrained_quadratic():
    # maximize -(x - 3)^2 over [0, 2]: x = 2, objective -1
    p = ConvexProgram.empty(1)
    p.upper[:] = 2.0
    p.linear_cost[:] = 6.0
    p.quad_cost[:] = 1.0
    p.objective_const = -9.0
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(2.0, abs=1e-6)
    assert sol.objective == pytest.approx(-1.0, abs=1e-6)


def _holds_exactly(prog, sol) -> bool:
    """Every disk of prog holds at sol.x to 1e-8 in its own units, offsets included."""
    return all(math.hypot(*d.phasor(sol.x)) <= d.limit + 1e-8 for d in prog.disks)


def test_active_disk_holds_exactly():
    # maximize 3x + 4y inside |x + jy| <= 2.5: the disk binds at (1.5, 2)
    p = ConvexProgram.empty(2)
    p.upper[:] = 10.0
    p.linear_cost[:] = [3.0, 4.0]
    p.add_disk(LinExpr([0], [1.0]), LinExpr([1], [1.0]), 2.5)
    sol = solve(p)
    assert sol.status == OPTIMAL and _holds_exactly(p, sol)
    assert sol.x == pytest.approx([1.5, 2.0], abs=1e-4)
    assert math.hypot(*sol.x) == pytest.approx(2.5, abs=1e-7)  # active


def test_active_offset_disk_holds_exactly():
    # maximize x with |(x + 1) + 2j| <= 2.5: the disk binds at x = 0.5
    p = ConvexProgram.empty(1)
    p.upper[:] = 10.0
    p.linear_cost[:] = 1.0
    p.add_disk(LinExpr([0], [1.0], 1.0), LinExpr([], [], 2.0), 2.5)
    sol = solve(p)
    assert sol.status == OPTIMAL and _holds_exactly(p, sol)
    assert sol.x[0] == pytest.approx(0.5, abs=1e-4)
    assert math.hypot(*p.disks[0].phasor(sol.x)) == pytest.approx(2.5, abs=1e-7)


def _proved_by_one_row(sol) -> bool:
    return sol.status == INFEASIBLE and sol.outer_iterations == 0 and sol.inner_iterations == 0


def test_infeasible_detection():
    # Each row's minimum over the box exceeds its right-hand side: proved with no Newton step.
    p = ConvexProgram.empty(1)
    p.lower[:] = 5.0
    p.upper[:] = 10.0
    p.add_ineq([0], [1.0], 1.0)
    assert _proved_by_one_row(solve(p))

    q = ConvexProgram.empty(1)
    q.upper[:] = 1.0
    q.add_ineq([0], [-1.0], -1.5)
    assert _proved_by_one_row(solve(q))


def test_equality_rows():
    p = ConvexProgram.empty(2)
    p.lower[:] = -10.0
    p.upper[:] = 10.0
    p.quad_cost[:] = 1.0
    p.add_eq([0, 1], [1.0, 1.0], 3.0)
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.5, 1.5], abs=1e-6)


def test_epigraph_term():
    p = ConvexProgram.empty(1)
    p.upper[:] = 2.0
    p.epigraph_terms.append(EpigraphTerm(1.0, [LinExpr([0], [1.0]), LinExpr([], [], 0.5)]))
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-0.5, abs=1e-6)


def test_norm_term():
    p = ConvexProgram.empty(2)
    p.upper[:] = 3.0
    p.linear_cost[:] = 0.01
    p.norm_terms.append(NormTerm(1.0, [LinExpr([0], [1.0], -1.0), LinExpr([1], [1.0], -1.0)]))
    sol = solve(p)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-4)
    assert sol.objective == pytest.approx(0.02, abs=1e-4)


def test_matches_grid_search_on_random_batch():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        prog = random_grid_instance(rng)
        ref, _ = grid_search_max(prog, step=0.01)
        sol = solve(prog)
        assert sol.status == OPTIMAL
        worst = max(worst, abs(sol.objective - ref))
    assert worst < 1e-2


def _grid_oracle_programs():
    # Two variables: a slack linear row, a binding offset disk, an epigraph
    # term (one constant-only piece) and a norm term, over a box that does not
    # start at 0.
    a = ConvexProgram.empty(2)
    a.lower[:] = [-0.3, 0.0]
    a.upper[:] = [0.9, 0.8]
    a.linear_cost[:] = [0.7, 0.45]
    a.quad_cost[:] = [0.35, 0.6]
    a.objective_const = 0.25
    a.add_ineq([0, 1], [1.0, 2.0], 1.3)
    a.add_disk(LinExpr([0], [1.0], -0.1), LinExpr([1], [0.5]), 0.35)
    a.epigraph_terms.append(EpigraphTerm(0.3, [
        LinExpr([0, 1], [1.0, -1.0]), LinExpr([], [], 0.2), LinExpr([0, 1], [0.5, 1.0], -0.6)]))
    a.norm_terms.append(NormTerm(0.4, [LinExpr([0], [1.0], -0.3), LinExpr([1], [1.0], -0.4)]))

    # Three variables: binding rows (one with a repeated index), a binding
    # coupling disk, and penalties over mixed expressions.
    b = ConvexProgram.empty(3)
    b.upper[:] = [1.0, 0.6, 0.8]
    b.linear_cost[:] = [0.5, -0.2, 0.9]
    b.quad_cost[:] = [0.3, 0.1, 0.7]
    b.add_ineq([0, 0, 2], [0.5, 0.5, 1.0], 1.1)
    b.add_ineq([1, 2], [-1.0, 1.0], 0.35)
    b.add_disk(LinExpr([0, 1], [1.0, 1.0]), LinExpr([2], [-1.0], 0.05), 0.6)
    b.epigraph_terms.append(EpigraphTerm(0.2, [LinExpr([2], [1.0], -0.5), LinExpr([0, 1], [0.3, 0.3])]))
    b.norm_terms.append(NormTerm(0.15, [LinExpr([0, 2], [1.0, -1.0]), LinExpr([1], [2.0], -0.3)]))

    # One variable, penalties only.
    c = ConvexProgram.empty(1)
    c.lower[:] = 0.2
    c.upper[:] = 1.4
    c.linear_cost[:] = 1.3
    c.epigraph_terms.append(EpigraphTerm(0.8, [LinExpr([0], [1.0], -0.9), LinExpr([], [], 0.0)]))
    c.norm_terms.append(NormTerm(0.5, [LinExpr([0], [1.0]), LinExpr([], [], 0.7)]))
    return [a, b, c]


@pytest.mark.parametrize("prog", _grid_oracle_programs(), ids=["disk_epi_norm_2d", "rows_3d", "penalties_1d"])
def test_grid_search_matches_pointwise_enumeration(prog):
    step, feas_tol = 0.05, 1e-9
    axes = [[lo + step * k for k in range(int(round((hi - lo) / step)) + 1)]
            for lo, hi in zip(prog.lower, prog.upper)]
    best_obj, best_x, n_feasible = -math.inf, None, 0
    for point in itertools.product(*axes):
        x = np.array(point)
        if any(expr.value(x) > rhs + feas_tol for expr, rhs in prog.linear_ineqs):
            continue
        if any(math.hypot(d.real.value(x), d.imag.value(x)) > d.limit + feas_tol for d in prog.disks):
            continue
        n_feasible += 1
        obj = prog.objective_value(x)
        if obj > best_obj:
            best_obj, best_x = obj, x
    if prog.linear_ineqs or prog.disks:
        assert 0 < n_feasible < math.prod(len(a) for a in axes)  # the rows and disks bind

    obj, x = grid_search_max(prog, step=step, feas_tol=feas_tol)
    assert x == pytest.approx(best_x, abs=1e-12)
    assert obj == pytest.approx(best_obj, abs=1e-12)


def test_grid_search_rejects_empty_grid():
    p = ConvexProgram.empty(2)
    p.upper[:] = 0.5
    p.add_ineq([0, 1], [-1.0, -1.0], -1.5)
    with pytest.raises(ValueError):
        grid_search_max(p, step=0.1)


def test_random_disk_programs_hold_their_disks_exactly():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        prog = ConvexProgram.empty(n)
        prog.upper[:] = rng.uniform(5, 40, n)
        prog.linear_cost[:] = rng.uniform(0.1, 1.0, n)
        for _ in range(int(rng.integers(1, 4))):
            re = rng.uniform(-1, 1, n)
            im = rng.uniform(-1, 1, n)
            limit = float(rng.uniform(5, 30))
            prog.add_disk(LinExpr(np.arange(n), re), LinExpr(np.arange(n), im), limit)
        sol = solve(prog)
        assert sol.status == OPTIMAL and _holds_exactly(prog, sol)
        assert disk_violation(prog, sol.x) <= 1e-8


def test_objective_reported_from_point_not_aux():
    # aux variables may sit above the true max; reported objective must not
    p = ConvexProgram.empty(1)
    p.upper[:] = 1.0
    p.linear_cost[:] = 1.0
    p.epigraph_terms.append(EpigraphTerm(0.5, [LinExpr([0], [1.0])]))
    sol = solve(p)
    assert sol.objective == pytest.approx(p.objective_value(sol.x))
    assert sol.objective == pytest.approx(0.5, abs=1e-6)


def test_deterministic_resolve():
    rng = np.random.default_rng(9)
    prog = random_grid_instance(rng)
    a = solve(prog)
    b = solve(prog)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective


def test_validate_rejects_bad_programs():
    p = ConvexProgram.empty(2)
    p.quad_cost[0] = -1.0
    with pytest.raises(ProgramError):
        solve(p)
    q = ConvexProgram.empty(1)
    q.lower[:] = 2.0
    q.upper[:] = 1.0
    with pytest.raises(ProgramError):
        solve(q)
    r = ConvexProgram.empty(1)
    r.epigraph_terms.append(EpigraphTerm(-1.0, [LinExpr([0], [1.0])]))
    with pytest.raises(ProgramError):
        solve(r)


def test_unbounded_box_needs_rows():
    p = ConvexProgram.empty(1)
    p.lower[:] = -np.inf
    p.upper[:] = np.inf
    with pytest.raises(ProgramError):
        solve(p)


def _site_program():
    """A soc lookahead program with every kind of row the scheduler emits.

    Quantized lower bounds, free load-variance variables tied in by equality
    rows, a demand-charge epigraph over every period, a p = 2 non-completion
    norm and one disk per constraint and period, oversubscribed so that disks
    bind.
    """
    net = synthetic_preset(6, 8.0)
    states = []
    for i, evse in enumerate(net.evses[:5]):
        state = EvState.start(Session(f"s{i}", evse.id, 0, 4 + i, 60.0 + 25.0 * i), evse)
        states.append(state)
    utility = UtilityConfig(
        ((QuickCharge(), 1.0), (EqualShare(), 0.01), (LoadVariance(), 1e-3),
         (DemandCharge(0.05, 2.0), 1.0), (NonCompletion(p=2), 0.02)),
        background_amps=lambda t: 3.0 * (t % 3),
    )
    prog, _ = build_opt(states, utility, net, 6, constraint_mode="soc", quantized=True)
    return prog


def _mixed_bounds_program():
    """Finite, one-sided and -inf bounds, an equality row, a disk and both penalty kinds."""
    p = ConvexProgram.empty(4)
    p.lower[:] = [-np.inf, 1.0, -1.0, -np.inf]
    p.upper[:] = [2.0, np.inf, 3.0, np.inf]
    p.linear_cost[:] = [1.0, -0.5, 0.3, 0.2]
    p.quad_cost[:] = [0.1, 0.2, 0.0, 0.05]
    p.add_ineq([0, 1], [-1.0, 1.0], 4.0)
    p.add_ineq([3], [1.0], 5.0)
    p.add_eq([0, 2, 3], [1.0, 1.0, -1.0], 0.5)
    p.add_disk(LinExpr([0, 1], [1.0, 0.5]), LinExpr([2], [1.0], 0.2), 2.5)
    p.epigraph_terms.append(EpigraphTerm(0.3, [LinExpr([0, 2], [1.0, 1.0]), LinExpr([], [], 0.4)]))
    p.norm_terms.append(NormTerm(0.2, [LinExpr([1], [1.0], -1.5), LinExpr([3], [1.0])]))
    return p


def _infeasible_program():
    p = ConvexProgram.empty(2)
    p.lower[:] = [5.0, -np.inf]
    p.upper[:] = [10.0, 1.0]
    p.add_ineq([0, 1], [1.0, -1.0], 2.0)
    p.add_eq([0, 1], [1.0, 1.0], 4.0)
    return p


def _jointly_infeasible_rows():
    """A free x with x <= 1 and -x <= -2: neither row alone has a finite minimum over the box."""
    p = ConvexProgram.empty(1)
    p.lower[:] = -np.inf
    p.linear_cost[:] = 1.0
    p.quad_cost[:] = 0.5
    p.add_ineq([0], [1.0], 1.0)
    p.add_ineq([0], [-1.0], -2.0)
    return p


def _jointly_infeasible_disk():
    """x + y >= 3 against |x + jy| <= 2 on [0, 4]^2: the row and each seed tangent hold alone."""
    p = ConvexProgram.empty(2)
    p.upper[:] = 4.0
    p.linear_cost[:] = [1.0, 0.5]
    p.add_ineq([0, 1], [-1.0, -1.0], -3.0)
    p.add_disk(LinExpr([0], [1.0]), LinExpr([1], [1.0]), 2.0)
    return p


def _factorization_programs():
    rng = np.random.default_rng(11)
    return [_site_program(), _mixed_bounds_program(), _infeasible_program()] + [
        random_grid_instance(rng) for _ in range(3)
    ] + [_jointly_infeasible_rows(), _jointly_infeasible_disk()]


@pytest.mark.parametrize("prog", _factorization_programs(),
                         ids=["site_soc", "mixed_bounds", "infeasible", "grid_a", "grid_b", "grid_c",
                              "joint_rows", "joint_disk"])
def test_dense_and_sparse_newton_steps_agree(prog, monkeypatch):
    assert prog.n + len(prog.epigraph_terms) + len(prog.norm_terms) <= solver_mod._DENSE_MAX_N
    dense = solve(prog)
    monkeypatch.setattr(solver_mod, "_DENSE_MAX_N", 0)
    sparse = solve(prog)
    assert dense.status == sparse.status
    assert dense.outer_iterations == sparse.outer_iterations
    assert dense.cuts_added == sparse.cuts_added
    if dense.status == OPTIMAL:
        assert dense.objective == pytest.approx(sparse.objective, rel=1e-8)


def test_factorization_programs_cover_their_features():
    programs = _factorization_programs()
    site, mixed, infeasible = programs[:3]
    assert site.linear_eqs and site.epigraph_terms and site.norm_terms and site.disks
    assert np.isinf(site.lower).any() and (site.lower > 0).any()
    sol = solve(site)
    assert sol.status == OPTIMAL and _holds_exactly(site, sol)
    assert any(math.hypot(*d.phasor(sol.x)) >= d.limit - 1e-6 for d in site.disks)  # a disk binds
    assert solve(mixed).status == OPTIMAL
    assert _proved_by_one_row(solve(infeasible))
    for joint in programs[-2:]:  # through the Newton steps and phase-1
        sol = solve(joint)
        assert sol.status == INFEASIBLE and sol.outer_iterations == 1 and sol.inner_iterations > 0


def test_inner_iterations_one_count_per_outer_pass():
    for prog in _factorization_programs():
        sol = solve(prog)
        assert sol.outer_iterations == (sol.inner_iterations > 0)
        assert sol.outer_iterations > 0 or _proved_by_one_row(sol)


def test_row_store_reads_back_its_rows():
    rows = RowStore()
    rows.append([2, 0], [1.5, -1.0], 3.0)
    rows.extend(np.array([1, 0, 2]), np.array([2.0, 0.5, 1.0]), [1, 2], [4.0, -1.0])
    rows.append([], [], 0.25)
    assert len(rows) == 4
    got = [(e.idx.tolist(), e.coef.tolist(), e.const, rhs) for e, rhs in rows]
    assert got == [([2, 0], [1.5, -1.0], 0.0, 3.0), ([1], [2.0], 0.0, 4.0),
                   ([0, 2], [0.5, 1.0], 0.0, -1.0), ([], [], 0.0, 0.25)]
    assert rows[-3][0].idx.tolist() == [1]
    with pytest.raises(IndexError):
        rows[4]
    with pytest.raises(ValueError):
        rows[0][0].coef[0] = 9.0  # views of the store are read-only

    copy = rows.copy()
    copy.append([1], [1.0], 1.0)
    assert (len(rows), len(copy)) == (4, 5)
    with pytest.raises(ProgramError):
        rows.append([0, 1], [1.0], 1.0)
    with pytest.raises(ProgramError):
        rows.extend([0, 1], [1.0, 1.0], [1], [1.0])
    assert len(rows) == 4


def test_solve_leaves_the_program_rows_alone():
    prog = _site_program()
    count = len(prog.linear_ineqs)
    before = [a.copy() for a in prog.linear_ineqs.arrays()]
    sol = solve(prog)
    assert sol.status == OPTIMAL and sol.cuts_added == 0
    assert len(prog.linear_ineqs) == count
    for a, b in zip(prog.linear_ineqs.arrays(), before):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_failed_cholesky_retries_the_step_with_a_larger_delta(monkeypatch):
    solver_mod._import_scipy()
    lapack = solver_mod.sla.get_lapack_funcs
    failed, calls = [], []

    def flaky_lapack(names, arrays=(), **kwargs):
        potrf, potrs = lapack(names, arrays, **kwargs)

        def potrf_failing_once(a, **kw):
            c, info = potrf(a, **kw)
            if not failed:
                failed.append(True)
                return c, 1  # as LAPACK reports a matrix that is not positive definite
            return c, info

        return potrf_failing_once, potrs

    normal_step = solver_mod._normal_step

    def recording_normal_step(ineq, As, p):
        factor = normal_step(ineq, As, p)

        def recorded(p_reg, d, delta, scaling=None):
            calls.append((delta, d.copy()))
            return factor(p_reg, d, delta, scaling)

        return recorded

    monkeypatch.setattr(solver_mod.sla, "get_lapack_funcs", flaky_lapack)
    monkeypatch.setattr(solver_mod, "_normal_step", recording_normal_step)
    without_cones = _mixed_bounds_program()
    without_cones.disks.clear()
    without_cones.norm_terms.clear()
    for prog in (_mixed_bounds_program(), without_cones):
        failed.clear()
        calls.clear()
        sol = solve(prog)
        assert failed == [True]
        (delta, d), (retry_delta, retry_d) = calls[:2]
        assert (delta, retry_delta) == (1e-9, pytest.approx(1e-7))  # the same iterate, refactored with 100x delta
        assert retry_d.tobytes() == d.tobytes()  # on P and Ax = b only: the floor under s/z stays
        assert sol.status == OPTIMAL


def test_optimal_solutions_report_residuals_within_the_inner_tolerance():
    optimal = 0
    for prog in _factorization_programs():
        sol = solve(prog)
        if sol.status == OPTIMAL:
            optimal += 1
            residuals = (sol.primal_residual, sol.dual_residual, sol.mu)
            assert all(0.0 <= r <= 1e-8 for r in residuals), residuals
    assert optimal == 5


_COEFS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _programs_around_a_feasible_point(draw):
    """A program whose rows all hold at a known point x_f of its box, and x_f.

    Bounds lie up to 5 below and above x_f or are infinite, rows have signed
    coefficients and right-hand sides at or above G x_f, and a positive
    quadratic cost keeps the optimum finite.
    """
    n = draw(st.integers(1, 4))
    xf = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    gap = st.one_of(st.floats(0.0, 5.0), st.just(np.inf))
    prog = ConvexProgram.empty(n)
    prog.lower[:] = xf - np.array(draw(st.lists(gap, min_size=n, max_size=n)))
    prog.upper[:] = xf + np.array(draw(st.lists(gap, min_size=n, max_size=n)))
    prog.linear_cost[:] = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    prog.quad_cost[:] = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(1, 4))):
        coef = np.array(draw(st.lists(_COEFS, min_size=n, max_size=n)))
        prog.add_ineq(np.arange(n), coef, float(coef @ xf) + draw(st.floats(0.0, 5.0)))
    return prog, xf


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_programs_around_a_feasible_point())
def test_programs_with_a_feasible_point_are_never_proved_infeasible(case):
    prog, xf = case
    assert row_violation(prog, xf) <= 1e-9
    assert solve(prog).status != INFEASIBLE


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_programs_around_a_feasible_point(), st.data())
def test_a_row_below_its_box_minimum_past_the_threshold_is_proved_without_a_newton_step(case, data):
    prog, xf = case
    k = data.draw(st.integers(0, len(prog.linear_ineqs) - 1))
    expr, _ = prog.linear_ineqs[k]
    # Close the bounds row k's minimum needs, then move its right-hand side
    # below that minimum by f times the phase-1 threshold, times 1 + ||row||_1:
    # proved at f >= 2, left to the interior point at f <= 1/2.
    needs_lower, needs_upper = expr.coef > 0, expr.coef < 0  # rows span every variable in order
    open_lower, open_upper = needs_lower & np.isinf(prog.lower), needs_upper & np.isinf(prog.upper)
    prog.lower[open_lower] = xf[open_lower] - 1.0
    prog.upper[open_upper] = xf[open_upper] + 1.0
    low = float(expr.coef @ np.where(needs_lower, prog.lower, np.where(needs_upper, prog.upper, 0.0)))
    l1 = float(np.abs(expr.coef).sum())
    scale = max([abs(low)] + [abs(r) for _, r in prog.linear_ineqs]
                + np.abs(prog.lower[np.isfinite(prog.lower)]).tolist() + np.abs(prog.upper[np.isfinite(prog.upper)]).tolist())
    f = data.draw(st.one_of(st.floats(2.0, 1e6), st.floats(0.0, 0.5)))
    rows = RowStore()
    for j, (e, r) in enumerate(prog.linear_ineqs):
        rows.append(e.idx, e.coef, low - f * (1.0 + l1) * 1e-7 * (1.0 + scale) if j == k else r)
    prog.linear_ineqs = rows

    sol = solve(prog)
    if f <= 0.5:
        assert sol.outer_iterations > 0 and sol.inner_iterations > 0
        return
    assert _proved_by_one_row(sol)
    lo = np.where(np.isfinite(prog.lower), prog.lower, 0.0)
    assert sol.x.tolist() == (0.5 * (lo + np.where(np.isfinite(prog.upper), prog.upper, lo + 2.0))).tolist()
    assert math.isnan(sol.objective) and sol.cuts_added == 0


@st.composite
def _small_cone_programs(draw):
    """n <= 3 on a box [0, width]^n: one or two disks, an epigraph term and a p = 2 norm term.

    Disk limits lie on 0.01 multiples and each disk holds at x = 0, so the
    program is feasible; costs and penalty weights are small against the
    quadratic terms, so the best point of a 0.01 grid lies within 1e-2 of
    the optimum.
    """
    n = draw(st.integers(1, 3))
    width = draw(st.sampled_from([0.3, 0.4] if n == 3 else [0.4, 0.6, 0.8]))
    coefs = st.lists(st.sampled_from([-1.0, -0.5, 0.5, 1.0]), min_size=n, max_size=n)
    small = st.floats(-0.2, 0.2).map(lambda v: round(v, 2))

    def expr():
        return LinExpr(np.arange(n), draw(coefs), draw(small))

    prog = ConvexProgram.empty(n)
    prog.upper[:] = width
    prog.linear_cost[:] = draw(st.lists(st.floats(-0.3, 0.3), min_size=n, max_size=n))
    prog.quad_cost[:] = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(1, 2))):
        re, im = expr(), expr()
        floor = math.hypot(re.const, im.const)
        prog.add_disk(re, im, math.ceil(100 * (floor + draw(st.floats(0.05, 0.6)) * width)) / 100)
    prog.epigraph_terms.append(EpigraphTerm(draw(st.floats(0.05, 0.3)), [expr(), expr()]))
    prog.norm_terms.append(NormTerm(draw(st.floats(0.05, 0.3)), [expr(), expr()]))
    return prog


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_small_cone_programs())
def test_cone_programs_match_the_grid_oracle(prog):
    ref, _ = grid_search_max(prog, step=0.01)
    sol = solve(prog)
    assert sol.status == OPTIMAL and _holds_exactly(prog, sol)
    assert abs(sol.objective - ref) <= 1e-2
    assert sol.objective >= ref - 1e-6  # the grid's best point is feasible, so no better than the optimum

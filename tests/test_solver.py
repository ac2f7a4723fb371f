import itertools
import math

import numpy as np
import pytest

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
    add_soc_cut,
    solve,
)
from evsched.workload import Session
from oracles import grid_search_max, random_grid_instance


def test_disk_constrained_linear_max():
    # maximize x + y inside the radius-sqrt(2) disk: optimum (1, 1)
    p = ConvexProgram.empty(2)
    p.upper[:] = 2.0
    p.linear_cost[:] = 1.0
    p.add_disk(LinExpr([0], [1.0]), LinExpr([1], [1.0]), math.sqrt(2))
    sol = solve(p, tol=1e-6)
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([1.0, 1.0], abs=1e-5)
    assert sol.objective == pytest.approx(2.0, abs=1e-5)
    assert sol.max_violation <= 1e-6


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


def test_cut_geometry():
    p = ConvexProgram.empty(2)
    p.upper[:] = 10.0
    p.add_disk(LinExpr([0], [1.0]), LinExpr([1], [1.0]), 2.5)
    expr, rhs = add_soc_cut(p, 0, np.array([3.0, 4.0]))
    assert list(expr.idx) == [0, 1]
    assert expr.coef == pytest.approx([0.6, 0.8])
    assert rhs == pytest.approx(2.5)
    # cut was appended to the program
    assert len(p.linear_ineqs) == 1
    with pytest.raises(ValueError):
        add_soc_cut(p, 0, np.array([1.0, 1.0]))


def test_cut_accounts_for_offsets():
    p = ConvexProgram.empty(1)
    p.upper[:] = 10.0
    p.add_disk(LinExpr([0], [1.0], 1.0), LinExpr([], [], 2.0), 2.0)
    expr, rhs = add_soc_cut(p, 0, np.array([3.0]))
    # phasor at x=3 is (4, 2), unit (0.894.., 0.447..)
    mag = math.hypot(4.0, 2.0)
    assert expr.coef == pytest.approx([4.0 / mag])
    assert rhs == pytest.approx(2.0 - (4.0 / mag) * 1.0 - (2.0 / mag) * 2.0)


def test_infeasible_detection():
    p = ConvexProgram.empty(1)
    p.lower[:] = 5.0
    p.upper[:] = 10.0
    p.add_ineq([0], [1.0], 1.0)
    assert solve(p).status == INFEASIBLE

    q = ConvexProgram.empty(1)
    q.upper[:] = 1.0
    q.add_ineq([0], [-1.0], -1.5)
    assert solve(q).status == INFEASIBLE


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
    sol = solve(p, tol=1e-6)
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


def test_violation_history_nonincreasing():
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
        sol = solve(prog, tol=1e-6)
        assert sol.status == OPTIMAL
        hist = sol.violation_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-7
        assert hist[-1] <= 1e-6


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
    norm and one disk per constraint and period, oversubscribed so that cuts
    are needed.
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


def _factorization_programs():
    rng = np.random.default_rng(11)
    return [_site_program(), _mixed_bounds_program(), _infeasible_program()] + [
        random_grid_instance(rng) for _ in range(3)
    ]


@pytest.mark.parametrize("prog", _factorization_programs(),
                         ids=["site_soc", "mixed_bounds", "infeasible", "grid_a", "grid_b", "grid_c"])
def test_dense_and_sparse_newton_steps_agree(prog, monkeypatch):
    assert prog.n + len(prog.epigraph_terms) + len(prog.norm_terms) <= solver_mod._DENSE_MAX_N
    dense = solve(prog, tol=1e-6)
    monkeypatch.setattr(solver_mod, "_DENSE_MAX_N", 0)
    sparse = solve(prog, tol=1e-6)
    assert dense.status == sparse.status
    assert dense.outer_iterations == sparse.outer_iterations
    assert dense.cuts_added == sparse.cuts_added
    if dense.status == OPTIMAL:
        assert dense.objective == pytest.approx(sparse.objective, rel=1e-8)


def test_factorization_programs_cover_their_features():
    site, mixed, infeasible = _factorization_programs()[:3]
    assert site.linear_eqs and site.epigraph_terms and site.norm_terms and site.disks
    assert np.isinf(site.lower).any() and (site.lower > 0).any()
    sol = solve(site, tol=1e-6)
    assert sol.status == OPTIMAL and sol.cuts_added > 0
    assert solve(mixed, tol=1e-6).status == OPTIMAL
    assert solve(infeasible).status == INFEASIBLE


def test_inner_iterations_one_count_per_outer_pass():
    for prog in _factorization_programs():
        sol = solve(prog, tol=1e-6)
        assert len(sol.inner_iterations) == sol.outer_iterations
        assert all(k > 0 for k in sol.inner_iterations)

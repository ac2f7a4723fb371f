"""Concave quadratic maximization over boxes, linear rows, disk and norm constraints.

Programs here maximize

    f'x - sum_i d_i x_i^2 + const
        - sum_e w_e * max_m(a_em'x + b_em)          (epigraph terms)
        - sum_n w_n * || (a_nm'x + b_nm)_m ||_2     (norm terms)

subject to box bounds, linear inequality and equality rows, and magnitude
("disk") constraints  |(re'x + o_re) + j(im'x + o_im)| <= limit.

A program keeps its linear rows in a ``RowStore``: every row's indices and
coefficients back to back in two flat arrays, with per-row lengths and
right-hand sides. Builders append rows one at a time or as whole blocks of
arrays, and the solver reads the block as it is as a csr matrix. Read as a
sequence, the store yields one ``(LinExpr, rhs)`` per row.

Disks and norms are handled by polyhedral outer approximation: each disk is
seeded with a regular polygon of tangent half-planes and tightened with
supporting-hyperplane cuts at violating points; every violated constraint
receives a cut each outer iteration, so the relaxation only shrinks. The
polygon contains the disk, hence intermediate iterates can overshoot a limit
by a few percent at most and the final iterate by at most ``tol``. Cuts go
to the solve's own copy of the rows, never to the program.

The inner quadratic program is solved by a Mehrotra predictor-corrector
primal-dual interior-point method (Wright, 1997, normal-equation form). Box
bounds are not rows: each finite bound only adds its barrier weight z/s to
the diagonal. Each Newton step solves the regularized normal equations
(P + delta + G'WG) dx = r, with W the rows' weights z/s. As in OSQP, what
depends only on the program is fixed once per call: the pattern of G'WG,
the row scaling and the LAPACK routines. An iteration then does numeric
work only: G'WG's values by one bincount, products by G and G' by bincounts
over the csr entries, G dx once per step, and the step length in one pass
over s and z. Programs with up to a thousand variables factor the normal
matrix densely by Cholesky (LAPACK potrf/potrs); larger ones factor the
equivalent sparse KKT system by LU. Epigraph and norm values become
auxiliary variables minimized from above, so reported objectives are
recomputed exactly from the returned point. A solution reports its last
pass's relative primal and dual residuals and mu next to its status.

Infeasibility is proved two ways. Before the first interior-point pass, one
pass over the rows (program, auxiliary and seed tangents) takes each row's
minimum over the box: a row whose minimum exceeds its right-hand side by
more than the phase-1 threshold, relative to 1 + its l1 norm, proves the
program infeasible with no Newton step. Otherwise, when an interior-point
pass does not converge, a phase-1 solve that minimizes the worst violation
of every row and bound decides, and catches rows infeasible only jointly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# scipy takes about 30 MB and a quarter of a second to import, and only a
# solve needs it: the baselines and the simulator never do. ``solve`` binds
# these names on its first call.
sla = sp = spla = None

__all__ = [
    "LinExpr",
    "DiskConstraint",
    "EpigraphTerm",
    "NormTerm",
    "ConvexProgram",
    "RowStore",
    "Solution",
    "ProgramError",
    "add_soc_cut",
    "solve",
    "OPTIMAL",
    "INFEASIBLE",
    "MAX_ITER",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

SEED_TANGENTS = 16
_INNER_MAX_ITER = 100


class ProgramError(ValueError):
    """Raised when a program violates its structural invariants."""


@dataclass(frozen=True, eq=False)
class LinExpr:
    """Sparse affine expression coef @ x[idx] + const."""

    idx: np.ndarray
    coef: np.ndarray
    const: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "idx", np.asarray(self.idx, dtype=int))
        object.__setattr__(self, "coef", np.asarray(self.coef, dtype=float))
        if self.idx.shape != self.coef.shape:
            raise ProgramError("LinExpr index/coefficient length mismatch")

    def value(self, x: np.ndarray) -> float:
        return float(self.coef @ x[self.idx] + self.const)


@dataclass(eq=False)
class DiskConstraint:
    """|(real(x), imag(x))| <= limit on the 2-D image of an affine map."""

    real: LinExpr
    imag: LinExpr
    limit: float

    def phasor(self, x: np.ndarray) -> tuple[float, float]:
        return self.real.value(x), self.imag.value(x)

    def violation(self, x: np.ndarray) -> float:
        re, im = self.phasor(x)
        return math.hypot(re, im) - self.limit


@dataclass(eq=False)
class EpigraphTerm:
    """Penalty weight * max_m(expr_m), subtracted from the objective."""

    weight: float
    exprs: list[LinExpr]

    def value(self, x: np.ndarray) -> float:
        return max(e.value(x) for e in self.exprs)


@dataclass(eq=False)
class NormTerm:
    """Penalty weight * ||(expr_m)_m||_2, subtracted from the objective."""

    weight: float
    exprs: list[LinExpr]

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.array([e.value(x) for e in self.exprs])

    def value(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.values(x)))


class RowStore(Sequence):
    """Sparse rows coef @ x[idx] against a right-hand side, held as flat arrays.

    Row k's indices and coefficients are the next ``lens[k]`` entries of
    ``idx`` and ``coef``. Appends are collected and joined on the next read,
    so building row by row or block by block costs one concatenation. As a
    sequence, item k is ``(LinExpr, rhs)`` over read-only views of the arrays.
    """

    def __init__(self) -> None:
        self._joined = (np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
        self._parts: list[tuple[np.ndarray, ...]] = []
        self._starts: np.ndarray | None = None
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, k: int) -> tuple[LinExpr, float]:
        k = range(self._count)[k]  # IndexError past either end
        idx, coef, _, rhs = self.arrays()
        a, b = self._row_starts()[k : k + 2]
        return LinExpr(idx[a:b], coef[a:b]), float(rhs[k])

    def append(self, idx: Sequence[int], coef: Sequence[float], rhs: float) -> None:
        """One row coef @ x[idx] against rhs."""
        idx = np.asarray(idx, dtype=int)
        self.extend(idx, coef, [idx.size], [rhs])

    def extend(self, idx, coef, lens, rhs) -> None:
        """Rows as flat arrays: row k is the next lens[k] entries of idx and coef."""
        idx, coef = np.asarray(idx, dtype=int), np.asarray(coef, dtype=float)
        lens, rhs = np.asarray(lens, dtype=int), np.asarray(rhs, dtype=float)
        if idx.ndim != 1 or idx.shape != coef.shape or lens.shape != rhs.shape or lens.sum() != len(idx):
            raise ProgramError("row index, coefficient and length arrays do not match")
        if len(rhs):
            self._parts.append((idx, coef, lens, rhs))
            self._count += len(rhs)
            self._starts = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(idx, coef, lens, rhs) of every row, read-only."""
        if self._parts:
            joined = tuple(np.concatenate(group) for group in zip(self._joined, *self._parts))
            for a in joined:
                a.setflags(write=False)
            self._joined, self._parts = joined, []
        return self._joined

    def _row_starts(self) -> np.ndarray:
        """Offsets of each row's first entry in ``idx``, then the total length."""
        if self._starts is None:
            self._starts = np.concatenate([[0], np.cumsum(self.arrays()[2])])
        return self._starts

    def copy(self) -> "RowStore":
        """Another store holding the same rows; appending to either leaves the other as it is."""
        out = RowStore()
        out._joined, out._count = self.arrays(), self._count
        return out

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """coef @ x[idx] - rhs, one entry per row."""
        idx, coef, lens, rhs = self.arrays()
        return np.bincount(np.repeat(np.arange(len(rhs)), lens), weights=coef * x[idx], minlength=len(rhs)) - rhs

    def csr(self, n: int) -> tuple["sp.csr_matrix", np.ndarray]:
        """The rows as a csr matrix over n columns, and their right-hand sides."""
        idx, coef, _, rhs = self.arrays()
        return sp.csr_matrix((coef, idx, self._row_starts()), shape=(len(rhs), n)), rhs


@dataclass(eq=False)
class ConvexProgram:
    n: int
    linear_cost: np.ndarray
    quad_cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    linear_ineqs: RowStore = field(default_factory=RowStore)  # rows <= rhs
    linear_eqs: RowStore = field(default_factory=RowStore)  # rows == rhs
    disks: list[DiskConstraint] = field(default_factory=list)
    epigraph_terms: list[EpigraphTerm] = field(default_factory=list)
    norm_terms: list[NormTerm] = field(default_factory=list)
    objective_const: float = 0.0

    @classmethod
    def empty(cls, n: int) -> "ConvexProgram":
        return cls(
            n=n,
            linear_cost=np.zeros(n),
            quad_cost=np.zeros(n),
            lower=np.zeros(n),
            upper=np.full(n, np.inf),
        )

    def add_ineq(self, idx: Sequence[int], coef: Sequence[float], rhs: float) -> None:
        self.linear_ineqs.append(idx, coef, rhs)

    def add_ineqs(self, idx: np.ndarray, coef: np.ndarray, lens: np.ndarray, rhs: np.ndarray) -> None:
        """Inequality rows as flat arrays; see ``RowStore.extend``."""
        self.linear_ineqs.extend(idx, coef, lens, rhs)

    def add_eq(self, idx: Sequence[int], coef: Sequence[float], rhs: float) -> None:
        self.linear_eqs.append(idx, coef, rhs)

    def add_disk(self, real: LinExpr, imag: LinExpr, limit: float) -> None:
        self.disks.append(DiskConstraint(real, imag, float(limit)))

    def validate(self) -> None:
        for name in ("linear_cost", "quad_cost", "lower", "upper"):
            arr = getattr(self, name)
            if np.asarray(arr).shape != (self.n,):
                raise ProgramError(f"{name} must have shape ({self.n},)")
        if np.any(self.quad_cost < 0):
            raise ProgramError("quadratic coefficients must be nonnegative (concave objective)")
        if np.any(self.lower > self.upper):
            raise ProgramError("lower bound exceeds upper bound")
        for d in self.disks:
            if d.limit < 0:
                raise ProgramError("disk limit must be nonnegative")
        for t in list(self.epigraph_terms) + list(self.norm_terms):
            if t.weight < 0:
                raise ProgramError("penalty weights must be nonnegative")
            if not t.exprs:
                raise ProgramError("penalty term needs at least one expression")

    def objective_value(self, x: np.ndarray) -> float:
        """Exact objective at x (auxiliary-variable free)."""
        v = float(self.linear_cost @ x - self.quad_cost @ (x * x)) + self.objective_const
        for term in self.epigraph_terms:
            v -= term.weight * term.value(x)
        for term in self.norm_terms:
            v -= term.weight * term.value(x)
        return v

    def max_violation(self, x: np.ndarray) -> float:
        """Worst disk-constraint violation at x, in limit units (0 if none)."""
        worst = 0.0
        for d in self.disks:
            worst = max(worst, d.violation(x))
        return worst

    def row_violation(self, x: np.ndarray) -> float:
        """Worst violation at x of the bounds, inequality rows and equality rows (0 if none)."""
        return max(
            0.0,
            float(np.max(self.lower - x)),
            float(np.max(x - self.upper)),
            float(np.max(self.linear_ineqs.residuals(x), initial=0.0)),
            float(np.max(np.abs(self.linear_eqs.residuals(x)), initial=0.0)),
        )


@dataclass(eq=False)
class Solution:
    """What ``solve`` returns: the point, its status and how the solve went.

    A program proved infeasible by one row before any interior-point pass
    carries the start point's program part as x, a NaN objective and
    max_violation, 0 outer iterations, no cuts and an empty
    ``inner_iterations``.
    """

    x: np.ndarray
    status: str
    objective: float
    max_violation: float
    outer_iterations: int
    cuts_added: int
    violation_history: list[float]
    inner_iterations: list[int] = field(default_factory=list)  # Mehrotra iterations, one per outer pass
    # The last pass's scaled primal and dual residuals and complementarity mu
    # at x, relative to 1 + max|rhs| and 1 + max|cost| as its stopping test
    # measures them: an optimal pass has each at most its tolerance.
    primal_residual: float = math.nan
    dual_residual: float = math.nan
    mu: float = math.nan


def add_soc_cut(program: ConvexProgram, disk_index: int, x: np.ndarray) -> tuple[LinExpr, float]:
    """Supporting half-plane of a violated disk at the point's phasor image.

    For a phasor u outside the disk of radius ``limit``, the tangent at the
    boundary point nearest u is  (u/|u|) . v <= limit, which cuts u off while
    keeping the whole disk. Appends the row to the program and returns it.
    Raises ValueError if the point does not actually violate the disk.
    """
    disk = program.disks[disk_index]
    re, im = disk.phasor(x)
    mag = math.hypot(re, im)
    if mag <= disk.limit:
        raise ValueError(f"point does not violate disk {disk_index} ({mag:.6g} <= {disk.limit:.6g})")
    idx, coef, rhs = _tangent_rows(disk, np.array([re / mag]), np.array([im / mag]))
    program.add_ineq(idx, coef[0], rhs[0])
    return program.linear_ineqs[-1]


_SEED_ANGLES = 2.0 * np.pi * (np.arange(SEED_TANGENTS) + 0.5) / SEED_TANGENTS


def _tangent_rows(disk: DiskConstraint, c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-planes c_k re + s_k im <= limit on the disk's phasor, one per direction k.

    Returns the union index of the disk's real and imaginary parts, the
    (len(c), len(idx)) coefficient block over it and the right-hand sides.
    """
    idx, inv = np.unique(np.concatenate([disk.real.idx, disk.imag.idx]), return_inverse=True)
    k = len(disk.real.idx)
    re = np.bincount(inv[:k], weights=disk.real.coef, minlength=len(idx))
    im = np.bincount(inv[k:], weights=disk.imag.coef, minlength=len(idx))
    coef = np.outer(c, re) + np.outer(s, im)
    rhs = disk.limit - c * disk.real.const - s * disk.imag.const
    return idx, coef, rhs


def _row_scaled(M: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """M with each row divided by its max |entry| (1.0 for empty rows), and those divisors.

    Each row's entries come out in reverse, the order scipy's product
    ``diags(1 / scale) @ M`` gives them, so sums along a row round as they do
    over that product and solutions stay bit-identical to it. Unlike the
    product this keeps duplicate entries and explicit zeros, which changes
    no value, only perhaps the last bit of a sum.
    """
    lens = np.diff(M.indptr)
    scale = np.ones(M.shape[0])
    if M.nnz:
        scale[lens > 0] = np.maximum.reduceat(np.abs(M.data), M.indptr[:-1][lens > 0])
    scale = np.maximum(scale, 1e-12)
    row_of = np.repeat(np.arange(M.shape[0]), lens)
    rev = M.indptr[row_of] + M.indptr[row_of + 1] - 1 - np.arange(M.nnz)
    data = M.data[rev] * (1.0 / scale)[row_of]
    return sp.csr_matrix((data, M.indices[rev], M.indptr), shape=M.shape), scale


class _Inequalities:
    """Gx <= h and the finite bounds, laid out as [rows, upper bounds, lower bounds].

    Bounds are applied by indexing; ``stacked`` writes them out as unit rows
    for the callers that need one matrix.
    """

    def __init__(self, G: sp.csr_matrix, h: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.G = G
        self.iu = np.flatnonzero(np.isfinite(upper))
        self.il = np.flatnonzero(np.isfinite(lower))
        self.h = np.concatenate([h, upper[self.iu], -lower[self.il]])
        self.m = G.shape[0]
        self.k = self.m + len(self.iu)
        self.n = G.shape[1]
        # Products by G and G' as bincounts over the csr entries: each sum
        # runs in entry order, as scipy's csr product would run it.
        self.row_of = np.repeat(np.arange(self.m), np.diff(G.indptr))

    def dot(self, x: np.ndarray) -> np.ndarray:
        G = self.G
        Gx = np.bincount(self.row_of, weights=G.data * x[G.indices], minlength=self.m)
        return np.concatenate([Gx, x[self.iu], -x[self.il]])

    def tdot(self, z: np.ndarray) -> np.ndarray:
        G = self.G
        out = np.bincount(G.indices, weights=G.data * z[self.row_of], minlength=self.n).astype(float, copy=False)  # int when G is empty
        out[self.iu] += z[self.m : self.k]
        out[self.il] -= z[self.k :]
        return out

    def bound_diag(self, w: np.ndarray) -> np.ndarray:
        """Diagonal the bounds add to G' diag(w) G."""
        return (np.bincount(self.iu, weights=w[self.m : self.k], minlength=self.n)
                + np.bincount(self.il, weights=w[self.k :], minlength=self.n))

    def stacked(self) -> sp.csr_matrix:
        k = len(self.h) - self.m
        data = np.concatenate([np.ones(len(self.iu)), -np.ones(len(self.il))])
        E = sp.csr_matrix((data, (np.arange(k), np.concatenate([self.iu, self.il]))), shape=(k, self.n))
        return sp.vstack([self.G, E], format="csr")


# Newton steps of programs with at most this many variables are solved on the
# dense normal matrix, larger ones on the sparse KKT matrix. Measured on 2 vCPUs
# with one BLAS thread: over 46 lookahead-144 programs of criterion 3's
# congested day the dense path took 0.10 s against 0.23 s below n = 250 and
# 4.1 s against 5.4 s at n = 750-1039, but on that day's hindsight program
# (n = 1896) 2.9-3.0 s against 2.7 s. The dense matrix also grows as n^2
# (474 MB at the billing week's n = 7697).
_DENSE_MAX_N = 1000


def _normal_step(ineq: _Inequalities, As, p: int):
    """Newton steps on the dense normal matrix N = P + delta + G' W G (Cholesky).

    Each row adds W_r a_ri a_rj to N at (i, j) for every pair of its
    nonzeros. Those (position, row, product) triples are fixed for the call,
    so each iteration forms N's lower triangle with one bincount. Equality
    rows are eliminated through the Schur complement A N^-1 A' + delta of the
    quasi-definite system [[N, A'], [A, -delta]].
    """
    G, n, row_of = ineq.G, ineq.n, ineq.row_of
    lens = np.diff(G.indptr)
    reps = lens[row_of]
    first = np.repeat(np.arange(G.nnz), reps)
    second = np.repeat(G.indptr[:-1][row_of], reps) + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
    ci, cj = G.indices[first], G.indices[second]
    keep = ci >= cj
    first, second = first[keep], second[keep]
    pos = ci[keep] + cj[keep] * n  # column-major, so the buffer is Fortran-ordered for LAPACK
    row = row_of[first]
    prod = G.data[first] * G.data[second]
    Ad = As.toarray() if p else None
    potrf, potrs = sla.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))

    def cholesky(a):
        c, info = potrf(a, lower=True, overwrite_a=True, clean=False)
        if info:
            raise sla.LinAlgError(f"Cholesky factorization failed (info {info})")
        return c

    def cho_solve(c, b):
        return potrs(c, b, lower=True)[0]

    def factor(p_reg, d, delta):
        w = 1.0 / d
        buf = np.bincount(pos, weights=prod * w[row], minlength=n * n).astype(float, copy=False)  # int when G is empty
        buf[:: n + 1] += p_reg + ineq.bound_diag(w)
        cN = cholesky(buf.reshape((n, n), order="F"))
        if p:
            S = Ad @ cho_solve(cN, Ad.T)
            S[np.diag_indices(p)] += delta
            cS = cholesky(S)

        def solve_step(rd, re, r3):
            wr3 = w * r3
            f = ineq.tdot(wr3) - rd
            dy = np.zeros(0)
            if p:
                dy = cho_solve(cS, Ad @ cho_solve(cN, f) + re)
                f = f - Ad.T @ dy
            dx = cho_solve(cN, f)
            Gdx = ineq.dot(dx)
            return dx, dy, w * Gdx - wr3, Gdx

        return solve_step

    return factor


def _kkt_step(ineq: _Inequalities, As, p: int):
    """Newton steps on the sparse regularized (n+p+m) KKT matrix (LU).

    Only the diagonal blocks change between iterations, so the matrix is
    assembled once per call and its diagonal rewritten in place.
    """
    n = ineq.n
    G = ineq.stacked()
    m = G.shape[0]
    blocks = [
        [sp.identity(n), As.T if p else None, G.T],
        [As, sp.identity(p) if p else None, None],
        [G, None, sp.identity(m)],
    ]
    if not p:
        blocks = [[blocks[0][0], blocks[0][2]], [blocks[2][0], blocks[2][2]]]
    K = sp.bmat(blocks, format="csc")
    K_coo = K.tocoo()  # same entry order as K.data, which runs column by column
    diag_pos = np.flatnonzero(K_coo.row == K_coo.col)

    def factor(p_reg, d, delta):
        K.data[diag_pos] = np.concatenate([p_reg, np.full(p, -delta), -d])
        lu = spla.splu(K)

        def solve_step(rd, re, r3):
            sol = lu.solve(np.concatenate([-rd, -re, r3]))
            return sol[:n], sol[n : n + p], sol[n + p :], ineq.dot(sol[:n])

        return solve_step

    return factor


def _step_length(s: np.ndarray, ds: np.ndarray, z: np.ndarray, dz: np.ndarray, tau: float) -> float:
    """The longest step that keeps s and z nonnegative, times tau, capped at 1."""
    v, dv = np.concatenate((s, z)), np.concatenate((ds, dz))
    neg = dv < 0
    return min(1.0, tau * float((-v[neg] / dv[neg]).min())) if neg.any() else 1.0


def _import_scipy() -> None:
    global sla, sp, spla
    if spla is None:
        import scipy.linalg as sla
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla


def _ipm_qp(P_diag, q, G, h, lower, upper, A, b, x0, feas_tol=1e-8, max_iter=_INNER_MAX_ITER):
    """Minimize 1/2 x'diag(P)x + q'x  s.t.  Gx <= h, lower <= x <= upper, Ax = b.

    Returns (x, status, iterations, residuals): residuals are the primal
    residual, dual residual and mu at x, relative to the scales the stopping
    test uses. G and the finite bounds together must have at least one row.
    """
    n = len(q)
    p = A.shape[0] if A is not None else 0

    # Scale inequality and equality rows to unit inf-norm; keeps the central
    # path well conditioned when limits span orders of magnitude. Bound rows
    # have unit norm already.
    Gs, g_scale = _row_scaled(G.tocsr())
    ineq = _Inequalities(Gs, h / g_scale, lower, upper)
    hs = ineq.h
    m = len(hs)
    if p:
        As, a_scale = _row_scaled(A.tocsr())
        bs = b / a_scale
    else:
        As, bs = None, np.zeros(0)
    factor = _normal_step(ineq, As, p) if n <= _DENSE_MAX_N else _kkt_step(ineq, As, p)

    x = np.asarray(x0, dtype=float).copy()
    s = np.maximum(hs - ineq.dot(x), 1.0)
    z = np.ones(m)
    y = np.zeros(p)
    delta = 1e-9
    q_scale = 1.0 + float(np.max(np.abs(q))) if n else 1.0
    h_scale = 1.0 + float(np.max(np.abs(hs))) if m else 1.0

    best = (np.inf, x.copy(), (math.nan,) * 3)
    for it in range(1, max_iter + 1):
        rd = P_diag * x + q + ineq.tdot(z) + (As.T @ y if p else 0.0)
        rp = ineq.dot(x) + s - hs
        re = (As @ x - bs) if p else np.zeros(0)
        mu = float(s @ z) / m

        pres = float(np.abs(rp).max()) if m else 0.0
        eres = float(np.abs(re).max()) if p else 0.0
        dres = float(np.abs(rd).max()) if n else 0.0
        merit = pres + eres + dres + mu
        residuals = (max(pres, eres) / h_scale, dres / q_scale, mu / q_scale)
        if merit < best[0]:
            best = (merit, x.copy(), residuals)
        if pres <= feas_tol * h_scale and eres <= feas_tol * h_scale and dres <= feas_tol * q_scale and mu <= feas_tol * q_scale:
            return x, OPTIMAL, it, residuals

        # Diverging multipliers mean the iteration is chasing an infeasibility
        # direction; stop and let the caller's phase-1 check classify it.
        dual_mass = float(np.abs(z).sum()) + float(np.abs(y).sum())
        if mu > 1e12 or dual_mass > 1e14:
            return best[1], MAX_ITER, it, best[2]

        # The step solves [[P + delta, A', G'], [A, -delta, 0], [G, 0, -(S/Z + delta)]];
        # a failed factorization retries with a larger delta everywhere.
        try:
            solve_step = factor(P_diag + delta, s / z + delta, delta)
        except (RuntimeError, sla.LinAlgError):
            delta *= 100.0
            if delta > 1e-2:
                return best[1], MAX_ITER, it, best[2]
            continue

        dx, dy, dz, Gdx = solve_step(rd, re, -rp + s)
        ds = -rp - Gdx
        alpha_aff = _step_length(s, ds, z, dz, 1.0)
        mu_aff = float((s + alpha_aff * ds) @ (z + alpha_aff * dz)) / m
        sigma = min(max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8), 0.9999)

        r3 = -rp + s + (ds * dz - sigma * mu) / z
        dx, dy, dz, Gdx = solve_step(rd, re, r3)
        ds = -rp - Gdx
        alpha = _step_length(s, ds, z, dz, 0.99)
        if alpha < 1e-12:
            return best[1], MAX_ITER, it, best[2]
        x += alpha * dx
        s += alpha * ds
        z += alpha * dz
        if p:
            y += alpha * dy

    return best[1], MAX_ITER, max_iter, best[2]


def _certify_infeasible(G, h, lower, upper, A, b, x0) -> bool:
    """Phase-1 check: minimize the worst violation t of every row and bound, Ax = b.

    Rows become Gx - t <= h and bounds x - t <= upper, -x - t <= -lower, so
    the program is always feasible; t >= -1 keeps it bounded and the
    interior-point method converges. A strictly positive optimal t proves
    the original system empty.
    """
    n = G.shape[1]
    rows = _Inequalities(G, h, lower, upper)
    Gb, hb = rows.stacked(), rows.h
    G1 = sp.hstack([Gb, -sp.csr_matrix(np.ones((Gb.shape[0], 1)))], format="csr")
    A1 = sp.hstack([A, sp.csr_matrix((A.shape[0], 1))], format="csr") if A is not None else None
    lower1 = np.concatenate([np.full(n, -np.inf), [-1.0]])
    P1 = np.full(n + 1, 1e-9)
    q1 = np.zeros(n + 1)
    q1[n] = 1.0
    t0 = float(np.max(Gb @ x0 - hb, initial=0.0)) + 1.0
    x1, status, _, _ = _ipm_qp(P1, q1, G1, hb, lower1, np.full(n + 1, np.inf), A1, b, np.concatenate([x0, [t0]]))
    if status != OPTIMAL:
        return False
    return x1[n] > _phase1_threshold(hb)


def _phase1_threshold(hb: np.ndarray) -> float:
    """Optimal phase-1 t above this proves empty a system with right-hand sides and bounds hb."""
    return 1e-7 * (1.0 + float(np.max(np.abs(hb), initial=0.0)))


def _one_row_infeasible(rows: RowStore, lower: np.ndarray, upper: np.ndarray) -> bool:
    """Whether one row's minimum over the box alone proves the program infeasible.

    The one-row bound test of LP presolve (Andersen and Andersen, 1995). At
    phase-1's optimum each bound may give way by t, so every row g with
    right-hand side h has t (1 + ||g||_1) >= min over the box of g'x - h: that
    excess over 1 + ||g||_1 is a floor under the optimal t, and a floor above
    ``_certify_infeasible``'s threshold is its verdict without a Newton step.
    A row whose minimum needs an infinite bound proves nothing; rows that are
    only jointly infeasible are left to phase-1.
    """
    idx, coef, lens, rhs = rows.arrays()
    bound = np.where(coef > 0, lower[idx], np.where(coef < 0, upper[idx], 0.0))
    row_of = np.repeat(np.arange(len(rhs)), lens)
    low = np.bincount(row_of, weights=coef * bound, minlength=len(rhs))
    l1 = np.bincount(row_of, weights=np.abs(coef), minlength=len(rhs))
    hb = np.concatenate([rhs, upper[np.isfinite(upper)], -lower[np.isfinite(lower)]])
    return bool(((low - rhs) / (1.0 + l1) > _phase1_threshold(hb)).any())


def _assemble(program: ConvexProgram):
    """Objective, bounds, inequality rows and equality rows over x and the auxiliaries.

    Auxiliaries (one per epigraph term, then one per norm term) are free. The
    inequality rows are a copy of the program's, so cuts appended to them
    leave the program as it is.
    """
    n = program.n
    n_aux = len(program.epigraph_terms) + len(program.norm_terms)
    ntot = n + n_aux

    P = np.concatenate([2.0 * program.quad_cost, np.zeros(n_aux)])
    q = np.concatenate(
        [-program.linear_cost,
         [t.weight for t in program.epigraph_terms],
         [t.weight for t in program.norm_terms]]
    )
    lower = np.concatenate([program.lower, np.full(n_aux, -np.inf)])
    upper = np.concatenate([program.upper, np.full(n_aux, np.inf)])

    rows = program.linear_ineqs.copy()
    # Epigraph rows e - z <= 0; norm rows +-e - z <= 0.
    aux_rows = [(e, 1.0, n + j) for j, term in enumerate(program.epigraph_terms) for e in term.exprs]
    aux_rows += [
        (e, sign, n + len(program.epigraph_terms) + j)
        for j, term in enumerate(program.norm_terms)
        for e in term.exprs
        for sign in (1.0, -1.0)
    ]
    if aux_rows:
        rows.extend(
            np.concatenate([np.append(e.idx, zi) for e, _, zi in aux_rows]),
            np.concatenate([np.append(sign * e.coef, -1.0) for e, sign, _ in aux_rows]),
            [len(e.idx) + 1 for e, _, _ in aux_rows],
            [-sign * e.const for e, sign, _ in aux_rows],
        )
    seed_c, seed_s = np.cos(_SEED_ANGLES), np.sin(_SEED_ANGLES)
    seeds = [_tangent_rows(disk, seed_c, seed_s) for disk in program.disks]
    if seeds:  # SEED_TANGENTS rows per disk, each over the disk's indices
        rows.extend(
            np.concatenate([np.tile(idx, SEED_TANGENTS) for idx, _, _ in seeds]),
            np.concatenate([coef.ravel() for _, coef, _ in seeds]),
            np.repeat([len(idx) for idx, _, _ in seeds], SEED_TANGENTS),
            np.concatenate([rhs for _, _, rhs in seeds]),
        )
    A, b = program.linear_eqs.csr(ntot)
    return P, q, lower, upper, rows, (A if A.shape[0] else None), b


def _initial_point(program: ConvexProgram, ntot: int) -> np.ndarray:
    x0 = np.zeros(ntot)
    lo = np.where(np.isfinite(program.lower), program.lower, 0.0)
    hi = np.where(np.isfinite(program.upper), program.upper, lo + 2.0)
    x0[: program.n] = 0.5 * (lo + hi)
    k = program.n
    for term in program.epigraph_terms:
        x0[k] = max(e.value(x0) for e in term.exprs) + 1.0
        k += 1
    for term in program.norm_terms:
        x0[k] = max(abs(e.value(x0)) for e in term.exprs) + 1.0
        k += 1
    return x0


def solve(program: ConvexProgram, tol: float = 1e-4, max_iter: int = 50) -> Solution:
    """Maximize the program's objective; see module docstring for the method.

    ``tol`` bounds the worst disk/norm violation of the returned point, in
    constraint units. ``max_iter`` caps outer (cutting-plane) iterations.
    Status is ``optimal``, ``infeasible``, or ``max_iter`` (iteration budget
    exhausted before the violation dropped below tol; the best point found is
    still returned).
    """
    program.validate()
    _import_scipy()
    inner_tol = min(1e-8, tol * 1e-2)
    P, q, lower, upper, rows, A, b = _assemble(program)
    if len(rows) == 0 and not (np.isfinite(lower).any() or np.isfinite(upper).any()):
        raise ProgramError("program has no inequality rows; add finite bounds")
    x0 = _initial_point(program, len(q))
    if _one_row_infeasible(rows, lower, upper):
        return Solution(x0[: program.n], INFEASIBLE, math.nan, math.nan, 0, 0, [])
    n_epi = len(program.epigraph_terms)
    history: list[float] = []
    inner: list[int] = []
    cuts = 0
    x_prog = None
    status = MAX_ITER
    outer = 0

    for outer in range(1, max_iter + 1):
        G, h = rows.csr(len(q))
        x_full, inner_status, iterations, residuals = _ipm_qp(P, q, G, h, lower, upper, A, b, x0, feas_tol=inner_tol)
        inner.append(iterations)
        x_prog = x_full[: program.n]

        if inner_status != OPTIMAL and _certify_infeasible(G, h, lower, upper, A, b, x0):
            return Solution(x_prog, INFEASIBLE, math.nan, math.nan, outer, cuts, history, inner, *residuals)

        worst = program.max_violation(x_prog)
        # Norm terms are relaxed the same way; treat z below the true norm as
        # a violation so cuts keep tightening the epigraph.
        for j, term in enumerate(program.norm_terms):
            zval = x_full[program.n + n_epi + j]
            worst = max(worst, term.value(x_prog) - zval)
        history.append(worst)
        if worst <= tol:
            status = OPTIMAL if inner_status == OPTIMAL else MAX_ITER
            break

        added = 0
        for disk in program.disks:
            if disk.violation(x_prog) > tol:
                re, im = disk.phasor(x_prog)
                mag = math.hypot(re, im)
                idx, coef, rhs = _tangent_rows(disk, np.array([re / mag]), np.array([im / mag]))
                rows.append(idx, coef[0], rhs[0])
                added += 1
        for j, term in enumerate(program.norm_terms):
            zval = x_full[program.n + n_epi + j]
            vals = term.values(x_prog)
            nrm = float(np.linalg.norm(vals))
            if nrm - zval > tol and nrm > 0:
                u = vals / nrm
                zi = program.n + n_epi + j
                parts = [(float(u[mi]), e) for mi, e in enumerate(term.exprs) if u[mi] != 0.0]
                idx = np.concatenate([e.idx for _, e in parts] + [[zi]])
                coef = np.concatenate([w * e.coef for w, e in parts] + [[-1.0]])
                rhs = -sum(w * e.const for w, e in parts)
                uniq, inv = np.unique(idx, return_inverse=True)
                summed = np.zeros(len(uniq))
                np.add.at(summed, inv, coef)
                rows.append(uniq, summed, rhs)
                added += 1
        cuts += added
        if added == 0:
            # Violation above tol but nothing to cut: numerical stall.
            status = MAX_ITER
            break

    objective = program.objective_value(x_prog)
    max_viol = history[-1] if history else 0.0
    return Solution(x_prog, status, objective, max_viol, outer, cuts, history, inner, *residuals)

"""Concave quadratic maximization over boxes, linear rows, disk and norm constraints.

Programs maximize f'x - sum_i d_i x_i^2 + const - sum_e w_e max_m(a_em'x + b_em)
- sum_n w_n ||(a_nm'x + b_nm)_m||_2 subject to box bounds, inequality and
equality rows held in ``RowStore`` flat arrays, and disks
|(re'x + o_re) + j(im'x + o_im)| <= limit. Epigraph and norm values become
auxiliaries z minimized from above (an epigraph term adds rows e - z <= 0);
objectives are recomputed exactly from the point. Disks and norm terms are
second-order cones: (limit, re'x + o_re, im'x + o_im) in Q^3 and
(z, a_1'x + b_1, ..) in Q^(1+m).

One primal-dual Mehrotra predictor-corrector method (Wright, 1997) solves
the program, rows in the nonnegative orthant and each cone scaled at its
Nesterov-Todd point as in CVXOPT's coneqp and ECOS (Domahidi, Chu and Boyd,
2013); a cone counts as degree 1 in mu. Each finite bound is one more row,
x_i <= u_i or -x_i <= -l_i, of the one inequality matrix G that every step
reads. Each Newton step solves (P + delta + G'HG) dx = r, H being
(s/z + 1e-9)^-1 on a row and (W^2 + 1e-9)^-1 on a cone with NT scaling W,
by dense Cholesky up to a thousand variables and otherwise by sparse LU of
the KKT system, in which a cone has the dense block -(W^2 + 1e-9). A
failed factorization raises delta, on P and the equality rows only,
100-fold. What depends only on the program is fixed once per call, as in
OSQP. A solution reports its relative residuals and mu.

Infeasibility is proved two ways. One pass over the rows, and _TANGENTS
half-planes circumscribing each disk, takes each row's minimum over the
box: one above the right-hand side by more than the phase-1 threshold,
relative to 1 + the row's l1 norm, proves the program infeasible. When the
interior point does not converge, phase-1 decides: it minimizes t with every
row relaxed by t and t added to each cone's first entry.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# scipy takes about 30 MB and a quarter of a second to import, and only a solve
# needs it, not the baselines or the simulator: ``solve`` binds these names.
sla = sp = spla = None

__all__ = ["LinExpr", "DiskConstraint", "EpigraphTerm", "NormTerm", "ConvexProgram", "RowStore", "Solution",
           "ProgramError", "solve", "OPTIMAL", "INFEASIBLE", "MAX_ITER"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"

_TANGENTS = 16
_INNER_MAX_ITER = 100
_TOL = 1e-8  # the interior point's bound on its scaled residuals and mu
_DELTA = 1e-9  # the regularization under s/z and W^2; on P and Ax = b until a factorization fails


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

    def value(self, x: np.ndarray) -> float:
        return float(np.linalg.norm([e.value(x) for e in self.exprs]))


class RowStore(Sequence):
    """Sparse rows coef @ x[idx] against a right-hand side, held as flat arrays.

    Row k's indices and coefficients are the next ``lens[k]`` entries of ``idx``
    and ``coef``; appends are joined on the next read. As a sequence, item k is
    ``(LinExpr, rhs)`` over read-only views of the arrays.
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
        self.extend(idx, coef, [np.size(idx)], [rhs])

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
        return cls(n=n, linear_cost=np.zeros(n), quad_cost=np.zeros(n), lower=np.zeros(n), upper=np.full(n, np.inf))

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
            if np.asarray(getattr(self, name)).shape != (self.n,):
                raise ProgramError(f"{name} must have shape ({self.n},)")
        if np.any(self.quad_cost < 0):
            raise ProgramError("quadratic coefficients must be nonnegative (concave objective)")
        if np.any(self.lower > self.upper):
            raise ProgramError("lower bound exceeds upper bound")
        if any(d.limit < 0 for d in self.disks):
            raise ProgramError("disk limit must be nonnegative")
        if any(t.weight < 0 for t in self.epigraph_terms + self.norm_terms):
            raise ProgramError("penalty weights must be nonnegative")
        if not all(t.exprs for t in self.epigraph_terms + self.norm_terms):
            raise ProgramError("penalty term needs at least one expression")

    def objective_value(self, x: np.ndarray) -> float:
        """Exact objective at x (auxiliary-variable free)."""
        v = float(self.linear_cost @ x - self.quad_cost @ (x * x)) + self.objective_const
        for term in self.epigraph_terms + self.norm_terms:
            v -= term.weight * term.value(x)
        return v


@dataclass(eq=False)
class Solution:
    """What ``solve`` returns: the point, its status and how the solve went.

    A program proved infeasible by one row carries the start point as x, a NaN
    objective and no iterations. Residuals and mu at x are scaled as the
    stopping test scales them: optimal means each within tolerance.
    """

    x: np.ndarray
    status: str
    objective: float
    inner_iterations: int  # Mehrotra iterations of the interior point
    primal_residual: float = math.nan
    dual_residual: float = math.nan
    mu: float = math.nan
    cuts_added = 0  # per-solve records still read it; cones need no cuts

    @property
    def outer_iterations(self) -> int:
        """1 when the interior point ran, 0 when one row proved the program infeasible."""
        return int(self.inner_iterations > 0)


def _row_scaled(M: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """M with each row divided by its max |entry| (1.0 for empty rows), and those divisors.

    Each row's entries come out reversed, as scipy's ``diags(1 / scale) @ M`` orders them.
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


class _Cones:
    """Second-order cones Q^q = {u : u_0 >= ||u_1:||} of sizes ``dims``, back to back in one vector."""

    def __init__(self, dims: np.ndarray):
        self.dims, self.count = dims, len(dims)
        self.starts = np.cumsum(dims) - dims
        self.seg = np.repeat(np.arange(self.count), dims)
        self.tail = np.arange(int(dims.sum())) != np.repeat(self.starts, dims)

    def sum(self, v: np.ndarray) -> np.ndarray:
        return np.add.reduceat(v, self.starts)

    def tail_norm(self, u: np.ndarray) -> np.ndarray:
        return np.sqrt(self.sum(np.where(self.tail, u * u, 0.0)))

    def det(self, u: np.ndarray) -> np.ndarray:
        """u_0^2 - ||u_1:||^2 per cone, factored so that points near the boundary keep their digits."""
        u0, r = u[self.starts], self.tail_norm(u)
        return (u0 - r) * (u0 + r)

    def max_step(self, u: np.ndarray, du: np.ndarray) -> float:
        """The largest alpha keeping u + alpha du in every cone (inf if unbounded), as ECOS finds it."""
        norm = np.sqrt(self.det(u))
        ub = u / norm[self.seg]
        ubJdu = self.sum(np.where(self.tail, -ub * du, ub * du))
        factor = (ubJdu + du[self.starts]) / (ub[self.starts] + 1.0)
        excess = (self.tail_norm(np.where(self.tail, du - factor[self.seg] * ub, 0.0)) - ubJdu) / norm
        return float((1.0 / excess[excess > 0]).min()) if (excess > 0).any() else math.inf


class _Scaling:
    """The Nesterov-Todd scaling W of each cone and the scaled point lambda (Vandenberghe, 2010).

    W z = W^-1 s = lambda. With sb = s/sqrt(det s), zb likewise and
    gamma^2 = (1 + sb'zb)/2, W = eta V: eta^4 = det s/det z, and V, the
    hyperbolic rotation [[a, v'], [v, I + vv'/(1 + a)]], takes e to
    w = (a, v) = (sb + J zb)/(2 gamma), J = diag(1, -1, ..); J V J is V with -v.
    Near a boundary sb and zb lose their digits, so only the start is scaled
    from (s, z); a step composes W with the scaling of lambda + alpha W^-1 ds
    and lambda + alpha W dz, which stay well inside. W^2 = eta^2 (2ww' - J)
    has the eigenvalues eta^2 (a + |v|)^(+-2) on e+- = (1, +-v/|v|)/sqrt(2)
    and eta^2 elsewhere: functions of W^2 are formed from them, not 2ww' - J.
    """

    def __init__(self, cones: _Cones, s: np.ndarray, z: np.ndarray):
        c = self.cones = cones
        snorm, znorm = np.sqrt(c.det(s)), np.sqrt(c.det(z))
        sb, zb = s / snorm[c.seg], z / znorm[c.seg]
        self.gamma = np.sqrt(0.5 * (1.0 + c.sum(sb * zb)))
        self.eta, self.lam_det = np.sqrt(snorm / znorm), snorm * znorm
        self._set_w((sb + np.where(c.tail, -zb, zb)) / (2.0 * self.gamma[c.seg]))
        self._set_lam(zb)

    def _set_w(self, w: np.ndarray) -> None:
        c = self.cones
        self.a, self.v = w[c.starts], np.where(c.tail, w, 0.0)
        r = c.tail_norm(w)
        self.big = (self.a + r) ** 2
        self.ep = np.where(c.tail, self.v / np.where(r > 0, r, 1.0)[c.seg], 1.0) / math.sqrt(2.0)
        self.em = np.where(c.tail, -self.ep, self.ep)

    def _set_lam(self, zb: np.ndarray) -> None:
        """lambda = W z from zb = z/sqrt(det z)."""
        c = self.cones
        tail = zb + self.v * ((zb[c.starts] + self.gamma) / (1.0 + self.a))[c.seg]
        self.zb, self.lam = zb, np.sqrt(self.lam_det)[c.seg] * np.where(c.tail, tail, self.gamma[c.seg])

    def then(self, ds: np.ndarray, dz: np.ndarray, alpha: float) -> "_Scaling":
        """The scaling after a step alpha along the scaled directions ds = W^-1 ds and dz = W dz."""
        out = _Scaling(self.cones, self.lam + alpha * ds, self.lam + alpha * dz)
        out._set_w(self._V(np.where(self.cones.tail, out.v, out.a[self.cones.seg]), self.v))
        out.eta = out.eta * self.eta
        out._set_lam(self._V(out.zb, -self.v))
        return out

    def _V(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        c = self.cones
        vu, u0 = c.sum(v * u), u[c.starts]
        return np.where(c.tail, u + v * (u0 + vu / (1.0 + self.a))[c.seg], (self.a * u0 + vu)[c.seg])

    def scale(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        return self.eta[self.cones.seg] * self._V(u, self.v)

    def unscale(self, u: np.ndarray) -> np.ndarray:
        """W^-1 u."""
        return self._V(u, -self.v) / self.eta[self.cones.seg]

    def spectrum(self, f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """f(W^2) = p e+e+' + m e-e-' + r I per cone: (p, m, r)."""
        eta2 = self.eta**2
        rest = f(eta2)
        return f(eta2 * self.big) - rest, f(eta2 / self.big) - rest, rest

    def entries(self, f, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Entries (i, j) of f(W^2), for i and j in one cone."""
        p, m, r = (x[self.cones.seg[i]] for x in self.spectrum(f))
        return p * self.ep[i] * self.ep[j] + m * self.em[i] * self.em[j] + r * (i == j)

    def hmul(self, u: np.ndarray) -> np.ndarray:
        """(W^2 + _DELTA)^-1 u."""
        c = self.cones
        p, m, r = (x[c.seg] for x in self.spectrum(lambda e: 1.0 / (e + _DELTA)))
        return p * self.ep * c.sum(self.ep * u)[c.seg] + m * self.em * c.sum(self.em * u)[c.seg] + r * u

    def centering(self, ds: np.ndarray, dz: np.ndarray, sigma_mu: float) -> np.ndarray:
        """-W (lambda \\ (sigma mu e - ds o dz)) for scaled ds, dz, u o v = (u'v, u_0 v_1: + v_0 u_1:)
        the Jordan product: the cones' part of the corrector, on a row (ds dz - sigma mu)/z."""
        c = self.cones
        st, seg, tail, lam = c.starts, c.seg, c.tail, self.lam
        r = np.where(tail, -(ds[st][seg] * dz + dz[st][seg] * ds), sigma_mu - c.sum(ds * dz)[seg])
        x0 = (lam[st] * r[st] - c.sum(np.where(tail, lam * r, 0.0))) / self.lam_det
        return -self.scale(np.where(tail, (r - x0[seg] * lam) / lam[st][seg], x0[seg]))


class _Inequalities:
    """Gx <= h and the cones, laid out as [rows, cones].

    G holds the ``orth`` rows in the orthant (bounds among them, as unit
    rows), then the cones' rows G_c with h_c - G_c x in the cones; the first
    ``orth`` entries of s and z lie in the orthant.
    """

    def __init__(self, G: sp.csr_matrix, h: np.ndarray, cones=None):
        self.orth, self.n = G.shape
        self.h, self.cones = h, None
        if cones is not None:
            G, self.cones, self.h = sp.vstack([G, cones[0]], format="csr"), _Cones(cones[2]), np.concatenate([h, cones[1]])
        self.G = G
        # Products by G and G' as bincounts over the csr entries: each sum
        # runs in entry order, as scipy's csr product would run it.
        self.row_of = np.repeat(np.arange(G.shape[0]), np.diff(G.indptr))
        self.degree = self.orth + (self.cones.count if self.cones else 0)

    def dot(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row_of, weights=self.G.data * x[self.G.indices], minlength=self.G.shape[0])

    def tdot(self, z: np.ndarray) -> np.ndarray:
        G = self.G
        return np.bincount(G.indices, weights=G.data * z[self.row_of], minlength=self.n).astype(float, copy=False)  # int when G is empty


# Programs with at most this many variables use the dense normal matrix, larger
# ones the sparse KKT matrix. On 2 vCPUs, one BLAS thread, criterion 3's programs
# took 0.10 s against 0.23 s below n = 250, 4.1 s against 5.4 s at n = 750-1039,
# 2.9 s against 2.7 s at n = 1896; the dense matrix takes 474 MB at n = 7697.
_DENSE_MAX_N = 1000


def _block_pairs(indptr: np.ndarray, indices: np.ndarray, n: int):
    """(first, second, position) of every pair of entries of one block on or below N's diagonal.

    Block b holds entries indptr[b] .. indptr[b + 1] - 1; positions index
    N's column-major buffer, so it is Fortran-ordered for LAPACK.
    """
    lens = np.diff(indptr)
    block_of = np.repeat(np.arange(len(lens)), lens)
    reps = lens[block_of]
    first = np.repeat(np.arange(len(indices)), reps)
    second = np.repeat(indptr[:-1][block_of], reps) + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
    ci, cj = indices[first], indices[second]
    keep = ci >= cj
    return first[keep], second[keep], ci[keep] + cj[keep] * n


def _normal_step(ineq: _Inequalities, As, p: int):
    """Newton steps on the dense normal matrix N = P + delta + G'HG (Cholesky), formed by one bincount.

    A row adds H_r a_ri a_rj for every pair (i, j) of its nonzeros; a bound's
    unit row adds H_r on the diagonal. A cone's H = r I + p e+e+' + m e-e-'
    adds r a_ri a_rj in each of its rows and p g_i g_j + m f_i f_j over its
    variables, g = G'e+ and f = G'e-: its huge weight multiplies no entries
    that cancel. Equality rows go through A N^-1 A' + delta.
    """
    G, n, orth, cones = ineq.G, ineq.n, ineq.orth, ineq.cones
    first, second, pos = _block_pairs(G.indptr, G.indices, n)
    weight, prod = ineq.row_of[first], G.data[first] * G.data[second]
    if cones:
        cdata, crow = G.data[G.indptr[orth] :], ineq.row_of[G.indptr[orth] :] - orth
        touched, inv = np.unique(cones.seg[crow] * n + G.indices[G.indptr[orth] :], return_inverse=True)  # (cone, variable)
        t_cone, t_var = np.divmod(touched, n)
        tfirst, tsecond, tpos = _block_pairs(np.searchsorted(t_cone, np.arange(cones.count + 1)), t_var, n)
        pos = np.concatenate([pos, tpos])
    Ad = As.toarray() if p else None
    potrf, potrs = sla.get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))

    def cholesky(a):
        c, info = potrf(a, lower=True, overwrite_a=True, clean=False)
        if info:
            raise sla.LinAlgError(f"Cholesky factorization failed (info {info})")
        return c

    def cho_solve(c, b):
        return potrs(c, b, lower=True)[0]

    def factor(p_reg, d, delta, scaling=None):
        w = 1.0 / d
        if scaling is None:
            values = prod * w[weight]
        else:
            pl, mi, rest = scaling.spectrum(lambda e: 1.0 / (e + _DELTA))
            g, f = (np.bincount(inv, weights=cdata * e[crow], minlength=len(touched)) for e in (scaling.ep, scaling.em))
            c = t_cone[tfirst]
            values = np.concatenate([prod * np.concatenate([w, rest[cones.seg]])[weight],
                                     pl[c] * g[tfirst] * g[tsecond] + mi[c] * f[tfirst] * f[tsecond]])
        buf = np.bincount(pos, weights=values, minlength=n * n).astype(float, copy=False)  # int when G is empty
        buf[:: n + 1] += p_reg
        cN = cholesky(buf.reshape((n, n), order="F"))
        if p:
            S = Ad @ cho_solve(cN, Ad.T)
            S[np.diag_indices(p)] += delta
            cS = cholesky(S)

        def hmul(v):
            return w * v if scaling is None else np.concatenate([w * v[:orth], scaling.hmul(v[orth:])])

        def solve_step(rd, re, r3):
            wr3 = hmul(r3)
            f = ineq.tdot(wr3) - rd
            dy = np.zeros(0)
            if p:
                dy = cho_solve(cS, Ad @ cho_solve(cN, f) + re)
                f = f - Ad.T @ dy
            dx = cho_solve(cN, f)
            Gdx = ineq.dot(dx)
            return dx, dy, hmul(Gdx) - wr3, Gdx

        return solve_step

    return factor


def _kkt_step(ineq: _Inequalities, As, p: int):
    """Newton steps on the sparse regularized (n+p+m) KKT matrix (LU), assembled once per call.

    Each iteration rewrites in place P's diagonal, -delta, -(s/z + delta) on
    the rows and each cone's dense -(W^2 + delta)."""
    n, orth, cones, G = ineq.n, ineq.orth, ineq.cones, ineq.G
    D = sp.identity(orth)
    if cones:
        D = sp.block_diag([D] + [np.ones((q, q)) for q in cones.dims])
    A = As if p else sp.csr_matrix((0, n))
    K = sp.bmat([[sp.identity(n), A.T, G.T], [A, sp.identity(p), None], [G, None, D]], format="csc")
    K_coo = K.tocoo()  # same entry order as K.data, which runs column by column
    top = np.flatnonzero((K_coo.row == K_coo.col) & (K_coo.row < n + p))
    bottom = np.flatnonzero((K_coo.row >= n + p) & (K_coo.col >= n + p))
    r, c = K_coo.row[bottom] - n - p, K_coo.col[bottom] - n - p
    in_cone = r >= orth

    def factor(p_reg, d, delta, scaling=None):
        K.data[top] = np.concatenate([p_reg, np.full(p, -delta)])
        K.data[bottom[~in_cone]] = -d[r[~in_cone]]
        if scaling is not None:
            K.data[bottom[in_cone]] = -scaling.entries(lambda e: e + _DELTA, r[in_cone] - orth, c[in_cone] - orth)
        lu = spla.splu(K)

        def solve_step(rd, re, r3):
            sol = lu.solve(np.concatenate([-rd, -re, r3]))
            return sol[:n], sol[n : n + p], sol[n + p :], ineq.dot(sol[:n])

        return solve_step

    return factor


def _step(ineq: _Inequalities, s, ds, z, dz, tau: float, scaling=None, dst=None, dzt=None) -> float:
    """The longest step keeping s and z in their orthant and cones (the cones' part on lambda and the
    scaled dst and dzt), times tau, at most 1."""
    k = ineq.orth
    v, dv = np.concatenate((s[:k], z[:k])), np.concatenate((ds[:k], dz[:k]))
    neg = dv < 0
    longest = float((-v[neg] / dv[neg]).min()) if neg.any() else math.inf
    if scaling is not None:
        longest = min(longest, ineq.cones.max_step(scaling.lam, dst), ineq.cones.max_step(scaling.lam, dzt))
    return min(1.0, tau * longest)


def _import_scipy() -> None:
    global sla, sp, spla
    if spla is None:
        import scipy.linalg as sla
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla


def _ipm_qp(P_diag, q, G, h, A, b, x0, cones=None):
    """Minimize 1/2 x'diag(P)x + q'x  s.t.  Gx <= h, Ax = b, h_c - G_c x in the cones.

    Bounds come as rows of G. ``cones`` is None or (G_c, h_c, dims), G_c's
    rows running cone by cone. Returns (x, status, iterations, (primal
    residual, dual residual, mu) at x as the stopping test scales them).
    There must be at least one row or cone.
    """
    n = len(q)
    p = A.shape[0] if A is not None else 0

    # Scale inequality and equality rows to unit inf-norm, for a well conditioned
    # central path when limits span orders of magnitude; cones keep their rows.
    Gs, g_scale = _row_scaled(G.tocsr())
    ineq = _Inequalities(Gs, h / g_scale, cones)
    hs, k, cs, m = ineq.h, ineq.orth, ineq.cones, ineq.degree
    As, a_scale = _row_scaled(A.tocsr()) if p else (None, 1.0)
    bs = b / a_scale if p else np.zeros(0)
    factor = _normal_step(ineq, As, p) if n <= _DENSE_MAX_N else _kkt_step(ineq, As, p)

    x = np.asarray(x0, dtype=float).copy()
    s = hs - ineq.dot(x)
    z = np.ones(len(hs))
    scaling = None
    if cs:  # each cone's s_0 at least 1 above its tail's norm, z_c = e
        s[k:][cs.starts] = np.maximum(s[k:][cs.starts], cs.tail_norm(s[k:]) + 1.0)
        z[k:] = ~cs.tail
        scaling = _Scaling(cs, s[k:], z[k:])
    s[:k] = np.maximum(s[:k], 1.0)
    y = np.zeros(p)
    delta = _DELTA
    q_scale = 1.0 + float(np.max(np.abs(q))) if n else 1.0
    h_scale = 1.0 + float(np.max(np.abs(hs))) if m else 1.0

    best = (np.inf, x.copy(), (math.nan,) * 3)
    for it in range(1, _INNER_MAX_ITER + 1):
        if cs:
            s[k:], z[k:] = scaling.scale(scaling.lam), scaling.unscale(scaling.lam)
        rd = P_diag * x + q + ineq.tdot(z) + (As.T @ y if p else 0.0)
        rp = ineq.dot(x) + s - hs
        re = (As @ x - bs) if p else np.zeros(0)
        mu = float(s @ z if cs is None else s[:k] @ z[:k] + scaling.lam @ scaling.lam) / m

        pres = float(np.abs(rp).max()) if m else 0.0
        eres = float(np.abs(re).max()) if p else 0.0
        dres = float(np.abs(rd).max()) if n else 0.0
        merit = pres + eres + dres + mu
        residuals = (max(pres, eres) / h_scale, dres / q_scale, mu / q_scale)
        if merit < best[0]:
            best = (merit, x.copy(), residuals)
        if max(pres, eres) <= _TOL * h_scale and dres <= _TOL * q_scale and mu <= _TOL * q_scale:
            return x, OPTIMAL, it, residuals

        # Diverging multipliers mean the iteration is chasing an infeasibility
        # direction; stop and let the caller's phase-1 check classify it.
        dual_mass = float(np.abs(z).sum()) + float(np.abs(y).sum())
        if mu > 1e12 or dual_mass > 1e14:
            return best[1], MAX_ITER, it, best[2]

        # The step solves [[P + delta, A', G'], [A, -delta, 0], [G, 0, -(W^2 + _DELTA)]],
        # W^2 = S/Z on the orthant; a failed factorization retries the same
        # iterate with 100x delta. The floor under W^2 stays _DELTA: raised,
        # it stalled mu just above the tolerance on near-zero slacks.
        try:
            solve_step = factor(P_diag + delta, s[:k] / z[:k] + _DELTA, delta, scaling)
        except (RuntimeError, sla.LinAlgError):
            delta *= 100.0
            if delta > 1e-2:
                return best[1], MAX_ITER, it, best[2]
            continue

        def direction(r3):
            dx, dy, dz, Gdx = solve_step(rd, re, r3)
            ds = -rp - Gdx
            return dx, dy, ds, dz, ((scaling.unscale(ds[k:]), scaling.scale(dz[k:])) if cs else (None, None))

        dx, dy, ds, dz, scaled = direction(-rp + s)
        a = _step(ineq, s, ds, z, dz, 1.0, scaling, *scaled)
        mu_aff = float((s + a * ds) @ (z + a * dz) if cs is None else (s[:k] + a * ds[:k]) @ (z[:k] + a * dz[:k])
                       + (scaling.lam + a * scaled[0]) @ (scaling.lam + a * scaled[1])) / m
        sigma = min(max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8), 0.9999)

        if cs:
            r3 = -rp + s + np.concatenate([(ds[:k] * dz[:k] - sigma * mu) / z[:k], scaling.centering(*scaled, sigma * mu)])
        else:
            r3 = -rp + s + (ds * dz - sigma * mu) / z
        dx, dy, ds, dz, scaled = direction(r3)
        alpha = _step(ineq, s, ds, z, dz, 0.99, scaling, *scaled)
        if alpha < 1e-12:
            return best[1], MAX_ITER, it, best[2]
        x += alpha * dx
        s += alpha * ds
        z += alpha * dz
        if p:
            y += alpha * dy
        if cs:
            scaling = scaling.then(*scaled, alpha)

    return best[1], MAX_ITER, _INNER_MAX_ITER, best[2]


def _certify_infeasible(G, h, A, b, x0, cones=None) -> bool:
    """Phase-1 check: minimize the worst violation t of every row and cone, Ax = b.

    Rows, bounds among them, become Gx - t <= h, and each cone's first entry
    gains t: always feasible, and bounded by one more row -t <= 1. A strictly
    positive optimal t proves the original system empty.
    """
    k, n = G.shape
    t0 = float(np.max(G @ x0 - h, initial=0.0)) + 1.0
    G1 = sp.vstack([sp.hstack([G, sp.csr_matrix(-np.ones((k, 1)))]), sp.csr_matrix(([-1.0], ([0], [n])), shape=(1, n + 1))],
                   format="csr")
    cones1, hb = None, h
    if cones is not None:
        Gc, hc, dims = cones
        c = _Cones(dims)
        sc = hc - Gc @ x0
        t0 = max(t0, float(np.max(c.tail_norm(sc) - sc[c.starts])) + 1.0)
        t_col = np.zeros(len(hc))
        t_col[c.starts] = -1.0
        cones1, hb = (sp.hstack([Gc, sp.csr_matrix(t_col[:, None])], format="csr"), hc, dims), np.concatenate([h, hc])
    A1 = sp.hstack([A, sp.csr_matrix((A.shape[0], 1))], format="csr") if A is not None else None
    q1 = np.zeros(n + 1)
    q1[n] = 1.0
    x1, status, _, _ = _ipm_qp(np.full(n + 1, 1e-9), q1, G1, np.append(h, 1.0), A1, b, np.append(x0, t0), cones1)
    return status == OPTIMAL and x1[n] > _phase1_threshold(hb)


def _phase1_threshold(hb: np.ndarray) -> float:
    """Optimal phase-1 t above this proves empty a system with right-hand sides (bounds among them) and cone offsets hb."""
    return 1e-7 * (1.0 + float(np.max(np.abs(hb), initial=0.0)))


def _box_floors(row_of, idx, coef, rhs, lower, upper) -> np.ndarray:
    """(min over the box of g'x - h) / (1 + ||g||_1) of each row g'x <= h (-inf if unbounded below).

    LP presolve's one-row test (Andersen and Andersen, 1995): phase-1's t has
    t (1 + ||g||_1) >= min g'x - h, so a floor above its threshold is its verdict."""
    bound = np.where(coef > 0, lower[idx], np.where(coef < 0, upper[idx], 0.0))
    low = np.bincount(row_of, weights=coef * bound, minlength=len(rhs))
    l1 = np.bincount(row_of, weights=np.abs(coef), minlength=len(rhs))
    return (low - rhs) / (1.0 + l1)


def _tangent_floors(disks: list[DiskConstraint], lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``_box_floors`` of the _TANGENTS half-planes cos(theta_k) re + sin(theta_k) im <= limit
    circumscribing each disk, all disks at once; a variable in both parts gets one coefficient."""
    if not disks:
        return np.zeros(0)
    parts = [e for d in disks for e in (d.real, d.imag)]
    part = np.repeat(np.arange(len(parts)), [len(e.idx) for e in parts])  # 2 disk + (0 real, 1 imag)
    key, inv = np.unique((part // 2) * len(lower) + np.concatenate([e.idx for e in parts]), return_inverse=True)
    values = np.concatenate([e.coef for e in parts])
    re, im = (np.bincount(inv, weights=np.where(part % 2 == half, values, 0.0), minlength=len(key)) for half in (0, 1))
    disk, var = np.divmod(key, len(lower))
    theta = 2.0 * np.pi * (np.arange(_TANGENTS)[:, None] + 0.5) / _TANGENTS
    c, s = np.cos(theta), np.sin(theta)
    limit, o_re, o_im = np.array([(d.limit, d.real.const, d.imag.const) for d in disks]).T
    rows = np.arange(_TANGENTS)[:, None] * len(disks) + disk
    return _box_floors(rows.ravel(), np.broadcast_to(var, rows.shape).ravel(), (c * re + s * im).ravel(),
                       (limit - c * o_re - s * o_im).ravel(), lower, upper)


def _assemble(program: ConvexProgram):
    """Objective, box, inequality rows, equality rows and cones over x and the free auxiliaries.

    The inequality rows are the program's, the epigraph rows e - z <= 0, each
    finite upper bound x_i <= u_i, then each finite lower bound -x_i <= -l_i.
    Cone entry e'x + c becomes the row (-e, c) of a RowStore, so that the cone
    holds h_c - G_c x; disks are (limit, re, im), norms (z, e_1, ..).
    """
    n, n_epi = program.n, len(program.epigraph_terms)
    n_aux = n_epi + len(program.norm_terms)
    P = np.concatenate([2.0 * program.quad_cost, np.zeros(n_aux)])
    q = np.concatenate([-program.linear_cost, [t.weight for t in program.epigraph_terms + program.norm_terms]])
    lower = np.concatenate([program.lower, np.full(n_aux, -np.inf)])
    upper = np.concatenate([program.upper, np.full(n_aux, np.inf)])

    rows = program.linear_ineqs.copy()
    aux_rows = [(e, n + j) for j, term in enumerate(program.epigraph_terms) for e in term.exprs]
    if aux_rows:
        rows.extend(np.concatenate([np.append(e.idx, zi) for e, zi in aux_rows]),
                    np.concatenate([np.append(e.coef, -1.0) for e, _ in aux_rows]),
                    [len(e.idx) + 1 for e, _ in aux_rows], [-e.const for e, _ in aux_rows])
    iu, il = np.flatnonzero(np.isfinite(upper)), np.flatnonzero(np.isfinite(lower))
    rows.extend(np.concatenate([iu, il]), np.repeat([1.0, -1.0], [len(iu), len(il)]), np.ones(len(iu) + len(il)),
                np.concatenate([upper[iu], -lower[il]]))
    cone_parts = [(LinExpr([], [], d.limit), d.real, d.imag) for d in program.disks]
    cone_parts += [(LinExpr([n + n_epi + j], [1.0]), *t.exprs) for j, t in enumerate(program.norm_terms)]
    entries = [e for part in cone_parts for e in part]
    cones = None
    if entries:
        cone_rows = RowStore()
        cone_rows.extend(np.concatenate([e.idx for e in entries]), np.concatenate([-e.coef for e in entries]),
                         [len(e.idx) for e in entries], [e.const for e in entries])
        cones = (*cone_rows.csr(n + n_aux), np.array([len(c) for c in cone_parts]))
    A, b = program.linear_eqs.csr(n + n_aux)
    return P, q, lower, upper, rows, (A if A.shape[0] else None), b, cones


def _initial_point(program: ConvexProgram, ntot: int) -> np.ndarray:
    x0 = np.zeros(ntot)
    lo = np.where(np.isfinite(program.lower), program.lower, 0.0)
    hi = np.where(np.isfinite(program.upper), program.upper, lo + 2.0)
    x0[: program.n] = 0.5 * (lo + hi)
    for k, term in enumerate(program.epigraph_terms + program.norm_terms, program.n):
        x0[k] = term.value(x0) + 1.0
    return x0


def solve(program: ConvexProgram) -> Solution:
    """Maximize the program's objective; see module docstring for the method.

    The interior point stops when its scaled residuals and mu are at most
    1e-8. Status is ``optimal``, ``infeasible``, or ``max_iter``: it stopped
    short, phase-1 proved nothing, and its best point is returned.
    """
    program.validate()
    _import_scipy()
    P, q, lower, upper, rows, A, b, cones = _assemble(program)
    if len(rows) == 0 and cones is None:
        raise ProgramError("program has no inequality rows; add finite bounds")
    x0 = _initial_point(program, len(q))
    idx, coef, lens, rhs = rows.arrays()  # a bound row's floor, (l - u)/2 <= 0, proves nothing
    floors = np.concatenate([_box_floors(np.repeat(np.arange(len(rhs)), lens), idx, coef, rhs, lower, upper),
                             _tangent_floors(program.disks, lower, upper)])
    if (floors > _phase1_threshold(np.concatenate([rhs, cones[1] if cones else []]))).any():
        return Solution(x0[: program.n], INFEASIBLE, math.nan, 0)

    G, h = rows.csr(len(q))
    x_full, status, iterations, residuals = _ipm_qp(P, q, G, h, A, b, x0, cones)
    x = x_full[: program.n]
    if status != OPTIMAL and _certify_infeasible(G, h, A, b, x0, cones):
        return Solution(x, INFEASIBLE, math.nan, iterations, *residuals)
    return Solution(x, status, program.objective_value(x), iterations, *residuals)

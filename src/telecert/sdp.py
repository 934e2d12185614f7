"""Primal-dual interior-point solver and the self-testing-constant
derivation driver.

The solver handles the standard pair

    (P) min tr(C X)   s.t. tr(A_i X) = b_i,  X >= 0
    (D) max b.y       s.t. C - sum_i y_i A_i = S >= 0

with Nesterov-Todd scaling and dense factorizations of the iterates and
the m x m Schur matrix, all through numpy.  The iteration runs per
diagonal block: the connected components of the aggregate sparsity
pattern of C and the A_i.  With C and every A_i block-diagonal, the
iterates from xi I and eta I stay block-diagonal, so the split is exact:
each block has its own scaling, step lengths and Schur part, the step is
the shortest block step, and the Schur matrix is the sum of the parts.
A test solves block-diagonal instances both ways and finds the same
iteration count and objective.

Each iteration is a Mehrotra predictor-corrector step (Mehrotra, SIAM J.
Optim. 2, 1992) in the NT-scaled frame of each block (Todd, Toh &
Tutuncu, SIAM J. Optim. 8, 1998): a Cholesky factor of X and one
eigendecomposition give G with G G^T = W and G^-1 X G^-T = G^T S G = D
diagonal.  In that frame the complementarity equation is diagonal, so
its solve is one division, V_ij = 2 R_ij / (d_i + d_j), and the step
length of a direction dZ~ is read off the smallest eigenvalue of
D^-1/2 dZ~ D^-1/2, one stacked `eigvalsh` per block and pass.  The
predictor (sigma = 0) fixes sigma = (mu_aff / mu)^3 and gives
Mehrotra's second-order term M = sym(dX~_a dS~_a).  The corrector is
solved with and without M, and M is kept only when its step reaches a
lower mu than the plain direction's: far from the central path it can
overshoot.  The direction is affine in its target, so one Cholesky
factorization of the Schur matrix per iteration serves the three
right-hand sides.

Instances that share their constraint cells (owner, row, column and
value of every cell) but differ in the objective and the right-hand sides
are solved as one family (`solve_family`); `solve` is the family of one.
The iterates carry a leading member axis, and the NT scaling, the Schur
Cholesky factors, the directions, the step-length `eigvalsh` calls and
the maps of the constraints run as stacked numpy calls; the Schur matrix
is assembled per member.  Each stacked call (LAPACK's Cholesky, eigh,
eigvalsh and solve, BLAS products and dots, sums over trailing axes, one
reduceat row per member) computes a member's slice as the call on that
slice alone would, so the members are independent: each keeps its own
best iterate, stall count, termination and status, leaves the stack when
it ends, and gets its solo solution bit for bit, as the tests check.  A
stacked step either steps every member or raises, and then it is redone
member by member (`_step_each`): each member climbs its own jitter ladder
for the Schur factorization, and a member whose own step fails ends there
while the others take their solo steps.

The driver builds what the violation level does not move once per
process, in bounded caches whose arrays are read-only: the moment
problem, which carries its reduction and its symmetry group, per
(setting, inequality, word cap, objective), at most 16 (`moment_points`,
whose problem `npa-export` writes too); and the part of a companion that
neither the objective nor the violation level moves (`_Companion`: free
moments, row elimination, constraint cells) per bytes of its label,
normalization and inequality rows and group, at most 8.  A point is a
(problem, violation level) pair.  Each call poses each distinct point on
its structure once, and the points posed on one structure are one
family.  A fresh process builds everything once, as before; a process
that derives again (a sweep, the benchmark, the tests) reuses it.  The
one-sided `state` and `ZB` problems are one, as are the fully untrusted
`state` and `ZAZB`; a one-point one-sided `derive-alpha --kind both` is
one run of two members, the default grid one of ten.

The constraint matrices are sparse (an 81x81 moment-problem constraint,
at fully untrusted word cap 4, has a median of 28 nonzero entries), so an
instance holds each A_i only
as the cells of its upper triangle (`Constraints`), as the companion writes
them; the objective is dense.  The cells give the blocks, and the Schur
matrix S_ij = tr(A_i W A_j W) is assembled from them block by block
(Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997): one batched product
W U_j W per group of constraints with equal cell count, then a gather at
the cells of each A_i.

Every solve is posed in one formulation, the free-moment (dual) form of
`companion_instance`: the matrix is parametrized by its free real
moments, the few equality rows are eliminated by pivoting, and what is
left has one constraint per free moment, linearly independent by
construction, so `solve` has no presolve.  For moment problems that form
is the small one (Lofberg, "Dualize it", Optim. Methods Softw. 24, 2009).
An SDPA file's problem is brought to it by `fold_ties`, which joins the
cells its tie constraints equate into classes, the structure of
`npa.MomentProblem.label`: the deduplicated and the generated exports
of the fully untrusted problem (1118 and 10390 constraints at the
default word cap 3, 3138 and 47702 at cap 4) both fold to its 109 (185)
classes and solve with 107 (183) constraints.

The problem's symmetries among the Alice<->Bob swap and the global sign
flip (A, B) -> (-A, -B) form an abelian group (`npa.symmetry_group`
checks each element exactly on the word list, the classes and the
functionals).  Each orbit of classes
shares one moment up to sign, the classes of odd word length that the
flip negates are zero, and the companion is posed in a basis adapted to
the group's characters, where it is block-diagonal (Gatermann & Parrilo,
J. Pure Appl. Algebra 192, 2004).  The fully untrusted `state`, `ZAZB`
and `XAXB` problems keep the whole group and split 16 + 9 + 12 + 12
with 35 constraints, and `ZAXB` keeps the flip and splits 25 + 24 with
59, instead of one 49x49 block with 107 (at word cap 4: 25 + 16 + 20 + 20
with 59 and 41 + 40 with 103, instead of one 81x81 block with 183);
tests check their bounds against the unreduced solves to 1e-6.

The fully untrusted default word cap is 3 (local words up to length 3,
49 words).  Every level of the relaxation gives a sound lower bound, and
cap 3 gives cap 4's curves: at every objective and default-grid point,
the certified value of each cap's solve (the weak-duality minorant of
its primal iterate, Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46,
2007) agrees with the other cap's to 2.4e-7, as a test checks to 1e-6.
`--word-cap 4` poses the 81-word problem.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import SdpError, cert, npa

DEFAULT_WORD_CAP = {npa.SETTING_1SDI: 3, npa.SETTING_DI: 3}

# The measurement constant of a trust setting is the worst case over its
# measurement objectives.
MEASUREMENT_OBJECTIVES = {
    npa.SETTING_1SDI: ("ZB", "XB"),
    npa.SETTING_DI: ("ZAZB", "XAXB", "ZAXB"),
}


class InfeasibleError(SdpError):
    """The equality rows contradict each other: no matrix meets them."""


@dataclass
class Constraints:
    """Equality constraints tr(A_i X) = rhs[i], one per entry of `rhs`.

    Each symmetric A_i is held as the cells of its upper triangle: for
    every k with owner[k] == i, A_i[rows[k], cols[k]] and its mirror
    entry equal values[k], and every other entry of A_i is zero.
    """

    owner: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    rhs: np.ndarray

    def __len__(self):
        return len(self.rhs)

    def norms(self):
        """Frobenius norms of the A_i."""
        weights = np.where(self.rows == self.cols, 1.0, 2.0) * self.values**2
        return np.sqrt(np.bincount(self.owner, weights, minlength=len(self)))


@dataclass
class SdpInstance:
    """min tr(objective @ X) subject to tr(A_i @ X) = b_i and X >= 0, with
    a dense symmetric objective.  The constraints' cells are checked in one
    pass and kept sorted by constraint, row and column, without zeros."""

    objective: np.ndarray
    constraints: Constraints
    dim: int = field(init=False)

    def __post_init__(self):
        self.objective = _check_symmetric(np.asarray(self.objective, dtype=float))
        n = self.dim = self.objective.shape[0]
        con = self.constraints
        owner, rows, cols = (np.asarray(a, dtype=np.intp) for a in (con.owner, con.rows, con.cols))
        values, rhs = np.asarray(con.values, dtype=float), np.asarray(con.rhs, dtype=float)
        if rhs.ndim != 1 or not owner.shape == rows.shape == cols.shape == values.shape == (values.size,):
            raise ValueError("constraint cells and values must be 1-D arrays of one length")
        if np.any((owner < 0) | (owner >= len(rhs)) | (rows < 0) | (rows > cols) | (cols >= n)):
            raise ValueError("constraint cell outside the constraints or the upper triangle")
        if not np.all(np.isfinite(values)):
            raise ValueError("constraint matrix has non-finite entries")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("constraint value is not finite")
        key = (owner * n + rows) * n + cols
        order = np.argsort(key, kind="stable")
        if np.any(key[order[1:]] == key[order[:-1]]):
            raise ValueError("constraint cell given twice")
        order = order[values[order] != 0.0]
        self.constraints = Constraints(owner[order], rows[order], cols[order], values[order], rhs)


def _check_symmetric(mat: np.ndarray) -> np.ndarray:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    # NaN fails every comparison, so the symmetry test below would pass it.
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (mat + mat.T)


@dataclass
class SdpSolution:
    """Result of `solve`, and of each member of `solve_family`.

    `termination` names the exit that ended the iteration:
    "optimal", "infeasible-divergence", "stall", "schur-breakdown"
    (the Schur matrix failed Cholesky at every jitter level),
    "non-finite-scaling", "step-too-small", "iteration-cap" or
    "linalg-error" (an eigendecomposition or linear solve failed).
    `status` is the verdict on the reported iterate and can differ: a stall
    can still end "optimal".  `unmet` names the tests of the certificate
    contract that the reported iterate fails ("gap", "primal residual",
    "dual residual", "eigenvalue"), in that order; it is empty when the
    status is "optimal" or "infeasible", which the contract does not
    judge.  `kept_constraints` lists every constraint: the instances are
    full-rank by construction (`companion_instance`).
    """

    primal: np.ndarray
    dual: np.ndarray
    slack: np.ndarray
    primal_objective: float
    gap: float
    relative_gap: float
    primal_residual: float
    dual_residual: float
    status: str
    iterations: int
    trace: list
    kept_constraints: list
    termination: str
    unmet: list


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve chol chol^T x = rhs on the trailing two axes, for a factor and
    a stack of columns or for a stack of both, as two solves with the
    whole factor: numpy has no triangular solve, and an LU solve of the
    whole matrix would cost more than its Cholesky factorization."""
    return np.linalg.solve(chol.swapaxes(-1, -2), np.linalg.solve(chol, rhs))


class _Cells:
    """The constraints' cells with the three maps the interior-point
    iteration needs.

    Each A_i is held as the cells (row, column, value) of its upper
    triangle with the diagonal halved, so that A_i = U_i + U_i^T, and the
    constraints are stored sorted by cell count.  The diagonal blocks of
    X are the connected components of the pattern of the cells and the
    objective (`_components`).  The rows and columns are renumbered by
    `perm` so that each block is a contiguous slice in `blocks`, and the
    maps read and write X in that numbering.  Every map takes and returns
    constraints in the caller's order.  The Schur matrix is the sum of one
    `_SchurBlock` per block.
    """

    def __init__(self, constraints: Constraints, objective: np.ndarray):
        n = self.n = len(objective)
        m = len(constraints)
        owner, r, c = constraints.owner, constraints.rows, constraints.cols
        vals = np.where(r == c, 0.5 * constraints.values, constraints.values)
        counts = np.bincount(owner, minlength=m)
        self.order = np.argsort(counts, kind="stable")
        self.rank = np.argsort(self.order)
        self.counts = counts[self.order]
        # Sorted by count; within a constraint in the instance's order.
        grouped = np.argsort(self.rank[owner], kind="stable")
        owner, r, c, self.vals = owner[grouped], r[grouped], c[grouped], vals[grouped]
        label = _components(n, *np.concatenate([np.nonzero(objective), (r, c)], axis=1))
        # One group per component root, ascending; plain np.unique (and
        # np.setdiff1d through it) would import numpy.ma into every process.
        groups = [np.flatnonzero(label == root) for root in np.flatnonzero(label == np.arange(n))]
        self.perm = np.concatenate(groups)
        ends = np.cumsum([len(idx) for idx in groups])
        self.blocks = [slice(end - len(idx), end) for idx, end in zip(groups, ends)]
        position = np.argsort(self.perm)
        r, c = position[r], position[c]
        self.pos = r * n + c
        self.owners = np.repeat(self.order, self.counts)  # the constraint of each cell
        self._scatter = {}  # per stack size, the cells' positions in the flattened stack
        # Every cell at (r, c) and at (c, r): tr(A_i X) = sum v (X_rc + X_cr),
        # after one zero product.  reduceat gives an empty segment the value
        # at its start, so the constraints without a cell, sorted first,
        # start at that zero.
        self.pos2 = np.concatenate([[0], np.stack([self.pos, c * n + r], axis=1).ravel()])
        self.vals2 = np.concatenate([[0.0], np.repeat(self.vals, 2)])
        self.starts2 = np.where(self.counts > 0, 1 + 2 * (np.cumsum(self.counts) - self.counts), 0)
        self._parts = []
        for sl in self.blocks:
            inside = (r >= sl.start) & (r < sl.stop)
            part = _SchurBlock(owner[inside], r[inside] - sl.start, c[inside] - sl.start, self.vals[inside], m, sl.stop - sl.start)
            self._parts.append((sl, part))

    def a_map(self, x):
        """tr(A_i X) for every constraint, over any leading axes of X.  Each
        matrix's sums come from a reduceat along its own row of products,
        as they do for that matrix alone: on one flat array, the last
        segment of a matrix would run into the next one's leading zero."""
        flat = x.reshape(-1, self.n * self.n)
        sums = np.add.reduceat(flat.take(self.pos2, axis=1) * self.vals2, self.starts2, axis=1)
        return sums.take(self.rank, axis=1).reshape(*x.shape[:-2], -1)

    def a_adj(self, y):
        """sum_i y_i A_i, over any leading axes of y.  One bincount adds up
        the cells of every matrix, each matrix's in the order it adds them
        alone."""
        flat = y.reshape(-1, y.shape[-1])
        count, size = len(flat), self.n * self.n
        if count not in self._scatter:
            self._scatter[count] = (np.arange(count)[:, None] * size + self.pos).ravel()
        weights = flat.take(self.owners, axis=1) * self.vals
        u = np.bincount(self._scatter[count], weights.ravel(), minlength=count * size)
        u = u.reshape(*y.shape[:-1], self.n, self.n)
        return u + u.swapaxes(-1, -2)

    def schur(self, w):
        """S_ij = tr(A_i W A_j W) for a symmetric W, block-diagonal on the blocks."""
        return sum(part.schur(w[sl, sl]) for sl, part in self._parts)


class _SchurBlock:
    """The part of S_ij = tr(A_i W A_j W) from one diagonal block of W
    (Fujisawa, Kojima & Nakata, Math. Prog. 79, 1997), assembled from the
    cells (r, c, v) of the U_i in the block, owned by constraint `owner`
    in the caller's order: one batched product W U_j W per group of
    constraints with equal cell count, then a gather at the cells of each
    A_i.  A constraint without a cell in the block has a zero row and
    column.
    """

    def __init__(self, owner, r, c, vals, m, n):
        counts = np.bincount(owner, minlength=m)
        members = np.argsort(counts, kind="stable")
        members = members[counts[members] > 0]
        size_m = len(members)
        slot = np.full(m, size_m)
        slot[members] = np.arange(size_m)
        grouped = np.argsort(slot[owner], kind="stable")
        r, c, vals = r[grouped], c[grouped], vals[grouped]
        counts = counts[members]
        vals2 = np.repeat(vals, 2)
        # Work buffers and, per group of equal count, the batched views
        # of them that the assembly multiplies.  The factor 2 makes the
        # batch hold 2 W U_j W, whose product with A_i has the trace of
        # A_i (W U_j W + W U_j^T W).
        self._rows, self._cols, self._left_vals = r, c, 2.0 * vals[:, None]
        self._pos2 = np.stack([r * n + c, c * n + r], axis=1).ravel()
        self._left = np.empty((r.size, n))
        self._right = np.empty((r.size, n))
        self._half = np.empty((size_m, n * n))
        self._gathered = np.empty((size_m, self._pos2.size))
        # The block's Schur matrix in member order, then one zero that the
        # pairs with a constraint outside the block read.
        self._padded = np.zeros(size_m * size_m + 1)
        table = self._padded[:-1].reshape(size_m, size_m)
        inside = slot < size_m
        self._unsort = np.where(inside[:, None] & inside, slot[:, None] * size_m + slot, size_m * size_m)
        self._products, self._reductions = [], []
        lo = first = 0
        for k, size in zip(*np.unique(counts, return_counts=True)):
            batch, cells, pairs = slice(lo, lo + size), slice(first, first + size * k), slice(2 * first, 2 * (first + size * k))
            self._products.append((
                self._left[cells].reshape(size, k, n).transpose(0, 2, 1),
                self._right[cells].reshape(size, k, n),
                self._half[batch].reshape(size, n, n),
            ))
            self._reductions.append((
                self._gathered[:, pairs].reshape(size_m, size, 2 * k).transpose(1, 0, 2),
                vals2[pairs].reshape(size, 2 * k, 1),
                table[batch, :, None],
            ))
            lo += size
            first += size * k

    def schur(self, w):
        np.multiply(w[self._rows], self._left_vals, out=self._left)
        np.take(w, self._cols, axis=0, out=self._right)
        for left, right, out in self._products:
            np.matmul(left, right, out=out)
        # With mode="raise", numpy buffers `out`; the positions are in
        # range by construction, so "wrap" writes in place.
        np.take(self._half, self._pos2, axis=1, out=self._gathered, mode="wrap")
        for gathered, vals, out in self._reductions:
            np.matmul(gathered, vals, out=out)
        return np.take(self._padded, self._unsort)


def _nt_scaling(x: np.ndarray, s: np.ndarray):
    """The Nesterov-Todd scaled frame of one block (Todd, Toh & Tutuncu,
    SIAM J. Optim. 8, 1998), for one pair of matrices or a stack of them:
    with the Cholesky factor X = L L^T and L^T S L = Q diag(e) Q^T,
    G = L Q diag(e^{-1/4}) and d = e^{1/2}.  Then G G^T = W, the scaling
    point with W S W = X, and G^{-1} X G^{-T} = G^T S G = diag(d).  An X
    that is not numerically positive definite raises
    `np.linalg.LinAlgError`."""
    low = np.linalg.cholesky(x)
    t = low.swapaxes(-1, -2) @ s @ low
    e, q = np.linalg.eigh(0.5 * (t + t.swapaxes(-1, -2)))
    e = np.maximum(e, 1e-300)
    return low @ (q * e[..., None, :] ** -0.25), np.sqrt(e)


class _Frame(NamedTuple):
    """One block's NT-scaled frame at the iterate of each member."""

    block: slice  # the block's rows and columns
    g: np.ndarray  # G with G G^T = W (`_nt_scaling`), per member
    d: np.ndarray  # G^-1 X G^-T = G^T S G = diag(d), per member
    lyapunov: np.ndarray  # 2 / (d_i + d_j): V with 1/2 (D V + V D) = R is R * lyapunov
    scale: np.ndarray  # 1 / sqrt(d_i d_j): dZ * scale is D^-1/2 dZ D^-1/2
    dd: np.ndarray  # d.d, a column per member


def _max_step(lam: np.ndarray, tau: float) -> np.ndarray:
    """Largest alpha <= 1 with diag(d) + alpha dZ staying positive definite,
    shortened by tau, for each scaled direction dZ whose
    D^{-1/2} dZ D^{-1/2} has the smallest eigenvalue in `lam`."""
    if not np.isfinite(lam).all():
        raise np.linalg.LinAlgError("step direction is not finite")
    return np.minimum(1.0, -tau / np.minimum(lam, -tau))


def _diagonal(v: np.ndarray) -> np.ndarray:
    """The diagonal matrices with the entries of v's last axis."""
    size = v.shape[-1]
    out = np.zeros(v.shape[:-1] + (size * size,))
    out[..., :: size + 1] = v
    return out.reshape(v.shape + (size,))


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dot product of each row of u with the row of v, each taken as
    the vector dot of that pair alone."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _directions(cells: _Cells, chol: np.ndarray, frames: list, rp: np.ndarray, rd: np.ndarray, targets: list):
    """Search directions for a stack of members and, per member, a stack
    of complementarity targets.

    The member axis comes first everywhere: in the Schur factors `chol`,
    the residuals rp and rd, the `_Frame` of each block in `frames`, and,
    per block in `targets`, the symmetric right-hand sides R, member by
    target.  For each R the direction meets A(dX) = rp, dS = rd - A*(dy)
    and, with dX~ = G^-1 dX G^-T and dS~ = G^T dS G,
        1/2 (D (dX~ + dS~) + (dX~ + dS~) D) = R,
    that is dX~ + dS~ = V with V_ij = 2 R_ij / (d_i + d_j).  Then
    dX = G (V - G^T rd G) G^T + W A*(dy) W, so a member's Schur system
    M dy = rp - A(G (V - G^T rd G) G^T) takes one column per target, all
    on its one Cholesky factor.  Returns the stacks dy and dS, and per
    block the stacks dX~ and dS~, each member by target.
    """
    count, size = targets[0].shape[:2]
    k = np.zeros((count, size, cells.n, cells.n))
    sums = []
    for f, r in zip(frames, targets):
        sums.append(r * f.lyapunov[:, None])
        frame_rd = f.g.swapaxes(-1, -2) @ rd[:, f.block, f.block] @ f.g
        k[:, :, f.block, f.block] = f.g[:, None] @ (sums[-1] - frame_rd[:, None]) @ f.g.swapaxes(-1, -2)[:, None]
    dy = _cho_solve(chol, (rp[:, None] - cells.a_map(k)).swapaxes(-1, -2)).swapaxes(-1, -2)
    # rd and a_adj(dy) are symmetric bit for bit, so dS is too.
    ds = rd[:, None] - cells.a_adj(dy)
    ds_t = [f.g.swapaxes(-1, -2)[:, None] @ ds[:, :, f.block, f.block] @ f.g[:, None] for f in frames]
    return dy, ds, [v - t for v, t in zip(sums, ds_t)], ds_t


def _reached(frames: list, dx_t: list, ds_t: list, ap: np.ndarray, ad: np.ndarray, n: int) -> np.ndarray:
    """mu = tr(X S) / n at the steps (ap, ad) of each direction, member by
    target, read in the scaled frame: tr((D + ap dX~)(D + ad dS~)),
    expanded."""
    total = 0.0
    for f, dx_b, ds_b in zip(frames, dx_t, ds_t):
        d = f.d[:, :, None]
        total = total + (
            f.dd
            + ap * (dx_b.diagonal(0, 2, 3) @ d)[..., 0]
            + ad * (ds_b.diagonal(0, 2, 3) @ d)[..., 0]
            + ap * ad * np.einsum("mkij,mkij->mk", dx_b, ds_b)
        )
    return total / n


class _NoStep(Exception):
    """A stack of iterates that gets no step; the argument names the exit
    ("non-finite-scaling" or "schur-breakdown")."""


def _schur_factors(schur: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of Schur matrices, each shifted by
    jitter * max(tr / m, 1).  A stack of one climbs the ladder 1e-13,
    1e-10, 1e-7 until it factors; a larger stack tries the first rung
    only, in one stacked call.  Raises `_NoStep` when the last rung tried
    fails."""
    m = schur.shape[-1]
    shift = np.maximum(schur.trace(axis1=1, axis2=2) / m, 1.0)
    eye = np.eye(m)
    for jitter in (1e-13, 1e-10, 1e-7) if len(schur) == 1 else (1e-13,):
        try:
            return np.linalg.cholesky(schur + (jitter * shift)[:, None, None] * eye)
        except np.linalg.LinAlgError:
            pass
    raise _NoStep("schur-breakdown")


def _step(cells: _Cells, x: np.ndarray, s: np.ndarray, rp: np.ndarray, rd: np.ndarray, mu: list, tau: float):
    """One predictor-corrector step for each member of a stack of iterates.

    The NT scaling (`_nt_scaling`) runs per block over the whole stack and
    the Schur matrix per member (`_Cells.schur`).  The predictor (sigma = 0,
    target -D^2) fixes sigma = (mu_aff / mu)^3 and Mehrotra's term
    M = sym(dX~_a dS~_a).  The corrector is solved with the target
    sigma mu I - D^2 with and without M on the same Cholesky factor
    (`_directions`), and M is kept only when its step reaches a lower mu
    than the plain direction's: far from the central path it can
    overshoot.  One stacked `eigvalsh` per block and pass gives the step
    lengths; the predictor's primal step reads the largest eigenvalue of
    its scaled dS~, since there dX~ = -D - dS~.

    Returns (ap, ad, dx, ds, dy) for the whole stack, or raises: `_NoStep`
    for a scaling that is not finite or a Schur matrix that does not factor
    (`_schur_factors`), and `np.linalg.LinAlgError` for a failed
    factorization of X or eigensolve, or a step direction that is not
    finite.
    """
    count, n = len(x), cells.n
    frames = []
    w = np.zeros((count, n, n))
    for sl in cells.blocks:
        g, d = _nt_scaling(x[:, sl, sl], s[:, sl, sl])
        w[:, sl, sl] = g @ g.swapaxes(-1, -2)
        r = 1.0 / np.sqrt(d)
        frames.append(_Frame(sl, g, d, 2.0 / (d[:, :, None] + d[:, None]), r[:, :, None] * r[:, None], _dots(d, d)[:, None]))
    if not np.isfinite(w).all():
        raise _NoStep("non-finite-scaling")
    schur = np.array([cells.schur(wj) for wj in w])
    chol = _schur_factors(0.5 * (schur + schur.swapaxes(-1, -2)))

    # Predictor: sigma = 0 and no second-order term, R = -D^2.
    _, _, dx_t, ds_t = _directions(cells, chol, frames, rp, rd, [_diagonal(-f.d * f.d)[:, None] for f in frames])
    lam = np.inf
    for f, ds_b in zip(frames, ds_t):
        vals = np.linalg.eigvalsh(ds_b[:, 0] * f.scale)
        lam = np.minimum(lam, (-1.0 - vals[:, -1], vals[:, 0]))
    ap, ad = _max_step(lam, tau)
    predicted = _reached(frames, dx_t, ds_t, ap[:, None], ad[:, None], n)[:, 0]
    sigma_mu = np.array([min(0.99, max((p / mu_j) ** 3, 1e-8)) * mu_j for p, mu_j in zip(predicted, mu)])

    # Corrector: R = sigma mu I - D^2 - M, and the plain direction without M.
    targets = []
    for f, dx_b, ds_b in zip(frames, dx_t, ds_t):
        centre = _diagonal(sigma_mu[:, None] - f.d * f.d)
        prod = dx_b[:, 0] @ ds_b[:, 0]
        targets.append(np.stack([centre, centre - 0.5 * (prod + prod.swapaxes(-1, -2))], axis=1))
    dy, ds, dx_t, ds_t = _directions(cells, chol, frames, rp, rd, targets)
    lam = np.inf
    for f, dx_b, ds_b in zip(frames, dx_t, ds_t):
        lam = np.minimum(lam, np.linalg.eigvalsh(np.concatenate([dx_b, ds_b], axis=1) * f.scale[:, None]).min(axis=-1))
    ap, ad = _max_step(lam, tau).reshape(count, 2, 2).transpose(1, 0, 2)
    mu_plain, mu_corr = _reached(frames, dx_t, ds_t, ap, ad, n).T
    pick = (np.arange(count), (mu_corr < mu_plain).astype(np.intp))
    dx = np.zeros((count, n, n))
    for f, dx_b in zip(frames, dx_t):
        dx[:, f.block, f.block] = f.g @ dx_b[pick] @ f.g.swapaxes(-1, -2)
    dx = 0.5 * (dx + dx.swapaxes(-1, -2))
    return ap[pick], ad[pick], dx, ds[pick], dy[pick]


def _step_each(cells: _Cells, x, s, rp, rd, mu, tau, error: Exception):
    """`_step` member by member, after the stacked step raised `error`.

    Each member climbs its own jitter ladder, and a member whose own step
    raises ends with the exit its exception names ("linalg-error" for
    `np.linalg.LinAlgError`); a stack of one ends at once with `error`'s.
    Returns the exit of each member (None for a member that steps) and the
    stacked (ap, ad, dx, ds, dy), with a zero step for each member that
    ends."""
    ends = [_exit(error)] if len(x) == 1 else [None] * len(x)
    zero = (np.zeros(1),) * 2 + (np.zeros((1, cells.n, cells.n)),) * 2 + (np.zeros((1, rp.shape[-1])),)
    steps = []
    for j, end in enumerate(ends):
        if end is None:
            try:
                steps.append(_step(cells, x[j : j + 1], s[j : j + 1], rp[j : j + 1], rd[j : j + 1], mu[j : j + 1], tau))
                continue
            except (_NoStep, np.linalg.LinAlgError) as err:
                ends[j] = _exit(err)
        steps.append(zero)
    return ends, [np.concatenate(a) for a in zip(*steps)]


def _exit(error: Exception) -> str:
    """The exit a member takes when its step raises `error`."""
    return error.args[0] if isinstance(error, _NoStep) else "linalg-error"


def _components(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of the graph on 0 .. size-1 with the edges
    (a[k], b[k]): each node is labelled by the smallest node of its
    component."""
    label = np.arange(size)
    while True:
        merged = label.copy()
        np.minimum.at(merged, np.concatenate([a, b]), np.concatenate([label[b], label[a]]))
        merged = merged[merged]
        if np.array_equal(merged, label):
            return label
        label = merged


class _Member:
    """One instance of a family: its data, and its own record of the run."""

    def __init__(self, instance: SdpInstance, cells: _Cells, norms: np.ndarray):
        n = cells.n
        self.b = b = instance.constraints.rhs
        self.c = c = instance.objective[np.ix_(cells.perm, cells.perm)]
        self.norm_b = 1.0 + np.linalg.norm(b)
        self.norm_c = 1.0 + np.linalg.norm(c)
        self.xi = max(10.0, np.sqrt(n), n * np.max((1.0 + np.abs(b)) / (1.0 + norms)))
        self.eta = max(10.0, np.sqrt(n), (1.0 + max(np.linalg.norm(c), np.max(norms))) / np.sqrt(n))
        self.trace = []
        self.stall = 0
        self.best = None  # (merit, x, y, s); the iterates are never modified in place
        self.end = None  # (termination, iterations, x, y, s)

    def check(self, iteration, mu, pobj, dobj, rp_norm, rd_norm, dual_safe, y_max, x, y, s):
        """Record the iterate, and name the exit it takes, if any."""
        self.trace.append(
            {
                "iteration": iteration - 1,
                "mu": mu,
                "primal_objective": pobj,
                "dual_objective": dobj,
                "dual_bound": dual_safe,
                "primal_residual": rp_norm,
                "dual_residual": rd_norm,
            }
        )
        merit = max(mu / (1.0 + abs(pobj)), rp_norm, rd_norm)
        if self.best is None or merit < self.best[0]:
            self.best = (merit, x, y, s)
            self.stall = 0
        else:
            self.stall += 1
        if mu / (1.0 + abs(pobj)) < 1e-8 and rp_norm < 1e-8 and rd_norm < 1e-8:
            return "optimal"
        if y_max > 1e9 and rp_norm > 1e-6:
            # Diverging multipliers with a stuck primal residual: the
            # documented divergence heuristic for infeasibility.
            return "infeasible-divergence"
        # Three non-improving iterates: on the README derivations no merit
        # improved after more than two.
        if self.stall > 2:
            return "stall"  # fall back to the best iterate
        return None

    def solution(self, cells: _Cells, m: int) -> SdpSolution:
        n, b, c = cells.n, self.b, self.c
        termination, iterations, x, y, s = self.end
        norm_b, norm_c = self.norm_b, self.norm_c
        infeasible = termination == "infeasible-divergence"
        if not infeasible and self.best is not None:
            # Report the iterate with the best combined merit.
            _, xb, yb, sb = self.best
            final_merit = max(
                float(np.sum(x * s)) / n / (1.0 + abs(float(np.sum(c * x)))),
                float(np.linalg.norm(b - cells.a_map(x)) / norm_b),
                float(np.linalg.norm(c - s - cells.a_adj(y)) / norm_c),
            )
            if self.best[0] < final_merit:
                x, y, s = xb, yb, sb
        rp = b - cells.a_map(x)
        rd = c - s - cells.a_adj(y)
        pobj = float(np.sum(c * x))
        dobj = float(b @ y)
        gap = float(np.sum(x * s))
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        rp_norm = float(np.linalg.norm(rp) / norm_b)
        rd_norm = float(np.linalg.norm(rd) / norm_c)
        status, unmet = "infeasible", []
        if not infeasible:
            contract = (
                ("gap", gap <= 1e-6 * (1.0 + abs(pobj))),
                ("primal residual", rp_norm <= 1e-7),
                ("dual residual", rd_norm <= 1e-7),
                ("eigenvalue", np.linalg.eigvalsh(x).min() >= -1e-8),
            )
            unmet = [name for name, holds in contract if not holds]
            status = "max-iterations" if unmet else "optimal"
        back = np.ix_(np.argsort(cells.perm), np.argsort(cells.perm))
        return SdpSolution(
            primal=x[back],
            dual=y,
            slack=s[back],
            primal_objective=pobj,
            gap=gap,
            relative_gap=float(rel_gap),
            primal_residual=rp_norm,
            dual_residual=rd_norm,
            status=status,
            iterations=iterations,
            trace=self.trace,
            kept_constraints=list(range(m)),
            termination=termination,
            unmet=unmet,
        )


def solve(instance: SdpInstance, max_iterations: int = 100) -> SdpSolution:
    """Path-following solve of one instance: the family of one
    (`solve_family`).  Deterministic for identical inputs.

    Status is "optimal" only when the duality gap and both residuals meet
    the certificate contract.  The constraint matrices must be linearly
    independent, as `companion_instance` makes them; there is no presolve.
    The solution's `termination` names the exit (see `SdpSolution`).
    """
    return solve_family([instance], max_iterations)[0]


def solve_family(instances, max_iterations: int = 100) -> list:
    """Solve instances that share their constraint cells in one run: one
    `SdpSolution` per instance, each bit for bit the one that instance
    gets alone when the members' objectives give the same diagonal blocks.

    The members may differ in the objective C and the right-hand sides b.
    The blocks (`_Cells.blocks`) come from the cells and the union of the
    objectives' patterns.  The iterates carry a leading member axis; each
    member's iteration is its own (`_step`), and every stacked numpy call
    (Cholesky, eigh, eigvalsh, solve, matmul, the maps of `_Cells` and
    sums over trailing axes) computes each member's slice as the call on
    that slice alone would.  The Schur matrix is assembled per member.
    Each member keeps its own best iterate, stall count, termination and
    status, and it leaves the stack when it ends.  A stacked step that
    raises is redone member by member (`_step_each`), so a member whose
    own step fails ends alone.

    The iterates are kept with their diagonal blocks contiguous.  From the
    block-diagonal start xi I, eta I they stay block-diagonal, so the
    scaling, the step lengths and the Schur assembly run per block: the
    step is the shortest block step and the Schur matrix is the sum over
    the blocks.
    """
    if not instances:
        raise ValueError("a family needs at least one instance")
    first = instances[0].constraints
    if len(first) == 0:
        raise SdpError("instance has no constraints")
    n, m = instances[0].dim, len(first)
    for other in instances[1:]:
        con = other.constraints
        if other.dim != n or len(con) != m or not all(
            np.array_equal(getattr(first, name), getattr(con, name)) for name in ("owner", "rows", "cols", "values")
        ):
            raise ValueError("the instances of a family must share their constraint cells")
    pattern = instances[0].objective != 0.0
    for other in instances[1:]:
        pattern |= other.objective != 0.0
    cells = _Cells(first, pattern)
    norms = first.norms()
    members = [_Member(inst, cells, norms) for inst in instances]
    live = np.arange(len(members))  # the members still iterating, in stack order
    x = np.eye(n) * np.array([mem.xi for mem in members])[:, None, None]
    s = np.eye(n) * np.array([mem.eta for mem in members])[:, None, None]
    y = np.zeros((len(members), m))
    b = np.stack([mem.b for mem in members])
    c = np.stack([mem.c for mem in members])
    norm_b = np.array([mem.norm_b for mem in members])
    norm_c = np.array([mem.norm_c for mem in members])
    tau_frac = 0.98
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        rp = b - cells.a_map(x)
        rd = c - s - cells.a_adj(y)
        xs = np.add.reduce(x * s, axis=(1, 2))
        cx = np.add.reduce(c * x, axis=(1, 2))
        rdx = np.add.reduce(rd * x, axis=(1, 2))
        rd_flat = rd.reshape(len(rd), -1)
        dobj, yrp = _dots(b, y), _dots(y, rp)
        rp_norm = np.sqrt(_dots(rp, rp)) / norm_b
        rd_norm = np.sqrt(_dots(rd_flat, rd_flat)) / norm_c
        y_max = np.abs(y).max(axis=1, initial=0.0)
        going, mu = [], []
        for j, i in enumerate(live):
            mu_j, pobj, dobj_j = float(xs[j]) / n, float(cx[j]), float(dobj[j])
            dual_safe = dobj_j - abs(yrp[j]) - abs(rdx[j])
            args = (mu_j, pobj, dobj_j, rp_norm[j], rd_norm[j], dual_safe, y_max[j], x[j], y[j], s[j])
            end = members[i].check(iteration, *args)
            if end is None:
                going.append(j)
                mu.append(mu_j)
            else:
                members[i].end = (end, iteration, x[j], y[j], s[j])
        if len(going) < len(live):
            x, s, y, b, c, norm_b, norm_c, rp, rd, live = (a[going] for a in (x, s, y, b, c, norm_b, norm_c, rp, rd, live))
            if not len(live):
                break
        try:
            ends, (ap, ad, dx, ds, dy) = [None] * len(live), _step(cells, x, s, rp, rd, mu, tau_frac)
        except (_NoStep, np.linalg.LinAlgError) as error:
            ends, (ap, ad, dx, ds, dy) = _step_each(cells, x, s, rp, rd, mu, tau_frac, error)
        going = []
        for j, i in enumerate(live):
            end = ends[j] or ("step-too-small" if min(ap[j], ad[j]) < 1e-10 else None)
            if end is None:
                going.append(j)
            else:
                members[i].end = (end, iteration, x[j], y[j], s[j])
        if len(going) < len(live):
            x, s, y, b, c, norm_b, norm_c, ap, ad, dx, ds, dy, live = (
                a[going] for a in (x, s, y, b, c, norm_b, norm_c, ap, ad, dx, ds, dy, live)
            )
            if not len(live):
                break
        # Sums of symmetric matrices: x and s stay symmetric bit for bit.
        x = x + ap[:, None, None] * dx
        s = s + ad[:, None, None] * ds
        y = y + ad[:, None] * dy
    else:
        for j, i in enumerate(live):
            members[i].end = ("iteration-cap", iteration, x[j], y[j], s[j])
    return [mem.solution(cells, m) for mem in members]


# ---------------------------------------------------------------------------
# Moment-problem driver.


@dataclass
class MomentSolveResult:
    bound: float
    solution: SdpSolution
    moments: np.ndarray


def _moment_basis(label: np.ndarray, group):
    """Free moments of the companion and their matrices.

    `label` gives the real class of each cell of the n x n matrix, and
    `group` is a symmetry group of the problem in the form
    `npa.symmetry_group` returns.  Returns (of_class, sign, cells): each
    real class carries sign times the free moment of_class, and cells are
    the upper-triangle cells (owner, rows, cols, values) of the matrices
    G_v with Gamma = sum_v y_v G_v in an orthonormal basis of the word
    space, sorted by moment, row and column.  The group merges each orbit
    of classes into one moment, up to sign, and gives the classes it forces
    to zero sign 0 and no moment.  The basis holds, per character chi of
    the group and per orbit of words with representative w, the nonzero
    sum_g chi(g) g(w), whose entries are +-1/sqrt(orbit size) (Gatermann &
    Parrilo, J. Pure Appl. Algebra 192, 2004).  G_v is block-diagonal on
    the characters; each entry is an integer sum over cells times one
    scale, so the entries off the blocks cancel exactly and have no cell.
    For the trivial group, each class is its own moment and G_v its 0/1
    cell pattern.
    """
    n = len(label)
    words, signs, class_image, class_sign = group
    order = len(words)
    # A class's moment is its orbit's smallest class times the sign of an
    # element that maps it there; an element that fixes it with sign -1
    # forces it to zero.
    classes = np.arange(class_image.shape[1])
    to_first = np.argmin(class_image, axis=0)
    sign = class_sign[to_first, classes]
    sign[np.any((class_image == classes) & (class_sign < 0), axis=0)] = 0.0
    of_class = np.zeros(len(classes), dtype=np.intp)
    _, of_class[sign != 0.0] = np.unique(class_image[to_first, classes][sign != 0.0], return_inverse=True)
    # Element t is the product of the generators at the set bits of t, so
    # character c takes the value (-1)^popcount(c & t) on it.
    chi = np.array([[(-1.0) ** bin(c & t).count("1") for t in range(order)] for c in range(order)])
    first = np.flatnonzero(np.min(words, axis=0) == np.arange(n))
    vectors = np.zeros((order, len(first), n))
    for c in range(order):
        np.add.at(vectors[c], (np.arange(len(first)), words[:, first]), chi[c][:, None] * signs[:, first])
    vectors = np.sign(vectors.reshape(-1, n))
    vectors = vectors[np.any(vectors, axis=1)]
    size = np.count_nonzero(vectors, axis=1)
    # Word r is the sum of its terms coef e_column / sqrt(size), and cell
    # (r, c) of Gamma adds coef coef' e_column e_column'^T per pair of
    # terms of r and c.  Summing every cell makes the upper triangle
    # collect all of G_v, and the integer weights sum exactly in any order.
    word, column = np.nonzero(vectors.T)
    coef = vectors[column, word]
    cell_class = label[np.ix_(word, word)]
    weight = sign[cell_class] * np.outer(coef, coef)
    term = (column[:, None] <= column) & (weight != 0.0)
    key, slot = np.unique(((of_class[cell_class] * n + column[:, None]) * n + column)[term], return_inverse=True)
    owner, row, col = key // (n * n), key // n % n, key % n
    values = np.bincount(slot, weight[term]) / np.sqrt(size[row] * size[col])
    cell = values != 0.0
    return of_class, sign, (owner[cell], row[cell], col[cell], values[cell])


class _Companion:
    """The part of the companion of min p.y s.t. e @ y = d over
    Gamma = sum_v y_v G_v >= 0 that neither p nor d moves: the free moments
    under `group` (`_moment_basis`), the elimination of the rows of e, and
    the constraint cells of the G_j.  `pose` adds p and d.

    The k rows of e are eliminated in one sweep: each row, reduced by the
    rows kept before it, pivots on its largest entry off the earlier
    pivots, and its pivot column is then eliminated from the later rows.
    A row whose reduced entries are all at most 1e-10 of its largest entry
    depends on the kept rows and is dropped; whether its value agrees with
    theirs depends on d, so `pose` checks it.  What is left,
    max b.z  s.t.  C0 - sum z_j (-G_j) >= 0,  has one constraint matrix
    per free moment that no pivot takes, each with cells of its own moment,
    so they are linearly independent.  Its arrays are read-only, since a
    cache shares it between calls.
    """

    def __init__(self, label: np.ndarray, e, group):
        self.of_class, self.sign, (owner, rows, cols, values) = _moment_basis(label, group)
        n = self.n = len(label)
        m = self.m = int(self.of_class.max()) + 1
        e_all = self.e_all = np.array([self._merged(row) for row in e]).reshape(-1, m)
        reduced, kept, pivots = e_all.copy(), [], []
        for i, row in enumerate(reduced):
            size = np.abs(row)
            size[pivots] = 0.0
            v = int(np.argmax(size))
            if size[v] > 1e-10 * np.max(np.abs(e_all[i])):
                kept.append(i)
                pivots.append(v)
                later = i + 1 + np.flatnonzero(reduced[i + 1 :, v])
                reduced[later] -= reduced[later, v, None] / row[v] * row
        self.kept, self.pivots = np.array(kept, dtype=np.intp), np.array(pivots, dtype=np.intp)
        self.dropped = np.flatnonzero(~np.isin(np.arange(len(e_all)), kept))
        self.free = free = np.flatnonzero(~np.isin(np.arange(m), pivots))
        self.e_piv = e_all[kept][:, pivots]
        self.coupling = coupling = -np.linalg.solve(self.e_piv, e_all[kept][:, free])  # k x (m-k)
        # The cells of each pivot moment, where C0 holds its value.
        self.pivot_cells = [np.flatnonzero(owner == v) for v in pivots]
        self.rows, self.cols, self.values = rows, cols, values
        # G_j of free moment j plus its coupling terms, which sit on the cells
        # of the pivot moments; each cell sums them in pivot order.  Only the
        # free moments with a nonzero coupling to a pivot get its terms: a zero
        # term adds nothing to any cell's sum.
        own = np.flatnonzero(~np.isin(owner, pivots))
        terms = [(np.searchsorted(free, owner[own]), own, np.ones(len(own)))]
        for k, on in enumerate(self.pivot_cells):
            coupled = np.flatnonzero(coupling[k])
            j = np.repeat(coupled, len(on))
            terms.append((j, np.tile(on, len(coupled)), coupling[k, j]))
        j, cell, weight = (np.concatenate(part) for part in zip(*terms))
        key, slot = np.unique((j * n + rows[cell]) * n + cols[cell], return_inverse=True)
        self.cells = (key // (n * n), key // n % n, key % n, -np.bincount(slot, weight * values[cell]))
        fixed = (self.of_class, self.sign, e_all, self.kept, self.pivots, self.dropped, free, self.e_piv, coupling)
        for array in (*fixed, *self.pivot_cells, rows, cols, values, *self.cells):
            array.flags.writeable = False

    def _merged(self, vec):
        """A vector over the classes as one over the free moments."""
        return np.bincount(self.of_class, self.sign * vec, minlength=self.m)

    def pose(self, p, d):
        """The companion at objective p and right-hand sides d, as
        `companion_instance` returns it: the standard-form instance, the
        offset and `recover`.  Raises `InfeasibleError` when a dropped
        row's value disagrees with the kept rows'."""
        p = self._merged(p)
        d_all = np.asarray(d, dtype=float)
        pivots, free, coupling = self.pivots, self.free, self.coupling
        y_piv0 = np.linalg.solve(self.e_piv, d_all[self.kept])
        y0 = np.zeros(self.m)
        y0[pivots] = y_piv0
        # A dropped row is a combination of the kept ones, which y0 meets, so
        # it holds at y0 exactly when its value agrees with theirs.
        e_dropped, d_dropped = self.e_all[self.dropped], d_all[self.dropped]
        mismatch = np.abs(e_dropped @ y0 - d_dropped)
        scale = np.abs(d_dropped) + np.abs(e_dropped) @ np.abs(y0)
        if np.any(mismatch > 1e-9 * scale):
            raise InfeasibleError(f"inconsistent equality constraints (mismatch {np.max(mismatch):.3e})")

        c0 = np.zeros((self.n, self.n))
        for y, on in zip(y_piv0, self.pivot_cells):
            c0[self.rows[on], self.cols[on]] += y * self.values[on]
        c0 += np.triu(c0, 1).T
        offset = float(p @ y0)
        b_eff = p[free]
        for k, v in enumerate(pivots):
            b_eff = b_eff + coupling[k] * p[v]
        instance = SdpInstance(c0, Constraints(*self.cells, -b_eff))
        sign, of_class = self.sign, self.of_class

        def recover(z: np.ndarray) -> np.ndarray:
            y = y0.copy()
            y[free] += z
            y[pivots] += coupling @ z
            return sign * y[of_class]

        return instance, offset, recover


def companion_instance(label: np.ndarray, p: np.ndarray, e, d, group):
    """Pose min p.y subject to e @ y = d over the moment matrix
    Gamma = sum_v y_v G_v >= 0 as the dual of a standard-form instance.

    `label` gives the class of each cell, and p and the k rows of e are
    vectors over the classes.  The free moments and their matrices come
    from `_moment_basis`, merged under `group`; a class the group forces
    to zero has no moment, so it is in neither the free moments nor the
    cells of their matrices.  The structure that p and d do not move (the
    free moments, the elimination of the rows of e and the constraint
    cells) is built by `_Companion`, and its `pose` adds p and d: a
    dependent row of e is dropped when its value agrees with the kept
    rows', and `InfeasibleError` is raised when it does not.  Returns the
    standard-form instance, the offset, with the minimum equal to
    offset - (the instance's optimum), and `recover`, which maps the
    instance's dual z to the moments of all classes.
    """
    return _Companion(label, e, group).pose(p, d)


def fold_ties(instance: SdpInstance):
    """The problem min tr(C X) s.t. tr(A_i X) = b_i, X >= 0 of an SDPA
    file, over the classes of cells that its tie constraints join, as
    `companion_instance` takes it.

    A tie is a constraint on two cells with right-hand side 0 whose
    effective coefficients (the value on the diagonal, twice it off the
    diagonal, as tr(A_i X) weighs them) sum to zero: it says that the two
    cells are equal.  `_components` joins the tied cells; the classes are
    numbered by their first upper-triangle cell in row-major order, and
    every cell of the matrix is in one.  Every other constraint is a row
    over the classes.  Returns (label, p, e, d, group) with the trivial
    group: a file carries no words to find symmetries on.  The dense rows
    are refused before they are built when they would hold more than
    `npa.MAX_WORKSPACE_ENTRIES` entries.
    """
    con = instance.constraints
    n, m = instance.dim, len(con)
    effective = np.where(con.rows == con.cols, 1.0, 2.0) * con.values
    tie = (
        (np.bincount(con.owner, minlength=m) == 2)
        & (con.rhs == 0.0)
        & (np.bincount(con.owner, effective, minlength=m) == 0.0)
    )
    # The cells are sorted by constraint, so a tie's two cells are adjacent.
    cell = con.rows * n + con.cols
    first, second = cell[tie[con.owner]].reshape(-1, 2).T
    upper = np.triu(_components(n * n, first, second).reshape(n, n))
    _, label = np.unique(upper + np.triu(upper, 1).T, return_inverse=True)
    label = label.reshape(n, n)
    classes = int(label.max()) + 1
    row = np.cumsum(~tie) - 1  # the row of each constraint that is not a tie
    k = m - int(np.count_nonzero(tie))
    if k * classes > npa.MAX_WORKSPACE_ENTRIES:
        raise ValueError(
            f"{k} constraints that are not ties over {classes} classes of cells: their rows would hold "
            f"{k * classes} float64 entries; the solver accepts at most {npa.MAX_WORKSPACE_ENTRIES}"
        )
    on = ~tie[con.owner]
    e = np.bincount(
        row[con.owner[on]] * classes + label[con.rows[on], con.cols[on]], effective[on], minlength=k * classes
    ).reshape(k, classes)
    p = np.bincount(label.ravel(), instance.objective.ravel(), minlength=classes)
    group = (np.arange(n)[None], np.ones((1, n)), np.arange(classes)[None], np.ones((1, classes)))
    return label, p, e, con.rhs[~tie], group


def _data_key(*arrays) -> tuple:
    """The bytes of each array, a dictionary key for their data.  The
    arrays keyed have fixed dtypes, and their shapes follow from their
    sizes once the label, which is square, is in the key: the vectors run
    over its classes and the group's rows over its words or classes."""
    return tuple(np.asarray(a).tobytes() for a in arrays)


@dataclass(frozen=True)
class _Structure:
    """A companion structure's data, (label, norm, q, *group), equal and
    hashed by its bytes (`_data_key`), so that `_companion` can cache on it."""

    key: tuple
    data: tuple = field(compare=False)


# The caches below are bounded, so a sweep over settings, word caps and
# objectives cannot grow memory without limit; a command needs at most
# four problems and two structures.  Exceptions are not cached.
@functools.lru_cache(maxsize=16)
def _reduced_problem(setting: str, inequality: str, cap: int, objective: str) -> npa.MomentProblem:
    """The moment problem of one objective, with read-only arrays."""
    problem = npa.build_moment_problem(setting, npa.generate_words(setting, cap), objective, inequality)
    for array in (problem.entry_ids, problem.label, problem.p, problem.q, problem.norm, *problem.group):
        array.flags.writeable = False
    return problem


@functools.lru_cache(maxsize=8)
def _companion(structure: _Structure) -> _Companion:
    label, norm, q, *group = structure.data
    return _Companion(label, [norm, q], group)


def solve_moment_problems(points) -> list:
    """Certified minima of moment problems' objectives at violation levels,
    one `MomentSolveResult` per (problem, violation) point.

    The companion structure (`_Companion`) of a point is known by the
    bytes of its problem's label, norm, q and group, and comes from a
    bounded cache (`_companion`), so a structure is built once per process
    while it stays cached, and a different group, however it was found,
    gets its own.  A
    distinct point (structure, p and violation) is posed and solved once;
    its solution goes to every point that posed it.  The points posed on
    one structure share its cells and blocks and are one family
    (`solve_family`).  This is the one place that refuses a solve that did
    not end "optimal", point by point, in the order of `points`; the
    refusal names the solve's termination, iterations, relative gap and
    the contract tests it failed (`SdpSolution.unmet`)."""
    families, distinct, posed, of_point = {}, {}, [], []
    for problem, violation in points:
        data = (problem.label, problem.norm, problem.q, *problem.group)
        shared = _data_key(*data)
        point = (shared, problem.p.tobytes(), violation)
        if point not in distinct:
            structure = _companion(_Structure(shared, data))
            distinct[point] = len(posed)
            families.setdefault(shared, []).append(len(posed))
            posed.append(structure.pose(problem.p, [1.0, violation]))
        of_point.append(distinct[point])
    solutions = [None] * len(posed)
    for family in families.values():
        for k, sol in zip(family, solve_family([posed[k][0] for k in family])):
            solutions[k] = sol
    results = []
    for (_, violation), k in zip(points, of_point):
        (_, offset, recover), sol = posed[k], solutions[k]
        if sol.status != "optimal":
            # Never report a bound the solver could not certify (an
            # unreachable violation level shows up here as an unbounded
            # companion).
            failed = f", failed {', '.join(sol.unmet)}" if sol.unmet else ""
            raise SdpError(
                f"moment problem at violation {violation!r} ({sol.termination} after {sol.iterations} iterations, "
                f"relative gap {sol.relative_gap:.2e}{failed}): solve ended with status {sol.status!r}"
            )
        results.append(MomentSolveResult(bound=float(offset - sol.primal_objective), solution=sol, moments=recover(sol.dual)))
    return results


def moment_points(setting: str, inequality: str, objective: str, epsilons, max_local_length: int | None) -> list:
    """The `solve_moment_problems` points of one objective at the violation
    level (max - eps) of each grid point: its moment problem at the word
    cap (the setting's default when None), from the per-process cache.
    Refuses a grid point outside (0, half the maximal violation], NaN
    included, before it builds anything."""
    wmax = cert.max_violation(setting, inequality)
    if not all(0.0 < e <= 0.5 * wmax for e in epsilons):
        raise ValueError("epsilon grid must sit in (0, half the maximal violation]")
    problem = _reduced_problem(setting, inequality, _word_cap(setting, max_local_length), objective)
    return [(problem, wmax - eps) for eps in epsilons]


def _curve_solves(setting: str, inequality: str, objectives, epsilons, max_local_length: int | None) -> dict:
    """{objective: [(eps, `MomentSolveResult`)]} at violation (max - eps)
    per grid point, from the points of each objective (`moment_points`)
    and one solve per distinct point (`solve_moment_problems`)."""
    epsilons = [float(e) for e in epsilons]
    points = []
    for objective in objectives:
        points += moment_points(setting, inequality, objective, epsilons, max_local_length)
    results = iter(solve_moment_problems(points))
    return {objective: [(eps, next(results)) for eps in epsilons] for objective in objectives}


def min_fidelity_curve(
    setting: str,
    objective: str,
    inequality: str,
    epsilons,
    max_local_length: int | None = None,
):
    """Certified minimum fidelities at violation (max - eps) per grid point."""
    points = _curve_solves(setting, inequality, (objective,), epsilons, max_local_length)[objective]
    return [(eps, result.bound) for eps, result in points]


def _word_cap(setting: str, max_local_length: int | None) -> int:
    """The local word length cap: the setting's default when none is given.
    A cap below 1 is kept, for `npa.generate_words` to refuse."""
    return DEFAULT_WORD_CAP[setting] if max_local_length is None else max_local_length


def fit_alpha(curve) -> float:
    """Pointwise-max slope so that F >= 1 - alpha * eps holds on the grid."""
    pts = [(float(e), float(f)) for e, f in curve]
    if any(e <= 0 for e, _ in pts):
        raise ValueError("epsilon values must be positive")
    return max((1.0 - f) / e for e, f in pts)


def derive_alpha(
    setting: str,
    inequality: str,
    kind: str,
    epsilons=(0.01, 0.02, 0.05, 0.1, 0.2),
    max_local_length: int | None = None,
) -> dict:
    """Self-testing constant for the state bound or the measurement bound:
    the report of `derive_alphas` for one kind."""
    return derive_alphas(setting, inequality, (kind,), epsilons, max_local_length)[kind]


def derive_alphas(setting: str, inequality: str, kinds, epsilons, max_local_length: int | None = None) -> dict:
    """Self-testing constants per kind ("state" or "measurement"), from
    one run of `_curve_solves` over the objectives of every kind, so that
    the points of all kinds that are one problem are solved once and the
    companions that share their cells are solved as one family.

    The measurement constant is the worst case over the measurement
    objectives of the setting.  `solves` reports, per objective and grid
    point, how each solve ended: its `termination`, `iterations` and
    `relative_gap`, and no wall time, so that reruns at a fixed BLAS
    thread count are byte-identical.
    """
    objectives = {}
    for kind in kinds:
        if kind == "state":
            objectives[kind] = ("state",)
        elif kind == "measurement":
            objectives[kind] = MEASUREMENT_OBJECTIVES[setting]
        else:
            raise ValueError(f"unknown kind {kind!r}")
    points = _curve_solves(setting, inequality, [o for kind in kinds for o in objectives[kind]], epsilons, max_local_length)
    reports = {}
    for kind in kinds:
        curves = {objective: [(eps, result.bound) for eps, result in points[objective]] for objective in objectives[kind]}
        solves = {
            objective: [
                {
                    "epsilon": eps,
                    "termination": result.solution.termination,
                    "iterations": result.solution.iterations,
                    "relative_gap": result.solution.relative_gap,
                }
                for eps, result in points[objective]
            ]
            for objective in objectives[kind]
        }
        alphas = {objective: fit_alpha(curve) for objective, curve in curves.items()}
        reports[kind] = {
            "setting": setting,
            "inequality": inequality,
            "kind": kind,
            "alpha": max(alphas.values()),
            "per_objective": alphas,
            "curves": curves,
            "solves": solves,
            "word_cap": _word_cap(setting, max_local_length),
            "epsilons": list(epsilons),
        }
    return reports

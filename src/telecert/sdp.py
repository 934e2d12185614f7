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

The constraint matrices are sparse (an 81x81 moment-problem constraint
has a median of 28 nonzero entries), so an instance holds each A_i only
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
`npa.ReducedProblem.label`: the deduplicated and the generated exports
of the fully untrusted problem (3138 and 47702 constraints) both fold to
its 185 classes and solve with 183 constraints.

The problem's symmetries among the Alice<->Bob swap and the global sign
flip (A, B) -> (-A, -B) form an abelian group (`npa.symmetry_group`
checks each element exactly on the word list, the classes and the
functionals).  Each orbit of classes
shares one moment up to sign, the classes of odd word length that the
flip negates are zero, and the companion is posed in a basis adapted to
the group's characters, where it is block-diagonal (Gatermann & Parrilo,
J. Pure Appl. Algebra 192, 2004).  The fully untrusted `state`, `ZAZB`
and `XAXB` problems keep the whole group and split 25 + 16 + 20 + 20
with 59 constraints, and `ZAXB` keeps the flip and splits 41 + 40 with
103, instead of one 81x81 block with 183; tests check their bounds
against the unreduced solves to 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cert, npa

DEFAULT_WORD_CAP = {npa.SETTING_1SDI: 3, npa.SETTING_DI: 4}

# The measurement constant of a trust setting is the worst case over its
# measurement objectives.
MEASUREMENT_OBJECTIVES = {
    npa.SETTING_1SDI: ("ZB", "XB"),
    npa.SETTING_DI: ("ZAZB", "XAXB", "ZAXB"),
}


class SdpError(RuntimeError):
    pass


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


def _check_symmetric(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    # NaN fails every comparison, so the symmetry test below would pass it.
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(mat - mat.T)) > tol * max(1.0, np.max(np.abs(mat))):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (mat + mat.T)


@dataclass
class SdpSolution:
    """Result of `solve`.

    `termination` names the exit that ended the iteration:
    "optimal", "infeasible-divergence", "stall", "schur-breakdown"
    (the Schur matrix failed Cholesky at every jitter level),
    "non-finite-scaling", "step-too-small", "iteration-cap" or
    "linalg-error" (an eigendecomposition or linear solve failed).
    `status` is the verdict on the reported iterate and can differ: a stall
    can still end "optimal".  `kept_constraints` lists every constraint:
    the instances are full-rank by construction (`companion_instance`).
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


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve chol chol^T x = rhs by blocked substitution: numpy has no
    triangular solve, and an LU solve of the whole matrix would cost more
    than its Cholesky factorization."""
    block = 128
    x = rhs.copy()
    starts = range(0, len(x), block)
    for lo in starts:
        hi = lo + block
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi], x[lo:hi] - chol[lo:hi, :lo] @ x[:lo])
    for lo in reversed(starts):
        hi = lo + block
        x[lo:hi] = np.linalg.solve(chol[lo:hi, lo:hi].T, x[lo:hi] - chol[hi:, lo:hi].T @ x[hi:])
    return x


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
        groups = [np.flatnonzero(label == root) for root in np.unique(label)]
        self.perm = np.concatenate(groups)
        ends = np.cumsum([len(idx) for idx in groups])
        self.blocks = [slice(end - len(idx), end) for idx, end in zip(groups, ends)]
        position = np.argsort(self.perm)
        r, c = position[r], position[c]
        self.pos = r * n + c
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
        """tr(A_i X) for every constraint."""
        return np.add.reduceat(x.reshape(-1)[self.pos2] * self.vals2, self.starts2)[self.rank]

    def a_adj(self, y):
        """sum_i y_i A_i."""
        weights = np.repeat(y[self.order], self.counts) * self.vals
        u = np.bincount(self.pos, weights, minlength=self.n * self.n).reshape(self.n, self.n)
        return u + u.T

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
    SIAM J. Optim. 8, 1998): with the Cholesky factor X = L L^T and
    L^T S L = Q diag(e) Q^T, G = L Q diag(e^{-1/4}) and d = e^{1/2}.  Then
    G G^T = W, the scaling point with W S W = X, and
    G^{-1} X G^{-T} = G^T S G = diag(d).  An X that is not numerically
    positive definite raises `np.linalg.LinAlgError`."""
    low = np.linalg.cholesky(x)
    t = low.T @ s @ low
    e, q = np.linalg.eigh(0.5 * (t + t.T))
    e = np.clip(e, 1e-300, None)
    return low @ (q * e**-0.25), np.sqrt(e)


class _Frame(NamedTuple):
    """One block's NT-scaled frame at one iterate."""

    block: slice  # the block's rows and columns
    g: np.ndarray  # G with G G^T = W (`_nt_scaling`)
    d: np.ndarray  # G^-1 X G^-T = G^T S G = diag(d)
    lyapunov: np.ndarray  # 2 / (d_i + d_j): V with 1/2 (D V + V D) = R is R * lyapunov
    scale: np.ndarray  # 1 / sqrt(d_i d_j): dZ * scale is D^-1/2 dZ D^-1/2


def _max_step(lam: np.ndarray, tau: float) -> np.ndarray:
    """Largest alpha <= 1 with diag(d) + alpha dZ staying positive definite,
    shortened by tau, for each scaled direction dZ whose
    D^{-1/2} dZ D^{-1/2} has the smallest eigenvalue in `lam`."""
    if not np.all(np.isfinite(lam)):
        raise np.linalg.LinAlgError("step direction is not finite")
    return np.minimum(1.0, -tau / np.minimum(lam, -tau))


def _directions(cells: _Cells, chol: np.ndarray, frames: list, rp: np.ndarray, rd: np.ndarray, targets: list):
    """Search directions for a stack of complementarity targets.

    `frames` holds the `_Frame` of each block, and `targets` per block a
    stack of symmetric right-hand sides R.  For each R the direction meets
    A(dX) = rp, dS = rd - A*(dy) and, with dX~ = G^-1 dX G^-T and
    dS~ = G^T dS G,
        1/2 (D (dX~ + dS~) + (dX~ + dS~) D) = R,
    that is dX~ + dS~ = V with V_ij = 2 R_ij / (d_i + d_j).  Then
    dX = G (V - G^T rd G) G^T + W A*(dy) W, so the Schur system
    M dy = rp - A(G (V - G^T rd G) G^T) takes one column per target, all
    on the one Cholesky factor.  Returns the stacks dy and dS, and per
    block the stacks dX~ and dS~.
    """
    k = np.zeros((len(targets[0]), cells.n, cells.n))
    sums = []
    for f, r in zip(frames, targets):
        sums.append(r * f.lyapunov)
        k[:, f.block, f.block] = f.g @ (sums[-1] - f.g.T @ rd[f.block, f.block] @ f.g) @ f.g.T
    dy = _cho_solve(chol, np.stack([rp - cells.a_map(k_j) for k_j in k], axis=1)).T
    # rd and a_adj(dy) are symmetric bit for bit, so dS is too.
    ds = np.stack([rd - cells.a_adj(dy_j) for dy_j in dy])
    ds_t = [f.g.T @ ds[:, f.block, f.block] @ f.g for f in frames]
    return dy, ds, [v - t for v, t in zip(sums, ds_t)], ds_t


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


def solve(instance: SdpInstance, max_iterations: int = 100) -> SdpSolution:
    """Path-following solve; deterministic for identical inputs.

    Status is "optimal" only when the duality gap and both residuals meet
    the certificate contract.  The constraint matrices must be linearly
    independent, as `companion_instance` makes them; there is no presolve.
    The solution's `termination` names the exit (see `SdpSolution`).

    The iterates are kept with their diagonal blocks (`_Cells.blocks`)
    contiguous.  From the block-diagonal start xi I, eta I they stay
    block-diagonal, so the scaling, the step lengths and the Schur
    assembly run per block: the step is the shortest block step and the
    Schur matrix is the sum over the blocks.

    Each iteration takes the predictor (sigma = 0), then sigma =
    (mu_aff / mu)^3 and two corrector directions on the same Cholesky
    factor (`_directions`): the plain one, with the target sigma mu I - D^2
    in the NT-scaled frame of each block, and Mehrotra's, which also
    subtracts sym(dX~_a dS~_a).  Mehrotra's is taken only when its step
    reaches a lower mu than the plain one's.
    """
    n = instance.dim
    constraints = instance.constraints
    if len(constraints) == 0:
        raise SdpError("instance has no constraints")
    cells = _Cells(constraints, instance.objective)
    blocks, norms = cells.blocks, constraints.norms()
    b = constraints.rhs
    m = len(b)
    c = instance.objective[np.ix_(cells.perm, cells.perm)]
    a_map, a_adj = cells.a_map, cells.a_adj

    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)
    xi = max(10.0, np.sqrt(n), n * np.max((1.0 + np.abs(b)) / (1.0 + norms)))
    eta = max(10.0, np.sqrt(n), (1.0 + max(np.linalg.norm(c), np.max(norms))) / np.sqrt(n))
    x = xi * np.eye(n)
    s = eta * np.eye(n)
    y = np.zeros(m)

    def reached(frames, dx_t, ds_t, ap, ad):
        """mu = tr(X S) / n at the steps of each direction, read in the
        scaled frame: tr((D + ap dX~)(D + ad dS~)), expanded."""
        total = 0.0
        for f, dx_b, ds_b in zip(frames, dx_t, ds_t):
            total = total + (
                f.d @ f.d
                + ap * (dx_b.diagonal(0, 1, 2) @ f.d)
                + ad * (ds_b.diagonal(0, 1, 2) @ f.d)
                + ap * ad * np.einsum("kij,kij->k", dx_b, ds_b)
            )
        return total / n

    trace = []
    status = "max-iterations"
    tau_frac = 0.98
    stall = 0
    best = None  # (merit, x, y, s); the iterates are never modified in place
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        rp = b - a_map(x)
        rd = c - s - a_adj(y)
        mu = float(np.sum(x * s)) / n
        pobj = float(np.sum(c * x))
        dobj = float(b @ y)
        rp_norm = np.linalg.norm(rp) / norm_b
        rd_norm = np.linalg.norm(rd) / norm_c
        dual_safe = dobj - abs(y @ rp) - abs(np.sum(rd * x))
        trace.append(
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
        if best is None or merit < best[0]:
            best = (merit, x, y, s)
            stall = 0
        else:
            stall += 1
        if mu / (1.0 + abs(pobj)) < 1e-8 and rp_norm < 1e-8 and rd_norm < 1e-8:
            status = termination = "optimal"
            break
        if np.max(np.abs(y), initial=0.0) > 1e9 and rp_norm > 1e-6:
            # Diverging multipliers with a stuck primal residual: the
            # documented divergence heuristic for infeasibility.
            status = "infeasible"
            termination = "infeasible-divergence"
            break
        # Three non-improving iterates: on the README derivations no merit
        # improved after more than two.
        if stall > 2:
            termination = "stall"
            break  # fall back to the best iterate

        try:
            frames = []
            w = np.zeros((n, n))
            for sl in blocks:
                g, d = _nt_scaling(x[sl, sl], s[sl, sl])
                w[sl, sl] = g @ g.T
                r = 1.0 / np.sqrt(d)
                frames.append(_Frame(sl, g, d, 2.0 / (d[:, None] + d), r[:, None] * r))
            if not np.all(np.isfinite(w)):
                termination = "non-finite-scaling"
                break
            schur = cells.schur(w)
            schur = 0.5 * (schur + schur.T)
            shift = max(np.trace(schur) / m, 1.0)
            for jitter in (1e-13, 1e-10, 1e-7):
                try:
                    chol = np.linalg.cholesky(schur + jitter * shift * np.eye(m))
                    break
                except np.linalg.LinAlgError:
                    pass
            else:
                termination = "schur-breakdown"
                break  # return the best iterate so far

            # Predictor: sigma = 0 and no second-order term, R = -D^2.  Then
            # dX~ = -D - dS~, and one eigvalsh per block gives both steps:
            # the primal one reads the largest eigenvalue of the dual's.
            _, _, dx_t, ds_t = _directions(cells, chol, frames, rp, rd, [np.diag(-f.d * f.d)[None] for f in frames])
            lam = np.inf
            for f, ds_b in zip(frames, ds_t):
                vals = np.linalg.eigvalsh(ds_b[0] * f.scale)
                lam = np.minimum(lam, (-1.0 - vals[-1], vals[0]))
            ap, ad = _max_step(lam, tau_frac)
            sigma_mu = min(0.99, max((reached(frames, dx_t, ds_t, ap, ad)[0] / mu) ** 3, 1e-8)) * mu

            # Corrector: R = sigma mu I - D^2 - M with Mehrotra's
            # second-order term M = sym(dX~_a dS~_a), and the plain
            # direction without M; one eigvalsh per block gives the steps
            # of both.
            targets = []
            for f, dx_b, ds_b in zip(frames, dx_t, ds_t):
                centre = np.diag(sigma_mu - f.d * f.d)
                prod = dx_b[0] @ ds_b[0]
                targets.append(np.stack([centre, centre - 0.5 * (prod + prod.T)]))
            dy, ds, dx_t, ds_t = _directions(cells, chol, frames, rp, rd, targets)
            lam = np.inf
            for f, dx_b, ds_b in zip(frames, dx_t, ds_t):
                lam = np.minimum(lam, np.linalg.eigvalsh(np.concatenate([dx_b, ds_b]) * f.scale).min(axis=1))
            ap, ad = _max_step(lam, tau_frac).reshape(2, 2)
            # Far from the central path the term can overshoot: keep it only
            # when it reaches a lower mu than the plain direction.
            mu_plain, mu_corr = reached(frames, dx_t, ds_t, ap, ad)
            pick = 1 if mu_corr < mu_plain else 0
            ap, ad, dy, ds = ap[pick], ad[pick], dy[pick], ds[pick]
            dx = np.zeros((n, n))
            for f, dx_b in zip(frames, dx_t):
                dx[f.block, f.block] = f.g @ dx_b[pick] @ f.g.T
            dx = 0.5 * (dx + dx.T)
        except np.linalg.LinAlgError:
            termination = "linalg-error"
            break
        if min(ap, ad) < 1e-10:
            termination = "step-too-small"
            break
        # Sums of symmetric matrices: x and s stay symmetric bit for bit.
        x = x + ap * dx
        s = s + ad * ds
        y = y + ad * dy
    else:
        termination = "iteration-cap"

    if status != "infeasible" and best is not None:
        # Report the iterate with the best combined merit.
        _, xb, yb, sb = best
        final_merit = max(
            float(np.sum(x * s)) / n / (1.0 + abs(float(np.sum(c * x)))),
            float(np.linalg.norm(b - a_map(x)) / norm_b),
            float(np.linalg.norm(c - s - a_adj(y)) / norm_c),
        )
        if best[0] < final_merit:
            x, y, s = xb, yb, sb
    rp = b - a_map(x)
    rd = c - s - a_adj(y)
    pobj = float(np.sum(c * x))
    dobj = float(b @ y)
    gap = float(np.sum(x * s))
    rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    rp_norm = float(np.linalg.norm(rp) / norm_b)
    rd_norm = float(np.linalg.norm(rd) / norm_c)
    if status != "infeasible":
        contract = (
            gap <= 1e-6 * (1.0 + abs(pobj))
            and rp_norm <= 1e-7
            and rd_norm <= 1e-7
            and np.linalg.eigvalsh(x).min() >= -1e-8
        )
        status = "optimal" if contract else "max-iterations"
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
        iterations=iteration,
        trace=trace,
        kept_constraints=list(range(m)),
        termination=termination,
    )


# ---------------------------------------------------------------------------
# Moment-problem driver.


@dataclass
class MomentSolveResult:
    bound: float
    violation: float
    solution: SdpSolution
    moments: np.ndarray
    gamma: np.ndarray


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


def companion_instance(label: np.ndarray, p: np.ndarray, e, d, group):
    """Pose min p.y subject to e @ y = d over the moment matrix
    Gamma = sum_v y_v G_v >= 0 as the dual of a standard-form instance.

    `label` gives the class of each cell, and p and the k rows of e are
    vectors over the classes.  The free moments and their matrices come
    from `_moment_basis`, merged under `group`; a class the group forces
    to zero has no moment, so it is in neither the free moments nor the
    cells of their matrices.  The k equalities are eliminated in one sweep:
    each row, reduced by the rows kept before it, pivots on its largest
    entry off the earlier pivots, and its pivot column is then eliminated
    from the later rows.  A row whose reduced entries are all at
    most 1e-10 of its largest entry depends on the kept rows and is
    dropped when its value agrees with theirs, and `InfeasibleError` is
    raised when it does not.  What is left,
    max b.z  s.t.  C0 - sum z_j (-G_j) >= 0,  has one constraint matrix
    per free moment that no pivot takes, each with cells of its own moment,
    so they are linearly independent; its companion primal is returned,
    and the minimum equals offset - (companion optimum).  `recover` maps z
    to the moments of all classes.
    """
    of_class, sign, (owner, rows, cols, values) = _moment_basis(label, group)
    n = len(label)
    m = int(of_class.max()) + 1

    def merged(vec):
        return np.bincount(of_class, sign * vec, minlength=m)

    p = merged(p)
    e_all = np.array([merged(row) for row in e]).reshape(-1, m)
    d_all = np.asarray(d, dtype=float)
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
    e, d = e_all[kept], d_all[kept]
    free = np.flatnonzero(~np.isin(np.arange(m), pivots))
    e_piv = e[:, pivots]
    e_free = e[:, free]
    y_piv0 = np.linalg.solve(e_piv, d)
    coupling = -np.linalg.solve(e_piv, e_free)  # k x (m-k)
    y0 = np.zeros(m)
    y0[pivots] = y_piv0
    # A dropped row is a combination of the kept ones, which y0 meets, so
    # it holds at y0 exactly when its value agrees with theirs.
    dropped = np.setdiff1d(np.arange(len(e_all)), kept)
    mismatch = np.abs(e_all[dropped] @ y0 - d_all[dropped])
    scale = np.abs(d_all[dropped]) + np.abs(e_all[dropped]) @ np.abs(y0)
    if np.any(mismatch > 1e-9 * scale):
        raise InfeasibleError(f"inconsistent equality constraints (mismatch {np.max(mismatch):.3e})")

    c0 = np.zeros((n, n))
    for y, v in zip(y_piv0, pivots):
        on = owner == v
        c0[rows[on], cols[on]] += y * values[on]
    c0 += np.triu(c0, 1).T
    offset = float(p @ y0)
    # G_j of free moment j plus its coupling terms, which sit on the cells
    # of the pivot moments; each cell sums them in pivot order.  Only the
    # free moments with a nonzero coupling to a pivot get its terms: a zero
    # term adds nothing to any cell's sum.
    own = np.flatnonzero(~np.isin(owner, pivots))
    terms = [(np.searchsorted(free, owner[own]), own, np.ones(len(own)))]
    b_eff = p[free]
    for k, v in enumerate(pivots):
        on = np.flatnonzero(owner == v)
        coupled = np.flatnonzero(coupling[k])
        j = np.repeat(coupled, len(on))
        terms.append((j, np.tile(on, len(coupled)), coupling[k, j]))
        b_eff = b_eff + coupling[k] * p[v]
    j, cell, weight = (np.concatenate(part) for part in zip(*terms))
    key, slot = np.unique((j * n + rows[cell]) * n + cols[cell], return_inverse=True)
    g_values = np.bincount(slot, weight * values[cell])
    instance = SdpInstance(c0, Constraints(key // (n * n), key // n % n, key % n, -g_values, -b_eff))

    def recover(z: np.ndarray) -> np.ndarray:
        y = y0.copy()
        y[free] += z
        y[pivots] += coupling @ z
        return sign * y[of_class]

    return instance, offset, recover


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


def solve_moment_problem(reduced: npa.ReducedProblem, violation: float) -> MomentSolveResult:
    """Certified minimum of the reduced problem's objective at a violation
    level: the one per-point path, and the one place that refuses a solve
    that did not end "optimal"."""
    instance, offset, recover = companion_instance(
        reduced.label, reduced.p, [reduced.norm, reduced.q], [1.0, violation], npa.symmetry_group(reduced)
    )
    sol = solve(instance)
    if sol.status != "optimal":
        # Never report a bound the solver could not certify (an unreachable
        # violation level shows up here as an unbounded companion).
        raise SdpError(f"moment problem at violation {violation!r}: solve ended with status {sol.status!r}")
    y = recover(sol.dual)
    return MomentSolveResult(
        bound=float(offset - sol.primal_objective),
        violation=violation,
        solution=sol,
        moments=y,
        gamma=reduced.assemble(y),
    )


def _curve_solves(setting: str, objective: str, inequality: str, epsilons, max_local_length: int | None):
    """(eps, `MomentSolveResult`) at violation (max - eps) per grid point."""
    epsilons = [float(e) for e in epsilons]
    wmax = cert.max_violation(setting, inequality)
    if not all(0.0 < e <= 0.5 * wmax for e in epsilons):
        raise ValueError("epsilon grid must sit in (0, half the maximal violation]")
    words = npa.generate_words(setting, _word_cap(setting, max_local_length))
    problem = npa.build_moment_problem(setting, words, objective, inequality, wmax)
    reduced = npa.reduce_problem(problem)
    return [(eps, solve_moment_problem(reduced, wmax - eps)) for eps in epsilons]


def min_fidelity_curve(
    setting: str,
    objective: str,
    inequality: str,
    epsilons,
    max_local_length: int | None = None,
):
    """Certified minimum fidelities at violation (max - eps) per grid point."""
    points = _curve_solves(setting, objective, inequality, epsilons, max_local_length)
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
    """Self-testing constant for the state bound or the measurement bound.

    The measurement constant is the worst case over the measurement
    objectives of the setting.  `solves` reports, per objective and grid
    point, how each solve ended: its `termination`, `iterations` and
    `relative_gap`, and no wall time, so that reruns are byte-identical.
    """
    if kind == "state":
        objectives = ("state",)
    elif kind == "measurement":
        objectives = MEASUREMENT_OBJECTIVES[setting]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    curves, solves = {}, {}
    for objective in objectives:
        points = _curve_solves(setting, objective, inequality, epsilons, max_local_length)
        curves[objective] = [(eps, result.bound) for eps, result in points]
        solves[objective] = [
            {
                "epsilon": eps,
                "termination": result.solution.termination,
                "iterations": result.solution.iterations,
                "relative_gap": result.solution.relative_gap,
            }
            for eps, result in points
        ]
    alphas = {objective: fit_alpha(curve) for objective, curve in curves.items()}
    alpha = max(alphas.values())
    return {
        "setting": setting,
        "inequality": inequality,
        "kind": kind,
        "alpha": alpha,
        "per_objective": alphas,
        "curves": curves,
        "solves": solves,
        "word_cap": _word_cap(setting, max_local_length),
        "epsilons": list(epsilons),
    }

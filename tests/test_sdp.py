import dataclasses

import numpy as np
import pytest

from telecert import cert, npa, sdp


def diag_constraint(n, i, value):
    a = np.zeros((n, n))
    a[i, i] = 1.0
    return a, value


def dense_instance(objective, constraints):
    """An instance from (dense symmetric A_i, b_i) pairs: the cells of the
    upper triangles."""
    n = len(objective)
    mats = np.array([a for a, _ in constraints], dtype=float).reshape(len(constraints), n, n)
    assert np.array_equal(mats, mats.transpose(0, 2, 1))
    owner, rows, cols = np.nonzero(np.triu(mats))
    cells = sdp.Constraints(owner, rows, cols, mats[owner, rows, cols], [b for _, b in constraints])
    return sdp.SdpInstance(objective, cells)


def cell_constraints(owner, rows, cols, values, rhs):
    return sdp.Constraints(*(np.array(a) for a in (owner, rows, cols, values, rhs)))


def moment_companion(reduced, violation):
    """The companion `sdp.solve_moment_problem` solves."""
    group = npa.symmetry_group(reduced)
    return sdp.companion_instance(reduced.label, reduced.p, [reduced.norm, reduced.q], [1.0, violation], group)


def file_companion(instance):
    """The companion `sdp-solve` poses for a file's standard-form problem."""
    return sdp.companion_instance(*sdp.fold_ties(instance))


def file_minimum(instance):
    """The file problem's minimum through its companion, and the companion's
    constraint count."""
    companion, offset, _ = file_companion(instance)
    sol = sdp.solve(companion)
    assert sol.status == "optimal"
    return offset - sol.primal_objective, len(companion.constraints)


def dense_matrices(instance):
    """The instance's A_i as an (m, n, n) stack."""
    con = instance.constraints
    mats = np.zeros((len(con), instance.dim, instance.dim))
    mats[con.owner, con.rows, con.cols] = mats[con.owner, con.cols, con.rows] = con.values
    return mats


def test_two_by_two_offdiagonal_minimum():
    # min G11 s.t. G00 = 1, G01 = c: PSD forces G11 >= c^2 (determinant)
    c = 0.6
    objective = np.array([[0.0, 0.0], [0.0, 1.0]])
    coupling = np.array([[0.0, 0.5], [0.5, 0.0]])
    instance = dense_instance(objective, [diag_constraint(2, 0, 1.0), (coupling, c)])
    sol = sdp.solve(instance)
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(c * c, abs=1e-6)


def test_trace_minimum():
    instance = dense_instance(np.eye(2), [diag_constraint(2, 0, 1.0)])
    sol = sdp.solve(instance)
    assert sol.status == "optimal"
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-6)


def test_solution_contract():
    instance = dense_instance(np.eye(3), [diag_constraint(3, 0, 2.0), diag_constraint(3, 1, 0.5)])
    sol = sdp.solve(instance)
    assert sol.status == "optimal"
    assert sol.gap <= 1e-6 * (1 + abs(sol.primal_objective))
    assert sol.primal_residual <= 1e-7
    assert sol.dual_residual <= 1e-7
    assert np.linalg.eigvalsh(sol.primal).min() >= -1e-8


def test_weak_duality_along_trace():
    c = 0.77
    objective = np.array([[0.0, 0.0], [0.0, 1.0]])
    coupling = np.array([[0.0, 0.5], [0.5, 0.0]])
    instance = dense_instance(objective, [diag_constraint(2, 0, 1.0), (coupling, c)])
    sol = sdp.solve(instance)
    for entry in sol.trace:
        assert entry["dual_bound"] <= entry["primal_objective"] + 1e-8


def test_scale_covariance():
    base = np.array([[1.0, 0.2], [0.2, 2.0]])
    constraints = [diag_constraint(2, 0, 1.0), diag_constraint(2, 1, 0.3)]
    ref = sdp.solve(dense_instance(base, constraints)).primal_objective
    for s in (0.01, 7.0, 300.0):
        scaled = sdp.solve(dense_instance(s * base, constraints)).primal_objective
        assert scaled == pytest.approx(s * ref, rel=1e-6)


def test_determinism():
    c = 0.31
    objective = np.array([[0.4, 0.1], [0.1, 1.0]])
    coupling = np.array([[0.0, 0.5], [0.5, 0.0]])
    instance = dense_instance(objective, [diag_constraint(2, 0, 1.0), (coupling, c)])
    a = sdp.solve(instance)
    b = sdp.solve(instance)
    assert a.primal_objective == b.primal_objective
    assert np.array_equal(a.primal, b.primal)
    assert a.iterations == b.iterations


def test_structural_infeasibility_detected():
    # X00 = 1 and X00 = 2: the elimination finds the second row dependent
    # and its value in conflict, before any solve
    instance = dense_instance(
        np.eye(2), [diag_constraint(2, 0, 1.0), diag_constraint(2, 0, 2.0)]
    )
    with pytest.raises(sdp.InfeasibleError, match="inconsistent equality constraints"):
        file_companion(instance)
    # a zero row with a nonzero value
    zero = np.zeros((2, 2))
    with pytest.raises(sdp.InfeasibleError):
        file_companion(dense_instance(np.eye(2), [diag_constraint(2, 0, 1.0), (zero, 1e-3)]))


def test_cone_infeasibility_detected():
    instance = dense_instance(np.eye(2), [diag_constraint(2, 0, -1.0)])
    assert sdp.solve(instance).status == "infeasible"


def test_redundant_constraints_deduplicated():
    # the same constraint three times plus a scaled copy and a zero row:
    # the elimination keeps one, and the companion has one constraint per
    # other cell class, X01 and X11
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    constraints = [(a, 1.0), (a, 1.0), (a.copy(), 1.0), (2 * a, 2.0), (np.eye(2) * 0.0, 0.0)]
    value, count = file_minimum(dense_instance(np.eye(2), constraints))
    assert value == pytest.approx(1.0, abs=1e-6)
    assert count == 2


def test_asymmetric_matrices_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        dense_instance(bad, [diag_constraint(2, 0, 1.0)])
    # a constraint is symmetric by construction: the entry below the
    # diagonal that made it asymmetric has no cell
    with pytest.raises(ValueError, match="upper triangle"):
        sdp.SdpInstance(np.eye(2), cell_constraints([0], [1], [0], [1.0], [0.0]))


def test_non_finite_entries_rejected():
    # NaN passes the symmetry comparison, so it is refused on its own
    for bad in (np.nan, np.inf, -np.inf):
        mat = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            dense_instance(mat, [diag_constraint(2, 0, 1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            sdp.SdpInstance(np.eye(2), cell_constraints([0, 0], [0, 1], [0, 1], [bad, 1.0], [1.0]))
        with pytest.raises(ValueError, match="not finite"):
            dense_instance(np.eye(2), [diag_constraint(2, 0, bad)])


def test_instance_cell_contract():
    # constraint 0 is [[1, 2], [2, 0]], constraint 1 is [[0, 0], [0, 3]]
    good = ([1, 0, 0, 0], [1, 0, 0, 1], [1, 0, 1, 1], [3.0, 1.0, 2.0, 0.0], [1.0, 0.5])
    instance = sdp.SdpInstance(np.eye(2), cell_constraints(*good))
    con = instance.constraints
    assert len(con) == 2
    # sorted by constraint, row and column, without the zero cell
    assert (list(con.owner), list(con.rows), list(con.cols)) == ([0, 0, 1], [0, 0, 1], [0, 1, 1])
    assert list(con.values) == [1.0, 2.0, 3.0] and list(con.rhs) == [1.0, 0.5]
    assert con.norms() == pytest.approx([3.0, 3.0], rel=1e-15)
    # below the diagonal, out of the matrix, out of the constraints, twice
    outside = "outside the constraints or the upper triangle"
    for owner, rows, cols, message in (
        ([0], [1], [0], outside),
        ([0], [0], [2], outside),
        ([0], [-1], [0], outside),
        ([2], [0], [0], outside),
        ([-1], [0], [0], outside),
        ([1, 0, 1], [0, 1, 0], [1, 1, 1], "given twice"),
    ):
        with pytest.raises(ValueError, match=message):
            sdp.SdpInstance(np.eye(2), cell_constraints(owner, rows, cols, [1.0] * len(owner), [1.0, 0.5]))
    with pytest.raises(ValueError, match="one length"):
        sdp.SdpInstance(np.eye(2), cell_constraints([0, 0], [0], [0], [1.0], [1.0]))


# ---------------------------------------------------------------------------
# Moment-problem driving


def test_state_problem_at_maximal_violation():
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering", 2.0 - 1e-6)
    result = sdp.solve_moment_problem(npa.reduce_problem(problem), problem.violation)
    assert result.bound == pytest.approx(1.0, abs=1e-5)


def test_minimizing_moment_matrix_is_feasible():
    words = npa.generate_words("1sdi", 3)
    eps = 0.1
    problem = npa.build_moment_problem("1sdi", words, "state", "steering", 2.0 - eps)
    result = sdp.solve_moment_problem(npa.reduce_problem(problem), problem.violation)
    reduced = npa.reduce_problem(problem)
    gamma = result.gamma
    assert np.linalg.eigvalsh(gamma).min() >= -1e-7
    assert reduced.q @ result.moments == pytest.approx(2.0 - eps, abs=1e-7)
    assert reduced.norm @ result.moments == pytest.approx(1.0, abs=1e-9)
    # primal- and dual-side objective values agree up to the gap contract
    assert reduced.p @ result.moments == pytest.approx(result.bound, abs=2e-6)


def test_curve_monotone_and_below_werner_ceiling():
    eps_grid = (0.02, 0.05, 0.1, 0.2)
    curve = sdp.min_fidelity_curve("1sdi", "state", "steering", eps_grid)
    values = [f for _, f in curve]
    assert all(a >= b - 1e-7 for a, b in zip(values, values[1:]))
    for eps, f in curve:
        assert f <= 1 - 0.375 * eps + 1e-5


def test_fit_alpha():
    line = [(0.01 * k, 1 - 1.26 * 0.01 * k) for k in range(1, 6)]
    assert sdp.fit_alpha(line) == pytest.approx(1.26, abs=1e-12)
    two_points = [(0.1, 0.9), (0.2, 0.76)]
    assert sdp.fit_alpha(two_points) == pytest.approx(1.2, abs=1e-12)
    with pytest.raises(ValueError):
        sdp.fit_alpha([(0.0, 1.0)])


def test_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        sdp.min_fidelity_curve("1sdi", "state", "steering", [0.0, 0.1])
    with pytest.raises(ValueError):
        sdp.min_fidelity_curve("1sdi", "state", "steering", [1.5])


def test_derive_alpha_report_shape():
    report = sdp.derive_alpha("1sdi", "steering", "state", epsilons=(0.05, 0.1, 0.2))
    assert report["word_cap"] == 3
    assert set(report["per_objective"]) == {"state"}
    assert report["alpha"] == pytest.approx(1.2815, abs=5e-3)


def test_unreachable_violation_level_raises():
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering", 2.2)
    with pytest.raises(sdp.SdpError):
        sdp.solve_moment_problem(npa.reduce_problem(problem), problem.violation)


def test_state_problem_at_exact_maximum():
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering", 2.0)
    result = sdp.solve_moment_problem(npa.reduce_problem(problem), problem.violation)
    assert result.bound == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# Cell-based Schur assembly, step length and termination reasons


def _companion(setting, inequality, eps):
    wmax = cert.max_violation(setting, inequality)
    words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
    problem = npa.build_moment_problem(setting, words, "state", inequality, wmax)
    instance, _, _ = moment_companion(npa.reduce_problem(problem), wmax - eps)
    return instance


def _random_spd(n, rng):
    g = rng.standard_normal((n, n))
    w = g @ g.T / n + np.eye(n)
    return 0.5 * (w + w.T)


def _assert_cells_match_dense(instance, rng, sizes=None):
    # the Schur matrix for a W that is block-diagonal on blocks of `sizes`
    stack = dense_matrices(instance)
    m, n, _ = stack.shape
    cells = sdp._Cells(instance.constraints, np.zeros((n, n)))
    assert [sl.stop - sl.start for sl in cells.blocks] == (sizes or [n])
    w = np.zeros((n, n))
    for sl in cells.blocks:
        w[sl, sl] = _random_spd(sl.stop - sl.start, rng)
    x = rng.standard_normal((n, n))
    x = x + x.T
    y = rng.standard_normal(m)

    waw = np.matmul(np.matmul(w, stack), w)
    schur = stack.reshape(m, -1) @ waw.transpose(0, 2, 1).reshape(m, -1).T  # tr(A_i W A_j W)
    a_map = np.einsum("iab,ba->i", stack, x)
    a_adj = np.einsum("i,iab->ab", y, stack)

    def rel(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    assert rel(cells.schur(w), schur) < 1e-12
    assert rel(cells.a_map(x), a_map) < 1e-12
    assert rel(cells.a_adj(y), a_adj) < 1e-12


def test_cells_match_dense_formulas(tmp_path):
    rng = np.random.default_rng(7)
    # fully untrusted CHSH companion: negated 0/1 cell patterns, and the
    # pivot-coupling terms give some constraints cells of both signs
    di = _companion("di", "chsh", 0.1)
    assert any(a.min() < 0 < a.max() for a in dense_matrices(di))
    # one-sided steering companion
    one_sided = _companion("1sdi", "steering", 0.1)
    # a 14-dim export read back from its file
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering", 1.9)
    path = tmp_path / "p.dat-s"
    npa.export_sdpa(problem, path, constraints="deduplicated")
    objective, constraints = npa.read_sdpa_numeric(path)
    exported = sdp.SdpInstance(objective, sdp.Constraints(*constraints))
    assert exported.dim == 14
    # hand-made: negative entries, diagonal cells, equal and unequal cell counts
    hand = [
        np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.5], [0.0, 0.5, -3.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, -1.5, 0.0], [0.0, 0.0, 0.0]]),
        np.array([[0.0, 0.0, 4.0], [0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]),
        np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]]),
    ]
    for instance, sizes in (
        (di, [25, 16, 20, 20]),
        (one_sided, None),
        (exported, None),
        (dense_instance(np.zeros((3, 3)), [(a, 0.0) for a in hand]), None),
    ):
        _assert_cells_match_dense(instance, rng, sizes)


def _step_reference(x, dx, tau):
    # the generalized eigenvalues of (dX, X) are those of X^{-1} dX
    lam = np.linalg.eigvals(np.linalg.solve(x, dx)).real.min()
    return 1.0 if lam >= 0.0 else min(1.0, -tau / lam)


def test_max_step_matches_eigenvalue_reference():
    rng = np.random.default_rng(3)
    n = 6
    for _ in range(5):
        x = _random_spd(n, rng)
        s = _random_spd(n, rng)
        w, r_x, r_s = sdp._nt_scaling(x, s)
        assert np.allclose(w @ s @ w, x, atol=1e-10)
        for z, r in ((x, r_x), (s, r_s)):
            assert np.allclose(r @ z @ r.T, np.eye(n), atol=1e-10)
            d = rng.standard_normal((n, n))
            d = d + d.T
            assert sdp._max_step(r, d, 0.98) == pytest.approx(_step_reference(z, d, 0.98), rel=1e-10)
            assert sdp._max_step(r, z, 0.98) == 1.0
            # A direction that leaves the cone along an eigenvector of Z
            # hits the boundary at alpha = 1/4.
            vals, vecs = np.linalg.eigh(z)
            out = -4.0 * vals[0] * np.outer(vecs[:, 0], vecs[:, 0])
            assert _step_reference(z, out, 0.98) == pytest.approx(0.245, rel=1e-8)
            assert sdp._max_step(r, out, 0.98) == pytest.approx(0.245, rel=1e-8)
    # A non-finite direction is an error, not a full step.  At 2x2 numpy's
    # eigvalsh returns NaN instead of raising.
    with pytest.raises(np.linalg.LinAlgError):
        sdp._max_step(np.eye(2), np.full((2, 2), np.nan), 0.98)


def test_termination_reasons(monkeypatch):
    coupling = np.array([[0.0, 0.5], [0.5, 0.0]])
    instance = dense_instance(
        np.array([[0.0, 0.0], [0.0, 1.0]]), [diag_constraint(2, 0, 1.0), (coupling, 0.6)]
    )
    assert sdp.solve(instance).termination == "optimal"

    capped = sdp.solve(instance, max_iterations=2)
    assert (capped.termination, capped.status, capped.iterations) == ("iteration-cap", "max-iterations", 2)

    diverged = sdp.solve(dense_instance(np.eye(2), [diag_constraint(2, 0, -1.0)]))
    assert (diverged.termination, diverged.status) == ("infeasible-divergence", "infeasible")

    # an instance without constraints is refused before any iteration
    with pytest.raises(sdp.SdpError, match="no constraints"):
        sdp.solve(sdp.SdpInstance(np.eye(2), cell_constraints([], [], [], [], [])))

    # A Schur matrix that fails Cholesky at every jitter level: every
    # Cholesky in `solve` is the Schur one, so the ladder makes three.
    three = dense_instance(np.eye(3), [diag_constraint(3, 0, 2.0), diag_constraint(3, 1, 0.5)])
    schur_calls = []

    def failing_cholesky(a):
        schur_calls.append(a)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    broken = sdp.solve(three)
    assert broken.termination == "schur-breakdown"
    assert broken.iterations == 1 and len(schur_calls) == 3


def _exported_stack(tmp_path, setting, inequality, word_cap):
    words = npa.generate_words(setting, word_cap)
    wmax = cert.max_violation(setting, inequality)
    problem = npa.build_moment_problem(setting, words, "state", inequality, wmax - 0.1)
    path = tmp_path / f"{setting}.dat-s"
    npa.export_sdpa(problem, path, constraints="generated")
    objective, constraints = npa.read_sdpa_numeric(path)
    return sdp.SdpInstance(objective, sdp.Constraints(*constraints)), problem


def test_fold_on_exported_stacks(tmp_path):
    # the one-sided file has more constraints (168) than the 105
    # upper-triangle entries of its 14x14 matrix; the ties of each file
    # fold into the real classes of its reduction, and the violation and
    # normalization rows take two pivots
    for setting, inequality, cap, written, classes in (
        ("1sdi", "steering", 3, 168, 33),
        ("di", "chsh", 2, 1352, 53),
    ):
        instance, problem = _exported_stack(tmp_path, setting, inequality, cap)
        assert len(instance.constraints) == written
        label, p, e, d, _ = sdp.fold_ties(instance)
        reduced = npa.reduce_problem(problem)
        assert label.max() + 1 == len(reduced.p) == classes
        # the same partition of the cells as the real reduction's
        pairs = np.unique(np.stack([label.ravel(), reduced.label.ravel()]), axis=1)
        assert pairs.shape[1] == classes
        assert e.shape == (2, classes) and list(d) == [pytest.approx(problem.violation), 1.0]
        value, count = file_minimum(instance)
        assert count == classes - 2
        assert value == pytest.approx(sdp.solve_moment_problem(reduced, problem.violation).bound, abs=1e-6)

    # hand-made: a scaled duplicate is dropped, a conflicting one refused
    a = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    c = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    _, count = file_minimum(dense_instance(np.eye(3), [(a, 1.0), (c, 0.5), (3.0 * a, 3.0)]))
    assert count == 6 - 2
    with pytest.raises(sdp.InfeasibleError):
        file_companion(dense_instance(np.eye(3), [(a, 1.0), (c, 0.5), (3.0 * a, 2.0)]))


def test_cho_solve_matches_dense_solve():
    rng = np.random.default_rng(5)
    # one block, and several blocks with a short last one
    for m in (40, 300):
        a = _random_spd(m, rng)
        rhs = rng.standard_normal((m, 2))
        got = sdp._cho_solve(np.linalg.cholesky(a), rhs)
        assert np.allclose(got, np.linalg.solve(a, rhs), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Diagonal blocks and the symmetry reduction


def test_cells_with_constraints_empty_in_a_block():
    rng = np.random.default_rng(13)
    # the symmetry-reduced fully untrusted companion splits 25 + 16 + 20 +
    # 20, and some of its constraints have no cell in the last three blocks
    di = _companion("di", "chsh", 0.1)
    for lo, hi in ((25, 41), (41, 61), (61, 81)):
        empty = ~np.any(dense_matrices(di)[:, lo:hi, lo:hi], axis=(1, 2))
        assert 0 < np.count_nonzero(empty) < len(empty)
    _assert_cells_match_dense(di, rng, [25, 16, 20, 20])
    # hand-made: blocks {0, 1} and {2}; constraints empty in one block,
    # in both (first, in between and last) and spanning both
    zero = np.zeros((3, 3))
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -3.0]])
    c = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    d = np.array([[0.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    hand = dense_instance(zero, [(mat, 0.0) for mat in (zero, a, zero, c, d, zero)])
    _assert_cells_match_dense(hand, rng, [2, 1])
    # no cell at all
    cells = sdp._Cells(dense_instance(zero, [(zero, 0.0), (zero, 0.0)]).constraints, zero)
    assert not cells.a_map(np.ones((3, 3))).any()
    assert not cells.a_adj(np.ones(2)).any()
    assert not cells.schur(np.eye(3)).any()


def test_blocks_of_the_aggregate_pattern():
    # blocks {0, 2, 4} and {1, 3}, interleaved, from the objective and the
    # constraint together; index 5 touches nothing
    objective = np.zeros((6, 6))
    objective[0, 2] = objective[2, 0] = 1.0
    a = np.zeros((6, 6))
    a[2, 4] = a[4, 2] = a[1, 3] = a[3, 1] = 1.0
    a[1, 1] = 2.0
    cells = sdp._Cells(dense_instance(objective, [(a, 0.0)]).constraints, objective)
    assert list(cells.perm) == [0, 2, 4, 1, 3, 5]
    assert [(sl.start, sl.stop) for sl in cells.blocks] == [(0, 3), (3, 5), (5, 6)]
    # the maps read and write X renumbered by perm
    rng = np.random.default_rng(19)
    x = rng.standard_normal((6, 6))
    x = x + x.T
    renumber = np.ix_(cells.perm, cells.perm)
    assert cells.a_map(x[renumber]) == pytest.approx([np.sum(a * x)], rel=1e-12)
    assert np.array_equal(cells.a_adj(np.array([1.5])), 1.5 * a[renumber])
    w = np.zeros((6, 6))
    for sl in cells.blocks:
        w[sl, sl] = _random_spd(sl.stop - sl.start, rng)
    a_new = a[renumber]
    assert cells.schur(w) == pytest.approx(np.trace(a_new @ w @ a_new @ w), rel=1e-12)


def test_block_split_matches_single_block(monkeypatch):
    # min tr(C X) over the elliptope of a 5x5 matrix with blocks {0, 2, 4}
    # and {1, 3}, plus one constraint that reads both blocks
    rng = np.random.default_rng(17)
    first, second = np.array([0, 2, 4]), np.array([1, 3])
    objective = np.zeros((5, 5))
    for idx in (first, second):
        g = rng.standard_normal((len(idx), len(idx)))
        objective[np.ix_(idx, idx)] = g + g.T
    constraints = [diag_constraint(5, i, 1.0) for i in range(5)]
    across = np.zeros((5, 5))
    across[0, 2] = across[2, 0] = across[1, 3] = across[3, 1] = 0.5
    constraints.append((across, 0.2))
    block_diagonal = dense_instance(objective, constraints)
    # the DI companion, whose symmetry-adapted basis splits it 25 + 16 + 20 + 20
    companion = _companion("di", "chsh", 0.05)
    split = [sdp.solve(instance) for instance in (block_diagonal, companion)]

    monkeypatch.setattr(sdp, "_components", lambda size, a, b: np.zeros(size, dtype=np.intp))
    for instance, got in zip((block_diagonal, companion), split):
        whole = sdp.solve(instance)
        assert got.status == whole.status == "optimal"
        assert got.iterations == whole.iterations
        assert got.primal_objective == pytest.approx(whole.primal_objective, abs=1e-10)
        assert np.allclose(got.primal, whole.primal, atol=1e-8)
        assert np.allclose(got.slack, whole.slack, atol=1e-8)


def trivial_group(reduced):
    """`npa.symmetry_group` with symmetry detection disabled."""
    n, classes = reduced.dim, len(reduced.p)
    return np.arange(n)[None], np.ones((1, n)), np.arange(classes)[None], np.ones((1, classes))


def _bounds(reduced, violations):
    runs = {}
    for violation in violations:
        instance, offset, recover = moment_companion(reduced, violation)
        sol = sdp.solve(instance)
        assert sol.status == "optimal"
        runs[violation] = instance, offset - sol.primal_objective, recover(sol.dual)
    return runs


# constraints and blocks of the reduced companion; 183 constraints unreduced
SPLITS = {"state": (59, [25, 16, 20, 20]), "ZAZB": (59, [25, 16, 20, 20]), "XAXB": (59, [25, 16, 20, 20]), "ZAXB": (103, [41, 40])}


def test_swap_reduced_bounds_match_unreduced(monkeypatch):
    # every fully untrusted objective at eps 0.01, 0.1 and 0.2, reduced by
    # its symmetry group and with symmetry detection disabled
    wmax = cert.max_violation("di", "chsh")
    words = npa.generate_words("di", 4)
    violations = [wmax - eps for eps in (0.01, 0.1, 0.2)]
    reduced = {obj: npa.reduce_problem(npa.build_moment_problem("di", words, obj, "chsh", wmax)) for obj in SPLITS}
    groups = {obj: npa.symmetry_group(red) for obj, red in reduced.items()}
    runs = {obj: _bounds(red, violations) for obj, red in reduced.items()}
    monkeypatch.setattr(npa, "symmetry_group", trivial_group)
    # the classes of cells (r, c) with an odd total word length
    lengths = np.array([w.length for w in words])
    odd = np.zeros(185, dtype=bool)
    odd[reduced["state"].label[(lengths[:, None] + lengths) % 2 == 1]] = True
    assert np.count_nonzero(odd) == 80
    for objective, red in reduced.items():
        _, _, class_image, class_sign = groups[objective]
        full_runs = _bounds(red, violations)
        constraints, sizes = SPLITS[objective]
        for violation, (instance, value, moments) in runs[objective].items():
            full_instance, full, _ = full_runs[violation]
            assert (len(instance.constraints), len(full_instance.constraints)) == (constraints, 183)
            assert value == pytest.approx(full, abs=1e-6)
            cells = sdp._Cells(instance.constraints, instance.objective)
            assert [sl.stop - sl.start for sl in cells.blocks] == sizes
            assert np.array_equal(cells.perm, np.arange(81))
            # the moments come back for all 185 classes: zero on odd ones,
            # equal on swap pairs, and invariant under every element
            assert len(moments) == 185
            assert not moments[odd].any()
            for image, sign in zip(class_image, class_sign):
                assert np.array_equal(moments[image] * sign, moments)
            assert red.q @ moments == pytest.approx(violation, abs=1e-7)
            assert red.norm @ moments == pytest.approx(1.0, abs=1e-9)
            assert red.p @ moments == pytest.approx(value, abs=2e-6)
            assert np.linalg.eigvalsh(red.assemble(moments)).min() >= -1e-7


@pytest.mark.parametrize("paired", [False, True])
def test_odd_objective_term_keeps_the_flip_out(monkeypatch, paired):
    # an objective that reads <Z_A> (and <Z_B>, its swap image, when
    # paired) is not flip-symmetric: the group keeps at most the swap, and
    # the reduced solve still matches the unreduced one
    wmax = cert.max_violation("di", "chsh")
    words = npa.generate_words("di", 4)
    reduced = npa.reduce_problem(npa.build_moment_problem("di", words, "state", "chsh", wmax))
    # cell (k, 0) carries the moment of word k
    position = {w.key: k for k, w in enumerate(words)}
    za, zb = (reduced.label[position[key], 0] for key in (((0,), ()), ((), (0,))))
    p = reduced.p.copy()
    p[[za, zb] if paired else [za]] += 0.3
    odd = dataclasses.replace(reduced, p=p)
    word_image, word_sign, _, _ = npa.symmetry_group(odd)
    assert len(word_image) == (2 if paired else 1) and np.all(word_sign == 1.0)
    violation = wmax - 0.1
    (_, value, moments), = _bounds(odd, [violation]).values()
    (_, even_value, _), = _bounds(reduced, [violation]).values()
    monkeypatch.setattr(npa, "symmetry_group", trivial_group)
    (_, full, _), = _bounds(odd, [violation]).values()
    assert value == pytest.approx(full, abs=1e-6)
    # the odd term moves the optimum, so a wrongly kept flip would show
    assert value < even_value - 1e-3
    assert p @ moments == pytest.approx(value, abs=2e-6)


def test_swap_adapted_basis_is_orthogonal():
    # sum_v y_v G_v in the adapted basis is Q^T Gamma Q for an orthogonal Q,
    # Gamma the word-basis moment matrix with y, up to sign, on each orbit
    # of classes and zero on the odd ones
    words = npa.generate_words("di", 4)
    rng = np.random.default_rng(23)
    for objective, moments, sizes in (("XAXB", 61, [25, 16, 20, 20]), ("ZAXB", 105, [41, 40])):
        reduced = npa.reduce_problem(npa.build_moment_problem("di", words, objective, "chsh", 2.7))
        of_class, sign, (owner, rows, cols, values) = sdp._moment_basis(reduced.label, npa.symmetry_group(reduced))
        assert of_class.max() + 1 == moments and np.all(rows <= cols)
        assert np.count_nonzero(sign == 0.0) == 80
        mats = np.zeros((moments, 81, 81))
        mats[owner, rows, cols] = mats[owner, cols, rows] = values
        y = rng.standard_normal(moments)
        adapted = np.tensordot(y, mats, axes=1)
        gamma = reduced.assemble(sign * y[of_class])
        ends = np.cumsum(sizes)
        for lo, hi in zip(ends - sizes, ends):
            assert not adapted[lo:hi, hi:].any()
        assert np.allclose(np.linalg.eigvalsh(adapted), np.linalg.eigvalsh(gamma), rtol=0, atol=1e-12 * np.abs(gamma).max())


@pytest.mark.parametrize("setting, inequality", [("1sdi", "steering"), ("di", "chsh")])
def test_state_curves_are_convex(setting, inequality):
    # F_min is the value function of a convex program in the violation
    # level, and F_min(0) = 1: its chord slopes do not decrease, and
    # (1 - F_min)/eps does not increase.  Each point is known to within its
    # duality gap, which sets the slack.
    wmax = cert.max_violation(setting, inequality)
    words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
    reduced = npa.reduce_problem(npa.build_moment_problem(setting, words, "state", inequality, wmax))
    eps = (0.01, 0.02, 0.05, 0.1, 0.2)
    values, errors = [], []
    for e in eps:
        instance, offset, _ = moment_companion(reduced, wmax - e)
        sol = sdp.solve(instance)
        assert sol.status == "optimal"
        values.append(offset - sol.primal_objective)
        errors.append(abs(sol.gap) + 1e-9)
    slopes = [(values[k + 1] - values[k]) / (eps[k + 1] - eps[k]) for k in range(4)]
    slack = [(errors[k] + errors[k + 1]) / (eps[k + 1] - eps[k]) for k in range(4)]
    for k in range(3):
        assert slopes[k] <= slopes[k + 1] + slack[k] + slack[k + 1]
    ratios = [(1.0 - f) / e for e, f in zip(eps, values)]
    for k in range(4):
        assert ratios[k + 1] <= ratios[k] + errors[k] / eps[k] + errors[k + 1] / eps[k + 1]


def _relative_smallest_singular_value(instance):
    """sigma_min / sigma_max of the dense m x n(n+1)/2 stack of the
    constraint matrices, each written as its upper triangle with the
    entries off the diagonal scaled by sqrt(2) (a trace isometry)."""
    n, con = instance.dim, instance.constraints
    rows, cols = np.triu_indices(n)
    column = np.zeros((n, n), dtype=np.intp)
    column[rows, cols] = np.arange(len(rows))
    stack = np.zeros((len(con), len(rows)))
    stack[con.owner, column[con.rows, con.cols]] = np.where(con.rows == con.cols, 1.0, np.sqrt(2.0)) * con.values
    singular = np.linalg.svd(stack, compute_uv=False)
    assert len(singular) == len(con)  # no more constraints than entries
    return singular[-1] / singular[0]


#: Floor on the smallest relative singular value of a companion's
#: constraint stack.  The free moments own disjoint cells, so the stack is
#: well conditioned: about 0.38 for the one-sided companions and 0.088 for
#: the fully untrusted ones.  A dependent stack reads about 1e-16.
INDEPENDENCE_FLOOR = 1e-2


def test_companion_constraints_are_independent(tmp_path):
    # `solve` has no presolve: it relies on the companion's constraint
    # matrices being linearly independent, for every README objective at
    # both ends of the default grid and for the folded exports
    for setting, inequality in (("1sdi", "steering"), ("1sdi", "chsh"), ("di", "chsh")):
        wmax = cert.max_violation(setting, inequality)
        words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
        for objective in npa.OBJECTIVES[setting]:
            reduced = npa.reduce_problem(npa.build_moment_problem(setting, words, objective, inequality, wmax))
            for eps in (0.01, 0.2):
                instance, _, _ = moment_companion(reduced, wmax - eps)
                assert _relative_smallest_singular_value(instance) >= INDEPENDENCE_FLOOR
    for setting, inequality, form, constraints in (
        ("1sdi", "steering", "generated", 31),
        ("1sdi", "steering", "deduplicated", 31),
        ("di", "chsh", "deduplicated", 183),
        ("di", "chsh", "generated", 183),
    ):
        words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
        problem = npa.build_moment_problem(setting, words, "state", inequality, cert.max_violation(setting, inequality) - 0.1)
        path = tmp_path / f"{setting}-{form}.dat-s"
        npa.export_sdpa(problem, path, constraints=form)
        objective, cells = npa.read_sdpa_numeric(path)
        instance, _, _ = file_companion(sdp.SdpInstance(objective, sdp.Constraints(*cells)))
        assert len(instance.constraints) == constraints
        assert _relative_smallest_singular_value(instance) >= INDEPENDENCE_FLOOR


def _left_looking_pivots(e):
    """The row elimination `companion_instance` ran before its sweep, kept
    as the reference: each row is reduced by the kept rows before it, one
    at a time, then pivots on its largest entry off the earlier pivots."""
    kept, pivots, pivot_rows = [], [], []
    for i, row in enumerate(e):
        for v, prior in zip(pivots, pivot_rows):
            row = row - row[v] / prior[v] * prior
        size = np.abs(row)
        size[pivots] = 0.0
        v = int(np.argmax(size))
        if size[v] > 1e-10 * np.max(np.abs(e[i])):
            kept.append(i)
            pivots.append(v)
            pivot_rows.append(row)
    return kept, pivots


def _sparse_rows(rng, k, classes):
    """k rows over the classes and values that a random moment vector
    meets.  A row has one to three nonzero entries, or, after the first
    two and with probability 0.3, is an integer combination of two earlier
    rows, zero included, so that it depends on the rows before it."""
    e = np.zeros((k, classes))
    for i in range(k):
        if i >= 2 and rng.random() < 0.3:
            e[i] = rng.integers(-2, 3, size=2) @ e[rng.choice(i, 2, replace=False)]
        else:
            count = rng.integers(1, 4)
            e[i, rng.choice(classes, count, replace=False)] = rng.uniform(0.5, 2.0, count) * rng.choice([-1.0, 1.0], count)
    return e, e @ rng.standard_normal(classes)


@pytest.mark.parametrize("k", [1, 2, 5, 20, 45])
def test_sweep_matches_left_looking_elimination(k):
    # The sweep applies the reference's operations in the same order to
    # every row, so the kept rows, their pivots and the instance built on
    # them are bit-identical, and so is every InfeasibleError decision.
    # Each class is one upper-triangle cell (trivial group), so the
    # reference instance is read off y0 and the coupling directly: the
    # objective holds y0 on the pivot cells, and constraint j holds -1 on
    # its free moment's cell and minus coupling column j on the pivots'.
    # 36 classes put k = 45 past full rank.
    n = 8
    classes = n * (n + 1) // 2
    rows, cols = np.triu_indices(n)
    label = np.zeros((n, n), dtype=np.intp)
    label[rows, cols] = label[cols, rows] = np.arange(classes)
    group = (np.arange(n)[None], np.ones((1, n)), np.arange(classes)[None], np.ones((1, classes)))
    rng = np.random.default_rng(k)
    outcomes = set()
    for trial in range(6):
        e, d = _sparse_rows(rng, k, classes)
        kept, pivots = _left_looking_pivots(e)
        dropped = np.setdiff1d(np.arange(k), kept)
        if trial % 2 and len(dropped):
            d[rng.choice(dropped)] += 0.1  # a dependent row that conflicts
        p = rng.standard_normal(classes)
        free = np.setdiff1d(np.arange(classes), pivots)
        e_piv = e[kept][:, pivots]
        y0 = np.zeros(classes)
        y0[pivots] = np.linalg.solve(e_piv, d[kept])
        coupling = -np.linalg.solve(e_piv, e[kept][:, free])
        scale = np.abs(d[dropped]) + np.abs(e[dropped]) @ np.abs(y0)
        infeasible = bool(np.any(np.abs(e[dropped] @ y0 - d[dropped]) > 1e-9 * scale))
        outcomes.add((infeasible, len(dropped) > 0))
        if infeasible:
            with pytest.raises(sdp.InfeasibleError):
                sdp.companion_instance(label, p, e, d, group)
            continue
        instance, offset, _ = sdp.companion_instance(label, p, e, d, group)
        objective = np.zeros((n, n))
        objective[rows, cols] = objective[cols, rows] = y0
        assert np.array_equal(instance.objective, objective)
        stack = np.zeros((len(free), classes))
        stack[np.arange(len(free)), free] = -1.0
        stack[:, pivots] = -coupling.T
        owner, cell = np.nonzero(stack)
        con = instance.constraints
        expected = (owner, rows[cell], cols[cell], stack[owner, cell])
        assert all(np.array_equal(a, b) for a, b in zip((con.owner, con.rows, con.cols, con.values), expected))
        b_eff = p[free]
        for row, v in enumerate(pivots):
            b_eff = b_eff + coupling[row] * p[v]
        assert np.array_equal(con.rhs, -b_eff)
        assert offset == float(p @ y0)
    # from k = 5 on, dependent rows come both agreeing and conflicting
    assert {(False, True), (True, True)} <= outcomes if k >= 5 else outcomes == {(False, False)}

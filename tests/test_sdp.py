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


def moment_companion(problem, violation):
    """The companion `sdp.solve_moment_problems` solves."""
    return sdp.companion_instance(problem.label, problem.p, [problem.norm, problem.q], [1.0, violation], problem.group)


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
    problem = npa.build_moment_problem("1sdi", words, "state", "steering")
    result = sdp.solve_moment_problems([(problem, 2.0 - 1e-6)])[0]
    assert result.bound == pytest.approx(1.0, abs=1e-5)


def test_minimizing_moment_matrix_is_feasible():
    words = npa.generate_words("1sdi", 3)
    eps = 0.1
    problem = npa.build_moment_problem("1sdi", words, "state", "steering")
    result = sdp.solve_moment_problems([(problem, 2.0 - eps)])[0]
    assert np.linalg.eigvalsh(problem.assemble(result.moments)).min() >= -1e-7
    assert problem.q @ result.moments == pytest.approx(2.0 - eps, abs=1e-7)
    assert problem.norm @ result.moments == pytest.approx(1.0, abs=1e-9)
    # primal- and dual-side objective values agree up to the gap contract
    assert problem.p @ result.moments == pytest.approx(result.bound, abs=2e-6)


def test_curve_monotone_and_below_werner_ceiling():
    eps_grid = (0.02, 0.05, 0.1, 0.2)
    curve = sdp.min_fidelity_curve("1sdi", "state", "steering", eps_grid)
    values = [f for _, f in curve]
    assert all(a >= b - 1e-7 for a, b in zip(values, values[1:]))
    for eps, f in curve:
        assert f <= 1 - 0.375 * eps + 1e-5


def test_default_grid_steering_state_points_are_pinned():
    # Pinned to the last bit, so that any change to the iterates shows
    # here; the solve contract lets a point move by up to 1e-6.
    curve = sdp.min_fidelity_curve("1sdi", "state", "steering", (0.01, 0.02, 0.05, 0.1, 0.2))
    assert [f for _, f in curve] == [
        0.9869651261941854,
        0.9740408661477971,
        0.9359261183805176,
        0.8745689533164893,
        0.7597814959724009,
    ]


@pytest.mark.parametrize("objective", ["state", "ZB", "XB"])
def test_one_sided_chsh_is_steering_at_scaled_eps(objective):
    # The one-sided CHSH functional is the steering one times sqrt(2), and
    # its maximum 2 sqrt(2) is sqrt(2) times 2, so the CHSH point at eps is
    # the steering point at eps / sqrt(2), and the fitted slopes differ by
    # sqrt(2).
    grid = (0.01, 0.02, 0.05, 0.1, 0.2)
    chsh = sdp.min_fidelity_curve("1sdi", objective, "chsh", grid)
    steering = sdp.min_fidelity_curve("1sdi", objective, "steering", [eps / np.sqrt(2.0) for eps in grid])
    for (eps, f_chsh), (_, f_steering) in zip(chsh, steering):
        assert f_chsh == pytest.approx(f_steering, abs=1e-9), eps
    assert sdp.fit_alpha(steering) / sdp.fit_alpha(chsh) == pytest.approx(np.sqrt(2.0), abs=1e-9)


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
    (rows,) = report["solves"].values()
    assert [row["epsilon"] for row in rows] == [0.05, 0.1, 0.2]
    for row in rows:
        assert set(row) == {"epsilon", "termination", "iterations", "relative_gap"}
        assert row["termination"] in ("optimal", "stall") and 0 < row["iterations"] < 100


#: Ceilings on the iteration totals of the default-grid derivations: 390
#: one-sided (steering and CHSH, state and measurement) and 71 fully
#: untrusted (CHSH state) with some headroom, and well below the 653 and 88
#: that the corrector without the second-order term takes.
ITERATION_CEILING = {"1sdi": 450, "di": 80}


def test_default_grid_iteration_budget():
    # Every point comes back through `solve_moment_problems`, which refuses
    # any status but "optimal", so a derivation that returns is certified.
    totals = dict.fromkeys(ITERATION_CEILING, 0)
    for setting, inequality, kind in (
        ("1sdi", "steering", "state"),
        ("1sdi", "steering", "measurement"),
        ("1sdi", "chsh", "state"),
        ("1sdi", "chsh", "measurement"),
        ("di", "chsh", "state"),
    ):
        report = sdp.derive_alpha(setting, inequality, kind)
        for objective, rows in report["solves"].items():
            assert [row["epsilon"] for row in rows] == [eps for eps, _ in report["curves"][objective]]
            totals[setting] += sum(row["iterations"] for row in rows)
    for setting, ceiling in ITERATION_CEILING.items():
        assert totals[setting] <= ceiling, (setting, totals[setting])


def test_unreachable_violation_level_raises():
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering")
    with pytest.raises(sdp.SdpError):
        sdp.solve_moment_problems([(problem, 2.2)])


def test_state_problem_at_exact_maximum():
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering")
    result = sdp.solve_moment_problems([(problem, 2.0)])[0]
    assert result.bound == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# Cell-based Schur assembly, step length and termination reasons


def _companion(setting, inequality, eps, cap=None):
    """The `state` companion at violation (max - eps), at the word cap (the
    setting's default when None)."""
    wmax = cert.max_violation(setting, inequality)
    words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting] if cap is None else cap)
    problem = npa.build_moment_problem(setting, words, "state", inequality)
    instance, _, _ = moment_companion(problem, wmax - eps)
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
    # fully untrusted CHSH companions at word caps 4 and 3: negated 0/1
    # cell patterns, and the pivot-coupling terms give some constraints
    # cells of both signs
    di = _companion("di", "chsh", 0.1, cap=4)
    assert any(a.min() < 0 < a.max() for a in dense_matrices(di))
    di_cap_3 = _companion("di", "chsh", 0.1, cap=3)
    assert any(a.min() < 0 < a.max() for a in dense_matrices(di_cap_3))
    # one-sided steering companion
    one_sided = _companion("1sdi", "steering", 0.1)
    # a 14-dim export read back from its file
    words = npa.generate_words("1sdi", 3)
    problem = npa.build_moment_problem("1sdi", words, "state", "steering")
    path = tmp_path / "p.dat-s"
    npa.export_sdpa(problem, path, 1.9, constraints="deduplicated")
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
        (di_cap_3, [16, 9, 12, 12]),
        (one_sided, None),
        (exported, None),
        (dense_instance(np.zeros((3, 3)), [(a, 0.0) for a in hand]), None),
    ):
        _assert_cells_match_dense(instance, rng, sizes)


def _step_reference(x, dx, tau):
    # the generalized eigenvalues of (dX, X) are those of X^{-1} dX
    lam = np.linalg.eigvals(np.linalg.solve(x, dx)).real.min()
    return 1.0 if lam >= 0.0 else min(1.0, -tau / lam)


def _scaled_smallest(d, direction):
    """Smallest eigenvalue of D^-1/2 dZ D^-1/2, as `solve` takes it."""
    r = 1.0 / np.sqrt(d)
    return np.linalg.eigvalsh(direction * np.outer(r, r)).min(axis=-1)


def test_max_step_matches_eigenvalue_reference():
    rng = np.random.default_rng(3)
    n = 6
    for _ in range(5):
        x = _random_spd(n, rng)
        s = _random_spd(n, rng)
        g, d = sdp._nt_scaling(x, s)
        g_inv = np.linalg.inv(g)
        w = g @ g.T
        assert np.allclose(w @ s @ w, x, atol=1e-10)
        assert np.allclose(g.T @ s @ g, np.diag(d), atol=1e-10)
        assert np.allclose(g_inv @ x @ g_inv.T, np.diag(d), atol=1e-10)
        for z, frame in ((x, lambda a: g_inv @ a @ g_inv.T), (s, lambda a: g.T @ a @ g)):
            d_rand = rng.standard_normal((n, n))
            d_rand = d_rand + d_rand.T
            # A direction that leaves the cone along an eigenvector of Z
            # hits the boundary at alpha = 1/4.
            vals, vecs = np.linalg.eigh(z)
            out = -4.0 * vals[0] * np.outer(vecs[:, 0], vecs[:, 0])
            assert _step_reference(z, out, 0.98) == pytest.approx(0.245, rel=1e-8)
            directions = np.stack([d_rand, z, out])
            steps = sdp._max_step(_scaled_smallest(d, frame(directions)), 0.98)
            reference = [_step_reference(z, direction, 0.98) for direction in directions]
            assert steps == pytest.approx(reference, rel=1e-10)
            assert steps[1] == 1.0
        # The predictor's primal direction is dX~ = -D - dS~, so its step
        # reads the largest eigenvalue of the scaled dS~.
        ds = rng.standard_normal((n, n))
        ds = ds + ds.T
        ds_t = g.T @ ds @ g
        r = 1.0 / np.sqrt(d)
        largest = np.linalg.eigvalsh(ds_t * np.outer(r, r))[-1]
        dx = g @ (-np.diag(d) - ds_t) @ g.T
        reference = _step_reference(x, 0.5 * (dx + dx.T), 0.98)
        assert sdp._max_step(-1.0 - largest, 0.98) == pytest.approx(reference, rel=1e-10)
    # A non-finite direction is an error, not a full step.  At 2x2 numpy's
    # eigvalsh returns NaN instead of raising.
    with pytest.raises(np.linalg.LinAlgError):
        sdp._max_step(_scaled_smallest(np.ones(2), np.full((2, 2), np.nan)), 0.98)


def _two_block_instance(rng):
    """min tr(C X) over 5x5 matrices with blocks {0, 2, 4} and {1, 3}: unit
    diagonal and one random constraint inside each block."""
    objective = np.zeros((5, 5))
    constraints = [diag_constraint(5, i, 1.0) for i in range(5)]
    for idx in (np.array([0, 2, 4]), np.array([1, 3])):
        block = np.ix_(idx, idx)
        g = rng.standard_normal((len(idx), len(idx)))
        objective[block] = g + g.T
        a = np.zeros((5, 5))
        a[block] = rng.standard_normal((len(idx), len(idx)))
        a[block] = a[block] + a[block].T
        np.fill_diagonal(a, 0.0)
        constraints.append((a, 0.1))
    return dense_instance(objective, constraints)


def test_corrector_solves_the_scaled_newton_system(monkeypatch):
    # Every direction `solve` builds meets the Newton equations in the
    # original frame and the complementarity equation in the scaled one;
    # the corrector's target is the predictor's sigma mu I - D^2 less
    # Mehrotra's term sym(dX~_a dS~_a).  Checked for each member of every
    # call: a solve alone, and a family of two that shares its cells.
    rng = np.random.default_rng(11)
    instance = _two_block_instance(rng)
    con = instance.constraints
    other = sdp.SdpInstance(
        -0.5 * instance.objective, sdp.Constraints(con.owner, con.rows, con.cols, con.values, con.rhs * [1, 1, 1, 1, 1, 2, 3])
    )
    calls = []
    directions = sdp._directions

    def recording(cells, chol, frames, rp, rd, targets):
        out = directions(cells, chol, frames, rp, rd, targets)
        calls.append((cells, frames, rp, rd, targets, out))
        return out

    monkeypatch.setattr(sdp, "_directions", recording)
    sdp.solve(instance, max_iterations=6)
    assert len(calls) == 12 and all(len(call[2]) == 1 for call in calls)
    sdp.solve_family([instance, other], max_iterations=6)
    assert len(calls) == 24 and all(len(call[2]) == 2 for call in calls[12:])
    stack = None
    for count, (cells, frames, rp, rd, targets, (dy, ds, dx_t, ds_t)) in enumerate(calls):
        assert [sl.stop - sl.start for sl, *_ in frames] == [3, 2]
        if stack is None:
            # the constraint matrices in the solver's numbering
            stack = dense_matrices(instance)[:, cells.perm][:, :, cells.perm]
        for i in range(len(rp)):
            for j in range(dy.shape[1]):
                dx = np.zeros_like(rd[i])
                for (sl, g, d, *_), dx_b, ds_b, target in zip(frames, dx_t, ds_t, targets):
                    g, d = g[i], d[i]
                    dx[sl, sl] = g @ dx_b[i, j] @ g.T
                    # dS~ is G^T dS G, and dX~ + dS~ solves the scaled equation
                    assert np.max(np.abs(g.T @ ds[i, j][sl, sl] @ g - ds_b[i, j])) < 1e-10
                    total = dx_b[i, j] + ds_b[i, j]
                    assert np.max(np.abs(0.5 * (np.diag(d) @ total + total @ np.diag(d)) - target[i, j])) < 1e-10
                assert np.max(np.abs(np.einsum("iab,ba->i", stack, dx) - rp[i])) < 1e-10
                assert np.max(np.abs(rd[i] - np.einsum("i,iab->ab", dy[i, j], stack) - ds[i, j])) < 1e-10
        if count % 2 == 0:
            # predictor: sigma = 0, no second-order term
            assert dy.shape[1] == 1
            for (_, _, d, *_), target in zip(frames, targets):
                for i in range(len(rp)):
                    assert np.array_equal(target[i, 0], -np.diag(d[i] * d[i]))
            predictor = dx_t, ds_t
        else:
            # plain and corrected
            assert dy.shape[1] == 2
            for (_, _, d, *_), target, dx_a, ds_a in zip(frames, targets, *predictor):
                for i in range(len(rp)):
                    sigma_mu = np.diag(target[i, 0]) + d[i] * d[i]
                    assert np.allclose(sigma_mu, sigma_mu[0], rtol=1e-12) and sigma_mu[0] > 0.0
                    assert np.allclose(target[i, 0], np.diag(sigma_mu[0] - d[i] * d[i]), rtol=0.0, atol=1e-12)
                    product = dx_a[i, 0] @ ds_a[i, 0]
                    assert np.max(np.abs(target[i, 1] - (target[i, 0] - 0.5 * (product + product.T)))) < 1e-12


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

    # A Schur matrix that fails Cholesky at every jitter level: the ladder
    # makes three.  The instance has three 1x1 blocks, whose X factors
    # `_nt_scaling` takes, and a 2x2 Schur matrix.
    three = dense_instance(np.eye(3), [diag_constraint(3, 0, 2.0), diag_constraint(3, 1, 0.5)])
    cholesky = np.linalg.cholesky
    schur_calls = []

    def failing_cholesky(a, size):
        # the solver factors stacks: the matrices are the trailing two axes
        if a.shape[-2:] != (size, size):
            return cholesky(a)
        schur_calls.append(a)
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", lambda a: failing_cholesky(a, 2))
    broken = sdp.solve(three)
    assert broken.termination == "schur-breakdown"
    assert broken.iterations == 1 and len(schur_calls) == 3
    # an X block that fails its factorization ends the iteration too
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: failing_cholesky(a, 1))
    broken = sdp.solve(three)
    assert (broken.termination, broken.iterations) == ("linalg-error", 1)


def _exported_stack(tmp_path, setting, inequality, word_cap):
    words = npa.generate_words(setting, word_cap)
    violation = cert.max_violation(setting, inequality) - 0.1
    problem = npa.build_moment_problem(setting, words, "state", inequality)
    path = tmp_path / f"{setting}.dat-s"
    npa.export_sdpa(problem, path, violation, constraints="generated")
    objective, constraints = npa.read_sdpa_numeric(path)
    return sdp.SdpInstance(objective, sdp.Constraints(*constraints)), problem, violation


def test_fold_on_exported_stacks(tmp_path):
    # the one-sided file has more constraints (168) than the 105
    # upper-triangle entries of its 14x14 matrix; the ties of each file
    # fold into the real classes of its reduction, and the violation and
    # normalization rows take two pivots
    for setting, inequality, cap, written, classes in (
        ("1sdi", "steering", 3, 168, 33),
        ("di", "chsh", 2, 1352, 53),
    ):
        instance, problem, violation = _exported_stack(tmp_path, setting, inequality, cap)
        assert len(instance.constraints) == written
        label, p, e, d, _ = sdp.fold_ties(instance)
        assert label.max() + 1 == len(problem.p) == classes
        # the same partition of the cells as the real reduction's
        pairs = np.unique(np.stack([label.ravel(), problem.label.ravel()]), axis=1)
        assert pairs.shape[1] == classes
        assert e.shape == (2, classes) and list(d) == [pytest.approx(violation), 1.0]
        value, count = file_minimum(instance)
        assert count == classes - 2
        assert value == pytest.approx(sdp.solve_moment_problems([(problem, violation)])[0].bound, abs=1e-6)

    # hand-made: a scaled duplicate is dropped, a conflicting one refused
    a = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    c = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    _, count = file_minimum(dense_instance(np.eye(3), [(a, 1.0), (c, 0.5), (3.0 * a, 3.0)]))
    assert count == 6 - 2
    with pytest.raises(sdp.InfeasibleError):
        file_companion(dense_instance(np.eye(3), [(a, 1.0), (c, 0.5), (3.0 * a, 2.0)]))


def test_cho_solve_matches_dense_solve():
    rng = np.random.default_rng(5)
    # a small factor, and one larger than any companion's (at most 183
    # rows, from a fully untrusted file)
    for m in (40, 300):
        a = _random_spd(m, rng)
        rhs = rng.standard_normal((m, 2))
        got = sdp._cho_solve(np.linalg.cholesky(a), rhs)
        assert np.allclose(got, np.linalg.solve(a, rhs), rtol=1e-10, atol=1e-12)
    # a stack of factors, each solved as it is alone
    for m in (40, 300):
        a = np.stack([_random_spd(m, rng) for _ in range(3)])
        rhs = rng.standard_normal((3, m, 2))
        got = sdp._cho_solve(np.linalg.cholesky(a), rhs)
        for k in range(3):
            assert np.array_equal(got[k], sdp._cho_solve(np.linalg.cholesky(a[k]), rhs[k]))
            assert np.allclose(got[k], np.linalg.solve(a[k], rhs[k]), rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Diagonal blocks and the symmetry reduction


def test_cells_with_constraints_empty_in_a_block():
    rng = np.random.default_rng(13)
    # the symmetry-reduced fully untrusted companion splits 25 + 16 + 20 +
    # 20 at word cap 4 and 16 + 9 + 12 + 12 at cap 3, and some of its
    # constraints have no cell in the last three blocks
    for cap, sizes in ((4, [25, 16, 20, 20]), (3, [16, 9, 12, 12])):
        di = _companion("di", "chsh", 0.1, cap=cap)
        ends = np.cumsum(sizes)
        for lo, hi in zip(ends[:-1], ends[1:]):
            empty = ~np.any(dense_matrices(di)[:, lo:hi, lo:hi], axis=(1, 2))
            assert 0 < np.count_nonzero(empty) < len(empty)
        _assert_cells_match_dense(di, rng, sizes)
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
    # the DI companion, whose symmetry-adapted basis splits it 16 + 9 + 12 + 12
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


# Per word cap: the constraints and blocks of each objective's reduced
# companion, and the unreduced companion's dimension, constraints, real
# classes and classes of odd total word length.
SPLITS = {
    4: {"state": (59, [25, 16, 20, 20]), "ZAZB": (59, [25, 16, 20, 20]), "XAXB": (59, [25, 16, 20, 20]), "ZAXB": (103, [41, 40])},
    3: {"state": (35, [16, 9, 12, 12]), "ZAZB": (35, [16, 9, 12, 12]), "XAXB": (35, [16, 9, 12, 12]), "ZAXB": (59, [25, 24])},
}
UNREDUCED = {4: (81, 183, 185, 80), 3: (49, 107, 109, 48)}


def test_swap_reduced_bounds_match_unreduced(altered):
    # every fully untrusted objective at eps 0.01, 0.1 and 0.2 and word caps
    # 4 and 3, reduced by its symmetry group and with symmetry detection
    # disabled
    wmax = cert.max_violation("di", "chsh")
    violations = [wmax - eps for eps in (0.01, 0.1, 0.2)]
    for cap, splits in SPLITS.items():
        n, unreduced, classes, odd_classes = UNREDUCED[cap]
        words = npa.generate_words("di", cap)
        reduced = {obj: npa.build_moment_problem("di", words, obj, "chsh") for obj in splits}
        runs = {obj: _bounds(red, violations) for obj, red in reduced.items()}
        # the classes of cells (r, c) with an odd total word length
        lengths = np.array([w.length for w in words])
        odd = np.zeros(classes, dtype=bool)
        odd[reduced["state"].label[(lengths[:, None] + lengths) % 2 == 1]] = True
        assert np.count_nonzero(odd) == odd_classes
        for objective, red in reduced.items():
            _, _, class_image, class_sign = red.group
            full_runs = _bounds(altered(red, group=trivial_group(red)), violations)
            constraints, sizes = splits[objective]
            for violation, (instance, value, moments) in runs[objective].items():
                full_instance, full, _ = full_runs[violation]
                assert (len(instance.constraints), len(full_instance.constraints)) == (constraints, unreduced)
                assert value == pytest.approx(full, abs=1e-6)
                cells = sdp._Cells(instance.constraints, instance.objective)
                assert [sl.stop - sl.start for sl in cells.blocks] == sizes
                assert np.array_equal(cells.perm, np.arange(n))
                # the moments come back for all classes: zero on odd ones,
                # equal on swap pairs, and invariant under every element
                assert len(moments) == classes
                assert not moments[odd].any()
                for image, sign in zip(class_image, class_sign):
                    assert np.array_equal(moments[image] * sign, moments)
                assert red.q @ moments == pytest.approx(violation, abs=1e-7)
                assert red.norm @ moments == pytest.approx(1.0, abs=1e-9)
                assert red.p @ moments == pytest.approx(value, abs=2e-6)
                assert np.linalg.eigvalsh(red.assemble(moments)).min() >= -1e-7


@pytest.mark.parametrize("paired", [False, True])
def test_odd_objective_term_keeps_the_flip_out(altered, paired):
    # an objective that reads <Z_A> (and <Z_B>, its swap image, when
    # paired) is not flip-symmetric: the group keeps at most the swap, and
    # the reduced solve still matches the unreduced one
    wmax = cert.max_violation("di", "chsh")
    words = npa.generate_words("di", 4)
    reduced = npa.build_moment_problem("di", words, "state", "chsh")
    # cell (k, 0) carries the moment of word k
    position = {w.key: k for k, w in enumerate(words)}
    za, zb = (reduced.label[position[key], 0] for key in (((0,), ()), ((), (0,))))
    p = reduced.p.copy()
    p[[za, zb] if paired else [za]] += 0.3
    odd = altered(reduced, p=p)
    odd.group = npa.symmetry_group(odd)
    word_image, word_sign, _, _ = odd.group
    assert len(word_image) == (2 if paired else 1) and np.all(word_sign == 1.0)
    violation = wmax - 0.1
    (_, value, moments), = _bounds(odd, [violation]).values()
    (_, even_value, _), = _bounds(reduced, [violation]).values()
    (_, full, _), = _bounds(altered(odd, group=trivial_group(odd)), [violation]).values()
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
        reduced = npa.build_moment_problem("di", words, objective, "chsh")
        of_class, sign, (owner, rows, cols, values) = sdp._moment_basis(reduced.label, reduced.group)
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
    reduced = npa.build_moment_problem(setting, words, "state", inequality)
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
#: well conditioned: about 0.38 for the one-sided companions, and 0.12 and
#: 0.088 for the fully untrusted ones at word caps 3 and 4.  A dependent
#: stack reads about 1e-16.
INDEPENDENCE_FLOOR = 1e-2


def test_companion_constraints_are_independent(tmp_path):
    # `solve` has no presolve: it relies on the companion's constraint
    # matrices being linearly independent, for every README objective at
    # both ends of the default grid and for the folded exports, at the
    # default word caps and at the fully untrusted cap 4
    for setting, inequality, cap in (("1sdi", "steering", 3), ("1sdi", "chsh", 3), ("di", "chsh", 3), ("di", "chsh", 4)):
        wmax = cert.max_violation(setting, inequality)
        words = npa.generate_words(setting, cap)
        for objective in npa.OBJECTIVES[setting]:
            reduced = npa.build_moment_problem(setting, words, objective, inequality)
            for eps in (0.01, 0.2):
                instance, _, _ = moment_companion(reduced, wmax - eps)
                assert _relative_smallest_singular_value(instance) >= INDEPENDENCE_FLOOR
    for setting, inequality, cap, form, constraints in (
        ("1sdi", "steering", 3, "generated", 31),
        ("1sdi", "steering", 3, "deduplicated", 31),
        ("di", "chsh", 3, "deduplicated", 107),
        ("di", "chsh", 3, "generated", 107),
        ("di", "chsh", 4, "deduplicated", 183),
        ("di", "chsh", 4, "generated", 183),
    ):
        words = npa.generate_words(setting, cap)
        problem = npa.build_moment_problem(setting, words, "state", inequality)
        path = tmp_path / f"{setting}-{cap}-{form}.dat-s"
        npa.export_sdpa(problem, path, cert.max_violation(setting, inequality) - 0.1, constraints=form)
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


def _dense_coupling_constraints(label, p, e, d, group):
    """The constraints `companion_instance` built before it skipped zero
    couplings, kept as the reference: a coupling term for every pair of a
    pivot cell and a free moment.  Returns them and the coupling."""
    of_class, sign, (owner, rows, cols, values) = sdp._moment_basis(label, group)
    n, m = len(label), int(of_class.max()) + 1
    p = np.bincount(of_class, sign * p, minlength=m)
    e = np.array([np.bincount(of_class, sign * row, minlength=m) for row in e])
    kept, pivots = _left_looking_pivots(e)
    free = np.setdiff1d(np.arange(m), pivots)
    coupling = -np.linalg.solve(e[kept][:, pivots], e[kept][:, free])
    own = np.flatnonzero(~np.isin(owner, pivots))
    terms = [(np.searchsorted(free, owner[own]), own, np.ones(len(own)))]
    b_eff = p[free]
    for k, v in enumerate(pivots):
        on = np.flatnonzero(owner == v)
        j = np.repeat(np.arange(len(free)), len(on))
        terms.append((j, np.tile(on, len(free)), coupling[k, j]))
        b_eff = b_eff + coupling[k] * p[v]
    j, cell, weight = (np.concatenate(part) for part in zip(*terms))
    key, slot = np.unique((j * n + rows[cell]) * n + cols[cell], return_inverse=True)
    g_values = np.bincount(slot, weight * values[cell])
    cells = sdp.Constraints(key // (n * n), key // n % n, key % n, -g_values, -b_eff)
    return sdp.SdpInstance(np.zeros((n, n)), cells).constraints, coupling


@pytest.mark.parametrize("setting, inequality", [("1sdi", "steering"), ("di", "chsh")])
def test_coupling_terms_only_at_nonzero_couplings(setting, inequality):
    # The companion skips the (pivot, free moment) pairs whose coupling is
    # zero; its constraints are bit-identical to those of the dense terms.
    # The rows are the normalization and the violation level of the state
    # problem and sparse random rows over its classes, under its group.
    wmax = cert.max_violation(setting, inequality)
    words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
    reduced = npa.build_moment_problem(setting, words, "state", inequality)
    group = reduced.group
    rng = np.random.default_rng(29)
    extra, _ = _sparse_rows(rng, 12, len(reduced.p))
    e = np.vstack([reduced.norm, reduced.q, extra])
    # right-hand sides that random moments, invariant under the group, meet
    of_class, sign, _ = sdp._moment_basis(reduced.label, group)
    d = e @ (sign * rng.standard_normal(of_class.max() + 1)[of_class])
    instance, _, _ = sdp.companion_instance(reduced.label, reduced.p, e, d, group)
    reference, coupling = _dense_coupling_constraints(reduced.label, reduced.p, e, d, group)
    assert np.count_nonzero(coupling == 0.0) > coupling.size // 4
    con = instance.constraints
    for got, want in zip(
        (con.owner, con.rows, con.cols, con.values, con.rhs),
        (reference.owner, reference.rows, reference.cols, reference.values, reference.rhs),
    ):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_same_companion(got, fresh, z):
    (instance, offset, recover), (want, want_offset, want_recover) = got, fresh
    assert np.array_equal(instance.objective, want.objective)
    con, ref = instance.constraints, want.constraints
    for name in ("owner", "rows", "cols", "values", "rhs"):
        assert np.array_equal(getattr(con, name), getattr(ref, name))
    assert offset == want_offset
    assert np.array_equal(recover(z), want_recover(z))


@pytest.mark.parametrize("setting, inequality, other", [("1sdi", "steering", "XB"), ("di", "chsh", "XAXB")])
def test_one_structure_poses_every_point_as_a_fresh_companion(setting, inequality, other):
    # `state` and `other` share their label, norm, q and group, so one
    # structure poses both objectives at every violation level
    wmax = cert.max_violation(setting, inequality)
    words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
    state, reduced = (
        npa.build_moment_problem(setting, words, objective, inequality)
        for objective in ("state", other)
    )
    group = state.group
    assert all(np.array_equal(a, b) for a, b in zip(group, reduced.group))
    e = [state.norm, state.q]
    structure = sdp._Companion(state.label, e, group)
    rng = np.random.default_rng(31)
    for red in (state, reduced):
        for violation in (wmax - 0.01, wmax - 0.2):
            got = structure.pose(red.p, [1.0, violation])
            z = rng.standard_normal(len(got[0].constraints))
            _assert_same_companion(got, sdp.companion_instance(red.label, red.p, e, [1.0, violation], group), z)
    # a dependent third row: the pose whose value for it disagrees raises,
    # and the structure still poses the ones that agree
    e = [state.norm, state.q, state.norm + state.q]
    structure = sdp._Companion(state.label, e, group)
    for violation in (wmax - 0.01, wmax - 0.2):
        with pytest.raises(sdp.InfeasibleError):
            structure.pose(state.p, [1.0, violation, 1.1 + violation])
        d = [1.0, violation, 1.0 + violation]
        got = structure.pose(state.p, d)
        z = rng.standard_normal(len(got[0].constraints))
        _assert_same_companion(got, sdp.companion_instance(state.label, state.p, e, d, group), z)


# ---------------------------------------------------------------------------
# Families: instances that share their constraint cells, solved in one run

DEFAULT_GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


def _companions(setting, inequality, objectives, epsilons):
    """The companions `derive_alphas` poses, objective by objective."""
    wmax = cert.max_violation(setting, inequality)
    words = npa.generate_words(setting, sdp.DEFAULT_WORD_CAP[setting])
    instances = []
    for objective in objectives:
        reduced = npa.build_moment_problem(setting, words, objective, inequality)
        instances += [moment_companion(reduced, wmax - eps)[0] for eps in epsilons]
    return instances


def _assert_solo(got, instance, max_iterations=100):
    """A family member's solution is the instance's own solve, bit for bit."""
    alone = sdp.solve(instance, max_iterations)
    assert (got.iterations, got.termination, got.status) == (alone.iterations, alone.termination, alone.status)
    for name in ("primal", "dual", "slack"):
        assert np.array_equal(getattr(got, name), getattr(alone, name))
    assert got.primal_objective == alone.primal_objective and got.trace == alone.trace


@pytest.mark.parametrize(
    "setting, inequality, objectives, epsilons",
    [
        ("1sdi", "steering", ("state", "ZB", "XB"), (0.1,)),
        ("1sdi", "chsh", ("state", "ZB", "XB"), (0.1,)),
        # the one-sided default grid, one family of 15
        ("1sdi", "steering", ("state", "ZB", "XB"), DEFAULT_GRID),
        ("di", "chsh", ("state", "ZAZB", "XAXB"), (0.1,)),
    ],
)
def test_family_members_are_their_solo_solves(setting, inequality, objectives, epsilons):
    instances = _companions(setting, inequality, objectives, epsilons)
    family = sdp.solve_family(instances)
    assert len(family) == len(instances)
    for got, instance in zip(family, instances):
        assert got.status == "optimal"
        _assert_solo(got, instance)


def test_a_member_that_ends_does_not_stop_the_others():
    # Capped at 15 iterations, the default-grid family has members that
    # stall, members that converge and one that hits the cap, each as alone.
    instances = _companions("1sdi", "steering", ("state", "ZB", "XB"), DEFAULT_GRID)
    family = sdp.solve_family(instances, max_iterations=15)
    ends = {sol.termination for sol in family}
    assert {"stall", "optimal", "iteration-cap"} <= ends
    assert len({sol.iterations for sol in family}) > 2
    for got, instance in zip(family, instances):
        _assert_solo(got, instance, max_iterations=15)


def _poison_schur(monkeypatch, instance, call):
    """Make `_Cells.schur` return a negative definite matrix, which fails
    Cholesky at every jitter level, for the W that `instance` meets at its
    `call`-th iteration alone.  A family member meets its solo W bit for
    bit, in the stacked step and when it is redone alone, so the poison
    keys on that member.  Returns the unpatched `_Cells.schur`."""
    schur, seen = sdp._Cells.schur, []

    def recording(self, w):
        seen.append(w.copy())
        return schur(self, w)

    monkeypatch.setattr(sdp._Cells, "schur", recording)
    sdp.solve(instance)
    target, m = seen[call - 1], len(instance.constraints)

    def poisoned(self, w):
        return -np.eye(m) if np.array_equal(w, target) else schur(self, w)

    monkeypatch.setattr(sdp._Cells, "schur", poisoned)
    return schur


def _mark(instances, k):
    """The instances with member k's right-hand sides scaled by 7, and the
    xi of its start xi I, which no other member shares."""
    con = instances[k].constraints
    marked = sdp.SdpInstance(instances[k].objective, sdp.Constraints(con.owner, con.rows, con.cols, con.values, 7.0 * con.rhs))
    instances = instances[:k] + [marked] + instances[k + 1 :]
    cells = sdp._Cells(con, marked.objective)
    xi = sdp._Member(marked, cells, con.norms()).xi
    assert all(sdp._Member(inst, cells, con.norms()).xi != xi for j, inst in enumerate(instances) if j != k)
    return instances, xi


def test_a_failing_factorization_ends_only_its_member(monkeypatch):
    # The marked second member's first Schur matrix is negative definite,
    # so it fails Cholesky at every jitter level; the stacked call raises
    # for the whole stack, and the members then step one by one.  (The
    # unmarked `state` and `ZB` members meet the same W.)
    instances, _ = _mark(_companions("1sdi", "chsh", ("state", "ZB", "XB"), (0.1,)), 1)
    schur = _poison_schur(monkeypatch, instances[1], 1)
    family = sdp.solve_family(instances)
    monkeypatch.setattr(sdp._Cells, "schur", schur)
    assert (family[1].termination, family[1].iterations) == ("schur-breakdown", 1)
    for k in (0, 2):
        _assert_solo(family[k], instances[k])

    # The marked third member's X at its start, xi I, fails its
    # factorization: the stacked step raises, and the members then step
    # one by one.
    instances, xi = _mark(_companions("1sdi", "chsh", ("state", "ZB", "XB"), (0.1,)), 2)
    cholesky = np.linalg.cholesky

    def failing(a):
        if a.shape[-1] == instances[2].dim and np.any(a[..., 0, 0] == xi):
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    family = sdp.solve_family(instances)
    assert (family[2].termination, family[2].iterations) == ("linalg-error", 1)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    for k in (0, 1):
        _assert_solo(family[k], instances[k])


def test_a_factorization_failing_after_stacked_steps_ends_only_its_member(monkeypatch):
    # The marked first member steps with the others three times, then its
    # Schur matrix at the fourth iterate fails at every jitter level.
    instances, _ = _mark(_companions("1sdi", "chsh", ("state", "ZB", "XB"), (0.1,)), 0)
    schur = _poison_schur(monkeypatch, instances[0], 4)
    family = sdp.solve_family(instances)
    monkeypatch.setattr(sdp._Cells, "schur", schur)
    assert (family[0].termination, family[0].iterations) == ("schur-breakdown", 4)
    assert family[0].trace == sdp.solve(instances[0]).trace[:4]
    for k in (1, 2):
        _assert_solo(family[k], instances[k])


@pytest.mark.parametrize("exit", ["non-finite-scaling", "step-too-small"])
def test_an_exit_without_a_step_ends_only_its_member(monkeypatch, exit):
    # The marked member, alone and in its family, gets a scaling with NaN
    # in it, or corrector steps of 1e-12, at its start xi I.
    instances, xi = _mark(_companions("1sdi", "chsh", ("state", "ZB", "XB"), (0.1,)), 2)
    nt_scaling, max_step, marked = sdp._nt_scaling, sdp._max_step, [None]

    def scaling(x, s):
        marked[0] = x[:, 0, 0] == xi
        g, d = nt_scaling(x, s)
        if exit == "non-finite-scaling":
            g[marked[0]] = np.nan
        return g, d

    def shortened(lam, tau):
        steps = max_step(lam, tau)
        # the corrector's steps, four per member
        if exit == "step-too-small" and steps.shape == (len(marked[0]), 4):
            steps[marked[0]] = 1e-12
        return steps

    monkeypatch.setattr(sdp, "_nt_scaling", scaling)
    monkeypatch.setattr(sdp, "_max_step", shortened)
    alone = sdp.solve(instances[2])
    family = sdp.solve_family(instances)
    monkeypatch.setattr(sdp, "_nt_scaling", nt_scaling)
    monkeypatch.setattr(sdp, "_max_step", max_step)
    for sol in (alone, family[2]):
        assert (sol.termination, sol.iterations) == (exit, 1)
    for k in (0, 1):
        _assert_solo(family[k], instances[k])


def test_families_group_identical_cells_only(monkeypatch):
    # The driver solves the points posed on one structure as one family.
    # Each member gets its solo solution because, on every README
    # derivation, the points of a structure have its cells, and no
    # point's objective joins two blocks of those cells.
    families = []
    family = sdp.solve_family

    def recording(instances, max_iterations=100):
        families.append(instances)
        return family(instances, max_iterations)

    monkeypatch.setattr(sdp, "solve_family", recording)
    for setting, inequality in (("1sdi", "steering"), ("1sdi", "chsh"), ("di", "chsh")):
        sdp.derive_alphas(setting, inequality, ("state", "measurement"), DEFAULT_GRID)
    assert [len(instances) for instances in families] == [10, 10, 10, 5]
    for instances in families:
        con = instances[0].constraints
        blocks = sdp._components(instances[0].dim, con.rows, con.cols)
        for instance in instances:
            assert all(
                np.array_equal(getattr(con, name), getattr(instance.constraints, name))
                for name in ("owner", "rows", "cols", "values")
            )
            edges = np.concatenate([np.nonzero(instance.objective), (con.rows, con.cols)], axis=1)
            assert np.array_equal(sdp._components(instance.dim, *edges), blocks)
    # solve_family refuses instances whose cells differ: fully untrusted
    # `state` and `ZAXB`, which keeps only the flip, or one value changed
    state, flip = families[2][0], families[3][0]
    with pytest.raises(ValueError, match="share their constraint cells"):
        sdp.solve_family([state, flip])
    con = state.constraints
    values = con.values.copy()
    values[0] *= 2.0
    changed = sdp.SdpInstance(state.objective, sdp.Constraints(con.owner, con.rows, con.cols, values, con.rhs))
    with pytest.raises(ValueError, match="share their constraint cells"):
        sdp.solve_family([state, changed])


def test_commands_solve_one_run_per_family(monkeypatch):
    # Each distinct companion of a command is solved once: the one-sided
    # `state` and `ZB` points are one, and so are the fully untrusted
    # `state` and `ZAZB` ones.  `ZAXB` has a family of its own.  A command
    # for both kinds reports per kind what the kind's own command reports.
    sizes = []
    family = sdp.solve_family

    def recording(instances, max_iterations=100):
        sizes.append(len(instances))
        return family(instances, max_iterations)

    monkeypatch.setattr(sdp, "solve_family", recording)
    for setting, inequality, epsilons, runs in (
        ("1sdi", "steering", (0.1,), [2]),
        ("1sdi", "chsh", DEFAULT_GRID, [10]),
        ("di", "chsh", (0.1,), [2, 1]),
        ("di", "chsh", DEFAULT_GRID, [10, 5]),
    ):
        sizes.clear()
        reports = sdp.derive_alphas(setting, inequality, ("state", "measurement"), epsilons)
        assert sizes == runs
        for kind, report in reports.items():
            assert report == sdp.derive_alpha(setting, inequality, kind, epsilons)


# ---------------------------------------------------------------------------
# The per-process caches of problems and companion structures


def test_a_second_derivation_builds_nothing_again(monkeypatch):
    # the word lists, the moment problems, their reductions and groups and
    # the companion structures are built by the first call alone, one word
    # list per problem, and the second call reports what the first did
    built = {}

    def counted(name, function):
        def counting(*args, **kwargs):
            built[name] = built.get(name, 0) + 1
            return function(*args, **kwargs)

        return counting

    for module, name in ((npa, "generate_words"), (npa, "build_moment_problem"), (npa, "reduce_problem"),
                         (npa, "symmetry_group"), (sdp, "_Companion")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for cache in (sdp._reduced_problem, sdp._companion):
        cache.cache_clear()
    cold = sdp.derive_alphas("di", "chsh", ("state", "measurement"), (0.1,))
    # state, ZAZB and XAXB share one structure; ZAXB keeps only the flip
    assert built == {"generate_words": 4, "build_moment_problem": 4, "reduce_problem": 4, "symmetry_group": 4, "_Companion": 2}
    built.clear()
    assert sdp.derive_alphas("di", "chsh", ("state", "measurement"), (0.1,)) == cold
    assert built == {}


def test_cached_problems_and_structures_are_read_only():
    problem = sdp._reduced_problem("di", "chsh", 4, "ZAXB")
    data = (problem.label, problem.norm, problem.q, *problem.group)
    structure = sdp._companion(sdp._Structure(sdp._data_key(*data), data))
    parts = [problem.entry_ids, problem.label, problem.p, problem.q, problem.norm, *problem.group]
    for value in vars(structure).values():
        parts += value if isinstance(value, (list, tuple)) else [value]
    for array in (part for part in parts if isinstance(part, np.ndarray)):
        with pytest.raises(ValueError, match="read-only"):
            array.flat[:1] = 0


def test_a_patched_group_gets_its_own_structure(monkeypatch):
    # The structure cache is keyed on the bytes of the group a point's
    # problem carries, so the problem built again under the trivial group
    # is posed on a structure of its own, unreduced, and not on the cached
    # one.
    wmax = cert.max_violation("di", "chsh")
    words = npa.generate_words("di", 4)
    point = (npa.build_moment_problem("di", words, "state", "chsh"), wmax - 0.1)
    (split,) = sdp.solve_moment_problems([point])
    monkeypatch.setattr(npa, "symmetry_group", trivial_group)
    (full,) = sdp.solve_moment_problems([(npa.build_moment_problem("di", words, "state", "chsh"), wmax - 0.1)])
    assert (len(split.solution.kept_constraints), len(full.solution.kept_constraints)) == (59, 183)
    assert full.bound == pytest.approx(split.bound, abs=1e-6)
    # the cached structure of the whole group still serves the point
    assert sdp.solve_moment_problems([point])[0].bound == split.bound


# ---------------------------------------------------------------------------
# Certified curve points: the fully untrusted word cap


def _certified_minorant(instance, offset, x):
    """A lower bound on a fully untrusted moment problem's minimum from any
    symmetric X, the companion's primal iterate included (Jansson, Chaykin
    & Keil, SIAM J. Numer. Anal. 46, 2007).

    For a feasible dual z, S = C0 - sum_j z_j A_j >= 0 is the moment
    matrix in an orthonormal basis, and with r = b - A(X) the minimum is
    offset - b.z = offset - tr(C0 X) + tr(S X) - z.r.  Every diagonal cell
    of Gamma is the normalized identity moment, so tr S = n and each free
    moment has |z_j| <= 1: tr(S X) >= -n max(0, -lambda_min(X)) and
    z.r >= -sum_j |r_j|."""
    con = instance.constraints
    weight = np.where(con.rows == con.cols, 1.0, 2.0) * con.values
    r = con.rhs - np.bincount(con.owner, weight * x[con.rows, con.cols], minlength=len(con.rhs))
    negative = max(0.0, -float(np.linalg.eigvalsh(x)[0]))
    return offset - float(np.sum(instance.objective * x)) - float(np.sum(np.abs(r))) - instance.dim * negative


def test_word_cap_3_certifies_the_cap_4_curves():
    # The default fully untrusted word cap 3 relaxes cap 4, so its certified
    # values bound the quantum minimum too.  At every objective and
    # default-grid point, each cap's minorant from its own solve sits below
    # the point it reports, and the two caps' minorants agree to 1e-6.
    assert sdp.DEFAULT_WORD_CAP["di"] == 3
    minorants = {}
    for cap in (3, 4):
        for objective in npa.OBJECTIVES["di"]:
            points = sdp.moment_points("di", "chsh", objective, DEFAULT_GRID, cap)
            problem = points[0][0]
            identity = problem.label[0, 0]
            assert np.all(problem.label.diagonal() == identity)
            assert np.flatnonzero(problem.norm).tolist() == [identity] and problem.norm[identity] == 1.0
            for eps, (problem, violation), result in zip(DEFAULT_GRID, points, sdp.solve_moment_problems(points)):
                instance, offset, _ = moment_companion(problem, violation)
                value = _certified_minorant(instance, offset, result.solution.primal)
                assert value <= result.bound <= value + 1e-6
                minorants[cap, objective, eps] = value
    for objective in npa.OBJECTIVES["di"]:
        for eps in DEFAULT_GRID:
            assert minorants[3, objective, eps] == pytest.approx(minorants[4, objective, eps], abs=1e-6)

import itertools

import numpy as np
import pytest

from telecert import npa, protosim, qcore as qc


def test_bell_state_entries():
    bell = qc.werner_state(1.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.allclose(bell.matrix, expected, atol=1e-15)
    assert qc.fidelity_to_pure(bell, qc.bell_vector()) == pytest.approx(1.0, abs=1e-12)
    eigs = np.linalg.eigvalsh(bell.matrix)
    assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)


def test_werner_limits_and_fidelity():
    b = qc.bell_vector()
    assert np.allclose(qc.werner_state(1.0).matrix, np.outer(b, b.conj()), atol=1e-14)
    assert np.allclose(qc.werner_state(0.0).matrix, np.eye(4) / 4, atol=1e-14)
    with pytest.raises(ValueError):
        qc.werner_state(1.2)
    with pytest.raises(ValueError):
        qc.werner_state(-0.1)
    # independent oracle: direct <bell| rho |bell> computation
    v = 0.88
    rho = qc.werner_state(v)
    direct = np.vdot(b, rho.matrix @ b).real
    assert direct == pytest.approx((1 + 3 * v) / 4, abs=1e-12)
    assert qc.fidelity_to_pure(rho, b) == pytest.approx(0.91, abs=1e-12)


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        qc.TwoQubitState(np.diag([0.5, 0.5, 0.5, 0.5]))  # trace 2
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        qc.TwoQubitState(bad)  # negative eigenvalue
    asym = np.eye(4, dtype=complex) / 4
    asym[0, 1] = 1e-3  # non-Hermitian beyond tolerance
    with pytest.raises(ValueError):
        qc.TwoQubitState(asym)


def test_correlation_values():
    bell = qc.werner_state(1.0)
    assert qc.product_expectation(bell.matrix, qc.SIGMA_X, qc.SIGMA_X).real == pytest.approx(1.0, abs=1e-12)
    v = 0.63
    w = qc.werner_state(v)
    # oracle: trace computation with explicit kron
    direct = np.trace(np.kron(qc.SIGMA_Z, qc.SIGMA_Z) @ w.matrix).real
    assert direct == pytest.approx(v, abs=1e-12)
    assert qc.product_expectation(w.matrix, qc.SIGMA_Z, qc.SIGMA_Z).real == pytest.approx(v, abs=1e-12)
    mixed = qc.TwoQubitState(np.eye(4) / 4)
    assert qc.product_expectation(mixed.matrix, qc.SIGMA_X, qc.SIGMA_Z).real == pytest.approx(0.0, abs=1e-12)


def _sample(state, setting, n, rng, mode="two-basis"):
    """n rounds at one subset setting through the per-round Born-rule sampler
    of adaptive runs (two-basis: 0 is X x X, 1 is Z x Z; four-setting:
    2x + y is A_x x B_y)."""
    model = qc.ideal_model(device_independent=mode == "four-setting")
    stats = protosim.Source(mode).pair_statistics(state, model, setting)
    u_a = rng.random(n)
    u_b = rng.random(n)
    return protosim.born_outcomes(*(np.full(n, value) for value in stats), u_a, u_b)


def test_sample_round_bell_perfect_correlation():
    rng = np.random.default_rng(21)
    a, b = _sample(qc.werner_state(1.0), 0, 500, rng)
    assert np.all(a * b == 1)


def test_sample_round_werner_born_rule():
    v = 0.8
    rng = np.random.default_rng(22)
    n = 200_000
    a, b = _sample(qc.werner_state(v), 1, n, rng)
    # oracle: Born rule on the joint projectors
    p_equal = sum(
        np.trace(np.kron(proj, proj) @ qc.werner_state(v).matrix).real
        for proj in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    )
    assert p_equal == pytest.approx((1 + v) / 2, abs=1e-12)
    freq = np.mean(a * b == 1)
    sigma = np.sqrt(p_equal * (1 - p_equal) / n)
    assert abs(freq - p_equal) < 4.5 * sigma


def test_sample_round_reproducible():
    # Z on Alice, X on Bob
    out1 = _sample(qc.werner_state(0.6), 1, 64, np.random.default_rng(5), mode="four-setting")
    out2 = _sample(qc.werner_state(0.6), 1, 64, np.random.default_rng(5), mode="four-setting")
    assert np.array_equal(out1[0], out2[0]) and np.array_equal(out1[1], out2[1])
    assert set(np.unique(out1[0])) <= {-1, 1} and set(np.unique(out1[1])) <= {-1, 1}


def test_sampling_mean_matches_correlation():
    rng = np.random.default_rng(7)
    state = qc.werner_state(0.55)
    n = 1_000_000
    a, b = _sample(state, 0, n, rng)
    correlation = qc.product_expectation(state.matrix, qc.SIGMA_X, qc.SIGMA_X).real
    assert abs(np.mean(a * b) - correlation) < 4 / np.sqrt(n)


def test_ideal_models_are_shared_and_read_only():
    for di in (False, True):
        model = qc.ideal_model(device_independent=di)
        assert qc.ideal_model(di) is model and qc.ideal_model(device_independent=di) is model
        families = [model.bob_projectors] + ([model.alice_projectors] if di else [])
        for family in families:
            with pytest.raises(ValueError):
                family[0, 0, 0, 0] = 0.0
    assert qc.ideal_model() is qc.ideal_model(False)
    assert qc.ideal_model() is not qc.ideal_model(True)


def test_werner_states_are_shared_and_read_only():
    for build in (qc.werner_state, qc.rotated_werner_state):
        state = build(0.37)
        assert build(0.37) is state
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0
    assert qc.werner_state(0.37) is not qc.rotated_werner_state(0.37)
    # refusals are not cached: each call checks again
    for v in (1.2, float("nan")):
        for _ in range(2):
            with pytest.raises(ValueError, match="outside"):
                qc.werner_state(v)


def test_extended_ideal_model_is_fresh(purify_with_bob_ancilla):
    shared = qc.ideal_model()
    model = shared.extended(4)
    assert model is not shared.extended(4)
    assert model.derived == {}
    assert model.bob_projectors.flags.writeable
    # the Gamma instantiated on it is the one an unshared Pauli model gives
    unshared = qc.MeasurementModel(2, shared.bob_projectors.copy()).extended(4)
    words = npa.generate_words("1sdi", 3)
    vec, _ = purify_with_bob_ancilla(qc.werner_state(0.81))
    assert np.array_equal(npa.instantiate_gamma(model, vec, words), npa.instantiate_gamma(unshared, vec, words))


def test_extraction_ideal_is_identity():
    ext = qc.swap_isometry_extract(qc.bell_vector(), qc.ideal_model())
    assert np.max(np.abs(ext.matrix - qc.werner_state(1.0).matrix)) < 1e-12
    assert np.trace(ext.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_extraction_werner_purification(purify_with_bob_ancilla):
    for v in (0.4, 0.85):
        vec, bob_dim = purify_with_bob_ancilla(qc.werner_state(v))
        model = qc.ideal_model().extended(4)
        assert model.bob_dim == bob_dim
        ext = qc.swap_isometry_extract(vec, model)
        assert qc.fidelity_to_pure(ext, qc.bell_vector()) == pytest.approx((1 + 3 * v) / 4, abs=1e-9)


def test_extraction_dimension_mismatch():
    with pytest.raises(ValueError):
        qc.swap_isometry_extract(qc.haar_random_vector(8, np.random.default_rng(0)), qc.ideal_model())


def test_extraction_both_sides_ideal():
    target = qc.rotated_bell_vector()
    ext = qc.swap_isometry_extract(target, qc.ideal_model(device_independent=True))
    assert qc.fidelity_to_pure(ext, target) == pytest.approx(1.0, abs=1e-12)


def test_extraction_reuses_the_kraus_products_bit_for_bit():
    # reference: the Kraus products formed afresh at each use
    def reference(rho, model, side):
        kb = qc._extraction_kraus(model.bob_observable(0), model.bob_observable(1))
        out = np.zeros((4, 4), dtype=complex)
        if side == "bob":
            for i, j in itertools.product((0, 1), repeat=2):
                block = qc.partial_trace_bob(rho, 2, model.bob_dim, kb[j].conj().T @ kb[i])
                out[np.ix_((i, 2 + i), (j, 2 + j))] = block
        else:
            ka = qc._extraction_kraus(model.alice_observable(0), model.alice_observable(1))
            for i, j, k, l in itertools.product((0, 1), repeat=4):
                out[2 * i + j, 2 * k + l] = qc.product_expectation(rho, ka[k].conj().T @ ka[i], kb[l].conj().T @ kb[j])
        return qc.TwoQubitState(out).matrix

    rng = np.random.default_rng(8)
    for side, alice_dim in (("bob", None), ("both", 2)):
        model = qc.random_projective_model(4, rng, alice_dim=alice_dim)
        for _ in range(2):  # the second call reads the products kept on the model
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            assert np.array_equal(qc.swap_isometry_extract(rho, model).matrix, reference(rho, model, side))


def test_extraction_matches_functional_route():
    # quick version of the master cross-check (the acceptance suite runs
    # the full 200-sample sweep)
    from telecert import npa

    rng = np.random.default_rng(13)
    func = npa.steering_fidelity_functional("state")
    keys = list(func)
    for _ in range(30):
        d = int(rng.choice([2, 4]))
        psi = qc.haar_random_vector(2 * d, rng)
        model = qc.random_projective_model(d, rng)
        moments = npa.evaluate_moments("1sdi", psi, model, keys)
        via_moments = npa.evaluate_functional(func, moments)
        direct = qc.fidelity_to_pure(
            qc.swap_isometry_extract(psi, model), qc.bell_vector()
        )
        assert via_moments == pytest.approx(direct, abs=1e-9)


def test_teleport_bell_resource_is_perfect():
    rng = np.random.default_rng(2)
    assert qc.teleport_average_fidelity(qc.werner_state(1.0), 25, rng) == pytest.approx(1.0, abs=1e-10)


def test_teleport_werner_average():
    # frozen oracle values: average fidelity (1+v)/2 at v in {0, 0.5, 1}
    rng = np.random.default_rng(4)
    for v, expected in ((0.0, 0.5), (0.5, 0.75), (1.0, 1.0)):
        emp = qc.teleport_average_fidelity(qc.werner_state(v), 40, rng)
        assert emp == pytest.approx(expected, abs=1e-10)


def test_teleport_refuses_more_inputs_than_its_bound(monkeypatch):
    # the bound is lowered, so that a check that regresses draws little;
    # the refusal comes before the first draw
    class NoDraws:
        def standard_normal(self, *args, **kwargs):
            raise AssertionError("inputs were drawn before their count was checked")

    monkeypatch.setattr(qc, "MAX_TELEPORT_INPUTS", 10)
    with pytest.raises(ValueError, match="11 teleportation inputs exceed the 10 a call admits"):
        qc.teleport_average_fidelity(qc.werner_state(1.0), 11, NoDraws())
    assert qc.teleport_average_fidelity(qc.werner_state(1.0), 10, np.random.default_rng(2)) == pytest.approx(1.0, abs=1e-10)


def _teleport_loop(resource, n_inputs, rng):
    """Input-by-input reference for ``teleport_average_fidelity``."""
    rho = resource.matrix.reshape(2, 2, 2, 2)
    total = 0.0
    for _ in range(n_inputs):
        phi = qc.haar_random_vector(2, rng)
        for k in range(4):
            amp = np.einsum("c,ca->a", phi, qc._BELL_BASIS[:, k].reshape(2, 2).conj())
            bob = np.einsum("a,e,abed->bd", amp, amp.conj(), rho)
            corrected = qc._CORRECTIONS[k] @ bob @ qc._CORRECTIONS[k].conj().T
            total += np.real(np.vdot(phi, corrected @ phi))
    return total / n_inputs


def test_teleport_matches_input_loop():
    # same Haar draws as successive haar_random_vector calls; only the
    # summation order differs, so agreement to a few float64 ulps
    rng = np.random.default_rng(31)
    for n_inputs in (1, 3, 64):
        psi = qc.haar_random_vector(4, rng)
        resource = qc.TwoQubitState(0.6 * np.outer(psi, psi.conj()) + 0.4 * qc.werner_state(0.5).matrix)
        seed = int(rng.integers(2**32))
        batched = qc.teleport_average_fidelity(resource, n_inputs, np.random.default_rng(seed))
        looped = _teleport_loop(resource, n_inputs, np.random.default_rng(seed))
        assert batched == pytest.approx(looped, abs=1e-14)


def test_teleport_beats_entangled_fidelity():
    rng = np.random.default_rng(9)
    for v in (0.3, 0.6, 0.9):
        resource = qc.werner_state(v)
        emp = qc.teleport_average_fidelity(resource, 50, rng)
        assert emp + 1e-9 >= qc.fidelity_to_pure(resource, qc.bell_vector())


def test_measurement_model_validation():
    eye = np.eye(2, dtype=complex)
    incomplete = np.array([[eye, eye], [eye, eye]])  # sums to 2*identity
    with pytest.raises(ValueError):
        qc.MeasurementModel(2, incomplete)
    not_idempotent = np.array([[0.5 * eye, 0.5 * eye], [0.5 * eye, 0.5 * eye]])
    with pytest.raises(ValueError):
        qc.MeasurementModel(2, not_idempotent)

import json

import numpy as np
import pytest

from telecert import protosim, qcore as qc


def test_bell_state_entries():
    bell = qc.bell_state()
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    assert np.allclose(bell.matrix, expected, atol=1e-15)
    assert qc.fidelity_to_pure(bell, qc.bell_vector()) == pytest.approx(1.0, abs=1e-12)
    eigs = np.sort(bell.eigenvalues())
    assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-12)


def test_werner_limits_and_fidelity():
    assert np.allclose(qc.werner_state(1.0).matrix, qc.bell_state().matrix, atol=1e-14)
    assert np.allclose(qc.werner_state(0.0).matrix, np.eye(4) / 4, atol=1e-14)
    with pytest.raises(ValueError):
        qc.werner_state(1.2)
    with pytest.raises(ValueError):
        qc.werner_state(-0.1)
    # independent oracle: direct <bell| rho |bell> computation
    v = 0.88
    rho = qc.werner_state(v)
    b = qc.bell_vector()
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
    bell = qc.bell_state()
    assert qc.correlation(bell, qc.OBS_X, qc.OBS_X) == pytest.approx(1.0, abs=1e-12)
    v = 0.63
    w = qc.werner_state(v)
    # oracle: trace computation with explicit kron
    direct = np.trace(np.kron(qc.SIGMA_Z, qc.SIGMA_Z) @ w.matrix).real
    assert direct == pytest.approx(v, abs=1e-12)
    assert qc.correlation(w, qc.OBS_Z, qc.OBS_Z) == pytest.approx(v, abs=1e-12)
    mixed = qc.TwoQubitState(np.eye(4) / 4)
    assert qc.correlation(mixed, qc.OBS_X, qc.OBS_Z) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        qc.Observable(np.array([[1, 1j], [1j, 1]]))  # not Hermitian


def test_steering_value():
    assert qc.steering_value(qc.bell_state()) == pytest.approx(2.0, abs=1e-12)
    for v in (0.3, 0.7, 1.0):
        assert qc.steering_value(qc.werner_state(v)) == pytest.approx(2 * v, abs=1e-12)
    assert qc.steering_value(qc.TwoQubitState(np.eye(4) / 4)) == pytest.approx(0.0, abs=1e-12)


def test_chsh_value():
    settings = qc.chsh_optimal_settings()
    assert qc.chsh_value(qc.bell_state(), settings) == pytest.approx(2 * np.sqrt(2), abs=1e-12)
    v = 0.8
    assert qc.chsh_value(qc.werner_state(v), settings) == pytest.approx(2 * np.sqrt(2) * v, abs=1e-12)
    # classical bound for product states under sampled dichotomic settings
    rng = np.random.default_rng(11)
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    product = qc.TwoQubitState(np.outer(ket00, ket00.conj()))
    for _ in range(25):
        obs = []
        for _ in range(4):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            obs.append(qc.Observable(n[0] * qc.SIGMA_X + n[1] * qc.SIGMA_Y + n[2] * qc.SIGMA_Z))
        assert qc.chsh_value(product, obs) <= 2.0 + 1e-9


def test_linearity_in_state():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.uniform(0.2, 0.8)
        v1, v2 = rng.uniform(0, 1, 2)
        r1, r2 = qc.werner_state(v1), qc.werner_state(v2)
        mix = qc.TwoQubitState(p * r1.matrix + (1 - p) * r2.matrix)
        assert qc.steering_value(mix) == pytest.approx(
            p * qc.steering_value(r1) + (1 - p) * qc.steering_value(r2), abs=1e-12
        )
        settings = qc.chsh_optimal_settings()
        assert qc.chsh_value(mix, settings) == pytest.approx(
            p * qc.chsh_value(r1, settings) + (1 - p) * qc.chsh_value(r2, settings), abs=1e-12
        )


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
    a, b = _sample(qc.bell_state(), 0, 500, rng)
    assert np.all(a * b == 1)


def test_sample_round_werner_born_rule():
    v = 0.8
    rng = np.random.default_rng(22)
    n = 200_000
    a, b = _sample(qc.werner_state(v), 1, n, rng)
    # oracle: Born rule on the joint projectors
    p_equal = sum(
        np.trace(np.kron(qc.OBS_Z.projector(s), qc.OBS_Z.projector(s)) @ qc.werner_state(v).matrix).real
        for s in (0, 1)
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
    assert abs(np.mean(a * b) - qc.correlation(state, qc.OBS_X, qc.OBS_X)) < 4 / np.sqrt(n)


def test_public_names_resolve():
    for name in qc.__all__:
        assert hasattr(qc, name), name
    namespace = {}
    exec("from telecert.qcore import *", namespace)
    assert set(qc.__all__) <= set(namespace)


def test_extraction_ideal_is_identity():
    ext = qc.swap_isometry_extract(qc.bell_vector(), qc.ideal_model(), side="bob")
    assert np.max(np.abs(ext.matrix - qc.bell_state().matrix)) < 1e-12
    assert np.trace(ext.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_extraction_werner_purification():
    for v in (0.4, 0.85):
        vec, bob_dim = qc.purify_with_bob_ancilla(qc.werner_state(v))
        model = qc.ideal_model().extended(4)
        assert model.bob_dim == bob_dim
        ext = qc.swap_isometry_extract(vec, model, side="bob")
        assert qc.fidelity_to_pure(ext, qc.bell_vector()) == pytest.approx((1 + 3 * v) / 4, abs=1e-9)


def test_extraction_dimension_mismatch():
    with pytest.raises(ValueError):
        qc.swap_isometry_extract(qc.haar_random_vector(8, np.random.default_rng(0)), qc.ideal_model(), side="bob")


def test_extraction_both_sides_ideal():
    target = qc.rotated_bell_vector()
    ext = qc.swap_isometry_extract(target, qc.ideal_model(device_independent=True), side="both")
    assert qc.fidelity_to_pure(ext, target) == pytest.approx(1.0, abs=1e-12)


def test_extraction_matches_functional_route():
    # quick version of the master cross-check (the acceptance suite runs
    # the full 200-sample sweep)
    from telecert import npa

    rng = np.random.default_rng(13)
    func = npa.steering_fidelity_functional("state")
    keys = npa.functional_keys("1sdi", func)
    for _ in range(30):
        d = int(rng.choice([2, 4]))
        psi = qc.haar_random_vector(2 * d, rng)
        model = qc.random_projective_model(d, rng)
        moments = npa.evaluate_moments("1sdi", psi, model, keys)
        via_moments = npa.evaluate_functional("1sdi", func, moments)
        direct = qc.fidelity_to_pure(
            qc.swap_isometry_extract(psi, model, side="bob"), qc.bell_vector()
        )
        assert via_moments == pytest.approx(direct, abs=1e-9)


def test_assemblage_no_signalling():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.choice([2, 3, 4]))
        psi = qc.haar_random_vector(2 * d, rng)
        model = qc.random_projective_model(d, rng)
        qc.Assemblage.from_state_and_model(psi, model).check(tol=1e-10)


def test_teleport_bell_resource_is_perfect():
    rng = np.random.default_rng(2)
    assert qc.teleport_average_fidelity(qc.bell_state(), 25, rng) == pytest.approx(1.0, abs=1e-10)


def test_teleport_werner_average():
    # frozen oracle values: average fidelity (1+v)/2 at v in {0, 0.5, 1}
    rng = np.random.default_rng(4)
    for v, expected in ((0.0, 0.5), (0.5, 0.75), (1.0, 1.0)):
        emp = qc.teleport_average_fidelity(qc.werner_state(v), 40, rng)
        assert emp == pytest.approx(expected, abs=1e-10)


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


def test_serialization_round_trip():
    state = qc.werner_state(0.77)
    doc = qc.state_to_json(state)
    assert doc["schema"] == "qcore/1"
    back = qc.state_from_json(json.loads(json.dumps(doc)))
    assert np.max(np.abs(back.matrix - state.matrix)) < 1e-15

    model = qc.random_projective_model(4, np.random.default_rng(1), alice_dim=2)
    mdoc = qc.model_to_json(model)
    mback = qc.model_from_json(json.loads(json.dumps(mdoc)))
    assert np.max(np.abs(mback.bob_projectors - model.bob_projectors)) < 1e-15
    assert np.max(np.abs(mback.alice_projectors - model.alice_projectors)) < 1e-15

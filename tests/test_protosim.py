import math

import numpy as np
import pytest

from telecert import cert, protosim, qcore as qc


def steering_params(eps=0.15, q=5.45, x=1.0, iid=True):
    return cert.CertificateParams("1sdi", "steering", iid, eps, q, x)


def test_adjusted_copies_partition():
    p = steering_params()
    k = protosim.adjusted_copies(p)
    assert (k - 1) % 2 == 0
    p_di = cert.CertificateParams("di", "chsh", True, 0.3, 8.0, 1.0)
    k_di = protosim.adjusted_copies(p_di)
    assert (k_di - 1) % 4 == 0


def test_honest_ideal_always_accepts():
    rng = np.random.default_rng(1)
    params = steering_params()
    source = protosim.honest_ideal_source("two-basis")
    for _ in range(25):
        transcript, certificate = protosim.run_protocol(source, params, rng)
        transcript.check()
        assert transcript.accepted
        assert certificate is not None
        assert np.all(transcript.correlations[np.concatenate(transcript.subsets)] == 1)


def test_honest_source_is_unit_visibility_werner():
    for mode, n in (("two-basis", 2), ("four-setting", 4)):
        honest = protosim.honest_ideal_source(mode)
        werner = protosim.werner_source(mode, 1.0)
        assert np.array_equal(honest.state.matrix, werner.state.matrix)
        target = protosim.extraction_target(mode)
        assert np.allclose(honest.state.matrix, np.outer(target, target.conj()), atol=1e-15)
        indices, settings = np.zeros(n, dtype=int), np.arange(n)
        for h, w in zip(honest.statistics(indices, settings), werner.statistics(indices, settings)):
            assert np.array_equal(h, w)
        # ideal correlations: 1 on both steering subsets, +-1/sqrt(2) on the CHSH pairs
        signs = np.array(list(protosim.LAYOUTS[mode].values()))
        expected = signs if mode == "two-basis" else signs / math.sqrt(2)
        assert np.allclose(honest.statistics(indices, settings)[2], expected, atol=1e-12)


def test_transcript_structure():
    rng = np.random.default_rng(2)
    params = steering_params()
    transcript, _ = protosim.run_protocol(protosim.werner_source("two-basis", 0.9), params, rng)
    transcript.check()
    k = transcript.copies
    assert len(transcript.subsets) == 2
    assert all(len(s) == (k - 1) // 2 for s in transcript.subsets)
    r = transcript.withheld
    assert transcript.settings[r] == -1
    assert transcript.outcomes_a[r] == 0 and transcript.outcomes_b[r] == 0
    doc = transcript.to_json(include_rounds=False)
    assert doc["schema"] == "protosim/1"
    assert doc["accepted"] == transcript.accepted


def test_werner_acceptance_rate_with_margin():
    # deviation 2(1-v) sits 8 sigma inside the threshold at these sizes
    rng = np.random.default_rng(3)
    v = 0.95
    params = steering_params(eps=0.15)
    source = protosim.werner_source("two-basis", v)
    accepted = sum(
        protosim.run_protocol(source, params, rng)[0].accepted for _ in range(60)
    )
    assert accepted >= 57


def test_low_visibility_rejected():
    rng = np.random.default_rng(4)
    params = steering_params(eps=0.1, q=4.0)
    source = protosim.werner_source("two-basis", 0.5)
    for _ in range(5):
        transcript, certificate = protosim.run_protocol(source, params, rng)
        assert not transcript.accepted
        assert certificate is None


def test_statistic_mean_matches_correlation():
    rng = np.random.default_rng(5)
    v = 0.9
    params = steering_params(eps=0.3, q=3.0)
    source = protosim.werner_source("two-basis", v)
    stats = []
    for _ in range(40):
        transcript, _ = protosim.run_protocol(source, params, rng)
        stats.append(transcript.statistic)
    k = protosim.adjusted_copies(params)
    se = math.sqrt(2 * (1 - v * v) / ((k - 1) / 2)) / math.sqrt(40)
    assert np.mean(stats) == pytest.approx(2 * v, abs=5 * se)


def test_blindness_of_withheld_index():
    # statistic distribution is invariant under which pair was withheld
    rng = np.random.default_rng(6)
    params = steering_params(eps=0.3, q=2.0)
    k = protosim.adjusted_copies(params)
    source = protosim.werner_source("two-basis", 0.9)
    low, high = [], []
    for _ in range(200):
        transcript, _ = protosim.run_protocol(source, params, rng)
        (low if transcript.withheld < k // 2 else high).append(transcript.statistic)
    pooled = np.sqrt(np.var(low) / len(low) + np.var(high) / len(high))
    assert abs(np.mean(low) - np.mean(high)) < 4 * pooled


def test_chsh_modes():
    rng = np.random.default_rng(7)
    params = cert.CertificateParams("di", "chsh", True, 0.3, 8.0, 1.0)
    source = protosim.honest_ideal_source("four-setting")
    acc = 0
    for _ in range(10):
        transcript, _ = protosim.run_protocol(source, params, rng)
        transcript.check()
        assert len(transcript.subsets) == 4
        acc += transcript.accepted
    assert acc == 10  # ~14 sigma margin at these sizes

    # one-sided CHSH runs on the two-basis layout with a rescaled statistic
    params_1sdi = cert.CertificateParams("1sdi", "chsh", True, 0.2, 8.0, 1.0)
    source_1sdi = protosim.honest_ideal_source("two-basis")
    transcript, certificate = protosim.run_protocol(source_1sdi, params_1sdi, rng)
    assert transcript.accepted
    assert transcript.statistic == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert certificate.fidelity == pytest.approx(1 - 0.90 * (4 * 0.2 / 8.0 + 0.2), abs=1e-12)


def test_mode_mismatch_rejected():
    rng = np.random.default_rng(8)
    params = cert.CertificateParams("di", "chsh", True, 0.3, 8.0, 1.0)
    with pytest.raises(ValueError):
        protosim.run_protocol(protosim.honest_ideal_source("two-basis"), params, rng)


def test_extraction_fidelities_of_sources():
    source = protosim.werner_source("two-basis", 0.8)
    assert protosim.true_extracted_fidelity(source, 0) == pytest.approx((1 + 3 * 0.8) / 4, abs=1e-10)
    k = 101
    bad = protosim.one_bad_pair_source("two-basis", k, 17)
    assert protosim.true_extracted_fidelity(bad, 17) == pytest.approx(0.25, abs=1e-10)
    assert protosim.true_extracted_fidelity(bad, 3) == pytest.approx(1.0, abs=1e-10)
    drift = protosim.drifting_visibility_source("two-basis", k, 1.0, 0.8)
    assert protosim.true_extracted_fidelity(drift, 0) == pytest.approx(1.0, abs=1e-10)
    assert protosim.true_extracted_fidelity(drift, k - 1) == pytest.approx((1 + 3 * 0.8) / 4, abs=1e-10)


def test_one_bad_pair_statistics_match_oracle():
    k = 2001
    bad_index = 1000
    source = protosim.one_bad_pair_source("two-basis", k, bad_index)
    indices = np.array([0, bad_index, k - 1])
    settings = np.array([0, 0, 1])
    m_a, m_b, corr = source.statistics(indices, settings)
    assert np.allclose(corr, [1.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(m_a, 0.0, atol=1e-12) and np.allclose(m_b, 0.0, atol=1e-12)


def test_soundness_one_bad_pair():
    params = steering_params(eps=0.3, q=3.0, iid=False)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.one_bad_pair_source("two-basis", k, int(rng.integers(k))),
        params,
        n_trials=120,
        seed=11,
    )
    assert stats.accepted >= 110  # single bad round cannot shift the average
    assert stats.honored()


def test_soundness_drifting_visibility():
    params = steering_params(eps=0.35, q=3.0, iid=False)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.drifting_visibility_source("two-basis", k, 1.0, 0.8),
        params,
        n_trials=100,
        seed=12,
    )
    assert stats.accepted >= 95
    assert stats.honored()
    assert stats.min_true_fidelity >= (1 + 3 * 0.8) / 4 - 1e-9


def test_soundness_iid_low_visibility():
    params = steering_params(eps=0.3, q=6.0, iid=True)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.werner_source("two-basis", 0.88),
        params,
        n_trials=100,
        seed=13,
    )
    assert stats.accepted >= 95
    assert stats.violation_fraction == 0.0  # true fidelity 0.91 clears the bound
    assert stats.honored()


def test_soundness_deterministic():
    params = steering_params(eps=0.3, q=3.0, iid=False)
    factory = lambda k, rng: protosim.one_bad_pair_source("two-basis", k, int(rng.integers(k)))
    a = protosim.soundness_experiment(factory, params, 30, seed=21)
    b = protosim.soundness_experiment(factory, params, 30, seed=21)
    assert a == b


def test_adaptive_source_runs():
    # outcome-dependent strategy on a tiny run: visibility drops after any
    # anticorrelated round
    params = steering_params(eps=0.4, q=1.2, x=0.5)

    def strategy(history):
        bad = any(a * b == -1 for _, a, b in history)
        v = 0.7 if bad else 1.0
        return qc.werner_state(v), qc.ideal_model()

    rng = np.random.default_rng(14)
    source = protosim.AdaptiveSource("two-basis", strategy)
    transcript, certificate = protosim.run_protocol(source, params, rng)
    transcript.check()
    state, _ = source.pair(transcript.withheld)
    assert state.matrix.shape == (4, 4)


def test_memoryless_flag_is_metadata_only():
    params = steering_params()
    rng = np.random.default_rng(15)
    transcript, certificate = protosim.run_protocol(
        protosim.werner_source("two-basis", 0.97), params, rng, memoryless=True
    )
    transcript.check()
    assert transcript.memoryless
    if transcript.accepted:
        assert certificate.fidelity == cert.fidelity_bound(params).fidelity


def test_teleport_with_certificate():
    rng = np.random.default_rng(16)
    params = steering_params()
    source = protosim.werner_source("two-basis", 0.95)
    transcript, certificate = protosim.run_protocol(source, params, rng)
    assert transcript.accepted
    report = protosim.teleport_with_certificate(source, transcript, certificate, 40, rng)
    assert report["empirical_fidelity"] == pytest.approx((1 + 0.95) / 2, abs=1e-9)
    assert report["empirical_fidelity"] >= report["certified_bound"]
    assert report["entangled_fidelity"] == pytest.approx((1 + 3 * 0.95) / 4, abs=1e-9)


def test_teleport_requires_acceptance():
    rng = np.random.default_rng(17)
    params = steering_params(eps=0.1, q=4.0)
    source = protosim.werner_source("two-basis", 0.5)
    transcript, _ = protosim.run_protocol(source, params, rng)
    assert not transcript.accepted
    dummy = cert.fidelity_bound(params)
    with pytest.raises(ValueError):
        protosim.teleport_with_certificate(source, transcript, dummy, 10, rng)


def test_violation_counter_with_unsound_constant():
    # deliberately over-strong explicit constant: accepted visibility-0.6
    # runs certify more than the true extracted fidelity 0.7, so every
    # accepted trial must be counted as a bound violation
    params = cert.CertificateParams(
        "1sdi", "steering", True, 0.85, 3.0, 1.0, alpha=0.2, alpha_source="explicit"
    )
    template = cert.fidelity_bound(params)
    assert template.fidelity > (1 + 3 * 0.6) / 4
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.werner_source("two-basis", 0.6), params, 40, seed=31
    )
    assert stats.accepted > 0
    assert stats.bound_violations == stats.accepted
    assert stats.violation_fraction == 1.0


def test_subset_mean_concentration_rate():
    # fraction of runs deviating by t from the true correlation stays
    # within the Chernoff tail for that subset size (plus 3 sigma)
    rng = np.random.default_rng(41)
    v, t = 0.9, 0.08
    params = steering_params(eps=0.4, q=2.2)
    k = protosim.adjusted_copies(params)
    subset = (k - 1) // 2
    bound = cert.chernoff_tail(subset, t)
    runs = 150
    source = protosim.werner_source("two-basis", v)
    hits = 0
    for _ in range(runs):
        transcript, _ = protosim.run_protocol(source, params, rng)
        if transcript.subset_averages[0] - v <= -t:
            hits += 1
    sigma = math.sqrt(max(bound, 1 / runs) * (1 - min(bound, 1.0)) / runs)
    assert hits / runs <= bound + 3 * sigma


def test_iid_source_with_arbitrary_model():
    rng = np.random.default_rng(43)
    psi = qc.haar_random_vector(8, rng)
    model = qc.random_projective_model(4, rng)

    class ArbitrarySource(protosim.Source):
        def pair(self, index):
            return psi, model

    source = ArbitrarySource("two-basis")
    params = cert.CertificateParams("1sdi", "steering", True, 0.6, 1.0, 0.5)
    transcript, certificate = protosim.run_protocol(source, params, rng)
    transcript.check()
    fid = protosim.true_extracted_fidelity(source, transcript.withheld)
    assert 0.0 <= fid <= 1.0

import itertools
import math

import numpy as np
import pytest

from telecert import cert, protosim, qcore as qc


def steering_params(eps=0.15, q=5.45, x=1.0, iid=True):
    return cert.CertificateParams("1sdi", "steering", iid, eps, q, x)


def check_transcript(transcript, params):
    """Structure every run's transcript has: the withheld pair in range,
    one agreement count per subset of (K - 1) / subsets tested pairs, the
    averages and statistic recomputed from the counts, and the verdict."""
    mode = protosim.protocol_mode(params)
    layout = protosim.LAYOUTS[mode]
    k = protosim.adjusted_copies(params)
    size = (k - 1) // len(layout)
    assert transcript.copies == k
    assert 0 <= transcript.withheld < k
    assert len(transcript.agreements) == len(layout)
    assert all(0 <= c <= size for c in transcript.agreements)
    assert transcript.subset_averages == [(2 * c - size) / size for c in transcript.agreements]
    statistic = sum(sign * avg for sign, avg in zip(layout.values(), transcript.subset_averages))
    if mode == "two-basis" and params.inequality == "chsh":
        statistic *= math.sqrt(2)
    assert transcript.statistic == pytest.approx(statistic, abs=1e-12)
    assert transcript.threshold == params.max_violation - params.epsilon
    assert transcript.accepted == (transcript.statistic >= transcript.threshold)


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
    source = protosim.werner_source("two-basis", 1.0)
    for _ in range(25):
        transcript, certificate = protosim.run_protocol(source, params, rng)
        check_transcript(transcript, params)
        assert transcript.accepted
        assert certificate is not None
        assert transcript.subset_averages == [1.0, 1.0]


def test_transcript_structure():
    rng = np.random.default_rng(2)
    params = steering_params()
    transcript, _ = protosim.run_protocol(protosim.werner_source("two-basis", 0.9), params, rng)
    check_transcript(transcript, params)

    # a round-indexed run partitions every pair but the withheld one into
    # equal subsets, and never asks for the withheld pair's correlation
    class Recording(protosim.VisibilitySequenceSource):
        def correlations(self, rounds):
            self.rounds = rounds
            return super().correlations(rounds)

    k = protosim.adjusted_copies(params)
    source = Recording("two-basis", np.linspace(1.0, 0.8, k))
    transcript, _ = protosim.run_protocol(source, params, rng)
    check_transcript(transcript, params)
    assert source.rounds.shape == (2, (k - 1) // 2)
    assert sorted(source.rounds.ravel().tolist()) == [i for i in range(k) if i != transcript.withheld]


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
    source = protosim.werner_source("four-setting", 1.0)
    acc = 0
    for _ in range(10):
        transcript, _ = protosim.run_protocol(source, params, rng)
        check_transcript(transcript, params)
        acc += transcript.accepted
    assert acc == 10  # ~14 sigma margin at these sizes

    # one-sided CHSH runs on the two-basis layout with a rescaled statistic
    params_1sdi = cert.CertificateParams("1sdi", "chsh", True, 0.2, 8.0, 1.0)
    source_1sdi = protosim.werner_source("two-basis", 1.0)
    transcript, certificate = protosim.run_protocol(source_1sdi, params_1sdi, rng)
    check_transcript(transcript, params_1sdi)
    assert transcript.accepted
    assert transcript.statistic == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert certificate.fidelity == pytest.approx(1 - 0.90 * (4 * 0.2 / 8.0 + 0.2), abs=1e-12)


def test_mode_mismatch_rejected():
    rng = np.random.default_rng(8)
    params = cert.CertificateParams("di", "chsh", True, 0.3, 8.0, 1.0)
    with pytest.raises(ValueError):
        protosim.run_protocol(protosim.werner_source("two-basis", 1.0), params, rng)


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


@pytest.mark.parametrize("mode", ["two-basis", "four-setting"])
def test_extraction_side_follows_the_model_as_it_followed_the_mode(mode):
    # reference: the extraction side chosen by the protocol mode, Bob's for
    # two-basis runs and both for four-setting ones, with the Kraus
    # products formed afresh
    def side_by_mode(state, model):
        rho = qc._as_density(state)
        kb = qc._extraction_kraus(model.bob_observable(0), model.bob_observable(1))
        out = np.zeros((4, 4), dtype=complex)
        if mode == "two-basis":
            for i, j in itertools.product((0, 1), repeat=2):
                block = qc.partial_trace_bob(rho, 2, model.bob_dim, kb[j].conj().T @ kb[i])
                out[np.ix_((i, 2 + i), (j, 2 + j))] = block
        else:
            ka = qc._extraction_kraus(model.alice_observable(0), model.alice_observable(1))
            for i, j, k, l in itertools.product((0, 1), repeat=4):
                out[2 * i + j, 2 * k + l] = qc.product_expectation(rho, ka[k].conj().T @ ka[i], kb[l].conj().T @ kb[j])
        return qc.fidelity_to_pure(qc.TwoQubitState(out), protosim.extraction_target(mode))

    rng = np.random.default_rng(29)
    k = 101
    # an adaptive strategy emitting a random pair of the mode's trust setting
    alice_dim = None if mode == "two-basis" else 2
    emitted = (qc.haar_random_vector(8, rng), qc.random_projective_model(4, rng, alice_dim=alice_dim))
    adaptive = protosim.AdaptiveSource(mode, lambda history: emitted)
    adaptive.withhold(5, [])
    sources = [
        (protosim.werner_source(mode, 1.0), (0,)),
        (protosim.werner_source(mode, 0.8), (0,)),
        (protosim.one_bad_pair_source(mode, k, 17, 0.9), (17, 3)),
        (protosim.drifting_visibility_source(mode, k, 1.0, 0.8), (0, 50, k - 1)),
        (adaptive, (5,)),
    ]
    for source, indices in sources:
        for index in indices:
            assert protosim.true_extracted_fidelity(source, index) == side_by_mode(*source.pair(index))


def test_one_bad_pair_statistics_match_oracle():
    k = 2001
    bad_index = 1000
    for mode in protosim.LAYOUTS:
        source = protosim.one_bad_pair_source(mode, k, bad_index)
        subsets = len(protosim.LAYOUTS[mode])
        # ideal correlations: 1 on both steering subsets, +-1/sqrt(2) on the
        # CHSH pairs, and 0 for the bad pair at every setting
        signs = np.array(list(protosim.LAYOUTS[mode].values()))
        expected = signs if mode == "two-basis" else signs / math.sqrt(2)
        rounds = np.array([[t, bad_index] for t in range(subsets)])
        corr = source.correlations(rounds)
        assert np.allclose(corr, np.column_stack([expected, np.zeros(subsets)]), atol=1e-12)
        # a good pair is the mode's target state, as the iid source's is
        target = protosim.extraction_target(mode)
        iid = protosim.werner_source(mode, 1.0)
        for state in (source.pair(0)[0], iid.state):
            assert np.allclose(state.matrix, np.outer(target, target.conj()), atol=1e-15)
        assert np.allclose(iid.setting_correlations, expected, atol=1e-12)
        # the round-indexed closed form agrees with the Born-rule values of
        # each round's pair, and the maximally mixed pair has zero marginals
        for t in range(subsets):
            for position, index in enumerate(rounds[t]):
                m_a, m_b, born = source.pair_statistics(*source.pair(int(index)), t)
                assert born == pytest.approx(corr[t, position], abs=1e-12)
                if index == bad_index:
                    assert abs(m_a) < 1e-12 and abs(m_b) < 1e-12


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
    check_transcript(transcript, params)
    state, _ = source.pair(transcript.withheld)
    assert state.matrix.shape == (4, 4)
    # only the withheld pair's emission is kept
    with pytest.raises(RuntimeError):
        source.pair((transcript.withheld + 1) % transcript.copies)


def _parity_strategy(history):
    """Visibility set by the parity of the anticorrelated rounds so far."""
    anti = sum(1 for _, a, b in history if a != b)
    return qc.werner_state(0.5 if anti % 2 else 0.9), qc.ideal_model()


_DI_MODEL = qc.ideal_model(device_independent=True)


def _last_round_strategy(history):
    """Lower visibility right after an anticorrelated round."""
    last = history[-1] if history else (0, 1, 1)
    return qc.rotated_werner_state(0.6 if last[1] != last[2] else 0.95), _DI_MODEL


#: (withheld, agreements) of seeds 0-3, recorded before the per-round
#: sampler was rewritten with scalar arithmetic; the random stream (two
#: uniforms per round, a's before b's) must not change.
PINNED_ADAPTIVE = {
    "two-basis": [(56, [27, 29]), (31, [31, 30]), (56, [30, 28]), (54, [33, 33])],
    "four-setting": [(113, [21, 24, 28, 3]), (62, [29, 26, 26, 9]), (111, [28, 30, 27, 5]), (107, [30, 27, 29, 6])],
}


# The ids keep the names the streams were first recorded under.
@pytest.mark.parametrize("mode", sorted(PINNED_ADAPTIVE), ids=lambda mode: f"{mode}-False")
def test_adaptive_random_stream_is_pinned(mode):
    trust, inequality, strategy = (
        ("1sdi", "steering", _parity_strategy) if mode == "two-basis" else ("di", "chsh", _last_round_strategy)
    )
    params = cert.CertificateParams(trust, inequality, False, 0.4, 1.2, 0.5)
    runs = []
    for seed in range(4):
        source = protosim.AdaptiveSource(mode, strategy)
        transcript, _ = protosim.run_protocol(source, params, np.random.default_rng(seed))
        check_transcript(transcript, params)
        runs.append((transcript.withheld, transcript.agreements))
    assert runs == PINNED_ADAPTIVE[mode]


#: (withheld, agreements, true_fidelity) of trials 0-3 of a seed-11 batch,
#: recorded before the constant states, models and extraction products
#: were shared; no reuse may shift a random draw or an output bit.
PINNED_SEQUENCE = {
    ("two-basis", "one-bad-pair"): [
        (59, [30, 30], 0.9249999999999994), (54, [31, 30], 0.9249999999999994),
        (11, [32, 32], 0.9249999999999994), (0, [31, 32], 0.9249999999999994),
    ],
    ("two-basis", "drift"): [
        (48, [31, 29], 0.8909090909090902), (43, [32, 30], 0.9022727272727268),
        (23, [32, 32], 0.947727272727272), (45, [30, 32], 0.8977272727272722),
    ],
    ("four-setting", "one-bad-pair"): [
        (118, [25, 27, 28, 7], None), (107, [25, 30, 25, 4], 0.924999999999999),
        (22, [26, 28, 27, 5], 0.924999999999999), (1, [27, 25, 26, 7], None),
    ],
    ("four-setting", "drift"): [
        (95, [26, 27, 27, 6], 0.8920454545454535), (86, [26, 30, 25, 5], 0.9022727272727263),
        (46, [26, 27, 28, 3], 0.9477272727272718), (90, [27, 24, 26, 7], None),
    ],
}


@pytest.mark.parametrize("mode, kind", sorted(PINNED_SEQUENCE))
def test_sequence_random_stream_is_pinned(mode, kind):
    trust, inequality = ("1sdi", "steering") if mode == "two-basis" else ("di", "chsh")
    params = cert.CertificateParams(trust, inequality, False, 0.4, 1.2, 0.5)
    if kind == "one-bad-pair":
        factory = lambda k, rng: protosim.one_bad_pair_source(mode, k, int(rng.integers(k)), 0.9)
    else:
        factory = lambda k, rng: protosim.drifting_visibility_source(mode, k, 1.0, 0.8)
    runs = []
    for trial in protosim.run_trials(factory, params, 4, seed=11):
        check_transcript(trial.transcript, params)
        runs.append((trial.transcript.withheld, trial.transcript.agreements, trial.true_fidelity))
    assert runs == PINNED_SEQUENCE[(mode, kind)]


#: (withheld, agreements, true_fidelity) of trials 0-7 of a seed-11
#: one-bad-pair batch at K = 3 (two-basis) and K = 5 (four-setting), and
#: the empirical fidelity of teleporting 5 inputs through each withheld bad
#: pair, recorded while the bad pair had its own correlation and
#: extraction path.  At these K it is tested in most runs and withheld in
#: some (true fidelity 1/4), so the pins cover its correlations, its
#: extraction and its teleportation.
PINNED_BAD_PAIR = {
    "two-basis": (
        [
            (2, [1, 1], 0.2499999999999999), (2, [0, 1], None), (0, [1, 0], None), (0, [1, 1], 0.9999999999999993),
            (0, [1, 1], 0.9999999999999993), (0, [1, 0], None), (1, [1, 1], 0.9999999999999993), (2, [1, 0], None),
        ],
        [0.5],
    ),
    "four-setting": (
        [
            (4, [1, 1, 1, 1], 0.999999999999999), (4, [1, 1, 1, 0], 0.999999999999999), (0, [0, 1, 1, 1], None),
            (0, [1, 1, 1, 0], 0.999999999999999), (1, [1, 1, 1, 0], 0.999999999999999), (0, [0, 0, 1, 0], None),
            (1, [1, 1, 1, 0], 0.999999999999999), (3, [1, 1, 1, 0], 0.24999999999999983),
        ],
        [0.49999999999999983],
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_BAD_PAIR))
def test_bad_pair_random_stream_is_pinned(mode):
    trust, inequality = ("1sdi", "steering") if mode == "two-basis" else ("di", "chsh")
    params = cert.CertificateParams(trust, inequality, False, 0.9, 1.0, 0.05)
    assert protosim.adjusted_copies(params) == {"two-basis": 3, "four-setting": 5}[mode]
    factory = lambda k, rng: protosim.one_bad_pair_source(mode, k, int(rng.integers(k)))
    runs, teleported = [], []
    for trial in protosim.run_trials(factory, params, 8, seed=11):
        check_transcript(trial.transcript, params)
        runs.append((trial.transcript.withheld, trial.transcript.agreements, trial.true_fidelity))
        if trial.true_fidelity is not None and trial.true_fidelity < 0.5:  # the bad pair was withheld
            report = protosim.teleport_with_certificate(trial.source, trial.transcript, trial.certificate, 5, trial.rng)
            teleported.append(report["empirical_fidelity"])
    assert (runs, teleported) == PINNED_BAD_PAIR[mode]


@pytest.mark.parametrize("mode", sorted(protosim.LAYOUTS))
def test_sequence_sources_refuse_nan_visibility(mode):
    nan = float("nan")
    with pytest.raises(ValueError, match="visibilities must sit in"):
        protosim.one_bad_pair_source(mode, 5, 1, nan)
    with pytest.raises(ValueError, match="visibilities must sit in"):
        protosim.drifting_visibility_source(mode, 5, 1.0, nan)


@pytest.mark.parametrize("subsets", sorted({len(layout) for layout in protosim.LAYOUTS.values()}))
def test_tested_rounds_are_the_permuted_other_indices(subsets):
    # reference: the partition as first written, a permutation of the
    # index list without the withheld pair
    for k in (subsets + 1, 2 * subsets + 1, 25 * subsets + 1, 311 if subsets == 2 else 313):
        for r in sorted({0, 1, k // 2, k - 2, k - 1}):
            for seed in range(3):
                rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                rounds = protosim._tested_rounds(k, r, subsets, rng)
                expected = reference.permutation(np.delete(np.arange(k), r)).reshape(subsets, -1)
                assert rounds.dtype == expected.dtype
                assert np.array_equal(rounds, expected)
                assert rng.random() == reference.random()


@pytest.mark.parametrize("mode", sorted(protosim.LAYOUTS))
def test_ideal_pair_fidelity_memo_is_the_extraction(mode):
    visibilities = np.concatenate([[0.0, 0.8, 0.97, 1.0], np.linspace(1.0, 0.8, 8777)[1::1250]])
    protosim._ideal_extracted_fidelity.cache_clear()
    source = protosim.VisibilitySequenceSource(mode, visibilities)
    for index in range(len(visibilities)):
        expected = protosim._extracted_fidelity(mode, *source.pair(index))
        assert protosim.true_extracted_fidelity(source, index) == expected
        assert protosim.true_extracted_fidelity(source, index) == expected  # from the memo
    info = protosim._ideal_extracted_fidelity.cache_info()
    assert (info.misses, info.hits) == (len(visibilities), len(visibilities))

    # the bad pair is the memo's visibility-0 entry
    protosim._ideal_extracted_fidelity.cache_clear()
    bad = protosim.one_bad_pair_source(mode, 11, 3, 0.9)
    expected = protosim._extracted_fidelity(mode, *protosim._ideal_pair(mode, 0.0))
    assert protosim.true_extracted_fidelity(bad, 3) == expected
    assert protosim._ideal_extracted_fidelity(mode, 0.0) == expected
    info = protosim._ideal_extracted_fidelity.cache_info()
    assert (info.misses, info.hits) == (1, 1)

    # a drifting source's continuum of visibilities cannot grow memory
    drift = protosim.drifting_visibility_source(mode, 200, 1.0, 0.8)
    for index in range(200):
        protosim.true_extracted_fidelity(drift, index)
    info = protosim._ideal_extracted_fidelity.cache_info()
    assert info.maxsize == 64 and info.currsize == 64


@pytest.mark.parametrize("mode", sorted(protosim.LAYOUTS))
def test_one_drift_source_serves_a_batch(mode):
    trust, inequality = ("1sdi", "steering") if mode == "two-basis" else ("di", "chsh")
    params = cert.CertificateParams(trust, inequality, False, 0.4, 1.2, 0.5)
    shared = protosim.drifting_visibility_source(mode, protosim.adjusted_copies(params), 1.0, 0.8)
    factories = (
        lambda k, rng: protosim.drifting_visibility_source(mode, k, 1.0, 0.8),
        lambda k, rng: shared,
    )
    fresh, reused = (
        [(t.transcript, t.true_fidelity, t.rng.random()) for t in protosim.run_trials(factory, params, 30, seed=17)]
        for factory in factories
    )
    assert fresh == reused


@pytest.mark.parametrize("mode", sorted(protosim.LAYOUTS))
def test_round_indexed_sources_refuse_a_wrong_length(mode):
    trust, inequality = ("1sdi", "steering") if mode == "two-basis" else ("di", "chsh")
    params = cert.CertificateParams(trust, inequality, False, 0.4, 1.2, 0.5)
    k = protosim.adjusted_copies(params)
    # a longer source was cut short, a shorter one died with an IndexError
    for copies in (10 * k, k - 1, k + 1):
        source = protosim.drifting_visibility_source(mode, copies, 1.0, 0.0)
        with pytest.raises(ValueError, match=f"source has {copies} rounds, the run has {k} copies"):
            protosim.run_protocol(source, params, np.random.default_rng(0))
    # an index no round carries would give an all-good source
    for bad_index in (-1, k, k + 5):
        with pytest.raises(ValueError, match=rf"bad_index {bad_index} outside \[0, {k}\)"):
            protosim.one_bad_pair_source(mode, k, bad_index)


@pytest.mark.parametrize("mode", sorted(protosim.LAYOUTS))
def test_round_indexed_sources_refuse_more_copies_than_they_admit(monkeypatch, mode):
    # the bound is lowered, so that even a check that regresses allocates
    # no large array
    monkeypatch.setattr(protosim, "MAX_ROUND_INDEXED_COPIES", 20)
    assert len(protosim.one_bad_pair_source(mode, 20, 19).visibilities) == 20
    assert len(protosim.drifting_visibility_source(mode, 20, 1.0, 0.8).visibilities) == 20
    message = "a round-indexed source of K = 21 copies exceeds the 20 it admits"
    with pytest.raises(ValueError, match=message):
        protosim.one_bad_pair_source(mode, 21, 0)
    with pytest.raises(ValueError, match=message):
        protosim.drifting_visibility_source(mode, 21, 1.0, 0.8)


def test_greedy_adversary_soundness_is_pinned():
    # The benchmark's adaptive adversary: a maximally mixed pair while
    # under 5% of the measured rounds came out anticorrelated.
    model = qc.ideal_model()

    def greedy(history):
        anti = sum(1 for _, a, b in history if a != b)
        return qc.werner_state(0.0 if anti < 0.05 * len(history) else 1.0), model

    params = steering_params(eps=0.3, q=1.2, x=1.0, iid=False)
    stats = protosim.soundness_experiment(lambda k, rng: protosim.AdaptiveSource("two-basis", greedy), params, 12, seed=5)
    assert stats.to_json() == {
        "schema": "protosim/1",
        "kind": "soundness",
        "trials": 12,
        "accepted": 12,
        "bound_violations": 0,
        "violation_fraction": 0.0,
        "certificate_fidelity": 0.0,
        "certificate_probability": 0.0,
        "min_true_fidelity": 0.9999999999999993,
    }


@pytest.mark.parametrize("mode", ["two-basis", "four-setting"])
@pytest.mark.parametrize("aux_dim", [1, 2])
def test_pair_statistics_match_product_expectation(mode, aux_dim):
    rng = np.random.default_rng(40 + aux_dim)
    source = protosim.Source(mode)
    for _ in range(3):
        model = qc.random_projective_model(2, rng, alice_dim=2 if mode == "four-setting" else None)
        if aux_dim > 1:
            model = model.extended(aux_dim)
        dim = 2 * model.bob_dim
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        if mode == "four-setting":  # a two-basis stack kept on the same model is not reused
            protosim.Source("two-basis").pair_statistics(rho, model, 0)
        for setting in range(len(protosim.LAYOUTS[mode])):
            if mode == "two-basis":
                a_obs = qc.SIGMA_X if setting == 0 else qc.SIGMA_Z
                b_obs = model.bob_observable(1 - setting)
            else:
                x, y = divmod(setting, 2)
                a_obs, b_obs = model.alice_observable(x), model.bob_observable(y)
            oracle = [
                qc.product_expectation(rho, a_obs, np.eye(model.bob_dim)).real,
                qc.product_expectation(rho, np.eye(2), b_obs).real,
                qc.product_expectation(rho, a_obs, b_obs).real,
            ]
            for _ in range(2):  # the second call reads the stack kept on the model
                stats = source.pair_statistics(rho, model, setting)
                assert np.allclose(stats, oracle, rtol=0.0, atol=1e-14)


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
    bound = math.exp(-0.5 * subset * t * t)
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

    source = protosim.IidSource("two-basis", psi, model)
    params = cert.CertificateParams("1sdi", "steering", True, 0.6, 1.0, 0.5)
    transcript, certificate = protosim.run_protocol(source, params, rng)
    check_transcript(transcript, params)
    fid = protosim.true_extracted_fidelity(source, transcript.withheld)
    assert 0.0 <= fid <= 1.0


# ---------------------------------------------------------------------------
# Count sampler against exact count laws at small K

#: Smallest runs of each layout: K = 9 (two subsets of 4), K = 13 (four of 3).
TINY = {
    "two-basis": cert.CertificateParams("1sdi", "steering", True, 0.5, 1.0, 0.7),
    "four-setting": cert.CertificateParams("di", "chsh", True, 0.5, 1.0, 0.5),
}


def binomial_pmf(n, p):
    return np.array([math.comb(n, c) * p**c * (1 - p) ** (n - c) for c in range(n + 1)])


def subset_count_pmf(probabilities, size):
    """Exact law of one subset's agreement count when pair i agrees with
    probability probabilities[i]: the withheld pair and the subset are
    uniformly random, so average the Poisson-binomial pmf (a convolution
    of Bernoulli pmfs) over every (withheld pair, subset) choice."""
    k = len(probabilities)
    total = np.zeros(size + 1)
    choices = 0
    for withheld in range(k):
        rest = [i for i in range(k) if i != withheld]
        for subset in itertools.combinations(rest, size):
            pmf = np.ones(1)
            for i in subset:
                pmf = np.convolve(pmf, [1 - probabilities[i], probabilities[i]])
            total += pmf
            choices += 1
    return total / choices


def agreement_probabilities(mode, visibilities):
    """(subsets, K) Born-rule agreement probabilities (1 + <AB>)/2 of
    Werner-type pairs on ideal devices, per subset setting."""
    signs = np.array(list(protosim.LAYOUTS[mode].values()))
    scale = 1.0 if mode == "two-basis" else 1 / math.sqrt(2)
    return 0.5 * (1 + scale * signs[:, None] * np.asarray(visibilities)[None, :])


def count_frequencies(source, params, trials, seed):
    rng = np.random.default_rng(seed)
    groups = len(protosim.LAYOUTS[source.mode])
    size = (protosim.adjusted_copies(params) - 1) // groups
    freq = np.zeros((groups, size + 1))
    for _ in range(trials):
        transcript, _ = protosim.run_protocol(source, params, rng)
        freq[np.arange(groups), transcript.agreements] += 1
    return freq / trials, size


def total_variation(p, q):
    return 0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum()


# With 4000 trials the observed total-variation distances sit at 0.02 or
# less.  A visibility off by 0.2, an ignored bad pair or a partition into
# consecutive pairs instead of a random one each moves one of these laws
# by 0.059 or more.
TV_BOUND = 0.04


@pytest.mark.parametrize("mode", ["two-basis", "four-setting"])
def test_iid_counts_are_binomial(mode):
    params = TINY[mode]
    k = protosim.adjusted_copies(params)
    assert k == {"two-basis": 9, "four-setting": 13}[mode]
    freq, size = count_frequencies(protosim.werner_source(mode, 0.6), params, 4000, seed=51)
    for t, p in enumerate(agreement_probabilities(mode, [0.6])[:, 0]):
        assert total_variation(freq[t], binomial_pmf(size, p)) < TV_BOUND


@pytest.mark.parametrize("mode", ["two-basis", "four-setting"])
def test_round_indexed_counts_are_poisson_binomial(mode):
    params = TINY[mode]
    k = protosim.adjusted_copies(params)
    bad = 3
    one_bad = np.ones(k)
    one_bad[bad] = 0.0
    cases = [
        (protosim.drifting_visibility_source(mode, k, 1.0, 0.0), np.linspace(1.0, 0.0, k)),
        (protosim.one_bad_pair_source(mode, k, bad), one_bad),
    ]
    for number, (source, visibilities) in enumerate(cases):
        freq, size = count_frequencies(source, params, 4000, seed=52 + number)
        for t, p in enumerate(agreement_probabilities(mode, visibilities)):
            assert total_variation(freq[t], subset_count_pmf(p, size)) < TV_BOUND


@pytest.mark.parametrize("visibility", [1.0, 0.995])
def test_fully_untrusted_pair_teleports_at_werner_fidelity(visibility):
    # the rotated Bell resource is (I x R)|Phi+>: once Bob undoes R, a
    # Werner pair of visibility v teleports with fidelity (1 + v)/2
    source = protosim.werner_source("four-setting", visibility)
    transcript = protosim.ProtocolTranscript(
        copies=5, withheld=0, agreements=np.zeros(4, dtype=np.int64), subset_averages=np.ones(4),
        statistic=2 * np.sqrt(2), threshold=2.5, accepted=True,
    )
    certificate = cert.fidelity_bound(cert.CertificateParams("di", "chsh", True, 0.02, 1.04, 0.62))
    report = protosim.teleport_with_certificate(source, transcript, certificate, 30, np.random.default_rng(3))
    assert report["empirical_fidelity"] == pytest.approx((1 + visibility) / 2, abs=1e-12)

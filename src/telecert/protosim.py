"""Monte Carlo execution of the test-then-teleport protocol.

A source emits K pairs; one uniformly random pair is withheld, the rest
are split into equal subsets and measured in fixed bases; the run is
accepted when the summed average correlations sit within epsilon of the
maximal violation.  Accepted runs carry the finite-statistics
certificate, which the soundness harness compares against the true
extracted fidelity of the withheld pair.

Acceptance reads only each subset's agreement count, the number of its
pairs with outcome product ab = +1, and by the Born rule a pair with
correlation <AB> agrees with probability (1 + <AB>)/2.  So a run samples
counts, not outcomes: an iid source draws one binomial count per subset
at agreement probabilities it computes once, a round-indexed source
draws the random partition (``permutation(K - 1)``, shifted by one past
the withheld index) and one uniform per tested pair, and only a
history-adaptive source, whose strategy reads the (setting, a, b)
history, is measured round by round from the exact joint outcome
distribution.  Such a round is a handful of scalar operations: the
pair's marginals and correlation come from one product with an operator
stack kept on the measurement model, and its outcomes from two uniforms
through :func:`born_outcomes`.  Batches of runs come from one trial
loop, :func:`run_trials`, which the soundness tally and the command line
both consume; a source that draws nothing and keeps no per-run state
(iid, drift) can serve a whole batch.  A round-indexed source's pairs
are Werner-type pairs on ideal devices, and the one-bad-pair source's
maximally mixed pair is its round of visibility 0; the true extracted
fidelity of each is kept in a bounded per-process memo keyed by (mode,
visibility).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import cert, qcore

SQRT2 = math.sqrt(2.0)

#: Subset layout per protocol mode: one measurement setting per subset,
#: in setting order, with the sign its average carries in the statistic.
#: Steering-type runs use two subsets (X x X and Z x Z); fully untrusted
#: CHSH runs use the four setting pairs.  CHSH with one-sided trust is the
#: steering layout with the statistic rescaled by sqrt(2).
LAYOUTS = {
    "two-basis": {"XX": 1.0, "ZZ": 1.0},
    "four-setting": {"00": 1.0, "01": 1.0, "10": 1.0, "11": -1.0},
}

#: Most copies a run may have: ``rng.integers(K)`` draws its withheld
#: index as an int64, which numpy accepts up to K = 2**63.
MAX_COPIES = 2**63

#: Most copies a round-indexed source may have: 8 bytes of visibility per
#: copy, and about 25 more while a run samples (the permutation, the
#: correlations, the uniforms and two masks).  It admits Figure 2's largest
#: planned K, 1e8: 0.8 GB for the source, about 2.5 GB for a run.
MAX_ROUND_INDEXED_COPIES = 10**8


def protocol_mode(params: cert.CertificateParams) -> str:
    """The subset layout a run with these parameters measures."""
    if params.inequality == "steering" or params.trust == "1sdi":
        return "two-basis"
    return "four-setting"


# ---------------------------------------------------------------------------
# Sources


class Source:
    """Base source: the protocol mode and the Born-rule statistics of one
    pair at one subset's setting.  Each source gives ``pair(index)``, the
    state and devices of a round, and is sampled along its own path in
    :func:`run_protocol`: iid, round-indexed or history-adaptive."""

    adaptive = False

    def __init__(self, mode: str):
        if mode not in LAYOUTS:
            raise ValueError(f"unknown protocol mode {mode!r}")
        self.mode = mode

    def pair_statistics(self, state, model: qcore.MeasurementModel, setting: int):
        """Born-rule (marginal_a, marginal_b, correlation) of one pair."""
        rho = qcore._as_density(state)
        m_a, m_b, corr = (self._expectation_stack(model, setting) @ rho.ravel()).real.tolist()
        return m_a, m_b, corr

    def _expectation_stack(self, model: qcore.MeasurementModel, setting: int) -> np.ndarray:
        """Rows O^T.ravel() of O = A x I, I x B and A x B, so that the
        product with rho.ravel() gives each tr(O rho); built once per
        (mode, setting) and kept on the model."""
        key = ("pair_statistics", self.mode, setting)
        stack = model.derived.get(key)
        if stack is None:
            a_obs, b_obs = self._observables(model, setting)
            eye_a, eye_b = np.eye(len(a_obs)), np.eye(len(b_obs))
            operators = (np.kron(a_obs, eye_b), np.kron(eye_a, b_obs), np.kron(a_obs, b_obs))
            stack = model.derived[key] = np.array([op.T.ravel() for op in operators])
        return stack

    def _observables(self, model: qcore.MeasurementModel, setting: int):
        if self.mode == "two-basis":
            # subset 0: X x X, subset 1: Z x Z; Alice's side is trusted.
            model_setting = 1 if setting == 0 else 0
            a_obs = qcore.SIGMA_X if setting == 0 else qcore.SIGMA_Z
            return a_obs, model.bob_observable(model_setting)
        x, y = divmod(setting, 2)
        return model.alice_observable(x), model.bob_observable(y)


def _ideal_pair(mode: str, visibility: float):
    """Werner-type state around the mode's extraction target, with the
    ideal Pauli devices of the untrusted side(s)."""
    if mode == "two-basis":
        return qcore.werner_state(visibility), qcore.ideal_model()
    return qcore.rotated_werner_state(visibility), qcore.ideal_model(device_independent=True)


class IidSource(Source):
    """Identical (state, model) every round, so each subset's agreement
    count is binomial and every pair extracts alike."""

    def __init__(self, mode: str, state: qcore.TwoQubitState, model: qcore.MeasurementModel):
        super().__init__(mode)
        self.state = state
        self.model = model
        #: <AB> at each subset's setting, in layout order.
        self.setting_correlations = np.array(
            [self.pair_statistics(state, model, t)[2] for t in range(len(LAYOUTS[mode]))]
        )
        #: Born-rule probability (1 + <AB>)/2 that a tested pair agrees.
        self.agreement_probabilities = np.clip(0.5 * (1.0 + self.setting_correlations), 0.0, 1.0)

    @functools.cached_property
    def extracted_fidelity(self) -> float:
        """True extracted fidelity of every pair, evaluated on first use."""
        return _extracted_fidelity(self.mode, self.state, self.model)

    def pair(self, index: int):
        return self.state, self.model


def werner_source(mode: str, visibility: float) -> IidSource:
    return IidSource(mode, *_ideal_pair(mode, visibility))


class VisibilitySequenceSource(Source):
    """Round-indexed Werner-type source with ideal devices; visibility may
    vary per round, and a maximally mixed pair is a round of visibility 0."""

    def __init__(self, mode: str, visibilities: np.ndarray):
        super().__init__(mode)
        self.visibilities = np.asarray(visibilities, dtype=float)
        # Written to hold, so that NaN fails it too.
        if not np.all((self.visibilities >= 0.0) & (self.visibilities <= 1.0)):
            raise ValueError("visibilities must sit in [0, 1]")

    def correlations(self, rounds: np.ndarray) -> np.ndarray:
        """<AB> of each pair in ``rounds``, a (subsets, size) array of pair
        indices whose row t is measured at setting t, as a new array that
        the caller may overwrite."""
        # Werner-type pairs on ideal devices: correlation v on both steering
        # subsets, v/sqrt(2) with the subset's CHSH sign on the setting pairs.
        signs = np.array(list(LAYOUTS[self.mode].values()))
        if self.mode == "four-setting":
            signs /= SQRT2
        corr = self.visibilities[rounds]
        corr *= signs[:, None]
        return corr

    def pair(self, index: int):
        return _ideal_pair(self.mode, float(self.visibilities[index]))


def _check_round_indexed(copies: int) -> None:
    """Refuse a round-indexed source above `MAX_ROUND_INDEXED_COPIES` before it allocates."""
    if copies > MAX_ROUND_INDEXED_COPIES:
        raise ValueError(f"a round-indexed source of K = {copies} copies exceeds the {MAX_ROUND_INDEXED_COPIES} it admits "
                         "(8 bytes of visibility per copy, and about 25 more while a run samples)")


def one_bad_pair_source(mode: str, copies: int, bad_index: int, visibility: float = 1.0) -> VisibilitySequenceSource:
    """All pairs at the given visibility except the maximally mixed pair at
    ``bad_index``, a round of visibility 0."""
    _check_round_indexed(copies)
    # An index no round carries would leave every pair good.
    if not 0 <= bad_index < copies:
        raise ValueError(f"bad_index {bad_index} outside [0, {copies})")
    visibilities = np.full(copies, visibility)
    visibilities[bad_index] = 0.0
    return VisibilitySequenceSource(mode, visibilities)


def drifting_visibility_source(mode: str, copies: int, v_start: float, v_end: float) -> VisibilitySequenceSource:
    _check_round_indexed(copies)
    return VisibilitySequenceSource(mode, np.linspace(v_start, v_end, copies))


class AdaptiveSource(Source):
    """History-dependent strategy: ``strategy(history)`` returns the next
    (state, model); history holds (setting, a, b) triples of measured
    rounds in measurement order.  Sampling is per round, since the
    strategy reads every outcome: a round costs the strategy's call and a
    few scalar operations, and a strategy that reuses its model object
    reuses that model's operator stacks.  Only the withheld pair of the
    latest run is kept."""

    adaptive = True

    def __init__(self, mode: str, strategy):
        super().__init__(mode)
        self.strategy = strategy
        self._withheld: tuple | None = None  # (index, pair)

    def emit(self, history: list):
        return self.strategy(list(history))

    def withhold(self, index: int, history: list) -> None:
        """Emit the withheld pair, which sees the full measured history."""
        self._withheld = (index, self.emit(history))

    def pair(self, index: int):
        if self._withheld is None or self._withheld[0] != index:
            raise RuntimeError("only the withheld pair of the latest run is kept")
        return self._withheld[1]


# ---------------------------------------------------------------------------
# Transcripts and the protocol run


@dataclass
class ProtocolTranscript:
    """What acceptance read from one run: per subset, in setting order,
    the number of tested pairs whose outcomes agreed and the average
    correlation (2 agreements - size) / size."""

    copies: int
    withheld: int
    agreements: list
    subset_averages: list
    statistic: float
    threshold: float
    accepted: bool


def adjusted_copies(params: cert.CertificateParams) -> int:
    """Copy count with the tested pairs divisible into the mode's subsets."""
    k = cert.required_copies(params)
    groups = len(LAYOUTS[protocol_mode(params)])
    while (k - 1) % groups:
        k += 1
    return k


def born_outcomes(m_a, m_b, corr, u_a, u_b):
    """Exact Born-rule (+-1, +-1) outcomes of a pair with these marginals
    and correlation from two uniforms in [0, 1): a from its marginal, then
    b given a.  Takes floats or equal-shape arrays, with the same
    arithmetic on both."""
    # u < p on [0, 1) equals u < clip(p, 0, 1), so no clipping is needed.
    a = 2 * (u_a < 0.5 * (1.0 + m_a)) - 1
    denom = 1.0 + a * m_a
    tiny = abs(denom) < 1e-15  # a drawn at probability ~0: any b will do
    denom = denom * (1 - tiny) + 1e-15 * tiny
    b = 2 * (u_b < 0.5 * (1.0 + (m_b + a * corr) / denom)) - 1
    return a, b


def _tested_rounds(k: int, withheld: int, subsets: int, rng) -> np.ndarray:
    """The k - 1 pair indices other than ``withheld`` in uniformly random
    order, one row per subset.

    ``permutation(k - 1)`` shuffles ``arange(k - 1)`` exactly as it would
    shuffle the k - 1 indices other than the withheld one, so shifting the
    indices from ``withheld`` on by one gives the same rounds from the
    same draws, without building that index list.
    """
    rounds = rng.permutation(k - 1)
    rounds += rounds >= withheld
    return rounds.reshape(subsets, -1)


def _measure_adaptively(source: AdaptiveSource, rounds: np.ndarray, withheld: int, rng):
    """Agreement counts of an adaptive source, measured round by round in
    subset order, each outcome pair drawn from the Born rule of the pair
    the strategy emits with two uniforms, a's before b's."""
    agreements = [0] * len(rounds)
    history: list = []
    for t, subset in enumerate(rounds.tolist()):
        for _ in subset:
            m_a, m_b, corr = source.pair_statistics(*source.emit(history), t)
            u_a = rng.random()
            u_b = rng.random()
            a, b = born_outcomes(m_a, m_b, corr, u_a, u_b)
            agreements[t] += a == b
            history.append((t, a, b))
    source.withhold(withheld, history)
    return agreements


def run_protocol(source: Source, params: cert.CertificateParams, rng):
    """One protocol execution: returns (transcript, certificate or None).

    The withheld pair is chosen before any measurement and never sampled.
    """
    mode = protocol_mode(params)
    if source.mode != mode:
        raise ValueError(f"source mode {source.mode!r} does not match params ({mode})")
    k = adjusted_copies(params)
    if isinstance(source, VisibilitySequenceSource) and len(source.visibilities) != k:
        raise ValueError(f"source has {len(source.visibilities)} rounds, the run has {k} copies")
    layout = LAYOUTS[mode]
    size = (k - 1) // len(layout)
    r = int(rng.integers(k))
    if isinstance(source, IidSource):
        agreements = rng.binomial(size, source.agreement_probabilities)
    else:
        rounds = _tested_rounds(k, r, len(layout), rng)
        if source.adaptive:
            agreements = _measure_adaptively(source, rounds, r, rng)
        else:
            probabilities = source.correlations(rounds)
            probabilities += 1.0
            probabilities *= 0.5
            agree = rng.random(rounds.shape) < probabilities
            agreements = np.count_nonzero(agree, axis=1)

    agreements = [int(c) for c in agreements]
    averages = [(2 * c - size) / size for c in agreements]
    statistic = sum(s * a for s, a in zip(layout.values(), averages))
    if mode == "two-basis" and params.inequality == "chsh":
        statistic *= SQRT2
    threshold = params.max_violation - params.epsilon
    accepted = statistic >= threshold

    transcript = ProtocolTranscript(
        copies=k,
        withheld=r,
        agreements=agreements,
        subset_averages=averages,
        statistic=float(statistic),
        threshold=float(threshold),
        accepted=bool(accepted),
    )
    certificate = cert.fidelity_bound(params) if accepted else None
    return transcript, certificate


# ---------------------------------------------------------------------------
# Extraction-based soundness evaluation


def extraction_target(mode: str) -> np.ndarray:
    return qcore.bell_vector() if mode == "two-basis" else qcore.rotated_bell_vector()


def true_extracted_fidelity(source: Source, index: int) -> float:
    """Fidelity of the extraction output of one pair against the mode's
    reference state, evaluated at the devices the source actually used."""
    if isinstance(source, IidSource):
        return source.extracted_fidelity
    if isinstance(source, VisibilitySequenceSource):
        return _ideal_extracted_fidelity(source.mode, float(source.visibilities[index]))
    return _extracted_fidelity(source.mode, *source.pair(index))


def _extracted_fidelity(mode: str, state, model: qcore.MeasurementModel) -> float:
    extracted = qcore.swap_isometry_extract(state, model)
    return qcore.fidelity_to_pure(extracted, extraction_target(mode))


# Bounded like qcore._werner_mixture, so a drifting source's continuum of
# visibilities cannot grow memory.
@functools.lru_cache(maxsize=64)
def _ideal_extracted_fidelity(mode: str, visibility: float) -> float:
    """True extracted fidelity of the mode's Werner-type pair on ideal
    devices, evaluated once per (mode, visibility) and process."""
    return _extracted_fidelity(mode, *_ideal_pair(mode, visibility))


class Trial(NamedTuple):
    """One protocol run of a batch; ``rng`` is the trial's own generator,
    and ``true_fidelity`` is set for accepted runs only."""

    source: Source
    transcript: ProtocolTranscript
    certificate: cert.FidelityCertificate | None
    true_fidelity: float | None
    rng: np.random.Generator


def run_trials(source_factory, params: cert.CertificateParams, n_trials: int, seed: int):
    """Repeated protocol runs with per-trial derived seeds, one Trial each.

    ``source_factory(copies, rng)`` gives each trial's source: a fresh one,
    or one shared by the batch when it keeps no per-run state; the true
    extracted fidelity of the withheld pair is evaluated for each
    accepted run.  Refuses a copy count above `MAX_COPIES`.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    k = adjusted_copies(params)
    if k > MAX_COPIES:
        raise ValueError(f"the run needs K = {k} copies; numpy draws the withheld index for K up to {MAX_COPIES} (2**63)")
    for stream in np.random.SeedSequence(seed).spawn(n_trials):
        rng = np.random.default_rng(stream)
        source = source_factory(k, rng)
        transcript, certificate = run_protocol(source, params, rng)
        true_f = None if certificate is None else true_extracted_fidelity(source, transcript.withheld)
        yield Trial(source, transcript, certificate, true_f, rng)


@dataclass
class SoundnessStats:
    trials: int
    accepted: int
    bound_violations: int
    certificate_fidelity: float
    certificate_probability: float
    min_true_fidelity: float

    @classmethod
    def start(cls, params: cert.CertificateParams, n_trials: int) -> "SoundnessStats":
        """Tally of no accepted runs yet, carrying the certificate that
        every accepted run with these parameters receives."""
        template = cert.fidelity_bound(params)
        return cls(n_trials, 0, 0, template.fidelity, template.probability, 1.0)

    def record(self, trial: Trial) -> None:
        """Compare an accepted run's certified bound against the true
        extracted fidelity of its withheld pair."""
        if trial.certificate is None:
            return
        self.accepted += 1
        self.bound_violations += trial.true_fidelity < trial.certificate.fidelity - 1e-12
        self.min_true_fidelity = min(self.min_true_fidelity, trial.true_fidelity)

    @property
    def violation_fraction(self) -> float:
        return self.bound_violations / self.accepted if self.accepted else 0.0

    def margin(self) -> float:
        if not self.accepted:
            return 0.0
        p = max(self.violation_fraction, 1.0 / self.accepted)
        return 3.0 * math.sqrt(p * (1.0 - p) / self.accepted)

    def honored(self) -> bool:
        allowed = (1.0 - self.certificate_probability) + self.margin()
        return self.violation_fraction <= allowed

    def to_json(self) -> dict:
        return {
            "schema": "protosim/1",
            "kind": "soundness",
            "trials": self.trials,
            "accepted": self.accepted,
            "bound_violations": self.bound_violations,
            "violation_fraction": self.violation_fraction,
            "certificate_fidelity": self.certificate_fidelity,
            "certificate_probability": self.certificate_probability,
            "min_true_fidelity": self.min_true_fidelity,
        }


def soundness_experiment(
    source_factory,
    params: cert.CertificateParams,
    n_trials: int,
    seed: int,
) -> SoundnessStats:
    """Soundness tally over :func:`run_trials`: over accepted trials the
    certified bound is compared against the true extracted fidelity of
    the withheld pair."""
    stats = SoundnessStats.start(params, n_trials)
    for trial in run_trials(source_factory, params, n_trials, seed):
        stats.record(trial)
    return stats


def teleport_with_certificate(
    source: Source,
    transcript: ProtocolTranscript,
    certificate: cert.FidelityCertificate,
    n_inputs: int,
    rng,
) -> dict:
    """Teleport through the withheld pair of an accepted run and compare
    the empirical average fidelity against the certified bound.

    The fully untrusted target is the rotated Bell state (I x R)|Phi+>,
    R real, symmetric and orthogonal, so there Bob first applies the fixed
    R^dag = R and the standard Phi+ protocol follows."""
    if not transcript.accepted:
        raise ValueError("transcript was rejected; nothing to teleport through")
    state, model = source.pair(transcript.withheld)
    rho = qcore._as_density(state)
    if model.bob_dim != 2 or rho.shape != (4, 4):
        raise ValueError("teleportation needs qubit pairs on both sides")
    if source.mode == "four-setting":
        # target[2 i + j] = R[j, i] / sqrt(2)
        undo = np.kron(np.eye(2), SQRT2 * extraction_target(source.mode).real.reshape(2, 2).T)
        rho = undo.T @ rho @ undo
    empirical = qcore.teleport_average_fidelity(qcore.TwoQubitState(rho), n_inputs, rng)
    entangled_fidelity = true_extracted_fidelity(source, transcript.withheld)
    return {
        "schema": "protosim/1",
        "kind": "teleport",
        "empirical_fidelity": empirical,
        "entangled_fidelity": entangled_fidelity,
        "certified_bound": certificate.fidelity,
        "margin": empirical - certificate.fidelity,
        "n_inputs": n_inputs,
    }


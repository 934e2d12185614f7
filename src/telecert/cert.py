"""Finite-statistics fidelity certificates.

Closed-form bounds for the test-then-teleport protocol: the certified
fidelity of the withheld pair and its confidence, for iid sources and,
through the average-to-individual step, for non-iid ones; copy-count
formulas; the measurement self-test bound; an inverse planner that finds
protocol parameters meeting a fidelity/confidence target with as few
copies as possible; and visibility thresholds for Werner-type sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TRUSTS = ("1sdi", "di")
INEQUALITIES = ("steering", "chsh")

#: Published self-testing slopes used by default for the state bound.
DEFAULT_ALPHA = {
    ("1sdi", "steering"): 1.26,
    ("1sdi", "chsh"): 0.90,
    ("di", "chsh"): 1.19,
}

#: Where a certificate's slope comes from: the published constant, a
#: number the caller gives, or the state bound of a `derive-alpha` report.
ALPHA_SOURCES = ("paper-default", "explicit", "sdp-derived")

#: Published slopes for the measurement bound (steering / CHSH trust cases).
MEASUREMENT_ALPHA = {"1sdi": 3.10, "di": 3.70}

#: Trace-distance coefficients quoted alongside the fidelity slopes; the
#: conversion is coefficient = sqrt(2 * alpha).
TRACE_DISTANCE_COEFFICIENTS = {
    ("1sdi", "steering", "state"): 1.59,
    ("1sdi", "steering", "measurement"): 2.49,
    ("1sdi", "chsh", "state"): 1.34,
    ("1sdi", "chsh", "measurement"): 2.10,
    ("di", "chsh", "state"): 1.54,
    ("di", "chsh", "measurement"): 2.72,
}


def max_violation(trust: str, inequality: str) -> float:
    if inequality == "steering":
        if trust == "di":
            raise ValueError("steering requires a trusted side")
        return 2.0
    return 2.0 * math.sqrt(2.0)


def default_alpha(trust: str, inequality: str) -> float:
    try:
        return DEFAULT_ALPHA[(trust, inequality)]
    except KeyError:
        raise ValueError(f"no default constant for ({trust}, {inequality})") from None


def _check_epsilon(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError("epsilon must sit in (0, 1)")


@dataclass(frozen=True)
class CertificateParams:
    """Protocol parameters: trust setting, inequality, statistics model,
    deviation budget epsilon, slack divisor q, confidence exponent x, and
    the self-testing slope alpha (defaulted from the published constants)
    with its source, one of `ALPHA_SOURCES`.  Without a source it is
    "paper-default" when no alpha is given and "explicit" when one is.
    "paper-default" takes no alpha other than the published one, and the
    other sources need an alpha."""

    trust: str
    inequality: str
    iid: bool
    epsilon: float
    q: float
    x: float
    alpha: float | None = None
    alpha_source: str | None = None

    def __post_init__(self):
        if self.trust not in TRUSTS:
            raise ValueError(f"unknown trust setting {self.trust!r}")
        if self.inequality not in INEQUALITIES:
            raise ValueError(f"unknown inequality {self.inequality!r}")
        if self.trust == "di" and self.inequality == "steering":
            raise ValueError("steering requires a trusted side")
        _check_epsilon(self.epsilon)
        if self.alpha_source is None:
            object.__setattr__(self, "alpha_source", "paper-default" if self.alpha is None else "explicit")
        if self.alpha_source not in ALPHA_SOURCES:
            raise ValueError(f"unknown alpha source {self.alpha_source!r}; expected one of {', '.join(ALPHA_SOURCES)}")
        if self.alpha_source == "paper-default":
            published = default_alpha(self.trust, self.inequality)
            if self.alpha not in (None, published):
                raise ValueError(f"alpha {self.alpha} is not the published {published} that 'paper-default' names")
            object.__setattr__(self, "alpha", published)
        elif self.alpha is None:
            raise ValueError(f"alpha source {self.alpha_source!r} needs an alpha")
        # NaN fails every comparison, so each range is written to hold.
        if not 1.0 <= self.q < math.inf:
            raise ValueError("q must be finite and at least 1")
        if not 0.0 < self.x < math.inf:
            raise ValueError("x must be finite and positive")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")

    @property
    def max_violation(self) -> float:
        return max_violation(self.trust, self.inequality)

    @property
    def violation(self) -> float:
        return self.max_violation - self.epsilon


@dataclass(frozen=True)
class FidelityCertificate:
    fidelity: float
    probability: float
    copies: int
    trust: str
    inequality: str
    iid: bool
    vacuous: bool
    params: CertificateParams

    def to_json(self) -> dict:
        doc = {
            "schema": "cert/1",
            "fidelity": self.fidelity,
            "probability": self.probability,
            "copies": self.copies,
            "trust": self.trust,
            "inequality": self.inequality,
            "iid": self.iid,
            "vacuous": self.vacuous,
            "formula": _formula_id(self.params),
            "params": {
                "epsilon": self.params.epsilon,
                "q": self.params.q,
                "x": self.params.x,
                "alpha": self.params.alpha,
                "alpha_source": self.params.alpha_source,
            },
        }
        return doc


def _formula_id(params: CertificateParams) -> str:
    stats = "iid" if params.iid else "noniid"
    return f"{params.inequality}-{stats}"


def required_copies(params: CertificateParams) -> int:
    """Number of pairs the source must prepare, including the withheld one.

    log is the natural logarithm (only that choice reproduces the quoted
    copy counts); K - 1 is forced even so the tested pairs split into two
    equal halves.
    """
    return _copies(params.inequality, params.iid, params.epsilon, params.q, params.x)


def _copies(inequality: str, iid: bool, eps: float, q: float, x: float) -> int:
    """``required_copies`` on plain floats, shared with the planner.  The
    arguments are not validated."""
    log_term = math.log(1.0 / eps)
    if inequality == "steering":
        base = 4.0 if iid else 16.0
    else:
        base = 8.0 if iid else 32.0
    k = math.ceil(base * q * q * x / (eps * eps) * log_term + 1.0)
    if (k - 1) % 2:
        k += 1
    return int(k)


#: Coefficient c of the slack term c * eps / q in both bounds.
_SLACK = {"steering": 2.0, "chsh": 4.0}


def _noniid_rest(inequality: str, eps: float, q: float, x: float) -> tuple[float, float]:
    """The two terms of the non-iid bound's inner term besides c * eps / q:
    one linear in eps, and a fraction that falls as q grows.  They are
    returned apart so that ``_raw_bound`` adds them in the order that
    fixes the bound's rounding."""
    log_term = math.log(1.0 / eps)
    if inequality == "steering":
        fraction = (4.0 * q * q * x * eps * log_term + 2.0 * eps * eps) / (
            8.0 * q * q * x * log_term + eps * eps
        )
        return 0.5 * eps, fraction
    fraction = (4.0 * q * q * x * eps * log_term + (2.0 + math.sqrt(2.0)) * eps * eps) / (
        16.0 * q * q * x * log_term + 2.0 * eps * eps
    )
    return 0.75 * eps, fraction


def _raw_bound(
    inequality: str, iid: bool, eps: float, q: float, x: float, alpha: float
) -> tuple[float, float]:
    """Unclamped certified fidelity and probability: the one copy of the
    certificate formula.  The arguments are not validated; callers build a
    ``CertificateParams`` from them first (the planner once per eps, its
    q and x lying in the valid ranges by construction)."""
    if iid:
        slack = _SLACK[inequality] * eps / q
        raw_f = 1.0 - alpha * (slack + eps)
        raw_p = 1.0 - eps**x
    else:
        linear, fraction = _noniid_rest(inequality, eps, q, x)
        # Average-to-individual step: given an average-fidelity deficit eta,
        # one uniformly chosen copy has fidelity at least 1 - sqrt(eta)
        # with probability at least 1 - sqrt(eta).
        radical = math.sqrt(alpha * (_SLACK[inequality] * eps / q + linear + fraction))
        raw_f = 1.0 - radical
        raw_p = (1.0 - eps**x) * (1.0 - radical)
    return raw_f, raw_p


def fidelity_bound(params: CertificateParams) -> FidelityCertificate:
    """Certified fidelity of the withheld pair and the confidence with
    which the certificate holds."""
    raw_f, raw_p = _raw_bound(
        params.inequality, params.iid, params.epsilon, params.q, params.x, params.alpha
    )
    vacuous = raw_f <= 0.0 or raw_p <= 0.0
    return FidelityCertificate(
        fidelity=min(1.0, max(0.0, raw_f)),
        probability=min(1.0, max(0.0, raw_p)),
        copies=required_copies(params),
        trust=params.trust,
        inequality=params.inequality,
        iid=params.iid,
        vacuous=vacuous,
        params=params,
    )


def measurement_selftest_fidelity(violation: float, trust: str) -> float:
    """Certified measurement fidelity from an observed violation.

    The trust setting fixes the inequality: steering for one-sided trust,
    CHSH for none.
    """
    if trust not in TRUSTS:
        raise ValueError(f"unknown trust setting {trust!r}")
    inequality = "steering" if trust == "1sdi" else "chsh"
    top = max_violation(trust, inequality)
    if violation > top + 1e-12:
        raise ValueError(f"violation {violation} exceeds the maximum {top}")
    eps = max(0.0, top - violation)
    return max(0.0, 1.0 - MEASUREMENT_ALPHA[trust] * eps)


# ---------------------------------------------------------------------------
# Inverse planner.


@dataclass
class PlanResult:
    feasible: bool
    params: CertificateParams | None
    certificate: FidelityCertificate | None
    reason: str = ""

    def to_json(self) -> dict:
        doc = {"schema": "cert/1", "kind": "plan", "feasible": self.feasible, "reason": self.reason}
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        return doc


def _min_q_for_targets(inequality, iid, eps, x, target_f, target_p, alpha) -> float | None:
    """A q meeting both targets at fixed (eps, x), None if q_max fails: the
    estimate below of the smallest such q, stepped up to the first float
    that passes, which can sit thousands of ulps above the smallest.

    The inputs must be valid ``CertificateParams`` fields (``plan``
    checks them once per eps).  With target_f in (0, 1) and target_p in
    [0, 1), as ``plan`` requires, testing the unclamped bound below makes
    the same decision as testing the clamped, non-vacuous
    ``fidelity_bound``.

    iid: raw_f >= target_f exactly when alpha * (c * eps / q + eps) <=
    1 - target_f, and raw_p does not depend on q, so the smallest q is
    c * eps / ((1 - target_f) / alpha - eps).  Non-iid: both targets hold
    exactly when alpha * (c * eps / q + rest(q)) <= r^2, with
    r = min(1 - target_f, 1 - target_p / (1 - eps^x)) and rest(q) the
    ``_noniid_rest`` terms, which fall as q grows.  So q is the fixed
    point of q <- c * eps / (r^2 / alpha - rest(q)), a falling map; it
    is iterated inside the bracket [lo, hi] that the iterates establish.
    The step up tests the unclamped bound, so every returned q is
    certified by the same formula as ``fidelity_bound``.
    """
    q_max = 1e9

    def ok(q):
        raw_f, raw_p = _raw_bound(inequality, iid, eps, q, x, alpha)
        return raw_f >= target_f and raw_p >= target_p and raw_p > 0.0

    if not ok(q_max):
        return None
    if ok(1.0):
        return 1.0
    slack = _SLACK[inequality] * eps
    if iid:
        gap = (1.0 - target_f) / alpha - eps
        q = slack / gap if gap > 0.0 else q_max
    else:
        r = min(1.0 - target_f, 1.0 - target_p / (1.0 - eps**x))
        threshold = r * r / alpha
        lo, hi = 1.0, q_max
        q, last = q_max, None
        for _ in range(100):
            gap = threshold - sum(_noniid_rest(inequality, eps, q, x))
            if slack / q > gap:
                lo = q
            else:
                hi = q
            # Stop within a few ulps: the bracket has closed, or below
            # q reaches its own image.
            if hi - lo <= 1e-15 * hi:
                break
            step = math.inf
            if gap > 0.0:
                image = slack / gap
                if abs(image - q) <= 1e-15 * q:
                    break
                step = image
                if last is not None and q != last[0]:
                    # Wegstein's step q + (image - q) / (1 - s), s the
                    # secant slope of the map, converges where the plain
                    # step crawls (s near -1) or cycles (s below -1).  The
                    # map falls, so s < 0 puts it between q and its image.
                    s = (image - last[1]) / (q - last[0])
                    if s < 0.0:
                        step = q + (image - q) / (1.0 - s)
                last = (q, image)
            if not lo < step < hi:
                step = math.sqrt(lo * hi)
            q = step
        else:
            q = hi
    q = min(max(q, 1.0), q_max)
    while not ok(q):
        q = math.nextafter(q, math.inf)
    return q


#: Widening of r in the planner's floors.  A floor must hold for every q
#: that ``_min_q_for_targets`` certifies in float arithmetic, which can meet
#: the targets with r a few ulps (about 1e-15) beyond its exact value;
#: widening r by 1e-9 covers that, and the rounding of the floor's own few
#: operations, with six orders of magnitude to spare.  It only loosens the
#: floor, and it makes ``bound <= eps`` in ``_q_floor`` a proof that no q
#: meets the targets.
_FLOOR_WIDENING = 1e-9


def _q_floor(inequality, iid, eps, r, alpha) -> float | None:
    """Lower bound on every q that meets the targets at this eps, given r,
    the room the targets leave (below); None if no q meets them.

    iid: the fidelity target needs alpha * (c * eps / q + eps) <= r with
    r = 1 - target_fidelity.  Non-iid: both targets need the radical at
    most r = min(1 - target_fidelity, 1 - target_probability / (1 - eps^x)),
    so alpha * (c * eps / q + rest) <= r^2, with rest the two
    ``_noniid_rest`` terms.  Their sum is at least eps: for eps < 1 the
    steering fraction exceeds eps/2 by eps^2 (2 - eps/2) / (its
    denominator), and the CHSH fraction exceeds eps/4 by
    eps^2 (2 + sqrt(2) - eps/2) / (its denominator).  Either way
    q >= c * eps / (bound - eps), with bound = r / alpha (iid) or
    r^2 / alpha, and no q qualifies when bound <= eps.  A larger r gives
    a smaller floor, so r = 1 - target_fidelity bounds every x at this eps.
    """
    s = r + _FLOOR_WIDENING
    if s <= 0.0:
        return None
    gap = (s if iid else s * s) / alpha - eps
    if gap <= 0.0:
        return None
    return max(1.0, _SLACK[inequality] * eps / gap)


def plan(
    target_fidelity: float,
    target_probability: float,
    trust: str,
    inequality: str,
    iid: bool,
    epsilon: float | None = None,
    max_copies: float | None = None,
    alpha: float | None = None,
    alpha_source: str | None = None,
) -> PlanResult:
    """Parameters minimizing the copy count subject to the certificate
    meeting (target_fidelity, target_probability).

    The candidates are the points of a grid: 120 log-spaced epsilons
    (or the given one) times, per epsilon, 40 log-spaced x from the
    smallest x that reaches the probability target up to 16.  At a point
    q is ``_min_q_for_targets``'s closed-form (iid) or fixed-point
    (non-iid) estimate of the smallest q, stepped up to the first float
    passing the unclamped bound; the plan is the lexicographically
    smallest (copies, epsilon, q, x) among the candidates within max_copies.

    The search is a branch and bound (Land and Doig, 1960) on a floor
    for a point's copy count: ``_copies`` at the q of ``_q_floor``, which
    cannot exceed the point's count since ``_copies`` does not fall as q
    or x grows.  Each epsilon row gets the floor at its first x with
    r = 1 - target_fidelity, which bounds every point of the row; rows
    that no q can serve are dropped.  Rows are visited in ascending floor
    order until a floor exceeds the smallest count found so far (or
    max_copies).  Within a row the distinct x are visited in ascending
    order until the row's floor at x exceeds it, and non-iid, an x whose
    own floor (the probability target can leave less room) exceeds it is
    skipped.  A pruned point has more copies than a candidate already
    found or than max_copies, and a floor equal to the count found is not
    pruned, so the selection, which does not depend on the visiting order,
    is the one an exhaustive pass over the grid makes.  The returned
    parameters are re-verified through ``fidelity_bound``.  They record
    ``alpha`` and ``alpha_source`` as `CertificateParams` does, which
    checks the pair before the search.
    """
    if not 0.0 < target_fidelity < 1.0:
        raise ValueError("target fidelity must sit in (0, 1)")
    if not 0.0 <= target_probability < 1.0:
        raise ValueError("target probability must sit in [0, 1)")
    # NaN fails the comparison, so a NaN limit is refused too.
    if max_copies is not None and not max_copies >= 1.0:
        raise ValueError("max copies must be at least 1")
    alpha_value = alpha if alpha is not None else default_alpha(trust, inequality)

    if epsilon is not None:
        eps_grid = [float(epsilon)]
    else:
        lo, hi = 1e-3, 0.999
        eps_grid = [lo * (hi / lo) ** (t / 119.0) for t in range(120)]
    x_hi = 16.0
    r_fidelity = 1.0 - target_fidelity
    # One check covers every grid point: a given eps is eps_grid[0], the
    # free grid lies inside (0, 1) and every grid x is finite and positive.
    CertificateParams(trust, inequality, iid, eps_grid[0], 1.0, 1.0, alpha, alpha_source)
    rows = []
    for eps in eps_grid:
        x_lo = 0.05
        # x must at least cover the probability target through 1 - eps^x.
        if target_probability > 0.0:
            x_floor = math.log(1.0 - target_probability) / math.log(eps)
            x_lo = max(x_lo, min(x_floor, x_hi))
        # The fidelity target alone bounds q at every x of the row.
        q_floor = _q_floor(inequality, iid, eps, r_fidelity, alpha_value)
        if q_floor is not None:
            rows.append((_copies(inequality, iid, eps, q_floor, x_lo), eps, x_lo, q_floor))
    rows.sort()

    limit = math.inf if max_copies is None else max_copies
    best = None
    for row_floor, eps, x_lo, row_q in rows:
        if row_floor > limit:
            break
        # Ascending and without repeats (forty copies of 16 when the
        # probability target alone needs x >= 16); the order of the visits
        # does not change the minimum.
        for x in sorted({x_lo * (x_hi / x_lo) ** (t / 39.0) for t in range(40)}):
            if _copies(inequality, iid, eps, row_q, x) > limit:
                break
            if not iid:
                room = 1.0 - eps**x
                if room <= 0.0:
                    continue  # no q gives positive confidence
                r = min(r_fidelity, 1.0 - target_probability / room)
                q_floor = _q_floor(inequality, iid, eps, r, alpha_value)
                if q_floor is None or _copies(inequality, iid, eps, q_floor, x) > limit:
                    continue
            q = _min_q_for_targets(
                inequality, iid, eps, x, target_fidelity, target_probability, alpha_value
            )
            if q is None:
                continue
            # The plan returns q with a 1e-9 relative margin; its copy
            # count, the one reported, is what the search minimizes.
            q *= 1.0 + 1e-9
            k = _copies(inequality, iid, eps, q, x)
            key = (k, eps, q, x)
            if k <= limit and (best is None or key < best):
                best, limit = key, k
    if best is None:
        reason = "fidelity/probability targets unreachable"
        if max_copies is not None:
            reason += f" within {max_copies:g} copies"
        reason += f" for {trust}/{inequality} ({'iid' if iid else 'non-iid'})"
        return PlanResult(False, None, None, reason)
    k, eps, q, x = best
    params = CertificateParams(trust, inequality, iid, eps, q, x, alpha, alpha_source)
    cert = fidelity_bound(params)
    if cert.fidelity < target_fidelity or cert.probability < target_probability:
        return PlanResult(False, None, None, "re-verification failed at the optimum")
    return PlanResult(True, params, cert)


#: The Werner-threshold search: the fidelity target is the classical
#: teleportation bound 2/3, the setting is the one-sided steering one whose
#: visibilities the paper quotes, and the bisection stops once its bracket
#: is narrower than 5e-4, well inside the three quoted digits.
WERNER_TARGET_FIDELITY = 2.0 / 3.0
WERNER_TRUST, WERNER_INEQUALITY = "1sdi", "steering"
WERNER_TOLERANCE = 5e-4


def werner_visibility_threshold(iid: bool) -> float:
    """Minimum Werner visibility whose violation level still certifies the
    fidelity target `WERNER_TARGET_FIDELITY` in the `WERNER_TRUST` /
    `WERNER_INEQUALITY` setting with the paper's alpha.

    A visibility-v source attains violation v * (maximal violation), so the
    protocol must run at epsilon = (1 - v) * maximal violation.  The
    confidence and copy budget are the feasibility envelope of the quoted
    operating points: confidence 0.75 with at most 1.2e5 copies in the iid
    setting, 0.6 with at most 1e8 copies in the martingale setting.  The
    visibility is bisected until its bracket is narrower than
    `WERNER_TOLERANCE`.
    """
    target_probability = 0.75 if iid else 0.6
    max_copies = 1.2e5 if iid else 1e8
    top = max_violation(WERNER_TRUST, WERNER_INEQUALITY)

    def feasible(v):
        eps = (1.0 - v) * top
        if eps <= 0.0 or eps >= 1.0:
            return eps <= 0.0
        result = plan(
            WERNER_TARGET_FIDELITY,
            target_probability,
            WERNER_TRUST,
            WERNER_INEQUALITY,
            iid,
            epsilon=eps,
            max_copies=max_copies,
        )
        return result.feasible

    lo, hi = 0.5, 1.0
    if feasible(lo):
        return lo
    while hi - lo > WERNER_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Sweep emitter (plot-ready certification curves).


def sweep_rows(
    trust: str,
    inequality: str,
    epsilons,
    q: float,
    x: float,
) -> list[dict]:
    """Rows of (epsilon, iid and non-iid fidelity/copies/probability)."""
    rows = []
    for eps in epsilons:
        row = {"epsilon": float(eps), "violation": max_violation(trust, inequality) - float(eps)}
        for iid in (True, False):
            cert = fidelity_bound(
                CertificateParams(trust, inequality, iid, float(eps), q, x)
            )
            tag = "iid" if iid else "noniid"
            row[f"fidelity_{tag}"] = cert.fidelity
            row[f"copies_{tag}"] = cert.copies
            row[f"probability_{tag}"] = cert.probability
        rows.append(row)
    return rows


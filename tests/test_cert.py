import ast
import itertools
import math
import pathlib
import sys

import numpy as np
import pytest

from telecert import cert


def params(trust="1sdi", inequality="steering", iid=True, eps=0.25, q=35.0, x=1.0, alpha=None):
    return cert.CertificateParams(trust, inequality, iid, eps, q, x, alpha)


def test_cert_imports_only_the_standard_library():
    # the planner's commands load cert and no numerical module
    tree = ast.parse(pathlib.Path(cert.__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    # a relative import names "." and fails: a sibling module may load numpy
    names |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names), names


def test_param_validation():
    with pytest.raises(ValueError):
        params(eps=0.0)
    with pytest.raises(ValueError):
        params(eps=1.0)
    with pytest.raises(ValueError):
        params(q=0.5)
    with pytest.raises(ValueError):
        params(x=0.0)
    with pytest.raises(ValueError):
        params(trust="di", inequality="steering")
    assert params().alpha == 1.26
    assert params(inequality="chsh").alpha == 0.90
    assert params(trust="di", inequality="chsh").alpha == 1.19


def test_required_copies_quoted_point():
    # ceil(78400 * ln 4 + 1) with K - 1 already even
    p = params()
    assert cert.required_copies(p) == 108687
    assert (cert.required_copies(p) - 1) % 2 == 0


def test_required_copies_noniid():
    p = params(iid=False, eps=0.08, q=20.0)
    k = cert.required_copies(p)
    oracle = math.ceil(16 * 400 / 0.08**2 * math.log(1 / 0.08) + 1)
    assert k in (oracle, oracle + 1)
    assert abs(k - 2.53e6) < 0.01e6
    assert (k - 1) % 2 == 0


def test_required_copies_chsh_scaling():
    p_iid = params(inequality="chsh", eps=0.3, q=10.0)
    p_non = params(inequality="chsh", iid=False, eps=0.3, q=10.0)
    log_term = math.log(1 / 0.3)
    assert cert.required_copies(p_iid) >= 8 * 100 / 0.09 * log_term
    assert cert.required_copies(p_non) >= 32 * 100 / 0.09 * log_term


def test_copies_monotone_in_epsilon():
    for eps in (0.1, 0.2, 0.4):
        k_small = cert.required_copies(params(eps=eps / 2))
        k_large = cert.required_copies(params(eps=eps))
        assert k_small > k_large


def test_even_adjustment():
    for eps in np.linspace(0.05, 0.6, 40):
        k = cert.required_copies(params(eps=float(eps)))
        assert (k - 1) % 2 == 0


def test_fidelity_bound_iid_quoted_point():
    c = cert.fidelity_bound(params())
    assert c.fidelity == pytest.approx(1 - 1.26 * (0.5 / 35 + 0.25), abs=1e-12)
    assert c.fidelity >= 2 / 3
    assert c.probability == pytest.approx(0.75, abs=1e-12)
    assert c.copies == 108687
    assert not c.vacuous


def test_fidelity_bound_noniid_quoted_point():
    c = cert.fidelity_bound(params(iid=False, eps=0.08, q=20.0))
    # oracle: explicit formula evaluation
    eps, q, x, alpha = 0.08, 20.0, 1.0, 1.26
    log_term = math.log(1 / eps)
    inner = (
        2 * eps / q
        + eps / 2
        + (4 * q * q * x * eps * log_term + 2 * eps * eps) / (8 * q * q * x * log_term + eps * eps)
    )
    expected_f = 1 - math.sqrt(alpha * inner)
    assert c.fidelity == pytest.approx(expected_f, abs=1e-12)
    assert c.fidelity >= 2 / 3
    assert c.probability == pytest.approx((1 - 0.08) * expected_f, abs=1e-12)


def test_fidelity_bound_chsh_forms():
    eps, q, x = 0.3, 12.0, 1.0
    c = cert.fidelity_bound(params(inequality="chsh", eps=eps, q=q))
    assert c.fidelity == pytest.approx(1 - 0.90 * (4 * eps / q + eps), abs=1e-12)
    c2 = cert.fidelity_bound(params(inequality="chsh", iid=False, eps=eps, q=q))
    log_term = math.log(1 / eps)
    inner = (
        4 * eps / q
        + 0.75 * eps
        + (4 * q * q * x * eps * log_term + (2 + math.sqrt(2)) * eps * eps)
        / (16 * q * q * x * log_term + 2 * eps * eps)
    )
    assert c2.fidelity == pytest.approx(1 - math.sqrt(0.90 * inner), abs=1e-12)


def test_limit_recovers_selftesting():
    eps = 0.05
    c = cert.fidelity_bound(params(eps=eps, q=1e9, x=200.0))
    assert c.fidelity == pytest.approx(1 - 1.26 * eps, abs=1e-6)
    assert c.probability == pytest.approx(1.0, abs=1e-12)


def test_bound_monotonicity():
    grid_eps = np.linspace(0.05, 0.4, 12)
    for iid in (True, False):
        values = [cert.fidelity_bound(params(iid=iid, eps=float(e), q=20.0)).fidelity for e in grid_eps]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    grid_q = np.linspace(2, 200, 15)
    for iid in (True, False):
        values = [cert.fidelity_bound(params(iid=iid, eps=0.2, q=float(qv))).fidelity for qv in grid_q]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_vacuous_flag():
    c = cert.fidelity_bound(params(eps=0.9, q=1.0))
    assert c.vacuous and c.fidelity == 0.0
    assert 0.0 <= c.probability <= 1.0


def test_measurement_selftest_points():
    assert cert.measurement_selftest_fidelity(1.94, "1sdi") == pytest.approx(1 - 3.10 * 0.06, abs=1e-12)
    assert cert.measurement_selftest_fidelity(1.94, "1sdi") > 0.80
    di = cert.measurement_selftest_fidelity(2.78, "di")
    assert di == pytest.approx(1 - 3.70 * (2 * math.sqrt(2) - 2.78), abs=1e-12)
    assert di > 0.80
    assert cert.measurement_selftest_fidelity(2.0, "1sdi") == 1.0
    assert cert.measurement_selftest_fidelity(2 * math.sqrt(2), "di") == 1.0
    with pytest.raises(ValueError):
        cert.measurement_selftest_fidelity(2.1, "1sdi")


def test_planner_quoted_steering_point():
    res = cert.plan(2 / 3, 0.75, "1sdi", "steering", True, epsilon=0.25)
    assert res.feasible
    assert res.params.q == pytest.approx(34.4, abs=0.5)
    assert res.params.x == pytest.approx(1.0, abs=1e-6)
    assert res.certificate.copies <= 1.2e5
    assert res.certificate.fidelity >= 2 / 3


def test_planner_chsh_points():
    eps = 2 * math.sqrt(2) - 2.49
    res = cert.plan(2 / 3, 0.75, "1sdi", "chsh", True, epsilon=eps)
    assert res.feasible and res.certificate.copies <= 1e6
    eps2 = 2 * math.sqrt(2) - 2.73
    res2 = cert.plan(2 / 3, 0.6, "1sdi", "chsh", False, epsilon=eps2)
    assert res2.feasible and res2.certificate.copies <= 1e8


def test_planner_free_epsilon_minimizes_copies():
    res = cert.plan(2 / 3, 0.75, "1sdi", "steering", True)
    assert res.feasible
    # the free optimum must not be worse than the quoted fixed-eps point
    fixed = cert.plan(2 / 3, 0.75, "1sdi", "steering", True, epsilon=0.25)
    assert res.certificate.copies <= fixed.certificate.copies


def test_planner_infeasible_reported():
    res = cert.plan(0.99, 0.5, "1sdi", "steering", True, max_copies=100)
    assert not res.feasible
    assert "100" in res.reason
    res2 = cert.plan(0.999999, 0.0, "1sdi", "steering", True, epsilon=0.9)
    assert not res2.feasible


def test_plan_holds_returned_copies_to_limit():
    # At the q that plan returns, this point needs 174601599 copies, two
    # more than at the q its search solved for.
    targets = (0.5873479283597857, 0.5, "di", "chsh", False)
    eps = 0.14065298639990395
    assert not cert.plan(*targets, epsilon=eps, max_copies=174601597).feasible
    res = cert.plan(*targets, epsilon=eps, max_copies=174601599)
    assert res.feasible and res.certificate.copies == cert.required_copies(res.params) == 174601599


def test_planner_validates_inputs():
    with pytest.raises(ValueError, match="alpha must be positive"):
        cert.plan(0.7, 0.6, "1sdi", "steering", True, alpha=-1)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match=r"epsilon must sit in \(0, 1\)"):
            cert.plan(0.7, 0.6, "1sdi", "steering", True, epsilon=eps)
    for limit in (math.nan, 0.0, -5.0):
        with pytest.raises(ValueError, match="max copies must be at least 1"):
            cert.plan(0.7, 0.6, "1sdi", "steering", True, max_copies=limit)


def _meets(trust, inequality, iid, eps, q, x, target_f, target_p, alpha):
    c = cert.fidelity_bound(cert.CertificateParams(trust, inequality, iid, eps, q, x, alpha))
    return c.fidelity >= target_f and c.probability >= target_p and not c.vacuous


def _reference_min_q(trust, inequality, iid, eps, x, target_f, target_p, alpha, q_hi=1e9):
    # Reference: bisection on q to 1e-9 relative, deciding on one full
    # certificate per point, through its clamped fields and vacuous flag.
    def ok(q):
        return _meets(trust, inequality, iid, eps, q, x, target_f, target_p, alpha)

    if not ok(q_hi):
        return None
    lo, hi = 1.0, q_hi
    if ok(lo):
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


def test_min_q_matches_certificate_bisection():
    # The closed form and the bisection land on different floats near the
    # same root, so the check is: the same decision, a certified q no
    # larger than the bisection's, and q (1 - 1e-9), the bisection's own
    # resolution, not certified.
    settings = [(t, i, iid) for t, i in (("1sdi", "steering"), ("1sdi", "chsh"), ("di", "chsh")) for iid in (True, False)]
    grid = itertools.product(
        settings,
        (1e-3, 1.2e-3, 0.01, 0.05, 0.1, 0.3, 0.6, 0.9),
        (0.05, 1.0, 16.0),
        (0.0, 0.6, 0.75),
        (0.5, 2 / 3, 0.7, 0.9, 0.999),
        (None, 1e4),
    )
    outcomes = {"floor": 0, "feasible": 0, "infeasible": 0, "vacuous": 0}
    for (trust, inequality, iid), eps, x, target_p, target_f, alpha in grid:
        alpha = alpha or cert.default_alpha(trust, inequality)
        args = (trust, inequality, iid, eps, x, target_f, target_p, alpha)
        expected = _reference_min_q(*args)
        q = cert._min_q_for_targets(*args[1:])
        assert (q is None) == (expected is None), args
        if expected is None:
            vacuous = cert.fidelity_bound(cert.CertificateParams(trust, inequality, iid, eps, 1e9, x, alpha)).vacuous
            outcomes["vacuous" if vacuous else "infeasible"] += 1
            continue
        assert _meets(trust, inequality, iid, eps, q, x, target_f, target_p, alpha), (args, q)
        assert q <= expected, (args, q, expected)
        if q == 1.0:
            outcomes["floor"] += 1
            continue
        assert not _meets(trust, inequality, iid, eps, q * (1.0 - 1e-9), x, target_f, target_p, alpha), (args, q)
        outcomes["feasible"] += 1
    assert min(outcomes.values()) > 0, outcomes


#: The ten benchmark plans at F = 2/3 as the bisection planner chose them:
#: (trust, inequality, iid, fixed eps or None, confidence) -> (eps, x, copies, q).
BISECTION_PLANS = {
    ("1sdi", "steering", True, 0.25, 0.75): (0.25, 1.0, 104771, 34.363636410156076),
    ("1sdi", "steering", False, 0.08, 0.6): (0.08, 0.9578697203668957, 2313043, 19.555774043305906),
    ("1sdi", "chsh", True, 2 * math.sqrt(2) - 2.49, 0.75): (0.3384271247461901, 1.2795226740961827, 173905, 42.378552169014334),
    ("1sdi", "chsh", False, 2 * math.sqrt(2) - 2.73, 0.6): (0.09842712474619031, 1.0208485657720223, 1934809, 15.731861176398821),
    ("1sdi", "steering", True, None, 0.75): (0.08727609692162908, 0.5684612676845922, 729, 1.000000001),
    ("1sdi", "chsh", True, None, 0.75): (0.07332904312332808, 0.530578361627298, 2065, 1.000000001),
    ("di", "chsh", True, None, 0.75): (0.0581366880612156, 0.4872810742350119, 3603, 1.047624186844919),
    ("1sdi", "steering", False, None, 0.6): (0.028971641004567606, 0.6702283913319973, 45247, 1.000000001),
    ("1sdi", "chsh", False, None, 0.6): (0.025796466956848268, 0.6538051609376406, 128513, 1.0571522041089791),
    ("di", "chsh", False, None, 0.6): (0.019298700504635617, 0.6165111540786282, 227303, 1.042580912886747),
}


@pytest.mark.parametrize("key", list(BISECTION_PLANS), ids=lambda key: "-".join(map(str, key[:3])) + ("-free" if key[3] is None else "-fixed"))
def test_plan_matches_bisection_planner(key):
    trust, inequality, iid, eps, confidence = key
    epsilon, x, copies, q = BISECTION_PLANS[key]
    res = cert.plan(2 / 3, confidence, trust, inequality, iid, epsilon=eps)
    assert res.feasible
    assert (res.params.epsilon, res.params.x, res.certificate.copies) == (epsilon, x, copies)
    assert res.params.q == pytest.approx(q, rel=1e-9, abs=0.0)


def _exhaustive_plan(target_f, target_p, trust, inequality, iid, epsilon=None, max_copies=None, alpha=None):
    # Reference: the planner before its branch and bound, which calls
    # _min_q_for_targets at every point of the eps x x grid.
    if not 0.0 < target_f < 1.0:
        raise ValueError("target fidelity must sit in (0, 1)")
    if not 0.0 <= target_p < 1.0:
        raise ValueError("target probability must sit in [0, 1)")
    if max_copies is not None and not max_copies >= 1.0:
        raise ValueError("max copies must be at least 1")
    alpha_value = alpha if alpha is not None else cert.default_alpha(trust, inequality)

    def best_over_x(eps):
        cert.CertificateParams(trust, inequality, iid, eps, 1.0, 1.0, alpha_value)
        best = None
        x_lo, x_hi = 0.05, 16.0
        if target_p > 0.0:
            x_lo = max(x_lo, min(math.log(1.0 - target_p) / math.log(eps), x_hi))
        for x in [x_lo * (x_hi / x_lo) ** (t / 39.0) for t in range(40)]:
            q = cert._min_q_for_targets(inequality, iid, eps, x, target_f, target_p, alpha_value)
            if q is None:
                continue
            q *= 1.0 + 1e-9
            k = cert._copies(inequality, iid, eps, q, x)
            if best is None or k < best[0] or (k == best[0] and (q, x) < (best[1], best[2])):
                best = (k, q, x)
        return best

    if epsilon is not None:
        eps_grid = [float(epsilon)]
    else:
        eps_grid = [1e-3 * (0.999 / 1e-3) ** (t / 119.0) for t in range(120)]
    best = None
    for eps in eps_grid:
        found = best_over_x(eps)
        if found is None or (max_copies is not None and found[0] > max_copies):
            continue
        key = (found[0], eps, found[1], found[2])
        if best is None or key < best:
            best = key
    if best is None:
        reason = "fidelity/probability targets unreachable"
        if max_copies is not None:
            reason += f" within {max_copies:g} copies"
        reason += f" for {trust}/{inequality} ({'iid' if iid else 'non-iid'})"
        return cert.PlanResult(False, None, None, reason)
    k, eps, q, x = best
    params = cert.CertificateParams(trust, inequality, iid, eps, q, x, alpha)
    c = cert.fidelity_bound(params)
    if c.fidelity < target_f or c.probability < target_p:
        return cert.PlanResult(False, None, None, "re-verification failed at the optimum")
    return cert.PlanResult(True, params, c)


_SETTINGS = (("1sdi", "steering"), ("1sdi", "chsh"), ("di", "chsh"))


def _random_targets(count, seed=17):
    # Typical and near-boundary targets: free and fixed eps, copy limits,
    # explicit alphas, P = 0, and targets no grid point reaches.  Near the
    # boundary the fidelity target sits a relative 1e-14 to 1e-2 inside
    # what alpha * eps allows at the fixed eps, where the floors are tight.
    rng = np.random.default_rng(seed)
    for _ in range(count):
        trust, inequality = _SETTINGS[rng.integers(3)]
        iid = bool(rng.integers(2))
        alpha = float(10 ** rng.uniform(-2, 1)) if rng.random() < 0.3 else None
        eps = None if rng.random() < 0.5 else float(10 ** rng.uniform(-4, -0.01))
        limit = float(10 ** rng.uniform(0, 9)) if rng.random() < 0.3 else None
        kind = rng.integers(4)
        if kind == 0:
            target_f = 2 / 3
        elif kind == 1:
            target_f = float(rng.uniform(0.01, 0.999999))
        else:
            a = alpha or cert.default_alpha(trust, inequality)
            e = eps or float(10 ** rng.uniform(-3, -0.5))
            inner = a * e * (1 + 10 ** rng.uniform(-14, -2))
            target_f = 1 - (inner if iid else math.sqrt(inner))
            if not 0 < target_f < 1:
                target_f = 0.9
        target_p = (0.0, 0.6, 0.75, float(rng.uniform(0, 0.99)))[rng.integers(4)]
        yield (target_f, target_p, trust, inequality, iid), dict(epsilon=eps, max_copies=limit, alpha=alpha)


def _plan_doc(result):
    return (
        result.feasible,
        result.reason,
        result.params,
        None if result.certificate is None else result.certificate.to_json(),
    )


def test_plan_matches_exhaustive_grid_search():
    seen = {"free": 0, "fixed": 0, "limit": 0, "alpha": 0, "p0": 0, "feasible": 0, "infeasible": 0}
    for args, kwargs in _random_targets(320):
        expected = _exhaustive_plan(*args, **kwargs)
        assert _plan_doc(cert.plan(*args, **kwargs)) == _plan_doc(expected), (args, kwargs)
        seen["fixed" if kwargs["epsilon"] is not None else "free"] += 1
        seen["limit"] += kwargs["max_copies"] is not None
        seen["alpha"] += kwargs["alpha"] is not None
        seen["p0"] += args[1] == 0.0
        seen["feasible" if expected.feasible else "infeasible"] += 1
    assert min(seen.values()) >= 20, seen


def test_q_floor_bounds_copy_count():
    # The floor's copy count never exceeds the count at the q that
    # _min_q_for_targets returns, at the fidelity-only r (the row floor)
    # and at the point's own r.
    grid = itertools.product(
        _SETTINGS, (True, False), (1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.6, 0.9),
        (0.05, 0.5, 1.0, 4.0, 16.0), (0.0, 0.6, 0.75), (0.5, 2 / 3, 0.8, 0.95),
    )
    checked = 0
    for (trust, inequality), iid, eps, x, target_p, target_f in grid:
        alpha = cert.default_alpha(trust, inequality)
        q = cert._min_q_for_targets(inequality, iid, eps, x, target_f, target_p, alpha)
        rs = [1.0 - target_f]
        if not iid:
            rs.append(min(rs[0], 1.0 - target_p / (1.0 - eps**x)))
        for r in rs:
            floor = cert._q_floor(inequality, iid, eps, r, alpha)
            if q is None:
                continue
            assert floor is not None, (trust, inequality, iid, eps, x, target_p, target_f)
            assert floor <= q
            assert cert._copies(inequality, iid, eps, floor, x) <= cert._copies(inequality, iid, eps, q, x)
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("target_p", (0.0, 0.6, 0.75, 0.9))
@pytest.mark.parametrize("iid", (True, False))
@pytest.mark.parametrize("trust, inequality", _SETTINGS)
def test_plan_keeps_a_copy_count_equal_to_the_limit(trust, inequality, iid, target_p):
    # With the limit at the plan's own copy count the plan stays: a floor
    # equal to the limit (at q = 1 the floor is exact) is no reason to prune.
    res = cert.plan(2 / 3, target_p, trust, inequality, iid)
    assert res.feasible
    at_limit = cert.plan(2 / 3, target_p, trust, inequality, iid, max_copies=res.certificate.copies)
    assert _plan_doc(at_limit) == _plan_doc(res)
    below = cert.plan(2 / 3, target_p, trust, inequality, iid, max_copies=res.certificate.copies - 1)
    assert not below.feasible or below.certificate.copies < res.certificate.copies


@pytest.mark.parametrize("iid", (True, False))
@pytest.mark.parametrize("trust, inequality", _SETTINGS)
def test_free_plan_calls_few_min_q(monkeypatch, trust, inequality, iid):
    calls = []
    min_q = cert._min_q_for_targets

    def counted(*args):
        calls.append(args)
        return min_q(*args)

    monkeypatch.setattr(cert, "_min_q_for_targets", counted)
    assert cert.plan(2 / 3, 0.75 if iid else 0.6, trust, inequality, iid).feasible
    # The exhaustive grid takes 120 * 40 = 4800.
    assert 1 <= len(calls) <= 200


def test_werner_thresholds():
    v_iid = cert.werner_visibility_threshold(iid=True)
    assert v_iid == pytest.approx(0.875, abs=5e-3)
    v_non = cert.werner_visibility_threshold(iid=False)
    assert v_non == pytest.approx(0.9565, abs=5e-3)


def test_trace_distance_table_consistency():
    # sqrt(2 alpha) reproduces the quoted trace-distance coefficients
    pairs = [
        (cert.DEFAULT_ALPHA[("1sdi", "steering")], ("1sdi", "steering", "state")),
        (cert.MEASUREMENT_ALPHA["1sdi"], ("1sdi", "steering", "measurement")),
        (cert.DEFAULT_ALPHA[("1sdi", "chsh")], ("1sdi", "chsh", "state")),
        (cert.DEFAULT_ALPHA[("di", "chsh")], ("di", "chsh", "state")),
        (cert.MEASUREMENT_ALPHA["di"], ("di", "chsh", "measurement")),
    ]
    for alpha, key in pairs:
        coeff = cert.TRACE_DISTANCE_COEFFICIENTS[key]
        assert math.sqrt(2 * alpha) == pytest.approx(coeff, rel=0.02)


def test_certificate_serialization():
    c = cert.fidelity_bound(params())
    doc = c.to_json()
    assert doc["schema"] == "cert/1"
    assert doc["formula"] == "steering-iid"
    assert doc["params"]["alpha"] == 1.26
    assert doc["params"]["alpha_source"] == "paper-default"


def test_alpha_source_names_where_alpha_comes_from():
    # without a source: the published constant when no alpha is given,
    # "explicit" for a number
    assert (params().alpha, params().alpha_source) == (1.26, "paper-default")
    assert (params(alpha=0.2).alpha, params(alpha=0.2).alpha_source) == (0.2, "explicit")
    derived = cert.CertificateParams("1sdi", "steering", True, 0.25, 35.0, 1.0, 1.3035, "sdp-derived")
    assert derived.alpha_source == "sdp-derived"
    assert cert.CertificateParams("1sdi", "steering", True, 0.25, 35.0, 1.0, 1.26, "paper-default").alpha == 1.26
    for alpha, source in [(1.3, "paper"), (1.3, "derived"), (None, ""), (0.2, "paper-default"), (None, "explicit"), (None, "sdp-derived")]:
        with pytest.raises(ValueError, match="alpha"):
            cert.CertificateParams("1sdi", "steering", True, 0.25, 35.0, 1.0, alpha, source)
    # the planner records the same sources
    targets = (2 / 3, 0.75, "1sdi", "steering", True)
    for kwargs, source in [({}, "paper-default"), ({"alpha": 1.0}, "explicit"), ({"alpha": 1.0, "alpha_source": "sdp-derived"}, "sdp-derived")]:
        res = cert.plan(*targets, epsilon=0.25, **kwargs)
        assert res.feasible and res.params.alpha == kwargs.get("alpha", 1.26)
        assert res.params.alpha_source == res.certificate.to_json()["params"]["alpha_source"] == source
    with pytest.raises(ValueError):
        cert.plan(*targets, epsilon=0.25, alpha=1.0, alpha_source="paper-default")


def test_sweep_rows():
    rows = cert.sweep_rows("di", "chsh", (0.1, 0.2, 0.3), q=10.0, x=1.0)
    assert len(rows) == 3
    assert rows[0]["fidelity_iid"] > rows[1]["fidelity_iid"] > rows[2]["fidelity_iid"]
    assert rows[0]["copies_iid"] > rows[1]["copies_iid"]
    assert all(r["fidelity_noniid"] <= r["fidelity_iid"] + 1e-12 for r in rows)

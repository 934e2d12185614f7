"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criterion 3 re-derives the self-testing constants by
solving the moment-matrix programs at the default word caps (14x14
one-sided, 49x49 fully untrusted); the whole suite takes a few seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from telecert import cert, cli, npa, protosim, qcore as qc, sdp


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_isometry_expression_equivalence():
    """Moment-functional route equals the direct extraction fidelity to
    1e-9 on 200 random (state, model) pairs per trust setting."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0

    funcs_1sdi = {o: npa.steering_fidelity_functional(o) for o in ("state", "ZB", "XB")}
    keys_1sdi = {o: list(f) for o, f in funcs_1sdi.items()}
    for _ in range(200):
        d = int(rng.choice([2, 4]))
        psi = qc.haar_random_vector(2 * d, rng)
        model = qc.random_projective_model(d, rng)
        for objective in ("state", "ZB", "XB"):
            moments = npa.evaluate_moments("1sdi", psi, model, keys_1sdi[objective])
            via = npa.evaluate_functional(funcs_1sdi[objective], moments)
            if objective == "state":
                psi2 = psi
            else:
                setting = 0 if objective == "ZB" else 1
                pauli = qc.SIGMA_Z if objective == "ZB" else qc.SIGMA_X
                psi2 = np.kron(pauli, model.bob_observable(setting)) @ psi
            direct = qc.fidelity_to_pure(
                qc.swap_isometry_extract(psi2, model), qc.bell_vector()
            )
            worst = max(worst, abs(via - direct))

    funcs_di = {o: npa.di_fidelity_functional(o) for o in ("state", "ZAZB", "XAXB", "ZAXB")}
    keys_di = {o: list(f) for o, f in funcs_di.items()}
    paulis = {"Z": qc.SIGMA_Z, "X": qc.SIGMA_X}
    for _ in range(200):
        da, db = int(rng.choice([2, 4])), int(rng.choice([2, 4]))
        psi = qc.haar_random_vector(da * db, rng)
        model = qc.random_projective_model(db, rng, alice_dim=da)
        for objective in ("state", "ZAZB", "XAXB", "ZAXB"):
            moments = npa.evaluate_moments("di", psi, model, keys_di[objective])
            via = npa.evaluate_functional(funcs_di[objective], moments)
            if objective == "state":
                psi2 = psi
                target = qc.rotated_bell_vector()
            else:
                ma = model.alice_observable(0 if objective[0] == "Z" else 1)
                nb = model.bob_observable(0 if objective[2] == "Z" else 1)
                psi2 = np.kron(ma, nb) @ psi
                target = np.kron(paulis[objective[0]], paulis[objective[2]]) @ qc.rotated_bell_vector()
            direct = qc.fidelity_to_pure(
                qc.swap_isometry_extract(psi2, model), target
            )
            worst = max(worst, abs(via - direct))

    elapsed = time.time() - t0
    report(
        "1 isometry-expression equivalence",
        worst < 1e-9 and elapsed < 60,
        f"max deviation {worst:.2e} over 400 pairs x all expressions, {elapsed:.1f}s",
    )


def test_criterion_2_gamma_structure():
    """81x81 measurement-case moment matrix; documented generated
    constraint count above 20000; 50 random instantiations satisfy every
    constraint to 1e-10 and are PSD to -1e-9."""
    words = npa.generate_words("di", 4)
    problem = npa.build_moment_problem("di", words, "XAXB")
    size_ok = problem.dim == 81 and len(words) == 81

    # Documented counting convention: one constraint per unordered pair of
    # distinct scalar cells of the full matrix carrying the same canonical
    # moment (the deduplicated chain form is 6272).
    generated = problem.generated_equality_count()
    count_ok = generated == 116280 and generated > 20000 and len(problem.equality_chains()) == 6272

    rng = np.random.default_rng(7)
    worst_residual = 0.0
    worst_eig = 0.0
    for _ in range(50):
        da, db = int(rng.choice([2, 4])), int(rng.choice([2, 4]))
        psi = qc.haar_random_vector(da * db, rng)
        model = qc.random_projective_model(db, rng, alice_dim=da)
        gamma = npa.instantiate_gamma(model, psi, words)
        result = npa.check_gamma(problem, gamma)
        worst_residual = max(worst_residual, result["max_equality_residual"])
        worst_eig = min(worst_eig, result["min_eigenvalue"])
    models_ok = worst_residual <= 1e-10 and worst_eig >= -1e-9
    report(
        "2 moment-matrix structure",
        size_ok and count_ok and models_ok,
        f"dim 81, generated {generated}, chains 6272, residual {worst_residual:.1e}, min eig {worst_eig:.1e}",
    )


GRID = (0.01, 0.02, 0.05, 0.1, 0.2)


@pytest.mark.extended
def test_criterion_3_alpha_rederivation():
    """Self-testing constants from the solver on the stated grid, inside
    the published windows; Werner feasibility ceiling respected; the
    sqrt(2 alpha) trace-distance conversion matches the quoted coefficient
    table on the published constant pairs.  The 49x49 fully untrusted
    measurement solves take most of its time, under a second in all."""
    t0 = time.time()
    checks = []

    state_windows = {
        ("1sdi", "steering"): (1.13, 1.39),
        ("di", "chsh"): (1.07, 1.31),
        ("1sdi", "chsh"): (0.81, 0.99),
    }
    derived = {}
    for (setting, inequality), (lo, hi) in state_windows.items():
        curve = sdp.min_fidelity_curve(setting, "state", inequality, GRID)
        alpha = sdp.fit_alpha(curve)
        derived[(setting, inequality, "state")] = alpha
        checks.append((f"state {setting}/{inequality} alpha {alpha:.4f} in [{lo},{hi}]", lo <= alpha <= hi))
        if inequality == "steering":
            ceiling_ok = all(f <= 1 - 0.375 * e + 1e-5 for e, f in curve)
            checks.append(("steering curve under the Werner ceiling", ceiling_ok))

    meas_windows = {"1sdi": (3.10 * 0.85, 3.10 * 1.15), "di": (3.70 * 0.85, 3.70 * 1.15)}
    for setting, (lo, hi) in meas_windows.items():
        inequality = "steering" if setting == "1sdi" else "chsh"
        alphas = []
        for objective in sdp.MEASUREMENT_OBJECTIVES[setting]:
            curve = sdp.min_fidelity_curve(setting, objective, inequality, GRID)
            alphas.append(sdp.fit_alpha(curve))
        alpha = max(alphas)
        derived[(setting, inequality, "measurement")] = alpha
        checks.append((f"measurement {setting} alpha {alpha:.4f} in [{lo:.3f},{hi:.3f}]", lo <= alpha <= hi))

    # Trace-distance table: the published fidelity slopes convert to the
    # published trace-distance coefficients via sqrt(2 alpha) within 2%.
    keys = [
        ("1sdi", "steering", "state"),
        ("1sdi", "steering", "measurement"),
        ("1sdi", "chsh", "state"),
        ("di", "chsh", "state"),
        ("di", "chsh", "measurement"),
    ]
    for key in keys:
        alpha = cert.PUBLISHED_BOUNDS[key].alpha
        coeff = cert.TRACE_DISTANCE_COEFFICIENTS[key]
        ok = abs(math.sqrt(2 * alpha) - coeff) <= 0.02 * coeff
        checks.append((f"sqrt(2*{alpha}) ~ {coeff}", ok))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(name for name, flag in checks if not flag) or (
        "derived " + ", ".join(f"{k[0]}/{k[1]}/{k[2]}={v:.3f}" for k, v in derived.items())
    )
    report("3 alpha re-derivation", ok, f"{detail}; {time.time()-t0:.0f}s")


def test_criterion_4_discussion_thresholds():
    """Planner reproduces the quoted operating points, Werner visibility
    thresholds, and the measurement self-test levels."""
    checks = []

    res = cert.plan(2 / 3, 0.75, "1sdi", "steering", True, epsilon=0.25)
    checks.append(("steering iid @1.75", res.feasible and res.certificate.copies <= 1.2e5))
    res = cert.plan(2 / 3, 0.6, "1sdi", "steering", False, epsilon=0.08)
    checks.append(("steering non-iid @1.92", res.feasible and res.certificate.copies <= 1e8))
    res = cert.plan(2 / 3, 0.75, "1sdi", "chsh", True, epsilon=2 * math.sqrt(2) - 2.49)
    checks.append(("chsh iid @2.49", res.feasible and res.certificate.copies <= 1e6))
    res = cert.plan(2 / 3, 0.6, "1sdi", "chsh", False, epsilon=2 * math.sqrt(2) - 2.73)
    checks.append(("chsh non-iid @2.73", res.feasible and res.certificate.copies <= 1e8))

    v_iid = cert.werner_visibility_threshold(iid=True)
    v_non = cert.werner_visibility_threshold(iid=False)
    checks.append((f"werner iid threshold {v_iid:.3f} ~ 0.88", abs(v_iid - 0.88) <= 0.01))
    checks.append((f"werner non-iid threshold {v_non:.3f} ~ 0.96", abs(v_non - 0.96) <= 0.01))

    checks.append(("measurement 1sdi @1.94 > 0.80", cert.measurement_selftest_fidelity(1.94, "1sdi") > 0.80))
    checks.append(("measurement di @2.78 > 0.80", cert.measurement_selftest_fidelity(2.78, "di") > 0.80))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(name for name, flag in checks if not flag) or f"v_iid={v_iid:.4f}, v_noniid={v_non:.4f}"
    report("4 discussion thresholds", ok, detail)


def test_criterion_5_protocol_completeness():
    """Honest source accepted 100/100; visibility-0.95 source at
    epsilon 0.15 and K ~ 1e4 accepted in at least 95% of 200 runs."""
    t0 = time.time()
    params = cert.CertificateParams("1sdi", "steering", True, 0.15, 5.45, 1.0)
    k = protosim.adjusted_copies(params)

    rng = np.random.default_rng(100)
    honest = protosim.werner_source("two-basis", 1.0)
    honest_accepted = sum(
        protosim.run_protocol(honest, params, rng)[0].accepted for _ in range(100)
    )

    werner = protosim.werner_source("two-basis", 0.95)
    werner_accepted = sum(
        protosim.run_protocol(werner, params, rng)[0].accepted for _ in range(200)
    )
    elapsed = time.time() - t0
    report(
        "5 protocol completeness",
        honest_accepted == 100 and werner_accepted >= 190 and 5e3 <= k <= 2e4 and elapsed < 120,
        f"honest {honest_accepted}/100, werner(0.95) {werner_accepted}/200, K={k}, {elapsed:.1f}s",
    )


def test_criterion_6_protocol_soundness():
    """Adversarial suites at desk scale: accepted runs violate the
    certified bound no more often than the certificate failure
    probability plus a 3-sigma binomial margin."""
    t0 = time.time()
    suites = []

    params_iid = cert.CertificateParams("1sdi", "steering", True, 0.3, 13.7, 1.0)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.werner_source("two-basis", 0.88), params_iid, 500, seed=600
    )
    suites.append(("iid low-visibility", stats, protosim.adjusted_copies(params_iid)))

    params_bad = cert.CertificateParams("1sdi", "steering", False, 0.3, 9.7, 1.0)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.one_bad_pair_source("two-basis", k, int(rng.integers(k))),
        params_bad,
        500,
        seed=601,
    )
    suites.append(("non-iid one-bad-pair", stats, protosim.adjusted_copies(params_bad)))

    params_drift = cert.CertificateParams("1sdi", "steering", False, 0.35, 8.0, 1.0)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.drifting_visibility_source("two-basis", k, 1.0, 0.8),
        params_drift,
        500,
        seed=602,
    )
    suites.append(("non-iid drifting-visibility", stats, protosim.adjusted_copies(params_drift)))

    ok = True
    details = []
    for name, stats, k in suites:
        honored = stats.honored()
        scale_ok = 5e3 <= k <= 2e5
        ok = ok and honored and scale_ok and stats.trials >= 500
        details.append(
            f"{name}: K={k}, accepted {stats.accepted}/{stats.trials}, "
            f"violations {stats.bound_violations} (allowed {(1-stats.certificate_probability):.2f}+3sigma)"
        )
    report("6 protocol soundness", ok, "; ".join(details) + f"; {time.time()-t0:.0f}s")


def test_criterion_7_teleportation_consistency():
    """Empirical teleportation fidelity equals (1+v)/2 and clears both the
    entangled-state fidelity and the certified bound."""
    t0 = time.time()
    rng = np.random.default_rng(700)
    params = cert.CertificateParams("1sdi", "steering", True, 0.2, 8.0, 1.0)
    ok = True
    details = []
    for v in (0.7, 0.9, 1.0):
        resource = qc.werner_state(v)
        n = 300
        samples = [qc.teleport_average_fidelity(resource, 1, rng) for _ in range(n)]
        emp = float(np.mean(samples))
        sigma = float(np.std(samples) / math.sqrt(n))
        expected = (1 + v) / 2
        close = abs(emp - expected) <= 3 * sigma + 1e-9
        beats_state = emp + 3 * sigma + 1e-9 >= (1 + 3 * v) / 4
        ok = ok and close and beats_state
        details.append(f"v={v}: {emp:.4f} vs {(expected):.4f}")
        if v < 1.0:
            protocol_eps = 2 * (1 - v) + 0.05
            params_v = cert.CertificateParams("1sdi", "steering", True, protocol_eps, 8.0, 1.0)
            source = protosim.werner_source("two-basis", v)
            transcript, certificate = protosim.run_protocol(source, params_v, rng)
            if transcript.accepted:
                rep = protosim.teleport_with_certificate(source, transcript, certificate, 50, rng)
                ok = ok and rep["empirical_fidelity"] + 1e-9 >= rep["certified_bound"]
    elapsed = time.time() - t0
    report("7 teleportation consistency", ok and elapsed < 60, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_8_figure_data(tmp_path, capsys):
    """Emitted certification curves are monotone and the CHSH-certificate
    crossings line up with the criterion-4 operating points within the
    grid resolution."""
    out_csv = tmp_path / "figure2.csv"
    crossings_path = tmp_path / "crossings.json"
    grid_step = 0.02
    grid = ",".join(repr(round(grid_step * k, 2)) for k in range(1, 31))
    code = cli.main(
        [
            "figure2", "--eps-grid", grid,
            "--out", str(out_csv), "--crossings-out", str(crossings_path),
        ]
    )
    capsys.readouterr()
    lines = out_csv.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]

    ok = code == 0
    details = []
    for tag in ("1sdi_iid", "1sdi_noniid", "di_iid", "di_noniid"):
        f_col = [float(r[f"F_{tag}"]) for r in rows]
        k_col = [float(r[f"K_{tag}"]) for r in rows]
        mono_f = all(a >= b - 1e-12 for a, b in zip(f_col, f_col[1:]))
        mono_k = all(a >= b for a, b in zip(k_col, k_col[1:]))
        ok = ok and mono_f and mono_k
        if not (mono_f and mono_k):
            details.append(f"{tag} not monotone")

    crossings = json.loads(crossings_path.read_text())["crossings"]
    for tag, op_violation in (("1sdi_iid", 2.49), ("1sdi_noniid", 2.73)):
        eps_cross = crossings[tag]["epsilon"]
        op_eps = 2 * math.sqrt(2) - op_violation
        agree = eps_cross is not None and abs(eps_cross - op_eps) <= grid_step + 1e-12
        ok = ok and agree
        details.append(f"{tag} crossing at violation {2*math.sqrt(2)-eps_cross:.3f} vs {op_violation}")
    report("8 figure data", ok, "; ".join(details))

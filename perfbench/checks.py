"""Reference values and output checks for the benchmark.

Nothing here imports telecert.  Every expected value is recomputed from
a closed form (the certificate and copy-count formulas, the Werner-model
fidelities, Born-rule statistics) or is a property the method must have
(monotone curves, convex value functions, minimal plans), so a check
never passes by comparing the program with a copy of its own output.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
CHSH_MAX = 2.0 * SQRT2

#: Published self-testing slopes of the state bound (the paper's
#: constants; the program must default to the same values).
PAPER_ALPHA = {("1sdi", "steering"): 1.26, ("1sdi", "chsh"): 0.90, ("di", "chsh"): 1.19}

#: Criterion-3 windows for derived alphas.
STATE_WINDOWS = {("1sdi", "steering"): (1.13, 1.39), ("di", "chsh"): (1.07, 1.31), ("1sdi", "chsh"): (0.81, 0.99)}
MEASUREMENT_WINDOWS = {"1sdi": (3.10 * 0.85, 3.10 * 1.15), "di": (3.70 * 0.85, 3.70 * 1.15)}

#: Solver accuracy allowed on a certified fidelity (the solve contract
#: asks for a relative gap of 1e-6).
SOLVER_TOL = 1e-6


def max_violation(inequality: str) -> float:
    return 2.0 if inequality == "steering" else CHSH_MAX


def werner_fidelity(v: float) -> float:
    """Extraction fidelity of a (rotated) Werner pair with ideal devices."""
    return (1.0 + 3.0 * v) / 4.0


def werner_visibility_at(inequality: str, eps: float) -> float:
    """Visibility whose Born-rule statistic sits exactly at max - eps."""
    top = max_violation(inequality)
    return (top - eps) / top


def copies(inequality: str, iid: bool, eps: float, q: float, x: float) -> int:
    """Copy-count formula K = ceil(base q^2 x ln(1/eps) / eps^2 + 1), K - 1 even."""
    if inequality == "steering":
        base = 4.0 if iid else 16.0
    else:
        base = 8.0 if iid else 32.0
    k = math.ceil(base * q * q * x / (eps * eps) * math.log(1.0 / eps) + 1.0)
    return k + (k - 1) % 2


def protocol_copies(trust: str, inequality: str, iid: bool, eps: float, q: float, x: float) -> int:
    """Copies actually run: tested pairs split evenly into 2 or 4 subsets."""
    k = copies(inequality, iid, eps, q, x)
    groups = 2 if (inequality == "steering" or trust == "1sdi") else 4
    while (k - 1) % groups:
        k += 1
    return k


def certificate(trust, inequality, iid, eps, q, x, alpha=None):
    """Closed-form (fidelity, probability, vacuous) of the certificate."""
    if alpha is None:
        alpha = PAPER_ALPHA[(trust, inequality)]
    if iid:
        slack = (2.0 if inequality == "steering" else 4.0) * eps / q
        f = 1.0 - alpha * (slack + eps)
        p = 1.0 - eps**x
    else:
        log_term = math.log(1.0 / eps)
        if inequality == "steering":
            inner = 2.0 * eps / q + 0.5 * eps + (4.0 * q * q * x * eps * log_term + 2.0 * eps * eps) / (
                8.0 * q * q * x * log_term + eps * eps
            )
        else:
            inner = 4.0 * eps / q + 0.75 * eps + (
                4.0 * q * q * x * eps * log_term + (2.0 + SQRT2) * eps * eps
            ) / (16.0 * q * q * x * log_term + 2.0 * eps * eps)
        radical = math.sqrt(alpha * inner)
        f = 1.0 - radical
        p = (1.0 - eps**x) * (1.0 - radical)
    vacuous = f <= 0.0 or p <= 0.0
    return min(1.0, max(0.0, f)), min(1.0, max(0.0, p)), vacuous


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# Self-testing curves


def check_curve(label, curve, inequality, window=None):
    """A certified F_min(eps) curve of one objective.

    * F_min(eps) <= (1+3v)/4 at the Werner visibility v reaching the same
      violation, since that model is feasible for the program;
    * F_min is convex in eps with F_min(0) = 1, so the chord slopes
      (1 - F)/eps do not increase with eps;
    * alpha = max chord slope lies in the published window, if given.
    """
    failures = []
    pts = sorted((float(e), float(f)) for e, f in curve)
    for e, f in pts:
        ceiling = werner_fidelity(werner_visibility_at(inequality, e))
        if not 0.0 <= f <= ceiling + SOLVER_TOL:
            failures.append(f"{label}: F_min({e}) = {f!r} outside [0, Werner {ceiling:.6f}]")
    slopes = [(1.0 - f) / e for e, f in pts]
    for (e0, _), (e1, _), s0, s1 in zip(pts, pts[1:], slopes, slopes[1:]):
        if s1 > s0 + 2.0 * SOLVER_TOL / e0:
            failures.append(f"{label}: chord slope rises from {s0:.6f} at {e0} to {s1:.6f} at {e1}")
    if window is not None and slopes:
        lo, hi = window
        alpha = max(slopes)
        if not lo <= alpha <= hi:
            failures.append(f"{label}: alpha {alpha:.6f} outside [{lo:.3f}, {hi:.3f}]")
    return failures


def check_single_point_measurement(label, objective_values, eps, inequality, alpha_cap):
    """One-point measurement objectives: each under the Werner ceiling and
    its chord (1 - F)/eps at most the window's upper alpha."""
    failures = []
    for objective, f in objective_values.items():
        failures += check_curve(f"{label} {objective}", [(eps, f)], inequality)
        if (1.0 - f) / eps > alpha_cap:
            failures.append(f"{label} {objective}: chord {(1.0 - f) / eps:.4f} above {alpha_cap:.4f}")
    return failures


def check_agreement(label, value, reference, tol=SOLVER_TOL):
    if value is None or not abs(float(value) - float(reference)) <= tol:
        return [f"{label}: {value!r} differs from {reference!r} by more than {tol}"]
    return []


# ---------------------------------------------------------------------------
# Planner


def check_plan(label, row, trust, inequality, iid, target_f, target_p, max_copies=None):
    """A feasible plan re-verified by the closed forms, and locally minimal:
    unless q sits at its floor of 1, the same (eps, x) at q (1 - 1e-3)
    misses the target."""
    if row is None:
        return [f"{label}: no feasible plan"]
    eps, q, x = row["epsilon"], row["q"], row["x"]
    f, p, vacuous = certificate(trust, inequality, iid, eps, q, x)
    k = copies(inequality, iid, eps, q, x)
    failures = []
    if not (_close(row["fidelity"], f, 1e-12) and _close(row["probability"], p, 1e-12)):
        failures.append(f"{label}: reported (F, P) = ({row['fidelity']!r}, {row['probability']!r}), formula ({f!r}, {p!r})")
    if row["copies"] != k:
        failures.append(f"{label}: reported {row['copies']} copies, formula {k}")
    if vacuous or f < target_f or p < target_p:
        failures.append(f"{label}: (F, P) = ({f:.9f}, {p:.9f}) misses ({target_f:.9f}, {target_p})")
    if max_copies is not None and k > max_copies:
        failures.append(f"{label}: {k} copies above {max_copies:g}")
    if q > 1.0 + 1e-6:
        f_lo, p_lo, vac_lo = certificate(trust, inequality, iid, eps, q * (1.0 - 1e-3), x)
        if not vac_lo and f_lo >= target_f and p_lo >= target_p:
            failures.append(f"{label}: q = {q!r} is not minimal; q (1 - 1e-3) still meets the target")
    return failures


def check_threshold(label, value, expected, tol=0.01):
    if not abs(value - expected) <= tol:
        return [f"{label}: Werner threshold {value!r} not within {tol} of {expected}"]
    return []


def check_figure2(header, rows, crossings, target_f, grid_step=0.02, published=None):
    """Curves monotone in eps, recomputed from the closed form at each
    family's (q, x), and the 1sdi crossings at the published violations
    within one grid step."""
    failures = []
    published = published or {"1sdi_iid": 2.49, "1sdi_noniid": 2.73}
    eps_col = [float(r["epsilon"]) for r in rows]
    if eps_col != sorted(eps_col):
        failures.append("figure2: epsilon column not sorted")
    for tag, info in crossings.items():
        if info is None:
            failures.append(f"figure2: {tag} has no planned point")
            continue
        trust, stats = tag.split("_")
        iid = stats == "iid"
        f_col = [float(r[f"F_{tag}"]) for r in rows]
        k_col = [int(r[f"K_{tag}"]) for r in rows]
        if any(b > a + 1e-12 for a, b in zip(f_col, f_col[1:])):
            failures.append(f"figure2: F_{tag} rises with epsilon")
        if any(b > a for a, b in zip(k_col, k_col[1:])):
            failures.append(f"figure2: K_{tag} rises with epsilon")
        for e, f, k in zip(eps_col, f_col, k_col):
            ref_f, _, _ = certificate(trust, "chsh", iid, e, info["q"], info["x"])
            ref_k = copies("chsh", iid, e, info["q"], info["x"])
            if not _close(f, ref_f, 1e-12) or k != ref_k:
                failures.append(f"figure2: {tag} at eps {e}: ({f!r}, {k}) vs formula ({ref_f!r}, {ref_k})")
                break
        feasible = [e for e, f in zip(eps_col, f_col) if f >= target_f]
        if (max(feasible) if feasible else None) != info["epsilon"]:
            failures.append(f"figure2: {tag} crossing {info['epsilon']!r} is not the last feasible grid point")
    for tag, violation in published.items():
        info = crossings.get(tag)
        eps = info and info["epsilon"]
        if eps is None or abs((CHSH_MAX - eps) - violation) > grid_step + 1e-12:
            failures.append(f"figure2: {tag} crossing {eps!r} not within {grid_step} of violation {violation}")
    return failures


# ---------------------------------------------------------------------------
# Protocol soundness


def statistic_moments(inequality, trust, visibilities):
    """Born-rule mean and variance of one run's statistic when pair i has
    correlation v_i in every tested basis (ideal devices), averaged over
    the uniformly withheld pair.

    Two-basis runs: statistic = (1/n) sum of the K-1 tested correlations,
    n = (K-1)/2, whatever the split.  Four-setting CHSH runs: each of the
    four subsets of n = (K-1)/4 pairs contributes s_t <c> = v/sqrt(2).
    """
    k = len(visibilities)
    if inequality == "steering" or trust == "1sdi":
        n = (k - 1) / 2.0
        scale = 1.0 if inequality == "steering" else SQRT2
        total = math.fsum(visibilities)
        mean_v = total / k
        var_v = math.fsum((v - mean_v) ** 2 for v in visibilities) / k
        noise = math.fsum(1.0 - v * v for v in visibilities) * (1.0 - 1.0 / k)
        return scale * (total - mean_v) / n, scale * scale * (noise + var_v) / (n * n)
    v = visibilities[0]
    if any(w != v for w in visibilities):
        raise ValueError("four-setting moments are implemented for iid sources only")
    n = (k - 1) / 4.0
    return CHSH_MAX * v, 4.0 * (1.0 - 0.5 * v * v) / n


def source_visibilities(spec, k):
    source = spec["source"]
    if source == "honest":
        return [1.0] * k
    if source == "werner":
        return [spec["visibility"]] * k
    if source == "one-bad-pair":
        return [spec["visibility"]] * (k - 1) + [0.0]
    if source == "drift":
        v0, v1 = spec["visibility"], spec["v_end"]
        return [v0 + (v1 - v0) * i / (k - 1) for i in range(k)]
    raise ValueError(f"unknown source {source!r}")


def true_fidelity_range(spec):
    source = spec["source"]
    if source == "honest":
        return 1.0, 1.0
    if source == "werner":
        f = werner_fidelity(spec["visibility"])
        return f, f
    if source == "one-bad-pair":
        return werner_fidelity(0.0), werner_fidelity(spec["visibility"])
    v0, v1 = spec["visibility"], spec["v_end"]
    return werner_fidelity(min(v0, v1)), werner_fidelity(max(v0, v1))


def violation_allowance(accepted, violations, probability, sigmas=3.0):
    """Largest violation fraction a certificate of the given confidence
    permits among `accepted` runs: 1 - P plus a binomial margin."""
    p = max(violations / accepted, 1.0 / accepted)
    return (1.0 - probability) + sigmas * math.sqrt(p * (1.0 - p) / accepted)


def check_simulate(label, spec, summary, rows):
    """One `simulate` batch against its Born-rule and closed-form values."""
    trust, inequality, iid = spec["trust"], spec["inequality"], spec["iid"]
    eps, q, x = spec["eps"], spec["q"], spec["x"]
    failures = []
    k = protocol_copies(trust, inequality, iid, eps, q, x)
    f_cert, p_cert, _ = certificate(trust, inequality, iid, eps, q, x)
    if summary["copies"] != k:
        failures.append(f"{label}: {summary['copies']} copies, formula {k}")
    if not (_close(summary["certificate_fidelity"], f_cert, 1e-12) and _close(summary["certificate_probability"], p_cert, 1e-12)):
        failures.append(f"{label}: certificate ({summary['certificate_fidelity']!r}, {summary['certificate_probability']!r}) vs formula ({f_cert!r}, {p_cert!r})")
    if len(rows) != spec["trials"] or summary["trials"] != spec["trials"]:
        failures.append(f"{label}: {len(rows)} rows for {spec['trials']} trials")
        return failures

    threshold = max_violation(inequality) - eps
    accepted = [r for r in rows if r["verdict"] == "accept"]
    for r in rows:
        if (r["verdict"] == "accept") != (float(r["statistic"]) >= threshold):
            failures.append(f"{label}: trial {r['trial']} verdict {r['verdict']} at statistic {r['statistic']}")
            break
    if summary["accepted"] != len(accepted):
        failures.append(f"{label}: summary says {summary['accepted']} accepted, rows {len(accepted)}")

    lo, hi = true_fidelity_range(spec)
    violations = 0
    for r in accepted:
        true_f, cert_f = float(r["true_F"]), float(r["certified_F"])
        if not _close(cert_f, f_cert, 1e-12):
            failures.append(f"{label}: trial {r['trial']} certified {cert_f!r}, formula {f_cert!r}")
            break
        if not lo - 1e-9 <= true_f <= hi + 1e-9:
            failures.append(f"{label}: trial {r['trial']} true_F {true_f!r} outside [{lo!r}, {hi!r}]")
            break
        violations += true_f < cert_f - 1e-12
    if summary["bound_violations"] != violations:
        failures.append(f"{label}: summary says {summary['bound_violations']} violations, rows {violations}")
    if accepted and violations / len(accepted) > violation_allowance(len(accepted), violations, p_cert):
        failures.append(f"{label}: {violations}/{len(accepted)} bound violations exceed 1 - P + 3 sigma")

    # Mean statistic against its Born-rule value.  5 sigma rather than 4:
    # every evaluation of the benchmark repeats this check some 10^3
    # times, and a 4-sigma check would then fire on correct code a few
    # percent of the time.
    mean, var = statistic_moments(inequality, trust, source_visibilities(spec, k))
    stats = [float(r["statistic"]) for r in rows]
    observed = math.fsum(stats) / len(stats)
    sigma = math.sqrt(var / len(stats))
    if abs(observed - mean) > 5.0 * sigma + 1e-12:
        failures.append(f"{label}: mean statistic {observed:.6f} is {abs(observed - mean) / max(sigma, 1e-300):.1f} sigma from Born value {mean:.6f}")

    if spec.get("expect_accept"):
        # Completeness: rejections stay within the Gaussian tail of the
        # statistic at the planned margin, plus a 5-sigma binomial slack.
        p_reject = 0.5 * math.erfc((mean - threshold) / math.sqrt(2.0 * var))
        n = len(rows)
        allowed = math.ceil(n * p_reject + 5.0 * math.sqrt(n * p_reject * (1.0 - p_reject))) + 1
        if n - len(accepted) > allowed:
            failures.append(f"{label}: honest source rejected {n - len(accepted)}/{n} times (allowed {allowed})")

    if spec.get("teleport_inputs"):
        values = [float(r["teleport_F"]) for r in accepted]
        if len(values) != len(accepted) or not values:
            failures.append(f"{label}: teleport fidelity missing")
        else:
            m = math.fsum(values) / len(values)
            sd = math.sqrt(math.fsum((t - m) ** 2 for t in values) / max(len(values) - 1, 1))
            expected = (1.0 + spec["visibility"]) / 2.0
            if abs(m - expected) > 3.0 * sd / math.sqrt(len(values)) + 1e-9:
                failures.append(f"{label}: teleport fidelity {m!r} vs (1+v)/2 = {expected!r}")
    return failures


def check_soundness_stats(label, spec, stats):
    """`protosim.soundness_experiment` counts against the closed-form
    certificate and the 1 - P + 3 sigma violation allowance."""
    trust, inequality, iid = spec["trust"], spec["inequality"], spec["iid"]
    f_cert, p_cert, _ = certificate(trust, inequality, iid, spec["eps"], spec["q"], spec["x"])
    failures = []
    if stats.trials != spec["trials"] or not 0 <= stats.bound_violations <= stats.accepted <= stats.trials:
        failures.append(f"{label}: inconsistent counts {stats}")
        return failures
    if not (_close(stats.certificate_fidelity, f_cert, 1e-12) and _close(stats.certificate_probability, p_cert, 1e-12)):
        failures.append(f"{label}: certificate ({stats.certificate_fidelity!r}, {stats.certificate_probability!r}) vs formula ({f_cert!r}, {p_cert!r})")
    lo, hi = spec["true_fidelity_range"]
    if stats.accepted and not lo - 1e-9 <= stats.min_true_fidelity <= hi + 1e-9:
        failures.append(f"{label}: min true fidelity {stats.min_true_fidelity!r} outside [{lo}, {hi}]")
    if stats.accepted and stats.bound_violations / stats.accepted > violation_allowance(
        stats.accepted, stats.bound_violations, p_cert
    ):
        failures.append(f"{label}: {stats.bound_violations}/{stats.accepted} bound violations exceed 1 - P + 3 sigma")
    return failures

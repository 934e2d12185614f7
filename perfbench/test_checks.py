"""Tests of the benchmark's checks: each accepts a right value and rejects
a deliberately wrong one.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench/test_checks.py)

The last test runs one real alpha-1sdi round (about two seconds) and
then corrupts one output of it.
"""

from __future__ import annotations

import copy
import json
import math
import pathlib
import random
import shutil
import sys
import tempfile
from types import SimpleNamespace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import checks  # noqa: E402


def convex_curve(alpha=1.2, curvature=0.5):
    return [(e, 1.0 - alpha * e + curvature * e * e) for e in (0.01, 0.02, 0.05, 0.1, 0.2)]


def test_curve():
    window = checks.STATE_WINDOWS[("di", "chsh")]
    assert checks.check_curve("ok", convex_curve(), "chsh", window) == []
    # F_min above the Werner model's fidelity at the same violation.
    above = [(e, f) if e != 0.1 else (e, checks.werner_fidelity(checks.werner_visibility_at("chsh", e)) + 1e-5) for e, f in convex_curve()]
    assert checks.check_curve("above", above, "chsh", window)
    # A perturbed F_min makes a chord slope rise with eps.
    dented = [(e, f - 0.01 if e == 0.1 else f) for e, f in convex_curve()]
    assert checks.check_curve("dent", dented, "chsh", window)
    # alpha outside the published window.
    assert checks.check_curve("steep", convex_curve(alpha=1.4), "chsh", window)
    assert checks.check_curve("shallow", convex_curve(alpha=1.0), "chsh", window)


def test_single_point_measurement():
    cap = checks.MEASUREMENT_WINDOWS["di"][1]
    good = {"ZAZB": 0.88, "XAXB": 0.88, "ZAXB": 0.63}
    assert checks.check_single_point_measurement("m", good, 0.1, "chsh", cap) == []
    assert checks.check_single_point_measurement("m", dict(good, ZAXB=0.5), 0.1, "chsh", cap)
    assert checks.check_single_point_measurement("m", dict(good, XAXB=0.99), 0.1, "chsh", cap)


def test_agreement():
    assert checks.check_agreement("a", 0.8745691, 0.8745689) == []
    assert checks.check_agreement("a", 0.8745791, 0.8745689)
    assert checks.check_agreement("a", None, 0.8745689)


def minimal_q(trust, inequality, iid, eps, x, target_f, target_p):
    def ok(q):
        f, p, vacuous = checks.certificate(trust, inequality, iid, eps, q, x)
        return f >= target_f and p >= target_p and not vacuous

    lo, hi = 1.0, 1e6
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def plan_row(trust, inequality, iid, eps, q, x):
    f, p, _ = checks.certificate(trust, inequality, iid, eps, q, x)
    return {"epsilon": eps, "q": q, "x": x, "copies": checks.copies(inequality, iid, eps, q, x), "fidelity": f, "probability": p}


def test_plan():
    target = (2.0 / 3.0, 0.6)
    for trust, inequality, iid, eps, x in (("1sdi", "steering", True, 0.25, 1.0), ("1sdi", "chsh", False, 0.0984, 1.02)):
        q = minimal_q(trust, inequality, iid, eps, x, *target)
        args = (trust, inequality, iid, *target)
        assert checks.check_plan("ok", plan_row(trust, inequality, iid, eps, q, x), *args) == []
        # q lowered: the target is missed.
        assert checks.check_plan("low", plan_row(trust, inequality, iid, eps, q * (1 - 1e-4), x), *args)
        # q raised: no longer minimal.
        assert checks.check_plan("high", plan_row(trust, inequality, iid, eps, q * 1.01, x), *args)
        wrong = plan_row(trust, inequality, iid, eps, q, x)
        wrong["copies"] += 2
        assert checks.check_plan("copies", wrong, *args)
        wrong = plan_row(trust, inequality, iid, eps, q, x)
        wrong["fidelity"] += 1e-9
        assert checks.check_plan("fidelity", wrong, *args)
        assert checks.check_plan("limit", plan_row(trust, inequality, iid, eps, q, x), *args, max_copies=10)
    assert checks.check_plan("none", None, "1sdi", "steering", True, *target)


def test_threshold():
    assert checks.check_threshold("t", 0.875, 0.88) == []
    assert checks.check_threshold("t", 0.8905, 0.88)


def figure2_data():
    planned = {
        "1sdi_iid": (0.3384271247461901, 42.378552169014334, 1.2795226740961827),
        "1sdi_noniid": (0.09842712474619031, 15.731861176398821, 1.0208485657720223),
    }
    grid = sorted({round(0.02 * k, 2) for k in range(1, 31)} | {e for e, _, _ in planned.values()})
    rows = [{"epsilon": repr(e)} for e in grid]
    crossings = {}
    for tag, (eps, q, x) in planned.items():
        iid = tag.endswith("_iid")
        feasible = []
        for row, e in zip(rows, grid):
            f, _, _ = checks.certificate("1sdi", "chsh", iid, e, q, x)
            row[f"F_{tag}"] = repr(f)
            row[f"K_{tag}"] = str(checks.copies("chsh", iid, e, q, x))
            if f >= 2.0 / 3.0:
                feasible.append(e)
        crossings[tag] = {"epsilon": max(feasible), "q": q, "x": x}
    return rows, crossings


def test_figure2():
    rows, crossings = figure2_data()
    header = list(rows[0])
    assert checks.check_figure2(header, rows, crossings, 2.0 / 3.0) == []
    swapped = copy.deepcopy(rows)
    swapped[3]["F_1sdi_iid"], swapped[4]["F_1sdi_iid"] = swapped[4]["F_1sdi_iid"], swapped[3]["F_1sdi_iid"]
    assert checks.check_figure2(header, swapped, crossings, 2.0 / 3.0)
    moved = copy.deepcopy(crossings)
    moved["1sdi_noniid"]["epsilon"] = 0.2
    assert checks.check_figure2(header, rows, moved, 2.0 / 3.0)
    assert checks.check_figure2(header, rows, crossings, 2.0 / 3.0, published={"1sdi_iid": 2.45})


def simulated_batch(spec, seed=1):
    """Rows and summary a correct program could print for `spec`."""
    rng = random.Random(seed)
    k = checks.protocol_copies(spec["trust"], spec["inequality"], spec["iid"], spec["eps"], spec["q"], spec["x"])
    f_cert, p_cert, _ = checks.certificate(spec["trust"], spec["inequality"], spec["iid"], spec["eps"], spec["q"], spec["x"])
    mean, var = checks.statistic_moments(spec["inequality"], spec["trust"], checks.source_visibilities(spec, k))
    threshold = checks.max_violation(spec["inequality"]) - spec["eps"]
    true_f = checks.true_fidelity_range(spec)[1]
    rows = []
    for trial in range(spec["trials"]):
        stat = rng.gauss(mean, math.sqrt(var))
        accept = stat >= threshold
        rows.append({
            "trial": str(trial), "verdict": "accept" if accept else "reject", "statistic": repr(stat),
            "certified_F": repr(f_cert) if accept else "", "true_F": repr(true_f) if accept else "",
            "teleport_F": repr((1 + spec["visibility"]) / 2) if accept and spec.get("teleport_inputs") else "",
        })
    summary = {
        "trials": spec["trials"], "accepted": sum(r["verdict"] == "accept" for r in rows), "bound_violations": 0,
        "certificate_fidelity": f_cert, "certificate_probability": p_cert, "copies": k,
    }
    return summary, rows


def spec_named(label):
    import workloads

    return next(s for s in workloads.SIMULATE if s["label"] == label)


def test_simulate():
    for label in ("iid werner 0.88", "non-iid drift", "non-iid one-bad-pair", "di non-iid honest", "iid werner 0.95 teleport"):
        spec = spec_named(label)
        summary, rows = simulated_batch(spec)
        assert checks.check_simulate(label, spec, summary, rows) == [], label

    spec = spec_named("iid werner 0.88")
    summary, rows = simulated_batch(spec)
    # true_F off by 1e-3.
    bad = copy.deepcopy(rows)
    bad[0]["true_F"] = repr(float(bad[0]["true_F"]) + 1e-3)
    assert checks.check_simulate("true_F", spec, summary, bad)
    # Mean statistic away from the Born-rule value 2v.
    shifted = copy.deepcopy(rows)
    for r in shifted:
        r["statistic"] = repr(float(r["statistic"]) + 0.01)
    assert checks.check_simulate("statistic", spec, summary, shifted)
    # Verdict that disagrees with the threshold.
    flipped = copy.deepcopy(rows)
    flipped[0]["verdict"] = "reject"
    assert checks.check_simulate("verdict", spec, summary, flipped)
    # Wrong copy count, certificate, or violation count in the summary.
    for key, value in (("copies", summary["copies"] + 2), ("certificate_fidelity", summary["certificate_fidelity"] + 1e-6), ("bound_violations", 1)):
        assert checks.check_simulate(key, spec, dict(summary, **{key: value}), rows)
    # Every withheld pair the bad one: all accepted runs violate the
    # certificate, far above 1 - P + 3 sigma.
    spec = spec_named("non-iid one-bad-pair")
    summary, rows = simulated_batch(spec)
    for r in rows:
        r["true_F"] = repr(0.25) if r["verdict"] == "accept" else ""
    failures = checks.check_simulate("violations", spec, dict(summary, bound_violations=summary["accepted"]), rows)
    assert any("exceed" in m for m in failures)

    spec = spec_named("di non-iid honest")
    summary, rows = simulated_batch(spec)
    rejected = copy.deepcopy(rows)
    for r in rejected[:3]:
        r.update(verdict="reject", statistic=repr(2.80), certified_F="", true_F="")
    assert checks.check_simulate("honest", spec, dict(summary, accepted=summary["accepted"] - 3), rejected)

    spec = spec_named("iid werner 0.95 teleport")
    summary, rows = simulated_batch(spec)
    off = copy.deepcopy(rows)
    for r in off:
        if r["teleport_F"]:
            r["teleport_F"] = repr(float(r["teleport_F"]) - 1e-3)
    assert checks.check_simulate("teleport", spec, summary, off)


def test_soundness_stats():
    spec = dict(trust="1sdi", inequality="steering", iid=True, eps=0.15, q=5.45, x=1.0, trials=100, true_fidelity_range=(0.25, 1.0))
    f, p, _ = checks.certificate("1sdi", "steering", True, 0.15, 5.45, 1.0)
    good = SimpleNamespace(trials=100, accepted=90, bound_violations=5, certificate_fidelity=f, certificate_probability=p, min_true_fidelity=0.25)
    assert checks.check_soundness_stats("ok", spec, good) == []
    assert checks.check_soundness_stats("many", spec, SimpleNamespace(**dict(vars(good), bound_violations=40)))
    assert checks.check_soundness_stats("cert", spec, SimpleNamespace(**dict(vars(good), certificate_fidelity=f + 1e-6)))
    assert checks.check_soundness_stats("range", spec, SimpleNamespace(**dict(vars(good), min_true_fidelity=0.2)))
    assert checks.check_soundness_stats("counts", spec, SimpleNamespace(**dict(vars(good), accepted=101)))


def test_real_round_and_corrupted_output():
    """One real alpha-1sdi round passes; a solver result moved by 1e-5 fails."""
    import run
    import workloads

    telecert = run.import_telecert()
    work = pathlib.Path(tempfile.mkdtemp())
    try:
        rnd = workloads.alpha_1sdi(0, 0, work, telecert)
        run.run_round(rnd, telecert["cli"])
        assert run.check_round(rnd) == []
        assert not any(op.failed for op in rnd.ops)

        solve = next(op for op in rnd.ops if op.label == "sdp-solve generated")
        doc = solve.json()
        doc["objective"] += 1e-5
        solve.stdout = json.dumps(doc)
        assert run.check_round(rnd)
        assert solve.failed
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print(f"{len(tests)} passed")

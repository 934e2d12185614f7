"""The four workloads: fixed lists of telecert operations and their checks.

Each round of a workload is the same list of operations.  An operation
is one `telecert` command, called in-process through `telecert.cli.main`,
or, for the two jobs without a command (Werner thresholds and the
adaptive adversary), one call of the public library function.  All
operating points (eps, q, x, visibilities, trial counts) are constants
here, never computed by the program during the run; the workload seed
only reaches the simulation seeds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable

import checks

GRID = (0.01, 0.02, 0.05, 0.1, 0.2)
F_TARGET = 2.0 / 3.0


@dataclass
class Op:
    label: str
    argv: list | None = None  # telecert CLI arguments
    call: Callable | None = None  # library call, for jobs without a command
    main: bool = False  # one of the workload's main commands, which cmd_p50_ref_ms reads
    start: float = 0.0  # perf_counter when it began
    code: int | None = None
    stdout: str = ""
    value: object = None
    seconds: float = 0.0
    error: str = ""
    failed: bool = False

    def json(self) -> dict:
        return json.loads(self.stdout)


@dataclass
class Round:
    ops: list
    checks: list = field(default_factory=list)  # (op labels, callable -> failures)

    def check(self, labels, fn) -> None:
        self.checks.append((tuple(labels), fn))


def read_csv(path):
    """Rows of a telecert CSV file (first line is the config comment)."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    return list(csv.DictReader(lines[1:]))


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# alpha-di: the dense 81x81 interior-point solves


def alpha_di(seed: int, index: int, work, telecert) -> Round:
    ops = [
        Op(f"di state eps={e}", ["derive-alpha", "--trust", "di", "--inequality", "chsh", "--kind", "state", "--eps-grid", repr(e)], main=True)
        for e in GRID
    ]
    ops.append(Op("di measurement eps=0.1", ["derive-alpha", "--trust", "di", "--inequality", "chsh", "--kind", "measurement", "--eps-grid", "0.1"]))
    rnd = Round(ops)

    def state_curve():
        curve = [op.json()["reports"]["state"]["curves"]["state"][0] for op in ops[:5]]
        return checks.check_curve("di/chsh state", curve, "chsh", checks.STATE_WINDOWS[("di", "chsh")])

    def measurement():
        curves = ops[5].json()["reports"]["measurement"]["curves"]
        values = {name: curve[0][1] for name, curve in curves.items()}
        failures = [] if set(values) == {"ZAZB", "XAXB", "ZAXB"} else [f"di measurement objectives {sorted(values)}"]
        return failures + checks.check_single_point_measurement(
            "di/chsh measurement", values, 0.1, "chsh", checks.MEASUREMENT_WINDOWS["di"][1]
        )

    rnd.check([op.label for op in ops[:5]], state_curve)
    rnd.check([ops[5].label], measurement)
    return rnd


# ---------------------------------------------------------------------------
# alpha-1sdi: the same layers at 14x14, plus the SDPA file chain


def alpha_1sdi(seed: int, index: int, work, telecert) -> Round:
    ops = []
    for e in GRID:
        for inequality in ("steering", "chsh"):
            ops.append(Op(
                f"1sdi {inequality} eps={e}",
                ["derive-alpha", "--trust", "1sdi", "--inequality", inequality, "--kind", "both", "--eps-grid", repr(e)],
                main=True,
            ))
    chain = []
    for form in ("generated", "deduplicated"):
        path = str(work / f"steering-{form}.dat-s")
        chain.append((
            Op(f"npa-export {form}", [
                "npa-export", "--trust", "1sdi", "--inequality", "steering", "--objective", "state",
                "--eps", "0.1", "--constraints", form, "--out", path, "--report-out", str(work / f"export-{form}.json"),
            ]),
            Op(f"sdp-solve {form}", ["sdp-solve", "--in", path]),
        ))
        ops.extend(chain[-1])
    rnd = Round(ops)
    derive = {(op.label.split()[1], float(op.label.split("=")[1])): op for op in ops[:10]}

    def curves(inequality):
        def run():
            failures = []
            reports = [derive[(inequality, e)].json()["reports"] for e in GRID]
            for kind in ("state", "measurement"):
                objectives = reports[0][kind]["curves"]
                for objective in objectives:
                    curve = [r[kind]["curves"][objective][0] for r in reports]
                    failures += checks.check_curve(f"1sdi/{inequality} {objective}", curve, inequality)
                if kind == "state" or inequality == "steering":
                    window = checks.STATE_WINDOWS[("1sdi", inequality)] if kind == "state" else checks.MEASUREMENT_WINDOWS["1sdi"]
                    alpha = max(
                        (1.0 - r[kind]["curves"][o][0][1]) / r[kind]["curves"][o][0][0] for r in reports for o in objectives
                    )
                    if not window[0] <= alpha <= window[1]:
                        failures.append(f"1sdi/{inequality} {kind} alpha {alpha:.6f} outside {window}")
            return failures
        return run

    def file_chain(solve):
        def run():
            doc = solve.json()
            reference = derive[("steering", 0.1)].json()["reports"]["state"]["curves"]["state"][0][1]
            failures = [] if doc["status"] == "optimal" else [f"{solve.label}: status {doc['status']}"]
            return failures + checks.check_agreement(solve.label, doc["objective"], reference)
        return run

    for inequality in ("steering", "chsh"):
        rnd.check([op.label for key, op in derive.items() if key[0] == inequality], curves(inequality))
    for export, solve in chain:
        rnd.check([export.label, solve.label, derive[("steering", 0.1)].label], file_chain(solve))
    return rnd


# ---------------------------------------------------------------------------
# soundness: protocol sampling, extraction and teleportation, no SDP

#: simulate batches at the acceptance suites' operating points.  Trial
#: counts make each batch take a similar time, so the median command is
#: a simulate batch.  The fully untrusted point is the planner's
#: copy-minimizing point for F = 2/3 (non-iid, confidence 0.6).
SIMULATE = [
    dict(label="iid werner 0.88", trust="1sdi", inequality="steering", iid=True, eps=0.3, q=13.7, x=1.0, source="werner", visibility=0.88, trials=150),
    dict(label="iid werner 0.95", trust="1sdi", inequality="steering", iid=True, eps=0.15, q=5.45, x=1.0, source="werner", visibility=0.95, trials=150),
    dict(label="non-iid one-bad-pair", trust="1sdi", inequality="steering", iid=False, eps=0.3, q=9.7, x=1.0, source="one-bad-pair", visibility=1.0, trials=100),
    dict(label="non-iid drift", trust="1sdi", inequality="steering", iid=False, eps=0.35, q=8.0, x=1.0, source="drift", visibility=1.0, v_end=0.8, trials=200),
    dict(label="iid werner 0.95 teleport", trust="1sdi", inequality="steering", iid=True, eps=0.15, q=5.45, x=1.0, source="werner", visibility=0.95, trials=25, teleport_inputs=100),
    dict(label="di non-iid honest", trust="di", inequality="chsh", iid=False, eps=0.0192987, q=1.0425809, x=0.6165112, source="honest", visibility=1.0, trials=8, expect_accept=True),
    dict(label="di non-iid werner 0.995", trust="di", inequality="chsh", iid=False, eps=0.0192987, q=1.0425809, x=0.6165112, source="werner", visibility=0.995, trials=8),
]

#: History-adaptive adversary on the per-round sampling path.
ADAPTIVE = dict(trust="1sdi", inequality="steering", iid=False, eps=0.3, q=1.2, x=1.0, trials=12, true_fidelity_range=(0.25, 1.0))


def greedy_adversary(history, state_of, model):
    """Send a maximally mixed pair while under 5% of the measured rounds
    came out anticorrelated, otherwise a perfect pair."""
    anti = sum(1 for _, a, b in history if a != b)
    return state_of(0.0 if anti < 0.05 * len(history) else 1.0), model


def simulate_argv(spec, seed, out, summary):
    argv = [
        "simulate", "--trust", spec["trust"], "--inequality", spec["inequality"],
        "--iid" if spec["iid"] else "--non-iid",
        "--eps", repr(spec["eps"]), "--q", repr(spec["q"]), "--x", repr(spec["x"]),
        "--source", spec["source"], "--visibility", repr(spec["visibility"]),
        "--trials", str(spec["trials"]), "--seed", str(seed), "--out", out, "--summary-out", summary,
    ]
    if "v_end" in spec:
        argv += ["--v-end", repr(spec["v_end"])]
    if spec.get("teleport_inputs"):
        argv += ["--teleport-inputs", str(spec["teleport_inputs"])]
    return argv


def soundness(seed: int, index: int, work, telecert) -> Round:
    base = (seed * 1009 + index) * 16
    ops = []
    checks_for = []
    for number, spec in enumerate(SIMULATE):
        out, summary = work / f"sim{number}.csv", work / f"sim{number}.json"
        op = Op(spec["label"], simulate_argv(spec, base + number, str(out), str(summary)), main=True)
        ops.append(op)
        checks_for.append((op, spec, out, summary))

    protosim, cert, qcore = telecert["protosim"], telecert["cert"], telecert["qcore"]
    spec = ADAPTIVE
    params = cert.CertificateParams(spec["trust"], spec["inequality"], spec["iid"], spec["eps"], spec["q"], spec["x"])
    model = qcore.ideal_model()

    def adversary(history):
        return greedy_adversary(history, qcore.werner_state, model)

    def adaptive_run():
        return protosim.soundness_experiment(
            lambda k, rng: protosim.AdaptiveSource("two-basis", adversary), params, spec["trials"], seed=base + len(SIMULATE)
        )

    adaptive = Op("adaptive adversary", call=adaptive_run)
    ops.append(adaptive)
    rnd = Round(ops)
    for op, spec_i, out, summary in checks_for:
        rnd.check([op.label], lambda op=op, s=spec_i, o=out, m=summary: checks.check_simulate(op.label, s, read_json(m), read_csv(o)))
    rnd.check([adaptive.label], lambda: checks.check_soundness_stats(adaptive.label, spec, adaptive.value))
    return rnd


# ---------------------------------------------------------------------------
# plan: the cert planner's scalar search


#: Criterion-4 operating points: (trust, inequality, iid, eps, confidence, copy limit).
FIXED_PLANS = [
    ("1sdi", "steering", True, 0.25, 0.75, 1.2e5),
    ("1sdi", "steering", False, 0.08, 0.6, 1e8),
    ("1sdi", "chsh", True, checks.CHSH_MAX - 2.49, 0.75, 1e6),
    ("1sdi", "chsh", False, checks.CHSH_MAX - 2.73, 0.6, 1e8),
]
FREE_PLANS = [(t, i, iid) for iid in (True, False) for t, i in (("1sdi", "steering"), ("1sdi", "chsh"), ("di", "chsh"))]


def plan_argv(trust, inequality, iid, confidence, eps=None):
    argv = [
        "plan", "--target-f", repr(F_TARGET), "--target-p", repr(confidence),
        "--trust", trust, "--inequality", inequality, "--iid" if iid else "--non-iid",
    ]
    return argv + (["--eps", repr(eps)] if eps is not None else [])


def plan(seed: int, index: int, work, telecert) -> Round:
    cert = telecert["cert"]
    ops = []
    rnd_checks = []
    for trust, inequality, iid in FREE_PLANS:
        confidence = 0.75 if iid else 0.6
        op = Op(f"free plan {trust}/{inequality}/{'iid' if iid else 'non-iid'}", plan_argv(trust, inequality, iid, confidence), main=True)
        ops.append(op)
        rnd_checks.append((op, (trust, inequality, iid, F_TARGET, confidence, None)))
    for trust, inequality, iid, eps, confidence, limit in FIXED_PLANS:
        op = Op(f"fixed plan {trust}/{inequality}/{'iid' if iid else 'non-iid'} eps={eps:.4f}", plan_argv(trust, inequality, iid, confidence, eps))
        ops.append(op)
        rnd_checks.append((op, (trust, inequality, iid, F_TARGET, confidence, limit)))
    fig_csv, fig_json = work / "figure2.csv", work / "crossings.json"
    figure2 = Op("figure2", ["figure2", "--out", str(fig_csv), "--crossings-out", str(fig_json)])
    ops.append(figure2)
    thresholds = [
        Op("werner threshold iid", call=lambda: cert.werner_visibility_threshold(iid=True)),
        Op("werner threshold non-iid", call=lambda: cert.werner_visibility_threshold(iid=False)),
    ]
    ops.extend(thresholds)
    rnd = Round(ops)
    for op, args in rnd_checks:
        rnd.check([op.label], lambda op=op, a=args: checks.check_plan(op.label, op.json().get("row"), *a))

    def figure():
        crossings = read_json(fig_json)["crossings"]
        rows = read_csv(fig_csv)
        return checks.check_figure2(list(rows[0]), rows, crossings, F_TARGET)

    rnd.check([figure2.label], figure)
    rnd.check([thresholds[0].label], lambda: checks.check_threshold("iid", thresholds[0].value, 0.88))
    rnd.check([thresholds[1].label], lambda: checks.check_threshold("non-iid", thresholds[1].value, 0.96))
    return rnd


WORKLOADS = {"alpha-di": alpha_di, "alpha-1sdi": alpha_1sdi, "soundness": soundness, "plan": plan}

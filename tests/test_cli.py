import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import telecert
from telecert import cert, cli, npa, protosim, qcore, sdp

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_plan_json(capsys):
    code, out = run_cli(
        ["plan", "--target-f", "0.6667", "--trust", "1sdi", "--inequality", "steering", "--eps", "0.25"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"]
    assert doc["row"]["copies"] <= 1.2e5
    assert doc["config"]["target_f"] == 0.6667
    assert doc["version"]


def test_plan_infeasible_exit_code(capsys):
    code, out = run_cli(["plan", "--target-f", "0.99", "--eps", "0.3", "--max-k", "1000"], capsys)
    assert code == 2
    assert not json.loads(out)["feasible"]


def test_certify_matches_formula(capsys):
    code, out = run_cli(
        ["certify", "--trust", "1sdi", "--inequality", "steering", "--eps", "0.25", "--q", "35", "--x", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(1 - 1.26 * (0.5 / 35 + 0.25), abs=1e-12)
    assert doc["formula"] == "steering-iid"
    assert doc["params"]["alpha_source"] == "paper-default"


def test_certify_with_explicit_alpha(capsys):
    code, out = run_cli(
        ["certify", "--eps", "0.2", "--q", "20", "--x", "1", "--alpha", "1.3"], capsys
    )
    doc = json.loads(out)
    assert doc["params"]["alpha"] == 1.3
    assert doc["params"]["alpha_source"] == "explicit"


def test_simulate_csv_outputs(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    summary = tmp_path / "summary.json"
    code, _ = run_cli(
        [
            "simulate", "--trust", "1sdi", "--inequality", "steering",
            "--eps", "0.15", "--q", "5.45", "--x", "1",
            "--source", "werner", "--visibility", "0.95",
            "--trials", "4", "--seed", "9", "--teleport-inputs", "10",
            "--out", str(out_csv), "--summary-out", str(summary),
        ],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "trial,verdict,statistic,certified_F,true_F,teleport_F"
    assert len(lines) == 6
    assert "np.float64" not in out_csv.read_text()
    doc = json.loads(summary.read_text())
    assert doc["accepted"] == 4
    assert doc["copies"] == 10019


def test_simulate_summary_out_alone(tmp_path, capsys):
    # the summary goes to --summary-out whenever it is given, and to
    # stdout only when neither output flag is
    argv = ["simulate", "--eps", "0.15", "--q", "5.45", "--x", "1", "--trials", "2", "--seed", "3"]
    code, printed = run_cli(argv, capsys)
    assert code == 0
    summary = tmp_path / "summary.json"
    code, out = run_cli(argv + ["--summary-out", str(summary)], capsys)
    assert (code, out) == (0, "")
    doc = json.loads(summary.read_text())
    assert doc["config"].pop("summary_out") == str(summary)
    expected = json.loads(printed)
    assert expected["config"].pop("summary_out") is None
    assert doc == expected
    code, out = run_cli(argv + ["--out", str(tmp_path / "runs.csv")], capsys)
    assert (code, out) == (0, "")


def test_simulate_single_reject_exit_code(capsys):
    code, out = run_cli(
        [
            "simulate", "--eps", "0.1", "--q", "4", "--x", "1",
            "--source", "werner", "--visibility", "0.5", "--trials", "1", "--seed", "1",
        ],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_simulate_refuses_trial_count_below_one(capsys, trials):
    assert cli.main(["simulate", "--eps", "0.1", "--q", "4", "--x", "1", "--trials", trials]) == 1
    assert capsys.readouterr().err == "telecert: error: n_trials must be at least 1\n"


def test_simulate_refuses_negative_teleport_inputs(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the inputs were checked")

    monkeypatch.setattr(protosim, "run_protocol", no_trials)
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--eps", "0.15", "--q", "5.45", "--x", "1", "--teleport-inputs", "-1", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "telecert: error: --teleport-inputs must be at least 0 (0 skips teleportation)\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["one-bad-pair", "drift"])
@pytest.mark.parametrize("flag", ["--visibility", "--v-end"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_simulate_refuses_non_finite_visibility(tmp_path, capsys, source, flag, value):
    # NaN fails every comparison, so it slips past a range check written
    # as `v < 0 or v > 1` and every trial reads as rejected
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--non-iid", "--eps", "0.3", "--q", "3", "--x", "1", "--source", source, flag, value, "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"telecert: error: {flag} must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "source, flag, value, message",
    [
        ("honest", "--visibility", "0.5", "--visibility must be 1.0 with --source honest, which is visibility 1"),
        ("honest", "--v-end", "0.8", "--v-end is read only by --source drift, not --source honest"),
        ("werner", "--v-end", "0.8", "--v-end is read only by --source drift, not --source werner"),
        ("one-bad-pair", "--v-end", "0.8", "--v-end is read only by --source drift, not --source one-bad-pair"),
    ],
)
def test_simulate_refuses_flags_its_source_never_reads(tmp_path, capsys, monkeypatch, source, flag, value, message):
    # the summary echoes every flag, so an unread one would be recorded as
    # if it had been simulated
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the flags were checked")

    monkeypatch.setattr(protosim, "run_protocol", no_trials)
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--non-iid", "--eps", "0.3", "--q", "3", "--x", "1", "--source", source, flag, value, "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"telecert: error: {message}\n"
    assert not out.exists()


def test_simulate_honest_source_at_visibility_one_runs_unchanged(capsys):
    argv = ["simulate", "--non-iid", "--eps", "0.3", "--q", "3", "--x", "1", "--source", "honest", "--trials", "3"]
    default = run_cli(argv, capsys)
    explicit = run_cli(argv + ["--visibility", "1.0", "--v-end", "1.0"], capsys)
    assert default[0] == explicit[0] == 0
    assert json.loads(default[1])["accepted"] == 3
    assert explicit[1] == default[1]


def test_simulate_refuses_negative_seed(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the seed was checked")

    monkeypatch.setattr(protosim, "run_protocol", no_trials)
    out = tmp_path / "runs.csv"
    assert cli.main(["simulate", "--eps", "0.15", "--q", "5.45", "--x", "1", "--seed", "-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "telecert: error: --seed must be at least 0\n"
    assert not out.exists()


def test_simulate_refuses_a_copy_count_numpy_cannot_draw(tmp_path, capsys, monkeypatch):
    # K is about 8.9e19, above the 2**63 that the withheld index's int64
    # draw accepts
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the copy count was checked")

    monkeypatch.setattr(protosim, "run_protocol", no_trials)
    out = tmp_path / "runs.csv"
    assert cli.main(["simulate", "--eps", "0.25", "--q", "1e9", "--x", "1", "--out", str(out)]) == 1
    k = protosim.adjusted_copies(cert.CertificateParams("1sdi", "steering", True, 0.25, 1e9, 1.0))
    assert k > 2**63
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"telecert: error: the run needs K = {k} copies; numpy draws the withheld index for K up to {2**63} (2**63)\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["one-bad-pair", "drift"])
def test_simulate_refuses_a_round_indexed_source_above_its_bound(tmp_path, capsys, monkeypatch, source):
    # the bound is lowered below this run's K = 1929, so that even a check
    # that regresses allocates no large array
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the copy count was checked")

    monkeypatch.setattr(protosim, "MAX_ROUND_INDEXED_COPIES", 1000)
    monkeypatch.setattr(protosim, "run_protocol", no_trials)
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--non-iid", "--eps", "0.3", "--q", "3", "--x", "1", "--source", source, "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "telecert: error: a round-indexed source of K = 1929 copies exceeds the 1000 it admits "
        "(8 bytes of visibility per copy, and about 25 more while a run samples)\n"
    )
    assert not out.exists()


def test_simulate_refuses_teleport_inputs_above_their_bound(tmp_path, capsys, monkeypatch):
    # the bound is lowered to 100, so that even a check that regresses
    # allocates no large array; the refusal comes before any trial
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the teleportation inputs were checked")

    monkeypatch.setattr(qcore, "MAX_TELEPORT_INPUTS", 100)
    monkeypatch.setattr(protosim, "run_protocol", no_trials)
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--eps", "0.25", "--q", "35", "--x", "1", "--teleport-inputs", "101", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "telecert: error: --teleport-inputs 101 exceeds the 100 inputs a teleportation admits (about 1 kB per input)\n"
    )
    assert not out.exists()


def test_byte_identical_reruns(tmp_path, capsys):
    argv = [
        "simulate", "--eps", "0.2", "--q", "4", "--x", "1",
        "--source", "drift", "--visibility", "1.0", "--v-end", "0.9",
        "--trials", "3", "--seed", "123",
    ]
    first = run_cli(argv + ["--out", str(tmp_path / "a.csv")], capsys)
    second = run_cli(argv + ["--out", str(tmp_path / "b.csv")], capsys)
    assert first[0] == second[0] == 0
    a = (tmp_path / "a.csv").read_text()
    b = (tmp_path / "b.csv").read_text()
    # identical apart from the self-referential output path in the config echo
    assert a.replace("a.csv", "X") == b.replace("b.csv", "X")
    third = run_cli(argv + ["--out", str(tmp_path / "c.csv"), "--seed", "124"], capsys)
    assert (tmp_path / "c.csv").read_text().replace("c.csv", "X") != a.replace("a.csv", "X")


def test_derive_alpha_cli(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    code, out = run_cli(
        [
            "derive-alpha", "--trust", "1sdi", "--inequality", "steering",
            "--kind", "state", "--eps-grid", "0.05,0.1,0.2",
            "--curve-out", str(curve),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == pytest.approx(1.2815, abs=5e-3)
    # how each solve ended sits beside its curve point
    report = doc["reports"]["state"]
    assert [row["epsilon"] for row in report["solves"]["state"]] == [eps for eps, _ in report["curves"]["state"]]
    assert all(row["termination"] in ("optimal", "stall") for row in report["solves"]["state"])
    lines = curve.read_text().splitlines()
    assert lines[1] == "kind,objective,epsilon,fidelity"
    assert len(lines) == 5


def test_word_cap_below_one_refused(tmp_path, capsys):
    derive = ["derive-alpha", "--trust", "1sdi", "--inequality", "steering", "--kind", "state", "--eps-grid", "0.1"]
    out_path = tmp_path / "p.dat-s"
    export = [
        "npa-export", "--trust", "1sdi", "--inequality", "steering", "--objective", "state",
        "--eps", "0.1", "--out", str(out_path),
    ]
    # 0 is a cap, not "unset": it is refused like any cap below 1
    for cap in ("0", "-1"):
        assert run_cli(derive + ["--word-cap", cap], capsys) == (1, "")
        assert run_cli(export + ["--word-cap", cap], capsys) == (1, "")
        assert not out_path.exists()
    code, out = run_cli(derive + ["--word-cap", "2"], capsys)
    assert code == 0
    assert json.loads(out)["reports"]["state"]["word_cap"] == 2
    code, out = run_cli(derive, capsys)
    assert code == 0
    assert json.loads(out)["reports"]["state"]["word_cap"] == 3


def test_npa_export_and_sdp_solve(tmp_path, capsys):
    # both constraint forms stay within the reader's size limits
    for constraints, written in (("generated", 177), ("deduplicated", 74)):
        problem = tmp_path / f"{constraints}.dat-s"
        words = tmp_path / "words.json"
        code, _ = run_cli(
            [
                "npa-export", "--trust", "1sdi", "--inequality", "steering",
                "--objective", "state", "--eps", "0.1", "--constraints", constraints,
                "--out", str(problem), "--words-out", str(words),
                "--report-out", str(tmp_path / "report.json"),
            ],
            capsys,
        )
        assert code == 0
        wdoc = json.loads(words.read_text())
        assert wdoc["schema"] == "npa/1" and len(wdoc["words"]) == 7
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["dimension"] == 14
        assert report["constraints_written"] == written

        code, out = run_cli(["sdp-solve", "--in", str(problem)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["termination"] == "optimal"
        # both forms fold into the 33 real classes; two rows are pivoted out
        assert doc["constraints"] == 31
        assert doc["objective"] == pytest.approx(1 - 1.2543 * 0.1, abs=2e-3)


def test_npa_export_report_to_stdout(tmp_path, capsys):
    # without --report-out the report goes to stdout, not over the problem file
    problem = tmp_path / "p.dat-s"
    code, out = run_cli(
        ["npa-export", "--trust", "1sdi", "--inequality", "steering", "--eps", "0.1", "--out", str(problem)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["kind"] == "export"
    code, out = run_cli(["sdp-solve", "--in", str(problem)], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "optimal"


def test_sdp_solve_refuses_oversized_header(tmp_path, capsys):
    # the header of a 162x162 moment-matrix export: its companion may have
    # 13203 free moments, whose Schur workspace would take about 2.8 GB.
    # The header is refused before the entry line, which would fail.
    path = tmp_path / "big.dat-s"
    path.write_text("228162\n1\n162\n1.0 0.0\nnot an entry\n")
    start = time.perf_counter()
    code = cli.main(["sdp-solve", "--in", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 1
    err = capsys.readouterr().err
    assert "a 162x162 matrix" in err and "13203 free moments" in err and "2.77 GB" in err
    assert f"at most {npa.MAX_WORKSPACE_ENTRIES}" in err
    assert elapsed < 1.0
    # the largest admitted dimension is 81, the fully untrusted problem's
    # at `--word-cap 4`
    assert 81**2 * (81 * 82 // 2) <= npa.MAX_WORKSPACE_ENTRIES < 82**2 * (82 * 83 // 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        # 6561 words: the word-pair table is refused before it is built
        (["--trust", "di", "--inequality", "chsh", "--word-cap", "40", "--eps-grid", "0.1"],
         "6561 words: their word-pair table would hold 43046721 int64 entries"),
        # a 602x602 problem: its Schur workspace is refused before the solve
        # allocates it
        (["--trust", "1sdi", "--word-cap", "150"],
         "1501 constraints over a 602x602 matrix in 1 blocks: their Schur workspace would hold 543968404 float64 entries (4.35 GB)"),
    ],
    ids=["di-cap40", "1sdi-cap150"],
)
def test_derive_alpha_refuses_an_oversized_word_cap(tmp_path, capsys, argv, message):
    out = tmp_path / "alpha.json"
    code = cli.main(["derive-alpha", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err and f"the solver accepts at most {npa.MAX_WORKSPACE_ENTRIES}" in err
    assert "Traceback" not in err and not out.exists()


def test_sdp_solve_refuses_oversized_dense_stack(tmp_path, capsys):
    # an 81x81 file passes the header, but 6562 constraints that are not
    # ties would make a dense 6562 x 3321 row matrix, past the workspace
    # bound; it is refused before that matrix is built
    m = 6562
    path = tmp_path / "rows.dat-s"
    path.write_text(f"{m}\n1\n81\n" + " ".join(["1.0"] * m) + "\n" + "".join(f"{i} 1 1 1 1.0\n" for i in range(1, m + 1)))
    start = time.perf_counter()
    code = cli.main(["sdp-solve", "--in", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 1
    err = capsys.readouterr().err
    assert "6562 constraints that are not ties over 3321 classes" in err
    assert elapsed < 5.0


def test_sdp_solve_max_iterations_below_one(tmp_path, capsys):
    # no iteration would run and the starting point would be the answer;
    # refused before the file is read
    for bad in ("0", "-3"):
        code = cli.main(["sdp-solve", "--in", str(tmp_path / "absent.dat-s"), "--max-iterations", bad])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "telecert: error: --max-iterations must be at least 1\n"
    path = tmp_path / "good.dat-s"
    path.write_text(_GOOD_SDPA)
    assert cli.main(["sdp-solve", "--in", str(path), "--max-iterations", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["termination"] == "iteration-cap"


def test_sdp_solve_redundant_and_conflicting_rows(tmp_path, capsys):
    # min G11 on a 2x2 block with G00 = 1 written four ways (once, again,
    # scaled by 3 and, with G01, as a row that reduces to it) and a zero
    # row: the dependent rows are dropped, and the minimum is 0
    head = "0 1 2 2 -1.0\n1 1 1 1 1.0\n2 1 1 1 1.0\n3 1 1 1 3.0\n4 1 1 1 1.0\n4 1 1 2 0.5\n5 1 1 1 0.0\n6 1 1 2 0.5\n"
    path = tmp_path / "rows.dat-s"
    path.write_text("6\n1\n2\n1.0 1.0 3.0 1.0 0.0 0.0\n" + head)
    code, out = run_cli(["sdp-solve", "--in", str(path)], capsys)
    doc = json.loads(out)
    assert (code, doc["status"], doc["constraints"]) == (0, "optimal", 1)
    assert doc["objective"] == pytest.approx(0.0, abs=1e-6)
    # the scaled copy with a value that disagrees: infeasible, exit 2,
    # before any iteration
    path.write_text("6\n1\n2\n1.0 1.0 2.0 1.0 0.0 0.0\n" + head)
    code, out = run_cli(["sdp-solve", "--in", str(path)], capsys)
    doc = json.loads(out)
    assert (code, doc["status"], doc["termination"]) == (2, "infeasible", "inconsistent-constraints")
    assert doc["reason"].startswith("inconsistent equality constraints")


# A valid two-constraint file on one 2x2 block, then one bad entry line.
_GOOD_SDPA = "2\n1\n2\n1.0 0.5\n0 1 1 1 -1.0\n1 1 1 1 1.0\n2 1 2 2 1.0\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("3 1 1 1 1.0", "matrix number 3 outside [0, 2]"),
        ("-1 1 1 1 1.0", "matrix number -1 outside [0, 2]"),
        ("1 2 1 1 1.0", "block 2 outside [1, 1]"),
        ("1 0 1 1 1.0", "block 0 outside [1, 1]"),
        ("1 1 0 1 1.0", "index outside [1, 2]"),
        ("1 1 1 3 1.0", "index outside [1, 2]"),
        ("1 1 1 1", "expected 5 fields, got 4"),
        ("1 1 1 1 1.0 7", "expected 5 fields, got 6"),
        ("1 1 1 1 high", "could not convert string to float: 'high'"),
        ("1 1 1.5 1 1.0", "matrix number, block and indices must be integers"),
        ("2 nan 1 1 1.0", "block nan outside [1, 1]"),
    ],
    ids=[
        "matrix-above", "matrix-negative", "block-above", "block-zero", "row-zero", "column-above", "four-fields",
        "six-fields", "not-a-number", "fractional-index", "nan-block",
    ],
)
def test_sdp_solve_refuses_malformed_entry(tmp_path, capsys, entry, message):
    # each would index past the header's sizes, or wrap through numpy's
    # negative indexing onto a different problem; the message names the
    # line, which follows good ones
    path = tmp_path / "bad.dat-s"
    path.write_text(_GOOD_SDPA + entry + "\n")
    code = cli.main(["sdp-solve", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"telecert: error: entry {entry!r}: {message}\n"
    path.write_text(_GOOD_SDPA)
    assert cli.main(["sdp-solve", "--in", str(path)]) == 0


def test_sdp_solve_refuses_nan_entry(tmp_path, capsys):
    path = tmp_path / "nan.dat-s"
    path.write_text("1\n1\n2\n1.0\n0 1 1 1 nan\n1 1 1 1 1.0\n")
    code = cli.main(["sdp-solve", "--in", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "telecert: error: matrix has non-finite entries\n"


def test_sdp_solve_reads_lower_and_repeated_entries(tmp_path, capsys):
    # min G11 s.t. G00 = 1, G01 = 0.6, as a dense reader would read it: an
    # entry below the diagonal sets its mirror cell, and a repeated entry
    # replaces the earlier one
    header = "2\n1\n2\n1.0 0.6\n0 1 2 2 -1.0\n"
    path = tmp_path / "p.dat-s"
    outputs, cells = [], []
    for body in ("1 1 1 1 1.0\n2 1 1 2 0.5\n", "1 1 1 1 7.0\n2 1 2 1 0.5\n1 1 1 1 1.0\n"):
        path.write_text(header + body)
        cells.append(npa.read_sdpa_numeric(path)[1])
        assert cli.main(["sdp-solve", "--in", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert [a.tolist() for a in cells[0]] == [[0, 1], [0, 0], [0, 1], [1.0, 0.5], [1.0, 0.6]]
    assert all(np.array_equal(a, b) for a, b in zip(*cells))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["objective"] == pytest.approx(0.36, abs=1e-6)


def test_certify_refuses_non_finite_parameters(tmp_path, capsys):
    # NaN passes every range check, and an infinite q or x overflows the
    # copy count
    base = ["certify", "--eps", "0.2", "--q", "20", "--x", "1"]
    path = tmp_path / "alpha.json"
    # json.load accepts NaN; the report matches the command, so the NaN
    # reaches the finite check
    path.write_text('{"reports": {"state": {"setting": "1sdi", "inequality": "steering", "alpha": NaN}}}')
    cases = [(base + [f"--{name}", value], name) for name in ("q", "x", "alpha") for value in ("nan", "inf")]
    cases.append((base + ["--alpha-json", str(path)], "alpha"))
    for argv, name in cases:
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"telecert: error: {name} must be") and "finite" in captured.err


def test_derive_alpha_refuses_nan_grid(capsys):
    code = cli.main(["derive-alpha", "--trust", "1sdi", "--kind", "state", "--eps-grid", "0.1,nan"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "telecert: error: epsilon grid must sit in (0, half the maximal violation]\n"


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.5", "0", "1.5"])
def test_npa_export_refuses_eps_outside_its_range(tmp_path, capsys, eps):
    # derive-alpha's grid rule: (0, half the maximal violation], here 1
    out_path = tmp_path / "p.dat-s"
    code = cli.main(["npa-export", "--eps", eps, "--out", str(out_path), "--words-out", str(tmp_path / "w.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "telecert: error: epsilon grid must sit in (0, half the maximal violation]\n"
    assert list(tmp_path.iterdir()) == []


def test_npa_export_writes_the_problem_a_derivation_built(tmp_path, monkeypatch, capsys):
    # after a derivation, the export in the same process builds no word
    # list and no problem, reduces nothing and finds no group, and writes
    # what a fresh process writes
    exports = [
        ["--trust", "1sdi", "--inequality", "steering", "--objective", "state", "--constraints", form]
        for form in ("generated", "deduplicated")
    ]
    files = ["p.dat-s", "report.json", "words.json"]

    def argv(args):
        return ["npa-export", *args, "--eps", "0.1", "--out", files[0], "--report-out", files[1], "--words-out", files[2]]

    sdp.derive_alphas("1sdi", "steering", ("state", "measurement"), (0.1,))
    built = []
    for name in ("generate_words", "build_moment_problem", "reduce_problem", "symmetry_group"):
        monkeypatch.setattr(npa, name, lambda *args, name=name: built.append(name))
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    for number, args in enumerate(exports):
        warm, fresh = tmp_path / f"warm{number}", tmp_path / f"fresh{number}"
        warm.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(warm)
        assert cli.main(argv(args)) == 0
        subprocess.run([sys.executable, "-m", "telecert.cli", *argv(args)], cwd=fresh, env=env, check=True)
        for name in files:
            assert (warm / name).read_bytes() == (fresh / name).read_bytes(), (args, name)
    assert built == []


def test_plan_rejects_eps_outside_unit_interval(capsys):
    for eps in ("0", "1", "-0.5"):
        code = cli.main(["plan", "--target-f", "0.6667", "--eps", eps])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "telecert: error: epsilon must sit in (0, 1)\n"


def test_plan_rejects_copy_limit_below_one(capsys):
    for limit in ("nan", "-5"):
        code = cli.main(["plan", "--target-f", "0.6667", "--eps", "0.25", "--max-k", limit])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "telecert: error: max copies must be at least 1\n"


def test_simulate_matches_soundness_experiment(capsys):
    code, out = run_cli(
        [
            "simulate", "--non-iid", "--eps", "0.2", "--q", "4", "--x", "1",
            "--source", "drift", "--visibility", "1.0", "--v-end", "0.9",
            "--trials", "20", "--seed", "123",
        ],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    params = cert.CertificateParams("1sdi", "steering", False, 0.2, 4.0, 1.0)
    stats = protosim.soundness_experiment(
        lambda k, rng: protosim.drifting_visibility_source("two-basis", k, 1.0, 0.9), params, 20, seed=123
    )
    assert (summary["accepted"], summary["bound_violations"]) == (stats.accepted, stats.bound_violations)
    assert (stats.accepted, stats.bound_violations) == (20, 0)
    assert summary["certificate_fidelity"] == stats.certificate_fidelity


def test_figure2_outputs(tmp_path, capsys):
    out_csv = tmp_path / "fig2.csv"
    crossings = tmp_path / "crossings.json"
    code, _ = run_cli(
        [
            "figure2", "--eps-grid", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4",
            "--out", str(out_csv), "--crossings-out", str(crossings),
        ],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    header = lines[1].split(",")
    assert header[0] == "epsilon"
    assert "F_1sdi_iid" in header and "F_di_noniid" in header
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    fi = [float(r["F_di_iid"]) for r in rows]
    ki = [float(r["K_di_iid"]) for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(fi, fi[1:]))  # F decreasing in eps
    assert all(a >= b for a, b in zip(ki, ki[1:]))  # K decreasing in eps
    cdoc = json.loads(crossings.read_text())
    assert cdoc["classical_bound"] == pytest.approx(2 / 3)
    # every plan is feasible, and its curve meets the bound at its planned eps
    assert sorted(cdoc["crossings"]) == ["1sdi_iid", "1sdi_noniid", "di_iid", "di_noniid"]
    for crossing in cdoc["crossings"].values():
        assert crossing["epsilon"] is not None
        assert crossing["epsilon"] >= crossing["planned_epsilon"]


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "telecert.cli", "plan", "--target-f", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "telecert.cli", "--version"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


NUMERICAL = ("numpy", "telecert.npa", "telecert.sdp", "telecert.protosim", "telecert.qcore")


def _modules_loaded_by(argv, cwd):
    """The numpy and telecert modules a fresh interpreter holds after
    `cli.main(argv)`, or after `cli.build_parser()` when argv is None."""
    code = (
        "import contextlib, io, json, sys\n"
        "from telecert import cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is None:\n"
        "    cli.build_parser()\n"
        "    code = 0\n"
        "else:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True, env=env, cwd=cwd, check=True
    )
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return {name for name in modules if name.split(".")[0] == "numpy" or name.startswith("telecert")}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (None, NUMERICAL),
        (["plan", "--target-f", "0.6667", "--eps", "0.25"], NUMERICAL),
        (["certify", "--eps", "0.25", "--q", "35", "--x", "1"], NUMERICAL),
        (["figure2", "--out", "figure2.csv"], NUMERICAL),
        (["simulate", "--eps", "0.15", "--q", "5.45", "--x", "1", "--source", "werner", "--visibility", "0.95", "--trials", "2"], ("telecert.sdp", "telecert.npa")),
        (["derive-alpha", "--trust", "1sdi", "--eps-grid", "0.1"], ("telecert.protosim",)),
    ],
    ids=["build_parser", "plan", "certify", "figure2", "simulate", "derive-alpha"],
)
def test_commands_load_only_the_modules_they_run(tmp_path, argv, absent):
    # the planner's commands are pure Python; loading numpy and compiling
    # the solver would be most of their start-up
    loaded = _modules_loaded_by(argv, tmp_path)
    assert "telecert.cert" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & set(absent))


def test_numerical_commands_do_not_load_numpy_ma(tmp_path):
    # numpy's plain np.unique (and np.setdiff1d through it) imports
    # numpy.ma, several milliseconds of every fresh process
    commands = [
        ["derive-alpha", "--trust", "1sdi", "--kind", "both", "--eps-grid", "0.1"],
        ["derive-alpha", "--trust", "di", "--inequality", "chsh", "--kind", "state", "--eps-grid", "0.1"],
        ["npa-export", "--trust", "di", "--inequality", "chsh", "--eps", "0.1", "--constraints", "deduplicated", "--out", "di.dat-s"],
        ["sdp-solve", "--in", "di.dat-s", "--out", "solve.json"],
        ["simulate", "--trust", "di", "--inequality", "chsh", "--non-iid", "--eps", "0.9", "--q", "1", "--x", "0.05",
         "--source", "one-bad-pair", "--trials", "20", "--teleport-inputs", "5"],
    ]
    for argv in commands:
        assert "numpy.ma" not in _modules_loaded_by(argv, tmp_path), argv[0]


def test_sdp_errors_are_the_package_root_class():
    # the command line catches the root's class without importing the solver
    assert sdp.SdpError is telecert.SdpError
    assert issubclass(sdp.InfeasibleError, telecert.SdpError)
    assert telecert.SdpError.__bases__ == (RuntimeError,)


def test_solver_refusal_exits_one(capsys, monkeypatch):
    solve_family = sdp.solve_family

    def unfinished(instances, **kwargs):
        return [dataclasses.replace(sol, status="max-iterations") for sol in solve_family(instances, **kwargs)]

    monkeypatch.setattr(sdp, "solve_family", unfinished)
    code = cli.main(["derive-alpha", "--trust", "1sdi", "--kind", "state", "--eps-grid", "0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("telecert: error: moment problem at violation ")
    assert captured.err.endswith(": solve ended with status 'max-iterations'\n")


def test_solver_refusal_names_the_stall(capsys, monkeypatch):
    # a solve that stalls short of the contract is named as a stall, with
    # its iterations, relative gap and the contract tests it fails
    argv = ["derive-alpha", "--trust", "1sdi", "--kind", "state", "--eps-grid", "0.1"]
    code, out = run_cli(argv, capsys)
    assert code == 0
    (solve,) = json.loads(out)["reports"]["state"]["solves"]["state"]
    solve_family = sdp.solve_family

    def stalled(instances, **kwargs):
        return [
            dataclasses.replace(sol, status="max-iterations", termination="stall", unmet=["primal residual", "eigenvalue"])
            for sol in solve_family(instances, **kwargs)
        ]

    monkeypatch.setattr(sdp, "solve_family", stalled)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"telecert: error: moment problem at violation 1.9 (stall after {solve['iterations']} iterations, "
        f"relative gap {solve['relative_gap']:.2e}, failed primal residual, eigenvalue): "
        "solve ended with status 'max-iterations'\n"
    )


def test_config_switch_values_other_than_booleans_refused(tmp_path, capsys):
    # --iid and --non-iid take no value, so argparse would keep the file's
    # value as it is: "false" ran the iid formula and echoed "false"
    path = tmp_path / "c.json"
    for value in ("false", "true", 0, 1, None, [False]):
        path.write_text(json.dumps({"eps": 0.25, "q": 35, "x": 1, "iid": value}))
        code = cli.main(["certify", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"telecert: error: --config switches take true or false: iid = {json.dumps(value)}\n"
    # JSON booleans are read as the flags would be
    for iid, flag in ((True, "--iid"), (False, "--non-iid")):
        path.write_text(json.dumps({"eps": 0.25, "q": 35, "x": 1, "iid": iid}))
        code, out = run_cli(["certify", "--config", str(path)], capsys)
        doc = json.loads(out)
        assert code == 0 and doc["config"].pop("config") == str(path)
        code, out = run_cli(["certify", flag, "--eps", "0.25", "--q", "35", "--x", "1"], capsys)
        expected = json.loads(out)
        assert expected["config"].pop("config") is None
        assert doc == expected and doc["iid"] is iid


def test_config_file_defaults(tmp_path, capsys):
    config = {"eps": 0.25, "q": 35.0, "x": 1.0, "trust": "1sdi", "inequality": "steering"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(["certify", "--config", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(1 - 1.26 * (0.5 / 35 + 0.25), abs=1e-12)
    assert doc["config"]["config"] == str(path)
    # explicit flags still override the file
    code, out = run_cli(["certify", "--config", str(path), "--eps", "0.2"], capsys)
    assert json.loads(out)["params"]["epsilon"] == 0.2


def test_config_flag_spellings(tmp_path, capsys):
    # argparse accepts --config=path and unique prefixes; each reads the file
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"eps": 0.25, "q": 35.0, "x": 1.0}))
    outs = []
    for spelling in (["--config", str(path)], [f"--config={path}"], ["--conf", str(path)]):
        code, out = run_cli(["certify", *spelling], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_config_file_does_not_reach_later_calls(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"eps": 0.25, "target_p": 0.6}))
    argv = ["plan", "--target-f", "0.6667"]
    code, out = run_cli(argv + ["--config", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["eps"] == 0.25
    code, out = run_cli(argv, capsys)
    assert code == 0
    config = json.loads(out)["config"]
    assert config["eps"] is None and config["target_p"] == 0.75 and config["config"] is None
    assert config == cli._config_of(cli.build_parser().parse_args(argv))


def test_config_file_missing(capsys):
    code = cli.main(["certify", "--config", "/nonexistent/x.json", "--eps", "0.2", "--q", "3", "--x", "1"])
    assert code == 1


def test_config_file_not_an_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps([["eps", 0.2]]))
    code = cli.main(["certify", "--config", str(path), "--eps", "0.2", "--q", "3", "--x", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("telecert: error:")


def test_config_values_are_read_as_their_flags(tmp_path, capsys):
    # a number is converted by its option's own type, as the flag's text
    # would be: q = 35 is the float 35.0 of --q 35
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"eps": 0.25, "q": 35, "x": 1}))
    code, out = run_cli(["certify", "--config", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["config"].pop("config") == str(path)
    code, out = run_cli(["certify", "--eps", "0.25", "--q", "35", "--x", "1"], capsys)
    expected = json.loads(out)
    assert expected["config"].pop("config") is None
    assert doc == expected
    # a value its flag would refuse is a usage error, not a traceback
    path.write_text(json.dumps({"eps": [0.25], "q": 35, "x": 1}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", "--config", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err == "telecert certify: error: argument --eps: invalid float value: '[0.25]'\n"


@pytest.mark.parametrize(
    "config, named",
    [({"eps": 0.25, "q": 35, "x": 1, "sed": 5, "visibility": 0.5}, "sed, visibility"), ({"seed": 5}, "seed")],
    ids=["misspelt-and-foreign", "seed"],
)
def test_config_keys_the_command_has_no_option_for_refused(tmp_path, capsys, config, named):
    # the output's config would echo them as if the command had acted on them
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code = cli.main(["certify", "--config", str(path), "--eps", "0.25", "--q", "35", "--x", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"telecert: error: --config keys that certify has no option for: {named}\n"


@pytest.mark.parametrize(
    "argv, rest",
    [
        (["certify", "--eps", "0.25", "--q", "35", "--x", "1", "--seed", "5"], "--seed 5"),
        (["plan", "--target-f", "0.6667", "--eps", "0.25", "--format", "csv"], "--format csv"),
        (["figure2", "--target-f", "0.5"], "--target-f 0.5"),
    ],
    ids=["certify-seed", "plan-format", "figure2-target-f"],
)
def test_options_no_command_reads_are_usage_errors(capsys, argv, rest):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err == f"telecert: error: unrecognized arguments: {rest}\n"


def _representative_argv(command, folder):
    """One run of ``command`` with every output written under ``folder``."""
    sdpa = folder / "in.dat-s"
    sdpa.write_text(_GOOD_SDPA)
    out = ["--out", str(folder / "out")]
    return {
        "plan": ["plan", "--target-f", "0.6667", "--eps", "0.25", *out],
        "certify": ["certify", "--eps", "0.25", "--q", "35", "--x", "1", *out],
        "simulate": [
            "simulate", "--eps", "0.15", "--q", "5.45", "--x", "1", "--source", "werner", "--visibility", "0.95",
            "--trials", "2", *out, "--summary-out", str(folder / "summary.json"),
        ],
        "derive-alpha": [
            "derive-alpha", "--trust", "1sdi", "--kind", "state", "--eps-grid", "0.1", *out,
            "--curve-out", str(folder / "curve.csv"),
        ],
        "npa-export": [
            "npa-export", "--eps", "0.1", *out, "--words-out", str(folder / "words.json"),
            "--report-out", str(folder / "report.json"),
        ],
        "sdp-solve": ["sdp-solve", "--in", str(sdpa), *out],
        "figure2": ["figure2", "--eps-grid", "0.1,0.2", *out, "--crossings-out", str(folder / "crossings.json")],
    }[command]


@pytest.mark.parametrize("command", sorted(cli.build_parser()._telecert_subparsers.choices))
def test_every_option_a_command_takes_is_read_when_it_runs(tmp_path, command):
    # an option the command never reads is still echoed in its output's
    # config, as if it had acted on it; --config is read by main
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    args = parser.parse_args(_representative_argv(command, tmp_path), namespace=Recording())
    func = args.func
    reads.clear()
    assert func(args) == 0
    options = {action.dest for action in parser._telecert_subparsers.choices[command]._actions} - {"help"}
    assert sorted(options - reads - {"config"}) == []


@pytest.mark.parametrize("doc", [{"per_objective": {"state": 1.3}}, [1.3], {"alpha": "high"}, {"alpha": True}])
def test_alpha_json_without_alpha(tmp_path, capsys, doc):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["certify", "--eps", "0.2", "--q", "20", "--x", "1", "--alpha-json", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("telecert: error:")


@pytest.mark.parametrize(
    "argv, alpha, message",
    [
        (["certify", "--eps", "0.25"], None, "missing required option(s): --q, --x"),
        (["derive-alpha", "--eps-grid", ","], None, "empty grid"),
        (["certify", "--eps", "0.2", "--q", "20", "--x", "1"], "1.3", "{path}: not an alpha report (no numeric 'reports.state.alpha')"),
        (["certify", "--eps", "0.2", "--q", "20", "--x", "1"], True, "{path}: not an alpha report (no numeric 'reports.state.alpha')"),
    ],
    ids=["missing-options", "empty-grid", "string-alpha", "boolean-alpha"],
)
def test_outside_input_refused_before_any_output(tmp_path, capsys, argv, alpha, message):
    path = tmp_path / "alpha.json"
    if alpha is not None:
        # a report for the command's setting whose state alpha is no number
        path.write_text(json.dumps({"reports": {"state": {"setting": "1sdi", "inequality": "steering", "alpha": alpha}}}))
        argv = argv + ["--alpha-json", str(path)]
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"telecert: error: {message.format(path=path)}\n"
    assert [entry.name for entry in tmp_path.iterdir()] == (["alpha.json"] if alpha is not None else [])


@pytest.fixture(scope="module")
def alpha_reports(tmp_path_factory):
    """derive-alpha reports at one grid point: the one-sided CHSH state
    bound, and the one-sided steering measurement bound alone."""
    folder = tmp_path_factory.mktemp("alpha")
    paths = {}
    for inequality, kind in (("chsh", "state"), ("steering", "measurement")):
        paths[kind] = folder / f"{inequality}-{kind}.json"
        argv = ["derive-alpha", "--trust", "1sdi", "--inequality", inequality, "--kind", kind, "--eps-grid", "0.1"]
        assert cli.main(argv + ["--out", str(paths[kind])]) == 0
    return paths


_ALPHA_COMMANDS = {
    "plan": ["plan", "--target-f", "0.6667", "--eps", "0.1"],
    "certify": ["certify", "--eps", "0.02", "--q", "2", "--x", "1"],
    "simulate": ["simulate", "--eps", "0.02", "--q", "2", "--x", "1", "--trials", "2", "--seed", "3"],
}


@pytest.mark.parametrize("command", sorted(_ALPHA_COMMANDS))
@pytest.mark.parametrize(
    "kind, trust, inequality, message",
    [
        ("state", "di", "chsh", "alpha derived for --trust 1sdi --inequality chsh, not --trust di --inequality chsh"),
        ("state", "1sdi", "steering", "alpha derived for --trust 1sdi --inequality chsh, not --trust 1sdi --inequality steering"),
        ("measurement", "1sdi", "steering", "not a state-bound alpha report (no 'reports.state'"),
    ],
    ids=["other-trust", "other-inequality", "measurement-only"],
)
def test_alpha_json_must_match_the_command(alpha_reports, capsys, command, kind, trust, inequality, message):
    # a report derived for another setting or inequality, or one without
    # the state bound (whose top-level alpha is a measurement slope), would
    # put a foreign slope into the certificate
    argv = _ALPHA_COMMANDS[command] + ["--trust", trust, "--inequality", inequality]
    code = cli.main(argv + ["--alpha-json", str(alpha_reports[kind])])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"telecert: error: {alpha_reports[kind]}: {message}")


@pytest.mark.parametrize("command", sorted(_ALPHA_COMMANDS))
@pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
def test_alpha_and_alpha_json_refused_together(tmp_path, capsys, command, from_config):
    # --alpha would win and the report would go unread, a missing file too
    missing = str(tmp_path / "missing.json")
    argv = _ALPHA_COMMANDS[command] + ["--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--summary-out", str(tmp_path / "summary")]
    if from_config:
        (tmp_path / "cfg.json").write_text(json.dumps({"alpha": 0.5, "alpha_json": missing}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    else:
        argv += ["--alpha", "0.5", "--alpha-json", missing]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "telecert: error: --alpha and --alpha-json both give the slope; pass one of them\n"
    assert [entry.name for entry in tmp_path.iterdir()] == (["cfg.json"] if from_config else [])


def test_alpha_json_matching_report(alpha_reports, capsys):
    report = json.loads(alpha_reports["state"].read_text())
    alpha = report["reports"]["state"]["alpha"]
    for command, argv in _ALPHA_COMMANDS.items():
        argv = argv + ["--trust", "1sdi", "--inequality", "chsh", "--alpha-json", str(alpha_reports["state"])]
        code, out = run_cli(argv, capsys)
        assert code == 0, command
        doc = json.loads(out)
        if command == "certify":
            assert doc["params"]["alpha"] == alpha and doc["params"]["alpha_source"] == "sdp-derived"
            params = cert.CertificateParams("1sdi", "chsh", True, 0.02, 2.0, 1.0, cert.SlopeBound(alpha, "sdp-derived"))
            assert doc["fidelity"] == cert.fidelity_bound(params).fidelity

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from telecert import cert, cli, npa, protosim


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
    for constraints, written in (("generated", 168), ("deduplicated", 74)):
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
    # the largest admitted dimension is the fully untrusted problem's 81
    assert 81**2 * (81 * 82 // 2) <= npa.MAX_WORKSPACE_ENTRIES < 82**2 * (82 * 83 // 2)


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
    assert cdoc["crossings"]["1sdi_iid"]["epsilon"] is not None


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


@pytest.mark.parametrize("doc", [{"per_objective": {"state": 1.3}}, [1.3], {"alpha": "high"}, {"alpha": True}])
def test_alpha_json_without_alpha(tmp_path, capsys, doc):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["certify", "--eps", "0.2", "--q", "20", "--x", "1", "--alpha-json", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("telecert: error:")


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
            params = cert.CertificateParams("1sdi", "chsh", True, 0.02, 2.0, 1.0, alpha, "sdp-derived")
            assert doc["fidelity"] == cert.fidelity_bound(params).fidelity

"""telecert benchmark: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory.  The workload's operations run one after another
in whole rounds until S seconds have passed.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics,
every time scaled to the reference machine's speed (calibration.py);
with --trace 1, untraced and traced rounds alternate and it holds the
per-layer metrics.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import calibration
import spans
import workloads

#: BLAS threads.  One thread is the fastest setting on the 2-core
#: reference machine (two threads doubled the time of an 81x81 solve)
#: and keeps runs independent of other load on the machine.
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)  # before numpy is imported

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_ref_s": "s", "cmd_p50_ref_ms": "ms", "peak_rss_mb": "MB"}


def import_telecert() -> dict:
    """telecert modules from this checkout's src/, never an installed copy."""
    if not (SRC / "telecert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no telecert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import telecert
    from telecert import cert, cli, npa, protosim, qcore, sdp

    if pathlib.Path(telecert.__file__).resolve().parent != SRC / "telecert":
        raise SystemExit(f"perfbench: imported telecert from {telecert.__file__}, not {SRC}")
    return {"cli": cli, "sdp": sdp, "npa": npa, "cert": cert, "protosim": protosim, "qcore": qcore}


def measure_setup(clock) -> tuple:
    """Median time for a fresh interpreter to import telecert (with numpy
    and scipy) and build the CLI parser, raw and at the reference speed;
    one unmeasured start first."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from telecert import cli; cli.build_parser()"
    env = dict(os.environ, **BLAS_ENV)
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES + 1):
        clock.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        end = time.perf_counter()
        clock.sample()
        raw.append(end - start)
        scaled.append((end - start) * clock.scale(start, end))
    return statistics.median(raw[1:]), statistics.median(scaled[1:])


def run_op(op, cli) -> None:
    out, err = io.StringIO(), io.StringIO()
    op.start = start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is not None:
                op.code = cli.main(op.argv)
            else:
                op.value = op.call()
                op.code = 0
    except Exception:  # a crash is one failed operation, not the end of the run
        op.code = -1
        err.write(traceback.format_exc())
    op.seconds = time.perf_counter() - start
    op.stdout, op.error = out.getvalue(), err.getvalue()


def run_round(rnd, cli, clock=None) -> None:
    """Run the round's operations in order, sampling the machine's speed
    between them when `clock` is given."""
    for op in rnd.ops:
        if clock is not None:
            clock.sample_if_due()
        run_op(op, cli)


def scaled_seconds(timings, clock) -> list:
    """Each operation's time at the reference speed."""
    return [seconds * clock.scale(start, start + seconds) for start, seconds in timings]


def check_round(rnd) -> list:
    """Run the round's checks; mark the operations a failing check reads."""
    messages = []
    by_label = {op.label: op for op in rnd.ops}
    for op in rnd.ops:
        if op.code != 0:
            op.failed = True
            messages.append(f"{op.label}: exit code {op.code} {op.error.strip()[-300:]}")
    for labels, fn in rnd.checks:
        ops = [by_label[label] for label in labels]
        if any(op.failed for op in ops):
            continue
        try:
            failures = fn()
        except Exception:  # unreadable output fails the check
            failures = [f"{labels[0]}: output unreadable\n{traceback.format_exc()}"]
        if failures:
            messages.extend(failures)
            for op in ops:
                op.failed = True
    return messages


def warm_up(cli) -> None:
    """Load lazily imported code paths once before any timing."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["derive-alpha", "--trust", "1sdi", "--eps-grid", "0.1"])
        cli.main(["plan", "--target-f", "0.6", "--eps", "0.25"])
        cli.main(["simulate", "--eps", "0.3", "--q", "2", "--x", "1", "--trials", "2"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    telecert = import_telecert()
    cli = telecert["cli"]
    build = workloads.WORKLOADS[args.workload]
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    try:
        warm_up(cli)
        clock = calibration.Calibration()
        setup = measure_setup(clock) if not args.trace else None
        tracer = spans.Tracer(telecert)
        timings = {False: [], True: []}  # per round: (start, seconds) of each operation
        main_ops = []  # indices of the workload's main commands in a round
        attempted = failed = 0
        messages = []
        start = time.perf_counter()
        index = 0
        while True:
            traced = bool(args.trace) and index % 2 == 1
            rnd = build(args.seed, index, WORK, telecert)
            if traced:
                tracer.install()
            try:
                run_round(rnd, cli, clock)
            finally:
                tracer.uninstall()
            timings[traced].append([(op.start, op.seconds) for op in rnd.ops])
            main_ops = [i for i, op in enumerate(rnd.ops) if op.main]
            messages += check_round(rnd)
            attempted += len(rnd.ops)
            failed += sum(op.failed for op in rnd.ops)
            del rnd
            gc.collect()  # so garbage of one round does not lift the next round's peak memory
            index += 1
            if index >= (2 if args.trace else 1) and time.perf_counter() - start >= args.seconds:
                break
        clock.sample()  # one sample after the last operation too
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for message in messages:
        print("CHECK FAILED:", message, file=sys.stderr)
    raw = {traced: [[s for _, s in r] for r in rounds] for traced, rounds in timings.items()}
    scaled = {traced: [scaled_seconds(r, clock) for r in rounds] for traced, rounds in timings.items()}
    wall = {traced: statistics.median(map(sum, rounds)) if rounds else None for traced, rounds in scaled.items()}
    raw_wall = statistics.median(map(sum, raw[False]))

    def cmd_p50_ms(rounds):
        """Median over the main commands of each one's median over the rounds."""
        return 1e3 * statistics.median(statistics.median(r[i] for r in rounds) for i in main_ops)

    print(
        f"raw (unscaled): wall {raw_wall:.4g} s, cmd_p50 {cmd_p50_ms(raw[False]):.4g} ms"
        + (f", setup {setup[0]:.4g} s" if setup else "")
        + f"; reference computation median {clock.median_ms():.4g} ms"
        f" (reference speed: {1e3 * calibration.REFERENCE_S:.4g} ms)"
    )
    if args.trace:
        metrics = tracer.metrics(len(timings[True]))
        metrics["trace.overhead_s"] = wall[True] - wall[False]
        metrics["machine.reference_ms"] = clock.median_ms()
        units = {name: spans.unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": setup[1],
            "wall_ref_s": wall[False],
            "cmd_p50_ref_ms": cmd_p50_ms(scaled[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    rounds = len(timings[False]) + len(timings[True])
    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds, {attempted} operations attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

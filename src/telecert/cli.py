"""Command-line entry point.

Subcommands: plan, certify, simulate, derive-alpha, npa-export,
sdp-solve, figure2.  Every output embeds the invoking configuration
(with `simulate`'s seed), formula identifiers, and the package version;
identical configurations produce byte-identical files, those of the
solver (`derive-alpha`, `sdp-solve`) only at a fixed BLAS thread count,
which no output records.  Exit codes: 0 on
success, 2 on infeasible targets or a rejected run, 1 on errors.

Only the standard library and the pure-Python planner `cert` load with
this module.  The numerical modules load on demand, inside the command
that runs them: `simulate` imports `protosim` (and with it `qcore` and
numpy), and `derive-alpha`, `npa-export` and `sdp-solve` import `sdp`
and `npa`.  So `plan`, `certify`, `figure2` and `--help` start without
numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import SdpError, __version__, cert


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are errors, not "infeasible"
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_of(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {k: (v if not isinstance(v, float) else float(v)) for k, v in config.items()}


def _document(args, payload: dict) -> dict:
    return {
        "version": __version__,
        "config": _config_of(args),
        **payload,
    }


def _write_json(args, payload: dict, path) -> None:
    """Write the document to ``path``, or to stdout when it is None."""
    doc = _document(args, payload)
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    return str(value)


def _write_csv(args, header, rows, path) -> None:
    lines = ["# " + json.dumps(_document(args, {}), sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_value(row[h]) for h in header))
    with open(path, "w") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


def _parse_grid(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty grid")
    return values


def _resolve_bound(args) -> cert.SlopeBound | None:
    """The slope of the command's certificate: --alpha, or the state bound
    of an --alpha-json report derived for the command's --trust and
    --inequality, or None for the published bound.  Both at once, from
    flags or --config, are refused: one of them would go unread."""
    path = getattr(args, "alpha_json", None)
    if getattr(args, "alpha", None) is not None:
        if path:
            raise ValueError("--alpha and --alpha-json both give the slope; pass one of them")
        return cert.SlopeBound(float(args.alpha), "explicit")
    if path:
        with open(path) as handle:
            doc = json.load(handle)
        reports = doc.get("reports") if isinstance(doc, dict) else None
        state = reports.get("state") if isinstance(reports, dict) else None
        if not isinstance(state, dict):
            raise ValueError(f"{path}: not a state-bound alpha report (no 'reports.state'; derive it with --kind state)")
        derived_for = (state.get("setting"), state.get("inequality"))
        if derived_for != (args.trust, args.inequality):
            raise ValueError(
                f"{path}: alpha derived for --trust {derived_for[0]} --inequality {derived_for[1]}, "
                f"not --trust {args.trust} --inequality {args.inequality}"
            )
        alpha = state.get("alpha")
        if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
            raise ValueError(f"{path}: not an alpha report (no numeric 'reports.state.alpha')")
        return cert.SlopeBound(float(alpha), "sdp-derived")
    return None


# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    _require(args, "target_f")
    result = cert.plan(
        args.target_f,
        args.target_p,
        args.trust,
        args.inequality,
        args.iid,
        epsilon=args.eps,
        max_copies=args.max_k,
        bound=_resolve_bound(args),
    )
    payload = result.to_json()
    if result.feasible:
        p = result.params
        payload["row"] = {
            "epsilon": p.epsilon,
            "violation": p.violation,
            "q": p.q,
            "x": p.x,
            "copies": result.certificate.copies,
            "fidelity": result.certificate.fidelity,
            "probability": result.certificate.probability,
        }
    _write_json(args, payload, args.out)
    return 0 if result.feasible else 2


def cmd_certify(args) -> int:
    _require(args, "eps", "q", "x")
    params = cert.CertificateParams(
        args.trust, args.inequality, args.iid, args.eps, args.q, args.x, _resolve_bound(args)
    )
    certificate = cert.fidelity_bound(params)
    _write_json(args, certificate.to_json(), args.out)
    return 0


def _source_factory(args, mode: str, copies: int):
    """``source_factory(copies, rng)`` for run_trials of ``copies``-pair
    runs.  The iid and drift sources draw no randomness and keep no
    per-run state, so one instance serves the whole batch; a one-bad-pair
    source draws its bad index per trial."""
    from . import protosim

    if args.source == "one-bad-pair":
        return lambda copies, rng: protosim.one_bad_pair_source(mode, copies, int(rng.integers(copies)), args.visibility)
    if args.source in ("honest", "werner"):  # cmd_simulate holds honest at visibility 1
        source = protosim.werner_source(mode, args.visibility)
    elif args.source == "drift":
        source = protosim.drifting_visibility_source(mode, copies, args.visibility, args.v_end)
    else:
        raise ValueError(f"unknown source {args.source!r}")
    return lambda copies, rng: source


def cmd_simulate(args) -> int:
    _require(args, "eps", "q", "x")
    if args.teleport_inputs < 0:
        raise ValueError("--teleport-inputs must be at least 0 (0 skips teleportation)")
    for flag, value in (("--visibility", args.visibility), ("--v-end", args.v_end)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite")
    params = cert.CertificateParams(
        args.trust, args.inequality, args.iid, args.eps, args.q, args.x, _resolve_bound(args)
    )
    # A flag the source never reads would be echoed in the summary's config
    # as if it had been simulated.
    if args.source == "honest" and args.visibility != 1.0:
        raise ValueError("--visibility must be 1.0 with --source honest, which is visibility 1")
    if args.source != "drift" and args.v_end != 1.0:
        raise ValueError(f"--v-end is read only by --source drift, not --source {args.source}")
    if args.seed < 0:
        raise ValueError("--seed must be at least 0")
    from . import protosim, qcore

    if args.teleport_inputs > qcore.MAX_TELEPORT_INPUTS:
        raise ValueError(
            f"--teleport-inputs {args.teleport_inputs} exceeds the {qcore.MAX_TELEPORT_INPUTS} inputs "
            "a teleportation admits (about 1 kB per input)"
        )

    mode = protosim.protocol_mode(params)
    copies = protosim.adjusted_copies(params)
    trials = protosim.run_trials(_source_factory(args, mode, copies), params, args.trials, args.seed)
    stats = protosim.SoundnessStats.start(params, args.trials)
    rows = []
    for number, trial in enumerate(trials):
        stats.record(trial)
        transcript, certificate = trial.transcript, trial.certificate
        row = {
            "trial": number,
            "verdict": "accept" if transcript.accepted else "reject",
            "statistic": transcript.statistic,
            "certified_F": certificate.fidelity if certificate else "",
            "true_F": trial.true_fidelity if certificate else "",
            "teleport_F": "",
        }
        if certificate is not None and args.teleport_inputs:
            report = protosim.teleport_with_certificate(
                trial.source, transcript, certificate, args.teleport_inputs, trial.rng
            )
            row["teleport_F"] = report["empirical_fidelity"]
        rows.append(row)
    summary = {
        "schema": "protosim/1",
        "kind": "batch",
        "trials": args.trials,
        "accepted": stats.accepted,
        "bound_violations": stats.bound_violations,
        "certificate_fidelity": stats.certificate_fidelity,
        "certificate_probability": stats.certificate_probability,
        "copies": copies,
    }
    if args.out:
        _write_csv(args, ["trial", "verdict", "statistic", "certified_F", "true_F", "teleport_F"], rows, args.out)
    if args.summary_out or not args.out:
        _write_json(args, summary, args.summary_out)
    if args.trials == 1 and stats.accepted == 0:
        return 2
    return 0


def cmd_derive_alpha(args) -> int:
    from . import sdp

    grid = _parse_grid(args.eps_grid)
    setting = args.trust
    kinds = ("state", "measurement") if args.kind == "both" else (args.kind,)
    report = sdp.derive_alphas(setting, args.inequality, kinds, grid, max_local_length=args.word_cap)
    main_kind = kinds[0]
    payload = {
        "schema": "sdp/1",
        "kind": "alpha-report",
        "alpha": report[main_kind]["alpha"],
        "reports": report,
    }
    if args.curve_out:
        rows = []
        for kind in kinds:
            for objective, curve in report[kind]["curves"].items():
                for eps, fidelity in curve:
                    rows.append(
                        {"kind": kind, "objective": objective, "epsilon": eps, "fidelity": fidelity}
                    )
        _write_csv(args, ["kind", "objective", "epsilon", "fidelity"], rows, args.curve_out)
    _write_json(args, payload, args.out)
    return 0


def cmd_npa_export(args) -> int:
    _require(args, "eps")
    from . import npa, sdp

    [(problem, violation)] = sdp.moment_points(args.trust, args.inequality, args.objective, [args.eps], args.word_cap)
    info = npa.export_sdpa(problem, args.out, violation, constraints=args.constraints)
    if args.words_out:
        with open(args.words_out, "w") as handle:
            json.dump(npa.words_to_json(problem.words), handle, sort_keys=True, indent=1)
            handle.write("\n")
    _write_json(args, {"schema": "npa/1", "kind": "export", **info}, args.report_out)
    return 0


def cmd_sdp_solve(args) -> int:
    """Solve the file's problem in the free-moment form of
    `sdp.companion_instance`: `objective` is the file problem's minimum,
    and the other figures are the companion solve's."""
    _require(args, "infile")
    if args.max_iterations < 1:
        raise ValueError("--max-iterations must be at least 1")
    from . import npa, sdp

    objective, constraints = npa.read_sdpa_numeric(args.infile)
    problem = sdp.SdpInstance(objective, sdp.Constraints(*constraints))
    try:
        instance, offset, _ = sdp.companion_instance(*sdp.fold_ties(problem))
    except sdp.InfeasibleError as exc:
        verdict = {"status": "infeasible", "termination": "inconsistent-constraints", "reason": str(exc)}
        _write_json(args, {"schema": "sdp/1", "kind": "solution", **verdict}, args.out)
        return 2
    solution = sdp.solve(instance, max_iterations=args.max_iterations)
    payload = {
        "schema": "sdp/1",
        "kind": "solution",
        "status": solution.status,
        "termination": solution.termination,
        "objective": offset - solution.primal_objective,
        "constraints": len(instance.constraints),
        "gap": solution.gap,
        "primal_residual": solution.primal_residual,
        "dual_residual": solution.dual_residual,
        "iterations": solution.iterations,
        "trace": solution.trace,
    }
    _write_json(args, payload, args.out)
    if solution.status == "infeasible":
        return 2
    if solution.status != "optimal":
        return 1
    return 0


#: The paper's Figure 2: the classical teleportation bound F = 2/3, the
#: confidence targets (iid and martingale curves), the operating CHSH
#: violations each curve is anchored at, and the copy-count cap.
FIGURE2_TARGET_F = 2.0 / 3.0
FIGURE2_TARGET_P = {True: 0.75, False: 0.6}
FIGURE2_PLAN_EPS = {True: 2 * math.sqrt(2) - 2.49, False: 2 * math.sqrt(2) - 2.73}
FIGURE2_MAX_K = 1e8


def cmd_figure2(args) -> int:
    grid = _parse_grid(args.eps_grid)
    families = []
    for trust in ("1sdi", "di"):
        planned = {}
        for iid in (True, False):
            plan_kwargs = dict(
                target_fidelity=FIGURE2_TARGET_F,
                target_probability=FIGURE2_TARGET_P[iid],
                trust=trust,
                inequality="chsh",
                iid=iid,
                max_copies=FIGURE2_MAX_K,
            )
            # Anchor the curve at the quoted operating violation when that
            # point is reachable for this trust level; otherwise fall back
            # to the copy-minimizing parameters.
            result = cert.plan(epsilon=FIGURE2_PLAN_EPS[iid], **plan_kwargs)
            if not result.feasible:
                result = cert.plan(**plan_kwargs)
            # Every plan of these constant targets is feasible, and its eps
            # joins the grid at F >= 2/3, so every curve crosses the grid.
            planned[iid] = result
            grid.append(result.params.epsilon)
        families.append((trust, planned))
    grid = sorted(set(grid))

    header = ["epsilon"]
    columns = {}
    crossings = {}
    for trust, planned in families:
        for iid in (True, False):
            tag = f"{trust}_{'iid' if iid else 'noniid'}"
            result = planned[iid]
            q, x = result.params.q, result.params.x
            rows = cert.sweep_rows(trust, "chsh", grid, q, x)
            key = "fidelity_iid" if iid else "fidelity_noniid"
            kkey = "copies_iid" if iid else "copies_noniid"
            columns[f"F_{tag}"] = [r[key] for r in rows]
            columns[f"K_{tag}"] = [r[kkey] for r in rows]
            header.extend([f"F_{tag}", f"K_{tag}"])
            crossing = max(e for e, f in zip(grid, columns[f"F_{tag}"]) if f >= FIGURE2_TARGET_F)
            crossings[tag] = {
                "epsilon": crossing,
                "violation": cert.max_violation(trust, "chsh") - crossing,
                "q": q,
                "x": x,
                "planned_epsilon": result.params.epsilon,
                "planned_copies": result.certificate.copies,
            }
    rows = []
    for i, eps in enumerate(grid):
        row = {"epsilon": eps}
        for name, values in columns.items():
            row[name] = values[i]
        rows.append(row)
    _write_csv(args, header, rows, args.out)
    if args.crossings_out:
        _write_json(args, {"schema": "cert/1", "kind": "figure2-crossings", "classical_bound": FIGURE2_TARGET_F, "crossings": crossings}, args.crossings_out)
    return 0


# ---------------------------------------------------------------------------


def _add_common(sub, out_default=None):
    sub.add_argument("--out", default=out_default)
    sub.add_argument("--config", default=None, help="JSON file with flag defaults (dest names)")


def _add_params(sub):
    sub.add_argument("--trust", choices=cert.TRUSTS, default="1sdi")
    sub.add_argument("--inequality", choices=cert.INEQUALITIES, default="steering")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--iid", dest="iid", action="store_true", default=True)
    group.add_argument("--non-iid", dest="iid", action="store_false")
    sub.add_argument("--eps", type=float, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--alpha-json", default=None, help="alpha report from derive-alpha")


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags}")


def build_parser() -> _Parser:
    # the docstring's last paragraph, on what loads when, is not for --help
    parser = _Parser(prog="telecert", description=__doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    parser._telecert_subparsers = subparsers

    p = subparsers.add_parser("plan", parents=[], help="invert the certificate for target fidelity")
    _add_common(p)
    _add_params(p)
    p.add_argument("--target-f", type=float, default=None)
    p.add_argument("--target-p", type=float, default=0.75)
    p.add_argument("--max-k", type=float, default=None)
    p.set_defaults(func=cmd_plan)

    p = subparsers.add_parser("certify", help="evaluate the fidelity certificate")
    _add_common(p)
    _add_params(p)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.set_defaults(func=cmd_certify)

    p = subparsers.add_parser("simulate", help="Monte Carlo protocol runs")
    _add_common(p)
    _add_params(p)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--source", choices=("honest", "werner", "one-bad-pair", "drift"), default="honest")
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--v-end", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--teleport-inputs", type=int, default=0)
    p.add_argument("--summary-out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = subparsers.add_parser("derive-alpha", help="re-derive self-testing constants")
    _add_common(p)
    p.add_argument("--trust", choices=cert.TRUSTS, default="1sdi")
    p.add_argument("--inequality", choices=cert.INEQUALITIES, default="steering")
    p.add_argument("--kind", choices=("state", "measurement", "both"), default="state")
    p.add_argument("--eps-grid", default="0.01,0.02,0.05,0.1,0.2")
    p.add_argument("--word-cap", type=int, default=None)
    p.add_argument("--curve-out", default=None)
    p.set_defaults(func=cmd_derive_alpha)

    p = subparsers.add_parser("npa-export", help="write the moment problem as sparse SDPA")
    _add_common(p, out_default="problem.dat-s")
    p.add_argument("--trust", choices=cert.TRUSTS, default="1sdi")
    p.add_argument("--inequality", choices=cert.INEQUALITIES, default="steering")
    p.add_argument("--objective", default="state")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--word-cap", type=int, default=None)
    p.add_argument("--constraints", choices=("generated", "deduplicated"), default="generated")
    p.add_argument("--words-out", default=None)
    p.add_argument("--report-out", default=None)
    p.set_defaults(func=cmd_npa_export)

    p = subparsers.add_parser("sdp-solve", help="solve a sparse SDPA file")
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--max-iterations", type=int, default=100)
    p.set_defaults(func=cmd_sdp_solve)

    p = subparsers.add_parser("figure2", help="the paper's Figure 2: certification curves and classical-bound crossings")
    _add_common(p, out_default="figure2.csv")
    p.add_argument("--eps-grid", default=",".join(repr(round(0.02 * k, 2)) for k in range(1, 31)))
    p.add_argument("--crossings-out", default=None)
    p.set_defaults(func=cmd_figure2)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser that reads every call's argv first, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _shared_parser().parse_args(argv)
    if args.config is not None:
        try:
            with open(args.config) as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"telecert: error: {exc}", file=sys.stderr)
            return 1
        if not isinstance(config, dict):
            print("telecert: error: --config file must hold a JSON object", file=sys.stderr)
            return 1
        # File values become defaults of a parser of this call's own, so
        # they never reach a later call; explicit flags still win.  A key
        # the command has no option for would be echoed in its output's
        # config as if it had acted on it.
        parser = build_parser()
        sub = parser._telecert_subparsers.choices[args.command]
        takes_value = {action.dest: action.nargs != 0 for action in sub._actions if action.dest != "help"}
        unknown = sorted(set(config) - set(takes_value))
        if unknown:
            print(f"telecert: error: --config keys that {args.command} has no option for: {', '.join(unknown)}", file=sys.stderr)
            return 1
        # A switch (--iid/--non-iid) takes no value, so argparse would
        # keep any JSON value as it is, and "false" would read as true.
        loose = sorted(k for k, v in config.items() if not takes_value[k] and not isinstance(v, bool))
        if loose:
            values = ", ".join(f"{k} = {json.dumps(config[k])}" for k in loose)
            print(f"telecert: error: --config switches take true or false: {values}", file=sys.stderr)
            return 1
        # argparse converts a string default with its option's own type,
        # as if it had been given as the flag, so a value of the wrong
        # kind is a usage error.
        sub.set_defaults(**{k: str(v) if v is not None and takes_value[k] else v for k, v in config.items()})
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SdpError) as exc:
        print(f"telecert: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Span tracer for the per-layer metrics.

While installed, it replaces chosen public functions of the telecert
modules with wrappers that time each call as a span and keep, per
function, the call count and the self time: the span's duration minus
the part covered by traced calls made inside it.  The program's own
files are untouched; the modules resolve these names through their
module globals at call time, so replacing the module attribute also
catches calls between and within modules.  Totals stay in memory until
the run reports them.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

#: Functions wrapped per module.  The outer ones that no metric reports
#: (derive_alpha, min_fidelity_curve, soundness_experiment) keep their own
#: glue out of the self time of their callers.
TRACED = {
    "cli": ("main",),
    "sdp": ("derive_alpha", "min_fidelity_curve", "companion_instance", "solve"),
    "npa": ("generate_words", "build_moment_problem", "reduce_problem", "export_sdpa", "read_sdpa_numeric"),
    "cert": ("plan", "werner_visibility_threshold", "sweep_rows", "fidelity_bound"),
    "protosim": ("soundness_experiment", "run_protocol", "true_extracted_fidelity", "teleport_with_certificate"),
    "qcore": ("swap_isometry_extract", "teleport_average_fidelity"),
}

#: Reported per-layer metrics: self times, call counts and boundary counters.
SELF_TIMES = (
    "sdp.solve", "sdp.companion_instance",
    "npa.generate_words", "npa.build_moment_problem", "npa.reduce_problem", "npa.export_sdpa", "npa.read_sdpa_numeric",
    "protosim.true_extracted_fidelity", "protosim.teleport_with_certificate",
    "qcore.swap_isometry_extract", "qcore.teleport_average_fidelity",
    "cert.plan", "cert.fidelity_bound", "cert.werner_visibility_threshold", "cert.sweep_rows",
    "cli.main",
)
CALLS = ("sdp.solve", "protosim.run_protocol", "qcore.swap_isometry_extract", "cert.plan", "cert.fidelity_bound")
COUNTS = (
    "sdp.solve.iterations", "sdp.solve.constraints_in", "sdp.solve.constraints_kept", "npa.export_sdpa.bytes",
    "protosim.run_protocol.self_s.iid", "protosim.run_protocol.self_s.sequence", "protosim.run_protocol.self_s.adaptive",
    "protosim.copies_sampled", "protosim.accepted_trials",
)

UNITS = {"trace.overhead_s": "s", "npa.export_sdpa.bytes": "bytes", "protosim.copies_per_s": "1/s", "sdp.solve.ms_per_iteration": "ms", "machine.reference_ms": "ms"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if "self_s" in name else "count"


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module object
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack: list = []  # [name, start, child seconds]
        self._originals: list = []

    def install(self) -> None:
        for mod_name, names in TRACED.items():
            module = self.modules[mod_name]
            for name in names:
                original = getattr(module, name)
                self._originals.append((module, name, original))
                setattr(module, name, self._wrap(f"{mod_name}.{name}", original))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original = self._originals.pop()
            setattr(module, name, original)

    def _wrap(self, span: str, fn):
        hook = getattr(self, "_after_" + span.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                self_time = duration - frame[2]
                self.self_s[span] += self_time
                self.calls[span] += 1
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(args, kwargs, result, self_time)
            return result

        return traced

    # Counters read at the boundaries where the work happens.

    def _after_sdp_solve(self, args, kwargs, solution, _):
        instance = args[0] if args else kwargs["instance"]
        self.counts["sdp.solve.iterations"] += solution.iterations
        self.counts["sdp.solve.constraints_in"] += len(instance.constraints)
        self.counts["sdp.solve.constraints_kept"] += len(solution.kept_constraints)

    def _after_npa_export_sdpa(self, args, kwargs, _, __):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["npa.export_sdpa.bytes"] += os.path.getsize(path)

    def _after_protosim_run_protocol(self, args, kwargs, result, self_time):
        source = args[0] if args else kwargs["source"]
        transcript = result[0]
        if source.adaptive:
            kind = "adaptive"
        elif isinstance(source, self.modules["protosim"].VisibilitySequenceSource):
            kind = "sequence"
        else:
            kind = "iid"
        self.counts[f"protosim.run_protocol.self_s.{kind}"] += self_time
        self.counts["protosim.copies_sampled"] += transcript.copies
        self.counts["protosim.accepted_trials"] += transcript.accepted

    def metrics(self, rounds: int) -> dict:
        """Per-round averages over `rounds` traced rounds; ratios over the totals."""
        out = {f"{span}.self_s": self.self_s[span] / rounds for span in SELF_TIMES}
        out.update({f"{span}.calls": self.calls[span] / rounds for span in CALLS})
        out.update({name: self.counts[name] / rounds for name in COUNTS})
        iterations = self.counts["sdp.solve.iterations"]
        protocol_s = self.self_s["protosim.run_protocol"]
        out["sdp.solve.ms_per_iteration"] = 1e3 * self.self_s["sdp.solve"] / iterations if iterations else 0.0
        out["protosim.copies_per_s"] = self.counts["protosim.copies_sampled"] / protocol_s if protocol_s else 0.0
        return out

"""Spans and counters recorded from outside the program.

Wrappers replace public functions in the module namespaces their callers
look them up in (asymreg.cli and asymreg.verification), so the program's own
code is unchanged.  Each wrapper opens a span (name, layer, start, end,
parent, job) kept in memory; the spans are written out once, at the end of
the run.  A span's self time is its duration minus the time its child spans
cover, so the self times of one job sum to its root span.

Per-sample evaluators (eval_eta, as_fraction, ...) are not wrapped: a span
per sample would cost more than the sample.  Their time counts as the self
time of the check that calls them.  The raw geometry and mapping kernels run
inside run_trajectory through closures, so their cost counts as iteration.
Bookkeeping done by the wrappers themselves runs in spans of layer "trace".
"""

from __future__ import annotations

import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracle

# ROADMAP baseline for the orbit kernel, in microseconds per step.
ROADMAP_KERNEL_US = {
    "disk-rotation": "3.2 (storage off)",
    "disk-projection": "1.8 (storage off)",
    "r2-rotation": "0.65-0.86 (storage off), 3.5-5.9 (default storage)",
    "r2-reflection": "0.65-0.86 (storage off), 3.5-5.9 (default storage)",
    "r2-ishikawa": "0.65-0.86 (storage off), 3.5-5.9 (default storage)",
    "r5-rotation": "none recorded",
}
KERNEL_LABELS = tuple(ROADMAP_KERNEL_US)

# (namespace, function, layer) for every wrapped function.
_SPANNED = [
    ("asymreg.cli", "load_config", "config"),
    ("asymreg.cli", "run_trajectory", "iteration"),
    ("asymreg.cli", "trajectory_to_csv", "iteration.csv"),
    ("asymreg.cli", "eta_to_eta1", "moduli"),
    ("asymreg.cli", "compute_delta", "rates"),
    ("asymreg.cli", "compute_phi", "rates"),
    ("asymreg.cli", "epsilon_shortcut", "rates"),
    ("asymreg.cli", "inputs_for", "rates"),
    ("asymreg.cli", "check_space_axioms", "verification.sampler"),
    ("asymreg.cli", "check_uc_implication", "verification.sampler"),
    ("asymreg.cli", "check_dyadic_uc_implication", "verification.sampler"),
    ("asymreg.cli", "check_lemma_inequalities", "verification.audit"),
    ("asymreg.cli", "check_phi_soundness", "verification.soundness"),
    ("asymreg.cli", "reference_point", "verification"),
    ("asymreg.cli", "trajectory_for", "verification"),
    ("asymreg.verification", "run_trajectory", "iteration"),
    ("asymreg.verification", "trajectory_for", "verification"),
    ("asymreg.verification", "verify_theta", "moduli.witness"),
    ("asymreg.verification", "verify_gamma", "moduli.witness"),
    ("asymreg.verification", "compute_delta", "rates"),
    ("asymreg.verification", "compute_phi", "rates"),
    ("asymreg.verification", "epsilon_shortcut", "rates"),
    ("asymreg.verification", "inputs_for", "rates"),
]
# Count-only wrappers on the public geometry and mapping operations as
# verification imports them.
_COUNTED = [
    ("asymreg.verification", "dist", "geometry.public_calls"),
    ("asymreg.verification", "combine", "geometry.public_calls"),
    ("asymreg.verification", "apply_map", "mappings.public_calls"),
]
_REPORT_METHODS = ("to_json_dict", "summary_line")


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: int


def kernel_label(space, mapping, schedule) -> str:
    if space.kind == "PoincareDisk":
        return "disk-rotation" if mapping.kind == "PoincareRotation" else "disk-projection"
    if mapping.kind == "EuclideanReflectionAverage":
        return "r2-reflection"
    if space.dim == 5:
        return "r5-rotation"
    return "r2-ishikawa" if schedule.s_seq.kind == "Geometric" else "r2-rotation"


def _point_bytes(points) -> int:
    if not points:
        return 0
    p = points[0]
    one = sys.getsizeof(p) + sys.getsizeof(p.coords) + sum(map(sys.getsizeof, p.coords))
    return one * len(points)


def _theta_terms(theta, n_max: int) -> int:
    """Length of the witness array verify_theta allocates: theta(n_max) + 1."""
    a, b = Fraction(theta.param("a")), Fraction(theta.param("b"))
    return max(0, math.ceil(a * n_max + b)) + 1


def _gamma_terms(gamma, deltas, n_max: int) -> int:
    desc = {"kind": gamma.kind, **dict(gamma.params)}
    return max(oracle.gamma(desc, Fraction(d)) for d in deltas) + n_max + 1


class Tracer:
    """In-memory spans and counters for the traced jobs of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self.jobs = 0
        self.faults = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.kernel_s: dict[str, float] = defaultdict(float)
        self.kernel_steps: dict[str, int] = defaultdict(int)
        self.witness_peak = 0
        self._peaks: dict = {}
        self._stack: list[int] = []
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def start_job(self, fault: bool) -> None:
        self.job += 1
        self.jobs += 1
        self.faults += fault

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s.name, "layer": s.layer,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job}) + "\n")

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, name: str, layer: str):
        after = getattr(self, "_after_" + fn.__name__, None)

        def wrapped(*args, **kwargs):
            sid = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                tid = self.open("trace." + fn.__name__, "trace")
                try:
                    after(fn, sid, args, kwargs, result)
                finally:
                    self.close(tid)
            return result

        return wrapped

    def _counted(self, fn, counter: str):
        def wrapped(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self) -> None:
        """Replace the wrapped functions; uninstall() puts the originals back."""
        from asymreg.report import CheckReport
        for module, attr, layer in _SPANNED:
            mod = sys.modules[module]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._spanned(fn, f"{module.split('.')[1]}:{attr}", layer))
        for module, attr, counter in _COUNTED:
            mod = sys.modules[module]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._counted(fn, counter))
        for attr in _REPORT_METHODS:
            fn = getattr(CheckReport, attr)
            self._saved.append((CheckReport, attr, fn))
            setattr(CheckReport, attr, self._spanned(fn, f"report:{attr}", "report"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- counters, run after the wrapped call in a "trace" span ---------------

    def _failed(self, report) -> None:
        self.counts["verification.checks_failed"] += report.verdict == "fail"

    def _after_run_trajectory(self, fn, sid, args, kwargs, traj) -> None:
        space, mapping, _, schedule, steps = args[:5]
        label = kernel_label(space, mapping, schedule)
        span = self.spans[sid]
        self.kernel_s[label] += span.end - span.start
        self.kernel_steps[label] += steps
        c = self.counts
        c["iteration.calls"] += 1
        c["iteration.steps"] += steps
        zeros = np.flatnonzero(traj.residuals == 0.0)
        if len(zeros):
            c["iteration.stationary_steps"] += steps - int(zeros[0])
        c["iteration.stored_points"] += len(traj.points) + len(traj.inner_points)
        arrays = (traj.residuals, traj.inner_residuals, traj.stored_indices,
                  traj.ref_distances, traj.inner_ref_distances,
                  traj.t_inner_ref_distances)
        c["iteration.trajectory_bytes"] += (
            sum(a.nbytes for a in arrays if a is not None)
            + _point_bytes(traj.points) + _point_bytes(traj.inner_points))

    def _after_trajectory_to_csv(self, fn, sid, args, kwargs, result) -> None:
        traj, target = args[0], args[1]
        every = kwargs.get("report_every", args[2] if len(args) > 2 else 1)
        self.counts["iteration.csv_rows"] += len(range(0, traj.steps + 1, every))
        with open(target, "rb") as fh:
            self.counts["iteration.csv_bytes"] += fh.seek(0, 2)

    def _after_check_lemma_inequalities(self, fn, sid, args, kwargs, report) -> None:
        self.counts["verification.audit_samples"] += report.samples
        self._failed(report)

    def _after_check_phi_soundness(self, fn, sid, args, kwargs, result) -> None:
        self.counts["verification.soundness_samples"] += result[1].samples
        self._failed(result[1])

    def _after_sampler(self, fn, sid, args, kwargs, report) -> None:
        self.counts["verification.sampler_samples"] += kwargs["samples"]
        self._failed(report)

    _after_check_space_axioms = _after_sampler
    _after_check_uc_implication = _after_sampler
    _after_check_dyadic_uc_implication = _after_sampler

    def _witness(self, fn, args, kwargs, terms: int) -> None:
        self.counts["moduli.witness_calls"] += 1
        self.counts["moduli.witness_terms"] += terms
        # tracemalloc slows allocation, so the peak comes from a second,
        # untimed call, once per distinct set of arguments.
        key = (fn.__name__, args[0], tuple(args[1:]), tuple(sorted(kwargs.items())))
        if key not in self._peaks:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self._peaks[key] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self.witness_peak = max(self.witness_peak, self._peaks[key])

    def _after_verify_theta(self, fn, sid, args, kwargs, report) -> None:
        schedule = args[0]
        n_max = kwargs.get("n_max", args[1] if len(args) > 1 else 10_000)
        self._witness(fn, args, kwargs, _theta_terms(schedule.theta, n_max))

    def _after_verify_gamma(self, fn, sid, args, kwargs, report) -> None:
        schedule, deltas = args[0], args[1]
        n_max = kwargs.get("n_max", args[2] if len(args) > 2 else 10_000)
        deltas = tuple(deltas)
        self._witness(fn, (schedule, deltas), kwargs,
                      _gamma_terms(schedule.gamma, deltas, n_max))

    # -- per-layer metrics -----------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics: times and counts per traced job, ratios over the
        whole traced run."""
        own = self.self_times()
        layer_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, t in zip(self.spans, own):
            layer_s[s.layer] += t
            calls[s.layer] += 1
        c = self.counts
        jobs = max(1, self.jobs)

        def per_job(value):
            return value / jobs

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "iteration.calls": (per_job(c["iteration.calls"]), "count/job", "lower"),
            "iteration.steps": (per_job(c["iteration.steps"]), "count/job", "lower"),
            "iteration.self_s": (per_job(layer_s["iteration"]), "s/job", "lower"),
        }
        for label in KERNEL_LABELS:
            out[f"iteration.ns_per_step.{label}"] = (
                ratio(self.kernel_s[label], self.kernel_steps[label], 1e9), "ns/step", "lower")
        out.update({
            "iteration.stationary_share": (
                ratio(c["iteration.stationary_steps"], c["iteration.steps"]), "share", "lower"),
            "iteration.stored_points": (per_job(c["iteration.stored_points"]), "count/job", "lower"),
            "iteration.trajectory_mb": (per_job(c["iteration.trajectory_bytes"]) / 1e6, "MB/job", "lower"),
            "iteration.csv_rows": (per_job(c["iteration.csv_rows"]), "count/job", "lower"),
            "iteration.csv_mb": (per_job(c["iteration.csv_bytes"]) / 1e6, "MB/job", "lower"),
            "iteration.csv_s": (per_job(layer_s["iteration.csv"]), "s/job", "lower"),
            "iteration.csv_ns_per_row": (
                ratio(layer_s["iteration.csv"], c["iteration.csv_rows"], 1e9), "ns/row", "lower"),
            "verification.audit_s": (per_job(layer_s["verification.audit"]), "s/job", "lower"),
            "verification.audit_samples": (per_job(c["verification.audit_samples"]), "count/job", "higher"),
            "verification.soundness_self_s": (per_job(layer_s["verification.soundness"]), "s/job", "lower"),
            "verification.soundness_samples": (per_job(c["verification.soundness_samples"]), "count/job", "higher"),
            "verification.sampler_s": (per_job(layer_s["verification.sampler"]), "s/job", "lower"),
            "verification.sampler_us_per_sample": (
                ratio(layer_s["verification.sampler"], c["verification.sampler_samples"], 1e6),
                "us/sample", "lower"),
            "geometry.public_calls": (per_job(c["geometry.public_calls"]), "count/job", "lower"),
            "mappings.public_calls": (per_job(c["mappings.public_calls"]), "count/job", "lower"),
            "moduli.witness_calls": (per_job(c["moduli.witness_calls"]), "count/job", "lower"),
            "moduli.witness_s": (per_job(layer_s["moduli.witness"]), "s/job", "lower"),
            "moduli.witness_terms": (per_job(c["moduli.witness_terms"]), "count/job", "lower"),
            "moduli.witness_peak_mb": (self.witness_peak / 1e6, "MB", "lower"),
            "rates.calls": (per_job(calls["rates"]), "count/job", "lower"),
            "rates.self_s": (per_job(layer_s["rates"]), "s/job", "lower"),
            "config.calls": (per_job(calls["config"]), "count/job", "lower"),
            "config.self_s": (per_job(layer_s["config"]), "s/job", "lower"),
            "cli.self_s": (per_job(layer_s["cli"]), "s/job", "lower"),
            "report.self_s": (per_job(layer_s["report"]), "s/job", "lower"),
            "verification.checks_failed": (c["verification.checks_failed"], "count", "lower"),
            "verification.injected_faults": (self.faults, "count", "lower"),
            "trace.jobs": (self.jobs, "count", "higher"),
            "trace.overhead_s": (overhead_s, "s/job", "lower"),
        })
        return out

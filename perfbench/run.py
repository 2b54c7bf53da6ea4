"""Closed-loop benchmark of the asymreg command line.

One client, no threads: jobs from a seeded workload (see workloads.py) go
to asymreg.cli.main in this process, one after the other, each after the
previous one has finished and been checked.  Jobs run in whole rounds (one
job per template of the workload) until --seconds have passed.

    python3 perfbench/run.py --workload orbit-live --seed 1 --seconds 20 --trace 0

The last line on stdout is one JSON object: correct, attempted, failed and
the metrics.  With --trace 0 they are the end-to-end metrics; with --trace 1
every job runs twice, untraced and traced, and they are the per-layer
metrics of spans.py.  A readable summary goes to stderr.  The program is
imported from src/ of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
P90_MIN_JOBS = 100


def import_cli():
    """asymreg.cli from the checkout's src/, never from anywhere else."""
    if not (SRC / "asymreg" / "__init__.py").is_file():
        sys.exit(f"error: no asymreg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import asymreg.cli
    if Path(asymreg.cli.__file__).resolve().parent != SRC / "asymreg":
        sys.exit(f"error: asymreg imported from {asymreg.cli.__file__}, not {SRC}")
    return asymreg.cli


def execute(cli, job, out_dir: Path, tracer=None):
    """Run one job; returns (exit code, captured stdout, wall seconds, CPU
    seconds of this process)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.start_job(job.fault)
        root = tracer.open("job:" + job.template, "bench")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if tracer is not None:
                    sid = tracer.open("cli:main", "cli")
                    try:
                        code = cli.main(job.argv(str(out_dir)))
                    finally:
                        tracer.close(sid)
                else:
                    code = cli.main(job.argv(str(out_dir)))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed job, not a failed run
                traceback.print_exc()
                code = "exception"
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.close(root)
    if code not in (0, 1):
        sys.stderr.write(f"[{job.template}] {err.getvalue()[-2000:]}")
    return code, out.getvalue(), elapsed, cpu


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the configs and run one untimed warm-up job."""
    cli = import_cli()
    import workloads
    rounds = workloads.build(workload, seed)
    workloads.write_configs(rounds, workdir / "configs")
    execute(cli, rounds[0][0], workdir / "out")
    return cli, rounds


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """CPU time of SETUP_PROBES fresh processes that only set up."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        start = _children_cpu()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--workdir", str(probe_dir)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, check=False)
        times.append(_children_cpu() - start)
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr[-2000:]}")
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


class Tally:
    """Attempted and failed jobs, and the known defects among the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.defects: dict[str, int] = {}
        self.examples: list[str] = []

    def add(self, job, problems) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        known = {p.defect for p in problems}
        if None in known:
            self.unexpected += 1
        for defect in known - {None}:
            self.defects[defect] = self.defects.get(defect, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{job.template}: " + "; ".join(p.message for p in problems[:3]))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_jobs(cli, rounds, seconds: float, workdir: Path, tracer=None):
    """Whole rounds until `seconds` have passed.  With a tracer, each job runs
    untraced and traced, in alternating order.  Returns the (wall, CPU) times
    of the untraced and of the traced jobs, and the tally."""
    import workloads
    out_dir = workdir / "out"
    times, traced_times, tally = [], [], Tally()
    start, r = time.perf_counter(), 0
    while True:
        order = (False,) if tracer is None else ((False, True) if r % 2 == 0 else (True, False))
        for job in rounds[r % len(rounds)]:
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    code, stdout, *elapsed = execute(cli, job, out_dir,
                                                     tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                (traced_times if traced else times).append(elapsed)
                tally.add(job, workloads.check(job, code, stdout, out_dir))
        r += 1
        if time.perf_counter() - start >= seconds:
            return times, traced_times, tally


def steps_per_job(rounds) -> float:
    return sum(job.steps for job in rounds[0]) / len(rounds[0])


def end_to_end(cpu_times, per_round: int, setup_times) -> dict:
    """Throughput from the median CPU time of a whole round, which keeps the
    job mix and is not moved by a burst of noise in one round."""
    rounds = [sum(cpu_times[i:i + per_round]) for i in range(0, len(cpu_times), per_round)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_cpu_s": (per_round / statistics.median(rounds), "1/s"),
        "job_cpu_p50_s": (statistics.median(cpu_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def machine() -> str:
    import numpy
    return (f"{platform.machine()}, nproc {os.cpu_count()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.workdir))
        return 0

    import_cli()  # fail before any work when the program is missing
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed, workdir)
        cli, rounds = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        times, traced_times, tally = run_jobs(cli, rounds, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log = sys.stderr
    wall = [w for w, _ in times]
    cpu = [c for _, c in times]
    print(f"# {args.workload} seed {args.seed}: {len(times)} jobs in "
          f"{len(times) // len(rounds[0])} rounds of {len(rounds[0])}; {machine()}", file=log)
    if args.trace:
        overhead = (sum(w for w, _ in traced_times) - sum(wall)) / len(traced_times)
        layer = tracer.metrics(overhead)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in layer.items()}
        for label in spans.KERNEL_LABELS:
            ns = layer[f"iteration.ns_per_step.{label}"][0]
            if ns:
                print(f"kernel {label}: {ns / 1000:.2f} us/step measured through "
                      f"run_trajectory as the CLI calls it; ROADMAP baseline "
                      f"{spans.ROADMAP_KERNEL_US[label]} us/step", file=log)
        print(f"verification.checks_failed {layer['verification.checks_failed'][0]:.0f}, "
              f"injected faults {tracer.faults}; spans written to "
              f"{WORK.name}/spans-{args.workload}-seed{args.seed}.jsonl", file=log)
    else:
        e2e = end_to_end(cpu, len(rounds[0]), setup_times)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
        for name, (v, u) in e2e.items():
            print(f"{name} = {v:.6g} {u}", file=log)
        print(f"samples: {len(times)} jobs, {len(setup_times)} setups; wall clock: "
              f"{len(wall) / sum(wall):.6g} jobs/s, p50 {statistics.median(wall):.6g} s", file=log)
        # p90 needs ten samples beyond it; only certify has that many jobs
        if len(times) >= P90_MIN_JOBS:
            print(f"job_cpu_p90_s = {statistics.quantiles(cpu, n=10)[8]:.6g} s, wall clock "
                  f"p90 {statistics.quantiles(wall, n=10)[8]:.6g} s", file=log)
        if steps_per_job(rounds):
            print(f"steps_per_cpu_s = {steps_per_job(rounds) * e2e['jobs_per_cpu_s'][0]:.6g} 1/s "
                  f"(orbit steps from the horizon arithmetic)", file=log)
    print(f"error_rate = {tally.error_rate:.6g} ({tally.failed} of {tally.attempted} jobs)", file=log)
    for defect, n in sorted(tally.defects.items()):
        print(f"known defect {defect} ({workloads.KNOWN_DEFECTS[defect]}): {n} job(s)", file=log)
    for example in tally.examples:
        print(f"failed: {example}", file=log)

    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

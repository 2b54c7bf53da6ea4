"""Self-test of the benchmark, at tiny size.

    python3 perfbench/selftest.py

- Every workload runs one tiny round untraced and traced; every job's output
  passes its checks (known defects aside), and the self times of each traced
  job sum to its root span.
- Doctored outputs (an altered phi, a dropped CSV row, a flipped verdict)
  are caught and counted in error_rate.
- Configs generated for several seeds at full size pass load_config.
- Run from a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits nonzero and prints no result.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


def smoke(cli, workdir: Path) -> dict[str, tuple]:
    """One tiny round per workload; returns the last output of each command."""
    samples = {}
    for workload in workloads.WORKLOADS:
        rounds = workloads.build(workload, seed=0, tiny=True)[:1]
        workloads.write_configs(rounds, workdir / workload)
        tracer = spans.Tracer()
        tally = run.Tally()
        out_dir = workdir / "out"
        for traced in (False, True):
            for job in rounds[0]:
                if traced:
                    tracer.install()
                try:
                    code, stdout, *_ = run.execute(cli, job, out_dir,
                                                   tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                problems = workloads.check(job, code, stdout, out_dir)
                tally.add(job, problems)
                if job.command not in samples and not job.fault and not problems:
                    kept = workdir / f"kept-{job.command}"
                    shutil.rmtree(kept, ignore_errors=True)
                    if out_dir.exists():
                        shutil.copytree(out_dir, kept)
                    samples[job.command] = (job, code, stdout, kept)
        expect(tally.unexpected == 0,
               f"{workload}: {tally.attempted} tiny jobs pass their checks "
               f"(known defects: {tally.defects or 'none'}; {tally.examples})")
        own = tracer.self_times()
        roots = {s.job: s.end - s.start for s in tracer.spans if s.parent is None}
        totals = dict.fromkeys(roots, 0.0)
        for s, t in zip(tracer.spans, own):
            totals[s.job] += t
        expect(all(math.isclose(totals[j], roots[j], rel_tol=1e-9, abs_tol=1e-9) for j in roots),
               f"{workload}: self times of each traced job sum to its root span")
        layer = tracer.metrics(0.0)
        if workload == "orbit-live":
            expect(layer["iteration.stationary_share"][0] == 0.0,
                   "orbit-live: no simulated step follows an exact-zero residual")
        if workload == "orbit-stationary":
            expect(layer["iteration.stationary_share"][0] > 0.0,
                   "orbit-stationary: steps after an exact-zero residual are counted")
        if workload == "certify":
            expect(layer["verification.checks_failed"][0] == tracer.faults > 0,
                   f"certify: checks_failed equals the {tracer.faults} injected faults")
    return samples


def _rewrite_json(path: Path, change) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _drop_last_line(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def doctored(samples: dict) -> None:
    """Each doctored output must fail its check and count in error_rate."""
    tally = run.Tally()

    def doctor_stdout(command, change):
        job, code, stdout, kept = samples[command]
        doc = json.loads(stdout)
        change(doc)
        return job, code, json.dumps(doc), kept

    def doctor_file(command, name, change):
        job, code, stdout, kept = samples[command]
        target = kept.parent / f"{kept.name}-doctored"
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(kept, target)
        change(target / name)
        return job, code, stdout, target

    def bump_phi(doc):
        doc["phi"] += 1

    def flip_verdict(doc):
        doc["checks"][0]["verdict"] = "fail"

    cases = {
        "rate output with phi + 1": doctor_stdout("rate", bump_phi),
        "verify-space output with a flipped verdict": doctor_stdout("verify-space", flip_verdict),
        "sweep.json with phi + 1": doctor_file(
            "sweep", "sweep.json", lambda p: _rewrite_json(p, lambda d: bump_phi(d["rows"][0]))),
        "residuals.csv without its last row": doctor_file(
            "sweep", "residuals.csv", _drop_last_line),
        "trajectory.csv without its last row": doctor_file(
            "run", "trajectory.csv", _drop_last_line),
        "run report with an exit code of 1": (*samples["run"][:1], 1, *samples["run"][2:]),
    }
    for what, (job, code, stdout, out_dir) in cases.items():
        problems = workloads.check(job, code, stdout, out_dir)
        tally.add(job, problems)
        expect(any(p.defect is None for p in problems), f"doctored {what} is caught")
    expect(tally.failed == len(cases) and tally.error_rate == 1.0,
           f"doctored outputs count in error_rate ({tally.failed} of {tally.attempted})")


def configs_validate() -> None:
    from asymreg.config import load_config
    workdir = run.WORK / "selftest-configs"
    count = 0
    for seed in range(5):
        for workload in workloads.WORKLOADS:
            rounds = workloads.build(workload, seed)
            workloads.write_configs(rounds, workdir)
            for job in (j for r in rounds for j in r):
                load_config(job.config_path)
                count += 1
    shutil.rmtree(workdir, ignore_errors=True)
    expect(True, f"{count} generated configs over 5 seeds pass load_config")


def bare_directory() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    cli = run.import_cli()
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        doctored(smoke(cli, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    configs_validate()
    bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())

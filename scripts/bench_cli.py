"""Time asymreg command lines, each in a fresh Python process, and hash
what they print and write.

    python scripts/bench_cli.py --out bench/BENCH_name.json [--src DIR]
                                [--label TEXT] [--repeat N] [NAME=ARGS ...]

Run it from the repository root.  Each NAME=ARGS case is an asymreg command
line, for example

    rotation-poincare-run-0.02="run --config configs/rotation_poincare.json --eps 0.02"

Without cases the script runs golden_cases(), which covers every config
under configs/: `rate --k 0 --k 100` at each eps of its grid and at 2.5,
`sweep`, `run` at the smallest grid eps, and `verify-space`.  For every case
and repeat, a child process imports asymreg.cli from DIR (default: src/ of
this checkout), calls main once with --json (and --out into a temporary
directory for run and sweep; see cli_digest.digest_main), and reports:

- cpu_s: the CPU seconds of that main call (time.process_time);
- import_s: the CPU seconds of `from asymreg.cli import main` in the child
  (time.process_time), and numpy_loaded: whether numpy is in sys.modules
  when the child exits;
- process_cpu_s: the CPU seconds of the whole child process, user plus
  system from getrusage(RUSAGE_SELF) at its exit, so every thread and the
  imports count; process_wall_s: its wall time, from start to exit, as the
  parent sees it;
- peak_rss_mb: the peak resident set size of the whole child process
  (ru_maxrss), imports included;
- from the JSON that main prints: steps, period_from, period, the verdict
  and the sample count of each check and the overall verdict;
- stdout_sha256: the sha256 of the printed JSON, and files_sha256: that of
  each file written under --out, both with the temporary directory's path
  replaced by cli_digest.OUT_TOKEN, so that two checkouts that print and
  write the same bytes get the same hashes; output_stable says whether
  every repeat got the same hashes.

The output file holds these per case, with the median of each time and the
largest peak RSS over the repeats, next to the Python and numpy versions,
the machine, and src_lines: the line count of DIR's asymreg/*.py, as
`wc -l` counts them.  --src points the same cases at another checkout, such
as the parent commit unpacked with `git archive`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import json, resource, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.process_time()
from asymreg.cli import main
import_s = time.process_time() - start
from cli_digest import digest_main
result = digest_main(main, json.loads(sys.argv[3]))
usage = resource.getrusage(resource.RUSAGE_SELF)
result["rss_kb"] = usage.ru_maxrss
result["process_cpu_s"] = usage.ru_utime + usage.ru_stime
result["import_s"] = import_s
result["numpy_loaded"] = "numpy" in sys.modules
print(json.dumps(result))
"""


def golden_cases() -> dict[str, str]:
    """The output-hash cases of every config under configs/."""
    cases = {}
    for path in sorted((ROOT / "configs").glob("*.json")):
        name, conf = path.stem, f"--config configs/{path.name}"
        grid = json.loads(path.read_text(encoding="utf-8"))["eps_grid"]
        for eps in [*grid, 2.5]:
            cases[f"{name}-rate-{eps!r}"] = f"rate {conf} --eps {eps!r} --k 0 --k 100"
        cases[f"{name}-sweep"] = f"sweep {conf}"
        cases[f"{name}-run-{min(grid)!r}"] = f"run {conf} --eps {min(grid)!r}"
        cases[f"{name}-verify-space"] = f"verify-space {conf}"
    return cases


def run_case(src: Path, argv: list[str]) -> dict:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(ROOT / "scripts"),
                           json.dumps(argv)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    return {**json.loads(done.stdout.splitlines()[-1]), "process_wall_s": wall}


def outcome(printed: str) -> dict:
    """What a case's printed JSON says: the orbit's length and cut-off, and
    the verdict and sample count of each check and overall."""
    doc = json.loads(printed)
    return {
        "steps": doc.get("steps"),
        "period_from": doc.get("period_from"),
        "period": doc.get("period"),
        "verdicts": {c["check_name"]: c["verdict"] for c in doc.get("checks", [])},
        "samples": {c["check_name"]: c["samples"] for c in doc.get("checks", [])},
        "verdict": doc.get("verdict"),
    }


def summarize(name: str, argv: list[str], runs: list[dict]) -> dict:
    summary = {"name": name, "argv": argv, "exit_codes": [r["code"] for r in runs]}
    for key in ("cpu_s", "import_s", "process_cpu_s", "process_wall_s"):
        summary[key] = [r[key] for r in runs]
        summary[f"{key}_median"] = statistics.median(summary[key])
    rss = [r["rss_kb"] / 1024 for r in runs]
    return {
        **summary,
        "numpy_loaded": [r["numpy_loaded"] for r in runs],
        "peak_rss_mb": rss,
        "peak_rss_mb_max": max(rss),
        **outcome(runs[-1]["printed"]),
        "stdout_sha256": runs[-1]["stdout_sha256"],
        "files_sha256": runs[-1]["files_sha256"],
        "output_stable": all((r["stdout_sha256"], r["files_sha256"])
                             == (runs[-1]["stdout_sha256"], runs[-1]["files_sha256"])
                             for r in runs),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cases", nargs="*", metavar="NAME=ARGS")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the asymreg package")
    parser.add_argument("--label", default="", help="what --src holds, e.g. a revision")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    cases = dict(c.split("=", 1) for c in args.cases) or golden_cases()
    src = Path(args.src).resolve()
    results = []
    for name, line in cases.items():
        argv = shlex.split(line)
        runs = [run_case(src, argv) for _ in range(args.repeat)]
        results.append(summarize(name, argv, runs))
        r = results[-1]
        print(f"{name}: cpu {r['cpu_s_median']:.3f} s, import {r['import_s_median']:.3f} s, "
              f"process cpu {r['process_cpu_s_median']:.3f} s (medians of {args.repeat}), "
              f"peak RSS {r['peak_rss_mb_max']:.1f} MB, verdict {r['verdict']}",
              file=sys.stderr)
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "src_lines": sum(path.read_bytes().count(b"\n")
                         for path in (src / "asymreg").glob("*.py")),
        "cases": results,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

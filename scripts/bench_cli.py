"""Time asymreg command lines, each in a fresh Python process.

    python scripts/bench_cli.py --out bench/BENCH_name.json [--src DIR]
                                [--label TEXT] [--repeat N] [NAME=ARGS ...]

Run it from the repository root.  Each NAME=ARGS case is an asymreg command
line, for example

    ishikawa-run="run --config configs/ishikawa_geometric_s_euclidean.json --eps 0.0625"

and without cases the script runs DEFAULT_CASES.  For every case and
repeat, a child process imports asymreg.cli from DIR (default: src/ of this
checkout), calls main once with --json (and --out into a temporary
directory for run and sweep), and reports:

- cpu_s: the CPU seconds of that main call (time.process_time);
- peak_rss_mb: the peak resident set size of the whole child process
  (ru_maxrss), imports included;
- from the JSON that main prints: steps, period_from, period, the verdict
  of each check and the overall verdict.

The output file holds these per case, with the median CPU time and the
largest peak RSS over the repeats, next to the Python and numpy versions and
the machine.  --src points the same cases at another checkout, such as the
parent commit unpacked with `git archive`.
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
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_CASES = {
    # the orbit repeats from step 46 of 8,389,632
    "ishikawa-run-0.0625":
        "run --config configs/ishikawa_geometric_s_euclidean.json --eps 0.0625",
    # phi = 32,000,004 lies above the step cap; the orbit repeats from 2,145
    "rotation-poincare-run-0.02":
        "run --config configs/rotation_poincare.json --eps 0.02",
}

CHILD = r"""
import contextlib, io, json, resource, sys, tempfile, time
sys.path.insert(0, sys.argv[1])
argv = json.loads(sys.argv[2])
from asymreg.cli import main
with tempfile.TemporaryDirectory() as out:
    extra = ["--json"] + (["--out", out] if argv[0] in ("run", "sweep") else [])
    printed = io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(printed):
        code = main(argv + extra)
    cpu = time.process_time() - start
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "cpu_s": cpu, "rss_kb": rss_kb,
                  "printed": printed.getvalue()}))
"""


def run_case(src: Path, argv: list[str]) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argv)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(name: str, argv: list[str], runs: list[dict]) -> dict:
    doc = json.loads(runs[-1]["printed"])
    cpu = [r["cpu_s"] for r in runs]
    rss = [r["rss_kb"] / 1024 for r in runs]
    return {
        "name": name,
        "argv": argv,
        "exit_codes": [r["code"] for r in runs],
        "cpu_s": cpu,
        "cpu_s_median": statistics.median(cpu),
        "peak_rss_mb": rss,
        "peak_rss_mb_max": max(rss),
        "steps": doc.get("steps"),
        "period_from": doc.get("period_from"),
        "period": doc.get("period"),
        "verdicts": {c["check_name"]: c["verdict"] for c in doc.get("checks", [])},
        "verdict": doc.get("verdict"),
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

    cases = dict(c.split("=", 1) for c in args.cases) or DEFAULT_CASES
    src = Path(args.src).resolve()
    results = []
    for name, line in cases.items():
        argv = shlex.split(line)
        runs = [run_case(src, argv) for _ in range(args.repeat)]
        results.append(summarize(name, argv, runs))
        r = results[-1]
        print(f"{name}: cpu {r['cpu_s_median']:.3f} s (median of {args.repeat}), "
              f"peak RSS {r['peak_rss_mb_max']:.1f} MB, verdict {r['verdict']}",
              file=sys.stderr)
    doc = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        "cases": results,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer (perfbench/spans.py) wraps functions by name in
the package's modules; every name it wraps must still resolve there, and a
traced round of every workload must still pass its checks."""

import importlib
import subprocess
import sys
from pathlib import Path

from asymreg.report import CheckReport

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        for name in ("spans", "oracle"):
            sys.modules.pop(name, None)
    names = [(module, attr) for module, attr, _ in spans._SPANNED + spans._COUNTED]
    missing = [(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert names and not missing
    assert all(hasattr(CheckReport, attr) for attr in spans._REPORT_METHODS)


def test_the_benchmark_selftest_passes():
    # one tiny round of every workload, untraced and traced, with its checks
    done = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, (done.stdout + done.stderr)[-2000:]

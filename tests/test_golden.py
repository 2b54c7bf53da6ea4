"""The golden cases of scripts/bench_cli.py, run in this process: each
exit code, verdict, sample count and output hash must match
bench/BENCH_every_theta.json.  The hashes hold for the Python and numpy
versions that file records; with any other, the cases are skipped."""

import json
import platform
import shlex
import sys

import numpy
import pytest

from asymreg.cli import main

from conftest import CONFIG_DIR

ROOT = CONFIG_DIR.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench_cli import golden_cases, outcome  # noqa: E402
from cli_digest import digest_main  # noqa: E402

GOLDEN = json.loads((ROOT / "bench" / "BENCH_every_theta.json")
                    .read_text(encoding="utf-8"))
CASES = {case["name"]: case for case in GOLDEN["cases"]}

pytestmark = pytest.mark.skipif(
    (platform.python_version(), numpy.__version__) != (GOLDEN["python"], GOLDEN["numpy"]),
    reason=f"hashes recorded with Python {GOLDEN['python']}, numpy {GOLDEN['numpy']}")


def test_the_golden_file_holds_every_golden_case():
    assert {name: case["argv"] for name, case in CASES.items()} == \
        {name: shlex.split(line) for name, line in golden_cases().items()}


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name, monkeypatch):
    want = CASES[name]
    monkeypatch.chdir(ROOT)
    got = digest_main(main, want["argv"])
    assert {got["code"]} == set(want["exit_codes"])
    assert outcome(got["printed"]) == {key: want[key] for key in outcome(got["printed"])}
    assert (got["stdout_sha256"], got["files_sha256"]) == \
        (want["stdout_sha256"], want["files_sha256"])

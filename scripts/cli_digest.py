"""One call of asymreg's main and the hashes of what it printed and wrote.

scripts/bench_cli.py runs digest_main in a fresh child process per case,
and tests/test_golden.py in the test process, so both hash the same way.
This module imports nothing from asymreg: the caller passes the main to
call, from whichever checkout it imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
import time
from pathlib import Path

# Stands for the temporary --out directory in every hashed output.
OUT_TOKEN = "<OUT>"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_main(main, argv: list[str]) -> dict:
    """main(argv) once with --json, and with --out a fresh temporary
    directory for run and sweep: the exit code, the CPU seconds of the call
    (time.process_time), what it printed, and stdout_sha256 and
    files_sha256, the sha256 of the printed text and of each file written
    under --out, with the directory's path replaced by OUT_TOKEN."""
    with tempfile.TemporaryDirectory() as out:
        extra = ["--json"] + (["--out", out] if argv[0] in ("run", "sweep") else [])
        printed = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(printed):
            code = main(argv + extra)
        cpu = time.process_time() - start
        files = {str(f.relative_to(out)): _sha(f.read_bytes().replace(out.encode(), OUT_TOKEN.encode()))
                 for f in sorted(Path(out).rglob("*")) if f.is_file()}
        stdout_sha = _sha(printed.getvalue().replace(out, OUT_TOKEN).encode())
    return {"code": code, "cpu_s": cpu, "printed": printed.getvalue(),
            "stdout_sha256": stdout_sha, "files_sha256": files}

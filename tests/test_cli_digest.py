"""Every case of `tools/cli_digest.py` prints what `tools/cli_digest.expected` records.

The expected file holds the tool's 98 lines: the sha256 of each case's
(stdout, stderr, exit code), the exit code, and the arguments.  Here every
case runs through `cli.main` in one child interpreter with one BLAS thread,
in a temporary working directory holding the spec files, as the tool's own
fresh interpreters run it; a refusal by argparse is its SystemExit code.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
_spec = importlib.util.spec_from_file_location("cli_digest", TOOLS / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)

_CHILD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import cli_digest
from cstar_index import cli

for case in cli_digest.CASES:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(case)
        except SystemExit as exc:
            code = exc.code
    sha = cli_digest.digest(out.getvalue().encode(), err.getvalue().encode(), code)
    print(sha, code, " ".join(case))
"""


def _child_env() -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    return {**os.environ, **threads, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def _by_case(lines) -> dict:
    # arguments -> (sha256, exit code)
    return {args: (sha, code) for sha, code, args in (line.split(" ", 2) for line in lines)}


def test_expected_file_lists_every_case_in_order():
    lines = (TOOLS / "cli_digest.expected").read_text(encoding="utf-8").splitlines()
    assert [line.split(" ", 2)[2] for line in lines] == [" ".join(c) for c in cli_digest.CASES]
    assert len(lines) == 98


def test_every_case_matches_the_expected_digest(tmp_path):
    cli_digest.write_specs(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(TOOLS)],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    got = _by_case(proc.stdout.splitlines())
    want = _by_case((TOOLS / "cli_digest.expected").read_text(encoding="utf-8").splitlines())
    assert list(got) == list(want)
    moved = [
        f"  {args}: exit {want[args][1]} -> {got[args][1]}"
        + ("" if got[args][0] == want[args][0] else ", output moved")
        for args in want
        if got[args] != want[args]
    ]
    assert not moved, (
        f"{len(moved)} of {len(want)} digest cases differ from tools/cli_digest.expected:\n"
        + "\n".join(moved)
        + "\nA case that prints floats can move with the platform's numpy or BLAS; "
        "if the change is intended, regenerate the file with "
        "`python3 tools/cli_digest.py . > tools/cli_digest.expected` "
        "and list the moved cases in CHANGES.md."
    )

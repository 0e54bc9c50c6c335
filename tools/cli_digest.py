"""Digest the CLI's output on a fixed list of cases, for byte-identity checks.

    python3 tools/cli_digest.py CHECKOUT_ROOT > digests.txt

Each case runs `python -m cstar_index.cli ARGS` in a fresh interpreter
against CHECKOUT_ROOT/src, with one BLAS thread (the float digits `heat`
prints depend on the thread count) and without writing bytecode into the
checkout.  The working directory is a temporary one holding the `kawasaki`
spec files, so file names in messages read the same for every checkout.
One line per case: the sha256 of its (stdout, stderr, exit code), the exit
code, and the arguments.  Two checkouts print the same bytes exactly when
every case is byte-identical, so `diff` the two files.

`tools/cli_digest.expected` holds this tool's lines for the checkout it is
committed with, and `tests/test_cli_digest.py` checks every case against it
in tier-1.  A change that moves output regenerates it from the root of the
checkout with

    python3 tools/cli_digest.py . > tools/cli_digest.expected

so that its diff names the cases that moved.  The float digests hold for
one platform's numpy and BLAS.

The list holds 28 `heat`, 11 `verify`, 9 `sweep`, 8 `kawasaki` and 42
`measure` cases, 98 in all: successes, defects above their gates (exit
1), refused arguments (exit 2), divergent measures (exit 4) and numerical
breakdowns (exit 5), among them the Gram Cholesky cliffs `heat --d 20
--K 26` and `--d 200 --K 10`, and two large heat times whose wrong samples
exit 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def _family_spec(l: int, m: int) -> dict:
    point = {"N": l, "a": 1, "b": m % l}
    return {"schema_version": 1, "smooth_term": f"{2 * m + 1}/{l}", "points": [point, point]}


SPECS = {
    "family4.json": _family_spec(4, 5),
    "family97.json": _family_spec(97, 301),
    # five points, every normal weight but the order-2 one different from 1
    "five.json": {
        "schema_version": 1,
        "smooth_term": "5/3",
        "points": [
            {"N": 12, "a": 5, "b": 7},
            {"N": 97, "a": 3, "b": 50},
            {"N": 160, "a": 7, "b": 33},
            {"N": 2, "a": 1, "b": 1},
            {"N": 30, "a": 7, "b": 11},
        ],
    },
}

HEAT = [
    *(f"--d {d} --K {K} --json" for d, K in
      [(4, 3), (-3, 5), (0, 1), (16, 16), (-2, 2), (20, 20), (12, 12), (8, 8), (5, 25)]),
    "--K 3 --l 2 --m 2 --json",
    "--K 8 --l 3 --m 8 --json",
    "--d 16 --K 8 --l 3 --m 8 --t 0.1 0.5 2.0 --json",
    "--d 4 --K 3",
    "--K 3 --l 2 --m 2",
    "--K 8 --l 3 --m 8",
    # large heat times: exit 1, with samples far from the index (7.07 against
    # 4, and 0 against 1) and a supertrace deviation above its gate
    "--d 3 --K 5 --t 1e15 --json",
    "--d 0 --K 3 --t 1e308 --json",
    # numerical breakdown, exit 5
    "--d 20 --K 26",
    "--d 0 --K 30",
    "--d 200 --K 10",
    "--d 200 --K 10 --json",
    "--d 3 --K 5 --t 1e17 1e20 --json",
    # refused arguments, exit 2
    "--d 4 --K 3 --t 0.5 -1",
    "--d 4 --K 0",
    "--K 3 --l 1 --m 0",
    "--K 3 --l 0 --m 0",
    "--K 3 --l -2 --m 0",
    "--d 0 --K 5 --l 5 --m 2",
]

VERIFY = [
    "--l 2 --m 0",
    "--l 3 --m 4",
    "--l 5 --m 7",
    "--l 12 --m 35",
    "--l 97 --m 301 --json",
    "--l 210 --m 301",
    "--l 1031 --m 77 --json",
    "--l 160 --m 1000",
    "--l 200 --m 399",
    "--l 1001 --m 5",
    "--l 262145 --m 0",
]

SWEEP = [
    "--l-max 29 --m-max 60",
    "--l-max 29 --m-max 60 --format json",
    "--l-max 60 --m-max 130",
    "--l-max 12 --m-max 20 --format json",
    "--l-max 40 --m-max 90",
    "--l-max 200 --m-max 400",
    "--l-max 60 --m-max 7",
    "--l-max 60 --m-max 7 --format json",
    "--l-max 1 --m-max 5",
]

KAWASAKI = [
    *(f"--spec {name}{flag}" for name in SPECS for flag in ("", " --json")),
    "--spec absent.json",
    "--spec broken.json",
]

MEASURE = [
    "--a 1 --m 0",
    "--a 2 --m 1",
    "--a 1 --m 0 --skip-projector",
    "--a 2 --m 1 --skip-projector",
    "--a 1 --m 0 --cutoff hard",
    "--a 2 --m 1 --cutoff hard",
    "--a 1 --m 0 --cutoff hard --skip-projector",
    "--a 1 --m 0 --tol 1e-8",
    "--a 3 --m 2 --tol 1e-4",
    "--a 3 --m 2 --tol 1e-10",
    "--a 4 --m 1 --tol 1e-3",
    "--a 1.5 --m 2",
    "--a 1.5 --m 2 --angular-nodes 64",
    "--a 2 --m 1 --angular-nodes 64",
    "--a 2 --m 1 --cutoff hard --tol 1e-8 --angular-nodes 64",
    "--a 2.5 --m 3",
    "--a 9 --m 4",
    # 32 angular nodes alias the projector: equivariance defect above its
    # gate, exit 1
    "--a 17 --m 16",
    "--a 25 --m 24",
    "--a 0.6 --m 1",
    "--a 12 --m 23 --skip-projector",
    # the 16 distinct measure queries of query-stream, seed 1 (a = 1.663,
    # m = 4 is divergent and exits 4)
    *(f"--a {a} --m {m} --cutoff smooth --skip-projector" for a, m in
      [(1.518, 2), (1.956, 1), (2.439, 3), (1.663, 4), (0.688, 0), (2.102, 3), (2.788, 3),
       (1.026, 0), (1.859, 2), (1.617, 1), (1.268, 1), (0.927, 1), (0.344, 0), (1.371, 0),
       (2.199, 2)]),
    "--a 1.17 --m 0 --cutoff hard --skip-projector",
    # divergent, exit 4
    "--a 0.5 --m 2",
    "--a 0.4 --m 1",
    "--a 1.0 --m 2",
    # quadrature budget exhausted, exit 5
    "--a 0.52 --m 1 --skip-projector",
    "--a 6.1 --m 12",
]

CASES = [
    f"{command} {args}".split()
    for command, cases in (
        ("heat", HEAT),
        ("verify", VERIFY),
        ("sweep", SWEEP),
        ("kawasaki", KAWASAKI),
        ("measure", MEASURE),
    )
    for args in cases
]


def write_specs(workdir) -> None:
    """Write the `kawasaki` spec files, `broken.json` among them, into workdir."""
    for name, doc in SPECS.items():
        Path(workdir, name).write_text(json.dumps(doc), encoding="utf-8")
    Path(workdir, "broken.json").write_text("{not json", encoding="utf-8")


def digest(stdout: bytes, stderr: bytes, code: int) -> str:
    """sha256 of the three, each length-prefixed so that no two triples collide."""
    h = hashlib.sha256()
    for part in (stdout, stderr, str(code).encode()):
        h.update(b"%d:" % len(part))
        h.update(part)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_digest.py CHECKOUT_ROOT", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "cstar_index" / "cli.py").is_file():
        print(f"no cstar_index package under {src}", file=sys.stderr)
        return 2
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    with tempfile.TemporaryDirectory() as workdir:
        write_specs(workdir)
        for case in CASES:
            proc = subprocess.run(
                [sys.executable, "-m", "cstar_index.cli", *case],
                cwd=workdir, env=env, capture_output=True, check=False,
            )
            sha = digest(proc.stdout, proc.stderr, proc.returncode)
            print(f"{sha} {proc.returncode} {' '.join(case)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

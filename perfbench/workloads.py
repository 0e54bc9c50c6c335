"""Seeded workloads for the cstar-index CLI and the checks of their outputs.

A workload is a list of operations.  Each operation is one `cli.main(argv)`
call with the exit code a correct program gives (0, or 4 for a divergent
measure, which is a correct refusal).  The parent generates the list from
the seed, the child runs it, and the parent checks every output here,
against the oracles in `oracles.py` and never against saved output.

Why these four, and what each one's inputs are, is in README.md.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from oracles import lambda_mpmath, lattice_count, point_sum_float

SWEEP_L = 29
VERIFY_REPEATS = (6, 5, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0)  # per l = 4, 6, ..., 34
HEAT_LADDER = (4, 8, 12, 16, 20)
HEAT_FAILING = (20, 26)  # (d, K): float Cholesky of the Gram matrix breaks down
PAIRING_BOUND = 1e-10
SUPERTRACE_TOL = 1e-8


def _op(kind: str, argv: list, expect_rc: int = 0, **params) -> dict:
    return {"kind": kind, "argv": [str(x) for x in argv], "expect_rc": expect_rc, **params}


def _heat(d, K, ts, l=None, m=None) -> dict:
    argv = ["heat", "--K", K]
    argv += ["--d", d] if l is None else ["--l", l, "--m", m]
    return _op("heat", argv + ["--t", *ts, "--json"], d=d, K=K, l=l, m=m, t=ts)


def _measure(a, m, cutoff="smooth", projector=False) -> dict:
    argv = ["measure", "--a", a, "--m", m, "--cutoff", cutoff]
    if not projector:
        argv.append("--skip-projector")
    divergent = a <= m / 2
    return _op(
        "measure", argv, 4 if divergent else 0, a=a, m=m, cutoff=cutoff, projector=projector
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def sweep_grid(seed: int, workdir: Path) -> list[dict]:
    """One CSV sweep; M >= L, so every residue of every order appears."""
    m_max = 2 * SWEEP_L + random.Random(seed).randrange(8)
    return [_op("sweep", ["sweep", "--l-max", SWEEP_L, "--m-max", m_max], l_max=SWEEP_L, m_max=m_max)]


def heat_ladder(seed: int, workdir: Path) -> list[dict]:
    """Full complexes with d = K up the ladder, one block, one breakdown;
    the seed picks the heat times, which leave the cost alone."""
    rng = random.Random(seed)
    ts = sorted(round(10 ** rng.uniform(-1.5, 0.7), 4) for _ in range(3))
    ops = [_heat(d, d, ts) for d in HEAT_LADDER]
    ops.append(_heat(16, 8, ts, l=3, m=8))
    ops.append(_heat(*HEAT_FAILING, ts))
    return ops


def measure_projector(seed: int, workdir: Path) -> list[dict]:
    """The projector axioms at the default quadrature; the seed plays no part."""
    return [_measure(1.0, 0, projector=True)]


def _unit_not_one(n: int) -> int:
    """The first unit mod n from n // 3 up, other than 1."""
    a = max(2, n // 3)
    while math.gcd(a, n) != 1:
        a += 1
    return a


def query_stream(seed: int, workdir: Path) -> list[dict]:
    """120 small queries in one session: 48 verify, 24 kawasaki, 24 measure
    and 24 heat blocks, in a seeded order.

    The cost of a query is set by fixed parameters: a point sum's cost
    depends strongly on its weights (N = 41 takes 160 ms with b = 0 and
    440 ms with b = 5), so those are fixed.  The seed picks only what leaves
    the cost alone: the order, the multiple of l in a verify m, the kawasaki
    smooth terms, a small jitter in the measure weights, and the hard and
    divergent measure cases.  So every seed gives the same work and the
    same latency percentiles: the 16 cold verify orders are the even numbers
    4..34, with residue l/2 - 1, repeated a fixed, skewed number of times;
    the 16 fresh kawasaki specs lead with one of the orders 33..48 and add
    (lead mod 4) points of fixed orders up to 16, all with fixed weights;
    the 14 distinct smooth measure cases spread their tail decay evenly;
    and the heat blocks take every m in 0..11 twice, each with a fixed l.
    """
    rng = random.Random(seed)
    ops: list[dict] = []

    # verify: 16 cold keys (l, m mod l), then 32 repeats skewed toward small
    # l; a repeat shifts m by a multiple of l (same point sum)
    keys = [(l, l // 2 - 1 + l * rng.randrange(3)) for l in range(4, 36, 2)]
    repeats = [key for key, n in zip(keys, VERIFY_REPEATS) for _ in range(n)]
    for l, m in keys + [(l, m + l * rng.randrange(3)) for l, m in repeats]:
        ops.append(_op("verify", ["verify", "--l", l, "--m", m, "--json"], l=l, m=m))

    # kawasaki: 16 fresh specs, then the 8 with even lead resubmitted (warm
    # point sums)
    specs = []
    for lead in range(33, 49):
        orders = [lead] + [3 + (lead * (j + 1)) % 14 for j in range(lead % 4)]
        points = [{"N": n, "a": _unit_not_one(n), "b": (3 * n) // 4} for n in orders]
        smooth = Fraction(rng.randrange(-20, 21), rng.randrange(1, 13))
        doc = {"schema_version": 1, "smooth_term": f"{smooth.numerator}/{smooth.denominator}", "points": points}
        path = workdir / f"spec-{lead}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        specs.append((str(path), doc))
    for path, doc in specs + specs[1::2]:
        ops.append(_op("kawasaki", ["kawasaki", "--spec", path, "--json"], spec=doc))

    # measure: 14 distinct smooth cases whose tail exponent 4a - 2m is spread
    # over [1.2, 6], the first 8 repeated (cached lambda_m), one hard, one
    # divergent
    smooth = []
    for j in range(14):
        m = j % 4
        decay = 1.2 + 4.8 * (j + 0.5 + rng.uniform(-0.05, 0.05)) / 14
        smooth.append((round(m / 2 + decay / 4, 3), m))
    ops += [_measure(a, m) for a, m in smooth + smooth[:8]]
    ops.append(_measure(round(rng.uniform(1.0, 1.2), 3), 0, cutoff="hard"))
    m = rng.randrange(2, 5)
    ops.append(_measure(round(m / 2 - rng.uniform(0.1, 0.5), 3), m))

    # heat: small equivariant blocks, m = 0..11 twice, each with a fixed l
    for i, m in enumerate(list(range(12)) * 2):
        ops.append(_heat(2 * m, 3, [0.5], l=2 + (m + i) % 5, m=m))

    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "sweep-grid": sweep_grid,
    "query-stream": query_stream,
    "heat-ladder": heat_ladder,
    "measure-projector": measure_projector,
}


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------

_SWEEP_COLUMNS = ["l", "m", "kappa", "hrr", "mu_closed", "mu_bruteforce", "total", "agree"]


def _check_sweep(op, out) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != _SWEEP_COLUMNS:
        return [f"sweep header {rows[:1]}"]
    grid = [(l, m) for l in range(2, op["l_max"] + 1) for m in range(op["m_max"] + 1)]
    if [(int(r[0]), int(r[1])) for r in rows[1:]] != grid:
        return ["sweep rows missing or out of order"]
    problems = []
    for l_s, m_s, kappa, hrr, mu_c, mu_b, total, agree in rows[1:]:
        l, m = int(l_s), int(m_s)
        mu = point_sum_float(l, 1, m)
        if (
            int(kappa) != lattice_count(l, m)
            or Fraction(hrr) != Fraction(2 * m + 1, l)
            or Fraction(total) != int(kappa)
            or mu_c != mu_b
            or agree != "true"
            or abs(float(Fraction(mu_b)) - mu.real) > 1e-10
            or abs(mu.imag) > 1e-10
        ):
            problems.append(f"sweep row l={l} m={m} is wrong")
    return problems


def _check_verify(op, out) -> list[str]:
    doc = json.loads(out)
    want = lattice_count(op["l"], op["m"])
    if doc["analytic_index"] != want or Fraction(doc["topological_total"]) != want or not doc["agree"]:
        return [f"verify l={op['l']} m={op['m']}: {doc}"]
    return []


def _check_kawasaki(op, out) -> list[str]:
    doc = json.loads(out)
    spec = op["spec"]
    floats = [point_sum_float(p["N"], p["a"], p["b"]) for p in spec["points"]]
    got = [float(Fraction(c)) for c in doc["point_contributions"]]
    want_total = float(Fraction(spec["smooth_term"])) + sum(z.real for z in floats)
    if (
        len(got) != len(floats)
        or any(abs(g - z.real) > 1e-9 or abs(z.imag) > 1e-9 for g, z in zip(got, floats))
        or abs(float(Fraction(doc["total"])) - want_total) > 1e-9
        or Fraction(doc["smooth_term"]) != Fraction(spec["smooth_term"])
    ):
        return [f"kawasaki {spec}: {doc}"]
    return []


def _check_heat(op, out) -> list[str]:
    doc = json.loads(out)
    d, K, l, m = op["d"], op["K"], op["l"], op["m"]
    if l is None:
        want = d + 1  # Riemann-Roch on the projective line
        dims_ok = doc["dim_V"] == (d + K + 1) * (K + 1) and doc["dim_W"] == (d + K + 2) * K
    else:
        want = lattice_count(l, m)
        dims_ok = doc["block_label"] == m % l
    samples = doc["supertrace"]
    if (
        not dims_ok
        or doc["index_exact"] != want
        or doc["ker_dim"] - doc["coker_dim"] != want
        or [t for t, _ in samples] != [float(t) for t in op["t"]]
        or any(abs(v - want) > SUPERTRACE_TOL for _, v in samples)
        or not doc["pairing_defect"] < PAIRING_BOUND
    ):
        return [f"heat d={d} K={K} l={l} m={m}: {doc}"]
    return []


_lambda_refs: dict[tuple, float] = {}


def _check_measure(op, out) -> list[str]:
    if op["expect_rc"] == 4:
        return []  # the exit code alone is the check for a divergent case
    doc = json.loads(out)
    tol = doc["tolerances"]["rel_tolerance"]
    key = (op["a"], op["m"], op["cutoff"])
    if key not in _lambda_refs:
        _lambda_refs[key] = lambda_mpmath(*key)
    refs = [_lambda_refs[key]]
    if op["cutoff"] == "hard" and op["m"] == 0:
        refs.append(math.pi * (1 + 2 * op["a"]))
    problems = [
        f"measure {key}: lambda_m {doc['lambda_m']} vs {ref}"
        for ref in refs
        if abs(doc["lambda_m"] - ref) > 10 * tol * ref
    ]
    if op["projector"]:
        limits = {
            "monomial_defect": 1e-6,
            "idempotency_defect": 1e-6,
            "equivariance_defect": 1e-6,
            "unity_defect": 10 * tol,
            "measure_total_defect": 10 * tol,
        }
        problems += [f"measure {key}: {k} = {doc[k]}" for k, lim in limits.items() if not doc[k] <= lim]
    return problems


_CHECKS = {
    "sweep": _check_sweep,
    "verify": _check_verify,
    "kawasaki": _check_kawasaki,
    "heat": _check_heat,
    "measure": _check_measure,
}


def check(op: dict, out: str) -> list[str]:
    """Problems with one operation's stdout; call only when it exited as expected."""
    try:
        return _CHECKS[op["kind"]](op, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{op['kind']} {op['argv']}: unreadable output ({exc!r})"]

"""Compare two sets of untraced benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds run records as run.py appends them to perfbench/out/runs.jsonl.
For every workload and end-to-end metric this prints each set's median and
quartiles (statistics.quantiles, n=4), each set's spread (quartile distance
over median), the change of the median against the metric's bound from
BENCHMARK.json, and how many seed-matched pairs each side wins.  It also
compares the share of failed operations.

Exit status 0 when every median change is within its bound, every spread
other than setup_s's is within its bound, and the failed shares are equal;
1 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        if rec["trace"] == 0:
            by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(base: dict, new: dict, bench: dict) -> bool:
    ok = True
    for workload in sorted(set(base) & set(new)):
        a_runs, b_runs = base[workload], new[workload]
        print(f"\n{workload}  ({len(a_runs)} vs {len(b_runs)} runs)")
        print(f"  {'metric':<14}{'base q1, median, q3':>32}{'new q1, median, q3':>32}{'spreads':>16}{'change':>9}{'bound':>7}  wins base:new")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = [r["e2e"][name] for r in a_runs]
            b = [r["e2e"][name] for r in b_runs]
            (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
            spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
            change = sign * (bm - am) / am  # positive is worse
            a_seed = {r["seed"]: r["e2e"][name] for r in a_runs}
            pairs = [(a_seed[r["seed"]], r["e2e"][name]) for r in b_runs if r["seed"] in a_seed]
            wins_b = sum(1 for x, y in pairs if sign * (y - x) < 0)
            wins_a = sum(1 for x, y in pairs if sign * (y - x) > 0)
            verdict = []
            if change > bound:
                verdict.append("WORSE")
            if name != "setup_s" and max(spread_a, spread_b) > bound:
                verdict.append("SPREAD")
            elif max(spread_a, spread_b) > bound / 3:
                verdict.append("spread>bound/3")
            ok = ok and not [v for v in verdict if v.isupper()]
            print(
                f"  {name:<14}{a1:>10.4g} {am:>10.4g} {a3:>10.4g}{b1:>10.4g} {bm:>10.4g} {b3:>10.4g}"
                f"{spread_a:>8.3f}{spread_b:>8.3f}{change:>+9.3f}{bound:>7.2f}  {wins_a}:{wins_b} {' '.join(verdict)}"
            )
        shares = []
        for runs in (a_runs, b_runs):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            shares.append((failed, attempted))
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        correct = all(r["result"]["correct"] for r in a_runs + b_runs)
        ok = ok and same and correct
        print(
            f"  failed {shares[0][0]}/{shares[0][1]} vs {shares[1][0]}/{shares[1][1]}"
            f" ({'same share' if same else 'SHARE DIFFERS'}); correct: {'all' if correct else 'NOT ALL'}"
        )
    return ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return 0 if compare(load(args[0]), load(args[1]), bench) else 1


if __name__ == "__main__":
    sys.exit(main())

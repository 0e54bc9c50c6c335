"""Benchmark runner for the cstar-index CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of the workload is one fresh
child interpreter (`child.py`), started one at a time, with BLAS pinned to
one thread.  Rounds repeat while the next one is expected to end within S
seconds; there is always at least one.  Before the rounds, SETUP_PROBES
children only import the program, so that set-up time is a median of
several launches on every workload.

Every end-to-end time is scaled to the reference speed of speed.py, by
probes of the machine's speed taken in the same child around it.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
(medians over rounds); with --trace 1 the rounds run traced and the metrics
are the per-layer ones from tracing.py.  Every run also appends a fuller
record to perfbench/out/runs.jsonl, and a traced run writes its spans to
perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from scipy.special import betainc

import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (0 < q < 1): the mean of the
    order statistics weighted by a Beta(q(n+1), (1-q)(n+1)) distribution
    over their ranks.  Steadier than a single order statistic, because each
    neighbour of the rank counts a little instead of one counting fully."""
    xs = sorted(values)
    n = len(xs)
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs)))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CSTAR_INDEX_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def scaled_setup(report: dict) -> float:
    """Set-up time at the reference speed, by the burst of probes after it."""
    return report["setup_s"] * speed.REF_PROBE_S / report["setup_probe_s"]


def scaled_op(probes: list, res: dict) -> float:
    """An operation's wall time, less probing, at the reference speed."""
    return res["net"] / speed.slowness(probes, res["start"], res["end"])


def run_child(ops: list[dict], trace: bool, env: dict) -> dict:
    """Start one child, feed it the operations, wait for it, parse its report."""
    payload = json.dumps([op["argv"] for op in ops])
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), repr(launch), "1" if trace else "0"],
        input=payload,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cstar_index" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'cstar_index'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
    env = child_env()
    trace = bool(args.trace)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}

    begin = time.monotonic()
    setups = [scaled_setup(run_child([], False, env)) for _ in range(SETUP_PROBES)]
    rounds = []
    failed = 0
    problems: list[str] = []
    while True:
        start = time.monotonic()
        report = run_child(ops, trace, env)
        for op, res in zip(ops, report["ops"]):
            if res["rc"] != op["expect_rc"]:
                failed += 1
                print(f"failed: {' '.join(op['argv'])}: exit {res['rc']}: {res['err'].strip()[-300:]}", file=sys.stderr)
            else:
                problems += workloads.check(op, res["out"])
        if not trace:
            setups.append(scaled_setup(report))
        rounds.append(report)
        last = time.monotonic() - start
        if time.monotonic() - begin + last > args.seconds:
            break

    per_round = []
    op_seconds = []
    for r in rounds:
        # traced rounds are not probed; their times stay raw
        seconds = [scaled_op(r["probes"], res) if r["probes"] else res["s"] for res in r["ops"]]
        op_seconds.append(seconds)
        per_round.append(
            {
                "wall_s": sum(seconds),
                "peak_rss_mb": r["peak_rss_mb"],
                "raw_wall_s": r["wall_s"],
                "slowness": speed.slowness(r["probes"], -math.inf, math.inf) if r["probes"] else None,
            }
        )
    e2e = {k: statistics.median(r[k] for r in per_round) for k, v in per_round[0].items() if v is not None}
    e2e["setup_s"] = statistics.median(setups)
    # latency of a query: its median over the rounds; then quantiles over queries
    query_ms = [1000.0 * statistics.median(times) for times in zip(*op_seconds)]
    e2e["query_p50_ms"] = quantile(query_ms, 0.5)
    e2e["query_p90_ms"] = quantile(query_ms, 0.9)
    if trace:
        layers = [tracing.layer_metrics(r["spans"], units) for r in rounds]
        values = {k: statistics.median(layer[k] for layer in layers) for k in units}
        spans_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps([r["spans"] for r in rounds]), encoding="utf-8")
    else:
        values = e2e
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "setups": setups,
        "per_round": per_round,
        "query_ms": query_ms,
        "e2e": e2e,
        "result": result,
    }
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

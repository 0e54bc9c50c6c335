"""One round of a workload in a fresh interpreter.

Usage: python3 child.py LAUNCH_MONOTONIC TRACE(0|1) < ops.json

LAUNCH_MONOTONIC is the parent's time.monotonic() just before it started
this process; set-up time runs from there until cstar_index.cli and its
numpy/scipy imports are ready.  With no operations on stdin the child only
sets up.  Each operation is one cli.main(argv) call with stdout and stderr
captured; the result goes to the real stdout as one JSON document.

An untraced child also times the speed probe of speed.py: a burst right
after set-up, and every speed.PROBE_PERIOD_S while the operations run.
Each operation's `net` time leaves out the time spent probing; the parent
scales it by the probes around it.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from speed import Prober


def run(cli, ops: list[list[str]], prober) -> list[dict]:
    results = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        spent = prober.spent
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a failed operation, never fatal
            rc = -1
            err.write(traceback.format_exc())
        end = time.perf_counter()
        net = end - start - (prober.spent - spent)
        results.append(
            {"rc": rc, "s": end - start, "net": net, "start": start, "end": end, "out": out.getvalue(), "err": err.getvalue()}
        )
    return results


def main() -> None:
    launch = float(sys.argv[1])
    import numpy  # noqa: F401  (set-up includes what a CLI user imports)
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    from cstar_index import cli

    setup_s = time.monotonic() - launch
    prober = Prober()
    setup_probe_s = None
    tracer = None
    if sys.argv[2] == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        setup_probe_s = prober.burst()
    ops = json.load(sys.stdin)
    start = time.perf_counter()
    if tracer is None:
        prober.start()
    try:
        results = run(cli, ops, prober)
    finally:
        if tracer is None:
            prober.stop()
    wall_s = time.perf_counter() - start
    doc = {
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "probes": prober.samples,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
        "spans": None if tracer is None else tracer.spans,
    }
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()

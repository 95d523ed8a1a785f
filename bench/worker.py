"""Run one round of benchmark jobs in a fresh process.

    python3 bench/worker.py PLAN RESULT [TRACE]

PLAN is a JSON list of {"id", "argv"} jobs. Each job is one CLI call,
`rainbowcheck.cli.main(argv)`, in this process with stdout and stderr
captured. RESULT receives each job's exit code, output and time, the
round's wall time and the process's peak resident memory. With TRACE,
every layer is traced (see tracing.py) and the spans are written there.
The process never builds instances, so no cache of the set-up is warm.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def import_package():
    """Import rainbowcheck from the checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC_DIR)
    import rainbowcheck
    import rainbowcheck.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(rainbowcheck.__file__))) != SRC_DIR:
        raise ImportError(f"rainbowcheck was imported from {rainbowcheck.__file__}, not {SRC_DIR}")
    return rainbowcheck


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # A job that raises is a failed operation; keep the traceback for the check.
            code = None
            traceback.print_exc(file=err)
    seconds = time.perf_counter() - start
    return {"code": code, "seconds": seconds, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(argv):
    plan_path, result_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 else None
    package = import_package()
    tracer = None
    if trace_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(package)
    with open(plan_path) as fh:
        plan = json.load(fh)
    jobs = {}
    start = time.perf_counter()
    for job in plan:
        if tracer:
            tracer.job = job["id"]
        jobs[job["id"]] = run_job(package.cli, job["argv"])
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump({"wall_s": wall, "peak_rss_mb": peak_rss_mb, "jobs": jobs}, fh)
    if tracer:
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

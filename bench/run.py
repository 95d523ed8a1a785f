"""Benchmark of rainbowcheck's CLI jobs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (timed as `setup_s` from the first statement of this file) imports
the package, builds the workload's instances from the seed and writes their
instance files. Then whole rounds run while the next one, as long as the
mean round so far, still fits in S seconds of job time. Each round is a
fresh worker process (worker.py) that runs every job of the workload once,
so each round starts with cold caches, as a fresh CLI process would. After
each round, outside the timed region, every job's output is checked
(checks.py); an output identical to one already checked keeps its verdict.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics, from each job's mean time over the rounds. With
--trace 1 untraced and traced rounds alternate; the metrics are the
per-layer figures of the set-up plus the median traced round, its wall time
and its overhead against the mean untraced round.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
# A run, set-up included, must end within this many seconds.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "max_job_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_round(workdir, index, traced, seed):
    """One worker process running the plan; returns its result dict."""
    result_path = os.path.join(workdir, f"round{index}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), os.path.join(workdir, "plan.json"), result_path]
    if traced:
        cmd.append(os.path.join(workdir, f"round{index}.trace.json"))
    # A fixed hash seed per benchmark seed keeps set iteration, and so the
    # work, the same in every round and run of that seed.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - T0))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


_ELAPSED_RE = re.compile(rb'"elapsed_seconds": [-0-9.e]+')


def read_output(job):
    """The bytes of the file a job wrote, or None."""
    if job.out is None or not os.path.exists(job.out):
        return None
    with open(job.out, "rb") as fh:
        return fh.read()


class Checker:
    """Checks job outputs, once per distinct output."""

    def __init__(self):
        self.seen = {}  # fingerprint -> problems

    def problems(self, job, result):
        raw = read_output(job)
        digest = hashlib.sha256()
        for part in (job.id, repr(result["code"]), result["stdout"], result["stderr"]):
            digest.update(part.encode() + b"\0")
        # A report's run time differs from round to round; its content does not.
        digest.update(_ELAPSED_RE.sub(b"", raw) if raw is not None else b"\0none")
        key = digest.hexdigest()
        if key not in self.seen:
            try:
                self.seen[key] = job.check(result, json.loads(raw) if raw is not None else None)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                # Output that is not in the form the check reads is a failed job.
                self.seen[key] = [f"output not in the expected form: {exc!r}"]
        return self.seen[key]


def main(argv):
    args = parse_args(argv)
    from worker import import_package

    package = import_package()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(package)
    import workloads

    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    instance_dir = os.path.join(workdir, "instances")
    os.makedirs(instance_dir)
    jobs = workloads.WORKLOADS[args.workload](package, args.seed, instance_dir)
    setup_s = time.perf_counter() - T0

    with open(os.path.join(workdir, "plan.json"), "w") as fh:
        json.dump([{"id": j.id, "argv": j.argv} for j in jobs], fh)
    checker = Checker()
    rounds = []  # (traced, result)
    failed = 0
    unexpected = []
    measured = 0.0
    min_rounds = 2 if args.trace else 1
    # Whole rounds, while the next one, as long as the mean so far, still fits.
    while len(rounds) < min_rounds or measured / len(rounds) * (len(rounds) + 1) <= args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        for job in jobs:
            if job.out and os.path.exists(job.out):
                os.remove(job.out)
        result = run_round(workdir, len(rounds), traced, args.seed)
        measured += result["wall_s"]
        rounds.append((traced, result))
        for job in jobs:
            problems = checker.problems(job, result["jobs"][job.id])
            if problems:
                failed += 1
                if not job.known_defect:
                    unexpected.append((len(rounds) - 1, job.id, problems))
    for index, job_id, problems in unexpected:
        print(f"round {index}, {job_id}: " + "; ".join(problems), file=sys.stderr)

    per_job = job_seconds(rounds)
    if args.trace:
        metrics = traced_metrics(tracer, workdir, rounds, sum(per_job.values()))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": sum(per_job.values()),
            "max_job_s": max(per_job.values()),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for traced, r in rounds if not traced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {
        "correct": not unexpected,
        "attempted": len(rounds) * len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"rounds": len(rounds), "job_seconds": per_job, **summary}, fh, indent=1)
    shutil.rmtree(instance_dir)
    print(json.dumps(summary))
    return 0


def job_seconds(rounds):
    """job id -> its mean time over the untraced rounds.

    Every round does the same work, so a job's times differ only by how much
    other load on the machine slowed it, which comes in phases of seconds to
    minutes. The mean follows the share of the run spent in slow phases
    smoothly; the median or the fastest round of a few rounds jumps between
    the slow and the fast speed."""
    plain = [r for traced, r in rounds if not traced]
    return {job: statistics.mean(r["jobs"][job]["seconds"] for r in plain) for job in plain[0]["jobs"]}


def traced_metrics(tracer, workdir, rounds, untraced_wall_s):
    """Per-layer metrics of the set-up plus the median traced round."""
    from tracing import layer_metrics, metric_unit

    traced = sorted((r["wall_s"], i) for i, (t, r) in enumerate(rounds) if t)
    wall_s, index = traced[(len(traced) - 1) // 2]
    with open(os.path.join(workdir, f"round{index}.trace.json")) as fh:
        spans = json.load(fh)
    setup = tracer.spans
    offset = len(setup)
    spans = setup + [[n, s, e, p + offset if p >= 0 else -1, j, x] for n, s, e, p, j, x in spans]
    tracer.dump(os.path.join(workdir, "setup.trace.json"))
    values = layer_metrics(spans)
    values["traced.wall_s"] = wall_s
    values["traced.overhead_pct"] = 100.0 * (wall_s / untraced_wall_s - 1.0)
    return {k: {"value": v, "unit": metric_unit(k)} for k, v in values.items()}


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)

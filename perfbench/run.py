"""Benchmark for latquot: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload kappa-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
the checkout and driven only through public calls.  One client in one
single-threaded process sends each job after the previous one finished,
running whole passes over the workload's job list for about ``--seconds``
of busy time (at least one pass).  Results are checked after the timed
loop.  The last line of output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUPS = 9  # set-up repetitions; setup_s is their median

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import trace, workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "job_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


def import_library():
    """Import latquot afresh from the checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "latquot" or m.startswith("latquot.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lq = importlib.import_module("latquot")
    if Path(lq.__file__).resolve().parent != SRC / "latquot":
        raise ImportError(f"latquot imported from {lq.__file__}, not from {SRC}")
    importlib.import_module("latquot.cli")
    return lq


def setup(workload, seed, workdir):
    """Import plus every input, ``SETUPS`` times; the last set-up is kept."""
    times = []
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        jobs = workloads.build(import_library(), workload, seed, str(workdir))
        times.append(time.perf_counter() - start)
    return jobs, statistics.median(times)


class Record:
    """Per-job timings and result signatures of every execution."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.walls = [[] for _ in jobs]
        self.cpus = [[] for _ in jobs]
        self.first = [None] * len(jobs)  # (result, signature) of the first clean run
        self.outcomes = [[] for _ in jobs]  # signature, or an exception

    def execute(self, k):
        job = self.jobs[k]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a raising job is a failed job, not a crash
            result, error = None, exc
        cpu1, wall1 = time.process_time(), time.perf_counter()
        self.walls[k].append(wall1 - wall0)
        self.cpus[k].append(cpu1 - cpu0)
        if error is not None:
            self.outcomes[k].append(error)
        else:
            sig = job.signature(result)
            if self.first[k] is None:
                self.first[k] = (result, sig)
            self.outcomes[k].append(sig)
        return wall1 - wall0

    def check(self):
        """(attempted, failed, messages): every execution against the checks."""
        attempted = failed = 0
        messages = []
        for k, job in enumerate(self.jobs):
            verdict = None
            if self.first[k] is not None:
                result, good = self.first[k]
                try:
                    verdict = job.check(result)
                except Exception as exc:  # a crashing check counts against the job
                    verdict = f"check raised {exc!r}"
            for outcome in self.outcomes[k]:
                attempted += 1
                if isinstance(outcome, Exception):
                    failed += 1
                    messages.append(f"{job.name}: raised {outcome!r}")
                elif verdict is not None:
                    failed += 1
                    messages.append(f"{job.name}: {verdict}")
                elif outcome != good:
                    failed += 1
                    messages.append(f"{job.name}: result differs from its first, checked result")
        return attempted, failed, messages


def run_pass(record, tracer=None):
    """One pass over the job list; returns the time the jobs were busy."""
    busy = 0.0
    for k in range(len(record.jobs)):
        if tracer is None:
            busy += record.execute(k)
        else:
            with tracer.job(k):
                busy += record.execute(k)
    return busy


def measure(record, seconds):
    """Whole passes, at least one, for about ``seconds`` of busy time: the next
    pass starts only if it would end less than half a pass past ``seconds``."""
    busy = last = 0.0
    while not busy or busy + last / 2 < seconds:
        last = run_pass(record)
        busy += last


def measure_traced(record, seconds, tracer):
    """Alternate untraced and traced whole passes for about ``seconds``."""
    plain, traced, layers = [], [], []
    while not traced or sum(plain) + sum(traced) + (plain[-1] + traced[-1]) / 2 < seconds:
        plain.append(run_pass(record))
        first_span = len(tracer.spans)
        with tracer.installed():
            traced.append(run_pass(record, tracer))
        layers.append(trace.summarize(tracer.spans, first_span, len(record.jobs)))
    per_layer = {}
    for name in layers[0]:
        values = [d[name] for d in layers]
        # counts repeat exactly from pass to pass; keep them whole numbers
        whole = all(isinstance(v, int) for v in values)
        per_layer[name] = (statistics.median_low if whole else statistics.median)(values)
    per_layer["trace_overhead"] = statistics.median(traced) / statistics.median(plain) - 1
    return per_layer


def end_to_end(record, setup_s):
    latencies = sorted(w for walls in record.walls for w in walls)
    metrics = {
        "wall_s": sum(statistics.median(w) for w in record.walls),
        "cpu_s": sum(statistics.median(c) for c in record.cpus),
        "job_p50_ms": statistics.median(latencies) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p90 = statistics.quantiles(latencies, n=10)[8] * 1000 if len(latencies) >= 100 else None
    return metrics, p90


def describe(args, jobs):
    workload = args.workload
    names = [job.name for job in jobs]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()[:16]
    print(f"# perfbench workload={workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("# load: closed loop, one client, one single-threaded process; "
          f"machine: {os.cpu_count()} cores, other work on it not controlled")
    print(f"# why: {workloads.WHY[workload]}")
    print(f"# role: {workloads.ROLE[workload]}")
    print(f"# jobs: {len(jobs)} distinct, digest {digest}")
    for name in names:
        print(f"#   {name}")
    for layer, moves in workloads.LAYER_MAP:
        print(f"# layer map: {layer} -> {moves}")
    for what, why in workloads.EXCLUDED:
        print(f"# excluded: {what} ({why})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            jobs, setup_s = setup(args.workload, args.seed, workdir)
        except ImportError as exc:
            print(f"error: cannot import latquot from {SRC}: {exc}", file=sys.stderr)
            return 2
        describe(args, jobs)
        record = Record(jobs)
        if args.trace:
            tracer = trace.Tracer()
            metrics = measure_traced(record, args.seconds, tracer)
            units = trace.per_layer_units()
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            measure(record, args.seconds)
            metrics, p90 = end_to_end(record, setup_s)
            units = END_TO_END_UNITS
        attempted, failed, messages = record.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for k, job in enumerate(record.jobs):
        print(f"# {len(record.walls[k])} x {job.name}: median "
              f"{statistics.median(record.walls[k]) * 1000:.1f} ms")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
        print(f"job_p90_ms = {p90:.6g} ms" if p90 is not None
              else f"job_p90_ms = n/a ({attempted} jobs, fewer than 100)")
        print(f"setup_s is the median of {SETUPS} set-ups")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

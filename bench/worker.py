"""One workload process: set up, run the closed loop, check the answers, report.

Started by ``run.py``, never by hand.  The process imports qmforge from the
``src/`` directory of the checkout it lives in, runs the workload's warm-up,
and reports its set-up time: from the parent's clock reading just before the
spawn to the moment the first timed job can begin.  With ``--setup-only`` it
stops there.  Otherwise it runs the timed loop, or in a traced run an untraced
half and a traced half, then the sampled oracle cross-checks and the
default-seed digest, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ORACLE_SAMPLES = 3
MIN_JOBS = 200  # so that at least 10 samples lie beyond the 95th percentile

# sha256 of the default-seed answers (DEFAULT_SEED, first ``digest_jobs``
# inputs of each workload) at the commit that defined the benchmark.
DIGESTS = {
    "rewrite": "1298a0dc29465069be76d251146644322a36faec0f04359f22ddc1544ee963fb",
    "classify": "a6251a17cbed3a66f2fbe5985cf4091048402d9fa7740f95f649b4f64e435e9f",
    "transport": "1820323343625dd50b50e0514e8e205bd9ecc70c57bdd231df147f42b10727c8",
    "cli": "f60739488cdb0a4cef58b26f52657984a1df35f943a52b32d361b2d3b3436881",
}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("QMFORGE_RANK", None)
    return env


def _fail(inp, why: str) -> None:
    print(f"bench: failed job {inp!r:.300}: {why}", file=sys.stderr)


def _span(tracer, name: str, job: int, nested: bool):
    return nullcontext() if tracer is None else tracer.span(name, job, nested)


def run_loop(wl, lib, inputs, seconds: float, min_jobs: int, whole_passes: bool, tracer,
             job0: int, oracle_from: int):
    """The closed loop: one job in flight, the next input only after the check.

    The loop's time is the summed job time; the client's own work between
    jobs (making the next input, checking the last answer) is not part of it.
    It stops once that time reaches ``seconds``, at least ``min_jobs`` jobs
    ran, and, with ``whole_passes``, the jobs make whole passes over the
    workload's strata.
    """
    latencies: list[float] = []
    failed = 0
    samples = []
    busy = 0.0
    hard_stop = time.monotonic() + 3 * seconds + 30
    for i, inp in zip(itertools.count(job0), inputs):
        t0 = time.perf_counter()
        try:
            with _span(tracer, f"job.{wl.name}", i, nested=True):
                answer = wl.job(lib, inp)
            error = None
        except Exception:  # any exception fails the job; the loop goes on
            answer, error = None, traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        busy += t1 - t0
        if error is None:
            try:
                with _span(tracer, "oracle.check", i, nested=False):
                    ok = wl.check(inp, answer)
                error = None if ok else "check failed"
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is None and tracer is not None:
            wl.tally(tracer.counters, answer)
        if error is not None:
            failed += 1
            _fail(inp, error)
        elif i >= oracle_from and len(samples) < ORACLE_SAMPLES and wl.oracle_fits(inp, answer):
            samples.append((i, inp, answer))
        done = busy >= seconds and len(latencies) >= min_jobs and (
            not whole_passes or wl.pass_end(i + 1))
        if done or time.monotonic() > hard_stop:
            break
    return latencies, failed, busy, samples


def oracle_checks(wl, samples, tracer) -> int:
    failed = 0
    for i, inp, answer in samples:
        try:
            with _span(tracer, "oracle.check", i, nested=False):
                ok = wl.oracle(inp, answer)
        except Exception:
            ok = False
        if not ok:
            failed += 1
            _fail(inp, "oracle cross-check failed")
    return failed


def digest(wl, lib, seed: int) -> tuple[str, int]:
    h = hashlib.sha256()
    failed = 0
    for inp in itertools.islice(wl.inputs(seed), wl.digest_jobs):
        answer = wl.job(lib, inp)
        if not wl.check(inp, answer):
            failed += 1
            _fail(inp, "check failed in the digest pass")
        h.update(wl.digest_line(inp, answer).encode() + b"\n")
    return h.hexdigest(), failed


def summarize(latencies: list[float], busy: float) -> dict:
    p95 = statistics.quantiles(latencies, n=20)[18] if len(latencies) >= 2 else latencies[0]
    return {
        "jobs": len(latencies),
        "jobs_per_s": len(latencies) / busy,
        "job_p50_ms": statistics.median(latencies) * 1000.0,
        "job_p95_ms": p95 * 1000.0,
        "beyond_p95": sum(1 for x in latencies if x > p95),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true",
                    help="a few jobs, no whole passes, one probe per subcommand")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import qmforge

    if Path(qmforge.__file__).resolve().parent != SRC / "qmforge":
        print(f"bench: imported qmforge from {qmforge.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import layers
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = cli_env()

    def run_cli(argv):
        return workloads.run_cli(argv, env)

    lib = tracing.Lib(run_cli)
    for inp in wl.warmup():
        wl.job(lib, inp)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    min_jobs, whole_passes, repeats = (4, False, 1) if args.quick else (MIN_JOBS, True, 3)
    oracle_from = random.Random(f"oracle/{args.seed}").randrange(min_jobs // 4 + 1)
    inputs = wl.inputs(args.seed)
    result: dict = {"setup_s": setup_s}
    if args.trace:
        half = args.seconds / 2
        lat, failed, busy, samples = run_loop(
            wl, lib, inputs, half, min_jobs // 2, whole_passes, None, 0, oracle_from)
        untraced = summarize(lat, busy)
        tracer = tracing.Tracer()
        tlib = tracer.traced_lib(tracing.Lib(run_cli))
        try:
            lat, more_failed, busy, _ = run_loop(
                wl, tlib, inputs, half, min_jobs // 2, whole_passes, tracer, len(lat), oracle_from)
        finally:
            tracer.close()
        failed += more_failed
        traced = summarize(lat, busy)
        failed += oracle_checks(wl, samples, tracer)
        result["attempted"] = untraced["jobs"] + traced["jobs"]
        metrics = layers.derive(tracer.self_times(), tracer.counters)
        metrics.update(layers.cli_probes(
            workloads.probe_argvs(args.seed, repeats), run_cli, workloads.cli_main_in_process,
            env, repeats))
        metrics["trace.untraced_jobs_per_s"] = untraced["jobs_per_s"]
        metrics["trace.traced_jobs_per_s"] = traced["jobs_per_s"]
        metrics["trace.overhead_jobs_per_s"] = untraced["jobs_per_s"] - traced["jobs_per_s"]
        result["per_layer"] = metrics
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = len(tracer.name)
    else:
        lat, failed, busy, samples = run_loop(
            wl, lib, inputs, args.seconds, min_jobs, whole_passes, None, 0, oracle_from)
        result.update(summarize(lat, busy))
        result["attempted"] = len(lat)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed += oracle_checks(wl, samples, None)
    result["oracle_checked"] = len(samples)
    value, digest_failed = digest(wl, tracing.Lib(run_cli), workloads.DEFAULT_SEED)
    result["digest"] = value
    result["digest_ok"] = value == DIGESTS[args.workload] and digest_failed == 0
    result["failed"] = failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

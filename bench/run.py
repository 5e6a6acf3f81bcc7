"""qmforge benchmark: four closed-loop workloads with correctness gates.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {rewrite,classify,transport,cli} \\
        --seed N --seconds S --trace {0,1} [--quick]

Each run builds nothing: it imports qmforge from ``src/`` of the checkout.
It starts ``SETUP_PROBES`` processes that only set up (import and warm-up)
to sample the set-up time, then one workload process that runs the closed
loop: one client, one job in flight, no threads.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the workload process runs half the time untraced and half
traced, and the JSON object carries the per-layer metrics instead, with the
tracing overhead.  Spans are written to ``.bench_out/``.  Lines before the
last one are a human-readable report.

``--quick`` runs every workload, check and metric in a few seconds: a short
loop, no 200-job floor, one set-up probe and one probe per subcommand.

The run exits non-zero, printing no result, when ``src/qmforge`` is missing
or the workload process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rewrite", "classify", "transport", "cli")
SETUP_PROBES = 9
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _spawn(args: list[str], timeout: float) -> dict:
    """Run one workload process and return the JSON object it prints."""
    argv = [sys.executable, str(HERE / "worker.py"), *args, "--spawned", repr(time.monotonic())]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qmforge" / "__init__.py").is_file():
        print(f"bench: no qmforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.quick:
        common.append("--quick")
    probes = 1 if args.quick else SETUP_PROBES
    try:
        setups = [_spawn([*common, "--setup-only"], 120)["setup_s"] for _ in range(probes)]
        run = _spawn([*common, "--trace", str(args.trace)], 170)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])

    failed, attempted = run["failed"], run["attempted"]
    correct = failed == 0 and run["digest_ok"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} jobs, {failed} failed (failed_frac {failed / attempted:.4g}), "
          f"{run['oracle_checked']} oracle cross-checks, "
          f"default-seed digest {'matches' if run['digest_ok'] else 'DIFFERS'} ({run['digest']})")
    if args.trace:
        import layers

        metrics = run["per_layer"]
        print(f"traced run: {run['spans']} spans in {run['spans_file']}; "
              f"tracing overhead {metrics['trace.overhead_jobs_per_s']:.4g} jobs/s "
              f"({metrics['trace.untraced_jobs_per_s']:.4g} untraced, "
              f"{metrics['trace.traced_jobs_per_s']:.4g} traced)")
        print("\n".join(layers.report_lines(metrics)))
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    else:
        metrics = {name: run[name] for name, _ in END_TO_END if name in run}
        metrics["setup_s"] = statistics.median(setups)
        units = dict(END_TO_END)
        print(f"p95 over {run['jobs']} jobs, {run['beyond_p95']} beyond it; "
              f"set-up samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

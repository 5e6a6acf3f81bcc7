"""Per-layer metrics: their catalog, what each should move, and how a traced run derives them.

A metric named ``<span>.s`` is the span's busy time: its summed duration minus
the time its child spans cover.  ``<span>.calls`` counts calls.  The other
counts are computed from the sizes of each call's inputs and outputs (see
``tracing``) or from the jobs' answers, and are marked as computed in the
report.  The ``cli.*`` metrics come from probes of the command line that every
traced run makes, whatever its workload.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Callable

SUBCOMMANDS = (
    "eval", "norm", "reduced", "nrep", "normal-form",
    "speed", "act", "exclude-fixpoint", "verify", "ball",
)

# (name, unit, better, computed from input/output sizes or answers)
PER_LAYER: tuple[tuple[str, str, str, bool], ...] = (
    ("freegroup.ball.calls", "count", "lower", False),
    ("freegroup.ball.words", "count", "lower", True),
    ("freegroup.ball.s", "s", "lower", False),
    ("freegroup.apply_nielsen.calls", "count", "lower", True),
    ("freegroup.apply_nielsen.s", "s", "lower", False),
    ("counting.evaluate.calls", "count", "lower", True),
    ("counting.evaluate.s", "s", "lower", False),
    ("counting.evaluate.key_letters", "count", "lower", True),
    ("counting.as_counting.calls", "count", "lower", False),
    ("counting.as_counting.s", "s", "lower", False),
    ("relations.normal_form.calls", "count", "lower", False),
    ("relations.normal_form.s", "s", "lower", False),
    ("relations.normal_form.keys_in", "count", "lower", True),
    ("relations.normal_form.keys_out", "count", "lower", True),
    ("relations.normal_form.trace_steps", "count", "lower", True),
    ("relations.certifies.calls", "count", "lower", False),
    ("relations.certifies.s", "s", "lower", False),
    ("relations.certifies.distinct_relations", "count", "lower", True),
    ("relations.certifies.useful_ratio", "ratio", "higher", True),
    ("action.n_representative.calls", "count", "lower", False),
    ("action.n_representative.s", "s", "lower", False),
    ("action.n_representative.keys", "count", "lower", True),
    ("action.act.calls", "count", "lower", False),
    ("action.act.s", "s", "lower", False),
    ("action.act.keys_out", "count", "lower", True),
    ("speed.speed.calls", "count", "lower", False),
    ("speed.speed.s", "s", "lower", False),
    ("speed.rot_branch", "count", "lower", True),
    ("fixpoints.exclude_fixpoint.calls", "count", "lower", False),
    ("fixpoints.exclude_fixpoint.s", "s", "lower", False),
    ("fixpoints.evidence.POSITIVE_SPEED", "count", "lower", True),
    ("fixpoints.evidence.HOM_COEFFICIENT_CHANGE", "count", "lower", True),
    ("fixpoints.evidence.ROT_SIGN_FLIP", "count", "lower", True),
    ("fixpoints.x_gens", "count", "lower", True),
    ("fixpoints.verify_witness.calls", "count", "lower", False),
    ("fixpoints.verify_witness.s", "s", "lower", False),
    ("oracle.check.calls", "count", "lower", False),
    ("oracle.check.s", "s", "lower", False),
    ("cli.interp_ms", "ms", "lower", False),
    ("cli.import_ms", "ms", "lower", False),
    *((f"cli.main.{sub}_ms", "ms", "lower", False) for sub in SUBCOMMANDS),
    ("cli.subprocess_ms", "ms", "lower", False),
    ("cli.remainder_ms", "ms", "lower", False),
    ("trace.untraced_jobs_per_s", "1/s", "higher", False),
    ("trace.traced_jobs_per_s", "1/s", "higher", False),
    ("trace.overhead_jobs_per_s", "1/s", "lower", False),
)

# Which end-to-end metric on which workload each layer metric should move, and
# the workloads where its calls do not run, so no change is predicted there.
INTERACTIONS = (
    (("relations.certifies.s", "relations.certifies.useful_ratio",
      "relations.normal_form.trace_steps"),
     {"rewrite": ("jobs_per_s", "job_p95_ms")}, ("classify", "transport")),
    (("relations.normal_form.s",),
     {"classify": ("jobs_per_s",), "rewrite": ("job_p50_ms",)}, ("transport",)),
    (("counting.evaluate.s", "counting.evaluate.key_letters"),
     {"transport": ("jobs_per_s", "job_p95_ms")}, ("rewrite", "classify")),
    (("freegroup.apply_nielsen.s", "freegroup.ball.s"),
     {"transport": ("job_p50_ms",)}, ()),
    (("action.n_representative.s", "action.n_representative.keys"),
     {"transport": ("job_p95_ms", "peak_rss_mb")}, ()),
    (("action.act.s", "fixpoints.exclude_fixpoint.s", "fixpoints.verify_witness.s"),
     {"classify": ("jobs_per_s", "job_p95_ms")}, ()),
    (("cli.import_ms",),
     {"cli": ("job_p50_ms",), "rewrite": ("setup_s",), "classify": ("setup_s",),
      "transport": ("setup_s",)}, ()),
    (("cli.main.verify_ms",), {"cli": ("job_p95_ms",)}, ()),
)


def derive(self_times: dict[str, float], counters: dict[str, int]) -> dict[str, float]:
    """Every span- and count-based per-layer metric from one traced loop."""
    out: dict[str, float] = {}
    for name, _, _, _ in PER_LAYER:
        if name.endswith(".s"):
            out[name] = self_times.get(name[:-2], 0.0)
        elif not name.startswith(("cli.", "trace.")):
            out[name] = counters.get(name, 0)
    steps = counters.get("relations.certifies.trace_steps", 0)
    out["relations.certifies.useful_ratio"] = (
        counters.get("relations.certifies.distinct_relations", 0) / steps if steps else 0.0
    )
    return out


def _median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1000.0


def cli_probes(
    argvs: dict[str, list[tuple[str, ...]]],
    run_cli: Callable[[tuple[str, ...]], subprocess.CompletedProcess],
    main_in_process: Callable[[list[str]], tuple[int, str]],
    env: dict,
    repeats: int,
) -> dict[str, float]:
    """Split a command-line job into interpreter start, import and ``main``.

    ``argvs`` holds ``repeats`` distinct well-formed argument lists per
    subcommand; each runs once in-process and once as a subprocess.
    """
    def wall(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    interp = [
        wall(lambda: subprocess.run([sys.executable, "-c", "pass"], env=env, check=True))
        for _ in range(repeats)
    ]
    imports = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import qmforge.cli; "
             "print(time.perf_counter() - t)"],
            env=env, check=True, capture_output=True, text=True,
        )
        imports.append(float(done.stdout))
    out = {"cli.interp_ms": _median_ms(interp), "cli.import_ms": _median_ms(imports)}
    mains, subs = [], []
    for sub in SUBCOMMANDS:
        runs = [wall(lambda: main_in_process(list(argv))) for argv in argvs[sub]]
        out[f"cli.main.{sub}_ms"] = _median_ms(runs)
        mains.append(out[f"cli.main.{sub}_ms"])
        subs.append(_median_ms([wall(lambda: run_cli(argv)) for argv in argvs[sub]]))
    out["cli.subprocess_ms"] = statistics.fmean(subs)
    out["cli.remainder_ms"] = (
        out["cli.subprocess_ms"] - out["cli.interp_ms"] - out["cli.import_ms"]
        - statistics.fmean(mains)
    )
    return out


def report_lines(metrics: dict[str, float]) -> list[str]:
    """The traced run's table, with the interaction map beside it."""
    moves: dict[str, str] = {}
    for names, targets, unchanged in INTERACTIONS:
        text = "; ".join(f"{w}: {', '.join(m)}" for w, m in targets.items())
        if unchanged:
            text += f" | no change predicted: {', '.join(unchanged)}"
        for name in names:
            moves[name] = text
    lines = []
    for name, unit, _, computed in PER_LAYER:
        tag = " (computed)" if computed else ""
        extra = f"  -> {moves[name]}" if name in moves else ""
        lines.append(f"  {name:44s} {metrics[name]:>14.6g} {unit}{tag}{extra}")
    return lines

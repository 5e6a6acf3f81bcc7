"""Each committed BENCH_PR*.json agrees with its own runs.

A record holds the result line of every bench/run.py run of a PR's
parent/change pairs, and a summary_medians block read off them.  These tests
recompute that block from the runs, so a summary cannot drift from the
measurements it claims to summarize.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_PR*.json"))
METRICS = ("jobs_per_s", "job_p50_ms", "job_p95_ms", "setup_s", "peak_rss_mb")
SIDES = ("parent", "change")


def summarize(runs: list[dict]) -> dict:
    """summary_medians as recomputed from the runs, one entry per workload."""
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    out = {}
    for workload, its in by_workload.items():
        summary: dict = {}
        for side in SIDES:
            results = [run["result"] for run in its if run["side"] == side]
            medians = {m: statistics.median(r["metrics"][m]["value"] for r in results) for m in METRICS}
            summary[side] = {**medians, "runs": len(results), "all_correct": all(r["correct"] for r in results)}
        jobs = {(run["seed"], run["side"]): run["result"]["metrics"]["jobs_per_s"]["value"] for run in its}
        seeds = sorted({seed for seed, _ in jobs})
        wins = sum(jobs[seed, "change"] > jobs[seed, "parent"] for seed in seeds)
        q1, _, q3 = statistics.quantiles([jobs[seed, "parent"] for seed in seeds], n=4)
        summary["change_wins_jobs_per_s"] = f"{wins} of {len(seeds)}"
        summary["parent_jobs_per_s_quartile_spread"] = q3 - q1
        out[workload] = summary
    return out


def _fields(summary: dict, prefix: str = "") -> dict:
    """The summary's leaves by dotted path, such as classify.change.jobs_per_s."""
    out = {}
    for key, value in summary.items():
        if isinstance(value, dict):
            out.update(_fields(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12)
    return a == b


def problems(record: dict) -> list[str]:
    """What is wrong with a record: pairs, failures, and summary fields that
    differ from their recomputation."""
    found = []
    sides: dict[tuple, list[str]] = {}
    for run in record["runs"]:
        sides.setdefault((run["workload"], run["seed"]), []).append(run["side"])
        result = run["result"]
        if result["correct"] is not True or result["failed"] != 0:
            found.append(f"{run['workload']} seed {run['seed']} {run['side']}: not a clean run")
    for (workload, seed), seen in sides.items():
        if sorted(seen) != sorted(SIDES):
            found.append(f"{workload} seed {seed}: sides {sorted(seen)}, not one parent and one change")
    if found:
        return found
    want, have = _fields(summarize(record["runs"])), _fields(record["summary_medians"])
    for field in sorted(want.keys() | have.keys()):
        if field not in want or field not in have or not _same(want[field], have[field]):
            found.append(f"{field}: recorded {have.get(field)}, runs give {want.get(field)}")
    return found


def test_the_bench_records_are_found():
    assert {"BENCH_PR16.json", "BENCH_PR17.json"} <= {p.name for p in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_each_bench_record_agrees_with_its_runs(path):
    assert problems(json.loads(path.read_text())) == []


def _changed_median(record):
    record["summary_medians"]["classify"]["change"]["jobs_per_s"] *= 1.01
    return "classify.change.jobs_per_s: recorded"


def _changed_wins(record):
    record["summary_medians"]["classify"]["change_wins_jobs_per_s"] = "6 of 6"
    return "classify.change_wins_jobs_per_s: recorded 6 of 6, runs give 4 of 6"


def _dropped_run(record):
    del record["runs"][0]
    return "rewrite seed 1701: sides ['change'], not one parent and one change"


def _failed_run(record):
    record["runs"][-1]["result"]["failed"] = 1
    return "transport seed 1726 parent: not a clean run"


@pytest.mark.parametrize("tamper", [_changed_median, _changed_wins, _dropped_run, _failed_run])
def test_the_record_check_sees_a_tampered_copy(tmp_path, tamper):
    """Each tamper of a copy of BENCH_PR17.json is the one problem reported."""
    record = json.loads((ROOT / "BENCH_PR17.json").read_text())
    expected = tamper(record)
    copy_path = tmp_path / "BENCH_PR17.json"
    copy_path.write_text(json.dumps(record))
    found = problems(json.loads(copy_path.read_text()))
    assert len(found) == 1 and found[0].startswith(expected), found

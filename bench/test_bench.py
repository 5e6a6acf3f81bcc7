"""Tests of the benchmark itself, on its quick mode.

Run with ``python -m pytest bench``.  Each workload runs for a fraction of a
second, timed and traced, with every check and the default-seed digest; the
tests then hold the printed result to ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def quick(workload: str, trace: int) -> dict:
    done = run("--workload", workload, "--seed", "5", "--seconds", "0.3",
               "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_reports_every_metric_and_passes_its_checks(workload, trace):
    result = quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_matches_the_catalogs():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in layers.PER_LAYER
    ]
    named = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for names, targets, unchanged in layers.INTERACTIONS:
        assert set(names) <= named
        assert set(targets) | set(unchanged) <= set(workloads.WORKLOADS)
        assert {m for moved in targets.values() for m in moved} <= end_to_end


def test_inputs_are_seeded_and_distinct():
    for name, wl in workloads.WORKLOADS.items():
        first = [repr(x) for _, x in zip(range(60), wl.inputs(7))]
        again = [repr(x) for _, x in zip(range(60), wl.inputs(7))]
        other = [repr(x) for _, x in zip(range(60), wl.inputs(8))]
        assert first == again, name
        assert first != other, name
        assert len(set(first)) == len(first), name


def test_cli_stream_has_one_malformed_job_in_ten():
    inputs = [x for _, x in zip(range(100), workloads.WORKLOADS["cli"].inputs(3))]
    assert sum(x.expect_rc == 2 for x in inputs) == 10
    assert {x.argv[0] for x in inputs} == set(layers.SUBCOMMANDS)


def test_a_wrong_answer_fails_its_check():
    wl = workloads.WORKLOADS["transport"]
    inp = next(wl.inputs(1))
    answer = wl.job(tracing.Lib(run_cli=None), inp)
    assert wl.check(inp, answer) and wl.oracle(inp, answer)
    answer.rep_values[-1] += 1
    assert not wl.oracle(inp, answer)
    answer.sups = answer.sups[:-1] + (answer.sups[-1] + 1,)
    assert not wl.check(inp, answer)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    (tmp_path / HERE.name).mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / HERE.name / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = run("--workload", "classify", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""

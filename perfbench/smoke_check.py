"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/smoke_check.py -q

The file name does not match ``test_*.py``, so the repository's own test
run does not collect it; name it explicitly as above.  About a minute.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (imports the program from src/)
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REGISTERED = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "classify_taxonomy": workloads.ClassifyTaxonomy(n_per_class=3, n_samples=4096),
    "assess_ims_run": workloads.AssessImsRun(n_files=8, onset=6, n_train=5, n_samples=4096,
                                             n_channels=2),
    "outlier_study": workloads.OutlierStudy(n_records=3, n_samples=2048, med_length=1024),
}

# The output file each workload's check reads first.
CHECKED_OUTPUT = {
    "classify_taxonomy": "classify/report.json",
    "assess_ims_run": "mqe.csv.json",
    "outlier_study": "med_00.csv",
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "RUNS_DIR", tmp_path)
    return tmp_path


def _run_main(capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_registered_workloads_are_the_harness_workloads():
    assert sorted(w["name"] for w in REGISTERED["workloads"]) == sorted(TINY)
    assert sorted(TINY) == sorted(type(w).name for w in workloads.WORKLOADS.values())


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_prints_every_metric_with_its_unit(tiny, capsys, name, trace):
    result = _run_main(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"] is True
    registered = REGISTERED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in registered} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    run_dir = tiny / f"{name}-seed0-trace{trace}"
    env = json.loads((run_dir / "report.json").read_text())["environment"]
    assert env["workload"]["seed"] == 0 and env["nproc"] >= 1
    assert set(env["blas"]) == {"numpy", "scipy"}
    if trace:
        assert result["metrics"]["single_thread.fit_iterations"]["value"] > 0
        _check_spans([json.loads(line) for line in
                      (run_dir / "spans.jsonl").read_text().splitlines()])


def _check_spans(spans):
    """Children lie inside their parents, self times are non-negative and add up."""
    child_time = [0.0] * len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["run_id"] == span["run_id"]
            child_time[span["parent"]] += span["end"] - span["start"]
    self_times = [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]
    assert min(self_times) >= 0.0
    for root in (s for s in spans if s["parent"] < 0):
        in_run = sum(t for s, t in zip(spans, self_times) if s["run_id"] == root["run_id"])
        assert in_run == pytest.approx(root["end"] - root["start"], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_output_counts_as_failed(tiny, capsys, monkeypatch, name):
    original = workloads.run_iteration

    def corrupting(workload, inputs, out, tracer=None, run_id=0):
        outcome = original(workload, inputs, out, tracer, run_id)
        (out / CHECKED_OUTPUT[name]).write_text("corrupted\n")
        return outcome

    monkeypatch.setattr(workloads, "run_iteration", corrupting)
    result = _run_main(capsys, name, 0)
    assert result["failed"] >= 1 and result["correct"] is False


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_ms([0.001] * 10) == (0.0, 0.0)
    pct, value = run.tail_ms([i / 1000 for i in range(1, 41)])
    assert pct == 75.0 and value == pytest.approx(30.0)


def test_tracer_restores_the_original_functions():
    from sparsevib import cli, pipeline, sparse_filter

    before = (cli.main, pipeline.fit_simplified_csf, sparse_filter.fit_simplified_csf)
    tracer = tracing.Tracer()
    tracer.install()
    assert pipeline.fit_simplified_csf is not before[1]
    assert pipeline.fit_simplified_csf is sparse_filter.fit_simplified_csf
    tracer.uninstall()
    assert (cli.main, pipeline.fit_simplified_csf, sparse_filter.fit_simplified_csf) == before


def test_checkout_without_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "outlier_study",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

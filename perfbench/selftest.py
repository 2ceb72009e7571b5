"""The benchmark's own tests.  They run every workload at minimal length,
so they are kept out of the default test collection; run them with

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=400)


def test_benchmark_json_lists_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == {**workloads.END_TO_END, "peak_rss_mb": "MB"}
    layers = {name: unit for name, (_value, unit) in Tracer().per_layer(1.0, 1.0).items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_at_minimal_length_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0, m["name"]
    if trace == "1" and workload.endswith("-train"):  # named layers cover the epochs
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9
    assert not (ROOT / ".perfbench_run").exists()


def test_default_seed_run_matches_the_loss_reference():
    proc = run_bench(ROOT, "--workload", "desk-train", "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "desk-train", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A desk-shape serve pass, small enough for in-process checks."""
    out = tmp_path_factory.mktemp("serve")
    cfg = workloads.run_config("desk-train", 5, 0)
    dataset, model, scaler = workloads.serve_setup(cfg, 5, out)
    plan = workloads.Plan(1, 0, 1, requests=20, bundles=1, arima_reps=1, eval_reps=1, eval_splits=("test",))
    tally = workloads.Tally()
    server = workloads.Server(np.random.default_rng(5), out, workloads.Pass(), tally)
    server.round(model, scaler, dataset, plan, warmup=True)
    assert tally.failed == 0
    return server.artifacts


def serve_check_failures(art):
    tally = workloads.Tally()
    workloads.check_serve(art, np.random.default_rng(0), tally)
    return tally


def test_serve_check_passes_on_true_outputs(served):
    tally = serve_check_failures(served)
    assert tally.failed == 0, tally.notes


@pytest.mark.parametrize("key", ["preds", "arima_preds"])
def test_perturbed_forecast_trips_the_serve_check(served, key):
    art = dict(served)
    art[key] = [v + 1e-8 for v in served[key]] if key == "preds" else served[key] + 1e-8
    tally = serve_check_failures(art)
    assert tally.failed > 0


def test_perturbed_loss_trips_the_reference_check():
    reference = json.loads(workloads.REFERENCE_PATH.read_text())["desk-train"]["composite"]
    history = [{"epoch": i + 1, "composite": c, "valid_rmse": 0.1} for i, c in enumerate(reference[:3])]
    tally = workloads.Tally()
    workloads.check_training(history, 3, workloads.DEFAULT_SEED, "desk-train", tally)
    assert tally.failed == 0
    history[2]["composite"] *= 1 + 1e-5
    workloads.check_training(history, 3, workloads.DEFAULT_SEED, "desk-train", tally)
    assert tally.failed == 1

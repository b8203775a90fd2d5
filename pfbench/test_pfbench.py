"""Tests of the benchmark itself: every metric BENCHMARK.json names is
emitted with its unit, the traced counts agree with the program, and the
command refuses to run without the pfnet sources."""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import run

run.use_checkout_sources()

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pfnet import config, network  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.01  # one item per loop


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    name = request.param
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_SECONDS", 0.0)
        return name, run.run_workload(name, seed=5, seconds=TINY_SECONDS, trace=True)


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_metric_emitted_with_its_unit(traced):
    name, result = traced
    assert result["correct"], result["details"]
    assert run.E2E_UNITS == _units("end_to_end")
    assert tracer.layer_metric_units() == _units("per_layer")
    assert set(result["end_to_end"]) == set(run.E2E_UNITS)
    assert set(result["per_layer"]) == set(tracer.layer_metric_units())
    assert all(v > 0 for v in result["end_to_end"].values()), name


def test_tape_records_sum_to_tape_entries(traced):
    name, result = traced
    layer, details = result["per_layer"], result["details"]
    records = sum(details["records_per_kind"].values())
    assert records == layer["tensor.tape_entries"] * details["traced_samples"]
    if name.startswith("train"):
        assert layer["tensor.tape_entries"] > 0
    else:
        assert records == 0 and layer["tensor.tape_peak_mib"] == 0


def test_conv_calls_match_conv_weights(traced):
    name, result = traced
    net_cfg = config.network_config(workloads.WORKLOADS[name].config())
    weights = [p for p in network.init_params(net_cfg, 0).values() if p.ndim == 4]
    assert result["per_layer"]["ops.conv2d.calls"] == len(weights)


def test_tracer_restores_every_original():
    originals = {
        (module.__name__, name): getattr(module, name)
        for module in tracer.MODULES
        for name in dir(module)
        if callable(getattr(module, name))
    }
    record = tracer.tensor.Tape.record
    with tracer.Tracer():
        assert tracemalloc.is_tracing()
        assert tracer.network.pfnet_forward is not originals[("pfnet.network", "pfnet_forward")]
    assert not tracemalloc.is_tracing()
    assert tracer.tensor.Tape.record is record
    for (module_name, name), fn in originals.items():
        assert getattr(sys.modules[module_name], name) is fn, (module_name, name)


@pytest.mark.parametrize("name", ["train_desk64", "score_desk"])
def test_same_seed_reproduces_outputs(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    first = run.run_workload(name, seed=2, seconds=TINY_SECONDS, trace=False)
    second = run.run_workload(name, seed=2, seconds=TINY_SECONDS, trace=False)
    other = run.run_workload(name, seed=3, seconds=TINY_SECONDS, trace=False)
    assert first["details"]["output_digest"] == second["details"]["output_digest"]
    assert first["details"]["output_digest"] != other["details"]["output_digest"]


def test_reference_job_makes_no_array_temporaries():
    """The job's time must not depend on the allocator state pfnet leaves."""
    reference.job()
    tracemalloc.start()
    try:
        reference.job()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < reference._PLANE.nbytes


def test_tail_leaves_ten_samples_above():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([4.0, 1.0, 3.0, 2.0]) == (3.0, 75.0, 4)
    assert run.tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (3.0, 60.0, 5)


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "pfbench/run.py", "--workload", "score_desk", "--seed", "1",
         "--seconds", str(TINY_SECONDS), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.E2E_UNITS


def test_command_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "pfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "pfbench/run.py", "--workload", "train_desk64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

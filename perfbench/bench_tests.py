"""The benchmark's own tests.  Named so that the repository's test run
(``pytest`` from the root collects ``test_*.py``) and ``repro reproduce``
(``benchmarks/test_*.py``) leave them out; run them explicitly:

    PYTHONPATH=src python3 -m pytest -q perfbench/bench_tests.py

They take about a minute: every workload runs a few full passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())
# Not pinned in golden.json, so nothing here was tuned on it.
HELD_OUT_SEED = 1009


def one_pass(name: str, seed: int):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    outputs = workload.run(workload.build(inputs), inputs)
    assert workload.invariants(outputs, inputs) == []
    return workload.summary(outputs)


@pytest.fixture(scope="module")
def held_out():
    return {name: one_pass(name, HELD_OUT_SEED) for name in WORKLOADS}


def test_held_out_seed_is_not_pinned():
    assert all(str(HELD_OUT_SEED) not in GOLDEN[name] for name in WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_outputs(name, held_out):
    assert one_pass(name, HELD_OUT_SEED) == held_out[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_seeds_cover_the_same_keys(name, held_out):
    assert len(GOLDEN[name]) >= 10
    for summary in GOLDEN[name].values():
        assert summary.keys() == held_out[name].keys()


def test_fleet_has_no_kv_pool_and_no_tracer(held_out):
    summary = held_out["fleet_diurnal_50k"]
    assert (summary["kv_pool"], summary["tracer"]) == (0, 0)
    assert summary["completed"] == summary["num_requests"] == 50_000


def test_chat_preempts_and_rejects_nothing(held_out):
    summary = held_out["chat_kv_traced"]
    assert (summary["kv_pool"], summary["tracer"]) == (1, 1)
    assert summary["preemptions"] > 0
    assert summary["rejected"] == 0
    assert summary["prefix_hit_rate"] > 0


def test_disagg_fires_every_fault_kind_and_fails_nothing(held_out):
    summary = held_out["disagg_flash_faults"]
    for kind in ("crashes", "slow_nodes", "kv_link_degradations"):
        assert summary[f"faults_{kind}"] >= 1, kind
    assert summary["faults_retries"] > 0
    assert summary["failed"] == summary["rejected"] == 0
    assert summary["kv_chunks_landed"] > 0


def test_compile_sim_is_deadlock_free_at_the_pinned_cycle_count(held_out):
    summary = held_out["compile_sim"]
    assert summary["sim.deadlocked"] == 0
    # The simulated block is compiled without the seeded exploration.
    pinned = {entry["sim.cycles"] for entry in GOLDEN["compile_sim"].values()}
    assert pinned == {summary["sim.cycles"]}


def test_layer_split_adds_up_to_the_wall():
    ids = {layer: index for index, layer in enumerate(layers.LAYERS)}
    # cluster.self [0, 10] holds engine.step_self [1, 5] holding
    # session.record [2, 3]; a second top-level span [11, 12].
    spans = {
        "layer": np.array([ids["cluster.self"], ids["engine.step_self"],
                           ids["session.record"], ids["report.to_dict"]],
                          dtype=np.int32),
        "parent": np.array([-1, 0, 1, -1], dtype=np.int32),
        "start": np.array([0.0, 1.0, 2.0, 11.0]),
        "end": np.array([10.0, 5.0, 3.0, 12.0]),
    }
    split = layers.layer_split(spans, 20.0)
    assert split["cluster.self"] == pytest.approx(30.0)
    assert split["engine.step_self"] == pytest.approx(15.0)
    assert split["session.record"] == pytest.approx(5.0)
    assert split["report.to_dict"] == pytest.approx(5.0)
    assert split["unattributed"] == pytest.approx(45.0)
    assert sum(split.values()) == pytest.approx(100.0)
    assert layers.batch_sizes(spans).tolist() == [1]


def test_recorder_restores_every_entry_point():
    before = [vars(owner)[name] for owner, name, _ in layers.PATCHES]
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        assert all(vars(owner)[name] is not original for
                   (owner, name, _), original in zip(layers.PATCHES, before))
    finally:
        recorder.uninstall()
    assert [vars(owner)[name] for owner, name, _ in layers.PATCHES] == before


def test_every_module_group_covers_traced_layers():
    grouped = [layer for members, _ in layers.GROUPS.values()
               for layer in members]
    assert sorted(grouped) == sorted(layers.LAYERS)
    assert layers.module_group("repro.serving.telemetry.manifest") \
        == "reports"
    assert layers.module_group("repro.serving.telemetry") == "telemetry"


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_benchmark_json_names_the_workloads_run_py_accepts():
    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) \
        == list(WORKLOADS)

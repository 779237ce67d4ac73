"""The benchmark's four workloads: inputs from a seed, one timed pass, checks.

Each workload is a :class:`Workload` with four steps, run by ``worker.py``:

* ``make_inputs(seed)`` — generate the inputs (a request trace, or the
  Linalg graphs to compile).  Only these reach the program.
* ``build(inputs)`` — construct the system under test (untimed).
* ``run(system, inputs)`` — the timed pass; returns the outputs.
* ``summarize(outputs)`` — the simulated outputs as a flat dict, which
  ``check`` compares against ``golden.json`` (see ``pin.py``).

Serving workloads replay a trace of simulated arrival times as fast as the
host can: this is an offline batch at a fixed input size, so the benchmark
reports host seconds per pass, never simulated latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.compiler import CompilerOptions, StreamTensorCompiler
from repro.models.config import GPT2, MODEL_CONFIGS
from repro.models.transformer import build_decode_block, build_prefill_block
from repro.platform.fpga import AMD_U55C
from repro.serving import SchedulerConfig, Tracer
from repro.serving.cluster import (
    AutoscalerConfig,
    DisaggregationConfig,
    FaultPlan,
    KVLinkDegradation,
    ReplicaCrash,
    ServingCluster,
    SlowNode,
)
from repro.serving.kv_manager import KVCacheConfig
from repro.serving.metrics import LatencyStats
from repro.serving.telemetry.analysis import timelines_from_tracer
from repro.serving.workload_gen import (
    diurnal_trace,
    flash_crowd_trace,
    multi_turn_trace,
)
from repro.sim.builder import build_simulation

# Floats in a pinned summary may drift by this relative amount, so a
# declared re-baseline at 1e-12 still passes; counts compare exactly.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable
    build: Callable
    run: Callable
    summarize: Callable[..., Dict[str, float]]
    ops: Callable[..., int]          # operations one pass attempts
    invariants: Callable[..., List[str]]

    def summary(self, outputs) -> Dict[str, float]:
        """:attr:`summarize` with every value a plain int or float."""
        return {key: int(value) if isinstance(value, (int, np.integer))
                else float(value)
                for key, value in self.summarize(outputs).items()}


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def _serving_summary(outputs) -> Dict[str, float]:
    cluster, report = outputs
    summary = {
        "num_requests": report.num_requests,
        "completed": report.completed,
        "rejected": report.rejected,
        "failed": report.failed,
        "preemptions": report.preemptions,
        "ttft_p50_s": report.ttft.p50,
        "ttft_p99_s": report.ttft.p99,
        "tpot_p50_s": report.tpot.p50,
        "tpot_p99_s": report.tpot.p99,
        "e2e_p50_s": report.e2e_latency.p50,
        "e2e_p99_s": report.e2e_latency.p99,
        "makespan_s": report.makespan_s,
        "prefix_hit_rate": report.prefix_hit_rate,
        "kv_chunks_landed": report.kv_chunks_landed,
        "kv_pool": int(cluster.kv_config is not None),
        "tracer": int(cluster.tracer is not None),
    }
    if report.faults is not None:
        for key in ("crashes", "slow_nodes", "kv_link_degradations",
                    "retries"):
            summary[f"faults_{key}"] = report.faults[key]
    return summary


def _serving_ops(trace) -> int:
    return len(trace)


def _serving_invariants(outputs, inputs) -> List[str]:
    cluster, report = outputs
    problems = []
    if report.num_requests != len(inputs):
        problems.append(f"report covers {report.num_requests} of "
                        f"{len(inputs)} requests")
    accounted = report.completed + report.rejected + report.failed
    if accounted != report.num_requests:
        problems.append(f"conservation: completed+rejected+failed="
                        f"{accounted} != attempted={report.num_requests}")
    if cluster.tracer is not None:
        problems += _timelines_agree(cluster.tracer, report)
    return problems


def _timelines_agree(tracer: Tracer, report) -> List[str]:
    """The tracer's per-request latencies must reproduce the report's."""
    timelines = timelines_from_tracer(tracer)
    finished = [t for t in timelines if t.spans]
    if len(finished) != report.completed:
        return [f"tracer has {len(finished)} timelines, report "
                f"{report.completed} completions"]
    traced = LatencyStats.from_values([t.e2e_s for t in finished])
    problems = []
    for pct in ("p50", "p99"):
        want = getattr(report.e2e_latency, pct)
        got = getattr(traced, pct)
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12):
            problems.append(f"tracer e2e {pct} {got!r} != report {want!r}")
    return problems


def _run_cluster(cluster: ServingCluster, trace):
    # What `serve-cluster --json` runs: the simulation and its JSON payload.
    report = cluster.run(trace)
    report.to_dict()
    return cluster, report


FLEET_SCHEDULER = SchedulerConfig(max_batch_size=64, token_budget=4096)


def _fleet_inputs(seed: int):
    return diurnal_trace(50_000, 2000.0, 8000.0, period_s=60.0, seed=seed,
                         input_choices=(16, 32), output_choices=(2, 4))


def _fleet_build(_trace) -> ServingCluster:
    return ServingCluster(GPT2, initial_replicas=50, router="round_robin",
                          scheduler_config=FLEET_SCHEDULER)


CHAT_SCHEDULER = SchedulerConfig(max_batch_size=16, token_budget=512,
                                 chunked_prefill=True)
# Small enough that long conversations preempt each other, large enough
# that no request is rejected.
CHAT_KV = KVCacheConfig.from_capacity_mb(64.0, enable_prefix_cache=True)


def _chat_inputs(seed: int):
    return multi_turn_trace(400, 4, seed=seed, think_time_s=2.0,
                            turn_input_choices=(32, 64, 128),
                            output_choices=(32, 64, 128))


def _chat_build(_trace) -> ServingCluster:
    # The request-lifecycle tracer is attached as `serve-cluster
    # --trace-out` attaches it: it is part of the workload.
    return ServingCluster(GPT2, initial_replicas=4, router="prefix_affinity",
                          scheduler_config=CHAT_SCHEDULER, kv_config=CHAT_KV,
                          tracer=Tracer())


DISAGG_FAULTS = FaultPlan(events=(
    SlowNode(10.0, 2, scale=3.0, duration_s=10.0),
    ReplicaCrash(25.0, 0),
    KVLinkDegradation(30.0, 0.1, duration_s=10.0),
), max_retries=3)


def _disagg_inputs(seed: int):
    return flash_crowd_trace(4000, 40.0, 400.0, burst_start_s=20.0,
                             burst_duration_s=4.0, seed=seed)


def _disagg_build(_trace) -> ServingCluster:
    return ServingCluster(
        GPT2, router="score",
        disaggregation=DisaggregationConfig(prefill_replicas=2,
                                            decode_replicas=2,
                                            kv_stream_chunks=4),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=4,
                                    slo_ttft_s=0.5),
        fault_plan=DISAGG_FAULTS)


# ----------------------------------------------------------------------
# Compiler + cycle simulator
# ----------------------------------------------------------------------
COMPILE_MODELS = ("gpt2", "qwen", "llama", "gemma")
SIM_SEQ_LEN = 32


def _compile_inputs(seed: int):
    blocks = {}
    for name in COMPILE_MODELS:
        config = MODEL_CONFIGS[name]
        blocks[f"{name}_prefill"] = (build_prefill_block(config, 256), config)
        blocks[f"{name}_decode"] = (build_decode_block(config, kv_len=256),
                                    config)
    sim_block = (build_prefill_block(GPT2, SIM_SEQ_LEN), GPT2)
    return seed, blocks, sim_block


def _compile_build(inputs):
    seed = inputs[0]
    # Tiling exploration is the seeded part of the compiler.  The simulated
    # block keeps the default tiling, so its cycle count is seed-free.
    return (StreamTensorCompiler(CompilerOptions(explore_tiling=True,
                                                 seed=seed)),
            StreamTensorCompiler(CompilerOptions()))


def _compile_run(system, inputs):
    explorer, default = system
    _seed, blocks, (sim_graph, sim_config) = inputs
    compiled = {name: explorer.compile(graph, config)
                for name, (graph, config) in blocks.items()}
    sim_compiled = default.compile(sim_graph, sim_config)
    simulation = build_simulation(sim_compiled.dataflow_graph, AMD_U55C)
    outcome = simulation.run(max_cycles=5e8, raise_on_deadlock=False)
    return compiled, simulation, outcome


def _compile_summary(outputs) -> Dict[str, float]:
    compiled, simulation, outcome = outputs
    summary: Dict[str, float] = {}
    for name, result in compiled.items():
        report = result.report
        summary[f"{name}.kernels"] = report.num_kernels
        summary[f"{name}.fused_groups"] = report.num_fused_groups
        summary[f"{name}.fifo_bytes"] = report.fifo_bytes
        summary[f"{name}.hls_lines"] = report.hls_lines
    summary["sim.cycles"] = outcome.total_cycles
    summary["sim.deadlocked"] = int(outcome.deadlocked)
    summary["sim.firings"] = sum(kernel.firings_done for kernel
                                 in simulation.simulator.kernels.values())
    summary["sim.backpressure_stalls"] = outcome.total_backpressure_stalls
    return summary


def _compile_ops(inputs) -> int:
    return len(inputs[1]) + 2       # the explored blocks, the sim block, sim


def _compile_invariants(outputs, _inputs) -> List[str]:
    compiled, _simulation, outcome = outputs
    problems = []
    if outcome.deadlocked:
        problems.append("cycle simulation deadlocked")
    for name, result in compiled.items():
        report = result.report
        if report.num_kernels < 1 or report.num_fused_groups < 1 \
                or report.hls_lines < 1 or report.fifo_bytes <= 0:
            problems.append(f"{name}: empty design {report.num_kernels} "
                            f"kernels, {report.hls_lines} HLS lines")
    return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fleet_diurnal_50k",
        "50k short requests on 50 round-robin replicas: event dispatch, "
        "routing and the per-resident engine step carry the work",
        _fleet_inputs, _fleet_build, _run_cluster, _serving_summary,
        _serving_ops, _serving_invariants),
    Workload(
        "chat_kv_traced",
        "400 four-turn chats on 4 replicas with a tight prefix-cached KV "
        "pool and the lifecycle tracer: KV, scheduler, telemetry work",
        _chat_inputs, _chat_build, _run_cluster, _serving_summary,
        _serving_ops, _serving_invariants),
    Workload(
        "disagg_flash_faults",
        "flash crowd on a 2+2 disaggregated autoscaled fleet with a crash, "
        "a slow node and a KV-link fault: the cluster's control half",
        _disagg_inputs, _disagg_build, _run_cluster, _serving_summary,
        _serving_ops, _serving_invariants),
    Workload(
        "compile_sim",
        "8 explored block compiles across 4 models, then a cycle "
        "simulation of the GPT-2 prefill block: compiler and repro.sim",
        _compile_inputs, _compile_build, _compile_run, _compile_summary,
        _compile_ops, _compile_invariants),
)}


def compare_to_golden(summary: Dict[str, float],
                      golden: Dict[str, float]) -> List[str]:
    """Counts must match exactly, floats within :data:`REL_TOL`."""
    problems = []
    for key in sorted(set(summary) | set(golden)):
        if key not in summary or key not in golden:
            problems.append(f"{key}: present in only one of run and golden")
            continue
        got, want = summary[key], golden[key]
        if isinstance(want, int) and isinstance(got, int):
            ok = got == want
        else:
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)
        if not ok:
            problems.append(f"{key}: {got!r} != pinned {want!r}")
    return problems

"""Traced run: spans around each layer's public entry points.

The program itself is not instrumented.  :class:`SpanRecorder` patches the
entry points in :data:`PATCHES` where their callers look them up (a class
attribute, or a name imported into the calling module), records one span
per call — layer, start, end, parent span — into flat arrays kept in
memory, and restores the originals when the traced pass ends.

A layer's self time is its spans' durations minus the time their child
spans cover.  Every layer's self time plus the unattributed remainder (the
pass wall outside any top-level span) adds up to the pass wall, which is
how :func:`layer_split` reports it.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.compiler.pipeline as pipeline
import repro.serving.cluster.cluster as cluster_module
import workloads
from repro.compiler.pipeline import StreamTensorCompiler
from repro.eval.latency import FpgaPerformanceModel
from repro.ir.passes import PassManager
from repro.platform.hls_profiler import HlsProfiler
from repro.runtime.session import ActiveRequest
from repro.serving.cluster.autoscaler import Autoscaler
from repro.serving.cluster.cluster import ServingCluster
from repro.serving.cluster.replica import EngineReplica
from repro.serving.cluster.report import ClusterReport
from repro.serving.cluster.router import ClusterRouter
from repro.serving.engine import DeviceWorker
from repro.serving.kv_manager import KVBlockManager
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.telemetry.tracer import Tracer
from repro.sim.simulator import DataflowSimulator

# (owner, attribute, layer).  Owners are classes, or the module whose code
# calls a function it imported by name.
PATCHES: Tuple[Tuple[object, str, str], ...] = (
    # Serving: the cluster kernel is ServingCluster.run's own time.
    (ServingCluster, "run", "cluster.self"),
    (ClusterRouter, "dispatch", "router.dispatch"),
    (Autoscaler, "decide", "autoscaler.decide"),
    (DeviceWorker, "step", "engine.step_self"),
    (ContinuousBatchingScheduler, "plan_step", "scheduler.plan"),
    (ActiveRequest, "next_work", "session.next_work"),
    (ActiveRequest, "record", "session.record"),
    (FpgaPerformanceModel, "engine_step_time_s", "cost.step_time"),
    (KVBlockManager, "claim", "kv.claim"),
    (KVBlockManager, "release", "kv.release"),
    (KVBlockManager, "pin_prefix", "kv.pin_prefix"),
    (Tracer, "flush_batch", "telemetry.flush"),
    (cluster_module, "telemetry_section", "telemetry.section"),
    (cluster_module, "build_cluster_report", "report.build"),
    (EngineReplica, "report", "report.build"),
    (cluster_module, "build_manifest", "report.manifest"),
    (ClusterReport, "to_dict", "report.to_dict"),
    # Compiler: StreamTensorCompiler.compile's own time sequences stages.
    (StreamTensorCompiler, "compile", "compiler.self"),
    (PassManager, "run", "ir.passes"),
    (pipeline, "explore_tiling_space", "dse.tiling"),
    (pipeline, "build_tiling_space", "dse.tiling"),
    (pipeline, "convert_to_dataflow", "dataflow.fusion"),
    (pipeline, "fuse_kernels", "dataflow.fusion"),
    (pipeline, "remove_redundant_converters", "dataflow.fusion"),
    (pipeline, "materialize", "dataflow.opt"),
    (pipeline, "fold_itensors", "dataflow.opt"),
    (pipeline, "vectorize_graph", "dataflow.opt"),
    (pipeline, "pack_kernel_interfaces", "dataflow.opt"),
    (HlsProfiler, "profile_graph", "platform.profile"),
    (pipeline, "size_graph_fifos", "resource.fifo_sizing"),
    (pipeline, "partition_graph", "resource.partition"),
    (pipeline, "allocate_memory", "resource.memory_alloc"),
    (pipeline, "bufferize", "dataflow.bufferize"),
    (pipeline, "generate_hls", "codegen"),
    (pipeline, "generate_connectivity", "codegen"),
    (pipeline, "generate_host", "codegen"),
    (workloads, "build_simulation", "sim.build"),
    (DataflowSimulator, "run", "sim.run"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for *_, layer
                                              in PATCHES))

# The README's layer groups: the traced layers each one sums, and the
# modules whose code runs in their self time — what the cProfile
# cross-check (run.py --profile) rolls its per-module time up into.
GROUPS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "cluster kernel": (("cluster.self",), (
        "repro.serving.cluster.cluster", "repro.serving.cluster.events",
        "repro.serving.cluster.replica")),
    "router": (("router.dispatch",), ("repro.serving.cluster.router",)),
    "control": (("autoscaler.decide",), (
        "repro.serving.cluster.autoscaler", "repro.serving.cluster.faults")),
    "engine step": (("engine.step_self",), (
        "repro.serving.engine", "repro.serving.request",
        "repro.serving.policies", "repro.serving.slo")),
    "scheduler": (("scheduler.plan",), ("repro.serving.scheduler",)),
    "session cursors": (("session.next_work", "session.record"),
                        ("repro.runtime.session",)),
    "cost model": (("cost.step_time",), ("repro.eval.latency",
                                         "repro.models")),
    "KV manager": (("kv.claim", "kv.release", "kv.pin_prefix"),
                   ("repro.serving.kv_manager",)),
    "telemetry": (("telemetry.flush", "telemetry.section"), (
        "repro.serving.telemetry", "repro.serving.telemetry.tracer",
        "repro.serving.telemetry.registry")),
    "reports": (("report.build", "report.manifest", "report.to_dict"), (
        "repro.serving.cluster.report", "repro.serving.metrics",
        "repro.serving.telemetry.manifest")),
    "compiler passes": (("compiler.self", "ir.passes", "dse.tiling",
                         "dataflow.fusion", "dataflow.opt",
                         "platform.profile", "resource.fifo_sizing",
                         "resource.partition", "resource.memory_alloc",
                         "dataflow.bufferize", "codegen"), (
        "repro.compiler", "repro.ir", "repro.dse", "repro.dataflow",
        "repro.itensor", "repro.platform", "repro.resource",
        "repro.codegen")),
    "cycle simulator": (("sim.build", "sim.run"), ("repro.sim",)),
}


class SpanRecorder:
    """Records one span per call of every patched entry point.

    Spans live in flat arrays (layer id, start, end, parent index; -1 for
    a top-level span) until :meth:`arrays` hands them over.
    """

    def __init__(self) -> None:
        self.layer_ids = {layer: index for index, layer in enumerate(LAYERS)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, function, layer_id: int):
        layer, parent, start, end = (self.layer, self.parent, self.start,
                                     self.end)
        stack = self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attribute, layer in PATCHES:
            original = vars(owner)[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    self._wrap(original, self.layer_ids[layer]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span out (compressed ``.npz``), with layer names."""
        np.savez_compressed(path, layers=np.array(LAYERS), **self.arrays())


def batch_sizes(spans: Dict[str, np.ndarray]) -> np.ndarray:
    """Residents recorded per engine step (record spans per step span)."""
    layer_ids = {layer: index for index, layer in enumerate(LAYERS)}
    step = spans["layer"] == layer_ids["engine.step_self"]
    record = (spans["layer"] == layer_ids["session.record"]) \
        & (spans["parent"] >= 0)
    counts = np.bincount(spans["parent"][record],
                         minlength=len(spans["layer"]))
    return counts[np.flatnonzero(step)]


def layer_split(spans: Dict[str, np.ndarray],
                wall_s: float) -> Dict[str, float]:
    """Self time of each layer, and the remainder, as % of ``wall_s``."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    child = np.zeros_like(duration)
    np.add.at(child, parent[nested], duration[nested])
    per_layer = np.bincount(spans["layer"], weights=duration - child,
                            minlength=len(LAYERS))
    split = {layer: 100.0 * float(seconds) / wall_s
             for layer, seconds in zip(LAYERS, per_layer)}
    covered = float(duration[~nested].sum())
    split["unattributed"] = 100.0 * (wall_s - covered) / wall_s
    return split


def module_group(module: str) -> Optional[str]:
    """The group whose module prefix matches ``module`` the longest."""
    best, best_len = None, -1
    for group, (_layers, prefixes) in GROUPS.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = group, len(prefix)
    return best

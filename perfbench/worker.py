"""One fresh benchmark process: set up one workload, then time passes.

``run.py`` starts this script once per sample and reads two things from
its standard output: a ``READY`` line, printed just before the first
timed call, and a final JSON line with the samples.

Times are CPU seconds of this process (all its threads, and any children
it waited for), so a share of the CPU lost to other processes or to the
hypervisor does not count.  A host that runs slower for a while (a busy
sibling hyperthread, shared caches) still inflates CPU seconds, so during
a measured pass :class:`HostSpeed` interrupts the program every
:data:`PROBE_PERIOD_S` of CPU time to time :func:`probe`, a fixed piece of
pure-Python work; ``run.py`` scales each pass by ``PROBE_REF_S`` over the
mean probe time during it.

Modes:

* ``measure`` — probed untraced passes until ``--seconds`` are used; the
  first pass also measures the memory it leaves behind with its results
  alive.
* ``trace`` — untraced and traced passes alternately; the traced ones
  report the per-layer split (``layers.py``) and write their spans out.
* ``profile`` — one traced pass and one pass under cProfile, for the
  module roll-up cross-check.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import heapq
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, compare_to_golden  # noqa: E402

GOLDEN = HERE / "golden.json"
OUT_DIR = HERE / "out"
PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0
# The host's speed flickers within seconds, so it is sampled inside each
# pass: one probe of a few milliseconds per 50 ms of CPU time.
PROBE_PERIOD_S = 0.05


def cpu_s() -> float:
    """CPU seconds used so far by this process and its waited children."""
    times = os.times()
    return process_time() + times.children_user + times.children_system


class _Item:
    __slots__ = ("rid", "left", "clock", "log")

    def __init__(self, rid: int, left: int) -> None:
        self.rid, self.left, self.clock, self.log = rid, left, 0.0, []


def probe() -> float:
    """Wall seconds of a fixed interpreter-bound job, as a host-speed sample.

    A tiny event loop of the same kind of work the program does (a heap
    of timed events, a dict of live objects, attribute updates, float
    arithmetic, list growth), independent of the program's code.  It is
    short enough that the OS rarely switches away during it, so its wall
    time tells how fast the CPU runs at that moment.  The cyclic collector
    is off while it runs, so its cost does not depend on how many objects
    the workload keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    jobs, heap, live, state, clock = 400, [], {}, 12345, 0.0
    for rid in range(jobs):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (state / 2**31 * jobs, rid))
    while heap:
        due, rid = heapq.heappop(heap)
        item = live.get(rid)
        if item is None:
            item = live[rid] = _Item(rid, 1 + rid % 7)
        item.left -= 1
        item.clock = clock = max(clock, due) + 1e-4 * (1 + len(item.log))
        item.log.append(clock)
        if item.left:
            heapq.heappush(heap, (clock + 0.5, rid))
        else:
            del live[rid]
    seconds = perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class HostSpeed:
    """Runs :func:`probe` every :data:`PROBE_PERIOD_S` of CPU time.

    The profiling timer counts this process's CPU time, and Python runs
    the handler in the main thread between two bytecodes of the program.
    """

    def __enter__(self) -> "HostSpeed":
        self.samples: list = []
        self.previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(probe())

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self.previous)
        if not self.samples:
            self.samples.append(probe())


def rss_kb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * PAGE_KB


def load_golden(workload: str, seed: int):
    with open(GOLDEN) as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


class Bench:
    """One workload's inputs, checks and failure accounting."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        start = perf_counter()
        self.inputs = self.workload.make_inputs(seed)
        self.workload_gen_s = perf_counter() - start
        self.golden = load_golden(name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def timed_pass(self, probed: bool = False):
        """Build (untimed), run (timed).

        Returns ``(outputs, wall seconds, CPU seconds, probe seconds)``.
        With ``probed`` the run is sampled by :class:`HostSpeed`; the CPU
        seconds then leave out the probes' time, and the probe seconds are
        their mean (else ``None``).
        """
        workload = self.workload
        system = workload.build(self.inputs)
        gc.collect()
        host = HostSpeed() if probed else contextlib.nullcontext()
        start, start_cpu = perf_counter(), cpu_s()
        try:
            with host:
                outputs = workload.run(system, self.inputs)
        except Exception:
            # A pass that raises fails every operation it attempted.
            traceback.print_exc()
            self.problems.append("pass raised")
            ops = workload.ops(self.inputs)
            self.attempted += ops
            self.failed += ops
            outputs = None
        wall, cpu = perf_counter() - start, cpu_s() - start_cpu
        if not probed:
            return outputs, wall, cpu, None
        return (outputs, wall, cpu - sum(host.samples),
                statistics.fmean(host.samples))

    def check(self, outputs) -> None:
        """Check one pass's outputs; count its operations."""
        if outputs is None:
            return
        workload = self.workload
        ops = workload.ops(self.inputs)
        summary = workload.summary(outputs)
        problems = workload.invariants(outputs, self.inputs)
        if self.golden is not None:
            problems += compare_to_golden(summary, self.golden)
        self.attempted += ops
        if problems:
            self.problems += problems
            self.failed += ops
        else:
            # Rejected and FAILED requests are failed operations too.
            self.failed += summary.get("rejected", 0) \
                + summary.get("failed", 0)


def measure(bench: Bench, seconds: float) -> dict:
    gc.collect()
    setup_cpu_s = cpu_s()
    print("READY", flush=True)
    start = round_start = perf_counter()
    before_kb = rss_kb()
    outputs, _wall, cpu, probe_s = bench.timed_pass(probed=True)
    gc.collect()
    kept_kb = rss_kb() - before_kb
    cpus, probes = [], []
    while True:
        bench.check(outputs)
        del outputs
        cpus.append(cpu)
        probes.append(probe_s)
        if not more_time(start, seconds, perf_counter() - round_start):
            break
        round_start = perf_counter()
        outputs, _wall, cpu, probe_s = bench.timed_pass(probed=True)
    return {"setup_cpu_s": setup_cpu_s, "probe_s": probes,
            "pass_cpu_s": cpus, "measured_s": perf_counter() - start,
            "kept_kb_per_op": kept_kb / bench.workload.ops(bench.inputs)}


def more_time(start: float, seconds: float, last: float) -> bool:
    """Whether another round as long as ``last`` fits in ``seconds``."""
    return perf_counter() - start + last <= seconds


def traced_pass(bench: Bench):
    recorder = layers.SpanRecorder()
    recorder.install()
    try:
        outputs, wall, _cpu, _probe = bench.timed_pass()
    finally:
        recorder.uninstall()
    return outputs, wall, recorder


def trace(bench: Bench, seconds: float, seed: int) -> dict:
    print("READY", flush=True)
    start = perf_counter()
    untraced, traced, splits, counts = [], [], [], None
    while not traced or more_time(start, seconds,
                                  untraced[-1] + traced[-1]):
        outputs, wall, _cpu, _probe = bench.timed_pass()
        untraced.append(wall)
        bench.check(outputs)
        del outputs
        outputs, wall, recorder = traced_pass(bench)
        traced.append(wall)
        bench.check(outputs)
        spans = recorder.arrays()
        splits.append(layers.layer_split(spans, wall))
        if counts is None:
            counts = layer_counts(outputs, spans)
            OUT_DIR.mkdir(exist_ok=True)
            recorder.save(OUT_DIR / f"spans-{bench.workload.name}-{seed}.npz")
        del outputs, recorder, spans
    return {"untraced_walls": untraced, "traced_walls": traced,
            "splits": splits, "counts": counts,
            "workload_gen_s": bench.workload_gen_s}


def layer_counts(outputs, spans) -> dict:
    """Work counts of the traced pass (deterministic for a seed)."""
    calls = dict(zip(layers.LAYERS, np.bincount(
        spans["layer"], minlength=len(layers.LAYERS)).tolist()))
    batches = layers.batch_sizes(spans)
    counts = {
        "trace.spans": len(spans["layer"]),
        "router.dispatch_calls": calls["router.dispatch"],
        "autoscaler.decide_calls": calls["autoscaler.decide"],
        "engine.resident_steps": calls["session.record"],
        "engine.batch_p50": float(np.median(batches)) if batches.size
        else 0.0,
        "scheduler.plan_calls": calls["scheduler.plan"],
        "session.next_work_calls": calls["session.next_work"],
        "session.record_calls": calls["session.record"],
        "cost.step_time_calls": calls["cost.step_time"],
        "kv.claim_calls": calls["kv.claim"],
    }
    serving = {"cluster.events": 0, "cluster.kv_chunks_landed": 0,
               "engine.steps": 0, "autoscaler.scale_actions": 0,
               "faults.retries": 0, "kv.prefix_hit_rate": 0.0,
               "kv.preemptions": 0, "telemetry.spans": 0}
    compiler = {"dataflow.kernels": 0, "dataflow.fused_groups": 0,
                "codegen.lines": 0, "sim.firings": 0, "sim.cycles": 0.0,
                "sim.backpressure_stalls": 0}
    if isinstance(outputs[0], dict):
        compiled, simulation, outcome = outputs
        reports = [result.report for result in compiled.values()]
        compiler.update({
            "dataflow.kernels": sum(r.num_kernels for r in reports),
            "dataflow.fused_groups": sum(r.num_fused_groups
                                         for r in reports),
            "codegen.lines": sum(r.hls_lines + r.host_lines
                                 for r in reports),
            "sim.firings": sum(k.firings_done for k
                               in simulation.simulator.kernels.values()),
            "sim.cycles": outcome.total_cycles,
            "sim.backpressure_stalls": outcome.total_backpressure_stalls,
        })
    else:
        cluster, report = outputs
        scalers = [s for s in (cluster.autoscaler, cluster.decode_autoscaler)
                   if s is not None]
        serving.update({
            "cluster.events": cluster.events_processed,
            "cluster.kv_chunks_landed": report.kv_chunks_landed,
            "engine.steps": sum(r.worker.steps for r in cluster.replicas),
            "autoscaler.scale_actions": sum(
                1 for s in scalers for d in s.decisions
                if d.action != "hold"),
            "faults.retries": report.faults["retries"]
            if report.faults is not None else 0,
            "kv.prefix_hit_rate": report.prefix_hit_rate,
            "kv.preemptions": report.preemptions,
            "telemetry.spans": sum(cluster.tracer.span_counts().values())
            if cluster.tracer is not None else 0,
        })
    counts.update(serving)
    counts.update(compiler)
    return counts


def profile(bench: Bench) -> dict:
    print("READY", flush=True)
    outputs, wall, recorder = traced_pass(bench)
    bench.check(outputs)
    split = layers.layer_split(recorder.arrays(), wall)
    del outputs, recorder
    profiler = cProfile.Profile()
    system = bench.workload.build(bench.inputs)
    profiler.enable()
    outputs = bench.workload.run(system, bench.inputs)
    profiler.disable()
    bench.check(outputs)
    return {"split": split, "modules": module_rollup(profiler)}


def module_rollup(profiler) -> dict:
    """cProfile self time per module, in % of the profiled total.

    Functions outside ``repro`` (builtins, the standard library, numpy)
    hand their self time up to their callers, split by the time each
    caller's calls took, until it reaches a ``repro`` module; what never
    does is reported under its own module name.
    """
    stats = pstats.Stats(profiler).stats
    src = str(HERE.parent / "src") + os.sep

    def module_of(func) -> str:
        filename = func[0]
        if filename.startswith(src):
            return filename[len(src):-len(".py")].replace(os.sep, ".") \
                .removesuffix(".__init__")
        if filename == "~":
            return "builtins"
        return Path(filename).stem

    def is_repro(func) -> bool:
        return func[0].startswith(src)

    totals: dict = {}
    pending = {func: entry[2] for func, entry in stats.items()}
    for _ in range(8):
        handed_up: dict = {}
        for func, seconds in pending.items():
            callers = stats[func][4] if func in stats else {}
            weight = sum(call[3] for call in callers.values())
            if is_repro(func) or not callers or weight <= 0:
                module = module_of(func)
                totals[module] = totals.get(module, 0.0) + seconds
                continue
            for caller, call in callers.items():
                handed_up[caller] = handed_up.get(caller, 0.0) \
                    + seconds * call[3] / weight
        pending = handed_up
    for func, seconds in pending.items():
        totals[module_of(func)] = totals.get(module_of(func), 0.0) + seconds
    grand = sum(totals.values())
    return {module: 100.0 * seconds / grand
            for module, seconds in totals.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", default="measure",
                        choices=("measure", "trace", "profile"))
    args = parser.parse_args()

    bench = Bench(args.workload, args.seed)
    if args.mode == "measure":
        result = measure(bench, args.seconds)
    elif args.mode == "trace":
        result = trace(bench, args.seconds, args.seed)
    else:
        result = profile(bench)
    result.update({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "pinned": bench.golden is not None,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

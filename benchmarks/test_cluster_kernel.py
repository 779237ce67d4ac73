"""Self-benchmark of the discrete-event cluster kernel.

Not a paper artefact — the paper (conf_micro_YeC25) measures
single-request latency only.  This benchmark is the kernel rewrite's own
yardstick: a high-rate trace through a 50-replica fleet, timed end to
end, with the headline ``requests_per_sec`` recorded into
``BENCH_cluster.json`` so the simulator's throughput trajectory is
tracked across PRs like every other serving number.  A capped-size run
of the legacy step loop lands next to it as the reference (and doubles
as an at-scale differential check: both kernels must produce the
identical report on the shared trace).

Sizing: ``REPRO_BENCH_FAST=1`` (CI smoke) runs 10k requests; the default
tier-1 run 50k; ``REPRO_BENCH_FULL=1`` the headline one million requests
x 50 replicas, asserted to finish in seconds-not-minutes territory.  The
workload uses small prompts/outputs and a fat batch so the measured cost
is event dispatch plus engine stepping, not any one router policy.
"""

import gc
import json
import os
import time

import pytest

import serving_artifact
from repro.models.config import GPT2
from repro.serving import SchedulerConfig, Tracer
from repro.serving.cluster import ServingCluster
from repro.serving.workload_gen import diurnal_trace

FAST = os.environ.get("REPRO_BENCH_FAST") == "1"
FULL = os.environ.get("REPRO_BENCH_FULL") == "1"

NUM_REQUESTS = 1_000_000 if FULL else (10_000 if FAST else 50_000)
REPLICAS = 50
# The step loop's O(replicas) rescan per event is exactly what this
# benchmark exists to retire — cap its reference run so the FULL mode
# doesn't spend its budget on the loop being replaced.
STEP_REQUESTS = min(NUM_REQUESTS, 20_000)
# The tracing-overhead comparison reruns the kernel bench twice per arm;
# cap it so FULL mode doesn't spend its budget measuring the tracer.
TRACED_REQUESTS = min(NUM_REQUESTS, 50_000)
# The <10% req/s budget is pinned to the 50k-request bench, where a run
# is ~2s and the tracer's fixed costs amortize.  The FAST smoke shrink
# times a ~0.4s window, where scheduler jitter alone is worth several
# percent, so it guards with a looser ceiling.
TRACING_BUDGET = 0.20 if TRACED_REQUESTS < 50_000 else 0.10
SCHEDULER = SchedulerConfig(max_batch_size=64, token_budget=4096)


def kernel_trace(num_requests):
    return diurnal_trace(num_requests, 2000.0, 8000.0, period_s=60.0,
                         seed=42, input_choices=(16, 32),
                         output_choices=(2, 4))


def timed_run(kernel, trace, tracer=None):
    cluster = ServingCluster(GPT2, initial_replicas=REPLICAS,
                             router="round_robin",
                             scheduler_config=SCHEDULER, kernel=kernel,
                             tracer=tracer)
    # Start every sample from the same collector state: with a heap this
    # size a stray gen-2 pass landing mid-run swings the wall by >10%.
    gc.collect()
    start = time.perf_counter()
    report = cluster.run(trace)
    wall_s = time.perf_counter() - start
    return cluster, report, wall_s


@pytest.fixture(scope="module")
def reference_trace():
    """The capped-size trace both kernels run (differential at scale)."""
    return kernel_trace(STEP_REQUESTS)


@pytest.mark.benchmark(group="cluster")
def test_event_kernel_throughput():
    trace = kernel_trace(NUM_REQUESTS)
    cluster, report, wall_s = timed_run("event", trace)
    requests_per_sec = NUM_REQUESTS / wall_s

    print(f"\n  event kernel: {NUM_REQUESTS:,} requests x {REPLICAS} "
          f"replicas in {wall_s:.2f}s ({requests_per_sec:,.0f} req/s, "
          f"{cluster.events_processed:,} events, "
          f"{cluster._event_queue.stale_dropped:,} stale drops)")
    serving_artifact.record_cluster(
        "cluster_kernel_event", report,
        num_requests_simulated=NUM_REQUESTS,
        replicas=REPLICAS,
        wall_s=wall_s,
        requests_per_sec=requests_per_sec,
        events_processed=cluster.events_processed)

    assert report.completed == NUM_REQUESTS
    assert report.rejected == 0
    if FULL:
        # The tentpole's headline: one million requests across fifty
        # replicas in seconds, not minutes.
        assert wall_s < 120.0, \
            f"1M-request benchmark took {wall_s:.0f}s"


@pytest.mark.benchmark(group="cluster")
def test_traced_kernel_overhead():
    """Request-lifecycle tracing's cost ceiling: the kernel bench rerun
    with a :class:`Tracer` attached must keep >= 90% of the untraced
    req/s at the 50k-request size (:data:`TRACING_BUDGET` relaxes the
    smoke shrink), while the traced report minus its gated ``telemetry``
    section stays byte-identical to the untraced one.  An untimed warm-up pair
    (caches, allocator, CPU frequency) then interleaved best-of-five
    walls per arm, so machine jitter doesn't masquerade as tracer cost."""
    trace = kernel_trace(TRACED_REQUESTS)
    tracer = Tracer()

    timed_run("event", trace)
    timed_run("event", trace, tracer=tracer)
    untraced_wall_s, traced_wall_s = float("inf"), float("inf")
    for _ in range(5):
        _, untraced_report, wall_s = timed_run("event", trace)
        untraced_wall_s = min(untraced_wall_s, wall_s)
        _, traced_report, wall_s = timed_run("event", trace, tracer=tracer)
        traced_wall_s = min(traced_wall_s, wall_s)

    spans_recorded = sum(tracer.span_counts().values())
    traced_rps = TRACED_REQUESTS / traced_wall_s
    untraced_rps = TRACED_REQUESTS / untraced_wall_s
    overhead = traced_wall_s / untraced_wall_s - 1.0
    print(f"\n  untraced: {untraced_wall_s:.2f}s "
          f"({untraced_rps:,.0f} req/s)")
    print(f"  traced:   {traced_wall_s:.2f}s ({traced_rps:,.0f} req/s, "
          f"{spans_recorded:,} spans) -> {overhead * 100:+.1f}% wall")
    serving_artifact.record_cluster(
        "cluster_kernel_traced", traced_report,
        num_requests_simulated=TRACED_REQUESTS,
        replicas=REPLICAS,
        wall_s=traced_wall_s,
        requests_per_sec=traced_rps,
        untraced_requests_per_sec=untraced_rps,
        overhead_pct=overhead * 100,
        spans_recorded=spans_recorded)

    # Tracing must stay observational (same report bytes) and cheap
    # (<10% req/s regression vs. the untraced run).
    traced_payload = traced_report.to_dict()
    traced_payload.pop("telemetry")
    assert json.dumps(traced_payload, sort_keys=True) \
        == json.dumps(untraced_report.to_dict(), sort_keys=True)
    assert traced_rps >= (1.0 - TRACING_BUDGET) * untraced_rps, \
        f"tracing costs {(1.0 - traced_rps / untraced_rps) * 100:.1f}% " \
        f"req/s (>{TRACING_BUDGET * 100:.0f}% budget)"


@pytest.mark.benchmark(group="cluster")
def test_step_loop_reference_and_scale_differential(reference_trace):
    step_cluster, step_report, step_wall_s = timed_run("step",
                                                       reference_trace)
    step_rps = STEP_REQUESTS / step_wall_s
    event_cluster, event_report, event_wall_s = timed_run("event",
                                                          reference_trace)

    print(f"\n  step loop:    {STEP_REQUESTS:,} requests in "
          f"{step_wall_s:.2f}s ({step_rps:,.0f} req/s)")
    print(f"  event kernel: {STEP_REQUESTS:,} requests in "
          f"{event_wall_s:.2f}s "
          f"({STEP_REQUESTS / event_wall_s:,.0f} req/s)")
    serving_artifact.record_cluster(
        "cluster_kernel_step_reference", step_report,
        num_requests_simulated=STEP_REQUESTS,
        replicas=REPLICAS,
        wall_s=step_wall_s,
        requests_per_sec=step_rps)

    # The benchmark doubles as the differential harness at a scale the
    # unit suite never reaches: byte-identical reports, and the event
    # kernel processed exactly as many events as the loop ran iterations.
    assert json.dumps(event_report.to_dict(), sort_keys=True) \
        == json.dumps(step_report.to_dict(), sort_keys=True)
    assert event_cluster.events_processed == step_cluster.iterations

"""Continuous-batching serving engine over the analytical FPGA model.

This is the multi-request counterpart of :class:`~repro.runtime.InferenceSession`:
requests arrive over time (a trace from :mod:`repro.serving.workload_gen`),
are sharded across ``num_devices`` simulated accelerator instances by a
pluggable placement policy, and each device runs an iteration-level
continuous-batching loop — every engine step executes a batch of
prefill/decode slices chosen by the
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, with the step
cost coming from :meth:`FpgaPerformanceModel.engine_step_time_s` (weights
stream once per layer per step, so batching amortises the dominant
weight-streaming cost of decoding).

Every scheduling decision is a policy object (see
:mod:`repro.serving.policies`): *admission order* is configured on the
scheduler (``SchedulerConfig.admission``), *placement* and *preemption* on
the engine.  The defaults — FCFS, round-robin, youngest-first — reproduce
the PR 1/PR 2 engine byte-for-byte.

With a :class:`~repro.serving.kv_manager.KVCacheConfig` the loop is also
memory-pressure-aware: each device owns a block pool sized from the config,
admission and decode growth claim blocks through the scheduler's plan, and
when the pool is exhausted (or crosses the high watermark) the engine
preempts the policy-chosen victim — frees its blocks, requeues it at the
head of the waiting queue, and recomputes its KV on re-admission.  Every
preemption is recorded in the report's blocks-swapped timeline.  With
``enable_prefix_cache`` the pool additionally shares ref-counted blocks
across requests of the same prefix group, and admissions skip prefill for
positions whose KV rows are already cached (the report then carries the
prefix hit rate and shared-block counters).

The per-device loop itself lives in :class:`DeviceWorker`, a *step-driven*
object: ``step()`` advances exactly one engine iteration and returns whether
work remains.  ``ServingEngine`` drives each worker to completion over its
statically placed inbox; the cluster tier
(:mod:`repro.serving.cluster`) instead interleaves worker steps across many
replicas under a global clock, routing arrivals and scaling the fleet
between steps.  The worker also carries the two hooks the cluster needs:
``queue_depth`` (admission backlog, the router/autoscaler load signal) and
``drain()`` (finish everything already submitted, accept nothing new, then
release the KV pool).

Honesty note: the paper (conf_micro_YeC25) evaluates *single-request*
latency/energy and its Section 2 host runtime triggers one request at a
time; everything here — request queues, token-budget scheduling, multi-device
sharding, paged KV management, prefix caching — extrapolates beyond the
paper on top of its performance model.  It answers "what would a vLLM-style
serving tier over these accelerators look like", not "what did the paper
measure".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple, Union

from repro.compiler.pipeline import CompilationResult
from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import ModelConfig
from repro.runtime.session import InferenceSession
from repro.serving.kv_manager import (
    KVBlockManager,
    KVCacheConfig,
    split_kv_stream,
)
from repro.serving.metrics import (
    DeviceStats,
    PreemptionEvent,
    SampleBuffer,
    ServingReport,
    build_report,
)
from repro.serving.policies.placement import (
    DeviceLoad,
    PlacementPolicy,
    resolve_placement_policy,
)
from repro.serving.policies.preemption import (
    PreemptionPolicy,
    resolve_preemption_policy,
)
from repro.serving.request import (
    RequestState,
    ServingRequest,
    requests_from_trace,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, SchedulerConfig
from repro.serving.slo import request_value
from repro.serving.telemetry import (
    SpanKind,
    Tracer,
    build_manifest,
    telemetry_section,
)
from repro.serving.telemetry.tracer import FIRST_FLAG, STALL_FLAG
from repro.serving.workload_gen import TimedRequest

# Lifecycle states the step sets per request, as module globals.
_RUNNING = RequestState.RUNNING
_FINISHED = RequestState.FINISHED

# SpanKind values as plain ints: the tracer hooks sit on the engine's
# hottest loop and an attribute load per span would be measurable.
_SPAN_PREFILL = int(SpanKind.PREFILL_CHUNK)
_SPAN_DECODE = int(SpanKind.DECODE)
_SPAN_BATCH_WAIT = int(SpanKind.BATCH_WAIT)
_SPAN_KV_STALL = int(SpanKind.KV_STALL)
_SPAN_PREFILL_STALLED = _SPAN_PREFILL + STALL_FLAG
_SPAN_DECODE_STALLED = _SPAN_DECODE + STALL_FLAG


@dataclass(frozen=True)
class HandoffEvent:
    """One completed prefill leaving a prefill-only worker.

    Produced by a :class:`DeviceWorker` running with ``prefill_only`` the
    moment a request's last prefill chunk lands (first token emitted, KV
    fully resident): the worker drops the request and its blocks, and the
    cluster moves ``kv_bytes`` of KV state to a decode replica, charging
    the transfer against the configured interconnect bandwidth.
    """

    request: ServingRequest
    time_s: float          # worker clock when the prefill completed
    kv_tokens: int         # resident KV rows travelling with the request
    kv_bytes: float        # their size at the platform's KV quantisation
    # Layer-granular stream split of ``kv_bytes`` when the hand-off is
    # streamed (``kv_stream_chunks > 1``); empty for a monolithic move.
    chunk_bytes: Tuple[float, ...] = ()


class DeviceWorker:
    """One device's continuous-batching loop, advanced one step at a time.

    Owns the waiting/running queues, the per-device scheduler instance and
    (optionally) the KV block manager of a single simulated accelerator.
    ``submit()`` hands it requests in arrival order; each ``step()`` runs one
    engine iteration — admission sweep, watermark hysteresis, plan (with
    preempt-and-replan on KV starvation), execute, record — exactly as the
    monolithic PR 1/PR 2 loop did, so driving a worker to completion is
    byte-for-byte the historical ``ServingEngine`` behaviour.

    The step granularity is what the cluster tier builds on: a
    :class:`~repro.serving.cluster.ServingCluster` interleaves steps across
    replicas in global-clock order, reads ``queue_depth`` for routing and
    autoscaling decisions, and calls ``drain()``/``release_kv()`` to retire
    a replica gracefully.
    """

    def __init__(self, device_id: int, session: InferenceSession,
                 scheduler_config: SchedulerConfig,
                 preemption: PreemptionPolicy,
                 kv_config: Optional[KVCacheConfig] = None,
                 cold_start: bool = False,
                 prefill_only: bool = False,
                 kv_stream_chunks: int = 1,
                 tracer: Optional[Tracer] = None,
                 ) -> None:
        self.device_id = device_id
        self.session = session
        self.kv_config = kv_config
        self.preemption = preemption
        # Span sink; None disables every tracing hook (the default), and
        # all hooks are observational so the report bytes cannot differ.
        self.tracer = tracer
        # Disaggregated prefill role: the worker serves requests only
        # through their prefill phase and hands each one off (KV exported,
        # first token already emitted) the moment its prefill completes.
        self.prefill_only = prefill_only
        # Streamed hand-off: split each export into this many layer-
        # granular chunks (1 = monolithic, the PR 5 behaviour).
        self.kv_stream_chunks = kv_stream_chunks
        self.scheduler = ContinuousBatchingScheduler(scheduler_config)
        self.pending: Deque[ServingRequest] = deque()
        self.waiting: Deque[ServingRequest] = deque()
        self.running: List[ServingRequest] = []
        self.manager: Optional[KVBlockManager] = None
        if kv_config is not None:
            self.manager = kv_config.manager_for(session.kv_bytes_per_token)
        self._prefix_caching = self.manager is not None \
            and self.manager.prefix_cache_enabled

        # Queue/KV timelines accumulate columnar ((device, time, a, b)
        # rows in a grown numpy array); preemptions stay a typed list —
        # they are rare events, not a per-step stream.
        self.queue_samples = SampleBuffer(4)
        self.kv_samples = SampleBuffer(4)
        self.preemption_events: List[PreemptionEvent] = []

        # Every worker starts from a cold device so repeated runs (parameter
        # sweeps, benchmark repetitions) measure the same system.
        session.reset()
        self.packing_s = session.pack_parameters()
        self.clock = self.packing_s if cold_start else 0.0
        self.busy_s = 0.0
        self.steps = 0
        self.tokens = 0
        self.served = 0
        self.preempt_count = 0
        self.prompt_tokens = 0
        self.draining = False
        # (first-token time, TTFT, class TTFT target, class value) per
        # request, in emission order — the rolling-latency feed the
        # cluster autoscaler consumes incrementally instead of rescanning
        # every request per tick.  Unclassed requests carry an infinite
        # target (they can never "miss") and a unit weight.
        self.ttft_samples = SampleBuffer(4)
        # (finish time, TPOT) per completed request — the decode-pool
        # latency feed of the disaggregated autoscaler, same cursor idiom.
        self.tpot_samples = SampleBuffer(2)
        # Hand-off bookkeeping (stays empty unless prefill_only).
        self.handoffs: List[HandoffEvent] = []
        self.handoff_count = 0
        self.migrated_in = 0
        self._kv_counters_snapshot: Optional[dict] = None
        # Sum of SLO-class value weights over requests submitted but not
        # yet finished, rejected or handed off — the load signal the
        # cluster's score-aware router balances.  Class values are small
        # dyadic floats, so the running sum is exact across both kernels.
        self.value_in_system = 0.0
        # Decode stall accounting: seconds a step was stretched because a
        # resident migrated request's KV stream had not fully landed by
        # the step's natural completion (only possible with streamed
        # hand-offs, which admit at the first chunk).
        self.kv_stall_s = 0.0
        self.kv_stall_steps = 0
        # Injected slow-node degradation (fault injection): every executed
        # step's model seconds are multiplied by this factor.  At 1.0 —
        # the default — the multiply is skipped, so a fault-free run is
        # byte-identical to a build without the knob.
        self.step_time_scale = 1.0

    # ------------------------------------------------------------------
    # Cluster-facing hooks
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests submitted but not yet admitted into the batch."""
        return len(self.pending) + len(self.waiting)

    @property
    def num_running(self) -> int:
        """Requests resident in the continuous batch."""
        return len(self.running)

    @property
    def has_work(self) -> bool:
        """Whether anything is pending, waiting or running."""
        return bool(self.pending or self.waiting or self.running)

    @property
    def kv_utilization(self) -> float:
        """Current block-pool occupancy (0.0 without a KV manager)."""
        if self.manager is None:
            return 0.0
        return self.manager.utilization

    @property
    def next_ready_s(self) -> float:
        """Earliest simulated time the next step can start.

        The device's own clock when work is resident (or an already-arrived
        submission is waiting), otherwise the arrival of its earliest
        pending request — the moment an idle device would jump to.
        """
        if self.waiting or self.running:
            return self.clock
        if self.pending:
            return max(self.clock, self.pending[0].enqueue_s)
        return self.clock

    def submit(self, request: ServingRequest) -> None:
        """Queue one request; callers submit in arrival order."""
        if self.draining:
            raise RuntimeError(
                f"device {self.device_id} is draining and accepts no new "
                "requests")
        self.pending.append(request)
        self.value_in_system += request_value(request)

    def drain(self) -> None:
        """Stop accepting new submissions; already-submitted work (queued
        and in-flight) still runs to completion."""
        self.draining = True

    def take_handoffs(self) -> List[HandoffEvent]:
        """Drain the completed-prefill hand-offs accumulated since the last
        call (the cluster collects them after every prefill-replica step)."""
        events, self.handoffs = self.handoffs, []
        return events

    def release_kv(self) -> None:
        """Drop the KV block pool (a drained replica giving back its
        memory).  Only legal once the worker ran dry — releasing under a
        live batch would silently drop all block accounting mid-run.  The
        manager's counters are snapshotted first so the final report still
        carries peak utilization and prefix-cache totals."""
        if self.has_work:
            raise RuntimeError(
                f"device {self.device_id} still has work in flight; "
                "drain it dry before releasing the KV pool")
        if self.manager is not None:
            self._kv_counters_snapshot = self._kv_counters(self.manager)
            self.manager = None
            self._prefix_caching = False

    def crash(self) -> List[ServingRequest]:
        """Kill this worker immediately (fault injection).

        Every in-flight request — pending, waiting and running alike —
        is lost and returned to the caller for re-dispatch; their KV
        blocks are freed and the pool is released like a drained
        replica's (counters snapshotted first, so the report still
        carries peak utilization).  Unlike :meth:`release_kv` this is
        legal under a live batch: losing the in-flight work is the whole
        point of a crash.  The caller owns resetting the lost requests'
        lifecycle state before re-dispatching them."""
        lost: List[ServingRequest] = []
        lost.extend(self.running)
        lost.extend(self.waiting)
        lost.extend(self.pending)
        manager = self.manager
        for request in lost:
            if manager is not None:
                manager.release(request.request_id)
            self.value_in_system -= request_value(request)
        self.running.clear()
        self.waiting.clear()
        self.pending.clear()
        self.draining = True
        self.release_kv()
        return lost

    # ------------------------------------------------------------------
    # The engine iteration
    # ------------------------------------------------------------------
    def _admit_arrivals(self) -> None:
        """Iteration-level admission: arrivals become visible at step
        boundaries (for a migrated request, once its KV transfer landed)."""
        manager = self.manager
        pending = self.pending
        clock = self.clock
        while pending and pending[0].enqueue_s <= clock:
            request = pending.popleft()
            request.device_id = self.device_id
            # A request whose total positions outgrow the whole block pool
            # could never finish even alone on the device; reject it up
            # front or it would preempt-thrash forever.
            if manager is not None and \
                    manager.blocks_for(request.workload.total_tokens) \
                    > manager.num_blocks:
                request.state = RequestState.REJECTED
                self.value_in_system -= request_value(request)
                continue
            try:
                if request.migrated_kv_tokens:
                    # A hand-off: the prompt's KV rows arrived with the
                    # request, so the fresh cursor starts fully resident
                    # and the scheduler plans decode slices immediately.
                    request.active = self.session.start_request(
                        request.migration_workload())
                    request.active.assume_resident(request.migrated_kv_tokens)
                else:
                    request.active = self.session.start_request(
                        request.workload)
            except ValueError:
                request.state = RequestState.REJECTED
                self.value_in_system -= request_value(request)
                continue
            self.waiting.append(request)

    def _preempt_one(self) -> None:
        """Evict the policy-chosen victim to free KV blocks.

        Recompute-style preemption: the victim's blocks are freed instantly
        (shared prefix references released, and the victim detaches from
        the cache — its resume prompt is private), its emitted tokens
        become prompt (see :meth:`ServingRequest.resume_workload`), and it
        rejoins the *head* of the waiting queue.  Under the default
        youngest-first policy that preserves FIFO order by arrival — the
        victim was admitted before everything still waiting; other victim
        policies trade that property for their own protection goal, and a
        non-FCFS admission policy re-orders the queue anyway.
        """
        victim = self.preemption.select_victim(self.running, self.manager,
                                               now=self.clock)
        self.running.remove(victim)
        freed = self.manager.release(victim.request_id)
        self.manager.mark_pressure()
        victim.detach_prefix()
        # A preempted hand-off loses its imported KV with its blocks: the
        # re-admission below recomputes the whole (resume) prompt locally,
        # like any other victim.
        victim.migrated_kv_tokens = 0
        victim.preemptions += 1
        victim.state = RequestState.QUEUED
        victim.active = self.session.start_request(victim.resume_workload())
        self.waiting.appendleft(victim)
        self.preemption_events.append(
            PreemptionEvent(self.device_id, self.clock,
                            victim.request_id, freed))
        self.preempt_count += 1
        if self.tracer is not None:
            self.tracer.preempted(victim.request_id, self.clock,
                                  self.device_id)

    def step(self) -> bool:
        """Advance one engine iteration; returns False once all work is
        done (nothing pending, waiting or running)."""
        while True:
            self._admit_arrivals()
            if self.waiting or self.running:
                break
            if not self.pending:
                return False
            self.clock = max(self.clock, self.pending[0].enqueue_s)

        manager = self.manager
        running = self.running
        waiting = self.waiting
        tracer = self.tracer
        step_start = self.clock

        # Watermark hysteresis: growing strictly past the high mark frees
        # victims down to the low mark, so the pool does not oscillate one
        # block around the trigger point.  Strictly past — admission may
        # fill to exactly the high mark, and evicting what was just
        # admitted within policy would be pure thrash.
        if manager is not None and len(running) > 1 and \
                manager.utilization > self.kv_config.high_watermark:
            manager.mark_pressure()
            while len(running) > 1 and \
                    manager.utilization > self.kv_config.low_watermark:
                self._preempt_one()
        if manager is not None:
            manager.refresh_pressure()

        plan = self.scheduler.plan_step(running, waiting, kv=manager,
                                        now=self.clock)
        # Hard exhaustion: a resident slice did not fit in free blocks.
        # Undo this plan's tentative admissions, preempt a victim and
        # replan until every resident is covered; a lone resident always
        # fits because admission rejected anything whose total positions
        # exceed the pool.  Restore-then-preempt order matters: the
        # victim's appendleft must land last so it resumes before the
        # requests it displaced.
        while manager is not None and plan.starved and len(running) > 1:
            for request in reversed(plan.admitted):
                waiting.appendleft(request)
            self._preempt_one()
            manager.refresh_pressure()
            plan = self.scheduler.plan_step(running, waiting, kv=manager,
                                            now=self.clock)
        assert plan.entries, "scheduler starved with work available"
        assert not plan.starved, \
            "resident KV demand exceeds the whole block pool"

        if manager is not None:
            # Pin every admission's reusable prefix blocks first: pinned
            # blocks are referenced, so the on-demand reclamation a claim
            # may trigger can never evict a block another admission of
            # this same plan is about to reuse.
            admitted_ids = {r.request_id for r in plan.admitted}
            pins = {}
            for request in plan.admitted:
                reuse = plan.prefix.get(request.request_id)
                if reuse is not None:
                    pins[request.request_id] = manager.pin_prefix(request)
                    assert pins[request.request_id] == reuse, \
                        "prefix cache changed between plan and apply"
            for request_id, blocks in plan.claims.items():
                if request_id in admitted_ids:
                    continue
                manager.claim(request_id, blocks)
            for request in plan.admitted:
                claim = plan.claims.get(request.request_id, 0)
                pin = pins.get(request.request_id)
                if pin is not None:
                    claim -= manager.extend_prefix(request)
                    if pin.cached_tokens:
                        request.active.skip_prefix(pin.cached_tokens)
                if request.migrated_kv_tokens:
                    # The admission claim of a hand-off is the imported KV
                    # landing in this pool (rounded up to the blocks the
                    # first decode row needs) — tally it as migration
                    # traffic, not locally computed state.
                    manager.import_kv(request.request_id, claim)
                else:
                    manager.claim(request.request_id, claim)
        admitted = plan.admitted
        clock = self.clock
        for request in admitted:
            request.state = _RUNNING
            if request.admitted_s is None:
                request.admitted_s = clock
            if request.migrated_kv_tokens:
                self.migrated_in += 1
            if self._prefix_caching:
                self.prompt_tokens += request.active.workload.input_len
            running.append(request)
        if tracer is not None and admitted:
            tracer.admitted(admitted, clock, self.device_id)

        # Streamed hand-off deferral: an admitted migrated request whose
        # KV stream has not fully landed by the step's start cannot decode
        # yet — it keeps its batch slot and its imported blocks but sits
        # this step out, so one in-flight stream never blocks the rest of
        # the batch.  Only when *every* planned entry is waiting on its
        # stream does the device truly wait on the interconnect; that wait
        # is charged as a stall (busy time) until the earliest landing.
        # Monolithic hand-offs enqueue at full landing, so their entries
        # are always ready here.  A worker that never admitted a hand-off
        # skips the scan.
        entries = plan.entries
        if self.migrated_in:
            def stream_blocked(request: ServingRequest) -> bool:
                ready = request.migration_ready_s
                return ready is not None \
                    and bool(request.migrated_kv_tokens) \
                    and ready > self.clock

            if any(stream_blocked(request) for request, _ in entries):
                if all(stream_blocked(request) for request, _ in entries):
                    first_ready = min(request.migration_ready_s
                                      for request, _ in entries)
                    stall_s = first_ready - self.clock
                    self.kv_stall_s += stall_s
                    self.kv_stall_steps += 1
                    self.busy_s += stall_s
                    self.clock = first_ready
                entries = [(request, work) for request, work in entries
                           if not stream_blocked(request)]

        exec_start = self.clock
        seconds = self.session.execute_step([work for _, work in entries])
        if self.step_time_scale != 1.0:
            seconds = seconds * self.step_time_scale
        self.clock = clock = exec_start + seconds
        self.busy_s += seconds
        self.steps += 1

        stage = None
        if tracer is not None:
            # One span per resident per step: executed entries get their
            # chunk span (stall-prefixed via STALL_FLAG if the whole
            # batch waited on a KV stream, followed by a FIRST_TOKEN
            # instant via FIRST_FLAG if it emitted the first token)
            # staged inside the record loop below, deferred entries a
            # KV_STALL, scheduler-skipped residents a BATCH_WAIT (emitted
            # here, before the record loop changes `running`).  Together
            # they tile [step_start, clock] for every resident — the
            # partition the latency attribution relies on.  This is the
            # tracing hot path (one row per resident per step), so rows
            # go onto the step-compact staging as (kind, request_id, aux)
            # int triples — the step's times land once in step_meta, and
            # reads expand them vectorized.
            step_list = tracer.step_entries
            staged_before = len(step_list)
            stage = step_list.extend
            if exec_start > step_start:
                kind_prefill = _SPAN_PREFILL_STALLED
                kind_decode = _SPAN_DECODE_STALLED
            else:
                kind_prefill = _SPAN_PREFILL
                kind_decode = _SPAN_DECODE
            if entries is not plan.entries:
                executed = {request.request_id for request, _ in entries}
                for request, _ in plan.entries:
                    if request.request_id not in executed:
                        stage((_SPAN_KV_STALL, request.request_id, 0))
            if len(running) > len(plan.entries):
                planned = {request.request_id
                           for request, _ in plan.entries}
                for request in running:
                    if request.request_id not in planned:
                        stage((_SPAN_BATCH_WAIT, request.request_id, 0))

        # The record loop: per-step invariants hoisted, and requests that
        # finish or hand off leave `running` in one rebuild after it.
        prefix_caching = self._prefix_caching
        prefill_only = self.prefill_only
        first_tokens = 0
        tokens = 0
        leaving = []
        for request, work in entries:
            active = request.active
            emitted = active.record(work)
            first = False
            if emitted:
                tokens += emitted
                request.tokens_emitted += emitted
                if request.first_token_s is None:
                    first = True
                    first_tokens += 1
                    request.first_token_s = clock
                    slo = request.slo_class
                    self.ttft_samples.append(
                        clock, request.ttft_s,
                        slo.ttft_target_s if slo is not None
                        else float("inf"),
                        slo.value if slo is not None else 1.0)
            if stage is not None:
                kind = kind_prefill if work.kind == "prefill" \
                    else kind_decode
                stage((kind + FIRST_FLAG if first else kind,
                       request.request_id, work.tokens))
            if prefix_caching and request.shareable_prefix \
                    and work.kind == "prefill":
                # The positions this chunk streamed are now resident: full
                # blocks within the shared prefix become reusable.
                manager.mark_prefix_computed(
                    request.prefix_group,
                    min(active.prefilled_tokens, request.prefix_len))
            if active.finished:
                request.finish_s = clock
                request.state = _FINISHED
                leaving.append(request)
                self.served += 1
                self.value_in_system -= request_value(request)
                self.tpot_samples.append(clock, request.tpot_s)
                if manager is not None:
                    manager.release(request.request_id)
            elif prefill_only and not active.in_prefill:
                # Disaggregated hand-off: prefill just completed (the
                # emitting chunk above set the first token), so the
                # request leaves this worker with its KV for a decode
                # replica to continue.
                self._hand_off(request)
                leaving.append(request)
        self.tokens += tokens
        if leaving:
            gone = set(leaving)
            running[:] = [request for request in running
                          if request not in gone]

        if stage is not None:
            staged = (len(step_list) - staged_before) // 3
            if staged:
                tracer.step_meta.extend((self.device_id, step_start,
                                         exec_start, clock, staged))
            tracer.flush_batch(first_tokens)

        # Arrivals during the step sit in `pending` until the next
        # admission sweep but are already queued from the requests' point
        # of view — count them, or depth under-reports congestion.
        arrived = sum(1 for request in self.pending
                      if request.enqueue_s <= clock)
        self.queue_samples.append(self.device_id, clock,
                                  len(waiting) + arrived, len(running))
        if manager is not None:
            self.kv_samples.append(self.device_id, clock,
                                   manager.used_blocks, manager.num_blocks)
        return True

    def _hand_off(self, request: ServingRequest) -> None:
        """Retire a completed prefill for migration to a decode replica.

        The request's resident KV (prompt plus the first token's row) is
        exported from this worker's pool and recorded as a
        :class:`HandoffEvent`; the cluster prices the transfer and routes
        the request on.  The request detaches from any prefix group — the
        transfer moves its whole KV, shared rows included, so the decode
        side never rebuilds it from a cache.  The caller takes it out of
        ``running``.
        """
        kv_tokens = request.active.kv_tokens
        kv_bytes = kv_tokens * self.session.kv_bytes_per_token
        num_layers = self.session.config.num_layers
        chunk_bytes: Tuple[float, ...] = ()
        if self.manager is not None:
            export = self.manager.export_kv(
                request.request_id, kv_tokens, kv_bytes=kv_bytes,
                num_layers=num_layers, chunks=self.kv_stream_chunks)
            chunk_bytes = export.chunk_bytes
        elif self.kv_stream_chunks > 1:
            split = split_kv_stream(kv_bytes, num_layers,
                                    self.kv_stream_chunks)
            if len(split) > 1:
                chunk_bytes = split
        request.detach_prefix()
        request.migrated_kv_tokens = kv_tokens
        request.migrations += 1
        request.state = RequestState.QUEUED
        self.handoffs.append(HandoffEvent(
            request=request, time_s=self.clock, kv_tokens=kv_tokens,
            kv_bytes=kv_bytes, chunk_bytes=chunk_bytes))
        self.handoff_count += 1
        self.value_in_system -= request_value(request)

    def run_to_completion(self) -> None:
        """Step until nothing is pending, waiting or running."""
        while self.step():
            pass

    @staticmethod
    def _kv_counters(manager: Optional[KVBlockManager]) -> dict:
        """The manager-owned DeviceStats fields (all 0 without a pool)."""
        return dict(
            kv_blocks_total=manager.num_blocks if manager else 0,
            kv_peak_blocks=manager.peak_used_blocks if manager else 0,
            prefix_tokens_reused=manager.prefix_tokens_reused
            if manager else 0,
            shared_kv_blocks_reused=manager.prefix_blocks_reused
            if manager else 0,
            shared_kv_blocks_created=manager.prefix_blocks_created
            if manager else 0,
            prefix_cow_copies=manager.prefix_cow_copies if manager else 0,
        )

    def device_stats(self) -> DeviceStats:
        """This worker's run folded into the per-device report record."""
        manager_fields = self._kv_counters_snapshot \
            if self._kv_counters_snapshot is not None \
            else self._kv_counters(self.manager)
        return DeviceStats(
            device_id=self.device_id,
            engine_steps=self.steps,
            busy_s=self.busy_s,
            final_clock_s=self.clock,
            tokens_generated=self.tokens,
            requests_served=self.served,
            packing_s=self.packing_s,
            preemptions=self.preempt_count,
            prompt_tokens=self.prompt_tokens,
            **manager_fields,
        )


class ServingEngine:
    """Schedules many concurrent generation requests over N accelerators.

    Args:
        config: The model every device serves.
        num_devices: Simulated accelerator instances; arriving requests are
            sharded across them by the placement policy.
        scheduler_config: Iteration-level scheduling knobs (batch size,
            per-step token budget, chunked prefill, admission policy).
        performance_model: Analytical accelerator model shared by all
            devices.
        compiled: Optional compilation result; as for
            :class:`InferenceSession` it decides the FIFO-sizing strategy.
        max_seq_len: Static shape hint; requests beyond it are rejected at
            arrival rather than crashing the engine.
        cold_start: Charge each device's one-time parameter packing to the
            serving clock (a cold deploy).  Off by default so throughput
            reflects the steady state with packed binaries resident.
        kv_config: Optional per-device KV-cache pool.  ``None`` (the
            default) reproduces the capacity-oblivious PR 1 engine exactly;
            with a config, scheduling is bounded by KV blocks and memory
            pressure is resolved by preemption.
        placement: Placement policy name or instance (``round_robin`` —
            the default, PR 1 behaviour — ``least_loaded``, ``kv_aware``,
            ``score``).
        preemption: Preemption policy name or instance (``youngest`` — the
            default, PR 2 behaviour — ``lowest_priority``, ``largest_kv``,
            ``lowest_score``).
        tracer: Optional request-lifecycle :class:`Tracer`; every hook is
            gated on its presence, so the default ``None`` costs nothing
            and changes nothing.
    """

    def __init__(self, config: ModelConfig,
                 num_devices: int = 1,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 performance_model: Optional[FpgaPerformanceModel] = None,
                 compiled: Optional[CompilationResult] = None,
                 max_seq_len: Optional[int] = None,
                 cold_start: bool = False,
                 kv_config: Optional[KVCacheConfig] = None,
                 placement: Union[str, PlacementPolicy] = "round_robin",
                 preemption: Union[str, PreemptionPolicy] = "youngest",
                 tracer: Optional[Tracer] = None,
                 ) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be at least 1")
        self.config = config
        self.num_devices = num_devices
        self.scheduler_config = scheduler_config or SchedulerConfig()
        self.cold_start = cold_start
        self.kv_config = kv_config
        self.placement = resolve_placement_policy(placement)
        self.preemption = resolve_preemption_policy(preemption)
        self.tracer = tracer
        self.sessions = [
            InferenceSession(config, compiled=compiled,
                             performance_model=performance_model,
                             max_seq_len=max_seq_len)
            for _ in range(num_devices)
        ]
        self._pool_blocks = 0
        if kv_config is not None:
            # Fail fast if the pool cannot hold even one block for this
            # model's KV row size.
            self._pool_blocks = kv_config.manager_for(
                self.sessions[0].kv_bytes_per_token).num_blocks

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self, trace: Sequence[TimedRequest],
            manifest_extra: Optional[dict] = None) -> ServingReport:
        """Serve a whole trace; returns the aggregate report.

        ``manifest_extra`` lands verbatim in the report's run manifest
        (the CLI threads seeds and trace shape through it)."""
        requests = requests_from_trace(trace)
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()

        # Arrival-order placement: the policy sees the same running tally a
        # front-end load balancer would (every arrival counts, including
        # requests later rejected at admission — exactly the information
        # available before admission runs).
        inboxes: List[List[ServingRequest]] = [[] for _ in range(self.num_devices)]
        loads = [DeviceLoad(device_id=i, kv_blocks_total=self._pool_blocks)
                 for i in range(self.num_devices)]
        for request in requests:
            device_id = self.placement.select_device(request, loads)
            if not 0 <= device_id < self.num_devices:
                raise ValueError(
                    f"placement policy {self.placement.name!r} chose device "
                    f"{device_id} of {self.num_devices}")
            inboxes[device_id].append(request)
            load = loads[device_id]
            load.requests += 1
            load.queued_tokens += request.workload.total_tokens
            load.weighted_tokens += (request.workload.total_tokens
                                     * request_value(request))
            if self.kv_config is not None:
                load.kv_blocks += math.ceil(request.workload.total_tokens
                                            / self.kv_config.block_size)

        # Each worker keeps its own sample buffers; concatenating them in
        # device order reproduces the row order of one shared sink, so the
        # report's stable time sort is unchanged.
        devices: List[DeviceStats] = []
        samples = SampleBuffer(4)
        kv_samples = SampleBuffer(4)
        preemptions: List[PreemptionEvent] = []
        for device_id, (session, inbox) in enumerate(zip(self.sessions, inboxes)):
            worker = DeviceWorker(device_id, session, self.scheduler_config,
                                  preemption=self.preemption,
                                  kv_config=self.kv_config,
                                  cold_start=self.cold_start,
                                  tracer=tracer)
            for request in inbox:
                worker.submit(request)
            worker.run_to_completion()
            devices.append(worker.device_stats())
            samples.extend(worker.queue_samples.rows())
            kv_samples.extend(worker.kv_samples.rows())
            preemptions.extend(worker.preemption_events)

        manifest = build_manifest(
            component="engine", model=self.config.name, requests=requests,
            configs={
                "num_devices": self.num_devices,
                "cold_start": self.cold_start,
                "scheduler": self.scheduler_config,
                "kv_cache": self.kv_config,
                "placement": self.placement,
                "preemption": self.preemption,
            },
            extra=manifest_extra)
        return build_report(self.config.name, self.num_devices, requests,
                            devices, samples, kv_samples, preemptions,
                            prefix_cache_enabled=self.kv_config is not None
                            and self.kv_config.enable_prefix_cache,
                            manifest=manifest,
                            telemetry=telemetry_section(tracer)
                            if tracer is not None else None)

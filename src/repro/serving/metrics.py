"""Serving metrics: latency percentiles, throughput, queue/KV timelines.

Single-request evaluation (Tables 4/5) reports latency/TTFT/speed; a serving
engine is judged on distributions — TTFT and TPOT percentiles under load,
aggregate tokens per second, how deep the admission queue grows, and (with a
KV-cache manager) how full the block pool runs and how often memory pressure
forced a preemption.

Hot-path accumulation is columnar: the engine appends its per-step and
per-token samples into preallocated-and-grown numpy arrays
(:class:`SampleBuffer`, which stages a few rows and copies them in
together) and the distribution summaries are computed
vectorized at report time (:meth:`LatencyStats.from_values`), so recording
costs O(1) amortized per sample instead of one python object each — the
difference between ~100-request and million-request traces.  The report
JSON shape is unchanged: :func:`build_report` materializes the buffers
back into the same typed sample dataclasses the report always carried.
The standalone :func:`percentile` stays pure python — it is the
autoscaler's small-window decision arithmetic, not a bulk path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.request import ServingRequest


class SampleBuffer:
    """A growable columnar store of fixed-width float rows.

    The serving tier's hot-path sample sink: ``append`` stages one row
    tuple, and every :data:`STAGE_ROWS` staged rows are copied into a
    preallocated ``float64`` array (doubled when full) in one vectorized
    write.  Every read flushes the staging first, so the whole run's
    samples come back as numpy views (:meth:`rows`, :meth:`column`) for
    vectorized summary.  For the cursor-style readers that predate it (the
    autoscaler's rolling windows, tests poking at worker feeds) it also
    reads like a list of row tuples: ``len()``, truthiness, iteration,
    indexing and slicing all work.
    """

    #: Staged rows that trigger a copy into the array.  Small and fixed:
    #: a staged row keeps its python floats alive until the copy, so a
    #: large stage would hold more memory than the array it feeds.
    STAGE_ROWS = 32

    __slots__ = ("_rows", "_size", "_staged", "_width")

    def __init__(self, columns: int, capacity: int = 256) -> None:
        if columns < 1:
            raise ValueError("a SampleBuffer needs at least one column")
        if capacity < 1:
            raise ValueError("initial capacity must be positive")
        self._rows = np.empty((capacity, columns), dtype=np.float64)
        self._size = 0
        self._staged: List[Tuple[float, ...]] = []
        self._width = columns

    @property
    def columns(self) -> int:
        """Row width."""
        return self._width

    def append(self, *values: float) -> None:
        """Append one row (one positional value per column)."""
        if len(values) != self._width:
            raise ValueError(
                f"row has {len(values)} values, the buffer "
                f"{self._width} columns")
        staged = self._staged
        staged.append(values)
        if len(staged) >= self.STAGE_ROWS:
            self._flush()

    def extend(self, rows: Sequence[Sequence[float]]) -> None:
        """Append a batch of rows at once (the tracer's flush path: one
        vectorized copy instead of a python loop of appends)."""
        self._flush()
        self._extend(rows)

    def _flush(self) -> None:
        staged = self._staged
        if staged:
            self._extend(staged)
            staged.clear()

    def _extend(self, rows: Sequence[Sequence[float]]) -> None:
        count = len(rows)
        if count == 0:
            return
        store = self._rows
        width = self._width
        needed = self._size + count
        if needed > store.shape[0]:
            capacity = store.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, width), dtype=np.float64)
            grown[:self._size] = store[:self._size]
            self._rows = store = grown
        if isinstance(rows, np.ndarray):
            store[self._size:needed] = rows
        else:
            # ~40% faster than numpy's list-of-tuples coercion on the
            # tracer's flush batches; raises like the slice-assign would
            # on ragged rows (fromiter demands exactly count*width items).
            store[self._size:needed] = np.fromiter(
                chain.from_iterable(rows), dtype=np.float64,
                count=count * width).reshape(count, width)
        self._size = needed

    def rows(self) -> np.ndarray:
        """The filled rows as an ``(n, columns)`` view — no copy."""
        self._flush()
        return self._rows[:self._size]

    def column(self, index: int) -> np.ndarray:
        """One column over the filled rows — no copy."""
        self._flush()
        return self._rows[:self._size, index]

    def __len__(self) -> int:
        return self._size + len(self._staged)

    def __iter__(self) -> Iterator[Tuple[float, ...]]:
        self._flush()
        rows = self._rows
        for i in range(self._size):
            yield tuple(rows[i])

    def __getitem__(self, index) -> Union[Tuple[float, ...],
                                          List[Tuple[float, ...]]]:
        """List-of-tuples compatibility: an int yields one row tuple, a
        slice a list of them."""
        if isinstance(index, slice):
            return [tuple(row) for row in self.rows()[index]]
        return tuple(self.rows()[index])


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (pct in [0, 100]) of a sample.

    Raises:
        ValueError: on an empty sample (there is no meaningful percentile of
            nothing — callers with possibly-empty samples should guard, as
            :meth:`LatencyStats.from_values` does) or a ``pct`` outside
            [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample is undefined")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of one latency metric, in seconds.

    ``count`` is the sample size; an all-zero summary with ``count == 0`` is
    the explicit empty sentinel (e.g. a trace where nothing finished), never
    a silently-misleading measurement.
    """

    mean: float
    p50: float
    p95: float
    p99: float
    max: float
    count: int

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The sentinel for "no samples" — all zeros, count 0."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, count=0)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        """Summarise a latency sample; the empty sentinel on no values.

        Vectorized: one sort, then every percentile by the same
        linear-interpolation rule as :func:`percentile` — so report-time
        summary of a million-sample run costs one numpy pass, not four
        python sorts."""
        ordered = np.sort(np.asarray(values, dtype=np.float64))
        n = ordered.size
        if n == 0:
            return cls.empty()

        def interpolate(pct: float) -> float:
            rank = (pct / 100.0) * (n - 1)
            low = int(rank)
            high = min(low + 1, n - 1)
            fraction = rank - low
            return float(ordered[low] * (1.0 - fraction)
                         + ordered[high] * fraction)

        return cls(
            mean=float(ordered.mean()),
            p50=interpolate(50.0),
            p95=interpolate(95.0),
            p99=interpolate(99.0),
            max=float(ordered[-1]),
            count=int(n),
        )

    @property
    def is_empty(self) -> bool:
        """Whether this is the no-samples sentinel."""
        return self.count == 0

    def to_ms_dict(self) -> dict:
        """JSON-ready summary in milliseconds — the one definition of the
        latency-dict schema, shared by engine and cluster reports."""
        return {"mean": self.mean * 1e3, "p50": self.p50 * 1e3,
                "p95": self.p95 * 1e3, "p99": self.p99 * 1e3,
                "max": self.max * 1e3, "count": self.count}

    def format_ms(self) -> str:
        """One-line human-readable summary in milliseconds."""
        if self.is_empty:
            return "no samples"
        return (f"mean {self.mean * 1e3:8.1f}  p50 {self.p50 * 1e3:8.1f}  "
                f"p95 {self.p95 * 1e3:8.1f}  p99 {self.p99 * 1e3:8.1f}  "
                f"max {self.max * 1e3:8.1f}")


@dataclass(frozen=True)
class QueueSample:
    """Queue state of one device right after an engine step."""

    device_id: int
    time_s: float
    queued: int       # arrived but not yet admitted
    running: int      # resident in the continuous batch


@dataclass(frozen=True)
class KVSample:
    """KV-block occupancy of one device right after an engine step."""

    device_id: int
    time_s: float
    used_blocks: int
    total_blocks: int

    @property
    def utilization(self) -> float:
        """Block-pool occupancy fraction at this sample (0.0 if unsized)."""
        if self.total_blocks <= 0:
            return 0.0
        return self.used_blocks / self.total_blocks


@dataclass(frozen=True)
class PreemptionEvent:
    """One memory-pressure preemption: the blocks-swapped timeline entry."""

    device_id: int
    time_s: float
    request_id: int
    blocks_freed: int


@dataclass(frozen=True)
class DeviceStats:
    """Per-device accounting over the whole run."""

    device_id: int
    engine_steps: int
    busy_s: float
    final_clock_s: float
    tokens_generated: int
    requests_served: int
    packing_s: float
    preemptions: int = 0
    kv_blocks_total: int = 0   # 0 when the device runs without a KV manager
    kv_peak_blocks: int = 0
    # Prefix-cache accounting (all 0 unless enable_prefix_cache ran).
    prompt_tokens: int = 0            # prompt tokens across admissions
    prefix_tokens_reused: int = 0     # of those, served from shared blocks
    shared_kv_blocks_reused: int = 0
    shared_kv_blocks_created: int = 0
    prefix_cow_copies: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of the device's clock spent executing steps."""
        if self.final_clock_s <= 0:
            return 0.0
        return self.busy_s / self.final_clock_s

    @property
    def peak_kv_utilization(self) -> float:
        """Highest block-pool occupancy the device reached (0 unmanaged)."""
        if self.kv_blocks_total <= 0:
            return 0.0
        return self.kv_peak_blocks / self.kv_blocks_total


@dataclass
class ServingReport:
    """Aggregate outcome of one serving-engine run."""

    model: str
    num_devices: int
    num_requests: int
    completed: int
    rejected: int
    total_output_tokens: int
    makespan_s: float
    ttft: LatencyStats
    tpot: LatencyStats
    e2e_latency: LatencyStats
    queue_wait: LatencyStats
    devices: List[DeviceStats] = field(default_factory=list)
    queue_samples: List[QueueSample] = field(default_factory=list)
    kv_samples: List[KVSample] = field(default_factory=list)
    preemption_events: List[PreemptionEvent] = field(default_factory=list)
    prefix_cache_enabled: bool = False
    # The run manifest (config snapshot + workload fingerprint); attached
    # by top-level runs only, never by cluster replica sub-reports.
    manifest: Optional[dict] = None
    # Gated telemetry section (span counts + metrics); tracer runs only.
    telemetry: Optional[dict] = None

    @property
    def aggregate_tokens_per_s(self) -> float:
        """Output tokens per wall-clock second across all devices."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s

    @property
    def peak_queue_depth(self) -> int:
        """Deepest post-step admission backlog any device sampled."""
        return max((sample.queued for sample in self.queue_samples), default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Mean post-step admission backlog over the sampled timeline."""
        if not self.queue_samples:
            return 0.0
        return sum(sample.queued for sample in self.queue_samples) \
            / len(self.queue_samples)

    # ------------------------------------------------------------------
    # KV-cache memory metrics (zero/empty without a KV manager)
    # ------------------------------------------------------------------
    @property
    def preemptions(self) -> int:
        """Memory-pressure preemptions across all devices."""
        return sum(device.preemptions for device in self.devices)

    @property
    def peak_kv_utilization(self) -> float:
        """Highest block-pool occupancy any device reached, claim-time
        accurate (a claim released within the same step still counts)."""
        return max((d.peak_kv_utilization for d in self.devices), default=0.0)

    @property
    def mean_kv_utilization(self) -> float:
        """Mean post-step block-pool occupancy over the sampled timeline."""
        if not self.kv_samples:
            return 0.0
        return sum(sample.utilization for sample in self.kv_samples) \
            / len(self.kv_samples)

    # ------------------------------------------------------------------
    # Prefix-cache metrics (zero unless enable_prefix_cache ran)
    # ------------------------------------------------------------------
    @property
    def prefix_tokens_reused(self) -> int:
        """Prompt tokens served from shared prefix blocks, fleet-wide."""
        return sum(d.prefix_tokens_reused for d in self.devices)

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of admitted prompt tokens served from shared prefix
        blocks instead of being prefilled."""
        total = sum(d.prompt_tokens for d in self.devices)
        if total <= 0:
            return 0.0
        return self.prefix_tokens_reused / total

    @property
    def shared_kv_blocks_reused(self) -> int:
        """Shared prefix-block references taken without allocation."""
        return sum(d.shared_kv_blocks_reused for d in self.devices)

    @property
    def shared_kv_blocks_created(self) -> int:
        """Shared prefix blocks allocated by group-leading prefills."""
        return sum(d.shared_kv_blocks_created for d in self.devices)

    @property
    def prefix_cow_copies(self) -> int:
        """Reuses that diverged mid-block (private copy of a partial tail)."""
        return sum(d.prefix_cow_copies for d in self.devices)

    def to_dict(self) -> dict:
        """JSON-ready summary (latencies in milliseconds)."""
        stats_ms = LatencyStats.to_ms_dict

        payload = {
            "model": self.model,
            "num_devices": self.num_devices,
            "num_requests": self.num_requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "total_output_tokens": self.total_output_tokens,
            "makespan_s": self.makespan_s,
            "aggregate_tokens_per_s": self.aggregate_tokens_per_s,
            "peak_queue_depth": self.peak_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
            "preemptions": self.preemptions,
            "peak_kv_utilization": self.peak_kv_utilization,
            "mean_kv_utilization": self.mean_kv_utilization,
            "preemption_events": [
                {"device_id": e.device_id, "time_s": e.time_s,
                 "request_id": e.request_id, "blocks_freed": e.blocks_freed}
                for e in self.preemption_events
            ],
            "ttft_ms": stats_ms(self.ttft),
            "tpot_ms": stats_ms(self.tpot),
            "e2e_latency_ms": stats_ms(self.e2e_latency),
            "queue_wait_ms": stats_ms(self.queue_wait),
            "devices": [
                {"device_id": d.device_id, "engine_steps": d.engine_steps,
                 "busy_s": d.busy_s, "tokens_generated": d.tokens_generated,
                 "requests_served": d.requests_served,
                 "utilization": d.utilization,
                 "preemptions": d.preemptions,
                 "kv_blocks_total": d.kv_blocks_total,
                 "kv_peak_blocks": d.kv_peak_blocks}
                for d in self.devices
            ],
        }
        if self.prefix_cache_enabled:
            # Keys only appear when the feature ran, so default-policy
            # reports stay byte-identical to the PR 1/PR 2 payloads.
            payload["prefix_cache"] = {
                "hit_rate": self.prefix_hit_rate,
                "prompt_tokens": sum(d.prompt_tokens for d in self.devices),
                "tokens_reused": self.prefix_tokens_reused,
                "shared_blocks_created": self.shared_kv_blocks_created,
                "shared_blocks_reused": self.shared_kv_blocks_reused,
                "cow_copies": self.prefix_cow_copies,
            }
        if self.manifest is not None:
            payload["manifest"] = self.manifest
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload

    def format(self) -> str:
        """Human-readable multi-line summary of the run."""
        lines = [
            f"serving report: {self.model} on {self.num_devices} device(s)",
            f"  requests:      {self.completed}/{self.num_requests} completed"
            + (f", {self.rejected} rejected" if self.rejected else ""),
            f"  output tokens: {self.total_output_tokens} over "
            f"{self.makespan_s:.2f} s -> "
            f"{self.aggregate_tokens_per_s:.1f} tok/s aggregate",
            f"  queue depth:   peak {self.peak_queue_depth}, "
            f"mean {self.mean_queue_depth:.1f}",
        ]
        if any(d.kv_blocks_total for d in self.devices):
            blocks = max(d.kv_blocks_total for d in self.devices)
            lines.append(
                f"  kv cache:      {blocks} blocks/device, "
                f"peak util {self.peak_kv_utilization * 100:.0f}%, "
                f"mean util {self.mean_kv_utilization * 100:.0f}%, "
                f"{self.preemptions} preemption(s)")
        if self.prefix_cache_enabled:
            lines.append(
                f"  prefix cache:  hit rate "
                f"{self.prefix_hit_rate * 100:.0f}% "
                f"({self.prefix_tokens_reused} prompt tokens skipped), "
                f"{self.shared_kv_blocks_reused} block reuse(s), "
                f"{self.shared_kv_blocks_created} shared block(s) created")
        lines += [
            "  latency (ms):",
            f"    ttft        {self.ttft.format_ms()}",
            f"    tpot        {self.tpot.format_ms()}",
            f"    e2e         {self.e2e_latency.format_ms()}",
            f"    queue wait  {self.queue_wait.format_ms()}",
        ]
        for device in self.devices:
            line = (f"  device {device.device_id}: {device.engine_steps} steps, "
                    f"{device.tokens_generated} tokens, "
                    f"{device.requests_served} requests, "
                    f"utilization {device.utilization * 100:.0f}%")
            if device.kv_blocks_total:
                line += (f", kv peak {device.kv_peak_blocks}"
                         f"/{device.kv_blocks_total} blocks, "
                         f"{device.preemptions} preemption(s)")
            lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True)
class RequestFold:
    """Per-request timestamps folded into aggregate statistics — the one
    definition of completed/rejected counting, makespan, and the four
    latency distributions, shared by the engine report and the cluster
    report (which recomputes them over the whole fleet's requests so its
    percentiles are exact, never averaged across replicas)."""

    finished: List[ServingRequest]
    rejected: List[ServingRequest]
    makespan_s: float
    ttft: LatencyStats
    tpot: LatencyStats
    e2e_latency: LatencyStats
    queue_wait: LatencyStats
    # Requests lost to a crash with retries exhausted (fault injection;
    # always empty on a fault-free run, so the field is additive).
    failed: List[ServingRequest] = field(default_factory=list)

    @property
    def total_output_tokens(self) -> int:
        """Tokens emitted by finished requests (the throughput numerator)."""
        return sum(r.tokens_emitted for r in self.finished)


def fold_requests(requests: Sequence[ServingRequest]) -> RequestFold:
    """Fold per-request timestamps into a :class:`RequestFold` summary."""
    from repro.serving.request import RequestState

    finished = [r for r in requests if r.state is RequestState.FINISHED]
    rejected = [r for r in requests if r.state is RequestState.REJECTED]
    failed = [r for r in requests if r.state is RequestState.FAILED]
    if finished:
        makespan = max(r.finish_s for r in finished) \
            - min(r.arrival_s for r in finished)
    else:
        makespan = 0.0
    return RequestFold(
        finished=finished,
        rejected=rejected,
        failed=failed,
        makespan_s=makespan,
        ttft=LatencyStats.from_values([r.ttft_s for r in finished]),
        tpot=LatencyStats.from_values(
            [r.tpot_s for r in finished if r.workload.output_len > 1]),
        e2e_latency=LatencyStats.from_values(
            [r.e2e_latency_s for r in finished]),
        queue_wait=LatencyStats.from_values(
            [r.queue_wait_s for r in finished]),
    )


def _materialize(samples: Union[Sequence, SampleBuffer, None],
                 factory) -> list:
    """Samples as a time-sorted list of typed dataclasses, whether they
    arrive as such a list already or as a columnar :class:`SampleBuffer`
    (``factory`` builds one dataclass per buffer row).  Sorting is stable
    either way, so same-time samples keep recording order and the report
    stays byte-identical to the list-accumulation era."""
    if isinstance(samples, SampleBuffer):
        rows = samples.rows()
        order = np.argsort(rows[:, 1], kind="stable")
        return [factory(rows[i]) for i in order]
    return sorted(samples or [], key=lambda s: s.time_s)


def _queue_sample(row: np.ndarray) -> QueueSample:
    return QueueSample(device_id=int(row[0]), time_s=float(row[1]),
                       queued=int(row[2]), running=int(row[3]))


def _kv_sample(row: np.ndarray) -> KVSample:
    return KVSample(device_id=int(row[0]), time_s=float(row[1]),
                    used_blocks=int(row[2]), total_blocks=int(row[3]))


def build_report(model: str, num_devices: int,
                 requests: Sequence[ServingRequest],
                 devices: List[DeviceStats],
                 queue_samples: Union[List[QueueSample], SampleBuffer],
                 kv_samples: Union[List[KVSample], SampleBuffer, None] = None,
                 preemption_events: Optional[List[PreemptionEvent]] = None,
                 prefix_cache_enabled: bool = False,
                 manifest: Optional[dict] = None,
                 telemetry: Optional[dict] = None,
                 ) -> ServingReport:
    """Fold per-request timestamps into the aggregate report.

    ``queue_samples``/``kv_samples`` may be the engine's columnar
    :class:`SampleBuffer` sinks (the hot-path form) or plain lists of the
    typed samples; the report always carries the typed lists."""
    fold = fold_requests(requests)
    return ServingReport(
        model=model,
        num_devices=num_devices,
        num_requests=len(requests),
        completed=len(fold.finished),
        rejected=len(fold.rejected),
        total_output_tokens=fold.total_output_tokens,
        makespan_s=fold.makespan_s,
        ttft=fold.ttft,
        tpot=fold.tpot,
        e2e_latency=fold.e2e_latency,
        queue_wait=fold.queue_wait,
        devices=devices,
        queue_samples=_materialize(queue_samples, _queue_sample),
        kv_samples=_materialize(kv_samples, _kv_sample),
        preemption_events=sorted(preemption_events or [],
                                 key=lambda e: e.time_s),
        prefix_cache_enabled=prefix_cache_enabled,
        manifest=manifest,
        telemetry=telemetry,
    )

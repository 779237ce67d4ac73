"""Host-runtime inference session.

The generated accelerator executes one transformer block; everything else —
parameter packing, per-layer invocation with the right weight pointers, KV
cache management, sampling loop — is the host runtime's job (Section 2 and
the ``Runtime Codegen`` stage of Figure 4).  :class:`InferenceSession`
simulates that runtime against the analytical performance model: it walks an
autoregressive generation request layer by layer and token by token,
accounting for prefill, per-step decode time, KV-cache growth and the
one-time parameter packing cost, and returns a per-token timeline.

This is the piece a downstream user would call to ask "what would serving
this model on the generated accelerator look like?" without owning an FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.compiler.pipeline import CompilationResult
from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import ModelConfig
from repro.models.workload import Workload
from repro.resource.token_model import EqualizationStrategy


@dataclass(frozen=True)
class StepRecord:
    """Timing of one step of :meth:`InferenceSession.generate`."""

    index: int
    kind: str          # "prefill" or "decode"
    tokens: int        # tokens processed in this step
    kv_len: int        # KV-cache length visible to attention
    seconds: float
    kernel_invocations: int


class StepWork(NamedTuple):
    """One request's contribution to a single engine step.

    A decode slice is ``(kind="decode", tokens=1)``; a prefill slice covers
    ``tokens`` prompt positions (possibly a chunk of a longer prompt when a
    scheduler enforces a per-step token budget).  ``kv_len`` is the KV-cache
    length attention sees once this slice completes.  ``emits`` is whether
    the slice produces an output token — true for decode and for the final
    prefill chunk, false for mid-prompt chunks, which therefore skip the
    LM head in the step cost.

    A named tuple, not a dataclass: the serving tier plans one per
    resident per step, and a tuple is cheaper to build and to unpack.
    Being immutable, one decode slice per ``kv_len`` is shared by every
    cursor (see :meth:`ActiveRequest.next_work`).
    """

    kind: str          # "prefill" or "decode"
    tokens: int
    kv_len: int
    emits: bool = True

    @property
    def kv_tokens_after(self) -> int:
        """KV rows resident once this slice (and its emitted token) land.

        A decode slice attends over ``kv_len`` rows and appends the row of
        the token it emits; an emitting (final) prefill chunk likewise adds
        the first output token's row.  Mid-prompt chunks only hold the
        positions prefilled so far.  Over a request's lifetime this peaks at
        ``workload.total_tokens`` — the figure KV capacity must cover.
        """
        return self.kv_len + (1 if self.emits else 0)


# Decode slices interned by kv_len: every decode slice at one KV length is
# the same immutable value, so the cursors hand out one shared tuple
# instead of building a fresh one per resident per step (a lookup costs
# about a tenth of building the tuple).  A pure cache: it holds one entry
# per KV length any request has reached.
_DECODE_WORK: Dict[int, StepWork] = {}


class ActiveRequest:
    """Step-granular cursor over one generation request.

    Created by :meth:`InferenceSession.start_request`.  A scheduler asks
    :meth:`next_work` what the request needs next, folds that slice into an
    engine step (possibly alongside slices of other requests), and calls
    :meth:`record` once the step completes.  The cursor keeps only its
    position in the request — no per-step history — so a long-running
    serving simulation holds O(1) state per resident request.
    """

    __slots__ = ("workload", "_input_len", "_output_len", "_prefilled",
                 "_generated", "prefix_cached_tokens")

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._input_len = workload.input_len
        self._output_len = workload.output_len
        self._prefilled = 0
        self._generated = 0
        self.prefix_cached_tokens = 0

    @property
    def tokens_generated(self) -> int:
        return self._generated

    @property
    def prefilled_tokens(self) -> int:
        """Prompt positions whose KV rows are resident (computed by this
        request or served from a shared prefix cache)."""
        return self._prefilled

    @property
    def kv_tokens(self) -> int:
        """KV rows this request currently holds (prompt prefilled so far
        plus every generated token)."""
        return self._prefilled + self._generated

    @property
    def in_prefill(self) -> bool:
        return self._prefilled < self._input_len

    @property
    def finished(self) -> bool:
        return self._generated >= self._output_len

    def skip_prefix(self, tokens: int) -> int:
        """Mark the first ``tokens`` prompt positions as already resident.

        The prefix-caching path calls this right after admission, before any
        work is recorded: the skipped positions' KV rows live in shared
        cache blocks, so prefill starts past them (the host runtime only
        streams the uncached suffix through the accelerator).  At least the
        final prompt position is always computed — its hidden state feeds
        the first output token — so the skip is capped at ``input_len - 1``.
        Returns the positions actually skipped.
        """
        if self._prefilled or self._generated:
            raise RuntimeError(
                f"request {self.workload.label} already started; a prefix "
                "skip is only valid before the first recorded slice")
        if tokens < 0:
            raise ValueError("cannot skip a negative prefix")
        skipped = min(tokens, self.workload.input_len - 1)
        self._prefilled = skipped
        self.prefix_cached_tokens = skipped
        return skipped

    def assume_resident(self, tokens: int) -> int:
        """Mark the first ``tokens`` prompt positions as already resident
        without computing them — KV rows that arrived from *outside* this
        device (a disaggregated prefill replica's hand-off, imported over
        the interconnect) rather than from a local cache.

        Unlike :meth:`skip_prefix` the whole prompt may be covered: the
        sending replica already computed the final prompt position's hidden
        state and emitted the first token, so a fully-resident cursor goes
        straight to decode.  Only valid on a fresh cursor, before any slice
        is recorded.  Returns the positions marked resident.
        """
        if self._prefilled or self._generated:
            raise RuntimeError(
                f"request {self.workload.label} already started; imported "
                "KV is only valid before the first recorded slice")
        if tokens < 0:
            raise ValueError("cannot import a negative KV prefix")
        resident = min(tokens, self.workload.input_len)
        self._prefilled = resident
        return resident

    def next_work(self, token_budget: Optional[int] = None,
                  assume_prefilled: Optional[int] = None) -> StepWork:
        """The slice this request needs in the next engine step.

        Args:
            token_budget: Optional cap on prompt tokens for this step; a
                prompt longer than the budget is prefilled in chunks across
                several steps (decode always needs exactly one token).
            assume_prefilled: Plan the slice as if this many prompt
                positions were already resident (capped at ``input_len - 1``,
                like :meth:`skip_prefix`).  A pure what-if for schedulers
                sizing an admission slice against prefix-cache reuse —
                nothing is mutated; the engine applies the actual skip via
                :meth:`skip_prefix` when it admits the request.
        """
        generated = self._generated
        if generated >= self._output_len:
            raise RuntimeError(f"request {self.workload.label} already finished")
        input_len = self._input_len
        prefilled = self._prefilled
        if assume_prefilled is not None:
            prefilled = max(prefilled, min(assume_prefilled, input_len - 1))
        if prefilled < input_len:
            remaining = input_len - prefilled
            chunk = remaining if token_budget is None \
                else max(1, min(remaining, token_budget))
            return StepWork("prefill", chunk, prefilled + chunk,
                            chunk == remaining)
        kv_len = input_len + generated
        work = _DECODE_WORK.get(kv_len)
        if work is None:
            work = _DECODE_WORK[kv_len] = StepWork("decode", 1, kv_len)
        return work

    def record(self, work: StepWork) -> int:
        """Account one completed slice; returns tokens emitted (0 or 1).

        The first output token is emitted when the last prefill chunk
        completes; every decode slice emits one more.
        """
        if work.kind == "prefill":
            self._prefilled += work.tokens
            if self._prefilled >= self._input_len:  # == not in_prefill
                self._generated = 1
                return 1
            return 0
        self._generated += 1
        return 1


def resident_in_prefill(resident) -> bool:
    """Whether ``resident.active`` is still prefilling: the
    :attr:`ActiveRequest.in_prefill` property as a plain function, which
    the scheduler sorts its residents by once per step."""
    active = resident.active
    return active._prefilled < active._input_len


@dataclass
class GenerationResult:
    """Outcome of one simulated generation request."""

    workload: Workload
    steps: List[StepRecord] = field(default_factory=list)
    packing_seconds: float = 0.0
    kv_cache_bytes: float = 0.0

    @property
    def ttft_s(self) -> float:
        return self.steps[0].seconds if self.steps else 0.0

    @property
    def decode_seconds(self) -> float:
        return sum(step.seconds for step in self.steps if step.kind == "decode")

    @property
    def total_seconds(self) -> float:
        return sum(step.seconds for step in self.steps)

    @property
    def decode_tokens_per_second(self) -> float:
        decode_steps = [s for s in self.steps if s.kind == "decode"]
        if not decode_steps:
            return 0.0
        return len(decode_steps) / sum(s.seconds for s in decode_steps)

    @property
    def total_kernel_invocations(self) -> int:
        return sum(step.kernel_invocations for step in self.steps)

    def per_token_latencies_ms(self) -> List[float]:
        return [step.seconds * 1e3 for step in self.steps]


class InferenceSession:
    """Simulates serving an LLM on a compiled StreamTensor accelerator.

    Args:
        config: The model configuration.
        compiled: The compilation result of one transformer block; its fused
            intermediate-memory footprint decides the FIFO-sizing strategy
            (the Llama effect of Figure 9).  ``None`` assumes the Normal
            strategy.
        performance_model: Analytical accelerator performance model.
        max_seq_len: Shape hint bounding the KV cache (Section 5.3.5's
            dynamic-tensor-shape handling); requests beyond it are rejected.
    """

    def __init__(self, config: ModelConfig,
                 compiled: Optional[CompilationResult] = None,
                 performance_model: Optional[FpgaPerformanceModel] = None,
                 max_seq_len: Optional[int] = None) -> None:
        self.config = config
        self.compiled = compiled
        self.model = performance_model or FpgaPerformanceModel()
        self.max_seq_len = max_seq_len or config.max_seq_len
        self._parameters_packed = False

        if compiled is not None:
            intermediate = compiled.report.intermediate_bytes_fused
            self.strategy = self.model.equalization_for(intermediate)
        else:
            self.strategy = EqualizationStrategy.NORMAL

    @property
    def kv_bytes_per_token(self) -> float:
        """Device bytes one KV row (all layers, K and V) occupies.

        The host runtime owns KV allocation (Section 2); this is the per-
        token footprint a capacity-aware scheduler budgets against, at the
        platform's activation quantisation.
        """
        bytes_per_element = self.model.platform.quantization.activation_bits / 8.0
        return self.config.kv_cache_bytes_per_token(bytes_per_element)

    def request_kv_bytes(self, active: ActiveRequest) -> float:
        """Device bytes the request's KV cache occupies right now."""
        return active.kv_tokens * self.kv_bytes_per_token

    # ------------------------------------------------------------------
    # Parameter packing (one-time, offline for static tensors)
    # ------------------------------------------------------------------
    def pack_parameters(self) -> float:
        """Pack model parameters into the tiled+widened device layout.

        Returns the packing time in seconds; subsequent calls are free (the
        packed binaries are reused), mirroring Section 4.2's static-tensor
        fusion of pack/widen.
        """
        if self._parameters_packed:
            return 0.0
        self._parameters_packed = True
        weight_bytes = (self.config.total_params()
                        * self.model.platform.quantization.weight_bits / 8.0)
        pack_rate_bytes_per_second = 1.2e9
        return 5.0 + weight_bytes / pack_rate_bytes_per_second

    def reset(self) -> None:
        """Forget the packed parameter binaries.

        The next :meth:`pack_parameters` (or the next :meth:`generate`) pays
        the one-time packing cost again — use this to model a cold start,
        e.g. after rebuilding the accelerator for a different design point.
        """
        self._parameters_packed = False

    # ------------------------------------------------------------------
    # Step-granular API (drives continuous batching in repro.serving)
    # ------------------------------------------------------------------
    def start_request(self, workload: Workload) -> ActiveRequest:
        """Open a step-granular cursor for one request.

        Raises:
            ValueError: if the request exceeds the session's maximum sequence
                length (the static shape hint the accelerator was built for).
        """
        if workload.total_tokens > self.max_seq_len:
            raise ValueError(
                f"request needs {workload.total_tokens} positions but the "
                f"accelerator was built for max_seq_len={self.max_seq_len}"
            )
        return ActiveRequest(workload)

    def execute_step(self, works: Sequence[StepWork]) -> float:
        """Simulate one engine step over a batch of request slices.

        The fused block streams each layer's weights once per invocation no
        matter how many requests share the step, so batching amortises the
        weight-streaming cost that dominates single-token decoding (see
        :meth:`FpgaPerformanceModel.engine_step_time_s`).  Returns the step's
        wall-clock seconds; an empty batch is free.
        """
        max_seq_len = self.max_seq_len
        batch = []
        emitting = 0
        # One pass: validate, build the (tokens, kv_len) batch and count
        # the slices that emit a token.
        for _kind, tokens, kv_len, emits in works:
            if kv_len > max_seq_len:
                raise ValueError(
                    f"step needs kv_len={kv_len} but the accelerator "
                    f"was built for max_seq_len={max_seq_len}"
                )
            batch.append((tokens, kv_len))
            if emits:
                emitting += 1
        return self.model.engine_step_time_s(self.config, batch,
                                             self.strategy, emitting=emitting)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(self, workload: Workload) -> GenerationResult:
        """Simulate one [input:output] request, one step at a time.

        ``packing_seconds`` of the returned result is the one-time parameter
        packing cost, charged to whichever request triggers it: it is
        non-zero only for the first request after the session is created (or
        :meth:`reset`), and exactly 0.0 for every later request because the
        packed binaries are reused.

        Raises:
            ValueError: if the request exceeds the session's maximum sequence
                length (the static shape hint the accelerator was built for).
        """
        active = self.start_request(workload)
        result = GenerationResult(workload=workload)
        result.packing_seconds = self.pack_parameters()

        # Whole-prompt prefill, then one decode step per generated token
        # against the growing KV cache — each a singleton engine step.
        while not active.finished:
            work = active.next_work()
            seconds = self.execute_step([work])
            active.record(work)
            result.steps.append(StepRecord(
                index=len(result.steps), kind=work.kind, tokens=work.tokens,
                kv_len=work.kv_len, seconds=seconds,
                kernel_invocations=self.config.num_layers))

        result.kv_cache_bytes = workload.total_tokens * self.kv_bytes_per_token
        return result

    def throughput_sweep(self, workloads: List[Workload]) -> List[GenerationResult]:
        """Evaluate several requests back to back (parameters packed once)."""
        return [self.generate(workload) for workload in workloads]

"""Tests for prefix-caching KV block reuse: manager lifecycle and engine
integration (ref counting, copy-on-write divergence, computed gating,
idle-cache reclamation, skip-prefill accounting, report metrics)."""

import json

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.runtime.session import InferenceSession
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingEngine,
    poisson_trace,
    shared_prefix_trace,
)
from repro.serving.kv_manager import KVCacheExhausted
from repro.serving.request import ServingRequest
from repro.serving.workload_gen import TimedRequest


def make_manager(num_blocks: int = 16, block_size: int = 16,
                 prefix_cache: bool = True):
    config = KVCacheConfig(capacity_bytes=float(num_blocks * block_size),
                           block_size=block_size,
                           enable_prefix_cache=prefix_cache)
    return config.manager_for(bytes_per_token=1.0)


def shared_request(request_id: int, input_len: int = 72, output_len: int = 8,
                   prefix_len: int = 64, group: str = "g") -> ServingRequest:
    return ServingRequest(request_id, Workload(input_len, output_len), 0.0,
                          prefix_group=group, prefix_len=prefix_len)


class TestRequestPrefixFields:
    def test_prefix_len_requires_group(self):
        with pytest.raises(ValueError, match="prefix_group"):
            ServingRequest(0, Workload(32, 8), 0.0, prefix_len=16)

    def test_prefix_len_bounded_by_prompt(self):
        with pytest.raises(ValueError, match="prefix_len"):
            shared_request(0, input_len=32, prefix_len=64)

    def test_detach_prefix(self):
        request = shared_request(0)
        assert request.shareable_prefix
        request.detach_prefix()
        assert not request.shareable_prefix
        assert request.prefix_len == 0


class TestSkipPrefill:
    def test_skip_advances_cursor_and_caps_at_last_position(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(64, 8))
        assert active.skip_prefix(48) == 48
        assert active.prefilled_tokens == 48
        work = active.next_work()
        assert work.kind == "prefill" and work.tokens == 16
        active = session.start_request(Workload(64, 8))
        # The final prompt position is always computed.
        assert active.skip_prefix(64) == 63

    def test_skip_after_start_rejected(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(64, 8))
        active.record(active.next_work(token_budget=16))
        with pytest.raises(RuntimeError, match="already started"):
            active.skip_prefix(16)

    def test_next_work_assume_prefilled_is_pure(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(64, 8))
        assumed = active.next_work(token_budget=256, assume_prefilled=48)
        assert assumed.tokens == 16 and assumed.kv_len == 64
        # Nothing was mutated: the unassisted plan still covers the prompt.
        assert active.next_work(token_budget=256).tokens == 64


class TestManagerLifecycle:
    def test_first_request_creates_then_follower_reuses(self):
        manager = make_manager()
        leader = shared_request(1)
        reuse = manager.prefix_reuse(leader)
        assert reuse.reusable_blocks == 0 and not reuse.blocked
        assert manager.pin_prefix(leader) == reuse
        assert manager.extend_prefix(leader) == 4     # 64 tokens / 16
        manager.claim(1, 2)                           # private remainder
        assert manager.blocks_held(1) == 6
        # Uncomputed blocks block the follower's admission.
        follower = shared_request(2)
        assert manager.prefix_reuse(follower).blocked
        manager.mark_prefix_computed("g", 64)
        reuse = manager.prefix_reuse(follower)
        assert reuse.reusable_blocks == 4
        assert reuse.cached_tokens == 64
        assert reuse.idle_reused == 0                 # leader still holds
        manager.pin_prefix(follower)
        assert manager.extend_prefix(follower) == 0   # nothing to create
        manager.claim(2, 2)
        assert manager.blocks_held(2) == 6
        # Shared blocks are counted once: 4 shared + 2 + 2 private.
        assert manager.used_blocks == 8

    def test_partial_computation_gates_only_uncovered_range(self):
        manager = make_manager()
        leader = shared_request(1, input_len=72, prefix_len=64)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.mark_prefix_computed("g", 32)          # 2 of 4 blocks done
        short = shared_request(2, input_len=40, prefix_len=32)
        reuse = manager.prefix_reuse(short)
        assert not reuse.blocked and reuse.reusable_blocks == 2
        long = shared_request(3, input_len=72, prefix_len=64)
        assert manager.prefix_reuse(long).blocked

    def test_release_retains_computed_blocks_as_idle(self):
        manager = make_manager()
        leader = shared_request(1)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.claim(1, 2)
        manager.mark_prefix_computed("g", 64)
        freed = manager.release(1)
        assert freed == 6
        assert manager.used_blocks == 0
        assert manager.reclaimable_blocks == 4        # cache retained
        assert manager.free_blocks == 12
        # A later follower reuses the idle blocks without allocation.
        follower = shared_request(2)
        reuse = manager.prefix_reuse(follower)
        assert reuse.reusable_blocks == 4 and reuse.idle_reused == 4
        manager.pin_prefix(follower)
        assert manager.reclaimable_blocks == 0
        assert manager.used_blocks == 4

    def test_release_drops_uncomputed_blocks(self):
        """A preempted leader's never-computed blocks hold nothing worth
        caching — they are evicted outright, unblocking the group."""
        manager = make_manager()
        leader = shared_request(1)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.mark_prefix_computed("g", 32)
        manager.release(1)
        assert manager.reclaimable_blocks == 2        # computed half only
        follower = shared_request(2)
        reuse = manager.prefix_reuse(follower)
        assert not reuse.blocked
        assert reuse.reusable_blocks == 2

    def test_idle_cache_reclaimed_on_demand(self):
        """Idle cached blocks are free space: a private claim that needs
        them evicts coldest-first instead of failing."""
        manager = make_manager(num_blocks=8)
        leader = shared_request(1, input_len=72, prefix_len=64)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.mark_prefix_computed("g", 64)
        manager.release(1)
        assert manager.free_blocks == 4
        assert manager.reclaimable_blocks == 4
        manager.claim(2, 6)                           # needs 2 idle blocks
        assert manager.blocks_held(2) == 6
        assert manager.reclaimable_blocks == 2
        with pytest.raises(KVCacheExhausted):
            manager.claim(3, 5)                       # 2 free + 2 idle < 5

    def test_idle_cache_excluded_from_utilization(self):
        manager = make_manager(num_blocks=8)
        leader = shared_request(1, input_len=72, prefix_len=64)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.mark_prefix_computed("g", 64)
        manager.release(1)
        assert manager.utilization == 0.0
        assert not manager.admission_blocked

    def test_cow_divergence_counted(self):
        """A reusing request whose prefix ends mid-block materialises a
        private copy of the partial block — recorded as a CoW copy."""
        manager = make_manager()
        leader = shared_request(1, input_len=72, prefix_len=56)   # 3 full
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.mark_prefix_computed("g", 56)
        assert manager.prefix_cow_copies == 0         # creator, no reuse
        follower = shared_request(2, input_len=72, prefix_len=56)
        manager.pin_prefix(follower)
        assert manager.prefix_cow_copies == 1

    def test_reset_clears_cache(self):
        manager = make_manager()
        leader = shared_request(1)
        manager.pin_prefix(leader)
        manager.extend_prefix(leader)
        manager.mark_prefix_computed("g", 64)
        manager.release(1)
        manager.reset()
        assert manager.reclaimable_blocks == 0
        assert manager.free_blocks == manager.num_blocks
        assert manager.prefix_blocks_created == 0

    def test_disabled_cache_never_shares(self):
        manager = make_manager(prefix_cache=False)
        request = shared_request(1)
        assert manager.prefix_reuse(request).reusable_blocks == 0
        assert not manager.prefix_cache_enabled


AMPLE = KVCacheConfig.from_capacity_mb(512.0, enable_prefix_cache=True)
AMPLE_OFF = KVCacheConfig.from_capacity_mb(512.0)
SCHEDULER = SchedulerConfig(max_batch_size=4, token_budget=256)


class TestEngineIntegration:
    TRACE = shared_prefix_trace(12, prefix_len=192, unique_len=16,
                                output_len=32)

    def test_shared_trace_completes_with_high_hit_rate(self):
        report = ServingEngine(GPT2, kv_config=AMPLE,
                               scheduler_config=SCHEDULER).run(self.TRACE)
        assert report.completed == 12
        assert report.prefix_cache_enabled
        assert report.prefix_hit_rate > 0.5
        assert report.shared_kv_blocks_created == 192 // 16
        assert report.shared_kv_blocks_reused > 0
        assert report.preemptions == 0

    def test_cache_on_beats_cache_off(self):
        on = ServingEngine(GPT2, kv_config=AMPLE,
                           scheduler_config=SCHEDULER).run(self.TRACE)
        off = ServingEngine(GPT2, kv_config=AMPLE_OFF,
                            scheduler_config=SCHEDULER).run(self.TRACE)
        assert on.aggregate_tokens_per_s > off.aggregate_tokens_per_s
        assert on.ttft.mean < off.ttft.mean
        assert on.makespan_s < off.makespan_s

    def test_cache_off_identical_to_unmanaged(self):
        """Shared-prefix metadata on the trace is inert without the cache:
        the managed-ample engine still matches the unmanaged engine."""
        off = ServingEngine(GPT2, kv_config=AMPLE_OFF,
                            scheduler_config=SCHEDULER).run(self.TRACE)
        unmanaged = ServingEngine(GPT2,
                                  scheduler_config=SCHEDULER).run(self.TRACE)
        assert off.makespan_s == unmanaged.makespan_s
        assert off.ttft == unmanaged.ttft
        assert off.prefix_hit_rate == 0.0
        assert "prefix_cache" not in off.to_dict()
        assert "prefix_cache" not in unmanaged.to_dict()

    def test_non_shared_trace_unaffected_by_enabling_cache(self):
        """With no prefix groups in the trace, enabling the cache must not
        change a single scheduling decision."""
        trace = poisson_trace(16, 50.0, seed=2)
        on = ServingEngine(GPT2, kv_config=AMPLE,
                           scheduler_config=SCHEDULER).run(trace)
        off = ServingEngine(GPT2, kv_config=AMPLE_OFF,
                            scheduler_config=SCHEDULER).run(trace)
        on_payload = on.to_dict()
        # The hit-rate denominator counts every admitted prompt token; with
        # no groups in the trace nothing is reused or shared.
        assert on_payload.pop("prefix_cache") == {
            "hit_rate": 0.0,
            "prompt_tokens": sum(t.workload.input_len for t in trace),
            "tokens_reused": 0,
            "shared_blocks_created": 0, "shared_blocks_reused": 0,
            "cow_copies": 0}
        off_payload = off.to_dict()
        # The manifest truthfully records the differing cache flag; every
        # scheduling outcome must still be identical.
        assert on_payload.pop("manifest")["kv_cache"]["enable_prefix_cache"]
        assert not off_payload.pop("manifest")["kv_cache"][
            "enable_prefix_cache"]
        assert json.dumps(on_payload, sort_keys=True) \
            == json.dumps(off_payload, sort_keys=True)

    def test_report_dict_carries_prefix_metrics(self):
        report = ServingEngine(GPT2, kv_config=AMPLE,
                               scheduler_config=SCHEDULER).run(self.TRACE)
        payload = report.to_dict()["prefix_cache"]
        assert payload["hit_rate"] == pytest.approx(report.prefix_hit_rate)
        assert payload["tokens_reused"] == report.prefix_tokens_reused
        assert payload["shared_blocks_created"] == 12
        assert "prefix cache:" in report.format()

    def test_determinism_with_prefix_cache(self):
        first = ServingEngine(GPT2, kv_config=AMPLE,
                              scheduler_config=SCHEDULER).run(self.TRACE)
        second = ServingEngine(GPT2, kv_config=AMPLE,
                               scheduler_config=SCHEDULER).run(self.TRACE)
        assert json.dumps(first.to_dict(), sort_keys=True) \
            == json.dumps(second.to_dict(), sort_keys=True)

    def test_multiple_groups_cached_independently(self):
        trace = shared_prefix_trace(12, prefix_len=96, unique_len=16,
                                    output_len=16, num_groups=3)
        report = ServingEngine(GPT2, kv_config=AMPLE,
                               scheduler_config=SCHEDULER).run(trace)
        assert report.completed == 12
        assert report.shared_kv_blocks_created == 3 * (96 // 16)
        assert report.prefix_hit_rate > 0.3

    def test_tight_pool_still_completes_and_cache_still_wins(self):
        """Under real memory pressure the cache still pays for itself:
        everything completes and throughput stays ahead of cache-off.
        (Preemption *counts* may differ either way — sharing admits more
        concurrent residents, which shifts the pressure dynamics — but
        idle cache itself is reclaimable and never strands capacity.)"""
        per_token = GPT2.kv_cache_bytes_per_token(1.0)
        def config(prefix):
            return KVCacheConfig(capacity_bytes=40 * 16 * per_token,
                                 block_size=16, high_watermark=0.9,
                                 low_watermark=0.7,
                                 enable_prefix_cache=prefix)
        trace = shared_prefix_trace(8, prefix_len=96, unique_len=32,
                                    output_len=64)
        on = ServingEngine(GPT2, kv_config=config(True)).run(trace)
        off = ServingEngine(GPT2, kv_config=config(False)).run(trace)
        assert on.completed == off.completed == 8
        assert on.aggregate_tokens_per_s > off.aggregate_tokens_per_s

    def test_preempted_request_detaches_and_recomputes(self):
        """A victim releases its shared references and resumes privately;
        every request still emits exactly its output length."""
        per_token = GPT2.kv_cache_bytes_per_token(1.0)
        config = KVCacheConfig(capacity_bytes=28 * 16 * per_token,
                               block_size=16, high_watermark=0.9,
                               low_watermark=0.7, enable_prefix_cache=True)
        trace = shared_prefix_trace(6, prefix_len=64, unique_len=32,
                                    output_len=96)
        report = ServingEngine(GPT2, kv_config=config).run(trace)
        assert report.completed == 6
        assert report.total_output_tokens == 6 * 96
        assert report.preemptions >= 1

    def test_sub_block_prefix_takes_private_path(self):
        """A shared prefix shorter than one block has no full block to
        share: such requests run on the plain private path end to end.
        Regression: two concurrent zero-share group members used to crash
        the manager's release (the first member's release garbage-collected
        the empty group, the second dereferenced None)."""
        workload = Workload(24, 8)
        trace = [TimedRequest(i, workload, 0.0,
                              prefix_group="tiny", prefix_len=8)
                 for i in range(6)]
        report = ServingEngine(GPT2, kv_config=AMPLE,
                               scheduler_config=SCHEDULER).run(trace)
        assert report.completed == 6
        assert report.shared_kv_blocks_created == 0
        assert report.shared_kv_blocks_reused == 0
        assert report.prefix_hit_rate == 0.0

    def test_cli_sub_block_shared_prefix_completes(self):
        """The CLI path that used to crash: --shared-prefix smaller than
        the block size."""
        from repro.cli import main

        assert main(["serve-sim", "--requests", "8", "--arrival-rate", "40",
                     "--kv-capacity-mb", "256", "--prefix-cache",
                     "--shared-prefix", "8", "--no-baseline"]) == 0

    def test_priority_zero_trace_requests_accept_prefix_fields(self):
        trace = [TimedRequest(0, Workload(64, 8), 0.0,
                              prefix_group="g", prefix_len=32)]
        report = ServingEngine(GPT2, kv_config=AMPLE).run(trace)
        assert report.completed == 1
        # A lone group member creates blocks but reuses nothing.
        assert report.prefix_hit_rate == 0.0
        assert report.shared_kv_blocks_created == 2

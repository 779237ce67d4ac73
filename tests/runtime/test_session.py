"""Tests for the host-runtime inference session."""

import pytest

from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import GPT2, LLAMA, QWEN
from repro.models.workload import Workload
from repro.resource.token_model import EqualizationStrategy
from repro.runtime.session import InferenceSession, StepWork


class TestGeneration:
    def test_step_structure(self):
        session = InferenceSession(GPT2)
        result = session.generate(Workload(32, 16))
        assert result.steps[0].kind == "prefill"
        assert result.steps[0].tokens == 32
        decode_steps = [s for s in result.steps if s.kind == "decode"]
        assert len(decode_steps) == 15
        assert all(step.tokens == 1 for step in decode_steps)

    def test_kv_cache_grows_monotonically(self):
        session = InferenceSession(GPT2)
        result = session.generate(Workload(16, 8))
        kv_lengths = [step.kv_len for step in result.steps]
        assert kv_lengths == sorted(kv_lengths)
        assert kv_lengths[-1] == 16 + 7

    def test_ttft_and_totals(self):
        session = InferenceSession(GPT2)
        result = session.generate(Workload(64, 32))
        assert result.ttft_s == result.steps[0].seconds
        assert result.total_seconds == pytest.approx(
            result.ttft_s + result.decode_seconds)
        assert result.decode_tokens_per_second > 0

    def test_matches_latency_model(self):
        """The session is the stepwise view of the Table 4 latency model."""
        session = InferenceSession(GPT2)
        workload = Workload(32, 32)
        result = session.generate(workload)
        breakdown = FpgaPerformanceModel().evaluate(GPT2, workload)
        assert result.ttft_s == pytest.approx(breakdown.ttft_s)
        assert result.decode_seconds == pytest.approx(breakdown.decode_time_s)

    def test_kernel_invocations_counted_per_layer(self):
        session = InferenceSession(GPT2)
        result = session.generate(Workload(8, 4))
        assert result.total_kernel_invocations == GPT2.num_layers * len(result.steps)

    def test_per_token_latencies(self):
        session = InferenceSession(GPT2)
        result = session.generate(Workload(8, 4))
        latencies = result.per_token_latencies_ms()
        assert len(latencies) == len(result.steps)
        assert latencies[0] > latencies[1]  # prefill slower than one decode step

    def test_kv_cache_bytes_accounted(self):
        session = InferenceSession(QWEN)
        result = session.generate(Workload(32, 32))
        assert result.kv_cache_bytes == pytest.approx(
            64 * QWEN.kv_cache_bytes_per_token(1.0))


class TestSessionPolicies:
    def test_max_seq_len_enforced(self):
        session = InferenceSession(GPT2, max_seq_len=64)
        with pytest.raises(ValueError, match="max_seq_len"):
            session.generate(Workload(64, 32))

    def test_parameters_packed_once(self):
        session = InferenceSession(GPT2)
        first = session.pack_parameters()
        second = session.pack_parameters()
        assert first > 0 and second == 0.0

    def test_throughput_sweep_packs_once(self):
        session = InferenceSession(GPT2)
        results = session.throughput_sweep([Workload(8, 4), Workload(8, 4)])
        assert results[0].packing_seconds > 0
        assert results[1].packing_seconds == 0.0

    def test_strategy_from_compiled_design(self, gpt2_compiled):
        session = InferenceSession(GPT2, compiled=gpt2_compiled)
        assert session.strategy is EqualizationStrategy.NORMAL

    def test_conservative_strategy_slows_generation(self):
        fast = InferenceSession(LLAMA)
        slow = InferenceSession(LLAMA)
        slow.strategy = EqualizationStrategy.CONSERVATIVE
        workload = Workload(32, 16)
        assert slow.generate(workload).total_seconds \
            > fast.generate(workload).total_seconds

    def test_packing_cost_charged_to_first_request_only(self):
        """generate() reports the one-time packing cost exactly once."""
        session = InferenceSession(GPT2)
        first = session.generate(Workload(8, 4))
        second = session.generate(Workload(8, 4))
        assert first.packing_seconds > 0
        assert second.packing_seconds == 0.0

    def test_reset_repacks(self):
        session = InferenceSession(GPT2)
        initial = session.pack_parameters()
        session.reset()
        assert session.pack_parameters() == pytest.approx(initial)
        assert session.pack_parameters() == 0.0

    def test_reset_restores_generate_packing_cost(self):
        session = InferenceSession(GPT2)
        first = session.generate(Workload(8, 4))
        session.reset()
        again = session.generate(Workload(8, 4))
        assert again.packing_seconds == pytest.approx(first.packing_seconds)


class TestEmptyDecodeWorkloads:
    """output_len=1: the only output token comes out of the prefill pass."""

    def test_single_prefill_step(self):
        session = InferenceSession(GPT2)
        result = session.generate(Workload(32, 1))
        assert len(result.steps) == 1
        assert result.steps[0].kind == "prefill"
        assert result.decode_seconds == 0.0
        assert result.decode_tokens_per_second == 0.0
        assert result.total_seconds == result.ttft_s

    def test_throughput_sweep_with_empty_decodes(self):
        session = InferenceSession(GPT2)
        results = session.throughput_sweep([Workload(8, 1), Workload(8, 1)])
        assert all(len(r.steps) == 1 for r in results)


class TestStepGranularApi:
    def test_start_request_rejects_oversized(self):
        session = InferenceSession(GPT2, max_seq_len=64)
        with pytest.raises(ValueError, match="max_seq_len"):
            session.start_request(Workload(64, 32))

    def test_work_sequence(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(16, 3))
        first = active.next_work()
        assert first == StepWork("prefill", 16, 16)
        assert active.record(first) == 1  # prefill emits the first token
        second = active.next_work()
        assert second == StepWork("decode", 1, 17)
        assert active.record(second) == 1
        third = active.next_work()
        assert third == StepWork("decode", 1, 18)
        active.record(third)
        assert active.finished
        with pytest.raises(RuntimeError, match="finished"):
            active.next_work()

    def test_decode_slices_are_shared_per_kv_len(self):
        """Every decode slice at one KV length is the same immutable
        value, so cursors hand out one shared slice."""
        session = InferenceSession(GPT2)
        one = session.start_request(Workload(16, 3))
        other = session.start_request(Workload(17, 2))
        one.record(one.next_work())
        other.record(other.next_work())
        one.record(one.next_work())
        assert one.next_work() is other.next_work()
        assert one.next_work() == StepWork("decode", 1, 18)
        with pytest.raises(AttributeError):
            one.next_work().kv_len = 5

    def test_chunked_prefill_emits_token_only_at_the_end(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(40, 2))
        chunk = active.next_work(token_budget=16)
        assert chunk == StepWork("prefill", 16, 16, emits=False)
        assert active.record(chunk) == 0
        chunk = active.next_work(token_budget=16)
        assert chunk == StepWork("prefill", 16, 32, emits=False)
        assert active.record(chunk) == 0
        chunk = active.next_work(token_budget=16)
        assert chunk == StepWork("prefill", 8, 40, emits=True)
        assert active.record(chunk) == 1
        assert active.tokens_generated == 1
        assert not active.finished

    def test_mid_prompt_chunks_skip_lm_head_cost(self):
        """The sum of chunked-prefill steps charges the LM head once, at
        the final chunk, not once per chunk."""
        session = InferenceSession(GPT2)
        silent = session.execute_step(
            [StepWork("prefill", 16, 32, emits=False)])
        final = session.execute_step(
            [StepWork("prefill", 16, 32, emits=True)])
        head = FpgaPerformanceModel().lm_head_time_s(GPT2)
        assert final - silent == pytest.approx(head)

    def test_step_records_accumulate(self):
        result = InferenceSession(GPT2).generate(Workload(8, 3))
        assert [s.kind for s in result.steps] == ["prefill", "decode", "decode"]
        assert [s.index for s in result.steps] == [0, 1, 2]
        assert [s.kernel_invocations for s in result.steps] \
            == [GPT2.num_layers] * 3

    def test_empty_batch_step_is_free(self):
        assert InferenceSession(GPT2).execute_step([]) == 0.0

    def test_step_kv_len_validated(self):
        session = InferenceSession(GPT2, max_seq_len=64)
        with pytest.raises(ValueError, match="max_seq_len"):
            session.execute_step([StepWork("decode", 1, 65)])

    def test_singleton_step_matches_latency_model(self):
        session = InferenceSession(GPT2)
        model = FpgaPerformanceModel()
        prefill = session.execute_step([StepWork("prefill", 32, 32)])
        assert prefill == pytest.approx(
            model.prefill_time_s(GPT2, 32, EqualizationStrategy.NORMAL))
        decode = session.execute_step([StepWork("decode", 1, 33)])
        assert decode == pytest.approx(
            model.decode_step_time_s(GPT2, 33, EqualizationStrategy.NORMAL))

    def test_batched_decode_amortises_weight_streaming(self):
        """8 decode slices in one step cost far less than 8 separate steps."""
        session = InferenceSession(GPT2)
        works = [StepWork("decode", 1, 64 + i) for i in range(8)]
        batched = session.execute_step(works)
        sequential = sum(session.execute_step([w]) for w in works)
        assert batched < sequential / 2
        # ... but a batch is never cheaper than its slowest member alone.
        assert batched >= max(session.execute_step([w]) for w in works)


class TestAssumeResident:
    """Imported-KV cursors (the decode half of a disaggregated hand-off)."""

    def test_full_prompt_resident_goes_straight_to_decode(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(16, 4))
        assert active.assume_resident(16) == 16
        assert not active.in_prefill
        assert active.kv_tokens == 16
        work = active.next_work()
        assert work == StepWork("decode", 1, 16)
        assert active.record(work) == 1

    def test_resident_tokens_capped_at_prompt(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(16, 4))
        assert active.assume_resident(99) == 16

    def test_rejected_after_start(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(16, 4))
        active.record(active.next_work())
        with pytest.raises(RuntimeError, match="already started"):
            active.assume_resident(16)

    def test_negative_rejected(self):
        session = InferenceSession(GPT2)
        active = session.start_request(Workload(16, 4))
        with pytest.raises(ValueError, match="negative"):
            active.assume_resident(-1)

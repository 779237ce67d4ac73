"""Bit-for-bit oracle for the engine step cost.

:meth:`FpgaPerformanceModel.engine_step_time_s` prices decode slices and
whole prompts from per-model term tables instead of calling
``block_flops`` per slice.  This property test holds it to the plain
per-slice loop it replaced — ``block_flops`` per slice, the terms added
with a sequential ``+=`` — compared with ``==``, not ``approx``: every
serving report rests on these floats.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.latency import FpgaPerformanceModel
from repro.models.config import GEMMA, GPT2, LLAMA, QWEN
from repro.models.transformer import block_flops
from repro.resource.token_model import EqualizationStrategy

TABLE7_MODELS = (GPT2, QWEN, LLAMA, GEMMA)
MAX_SEQ_LEN = max(config.max_seq_len for config in TABLE7_MODELS)

# Shared across examples, so later examples price from filled tables.
SHARED = FpgaPerformanceModel()
# Different constants: its tables must not mix with the shared model's.
SLOW_HBM = FpgaPerformanceModel(weight_stream_gbs=16.0,
                                conservative_slowdown=2.0)


def reference_step_time(model, config, batch, strategy, emitting):
    """The per-slice loop the tables replaced, inlined."""
    if not batch:
        return 0.0
    weight_time = model.weight_bytes(config.layer_params()) / (
        model.weight_stream_gbs * 1e9)
    activation_bytes = model.platform.quantization.activation_bits / 8.0
    kv_hidden = config.kv_hidden_size
    hbm_bytes_per_s = model.weight_stream_gbs * 1e9
    ops_per_s = model.effective_ops_per_s
    kv_time = 0.0
    compute_time = 0.0
    for tokens, kv_len in batch:
        kv_time += 2 * kv_len * kv_hidden * activation_bytes \
            / hbm_bytes_per_s
        compute_time += block_flops(config, tokens, kv_len) / ops_per_s
    steady = max(weight_time + kv_time, compute_time)
    slowdown = (model.conservative_slowdown
                if strategy is EqualizationStrategy.CONSERVATIVE else 1.0)
    block = steady * slowdown + model.per_layer_overhead_s
    num_emitting = len(batch) if emitting is None else emitting
    head = 0.0
    if num_emitting:
        params = config.vocab_size * config.hidden_size
        head = max(model.weight_bytes(params)
                   / (model.weight_stream_gbs * 1e9),
                   num_emitting * 2.0 * config.hidden_size
                   * config.vocab_size / model.effective_ops_per_s)
    return config.num_layers * block + head + model.per_pass_overhead_s


kv_lens = st.integers(1, MAX_SEQ_LEN)
decode_slices = kv_lens.map(lambda kv_len: (1, kv_len))
whole_prompts = kv_lens.map(lambda kv_len: (kv_len, kv_len))
prefill_chunks = kv_lens.flatmap(
    lambda kv_len: st.tuples(st.integers(1, kv_len), st.just(kv_len)))
batches = st.lists(st.one_of(decode_slices, whole_prompts, prefill_chunks),
                   max_size=24)


@settings(max_examples=300, deadline=None)
@given(config=st.sampled_from(TABLE7_MODELS),
       model=st.sampled_from((SHARED, SLOW_HBM)),
       strategy=st.sampled_from(list(EqualizationStrategy)),
       batch=batches)
def test_step_time_equals_per_slice_loop(config, model, strategy, batch):
    batch = [(tokens, kv_len) for tokens, kv_len in batch
             if kv_len <= config.max_seq_len]
    for emitting in [None, *range(len(batch) + 1)]:
        assert model.engine_step_time_s(config, batch, strategy,
                                        emitting=emitting) \
            == reference_step_time(model, config, batch, strategy,
                                   emitting)


def test_fresh_and_warm_tables_agree():
    """A model that has priced many steps gives the bits a fresh one
    does (the first call per slice shape fills the table)."""
    batch = [(1, kv_len) for kv_len in range(1, 200)] + [(64, 64), (8, 40)]
    warm = FpgaPerformanceModel()
    for config in TABLE7_MODELS:
        for _ in range(2):
            assert warm.engine_step_time_s(
                config, batch, EqualizationStrategy.NORMAL) \
                == FpgaPerformanceModel().engine_step_time_s(
                    config, batch, EqualizationStrategy.NORMAL)


def test_model_is_frozen():
    model = FpgaPerformanceModel()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.weight_stream_gbs = 96.0
    # replace() is the way to a variant, with tables of its own.
    faster = dataclasses.replace(model, weight_stream_gbs=96.0)
    batch = [(1, 100)]
    assert faster.engine_step_time_s(GPT2, batch,
                                     EqualizationStrategy.NORMAL) \
        == reference_step_time(faster, GPT2, batch,
                               EqualizationStrategy.NORMAL, None)

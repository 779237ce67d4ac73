"""Byte-level report oracle: pinned SHA-256 digests of serving reports.

The kernel differential matrix compares the two cluster kernels against
each other, so a change inside the code they share (``DeviceWorker``,
the session cursor, the report builder) would move both sides together
and pass unnoticed.  These digests pin the serialized report bytes
themselves: every ``CONFIGS`` entry of the differential matrix under the
event kernel, plus single-engine runs covering each placement policy,
KV pressure with preemption across devices, and prefix caching.

The digest is taken over ``json.dumps(report.to_dict(), sort_keys=True)``
with the manifest's ``repro_version`` dropped, so a version bump alone
does not move it.  A change that is meant to alter simulated values must
re-pin the affected entries and say so; a refactor must leave every
digest untouched.
"""

import hashlib
import json

import pytest

from repro.models.config import GPT2
from repro.models.workload import Workload
from repro.serving import (
    KVCacheConfig,
    SchedulerConfig,
    ServingEngine,
    burst_trace,
)
from repro.serving.telemetry import Tracer
from repro.serving.workload_gen import poisson_trace, shared_prefix_trace

from tests.serving.cluster.test_kernel_differential import CONFIGS, run_kernel


def report_digest(report) -> str:
    payload = report.to_dict()
    payload["manifest"].pop("repro_version")
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def kv_blocks(blocks, block_size=16, **kwargs):
    per_token = GPT2.kv_cache_bytes_per_token()
    return KVCacheConfig(capacity_bytes=blocks * block_size * per_token,
                         block_size=block_size, **kwargs)


MIXED_TRACE = poisson_trace(60, 40.0, seed=61, input_choices=(32, 64, 128),
                            output_choices=(16, 32))

# name -> (engine kwargs, trace, traced).  Traced runs also pin the
# telemetry section the step loop's tracer hooks feed.
ENGINE_CONFIGS = {
    "engine_round_robin": (
        dict(num_devices=3, placement="round_robin"), MIXED_TRACE, False),
    "engine_least_loaded": (
        dict(num_devices=3, placement="least_loaded"), MIXED_TRACE, False),
    "engine_kv_aware": (
        dict(num_devices=2, placement="kv_aware",
             kv_config=kv_blocks(256)), MIXED_TRACE, False),
    "engine_score": (
        dict(num_devices=2, placement="score",
             scheduler_config=SchedulerConfig(admission="score")),
        poisson_trace(60, 40.0, seed=67,
                      slo_class_mix="interactive=1,standard=2,"
                                    "best_effort=1"), False),
    "engine_kv_pressure_preempting": (
        dict(num_devices=2, kv_config=kv_blocks(40),
             scheduler_config=SchedulerConfig(max_batch_size=8)),
        poisson_trace(48, 60.0, seed=71, input_choices=(64, 128),
                      output_choices=(32, 64)), True),
    # Two devices running the same burst preempt at identical instants:
    # the report's stable time sort then depends on the order the
    # devices' events were gathered in.
    "engine_kv_pressure_tied": (
        dict(num_devices=2, kv_config=kv_blocks(24)),
        burst_trace([Workload(64, 64) for _ in range(12)]), False),
    "engine_prefix_cached": (
        dict(num_devices=2, placement="least_loaded",
             kv_config=kv_blocks(256, enable_prefix_cache=True)),
        shared_prefix_trace(48, prefix_len=48, unique_len=8,
                            output_len=16, interval_s=0.02,
                            num_groups=3), True),
}

CLUSTER_DIGESTS = {
    "autoscaled_queue_only":
        "4a6725d37d23e8b3e2d03b5c0600e27cb4fef17a87d5bd8649e20af155dd2408",
    "autoscaled_slo_flash_crowd":
        "b6e4a375e9060a488bf0dc506829cf2f97352713dbcfd70cfc603df270edcb72",
    "disagg_autoscaled":
        "388de5efff45fe175e6de408ffdb2263a2125f2eb3ee552086e610757e5d036c",
    "disagg_basic":
        "b67a169557411d4eafc6433221ef0f070449322c348e13f03bf0a35be6f74ccf",
    "disagg_decode_least_queue":
        "d8953cca38f918eafde77abfb89e3cd0b416f309a833d6b96967dbe33e46f4e2",
    "disagg_kv_transfer_aware":
        "4f79d9c0e2391038c20dc8c1a54d32e23632aac571fc3d4a9db46ac4fead7450",
    "disagg_streamed_kv":
        "806d44cce34e608dba216717a10108f86e3abc38535c67a22fb35a6db19db7a3",
    "disagg_streamed_stalling":
        "81ed42e65398ec538248c069ba4c113d312b5fe7e915b94689547100070b19da",
    "faulted_autoscaled_replacement":
        "e3d8ac19b44ca43f7866150f60fe4761b82f8505a307d2d5da770af8617f6174",
    "faulted_disagg_kvlink":
        "f6677825fafeb9d451542c62b99873d2b2b56baaa5a9ed692ad867a8f9449611",
    "faulted_fixed_crash_slow":
        "ca87502e25d5772335a03bd0500d03d484a733c9d27144291fd189993a7b3a7d",
    "fixed_least_queue":
        "3b868cd6930c22581fe5680e0cf9c7575afbeddb6ee4c9e8d53403c853d75647",
    "fixed_round_robin":
        "17d8be5ddc62a9c005537e3ba68a9b8911e42c50098c3bd12756bb5279abbf2f",
    "hybrid_prefill_capped":
        "f44eb91e97e0a4b405655500591102d05c6b9205227e5c7e5361ba15cfb76d0a",
    "kv_pressure_preempting":
        "b158ff390a0d6971c09013d122a98d548f4755a5f156f7b91ee78e2e798142ad",
    "least_kv_pressure":
        "3efa5381977816fe2fe6df1ddfda808599e4ab236bb684a958f7af049875f706",
    "multi_turn_prefix_cached":
        "4081fad40226fba065f020d28b10336f2a064c4a6e3361e305424ad955004dce",
    "prefix_affinity_cached":
        "34ef13e64b95b007270f80b4fbe7a1e807c43c2c292632a15764bc4ba484ddaf",
    "score_class_mix":
        "f218b580893f41863a4b5cf2bb1bf9aa4e1d84138cacba19d993db89f1258bb9",
    "score_preempting_class_autoscaled":
        "e26516cfa76740b7c9037d8a6800ce460e151eb229058ce76101a1733d14fd05",
    "single_replica":
        "6b07fa5cf4fa84bdb1d162f4cdffd954a944f21993edf444a09943c743b56b30",
    "tool_use_fixed":
        "3907fc98f9c1ff91f1fbe285ce9236e8f2c63cfb3f6f6974140c77409f8c1648",
}

ENGINE_DIGESTS = {
    "engine_kv_aware":
        "3d3975a69b08ae73ecbee597fe285e4195d7765a112e523bab0928668ff3b626",
    "engine_kv_pressure_preempting":
        "133d231f14bfdeea88edc17b21788e06bff530ffe2c78ed368fcd603dc0a40c2",
    "engine_kv_pressure_tied":
        "ff67d1292381a7d0f88618cca5bcb71e58991a1ec89aa964edf9bc2e6cf19293",
    "engine_least_loaded":
        "98cd2eea73555cd7297617ac6d493c29ab36219b32b7e7ae97735851faebd310",
    "engine_prefix_cached":
        "15b6a9a334e2b42be7f142290f2010ab73e3b210b756557fcd66ff80efa6c005",
    "engine_round_robin":
        "523e136714316f25fe248b18182a677182ab26f21bfaad2f367efb63b91e3917",
    "engine_score":
        "8446ad45af1480fcd3f8a394bfb7f9006b28320d8fed3d2d9063af6fdfe1382b",
}


def run_engine(name):
    kwargs, trace, traced = ENGINE_CONFIGS[name]
    tracer = Tracer() if traced else None
    return ServingEngine(GPT2, tracer=tracer, **kwargs).run(trace)


class TestReportDigests:
    def test_every_config_is_pinned(self):
        assert sorted(CLUSTER_DIGESTS) == sorted(CONFIGS)
        assert sorted(ENGINE_DIGESTS) == sorted(ENGINE_CONFIGS)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cluster_report_bytes(self, name):
        _, report = run_kernel("event", *CONFIGS[name])
        assert report_digest(report) == CLUSTER_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_engine_report_bytes(self, name):
        assert report_digest(run_engine(name)) == ENGINE_DIGESTS[name]

    def test_engine_configs_reach_their_regimes(self):
        """Regime check: the pressure entry must keep preempting on more
        than one device and the prefix entry must keep hitting the cache,
        or their pins stop guarding those paths."""
        pressure = run_engine("engine_kv_pressure_preempting")
        assert {event.device_id for event in pressure.preemption_events} \
            == {0, 1}
        times = [event.time_s for event in
                 run_engine("engine_kv_pressure_tied").preemption_events]
        assert len(set(times)) < len(times)
        cached = run_engine("engine_prefix_cached")
        assert cached.prefix_hit_rate > 0.0

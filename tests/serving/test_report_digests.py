"""Byte-level report oracle: pinned SHA-256 digests of serving reports.

The kernel differential matrix compares the two cluster kernels against
each other, so a change inside the code they share (``DeviceWorker``,
the session cursor, the report builder) would move both sides together
and pass unnoticed.  These digests pin the serialized report bytes
themselves: every ``CONFIGS`` entry of the differential matrix under the
event kernel, plus single-engine runs covering each placement policy,
KV pressure with preemption across devices, and prefix caching.

Two finer oracles sit beside the report pins, for code the report only
summarises: the sorted span rows of a traced run (every pinned config,
engine and cluster alike, run with a :class:`Tracer` attached), and the
event kernel's popped-event log (``record_events``) for every
differential config.  Both pin per-step detail — which resident ran
which slice in which step, and in which order the kernel dispatched
each event — that a compensating change could keep out of the report.

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
from repro.serving.cluster import ServingCluster
from repro.serving.telemetry import Tracer
from repro.serving.workload_gen import poisson_trace, shared_prefix_trace

from tests.serving.cluster.test_kernel_differential import CONFIGS, run_kernel


def report_digest(report) -> str:
    payload = report.to_dict()
    payload["manifest"].pop("repro_version")
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def span_digest(tracer) -> str:
    """SHA-256 over the tracer's canonical sorted span rows, as python
    floats (their ``repr`` is exact and does not depend on numpy)."""
    rows = [tuple(map(float, row)) for row in tracer.sorted_tuples()]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def event_payload_key(payload):
    """A run-independent stand-in for an event payload: the stepping
    replica's id, or the landing KV chunk's request and index."""
    if payload is None:
        return None
    replica_id = getattr(payload, "replica_id", None)
    if replica_id is not None:
        return ["replica", replica_id]
    return ["chunk", payload.request.request_id, payload.index]


def event_log_digest(log) -> str:
    """SHA-256 over the popped-event log, one (time, kind, tie, seq,
    payload) row per event."""
    rows = [[repr(float(event.time_s)), int(event.kind), event.tie,
             event.seq, event_payload_key(event.payload)] for event in log]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


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


CLUSTER_SPAN_DIGESTS = {
    "autoscaled_queue_only":
        "fbe335b07ada679875f8190d4c620c65b6470c00670338c76be4591147b5f479",
    "autoscaled_slo_flash_crowd":
        "a2be0532cb00bc66d774613ebc579b90144e8984d1a68a876c3be9bf34ee5760",
    "disagg_autoscaled":
        "1eec6cf3696d5e63061bd8e8a0f30a492bfb45d6cbeb5fb9beb8e8ad636b66a5",
    "disagg_basic":
        "efff1687c720832af6eb54dcfe8b83900c18c3fb975916d0317e5846be24c5cf",
    "disagg_decode_least_queue":
        "d262ab93c547a0f30444c50d04c06a76f539498a5858680898a9bdc58ce8b60f",
    "disagg_kv_transfer_aware":
        "c6f163d42dd7c7cbb18aec74968d87919d373b14819434eebdc844435e644bca",
    "disagg_streamed_kv":
        "825decd07969eaca28b7464ff4571932d730fb23e31c2f5131fab9fcd82a3792",
    "disagg_streamed_stalling":
        "5499ae907b1c84eea48edf850e8986114264f4e57ca60cee6888c39a56a60589",
    "faulted_autoscaled_replacement":
        "417a3357f74aa031699117f0d439cea2322bf997669cba13f9d2b73cec555ffd",
    "faulted_disagg_kvlink":
        "1d871b140ab80f7ae9cfa86cc6231f39d18bfc921f903d7a97ceb0a4430b05fd",
    "faulted_fixed_crash_slow":
        "2d865e0db3a51287fdd4ab667ab6b0bc27d9721ac1414ab1b98973393ad28883",
    "fixed_least_queue":
        "ba95e5e90cdd209acc47df1412f31efca9f07a6a90a63beca1857136d783367e",
    "fixed_round_robin":
        "4decf8bb2492a9dafc7748f4a45256d4bc101adae928c37d7b2fe7e6b130e14d",
    "hybrid_prefill_capped":
        "232a5e353f8342502576dd829a334a82aaeb93d383396228ece5d2da0ee94265",
    "kv_pressure_preempting":
        "8545ddcab5a5b3475555403ca3f1e1fae56c36c59e31e41cf5d7ddf91fe24e42",
    "least_kv_pressure":
        "94004ec68c92a65591cba192a535821b848a37be227340d8f1c75c88a692ceb5",
    "multi_turn_prefix_cached":
        "35271e949799fc6fb8cb9117f1a51dd5afd8a4a3119b2b7d76a24d4ecb60bcc6",
    "prefix_affinity_cached":
        "d7a75bd3f248a85be7865f021a25fa86907c711ca8e8c2b95053ef1ad652f0e1",
    "score_class_mix":
        "0c33fcb4f859f18f4f6756035d643f1b797cffca5a2ad50d4400836c10c5a064",
    "score_preempting_class_autoscaled":
        "42742d49ba577eeeb2a2c07442df72986f863ca8c602dfebda928e466bfcd6cb",
    "single_replica":
        "65e60d901d9e6c9102088df7ee1f68b3a7d1b70375904de5e64ce7384c661f9e",
    "tool_use_fixed":
        "c1e518a963fc4782d2222743ca108cb4ecdf1c104c6e3cfe8a8c2a35cd2c2bbf",
}

ENGINE_SPAN_DIGESTS = {
    "engine_kv_aware":
        "1d09cb658d1a7ba84494f9c8c72684b97ea1c08bf184da62237641f6fea66f36",
    "engine_kv_pressure_preempting":
        "294161bb2550519364697a856bafa9213c9b0acf7844a483e2a8bc079ff6e17c",
    "engine_kv_pressure_tied":
        "b27b8d26246bc36864081937b5429fc8786ba0942f44186e5f24623809b8f5b7",
    "engine_least_loaded":
        "7e8e4bba0232c766a18b445d191fcb81cb8c553661613a7f90692bcc810d8dba",
    "engine_prefix_cached":
        "c6de717296d256d6bed64c1b2d8fd1a6d8243ab7240d30a19a24c3133a37f883",
    "engine_round_robin":
        "12451e5f33b806c47cc3e8757721285d2bbd00f07e1283aa8bbe91d9d53d0a87",
    "engine_score":
        "682906988cdb03547dbb242c2bc876c43e148a64012c767e045307f701335a3d",
}

EVENT_LOG_DIGESTS = {
    "autoscaled_queue_only":
        "79f9c8fb0cce45fbfffc57653335737e1ea36291bc6b2da2e1579f7cec326a2f",
    "autoscaled_slo_flash_crowd":
        "1524efcd1d79dc9c196ff4de8394c9f0813eba118b765ce7427699fdd14b4ecc",
    "disagg_autoscaled":
        "b1d55319d4c337f91be8168611a6ac93c68b3e4c200ce932edde14e75eb772fd",
    "disagg_basic":
        "ef5fce71d3c46cd8ac419316ed87d0ef68b414642e45c1bdd9a3f5a88785b08c",
    "disagg_decode_least_queue":
        "1ca40db798f3c71aeb743efc5975ca7bc9062fe67b51e24da7862e6d2192d50f",
    "disagg_kv_transfer_aware":
        "868e4cb7c017180c583c74bc275a678abc9133dae69f113e72308ebb591e5c03",
    "disagg_streamed_kv":
        "d6d1eb55a388c63be6b850852fac97981251c0d3438d4908fc9e360c248590a1",
    "disagg_streamed_stalling":
        "e5a4910199387bbb790c2e577bca0eb3c7b1a1038b0086e1847445319bd2cca9",
    "faulted_autoscaled_replacement":
        "fcd1e1b854fa241ece001786a425a93dc835598bea798304c3e45fd622719606",
    "faulted_disagg_kvlink":
        "fd92d0f1465f98bd769488a186cc0b61bd55e214bd8449bf4058236fa6dad81b",
    "faulted_fixed_crash_slow":
        "f4ef3b096585eb064d7442d02414616fe6f3e0ef637f33f62bede99acd99abf1",
    "fixed_least_queue":
        "e2a6cb037c24595fdff37d8a9f1949dd546abc3420d1ff3b56e922d742108c9b",
    "fixed_round_robin":
        "af1f2afad650f818e106519a8d001a8bef09ada42986ffad2e083309b7caf439",
    "hybrid_prefill_capped":
        "00d7caebbd7ea669da7c48eda7abab9b57d44b20621e9591ef8f8b9bd96d0c58",
    "kv_pressure_preempting":
        "9299e89b1e7ad093b869bb7b4595dfafefff54ea0bd0e43665862ea0ead144fb",
    "least_kv_pressure":
        "5d780fe10b80aaa1bfafa1d865fe24af81b2586c4e4db131a3dfe52e8216ced7",
    "multi_turn_prefix_cached":
        "db600e860c169aec8425db6756d4f4cd4f68ed153b412276a648192c2e4ea0fe",
    "prefix_affinity_cached":
        "fd4f220bd175d9590c511e6be42abade881d35b774713971d58059e162e9059e",
    "score_class_mix":
        "34fc1b3a394a661aa68efc70bd0fdabd51b8a9331cc22831bd9c8a783489d985",
    "score_preempting_class_autoscaled":
        "104b63eab538ea1ea73098a38d9f6378920711d4ffef06f9b5ceac49baec2618",
    "single_replica":
        "8aae242ab0dc36777ef4e1a7ae018defce95e0b857f4a786e5503b1a6d759704",
    "tool_use_fixed":
        "89d8a66feb69fcbda8e249471975f168ba439bbb29266688a29b0fa9da1a97d0",
}


def run_engine(name, tracer=None):
    kwargs, trace, traced = ENGINE_CONFIGS[name]
    if tracer is None and traced:
        tracer = Tracer()
    return ServingEngine(GPT2, tracer=tracer, **kwargs).run(trace)


def traced_cluster_spans(name):
    kwargs, trace = CONFIGS[name]
    tracer = Tracer()
    ServingCluster(GPT2, kernel="event", tracer=tracer, **kwargs).run(trace)
    return span_digest(tracer)


def traced_engine_spans(name):
    tracer = Tracer()
    run_engine(name, tracer=tracer)
    return span_digest(tracer)


def cluster_event_log(name):
    kwargs, trace = CONFIGS[name]
    cluster = ServingCluster(GPT2, kernel="event", **kwargs)
    cluster.record_events = True
    cluster.run(trace)
    return cluster.last_event_log


class TestReportDigests:
    def test_every_config_is_pinned(self):
        assert sorted(CLUSTER_DIGESTS) == sorted(CONFIGS)
        assert sorted(ENGINE_DIGESTS) == sorted(ENGINE_CONFIGS)
        assert sorted(CLUSTER_SPAN_DIGESTS) == sorted(CONFIGS)
        assert sorted(ENGINE_SPAN_DIGESTS) == sorted(ENGINE_CONFIGS)
        assert sorted(EVENT_LOG_DIGESTS) == sorted(CONFIGS)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cluster_report_bytes(self, name):
        _, report = run_kernel("event", *CONFIGS[name])
        assert report_digest(report) == CLUSTER_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_engine_report_bytes(self, name):
        assert report_digest(run_engine(name)) == ENGINE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cluster_span_rows(self, name):
        assert traced_cluster_spans(name) == CLUSTER_SPAN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_engine_span_rows(self, name):
        assert traced_engine_spans(name) == ENGINE_SPAN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_event_log(self, name):
        assert event_log_digest(cluster_event_log(name)) \
            == EVENT_LOG_DIGESTS[name]

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

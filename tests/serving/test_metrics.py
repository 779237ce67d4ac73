"""Tests for serving metrics and report assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.workload import Workload
from repro.serving.metrics import (
    LatencyStats,
    SampleBuffer,
    build_report,
    percentile,
)
from repro.serving.request import RequestState, ServingRequest


class TestPercentile:
    def test_empty_sample_rejected(self):
        """An empty sample has no percentile — a clear error, not a silent
        0.0 that reads like a measured latency."""
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_single_value(self):
        assert percentile([3.0], 99.0) == 3.0
        assert percentile([3.0], 0.0) == 3.0
        assert percentile([3.0], 100.0) == 3.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            percentile([1.0], 101.0)


class TestLatencyStats:
    def test_from_empty_is_explicit_sentinel(self):
        """Zero-request traces produce the count=0 sentinel, distinguishable
        from a genuine all-zero latency distribution."""
        stats = LatencyStats.from_values([])
        assert stats == LatencyStats.empty()
        assert stats.is_empty
        assert stats.count == 0
        assert stats.mean == 0.0 and stats.max == 0.0
        assert stats.format_ms() == "no samples"

    def test_single_sample(self):
        stats = LatencyStats.from_values([0.25])
        assert not stats.is_empty
        assert stats.count == 1
        # Every summary statistic of a singleton is the sample itself.
        assert (stats.mean, stats.p50, stats.p95, stats.p99, stats.max) \
            == (0.25, 0.25, 0.25, 0.25, 0.25)
        assert "250.0" in stats.format_ms()

    def test_ordering_invariant(self):
        stats = LatencyStats.from_values([float(i) for i in range(100)])
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max
        assert stats.mean == pytest.approx(49.5)
        assert stats.count == 100


class TestBuildReport:
    def _finished_request(self, request_id, arrival, first_token, finish,
                          workload=Workload(8, 4)):
        request = ServingRequest(request_id, workload, arrival)
        request.state = RequestState.FINISHED
        request.admitted_s = arrival
        request.first_token_s = first_token
        request.finish_s = finish
        request.tokens_emitted = workload.output_len
        return request

    def test_aggregates(self):
        requests = [
            self._finished_request(0, 0.0, 1.0, 2.0),
            self._finished_request(1, 1.0, 2.0, 4.0),
        ]
        report = build_report("gpt2", 1, requests, [], [])
        assert report.completed == 2
        assert report.total_output_tokens == 8
        assert report.makespan_s == pytest.approx(4.0)
        assert report.aggregate_tokens_per_s == pytest.approx(2.0)
        assert report.ttft.max == pytest.approx(1.0)

    def test_one_token_outputs_excluded_from_tpot(self):
        requests = [
            self._finished_request(0, 0.0, 1.0, 1.0, workload=Workload(8, 1)),
            self._finished_request(1, 0.0, 1.0, 2.0, workload=Workload(8, 3)),
        ]
        report = build_report("gpt2", 1, requests, [], [])
        # Only the 3-token request contributes: (2.0 - 1.0) / 2 decodes.
        assert report.tpot.max == pytest.approx(0.5)
        assert report.tpot.mean == pytest.approx(0.5)

    def test_format_is_printable(self):
        report = build_report("gpt2", 1,
                              [self._finished_request(0, 0.0, 1.0, 2.0)], [], [])
        text = report.format()
        assert "serving report" in text
        assert "tok/s" in text

    def test_to_dict_round_trips_through_json(self):
        import json

        report = build_report("gpt2", 1,
                              [self._finished_request(0, 0.0, 1.0, 2.0)], [], [])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["completed"] == 1
        assert payload["ttft_ms"]["max"] == pytest.approx(1000.0)
        assert payload["ttft_ms"]["count"] == 1
        assert payload["aggregate_tokens_per_s"] == pytest.approx(2.0)
        assert payload["preemptions"] == 0
        assert payload["preemption_events"] == []

    def test_zero_request_trace_yields_sentinel_report(self):
        """An empty trace must format and serialise cleanly, with every
        latency block marked as the no-samples sentinel."""
        import json

        report = build_report("gpt2", 1, [], [], [])
        assert report.completed == 0
        assert report.ttft.is_empty and report.tpot.is_empty
        assert report.e2e_latency.is_empty and report.queue_wait.is_empty
        assert "no samples" in report.format()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ttft_ms"]["count"] == 0
        assert payload["aggregate_tokens_per_s"] == 0.0


# One buffer operation: ("append", row) / ("extend", rows) write; the
# others read and are compared against the eager reference.
_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _buffer_ops(width):
    row = st.tuples(*[_VALUES] * width)
    return st.lists(st.one_of(
        st.tuples(st.just("append"), row),
        st.tuples(st.just("extend"), st.lists(row, max_size=40)),
        st.tuples(st.just("bad_append"), st.integers(0, 3)),
        st.tuples(st.just("read"), st.sampled_from(
            ("len", "rows", "column", "iter", "index", "slice")))),
        max_size=160)


class TestSampleBufferStaging:
    """``append`` stages rows and copies them in every ``STAGE_ROWS``;
    every read must see exactly what an eager buffer holds."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), width=st.integers(1, 4))
    def test_interleaved_ops_match_an_eager_reference(self, data, width):
        buffer = SampleBuffer(width, capacity=2)
        reference = np.empty((0, width))
        for op, arg in data.draw(_buffer_ops(width)):
            if op == "append":
                buffer.append(*arg)
                reference = np.vstack((reference, [arg]))
            elif op == "extend":
                buffer.extend(arg)
                if arg:
                    reference = np.vstack((reference, arg))
            elif op == "bad_append":
                # Wrong width: rejected at once, and nothing is staged.
                bad = (1.0,) * (width + 1 + arg) if arg % 2 \
                    else (1.0,) * max(0, width - 1 - arg)
                if len(bad) == width:
                    continue
                with pytest.raises(ValueError):
                    buffer.append(*bad)
            elif arg == "len":
                assert len(buffer) == len(reference)
                assert bool(buffer) == bool(len(reference))
            elif arg == "rows":
                assert np.array_equal(buffer.rows(), reference)
            elif arg == "column":
                for column in range(width):
                    assert np.array_equal(buffer.column(column),
                                          reference[:, column])
            elif arg == "iter":
                assert list(buffer) == [tuple(row) for row in reference]
            elif arg == "index" and len(reference):
                assert buffer[-1] == tuple(reference[-1])
                assert buffer[0] == tuple(reference[0])
            elif arg == "slice":
                assert buffer[1:] == [tuple(row) for row in reference[1:]]
            assert len(buffer._staged) < SampleBuffer.STAGE_ROWS
        assert np.array_equal(buffer.rows(), reference)

    def test_wrong_width_rejected_before_any_read(self):
        buffer = SampleBuffer(3)
        buffer.append(1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            buffer.append(1.0, 2.0)
        with pytest.raises(ValueError):
            buffer.append(1.0, 2.0, 3.0, 4.0)
        assert buffer.rows().tolist() == [[1.0, 2.0, 3.0]]

    def test_staging_flushes_at_the_threshold(self):
        buffer = SampleBuffer(2)
        for i in range(SampleBuffer.STAGE_ROWS - 1):
            buffer.append(float(i), 0.0)
        assert len(buffer._staged) == SampleBuffer.STAGE_ROWS - 1
        buffer.append(-1.0, 0.0)
        assert buffer._staged == []
        assert len(buffer) == SampleBuffer.STAGE_ROWS


class TestSampleBuffer:
    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError, match="column"):
            SampleBuffer(0)
        with pytest.raises(ValueError, match="capacity"):
            SampleBuffer(2, capacity=0)

    def test_appends_past_initial_capacity(self):
        """The buffer doubles transparently: appending far past the seed
        capacity keeps every row, in order."""
        buffer = SampleBuffer(2, capacity=2)
        for i in range(100):
            buffer.append(float(i), float(i) * 10.0)
        assert len(buffer) == 100
        assert buffer.rows().shape == (100, 2)
        assert list(buffer.column(0)) == [float(i) for i in range(100)]
        assert buffer[99] == (99.0, 990.0)

    def test_views_track_filled_rows_only(self):
        """rows()/column() expose exactly the appended rows, never the
        preallocated slack."""
        buffer = SampleBuffer(3, capacity=8)
        buffer.append(1.0, 2.0, 3.0)
        assert buffer.rows().shape == (1, 3)
        assert buffer.column(2).tolist() == [3.0]

    def test_reads_like_a_list_of_tuples(self):
        """The cursor-style readers that predate the buffer (autoscaler
        windows, worker-feed tests) treat it as a list of row tuples."""
        buffer = SampleBuffer(2)
        assert not buffer
        buffer.append(0.5, 1.5)
        buffer.append(2.5, 3.5)
        assert buffer
        assert len(buffer) == 2
        assert list(buffer) == [(0.5, 1.5), (2.5, 3.5)]
        assert buffer[0] == (0.5, 1.5)
        assert buffer[-1] == (2.5, 3.5)
        assert buffer[1:] == [(2.5, 3.5)]

    def test_columns_property(self):
        assert SampleBuffer(4).columns == 4

    def test_slicing_an_empty_buffer(self):
        """Slices of nothing are empty lists, never views of the
        preallocated slack."""
        buffer = SampleBuffer(2, capacity=4)
        assert buffer[:] == []
        assert buffer[0:10] == []
        assert buffer[-3:] == []

    def test_negative_indexing_matches_list_semantics(self):
        buffer = SampleBuffer(1, capacity=2)
        for i in range(3):
            buffer.append(float(i))
        assert buffer[-1] == (2.0,)
        assert buffer[-3] == (0.0,)
        assert buffer[-2:] == [(1.0,), (2.0,)]
        with pytest.raises(IndexError):
            buffer[-4]

    def test_growth_boundary_at_exact_capacity(self):
        """Filling to exactly the seed capacity must not grow the store;
        the next append doubles it and keeps every row.  Appends are
        staged, so each check reads the rows first to copy them in."""
        buffer = SampleBuffer(1, capacity=4)
        for i in range(4):
            buffer.append(float(i))
        assert len(buffer.rows()) == 4
        assert buffer._rows.shape[0] == 4  # still the seed allocation
        buffer.append(4.0)
        assert len(buffer.rows()) == 5
        assert buffer._rows.shape[0] == 8
        assert list(buffer.column(0)) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_extend_bulk_appends(self):
        buffer = SampleBuffer(2, capacity=2)
        buffer.append(0.0, 1.0)
        buffer.extend([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)])
        assert list(buffer) == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0),
                                (3.0, 4.0)]

    def test_extend_empty_batch_is_a_noop(self):
        buffer = SampleBuffer(2, capacity=2)
        buffer.extend([])
        assert len(buffer) == 0

    def test_extend_to_exact_capacity_does_not_grow(self):
        buffer = SampleBuffer(1, capacity=4)
        buffer.extend([(0.0,), (1.0,), (2.0,), (3.0,)])
        assert buffer._rows.shape[0] == 4
        assert len(buffer) == 4

    def test_extend_grows_past_multiple_doublings(self):
        buffer = SampleBuffer(1, capacity=2)
        buffer.extend([(float(i),) for i in range(17)])
        assert len(buffer) == 17
        assert buffer._rows.shape[0] == 32
        assert list(buffer.column(0)) == [float(i) for i in range(17)]

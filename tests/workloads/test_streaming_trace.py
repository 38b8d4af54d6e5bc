"""Bounded-memory regression tests for streaming gzip trace replay.

The contract under test (see :mod:`repro.workloads.tracefile`):

- replay is bit-identical to the recorded workload;
- memory stays bounded by the configured chunk window no matter how
  long the stream is (asserted on a multi-MB trace, and via an
  instrumented file object proving the reader never slurps the file);
- torn / truncated / corrupt traces raise :class:`TraceFormatError`
  with a message naming the position.
"""

from __future__ import annotations

import gzip
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.workloads.datacenter import ZipfKV
from repro.workloads.tracefile import (
    STREAM_FORMAT,
    StreamingTraceWorkload,
    TraceFormatError,
    load_stream_trace,
    write_stream_trace,
)


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """A 2000-round, 4-proc zipf trace plus its source workload."""
    path = tmp_path_factory.mktemp("traces") / "small.gz"
    wl = ZipfKV(4, seed=17, refs_per_proc=2_000, keyspace_items=512)
    rounds = write_stream_trace(wl, path)
    assert rounds == 2_000
    return path, wl


class CountingFile:
    """Binary file wrapper counting reads (proves chunked streaming)."""

    def __init__(self, path):
        self._f = open(path, "rb")
        self.n_reads = 0
        self.bytes_read = 0
        self.max_single_read = 0

    def read(self, size=-1):
        data = self._f.read(size)
        self.n_reads += 1
        self.bytes_read += len(data)
        self.max_single_read = max(self.max_single_read, len(data))
        return data

    def readable(self):
        return True

    def seekable(self):
        return False

    def close(self):
        self._f.close()

    @property
    def closed(self):
        return self._f.closed


class TestRoundTrip:
    def test_replay_identical_to_source(self, small_trace):
        path, wl = small_trace
        replay = load_stream_trace(path, chunk_refs=128, window_chunks=4)
        assert replay.n_procs == wl.n_procs
        assert replay.refs_per_proc() == 2_000
        assert replay.shared_base == wl.shared_base
        for index in range(2_000):
            for proc in range(4):
                assert replay.ref_at(proc, index) == wl.ref_at(proc, index)
        replay.close()

    def test_same_source_same_file(self, small_trace, tmp_path):
        """Trace writing is deterministic: same workload, same bytes."""
        path, wl = small_trace
        again = tmp_path / "again.gz"
        wl2 = ZipfKV(4, seed=17, refs_per_proc=2_000, keyspace_items=512)
        write_stream_trace(wl2, again)
        with gzip.open(path, "rb") as a, gzip.open(again, "rb") as b:
            assert a.read() == b.read()

    def test_workload_class_tag(self, small_trace):
        path, _ = small_trace
        replay = load_stream_trace(path)
        assert replay.workload_class == "datacenter"
        replay.close()

    def test_out_of_range_index(self, small_trace):
        path, _ = small_trace
        replay = load_stream_trace(path)
        with pytest.raises(IndexError):
            replay.ref_at(0, 2_000)
        replay.close()


class TestBoundedMemory:
    def test_multi_mb_trace_stays_bounded(self, tmp_path):
        """A trace whose decoded stream is multiple MB replays within a
        window worth of references."""
        path = tmp_path / "big.gz"
        wl = ZipfKV(8, seed=29, refs_per_proc=30_000, keyspace_items=4096)
        write_stream_trace(wl, path)
        # decoded payload: 30k rounds x 8 procs x ~11 text bytes > 2 MB
        with gzip.open(path, "rb") as f:
            decoded = sum(len(chunk) for chunk in iter(lambda: f.read(1 << 20), b""))
        assert decoded > 2 * 1024 * 1024
        chunk_refs, window_chunks = 512, 4
        replay = load_stream_trace(
            path, chunk_refs=chunk_refs, window_chunks=window_chunks
        )
        for index in range(30_000):
            replay.ref_at(index % 8, index)
        # the residency bound: at most window_chunks full chunks of
        # n_procs references each, ever
        assert replay.max_resident_refs <= window_chunks * chunk_refs * 8
        assert replay.max_resident_refs < 30_000 * 8 // 10
        assert replay.n_reopens == 0
        replay.close()

    def test_chunked_reads_via_instrumented_file(self, small_trace):
        """The reader pulls the file in many bounded reads, never one
        slurp — observed from the raw file object itself."""
        path, _ = small_trace
        counter = CountingFile(path)
        replay = StreamingTraceWorkload(
            opener=lambda: counter, chunk_refs=64, window_chunks=2
        )
        for index in range(2_000):
            replay.ref_at(0, index)
        assert counter.n_reads > 1
        assert counter.max_single_read < counter.bytes_read
        replay.close()
        assert counter.closed

    def test_rewind_within_window_is_free(self, small_trace):
        path, _ = small_trace
        replay = load_stream_trace(path, chunk_refs=100, window_chunks=4)
        for index in range(1_000):
            replay.ref_at(0, index)
        # rollback of < window_chunks * chunk_refs references
        for index in range(700, 1_000):
            replay.ref_at(0, index)
        assert replay.n_reopens == 0
        replay.close()

    def test_rewind_past_window_reopens(self, small_trace):
        path, wl = small_trace
        replay = load_stream_trace(path, chunk_refs=100, window_chunks=2)
        for index in range(2_000):
            replay.ref_at(0, index)
        assert replay.ref_at(0, 5) == wl.ref_at(0, 5)
        assert replay.n_reopens == 1
        # and the replay is still correct after the reopen
        for index in range(2_000):
            assert replay.ref_at(1, index) == wl.ref_at(1, index)
        replay.close()


def _write_gz_lines(path, lines):
    with gzip.open(path, "wt", encoding="ascii") as out:
        for line in lines:
            out.write(line + "\n")


class TestTornTraces:
    def test_torn_gzip_stream(self, small_trace, tmp_path):
        """A gzip file cut mid-stream raises TraceFormatError, not a
        bare zlib/EOF error."""
        path, _ = small_trace
        torn = tmp_path / "torn.gz"
        data = path.read_bytes()
        torn.write_bytes(data[: len(data) // 2])
        replay = load_stream_trace(torn)
        with pytest.raises(TraceFormatError, match="torn|truncated"):
            for index in range(replay.refs_per_proc()):
                replay.ref_at(0, index)
        replay.close()

    def test_truncated_rounds(self, tmp_path):
        """A well-formed gzip that ends before the declared round count
        names the round where the file ran out."""
        path = tmp_path / "short.gz"
        header = {"format": STREAM_FORMAT, "version": 1, "n_procs": 2,
                  "refs_per_proc": 100, "shared_base": 0}
        rounds = [f"1 0 {i} 1 0 {i}" for i in range(40)]
        _write_gz_lines(path, [json.dumps(header)] + rounds)
        replay = load_stream_trace(path, chunk_refs=32)
        with pytest.raises(TraceFormatError, match="round 40"):
            for index in range(100):
                replay.ref_at(0, index)
        replay.close()

    def test_torn_round_wrong_field_count(self, tmp_path):
        path = tmp_path / "fields.gz"
        header = {"format": STREAM_FORMAT, "version": 1, "n_procs": 2,
                  "refs_per_proc": 2, "shared_base": 0}
        _write_gz_lines(path, [json.dumps(header), "1 0 0 1 0 0", "1 0"])
        replay = load_stream_trace(path)
        with pytest.raises(TraceFormatError, match="round 1"):
            replay.ref_at(0, 1)
        replay.close()

    def test_corrupt_round_non_integer(self, tmp_path):
        path = tmp_path / "corrupt.gz"
        header = {"format": STREAM_FORMAT, "version": 1, "n_procs": 1,
                  "refs_per_proc": 1, "shared_base": 0}
        _write_gz_lines(path, [json.dumps(header), "1 0 xyz"])
        replay = load_stream_trace(path)
        with pytest.raises(TraceFormatError, match="corrupt"):
            replay.ref_at(0, 0)
        replay.close()

    def test_not_a_stream_trace(self, tmp_path):
        path = tmp_path / "other.gz"
        _write_gz_lines(path, [json.dumps({"format": "something-else"})])
        with pytest.raises(TraceFormatError, match=STREAM_FORMAT):
            load_stream_trace(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "vnext.gz"
        header = {"format": STREAM_FORMAT, "version": 99, "n_procs": 1,
                  "refs_per_proc": 1, "shared_base": 0}
        _write_gz_lines(path, [json.dumps(header)])
        with pytest.raises(TraceFormatError, match="version"):
            load_stream_trace(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.gz"
        with gzip.open(path, "wb"):
            pass
        with pytest.raises(TraceFormatError, match="empty"):
            load_stream_trace(path)

    def test_not_gzip_at_all(self, tmp_path):
        path = tmp_path / "plain.bin"
        path.write_bytes(b"this is not a gzip stream")
        with pytest.raises(TraceFormatError):
            load_stream_trace(path)

    def test_bad_header_types(self, tmp_path):
        path = tmp_path / "badhdr.gz"
        header = {"format": STREAM_FORMAT, "version": 1, "n_procs": "four",
                  "refs_per_proc": 1, "shared_base": 0}
        _write_gz_lines(path, [json.dumps(header)])
        with pytest.raises(TraceFormatError, match="n_procs"):
            load_stream_trace(path)


# -- arbitrary header and body bytes ------------------------------------

# fields are mostly well-formed, so every check of the header is reached
_header_fields = st.fixed_dictionaries({
    "format": st.sampled_from([STREAM_FORMAT] * 3 + ["repro-trace"]),
    "version": st.sampled_from([1, 1, 1, 2, "1"]),
    "n_procs": st.integers(1, 3) | st.sampled_from([-1, 0, True, "4"]),
    "refs_per_proc": st.integers(0, 5) | st.sampled_from([-1, 1.5, None]),
    "shared_base": st.none() | st.integers(0, 1 << 70)
    | st.sampled_from([-1, "x", 1.5]),
})
_headers = st.binary(max_size=64) | _header_fields.map(
    lambda h: json.dumps(h).encode()
)
_rounds = st.lists(
    st.lists(st.integers(-3, 1 << 40), max_size=10).map(
        lambda ints: " ".join(map(str, ints)).encode()
    ),
    max_size=6,
).map(b"\n".join)


@given(header=_headers, body=st.binary(max_size=96) | _rounds,
       form=st.sampled_from(["gzip", "gzip", "torn", "raw"]),
       cut=st.integers(1, 64))
@example(header=b"[" * 200_000, body=b"", form="gzip", cut=1)
@example(header=b"1" * 5_000, body=b"", form="gzip", cut=1)
@example(header=json.dumps({"format": STREAM_FORMAT, "version": 1,
                            "n_procs": 1, "refs_per_proc": 1,
                            "shared_base": "x"}).encode(),
         body=b"1 0 64", form="gzip", cut=1)
@settings(max_examples=300, deadline=None)
def test_arbitrary_trace_bytes_end_in_format_error_or_valid_workload(
    header, body, form, cut
):
    """Any file (intact gzip, gzip cut short by ``cut`` bytes, or raw
    bytes) is either refused with TraceFormatError, when opened or when
    a round is read, or replays as a well-formed workload."""
    data = header + b"\n" + body
    if form != "raw":
        data = gzip.compress(data)
    if form == "torn":
        data = data[:-cut]
    try:
        replay = StreamingTraceWorkload(opener=lambda: io.BytesIO(data),
                                        chunk_refs=2, window_chunks=1)
    except TraceFormatError:
        return
    try:
        assert replay.n_procs >= 1 and replay.refs_per_proc() >= 0
        base = replay.shared_base
        assert base is None or (type(base) is int and base >= 0)
        for index in range(min(replay.refs_per_proc(), 8)):
            for proc in range(min(replay.n_procs, 4)):
                ref = replay.ref_at(proc, index)
                assert type(ref.think) is int and type(ref.addr) is int
    except TraceFormatError:
        pass
    finally:
        replay.close()

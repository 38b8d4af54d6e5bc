"""Wire framing: round trips, torn frames, hostile length prefixes."""

from __future__ import annotations

import json
import socket
import struct
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.distributed.framing import (
    ConnectionClosed,
    FrameError,
    FrameWriter,
    MAX_FRAME_BYTES,
    encode_frame,
    recv_frame,
    send_frame,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def test_round_trip_single_frame(pair):
    left, right = pair
    message = {"type": "task", "payload": {"x": [1, 2, 3], "s": "héllo"}}
    send_frame(left, message)
    assert recv_frame(right) == message


def test_round_trip_many_frames_preserves_order(pair):
    left, right = pair
    messages = [{"i": i, "body": "x" * i} for i in range(50)]
    for message in messages:
        send_frame(left, message)
    assert [recv_frame(right) for _ in messages] == messages


def test_clean_close_raises_connection_closed(pair):
    left, right = pair
    left.close()
    with pytest.raises(ConnectionClosed):
        recv_frame(right)


def test_torn_length_prefix_is_frame_error(pair):
    left, right = pair
    left.sendall(b"\x00\x00")  # half a length header, then EOF
    left.close()
    with pytest.raises(FrameError, match="torn"):
        recv_frame(right)


def test_torn_body_is_frame_error(pair):
    left, right = pair
    frame = encode_frame({"k": "v" * 100})
    left.sendall(frame[: len(frame) - 10])
    left.close()
    with pytest.raises(FrameError, match="torn"):
        recv_frame(right)


def test_oversized_length_prefix_is_frame_error(pair):
    left, right = pair
    left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
    with pytest.raises(FrameError, match="exceeds"):
        recv_frame(right)


def test_garbage_body_is_frame_error(pair):
    left, right = pair
    body = b"\xff\xfenot json at all"
    left.sendall(struct.pack(">I", len(body)) + body)
    with pytest.raises(FrameError, match="not valid JSON"):
        recv_frame(right)


def test_non_object_json_body_is_frame_error(pair):
    left, right = pair
    body = json.dumps([1, 2, 3]).encode()
    left.sendall(struct.pack(">I", len(body)) + body)
    with pytest.raises(FrameError, match="expected object"):
        recv_frame(right)


def test_encode_refuses_oversized_frame():
    with pytest.raises(FrameError, match="exceeds"):
        encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


def test_frame_writer_serializes_concurrent_sends(pair):
    """Frames from many threads never interleave on the wire."""
    left, right = pair
    writer = FrameWriter(left)
    n_threads, per_thread = 8, 25

    def blast(tid: int) -> None:
        for i in range(per_thread):
            writer.send({"tid": tid, "i": i, "pad": "p" * (7 * i % 97)})

    threads = [threading.Thread(target=blast, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    received = [recv_frame(right) for _ in range(n_threads * per_thread)]
    for thread in threads:
        thread.join()
    # every frame decoded intact, and per-thread order held
    by_tid: dict[int, list[int]] = {}
    for message in received:
        by_tid.setdefault(message["tid"], []).append(message["i"])
    assert set(by_tid) == set(range(n_threads))
    for order in by_tid.values():
        assert order == sorted(order)


# -- arbitrary bytes on the wire ----------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
#: well-formed frames of any JSON value (objects, and the non-objects
#: a frame must refuse), to interleave with raw bytes
_frames = _json_values.map(
    lambda v: (lambda body: struct.pack(">I", len(body)) + body)(
        json.dumps(v).encode()
    )
)


@given(st.lists(st.binary(max_size=48) | _frames, max_size=6).map(b"".join))
@example(struct.pack(">I", 200_000) + b"[" * 200_000)
@example(struct.pack(">I", 5_000) + b"1" * 5_000)
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_end_in_a_dict_or_a_classified_error(data):
    """Whatever a peer sends, every read ends as a dict, a clean
    ConnectionClosed or a FrameError: nothing else may escape the
    coordinator's reader thread."""
    left, right = socket.socketpair()

    def send() -> None:
        try:
            left.sendall(data)
            left.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the reader dropped the stream on a FrameError

    sender = threading.Thread(target=send)
    sender.start()
    try:
        while True:
            try:
                message = recv_frame(right)
            except (ConnectionClosed, FrameError):
                break
            assert isinstance(message, dict)
    finally:
        right.close()
        sender.join(timeout=10)
        left.close()
    assert not sender.is_alive()

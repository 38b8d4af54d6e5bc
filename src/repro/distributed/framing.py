"""Length-prefixed JSON framing over a stream socket.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON.  The framing layer is deliberately dumb:
it moves one JSON-able dict at a time and reports exactly three ways a
stream can lie to you —

- :class:`ConnectionClosed`: the peer closed (or died) cleanly at a
  frame boundary.  This is the *normal* end of a conversation and the
  coordinator's primary worker-death signal on localhost.
- :class:`FrameError`: the stream is unusable — a torn frame (EOF in
  the middle of a length or body), an oversized length prefix (either a
  hostile peer or a desynchronized stream: random bytes read as a
  length are almost always enormous), or a body that is not valid JSON
  (nested too deeply to decode included).
  After a ``FrameError`` the connection must be dropped; there is no
  way to resynchronize a length-prefixed stream.

Writers never interleave: callers that share a socket between threads
serialize sends through :class:`FrameWriter`, which owns a lock.
"""

from __future__ import annotations

import json
import socket
import struct
import threading

#: Frames above this are refused on both send and receive.  A campaign
#: cell result is a few KB; the largest legitimate frame (a full
#: RunResult for a big machine) is well under a megabyte, so 64 MiB is
#: pure headroom while still rejecting a desynchronized stream reading
#: garbage as a length (uniformly random 4 bytes exceed this 98.4% of
#: the time, and the JSON parse catches the rest).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(RuntimeError):
    """The stream violated the framing protocol; drop the connection."""


class ConnectionClosed(ConnectionError):
    """The peer closed the stream at a frame boundary."""


def encode_frame(message: dict) -> bytes:
    """Serialize one message to its on-wire form."""
    body = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(body)) + body


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int, *, mid_frame: bool) -> bytes:
    """Read exactly ``n`` bytes or classify why we could not."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, BrokenPipeError) as exc:
            if mid_frame or chunks:
                raise FrameError(f"connection reset mid-frame: {exc}") from exc
            raise ConnectionClosed("connection reset") from exc
        if not chunk:
            if mid_frame or chunks:
                raise FrameError(
                    f"torn frame: stream ended {remaining} byte(s) short"
                )
            raise ConnectionClosed("peer closed the stream")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one complete frame; raises :class:`ConnectionClosed` at a
    clean boundary and :class:`FrameError` on any protocol violation."""
    header = _recv_exact(sock, _LENGTH.size, mid_frame=False)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES} "
            "(desynchronized or hostile stream)"
        )
    body = _recv_exact(sock, length, mid_frame=True)
    try:
        message = json.loads(body)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, bad UTF-8 or an over-long integer;
        # RecursionError: nesting deeper than the decoder's stack
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(f"frame body is {type(message).__name__}, expected object")
    return message


class FrameWriter:
    """Thread-safe frame sender for a shared socket.

    Worker daemons send results from pool-completion callback threads
    while the reader thread answers pings; the lock guarantees frames
    never interleave on the wire.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._lock = threading.Lock()

    def send(self, message: dict) -> None:
        with self._lock:
            send_frame(self._sock, message)

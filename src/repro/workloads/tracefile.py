"""Trace persistence: streaming gzip trace replay.

Complements :mod:`repro.workloads.traces`: a recorded workload can be
stored and replayed later — the file-based analogue of the paper's
Abstract Execution trace files.

The on-disk format (**stream trace, version 1**) is a gzip-compressed
text file whose first line is a JSON header and whose remaining lines
carry one reference *round* each (all processes' reference ``i`` on
line ``i``, as ``think is_write addr`` integer triples).  Index-major
layout matches how the simulator consumes streams — processes advance
in near lockstep — so a single forward reader serves every process.
:class:`StreamingTraceWorkload` replays such a file in **bounded
memory**: it decodes in chunks of ``chunk_refs`` rounds, keeps at most
``window_chunks`` chunks resident (enough to cover checkpoint-rollback
rewinds), and re-opens + skips forward on the rare rewind past the
window instead of ever holding the whole stream.  Torn, truncated or
malformed files raise :class:`TraceFormatError` with the offending
position.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import BinaryIO, Callable

from repro.workloads.base import Reference, Workload

#: Header ``format`` tag of the streaming gzip trace format.
STREAM_FORMAT = "repro-stream-trace"
STREAM_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file is malformed, torn, or truncated."""


def write_stream_trace(
    workload: Workload,
    path: str | Path,
    max_refs_per_proc: int | None = None,
) -> int:
    """Stream a workload into a gzip trace file, one round per line.

    Never materializes the reference stream: rounds are generated and
    written one at a time.  Returns the number of rounds written.
    """
    n = workload.refs_per_proc()
    if max_refs_per_proc is not None:
        n = min(n, max_refs_per_proc)
    header = {
        "format": STREAM_FORMAT,
        "version": STREAM_VERSION,
        "n_procs": workload.n_procs,
        "refs_per_proc": n,
        "shared_base": workload.shared_base,
    }
    with gzip.open(path, "wt", encoding="ascii") as out:
        out.write(json.dumps(header, sort_keys=True) + "\n")
        for index in range(n):
            parts = []
            for proc in range(workload.n_procs):
                ref = workload.ref_at(proc, index)
                parts.append(f"{ref.think} {int(ref.is_write)} {ref.addr}")
            out.write(" ".join(parts) + "\n")
    return n


class StreamingTraceWorkload(Workload):
    """Replay a gzip stream trace in bounded memory.

    ``ref_at`` is served from an LRU window of decoded chunks
    (``chunk_refs`` rounds each, at most ``window_chunks`` resident):
    forward progress decodes new chunks and evicts the oldest; a rewind
    past the window — possible only when a rollback is longer than the
    retained history — re-opens the file and skips forward
    (``n_reopens`` counts these).  ``max_resident_refs`` records the
    peak number of decoded references ever held, which the regression
    suite asserts stays far below the stream length.

    Fault-model interaction: the replayed references carry whatever
    sharing pattern the recorded workload had; rollback support is what
    the window is for — size ``window_chunks * chunk_refs`` to exceed
    the checkpoint period (in references) to keep recovery off the
    reopen path.

    ``opener`` (a zero-argument callable returning a fresh *binary*
    file object for the trace) exists for instrumentation and
    non-filesystem sources; the default opens ``path``.
    """

    name = "stream-trace"
    workload_class = "datacenter"

    def __init__(
        self,
        path: str | Path | None = None,
        chunk_refs: int = 1024,
        window_chunks: int = 4,
        opener: Callable[[], BinaryIO] | None = None,
        **kw,
    ):
        if path is None and opener is None:
            raise ValueError("need a trace path or an opener")
        if chunk_refs < 1 or window_chunks < 1:
            raise ValueError("chunk_refs and window_chunks must be positive")
        self._path = Path(path) if path is not None else None
        self._opener = opener or (lambda: open(self._path, "rb"))
        self.chunk_refs = chunk_refs
        self.window_chunks = window_chunks
        # instrumentation (read by the bounded-memory regression tests)
        self.n_reopens = 0
        self.max_resident_refs = 0
        self._raw: BinaryIO | None = None
        self._reader: io.TextIOWrapper | None = None
        self._next_index = 0            # next round the reader will yield
        self._chunks: OrderedDict[int, list[list[Reference]]] = OrderedDict()
        header = self._read_header()
        super().__init__(n_procs=header["n_procs"], **kw)
        self._n_refs = header["refs_per_proc"]
        self.shared_base = header["shared_base"]

    # -- file plumbing ---------------------------------------------------

    def _open_reader(self) -> dict:
        """(Re)open the trace from the top; returns the parsed header."""
        self.close()
        try:
            self._raw = self._opener()
            self._reader = io.TextIOWrapper(
                gzip.GzipFile(fileobj=self._raw, mode="rb"), encoding="ascii"
            )
        except (OSError, EOFError, zlib.error) as exc:
            raise TraceFormatError(f"cannot open stream trace: {exc}") from exc
        self._next_index = 0
        try:
            return self._header_line()
        except TraceFormatError:
            self.close()  # a refused trace leaves no file open
            raise

    def _header_line(self) -> dict:
        line = self._read_line("header")
        if line is None:
            raise TraceFormatError("empty stream trace (no header line)")
        try:
            header = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON or an over-long integer;
            # RecursionError: nesting deeper than the decoder's stack
            raise TraceFormatError(f"malformed stream-trace header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != STREAM_FORMAT:
            raise TraceFormatError(
                f"not a {STREAM_FORMAT} file (header {str(line)[:60]!r})"
            )
        if header.get("version") != STREAM_VERSION:
            raise TraceFormatError(
                f"unsupported stream-trace version {header.get('version')!r}"
            )
        n_procs = header.get("n_procs")
        refs = header.get("refs_per_proc")
        if not isinstance(n_procs, int) or n_procs < 1:
            raise TraceFormatError(f"bad n_procs {n_procs!r} in header")
        if not isinstance(refs, int) or refs < 0:
            raise TraceFormatError(f"bad refs_per_proc {refs!r} in header")
        base = header.get("shared_base")
        if base is not None and (not isinstance(base, int) or base < 0):
            raise TraceFormatError(f"bad shared_base {base!r} in header")
        return {"n_procs": n_procs, "refs_per_proc": refs, "shared_base": base}

    def _read_header(self) -> dict:
        return self._open_reader()

    def _read_line(self, what: str) -> str | None:
        try:
            line = self._reader.readline()
        except (EOFError, zlib.error, OSError) as exc:
            raise TraceFormatError(
                f"torn stream trace while reading {what}: {exc}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"corrupt stream trace while reading {what}: {exc}"
            ) from exc
        return line if line else None

    def close(self) -> None:
        """Release the underlying file handles (idempotent)."""
        for handle in (self._reader, self._raw):
            if handle is not None:
                try:
                    handle.close()
                except (OSError, EOFError, zlib.error):
                    pass  # a torn tail may fail its CRC check on close
        self._reader = None
        self._raw = None

    # -- chunked decoding ------------------------------------------------

    def _parse_round(self, line: str, index: int) -> list[Reference]:
        fields = line.split()
        if len(fields) != 3 * self.n_procs:
            raise TraceFormatError(
                f"torn stream trace at round {index}: expected "
                f"{3 * self.n_procs} fields, found {len(fields)}"
            )
        try:
            ints = [int(f) for f in fields]
        except ValueError as exc:
            raise TraceFormatError(
                f"corrupt stream trace at round {index}: {exc}"
            ) from exc
        return [
            Reference(think=ints[3 * p], is_write=bool(ints[3 * p + 1]),
                      addr=ints[3 * p + 2])
            for p in range(self.n_procs)
        ]

    def _note_residency(self, partial: int = 0) -> None:
        resident = (
            sum(len(rows) for rows in self._chunks.values()) + partial
        ) * self.n_procs
        if resident > self.max_resident_refs:
            self.max_resident_refs = resident

    def _load_chunk(self, chunk: int) -> list[list[Reference]]:
        cached = self._chunks.get(chunk)
        if cached is not None:
            self._chunks.move_to_end(chunk)
            return cached
        first = chunk * self.chunk_refs
        if first < self._next_index or self._reader is None:
            # rewound past the retained window: restart the stream
            self._chunks.clear()
            self._open_reader()
            self.n_reopens += 1
        # skip rounds before the target chunk without retaining them
        while self._next_index < first:
            line = self._read_line(f"round {self._next_index}")
            if line is None:
                raise TraceFormatError(
                    f"truncated stream trace: expected {self._n_refs} rounds, "
                    f"file ends at round {self._next_index}"
                )
            self._next_index += 1
        # make room first so peak residency never exceeds the window
        while len(self._chunks) >= self.window_chunks:
            self._chunks.popitem(last=False)
        # decode the target chunk
        rows: list[list[Reference]] = []
        last = min(first + self.chunk_refs, self._n_refs)
        while self._next_index < last:
            line = self._read_line(f"round {self._next_index}")
            if line is None:
                raise TraceFormatError(
                    f"truncated stream trace: expected {self._n_refs} rounds, "
                    f"file ends at round {self._next_index}"
                )
            rows.append(self._parse_round(line, self._next_index))
            self._next_index += 1
            self._note_residency(partial=len(rows))
        self._chunks[chunk] = rows
        self._note_residency()
        return rows

    # -- workload surface ------------------------------------------------

    def refs_per_proc(self) -> int:
        return self._n_refs

    def ref_at(self, proc: int, index: int) -> Reference:
        if not 0 <= index < self._n_refs:
            raise IndexError(f"round {index} outside trace of {self._n_refs}")
        rows = self._load_chunk(index // self.chunk_refs)
        return rows[index % self.chunk_refs][proc]


def load_stream_trace(
    path: str | Path,
    chunk_refs: int = 1024,
    window_chunks: int = 4,
) -> StreamingTraceWorkload:
    """Open a gzip stream trace for bounded-memory replay."""
    return StreamingTraceWorkload(
        path, chunk_refs=chunk_refs, window_chunks=window_chunks
    )

"""``repro worker`` — the task-executing daemon.

A worker daemon listens on one TCP address and serves coordinators one
connection at a time (later connect attempts wait in the listen
backlog).  Per connection: a handshake (protocol + repro version must
both match), then a stream of ``task`` frames, each resolved against
the :data:`~repro.distributed.protocol.TASK_KINDS` allowlist and
executed in a local ``ProcessPoolExecutor`` — the *same* entry points
the single-host pool uses, so a cell computes bit-identically whichever
host ran it.  Results stream back in completion order; pings are
answered inline by the reader thread, so heartbeats stay honest even
while every slot is busy simulating.

Failure containment mirrors the local executor: a cell that raises
reports a per-task ``result{ok: false}``; a cell that *kills* its pool
process (``BrokenProcessPool``) fails that task and rebuilds the pool;
a framing violation or handshake mismatch drops the connection; only
``shutdown`` (or a signal) ends the daemon.

``max_tasks`` is the built-in chaos knob for the fault-tolerance tests
and the CI smoke job: after serving that many results the daemon
hard-exits (``os._exit``) the moment the next task lands — from the
coordinator's view, a worker SIGKILLed with a cell in flight.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.distributed import framing, protocol
from repro.distributed.framing import ConnectionClosed, FrameError, FrameWriter
from repro.orch.executor import shutdown_pool


def _execute_task(kind: str, payload: dict) -> dict:
    """Pool-process entry point: resolve the kind and run the cell."""
    entry = protocol.resolve_kind(kind)
    t0 = time.perf_counter()
    value = entry(payload)
    return {"value": value, "wall_seconds": time.perf_counter() - t0}


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-process initializer: exit once the daemon is gone.  A
    SIGKILLed daemon cannot shut its pool down, and an idle pool process
    never sees EOF on its call queue (it holds the write end too), so it
    watches its parent pid instead."""

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class WorkerDaemon:
    """One ``repro worker`` process."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        slots: int = 1,
        max_tasks: int | None = None,
        token: str | None = None,
        log=None,
    ):
        if slots < 1:
            raise ValueError("a worker needs at least one slot")
        self.host = host
        self.port = port
        self.slots = slots
        self.max_tasks = max_tasks
        self.token = token
        self._log = log or (lambda _msg: None)
        self._listener: socket.socket | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._served = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "WorkerDaemon":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)`` (the
        kernel picks the port when constructed with ``port=0``)."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(8)
        self._listener = listener
        self.port = listener.getsockname()[1]
        return self.host, self.port

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        self._shutdown_pool()

    def _shutdown_pool(self) -> None:
        """Tear the pool down without waiting on abandoned work."""
        pool, self._pool = self._pool, None
        if pool is not None:
            shutdown_pool(pool)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.slots,
                initializer=_exit_with_parent, initargs=(os.getpid(),),
            )
        return self._pool

    # -- serving --------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept coordinators until closed or ``shutdown`` is received."""
        if self._listener is None:
            self.start()
        self._log(
            f"repro worker listening on {self.host}:{self.port} "
            f"(slots={self.slots}, pid={os.getpid()})"
        )
        try:
            while not self._closed:
                try:
                    conn, peer = self._listener.accept()
                except OSError:
                    break  # listener closed under us
                try:
                    keep_going = self._serve_connection(conn, peer)
                finally:
                    try:
                        conn.close()
                    except OSError:
                        pass
                if not keep_going:
                    break
        finally:
            self.close()

    def serve_one(self) -> bool:
        """Serve exactly one coordinator connection (test harness hook);
        returns False when that coordinator sent ``shutdown``."""
        if self._listener is None:
            self.start()
        conn, peer = self._listener.accept()
        try:
            return self._serve_connection(conn, peer)
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _serve_connection(self, conn: socket.socket, peer) -> bool:
        """One coordinator conversation; returns False on ``shutdown``."""
        writer = FrameWriter(conn)
        try:
            protocol.check_hello(framing.recv_frame(conn), token=self.token)
            writer.send(protocol.welcome(
                slots=self.slots, pid=os.getpid(), token=self.token
            ))
        except (ConnectionClosed, FrameError, protocol.ProtocolError, OSError) as exc:
            self._log(f"handshake with {peer} failed: {exc}")
            return True
        self._log(f"coordinator {peer} connected")

        inflight: dict[int, Future] = {}
        try:
            while True:
                try:
                    message = framing.recv_frame(conn)
                except ConnectionClosed:
                    self._log(f"coordinator {peer} disconnected")
                    return True
                except (FrameError, OSError) as exc:
                    self._log(f"dropping {peer}: {exc}")
                    return True
                kind = message.get("type")
                if kind == "ping":
                    try:
                        writer.send(protocol.pong(message.get("t", 0.0)))
                    except OSError:
                        return True
                elif kind == "task":
                    self._accept_task(message, writer, inflight)
                elif kind == "shutdown":
                    self._log("shutdown requested")
                    return False
                else:
                    self._log(f"ignoring unknown frame type {kind!r} from {peer}")
        finally:
            # a vanished coordinator must not leave cells grinding in
            # the pool: abandon them and rebuild lazily on reconnect
            if inflight:
                self._shutdown_pool()

    def _accept_task(self, message: dict, writer: FrameWriter,
                     inflight: dict[int, Future]) -> None:
        task_id = message.get("task_id")
        if self.max_tasks is not None and self._served >= self.max_tasks:
            # chaos knob: die hard with this task in flight
            self._log(
                f"max-tasks={self.max_tasks} reached; hard-exiting with "
                f"task {task_id} unanswered"
            )
            self._shutdown_pool()
            os._exit(2)
        if not isinstance(task_id, int) or not isinstance(message.get("payload"), dict):
            self._log(f"malformed task frame {message!r}")
            return
        kind = message.get("kind", "")
        try:
            future = self._ensure_pool().submit(
                _execute_task, kind, message["payload"]
            )
        except (BrokenProcessPool, RuntimeError, OSError) as exc:
            self._send_error(writer, inflight, task_id, f"pool unavailable: {exc}")
            return
        inflight[task_id] = future
        submitted = time.perf_counter()
        future.add_done_callback(
            lambda fut: self._finish_task(fut, writer, inflight, task_id, submitted)
        )

    def _finish_task(self, future: Future, writer: FrameWriter,
                     inflight: dict[int, Future], task_id: int,
                     submitted: float) -> None:
        inflight.pop(task_id, None)
        wall = time.perf_counter() - submitted
        try:
            outcome = future.result()
        except BrokenProcessPool:
            # the cell killed its pool process; contain and rebuild
            self._shutdown_pool()
            self._send_error(writer, inflight, task_id,
                             "worker pool process died executing the cell",
                             wall)
            return
        except Exception as exc:  # noqa: BLE001 — per-task error, not a crash
            self._send_error(writer, inflight, task_id,
                             f"{type(exc).__name__}: {exc}", wall)
            return
        self._served += 1
        try:
            writer.send(protocol.result_ok(
                task_id, outcome["value"], outcome["wall_seconds"]
            ))
        except (OSError, FrameError):
            pass  # coordinator gone; reassignment is its problem

    def _send_error(self, writer: FrameWriter, inflight: dict[int, Future],
                    task_id: int, error: str, wall: float = 0.0) -> None:
        inflight.pop(task_id, None)
        try:
            writer.send(protocol.result_error(task_id, error, wall))
        except (OSError, FrameError):
            pass

"""A scripted in-process worker daemon for coordinator tests.

A :class:`FakeWorker` thread speaks the wire protocol and misbehaves on
cue.  The payloads never execute anywhere; the fake just echoes them
back, which is all the coordinator can observe anyway.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.distributed import framing, protocol
from repro.distributed.framing import ConnectionClosed, FrameError


class FakeWorker(threading.Thread):
    """A scripted worker daemon: one connection, one behaviour.

    Modes: ``good`` answers everything; ``slow`` answers everything
    after a short think; ``silent`` handshakes then never replies
    (heartbeat-miss fodder); ``die-on-task`` drops the connection upon
    its first task (EOF with the cell in flight); ``always-error``
    answers every task with ``ok: false``; ``flaky`` fails its first
    task and answers the rest; ``late`` holds its first task until the
    same payload is sent again (the retry after a timeout), then answers
    the held task with a stale ``{"stale": payload}`` before answering
    the new one.
    """

    def __init__(self, mode: str = "good", slots: int = 1, port: int = 0):
        super().__init__(daemon=True)
        self.mode = mode
        self.slots = slots
        self.tasks_seen = 0
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", port))
        self.listener.listen(1)
        self.addr = self.listener.getsockname()

    def close(self) -> None:
        try:
            self.listener.close()
        except OSError:
            pass

    def run(self) -> None:  # noqa: C901 — a script, one branch per cue
        try:
            conn, _peer = self.listener.accept()
        except OSError:
            return
        held = None
        try:
            protocol.check_hello(framing.recv_frame(conn))
            framing.send_frame(
                conn, protocol.welcome(slots=self.slots, pid=os.getpid())
            )
            while True:
                message = framing.recv_frame(conn)
                if self.mode == "silent":
                    continue
                mtype = message.get("type")
                if mtype == "ping":
                    framing.send_frame(conn, protocol.pong(message["t"]))
                elif mtype == "task":
                    self.tasks_seen += 1
                    task_id, payload = message["task_id"], message["payload"]
                    if self.mode == "die-on-task":
                        conn.close()
                        return
                    if self.mode == "slow":
                        time.sleep(0.05)
                    if self.mode == "late":
                        if held is None:
                            held = message
                            continue
                        if held["payload"] == payload:
                            framing.send_frame(conn, protocol.result_ok(
                                held["task_id"], {"stale": payload}, 0.01
                            ))
                    if self.mode == "always-error" or (
                        self.mode == "flaky" and self.tasks_seen == 1
                    ):
                        framing.send_frame(conn, protocol.result_error(
                            task_id, "scripted failure", 0.01
                        ))
                    else:
                        framing.send_frame(conn, protocol.result_ok(
                            task_id, {"echo": payload}, 0.01
                        ))
                elif mtype == "shutdown":
                    return
        except (ConnectionClosed, FrameError, OSError,
                protocol.ProtocolError):
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass


def spawn_fakes(*modes: str, slots: int = 1) -> list[FakeWorker]:
    """Start one :class:`FakeWorker` per mode; close them when done."""
    workers = [FakeWorker(mode=mode, slots=slots) for mode in modes]
    for worker in workers:
        worker.start()
    return workers

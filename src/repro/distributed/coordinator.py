"""The socket transport: cells on worker daemons over TCP.

:class:`Coordinator` is a transport for the one scheduling core,
:func:`repro.orch.executor.schedule`, which also drives the local
process pool.  Retry, timeout, reassignment and the in-process fallback
are the core's; so the orchestrator and the campaign runner consume the
same :class:`~repro.orch.executor.TaskOutcome` stream under either
executor, and their store-before-journal crash discipline (and
therefore ``--resume``) holds under both.

What the transport owns is connection and liveness:

- **connect**: every worker is dialled at once, with bounded, backed-off
  redials (daemons may start after the coordinator).  Dispatch starts
  with the first wave; a straggler joins mid-run.  Nobody reachable is
  a :class:`DispatchError` up front.
- **place**: each attempt goes to the least-loaded live worker, tagged
  with the core's attempt id, so a late answer is recognisably stale.
- **lose**: socket EOF/reset, a framing error or ``heartbeat_misses``
  consecutive missed pongs mark a worker dead and report its in-flight
  attempts stranded.  Every worker dead is the core's "all workers
  lost" case.

Exactly-once *effects* come for free from content addressing: a cell
reassigned after an answer was lost in flight recomputes the same
deterministic result under the same key, and the store's atomic
same-content write makes the duplicate harmless.

One reader thread per worker turns the socket into events on a queue;
the scheduling thread owns all registry state and all sends.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.distributed import framing, protocol
from repro.distributed.framing import ConnectionClosed, FrameError
from repro.distributed.registry import WorkerHandle, WorkerRegistry, WorkerState
from repro.orch.executor import DispatchError, schedule

#: Everything a dial, handshake or conversation can fail with.
_WIRE_ERRORS = (OSError, ConnectionClosed, FrameError, protocol.ProtocolError)


def _shutdown_close(sock: socket.socket) -> None:
    """Half-close then close, waking any thread blocked in ``recv``.

    A bare ``close()`` while this process's reader thread is parked in
    ``recv`` on the same socket never reaches the kernel-side close (the
    blocked syscall pins the open file), so no FIN is sent and the peer
    waits forever.  ``shutdown`` sends the FIN immediately and unblocks
    the reader.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


@dataclass
class DispatchStats:
    """What one coordinator run did, for reports and the dashboard."""

    n_workers: int = 0
    connected: int = 0
    completed: int = 0
    failed: int = 0
    reassignments: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    retries: int = 0
    local_fallback_cells: int = 0
    workers: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


class Coordinator:
    """Shards one batch of payloads across the configured workers."""

    mode = "distributed"

    def __init__(
        self,
        addrs: list[tuple[str, int]],
        task_timeout: float | None = None,
        max_retries: int = 1,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
        connect_timeout: float = 5.0,
        connect_retries: int = 5,
        connect_backoff: float = 0.3,
        local_fallback: bool = True,
        token: str | None = None,
        log=None,
    ):
        if not addrs:
            raise DispatchError("a coordinator needs at least one worker address")
        if connect_retries < 1:
            raise DispatchError("connect_retries must be at least 1")
        self.registry = WorkerRegistry(addrs)
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.connect_timeout = connect_timeout
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.local_fallback = local_fallback
        self.token = token
        self.stats = DispatchStats(n_workers=len(addrs))
        self._log = log or (lambda _msg: None)
        self._events: queue.Queue = queue.Queue()
        self._sockets: dict[int, socket.socket] = {}  # id(worker) -> sock
        self._writers: dict[int, framing.FrameWriter] = {}
        self._stranded: list[int] = []  # attempt ids of workers lost since the last poll
        self._kind = ""
        self._last_heartbeat = 0.0
        self._lock = threading.Lock()  # guards snapshot() vs dispatch mutation

    # -- observability ---------------------------------------------------

    def snapshot(self) -> dict:
        """Thread-safe view for ``repro serve``'s worker table."""
        with self._lock:
            stats = self.stats.to_dict()
            stats["workers"] = self.registry.snapshot()
        return stats

    def _note(self, counter: str, n: int = 1) -> None:
        """The scheduling core's decision counter hook."""
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)
        if counter == "local_fallback_cells":
            self._log(f"all workers dead; finishing {n} cell(s) serially in-process")

    # -- connection management -------------------------------------------

    def _connect_budget(self) -> float:
        """Worst-case seconds one worker's whole dial loop can take
        (every attempt times out, every backoff is slept)."""
        backoff = sum(
            self.connect_backoff * (2 ** i)
            for i in range(self.connect_retries - 1)
        )
        return self.connect_retries * self.connect_timeout + backoff

    def _connect_all(self) -> None:
        threads = []
        for worker in self.registry:
            thread = threading.Thread(
                target=self._connect_one, args=(worker,),
                name=f"connect-{worker.name}", daemon=True,
            )
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(self._connect_budget() + 1.0)

    def _connect_one(self, worker: WorkerHandle) -> None:
        """Dial one worker, retrying with exponential backoff.

        Coordinator and daemons may start in any order: a refused dial
        usually means the daemon is not listening *yet*, so within a
        bounded budget a failed attempt is deferral, not death.
        """
        backoff = self.connect_backoff
        for attempt in range(1, self.connect_retries + 1):
            try:
                sock = socket.create_connection(
                    worker.addr, timeout=self.connect_timeout
                )
                sock.settimeout(None)
                framing.send_frame(sock, protocol.hello(token=self.token))
                welcome = protocol.check_welcome(
                    framing.recv_frame(sock), token=self.token
                )
            except _WIRE_ERRORS as exc:
                if attempt < self.connect_retries:
                    self._log(
                        f"worker {worker.name} not ready "
                        f"(attempt {attempt}/{self.connect_retries}: {exc}); "
                        f"retrying in {backoff:.1f}s"
                    )
                    time.sleep(backoff)
                    backoff *= 2
                    continue
                self._events.put((
                    "dead", worker,
                    f"connect failed after {attempt} attempt(s): {exc}",
                ))
                return
            self._events.put(("welcome", worker, welcome, sock))
            return

    def _await_first_wave(self) -> None:
        """Connect, then wait until every dial has landed or, once the
        first wave is up, no longer: a straggler still inside its retry
        loop joins the pool mid-run through :meth:`poll`."""
        self._connect_all()
        self._last_heartbeat = time.monotonic()
        deadline = time.monotonic() + self._connect_budget()
        first_wave = time.monotonic() + self.connect_timeout
        while time.monotonic() < deadline:
            if not any(w.state is WorkerState.CONNECTING for w in self.registry):
                break
            if self.registry.up() and time.monotonic() >= first_wave:
                break
            self._drain(0.05)
        if not self.registry.up():
            reasons = ", ".join(
                f"{w.name}: {w.death_reason or 'still dialling'}"
                for w in self.registry
            )
            raise DispatchError(f"no worker reachable ({reasons})")

    def _start_reader(self, worker: WorkerHandle, sock: socket.socket) -> None:
        def read_loop() -> None:
            while True:
                try:
                    message = framing.recv_frame(sock)
                except ConnectionClosed as exc:
                    self._events.put(("dead", worker, str(exc)))
                    return
                except (FrameError, OSError) as exc:
                    self._events.put(("dead", worker, f"stream error: {exc}"))
                    return
                self._events.put(("frame", worker, message))

        threading.Thread(
            target=read_loop, name=f"reader-{worker.name}", daemon=True
        ).start()

    def _drop_worker(self, worker: WorkerHandle, reason: str) -> None:
        if worker.state is WorkerState.DEAD:
            return
        with self._lock:
            stranded = worker.mark_dead(reason)
            self.stats.worker_deaths += 1
        self._log(f"worker {worker.name} lost ({reason}); "
                  f"reassigning {len(stranded)} in-flight cell(s)")
        sock = self._sockets.pop(id(worker), None)
        self._writers.pop(id(worker), None)
        if sock is not None:
            _shutdown_close(sock)
        self._stranded.extend(stranded)

    def close(self) -> None:
        """Close every worker connection (workers stay up for reuse)."""
        for sock in list(self._sockets.values()):
            _shutdown_close(sock)
        self._sockets.clear()
        self._writers.clear()

    # -- the run ---------------------------------------------------------

    def run(self, payloads: list[dict], kind: str, on_start=None):
        """Yield one :class:`TaskOutcome` per payload, completion order."""
        if kind not in protocol.TASK_KINDS:
            raise DispatchError(f"unknown task kind {kind!r}")
        self._kind = kind
        try:
            self._await_first_wave()
            yield from schedule(
                payloads, self, protocol.resolve_kind(kind),
                task_timeout=self.task_timeout,
                max_retries=self.max_retries,
                on_start=on_start,
                local_fallback=self.local_fallback,
                note=self._note,
            )
        finally:
            self.close()

    # -- the transport surface the scheduling core drives -----------------

    @property
    def alive(self) -> bool:
        return not self.registry.all_dead()

    def submit(self, attempt_id: int, payload: dict) -> bool:
        """Send the attempt to the least-loaded live worker; False when
        no worker has a free slot."""
        for worker in self.registry.with_free_slot():
            try:
                self._writers[id(worker)].send(
                    protocol.task(attempt_id, self._kind, payload)
                )
            except (OSError, FrameError) as exc:
                self._drop_worker(worker, f"send failed: {exc}")
                continue
            with self._lock:
                worker.inflight[attempt_id] = time.monotonic()
            return True
        return False

    def poll(self, timeout: float) -> list[tuple]:
        """Ping and reap workers, then turn queued frames into attempt
        events, stranded attempts of lost workers included."""
        self._heartbeat()
        events = self._drain(timeout)
        stranded, self._stranded = self._stranded, []
        return events + [(attempt_id, "lost", None, 0.0) for attempt_id in stranded]

    def abandon(self, attempt_id: int) -> None:
        with self._lock:
            for worker in self.registry:
                worker.inflight.pop(attempt_id, None)

    def _heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._last_heartbeat < self.heartbeat_interval:
            return
        self._last_heartbeat = now
        for worker in self.registry.up():
            if now - worker.last_pong > self.heartbeat_interval * self.heartbeat_misses:
                self._drop_worker(
                    worker, f"missed {self.heartbeat_misses} heartbeats"
                )
                continue
            try:
                self._writers[id(worker)].send(protocol.ping(time.time()))
            except (OSError, FrameError) as exc:
                self._drop_worker(worker, f"ping failed: {exc}")

    def _drain(self, timeout: float) -> list[tuple]:
        """Handle every queued event, waiting up to ``timeout`` for the
        first; returns the attempt results among them."""
        results = []
        while True:
            try:
                tag, worker, *rest = self._events.get(timeout=timeout)
            except queue.Empty:
                return results
            timeout = 0.0
            if tag == "welcome":
                welcome, sock = rest
                with self._lock:
                    worker.state = WorkerState.UP
                    worker.slots = welcome["slots"]
                    worker.pid = welcome.get("pid")
                    worker.last_pong = time.monotonic()
                    self.stats.connected += 1
                self._sockets[id(worker)] = sock
                self._writers[id(worker)] = framing.FrameWriter(sock)
                self._start_reader(worker, sock)
                self._log(
                    f"worker {worker.name} up "
                    f"(slots={worker.slots}, pid={worker.pid})"
                )
            elif tag == "dead":
                (reason,) = rest
                if worker.state is WorkerState.CONNECTING:
                    with self._lock:
                        worker.state = WorkerState.DEAD
                        worker.death_reason = reason
                    self._log(f"worker {worker.name} unreachable: {reason}")
                else:
                    self._drop_worker(worker, reason)
            else:
                (message,) = rest
                mtype = message.get("type")
                if mtype == "pong":
                    with self._lock:
                        worker.last_pong = time.monotonic()
                elif mtype == "result":
                    result = self._result(worker, message)
                    if result is not None:
                        results.append(result)
                else:
                    self._log(
                        f"ignoring unknown frame {mtype!r} from {worker.name}"
                    )

    def _result(self, worker: WorkerHandle, message: dict) -> tuple | None:
        task_id = message.get("task_id")
        if task_id not in worker.inflight:
            return None  # a late answer to an abandoned attempt
        wall = float(message.get("wall_seconds", 0.0))
        ok = bool(message.get("ok"))
        with self._lock:
            del worker.inflight[task_id]
            worker.busy_seconds += wall
            if ok:
                worker.completed += 1
            else:
                worker.failed += 1
        if ok:
            return task_id, "ok", message.get("value"), wall
        error = str(message.get("error", "worker reported failure"))
        return task_id, "error", error, wall


class DistributedExecutor:
    """Executor-shaped front end over :class:`Coordinator`.

    Drop-in peer of :class:`repro.orch.executor.LocalExecutor`: the
    orchestrator and campaign runner hand it the same module-level
    worker callable, which it maps back to a wire kind (the callable
    itself never leaves the process).
    """

    name = "distributed"

    def __init__(
        self,
        addrs: list[tuple[str, int]],
        task_timeout: float | None = None,
        max_retries: int = 1,
        heartbeat_interval: float = 1.0,
        heartbeat_misses: int = 3,
        connect_retries: int = 5,
        connect_backoff: float = 0.3,
        local_fallback: bool = True,
        token: str | None = None,
        log=None,
    ):
        self.addrs = list(addrs)
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self.connect_retries = connect_retries
        self.connect_backoff = connect_backoff
        self.local_fallback = local_fallback
        self.token = token
        self._log = log
        #: Set for the lifetime of each run; ``repro serve`` polls it.
        self.coordinator: Coordinator | None = None
        #: Stats of the most recently completed run.
        self.last_stats: DispatchStats | None = None

    @property
    def parallel(self) -> int:
        """Nominal width for reports/ETA: one slot per worker minimum
        (the true width is the sum of advertised slots, known only
        after the handshake)."""
        coordinator = self.coordinator
        if coordinator is not None:
            up = coordinator.registry.up()
            if up:
                return sum(w.slots for w in up)
        return max(1, len(self.addrs))

    def run(self, payloads, worker, on_start=None):
        kind = protocol.kind_for(worker)
        if kind is None:
            raise DispatchError(
                f"{worker.__module__}.{worker.__qualname__} is not a "
                "registered distributed task kind"
            )
        self.coordinator = Coordinator(
            self.addrs,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_misses=self.heartbeat_misses,
            connect_retries=self.connect_retries,
            connect_backoff=self.connect_backoff,
            local_fallback=self.local_fallback,
            token=self.token,
            log=self._log,
        )
        try:
            yield from self.coordinator.run(payloads, kind, on_start=on_start)
        finally:
            self.last_stats = self.coordinator.stats
            self.last_stats.workers = self.coordinator.registry.snapshot()
            self.coordinator = None


# -- ops helpers --------------------------------------------------------


def _handshake(addr: tuple[str, int], timeout: float,
               token: str | None) -> tuple[socket.socket, dict]:
    """Connect to one daemon and shake hands; returns the socket and
    the worker's welcome."""
    sock = socket.create_connection(addr, timeout=timeout)
    try:
        framing.send_frame(sock, protocol.hello(token=token))
        return sock, protocol.check_welcome(framing.recv_frame(sock), token=token)
    except BaseException:
        sock.close()
        raise


def ping_workers(addrs: list[tuple[str, int]],
                 timeout: float = 5.0,
                 token: str | None = None) -> list[dict]:
    """Handshake + one ping per address; returns a status row each."""
    rows = []
    for addr in addrs:
        name = f"{addr[0]}:{addr[1]}"
        t0 = time.perf_counter()
        try:
            sock, welcome = _handshake(addr, timeout, token)
            with sock:
                framing.send_frame(sock, protocol.ping(time.time()))
                reply = framing.recv_frame(sock)
                if reply.get("type") != "pong":
                    raise protocol.ProtocolError(
                        f"expected pong, got {reply.get('type')!r}"
                    )
            rows.append({
                "addr": name, "ok": True,
                "slots": welcome["slots"], "pid": welcome.get("pid"),
                "rtt_ms": round((time.perf_counter() - t0) * 1000, 2),
            })
        except _WIRE_ERRORS as exc:
            rows.append({"addr": name, "ok": False, "error": str(exc)})
    return rows


def shutdown_workers(addrs: list[tuple[str, int]],
                     timeout: float = 5.0,
                     token: str | None = None) -> list[dict]:
    """Ask every reachable daemon to exit; returns a status row each."""
    rows = []
    for addr in addrs:
        name = f"{addr[0]}:{addr[1]}"
        try:
            sock, _welcome = _handshake(addr, timeout, token)
            with sock:
                framing.send_frame(sock, protocol.shutdown())
            rows.append({"addr": name, "ok": True})
        except _WIRE_ERRORS as exc:
            rows.append({"addr": name, "ok": False, "error": str(exc)})
    return rows

"""One scheduling core for cell execution, over pluggable transports.

The orchestrator and the campaign runner hand a batch of payloads and a
module-level worker callable to an executor, which yields one
:class:`TaskOutcome` per payload in *completion* order.  Whatever
carries the attempts, :func:`schedule` is the only loop that decides
what happens to them.  Its failure policy mirrors what the paper's
machine does for its own computation — backward error recovery at the
granularity of one cell:

- a cell that raises is retried up to ``max_retries`` extra attempts;
  the exponential backoff is a not-before time on the requeued attempt,
  so it never stalls heartbeats or timeout checks;
- a cell running longer than ``task_timeout`` seconds is abandoned and
  retried the same way; every attempt has its own id, so a late answer
  to an abandoned attempt is discarded;
- an attempt stranded by a lost worker is reassigned without spending
  its retry budget (the cell did nothing wrong);
- once the transport has lost every worker, the remaining cells finish
  in-process, serially — or :class:`DispatchError` is raised when
  ``local_fallback=False``.

A transport has ``mode`` (the :attr:`TaskOutcome.mode` of what it ran),
``alive`` (False once every worker is lost) and four calls:
``submit(attempt_id, payload) -> bool`` (False: no free slot),
``poll(timeout)`` returning ``(attempt_id, status, value, wall)``
events with status ``"ok"``, ``"error"`` (value is the message) or
``"lost"``, ``abandon(attempt_id)`` and ``close()``.  Two carry work
out of process: :class:`PoolTransport`, a local process pool whose
``BrokenProcessPool`` strands every attempt at once, and the socket
transport :class:`repro.distributed.coordinator.Coordinator`.
:class:`InlineTransport` runs cells in this process: the whole of
``parallel=1`` (no pool is built) and the fallback.

Workers must be module-level callables and payloads picklable; the
orchestrator ships plain spec dicts and receives plain result dicts so
nothing simulation-specific crosses the process boundary.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator


class DispatchError(RuntimeError):
    """The batch cannot run: no worker reachable, or every worker lost
    with the local fallback disabled."""


@dataclass
class TaskOutcome:
    """Terminal state of one payload."""

    index: int
    payload: Any
    value: Any = None
    error: str | None = None
    timed_out: bool = False
    attempts: int = 1
    wall_seconds: float = 0.0
    #: "parallel", "distributed" or "serial" — how the final attempt ran.
    mode: str = "parallel"

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


@dataclass(eq=False)
class _Attempt:
    index: int
    payload: Any
    number: int = 1
    #: Retry backoff: the attempt is not submitted before this time.
    not_before: float = 0.0
    started_at: float = 0.0


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def shutdown_pool(pool: ProcessPoolExecutor, kill: bool = True) -> None:
    """Shut ``pool`` down; with ``kill``, terminate its processes rather
    than wait on work still running in them (``shutdown`` clears the
    process table, so it is snapshotted first)."""
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=not kill, cancel_futures=True)
    if kill:
        for process in processes:
            try:
                process.terminate()
            except OSError:  # pragma: no cover
                pass


class InlineTransport:
    """Runs one attempt at a time in this process.  A running cell
    cannot be preempted, so timeouts never fire here."""

    mode = "serial"
    alive = True

    def __init__(self, worker: Callable[[Any], Any]):
        self.worker = worker
        self._next: tuple[int, Any] | None = None

    def submit(self, attempt_id: int, payload: Any) -> bool:
        if self._next is not None:
            return False
        self._next = (attempt_id, payload)
        return True

    def poll(self, timeout: float) -> list[tuple]:
        if self._next is None:
            time.sleep(timeout)
            return []
        (attempt_id, payload), self._next = self._next, None
        t0 = time.perf_counter()
        try:
            event = ("ok", self.worker(payload))
        except Exception as exc:  # noqa: BLE001 — report, don't crash the sweep
            event = ("error", _describe(exc))
        return [(attempt_id, *event, time.perf_counter() - t0)]

    def abandon(self, attempt_id: int) -> None:
        pass

    def close(self) -> None:
        pass


class PoolTransport:
    """A local ``ProcessPoolExecutor`` of ``width`` processes.  A dead
    pool process breaks the whole pool, stranding every attempt in
    flight: the core's "all workers lost" case.  A pool that cannot be
    built is lost from the start."""

    mode = "parallel"

    def __init__(self, worker: Callable[[Any], Any], width: int):
        self.worker = worker
        self.width = width
        self._inflight: dict[int, tuple[Future, float]] = {}
        self._abandoned = False  # an abandoned attempt may still be running
        try:
            self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
                max_workers=width
            )
        except (OSError, ValueError, PermissionError):
            self._pool = None
        self.alive = self._pool is not None

    def submit(self, attempt_id: int, payload: Any) -> bool:
        if not self.alive or len(self._inflight) >= self.width:
            return False
        try:
            future = self._pool.submit(self.worker, payload)
        except (BrokenProcessPool, RuntimeError):
            self.alive = False
            return False
        self._inflight[attempt_id] = (future, time.perf_counter())
        return True

    def poll(self, timeout: float) -> list[tuple]:
        if not self._inflight:
            time.sleep(timeout)
            return []
        ids = {future: attempt_id
               for attempt_id, (future, _) in self._inflight.items()}
        done, _ = wait(ids, timeout=timeout, return_when=FIRST_COMPLETED)
        events = []
        for future in done:
            try:
                event = ("ok", future.result())
            except BrokenProcessPool:
                self.alive = False
                continue
            except Exception as exc:  # noqa: BLE001
                event = ("error", _describe(exc))
            _, t0 = self._inflight.pop(ids[future])
            events.append((ids[future], *event, time.perf_counter() - t0))
        if not self.alive:
            events += [(attempt_id, "lost", None, 0.0) for attempt_id in self._inflight]
            self._inflight.clear()
        return events

    def abandon(self, attempt_id: int) -> None:
        future, _ = self._inflight.pop(attempt_id)
        future.cancel()
        self._abandoned = True

    def close(self) -> None:
        # never wait on an abandoned attempt, nor on one still in flight
        # when the run is being unwound (KeyboardInterrupt, StallError,
        # a closed generator): that would orphan or hang on workers
        if self._pool is not None:
            shutdown_pool(self._pool, kill=self._abandoned or bool(self._inflight))
            self._pool = None


def schedule(
    payloads: list[Any],
    transport,
    fallback: Callable[[Any], Any],
    task_timeout: float | None = None,
    max_retries: int = 1,
    retry_backoff: float = 0.0,
    on_start: Callable[[int, Any], None] | None = None,
    local_fallback: bool = True,
    note: Callable[..., None] | None = None,
    poll_interval: float = 0.02,
) -> Iterator[TaskOutcome]:
    """Run every payload over ``transport``; yield outcomes as they land.

    ``fallback`` is the in-process callable that finishes the cells once
    the transport has lost every worker.  ``on_start(index, payload)``
    fires exactly once per index, on its first submission, whichever
    path runs it.  ``note(counter, n=1)`` hears each decision, named
    after the :class:`repro.distributed.DispatchStats` counters.
    """
    note = note or (lambda _counter, _n=1: None)
    pending = [_Attempt(index, payload) for index, payload in enumerate(payloads)]
    inflight: dict[int, _Attempt] = {}
    started: set[int] = set()
    next_id = 0
    remaining = len(payloads)

    def settle(attempt: _Attempt, now: float, **failure) -> TaskOutcome | None:
        """Requeue a failed attempt while its budget lasts; else fail it."""
        if attempt.number <= max_retries:
            note("retries")
            pending.append(replace(
                attempt, number=attempt.number + 1,
                not_before=now + retry_backoff * 2 ** (attempt.number - 1),
            ))
            return None
        note("failed")
        return TaskOutcome(index=attempt.index, payload=attempt.payload,
                           attempts=attempt.number, mode=transport.mode, **failure)

    try:
        while remaining:
            if not transport.alive:
                if not local_fallback:
                    raise DispatchError(
                        f"every worker died with {remaining} cell(s) unfinished"
                    )
                pending[:] = sorted([*pending, *inflight.values()],
                                    key=lambda attempt: attempt.index)
                inflight.clear()
                note("local_fallback_cells", len(pending))
                transport.close()
                transport = InlineTransport(fallback)

            now = time.perf_counter()
            for attempt in [a for a in pending if a.not_before <= now]:
                if not transport.submit(next_id, attempt.payload):
                    break
                pending.remove(attempt)
                attempt.started_at = now
                inflight[next_id] = attempt
                next_id += 1
                if attempt.index not in started:
                    started.add(attempt.index)
                    if on_start is not None:
                        on_start(attempt.index, attempt.payload)

            # wait no longer than until the next backed-off retry is due
            timeout = min([poll_interval] + [
                a.not_before - now for a in pending if a.not_before > now
            ])
            landed: list[TaskOutcome | None] = []
            for attempt_id, status, value, wall in transport.poll(timeout):
                attempt = inflight.pop(attempt_id, None)
                if attempt is None:
                    continue  # a late answer to an abandoned attempt
                if status == "lost":
                    note("reassignments")
                    pending.append(attempt)
                elif status == "ok":
                    note("completed")
                    landed.append(TaskOutcome(
                        index=attempt.index, payload=attempt.payload, value=value,
                        attempts=attempt.number, wall_seconds=wall,
                        mode=transport.mode,
                    ))
                else:
                    landed.append(settle(attempt, time.perf_counter(),
                                         error=value, wall_seconds=wall))

            now = time.perf_counter()
            for attempt_id, attempt in list(inflight.items()):
                if task_timeout is not None and now - attempt.started_at >= task_timeout:
                    del inflight[attempt_id]
                    transport.abandon(attempt_id)
                    note("timeouts")
                    landed.append(settle(attempt, now, timed_out=True,
                                         wall_seconds=now - attempt.started_at))

            for outcome in filter(None, landed):
                remaining -= 1
                yield outcome
    finally:
        transport.close()


def run_tasks(
    payloads: list[Any],
    worker: Callable[[Any], Any],
    parallel: int = 1,
    task_timeout: float | None = None,
    max_retries: int = 1,
    retry_backoff: float = 0.25,
    on_start: Callable[[int, Any], None] | None = None,
    poll_interval: float = 0.02,
) -> Iterator[TaskOutcome]:
    """Yield a :class:`TaskOutcome` per payload, in completion order:
    in-process when ``parallel <= 1``, else over a local process pool
    that degrades to in-process execution if it breaks."""
    if parallel <= 1:
        transport = InlineTransport(worker)
    else:
        transport = PoolTransport(worker, parallel)
    yield from schedule(
        payloads, transport, worker,
        task_timeout=task_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        on_start=on_start,
        poll_interval=poll_interval,
    )


class LocalExecutor:
    """Single-host execution behind the shared executor interface.

    An *executor* is anything with ``run(payloads, worker, on_start=None)
    -> Iterator[TaskOutcome]`` and a nominal ``parallel`` width; the
    orchestrator and the campaign runner are written against that
    shape, so :class:`repro.distributed.DistributedExecutor` drops in
    without either of them knowing whether cells ran in a local process
    pool or on daemons across the network.
    """

    name = "local"

    def __init__(
        self,
        parallel: int = 1,
        task_timeout: float | None = None,
        max_retries: int = 1,
        retry_backoff: float = 0.25,
    ):
        self.parallel = max(1, parallel)
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff

    def run(
        self,
        payloads: list[Any],
        worker: Callable[[Any], Any],
        on_start: Callable[[int, Any], None] | None = None,
    ) -> Iterator[TaskOutcome]:
        yield from run_tasks(
            payloads,
            worker,
            parallel=self.parallel,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            on_start=on_start,
        )

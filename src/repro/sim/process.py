"""Generator-based lightweight processes.

A :class:`Process` wraps a Python generator.  The generator *yields*
what it wants to wait on:

- an ``int``/``float`` — sleep for that many cycles (a whole number:
  a float with a fractional part raises ``SimulationError``, as
  :meth:`~repro.sim.engine.Engine.schedule` does);
- an :class:`~repro.sim.sync.EventFlag` — resume when the flag fires
  (the fired value is sent back into the generator);
- an object exposing ``_subscribe(process)`` — any custom waitable.

When the generator returns, the process completes and its ``done`` flag
is raised; other processes may wait on :attr:`completion`.
"""

from __future__ import annotations

import enum
from typing import Generator, Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

from repro.sim.engine import SimulationError


class ProcessState(enum.Enum):
    READY = "ready"
    WAITING = "waiting"
    DONE = "done"
    FAILED = "failed"


# read on every resumption: a module global is cheaper to read than an
# enum class attribute
_READY = ProcessState.READY
_WAITING = ProcessState.WAITING
_DONE = ProcessState.DONE
_FAILED = ProcessState.FAILED


class Process:
    """A lightweight simulated process driven by the engine."""

    __slots__ = (
        "engine", "name", "_body", "state", "result", "error", "completion", "_wake",
    )

    def __init__(self, engine: "Engine", body: Generator[Any, Any, Any], name: str = "proc"):
        from repro.sim.sync import EventFlag  # local import to avoid a cycle

        self.engine = engine
        self.name = name
        self._body = body
        self.state = _READY
        self.result: Any = None
        self.error: BaseException | None = None
        #: Fires (with the generator's return value) when the process ends.
        self.completion = EventFlag(engine, name=f"{name}.done")
        #: The wake-up callback every delay and the first step schedule:
        #: bound once here instead of a new closure per yield.
        self._wake = self._step
        engine.schedule(0, self._wake)

    # -- internals ----------------------------------------------------

    def _step(self, value: Any = None) -> None:
        state = self.state
        if state is _DONE or state is _FAILED:
            return
        self.state = _READY
        try:
            wanted = self._body.send(value)
        except StopIteration as stop:
            self.state = _DONE
            self.result = stop.value
            self.completion.fire(stop.value)
            return
        except BaseException as exc:  # propagate to the driver via .error
            self.state = _FAILED
            self.error = exc
            self.completion.fire(None)
            raise
        self.state = _WAITING
        if isinstance(wanted, (int, float)):
            if wanted < 0:
                raise SimulationError(f"process {self.name} yielded negative delay {wanted}")
            # straight to the heap; _push rejects a non-integral delay
            # exactly as Engine.schedule does
            engine = self.engine
            engine._push(engine._now + wanted, self._wake)
        elif hasattr(wanted, "_subscribe"):
            wanted._subscribe(self)
        else:
            raise SimulationError(
                f"process {self.name} yielded unsupported value {wanted!r}"
            )

    def _resume(self, value: Any) -> None:
        """Called by waitables when the awaited condition is satisfied."""
        self.engine.schedule(0, lambda: self._step(value))

    # -- introspection ------------------------------------------------

    @property
    def done(self) -> bool:
        return self.state is _DONE

    @property
    def failed(self) -> bool:
        return self.state is _FAILED

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name} {self.state.value}>"

"""Pluggable kernel backends.

The simulator's semantics live in pure Python; this package provides
interchangeable *kernel backends* that accelerate its statistically
dominant inner loops without changing a single observable result:

``python``
    The reference backend: the plain interpreter loops, always
    available, and the baseline every other backend is digest-checked
    against.

``compiled``
    A hand-built C extension (:mod:`repro.kernel._hotloops`, built by
    ``python -m repro.kernel.build_ext``) that generates reference
    streams in blocks of scalar C loops (SplitMix64 hashing, op
    classification, address arithmetic and the Zipf inverse-CDF
    inversion, in the same draw order) and drains runs of consecutive
    cache *hits* — the single hottest path of a run — inside one C call
    per processor batch.  Reports itself unavailable, and ``auto``
    falls back to ``python``, wherever the extension is absent.

The hard contract is **bit-identity**: every backend must reproduce the
committed golden digests (``tests/perf/golden/``) exactly.  Batch
boundaries never leak into results because reference streams are pure
functions of ``(seed, proc, index)`` and the drained hit runs perform
exactly the state updates the interpreter loop would.

Backends are selected per machine (``Machine(..., backend=...)``), per
process (:func:`set_default_backend`, what ``--backend`` on the CLI
sets), or negotiated by availability (``"auto"``).  The backend is
deliberately **not** part of the orchestration cache key
(:class:`repro.orch.task.TaskSpec`): results are backend-invariant by
contract, so cached cells stay valid whichever backend computed them
(asserted by ``tests/kernel/test_backend_equivalence.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

#: Registry order doubles as auto-negotiation preference (fastest
#: first); ``python`` is always available and always last.
BACKEND_NAMES = ("compiled", "python")


class BackendUnavailable(RuntimeError):
    """A requested backend cannot run in this environment.

    Carries a human-actionable ``hint`` (what to install or build);
    the CLI prints it verbatim and exits with the configuration error
    code.
    """

    def __init__(self, name: str, reason: str, hint: str):
        super().__init__(f"kernel backend {name!r} is unavailable: {reason} ({hint})")
        self.backend = name
        self.reason = reason
        self.hint = hint


class KernelBackend:
    """One pluggable kernel backend.

    Subclasses override :meth:`availability_error` (``None`` means
    available) and :meth:`attach`, which is called once per
    :class:`~repro.machine.Machine` after streams are wired and may
    wrap stream generators and/or install a batch drain hook
    (``machine.kernel_drain``).  ``attach`` must be a pure
    acceleration: no observable state may differ from the python
    backend.
    """

    name = "python"

    @classmethod
    def availability_error(cls) -> BackendUnavailable | None:
        return None

    @classmethod
    def is_available(cls) -> bool:
        return cls.availability_error() is None

    def attach(self, machine: "Machine") -> None:
        """Install this backend's fast paths on a built machine."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"


class PythonBackend(KernelBackend):
    """The reference interpreter loops; nothing to install."""

    name = "python"


def _backend_class(name: str) -> type[KernelBackend]:
    if name == "python":
        return PythonBackend
    if name == "compiled":
        from repro.kernel.compiled import CompiledBackend

        return CompiledBackend
    raise ValueError(
        f"unknown kernel backend {name!r}; pick one of "
        f"{sorted(BACKEND_NAMES)} or 'auto'"
    )


def get_backend(name: str) -> KernelBackend:
    """Instantiate a backend by name; raise :class:`BackendUnavailable`
    (with an install hint) if the environment cannot run it."""
    cls = _backend_class(name)
    error = cls.availability_error()
    if error is not None:
        raise error
    return cls()


def negotiate() -> KernelBackend:
    """The fastest available backend (``compiled`` > ``python``); never
    raises — python is always available."""
    for name in BACKEND_NAMES:
        cls = _backend_class(name)
        if cls.availability_error() is None:
            return cls()
    raise AssertionError("unreachable: the python backend is always available")


def available_backends() -> tuple[str, ...]:
    """Names of the backends this environment can run, fastest first."""
    return tuple(
        name for name in BACKEND_NAMES
        if _backend_class(name).availability_error() is None
    )


#: Process-wide default backend name, used by machines built without an
#: explicit ``backend=``.  ``python`` keeps library callers (tests,
#: cached sweeps) bit-for-bit on the reference loops unless they or the
#: CLI opt in.
_default_backend_name = "python"


def get_default_backend() -> str:
    return _default_backend_name


def set_default_backend(name: str) -> str:
    """Set the process default (what ``--backend`` does).  ``"auto"``
    resolves to the fastest available backend.  Returns the resolved
    name; raises :class:`BackendUnavailable` for an explicit request
    the environment cannot honour."""
    global _default_backend_name
    if name == "auto":
        _default_backend_name = negotiate().name
    else:
        get_backend(name)  # validate name + availability
        _default_backend_name = name
    return _default_backend_name


def resolve_backend(name: str | None) -> KernelBackend:
    """The backend a machine should use: an explicit name, ``"auto"``
    negotiation, or (``None``) the process default."""
    if name is None:
        name = _default_backend_name
    if name == "auto":
        return negotiate()
    return get_backend(name)

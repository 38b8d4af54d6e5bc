"""Build the compiled kernel extension in place.

Usage::

    python -m repro.kernel.build_ext            # build _hotloops
    python -m repro.kernel.build_ext --check    # report availability
    python -m repro.kernel.build_ext --clean    # remove built artefacts

Deliberately dependency-free: it invokes the platform C compiler
directly (``$CC`` or ``cc``) against the running interpreter's
headers, so it works anywhere with a compiler and Python dev headers —
no setuptools, Cython or mypyc required.  When the build fails or the
artefact is missing, the ``compiled`` backend simply reports itself
unavailable and everything runs on the pure-Python backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

_SOURCE = Path(__file__).resolve().parent / "_hotloops.c"


def artefact_path() -> Path:
    """Where the built extension lives (versioned per interpreter ABI)."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return _SOURCE.with_name("_hotloops" + suffix)


def build(verbose: bool = True) -> Path:
    """Compile ``_hotloops.c``; returns the artefact path.

    Raises :class:`subprocess.CalledProcessError` on compiler failure
    and :class:`FileNotFoundError` when no compiler is present.
    """
    include = sysconfig.get_path("include")
    out = artefact_path()
    cc = os.environ.get("CC", "cc")
    cmd = [
        cc, "-O2", "-fPIC", "-shared",
        "-I", include,
        str(_SOURCE), "-o", str(out),
    ]
    if verbose:
        print("building:", " ".join(cmd))
    subprocess.run(cmd, check=True)
    return out


def clean() -> list[Path]:
    """Remove every built ``_hotloops`` artefact next to the source."""
    removed = []
    for path in _SOURCE.parent.glob("_hotloops*.so"):
        path.unlink()
        removed.append(path)
    for path in _SOURCE.parent.glob("_hotloops*.pyd"):  # pragma: no cover
        path.unlink()
        removed.append(path)
    return removed


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="report whether the extension imports, build nothing")
    parser.add_argument("--clean", action="store_true",
                        help="remove built artefacts")
    args = parser.parse_args(argv)
    if args.clean:
        for path in clean():
            print(f"removed {path}")
        return 0
    if args.check:
        try:
            from repro.kernel import _hotloops  # noqa: F401
        except ImportError as exc:
            print(f"compiled backend unavailable: {exc}")
            return 1
        print(f"compiled backend available ({artefact_path()})")
        return 0
    try:
        out = build()
    except (FileNotFoundError, subprocess.CalledProcessError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        print("the compiled backend stays unavailable; the python "
              "backend is unaffected", file=sys.stderr)
        return 1
    print(f"built {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

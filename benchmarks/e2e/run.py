"""End-to-end benchmark of the COMA simulator.

Run from anywhere inside a checkout::

    python benchmarks/e2e/run.py                       # all workloads, 5 rounds
    python benchmarks/e2e/run.py --trace --out r.json  # plus a traced repeat each
    python benchmarks/e2e/run.py --workload zipf_read --seed 7 --seconds 20 --trace 0

Set-up builds the compiled kernel (``python -m repro.kernel.build_ext``)
so every checkout measures its own C source.  Each repeat then runs in a
fresh interpreter (``harness.py``), one at a time.  Without
``--workload`` the four workloads run in ``ROUNDS`` interleaved rounds;
with it, one workload repeats until ``--seconds`` have passed.  Every
output is checked: against the digests pinned in ``expected.json`` for
the pinned seed, and for any other seed against the first repeat.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer
metrics.  The exit code is 0 only when every operation succeeded and
matched.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import DEFAULT_SEED, ROOT, SCRATCH, WORKLOADS

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

#: Interleaved rounds of the all-workload run.  Raise this, never a
#: bound, if two invocations' medians disagree by more than a bound.
ROUNDS = 5
#: Repeats a single-workload run makes however short ``--seconds`` is,
#: so medians and the cross-repeat digest check always have data.
MIN_REPEATS = 3
#: A repeat that takes longer than this is killed and counted failed
#: (the longest takes about 10 s).
REPEAT_TIMEOUT_S = 60


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed string hashing: set/dict layouts, hence timings, repeat
    env["PYTHONHASHSEED"] = "0"
    # compiler and tempfile scratch stays inside the checkout
    env["TMPDIR"] = str(SCRATCH)
    return env


def set_up() -> str:
    """Check the checkout and build the compiled kernel; return the
    build's last line of output."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {ROOT / 'src'}")
    if not SPEC.is_file():
        raise SetupError(f"missing {SPEC}")
    SCRATCH.mkdir(exist_ok=True)
    build = subprocess.run(
        [sys.executable, "-m", "repro.kernel.build_ext"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=REPEAT_TIMEOUT_S,
    )
    lines = (build.stdout + build.stderr).strip().splitlines()
    if build.returncode != 0:
        # the compiled backend stays unavailable; `auto` falls back and
        # the report records which backend ran
        print("kernel build failed:", *lines[-3:], sep="\n  ", file=sys.stderr)
    return lines[-1] if lines else ""


def spawn_repeat(name: str, seed: int, trace: bool) -> dict:
    """One repeat in a fresh interpreter; a failed child becomes a
    sample whose every operation failed."""
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), name, str(seed),
             "1" if trace else "0"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=REPEAT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        error = f"repeat exceeded {REPEAT_TIMEOUT_S} s and was killed"
    else:
        if child.returncode == 0:
            return json.loads(child.stdout.strip().splitlines()[-1])
        tail = child.stderr.strip().splitlines()[-5:]
        error = f"repeat exited {child.returncode}: " + " | ".join(tail)
    ops = WORKLOADS[name].cells if WORKLOADS[name].kind == "campaign" else 1
    return {"workload": name, "seed": seed, "crashed": error, "ops": ops}


# -- metrics -------------------------------------------------------------


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (Python's default method) and n."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


#: How each end-to-end metric is read off one repeat's sample.  Times
#: are reference seconds (``probe.py``): wall time corrected for the
#: shared host's speed while the repeat ran.
END_TO_END = {
    "refs_per_s": lambda s: s["refs"] / s["run_ref_s"],
    "cells_per_s": lambda s: s["ops"] / s["run_ref_s"],
    "setup_s": lambda s: s["setup_ref_s"],
    "peak_rss_mb": lambda s: s["peak_rss_mb"],
}


#: Raw readings of each repeat kept in the ``--out`` report.
REPEAT_FIELDS = ("setup_s", "setup_ref_s", "run_s", "run_ref_s",
                 "host_speed", "peak_rss_mb", "refs", "ops")


def per_layer_values(traced: dict, samples: list[dict]) -> dict:
    """Every per-layer metric from the traced repeat (spans, counts)
    and the untraced repeats (trace overhead, cell latency)."""
    from spans import LAYERS

    trace = traced["trace"]
    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = trace["calls"][layer]
        values[f"{layer}.self_s"] = trace["self_s"][layer]
    counts = traced["counts"]
    values.update(counts)
    drained = trace["counts"].get("kernel.drain.refs", 0)
    values["kernel.drain.refs"] = drained
    values["kernel.drain.ref_share"] = (
        drained / counts["sim.refs"] if counts["sim.refs"] else 0.0
    )
    values["coherence.access.remote_calls"] = trace["counts"].get(
        "coherence.access.remote_calls", 0
    )
    cell_walls = []
    if WORKLOADS[traced["workload"]].kind == "campaign":
        cell_walls = [w for s in samples for w in s["op_walls"]]
    if len(cell_walls) >= 2:
        deciles = statistics.quantiles(cell_walls, n=10)
        values["fault.cell.p50_s"] = statistics.median(cell_walls)
        values["fault.cell.p70_s"] = deciles[6]
    else:
        values["fault.cell.p50_s"] = values["fault.cell.p70_s"] = 0.0
    values["trace.wall_s"] = trace["wall_s"]
    untraced = statistics.median(s["span_s"] for s in samples)
    values["trace.overhead"] = trace["wall_s"] / untraced - 1.0
    values["host.speed"] = statistics.median(s["host_speed"] for s in samples)
    values["wall.refs_per_s"] = statistics.median(
        s["refs"] / s["run_s"] for s in samples
    )
    values["wall.setup_s"] = statistics.median(s["setup_s"] for s in samples)
    return values


# -- checking ------------------------------------------------------------


def check(name: str, seed: int, samples: list[dict], traced: dict | None,
          expected: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed operations over every repeat.

    An operation (a machine run or a campaign cell) fails when it
    raises, ends stalled or with a simulator bug, breaks an invariant,
    or its digest differs from the reference: the pinned digests for
    the pinned seed, otherwise the first repeat's.  A whole repeat
    fails when it crashes, runs on another backend than the first, or
    (traced, compiled backend, ``water_ckpt400``) drained no hit in C,
    which means the tracing disabled the C path.
    """
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    if seed == expected["seed"]:
        reference = expected["workloads"][name]["digests"]
    first_ok = next((s for s in samples if "crashed" not in s), None)
    if reference is None and first_ok is not None:
        reference = first_ok["digests"]
    backend = first_ok["backend"] if first_ok else None
    for index, sample in enumerate(samples + ([traced] if traced else [])):
        label = "traced repeat" if sample is traced else f"repeat {index}"
        attempted += sample["ops"]
        if "crashed" in sample:
            failed += sample["ops"]
            problems.append(f"{label}: {sample['crashed']}")
            continue
        if sample["backend"] != backend:
            failed += sample["ops"]
            problems.append(f"{label}: ran on {sample['backend']}, not {backend}")
            continue
        if sample is traced and sample["backend"] == "compiled" \
                and name == "water_ckpt400" \
                and not sample["trace"]["counts"].get("kernel.drain.refs"):
            # the drain is still called when tracing hides the stream's
            # BlockRefAt, it just consumes nothing
            failed += sample["ops"]
            problems.append(f"{label}: the compiled hit drain consumed no "
                            "reference, so tracing disabled the C path")
            continue
        for op, (digest, errors) in enumerate(
                zip(sample["digests"], sample["errors"])):
            if errors:
                failed += 1
                problems.append(f"{label} op {op}: {'; '.join(errors)}")
            elif reference is not None and digest != reference[op]:
                failed += 1
                problems.append(f"{label} op {op}: digest {digest[:12]} != "
                                f"expected {reference[op][:12]}")
    return attempted, failed, problems


# -- running -------------------------------------------------------------


def summarize(name: str, seed: int, samples: list[dict], traced: dict | None,
              expected: dict, units: dict) -> dict:
    attempted, failed, problems = check(name, seed, samples, traced, expected)
    ok = [s for s in samples if "crashed" not in s]
    entry = {
        "attempted": attempted, "failed": failed, "problems": problems,
        "backend": ok[0]["backend"] if ok else None,
        "environment": ok[0]["environment"] if ok else None,
        "repeats": [{key: s[key] for key in REPEAT_FIELDS} for s in ok],
        "end_to_end": {},
    }
    if ok:
        for metric, read in END_TO_END.items():
            values = [read(s) for s in ok]
            entry["end_to_end"][metric] = {
                "unit": units[metric], **quartiles(values), "samples": values,
            }
    if traced is not None and "crashed" not in traced and ok:
        values = per_layer_values(traced, ok)
        entry["per_layer"] = {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units["per_layer"]
        }
    return entry


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Repeats of one workload until ``seconds`` pass (at least
    ``MIN_REPEATS``), then the traced repeat if asked for."""
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPEATS or time.perf_counter() - start < seconds:
        samples.append(spawn_repeat(name, seed, trace=False))
        if "crashed" in samples[-1]:
            return samples, None  # the run has failed; stop it early
    traced = spawn_repeat(name, seed, trace=True) if trace else None
    return samples, traced


def load_units() -> dict:
    """Metric units from ``BENCHMARK.json``, plus the per-layer names."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["per_layer"] = [m["name"] for m in spec["per_layer"]]
    missing = set(END_TO_END) ^ {m["name"] for m in spec["end_to_end"]}
    if missing:
        raise SetupError(f"end-to-end metrics out of step with {SPEC.name}: "
                         f"{sorted(missing)}")
    return units


def print_tables(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n{name}  backend={entry['backend']}  "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for metric, m in entry["end_to_end"].items():
            print(f"  {metric:<14} {m['median']:>14.6g} {m['unit']:<6} "
                  f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
        for metric, m in entry.get("per_layer", {}).items():
            print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']}")
        for problem in entry["problems"]:
            print(f"  FAIL {problem}")


def pin() -> int:
    """Rewrite ``expected.json`` from one repeat of every workload at
    the pinned seed (after a deliberate change of simulated results)."""
    pinned = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        sample = spawn_repeat(name, DEFAULT_SEED, trace=False)
        if "crashed" in sample or any(sample["errors"]):
            print(f"{name}: cannot pin: {sample}", file=sys.stderr)
            return 1
        pinned["workloads"][name] = {"digests": sample["digests"]}
    EXPECTED.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    print(f"pinned {len(WORKLOADS)} workloads in {EXPECTED}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload for --seconds "
                        "(default: every workload, interleaved rounds)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of a one-workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced repeat and report per-layer "
                        "metrics")
    parser.add_argument("--out", type=Path, help="write the full report here")
    parser.add_argument("--pin", action="store_true",
                        help="run every workload once at the pinned seed "
                        "and rewrite expected.json")
    args = parser.parse_args(argv)

    try:
        units = load_units()
        build = set_up()
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    print(f"set-up: {build}")

    if args.pin:
        return pin()

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = {name: ([], None) for name in names}
    if args.workload:
        runs[args.workload] = measure(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    else:
        for _ in range(ROUNDS):
            for name in names:
                runs[name][0].append(spawn_repeat(name, args.seed, trace=False))
        if args.trace:
            runs = {name: (samples, spawn_repeat(name, args.seed, trace=True))
                    for name, (samples, _) in runs.items()}

    report = {"schema": 1, "seed": args.seed, "workloads": {}}
    for name, (samples, traced) in runs.items():
        report["workloads"][name] = summarize(
            name, args.seed, samples, traced, expected, units
        )
    entries = report["workloads"].values()
    report["attempted"] = sum(e["attempted"] for e in entries)
    report["failed"] = sum(e["failed"] for e in entries)
    report["correct"] = report["failed"] == 0 and all(
        e["end_to_end"] and (not args.trace or "per_layer" in e)
        for e in entries
    )
    print_tables(report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, entry in report["workloads"].items():
        prefix = "" if args.workload else f"{name}."
        for metric, m in entry.get(group, {}).items():
            value = m["value"] if group == "per_layer" else m["median"]
            metrics[prefix + metric] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

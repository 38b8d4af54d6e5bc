"""Quick in-process check of the benchmark harness itself.

    python benchmarks/e2e/selfcheck.py

Runs every workload, shrunk to a few seconds in total, twice untraced
and once traced, on whatever kernel backend ``auto`` finds (the pure
python one where nothing is built), and checks that:

- every end-to-end and per-layer metric of ``BENCHMARK.json`` is
  emitted with its unit;
- the digests of the two untraced repeats and the traced repeat agree;
- no layer's self time is negative, and the self times add up to the
  traced wall time, measured outside the spans, within 2%.

Exits 1 and names each failed check otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import harness
import run

#: The workloads at a size that keeps this check quick.
TINY = {
    "water_ckpt400": dict(n_nodes=9, scale=0.004),
    "zipf_read": dict(n_nodes=9, scale=0.0005),
    "zipf_write": dict(n_nodes=9, scale=0.0005),
    "campaign_lossy": dict(cells=3, refs_per_proc=400),
}
SEED = 7


def check_workload(name: str, units: dict) -> list[str]:
    spec = dataclasses.replace(harness.WORKLOADS[name], **TINY[name])
    samples = [
        harness.run_repeat(name, spec, SEED, time.perf_counter(), trace=False)
        for _ in range(2)
    ]
    traced = harness.run_repeat(name, spec, SEED, time.perf_counter(), trace=True)
    problems = []
    # no pinned digests: the repeats are checked against each other
    unpinned = {"seed": None, "workloads": {}}
    entry = run.summarize(name, SEED, samples, traced, unpinned, units)
    problems += entry["problems"]
    for group, names in (("end_to_end", run.END_TO_END),
                         ("per_layer", units["per_layer"])):
        emitted = entry.get(group, {})
        if set(emitted) != set(names):
            problems.append(f"{group} metrics {sorted(emitted)} != {sorted(names)}")
        for metric, m in emitted.items():
            if m["unit"] != units[metric]:
                problems.append(f"{metric}: unit {m['unit']!r} != {units[metric]!r}")
    if not samples[0]["digests"] == samples[1]["digests"] == traced["digests"]:
        problems.append("digests differ between repeats or under tracing")
    self_s = traced["trace"]["self_s"]
    negative = {layer: s for layer, s in self_s.items() if s < 0}
    if negative:
        problems.append(f"negative self times: {negative}")
    total, wall = sum(self_s.values()), traced["span_s"]
    if abs(total - wall) > 0.02 * wall:
        problems.append(f"self times add up to {total:.4f} s, traced wall "
                        f"is {wall:.4f} s")
    return [f"{name}: {problem}" for problem in problems]


def main() -> int:
    harness.use_checkout()
    units = run.load_units()
    start = time.perf_counter()
    problems = []
    for name in harness.WORKLOADS:
        problems += check_workload(name, units)
    for problem in problems:
        print("FAIL", problem)
    print(f"{len(harness.WORKLOADS)} workloads checked in "
          f"{time.perf_counter() - start:.1f} s: "
          f"{'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

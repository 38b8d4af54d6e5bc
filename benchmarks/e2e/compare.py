"""Compare two sets of benchmark reports: a parent and a change.

Usage::

    python benchmarks/e2e/compare.py --parent p1.json p2.json p3.json \\
        --change c1.json c2.json c3.json

Each report is one ``run.py --out`` file.  Pass each side's reports in
the order they ran, so that the i-th parent and the i-th change report
form a pair.  For every (metric, workload) this prints each side's
median and quartiles over its invocations' medians, the change's win
share over the pairs (ties count for neither), the signed difference
of the medians (positive is better) and a verdict:

``gain``
    at least 10 pairs ran, the change won at least 90% of them and the
    medians differ by more than the parent's own quartile distance;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound from ``BENCHMARK.json``;
``unresolved``
    the parent's own quartile spread is wider than the bound, and not
    every change run beats every parent run;
``within bound``
    otherwise.

Reports measured on different kernel backends or in different
environments are refused (exit 2).  The exit code is 1 when any pair
regressed or the change failed more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import SPEC, quartiles

#: Gain rule: the pairs that must have run, and the share of them the
#: change must win (ties count for neither side).
MIN_PAIRS = 10
WIN_SHARE = 0.9


def fingerprint(report: dict) -> tuple:
    """(backend, environment) of a report.  The simulator's version is
    left out: it is what a comparison compares."""
    backends, environments = set(), set()
    for entry in report["workloads"].values():
        backends.add(entry["backend"])
        env = dict(entry["environment"] or {})
        env.pop("repro_version", None)
        environments.add(json.dumps(env, sort_keys=True))
    return tuple(sorted(map(str, backends))), tuple(sorted(environments))


def verdict(parent: list[float], change: list[float], higher: bool,
            bound: float) -> dict:
    """The comparison of one (metric, workload) over paired runs."""
    p, c = quartiles(parent), quartiles(change)
    sign = 1.0 if higher else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    share = wins / (wins + losses) if wins + losses else 0.0
    delta = sign * (c["median"] - p["median"]) / p["median"]
    parent_iqr = p["q3"] - p["q1"]
    parent_spread = parent_iqr / p["median"]
    all_better = all(sign * (b - a) > 0 for b in change for a in parent)
    pairs = min(len(parent), len(change))
    if (pairs >= MIN_PAIRS and share >= WIN_SHARE and delta > 0
            and abs(c["median"] - p["median"]) > parent_iqr):
        result = "gain"
    elif parent_spread > bound and not all_better:
        result = "unresolved"
    elif delta < -bound:
        result = "regression"
    else:
        result = "within bound"
    return {
        "parent": p, "change": c, "win_share": share, "delta": delta,
        "parent_spread": parent_spread, "verdict": result,
    }


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(path.read_text(encoding="utf-8")) for path in paths]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    parents, changes = load(args.parent), load(args.change)

    prints = {fingerprint(report) for report in parents + changes}
    if len(prints) != 1:
        print("refusing to compare: reports differ in backend or environment:",
              file=sys.stderr)
        for backend, environment in sorted(prints):
            print(f"  backend={backend} environment={environment}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted(set.intersection(
        *(set(r["workloads"]) for r in parents + changes)
    ))
    regressed = False
    print(f"{'workload':<15} {'metric':<12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'n':>5} {'wins':>5} {'delta':>7} "
          f"{'bound':>6}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            values = [
                [r["workloads"][workload]["end_to_end"][name]["median"]
                 for r in side]
                for side in (parents, changes)
            ]
            v = verdict(*values, higher=metric["better"] == "higher",
                        bound=metric["bound"])
            regressed |= v["verdict"] == "regression"
            p_txt, c_txt = (f"{q['median']:.6g} [{q['q1']:.5g}, {q['q3']:.5g}]"
                            for q in (v["parent"], v["change"]))
            n_txt = f"{v['parent']['n']}/{v['change']['n']}"
            note = (f" (parent spread {v['parent_spread']:.1%})"
                    if v["verdict"] == "unresolved" else "")
            print(f"{workload:<15} {name:<12} {p_txt:>34} {c_txt:>34} "
                  f"{n_txt:>5} {v['win_share']:>5.0%} {v['delta']:>+7.1%} "
                  f"{metric['bound']:>6.0%}  {v['verdict']}{note}")

    failed = [sum(r["failed"] for r in side) for side in (parents, changes)]
    attempted = [sum(r["attempted"] for r in side) for side in (parents, changes)]
    print(f"\nfailed operations: parent {failed[0]}/{attempted[0]}, "
          f"change {failed[1]}/{attempted[1]}")
    if failed[1] > failed[0]:
        print("the change failed more operations than the parent")
        return 1
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

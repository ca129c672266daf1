#!/usr/bin/env python3
"""Run perfbench in two checkouts, in alternating pairs, and give the claim verdict:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --out BENCH_N.json

Pair i runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed: i for decode_long, 10 + i for prefill_video. ``perfbench/pins.json``
pins seeds 0-63, so up to 54 pairs also check every run's digest. Even
pairs run PARENT first, odd pairs CHANGE first, so a slow stretch of a
shared host lands on both sides. The run length is PARENT's ``BENCHMARK.json`` ``run_seconds``. After
the pairs, each side runs once more with ``--trace 1`` at pair 0's seed,
for the per-layer metrics.

For each end-to-end metric this prints and writes both sides' medians and
quartiles (the inclusive method, numpy's linear), the change's wins (ties
count for neither side), and two verdicts: ``claim_met``, when the change
wins at least nine tenths of the pairs and the gap between the medians
exceeds the parent's quartile distance; and ``within_bound``, when the
change's median is no worse than the parent's by more than the metric's
``BENCHMARK.json`` bound. ``--workload`` may be given more than once; the
output holds every workload run. Exits 1 when a run fails to complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED_BASE = {"decode_long": 0, "prefill_video": 10}
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile by the inclusive method, numpy's default linear one."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def claim_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """The per-pair comparison of one metric; ``parent[i]`` and ``change[i]`` are pair i.

    The claim is met when the change wins at least nine tenths of all pairs,
    ties counting for neither side, and its median beats the parent's by
    more than the distance between the parent's quartiles.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one parent and one change value each")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    (q1, q3), change_quartiles = quartiles(parent), quartiles(change)
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    gap = sign * (parent_median - change_median)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [q1, q3],
        "change_quartiles": change_quartiles,
        "change_wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "median_gap": gap,
        "parent_iqr": q3 - q1,
        "median_change_pct": 100.0 * (change_median - parent_median) / parent_median
        if parent_median else 0.0,
        "claim_met": 10 * wins >= 9 * len(parent) and gap > q3 - q1,
    }


def run_perfbench(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int
) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``checkout``: its (result, detail) lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{checkout}: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]


def run_workload(roots: dict, workload: str, pairs: int, spec: dict) -> dict:
    """``pairs`` alternating untraced pairs, then one traced run per side."""
    seconds = spec["run_seconds"]
    base = SEED_BASE[workload]
    seeds = [base + i for i in range(pairs)]
    firsts = [SIDES[i % 2] for i in range(pairs)]
    results = {side: [] for side in SIDES}
    env = {}
    for i, (seed, first) in enumerate(zip(seeds, firsts)):
        for side in (first, SIDES[1 - SIDES.index(first)]):
            result, detail = run_perfbench(roots[side], workload, seed, seconds, 0)
            results[side].append(result)
            env[side] = detail["env"]
        last = {side: results[side][-1]["metrics"] for side in SIDES}
        print(f"{workload} pair {i} seed {seed} ({first} first): " + ", ".join(
            f"{name} {last['parent'][name]['value']:.4g} -> {last['change'][name]['value']:.4g}"
            for name in (m["name"] for m in spec["end_to_end"])), flush=True)
    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in results[side]] for side in SIDES}
        verdict = claim_verdict(values["parent"], values["change"], m["better"])
        worse = verdict["median_change_pct"] * (1 if m["better"] == "lower" else -1)
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"], **values, **verdict,
                              "bound": m["bound"], "within_bound": worse <= 100.0 * m["bound"]}
    traced = {side: run_perfbench(roots[side], workload, seeds[0], seconds, 1)[0]["metrics"]
              for side in SIDES}
    return {
        "pairs": pairs,
        "seeds": seeds,
        "first": firsts,
        "seconds": seconds,
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "attempted": {side: [r["attempted"] for r in results[side]] for side in SIDES},
        "env": env,
        "metrics": metrics,
        "traced": {"seed": seeds[0], **{
            name: {"unit": m["unit"], **{side: traced[side][name]["value"] for side in SIDES}}
            for name, m in traced["parent"].items()}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, choices=sorted(SEED_BASE))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} has no perfbench/run.py")
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    out = {"method": __doc__.split("\n\n", 2)[2].strip(), "workloads": {}}
    try:
        for workload in dict.fromkeys(args.workload):
            out["workloads"][workload] = run_workload(roots, workload, args.pairs, spec)
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    except RuntimeError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    for workload, w in out["workloads"].items():
        for name, m in w["metrics"].items():
            (p1, p3), (c1, c3) = m["parent_quartiles"], m["change_quartiles"]
            print(f"{workload} {name}: parent {m['parent_median']:.6g} [{p1:.6g}, {p3:.6g}], "
                  f"change {m['change_median']:.6g} [{c1:.6g}, {c3:.6g}], "
                  f"{m['median_change_pct']:+.1f} %, wins {m['change_wins']}/{m['pairs']}, "
                  f"claim {'met' if m['claim_met'] else 'not met'}, "
                  f"{'within' if m['within_bound'] else 'beyond'} bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())

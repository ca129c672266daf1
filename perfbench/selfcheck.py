#!/usr/bin/env python3
"""Quick self-check of the benchmark itself, at tiny shapes (seconds, not minutes):

    python3 perfbench/selfcheck.py

For every workload it checks that
1. each metric BENCHMARK.json names is emitted with its unit, in both modes,
   with every output check passing, and that the traced spans' self times
   (simulate.self_ms included) add up to the traced wall time;
2. a corrupted discrete output is counted as a failed check and not passed
   silently: a retention decision whose reported evictions lose one id, and
   a pinned digest that does not match.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run

WORKLOADS = ("prefill_video", "decode_long")


def tiny(name: str, trace: bool = False, pins=None) -> dict:
    # Tiny shapes never use pins.json: its digests are for the full shapes.
    return run.run_workload(name, 0, 0.01, trace, tiny=True, pins=pins or {})


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    import probe
    from dycoke import dynkv

    def drop_evicted(orig):
        def initial_prune(snapshot, cache, *args, **kwargs):
            decision = orig(snapshot, cache, *args, **kwargs)
            return replace(decision, evicted=decision.evicted[:-1])

        return initial_prune

    print("selfcheck: runs with corrupted outputs report failed checks on stderr; that is expected", file=sys.stderr)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = tiny(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
            if got != want:
                problems.append(f"{name} {key}: emitted {sorted(got.items())}, want {sorted(want.items())}")
            if not out["result"]["correct"]:
                problems.append(f"{name} {key}: checks failed: {out['detail']['checks']}")
            if trace and out["detail"]["span_sum_error_s"] > 1e-6:
                problems.append(f"{name}: span self times miss wall by {out['detail']['span_sum_error_s']} s")

        digest = out["detail"]["digest"][0]
        if not tiny(name, pins={name: {"0": digest}})["result"]["correct"]:
            problems.append(f"{name}: matching pinned digest counted as a failure")
        if tiny(name, pins={name: {"0": "0" * 16}})["detail"]["checks"]["digest"]["failed"] == 0:
            problems.append(f"{name}: wrong pinned digest passed")

        patches = probe.Patches()
        patches.wrap(dynkv, "initial_prune", drop_evicted)
        try:
            out = tiny(name)
        finally:
            patches.undo()
        if out["detail"]["checks"]["stage2"]["failed"] == 0 or out["result"]["correct"]:
            problems.append(f"{name}: corrupted retention decision passed")

    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print(f"selfcheck: {'FAIL' if problems else 'ok'} ({len(WORKLOADS)} workloads)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

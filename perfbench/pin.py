#!/usr/bin/env python3
"""Regenerate perfbench/pins.json, the discrete-output digest per workload and seed:

    python3 perfbench/pin.py --seeds 0-63

A digest covers stage-1 survivor ids, decoded ids, each step's retained,
readmitted and evicted ids, and the readmitted total; float bits are left
out. Re-pin only when a change is meant to alter those outputs. A seed is
pinned only from a pass in which every other output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    run.cap_threads()
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    pins = json.loads(run.PINS.read_text()) if run.PINS.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        for seed in range(first, last + 1):
            w = WORKLOADS[name](seed)
            w.setup(run.OUT)
            tally = run.Tally()
            runner = run.Runner(w, seed, tally, {})
            runner.check(run.run_pass(w))
            if getattr(w, "path", None):
                os.remove(w.path)
            if tally.failed:
                print(f"pin: {name} seed {seed} failed checks {tally.kinds}; not pinned", file=sys.stderr)
                return 1
            (digest,) = runner.digests
            pins.setdefault(name, {})[str(seed)] = digest
            print(f"pin: {name} seed {seed} {digest}", flush=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

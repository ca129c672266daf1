#!/usr/bin/env python3
"""Write every byte-stable output of the dycoke CLI into one directory:

    PYTHONPATH=<checkout>/src python3 tools/report_matrix.py OUTDIR

The runs, all at small shapes:

- simulate report, audit log and merge log for every strategy and dtype,
  synthetic and trace-fed, plus one ``-L 0 --merge-mode mean --scale full
  --window 6`` run;
- replay report and audit log at two settings;
- the exit of three runs given an input they would ignore: ``--frames`` to a
  trace-fed simulate, ``--drift`` to a trace-fed sweep and ``--seed`` to replay;
- three cost reports, one the analytic twin of the ``--window 6`` simulate
  run, and two bench reports, plus the exit of a bench given ``-R 2`` and
  of a cost given ``--text-tokens -1``;
- sweep CSV and JSON, synthetic and trace-fed, with one error cell;
- the five subcommands' ``--help`` texts.

Each run NAME also writes NAME.exit: its exit code, then its stderr. The
``build`` stamp, trace paths and timed fields (bench's step times,
``speedup`` and ``ttm_seconds``; sweep's ``mean_step_latency_ms``) are
removed, so the outputs of two checkouts compare with one ``diff -r``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from dycoke.cli import main as dycoke
from dycoke.tokens import CompressionConfig, synth_grid, synth_text
from dycoke.trace import write_trace

UNSTABLE = {"build", "trace_path", "mean_step_s", "median_step_s", "speedup", "ttm_seconds",
            "mean_step_latency_ms"}

MODEL = ["--dim", "16", "--layers", "4"]
GRID = ["--frames", "8", "--tokens-per-frame", "16"]
RATES = ["-K", "0.5", "-L", "2", "-P", "0.7"]
BENCH = ["--model", "custom", "--d", "32", "--m", "64", *GRID, "--steps", "3", "--warmup", "1"]


def _scrub(obj):
    """``obj`` without the keys in UNSTABLE, at any depth."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k not in UNSTABLE}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _scrub_file(path: Path) -> None:
    if path.suffix == ".json":
        path.write_text(json.dumps(_scrub(json.loads(path.read_text())), indent=2,
                                   sort_keys=True) + "\n")
    elif path.suffix == ".csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            columns = [c for c in reader.fieldnames if c not in UNSTABLE]
            rows = [_scrub(row) for row in reader]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)


def _run(out: Path, trace: Path, name: str, argv: list[str], /, **files: str) -> None:
    """Run ``dycoke argv``; each ``files`` entry names a flag whose path is NAME.<suffix>."""
    paths = {flag: out / f"{name}.{suffix}" for flag, suffix in files.items()}
    for flag, path in paths.items():
        argv = [*argv, "--" + flag.replace("_", "-"), str(path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = dycoke(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    if stdout.getvalue():
        (out / f"{name}.txt").write_text(stdout.getvalue())
    stderr_text = stderr.getvalue().replace(str(trace), "<trace>")
    (out / f"{name}.exit").write_text(f"{code}\n{stderr_text}")
    for path in paths.values():
        if path.exists():
            _scrub_file(path)


def _write_trace(path: Path) -> None:
    """The trace-fed runs' input: the synthetic shape, three text rows, and
    attention blocks at layers 1 and 2 for steps 0-5."""
    config = CompressionConfig(seed=3)
    grid = synth_grid(config, 8, 16, 16, drift=0.1)
    rng = np.random.default_rng(3)
    blocks = {(step, layer): rng.random(grid.total_tokens).astype(np.float32)
              for step in range(6) for layer in (1, 2)}
    write_trace(path, grid, synth_text(config, 3, 16), blocks, layers=4, heads=4)


def write_matrix(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    trace = out / "trace.dyck"
    _write_trace(trace)
    inputs = {"synthetic": GRID, "trace": ["--trace", str(trace)]}
    logs = {"report": "json", "audit_log": "audit.jsonl", "merge_log": "merge.jsonl"}

    for source, given in inputs.items():
        for strategy in ("dycoke", "one_shot", "random", "none"):
            for dtype in ("float32", "float64"):
                _run(out, trace, f"simulate-{source}-{strategy}-{dtype}",
                     ["simulate", *given, *MODEL, *RATES, "--seed", "1", "-R", "6",
                      "--strategy", strategy, "--dtype", dtype], **logs)
    _run(out, trace, "simulate-synthetic-mean-L0",
         ["simulate", *GRID, *MODEL, "-K", "0.7", "-L", "0", "-P", "0.5", "--merge-mode", "mean",
          "--scale", "full", "--window", "6", "-R", "5"], **logs)

    _run(out, trace, "replay-L2", ["replay", "--trace", str(trace), *RATES],
         report="json", audit_log="audit.jsonl")
    _run(out, trace, "replay-L1-mean",
         ["replay", "--trace", str(trace), "-K", "0.3", "-L", "1", "-P", "0.5", "--window", "2"],
         report="json", audit_log="audit.jsonl")

    # Reports go to the null device: a checkout that accepts the input leaves no extra file.
    _run(out, trace, "simulate-trace-frames",
         ["simulate", "--trace", str(trace), *MODEL, "-R", "2", "--frames", "3",
          "--report", os.devnull])
    _run(out, trace, "sweep-trace-drift",
         ["sweep", "--trace", str(trace), *MODEL, "-R", "2", "--drift", "0.1", "--out", os.devnull])
    _run(out, trace, "replay-seed",
         ["replay", "--trace", str(trace), *RATES, "--seed", "1", "--report", os.devnull])

    _run(out, trace, "cost-7b", ["cost", "--model", "7b", "-K", "0.7", "-P", "0.7"], report="json")
    _run(out, trace, "cost-custom",
         ["cost", "--model", "custom", "--d", "64", "--m", "128", "--layers", "3", *GRID,
          "--text-tokens", "4", "-K", "0.5", "-P", "0.5", "-R", "8"], report="json")
    _run(out, trace, "cost-custom-window6",
         ["cost", "--model", "custom", "--d", "16", "--m", "32", "--layers", "4", *GRID,
          "--text-tokens", "4", "-K", "0.7", "-P", "0.5", "--window", "6", "-R", "5"],
         report="json")
    _run(out, trace, "cost-text-negative",
         ["cost", "--model", "7b", "--text-tokens", "-1", "--report", os.devnull])

    _run(out, trace, "bench-default", ["bench", *BENCH, "--layers", "2"], report="json")
    _run(out, trace, "bench-R", ["bench", *BENCH, "-R", "2", "--report", os.devnull])
    _run(out, trace, "bench-baselines",
         ["bench", *BENCH, "--layers", "3", "--heads", "2", "-L", "1", "-K", "0.5", "-P", "0.5",
          "--window", "2", "--seed", "4", "--dtype", "float64", "--strategies", "one_shot,random"],
         report="json")

    for source, given in inputs.items():
        for fmt in ("csv", "json"):
            _run(out, trace, f"sweep-{source}-{fmt}",
                 ["sweep", *given, *MODEL, "-R", "4", "--K-grid", "0.3,0.7", "--L-grid", "1,9",
                  "--P-grid", "0.5", "--format", fmt], out=fmt)

    for command in ("simulate", "sweep", "replay", "cost", "bench"):
        _run(out, trace, f"help-{command}", [command, "--help"])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    write_matrix(Path(sys.argv[1]))

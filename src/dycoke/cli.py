"""Command-line harness: simulate | sweep | replay | cost | bench.

Exit codes: 0 success, 2 config/usage error (a shape too large to
allocate, or inputs that overflow the decoder's dtype, included), 3
invariant violation.
Reports are JSON (CSV for sweeps); identical specs produce byte-identical
reports unless timing output is requested, and sweep CSVs apart from their
timed mean_step_latency_ms column.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import costmodel, dynkv, simulate, trace as trace_io
from .attention import EmptyKeySet, MODEL_PRESETS, ModelDims
from .tokens import CompressionConfig


def _emit(obj: dict, path: str | None) -> None:
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(payload)
    else:
        sys.stdout.write(payload)


def _write_jsonl(rows: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# Every flag that more than one subcommand takes, defined once under its dest.
# Its default is simulate's (or, for a flag simulate lacks, its subcommands');
# a subcommand that differs sets its own with set_defaults, and a help text or
# ``required`` passed to _add replaces the entry's.
_SHARED: dict[str, dict] = {
    "k_rate": {"flags": ("-K", "--k-rate"), "type": float, "default": 0.7,
               "help": "stage-1 pruning rate"},
    "eval_layer": {"flags": ("-L", "--eval-layer"), "type": int, "default": 3,
                   "help": "attention evaluation layer"},
    "p_rate": {"flags": ("-P", "--p-rate"), "type": float, "default": 0.7,
               "help": "stage-2 pruning rate"},
    "window_len": {"flags": ("--window",), "metavar": "WINDOW", "type": int, "default": 4,
                   "help": "sliding window length in frames"},
    "merge_mode": {"flags": ("--merge-mode",), "choices": ("drop", "mean"), "default": "drop"},
    "seed": {"flags": ("--seed",), "type": int, "default": 0},
    "dim": {"flags": ("--dim",), "type": int, "default": 64,
            "help": "hidden size (and grid token dim)"},
    "layers": {"flags": ("--layers",), "type": int, "default": 6},
    "ffn": {"flags": ("--ffn",), "type": int, "help": "FFN inner size (default 2*dim)"},
    "heads": {"flags": ("--heads",), "type": int, "default": 4},
    "scale": {"flags": ("--scale",), "choices": ("head", "full"), "default": "head",
              "help": "softmax scaling: sqrt(head_dim) or sqrt(hidden)"},
    "dtype": {"flags": ("--dtype",), "choices": simulate.DTYPES, "default": "float64"},
    "frames": {"flags": ("--frames",), "type": int},
    "tokens_per_frame": {"flags": ("--tokens-per-frame",), "type": int},
    "text_tokens": {"flags": ("--text-tokens",), "type": int},
    "drift": {"flags": ("--drift",), "type": float,
              "help": "frame-to-frame perturbation scale for synthetic grids"},
    "trace": {"flags": ("--trace",), "help": "replay embeddings from a trace file"},
    "steps": {"flags": ("-R", "--steps"), "type": int, "default": 8},
    "strategy": {"flags": ("--strategy",), "choices": simulate.STRATEGIES, "default": "dycoke"},
    "model": {"flags": ("--model",), "choices": (*MODEL_PRESETS, "custom"), "default": "7b"},
    "d": {"flags": ("--d",), "type": int, "help": "hidden size (custom model)"},
    "m": {"flags": ("--m",), "type": int, "help": "FFN inner size (custom model)"},
    "report": {"flags": ("--report",)},
    "audit_log": {"flags": ("--audit-log",)},
}
_RATES = ("k_rate", "eval_layer", "p_rate", "window_len")
_SHAPE = ("frames", "tokens_per_frame", "text_tokens")
# Runs that feed data through the toy model; replay runs no model.
_MODEL = ("merge_mode", "seed", "dim", "layers", "ffn", "heads", "scale", "dtype")
_INPUT = (*_SHAPE, "drift", "trace")


def _add(p: argparse.ArgumentParser, *names: str, **keywords) -> None:
    """Add the shared flags ``names`` to ``p`` in order, ``keywords`` over each one's own."""
    for name in names:
        entry = _SHARED[name] | keywords
        p.add_argument(*entry.pop("flags"), dest=name, **entry)


def _config_from(args, **fixed) -> CompressionConfig:
    """Config from the subcommand's flags, then ``fixed``; a field with no flag keeps its default."""
    given = {f.name: getattr(args, f.name) for f in fields(CompressionConfig)
             if f.name in vars(args)}
    return CompressionConfig(**given | fixed)


def _spec_from(args, timing: bool = False) -> simulate.RunSpec:
    return simulate.RunSpec(
        config=_config_from(args),
        dims=ModelDims(layers=args.layers, hidden=args.dim, heads=args.heads,
                       ffn_inner=args.ffn if args.ffn is not None else 2 * args.dim),
        mode="trace" if args.trace else "synthetic",
        trace_path=args.trace,
        decode_steps=args.steps,
        strategy=args.strategy,
        scale=args.scale,
        dtype=args.dtype,
        timing=timing,
        **_shape_from(args),
    )


def _shape_from(args) -> dict:
    """The synthetic-shape flags given; a shape field the subcommand has no flag for stays unset."""
    return {name: getattr(args, name, None) for name in simulate.SYNTHETIC_SHAPE}


def _model_dims(args, heads: int | None, custom_heads: int) -> ModelDims:
    """The shape ``--model`` names, with its depth and head count overridden by
    ``--layers`` and ``heads`` when given.

    ``custom`` names no shape: it needs ``--d``, ``--m`` and ``--layers``, and
    has ``custom_heads`` heads unless ``heads`` is given.
    """
    if args.model != "custom":
        preset = MODEL_PRESETS[args.model]
        return replace(
            preset,
            layers=preset.layers if args.layers is None else args.layers,
            heads=preset.heads if heads is None else heads,
        )
    given = {"--d": args.d, "--m": args.m, "--layers": args.layers}
    missing = " and ".join(flag for flag, value in given.items() if value is None)
    if missing:
        raise ValueError(f"--model custom requires {missing}")
    return ModelDims(layers=args.layers, hidden=args.d, ffn_inner=args.m,
                     heads=custom_heads if heads is None else heads)


# -- subcommands ------------------------------------------------------------


def cmd_simulate(args) -> int:
    result = simulate.run_simulation(_spec_from(args, timing=args.timing))
    _emit(result.to_json(), args.report)
    if args.audit_log:
        _write_jsonl(result.audit, args.audit_log)
    if args.merge_log:  # a record's TokenIds are tuples, so they dump as [frame, position]
        _write_jsonl([r._asdict() for r in result.ttm.records], args.merge_log)
    return 0


def cmd_sweep(args) -> int:
    base = _spec_from(args)
    grids = [_parse_grid(flag, g, t) for flag, g, t in
             (("--K-grid", args.K_grid, float), ("--L-grid", args.L_grid, int),
              ("--P-grid", args.P_grid, float))]
    rows = simulate.run_sweep(base, *grids)
    if args.format == "csv":
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
        with out as fh:
            writer = csv.DictWriter(fh, fieldnames=simulate.SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    else:
        _emit({"schema": simulate.REPORT_SCHEMA, "kind": "sweep", "rows": rows}, args.out)
    return 0


def _parse_grid(flag: str, text: str, cast):
    try:
        values = [cast(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a list of {cast.__name__}s") from None
    if not values:
        raise ValueError(f"{flag} has no values: {text!r}")
    return values


def cmd_replay(args) -> int:
    result = simulate.run_replay(args.trace, _config_from(args))
    _emit(result.to_json(), args.report)
    if args.audit_log:
        _write_jsonl(result.audit, args.audit_log)
    return 0


def cmd_cost(args) -> int:
    dims = _model_dims(args, heads=None, custom_heads=1)
    # the run this report models must be one simulate would accept
    spec = simulate.RunSpec(config=_config_from(args), dims=dims, decode_steps=args.steps,
                            **_shape_from(args))
    n_visual = spec.frames * spec.tokens_per_frame
    flops = costmodel.modelled_flops(
        spec.config, dims, n_visual, n_text=spec.text_tokens, decode_steps=spec.decode_steps
    )
    stage1, final = costmodel.retained_ratio(spec.config)

    def phases(prefill: int, decode: int, total: int) -> dict:
        return {"prefill_flops": prefill, "decode_flops": decode, "total_flops": total,
                "total_tflops": costmodel.tera(total)}

    _emit(
        {
            "schema": simulate.REPORT_SCHEMA,
            "kind": "cost",
            "build": simulate.build_stamp(),
            "model": args.model,
            "dims": {name: getattr(dims, name) for name in ("layers", "hidden", "ffn_inner")},
            "frames": args.frames,
            "tokens_per_frame": args.tokens_per_frame,
            "n_visual": n_visual,
            "text_tokens": args.text_tokens,
            "decode_steps": args.steps,
            "K": args.k_rate,
            "P": args.p_rate,
            "window": args.window_len,
            "cost": phases(flops.prefill, flops.decode, flops.total) | {
                "retained_ratio_stage1": stage1,
                "retained_ratio_final": final,
                "flops_ratio_vs_full": flops.ratio,
            },
            "full": phases(flops.full_prefill, flops.full_decode, flops.full_total),
        },
        args.report,
    )
    return 0


def cmd_bench(args) -> int:
    dims = _model_dims(args, heads=args.heads, custom_heads=4)
    config = _config_from(args, heads=dims.heads)
    result = simulate.run_bench(
        dims,
        config,
        frames=args.frames,
        tokens_per_frame=args.tokens_per_frame,
        text_tokens=args.text_tokens,
        steps=args.steps,
        warmup=args.warmup,
        dtype=args.dtype,
        strategies=tuple(args.strategies.split(",")),
    )
    _emit(result.to_json(), args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dycoke",
        description="Two-stage visual-token compression simulator and cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one end-to-end compression simulation")
    _add(p, *_RATES, *_MODEL, *_INPUT)
    _add(p, "steps", help="decode steps")
    _add(p, "strategy")
    _add(p, "report", help="report path (stdout if omitted)")
    _add(p, "audit_log", help="retention decisions as JSON lines")
    p.add_argument("--merge-log", help="stage-1 merge records as JSON lines")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings (report no longer byte-stable)")
    p.set_defaults(func=cmd_simulate, parser=p)

    p = sub.add_parser("sweep", help="cross-product sweep over the K, L and P grids")
    _add(p, "window_len", *_MODEL, *_INPUT, "steps", "strategy")
    p.add_argument("--K-grid", default="0.3,0.5,0.7")
    p.add_argument("--L-grid", default="3")
    p.add_argument("--P-grid", default="0.7")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_sweep, parser=p, layers=12)

    p = sub.add_parser("replay", help="drive retention from recorded attention rows")
    _add(p, *_RATES)
    _add(p, "trace", required=True, help=None)
    _add(p, "report", "audit_log")
    p.set_defaults(func=cmd_replay, parser=p)

    p = sub.add_parser("cost", help="analytic FLOPs and retained-ratio report")
    _add(p, "model", "d", "m")
    _add(p, "layers", help="layer count (default: the preset's; required for custom)")
    _add(p, *_SHAPE, "k_rate", "p_rate", "window_len", "steps", "report")
    p.set_defaults(func=cmd_cost, parser=p, layers=None, frames=32, tokens_per_frame=196,
                   text_tokens=0, steps=100)

    p = sub.add_parser("bench", help="decode-step wall-clock comparison")
    _add(p, "model", "d", "m")
    _add(p, "layers", help="layer count (default 2: per-step cost scales linearly in layers)")
    _add(p, "heads", help="head count (default: the preset's; 4 for custom)")
    _add(p, *_RATES, "seed", *_SHAPE, "steps")
    p.add_argument("--warmup", type=int, default=3)
    _add(p, "dtype")
    p.add_argument("--strategies", default="none,dycoke")
    _add(p, "report")
    p.set_defaults(func=cmd_bench, parser=p, layers=2, heads=None, eval_layer=0, frames=32,
                   tokens_per_frame=196, text_tokens=4, steps=12, dtype="float32")

    return parser


def main(argv=None) -> int:
    args, stray = build_parser().parse_known_args(argv)
    if stray:  # named by the subcommand's parser, whose usage lists the flags it takes
        args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
    try:
        return args.func(args)
    except dynkv.InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        print(json.dumps(exc.state, sort_keys=True), file=sys.stderr)
        return 3
    except (EmptyKeySet, dynkv.MissingParkedRow) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, trace_io.TraceError, trace_io.MissingAttentionBlock) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: {exc}: the inputs are too large for --dtype", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import replace
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


def _add_rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-K", "--k-rate", type=float, default=0.7, help="stage-1 pruning rate")
    p.add_argument("-L", "--eval-layer", type=int, default=3, help="attention evaluation layer")
    p.add_argument("-P", "--p-rate", type=float, default=0.7, help="stage-2 pruning rate")


def _add_compression_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=4, help="sliding window length in frames")
    p.add_argument("--merge-mode", choices=("drop", "mean"), default="drop")
    p.add_argument("--seed", type=int, default=0)


def _add_model_flags(p: argparse.ArgumentParser, layers_default: int = 6) -> None:
    p.add_argument("--dim", type=int, default=64, help="hidden size (and grid token dim)")
    p.add_argument("--layers", type=int, default=layers_default)
    p.add_argument("--ffn", type=int, default=None, help="FFN inner size (default 2*dim)")
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--scale", choices=("head", "full"), default="head",
                   help="softmax scaling: sqrt(head_dim) or sqrt(hidden)")
    p.add_argument("--dtype", choices=simulate.DTYPES, default="float64")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--tokens-per-frame", type=int, default=16)
    p.add_argument("--text-tokens", type=int, default=4)
    p.add_argument("--drift", type=float, default=0.05,
                   help="frame-to-frame perturbation scale for synthetic grids")
    p.add_argument("--trace", default=None, help="replay embeddings from a trace file")


def _config_from(args) -> CompressionConfig:
    """The run's config; sweep has no rate flags, so its cells set K, L and P from the grids."""
    rates = {f: getattr(args, f) for f in ("k_rate", "eval_layer", "p_rate") if f in vars(args)}
    return CompressionConfig(
        window_len=args.window,
        heads=args.heads,
        seed=args.seed,
        merge_mode=args.merge_mode,
        **rates,
    )


def _dims_from(args) -> ModelDims:
    return ModelDims(
        layers=args.layers,
        hidden=args.dim,
        ffn_inner=args.ffn if args.ffn is not None else 2 * args.dim,
        heads=args.heads,
    )


def _spec_from(args, timing: bool = False) -> simulate.RunSpec:
    return simulate.RunSpec(
        config=_config_from(args),
        dims=_dims_from(args),
        mode="trace" if args.trace else "synthetic",
        frames=args.frames,
        tokens_per_frame=args.tokens_per_frame,
        trace_path=args.trace,
        text_tokens=args.text_tokens,
        decode_steps=args.steps,
        strategy=args.strategy,
        drift=args.drift,
        scale=args.scale,
        dtype=args.dtype,
        timing=timing,
    )


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
    values = [cast(v) for v in text.split(",") if v.strip() != ""]
    if not values:
        raise ValueError(f"{flag} has no values: {text!r}")
    return values


def cmd_replay(args) -> int:
    config = _config_from(args)
    result = simulate.run_replay(args.trace, config)
    _emit(result.to_json(), args.report)
    if args.audit_log:
        _write_jsonl(result.audit, args.audit_log)
    return 0


def cmd_cost(args) -> int:
    dims = _model_dims(args, heads=None, custom_heads=1)
    config = CompressionConfig(k_rate=args.k_rate, p_rate=args.p_rate)
    if args.frames < 1 or args.tokens_per_frame < 1:
        raise ValueError("frames and tokens_per_frame must be >= 1")
    n_visual = args.frames * args.tokens_per_frame
    report = costmodel.compression_report(
        config, dims, n_visual, n_text=args.text_tokens, decode_steps=args.steps
    )
    full_pre, full_dec = report.full
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
            "cost": report.to_json(),
            "full": {
                "prefill_flops": full_pre,
                "decode_flops": full_dec,
                "total_flops": full_pre + full_dec,
                "total_tflops": costmodel.tera(full_pre + full_dec),
            },
        },
        args.report,
    )
    return 0


def cmd_bench(args) -> int:
    dims = _model_dims(args, heads=args.heads, custom_heads=4)
    config = CompressionConfig(
        k_rate=args.k_rate, eval_layer=args.eval_layer, p_rate=args.p_rate,
        window_len=args.window, heads=dims.heads, seed=args.seed,
    )
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
    _add_rate_flags(p)
    _add_compression_flags(p)
    _add_model_flags(p)
    _add_input_flags(p)
    p.add_argument("-R", "--steps", type=int, default=8, help="decode steps")
    p.add_argument("--strategy", choices=simulate.STRATEGIES, default="dycoke")
    p.add_argument("--report", default=None, help="report path (stdout if omitted)")
    p.add_argument("--audit-log", default=None, help="retention decisions as JSON lines")
    p.add_argument("--merge-log", default=None, help="stage-1 merge records as JSON lines")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timings (report no longer byte-stable)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="cross-product sweep over the K, L and P grids")
    _add_compression_flags(p)
    _add_model_flags(p, layers_default=12)
    _add_input_flags(p)
    p.add_argument("-R", "--steps", type=int, default=8)
    p.add_argument("--strategy", choices=simulate.STRATEGIES, default="dycoke")
    p.add_argument("--K-grid", default="0.3,0.5,0.7")
    p.add_argument("--L-grid", default="3")
    p.add_argument("--P-grid", default="0.7")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="drive retention from recorded attention rows")
    _add_rate_flags(p)
    _add_compression_flags(p)
    p.add_argument("--heads", type=int, default=4,
                   help="echoed in the report's config only; replay runs no attention")
    p.add_argument("--trace", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--audit-log", default=None)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("cost", help="analytic FLOPs and retained-ratio report")
    p.add_argument("--model", choices=("0.5b", "7b", "72b", "custom"), default="7b")
    p.add_argument("--d", type=int, default=None, help="hidden size (custom model)")
    p.add_argument("--m", type=int, default=None, help="FFN inner size (custom model)")
    p.add_argument("--layers", type=int, default=None,
                   help="layer count (default: the preset's; required for custom)")
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--tokens-per-frame", type=int, default=196)
    p.add_argument("--text-tokens", type=int, default=0)
    p.add_argument("-K", "--k-rate", type=float, default=0.7)
    p.add_argument("-P", "--p-rate", type=float, default=0.7)
    p.add_argument("-R", "--steps", type=int, default=100)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bench", help="decode-step wall-clock comparison")
    p.add_argument("--model", choices=("0.5b", "7b", "72b", "custom"), default="7b")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--layers", type=int, default=2,
                   help="layer count (default 2: per-step cost scales linearly in layers)")
    p.add_argument("--heads", type=int, default=None,
                   help="head count (default: the preset's; 4 for custom)")
    p.add_argument("-K", "--k-rate", type=float, default=0.7)
    p.add_argument("-L", "--eval-layer", type=int, default=0)
    p.add_argument("-P", "--p-rate", type=float, default=0.7)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--tokens-per-frame", type=int, default=196)
    p.add_argument("--text-tokens", type=int, default=4)
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--dtype", choices=simulate.DTYPES, default="float32")
    p.add_argument("--strategies", default="none,dycoke")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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

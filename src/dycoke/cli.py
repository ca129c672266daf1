"""Command-line harness: simulate | sweep | replay | cost | bench.

Exit codes: 0 success, 2 config/usage error, 3 invariant violation.
Reports are JSON (CSV for sweeps); identical specs produce byte-identical
reports unless timing output is requested.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
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


def _add_compression_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-K", "--k-rate", type=float, default=0.7, help="stage-1 pruning rate")
    p.add_argument("-L", "--eval-layer", type=int, default=3, help="attention evaluation layer")
    p.add_argument("-P", "--p-rate", type=float, default=0.7, help="stage-2 pruning rate")
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
    p.add_argument("--dtype", choices=("float32", "float64"), default="float64")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--tokens-per-frame", type=int, default=16)
    p.add_argument("--text-tokens", type=int, default=4)
    p.add_argument("--drift", type=float, default=0.05,
                   help="frame-to-frame perturbation scale for synthetic grids")
    p.add_argument("--trace", default=None, help="replay embeddings from a trace file")


def _config_from(args) -> CompressionConfig:
    return CompressionConfig(
        k_rate=args.k_rate,
        eval_layer=args.eval_layer,
        p_rate=args.p_rate,
        window_len=args.window,
        heads=args.heads,
        seed=args.seed,
        merge_mode=args.merge_mode,
    )


def _dims_from(args) -> ModelDims:
    return ModelDims(
        layers=args.layers,
        hidden=args.dim,
        ffn_inner=args.ffn if args.ffn is not None else 2 * args.dim,
        heads=args.heads,
    )


def _spec_from(args) -> simulate.RunSpec:
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
        timing=args.timing,
    )


def _preset_dims(args) -> ModelDims:
    if args.model != "custom":
        return MODEL_PRESETS[args.model]
    if None in (args.d, args.m, args.layers):
        raise ValueError("--model custom requires --d, --m and --layers")
    return ModelDims(layers=args.layers, hidden=args.d, ffn_inner=args.m, heads=1)


# -- subcommands ------------------------------------------------------------


def cmd_simulate(args) -> int:
    spec = _spec_from(args)
    result = simulate.run_simulation(spec)
    _emit(result.to_json(), args.report)
    if args.audit_log:
        _write_jsonl(result.audit, args.audit_log)
    if args.merge_log:
        _write_jsonl(
            [
                {"removed": list(r.removed), "kept_as": list(r.kept_as), "similarity": r.similarity}
                for r in result.ttm.records
            ],
            args.merge_log,
        )
    return 0


def cmd_sweep(args) -> int:
    base = _spec_from(args)
    grids = [_parse_grid(flag, g, t) for flag, g, t in
             (("--K-grid", args.K_grid, float), ("--L-grid", args.L_grid, int),
              ("--P-grid", args.P_grid, float))]
    rows = simulate.run_sweep(base, *grids, jobs=args.jobs)
    if args.format == "csv":
        out = sys.stdout if not args.out else open(args.out, "w", newline="")
        try:
            writer = csv.DictWriter(out, fieldnames=simulate.SWEEP_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        finally:
            if args.out:
                out.close()
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
    dims = _preset_dims(args)
    config = CompressionConfig(k_rate=args.k_rate, p_rate=args.p_rate, heads=dims.heads)
    n_visual = args.frames * args.tokens_per_frame
    report = costmodel.compression_report(
        config, dims, n_visual, n_text=args.text_tokens, decode_steps=args.steps
    )
    if args.frames < 1 or args.tokens_per_frame < 1:
        raise ValueError("frames and tokens_per_frame must be >= 1")
    full_pre, full_dec = report.full
    _emit(
        {
            "schema": simulate.REPORT_SCHEMA,
            "kind": "cost",
            "build": simulate.build_stamp(),
            "model": args.model,
            "dims": {
                "layers": dims.layers,
                "hidden": dims.hidden,
                "ffn_inner": dims.ffn_inner,
            },
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
    layers = 2 if args.layers is None else args.layers
    if args.model != "custom":
        preset = MODEL_PRESETS[args.model]
        dims = ModelDims(
            layers=layers,
            hidden=preset.hidden,
            ffn_inner=preset.ffn_inner,
            heads=preset.heads,
        )
    else:
        if args.d is None or args.m is None:
            raise ValueError("--model custom requires --d and --m")
        dims = ModelDims(layers=layers, hidden=args.d, ffn_inner=args.m, heads=args.heads)
    config = CompressionConfig(
        k_rate=args.k_rate, eval_layer=args.eval_layer, p_rate=args.p_rate,
        window_len=args.window, heads=dims.heads, seed=args.seed,
    )
    strategies = tuple(args.strategies.split(","))
    if len(strategies) != 2:
        raise ValueError("--strategies must name exactly two strategies, e.g. none,dycoke")
    result = simulate.run_bench(
        dims,
        config,
        frames=args.frames,
        tokens_per_frame=args.tokens_per_frame,
        text_tokens=args.text_tokens,
        steps=args.steps,
        warmup=args.warmup,
        dtype=args.dtype,
        strategies=strategies,
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

    p = sub.add_parser("sweep", help="cross-product sweep over K, L, P")
    _add_compression_flags(p)
    _add_model_flags(p, layers_default=12)
    _add_input_flags(p)
    p.add_argument("-R", "--steps", type=int, default=8)
    p.add_argument("--strategy", choices=simulate.STRATEGIES, default="dycoke")
    p.add_argument("--K-grid", default="0.3,0.5,0.7")
    p.add_argument("--L-grid", default="3")
    p.add_argument("--P-grid", default="0.7")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; at most one per grid cell and per CPU")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (stdout if omitted)")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="drive retention from recorded attention rows")
    _add_compression_flags(p)
    p.add_argument("--heads", type=int, default=4, dest="heads")
    p.add_argument("--trace", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--audit-log", default=None)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("cost", help="analytic FLOPs and retained-ratio report")
    p.add_argument("--model", choices=("0.5b", "7b", "72b", "custom"), default="7b")
    p.add_argument("--d", type=int, default=None, help="hidden size (custom model)")
    p.add_argument("--m", type=int, default=None, help="FFN inner size (custom model)")
    p.add_argument("--layers", type=int, default=None, help="layer count (custom model)")
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
    p.add_argument("--layers", type=int, default=None,
                   help="layer count (default 2: per-step cost scales linearly in layers)")
    p.add_argument("--heads", type=int, default=4)
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
    p.add_argument("--dtype", choices=("float32", "float64"), default="float32")
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


if __name__ == "__main__":
    sys.exit(main())

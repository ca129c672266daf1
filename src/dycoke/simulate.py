"""End-to-end runs: stage-1 merge, prefill, strategy-driven decode, reports.

This module owns the orchestration the CLI fronts: synthetic or trace-fed
simulations, attention-replay runs that drive retention decisions from
recorded scores, parameter sweeps, and wall-clock benchmarks. Reports are
plain dicts rendered to JSON/CSV by the CLI; with timing disabled a report
is a pure function of its RunSpec, so identical specs give identical bytes.
"""

from __future__ import annotations

import functools
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import costmodel, dynkv, trace as trace_io
from .attention import (
    AttentionSnapshot,
    ModelDims,
    ToyDecoder,
    _cpus,
    _fill_normal,
    _prefill_workers,
    _run_blocks,
)
from .tokens import CompressionConfig, TextTokens, VisualTokenGrid, synth_grid, synth_text
from .ttm import TtmResult, apply_ttm

STRATEGIES = ("dycoke", "one_shot", "random", "none")

REPORT_SCHEMA = "dycoke-report/1"

SWEEP_COLUMNS = [
    "K",
    "L",
    "P",
    "retained_ratio_stage1",
    "retained_ratio_final",
    "flops_ratio",
    "mean_swap_churn",
    "mean_step_latency_ms",
    "status",
]


@functools.cache
def build_stamp() -> str:
    """Package version plus git describe when available; computed once per process."""
    from . import __version__

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"dycoke {__version__} ({out.stdout.strip()})"
    except Exception:
        pass
    return f"dycoke {__version__}"


@dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run needs; picklable for sweep workers."""

    config: CompressionConfig = CompressionConfig()
    dims: ModelDims = ModelDims(layers=6, hidden=64, ffn_inner=128, heads=4)
    mode: str = "synthetic"
    frames: int = 8
    tokens_per_frame: int = 16
    trace_path: str | None = None
    text_tokens: int = 4
    decode_steps: int = 8
    strategy: str = "dycoke"
    drift: float = 0.05
    scale: str = "head"
    dtype: str = "float64"
    timing: bool = False

    def validate(self) -> None:
        self.config.validate()
        if self.mode not in ("synthetic", "trace"):
            raise ValueError(f"mode must be 'synthetic' or 'trace', got {self.mode!r}")
        if self.mode == "trace" and not self.trace_path:
            raise ValueError("trace mode requires a trace path")
        if self.mode == "synthetic" and self.trace_path:
            raise ValueError("provide either a grid shape or a trace path, not both")
        if self.mode == "synthetic" and (self.frames < 1 or self.tokens_per_frame < 1):
            raise ValueError("frames and tokens_per_frame must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.decode_steps < 1:
            raise ValueError(f"decode_steps must be >= 1, got {self.decode_steps}")
        if self.config.eval_layer >= self.dims.layers:
            raise ValueError(
                f"eval_layer {self.config.eval_layer} must be < model layers {self.dims.layers}"
            )
        if self.text_tokens < 0:
            raise ValueError("text_tokens must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    def echo(self) -> dict:
        out = asdict(self)
        out["config"] = asdict(self.config)
        out["dims"] = asdict(self.dims)
        return out


def _decide(
    strategy: str,
    step: int,
    snapshot: AttentionSnapshot,
    cache: dynkv.DualCache,
    config: CompressionConfig,
) -> dynkv.RetentionDecision | None:
    """The strategy's stage-2 decision for one step: prune at step 0, then swap.

    The dynkv functions are looked up at call time so wrappers installed on the
    module see every call.
    """
    if strategy == "none":
        return None
    if step > 0:
        return dynkv.dynamic_swap(snapshot, cache, config)
    if strategy == "dycoke":
        return dynkv.initial_prune(snapshot, cache, config)
    if strategy == "one_shot":
        return dynkv.one_shot_prune(snapshot, cache, config)
    return dynkv.random_prune(cache, config)


def _step_row(step: int, decision: dynkv.RetentionDecision | None) -> dict:
    return {
        "step": step,
        "readmitted": len(decision.readmitted) if decision else 0,
        "evicted": len(decision.evicted) if decision else 0,
        "threshold": decision.threshold if decision else None,
    }


def _decode(
    decoder: ToyDecoder,
    cache: dynkv.DualCache,
    emb: np.ndarray,
    steps: int,
    strategy: str,
    config: CompressionConfig,
) -> tuple[list[dict], list[dynkv.RetentionDecision], list[int], np.ndarray, list[float]]:
    """Closed decode loop: ``steps`` steps, each waiting for the one before it.

    The strategy decides at the eval-layer snapshot, inside the step, so the
    layers above already attend over the new active set. Returns step rows,
    decisions, tokens, float64 hidden states and decode_step seconds.
    """
    rows: list[dict] = []
    decisions: list[dynkv.RetentionDecision] = []
    tokens: list[int] = []
    seconds: list[float] = []
    hidden_states = np.empty((steps, decoder.dims.hidden), dtype=np.float64)
    for step in range(steps):
        decided: list = []

        def on_snapshot(snapshot: AttentionSnapshot, step: int = step) -> None:
            decided.append(_decide(strategy, step, snapshot, cache, config))

        t0 = time.perf_counter()
        hidden, _ = decoder.decode_step(emb, cache, step, on_snapshot=on_snapshot)
        seconds.append(time.perf_counter() - t0)
        cache.check_invariants(step)
        hidden_states[step] = hidden
        token, emb = decoder.select_token(hidden)
        tokens.append(token)
        decision = decided[0]
        if decision is not None:
            decisions.append(decision)
        rows.append(_step_row(step, decision) | {"active_visual": len(cache.active_rows)})
    return rows, decisions, tokens, hidden_states, seconds


@dataclass
class SimResult:
    spec: RunSpec
    total_visual: int
    ttm: TtmResult = field(repr=False)
    text_count: int = 0
    quota: int = 0
    retained_ratio_stage1: float = 0.0
    retained_ratio_final: float = 0.0
    decoded_ids: list[int] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)
    audit: list[dict] = field(default_factory=list)
    flops: dict = field(default_factory=dict)
    hidden_states: np.ndarray | None = field(default=None, repr=False)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "kind": "simulate",
            "build": build_stamp(),
            "spec": self.spec.echo(),
            "tokens": {
                "visual_total": self.total_visual,
                "stage1_retained": self.ttm.retained_count,
                "stage1_removed": self.total_visual - self.ttm.retained_count,
                "merge_records": len(self.ttm.records),
                "text": self.text_count,
                "generated": len(self.decoded_ids),
                "retention_quota": self.quota,
            },
            "retained_ratio_stage1": self.retained_ratio_stage1,
            "retained_ratio_final": self.retained_ratio_final,
            "flops": self.flops,
            "decoded_ids": self.decoded_ids,
            "steps": self.steps,
            "audit": self.audit,
        }
        if self.spec.timing:
            out["timing"] = self.timings
        return out


def _load_inputs(spec: RunSpec) -> tuple[VisualTokenGrid, TextTokens]:
    if spec.mode == "trace":
        contents = trace_io.load_trace(spec.trace_path)
        return contents.grid, contents.text
    grid = synth_grid(spec.config, spec.frames, spec.tokens_per_frame, spec.dims.hidden, spec.drift)
    text = synth_text(spec.config, spec.text_tokens, spec.dims.hidden)
    return grid, text


def _flops_summary(
    dims: ModelDims, n_visual: int, n_text: int, survivors: int, active: int, steps: int
) -> dict:
    (pre, dec), full = costmodel.phase_flops(dims, n_visual, n_text, survivors, active, steps)
    full_total = sum(full)
    return {
        "prefill": pre,
        "decode": dec,
        "total": pre + dec,
        "total_tflops": costmodel.tera(pre + dec),
        "full_total": full_total,
        "full_total_tflops": costmodel.tera(full_total),
        "ratio_vs_full": (pre + dec) / full_total,
    }


def run_simulation(spec: RunSpec) -> SimResult:
    """Stage-1 merge, prefill, then ``decode_steps`` strategy-driven steps."""
    spec.validate()
    grid, text = _load_inputs(spec)
    if grid.hidden_dim != spec.dims.hidden:
        raise ValueError(f"grid dim {grid.hidden_dim} != model hidden {spec.dims.hidden}")
    if text.count and text.hidden_dim != spec.dims.hidden:
        raise ValueError(f"text dim {text.hidden_dim} != model hidden {spec.dims.hidden}")

    t0 = time.perf_counter()
    ttm = apply_ttm(grid, spec.config)
    ttm_seconds = time.perf_counter() - t0
    survivors = ttm.retained_count
    if spec.strategy == "none":
        quota = survivors
    else:
        quota = dynkv.retention_quota(survivors, spec.config.p_rate)

    decoder = ToyDecoder(
        spec.dims, seed=spec.config.seed, scale=spec.scale, dtype=np.dtype(spec.dtype)
    )
    prompt = np.vstack([ttm.data, text.data]) if text.count else ttm.data
    t0 = time.perf_counter()
    layer_kvs, last_hidden = decoder.prefill(prompt)
    prefill_seconds = time.perf_counter() - t0

    cache = dynkv.DualCache(
        layer_kvs,
        ttm.token_ids,
        n_text=text.count,
        quota=quota,
        eval_layer=spec.config.eval_layer,
        reserve_steps=spec.decode_steps + 2,
    )
    token, emb = decoder.select_token(last_hidden)
    steps, decisions, tokens, hidden_states, per_step_s = _decode(
        decoder, cache, emb, spec.decode_steps, spec.strategy, spec.config
    )

    return SimResult(
        spec=spec,
        total_visual=grid.total_tokens,
        ttm=ttm,
        text_count=text.count,
        quota=quota,
        retained_ratio_stage1=ttm.retained_ratio,
        retained_ratio_final=quota / grid.total_tokens,
        decoded_ids=[token] + tokens,
        steps=steps,
        audit=[d.to_json() for d in decisions],
        flops=_flops_summary(
            spec.dims, grid.total_tokens, text.count, survivors, quota, spec.decode_steps
        ),
        hidden_states=hidden_states,
        timings={
            "ttm_s": ttm_seconds,
            "prefill_s": prefill_seconds,
            "prefill_workers": _prefill_workers(spec.dims.heads),
            "per_step_s": per_step_s,
            "mean_step_s": float(np.mean(per_step_s)),
            "median_step_s": float(np.median(per_step_s)),
        },
    )


# -- replay -------------------------------------------------------------------


def jaccard(a, b) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


@dataclass
class ReplayResult:
    spec_echo: dict
    total_visual: int
    survivors: int
    quota: int
    retained_ratio_stage1: float
    retained_ratio_final: float
    steps: list[dict]
    audit: list[dict]
    readmitted_total: int
    final_jaccard_one_shot: float

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "replay",
            "build": build_stamp(),
            "spec": self.spec_echo,
            "tokens": {
                "visual_total": self.total_visual,
                "stage1_retained": self.survivors,
                "retention_quota": self.quota,
            },
            "retained_ratio_stage1": self.retained_ratio_stage1,
            "retained_ratio_final": self.retained_ratio_final,
            "steps": self.steps,
            "audit": self.audit,
            "readmitted_total": self.readmitted_total,
            "final_jaccard_one_shot": self.final_jaccard_one_shot,
        }


def run_replay(trace_path, config: CompressionConfig) -> ReplayResult:
    """Drive retention decisions from recorded attention rows.

    The trace must hold one attention block per step at the eval layer,
    covering every original visual token; rows are subset to stage-1
    survivors. A dycoke cache and a one-shot baseline run side by side and
    the per-step Jaccard overlap of their retained sets quantifies how far
    a single-shot decision drifts from the tracked one.
    """
    config.validate()
    contents = trace_io.load_trace(trace_path)
    layer = config.eval_layer
    steps_at_layer = sorted(s for (s, l) in contents.attention if l == layer)
    if not steps_at_layer:
        raise trace_io.MissingAttentionBlock(0, layer)
    last = steps_at_layer[-1]
    for step in range(last + 1):
        if (step, layer) not in contents.attention:
            raise trace_io.MissingAttentionBlock(step, layer)

    ttm = apply_ttm(contents.grid, config)
    survivors = ttm.retained_count
    quota = dynkv.retention_quota(survivors, config.p_rate)

    # Membership only: one layer, the eval layer, so no pruned-layer rows are copied.
    tracked, baseline = (
        dynkv.DualCache([(ttm.data, ttm.data)], ttm.token_ids, 0, quota, eval_layer=0)
        for _ in range(2)
    )

    audit: list[dict] = []
    steps: list[dict] = []
    jac = 1.0
    for step in range(last + 1):
        scores = contents.attention[(step, layer)][ttm.rows].astype(np.float64)
        snapshot = AttentionSnapshot(
            step=step, layer=layer, scores=scores, token_ids=tracked.token_ids
        )
        decision = _decide("dycoke", step, snapshot, tracked, config)
        _decide("one_shot", step, snapshot, baseline, config)
        tracked.check_invariants(step)
        audit.append(decision.to_json())
        jac = jaccard(tracked.active_rows.tolist(), baseline.active_rows.tolist())
        steps.append(_step_row(step, decision) | {"jaccard_one_shot": jac})

    echo = {"trace_path": str(trace_path), "config": asdict(config)}
    return ReplayResult(
        spec_echo=echo,
        total_visual=contents.grid.total_tokens,
        survivors=survivors,
        quota=quota,
        retained_ratio_stage1=ttm.retained_ratio,
        retained_ratio_final=quota / contents.grid.total_tokens,
        steps=steps,
        audit=audit,
        readmitted_total=sum(row["readmitted"] for row in steps),
        final_jaccard_one_shot=jac,
    )


# -- bench ----------------------------------------------------------------------


@dataclass
class BenchResult:
    spec_echo: dict
    strategies: dict
    speedup: float
    ttm_seconds: float

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "kind": "bench",
            "build": build_stamp(),
            "spec": self.spec_echo,
            "strategies": self.strategies,
            "speedup": self.speedup,
            "ttm_seconds": self.ttm_seconds,
        }


def run_bench(
    dims: ModelDims,
    config: CompressionConfig,
    frames: int,
    tokens_per_frame: int,
    text_tokens: int = 4,
    steps: int = 12,
    warmup: int = 3,
    dtype: str = "float32",
    strategies: tuple[str, str] = ("none", "dycoke"),
    drift: float = 0.05,
    scale: str = "head",
) -> BenchResult:
    """Measure decode-step wall time for two strategies on identical weights.

    Caches are filled with seeded synthetic K/V rows of the correct shapes;
    speedup is mean(t_first) / mean(t_second) over the post-warmup steps.
    Resident cache bytes count every stored K and V row at the decoder dtype's
    itemsize (4 bytes for float32, 8 for float64).
    """
    config.validate()
    if config.eval_layer >= dims.layers:
        raise ValueError(f"eval_layer {config.eval_layer} must be < layers {dims.layers}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    if text_tokens < 0:
        raise ValueError("text_tokens must be >= 0")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")

    grid = synth_grid(config, frames, tokens_per_frame, dims.hidden, drift)
    t0 = time.perf_counter()
    ttm = apply_ttm(grid, config)
    ttm_seconds = time.perf_counter() - t0

    decoder = ToyDecoder(dims, seed=config.seed, scale=scale, dtype=np.dtype(dtype))
    emb0 = np.asarray(
        np.random.default_rng([config.seed % 2**32, 401]).standard_normal(dims.hidden),
        dtype=decoder.dtype,
    )

    results: dict = {}
    means: list[float] = []
    for slot, strat in enumerate(strategies):
        if strat == "none":
            ids = grid.all_token_ids()
            quota = len(ids)
        else:
            ids = ttm.token_ids
            quota = dynkv.retention_quota(len(ids), config.p_rate)
        # Synthetic K/V fill: decode-step cost depends on cache shape, not values,
        # so the expensive prefill GEMMs are skipped for timing runs.
        # Each layer draws from its own stream, so the layers fill in threads.
        shape = (len(ids) + text_tokens, dims.hidden)
        kvs = [(np.empty(shape, decoder.dtype), np.empty(shape, decoder.dtype))
               for _ in range(dims.layers)]

        def fill(lo: int, hi: int) -> None:
            for layer in range(lo, hi):
                rng = np.random.default_rng([config.seed % 2**32, 400, layer])
                for out in kvs[layer]:
                    _fill_normal(rng, out, 1.0)

        _run_blocks(fill, dims.layers, _cpus())
        cache = dynkv.DualCache(
            kvs, ids, text_tokens, quota, config.eval_layer, reserve_steps=steps + warmup + 2
        )
        times = _decode(decoder, cache, emb0, warmup + steps, strat, config)[4]
        # Visual storage is fixed and extra rows only grow: the last step is the peak.
        resident_rows = sum(st.vis_k.shape[0] + st.extra_len for st in cache.layers)
        measured = times[warmup:]
        mean_s = float(np.mean(measured))
        means.append(mean_s)
        results[f"{slot}:{strat}"] = {
            "strategy": strat,
            "mean_step_s": mean_s,
            "median_step_s": float(np.median(measured)),
            "steps_measured": len(measured),
            "peak_resident_cache_bytes": resident_rows * 2 * dims.hidden * decoder.dtype.itemsize,
            "active_visual_rows_pruned_layers": len(cache.active_rows),
            "visual_rows_total": grid.total_tokens,
            "stage1_survivors": len(ids),
        }

    echo = {
        "dims": asdict(dims),
        "config": asdict(config),
        "frames": frames,
        "tokens_per_frame": tokens_per_frame,
        "text_tokens": text_tokens,
        "steps": steps,
        "warmup": warmup,
        "dtype": dtype,
        "strategies": list(strategies),
    }
    return BenchResult(
        spec_echo=echo,
        strategies=results,
        speedup=means[0] / means[1],
        ttm_seconds=ttm_seconds,
    )


# -- sweep ----------------------------------------------------------------------


def _sweep_cell(args: tuple[RunSpec, float, int, float]) -> dict:
    base, k, l, p = args
    row = dict.fromkeys(SWEEP_COLUMNS, "") | {"K": k, "L": l, "P": p, "status": "ok"}
    try:
        spec = replace(
            base,
            config=replace(base.config, k_rate=k, eval_layer=l, p_rate=p),
            timing=True,
        )
        result = run_simulation(spec)
        churn = [s["readmitted"] + s["evicted"] for s in result.steps]
        row.update(
            {
                "retained_ratio_stage1": result.retained_ratio_stage1,
                "retained_ratio_final": result.retained_ratio_final,
                "flops_ratio": result.flops["ratio_vs_full"],
                "mean_swap_churn": float(np.mean(churn)) if churn else 0.0,
                "mean_step_latency_ms": result.timings["mean_step_s"] * 1e3,
            }
        )
    except Exception as exc:  # cell failures are recorded, the sweep continues
        row["status"] = f"error: {exc}"
    return row


def run_sweep(
    base: RunSpec,
    k_values: list[float],
    l_values: list[int],
    p_values: list[float],
    jobs: int = 1,
) -> list[dict]:
    """Cross-product sweep over (K, L, P); one row per cell, grid order.

    Cells run in ``min(jobs, cells, cpus)`` processes: the pool forks all
    of its workers up front, so ``jobs`` alone must not set their number.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cells = [(base, k, l, p) for k in k_values for l in l_values for p in p_values]
    workers = min(jobs, len(cells), _cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_cell, cells))
    return [_sweep_cell(c) for c in cells]

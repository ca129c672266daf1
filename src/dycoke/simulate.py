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
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import costmodel, dynkv, trace as trace_io
from .attention import (
    AttentionSnapshot,
    ModelDims,
    ToyDecoder,
    _fill_layers,
    _prefill_workers,
    softmax_denom,
)
from .tokens import CompressionConfig, TextTokens, VisualTokenGrid, synth_grid, synth_text
from .ttm import TtmResult, apply_ttm

STRATEGIES = dynkv.STRATEGIES
DTYPES = ("float32", "float64")
SYNTHETIC_SHAPE = {"frames": 8, "tokens_per_frame": 16, "text_tokens": 4, "drift": 0.05}

REPORT_SCHEMA = "dycoke-report/2"

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
    """Everything one simulation run needs; a field out of range raises when built.

    A synthetic run defaults each unset SYNTHETIC_SHAPE field; a trace-fed run rejects them.
    Each run checks ``config.eval_layer < dims.layers``, so a sweep base
    may be shallower than the eval layers its cells set.
    """

    config: CompressionConfig = CompressionConfig()
    dims: ModelDims = ModelDims(layers=6, hidden=64, ffn_inner=128, heads=4)
    mode: str = "synthetic"
    frames: int | None = None
    tokens_per_frame: int | None = None
    trace_path: str | None = None
    text_tokens: int | None = None
    decode_steps: int = 8
    strategy: str = "dycoke"
    drift: float | None = None
    scale: str = "head"
    dtype: str = "float64"
    timing: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("synthetic", "trace"):
            raise ValueError(f"mode must be 'synthetic' or 'trace', got {self.mode!r}")
        if (self.mode == "trace") != bool(self.trace_path):
            raise ValueError("a trace-fed run needs a trace path, and a synthetic run none")
        for name, default in SYNTHETIC_SHAPE.items():
            if self.mode == "trace" and getattr(self, name) is not None:
                raise ValueError(f"{name} is for synthetic input; a trace sets the run's shape")
            if self.mode == "synthetic" and getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.mode == "synthetic" and (self.frames < 1 or self.tokens_per_frame < 1):
            raise ValueError("frames and tokens_per_frame must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.decode_steps < 1:
            raise ValueError(f"decode_steps must be >= 1, got {self.decode_steps}")
        if self.mode == "synthetic" and self.text_tokens < 0:
            raise ValueError("text_tokens must be >= 0")
        if self.mode == "synthetic" and not np.isfinite(self.drift):
            raise ValueError(f"drift must be finite, got {self.drift}")
        softmax_denom(self.scale, self.dims.hidden, self.dims.heads)  # raises on an unknown scale
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")


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
) -> Iterator[tuple[dict, dynkv.RetentionDecision | None, int, np.ndarray, float]]:
    """Closed decode loop: ``steps`` steps, each waiting for the one before it.

    The strategy decides at the eval-layer snapshot, inside the step, so the
    layers above already attend over the new active set. Yields each step's
    row, decision (None for ``none``), token, hidden state and seconds.
    """
    for step in range(steps):
        decided: list = []

        def on_snapshot(snapshot: AttentionSnapshot, step: int = step) -> None:
            decided.append(dynkv.decide(strategy, step, snapshot, cache, config))

        t0 = time.perf_counter()
        hidden, _ = decoder.decode_step(emb, cache, step, on_snapshot=on_snapshot)
        seconds = time.perf_counter() - t0
        cache.check_invariants(step)
        token, emb = decoder.select_token(hidden)
        decision = decided[0]
        row = _step_row(step, decision) | {"active_visual": len(cache.active_rows)}
        yield row, decision, token, hidden, seconds


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
    audit: list[dict] = field(default_factory=list)  # --audit-log's entries; not in the report
    flops: costmodel.RunFlops | None = None
    hidden_states: np.ndarray | None = field(default=None, repr=False)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "schema": REPORT_SCHEMA,
            "kind": "simulate",
            "build": build_stamp(),
            "spec": asdict(self.spec),
            "tokens": {
                "visual_total": self.total_visual,
                "stage1_retained": self.ttm.retained_count,
                "stage1_removed": self.total_visual - self.ttm.retained_count,
                "merge_records": len(self.ttm.removed_rows),
                "text": self.text_count,
                "generated": len(self.decoded_ids),
                "retention_quota": self.quota,
            },
            "retained_ratio_stage1": self.retained_ratio_stage1,
            "retained_ratio_final": self.retained_ratio_final,
            "flops": self.flops.to_json(),
            "decoded_ids": self.decoded_ids,
            "steps": self.steps,
        }
        if self.spec.timing:
            out["timing"] = self.timings
        return out


def _load_inputs(spec: RunSpec) -> tuple[VisualTokenGrid, TextTokens]:
    """The run's grid and text, read or synthesized, as wide as its model; K, L and P unused."""
    if spec.mode == "trace":
        contents = trace_io.load_trace(spec.trace_path)
        grid, text = contents.grid, contents.text
    else:
        grid = synth_grid(spec.config, spec.frames, spec.tokens_per_frame, spec.dims.hidden,
                          spec.drift)
        text = synth_text(spec.config, spec.text_tokens, spec.dims.hidden)
    if grid.hidden_dim != spec.dims.hidden:
        raise ValueError(f"grid dim {grid.hidden_dim} != model hidden {spec.dims.hidden}")
    return grid, text


def _check_eval_depth(config: CompressionConfig, dims: ModelDims) -> None:
    if config.eval_layer >= dims.layers:
        raise ValueError(f"eval_layer {config.eval_layer} must be < model layers {dims.layers}")


def run_simulation(spec: RunSpec) -> SimResult:
    """Load the spec's inputs, then stage-1 merge, prefill and ``decode_steps`` steps."""
    return _simulate(spec, *_load_inputs(spec))


@np.errstate(over="raise", invalid="raise")
def _simulate(spec: RunSpec, grid: VisualTokenGrid, text: TextTokens) -> SimResult:
    """run_simulation on loaded inputs; inputs too large for the dtype raise, not report NaN."""
    _check_eval_depth(spec.config, spec.dims)
    t0 = time.perf_counter()
    ttm = apply_ttm(grid, spec.config)
    ttm_seconds = time.perf_counter() - t0
    survivors = ttm.retained_count

    decoder = ToyDecoder(
        spec.dims, seed=spec.config.seed, scale=spec.scale, dtype=np.dtype(spec.dtype)
    )
    prompt = np.vstack([ttm.data, text.data]) if text.count else ttm.data
    t0 = time.perf_counter()
    layer_kvs, last_hidden = decoder.prefill(prompt)
    prefill_seconds = time.perf_counter() - t0

    # Every survivor starts active; the strategy's policy sets the quota when it prunes.
    cache = dynkv.DualCache(
        layer_kvs,
        ttm.token_ids,
        n_text=text.count,
        quota=survivors,
        eval_layer=spec.config.eval_layer,
        reserve_steps=spec.decode_steps + 2,
    )
    del layer_kvs  # the cache holds them now, so its head split frees the row-major originals
    token, emb = decoder.select_token(last_hidden)
    steps, decisions, tokens, hidden_states, per_step_s = zip(
        *_decode(decoder, cache, emb, spec.decode_steps, spec.strategy, spec.config)
    )

    return SimResult(
        spec=spec,
        total_visual=grid.total_tokens,
        ttm=ttm,
        text_count=text.count,
        quota=cache.quota,
        retained_ratio_stage1=ttm.retained_ratio,
        retained_ratio_final=cache.quota / grid.total_tokens,
        decoded_ids=[token, *tokens],
        steps=list(steps),
        audit=[d.to_json() for d in decisions if d is not None],
        flops=costmodel.run_flops(
            spec.dims, grid.total_tokens, text.count, survivors, cache.quota, spec.decode_steps
        ),
        hidden_states=np.array(hidden_states, dtype=np.float64),
        timings={
            "ttm_s": ttm_seconds,
            "prefill_s": prefill_seconds,
            "prefill_workers": _prefill_workers(spec.dims.heads),
            "per_step_s": list(per_step_s),
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
    audit: list[dict]  # --audit-log's entries; not in the report
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
            "readmitted_total": self.readmitted_total,
            "final_jaccard_one_shot": self.final_jaccard_one_shot,
        }


def run_replay(trace_path, config: CompressionConfig) -> ReplayResult:
    """Drive retention decisions from recorded attention rows.

    The trace must hold one attention block per step at the eval layer,
    covering every original visual token; rows are subset to stage-1
    survivors. The per-step Jaccard overlap of the tracked retained set with
    the one-shot baseline's quantifies how far a single-shot decision drifts
    from the tracked one. The baseline needs no cache of its own: one-shot
    pruning is step 0's prune plus a freeze, so its set stays step 0's
    retained rows.
    """
    contents = trace_io.load_trace(trace_path)
    layer = config.eval_layer
    last = max((s for (s, l) in contents.attention if l == layer), default=0)
    for step in range(last + 1):
        if (step, layer) not in contents.attention:
            raise trace_io.MissingAttentionBlock(step, layer)

    ttm = apply_ttm(contents.grid, config)
    survivors = ttm.retained_count

    # Membership only: one layer, the eval layer, so no pruned-layer rows are copied.
    tracked = dynkv.DualCache([(ttm.data, ttm.data)], ttm.token_ids, 0, survivors, eval_layer=0)

    audit: list[dict] = []
    steps: list[dict] = []
    for step in range(last + 1):
        scores = contents.attention[(step, layer)][ttm.rows].astype(np.float64)
        snapshot = AttentionSnapshot(
            step=step, layer=layer, scores=scores, token_ids=tracked.token_ids
        )
        decision = dynkv.decide("dycoke", step, snapshot, tracked, config)
        tracked.check_invariants(step)
        audit.append(decision.to_json())
        if step == 0:
            one_shot = decision.retained_rows.tolist()
        jac = jaccard(tracked.active_rows.tolist(), one_shot)
        steps.append(_step_row(step, decision) | {"jaccard_one_shot": jac})

    echo = {"trace_path": str(trace_path), "config": asdict(config)}
    return ReplayResult(
        spec_echo=echo,
        total_visual=contents.grid.total_tokens,
        survivors=survivors,
        quota=tracked.quota,
        retained_ratio_stage1=ttm.retained_ratio,
        retained_ratio_final=tracked.quota / contents.grid.total_tokens,
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
) -> BenchResult:
    """Measure decode-step wall time for two strategies on identical weights.

    Caches are filled with seeded synthetic K/V rows of the correct shapes;
    speedup is mean(t_first) / mean(t_second) over the post-warmup steps.
    The two strategies alternate step by step, so a slow stretch of the host
    lands on both. Resident cache bytes count every stored K and V row, the
    gathered active copies of the layers above the eval layer included, at
    the decoder dtype's itemsize (4 bytes for float32, 8 for float64).
    """
    if len(strategies) != 2:
        raise ValueError(f"strategies must name exactly two, e.g. none,dycoke; got {len(strategies)}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for strat in strategies:  # each strategy's run must be one simulate would accept
        RunSpec(config=config, dims=dims, frames=frames, tokens_per_frame=tokens_per_frame,
                text_tokens=text_tokens, decode_steps=steps, strategy=strat, dtype=dtype)
    _check_eval_depth(config, dims)

    grid = synth_grid(config, frames, tokens_per_frame, dims.hidden)
    t0 = time.perf_counter()
    ttm = apply_ttm(grid, config)
    ttm_seconds = time.perf_counter() - t0

    decoder = ToyDecoder(dims, seed=config.seed, dtype=np.dtype(dtype))
    emb0 = np.asarray(
        np.random.default_rng([config.seed % 2**32, 401]).standard_normal(dims.hidden),
        dtype=decoder.dtype,
    )

    caches = []
    for strat in strategies:
        ids = grid.all_token_ids() if strat == "none" else ttm.token_ids
        # Synthetic K/V fill: decode-step cost depends on cache shape, not values,
        # so the expensive prefill GEMMs are skipped for timing runs.
        shape = (len(ids) + text_tokens, dims.hidden)
        kvs = [(np.empty(shape, decoder.dtype), np.empty(shape, decoder.dtype))
               for _ in range(dims.layers)]
        _fill_layers([(layer, [(k, 1.0), (v, 1.0)]) for layer, (k, v) in enumerate(kvs)],
                     config.seed, 400)
        caches.append(dynkv.DualCache(
            kvs, ids, text_tokens, len(ids), config.eval_layer, reserve_steps=steps + warmup + 2
        ))
    del kvs  # the caches hold them now, so their head split frees the row-major originals
    loops = [_decode(decoder, cache, emb0, warmup + steps, strat, config)
             for cache, strat in zip(caches, strategies)]
    times: list[list[float]] = [[], []]
    for pair in zip(*loops):  # step i of the first strategy, then of the second
        for slot, (*_, seconds) in enumerate(pair):
            times[slot].append(seconds)

    results: dict = {}
    means: list[float] = []
    for slot, (strat, cache) in enumerate(zip(strategies, caches)):
        # Visual storage and the quota's gathered copies are fixed and extra
        # rows only grow: the last step is the peak.
        resident_rows = cache.stored_rows()
        measured = times[slot][warmup:]
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
            "stage1_survivors": cache.survivor_count,
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


def _sweep_cell(base: RunSpec, inputs: tuple, k: float, l: int, p: float) -> dict:
    row = dict.fromkeys(SWEEP_COLUMNS, "") | {"K": k, "L": l, "P": p, "status": "ok"}
    try:
        spec = replace(base, config=replace(base.config, k_rate=k, eval_layer=l, p_rate=p))
        result = _simulate(spec, *inputs)
        churn = [s["readmitted"] + s["evicted"] for s in result.steps]
        row.update(
            {
                "retained_ratio_stage1": result.retained_ratio_stage1,
                "retained_ratio_final": result.retained_ratio_final,
                "flops_ratio": result.flops.ratio,
                "mean_swap_churn": float(np.mean(churn)) if churn else 0.0,
                "mean_step_latency_ms": result.timings["mean_step_s"] * 1e3,
            }
        )
    except ValueError as exc:  # a bad cell value is recorded, the sweep continues
        row["status"] = f"error: {exc}"
    return row


def run_sweep(
    base: RunSpec, k_values: list[float], l_values: list[int], p_values: list[float]
) -> list[dict]:
    """Cross-product sweep over (K, L, P); one row per cell, run in grid order in this process.

    The inputs are loaded once, before any cell, so an input error stops the sweep.
    """
    inputs = _load_inputs(base)
    cells = [(k, l, p) for k in k_values for l in l_values for p in p_values]
    return [_sweep_cell(base, inputs, *cell) for cell in cells]

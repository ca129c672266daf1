"""The workloads. Each builds its inputs from the seed in ``setup`` and runs
one closed-loop pass (one stream, every step waits for the one before it)
through dycoke's public functions in ``run_pass``.

Why these two:
- prefill_video: real causal prefill over ~3k stage-1 survivors dominates;
  it is the only workload whose K/V come from real tokens, so its
  attention-mass-kept is meaningful. Its grid reaches run_simulation through
  a trace file, so it also measures trace writing (set-up) and reading.
  Barely touches dynkv.
- decode_long: decode only (synthetic K/V fill, no prefill) at 0.5B
  per-layer width with heavy readmit/evict churn; exercises decode attention
  over the visual segment and the pruned-layer views.

A third workload, replay_churn (write_trace then run_replay, dynkv as pure
bookkeeping), was dropped: being pure interpreter work, its pass time swung
with the shared machine's speed (quartile spread 8-23 % over ten seeds).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from dycoke import attention, costmodel, dynkv, simulate, tokens, trace, ttm


@dataclass
class PassOutput:
    report: str  # timing-off report bytes; must repeat exactly within a run
    decoded: list[int] = field(default_factory=list)
    readmitted_total: int | None = None  # as the program reports it, if it does


def _walk_grid(rng, frames: int, tpf: int, dim: int, drift: float) -> tokens.VisualTokenGrid:
    """Frames that drift slowly from a random first frame (temporal redundancy)."""
    steps = rng.standard_normal((frames, tpf, dim))
    steps[1:] *= drift
    data = np.cumsum(steps, axis=0).reshape(frames * tpf, dim)
    return tokens.VisualTokenGrid(frames, tpf, dim, data.astype(np.float32))


class PrefillVideo:
    """run_simulation on a trace-fed grid, strategy dycoke, report serialized as the CLI does."""

    name = "prefill_video"

    def __init__(self, seed: int, tiny: bool = False):
        frames, tpf, d, ffn, layers, steps = (8, 16, 16, 32, 4, 8) if tiny else (32, 196, 128, 256, 6, 100)
        self.seed, self.tiny = seed, tiny
        self.config = tokens.CompressionConfig(k_rate=0.7, eval_layer=2, p_rate=0.7, seed=seed)
        self.dims = attention.ModelDims(layers=layers, hidden=d, ffn_inner=ffn, heads=4)
        self.frames, self.tpf, self.text, self.steps, self.dtype = frames, tpf, 16, steps, "float64"

    def setup(self, out_dir) -> None:
        self.grid = tokens.synth_grid(self.config, self.frames, self.tpf, self.dims.hidden)
        text = tokens.synth_text(self.config, self.text, self.dims.hidden)
        self.path = os.path.join(out_dir, f"prefill-{self.seed}.dyck")
        trace.write_trace(self.path, self.grid, text, layers=self.dims.layers, heads=self.dims.heads)
        self.spec = simulate.RunSpec(
            config=self.config, dims=self.dims, mode="trace", trace_path=self.path,
            decode_steps=self.steps, dtype=self.dtype,
        )

    def run_pass(self) -> PassOutput:
        result = simulate.run_simulation(self.spec)
        report = json.dumps(result.to_json(), indent=2, sort_keys=True) + "\n"
        return PassOutput(report, list(result.decoded_ids), sum(s["readmitted"] for s in result.steps))


class DecodeLong:
    """Stage 1, a DualCache filled with seeded K/V, then a long decode loop."""

    name = "decode_long"

    def __init__(self, seed: int, tiny: bool = False):
        frames, tpf, d, ffn, heads, steps = (8, 16, 28, 64, 14, 12) if tiny else (32, 196, 896, 4864, 14, 96)
        self.seed, self.tiny = seed, tiny
        self.config = tokens.CompressionConfig(k_rate=0.7, eval_layer=0, p_rate=0.7, seed=seed)
        self.dims = attention.ModelDims(layers=2, hidden=d, ffn_inner=ffn, heads=heads)
        self.frames, self.tpf, self.text, self.steps, self.dtype = frames, tpf, 16, steps, "float32"

    def setup(self, out_dir) -> None:
        rng = np.random.default_rng([self.seed, 11])
        self.grid = _walk_grid(rng, self.frames, self.tpf, self.dims.hidden, 0.05)
        self.decoder = attention.ToyDecoder(self.dims, seed=self.seed, dtype=np.float32)
        # K/V for every visual token then the text rows; a pass gathers the survivors.
        n = self.grid.total_tokens + self.text
        self.kv = [
            (rng.standard_normal((n, self.dims.hidden), dtype=np.float32),
             rng.standard_normal((n, self.dims.hidden), dtype=np.float32))
            for _ in range(self.dims.layers)
        ]
        self.emb0 = rng.standard_normal(self.dims.hidden).astype(np.float32)

    def _cache(self, token_ids, quota: int, steps: int) -> dynkv.DualCache:
        rows = np.array([t.frame * self.tpf + t.position for t in token_ids], dtype=np.intp)
        rows = np.concatenate([rows, np.arange(self.grid.total_tokens, self.grid.total_tokens + self.text)])
        kvs = [(k[rows], v[rows]) for k, v in self.kv]
        return dynkv.DualCache(kvs, token_ids, self.text, quota, self.config.eval_layer, reserve_steps=steps + 2)

    def _decode(self, cache, steps: int, retain: bool) -> tuple[list[int], np.ndarray]:
        config, emb, decoded = self.config, self.emb0, []
        for step in range(steps):
            hook = None
            if retain:
                def hook(snapshot, step=step):
                    decide = dynkv.initial_prune if step == 0 else dynkv.dynamic_swap
                    decide(snapshot, cache, config)
            hidden, _ = self.decoder.decode_step(emb, cache, step, on_snapshot=hook)
            cache.check_invariants(step)
            token, emb = self.decoder.select_token(hidden)
            decoded.append(token)
        return decoded, hidden

    def run_pass(self) -> PassOutput:
        stage1 = ttm.apply_ttm(self.grid, self.config)
        quota = dynkv.retention_quota(stage1.retained_count, self.config.p_rate)
        cache = self._cache(stage1.token_ids, quota, self.steps)
        decoded, hidden = self._decode(cache, self.steps, retain=True)
        report = json.dumps({"decoded": decoded, "hidden": hidden.tobytes().hex()})
        return PassOutput(report, decoded)

    def run_none(self, steps: int) -> None:
        """Strategy none on the same shape: every visual token, no stage 1 or 2."""
        ids = self.grid.all_token_ids()
        self._decode(self._cache(ids, len(ids), steps), steps, retain=False)


WORKLOADS = {w.name: w for w in (PrefillVideo, DecodeLong)}


def timed_setup(t0: float, name: str, seed: str, tiny: str, out_dir: str) -> float:
    """Seconds from ``t0`` to the end of one set-up; run in a fresh interpreter.

    ``t0`` is read before this module's imports (numpy, dycoke), so they count.
    """
    w = WORKLOADS[name](int(seed), tiny=tiny == "1")
    w.setup(out_dir)
    elapsed = time.perf_counter() - t0
    if getattr(w, "path", None):
        os.remove(w.path)
    return elapsed


def cost_ratios(w) -> tuple[float, float]:
    """Analytic dycoke/full FLOPs ratios (total, decode only) at the workload's shape."""
    n_vis = w.frames * w.tpf
    total = costmodel.flops_ratio(w.config, w.dims, n_vis, w.text, w.steps)
    survivors = ttm.stage1_survivor_count(w.frames, w.tpf, w.config.k_rate, w.config.window_len)
    active = dynkv.retention_quota(survivors, w.config.p_rate)
    ours = costmodel.CostInputs(w.dims, survivors + w.text, w.steps, active + w.text)
    full = costmodel.CostInputs(w.dims, n_vis + w.text, w.steps, n_vis + w.text)
    return total, costmodel.decode_flops(ours) / costmodel.decode_flops(full)

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from dycoke import attention, dynkv, simulate, ttm
from dycoke.attention import ModelDims
from dycoke.cli import main
from dycoke.simulate import RunSpec, jaccard, run_bench, run_replay, run_simulation, run_sweep
from dycoke.tokens import CompressionConfig, TextTokens, synth_grid
from dycoke.trace import MissingAttentionBlock, write_trace

SMALL_DIMS = ModelDims(layers=5, hidden=16, ffn_inner=32, heads=4)


def small_spec(**kw) -> RunSpec:
    config = kw.pop("config", None) or CompressionConfig(
        k_rate=kw.pop("k_rate", 0.5),
        eval_layer=kw.pop("eval_layer", 2),
        p_rate=kw.pop("p_rate", 0.7),
        heads=4,
        seed=kw.pop("seed", 0),
    )
    defaults = dict(
        config=config,
        dims=SMALL_DIMS,
        frames=8,
        tokens_per_frame=10,
        text_tokens=3,
        decode_steps=6,
        strategy="dycoke",
    )
    defaults.update(kw)
    return RunSpec(**defaults)


def test_noop_equivalence_none_vs_disabled_dycoke():
    base = small_spec(k_rate=0.0, p_rate=0.0, strategy="none")
    off = small_spec(k_rate=0.0, p_rate=0.0, strategy="dycoke")
    a = run_simulation(base)
    b = run_simulation(off)
    assert a.decoded_ids == b.decoded_ids
    np.testing.assert_array_equal(a.hidden_states, b.hidden_states)
    assert b.retained_ratio_final == 1.0


def test_divisible_grid_reproduces_published_final_ratio():
    # 8 frames x 40 tokens, K=0.5: stage1 retains 200 of 320 (0.625 exactly),
    # quota = ceil(0.3 * 200) = 60 -> final 0.1875 exactly
    spec = small_spec(k_rate=0.5, p_rate=0.7, tokens_per_frame=40, decode_steps=3)
    res = run_simulation(spec)
    assert res.retained_ratio_stage1 == pytest.approx(0.625, abs=1e-12)
    assert res.retained_ratio_final == pytest.approx(0.1875, abs=1e-12)
    assert res.quota == 60


def test_audit_log_one_decision_per_step():
    spec = small_spec(decode_steps=5)
    res = run_simulation(spec)
    assert len(res.audit) == 5
    assert [a["step"] for a in res.audit] == list(range(5))
    assert res.audit[0]["readmitted_count"] == 0
    for entry, step_row in zip(res.audit, res.steps):
        assert entry["readmitted_count"] == step_row["readmitted"]
        assert entry["evicted_count"] == step_row["evicted"]


def test_report_byte_identical_without_timing():
    spec = small_spec(decode_steps=4)
    a = json.dumps(run_simulation(spec).to_json(), indent=2, sort_keys=True)
    b = json.dumps(run_simulation(spec).to_json(), indent=2, sort_keys=True)
    assert a == b
    assert "timing" not in json.loads(a)


def test_timing_block_present_when_requested():
    res = run_simulation(small_spec(decode_steps=3, timing=True))
    out = res.to_json()
    assert "timing" in out
    assert len(out["timing"]["per_step_s"]) == 3


@pytest.mark.parametrize("blas_threads, workers", [(None, 1), ("1", 2)])
def test_timing_reports_prefill_workers(monkeypatch, blas_threads, workers):
    # two CPUs and SMALL_DIMS' 4 heads: uncapped BLAS keeps prefill on one thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    assert run_simulation(small_spec(timing=True)).to_json()["timing"]["prefill_workers"] == workers
    assert "timing" not in run_simulation(small_spec()).to_json()


def test_strategies_share_stage1_but_differ_in_membership():
    res_dyn = run_simulation(small_spec(seed=4, decode_steps=6))
    res_one = run_simulation(small_spec(seed=4, decode_steps=6, strategy="one_shot"))
    res_rand = run_simulation(small_spec(seed=4, decode_steps=6, strategy="random"))
    assert res_dyn.retained_ratio_stage1 == res_one.retained_ratio_stage1
    assert res_one.quota == res_dyn.quota == res_rand.quota
    # one-shot and random freeze after step 0
    for res in (res_one, res_rand):
        assert all(s["readmitted"] == 0 and s["evicted"] == 0 for s in res.steps[1:])


def test_trace_mode_matches_synthetic(tmp_path):
    spec = small_spec(decode_steps=3)
    grid = synth_grid(spec.config, spec.frames, spec.tokens_per_frame, 16, spec.drift)
    from dycoke.tokens import synth_text

    text = synth_text(spec.config, spec.text_tokens, 16)
    path = tmp_path / "in.dyck"
    write_trace(path, grid, text)
    via_trace = run_simulation(
        RunSpec(config=spec.config, dims=spec.dims, mode="trace", trace_path=str(path),
                decode_steps=3)
    )
    direct = run_simulation(spec)
    assert via_trace.decoded_ids == direct.decoded_ids
    np.testing.assert_array_equal(via_trace.hidden_states, direct.hidden_states)


@pytest.mark.parametrize("name", list(simulate.SYNTHETIC_SHAPE))
def test_trace_spec_rejects_synthetic_shape(name, tmp_path):
    # A trace sets the grid and text, so a shape field would be ignored.
    value = simulate.SYNTHETIC_SHAPE[name]  # even the synthetic default
    with pytest.raises(ValueError, match=f"^{name} is for synthetic input"):
        RunSpec(mode="trace", trace_path=str(tmp_path / "in.dyck"), **{name: value})


def test_spec_validation_errors():
    # A spec checks each of its fields when built.
    for bad in ({"k_rate": 1.5}, {"strategy": "magic"}, {"frames": 0}, {"tokens_per_frame": 0},
                {"decode_steps": 0}, {"text_tokens": -1}, {"mode": "video"},
                {"trace_path": "x.dyck"}, {"drift": float("nan")}, {"scale": "sqrt"}):
        with pytest.raises(ValueError):
            small_spec(**bad)
    with pytest.raises(ValueError):
        RunSpec(mode="trace")  # no trace path
    # Whether the eval layer fits the model depth is the run's check, so a
    # sweep base can be shallower than the eval layers its cells set.
    deep = small_spec(eval_layer=7)  # >= layer count
    with pytest.raises(ValueError, match="must be < model layers"):
        run_simulation(deep)
    rows = run_sweep(replace(deep, decode_steps=1), [0.5], [0, 7], [0.7])
    assert [r["status"] for r in rows] == ["ok", "error: eval_layer 7 must be < model layers 5"]


def test_flops_summary_consistency():
    res = run_simulation(small_spec(decode_steps=4))
    f = res.to_json()["flops"]
    assert f["total"] == f["prefill"] + f["decode"]
    assert 0 < f["ratio_vs_full"] <= 1


def _audit_digest(audit) -> str:
    keys = ("step", "retained_count", "readmitted_count", "evicted_count", "readmitted_ids", "evicted_ids")
    rows = [{k: entry[k] for k in keys} for entry in audit]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]


# Discrete outputs of one small spec per strategy. Integers and ids only: float
# bits (thresholds, ratios, hidden states) are deliberately not pinned.
_SIM_PINS = {
    # strategy: (decode FLOPs, quota, audit digest, readmitted total, evicted total)
    "dycoke": (110720, 15, "e78f432a6922e85a", 3, 38),
    "one_shot": (110720, 15, "e1a99f2f376d885e", 0, 35),
    "random": (110720, 15, "6ca62fe890d00ec5", 0, 35),
    "none": (155520, 50, "4f53cda18c2baa0c", 0, 0),
}


@pytest.mark.parametrize("strategy", sorted(_SIM_PINS))
def test_simulate_discrete_outputs_pinned(strategy):
    decode, quota, digest, readmitted, evicted = _SIM_PINS[strategy]
    res = run_simulation(small_spec(seed=0, decode_steps=8, strategy=strategy))
    out = res.to_json()
    assert out["decoded_ids"] == [119] * 9
    assert out["tokens"] == {
        "visual_total": 80,
        "stage1_retained": 50,
        "stage1_removed": 30,
        "merge_records": 30,
        "text": 3,
        "generated": 9,
        "retention_quota": quota,
    }
    flops = out["flops"]
    assert (flops["prefill"], flops["decode"], flops["full_total"]) == (992160, decode, 2146080)
    assert flops["total"] == 992160 + decode
    assert len(res.audit) == (0 if strategy == "none" else 8)
    assert _audit_digest(res.audit) == digest
    assert sum(s["readmitted"] for s in res.steps) == readmitted
    assert sum(s["evicted"] for s in res.steps) == evicted


def test_report_counts_merges_without_building_records(monkeypatch):
    def no_records(*args):
        raise AssertionError("MergeRecord built")

    monkeypatch.setattr(ttm, "MergeRecord", no_records)
    res = run_simulation(small_spec(seed=0))
    count = res.to_json()["tokens"]["merge_records"]
    monkeypatch.undo()
    assert count == len(res.ttm.records) == 30


# -- replay ---------------------------------------------------------------------


def _make_replay_trace(path, steps, score_fn, frames=8, tpf=8, dim=8, eval_layer=3):
    cfg = CompressionConfig(seed=0)
    grid = synth_grid(cfg, frames, tpf, dim)
    attention = {}
    for t in range(steps):
        scores = np.empty(grid.total_tokens, dtype=np.float32)
        for f in range(frames):
            for p in range(tpf):
                scores[f * tpf + p] = score_fn(t, f, p)
        attention[(t, eval_layer)] = scores
    write_trace(path, grid, TextTokens.empty(dim), attention)
    return grid


def test_replay_constant_scores_no_swaps(tmp_path):
    path = tmp_path / "const.dyck"
    _make_replay_trace(path, 6, lambda t, f, p: 1.0 + f * 0.1 + p * 0.01)
    config = CompressionConfig(k_rate=0.5, eval_layer=3, p_rate=0.7, seed=0)
    res = run_replay(path, config)
    assert all(s["jaccard_one_shot"] == 1.0 for s in res.steps)
    assert res.readmitted_total == 0
    assert all(s["readmitted"] == 0 and s["evicted"] == 0 for s in res.steps[1:])


def test_replay_drift_readmits_late_frames(tmp_path):
    # early frames decay, late frames grow: the tracked run must readmit
    # late-frame tokens while the one-shot baseline cannot
    path = tmp_path / "drift.dyck"
    frames = 8
    _make_replay_trace(
        path,
        30,
        lambda t, f, p: (frames - f) + t * 0.05 * f + p * 1e-3,
        frames=frames,
    )
    config = CompressionConfig(k_rate=0.5, eval_layer=3, p_rate=0.7, seed=0)
    res = run_replay(path, config)
    assert res.readmitted_total > 0
    assert res.final_jaccard_one_shot < 0.5
    jac = [s["jaccard_one_shot"] for s in res.steps]
    assert jac[0] == 1.0
    assert all(b <= a for a, b in zip(jac, jac[1:]))
    readmitted_frames = {
        tuple(tid)[0]
        for entry in res.audit
        for tid in entry["readmitted_ids"]
    }
    # tokens from the growing late frames come back from the parked store
    assert readmitted_frames and max(readmitted_frames) >= frames - 2


def test_replay_discrete_outputs_pinned(tmp_path):
    path = tmp_path / "drift.dyck"
    frames = 8
    _make_replay_trace(
        path, 30, lambda t, f, p: (frames - f) + t * 0.05 * f + p * 1e-3, frames=frames
    )
    res = run_replay(path, CompressionConfig(k_rate=0.5, eval_layer=3, p_rate=0.7, seed=0))
    out = res.to_json()
    assert out["tokens"] == {"visual_total": 64, "stage1_retained": 40, "retention_quota": 12}
    assert res.readmitted_total == 18
    assert sum(s["evicted"] for s in res.steps) == 46
    assert _audit_digest(res.audit) == "de64f8c69702a2e3"


def test_replay_missing_block_names_step_and_layer(tmp_path):
    path = tmp_path / "gap.dyck"
    cfg = CompressionConfig(seed=0)
    grid = synth_grid(cfg, 4, 4, 8)
    rng = np.random.default_rng(0)
    attention = {
        (t, 3): rng.random(grid.total_tokens).astype(np.float32) for t in (0, 1, 3)
    }
    write_trace(path, grid, TextTokens.empty(8), attention)
    config = CompressionConfig(k_rate=0.5, eval_layer=3, p_rate=0.7)
    with pytest.raises(MissingAttentionBlock) as err:
        run_replay(path, config)
    assert err.value.step == 2 and err.value.layer == 3


def test_replay_no_blocks_at_eval_layer(tmp_path):
    path = tmp_path / "none.dyck"
    cfg = CompressionConfig(seed=0)
    grid = synth_grid(cfg, 2, 4, 8)
    write_trace(path, grid, TextTokens.empty(8), {(0, 1): np.ones(8, np.float32)})
    with pytest.raises(MissingAttentionBlock) as err:
        run_replay(path, CompressionConfig(eval_layer=3))
    assert err.value.step == 0 and err.value.layer == 3


# -- sweep ---------------------------------------------------------------------


def test_sweep_retained_ratio_column():
    base = small_spec(tokens_per_frame=40, decode_steps=2)
    rows = run_sweep(base, [0.3, 0.5, 0.7], [2], [0.7])
    assert [r["status"] for r in rows] == ["ok"] * 3
    got = [round(r["retained_ratio_stage1"], 4) for r in rows]
    assert got == [0.775, 0.625, 0.475]
    finals = [r["retained_ratio_final"] for r in rows]
    # within one token of the idealized ratios
    for val, want in zip(finals, [0.2325, 0.1875, 0.1425]):
        assert abs(val - want) <= 1 / 320 + 1e-12


def test_sweep_eval_layer_does_not_change_ratios():
    base = small_spec(decode_steps=2)
    rows = run_sweep(base, [0.5], [1, 3], [0.7])
    assert rows[0]["retained_ratio_final"] == rows[1]["retained_ratio_final"]


def test_sweep_records_failed_cells_and_continues():
    base = small_spec(decode_steps=2)
    rows = run_sweep(base, [0.5], [2, 99], [0.7])  # L=99 exceeds layer count
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("error:")


def test_sweep_empty_grid():
    assert run_sweep(small_spec(), [], [2], [0.7]) == []


def test_sweep_runs_cells_in_grid_order_in_this_process(monkeypatch):
    # No worker process: every cell runs here, K varying slowest and P fastest.
    ran = []
    real = simulate._simulate

    def recorded(spec, grid, text):
        ran.append((os.getpid(), spec.config.k_rate, spec.config.eval_layer, spec.config.p_rate))
        return real(spec, grid, text)

    monkeypatch.setattr(simulate, "_simulate", recorded)
    rows = run_sweep(small_spec(decode_steps=1), [0.3, 0.7], [1, 2], [0.5, 0.7])
    grid = [(k, l, p) for k in (0.3, 0.7) for l in (1, 2) for p in (0.5, 0.7)]
    assert ran == [(os.getpid(), *cell) for cell in grid]
    assert [(r["K"], r["L"], r["P"], r["status"]) for r in rows] == [(*c, "ok") for c in grid]


def test_sweep_reads_its_trace_once(monkeypatch, tmp_path):
    # The grid and text are the same for every cell, so one read serves them all.
    spec = small_spec(decode_steps=1)
    path = tmp_path / "in.dyck"
    write_trace(path, synth_grid(spec.config, spec.frames, spec.tokens_per_frame, 16),
                TextTokens.empty(16))
    reads = []
    real = simulate.trace_io.load_trace

    def recorded(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(simulate.trace_io, "load_trace", recorded)
    base = RunSpec(config=spec.config, dims=spec.dims, mode="trace", trace_path=str(path),
                   decode_steps=1)
    rows = run_sweep(base, [0.3, 0.7], [1, 2], [0.5])
    assert [r["status"] for r in rows] == ["ok"] * 4
    assert reads == [str(path)]


def test_bench_layer_fill_independent_of_threads(monkeypatch):
    # every layer's synthetic K/V come from its own [seed, 400, layer] stream
    filled = []

    class Recorded(dynkv.DualCache):
        def __init__(self, layer_kvs, *args, **kwargs):
            filled.append(layer_kvs)
            super().__init__(layer_kvs, *args, **kwargs)

    monkeypatch.setattr(dynkv, "DualCache", Recorded)
    monkeypatch.setattr(attention, "_DRAW_CHUNK", 100)  # several chunks per matrix
    dims = ModelDims(layers=3, hidden=16, ffn_inner=32, heads=4)
    config = CompressionConfig(k_rate=0.5, eval_layer=0, p_rate=0.7, heads=4, seed=7)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(attention, "_cpus", lambda cpus=cpus: cpus)
        run_bench(dims, config, 4, 10, text_tokens=2, steps=1, warmup=0)
    assert len(filled) == 6
    for slot in (0, 1):
        want = filled[slot]
        n = want[0][0].shape[0]
        for layer, (k, v) in enumerate(want):
            rng = np.random.default_rng([7, 400, layer])
            assert k.tobytes() == rng.standard_normal((n, 16)).astype(np.float32).tobytes()
            assert v.tobytes() == rng.standard_normal((n, 16)).astype(np.float32).tobytes()
        for got in filled[2 + slot :: 2]:
            assert all(
                k.tobytes() == wk.tobytes() and v.tobytes() == wv.tobytes()
                for (k, v), (wk, wv) in zip(got, want, strict=True)
            )


@pytest.mark.parametrize("strategies", [("none",), ("none", "dycoke", "random")])
def test_bench_requires_exactly_two_strategies(strategies):
    dims = ModelDims(layers=2, hidden=16, ffn_inner=32, heads=4)
    config = CompressionConfig(k_rate=0.5, eval_layer=0, p_rate=0.7, heads=4)
    with pytest.raises(ValueError, match="exactly two"):
        run_bench(dims, config, 4, 8, steps=1, warmup=0, strategies=strategies)


def test_jaccard_helper():
    assert jaccard([1, 2], [1, 2]) == 1.0
    assert jaccard([1], [2]) == 0.0
    assert jaccard([], []) == 1.0
    assert jaccard([1, 2, 3], [2, 3, 4]) == 0.5


def test_bench_alternates_strategies_step_by_step(monkeypatch):
    # Step i of the first strategy, then step i of the second, so a slow
    # stretch of the host cannot land on one strategy only.
    calls = []
    decode_step = attention.ToyDecoder.decode_step

    def recorded(decoder, embedding, cache, *args, **kwargs):
        calls.append(cache)
        return decode_step(decoder, embedding, cache, *args, **kwargs)

    monkeypatch.setattr(attention.ToyDecoder, "decode_step", recorded)
    dims = ModelDims(layers=2, hidden=16, ffn_inner=32, heads=4)
    config = CompressionConfig(k_rate=0.5, eval_layer=0, p_rate=0.7, heads=4)
    run_bench(dims, config, 4, 8, steps=3, warmup=1)
    first, second = calls[0], calls[1]
    assert first is not second
    assert all(a is b for a, b in zip(calls, [first, second] * 4, strict=True))


@pytest.mark.parametrize("dtype", ["float16", "int8", "float"])
def test_one_dtype_rule(dtype, tmp_path):
    assert simulate.DTYPES == ("float32", "float64")
    with pytest.raises(ValueError, match="dtype"):
        small_spec(dtype=dtype)
    dims = ModelDims(layers=2, hidden=16, ffn_inner=32, heads=4)
    config = CompressionConfig(k_rate=0.5, eval_layer=0, p_rate=0.7, heads=4)
    with pytest.raises(ValueError, match="dtype"):
        run_bench(dims, config, 4, 8, steps=1, warmup=0, dtype=dtype)
    for command in ("simulate", "bench", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dtype", dtype, "--report" if command != "sweep" else "--out",
                  str(tmp_path / "out")])
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()

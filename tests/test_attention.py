import copy
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dycoke import attention
from dycoke.attention import (
    DimensionMismatch,
    EmptyKeySet,
    MODEL_PRESETS,
    ModelDims,
    ToyDecoder,
    _causal_attention,
    _prefill_workers,
    attention_row,
    attention_segments,
    layer_weights,
    project_qkv,
)
from dycoke.dynkv import DualCache, retention_quota, initial_prune, dynamic_swap
from dycoke.tokens import CompressionConfig, TokenId


# -- oracles -----------------------------------------------------------------


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out


def naive_attention(q, keys, values, heads, scale="head"):
    """Extended-precision single-query attention, one head at a time."""
    d = q.shape[0]
    hd = d // heads
    denom = math.sqrt(hd if scale == "head" else d)
    rows = []
    out = np.zeros(d, dtype=np.longdouble)
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        qh = q[sl].astype(np.longdouble)
        logits = [
            float(np.sum(keys[i, sl].astype(np.longdouble) * qh)) / denom
            for i in range(keys.shape[0])
        ]
        mx = max(logits)
        exps = [math.exp(x - mx) for x in logits]
        z = math.fsum(exps)
        row = [e / z for e in exps]
        rows.append(row)
        for i, w in enumerate(row):
            out[sl] += w * values[i, sl].astype(np.longdouble)
    return np.asarray(out, dtype=np.float64), np.array(rows, dtype=np.float64)


def upcast_einsum_attention(q, segments, heads, scale="head"):
    """The previous decode kernel: a float64 query against upcast key/value segments."""
    d = q.shape[0]
    hd = d // heads
    denom = np.sqrt(hd if scale == "head" else d)
    qh = q.reshape(heads, hd).astype(np.float64)
    logits = np.concatenate(
        [np.einsum("nhd,hd->hn", k.reshape(-1, heads, hd), qh) / denom for k, _ in segments],
        axis=1,
    )
    logits -= logits.max(axis=1, keepdims=True)
    scores = np.exp(logits)
    scores /= scores.sum(axis=1, keepdims=True)
    out = np.zeros(d)
    pos = 0
    for _, v in segments:
        n = v.shape[0]
        out += np.einsum("hn,nhd->hd", scores[:, pos : pos + n], v.reshape(n, heads, hd)).reshape(d)
        pos += n
    return out, scores


# -- dims ---------------------------------------------------------------------


def test_model_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(layers=2, hidden=10, ffn_inner=4, heads=3)  # 10 % 3 != 0
    with pytest.raises(ValueError):
        ModelDims(layers=0, hidden=8, ffn_inner=4, heads=2)
    assert ModelDims(2, 8, 16, 2).head_dim == 4


def test_model_presets_match_published_shapes():
    assert MODEL_PRESETS["0.5b"] == ModelDims(24, 896, 4864, 14)
    assert MODEL_PRESETS["7b"] == ModelDims(28, 3584, 18944, 28)
    assert MODEL_PRESETS["72b"] == ModelDims(80, 8192, 29568, 64)


# -- projections -----------------------------------------------------------------


def test_project_qkv_identity_weights():
    dims = ModelDims(1, 4, 8, 2)
    w = layer_weights(dims, seed=0, layer=0)
    eye = np.eye(4)
    object.__setattr__(w, "w_q", eye)
    h = np.array([[1.0, 2.0, 3.0, 4.0]])
    q, _, _ = project_qkv(h, w)
    np.testing.assert_array_equal(q, h)


def test_project_qkv_zero_input():
    w = layer_weights(ModelDims(1, 6, 8, 2), seed=1, layer=0)
    q, k, v = project_qkv(np.zeros((3, 6)), w)
    assert not q.any() and not k.any() and not v.any()


def test_project_qkv_linearity():
    w = layer_weights(ModelDims(1, 6, 8, 2), seed=2, layer=0)
    h = np.random.default_rng(0).standard_normal((3, 6))
    q1, _, _ = project_qkv(h, w)
    q2, _, _ = project_qkv(3.0 * h, w)
    np.testing.assert_allclose(q2, 3.0 * q1, rtol=1e-12)


def test_project_qkv_matches_naive_matmul():
    dims = ModelDims(1, 8, 16, 2)
    w = layer_weights(dims, seed=11, layer=0)
    h = np.random.default_rng(11).standard_normal((3, 8))
    q, k, v = project_qkv(h, w)
    np.testing.assert_allclose(q, naive_matmul(h, w.w_q), atol=1e-6)
    np.testing.assert_allclose(k, naive_matmul(h, w.w_k), atol=1e-6)
    np.testing.assert_allclose(v, naive_matmul(h, w.w_v), atol=1e-6)


def test_project_qkv_dimension_mismatch():
    w = layer_weights(ModelDims(1, 6, 8, 2), seed=0, layer=0)
    with pytest.raises(DimensionMismatch):
        project_qkv(np.zeros((2, 5)), w)


# -- attention_row -----------------------------------------------------------------


def test_single_key_gets_all_mass():
    q = np.ones(4)
    keys = np.array([[1.0, 0.0, 0.0, 1.0]])
    values = np.array([[2.0, 3.0, 4.0, 5.0]])
    out, head_rows, avg = attention_row(q, keys, values, heads=2)
    np.testing.assert_array_equal(head_rows, np.ones((2, 1)))
    np.testing.assert_array_equal(avg, [1.0])
    np.testing.assert_allclose(out, values[0], rtol=1e-12)


def test_identical_keys_split_evenly():
    q = np.random.default_rng(1).standard_normal(6)
    key = np.random.default_rng(2).standard_normal(6)
    keys = np.vstack([key, key])
    values = np.random.default_rng(3).standard_normal((2, 6))
    _, head_rows, avg = attention_row(q, keys, values, heads=3)
    np.testing.assert_allclose(head_rows, 0.5, atol=1e-12)
    np.testing.assert_allclose(avg, [0.5, 0.5], atol=1e-12)


def test_attention_matches_extended_precision_oracle():
    rng = np.random.default_rng(3)
    q = rng.standard_normal(8)
    keys = rng.standard_normal((5, 8))
    values = rng.standard_normal((5, 8))
    out, head_rows, _ = attention_row(q, keys, values, heads=2)
    want_out, want_rows = naive_attention(q, keys, values, heads=2)
    np.testing.assert_allclose(head_rows, want_rows, atol=1e-6)
    np.testing.assert_allclose(out, want_out, atol=1e-6)


def test_attention_row_sums_to_one():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        q = rng.standard_normal(8) * rng.uniform(0.1, 10)
        keys = rng.standard_normal((n, 8)) * rng.uniform(0.1, 10)
        values = rng.standard_normal((n, 8))
        _, head_rows, avg = attention_row(q, keys, values, heads=4)
        np.testing.assert_allclose(head_rows.sum(axis=1), 1.0, atol=1e-6)
        assert abs(avg.sum() - 1.0) < 1e-6
        assert (head_rows >= 0).all() and (head_rows <= 1).all()


@settings(max_examples=150, deadline=None)
@given(
    heads=st.sampled_from([1, 2, 4, 14]),
    head_dim=st.integers(1, 8),
    dtype=st.sampled_from([np.float32, np.float64]),
    scale=st.sampled_from(["head", "full"]),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4).filter(any),
    stride=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(heads=14, head_dim=4, dtype=np.float32, scale="head", sizes=[0, 30], stride=1, seed=0)
@example(heads=4, head_dim=8, dtype=np.float64, scale="full", sizes=[25, 0, 3], stride=1, seed=1)
@example(heads=4, head_dim=8, dtype=np.float32, scale="head", sizes=[17, 5], stride=2, seed=2)
def test_attention_segments_matches_upcast_einsum_oracle(
    heads, head_dim, dtype, scale, sizes, stride, seed
):
    # Random segment splits, empty segments included, against the float64 oracle.
    # stride > 1 makes every segment a row-strided view, like k[::2].
    d = heads * head_dim
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(d).astype(dtype)
    bounds = np.cumsum([0, *sizes])
    keys = rng.standard_normal((bounds[-1] * stride, d)).astype(dtype)[::stride]
    values = rng.standard_normal((bounds[-1] * stride, d)).astype(dtype)[::stride]
    segments = [(keys[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    out, scores, avg = attention_segments(q, segments, heads, scale)
    want_out, want_scores = upcast_einsum_attention(q, segments, heads, scale)
    assert out.dtype == dtype and out.shape == (d,)
    assert scores.dtype == np.float64 and scores.shape == (heads, bounds[-1])
    if dtype is np.float64:
        np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(scores, want_scores, rtol=1e-6, atol=0)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-5)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(avg, scores.mean(axis=0))


def test_empty_key_set():
    with pytest.raises(EmptyKeySet):
        attention_row(np.ones(4), np.zeros((0, 4)), np.zeros((0, 4)), heads=2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        attention_row(np.ones(4), np.ones((2, 4)), np.ones((3, 4)), heads=2)
    with pytest.raises(DimensionMismatch):
        attention_row(np.ones(5), np.ones((2, 5)), np.ones((2, 5)), heads=2)


def test_scale_flag_changes_scores():
    rng = np.random.default_rng(5)
    q = rng.standard_normal(8)
    keys = rng.standard_normal((4, 8))
    values = rng.standard_normal((4, 8))
    _, rows_head, _ = attention_row(q, keys, values, heads=4, scale="head")
    _, rows_full, _ = attention_row(q, keys, values, heads=4, scale="full")
    assert not np.allclose(rows_head, rows_full)
    want_out, want_rows = naive_attention(q, keys, values, heads=4, scale="full")
    np.testing.assert_allclose(rows_full, want_rows, atol=1e-6)


def test_pruned_attention_equals_masked_recompute():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(3, 30))
        keep = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        q = rng.standard_normal(8)
        keys = rng.standard_normal((n, 8))
        values = rng.standard_normal((n, 8))
        out_sub, rows_sub, _ = attention_row(q, keys[keep], values[keep], heads=2)
        # oracle: full logits with -inf outside the kept set, recomputed
        hd = 4
        rows_mask = np.empty((2, len(keep)))
        out_mask = np.zeros(8)
        for h in range(2):
            sl = slice(h * hd, (h + 1) * hd)
            logits = np.full(n, -np.inf)
            logits[keep] = keys[keep, sl] @ q[sl] / math.sqrt(hd)
            e = np.exp(logits - logits[keep].max())
            row = e / e.sum()
            rows_mask[h] = row[keep]
            out_mask[sl] = row[keep] @ values[keep, sl]
        np.testing.assert_allclose(rows_sub, rows_mask, atol=1e-6)
        np.testing.assert_allclose(out_sub, out_mask, atol=1e-6)


# -- decoder -----------------------------------------------------------------


def _plain_cache(kvs, n_vis, n_text, quota, eval_layer, reserve=16):
    ids = [TokenId(0, i) for i in range(n_vis)]
    return DualCache(kvs, ids, n_text, quota, eval_layer, reserve_steps=reserve)


def test_prefill_decode_consistency():
    # Cached decode must equal the no-cache full recompute.
    dims = ModelDims(layers=3, hidden=16, ffn_inner=32, heads=4)
    dec = ToyDecoder(dims, seed=12)
    rng = np.random.default_rng(0)
    prompt = rng.standard_normal((6, 16))
    kvs, last = dec.prefill(prompt)
    cache = _plain_cache(kvs, n_vis=4, n_text=2, quota=4, eval_layer=1)
    _, emb = dec.select_token(last)
    embeddings = [emb]
    outputs = []
    for step in range(5):
        hidden, snap = dec.decode_step(embeddings[-1], cache, step)
        assert snap is not None and snap.layer == 1
        assert abs(snap.row_total - 1.0) < 1e-6
        outputs.append(hidden)
        _, emb = dec.select_token(hidden)
        embeddings.append(emb)
    full_rows = np.vstack([prompt, np.array(embeddings[:-1])])
    _, hidden_all = dec.forward_full(full_rows)
    np.testing.assert_allclose(np.array(outputs), hidden_all[6:], atol=1e-5)


def causal_reference(dec: ToyDecoder, rows: np.ndarray) -> np.ndarray:
    """Final hidden states with each position attending to its K/V prefix [0, i]."""
    h = rows.astype(dec.dtype)
    for weights in dec.layers:
        q, k, v = project_qkv(h, weights)
        ctx = np.vstack(
            [attention_row(q[i], k[: i + 1], v[: i + 1], dec.dims.heads, dec.scale)[0]
             for i in range(len(h))]
        )
        h = np.maximum(ctx @ weights.w_o @ weights.ffn_in, 0.0) @ weights.ffn_out
    return h


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 200),
    heads=st.sampled_from([1, 2, 4]),
    scale=st.sampled_from(["head", "full"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
@example(n=64, heads=4, scale="head", dtype=np.float64, seed=0)
@example(n=128, heads=2, scale="full", dtype=np.float32, seed=1)
def test_forward_full_matches_per_position_oracle(n, heads, scale, dtype, seed):
    # n spans below, at and between multiples of the prefill tile size.
    dims = ModelDims(layers=2, hidden=16, ffn_inner=32, heads=heads)
    dec = ToyDecoder(dims, seed=seed, scale=scale, dtype=dtype)
    rows = np.random.default_rng(seed).standard_normal((n, 16))
    kvs, hidden = dec.forward_full(rows)
    for layer, (k, v) in enumerate(kvs):
        # Each layer's input is the output of the decoder cut below that layer.
        below = copy.copy(dec)
        below.layers = dec.layers[:layer]
        layer_in = below.forward_full(rows)[1]
        _, k_ref, v_ref = project_qkv(layer_in, dec.layers[layer])
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)
    atol = 1e-10 if dtype is np.float64 else 1e-4
    assert hidden.dtype == dtype
    np.testing.assert_allclose(hidden, causal_reference(dec, rows), rtol=0, atol=atol)


def dense_causal_reference(dec, rows):
    """forward_full's hidden rows from one n x n masked softmax per head, in float64."""
    h = np.asarray(rows, dtype=dec.dtype).astype(np.float64)
    n = h.shape[0]
    hd = dec.dims.head_dim
    denom = math.sqrt(hd if dec.scale == "head" else dec.dims.hidden)
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    for w in dec.layers:
        w_q, w_k, w_v, w_o, ffn_in, ffn_out = (
            m.astype(np.float64) for m in (w.w_q, w.w_k, w.w_v, w.w_o, w.ffn_in, w.ffn_out)
        )
        q, k, v = h @ w_q, h @ w_k, h @ w_v
        ctx = np.empty_like(q)
        for head in range(dec.dims.heads):
            cols = slice(head * hd, (head + 1) * hd)
            logits = q[:, cols] @ k[:, cols].T / denom
            logits[future] = -np.inf
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            ctx[:, cols] = (p / p.sum(axis=1, keepdims=True)) @ v[:, cols]
        h = np.maximum(ctx @ w_o @ ffn_in, 0.0) @ ffn_out
    return h


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("scale", ["head", "full"])
def test_forward_full_matches_dense_masked_softmax(n, dtype, scale):
    # n sits at, around and across the 64-row prefill tile.
    dec = ToyDecoder(ModelDims(layers=2, hidden=16, ffn_inner=32, heads=4), seed=n, scale=scale,
                     dtype=dtype)
    rows = np.random.default_rng(n).standard_normal((n, 16))
    _, hidden = dec.forward_full(rows)
    assert hidden.dtype == dtype and hidden.shape == (n, 16)
    atol = 1e-12 if dtype is np.float64 else 1e-5
    np.testing.assert_allclose(hidden, dense_causal_reference(dec, rows), rtol=0, atol=atol)


@pytest.mark.parametrize("n", [1, 64, 130])
@pytest.mark.parametrize("denom", [np.sqrt(4.0), np.sqrt(16.0), 3.0])
def test_causal_attention_first_row_is_its_value(n, denom):
    # Row 0 attends to key 0 alone: weight exactly 1, every other weight exactly 0.
    dec = ToyDecoder(ModelDims(layers=1, hidden=16, ffn_inner=32, heads=4), seed=5)
    q, k, v = project_qkv(np.random.default_rng(5).standard_normal((n, 16)), dec.layers[0])
    ctx = _causal_attention(q, k, v, 4, denom)
    assert ctx.dtype == np.float64
    assert ctx[0].tobytes() == v[0].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 150),
    layers=st.integers(1, 3),
    heads=st.sampled_from([1, 2, 4]),
    scale=st.sampled_from(["head", "full"]),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_prefill_matches_forward_full_last_row(n, layers, heads, scale, dtype, seed):
    # prefill runs the top layer's attention and FFN for the last row only
    dec = ToyDecoder(ModelDims(layers, 16, 32, heads), seed=seed, scale=scale, dtype=dtype)
    rows = np.random.default_rng(seed).standard_normal((n, 16))
    kvs, last = dec.prefill(rows)
    kvs_ref, hidden_ref = dec.forward_full(rows)
    for (k, v), (k_ref, v_ref) in zip(kvs, kvs_ref, strict=True):
        assert np.array_equal(k, k_ref) and np.array_equal(v, v_ref)
    assert last.dtype == dtype and last.shape == (16,)
    atol = 1e-12 if dtype is np.float64 else 1e-5
    np.testing.assert_allclose(last, hidden_ref[-1], rtol=0, atol=atol)


def test_prefill_rejects_wrong_width():
    dec = ToyDecoder(ModelDims(1, 8, 16, 2), seed=0)
    with pytest.raises(DimensionMismatch):
        dec.prefill(np.zeros((3, 6)))


def test_forward_full_peak_memory_below_one_logit_matrix():
    n = 1024
    dec = ToyDecoder(ModelDims(layers=1, hidden=32, ffn_inner=64, heads=4), seed=0)
    rows = np.random.default_rng(0).standard_normal((n, 32))
    tracemalloc.start()
    try:
        dec.forward_full(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.float64).itemsize


# -- prefill head groups ---------------------------------------------------------


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(attention, "_prefill_workers", lambda heads: min(heads, workers))


def serial_causal_tiles(q, k, v, heads, denom, block=64):
    """The single-threaded tile loop, one head at a time, fresh arrays per tile."""
    n, d = q.shape
    hd = d // heads
    scale = 1.0 / denom
    if q.dtype == np.float64:
        q, scale = q * scale, None
    ctx = np.empty_like(q)
    upper = np.triu(np.ones((block, block), dtype=bool), k=1)
    for head in range(heads):
        cols = slice(head * hd, (head + 1) * hd)
        qh, kh, vh = q[:, cols], k[:, cols], v[:, cols].astype(np.float64)
        for lo in range(0, n, block):
            hi = min(lo + block, n)
            logits = qh[lo:hi] @ kh[:hi].T
            if scale is not None:
                logits = np.multiply(logits, scale, dtype=np.float64)
            b = hi - lo
            np.copyto(logits[:, lo:], -np.inf, where=upper[:b, :b])
            logits -= logits.max(axis=-1, keepdims=True)
            np.exp(logits, out=logits)
            ctx[lo:hi, cols] = (logits @ vh[:hi]) / logits.sum(axis=-1, keepdims=True)
    return ctx


@pytest.mark.parametrize("heads", [1, 3, 4, 14])
@pytest.mark.parametrize("workers", [1, 2, 3, "heads"])
def test_causal_attention_head_groups_match_serial_tiles(monkeypatch, heads, workers):
    # n sits at, around and across the 64-row tile; every grouping of the
    # heads must give the serial loop's bits. Up to 14 workers on fewer
    # cores, switching threads often, write disjoint slices of one output.
    force_workers(monkeypatch, heads if workers == "heads" else workers)
    hd = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 63, 64, 65, 130):
            rng = np.random.default_rng([n, heads])
            for dtype in (np.float32, np.float64):
                q, k, v = (rng.standard_normal((n, heads * hd)).astype(dtype) for _ in range(3))
                for denom in (math.sqrt(hd), math.sqrt(heads * hd)):
                    got = _causal_attention(q, k, v, heads, denom)
                    want = serial_causal_tiles(q, k, v, heads, denom)
                    assert got.dtype == dtype
                    assert got.tobytes() == want.tobytes(), (n, dtype, denom)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_full_identical_with_one_and_two_workers(monkeypatch, dtype):
    dec = ToyDecoder(ModelDims(layers=3, hidden=32, ffn_inner=64, heads=4), seed=2, dtype=dtype)
    rows = np.random.default_rng(2).standard_normal((150, 32))
    runs = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        runs.append(dec.forward_full(rows))
    (kvs_1, hidden_1), (kvs_2, hidden_2) = runs
    assert hidden_1.tobytes() == hidden_2.tobytes()
    for (k1, v1), (k2, v2) in zip(kvs_1, kvs_2, strict=True):
        assert k1.tobytes() == k2.tobytes() and v1.tobytes() == v2.tobytes()


def test_forward_full_peak_memory_below_one_logit_matrix_with_a_worker_per_head(monkeypatch):
    force_workers(monkeypatch, 4)
    n = 1024
    dec = ToyDecoder(ModelDims(layers=1, hidden=32, ffn_inner=64, heads=4), seed=0)
    rows = np.random.default_rng(0).standard_normal((n, 32))
    tracemalloc.start()
    try:
        dec.forward_full(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.float64).itemsize


# -- prefill worker rule ------------------------------------------------------------

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(monkeypatch, cpus, **values):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in values.items():
        monkeypatch.setenv(var, value)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_prefill_workers_one_with_uncapped_blas(monkeypatch, cpus):
    blas_env(monkeypatch, cpus)
    assert _prefill_workers(4) == 1


@pytest.mark.parametrize("cpus, heads", [(1, 4), (2, 4), (2, 1), (8, 4), (8, 14)])
def test_prefill_workers_one_blas_thread_uses_the_cpus(monkeypatch, cpus, heads):
    blas_env(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")
    assert _prefill_workers(heads) == min(heads, cpus)


def test_prefill_workers_divides_cpus_by_blas_threads(monkeypatch):
    blas_env(monkeypatch, 2, OMP_NUM_THREADS="2")
    assert _prefill_workers(4) == 1
    blas_env(monkeypatch, 8, MKL_NUM_THREADS="2")
    assert _prefill_workers(14) == 4
    blas_env(monkeypatch, 2, OMP_NUM_THREADS="64")
    assert _prefill_workers(4) == 1
    # the first variable that holds a positive integer decides
    blas_env(monkeypatch, 2, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="2")
    assert _prefill_workers(4) == 2


@pytest.mark.parametrize("bad", ["", "abc", "0", "-2", "1.5"])
def test_prefill_workers_bad_values_count_as_unset(monkeypatch, bad):
    blas_env(monkeypatch, 2, OPENBLAS_NUM_THREADS=bad)
    assert _prefill_workers(4) == 1
    # the next variable that holds a positive integer decides
    blas_env(monkeypatch, 2, OPENBLAS_NUM_THREADS=bad, OMP_NUM_THREADS="1")
    assert _prefill_workers(4) == 2


def test_prefill_workers_falls_back_to_cpu_count(monkeypatch):
    blas_env(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _prefill_workers(4) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _prefill_workers(4) == 1


# -- prefill row blocks and threaded weight draws -------------------------------


def serial_forward(dec, rows):
    """forward_full as whole-matrix products and the serial tile loop: no row blocks, no threads."""
    h = np.ascontiguousarray(rows, dtype=dec.dtype)
    denom = math.sqrt(dec.dims.head_dim if dec.scale == "head" else dec.dims.hidden)
    kvs = []
    for w in dec.layers:
        q, k, v = h @ w.w_q, h @ w.w_k, h @ w.w_v
        kvs.append((k, v))
        ctx = serial_causal_tiles(q, k, v, dec.dims.heads, denom)
        h = np.maximum(ctx @ w.w_o @ w.ffn_in, 0.0) @ w.ffn_out
    return kvs, h


def same_bytes(kvs_a, kvs_b):
    return all(
        ka.tobytes() == kb.tobytes() and va.tobytes() == vb.tobytes()
        for (ka, va), (kb, vb) in zip(kvs_a, kvs_b, strict=True)
    )


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_row_blocks_match_whole_matrix_products(monkeypatch, workers):
    # At n = 2 and 3 a block per worker would hold one row, which numpy
    # runs as a gemv with other bits, so blocks hold two rows or more.
    force_workers(monkeypatch, workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for dtype in (np.float32, np.float64):
            dec = ToyDecoder(ModelDims(layers=3, hidden=32, ffn_inner=64, heads=4), seed=4,
                             dtype=dtype)
            for n in (1, 2, 3, 63, 64, 65, 130):
                rows = np.random.default_rng([n, 4]).standard_normal((n, 32))
                kvs_ref, hidden_ref = serial_forward(dec, rows)
                kvs, hidden = dec.forward_full(rows)
                assert hidden.dtype == dtype
                assert hidden.tobytes() == hidden_ref.tobytes(), (n, dtype)
                assert same_bytes(kvs, kvs_ref), (n, dtype)
                kvs, last = dec.prefill(rows)
                assert same_bytes(kvs, kvs_ref), (n, dtype)
                with monkeypatch.context() as serial:
                    force_workers(serial, 1)
                    _, last_ref = dec.prefill(rows)
                assert last.tobytes() == last_ref.tobytes(), (n, dtype)
    finally:
        sys.setswitchinterval(interval)


def test_row_blocks_skip_thread_planner_below_four_rows(monkeypatch):
    # Fewer than four rows make one block at any thread count, so decode's
    # one-row products never read the CPU affinity or the BLAS variables.
    asked = []
    monkeypatch.setattr(attention, "_prefill_workers", lambda n: asked.append(n) or 1)
    blocks = []
    for n in range(5):
        attention._row_blocks(lambda lo, hi: blocks.append((lo, hi)), n)
    assert blocks == [(0, n) for n in range(5)]
    assert asked == [2]


def old_layer_weights(dims, seed, layer, dtype):
    """Each draw scaled into a fresh array, then cast."""
    d, m = dims.hidden, dims.ffn_inner
    rng = np.random.default_rng([seed % 2**32, 100, layer])
    scale_d = 1.0 / np.sqrt(d)
    shapes = [((d, d), scale_d)] * 4 + [((d, m), np.sqrt(2.0 / d)), ((m, d), 1.0 / np.sqrt(m))]
    return [(rng.standard_normal(shape) * scale).astype(dtype) for shape, scale in shapes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_threaded_layer_draws_match_layer_weights(monkeypatch, dtype, cpus):
    # float32 draws go through 100-value chunks, the last one partial;
    # threads switch often while each fills its own layers.
    monkeypatch.setattr(attention, "_cpus", lambda: cpus)
    monkeypatch.setattr(attention, "_DRAW_CHUNK", 100)
    dims = ModelDims(layers=5, hidden=24, ffn_inner=44, heads=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        dec = ToyDecoder(dims, seed=2**32 + 9, dtype=dtype)
    finally:
        sys.setswitchinterval(interval)
    assert len(dec.layers) == 5
    names = ("w_q", "w_k", "w_v", "w_o", "ffn_in", "ffn_out")
    for layer, got in enumerate(dec.layers):
        want = layer_weights(dims, 2**32 + 9, layer, dtype)
        old = old_layer_weights(dims, 2**32 + 9, layer, dtype)
        for name, ref in zip(names, old, strict=True):
            assert getattr(got, name).dtype == dtype
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes() == ref.tobytes()


def test_no_thread_left_after_decoder_or_prefill(monkeypatch):
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(attention, "_cpus", lambda: 3)
    threads = threading.active_count()
    dec = ToyDecoder(ModelDims(layers=4, hidden=16, ffn_inner=32, heads=4), seed=3)
    assert threading.active_count() == threads
    dec.prefill(np.random.default_rng(3).standard_normal((70, 16)))
    assert threading.active_count() == threads


def test_run_blocks_workers_keep_the_callers_error_state():
    # An overflow in a worker's block raises as it would on the calling thread.
    def fn(lo, hi):
        if lo > 0:  # only the worker threads' blocks overflow
            np.float32(1e38) * np.float32(1e38)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        attention._run_blocks(fn, 4, 2)


def test_project_qkv_once_per_layer_on_calling_thread(monkeypatch):
    force_workers(monkeypatch, 2)
    calls = []
    original = attention.project_qkv

    def recorded(h, weights):
        calls.append(threading.get_ident())
        return original(h, weights)

    monkeypatch.setattr(attention, "project_qkv", recorded)
    dec = ToyDecoder(ModelDims(layers=3, hidden=16, ffn_inner=32, heads=4), seed=5)
    rows = np.random.default_rng(5).standard_normal((90, 16))
    dec.forward_full(rows)
    assert calls == [threading.get_ident()] * 3
    calls.clear()
    kvs, last = dec.prefill(rows)
    assert calls == [threading.get_ident()] * 3

    # Decode projects its row without project_qkv, so perfbench's
    # prefill_qkv span holds no decode time, and calls attention_segments
    # once per layer, bottom up, over that layer's segments, which is how
    # perfbench tells eval-layer from pruned-layer attention.
    calls.clear()
    cache = _plain_cache(kvs, n_vis=80, n_text=10, quota=40, eval_layer=1)
    served, attended = [], []
    segments_for = cache.segments_for

    def recorded_segments_for(layer):
        out = segments_for(layer)
        served.append((layer, out[0]))
        return out

    original_segments = attention.attention_segments

    def recorded_segments(query, segments, *args, **kwargs):
        attended.append((len(served), segments))
        return original_segments(query, segments, *args, **kwargs)

    monkeypatch.setattr(cache, "segments_for", recorded_segments_for)
    monkeypatch.setattr(attention, "attention_segments", recorded_segments)
    _, emb = dec.select_token(last)
    dec.decode_step(emb, cache, 0)
    assert calls == []
    assert [layer for layer, _ in served] == [0, 1, 2]
    assert [n for n, _ in attended] == [1, 2, 3]
    for (_, want), (_, got) in zip(served, attended, strict=True):
        assert got is want


def decode_reference(dec: ToyDecoder, emb: np.ndarray, cache: DualCache) -> np.ndarray:
    """One decode step written with 1-D ``h @ w`` products and no row-block helper."""
    h = emb
    for layer, w in enumerate(dec.layers):
        q, k, v = h @ w.w_q, h @ w.w_k, h @ w.w_v
        cache.append_generated(layer, k, v)
        segments, _ = cache.segments_for(layer)
        out, _, _ = attention_segments(q, segments, dec.dims.heads, dec.scale)
        h = np.maximum((out @ w.w_o) @ w.ffn_in, 0.0) @ w.ffn_out
    return h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden, ffn, heads", [(16, 32, 4), (128, 320, 4)])
def test_decode_step_bit_equal_to_one_dimensional_products(dtype, hidden, ffn, heads):
    # decode_step runs its row through the row-block projection and FFN that
    # prefill uses; as a one-row block they must give the 1-D products' bits.
    dec = ToyDecoder(ModelDims(layers=3, hidden=hidden, ffn_inner=ffn, heads=heads), seed=4,
                     dtype=dtype)
    kvs, last = dec.prefill(np.random.default_rng(4).standard_normal((40, hidden)))
    got_cache, want_cache = (
        _plain_cache(kvs, n_vis=30, n_text=10, quota=30, eval_layer=1) for _ in range(2)
    )
    _, emb = dec.select_token(last)
    for step in range(4):
        got, _ = dec.decode_step(emb, got_cache, step)
        want = decode_reference(dec, emb, want_cache)
        assert got.dtype == want.dtype == dtype and got.shape == (hidden,)
        assert got.tobytes() == want.tobytes(), step
        _, emb = dec.select_token(got)


def test_cache_length_bookkeeping():
    dims = ModelDims(layers=3, hidden=8, ffn_inner=16, heads=2)
    dec = ToyDecoder(dims, seed=1)
    prompt = np.random.default_rng(1).standard_normal((5, 8))
    kvs, last = dec.prefill(prompt)
    cache = _plain_cache(kvs, n_vis=3, n_text=2, quota=3, eval_layer=0)
    _, emb = dec.select_token(last)
    for t in range(1, 5):
        hidden, _ = dec.decode_step(emb, cache, t - 1)
        _, emb = dec.select_token(hidden)
        for layer in range(dims.layers):
            segs, _ = cache.segments_for(layer)
            total = sum(k.shape[0] for k, _ in segs)
            assert total == 5 + t  # prefill length + t appended tokens


def test_decode_determinism():
    dims = ModelDims(layers=2, hidden=8, ffn_inner=16, heads=2)
    outs = []
    for _ in range(2):
        dec = ToyDecoder(dims, seed=5)
        prompt = np.random.default_rng(2).standard_normal((4, 8))
        kvs, last = dec.prefill(prompt)
        cache = _plain_cache(kvs, n_vis=4, n_text=0, quota=4, eval_layer=0)
        _, emb = dec.select_token(last)
        h, _ = dec.decode_step(emb, cache, 0)
        outs.append(h.tobytes())
    assert outs[0] == outs[1]


def test_pruned_layers_attend_quota_visual_tokens():
    dims = ModelDims(layers=4, hidden=8, ffn_inner=16, heads=2)
    dec = ToyDecoder(dims, seed=3)
    n_vis, p_rate = 10, 0.7
    prompt = np.random.default_rng(3).standard_normal((n_vis + 2, 8))
    kvs, last = dec.prefill(prompt)
    config = CompressionConfig(k_rate=0.0, eval_layer=1, p_rate=p_rate, heads=2)
    quota = retention_quota(n_vis, p_rate)
    cache = _plain_cache(kvs, n_vis, 2, quota, eval_layer=1)
    _, emb = dec.select_token(last)

    def hook_step(step):
        def on_snapshot(snap):
            if step == 0:
                initial_prune(snap, cache, config)
            else:
                dynamic_swap(snap, cache, config)
        return on_snapshot

    for step in range(3):
        hidden, _ = dec.decode_step(emb, cache, step, on_snapshot=hook_step(step))
        _, emb = dec.select_token(hidden)
        for layer in range(dims.layers):
            _, n_visual = cache.segments_for(layer)
            want = quota if layer > 1 else n_vis
            assert n_visual == want
    # (1 - 0.7) * 10 is exactly 3 in real arithmetic; the quota guards
    # against float fuzz pushing ceil to 4
    assert quota == 3

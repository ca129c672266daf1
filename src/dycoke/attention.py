"""Deterministic toy multi-head decoder.

Just enough transformer to exercise the compression pipeline: per-layer QKV
projections, cached multi-head attention, an output projection, and a ReLU
FFN so decode-step wall clock has the same shape as the cost model. No
residual streams, no normalization, no training. Everything is derived from
(seed, layer), so a (seed, config) pair fully determines all outputs.

``ToyDecoder._layers`` is the one layer body: Q/K/V, the caller's attention,
then the FFN. Prefill and ``forward_full`` pass causal tiles (prefill's top
layer attends its last row only); decode passes its cache.
"""

from __future__ import annotations

import contextvars
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .tokens import TokenId


class DimensionMismatch(ValueError):
    pass


class EmptyKeySet(RuntimeError):
    """Attention was asked to run over zero keys: the cache was over-pruned."""


@dataclass(frozen=True)
class ModelDims:
    """Transformer shape: layer count, hidden size, FFN inner size, heads."""

    layers: int
    hidden: int
    ffn_inner: int
    heads: int

    def __post_init__(self) -> None:
        if min(self.layers, self.hidden, self.ffn_inner, self.heads) < 1:
            raise ValueError(f"all dims must be >= 1, got {self}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")


# Published LLaVA-OneVision model shapes; head counts chosen to divide evenly.
MODEL_PRESETS: dict[str, ModelDims] = {
    "0.5b": ModelDims(layers=24, hidden=896, ffn_inner=4864, heads=14),
    "7b": ModelDims(layers=28, hidden=3584, ffn_inner=18944, heads=28),
    "72b": ModelDims(layers=80, hidden=8192, ffn_inner=29568, heads=64),
}


@dataclass(frozen=True)
class LayerWeights:
    w_q: np.ndarray = field(repr=False)
    w_k: np.ndarray = field(repr=False)
    w_v: np.ndarray = field(repr=False)
    w_o: np.ndarray = field(repr=False)
    ffn_in: np.ndarray = field(repr=False)
    ffn_out: np.ndarray = field(repr=False)


def _empty_layer(dims: ModelDims, dtype) -> tuple[LayerWeights, list[tuple[np.ndarray, float]]]:
    """One layer's unfilled weights, and each matrix with its draw scale, in draw order."""
    d, m = dims.hidden, dims.ffn_inner
    square = ((d, d), 1.0 / np.sqrt(d))  # the scales keep hidden magnitudes O(1)
    draws = {"w_q": square, "w_k": square, "w_v": square, "w_o": square,
             "ffn_in": ((d, m), np.sqrt(2.0 / d)), "ffn_out": ((m, d), 1.0 / np.sqrt(m))}
    outs = {name: (np.empty(shape, dtype), scale) for name, (shape, scale) in draws.items()}
    return LayerWeights(**{name: out for name, (out, _) in outs.items()}), list(outs.values())


# float64 values per chunk of a draw: each chunk is drawn, scaled and cast
# in turn, so a draw into a narrower dtype holds 512 KiB of float64 at a
# time instead of a float64 copy of the whole matrix. A worker thread's
# malloc arena keeps its last chunk: on a 2-core x86 VM, 2 MiB chunks
# raised perfbench decode_long's peak RSS by 1.7 MB, these by 0.2-0.3 MB.
_DRAW_CHUNK = 1 << 16


def _fill_normal(rng: np.random.Generator, out: np.ndarray, scale: float) -> None:
    """Fill the C-contiguous ``out`` with ``rng``'s standard normals times ``scale``.

    The bits equal those of one float64 draw of ``out``'s shape, scaled and
    cast to ``out.dtype``: the draw runs a chunk at a time, in stream order.
    """
    flat = out.reshape(-1)
    scratch = np.empty(min(flat.size, _DRAW_CHUNK))
    for lo in range(0, flat.size, _DRAW_CHUNK):
        x = scratch[: min(_DRAW_CHUNK, flat.size - lo)]
        rng.standard_normal(out=x)
        x *= scale
        flat[lo : lo + x.size] = x


def _fill_layers(
    layers: list[tuple[int, list[tuple[np.ndarray, float]]]], seed: int, stream: int
) -> None:
    """Fill each (layer, outs) entry's (array, scale) pairs, in order, from the layer's own stream.

    The stream is ``[seed, stream, layer]``, so the bits do not depend on
    how the entries are grouped: contiguous groups run on ``min(entries,
    cpus)`` threads, a count that ignores the BLAS variables since the
    draws use no BLAS. The caller allocates the arrays, so a worker leaves
    no large freed buffer in a malloc arena of its own.
    """

    def fill(lo: int, hi: int) -> None:
        for layer, outs in layers[lo:hi]:
            rng = np.random.default_rng([seed % 2**32, stream, layer])
            for out, scale in outs:
                _fill_normal(rng, out, scale)

    _run_blocks(fill, len(layers), _cpus())


def project_qkv(
    hidden_states: np.ndarray, weights: LayerWeights, last_q: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear Q/K/V projections of a token matrix, over row blocks in threads.

    The blocks follow ``_row_blocks``, so each output row has the bits of
    the whole-matrix product; ``last_q`` is as in ``_qkv_rows``. Call it
    from one thread: perfbench's tracer wraps it by name, and its span
    stack is not thread-safe.
    """
    h = np.atleast_2d(hidden_states)
    if h.shape[1] != weights.w_q.shape[0]:
        raise DimensionMismatch(
            f"hidden width {h.shape[1]} != projection width {weights.w_q.shape[0]}"
        )
    return _qkv_rows(h, weights, last_q)


def _qkv_rows(
    h: np.ndarray, weights: LayerWeights, last_q: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``h @ w_q``, ``h @ w_k``, ``h @ w_v`` for every row of the (n, d) ``h``, unchecked.

    With ``last_q``, Q is the last row's alone, from the two-row gemm
    ``h[-2:] @ w_q``, which keeps the whole product's bits (``_row_blocks``).
    The causal passes reach this through ``project_qkv``; decode calls it
    directly, so the tracer's ``project_qkv`` span holds prefill time only.
    """
    mats = (weights.w_k, weights.w_v) if last_q else (weights.w_q, weights.w_k, weights.w_v)
    outs = tuple(np.empty((h.shape[0], w.shape[1]), np.result_type(h, w)) for w in mats)

    def block(lo: int, hi: int) -> None:
        for w, out in zip(mats, outs):
            np.matmul(h[lo:hi], w, out=out[lo:hi])

    _row_blocks(block, h.shape[0])
    return ((h[-2:] @ weights.w_q)[-1:], *outs) if last_q else outs


# Query rows per prefill tile, one head at a time. At 3k rows, d=128, 4
# heads, float64 and one BLAS thread, 128 was fastest of 64/128/256.
_PREFILL_BLOCK = 128


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _prefill_workers(n: int) -> int:
    """Threads for ``n`` independent prefill blocks: ``min(n, cpus // blas_threads)``, at least 1.

    ``blas_threads`` is the first of OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
    and MKL_NUM_THREADS that holds a positive integer, else ``cpus`` (the
    BLAS default). With uncapped BLAS this is 1: each worker's gemm would
    start BLAS threads of its own, and two such workers made one layer at
    3,000 x 128, 4 heads, float64 take 215-254 ms instead of 144-171 ms.
    """
    cpus = _cpus()
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, min(n, cpus // blas_threads))


def _run_blocks(fn: Callable[[int, int], None], n: int, parts: int) -> None:
    """``fn(lo, hi)`` over contiguous blocks of ``range(n)``, all at once.

    There are ``parts`` blocks, clamped to [1, n]. The calling thread runs
    the first block and a pool made for this call one thread for each other
    block; the pool is shut down before the call returns, so no thread
    outlives it. Threads run in copies of the caller's context: numpy's error state holds.
    """
    parts = max(1, min(parts, n))
    if parts == 1:
        return fn(0, n)
    bounds = [b * n // parts for b in range(parts + 1)]
    blocks = list(zip(bounds, bounds[1:]))
    with ThreadPoolExecutor(max_workers=parts - 1) as pool:
        rest = [pool.submit(contextvars.copy_context().run, fn, lo, hi)
                for lo, hi in blocks[1:]]
        fn(*blocks[0])
        for future in rest:
            future.result()


def _row_blocks(fn: Callable[[int, int], None], n: int) -> None:
    """``fn(lo, hi)`` over row blocks of an n-row GEMM, on ``_prefill_workers`` threads.

    Each block holds at least two rows: numpy computes a one-row product as
    a gemv, whose bits differ from the gemm's, while a gemm block of two or
    more rows gives the bits of the same rows of the whole product. ``fn``
    writes into arrays the calling thread allocated, so no worker leaves
    large freed buffers in a malloc arena of its own. Fewer than four rows
    make one block, so decode's one row skips the thread planner.
    """
    _run_blocks(fn, n, _prefill_workers(n // 2) if n >= 4 else 1)


def _causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, denom: float
) -> np.ndarray:
    """Causal multi-head attention of every row of ``q``, one query tile at a time.

    A tile of rows [lo, hi) attends to the key prefix [0, hi) only, so the
    upper triangle beyond the tile is never computed; only the diagonal
    block is masked. As in FlashAttention, each tile's unnormalised P @ V
    is divided by the row sums afterwards.

    The shift rule: softmax is unchanged by any per-row shift, and row i
    is shifted by its own diagonal logit d_i = q_i.k_i / denom, which every
    causal row holds, instead of by its max. Q and K are copied head-major
    with one extra column each, -d in Q and ones in K, so a tile's
    ``matmul`` already returns x_ij - d_i and the tile runs mask, ``exp``,
    row sum and P @ V with no max or subtract pass. 1/denom costs no pass
    of its own either: float64 Q is scaled in that copy, and d comes from
    the scaled Q; float32 keeps the product in float32 (d too) and scales
    it while widening it to float64, the copy the tile needs anyway.

    The fallback: the diagonal's weight is exp(~0) ~ 1, so a row sum that
    comes out non-finite or below 1/2 means a logit more than ~709 above
    its diagonal overflowed ``exp``, or the logits are so large that
    rounding of d lost the diagonal's weight. Such a tile is computed
    again with the shift by its exact row max. ``exp`` ignores overflow,
    which the fallback handles; an overflow in a product still raises
    under the caller's error state. Row 0 attends key 0 alone, so its
    context row is ``v[0]`` itself, bit for bit.

    Heads are independent, so ``_run_blocks`` splits them into
    ``_prefill_workers`` contiguous groups, each running its heads' tile
    loops in a thread of its own. The calling thread allocates one tile
    buffer per group, so no worker leaves freed tiles in a per-thread
    malloc arena. Working memory is one (tile, n) float64 tile per group,
    not an n x n matrix per head, and each head's arithmetic is the same
    whatever the grouping. Returns the context rows in ``q``'s dtype.
    """
    n, d = q.shape
    hd = d // heads
    scale = 1.0 / denom
    qx = np.empty((heads, n, hd + 1), q.dtype)
    kx = np.empty((heads, n, hd + 1), k.dtype)
    qh, kh = qx[:, :, :hd], kx[:, :, :hd]
    q_rows = q.reshape(n, heads, hd).transpose(1, 0, 2)
    if q.dtype == np.float64:
        np.multiply(q_rows, scale, out=qh)
        scale = None
    else:
        qh[...] = q_rows
    kh[...] = k.reshape(n, heads, hd).transpose(1, 0, 2)
    np.negative(np.einsum("hnk,hnk->hn", qh, kh), out=qx[:, :, hd])
    kx[:, :, hd] = 1
    vh = v.reshape(n, heads, hd).transpose(1, 0, 2).astype(np.float64, copy=False)
    ctx = np.empty_like(q)
    ctx_h = ctx.reshape(n, heads, hd).transpose(1, 0, 2)
    upper = np.triu(np.ones((_PREFILL_BLOCK, _PREFILL_BLOCK), dtype=bool), k=1)
    per_tile = min(_PREFILL_BLOCK, n) * n
    groups = _prefill_workers(heads)
    buf = np.empty(groups * per_tile, dtype=np.float64)
    raw = buf if scale is None else np.empty(buf.size, q.dtype)

    def tile(qm: np.ndarray, km: np.ndarray, head: int, lo: int, hi: int, g: int) -> np.ndarray:
        """Rows [lo, hi) of ``head``'s masked, scaled ``qm @ km.T``, in group ``g``'s buffer."""
        b = hi - lo
        logits = buf[g * per_tile :][: b * hi].reshape(b, hi)
        prod = raw[g * per_tile :][: b * hi].reshape(b, hi)
        np.matmul(qm[head, lo:hi], km[head, :hi].T, out=prod)
        if scale is not None:
            np.multiply(prod, scale, out=logits, dtype=np.float64)
        np.copyto(logits[:, lo:], -np.inf, where=upper[:b, :b])
        return logits

    def run_group(g: int, _: int) -> None:
        for head in range(g * heads // groups, (g + 1) * heads // groups):
            for lo in range(0, n, _PREFILL_BLOCK):
                hi = min(lo + _PREFILL_BLOCK, n)
                logits = tile(qx, kx, head, lo, hi, g)
                with np.errstate(over="ignore"):
                    np.exp(logits, out=logits)
                sums = logits.sum(axis=-1, keepdims=True)
                if not np.all((sums >= 0.5) & (sums < np.inf)):
                    logits = tile(qh, kh, head, lo, hi, g)
                    logits -= logits.max(axis=-1, keepdims=True)
                    np.exp(logits, out=logits)
                    sums = logits.sum(axis=-1, keepdims=True)
                ctx_h[head, lo:hi] = (logits @ vh[head, :hi]) / sums

    _run_blocks(run_group, groups, groups)
    ctx[0] = v[0]
    return ctx


def _ffn_rows(ctx: np.ndarray, weights: LayerWeights) -> np.ndarray:
    """``relu(ctx @ w_o @ ffn_in) @ ffn_out`` for every row, over ``_row_blocks`` in threads.

    The last step of ``ToyDecoder._layers``, over a prefill layer's rows or
    one row. The calling thread allocates one (n, d) and one (n, ffn_inner)
    buffer; the output reuses the first, whose rows are spent by then.
    """
    n = ctx.shape[0]
    dtype = np.result_type(ctx, weights.w_o)
    mid = np.empty((n, weights.w_o.shape[1]), dtype)
    inner = np.empty((n, weights.ffn_in.shape[1]), dtype)

    def block(lo: int, hi: int) -> None:
        np.matmul(ctx[lo:hi], weights.w_o, out=mid[lo:hi])
        np.matmul(mid[lo:hi], weights.ffn_in, out=inner[lo:hi])
        np.maximum(inner[lo:hi], 0.0, out=inner[lo:hi])
        np.matmul(inner[lo:hi], weights.ffn_out, out=mid[lo:hi])

    _row_blocks(block, n)
    return mid


def _attend(
    q: np.ndarray, segments: list[tuple[np.ndarray, np.ndarray]], heads: int, denom: float
) -> tuple[np.ndarray, np.ndarray]:
    """Single-query attention over non-empty key/value segments, unchecked.

    Each segment is (n_i, d) or (n_i, heads, head_dim); its
    ``reshape(n, heads, hd).transpose(1, 0, 2)`` is a view either way, and
    a head's rows are contiguous when the segment is a view of a
    head-major array (``DualCache.split_heads``). Both products are batched
    over heads in the keys' storage dtype; only the logits are cast to
    float64, for the softmax. Returns the (d,) output in the storage dtype
    and the float64 (heads, sum n_i) scores.

    The logits stay a head-batched matmul rather than an
    ``einsum("nhk,hk->hn")`` that reads K in memory order: the einsum wins
    only while K is in cache, and a decode step reads K cold after the FFN
    weights have passed through (at 2,984 x 896 float32, 1.9 vs 1.4 ms cold).
    """
    dtype = np.promote_types(segments[0][0].dtype, np.float32)
    d = q.shape[0]
    hd = d // heads
    qh = q.astype(dtype, copy=False).reshape(heads, hd, 1)
    total = sum(k.shape[0] for k, _ in segments)
    logits = np.empty((heads, total), dtype=np.float64)
    pos = 0
    for k_seg, _ in segments:
        n = k_seg.shape[0]
        logits[:, pos : pos + n] = (k_seg.reshape(n, heads, hd).transpose(1, 0, 2) @ qh)[:, :, 0]
        pos += n
    # the softmax, in place: float64 keeps row sums within 1e-6 for float32 keys too
    logits /= denom
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    weights = logits.astype(dtype, copy=False)[:, None, :]  # (heads, 1, total)
    out = np.zeros((heads, 1, hd), dtype=dtype)
    pos = 0
    for _, v_seg in segments:
        n = v_seg.shape[0]
        out += weights[:, :, pos : pos + n] @ v_seg.reshape(n, heads, hd).transpose(1, 0, 2)
        pos += n
    return out.reshape(d), logits


def attention_segments(
    query: np.ndarray, segments: list[tuple[np.ndarray, np.ndarray]], heads: int, scale: str = "head"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-query multi-head attention over concatenated key/value segments.

    Segments avoid materializing one big K matrix when the cache is stored
    in pieces (visual survivors + appended text/generated rows); empty
    segments are skipped. A segment is (n, d) or (n, heads, head_dim), with
    the same bits either way. Per segment, the logits are one head-batched
    ``(heads, n, hd) @ (heads, hd, 1)`` matmul and the output one
    ``(heads, 1, n) @ (heads, n, hd)`` matmul, both in the keys' storage
    dtype (float32 keys are never upcast); the softmax runs in float64.
    Returns the output vector in the storage dtype, the float64 per-head
    score rows (heads, n), and their head average.
    """
    q = np.asarray(query).reshape(-1)
    d = q.shape[0]
    if d % heads != 0:
        raise DimensionMismatch(f"width {d} not divisible by heads {heads}")
    live = [(k, v) for k, v in segments if k.shape[0]]
    if not live:
        raise EmptyKeySet("attention over an empty key set")
    for k_seg, v_seg in segments:
        if k_seg.shape != v_seg.shape or (k_seg.shape[0] and k_seg.shape[1:] not in (
                (d,), (heads, d // heads))):
            raise DimensionMismatch(
                f"segment shapes {k_seg.shape}/{v_seg.shape} incompatible with width {d}"
            )
    out, scores = _attend(q, live, heads, softmax_denom(scale, d, heads))
    return out, scores, scores.mean(axis=0)


def softmax_denom(scale: str, hidden: int, heads: int) -> float:
    """The logit divisor: sqrt(head_dim) for scale 'head', sqrt(hidden) for 'full'."""
    if scale not in ("head", "full"):
        raise ValueError(f"scale must be 'head' or 'full', got {scale!r}")
    return np.sqrt(hidden // heads if scale == "head" else hidden)


def attention_row(
    query: np.ndarray, keys: np.ndarray, values: np.ndarray, heads: int, scale: str = "head"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single-query attention over one contiguous key/value matrix."""
    return attention_segments(query, [(keys, values)], heads, scale)


@dataclass(frozen=True)
class AttentionSnapshot:
    """Head-averaged attention of the current query over scoreable visual tokens.

    ``scores`` are the visual columns of one softmax row.
    """

    step: int
    layer: int
    scores: np.ndarray = field(repr=False)
    token_ids: tuple[TokenId, ...] = field(repr=False)


# Token vocabulary of the toy decoder's seeded embedding and output projection.
VOCAB_SIZE = 128


class ToyDecoder:
    """Multi-layer decoder with per-layer KV caching and greedy token selection.

    ``scale`` selects the softmax normalizer: 'head' divides by
    sqrt(head_dim) (standard multi-head practice, the default), 'full'
    divides by sqrt(hidden).
    """

    def __init__(self, dims: ModelDims, seed: int = 0, scale: str = "head", dtype=np.float64):
        self._denom = softmax_denom(scale, dims.hidden, dims.heads)
        self.dims = dims
        self.scale = scale
        self.dtype = np.dtype(dtype)
        # each layer's weights from its own [seed, 100, layer] stream, drawn in threads
        empty = [_empty_layer(dims, self.dtype) for _ in range(dims.layers)]
        self.layers = [weights for weights, _ in empty]
        _fill_layers([(layer, outs) for layer, (_, outs) in enumerate(empty)], seed, 100)
        rng = np.random.default_rng([seed % 2**32, 200])
        self.embedding = rng.standard_normal((VOCAB_SIZE, dims.hidden)).astype(self.dtype)
        self.unembed = (
            rng.standard_normal((dims.hidden, VOCAB_SIZE)) / np.sqrt(dims.hidden)
        ).astype(self.dtype)

    # -- full-sequence pass -------------------------------------------------

    def forward_full(self, rows: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Causal pass over a whole sequence; the no-cache reference path.

        Returns per-layer (K, V) for caching and every position's final
        hidden state. Attention runs in tiles of query rows against their
        key prefix, so working memory is O(heads * tile * n), not O(n^2).
        When BLAS leaves cores idle, heads and GEMM row blocks run in threads.
        """
        return self._causal(rows, top=-1)

    def _causal(self, rows: np.ndarray, top: int) -> tuple[list, np.ndarray]:
        """Every layer over every row in causal tiles; layer ``top`` attends the last row only."""
        kvs = []

        def attend(layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
            kvs.append((k, v))
            if layer == top:
                return _attend(q[-1], [(k, v)], self.dims.heads, self._denom)[0][None]
            return _causal_attention(q, k, v, self.dims.heads, self._denom)

        return kvs, self._layers(rows, project_qkv, attend, top)

    def _layers(self, h: np.ndarray, project, attend, top: int = -1) -> np.ndarray:
        """Every layer over the (n, d) rows ``h``, bottom up: the only code that composes a layer.

        Each layer runs ``project(h, weights, layer == top)`` (the flag is
        ``_qkv_rows``'s ``last_q``), then ``attend(layer, q, k, v)``, which
        stores K/V for its caller and returns the context rows, then ``_ffn_rows``.
        """
        h = np.ascontiguousarray(h, dtype=self.dtype)  # a converted copy is freed after layer 0
        for layer, weights in enumerate(self.layers):
            q, k, v = project(h, weights, layer == top)
            h = _ffn_rows(attend(layer, q, k, v), weights)
        return h

    def prefill(self, rows: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Process the prompt; returns per-layer KV plus the last position's output.

        The K/V are ``forward_full``'s, bit for bit, and the output its last row
        up to rounding: the top layer projects Q, attends and runs its FFN for
        the last row only.
        """
        kvs, h = self._causal(rows, top=len(self.layers) - 1)
        return kvs, h[0]

    # -- incremental decode ---------------------------------------------------

    def decode_step(self, embedding: np.ndarray, cache, step: int, on_snapshot=None):
        """One cached decode step.

        Appends the new token's K/V to every layer, attends over the cache
        (full survivor view at layers <= eval_layer, active view above), and
        emits exactly one AttentionSnapshot at the eval layer. ``on_snapshot``
        runs right after the snapshot, so a pruning decision it applies is
        already visible to the layers above the eval layer in this same step.
        The cache's full-view layers are split into this decoder's heads
        first (``DualCache.split_heads``; a no-op after the first step).
        Returns (hidden_out, snapshot).
        """
        h = np.asarray(embedding, dtype=self.dtype).reshape(1, -1)
        if h.shape[1] != self.dims.hidden:
            raise DimensionMismatch(f"embedding width {h.shape[1]} != {self.dims.hidden}")
        cache.split_heads(self.dims.heads)
        snapshot = None

        def attend(layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
            nonlocal snapshot
            cache.append_generated(layer, k[0], v[0])
            segments, n_visual = cache.segments_for(layer)
            out, _, avg_row = attention_segments(q[0], segments, self.dims.heads, self.scale)
            if layer == cache.eval_layer:
                snapshot = AttentionSnapshot(step, layer, avg_row[:n_visual].copy(), cache.token_ids)
                if on_snapshot is not None:
                    on_snapshot(snapshot)
            return out[None]

        return self._layers(h, _qkv_rows, attend)[0], snapshot

    def select_token(self, hidden: np.ndarray) -> tuple[int, np.ndarray]:
        """Greedy next token: argmax over the seeded output projection."""
        logits = np.asarray(hidden, dtype=self.dtype) @ self.unembed
        token = int(np.argmax(logits))
        return token, self.embedding[token]

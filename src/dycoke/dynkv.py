"""Stage-2 dynamic KV-cache retention.

After stage 1, every layer's cache holds the surviving visual rows plus the
text rows. Each decode step re-ranks the survivors by the eval layer's
head-averaged attention and keeps the top ``ceil((1 - p_rate) * survivors)``
active; the rest sit in a parked side store (the DP cache) from which they
can be readmitted whenever their score climbs back into the top set. Layers
at or below the eval layer always see the full survivor set (they have to
score parked tokens); the active/parked split applies to layers above it.
Text and generated rows are always active and never parked.

Each layer stores the visual rows it attends, and ``DualCache.apply`` is
the only place they move. Rows never change once written: parking and
readmission only move membership, so a readmitted token carries
bit-identical K/V.

The layers at or below the eval layer attend every survivor at every decode
step, so their visual K/V are the one cost pruning never removes. On its
first decode step, ``ToyDecoder.decode_step`` calls ``DualCache.split_heads``,
which stores those layers' visual K and V head-major, one ``(heads, rows,
head_dim)`` array each with each head's rows contiguous: each head's
attention then streams its keys instead of striding across rows, with the
same bits. The layers keep a ``(rows, heads, head_dim)`` view of it, so a
row's index and bytes do not change. Layers above the eval layer, their
gathered active copies and the text/generated rows stay row-major, and so
does a cache with one head, with head rows under one cache line, or that no
decoder touches.

``STRATEGIES`` names the strategies and ``decide`` picks each step's
policy; the policies alone compute the retention quota, kept on the cache.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionSnapshot
from .tokens import CompressionConfig, TokenId


class MissingParkedRow(RuntimeError):
    """Survivor rows out of range, not strictly increasing, or moving a frozen cache."""


class InvariantViolation(RuntimeError):
    """Partition or quota invariant broke; carries the offending state."""

    def __init__(self, message: str, state: dict):
        super().__init__(message)
        self.state = state


def retention_quota(survivors: int, p_rate: float) -> int:
    """ceil((1 - p_rate) * survivors); at least one token whenever p < 1."""
    return max(0, math.ceil((1.0 - p_rate) * survivors - 1e-9))


def _ids(token_ids: tuple[TokenId, ...], rows: np.ndarray) -> tuple[TokenId, ...]:
    """The TokenIds of survivor ``rows``, in the order given."""
    return tuple(map(token_ids.__getitem__, rows.tolist()))


@dataclass(frozen=True, eq=False)
class RetentionDecision:
    """One step's retained set, its threshold, and the TokenIds that moved.

    The retained set is held as sorted survivor rows into ``survivor_ids``;
    ``retained_ids`` builds its TokenIds only when read, since the report
    writes just its length. Decisions compare by identity.
    """

    step: int
    retained_rows: np.ndarray = field(repr=False)
    survivor_ids: tuple[TokenId, ...] = field(repr=False)
    threshold: float | None
    readmitted: tuple[TokenId, ...]
    evicted: tuple[TokenId, ...]

    @property
    def retained_ids(self) -> tuple[TokenId, ...]:
        return _ids(self.survivor_ids, self.retained_rows)

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "threshold": self.threshold,
            "retained_count": len(self.retained_rows),
            "readmitted_count": len(self.readmitted),
            "evicted_count": len(self.evicted),
            "readmitted_ids": [list(t) for t in self.readmitted],
            "evicted_ids": [list(t) for t in self.evicted],
        }


# Rows per block of ``_LayerStore.split_heads``. At 3,116 x 896 float32
# with 14 heads, on a 2-core x86 VM after a 64 MB cache flush, 64-row blocks
# took 3.0 ms per array against 4.5 ms for one whole-array transposed copy
# (medians of 7); 16-64 rows were within noise of each other, 128 and more
# as slow as one copy.
_SPLIT_BLOCK = 64
# Shortest head row, in bytes, that ``DualCache.split_heads`` stores
# head-major. numpy runs decode attention's per-head products as BLAS gemv
# (a dot product at head_dim 1), and below one 64-byte cache line OpenBLAS
# 0.3.31's SkylakeX kernels gave other bits for a head-major row than for a
# row-major one: float32 at head_dim 1-8, float64 at 1-2. Every float32
# head_dim of 16-128 and float64 head_dim of 4-128, at 2-28 heads and 1-300
# rows, gave the same bits.
_SPLIT_MIN_ROW_BYTES = 64


class _LayerStore:
    """One layer's rows: immutable visual storage + growing text/generated rows.

    ``vis_k``/``vis_v`` hold the visual rows, ``(rows, d)`` and row-major
    until ``split_heads``, then ``(rows, heads, head_dim)`` views of
    head-major arrays, each head's rows contiguous; either way ``vis_k[i]``
    holds row ``i``'s bytes in order. ``active_k``/``active_v`` are the
    visual rows this layer attends: the full storage at and below the eval
    layer, a contiguous ``(rows, d)`` gather of the active rows above it.
    ``DualCache.apply`` is the only code that moves them. The
    text/generated rows ``extra_k``/``extra_v`` are always row-major.
    """

    __slots__ = ("vis_k", "vis_v", "extra_k", "extra_v", "extra_len", "active_k", "active_v")

    def __init__(self, vis_k, vis_v, text_k, text_v, capacity: int, dtype):
        d = vis_k.shape[1]
        self.vis_k = np.ascontiguousarray(vis_k, dtype=dtype)
        self.vis_v = np.ascontiguousarray(vis_v, dtype=dtype)
        self.vis_k.setflags(write=False)
        self.vis_v.setflags(write=False)
        self.extra_k = np.zeros((capacity, d), dtype=dtype)
        self.extra_v = np.zeros((capacity, d), dtype=dtype)
        n_text = text_k.shape[0]
        self.extra_k[:n_text] = text_k
        self.extra_v[:n_text] = text_v
        self.extra_len = n_text
        self.active_k = self.vis_k
        self.active_v = self.vis_v

    def append(self, k_row, v_row) -> None:
        if self.extra_len >= self.extra_k.shape[0]:
            grown = max(16, self.extra_k.shape[0] * 2)
            for name in ("extra_k", "extra_v"):
                old = getattr(self, name)
                new = np.zeros((grown, old.shape[1]), dtype=old.dtype)
                new[: self.extra_len] = old[: self.extra_len]
                setattr(self, name, new)
        self.extra_k[self.extra_len] = k_row
        self.extra_v[self.extra_len] = v_row
        self.extra_len += 1

    def split_heads(self, heads: int, spare: int) -> None:
        """Store the visual K, then V, head-major, freeing each original before the next.

        Each is copied in ``_SPLIT_BLOCK``-row blocks, so at most one array
        more than the storage is alive at a time, provided no caller still
        holds the row-major original. Each head gets ``spare`` unused rows
        after its own, so that an array is as large as the (survivors +
        text, d) one it replaces and reuses its freed memory: sized to the
        survivors alone, the arrays left the heap fragmented, and perfbench
        ``prefill_video``'s peak RSS rose by 12-17 MB over 25 passes.
        """
        n, d = self.vis_k.shape
        self.active_k = self.active_v = None
        for name in ("vis_k", "vis_v"):
            rows = getattr(self, name).reshape(n, heads, d // heads)
            setattr(self, name, None)
            split = np.empty((heads, n + spare, d // heads), rows.dtype)[:, :n]
            for lo in range(0, n, _SPLIT_BLOCK):
                split[:, lo : lo + _SPLIT_BLOCK] = rows[lo : lo + _SPLIT_BLOCK].transpose(1, 0, 2)
            del rows
            split.setflags(write=False)
            setattr(self, name, split.transpose(1, 0, 2))
        self.active_k, self.active_v = self.vis_k, self.vis_v


def _is_survivor_rows(rows: np.ndarray, n_surv: int) -> bool:
    """True if ``rows`` strictly increase inside ``[0, n_surv)``."""
    inside = rows.size == 0 or (rows[0] >= 0 and rows[-1] < n_surv)
    return bool(inside) and not np.any(rows[1:] <= rows[:-1])


class DualCache:
    """Per-layer active/parked KV store with a shared membership index.

    The retained set computed at the eval layer applies uniformly to every
    layer above it, so membership is stored once, as the sorted survivor rows
    ``active_rows``, and each layer keeps the visual rows it attends. Row
    ``i`` is the survivor ``token_ids[i]``.

    ``quota`` is the active count ``check_invariants`` holds once a policy has
    pruned; a caller that builds the cache with every survivor active passes
    the survivor count.
    """

    def __init__(
        self,
        layer_kvs: list[tuple[np.ndarray, np.ndarray]],
        token_ids: list[TokenId],
        n_text: int,
        quota: int,
        eval_layer: int,
        reserve_steps: int = 64,
    ):
        n_surv = len(token_ids)
        if any(k.shape[0] != n_surv + n_text for k, _ in layer_kvs):
            raise ValueError("prefill KV row count != survivors + text tokens")
        if eval_layer >= len(layer_kvs):
            raise ValueError(
                f"eval_layer {eval_layer} out of range for {len(layer_kvs)} layers"
            )
        self.token_ids: tuple[TokenId, ...] = tuple(token_ids)
        if any(map(operator.ge, self.token_ids, self.token_ids[1:])):
            raise ValueError("survivor token ids must be strictly increasing")
        dtype = layer_kvs[0][0].dtype
        capacity = n_text + reserve_steps
        self.n_text = n_text
        self.quota = quota
        self.eval_layer = eval_layer
        self.layers = [
            _LayerStore(k[:n_surv], v[:n_surv], k[n_surv:], v[n_surv:], capacity, dtype)
            for k, v in layer_kvs
        ]
        self.active_rows = np.arange(n_surv)
        self.partitioned = False
        self.frozen = False  # one-shot: the parked rows are discarded for good
        self.heads: int | None = None  # set by split_heads

    # -- shape & membership -------------------------------------------------

    @property
    def survivor_count(self) -> int:
        return len(self.token_ids)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def generated_count(self) -> int:
        return self.layers[0].extra_len - self.n_text

    def active_ids(self) -> tuple[TokenId, ...]:
        return _ids(self.token_ids, self.active_rows)

    def parked_ids(self) -> tuple[TokenId, ...]:
        if self.frozen:
            return ()
        mask = np.ones(self.survivor_count, dtype=bool)
        mask[self.active_rows] = False
        return _ids(self.token_ids, np.flatnonzero(mask))

    # -- per-layer views ------------------------------------------------------

    def split_heads(self, heads: int) -> None:
        """Store the visual K/V of every layer at or below the eval layer head-major.

        The first call converts them (see ``_LayerStore.split_heads``); a
        later call with the same ``heads`` does nothing, and one with
        another raises ``ValueError``. With one head the row-major storage
        is already head-major, so nothing is copied; nor when a head's row
        is shorter than ``_SPLIT_MIN_ROW_BYTES``, where the split would
        change the attention's bits.
        """
        if self.heads is not None:
            if heads != self.heads:
                raise ValueError(f"cache is split into {self.heads} heads, not {heads}")
            return
        extra = self.layers[0].extra_k
        d = extra.shape[1]
        if heads < 1 or d % heads:
            raise ValueError(f"width {d} not divisible into {heads} heads")
        self.heads = heads
        if heads > 1 and d // heads * extra.itemsize >= _SPLIT_MIN_ROW_BYTES:
            for store in self.layers[: self.eval_layer + 1]:
                store.split_heads(heads, self.n_text)

    def segments_for(self, layer: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
        """(K, V) segments for attention at ``layer`` plus the visual column count.

        The visual segment is ``(rows, d)``, or ``(rows, heads, head_dim)``
        at a split layer; ``attention_segments`` takes either.
        """
        store = self.layers[layer]
        extras = (store.extra_k[: store.extra_len], store.extra_v[: store.extra_len])
        return [(store.active_k, store.active_v), extras], store.active_k.shape[0]

    def append_generated(self, layer: int, k_row, v_row) -> None:
        self.layers[layer].append(k_row, v_row)

    def active_keys(self, layer: int) -> np.ndarray:
        """The ``(rows, d)`` visual keys ``layer`` attends; a contiguous copy at a split layer."""
        keys = self.layers[layer].active_k
        return keys if keys.ndim == 2 else np.ascontiguousarray(keys).reshape(len(keys), -1)

    def stored_rows(self) -> int:
        """K rows over all layers (V as many): visual storage, gathered active copies, extras."""
        return sum(
            len(store.vis_k) + store.extra_len
            + (0 if store.active_k is store.vis_k else len(store.active_k))
            for store in self.layers
        )

    # -- decisions -----------------------------------------------------------

    def apply(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Make the survivor ``rows`` the active set of every layer above the eval layer.

        Membership arrives as strictly increasing survivor rows inside
        ``[0, survivor_count)``; rows not named are parked. Returns the
        sorted (readmitted, evicted) rows. A frozen cache has discarded its
        parked rows, so it accepts no change of membership.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if not _is_survivor_rows(rows, self.survivor_count):
            raise MissingParkedRow(f"rows must strictly increase in [0, {self.survivor_count})")
        now = np.zeros(self.survivor_count, dtype=bool)
        now[rows] = True
        before = np.zeros(self.survivor_count, dtype=bool)
        before[self.active_rows] = True
        readmitted = np.flatnonzero(now > before)
        evicted = np.flatnonzero(before > now)
        if readmitted.size or evicted.size:
            if self.frozen:
                raise MissingParkedRow("cache is frozen; parked rows were discarded")
            for store in self.layers[self.eval_layer + 1 :]:
                store.active_k = store.vis_k[rows]
                store.active_v = store.vis_v[rows]
        self.active_rows = rows
        self.partitioned = True
        return readmitted, evicted

    def check_invariants(self, step: int) -> None:
        state = {
            "step": step,
            "survivors": self.survivor_count,
            "active": len(self.active_rows),
            "parked": 0 if self.frozen else self.survivor_count - len(self.active_rows),
            "quota": self.quota,
            "frozen": self.frozen,
        }
        if not _is_survivor_rows(self.active_rows, self.survivor_count):
            raise InvariantViolation("active rows are not distinct sorted survivor rows", state)
        if self.partitioned and state["active"] != self.quota:
            raise InvariantViolation(
                f"active visual count {state['active']} != retention quota {self.quota}",
                state,
            )


def _top_quota(scores: np.ndarray, quota: int) -> tuple[np.ndarray, float | None]:
    """Sorted rows of the top-``quota`` scores; ties go to the lower row (lower TokenId).

    Equals the first ``quota`` rows of a stable descending sort, threshold
    included: a partition finds the quota-th score, every row above it is
    kept, and the lowest rows tied with it fill the rest. ``quota`` is at
    most ``len(scores)``: every caller's quota is a share of the rows it ranks.
    """
    if quota == 0:
        return np.empty(0, dtype=np.intp), None
    neg = -np.asarray(scores, dtype=np.float64)
    cut = neg[np.argpartition(neg, quota - 1)[quota - 1]]
    if np.isnan(cut):  # NaN sorts last but compares unequal to itself
        take = np.argsort(neg, kind="stable")[:quota]
        return np.sort(take), float(scores[take[-1]])
    keep = neg < cut
    tied = np.flatnonzero(neg == cut)[: quota - np.count_nonzero(keep)]
    keep[tied] = True
    return np.flatnonzero(keep), float(scores[tied[-1]])


def _retain(
    cache: DualCache, step: int, rows: np.ndarray, threshold: float | None
) -> RetentionDecision:
    """Make the sorted survivor ``rows`` active; the decision names the rows that moved."""
    readmitted, evicted = cache.apply(rows)
    return RetentionDecision(
        step=step,
        retained_rows=cache.active_rows,
        survivor_ids=cache.token_ids,
        threshold=threshold,
        readmitted=_ids(cache.token_ids, readmitted),
        evicted=_ids(cache.token_ids, evicted),
    )


def _retain_top(
    snapshot: AttentionSnapshot, cache: DualCache, config: CompressionConfig
) -> RetentionDecision:
    """Rank every survivor by the snapshot and retain the top quota."""
    if snapshot.token_ids != cache.token_ids:
        raise ValueError("snapshot does not cover the survivor token set")
    if len(snapshot.scores) != cache.survivor_count:
        raise ValueError("snapshot score count != survivor count")
    cache.quota = retention_quota(cache.survivor_count, config.p_rate)
    rows, threshold = _top_quota(snapshot.scores, cache.quota)
    return _retain(cache, snapshot.step, rows, threshold)


def initial_prune(
    snapshot: AttentionSnapshot, cache: DualCache, config: CompressionConfig
) -> RetentionDecision:
    """First-step pruning: keep the quota highest-scoring survivors active."""
    return _retain_top(snapshot, cache, config)


def dynamic_swap(
    snapshot: AttentionSnapshot, cache: DualCache, config: CompressionConfig
) -> RetentionDecision:
    """Re-rank every survivor and swap cache membership to the new top set.

    Readmitted rows come back from the parked store byte-for-byte; evicted
    rows move there. On a frozen (one-shot) cache this is a no-op.
    """
    if cache.frozen:
        return _retain(cache, snapshot.step, cache.active_rows, None)
    return _retain_top(snapshot, cache, config)


def one_shot_prune(
    snapshot: AttentionSnapshot, cache: DualCache, config: CompressionConfig
) -> RetentionDecision:
    """Ablation baseline: prune once, discard the parked rows permanently."""
    decision = initial_prune(snapshot, cache, config)
    cache.frozen = True
    return decision


def random_prune(cache: DualCache, config: CompressionConfig) -> RetentionDecision:
    """Ablation baseline: keep a uniform random quota-size subset drawn from ``config.seed``."""
    cache.quota = retention_quota(cache.survivor_count, config.p_rate)
    rng = np.random.default_rng([config.seed % 2**32, 300])
    rows = rng.choice(cache.survivor_count, size=cache.quota, replace=False)
    decision = _retain(cache, 0, np.sort(rows), None)
    cache.frozen = True
    return decision


STRATEGIES = ("dycoke", "one_shot", "random", "none")


def decide(strategy: str, step: int, snapshot: AttentionSnapshot, cache: DualCache,
           config: CompressionConfig) -> RetentionDecision | None:
    """The strategy's stage-2 decision for one step: prune at step 0, then swap.

    ``none`` decides nothing. The policies are looked up as module globals at
    call time, so wrappers installed on this module see every call.
    """
    if strategy == "none":
        return None
    if step > 0:
        return dynamic_swap(snapshot, cache, config)
    if strategy == "dycoke":
        return initial_prune(snapshot, cache, config)
    if strategy == "one_shot":
        return one_shot_prune(snapshot, cache, config)
    return random_prune(cache, config)

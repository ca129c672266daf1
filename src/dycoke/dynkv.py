"""Stage-2 dynamic KV-cache retention.

After stage 1, every layer's cache holds the surviving visual rows plus the
text rows. Each decode step re-ranks the survivors by the eval layer's
head-averaged attention and keeps the top ``ceil((1 - p_rate) * survivors)``
active; the rest sit in a parked side store (the DP cache) from which they
can be readmitted whenever their score climbs back into the top set. Layers
at or below the eval layer always see the full survivor set (they have to
score parked tokens); the active/parked split applies to layers above it.
Text and generated rows are always active and never parked.

Rows never change once written: parking and readmission only move
membership, so a readmitted token carries bit-identical K/V.
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
        return tuple(map(self.survivor_ids.__getitem__, self.retained_rows.tolist()))

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


class _LayerStore:
    """One layer's rows: immutable visual storage + growing text/generated rows."""

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
        # Contiguous view of the active visual rows; starts as full storage.
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

    def rebuild_active(self, rows: np.ndarray) -> None:
        if rows.shape[0] == self.vis_k.shape[0]:
            self.active_k = self.vis_k
            self.active_v = self.vis_v
        else:
            self.active_k = self.vis_k[rows]
            self.active_v = self.vis_v[rows]


def _is_survivor_rows(rows: np.ndarray, n_surv: int) -> bool:
    """True if ``rows`` strictly increase inside ``[0, n_surv)``."""
    inside = rows.size == 0 or (rows[0] >= 0 and rows[-1] < n_surv)
    return bool(inside) and not np.any(rows[1:] <= rows[:-1])


class DualCache:
    """Per-layer active/parked KV store with a shared membership index.

    The retained set computed at the eval layer applies uniformly to every
    layer above it, so membership is stored once, as the sorted survivor rows
    ``active_rows``, and each layer keeps a contiguous copy of its active
    visual rows for fast attention. Row ``i`` is the survivor ``token_ids[i]``.
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
        self.frozen = False

    # -- shape & membership -------------------------------------------------

    @property
    def survivor_count(self) -> int:
        return len(self.token_ids)

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def generated_count(self) -> int:
        return self.layers[0].extra_len - self.n_text

    def ids_of(self, rows: np.ndarray) -> tuple[TokenId, ...]:
        """The TokenIds of survivor ``rows``, in the order given."""
        return tuple(map(self.token_ids.__getitem__, rows.tolist()))

    def active_ids(self) -> tuple[TokenId, ...]:
        return self.ids_of(self.active_rows)

    def parked_ids(self) -> tuple[TokenId, ...]:
        if self.frozen:
            return ()
        mask = np.ones(self.survivor_count, dtype=bool)
        mask[self.active_rows] = False
        return self.ids_of(np.flatnonzero(mask))

    # -- per-layer views ------------------------------------------------------

    def _pruned(self, layer: int) -> bool:
        return layer > self.eval_layer

    def segments_for(self, layer: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], int]:
        """(K, V) segments for attention at ``layer`` plus the visual column count."""
        store = self.layers[layer]
        if self._pruned(layer):
            vis = (store.active_k, store.active_v)
        else:
            vis = (store.vis_k, store.vis_v)
        extras = (store.extra_k[: store.extra_len], store.extra_v[: store.extra_len])
        return [vis, extras], vis[0].shape[0]

    def append_generated(self, layer: int, k_row, v_row) -> None:
        self.layers[layer].append(k_row, v_row)

    def active_keys(self, layer: int) -> np.ndarray:
        return self.layers[layer].active_k if self._pruned(layer) else self.layers[layer].vis_k

    def active_values(self, layer: int) -> np.ndarray:
        return self.layers[layer].active_v if self._pruned(layer) else self.layers[layer].vis_v

    # -- decisions -----------------------------------------------------------

    def apply(self, rows: np.ndarray) -> None:
        """Make the survivor ``rows`` the active set of every pruned layer.

        Membership arrives as strictly increasing survivor rows inside
        ``[0, survivor_count)``; rows not named are parked. A frozen cache
        has discarded its parked rows, so it accepts no change of membership.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if not _is_survivor_rows(rows, self.survivor_count):
            raise MissingParkedRow(f"rows must strictly increase in [0, {self.survivor_count})")
        changed = not np.array_equal(rows, self.active_rows)
        if self.frozen and changed:
            raise MissingParkedRow("cache is frozen; parked rows were discarded")
        self.active_rows = rows
        self.partitioned = True
        if changed:
            for store in self.layers[self.eval_layer + 1 :]:
                store.rebuild_active(rows)

    def freeze(self) -> None:
        """One-shot semantics: the parked side store is discarded for good."""
        self.frozen = True

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
    prev = cache.active_rows  # sorted, like rows, so the moved rows come out sorted
    cache.apply(rows)
    return RetentionDecision(
        step=step,
        retained_rows=cache.active_rows,
        survivor_ids=cache.token_ids,
        threshold=threshold,
        readmitted=cache.ids_of(np.setdiff1d(rows, prev, assume_unique=True)),
        evicted=cache.ids_of(np.setdiff1d(prev, rows, assume_unique=True)),
    )


def _retain_top(
    snapshot: AttentionSnapshot, cache: DualCache, config: CompressionConfig
) -> RetentionDecision:
    """Rank every survivor by the snapshot and retain the top quota."""
    if snapshot.token_ids != cache.token_ids:
        raise ValueError("snapshot does not cover the survivor token set")
    if len(snapshot.scores) != cache.survivor_count:
        raise ValueError("snapshot score count != survivor count")
    quota = retention_quota(cache.survivor_count, config.p_rate)
    cache.quota = quota
    rows, threshold = _top_quota(snapshot.scores, quota)
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
    cache.freeze()
    return decision


def random_prune(cache: DualCache, config: CompressionConfig) -> RetentionDecision:
    """Ablation baseline: keep a uniform random quota-size subset drawn from ``config.seed``."""
    quota = retention_quota(cache.survivor_count, config.p_rate)
    cache.quota = quota
    rng = np.random.default_rng([config.seed % 2**32, 300])
    rows = rng.choice(cache.survivor_count, size=quota, replace=False)
    decision = _retain(cache, 0, np.sort(rows), None)
    cache.freeze()
    return decision

"""Stage-1 temporal token merging.

Frames are split into consecutive sliding windows. Inside each window the
frames alternate between group O (1st, 3rd, ... — even offsets) and group E
(2nd, 4th, ... — odd offsets). Each E frame is scored against the O frame
directly before it; each later O frame is scored against the window's first
frame, which is always fully retained. Per prunable frame, the
floor(k_rate * tokens_per_frame) highest-similarity tokens are merged away.

Merging drops the redundant token and lets the kept counterpart stand for
both (merge_mode='drop', the default) or folds it into the counterpart by
averaging (merge_mode='mean').

Each window's frames are converted to float64, and each frame's row norms
taken, once; every pair in the window reuses them. The merge audit trail is
kept as arrays, and ``TtmResult.records`` builds its MergeRecords on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .tokens import CompressionConfig, TokenId, VisualTokenGrid, row_token_ids

ZERO_NORM_EPS = 1e-12


class MergeRecord(NamedTuple):
    removed: TokenId
    kept_as: TokenId
    similarity: float


@dataclass
class TtmResult:
    """Stage-1 output: surviving tokens with provenance, plus the audit trail.

    The audit trail is held as three arrays in merge order: each removed
    grid row, the survivor row it now stands as, and its similarity.
    ``records`` builds the MergeRecords from them only when read, since the
    report writes just their count.
    """

    token_ids: list[TokenId]
    data: np.ndarray
    retained_ratio: float
    rows: np.ndarray  # the survivors' grid rows, in token_ids order
    removed_rows: np.ndarray = field(repr=False)
    kept_as_rows: np.ndarray = field(repr=False)
    similarities: np.ndarray = field(repr=False)
    tokens_per_frame: int

    @property
    def retained_count(self) -> int:
        return len(self.token_ids)

    @property
    def records(self) -> list[MergeRecord]:
        n_v = self.tokens_per_frame
        return list(map(MergeRecord, row_token_ids(self.removed_rows, n_v),
                        row_token_ids(self.kept_as_rows, n_v), self.similarities.tolist()))


def partition_windows(frames: int, window_len: int) -> tuple[tuple[int, ...], ...]:
    """Split frame indices into consecutive non-overlapping windows.

    The last window may be shorter; it keeps the same O/E offset rule over
    whatever frames exist, so every frame is covered exactly once.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if window_len < 2 or window_len % 2 != 0:
        raise ValueError(f"window_len must be even and >= 2, got {window_len}")
    return tuple(
        tuple(range(start, min(start + window_len, frames)))
        for start in range(0, frames, window_len)
    )


def per_frame_quota(k_rate: float, tokens_per_frame: int) -> int:
    """How many tokens each prunable frame loses: floor(k_rate * N_v)."""
    return math.floor(k_rate * tokens_per_frame + 1e-9)


def stage1_survivor_count(
    frames: int, tokens_per_frame: int, k_rate: float, window_len: int = 4
) -> int:
    """Exact survivor count after stage 1, including floor rounding."""
    quota = per_frame_quota(k_rate, tokens_per_frame)
    prunable = sum(len(w) - 1 for w in partition_windows(frames, window_len))
    return frames * tokens_per_frame - prunable * quota


def apply_ttm(grid: VisualTokenGrid, config: CompressionConfig) -> TtmResult:
    """Run the stage-1 merge pass over the full grid.

    Decisions are deterministic: within a frame, similarity ties break by
    TokenId order (lower position removed first). Output token order
    preserves the original (frame, position) order. When the direct
    counterpart of a removed token is itself removed (a later O frame merged
    into the window's first frame), the record is redirected to the final
    survivor so every kept_as survives in the output.
    """
    n_v = grid.tokens_per_frame
    quota = per_frame_quota(config.k_rate, n_v)
    # Grid row each token stands in for: itself while kept, else its counterpart.
    kept_as = np.arange(grid.total_tokens)
    removed = [np.empty(0, dtype=np.intp)]
    similarities = [np.empty(0, dtype=np.float64)]

    # One window of frames in float64, refilled for each window.
    frames = np.empty((config.window_len, n_v, grid.hidden_dim), dtype=np.float64)
    windows = partition_windows(grid.frames, config.window_len) if quota else ()
    for window in windows:
        start, size = window[0] * n_v, len(window)
        frames[:size] = grid.data[start : start + size * n_v].reshape(size, n_v, -1)
        norms = [np.linalg.norm(rows, axis=1) for rows in frames[:size]]
        for offset in range(1, size):
            # Odd offsets (group E) score against the preceding O frame;
            # even offsets (later O frames) score against the window's first.
            ref = offset - 1 if offset % 2 == 1 else 0
            # Cosine similarity per position; zero-norm rows score 0.
            dots = np.einsum("ij,ij->i", frames[offset], frames[ref])
            ok = (norms[offset] >= ZERO_NORM_EPS) & (norms[ref] >= ZERO_NORM_EPS)
            sims = np.zeros(n_v, dtype=np.float64)
            np.divide(dots, norms[offset] * norms[ref], out=sims, where=ok)
            sims = np.clip(sims, -1.0, 1.0)
            # Sort by similarity descending; a stable sort keeps ties in position order.
            take = np.argsort(-sims, kind="stable")[:quota]
            merged = start + offset * n_v + take
            kept_as[merged] = start + ref * n_v + take
            removed.append(merged)
            similarities.append(sims[take])

    # Redirect chains: an odd-offset frame merges into the even-offset frame
    # before it, which merges into the window's first frame, which is never
    # pruned; so one lookup takes every target to its final survivor.
    kept_as = kept_as[kept_as]
    survivors = np.flatnonzero(kept_as == np.arange(grid.total_tokens))
    removed = np.concatenate(removed)
    kept = kept_as[removed]
    data = grid.data[survivors]
    if config.merge_mode == "mean":
        # Each kept row becomes the mean of itself and everything merged into
        # it; np.add.at adds in merge order, so every row sums in that order.
        slots = np.searchsorted(survivors, kept)
        acc = data.astype(np.float64)
        np.add.at(acc, slots, grid.data[removed].astype(np.float64))
        counts = 1 + np.bincount(slots, minlength=len(survivors))
        data = (acc / counts[:, None]).astype(np.float32)

    return TtmResult(
        token_ids=row_token_ids(survivors, n_v),
        data=data,
        retained_ratio=len(survivors) / grid.total_tokens,
        rows=survivors,
        removed_rows=removed,
        kept_as_rows=kept,
        similarities=np.concatenate(similarities),
        tokens_per_frame=n_v,
    )

"""Token data model: visual token grids, provenance ids, text tokens, and config."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class TokenId(NamedTuple):
    """Provenance of one visual token: (frame, position) within the grid.

    Tuples order lexicographically, which is the tie-break order used by
    every merge/prune decision in the pipeline.
    """

    frame: int
    position: int


@dataclass(frozen=True)
class VisualTokenGrid:
    """Post-projector visual tokens, row-major by (frame, position).

    ``data`` has shape (frames * tokens_per_frame, hidden_dim), float32.
    Rows are frozen after construction so grids can be shared freely.
    """

    frames: int
    tokens_per_frame: int
    hidden_dim: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.frames < 1 or self.tokens_per_frame < 1 or self.hidden_dim < 1:
            raise ValueError(
                f"grid dimensions must be >= 1, got frames={self.frames} "
                f"tokens_per_frame={self.tokens_per_frame} hidden_dim={self.hidden_dim}"
            )
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        expected = (self.frames * self.tokens_per_frame, self.hidden_dim)
        if data.shape != expected:
            raise ValueError(f"grid data shape {data.shape} != expected {expected}")
        if not np.isfinite(data).all():
            bad = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
            raise ValueError(f"grid row {bad} contains a non-finite value")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def total_tokens(self) -> int:
        return self.frames * self.tokens_per_frame

    def row_index(self, token: TokenId) -> int:
        if not (0 <= token.frame < self.frames and 0 <= token.position < self.tokens_per_frame):
            raise IndexError(f"{token} outside grid {self.frames}x{self.tokens_per_frame}")
        return token.frame * self.tokens_per_frame + token.position

    def token_id(self, row: int) -> TokenId:
        if not 0 <= row < self.total_tokens:
            raise IndexError(f"row {row} outside [0, {self.total_tokens})")
        return TokenId(row // self.tokens_per_frame, row % self.tokens_per_frame)

    def frame_rows(self, frame: int) -> np.ndarray:
        start = frame * self.tokens_per_frame
        return self.data[start : start + self.tokens_per_frame]

    def all_token_ids(self) -> list[TokenId]:
        return [self.token_id(r) for r in range(self.total_tokens)]


@dataclass(frozen=True)
class TextTokens:
    """Prompt text tokens. Never candidates for merging or pruning."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"text token data must be 2-D, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("text token data contains non-finite values")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.data.shape[1]

    @classmethod
    def empty(cls, hidden_dim: int) -> "TextTokens":
        return cls(np.zeros((0, hidden_dim), dtype=np.float32))


@dataclass(frozen=True)
class CompressionConfig:
    """Compression hyperparameters; a value out of range raises when built or replaced.

    k_rate     stage-1 pruning rate in [0, 1], applied per prunable frame of each window
    eval_layer layer (>= 0) whose attention scores drive stage-2 decisions
    p_rate     stage-2 pruning rate in [0, 1] (retain ceil((1 - p_rate) * survivors))
    window_len sliding-window length in frames, even and >= 2
    heads      >= 1, echoed in reports only; no stage reads it (the decoder
               takes ModelDims.heads). Removing it changes report bytes, so it
               waits for a change that re-pins the outputs anyway
    seed       drives synthetic data, weights, and the random baseline
    merge_mode 'drop' discards the redundant token; 'mean' folds it into the
               kept counterpart by averaging (experimental)
    """

    k_rate: float = 0.7
    eval_layer: int = 3
    p_rate: float = 0.7
    window_len: int = 4
    heads: int = 4
    seed: int = 0
    merge_mode: str = "drop"

    def __post_init__(self) -> None:
        if not 0.0 <= self.k_rate <= 1.0:
            raise ValueError(f"k_rate must be in [0, 1], got {self.k_rate}")
        if not 0.0 <= self.p_rate <= 1.0:
            raise ValueError(f"p_rate must be in [0, 1], got {self.p_rate}")
        if self.window_len < 2 or self.window_len % 2 != 0:
            raise ValueError(f"window_len must be even and >= 2, got {self.window_len}")
        if self.eval_layer < 0:
            raise ValueError(f"eval_layer must be >= 0, got {self.eval_layer}")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.merge_mode not in ("drop", "mean"):
            raise ValueError(f"merge_mode must be 'drop' or 'mean', got {self.merge_mode!r}")


def synth_grid(
    config: CompressionConfig,
    frames: int,
    tokens_per_frame: int,
    dim: int,
    drift: float = 0.05,
) -> VisualTokenGrid:
    """Deterministic synthetic grid with temporal redundancy by construction.

    Frame 0 is drawn from a seeded unit normal; each later frame is the
    previous frame plus a ``drift``-scaled perturbation, so adjacent frames
    stay highly cosine-similar. Same (config.seed, shape, drift) gives a
    bit-identical grid. A drift whose walk leaves float32's range raises.
    """
    if frames < 1 or tokens_per_frame < 1 or dim < 1:
        raise ValueError("frames, tokens_per_frame and dim must all be >= 1")
    rng = np.random.default_rng([config.seed, 0])
    rows = np.empty((frames * tokens_per_frame, dim), dtype=np.float64)
    frame = rng.standard_normal((tokens_per_frame, dim))
    rows[:tokens_per_frame] = frame
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing walk raises below
        for f in range(1, frames):
            frame = frame + drift * rng.standard_normal((tokens_per_frame, dim))
            rows[f * tokens_per_frame : (f + 1) * tokens_per_frame] = frame
    limit = np.finfo(np.float32).max
    if not (-limit <= rows.min() and rows.max() <= limit):  # NaN fails both
        raise ValueError(f"drift {drift} overflows float32 over {frames} frames")
    return VisualTokenGrid(frames, tokens_per_frame, dim, rows.astype(np.float32))


def synth_text(config: CompressionConfig, count: int, dim: int) -> TextTokens:
    """Seeded synthetic text-token rows for simulator prompts."""
    if count < 0 or dim < 1:
        raise ValueError("count must be >= 0 and dim >= 1")
    rng = np.random.default_rng([config.seed, 1])
    return TextTokens(rng.standard_normal((count, dim)).astype(np.float32))

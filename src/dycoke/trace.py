"""Binary trace file reader/writer.

A trace carries post-projector token embeddings (and optionally recorded
per-step attention rows) so external scripts can export real-model tokens
for replay. Layout is little-endian throughout; see docs/trace-format.md
for the byte-level description.

    offset 0   magic 'DYCK' (4 bytes)
    offset 4   version u16 (currently 1)
    offset 6   header, six u32: frames, tokens_per_frame, hidden_dim,
               text_tokens, layers, heads
    offset 30  attention block count u32
    offset 34  payload: float32 visual rows then text rows,
               4 * hidden_dim * (frames*tokens_per_frame + text_tokens) bytes
    then, per attention block: step u32, layer u32, count u32,
               count float32 scores (count == frames*tokens_per_frame)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .tokens import TextTokens, VisualTokenGrid

MAGIC = b"DYCK"
VERSION = 1

_HEADER = struct.Struct("<6I")
_BLOCK_HEAD = struct.Struct("<3I")


class TraceError(Exception):
    """Malformed trace file; ``offset`` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class BadMagic(TraceError):
    pass


class VersionUnsupported(TraceError):
    pass


class TruncatedPayload(TraceError):
    pass


class NonFiniteValue(TraceError):
    pass


class MissingAttentionBlock(Exception):
    """Replay asked for an attention row the trace does not contain."""

    def __init__(self, step: int, layer: int):
        super().__init__(f"no attention block for step={step} layer={layer}")
        self.step = step
        self.layer = layer


@dataclass(frozen=True)
class TraceContents:
    grid: VisualTokenGrid
    text: TextTokens
    attention: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    layers: int = 0
    heads: int = 0


def write_trace(
    path,
    grid: VisualTokenGrid,
    text: TextTokens,
    attention: dict[tuple[int, int], np.ndarray] | None = None,
    layers: int = 0,
    heads: int = 0,
) -> None:
    """Serialize tokens (and optional attention rows) to ``path``.

    Attention rows must each cover every original visual token; blocks are
    written sorted by (step, layer) so identical inputs produce identical
    files.
    """
    if text.count and text.hidden_dim != grid.hidden_dim:
        raise ValueError(
            f"text hidden_dim {text.hidden_dim} != grid hidden_dim {grid.hidden_dim}"
        )
    blocks = []
    for (step, layer), scores in sorted((attention or {}).items()):
        row = np.ascontiguousarray(scores, dtype=np.float32)
        if row.ndim != 1 or row.shape[0] != grid.total_tokens:
            raise ValueError(
                f"attention block ({step},{layer}) must have {grid.total_tokens} "
                f"scores, got shape {row.shape}"
            )
        if not np.isfinite(row).all():
            raise ValueError(f"attention block ({step},{layer}) contains non-finite values")
        blocks.append((step, layer, row))

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        fh.write(
            _HEADER.pack(
                grid.frames,
                grid.tokens_per_frame,
                grid.hidden_dim,
                text.count,
                layers,
                heads,
            )
        )
        fh.write(struct.pack("<I", len(blocks)))
        fh.write(grid.data.tobytes())
        fh.write(text.data.astype(np.float32).tobytes())
        for step, layer, row in blocks:
            fh.write(_BLOCK_HEAD.pack(step, layer, row.shape[0]))
            fh.write(row.tobytes())


def _check_finite(values: np.ndarray, offset: int, what: str) -> None:
    """Raise NonFiniteValue at the byte of the first non-finite float32 of ``values``."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteValue(f"{what} contains a non-finite float", offset + 4 * bad)


def load_trace(path) -> TraceContents:
    """Read a trace file, validating structure and finiteness.

    Raises BadMagic, VersionUnsupported, TruncatedPayload, NonFiniteValue, or
    TraceError (bad shape, block size, duplicate block, trailing bytes), each
    naming the byte offset of the problem.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, got {raw[:4]!r}", 0)
    if len(raw) < 6:
        raise TruncatedPayload("file ends inside version field", len(raw))
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != VERSION:
        raise VersionUnsupported(f"version {version} unsupported (expected {VERSION})", 4)
    if len(raw) < 6 + _HEADER.size + 4:
        raise TruncatedPayload("file ends inside header", len(raw))
    frames, tokens_per_frame, hidden_dim, n_text, layers, heads = _HEADER.unpack_from(raw, 6)
    if frames < 1 or tokens_per_frame < 1 or hidden_dim < 1:
        raise TraceError(
            f"header declares invalid shape {frames}x{tokens_per_frame}x{hidden_dim}", 6
        )
    (n_blocks,) = struct.unpack_from("<I", raw, 6 + _HEADER.size)

    offset = 6 + _HEADER.size + 4
    n_visual = frames * tokens_per_frame
    payload_floats = hidden_dim * (n_visual + n_text)
    payload_bytes = 4 * payload_floats
    if len(raw) < offset + payload_bytes:
        raise TruncatedPayload(
            f"payload needs {payload_bytes} bytes, file ends early", len(raw)
        )
    payload = np.frombuffer(raw, dtype="<f4", count=payload_floats, offset=offset)
    _check_finite(payload, offset, "payload")

    visual = payload[: n_visual * hidden_dim].reshape(n_visual, hidden_dim)
    text_rows = payload[n_visual * hidden_dim :].reshape(n_text, hidden_dim)
    grid = VisualTokenGrid(frames, tokens_per_frame, hidden_dim, visual.copy())
    text = TextTokens(text_rows.copy())
    offset += payload_bytes

    attention: dict[tuple[int, int], np.ndarray] = {}
    for _ in range(n_blocks):
        if len(raw) < offset + _BLOCK_HEAD.size:
            raise TruncatedPayload("file ends inside attention block header", len(raw))
        step, layer, count = _BLOCK_HEAD.unpack_from(raw, offset)
        if count != n_visual:
            raise TraceError(
                f"attention block ({step},{layer}) has {count} scores, expected {n_visual}",
                offset + 8,
            )
        if (step, layer) in attention:
            raise TraceError(f"duplicate attention block ({step},{layer})", offset)
        offset += _BLOCK_HEAD.size
        if len(raw) < offset + 4 * count:
            raise TruncatedPayload(
                f"attention block ({step},{layer}) needs {4 * count} bytes", len(raw)
            )
        row = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        _check_finite(row, offset, f"attention block ({step},{layer})")
        attention[(step, layer)] = row.copy()
        offset += 4 * count
    if offset != len(raw):
        raise TraceError(f"{len(raw) - offset} trailing bytes after the last block", offset)

    return TraceContents(grid=grid, text=text, attention=attention, layers=layers, heads=heads)

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dycoke.cli import main
from dycoke.tokens import CompressionConfig, TextTokens, synth_grid, synth_text
from dycoke.trace import (
    BadMagic,
    NonFiniteValue,
    TraceError,
    TruncatedPayload,
    VersionUnsupported,
    load_trace,
    write_trace,
)


def _roundtrip(tmp_path, grid, text, attention=None, **kw):
    path = tmp_path / "t.dyck"
    write_trace(path, grid, text, attention, **kw)
    return path, load_trace(path)


def test_header_dimension_bookkeeping(tmp_path):
    # M_v=2, N_v=3, D=4, N_q=1 -> 28 payload floats
    cfg = CompressionConfig(seed=1)
    grid = synth_grid(cfg, 2, 3, 4)
    text = synth_text(cfg, 1, 4)
    path, got = _roundtrip(tmp_path, grid, text)
    assert got.grid.frames == 2
    assert got.grid.tokens_per_frame == 3
    assert got.grid.hidden_dim == 4
    assert got.text.count == 1
    payload_floats = 4 * (2 * 3 + 1)
    assert payload_floats == 28
    header_bytes = 4 + 2 + 24 + 4
    assert path.stat().st_size == header_bytes + 4 * payload_floats


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.dyck"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(BadMagic) as err:
        load_trace(path)
    assert err.value.offset == 0


def test_roundtrip_bit_exact(tmp_path):
    cfg = CompressionConfig(seed=2)
    grid = synth_grid(cfg, 3, 4, 6)
    text = synth_text(cfg, 2, 6)
    path, got = _roundtrip(tmp_path, grid, text, layers=5, heads=2)
    assert got.grid.data.tobytes() == grid.data.tobytes()
    assert got.text.data.tobytes() == text.data.tobytes()
    assert got.layers == 5 and got.heads == 2
    # writing the loaded contents again reproduces the same bytes
    path2 = tmp_path / "t2.dyck"
    write_trace(path2, got.grid, got.text, got.attention, layers=5, heads=2)
    assert path2.read_bytes() == path.read_bytes()


def test_roundtrip_random_shapes(tmp_path):
    rng = np.random.default_rng(3)
    for i in range(25):
        frames = int(rng.integers(1, 6))
        tpf = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 9))
        n_text = int(rng.integers(0, 4))
        cfg = CompressionConfig(seed=i)
        grid = synth_grid(cfg, frames, tpf, dim)
        text = (
            synth_text(cfg, n_text, dim) if n_text else TextTokens.empty(dim)
        )
        path = tmp_path / f"r{i}.dyck"
        write_trace(path, grid, text)
        got = load_trace(path)
        assert got.grid.data.tobytes() == grid.data.tobytes()
        assert got.text.data.tobytes() == text.data.tobytes()


def test_attention_blocks_roundtrip(tmp_path):
    cfg = CompressionConfig(seed=4)
    grid = synth_grid(cfg, 2, 3, 4)
    text = TextTokens.empty(4)
    rng = np.random.default_rng(0)
    blocks = {
        (s, layer): rng.random(grid.total_tokens).astype(np.float32)
        for s in range(3)
        for layer in (0, 2)
    }
    _, got = _roundtrip(tmp_path, grid, text, blocks)
    assert set(got.attention) == set(blocks)
    for key, row in blocks.items():
        np.testing.assert_array_equal(got.attention[key], row)


def test_attention_block_shape_rejected(tmp_path):
    cfg = CompressionConfig(seed=4)
    grid = synth_grid(cfg, 2, 3, 4)
    with pytest.raises(ValueError, match="scores"):
        write_trace(tmp_path / "x.dyck", grid, TextTokens.empty(4),
                    {(0, 0): np.ones(5, np.float32)})


def test_version_unsupported(tmp_path):
    cfg = CompressionConfig(seed=5)
    path = tmp_path / "v.dyck"
    write_trace(path, synth_grid(cfg, 1, 2, 3), TextTokens.empty(3))
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionUnsupported) as err:
        load_trace(path)
    assert err.value.offset == 4


def test_truncated_payload(tmp_path):
    cfg = CompressionConfig(seed=6)
    path = tmp_path / "t.dyck"
    write_trace(path, synth_grid(cfg, 2, 3, 4), TextTokens.empty(4))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayload) as err:
        load_trace(path)
    assert err.value.offset == len(raw) - 8


def test_nonfinite_value_names_offset(tmp_path):
    cfg = CompressionConfig(seed=7)
    path = tmp_path / "n.dyck"
    write_trace(path, synth_grid(cfg, 2, 3, 4), TextTokens.empty(4))
    raw = bytearray(path.read_bytes())
    payload_start = 4 + 2 + 24 + 4
    bad_index = 5
    raw[payload_start + 4 * bad_index : payload_start + 4 * bad_index + 4] = struct.pack(
        "<f", np.inf
    )
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteValue) as err:
        load_trace(path)
    assert err.value.offset == payload_start + 4 * bad_index


# A 2x3 grid at dim 4 with no text: blocks start after the header and payload.
_BLOCKS_AT = 4 + 2 + 24 + 4 + 4 * 4 * 6
_BLOCK_BYTES = 12 + 4 * 6


def _two_block_trace(tmp_path):
    path = tmp_path / "b.dyck"
    grid = synth_grid(CompressionConfig(seed=8), 2, 3, 4)
    blocks = {(0, 0): np.ones(6, np.float32), (1, 0): np.full(6, 2.0, np.float32)}
    write_trace(path, grid, TextTokens.empty(4), blocks)
    return path, bytearray(path.read_bytes())


def test_block_count_mismatch_names_count_field(tmp_path):
    path, raw = _two_block_trace(tmp_path)
    raw[_BLOCKS_AT + 8 : _BLOCKS_AT + 12] = struct.pack("<I", 5)
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="has 5 scores, expected 6") as err:
        load_trace(path)
    assert err.value.offset == _BLOCKS_AT + 8


def test_duplicate_block_rejected(tmp_path):
    path, raw = _two_block_trace(tmp_path)
    second = _BLOCKS_AT + _BLOCK_BYTES
    raw[second : second + 4] = struct.pack("<I", 0)  # second block becomes (0, 0) too
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="duplicate") as err:
        load_trace(path)
    assert err.value.offset == second


def test_trailing_bytes_rejected(tmp_path):
    path, raw = _two_block_trace(tmp_path)
    assert len(raw) == _BLOCKS_AT + 2 * _BLOCK_BYTES
    path.write_bytes(bytes(raw) + b"\x00\x01\x02")
    with pytest.raises(TraceError, match="3 trailing bytes") as err:
        load_trace(path)
    assert err.value.offset == len(raw)


def _replay_exits_2(path, capsys, offset: int) -> None:
    code = main(["replay", "--trace", str(path), "-L", "0"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].endswith(f"(byte offset {offset})")


@pytest.mark.parametrize("field", [0, 1, 2], ids=["frames", "tokens_per_frame", "hidden_dim"])
def test_header_declaring_a_zero_dimension_rejected(tmp_path, capsys, field):
    path, raw = _two_block_trace(tmp_path)
    raw[6 + 4 * field : 10 + 4 * field] = struct.pack("<I", 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(TraceError, match="header declares invalid shape") as err:
        load_trace(path)
    assert type(err.value) is TraceError
    assert err.value.offset == 6
    _replay_exits_2(path, capsys, 6)


@pytest.mark.parametrize("cut", [_BLOCKS_AT, _BLOCKS_AT + 5, _BLOCKS_AT + _BLOCK_BYTES + 11])
def test_file_ending_inside_a_block_header(tmp_path, capsys, cut):
    path, raw = _two_block_trace(tmp_path)
    path.write_bytes(bytes(raw[:cut]))
    with pytest.raises(TruncatedPayload, match="inside attention block header") as err:
        load_trace(path)
    assert err.value.offset == cut
    _replay_exits_2(path, capsys, cut)


@pytest.mark.parametrize(
    "text_dim, score, match",
    [(5, 1.0, "text hidden_dim 5 != grid hidden_dim 4"), (4, np.nan, "non-finite")],
    ids=["text-width", "nan-score"],
)
def test_write_trace_rejects_bad_input_before_writing(tmp_path, text_dim, score, match):
    cfg = CompressionConfig(seed=9)
    grid = synth_grid(cfg, 2, 3, 4)
    scores = np.ones(6, np.float32)
    scores[2] = score
    path = tmp_path / "x.dyck"
    with pytest.raises(ValueError, match=match):
        write_trace(path, grid, synth_text(cfg, 1, text_dim), {(0, 0): scores})
    assert not path.exists()


def _replay_trace_bytes(tmp_path) -> bytes:
    grid = synth_grid(CompressionConfig(seed=0), 4, 8, 8)
    rng = np.random.default_rng(1)
    attention = {(t, 2): rng.random(grid.total_tokens).astype(np.float32) for t in range(5)}
    path = tmp_path / "valid.dyck"
    write_trace(path, grid, TextTokens.empty(8), attention)
    return path.read_bytes()


# Header, 4x8 tokens at dim 8, then five blocks of 32 scores.
_REPLAY_LEN = 34 + 4 * 8 * 32 + 5 * (12 + 4 * 32)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(cut=None, flips=[(_REPLAY_LEN - 4 * 32 - 4, 0x20)])  # last block's count 32 -> 0
@given(
    cut=st.none() | st.integers(0, _REPLAY_LEN - 1),
    flips=st.lists(st.tuples(st.integers(0, _REPLAY_LEN - 1), st.integers(1, 255)), max_size=4),
)
def test_replay_cli_never_raises_on_corrupt_trace(tmp_path, cut, flips):
    raw = bytearray(_replay_trace_bytes(tmp_path))
    assert len(raw) == _REPLAY_LEN
    for at, mask in flips:
        raw[at] ^= mask
    path = tmp_path / "corrupt.dyck"
    path.write_bytes(bytes(raw[:cut]))
    code = main(["replay", "--trace", str(path), "-K", "0.5", "-L", "2", "-P", "0.7",
                 "--report", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)

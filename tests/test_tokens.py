import re
from dataclasses import replace

import numpy as np
import pytest

from dycoke.tokens import (
    CompressionConfig,
    TextTokens,
    TokenId,
    VisualTokenGrid,
    synth_grid,
    synth_text,
)


def test_synth_grid_deterministic():
    cfg = CompressionConfig(seed=7)
    a = synth_grid(cfg, 3, 5, 8)
    b = synth_grid(cfg, 3, 5, 8)
    assert a.data.tobytes() == b.data.tobytes()


def test_synth_grid_seed_changes_data():
    a = synth_grid(CompressionConfig(seed=7), 3, 5, 8)
    b = synth_grid(CompressionConfig(seed=8), 3, 5, 8)
    assert a.data.tobytes() != b.data.tobytes()


def test_synth_grid_default_video_shape():
    # 32 frames at 196 tokens/frame is the published default video shape
    g = synth_grid(CompressionConfig(seed=0), 32, 196, 16)
    assert g.data.shape == (6272, 16)
    assert g.total_tokens == 6272


def test_synth_grid_zero_drift_frames_identical():
    g = synth_grid(CompressionConfig(seed=3), 4, 6, 8, drift=0.0)
    for f in range(1, 4):
        np.testing.assert_array_equal(g.frame_rows(f), g.frame_rows(0))
    a = g.frame_rows(0).astype(np.float64)
    b = g.frame_rows(3).astype(np.float64)
    cos = np.einsum("ij,ij->i", a, b) / (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    )
    np.testing.assert_allclose(cos, 1.0, atol=1e-12)


def test_synth_grid_temporal_redundancy():
    g = synth_grid(CompressionConfig(seed=1), 4, 8, 32, drift=0.02)
    a = g.frame_rows(0).astype(np.float64)
    b = g.frame_rows(1).astype(np.float64)
    cos = np.einsum("ij,ij->i", a, b) / (
        np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    )
    assert cos.min() > 0.99


@pytest.mark.parametrize("drift", [1e39, -1e39, 1e308])
def test_synth_grid_rejects_a_drift_that_overflows_float32(drift):
    # One ValueError naming the drift, raised before the float32 cast could
    # warn; 1e308 also overflows the float64 walk itself.
    with pytest.raises(ValueError, match=re.escape(f"drift {drift} overflows float32 over 3")):
        synth_grid(CompressionConfig(seed=0), 3, 5, 8, drift=drift)
    assert synth_grid(CompressionConfig(seed=0), 3, 5, 8, drift=1e30).data.max() < 1e32


def test_grid_validation():
    with pytest.raises(ValueError):
        VisualTokenGrid(2, 3, 4, np.zeros((5, 4), np.float32))  # wrong row count
    with pytest.raises(ValueError):
        VisualTokenGrid(0, 3, 4, np.zeros((0, 4), np.float32))
    bad = np.zeros((6, 4), np.float32)
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="row 2"):
        VisualTokenGrid(2, 3, 4, bad)


def test_grid_data_is_readonly():
    g = synth_grid(CompressionConfig(seed=0), 2, 3, 4)
    with pytest.raises(ValueError):
        g.data[0, 0] = 1.0


def test_token_id_ordering():
    assert TokenId(0, 5) < TokenId(1, 0)
    assert TokenId(2, 1) < TokenId(2, 3)
    assert sorted([TokenId(1, 0), TokenId(0, 2), TokenId(0, 1)]) == [
        TokenId(0, 1),
        TokenId(0, 2),
        TokenId(1, 0),
    ]


def test_row_indexing_bijection():
    rng = np.random.default_rng(0)
    for _ in range(20):
        frames = int(rng.integers(1, 7))
        tpf = int(rng.integers(1, 9))
        g = VisualTokenGrid(frames, tpf, 3, np.ones((frames * tpf, 3), np.float32))
        rows = [g.row_index(g.token_id(r)) for r in range(g.total_tokens)]
        assert rows == list(range(g.total_tokens))
        ids = [g.token_id(r) for r in range(g.total_tokens)]
        assert len(set(ids)) == g.total_tokens
        assert ids == sorted(ids)  # row-major order is TokenId order
    with pytest.raises(IndexError):
        g.token_id(g.total_tokens)
    with pytest.raises(IndexError):
        g.row_index(TokenId(frames, 0))


def test_text_tokens():
    t = TextTokens(np.ones((3, 4), np.float32))
    assert t.count == 3 and t.hidden_dim == 4
    assert TextTokens.empty(8).count == 0
    with pytest.raises(ValueError):
        TextTokens(np.full((2, 2), np.inf, np.float32))
    s = synth_text(CompressionConfig(seed=2), 5, 6)
    assert s.data.shape == (5, 6)
    assert s.data.tobytes() == synth_text(CompressionConfig(seed=2), 5, 6).data.tobytes()


def test_config_validation():
    good = CompressionConfig()
    for bad in (
        {"k_rate": 1.5},
        {"k_rate": float("nan")},
        {"p_rate": -0.1},
        {"p_rate": float("nan")},
        {"window_len": 3},  # odd/even split undefined
        {"window_len": 0},
        {"eval_layer": -1},
        {"heads": 0},
        {"merge_mode": "average"},
    ):
        with pytest.raises(ValueError):
            CompressionConfig(**bad)
        with pytest.raises(ValueError):
            replace(good, **bad)

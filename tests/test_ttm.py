import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dycoke.tokens import CompressionConfig, TokenId, VisualTokenGrid, synth_grid
from dycoke.ttm import MergeRecord, apply_ttm, partition_windows, stage1_survivor_count


# -- independent brute-force oracle ------------------------------------------
# Plain-loop enumeration of every (prunable-frame token, counterpart)
# similarity, sorted per frame. Shares no code with the implementation.


def oracle_removals(grid: VisualTokenGrid, k_rate: float, window_len: int) -> set:
    n_v = grid.tokens_per_frame
    quota = math.floor(k_rate * n_v + 1e-9)
    removed = set()
    start = 0
    while start < grid.frames:
        window = list(range(start, min(start + window_len, grid.frames)))
        for off in range(1, len(window)):
            frame = window[off]
            ref = window[off - 1] if off % 2 == 1 else window[0]
            scored = []
            for pos in range(n_v):
                a = [float(x) for x in grid.data[frame * n_v + pos]]
                b = [float(x) for x in grid.data[ref * n_v + pos]]
                na = math.sqrt(sum(x * x for x in a))
                nb = math.sqrt(sum(x * x for x in b))
                if na < 1e-12 or nb < 1e-12:
                    sim = 0.0
                else:
                    sim = sum(x * y for x, y in zip(a, b)) / (na * nb)
                    sim = max(-1.0, min(1.0, sim))
                scored.append((sim, pos))
            scored.sort(key=lambda t: (-t[0], t[1]))
            for _, pos in scored[:quota]:
                removed.add(TokenId(frame, pos))
        start += window_len
    return removed


# -- window partition -----------------------------------------------------------


def test_partition_default_video():
    part = partition_windows(32, 4)
    assert len(part) == 8
    assert part[0] == (0, 1, 2, 3)


def test_partition_single_window():
    assert partition_windows(4, 4) == ((0, 1, 2, 3),)


def test_partition_trailing_short_window():
    assert partition_windows(6, 4) == ((0, 1, 2, 3), (4, 5))


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_windows(0, 4)
    with pytest.raises(ValueError):
        partition_windows(8, 3)


def test_partition_coverage_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        frames = int(rng.integers(1, 40))
        wl = int(rng.integers(1, 5)) * 2
        part = partition_windows(frames, wl)
        seen = [f for w in part for f in w]
        assert seen == list(range(frames))  # consecutive, non-overlapping, complete
        for w in part:
            assert len(w) <= wl


# -- apply_ttm ---------------------------------------------------------------


def test_k_zero_is_noop():
    cfg = CompressionConfig(k_rate=0.0, seed=1)
    grid = synth_grid(cfg, 8, 6, 8)
    res = apply_ttm(grid, cfg)
    assert res.retained_ratio == 1.0
    assert res.records == []
    assert res.retained_count == grid.total_tokens
    np.testing.assert_array_equal(res.data, grid.data)


def test_identical_frames_tie_break():
    # All similarities are exactly 1.0, so the lowest TokenIds go first.
    cfg = CompressionConfig(k_rate=0.5, seed=0)
    one = np.random.default_rng(5).standard_normal((4, 8)).astype(np.float32)
    grid = VisualTokenGrid(4, 4, 8, np.tile(one, (4, 1)))
    res = apply_ttm(grid, cfg)
    removed = {r.removed for r in res.records}
    assert removed == {TokenId(f, p) for f in (1, 2, 3) for p in (0, 1)}
    for rec in res.records:
        assert rec.similarity == 1.0


def test_ratio_law_exact_divisible():
    # frames divisible by window_len and k*N_v integral -> exactly 1 - 0.75k
    for k in (0.25, 0.5, 0.75, 1.0):
        cfg = CompressionConfig(k_rate=k, seed=2)
        grid = synth_grid(cfg, 8, 8, 16)
        res = apply_ttm(grid, cfg)
        assert res.retained_ratio == pytest.approx(1 - 0.75 * k, abs=1e-12)


def test_published_stage1_ratio():
    cfg = CompressionConfig(k_rate=0.7, seed=3)
    grid = synth_grid(cfg, 8, 20, 16)  # 0.7 * 20 = 14 exactly
    res = apply_ttm(grid, cfg)
    assert res.retained_ratio == pytest.approx(0.475, abs=1e-12)


def test_oracle_equivalence_random_grids():
    rng = np.random.default_rng(42)
    for i in range(40):
        frames = int(rng.integers(1, 7))
        tpf = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 17))
        k = float(rng.uniform(0, 1))
        cfg = CompressionConfig(k_rate=k, seed=i)
        grid = VisualTokenGrid(
            frames, tpf, dim,
            rng.standard_normal((frames * tpf, dim)).astype(np.float32),
        )
        res = apply_ttm(grid, cfg)
        got = {r.removed for r in res.records}
        assert got == oracle_removals(grid, k, cfg.window_len), (
            f"mismatch at grid {i}: frames={frames} tpf={tpf} k={k}"
        )


def test_partition_and_order_properties():
    rng = np.random.default_rng(7)
    for i in range(10):
        frames = int(rng.integers(1, 10))
        tpf = int(rng.integers(1, 12))
        cfg = CompressionConfig(k_rate=float(rng.uniform(0, 1)), seed=i)
        grid = synth_grid(cfg, frames, tpf, 8)
        res = apply_ttm(grid, cfg)
        removed = {r.removed for r in res.records}
        retained = set(res.token_ids)
        assert retained | removed == set(grid.all_token_ids())
        assert retained & removed == set()
        assert res.token_ids == sorted(res.token_ids)  # strictly increasing
        assert len(res.token_ids) == len(retained)
        assert res.retained_ratio == len(retained) / grid.total_tokens
        assert stage1_survivor_count(frames, tpf, cfg.k_rate, cfg.window_len) == len(retained)


def test_determinism_bytes():
    cfg = CompressionConfig(k_rate=0.6, seed=9)
    grid = synth_grid(cfg, 6, 10, 12)
    a = apply_ttm(grid, cfg)
    b = apply_ttm(grid, cfg)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.token_ids == b.token_ids
    assert a.records == b.records


def test_hidden_dim_permutation_invariance():
    cfg = CompressionConfig(k_rate=0.4, seed=11)
    grid = synth_grid(cfg, 5, 7, 16)
    perm = np.random.default_rng(1).permutation(16)
    permuted = VisualTokenGrid(5, 7, 16, grid.data[:, perm])
    a = apply_ttm(grid, cfg)
    b = apply_ttm(permuted, cfg)
    assert a.token_ids == b.token_ids
    assert [r.removed for r in a.records] == [r.removed for r in b.records]


def test_zero_norm_rows_do_not_abort():
    cfg = CompressionConfig(k_rate=0.5, seed=0)
    data = np.random.default_rng(2).standard_normal((4 * 4, 4)).astype(np.float32)
    data[5] = 0.0  # frame 1, position 1: zero norm -> similarity 0
    grid = VisualTokenGrid(4, 4, 4, data)
    res = apply_ttm(grid, cfg)
    assert {r.removed for r in res.records} == oracle_removals(grid, 0.5, 4)


def test_kept_as_survives_and_chains_redirect():
    # Identical frames: frame 3 merges into frame 2 positions that frame 2
    # itself loses to frame 0, so those records must redirect to frame 0.
    cfg = CompressionConfig(k_rate=0.5, seed=0)
    one = np.random.default_rng(8).standard_normal((4, 8)).astype(np.float32)
    grid = VisualTokenGrid(4, 4, 8, np.tile(one, (4, 1)))
    res = apply_ttm(grid, cfg)
    retained = set(res.token_ids)
    for rec in res.records:
        assert rec.removed != rec.kept_as
        assert rec.kept_as in retained
    frame3 = [r for r in res.records if r.removed.frame == 3]
    assert frame3 and all(r.kept_as.frame == 0 for r in frame3)


def test_merge_mode_mean():
    cfg = CompressionConfig(k_rate=0.5, seed=0, merge_mode="mean")
    one = np.random.default_rng(8).standard_normal((4, 8)).astype(np.float32)
    grid = VisualTokenGrid(4, 4, 8, np.tile(one, (4, 1)))
    res = apply_ttm(grid, cfg)
    # positions 0 and 1 of frame 0 absorb three merged copies of themselves,
    # so the mean equals the original row
    for pos in (0, 1):
        idx = res.token_ids.index(TokenId(0, pos))
        np.testing.assert_allclose(res.data[idx], one[pos], rtol=1e-6)
    # drop mode keeps rows bit-identical instead
    res_drop = apply_ttm(grid, CompressionConfig(k_rate=0.5, seed=0))
    assert res_drop.token_ids == res.token_ids


def test_full_k_rate_prunes_everything_prunable():
    cfg = CompressionConfig(k_rate=1.0, seed=4)
    grid = synth_grid(cfg, 8, 5, 8)
    res = apply_ttm(grid, cfg)
    # only the first frame of each window survives
    assert res.retained_count == 2 * 5
    assert {t.frame for t in res.token_ids} == {0, 4}


# -- pinned outputs -------------------------------------------------------------
# Survivor ids, merge records in order (kept_as after redirect, similarity
# bits) and survivor data bytes: a rewrite of apply_ttm must reproduce them.


def _pin_grid() -> VisualTokenGrid:
    g = synth_grid(CompressionConfig(seed=7), 11, 10, 6, drift=0.3)
    data = g.data.reshape(11, 10, 6).copy()
    data[:, :4] = data[0, 0]  # positions 0-3 identical in every frame: similarity ties
    data[2, 5] = 0.0  # a zero-norm row scores similarity 0
    return VisualTokenGrid(11, 10, 6, data.reshape(110, 6))


def _ttm_digest(res) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(res.token_ids, dtype=np.int64).tobytes())
    for r in res.records:
        h.update(np.asarray([*r.removed, *r.kept_as], dtype=np.int64).tobytes())
        h.update(np.float64(r.similarity).tobytes())
    h.update(res.data.tobytes())
    return h.hexdigest()[:16]


_TTM_PINS = {
    # (merge_mode, window_len, k_rate): (survivors, records, digest)
    ("drop", 2, 0.3): (95, 15, "cf4df7e360575f57"),
    ("drop", 2, 0.7): (75, 35, "b7c6cc6167104237"),
    ("drop", 2, 1.0): (60, 50, "9465d1db153975ba"),
    ("drop", 4, 0.3): (86, 24, "845b298ba1b4210a"),
    ("drop", 4, 0.7): (54, 56, "48ecdca041933b20"),
    ("drop", 4, 1.0): (30, 80, "e4be79fe24719ad9"),
    ("drop", 6, 0.3): (83, 27, "0a2fa44440eac3b7"),
    ("drop", 6, 0.7): (47, 63, "73f01b60eb32cb06"),
    ("drop", 6, 1.0): (20, 90, "b9060749c150ef58"),
    ("mean", 2, 0.3): (95, 15, "cf4df7e360575f57"),
    ("mean", 2, 0.7): (75, 35, "785da67e52b07071"),
    ("mean", 2, 1.0): (60, 50, "a3953eeb79b28551"),
    ("mean", 4, 0.3): (86, 24, "845b298ba1b4210a"),
    ("mean", 4, 0.7): (54, 56, "35bd9c145b93e5a6"),
    ("mean", 4, 1.0): (30, 80, "24aafc1a72328c42"),
    ("mean", 6, 0.3): (83, 27, "0a2fa44440eac3b7"),
    ("mean", 6, 0.7): (47, 63, "df7f220c27194b1e"),
    ("mean", 6, 1.0): (20, 90, "43227b5dee671e68"),
}


@pytest.mark.parametrize("mode,window,k", sorted(_TTM_PINS))
def test_apply_ttm_outputs_pinned(mode, window, k):
    res = apply_ttm(_pin_grid(), CompressionConfig(k_rate=k, window_len=window, merge_mode=mode))
    assert (res.retained_count, len(res.records), _ttm_digest(res)) == _TTM_PINS[mode, window, k]
    # ids stay plain ints so reports and merge logs serialize them as JSON numbers
    assert all(type(v) is int for t in res.token_ids for v in t)
    assert all(type(v) is int for r in res.records for v in (*r.removed, *r.kept_as))
    assert all(type(r.similarity) is float for r in res.records)


# -- per-pair reference -----------------------------------------------------------
# apply_ttm written pair by pair: every pair converts and norms both of its
# frames and appends its records as it goes. The windowed pass must reproduce
# it bit for bit.


def per_pair_ttm(grid: VisualTokenGrid, config: CompressionConfig):
    n_v = grid.tokens_per_frame
    frames = grid.data.reshape(grid.frames, n_v, -1)
    quota = math.floor(config.k_rate * n_v + 1e-9)
    kept_as = np.arange(grid.total_tokens)
    removed, similarities = [], []
    for window in partition_windows(grid.frames, config.window_len):
        for offset in range(1, len(window)):
            frame = window[offset]
            ref = window[offset - 1] if offset % 2 == 1 else window[0]
            if quota == 0:
                continue
            a = frames[frame].astype(np.float64)
            b = frames[ref].astype(np.float64)
            dots = np.einsum("ij,ij->i", a, b)
            na = np.linalg.norm(a, axis=1)
            nb = np.linalg.norm(b, axis=1)
            ok = (na >= 1e-12) & (nb >= 1e-12)
            sims = np.zeros(n_v, dtype=np.float64)
            np.divide(dots, na * nb, out=sims, where=ok)
            sims = np.clip(sims, -1.0, 1.0)
            take = np.lexsort((np.arange(n_v), -sims))[:quota]
            kept_as[frame * n_v + take] = ref * n_v + take
            removed.extend((frame * n_v + take).tolist())
            similarities.extend(sims[take].tolist())
    kept_as = kept_as[kept_as]
    survivors = np.flatnonzero(kept_as == np.arange(grid.total_tokens))
    kept = kept_as[removed]
    records = [
        MergeRecord(TokenId(*divmod(r, n_v)), TokenId(*divmod(k, n_v)), sim)
        for r, k, sim in zip(removed, kept.tolist(), similarities)
    ]
    data = grid.data[survivors]
    if config.merge_mode == "mean":
        slots = np.searchsorted(survivors, kept)
        acc = data.astype(np.float64)
        np.add.at(acc, slots, grid.data[removed].astype(np.float64))
        counts = 1 + np.bincount(slots, minlength=len(survivors))
        data = (acc / counts[:, None]).astype(np.float32)
    token_ids = [TokenId(*divmod(r, n_v)) for r in survivors.tolist()]
    return token_ids, survivors, data, records, len(survivors) / grid.total_tokens


@st.composite
def ttm_cases(draw):
    window = draw(st.sampled_from([2, 4, 6]))
    frames = draw(st.integers(1, 14))
    tpf = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        data = rng.standard_normal((frames * tpf, dim))
    else:  # small integers: exact similarity ties and zero-norm rows
        data = rng.integers(-1, 2, (frames * tpf, dim)).astype(np.float64)
    zero = draw(st.lists(st.integers(0, frames * tpf - 1), max_size=4))
    data[zero] = 0.0
    k = draw(st.one_of(st.sampled_from([0.0, 0.9, 0.99, 1.0]), st.floats(0.0, 1.0)))
    mode = draw(st.sampled_from(["drop", "mean"]))
    grid = VisualTokenGrid(frames, tpf, dim, data.astype(np.float32))
    return grid, CompressionConfig(k_rate=k, window_len=window, merge_mode=mode)


@settings(max_examples=150, deadline=None)
@given(ttm_cases())
@example((_pin_grid(), CompressionConfig(k_rate=0.7, window_len=6, merge_mode="mean")))
@example((synth_grid(CompressionConfig(), 7, 5, 4), CompressionConfig(k_rate=0.0, window_len=4)))
def test_apply_ttm_matches_per_pair_reference(case):
    grid, config = case
    token_ids, rows, data, records, ratio = per_pair_ttm(grid, config)
    res = apply_ttm(grid, config)
    assert res.token_ids == token_ids
    np.testing.assert_array_equal(res.rows, rows)
    assert res.data.dtype == data.dtype and res.data.tobytes() == data.tobytes()
    got = res.records
    assert got == records
    assert [tuple(map(type, (*r.removed, *r.kept_as, r.similarity))) for r in got] == [
        (int, int, int, int, float)
    ] * len(records)
    assert np.float64(res.retained_ratio).tobytes() == np.float64(ratio).tobytes()


@settings(max_examples=150, deadline=None)
@given(ttm_cases())
def test_apply_ttm_arrays_match_per_pair_reference_bit_for_bit(case):
    # The stable argsort and the vectorised row -> TokenId map against the
    # reference's lexsort and per-row divmod: the same rows, similarity bits and ids.
    grid, config = case
    _, _, _, records, _ = per_pair_ttm(grid, config)
    res = apply_ttm(grid, config)
    assert [grid.row_index(r.removed) for r in records] == res.removed_rows.tolist()
    assert [grid.row_index(r.kept_as) for r in records] == res.kept_as_rows.tolist()
    sims = np.array([r.similarity for r in records], dtype=np.float64)
    assert sims.tobytes() == res.similarities.tobytes()
    ids = grid.all_token_ids()
    n_v = grid.tokens_per_frame
    assert ids == [TokenId(*divmod(r, n_v)) for r in range(grid.total_tokens)]
    assert all(type(v) is int for t in ids for v in t)

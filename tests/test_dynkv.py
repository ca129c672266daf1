import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dycoke.attention import AttentionSnapshot, ModelDims, ToyDecoder
from dycoke.dynkv import (
    DualCache,
    InvariantViolation,
    MissingParkedRow,
    _top_quota,
    dynamic_swap,
    initial_prune,
    one_shot_prune,
    random_prune,
    retention_quota,
)
from dycoke.simulate import _decode, jaccard
from dycoke.tokens import CompressionConfig, TokenId


def make_cache(n_vis, n_text=0, quota=None, eval_layer=0, layers=2, d=4, seed=0):
    rng = np.random.default_rng(seed)
    ids = [TokenId(0, i) for i in range(n_vis)]
    kvs = [
        (
            rng.standard_normal((n_vis + n_text, d)),
            rng.standard_normal((n_vis + n_text, d)),
        )
        for _ in range(layers)
    ]
    return DualCache(kvs, ids, n_text, quota if quota is not None else n_vis, eval_layer)


def snap(step, scores, cache):
    return AttentionSnapshot(
        step=step, layer=cache.eval_layer, scores=np.asarray(scores, float),
        token_ids=cache.token_ids,
    )


def sort_oracle(scores, ids, quota):
    """Independent full-sort top-quota selection."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return set(ids[i] for i in order[:quota])


# -- quota -----------------------------------------------------------------


def test_retention_quota():
    assert retention_quota(6, 0.7) == 2  # ceil(1.8)
    assert retention_quota(10, 0.7) == 3  # exactly 3, float fuzz guarded
    assert retention_quota(10, 0.0) == 10
    assert retention_quota(10, 1.0) == 0
    assert retention_quota(1, 0.99) == 1  # at least one token while p < 1


def test_initial_prune_example():
    scores = [0.5, 0.3, 0.1, 0.05, 0.03, 0.02]
    cache = make_cache(6)
    config = CompressionConfig(p_rate=0.7)
    decision = initial_prune(snap(0, scores, cache), cache, config)
    assert len(decision.retained_ids) == 2
    assert decision.retained_ids == (TokenId(0, 0), TokenId(0, 1))
    assert decision.threshold == 0.3
    assert decision.readmitted == ()
    assert set(decision.evicted) == set(cache.token_ids) - set(decision.retained_ids)
    assert set(decision.retained_ids) == sort_oracle(scores, cache.token_ids, 2)
    assert cache.parked_ids() == tuple(sorted(decision.evicted))


def test_initial_prune_p_zero_noop():
    cache = make_cache(5)
    decision = initial_prune(
        snap(0, [0.1] * 5, cache), cache, CompressionConfig(p_rate=0.0)
    )
    assert decision.retained_ids == cache.token_ids
    assert decision.evicted == ()
    assert cache.parked_ids() == ()


def test_tie_break_all_equal_scores():
    cache = make_cache(10)
    decision = initial_prune(
        snap(0, [0.25] * 10, cache), cache, CompressionConfig(p_rate=0.7)
    )
    assert decision.retained_ids == (TokenId(0, 0), TokenId(0, 1), TokenId(0, 2))


def stable_sort_top(scores, quota):
    """The selection _top_quota must equal: a stable descending sort, cut at quota."""
    take = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:quota]
    return np.sort(take), float(scores[take[-1]])


@pytest.mark.parametrize(
    "scores, quota, rows, threshold",
    [
        ([0.5] * 6, 3, [0, 1, 2], 0.5),  # all equal: the lowest rows win
        ([0.5] * 6, 6, [0, 1, 2, 3, 4, 5], 0.5),  # quota = n, all equal
        ([0.1, 0.7, 0.3, 0.9, 0.2], 5, [0, 1, 2, 3, 4], 0.1),  # quota = n
        ([0.1, 0.7, 0.3, 0.9, 0.2], 1, [3], 0.9),  # quota = 1
        ([0.4, 0.4, 0.9, 0.4, 0.9], 1, [2], 0.9),  # quota = 1, tie at the top
        # the 0.4 group (rows 0, 2, 4, 5) straddles the threshold: two of it fit
        ([0.4, 0.8, 0.4, 0.9, 0.4, 0.4, 0.1], 4, [0, 1, 2, 3], 0.4),
        ([0.1, 0.8, 0.4, 0.9, 0.4, 0.4, 0.4], 3, [1, 2, 3], 0.4),
    ],
)
def test_top_quota_matches_stable_sort(scores, quota, rows, threshold):
    scores = np.asarray(scores)
    got_rows, got_threshold = _top_quota(scores, quota)
    want_rows, want_threshold = stable_sort_top(scores, quota)
    assert got_rows.tolist() == want_rows.tolist() == rows
    assert got_threshold == want_threshold == threshold


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan]), min_size=1, max_size=40),
    data=st.data(),
)
def test_top_quota_matches_stable_sort_on_ties_zeros_and_nan(levels, data):
    # Few distinct values, so the quota cut almost always lands in a tie group.
    scores = np.asarray(levels)
    quota = data.draw(st.integers(1, len(scores)))
    got_rows, got_threshold = _top_quota(scores, quota)
    want_rows, want_threshold = stable_sort_top(scores, quota)
    assert got_rows.tolist() == want_rows.tolist()
    assert np.array_equal(got_threshold, want_threshold, equal_nan=True)
    assert np.signbit(got_threshold) == np.signbit(want_threshold)


# -- dynamic swap -----------------------------------------------------------


def test_swap_stability_fixed_point():
    cache = make_cache(6)
    config = CompressionConfig(p_rate=0.7)
    scores = [0.5, 0.3, 0.1, 0.05, 0.03, 0.02]
    initial_prune(snap(0, scores, cache), cache, config)
    decision = dynamic_swap(snap(1, scores, cache), cache, config)
    assert decision.readmitted == () and decision.evicted == ()
    assert decision.retained_ids == (TokenId(0, 0), TokenId(0, 1))


def test_swap_readmits_and_evicts():
    cache = make_cache(6)
    config = CompressionConfig(p_rate=0.7)
    initial_prune(snap(0, [0.5, 0.3, 0.1, 0.05, 0.03, 0.02], cache), cache, config)
    assert cache.active_ids() == (TokenId(0, 0), TokenId(0, 1))
    decision = dynamic_swap(snap(1, [0.01, 0.5, 0.1, 0.05, 0.6, 0.02], cache), cache, config)
    assert decision.readmitted == (TokenId(0, 4),)
    assert decision.evicted == (TokenId(0, 0),)
    assert cache.active_ids() == (TokenId(0, 1), TokenId(0, 4))


def test_swap_tracks_sort_oracle_over_drift():
    config = CompressionConfig(p_rate=0.6)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        cache = make_cache(n, seed=seed)
        quota = retention_quota(n, config.p_rate)
        base = rng.random(n)
        slope = rng.standard_normal(n) * 0.01
        for step in range(100):
            scores = base + step * slope
            if step == 0:
                decision = initial_prune(snap(step, scores, cache), cache, config)
            else:
                decision = dynamic_swap(snap(step, scores, cache), cache, config)
            cache.check_invariants(step)
            assert set(decision.retained_ids) == sort_oracle(
                scores, cache.token_ids, quota
            )
            assert len(cache.active_rows) == quota
            assert set(cache.active_ids()) | set(cache.parked_ids()) == set(cache.token_ids)
            assert set(cache.active_ids()) & set(cache.parked_ids()) == set()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 120),
    levels=st.integers(1, 4),
    p_rate=st.floats(0.0, 1.0),
    layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_swap_property_tie_heavy_streams(n, levels, p_rate, layers, seed):
    # Scores drawn from at most four levels, so most decisions hinge on the
    # TokenId tie-break. Ids span several frames to exercise their ordering.
    rng = np.random.default_rng(seed)
    config = CompressionConfig(p_rate=p_rate)
    codes = np.sort(rng.choice(3 * n, n, replace=False))
    ids = tuple(TokenId(int(c) // 7, int(c) % 7) for c in codes)
    kvs = [(rng.standard_normal((n + 2, 4)), rng.standard_normal((n + 2, 4)))
           for _ in range(layers)]
    source = [(k.copy(), v.copy()) for k, v in kvs]
    cache = DualCache(kvs, list(ids), 2, n, eval_layer=0)
    quota = retention_quota(n, p_rate)
    prev = set(ids)
    for step in range(8):
        scores = rng.integers(0, levels, n) / levels
        decide = initial_prune if step == 0 else dynamic_swap
        decision = decide(snap(step, scores, cache), cache, config)
        cache.check_invariants(step)
        expect = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:quota]
        assert decision.retained_ids == tuple(sorted(ids[i] for i in expect))
        assert decision.readmitted == tuple(sorted(set(decision.retained_ids) - prev))
        assert decision.evicted == tuple(sorted(prev - set(decision.retained_ids)))
        assert cache.active_ids() == decision.retained_ids
        for layer in range(1, layers):  # pruned layers hold exact copies of the source rows
            k, v = source[layer]
            assert cache.active_keys(layer).tobytes() == k[cache.active_rows].tobytes()
            assert cache.layers[layer].active_v.tobytes() == v[cache.active_rows].tobytes()
        prev = set(decision.retained_ids)


def test_no_loss_rows_bit_identical_after_readmission():
    cache = make_cache(6, layers=3, eval_layer=0, d=8, seed=3)
    config = CompressionConfig(p_rate=0.7)
    # record original rows of token 0 in every pruned layer
    originals = [
        (cache.layers[l].vis_k[0].tobytes(), cache.layers[l].vis_v[0].tobytes())
        for l in range(3)
    ]
    initial_prune(snap(0, [0.9, 0.8, 0.1, 0.1, 0.1, 0.1], cache), cache, config)
    dynamic_swap(snap(1, [0.0, 0.8, 0.9, 0.1, 0.1, 0.1], cache), cache, config)
    assert TokenId(0, 0) in cache.parked_ids()
    dynamic_swap(snap(2, [0.9, 0.8, 0.0, 0.1, 0.1, 0.1], cache), cache, config)
    assert TokenId(0, 0) in cache.active_ids()
    for l in range(1, 3):  # pruned layers hold the readmitted row at index 0
        row = np.flatnonzero(cache.active_rows == 0)[0]
        assert cache.active_keys(l)[row].tobytes() == originals[l][0]
        assert cache.layers[l].active_v[row].tobytes() == originals[l][1]


def test_split_heads_again_is_a_no_op_and_another_count_raises():
    cache = make_cache(50, n_text=3, eval_layer=1, layers=3, d=32)
    with pytest.raises(ValueError, match="not divisible"):
        cache.split_heads(3)
    assert cache.heads is None
    cache.split_heads(4)
    held = [(s.vis_k, s.vis_v, s.active_k, s.active_v) for s in cache.layers]
    assert [s.vis_k.shape for s in cache.layers] == [(50, 4, 8), (50, 4, 8), (50, 32)]
    cache.split_heads(4)
    assert all(a is b for before, store in zip(held, cache.layers)
               for a, b in zip(before, (store.vis_k, store.vis_v, store.active_k, store.active_v)))
    with pytest.raises(ValueError, match="split into 4 heads, not 2"):
        cache.split_heads(2)
    assert cache.heads == 4


@pytest.mark.parametrize("heads", [1, 4])
def test_split_heads_with_one_head_or_short_head_rows_allocates_nothing(heads):
    # 4 heads of 4 float64 values are 32-byte rows, under one cache line
    cache = make_cache(2000, n_text=2, eval_layer=1, d=16)  # 256 KB per array
    held = [(s.vis_k, s.vis_v) for s in cache.layers]
    tracemalloc.start()
    try:
        cache.split_heads(heads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096
    assert all(s.vis_k is k and s.vis_v is v for s, (k, v) in zip(cache.layers, held))
    with pytest.raises(ValueError, match=f"split into {heads} heads, not 2"):
        cache.split_heads(2)


def test_views_after_split_keep_row_bytes_through_readmission():
    # A dycoke decode splits layers 0-1 head-major; every layer's active
    # views stay (rows, d) C-contiguous with the prefill rows' bytes, also
    # after a forced swap parks the top set and a second one readmits it.
    dims = ModelDims(layers=3, hidden=32, ffn_inner=64, heads=4)
    dec = ToyDecoder(dims, seed=2)
    n_vis, n_text = 60, 3
    kvs, last = dec.prefill(np.random.default_rng(2).standard_normal((n_vis + n_text, 32)))
    prefill = [(k[:n_vis].copy(), v[:n_vis].copy()) for k, v in kvs]
    ids = [TokenId(0, i) for i in range(n_vis)]
    cache = DualCache(kvs, ids, n_text, n_vis, eval_layer=1)
    del kvs
    config = CompressionConfig(p_rate=0.7)
    decisions = []

    def on_snapshot(snapshot):
        if snapshot.step == 0:
            decisions.append(initial_prune(snapshot, cache, config))
        else:  # step 1 keeps the lowest scores, step 2 the highest again
            flip = -1.0 if snapshot.step == 1 else 1.0
            decisions.append(dynamic_swap(replace(snapshot, scores=flip * snapshot.scores),
                                          cache, config))

    _, emb = dec.select_token(last)
    for step in range(3):
        hidden, _ = dec.decode_step(emb, cache, step, on_snapshot=on_snapshot)
        _, emb = dec.select_token(hidden)
        for layer, (k, v) in enumerate(prefill):
            rows = cache.active_rows if layer > cache.eval_layer else np.arange(n_vis)
            got = cache.active_keys(layer)
            assert got.ndim == 2 and got.flags.c_contiguous and got.shape == k[rows].shape
            assert got.tobytes() == k[rows].tobytes(), (step, layer)
            # a split layer's values are a (rows, heads, head_dim) view in row order
            assert cache.layers[layer].active_v.tobytes() == v[rows].tobytes(), (step, layer)
    assert [s.vis_k.ndim for s in cache.layers] == [3, 3, 2]
    assert decisions[2].readmitted
    for tid in decisions[2].readmitted:  # back in the pruned layer with its own bytes
        row = ids.index(tid)
        at = int(np.flatnonzero(cache.active_rows == row)[0])
        assert cache.active_keys(2)[at].tobytes() == prefill[2][0][row].tobytes()
        assert cache.layers[0].vis_k[row].tobytes() == prefill[0][0][row].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_heads_peak_is_one_layer_array_above_its_storage(dtype):
    n, n_text, d = 3000, 4, 64
    rng = np.random.default_rng(0)
    ids = [TokenId(0, i) for i in range(n)]
    tracemalloc.start()
    try:
        kvs = [tuple(rng.standard_normal((n + n_text, d)).astype(dtype) for _ in range(2))
               for _ in range(3)]
        cache = DualCache(kvs, ids, n_text, n, eval_layer=1)
        del kvs  # the cache holds the only references, as in simulate and bench
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        cache.split_heads(4)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    one_array = (n + n_text) * d * np.dtype(dtype).itemsize  # as large as the one it replaces
    assert peak - before <= one_array + 16384
    assert after - before <= 4096  # the split arrays replace the originals byte for byte


def test_scale_invariance_of_selection():
    config = CompressionConfig(p_rate=0.5)
    rng = np.random.default_rng(9)
    scores = rng.random(12)
    for c in (1e-3, 0.5, 7.0, 1e4):
        a = make_cache(12)
        b = make_cache(12)
        d1 = initial_prune(snap(0, scores, a), a, config)
        d2 = initial_prune(snap(0, scores * c, b), b, config)
        assert d1.retained_ids == d2.retained_ids


def test_missing_parked_row_detected():
    # Membership arrives as strictly increasing rows in [0, survivor_count).
    cache = make_cache(6)
    config = CompressionConfig(p_rate=0.7)
    initial_prune(snap(0, [0.5, 0.3, 0.1, 0.05, 0.03, 0.02], cache), cache, config)
    bad = {
        "row equal to survivor_count": [0, 6],
        "negative row": [-1, 0],
        "duplicated row": [1, 1],
        "unsorted rows": [1, 0],
    }
    for case, rows in bad.items():
        with pytest.raises(MissingParkedRow):
            cache.apply(np.array(rows))
        assert cache.active_rows.tolist() == [0, 1], case  # a rejected apply changes nothing
    cache.check_invariants(1)


def test_frozen_cache_rejects_membership_change():
    cache = make_cache(6)
    one_shot_prune(snap(0, [0.5, 0.3, 0.1, 0.05, 0.03, 0.02], cache), cache,
                   CompressionConfig(p_rate=0.7))
    cache.apply(np.array([0, 1]))  # the same membership is not a change
    for rows in ([0, 2], [0], [0, 1, 2]):
        with pytest.raises(MissingParkedRow):
            cache.apply(np.array(rows))
    assert cache.active_rows.tolist() == [0, 1]


def test_apply_returns_the_moved_rows():
    cache = make_cache(6, layers=3, eval_layer=1)
    readmitted, evicted = cache.apply(np.array([1, 3, 4]))
    assert readmitted.tolist() == [] and evicted.tolist() == [0, 2, 5]
    readmitted, evicted = cache.apply(np.array([0, 2, 4]))
    assert readmitted.tolist() == [0, 2] and evicted.tolist() == [1, 3]
    readmitted, evicted = cache.apply(np.array([0, 2, 4]))
    assert readmitted.size == 0 and evicted.size == 0
    for layer in range(3):  # the eval layer and those below it keep the full storage
        want = cache.layers[layer].vis_k[[0, 2, 4]] if layer > 1 else cache.layers[layer].vis_k
        assert cache.active_keys(layer).tobytes() == want.tobytes()


def test_cache_rejects_bad_row_count_and_eval_layer():
    ids = [TokenId(0, i) for i in range(4)]
    kvs = [(np.zeros((5, 4)), np.zeros((5, 4)))] * 2
    with pytest.raises(ValueError, match="row count != survivors"):
        DualCache(kvs, ids, 2, 4, 0)
    with pytest.raises(ValueError, match="eval_layer 2 out of range for 2 layers"):
        DualCache(kvs, ids, 1, 4, 2)


def test_decision_rejects_a_snapshot_of_other_survivors():
    cache = make_cache(4)
    config = CompressionConfig(p_rate=0.5)
    other = AttentionSnapshot(step=0, layer=0, scores=np.ones(4),
                              token_ids=tuple(TokenId(1, i) for i in range(4)))
    with pytest.raises(ValueError, match="does not cover the survivor token set"):
        initial_prune(other, cache, config)
    with pytest.raises(ValueError, match="score count != survivor count"):
        dynamic_swap(snap(0, [0.5, 0.2, 0.1], cache), cache, config)
    assert cache.active_rows.tolist() == [0, 1, 2, 3] and not cache.partitioned


def test_extra_rows_grow_past_the_reserve_without_changing_a_step():
    # One reserved row forces the text/generated store to grow twice in 20
    # steps; every step must match a cache that reserved them all up front.
    dims = ModelDims(layers=3, hidden=16, ffn_inner=32, heads=4)
    decoder = ToyDecoder(dims, seed=5)
    kvs, last = decoder.prefill(np.random.default_rng(5).standard_normal((14, 16)))
    config = CompressionConfig(eval_layer=1, p_rate=0.5)
    ids = [TokenId(0, i) for i in range(12)]
    runs = []
    for reserve in (1, 20):
        cache = DualCache(kvs, ids, 2, retention_quota(12, 0.5), 1, reserve_steps=reserve)
        _, emb = decoder.select_token(last)
        steps = list(_decode(decoder, cache, emb, 20, "dycoke", config))
        assert cache.generated_count() == 20
        runs.append(
            (
                [hidden.tobytes() for *_, hidden, _ in steps],
                [token for *_, token, _, _ in steps],
                [decision.to_json() for _, decision, *_ in steps],
            )
        )
    assert runs[0] == runs[1]


def test_cache_rejects_repeated_survivor_ids():
    ids = [TokenId(0, 0), TokenId(0, 0), TokenId(0, 1)]
    kvs = [(np.zeros((3, 4)), np.zeros((3, 4)))]
    with pytest.raises(ValueError, match="strictly increasing"):
        DualCache(kvs, ids, 0, 3, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        DualCache(kvs, ids[::-1], 0, 3, 0)


@pytest.mark.parametrize("rows", [[0, 0, 1], [2, 1, 0], [0, 1, 3]])
def test_invariants_reject_bad_active_rows(rows):
    cache = make_cache(3, quota=3)
    cache.active_rows = np.array(rows)  # corrupt on purpose
    with pytest.raises(InvariantViolation, match="active rows"):
        cache.check_invariants(0)


def test_invariant_violation_carries_state():
    cache = make_cache(6, quota=3)
    cache.active_rows = np.array([0, 1])  # corrupt on purpose
    cache.partitioned = True
    with pytest.raises(InvariantViolation) as err:
        cache.check_invariants(5)
    assert err.value.state["step"] == 5
    assert err.value.state["active"] == 2
    assert err.value.state["quota"] == 3


# -- one-shot & random baselines ------------------------------------------------


def test_one_shot_retained_set_constant():
    cache = make_cache(8)
    config = CompressionConfig(p_rate=0.5)
    rng = np.random.default_rng(2)
    first = one_shot_prune(snap(0, rng.random(8), cache), cache, config)
    assert cache.frozen and cache.parked_ids() == ()
    for step in range(1, 10):
        decision = dynamic_swap(snap(step, rng.random(8), cache), cache, config)
        assert decision.retained_ids == first.retained_ids
        assert decision.readmitted == () and decision.evicted == ()
        cache.check_invariants(step)


def test_one_shot_step0_matches_initial_prune():
    scores = np.random.default_rng(4).random(10)
    config = CompressionConfig(p_rate=0.7)
    a, b = make_cache(10), make_cache(10)
    d1 = initial_prune(snap(0, scores, a), a, config)
    d2 = one_shot_prune(snap(0, scores, b), b, config)
    assert d1.retained_ids == d2.retained_ids
    assert d1.threshold == d2.threshold


def test_one_shot_jaccard_decays_under_linear_drift():
    # Construct drift so the ranking inverts over time: the one-shot set's
    # overlap with the tracked set must fall monotonically.
    n, steps = 12, 30
    config = CompressionConfig(p_rate=0.75)
    base = np.array([float(n - i) for i in range(n)])
    slope = np.array([0.5 * i for i in range(n)])
    dyn, one = make_cache(n), make_cache(n)
    overlaps = []
    for step in range(steps):
        scores = base + step * slope
        if step == 0:
            initial_prune(snap(step, scores, dyn), dyn, config)
            one_shot_prune(snap(step, scores, one), one, config)
        else:
            dynamic_swap(snap(step, scores, dyn), dyn, config)
            dynamic_swap(snap(step, scores, one), one, config)
        overlaps.append(jaccard(dyn.active_ids(), one.active_ids()))
    assert overlaps[0] == 1.0
    assert all(b <= a for a, b in zip(overlaps, overlaps[1:]))
    assert overlaps[-1] < overlaps[0]


def test_random_prune_deterministic():
    config = CompressionConfig(p_rate=0.5, seed=13)
    a, b = make_cache(10), make_cache(10)
    d1 = random_prune(a, config)
    d2 = random_prune(b, config)
    assert d1.retained_ids == d2.retained_ids
    assert a.frozen


def test_random_prune_full_quota_retains_everything():
    cache = make_cache(7)
    decision = random_prune(cache, CompressionConfig(p_rate=0.0, seed=1))
    assert decision.retained_ids == cache.token_ids


def test_random_prune_uniform_frequency():
    # Retention frequency of each token ~ Binomial(trials, quota/population).
    n, trials = 12, 10_000
    config = CompressionConfig(p_rate=2 / 3)
    quota = retention_quota(n, config.p_rate)
    counts = np.zeros(n)
    for t in range(trials):
        cache = make_cache(n, d=1, layers=1)
        decision = random_prune(cache, replace(config, seed=t))
        for tid in decision.retained_ids:
            counts[tid.position] += 1
    p = quota / n
    sigma = np.sqrt(p * (1 - p) / trials)
    np.testing.assert_allclose(counts / trials, p, atol=3.5 * sigma)

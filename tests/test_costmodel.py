import pytest
from hypothesis import given, settings, strategies as st

from dycoke.attention import MODEL_PRESETS, ModelDims
from dycoke.costmodel import (
    CostInputs,
    decode_flops,
    flops_ratio,
    modelled_flops,
    prefill_flops,
    retained_ratio,
    run_flops,
    tera,
    total_flops,
)
from dycoke.tokens import CompressionConfig
from dycoke.ttm import stage1_survivor_count


def loop_decode_oracle(dims: ModelDims, n: int, r: int) -> int:
    """Literal per-step summation of the decode phase."""
    d, m = dims.hidden, dims.ffn_inner
    acc = r * (4 * d * d + 2 * d * m)
    for i in range(1, r + 1):
        acc += 2 * d * (n + i)
    return dims.layers * acc


def test_prefill_unit_case():
    dims = ModelDims(layers=1, hidden=1, ffn_inner=1, heads=1)
    assert prefill_flops(CostInputs(dims, 1, 1, 0)) == 8  # 4 + 2 + 2


def test_decode_unit_case():
    dims = ModelDims(layers=1, hidden=1, ffn_inner=1, heads=1)
    assert decode_flops(CostInputs(dims, 0, 1, 0)) == 8  # (4 + 2) + 2*(0 + 1)


def test_prefill_7b_exact_integer():
    # frozen value from an independent big-integer evaluation of the formula
    dims = MODEL_PRESETS["7b"]
    assert prefill_flops(CostInputs(dims, 6272, 100, 6272)) == 40_765_480_763_392


def test_decode_closed_form_equals_loop_oracle():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(30):
        dims = ModelDims(
            layers=int(rng.integers(1, 10)),
            hidden=int(rng.integers(1, 300)),
            ffn_inner=int(rng.integers(1, 500)),
            heads=1,
        )
        n = int(rng.integers(0, 2000))
        r = int(rng.integers(1, 300))
        assert decode_flops(CostInputs(dims, 0, r, n)) == loop_decode_oracle(dims, n, r)


def test_full_token_flops_match_published_totals():
    # 6272 visual tokens, 100 decode steps
    cases = [("0.5b", 3.4e12, 0.06), ("7b", 41.4e12, 0.05), ("72b", 436.1e12, 0.05)]
    for name, want, tol in cases:
        dims = MODEL_PRESETS[name]
        got = total_flops(CostInputs(dims, 6272, 100, 6272))
        assert abs(got - want) / want <= tol, f"{name}: {got / 1e12:.2f}T vs {want / 1e12}T"


def test_prefill_superlinear_in_n():
    dims = MODEL_PRESETS["7b"]
    one = prefill_flops(CostInputs(dims, 6272, 100, 0))
    two = prefill_flops(CostInputs(dims, 12544, 100, 0))
    assert two > 2 * one


def test_decode_monotone_in_active_tokens():
    dims = MODEL_PRESETS["7b"]
    full = decode_flops(CostInputs(dims, 0, 100, 6272))
    compressed = decode_flops(CostInputs(dims, 0, 100, 894))
    assert compressed < full


def test_retained_ratio_published_rows():
    rows = [
        (0.3, 0.7, 0.2325),
        (0.5, 0.7, 0.1875),
        (0.7, 0.7, 0.1425),
        (0.9, 0.9, 0.0325),
        (0.7, 0.9, 0.0475),
    ]
    for k, p, want in rows:
        stage1, final = retained_ratio(CompressionConfig(k_rate=k, p_rate=p))
        assert stage1 == pytest.approx(1 - 0.75 * k, abs=1e-12)
        assert final == pytest.approx(want, abs=1e-12)


@settings(deadline=None)
@given(
    window=st.sampled_from([2, 4, 6, 8]),
    windows=st.integers(1, 5),
    tokens_per_frame=st.integers(1, 64),
    data=st.data(),
)
def test_retained_ratio_matches_full_windows(window, windows, tokens_per_frame, data):
    # On full windows with an integral per-frame quota, stage 1 keeps exactly
    # 1 - (w-1)/w * K of the grid.
    k = data.draw(st.integers(0, tokens_per_frame)) / tokens_per_frame
    frames = window * windows
    kept = stage1_survivor_count(frames, tokens_per_frame, k, window)
    stage1, _ = retained_ratio(CompressionConfig(k_rate=k, window_len=window))
    assert stage1 == pytest.approx(kept / (frames * tokens_per_frame), rel=1e-12, abs=1e-12)


def test_flops_ratio_published_rows():
    # compressed/full ratios within 5 percentage points of the published table
    table = {
        "0.5b": {0.3: 0.70, 0.5: 0.53, 0.7: 0.35},
        "7b": {0.3: 0.75, 0.5: 0.59, 0.7: 0.43},
        "72b": {0.5: 0.60, 0.7: 0.44},
    }
    for name, rows in table.items():
        dims = MODEL_PRESETS[name]
        for k, want in rows.items():
            got = flops_ratio(CompressionConfig(k_rate=k, p_rate=0.7), dims, 6272)
            assert abs(got - want) <= 0.05, f"{name} K={k}: {got:.3f} vs {want}"


def test_flops_ratio_identity_when_uncompressed():
    dims = MODEL_PRESETS["7b"]
    assert flops_ratio(CompressionConfig(k_rate=0.0, p_rate=0.0), dims, 6272) == 1.0


def test_flops_ratio_monotone_in_k_and_p():
    dims = MODEL_PRESETS["0.5b"]
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for p in grid:
        ratios = [flops_ratio(CompressionConfig(k_rate=k, p_rate=p), dims, 6272) for k in grid]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    for k in grid:
        ratios = [flops_ratio(CompressionConfig(k_rate=k, p_rate=p), dims, 6272) for p in grid]
        assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_modelled_flops_fields():
    dims = MODEL_PRESETS["7b"]
    flops = modelled_flops(CompressionConfig(k_rate=0.7, p_rate=0.7), dims, 6272)
    # stage 1 keeps round(0.475 * 6272) = 2979 tokens, stage 2 round(0.1425 * 6272) = 894
    assert flops == run_flops(dims, 6272, 0, 2979, 894, 100)
    compressed = CostInputs(dims, 2979, 100, 894)
    full = CostInputs(dims, 6272, 100, 6272)
    assert (flops.prefill, flops.decode) == (prefill_flops(compressed), decode_flops(compressed))
    assert (flops.full_prefill, flops.full_decode) == (prefill_flops(full), decode_flops(full))
    assert flops.total == total_flops(compressed) and flops.full_total == total_flops(full)
    assert flops.ratio == flops.total / flops.full_total
    assert 0 < flops.ratio < 1
    js = flops.to_json()
    assert js["total_tflops"] == tera(flops.total)
    assert js["full_total_tflops"] == tera(flops.full_total) == 41.4
    with pytest.raises(ValueError, match="token counts"):
        modelled_flops(CompressionConfig(), dims, -1)


def test_cost_inputs_validation():
    dims = ModelDims(1, 2, 2, 1)
    with pytest.raises(ValueError):
        CostInputs(dims, -1, 1, 0)
    with pytest.raises(ValueError):
        CostInputs(dims, 1, 0, 0)


def test_tera_three_significant_digits():
    assert tera(41_416_454_152_192) == 41.4
    assert tera(0) == 0.0
    assert tera(3_543_096_496_128) == 3.54

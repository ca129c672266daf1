"""The benchmark reaches dycoke by name: its probes must still resolve, and
one tiny pass of each workload must run and keep stage 1's survivors."""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from dycoke import attention, dynkv, simulate, ttm  # importing the package loads every module

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict[tuple[str, str], object]:
    owners = [m for k, m in sys.modules.items() if k == "dycoke" or k.startswith("dycoke.")]
    owners += [attention.ToyDecoder, dynkv.DualCache]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_probe_wrappers_install_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    probe = importlib.import_module("probe")
    before = _bindings()
    patches = probe.Patches()
    try:
        probe.Recorder().install(patches)
        probe.Tracer().install(patches)
        wrapped = {key for key, fn in _bindings().items() if before.get(key) is not fn}
        assert ("dycoke.ttm", "apply_ttm") in wrapped
        assert ("dycoke.simulate", "apply_ttm") in wrapped
        assert ("DualCache", "check_invariants") in wrapped
        assert ("dycoke.attention", "attention_segments") in wrapped
    finally:
        patches.undo()
        sys.modules.pop("probe", None)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is fn for key, fn in before.items())


@pytest.mark.parametrize("name", ["prefill_video", "decode_long"])
def test_workload_tiny_pass_keeps_stage1_survivors(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        checks = importlib.import_module("checks")
        results = []

        def spy(grid, config, apply_ttm=ttm.apply_ttm):
            results.append(apply_ttm(grid, config))
            return results[-1]

        monkeypatch.setattr(ttm, "apply_ttm", spy)
        monkeypatch.setattr(simulate, "apply_ttm", spy)
        w = workloads.WORKLOADS[name](0, tiny=True)
        w.setup(str(tmp_path))
        out = w.run_pass()
    finally:
        sys.modules.pop("workloads", None)
        sys.modules.pop("checks", None)
    assert len(results) == 1 and out.decoded
    expect = checks.stage1_survivors(w.grid.data, w.frames, w.tpf, w.config.k_rate, w.config.window_len)
    np.testing.assert_array_equal(checks.encode(results[0].token_ids, w.tpf), expect)
    assert results[0].retained_count == len(expect)


@pytest.mark.parametrize("name", ["prefill_video", "decode_long"])
def test_traced_tiny_pass_span_counts(name, tmp_path, monkeypatch):
    # attention.prefill_qkv_ms and attention.decode_proj_ffn_ms read these
    # spans: one project_qkv per prefill layer, one decode_step per step, and
    # one eval-layer or pruned-layer attention per layer and step.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        probe = importlib.import_module("probe")
        workloads = importlib.import_module("workloads")
        w = workloads.WORKLOADS[name](0, tiny=True)
        w.setup(str(tmp_path))
        tracer, patches = probe.Tracer(), probe.Patches()
        tracer.install(patches)
        try:
            w.run_pass()
        finally:
            patches.undo()
    finally:
        for module in ("probe", "workloads", "checks"):
            sys.modules.pop(module, None)
    spans = Counter(span[0] for span in tracer.spans)
    layers, steps, full = w.dims.layers, w.steps, w.config.eval_layer + 1
    prefills = 1 if name == "prefill_video" else 0
    assert spans["attention.prefill"] == prefills
    assert spans["attention.project_qkv"] == prefills * layers
    assert spans["attention.decode_step"] == steps
    assert spans["attention.decode_eval"] == full * steps
    assert spans["attention.decode_eval"] + spans["attention.decode_pruned"] == layers * steps


def test_kv_bytes_of_recorded_caches(tmp_path, monkeypatch):
    # peak_kv_bytes reads the cache through run.kv_bytes only; one tiny
    # decode_long pass under the Recorder checks it against the cache's shape.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        probe = importlib.import_module("probe")
        run = importlib.import_module("run")
        workloads = importlib.import_module("workloads")
        w = workloads.WORKLOADS["decode_long"](0, tiny=True)
        w.setup(str(tmp_path))
        rec, patches = probe.Recorder(), probe.Patches()
        rec.install(patches)
        try:
            w.run_pass()
        finally:
            patches.undo()
    finally:
        for name in ("probe", "run", "workloads", "checks"):
            sys.modules.pop(name, None)
    (cache,) = rec.caches()
    row = 2 * w.dims.hidden * np.dtype(w.dtype).itemsize
    full = w.config.eval_layer + 1  # layers that attend every survivor
    pruned = w.dims.layers - full
    active = (full * cache.survivor_count + pruned * len(cache.active_rows)) * row
    parked = pruned * (cache.survivor_count - len(cache.active_rows)) * row
    extra = w.dims.layers * (cache.n_text + w.steps) * row
    assert 0 < len(cache.active_rows) < cache.survivor_count and pruned > 0
    assert run.kv_bytes(cache) == (active, parked, extra)

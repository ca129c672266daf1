"""The benchmark's probes wrap dycoke functions by name; they must still resolve."""

import importlib
import sys
from pathlib import Path

from dycoke import attention, dynkv  # importing the package loads every module

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

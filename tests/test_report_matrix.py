import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_matrix_writes_every_output_without_paths_or_build(tmp_path):
    out = tmp_path / "matrix"
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "report_matrix.py"), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    exits = {p.name.removesuffix(".exit"): p.read_text() for p in out.glob("*.exit")}
    # 17 simulate, 2 replay, 4 cost, 3 bench, 4 sweep runs, 5 --help texts
    # and 3 runs given an input they would ignore
    assert len(exits) == 38
    refused = {name: exits.pop(name) for name in
               ("simulate-trace-frames", "sweep-trace-drift", "replay-seed", "cost-text-negative")}
    assert set(exits.values()) == {"0\n"}
    for name, text in refused.items():
        code, *errors = text.splitlines()
        assert code == "2" and sum(line.count("error:") for line in errors) == 1, name
    assert len(list(out.glob("simulate-*.merge.jsonl"))) == 17
    assert len(list(out.glob("help-*.txt"))) == 5
    for path in out.iterdir():
        if path.suffix != ".dyck":
            assert str(tmp_path) not in path.read_text(), path.name
    for path in out.glob("*.json"):
        report = json.loads(path.read_text())
        assert "build" not in report and "trace_path" not in report.get("spec", {}), path.name
    rows = (out / "sweep-trace-csv.csv").read_text().splitlines()
    assert "mean_step_latency_ms" not in rows[0]
    assert sum("error: eval_layer 9" in row for row in rows) == 2

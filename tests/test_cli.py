import contextlib
import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dycoke import simulate
from dycoke.attention import EmptyKeySet, ModelDims
from dycoke.cli import main
from dycoke.costmodel import run_flops
from dycoke.simulate import STRATEGIES, SWEEP_COLUMNS
from dycoke.tokens import CompressionConfig, TextTokens, synth_grid
from dycoke.trace import write_trace


def run_cli(*argv) -> int:
    return main(list(argv))


def test_cost_reproduces_published_table(tmp_path, capsys):
    out = tmp_path / "cost.json"
    code = run_cli(
        "cost", "--model", "7b", "-K", "0.7", "-P", "0.7", "-R", "100",
        "--frames", "32", "--tokens-per-frame", "196", "--report", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "cost"
    assert report["cost"]["retained_ratio_final"] == pytest.approx(0.1425)
    assert report["full"]["total_tflops"] == 41.4
    assert abs(report["cost"]["flops_ratio_vs_full"] - 0.43) <= 0.05


def test_cost_custom_model_requires_dims():
    assert run_cli("cost", "--model", "custom") == 2


def test_cost_preset_honours_layers(capsys):
    # --model names a shape and --layers overrides its depth
    reports = []
    for model in (["--model", "7b"], ["--model", "custom", "--d", "3584", "--m", "18944"]):
        assert run_cli("cost", *model, "--layers", "2", "-R", "10") == 0
        reports.append(json.loads(capsys.readouterr().out))
    preset, custom = reports
    assert preset.pop("model") == "7b" and custom.pop("model") == "custom"
    assert preset == custom
    assert preset["dims"]["layers"] == 2


def test_cost_window_models_and_echoes_simulates_window(capsys):
    # cost models stage 1 at the window it is given, so its ratio describes
    # a simulate run at that window (whole windows, K x tokens_per_frame whole)
    shape = ["--frames", "12", "--tokens-per-frame", "10", "-K", "0.5", "--window", "6"]
    assert run_cli("cost", "--model", "custom", "--d", "16", "--m", "32", "--layers", "2",
                   *shape) == 0
    cost = json.loads(capsys.readouterr().out)
    assert run_cli("simulate", *shape, "--dim", "16", "--layers", "2", "-L", "0", "-R", "1") == 0
    simulated = json.loads(capsys.readouterr().out)
    assert cost["window"] == 6 and simulated["spec"]["config"]["window_len"] == 6
    assert cost["cost"]["retained_ratio_stage1"] == pytest.approx(1 - 5 / 6 * 0.5)
    assert simulated["retained_ratio_stage1"] == pytest.approx(cost["cost"]["retained_ratio_stage1"])
    assert run_cli("cost", "--model", "0.5b") == 0
    assert json.loads(capsys.readouterr().out)["window"] == 4
    assert run_cli("cost", "--model", "0.5b", "--window", "3") == 2
    assert "window_len must be even" in capsys.readouterr().err


def test_simulate_cost_and_sweep_share_one_flops_record(capsys):
    model = ["--dim", "16", "--layers", "4"]
    shape = ["--frames", "8", "--tokens-per-frame", "16", "--text-tokens", "4", "-R", "5"]
    assert run_cli("simulate", *model, *shape, "-K", "0.7", "-L", "2", "-P", "0.5") == 0
    sim = json.loads(capsys.readouterr().out)
    flops, tokens = sim["flops"], sim["tokens"]
    # simulate's block is the record of the run's own survivors and quota
    record = run_flops(ModelDims(**sim["spec"]["dims"]), tokens["visual_total"], tokens["text"],
                       tokens["stage1_retained"], tokens["retention_quota"], 5)
    assert flops == record.to_json()
    assert tokens["stage1_retained"] < tokens["visual_total"]  # the two runs differ
    # cost's full-token baseline is simulate's at the same dims, shape and steps, whatever K and P
    for rates in (["-K", "0.7", "-P", "0.5"], ["-K", "0.3", "-P", "0.9"]):
        assert run_cli("cost", "--model", "custom", "--d", "16", "--m", "32", "--layers", "4",
                       *shape, *rates) == 0
        full = json.loads(capsys.readouterr().out)["full"]
        assert (full["total_flops"], full["total_tflops"]) == (flops["full_total"],
                                                              flops["full_total_tflops"])
    # sweep's column for the same cell is simulate's ratio
    assert run_cli("sweep", *model, *shape, "--K-grid", "0.7", "--L-grid", "2", "--P-grid", "0.5",
                   "--format", "json") == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["flops_ratio"] == flops["ratio_vs_full"]


def test_simulate_report_and_logs(tmp_path):
    report = tmp_path / "run.json"
    audit = tmp_path / "audit.jsonl"
    merges = tmp_path / "merges.jsonl"
    code = run_cli(
        "simulate", "--frames", "8", "--tokens-per-frame", "10", "--dim", "16",
        "--layers", "5", "-K", "0.5", "-L", "2", "-P", "0.7", "--seed", "1",
        "-R", "4", "--report", str(report), "--audit-log", str(audit),
        "--merge-log", str(merges),
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert data["kind"] == "simulate" and "audit" not in data
    assert data["tokens"]["visual_total"] == 80
    assert len(data["steps"]) == 4
    audit_rows = [json.loads(line) for line in audit.read_text().splitlines()]
    assert len(audit_rows) == 4
    merge_rows = [json.loads(line) for line in merges.read_text().splitlines()]
    assert len(merge_rows) == data["tokens"]["stage1_removed"]
    assert {"removed", "kept_as", "similarity"} <= set(merge_rows[0])


def test_simulate_byte_identical_reports(tmp_path):
    args = [
        "simulate", "--frames", "6", "--tokens-per-frame", "8", "--dim", "16",
        "--layers", "4", "-K", "0.5", "-L", "1", "-P", "0.5", "--seed", "3", "-R", "3",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--report", str(a)) == 0
    assert run_cli(*args, "--report", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_disabled_compression_matches_none(tmp_path):
    common = [
        "simulate", "--frames", "4", "--tokens-per-frame", "6", "--dim", "16",
        "--layers", "4", "-L", "1", "--seed", "2", "-R", "4",
    ]
    a, b = tmp_path / "none.json", tmp_path / "off.json"
    assert run_cli(*common, "-K", "0", "-P", "0", "--strategy", "none", "--report", str(a)) == 0
    assert run_cli(*common, "-K", "0", "-P", "0", "--strategy", "dycoke", "--report", str(b)) == 0
    assert json.loads(a.read_text())["decoded_ids"] == json.loads(b.read_text())["decoded_ids"]


def test_simulate_bad_config_exits_2(capsys):
    code = run_cli(
        "simulate", "--frames", "4", "--tokens-per-frame", "6", "--dim", "16",
        "-K", "1.5",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "\n" == err[-1]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_ffn_zero_exits_2(command, capsys):
    # --ffn 0 is an invalid width, not a request for the 2*dim default
    code = run_cli(
        command, "--frames", "4", "--tokens-per-frame", "6", "--dim", "16", "--ffn", "0"
    )
    assert code == 2
    assert "all dims must be >= 1" in capsys.readouterr().err


def test_simulate_eval_layer_out_of_range_exits_2():
    assert (
        run_cli(
            "simulate", "--frames", "4", "--tokens-per-frame", "6", "--dim", "16",
            "--layers", "3", "-L", "5",
        )
        == 2
    )


def test_sweep_csv_columns_fixed(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--frames", "8", "--tokens-per-frame", "40", "--dim", "16",
        "--layers", "5", "--K-grid", "0.3,0.5,0.7", "--L-grid", "2",
        "--P-grid", "0.7", "-R", "2", "--out", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 4
    stage1 = [round(float(r[3]), 4) for r in rows[1:]]
    assert stage1 == [0.775, 0.625, 0.475]


def test_sweep_json_rows_are_the_csv_rows(tmp_path):
    # The same cells, an error cell included; only the timed column may differ.
    argv = ["sweep", "--frames", "4", "--tokens-per-frame", "8", "--dim", "16", "--layers", "3",
            "--K-grid", "0.3,0.7", "--L-grid", "1,5", "--P-grid", "0.7", "-R", "2"]
    csv_path, json_path = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert run_cli(*argv, "--out", str(csv_path)) == 0
    assert run_cli(*argv, "--format", "json", "--out", str(json_path)) == 0
    with open(csv_path, newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    data = json.loads(json_path.read_text())
    assert data["kind"] == "sweep"
    json_rows = [{name: str(value) for name, value in row.items()} for row in data["rows"]]
    for row in csv_rows + json_rows:
        del row["mean_step_latency_ms"]
    assert json_rows == csv_rows
    assert [row["status"].split(":")[0] for row in csv_rows] == ["ok", "error", "ok", "error"]


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    # An empty grid is a usage error, not a header-only CSV.
    out = tmp_path / "empty.csv"
    for flag, text in (("--K-grid", ""), ("--K-grid", ","), ("--L-grid", " , "), ("--P-grid", "")):
        assert run_cli("sweep", flag, text, "--out", str(out)) == 2
        assert f"error: {flag} has no values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, kind", [("--K-grid", "float"), ("--L-grid", "int"),
                                        ("--P-grid", "float")])
def test_sweep_unparsable_grid_exits_2(flag, kind, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", flag, "1,x", "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {flag}: '1,x' is not a list of {kind}s"]
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag", [("simulate", "--report"), ("sweep", "--out")])
@pytest.mark.parametrize("flag, field", [("--frames", "frames"),
                                         ("--tokens-per-frame", "tokens_per_frame"),
                                         ("--text-tokens", "text_tokens"), ("--drift", "drift")])
def test_trace_fed_run_refuses_shape_flags(command, out_flag, flag, field, tmp_path, capsys):
    # The trace sets the grid and text, so a synthetic-shape flag would be ignored.
    trace = tmp_path / "in.dyck"
    write_trace(trace, synth_grid(CompressionConfig(), 2, 4, 16), TextTokens.empty(16))
    out = tmp_path / "out"
    assert run_cli(command, "--trace", str(trace), "--dim", "16", "-R", "1", flag, "2",
                   out_flag, str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} is for synthetic input")
    assert not out.exists()


def test_trace_fed_report_echoes_no_synthetic_shape(tmp_path):
    # A 4x8 grid with 2 text rows: the report's shape is the trace's.
    trace = tmp_path / "in.dyck"
    write_trace(trace, synth_grid(CompressionConfig(), 4, 8, 16),
                TextTokens(np.ones((2, 16), np.float32)))
    out = tmp_path / "report.json"
    assert run_cli("simulate", "--trace", str(trace), "--dim", "16", "-L", "1", "-R", "1",
                   "--report", str(out)) == 0
    report = json.loads(out.read_text())
    spec = {name: report["spec"][name] for name in
            ("frames", "tokens_per_frame", "text_tokens", "drift")}
    assert spec == dict.fromkeys(spec)
    assert (report["tokens"]["visual_total"], report["tokens"]["text"]) == (32, 2)


def test_simulate_negative_seed_exits_2_with_one_line(capsys):
    assert run_cli("simulate", "--seed", "-1", "--report", os.devnull) == 2
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]


@pytest.mark.parametrize(
    "flag",
    [["--jobs", "2"], ["--timing"], ["-K", "0.5"], ["-L", "2"], ["-P", "0.5"]],
    ids=["jobs", "timing", "K", "L", "P"],
)
def test_sweep_removed_flags_exit_2(flag, tmp_path, capsys):
    # sweep runs its cells in this process, its CSV has one timed column
    # whatever --timing says, and every cell takes K, L and P from the
    # grids, so none of these flags exists.
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--L-grid", "2", "-R", "1", *flag, "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", [["--window", "3"], ["-R", "0"], ["--frames", "0"]], ids=["window", "steps", "frames"]
)
def test_sweep_bad_base_flag_exits_2_before_any_cell(flag, tmp_path, capsys):
    # A bad non-grid flag is wrong for every cell, so it stops the sweep
    # before any cell runs instead of writing one error row per cell.
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--L-grid", "2", *flag, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_sweep_bad_input_exits_2_before_any_cell(tmp_path, capsys):
    # The grid and text are every cell's, so a drift that overflows float32
    # or a trace narrower than --dim stops the sweep before any cell runs.
    path = tmp_path / "narrow.dyck"
    write_trace(path, synth_grid(CompressionConfig(), 2, 4, 8), TextTokens.empty(8))
    out = tmp_path / "sweep.csv"
    for flags, message in ((["--drift", "1e39"], "error: drift 1e+39 overflows float32"),
                           (["--trace", str(path), "--dim", "16"],
                            "error: grid dim 8 != model hidden 16")):
        assert run_cli("sweep", "--L-grid", "2", "-R", "1", *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_2(jobs, tmp_path, capsys):
    # --jobs is gone, so a non-positive value is refused as an unknown argument.
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--L-grid", "2", "-R", "1", "--jobs", jobs, "--out", str(out))
    assert exc.value.code == 2
    assert f"unrecognized arguments: --jobs {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "-R", "100000000000000"],
        ["bench", "--model", "custom", "--d", "16", "--m", "32", "--frames", "2",
         "--tokens-per-frame", "4", "--steps", "1000000000000"],
    ],
)
def test_unallocatable_step_count_exits_2(argv, capsys):
    # The decode cache reserves a row per step up front; numpy refuses the
    # petabyte request before allocating anything.
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert err.count("\n") == 1


def test_replay_cli(tmp_path):
    cfg = CompressionConfig(seed=0)
    grid = synth_grid(cfg, 4, 8, 8)
    rng = np.random.default_rng(1)
    attention = {
        (t, 2): rng.random(grid.total_tokens).astype(np.float32) for t in range(5)
    }
    trace = tmp_path / "replay.dyck"
    write_trace(trace, grid, TextTokens.empty(8), attention)
    out = tmp_path / "replay.json"
    code = run_cli(
        "replay", "--trace", str(trace), "-K", "0.5", "-L", "2", "-P", "0.7",
        "--report", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "replay"
    assert len(data["steps"]) == 5


def test_replay_audit_log_is_the_results_audit(tmp_path, monkeypatch):
    # The report holds no audit; the log is the result's audit, line for line.
    results = []
    run_replay = simulate.run_replay

    def recorded(*args):
        results.append(run_replay(*args))
        return results[-1]

    monkeypatch.setattr(simulate, "run_replay", recorded)
    grid = synth_grid(CompressionConfig(seed=0), 4, 8, 8)
    rng = np.random.default_rng(1)
    attention = {(t, 1): rng.random(grid.total_tokens).astype(np.float32) for t in range(4)}
    trace = tmp_path / "replay.dyck"
    write_trace(trace, grid, TextTokens.empty(8), attention)
    report, audit = tmp_path / "replay.json", tmp_path / "audit.jsonl"
    code = run_cli("replay", "--trace", str(trace), "-L", "1", "--report", str(report),
                   "--audit-log", str(audit))
    assert code == 0
    data = json.loads(report.read_text())
    assert data["schema"] == "dycoke-report/2" and "audit" not in data
    lines = audit.read_text().splitlines()
    assert len(lines) == 4
    assert [json.loads(line) for line in lines] == results[0].audit
    assert data["spec"]["config"]["heads"] == CompressionConfig().heads


def test_replay_heads_flag_exits_2(tmp_path, capsys):
    # replay runs no attention, so it takes no model flag.
    with pytest.raises(SystemExit) as exc:
        run_cli("replay", "--trace", str(tmp_path / "any.dyck"), "--heads", "8")
    assert exc.value.code == 2
    assert "unrecognized arguments: --heads 8" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--merge-mode", "mean"]],
                         ids=["seed", "merge-mode"])
def test_replay_unused_flags_exit_2(flag, tmp_path, capsys):
    # replay draws no random numbers and reads only which tokens a merge
    # keeps, not the merged data, so neither flag would change its report.
    with pytest.raises(SystemExit) as exc:
        run_cli("replay", "--trace", str(tmp_path / "any.dyck"), *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["sweep"], ["replay", "--trace", "any.dyck"], ["cost"], ["bench"]],
    ids=lambda argv: argv[0],
)
def test_unknown_flag_shows_the_subcommands_usage(argv, capsys):
    # The subcommand's own usage lists the flags it does take.
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--no-such-flag", "1")
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: dycoke {argv[0]} [-h]")
    assert err[-1] == f"dycoke {argv[0]}: error: unrecognized arguments: --no-such-flag 1"


def test_replay_missing_block_exits_2(tmp_path, capsys):
    cfg = CompressionConfig(seed=0)
    grid = synth_grid(cfg, 2, 4, 8)
    trace = tmp_path / "gap.dyck"
    write_trace(trace, grid, TextTokens.empty(8))
    code = run_cli("replay", "--trace", str(trace), "-L", "0")
    assert code == 2
    assert "step=0 layer=0" in capsys.readouterr().err


def test_replay_missing_file_exits_2(tmp_path):
    assert run_cli("replay", "--trace", str(tmp_path / "nope.dyck")) == 2


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    code = run_cli(
        "bench", "--model", "custom", "--d", "64", "--m", "128", "--layers", "2",
        "--heads", "4", "--frames", "8", "--tokens-per-frame", "16",
        "--steps", "4", "--warmup", "1", "--report", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "bench"
    assert data["speedup"] > 0
    strategies = data["strategies"]
    assert {"0:none", "1:dycoke"} == set(strategies)
    none_rows = strategies["0:none"]["active_visual_rows_pruned_layers"]
    dycoke_rows = strategies["1:dycoke"]["active_visual_rows_pruned_layers"]
    assert dycoke_rows < none_rows


def test_bench_R_is_steps(tmp_path):
    # bench spells its step count -R as well, like simulate, sweep and cost.
    reports = []
    for flag in ("-R", "--steps"):
        path = tmp_path / f"bench{flag}.json"
        assert run_cli("bench", "--model", "custom", "--d", "32", "--m", "64", "--frames", "4",
                       "--tokens-per-frame", "8", flag, "2", "--warmup", "0",
                       "--report", str(path)) == 0
        report = json.loads(path.read_text())
        for name in ("speedup", "ttm_seconds"):
            del report[name]
        for row in report["strategies"].values():
            del row["mean_step_s"], row["median_step_s"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["spec"]["steps"] == 2


def test_bench_preset_honours_heads(tmp_path):
    out = tmp_path / "bench.json"
    code = run_cli(
        "bench", "--model", "0.5b", "--heads", "7", "--layers", "1", "--frames", "4",
        "--tokens-per-frame", "8", "--steps", "1", "--warmup", "0", "--report", str(out),
    )
    assert code == 0
    spec = json.loads(out.read_text())["spec"]
    assert spec["dims"] == {"layers": 1, "hidden": 896, "ffn_inner": 4864, "heads": 7}
    assert spec["config"]["heads"] == 7


def test_bench_same_strategy_speedup_near_one(tmp_path):
    out = tmp_path / "bench2.json"
    code = run_cli(
        "bench", "--model", "custom", "--d", "64", "--m", "128", "--layers", "2",
        "--heads", "4", "--frames", "8", "--tokens-per-frame", "32",
        "--steps", "200", "--warmup", "3", "--strategies", "none,none",
        "--report", str(out),
    )
    assert code == 0
    assert 0.5 < json.loads(out.read_text())["speedup"] < 2.0


def test_bench_float64_resident_bytes_use_itemsize(tmp_path):
    out = {}
    for dtype in ("float32", "float64"):
        path = tmp_path / f"bench-{dtype}.json"
        code = run_cli(
            "bench", "--model", "custom", "--d", "64", "--m", "128", "--layers", "2",
            "--heads", "4", "--frames", "8", "--tokens-per-frame", "16",
            "--steps", "4", "--warmup", "1", "--dtype", dtype, "--report", str(path),
        )
        assert code == 0
        out[dtype] = json.loads(path.read_text())["strategies"]
    for slot, row in out["float64"].items():
        # every layer stores its survivors, 4 text rows and 5 generated rows;
        # a pruning strategy's layer 1, above eval layer 0, also holds its gathered active rows
        gathered = 0 if row["strategy"] == "none" else row["active_visual_rows_pruned_layers"]
        rows = 2 * (row["stage1_survivors"] + 4 + 5) + gathered
        assert row["peak_resident_cache_bytes"] == rows * 2 * 64 * 8
        assert row["peak_resident_cache_bytes"] == 2 * out["float32"][slot]["peak_resident_cache_bytes"]


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--model", "custom"], "requires --d and --m"),
        (["--model", "custom", "--d", "64", "--m", "128", "--steps", "0"], "steps must be >= 1"),
        (["--model", "custom", "--d", "64", "--m", "128", "--warmup", "-1"], "warmup must be >= 0"),
        (["--model", "custom", "--d", "64", "--m", "128", "--text-tokens", "-1"],
         "text_tokens must be >= 0"),
        (["--model", "custom", "--d", "64", "--m", "128", "--strategies", "none"], "exactly two"),
    ],
)
def test_bench_bad_input_exits_2(extra, message, capsys):
    code = run_cli("bench", *extra, "--layers", "2", "--frames", "4", "--tokens-per-frame", "8")
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "model", [["--model", "0.5b"], ["--model", "custom", "--d", "64", "--m", "128"]]
)
def test_bench_layers_zero_exits_2(model, capsys):
    # --layers 0 is an invalid depth, not a request for the 2-layer default
    code = run_cli("bench", *model, "--layers", "0", "--frames", "4", "--tokens-per-frame", "8")
    assert code == 2
    assert "all dims must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--model", "custom", "--d", "0", "--m", "128"],
        ["bench", "--model", "custom", "--d", "64", "--m", "0"],
        ["cost", "--model", "custom", "--d", "0", "--m", "128", "--layers", "2"],
        ["cost", "--model", "custom", "--d", "64", "--m", "128", "--layers", "0"],
    ],
)
def test_custom_zero_dims_reach_dims_check(argv, capsys):
    # a zero width is an invalid value, not a missing flag
    assert run_cli(*argv, "--frames", "4", "--tokens-per-frame", "8") == 2
    err = capsys.readouterr().err
    assert "all dims must be >= 1" in err
    assert "requires" not in err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--text-tokens", "-5"], "text_tokens must be >= 0"),
        (["--frames", "-1", "--text-tokens", "500"], "frames and tokens_per_frame must be >= 1"),
        (["--frames", "0"], "frames and tokens_per_frame must be >= 1"),
        (["--tokens-per-frame", "0"], "frames and tokens_per_frame must be >= 1"),
        (["--frames", "-2", "--tokens-per-frame", "-196"],
         "frames and tokens_per_frame must be >= 1"),
        (["--frames", "-2", "--tokens-per-frame", "3"],
         "frames and tokens_per_frame must be >= 1"),
    ],
)
def test_cost_bad_input_exits_2(extra, message, capsys):
    assert run_cli("cost", "--model", "0.5b", *extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cost_stdout_when_no_report(capsys):
    assert run_cli("cost", "--model", "0.5b", "-K", "0.5", "-P", "0.7") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cost"]["retained_ratio_final"] == pytest.approx(0.1875)


def test_invariant_violation_exits_3_with_state_dump(monkeypatch, capsys):
    from dycoke import simulate
    from dycoke.dynkv import InvariantViolation

    def boom(spec):
        raise InvariantViolation("forced", {"step": 7, "active": 1, "quota": 2})

    monkeypatch.setattr(simulate, "run_simulation", boom)
    code = run_cli("simulate", "--frames", "4", "--tokens-per-frame", "4", "--dim", "16")
    assert code == 3
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert json.loads(err.splitlines()[-1]) == {"step": 7, "active": 1, "quota": 2}


def test_simulate_float32_overflow_exits_2_with_one_line(capsys):
    code = run_cli("simulate", "--dtype", "float32", "--drift", "1e20", "--frames", "4",
                   "--tokens-per-frame", "4", "--dim", "16", "--layers", "2", "-L", "0", "-R", "2",
                   "--report", os.devnull)
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: overflow encountered in matmul: the inputs are too large for --dtype"
    ]


def _unsorted_rows(snapshot, cache, config):
    return cache.apply(np.array([1, 0]))


def _empty_key_set(snapshot, cache, config):
    raise EmptyKeySet("attention over an empty key set")


@pytest.mark.parametrize("policy", [_unsorted_rows, _empty_key_set], ids=["rows", "keys"])
def test_consistency_failure_inside_a_run_exits_3(policy, monkeypatch, capsys):
    from dycoke import dynkv

    monkeypatch.setattr(dynkv, "initial_prune", policy)
    code = run_cli("simulate", "--frames", "4", "--tokens-per-frame", "4", "--dim", "16",
                   "--layers", "2", "-L", "0", "-R", "2", "--report", os.devnull)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("internal consistency failure: ")


def test_sweep_invariant_violation_exits_3(monkeypatch, tmp_path, capsys):
    # only a bad cell value becomes a CSV row; a broken invariant stops the sweep
    from dycoke import simulate
    from dycoke.dynkv import InvariantViolation

    def boom(spec, grid, text):
        raise InvariantViolation("forced", {"step": 0})

    monkeypatch.setattr(simulate, "_simulate", boom)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--L-grid", "2", "-R", "1", "--out", str(out)) == 3
    assert "invariant violation: forced" in capsys.readouterr().err
    assert not out.exists()


# Values each CLI input rejects. An example corrupts at most two inputs, so
# runs reach each single error path as well as the success path.
_OUT_OF_RANGE = {
    "K": [-0.5, 1.5], "P": [-0.5, 1.5], "L": [-1, 9], "window": [-1, 0, 3],
    "frames": [-1, 0], "tpf": [-1, 0], "dim": [-1, 0, 7], "layers": [-1, 0],
    "heads": [-1, 0], "ffn": [-1, 0], "steps": [-1, 0], "text": [-1], "warmup": [-1],
}


@st.composite
def _cli_inputs(draw):
    heads = draw(st.sampled_from([1, 2, 4]))
    layers = draw(st.integers(1, 4))
    args = {
        "K": draw(st.integers(0, 100)) / 100, "P": draw(st.integers(0, 100)) / 100,
        "L": draw(st.integers(0, layers - 1)), "window": draw(st.sampled_from([2, 4])),
        "frames": draw(st.integers(1, 4)), "tpf": draw(st.integers(1, 6)),
        "dim": heads * draw(st.integers(1, 3)), "layers": layers, "heads": heads,
        "ffn": draw(st.integers(1, 12)), "steps": draw(st.integers(1, 3)),
        "text": draw(st.integers(0, 3)), "warmup": draw(st.integers(0, 2)),
    }
    for name in draw(st.sets(st.sampled_from(sorted(args)), max_size=2)):
        args[name] = draw(st.sampled_from(_OUT_OF_RANGE[name]))
    # Any finite drift is a valid flag; one whose walk or model overflows is a
    # data error. Powers of ten reach every magnitude the float draw skips.
    args["drift"] = draw(st.floats(-1e300, 1e300) | st.integers(-3, 300).map(lambda e: 10.0**e))
    return {name: str(value) for name, value in args.items()}


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["simulate", "sweep", "bench", "cost"]),
    a=_cli_inputs(),
    strategies=st.tuples(st.sampled_from(STRATEGIES), st.sampled_from(STRATEGIES)),
    merge=st.sampled_from(["drop", "mean"]),
    dtype=st.sampled_from(["float32", "float64"]),
)
def test_cli_exit_code_property(command, a, strategies, merge, dtype):
    # Any tiny input, valid or not, ends in a documented exit code, never a
    # traceback, and a usage or data error in exactly one "error:" line.
    inputs = ["--frames", a["frames"], "--tokens-per-frame", a["tpf"],
              "--text-tokens", a["text"], "--layers", a["layers"]]
    drift = f"--drift={a['drift']}"  # "=" keeps a negative exponent form off the option list
    shape = [*inputs, "-K", a["K"], "-P", a["P"], "--report", os.devnull]
    model = ["-L", a["L"], "--window", a["window"], "--heads", a["heads"], "--dtype", dtype]
    if command == "simulate":
        argv = ["simulate", *shape, *model, "--dim", a["dim"], "--ffn", a["ffn"],
                "-R", a["steps"], "--strategy", strategies[0], "--merge-mode", merge, drift]
    elif command == "sweep":
        # One-cell grids carry the drawn K, L and P.
        argv = ["sweep", *inputs, "--window", a["window"], "--heads", a["heads"],
                "--dtype", dtype, "--dim", a["dim"], "--ffn", a["ffn"], "-R", a["steps"],
                "--strategy", strategies[0], "--merge-mode", merge, "--K-grid", a["K"],
                "--L-grid", a["L"], "--P-grid", a["P"], "--out", os.devnull, drift]
    elif command == "bench":
        argv = ["bench", "--model", "custom", *shape, *model, "--d", a["dim"], "--m", a["ffn"],
                "--steps", a["steps"], "--warmup", a["warmup"],
                "--strategies", ",".join(strategies)]
    else:
        argv = ["cost", "--model", "custom", *shape, "--d", a["dim"], "--m", a["ffn"],
                "-R", a["steps"]]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

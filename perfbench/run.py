#!/usr/bin/env python3
"""dycoke benchmark.

    python3 perfbench/run.py --workload prefill_video --seed 1 --seconds 55 --trace 0

Run from anywhere; the program under test is ``src/dycoke`` next to this
directory, imported from source. With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` it holds per-layer metrics from
traced passes that alternate with untraced ones (end-to-end numbers never
come from traced passes). The line before it holds the full detail: sample counts,
percentiles, checks, span self times and the environment stamp. Files go to
``perfbench-out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
PINS = HERE / "pins.json"

SETUP_REPS = 5
MIN_PASSES = 2
# End-to-end metrics gated in BENCHMARK.json. The per-step ones (itl_p50_ms,
# itl_p90_ms, tok_per_s) are printed in the detail line only: on a shared
# 2-core x86 machine their quartile spread over ten seeds was
# 20-36 % on prefill_video (its 0.7 s decode windows sample the machine's
# speed swings), beyond the largest allowed bound. So are the raw wall_s,
# ttft_ms and set-up times; the gated wall_norm_s, ttft_norm_ms and setup_s
# are them scaled by the machine-speed reference (see SpeedRef).
GATED = ("wall_norm_s", "ttft_norm_ms", "peak_kv_bytes", "peak_rss_mb", "attn_mass_kept", "setup_s")
# Share of the measured stretch spent timing SpeedRef, and its median sample
# time on the 2-core x86 machine the bounds were set on (a fixed scale, so
# normalized times read in seconds at that machine's typical speed).
REF_SHARE = 0.05
REF_NOMINAL_S = 0.055
MIN_REF_SAMPLES = 9
NONE_STEPS = 32
REF_PROBE = "import run; run.ref_child()"
SETUP_PROBE = "import sys, time; t = time.perf_counter(); import workloads; print(workloads.timed_setup(t, *sys.argv[1:]))"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYER_UNITS = {
    "ttm.apply_ms": "ms", "ttm.tokens_removed": "count",
    "attention.prefill_ms": "ms", "attention.prefill_qkv_ms": "ms",
    "attention.prefill_gflops_per_s": "GFLOP/s",
    "attention.decode_eval_ms": "ms", "attention.decode_pruned_ms": "ms",
    "attention.decode_proj_ffn_ms": "ms", "attention.select_ms": "ms",
    "attention.keys_per_step": "count", "attention.kv_bytes_per_step": "bytes",
    "dynkv.decide_ms": "ms", "dynkv.apply_ms": "ms", "dynkv.check_ms": "ms",
    "dynkv.readmitted_per_step": "count", "dynkv.evicted_per_step": "count",
    "dynkv.churn_ratio": "ratio", "dynkv.active_bytes": "bytes", "dynkv.parked_bytes": "bytes",
    "trace.write_ms": "ms", "trace.load_ms": "ms", "trace.bytes": "bytes", "trace.load_mb_per_s": "MB/s",
    "costmodel.flops_ratio": "ratio", "costmodel.decode_flops_ratio": "ratio",
    "simulate.decode_time_ratio": "ratio", "simulate.self_ms": "ms",
    "bench.tracing_overhead_pct": "%",
}


def cap_threads() -> None:
    """Run BLAS single-threaded (within the nproc cap); must precede the numpy import.

    On a shared 2-core x86 machine (OpenBLAS 0.3.31), two BLAS threads made
    decode_long's step time swing 17-26 % (quartile spread over ten seeds)
    against 4-7 % with one.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


class Tally:
    """Output checks: attempted and failed per kind; feeds error_rate."""

    def __init__(self):
        self.kinds: dict[str, list[int]] = {}

    def add(self, kind: str, attempted: int, failed: int) -> None:
        acc = self.kinds.setdefault(kind, [0, 0])
        acc[0] += attempted
        acc[1] += failed
        if failed:
            print(f"perfbench: check {kind} failed {failed} of {attempted}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())


def ref_child() -> None:
    """Child side of SpeedRef: one timed run of the reference work per line on stdin."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(1 << 20)
    q, v = rng.standard_normal((2, 1200, 32))
    causal = np.tril(np.ones((1200, 1200), dtype=bool))

    def work():
        for _ in range(3):
            y = np.exp(x * 0.5)
            np.where(y > 1.0, y, 0.0)
        s = np.where(causal, q @ q.T / 8.0, -np.inf)
        s = np.exp(s - s.max(axis=1, keepdims=True))
        (s / s.sum(axis=1, keepdims=True)) @ v

    work()  # warm-up, not timed
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        work()
        print(time.perf_counter() - t0, flush=True)


class SpeedRef:
    """Fixed numpy work, independent of dycoke, timed between passes.

    On a shared host the whole machine's speed drifts by ±20 % over minutes,
    so the median pass time of one run differs from the next by that much.
    The reference work (elementwise passes over fresh 8 MB arrays and one
    causal softmax over a 1200x1200 block, the kinds of work prefill and
    decode do) slows down with it. It runs in a child process, so it shares
    no memory or allocator state with the program and adds nothing to
    peak_rss_mb; the measuring process waits while it runs.
    """

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(HERE))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", REF_PROBE], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.times: list[float] = []
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("speed reference did not start")

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.times.append(float(self.proc.stdout.readline()))

    def keep_share(self, elapsed: float) -> None:
        """Sample until the reference has taken REF_SHARE of ``elapsed``."""
        while sum(self.times) < REF_SHARE * elapsed:
            self.sample()

    def __enter__(self) -> "SpeedRef":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


class Pass(NamedTuple):
    out: object  # workloads.PassOutput
    t0: float
    wall: float
    rec: object  # probe.Recorder


def run_pass(w, tracer=None, run: str = ""):
    import probe

    rec, patches = probe.Recorder(), probe.Patches()
    rec.install(patches)
    if tracer is not None:
        tracer.run = run
        tracer.install(patches)
    try:
        t0 = time.perf_counter()
        if tracer is None:
            out = w.run_pass()
        else:
            with tracer.span("bench.pass"):
                out = w.run_pass()
        wall = time.perf_counter() - t0
    finally:
        patches.undo()
    return Pass(out, t0, wall, rec)


def kv_bytes(cache) -> tuple[int, int, int]:
    """(active, parked, text+generated) K/V bytes over all layers, from array sizes."""
    active = parked = extra = 0
    extra_rows = cache.n_text + cache.generated_count()
    for layer in range(cache.layer_count):
        keys = cache.active_keys(layer)
        row = 2 * keys.shape[1] * keys.itemsize
        active += keys.shape[0] * row
        if not cache.frozen:
            parked += (cache.survivor_count - keys.shape[0]) * row
        extra += extra_rows * row
    return active, parked, extra


class Runner:
    def __init__(self, w, seed: int, tally: Tally, pins: dict):
        self.w, self.seed, self.tally = w, seed, tally
        self.pin = pins.get(w.name, {}).get(str(seed))
        self.first_report = None
        self.expected_survivors = None
        self.digests: set[str] = set()
        self.setups: list[float] = []
        self.ref_times: list[float] = []

    def measure(self, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
        """Closed-loop passes for ``seconds``; checked stats per pass as (untraced, traced).

        With a tracer, untraced and traced passes alternate, so both sample
        the same stretch of machine time; each kind gets at least MIN_PASSES.
        The SETUP_REPS set-up timings are spread evenly over the same stretch,
        so their median does not hang on one moment of the machine's speed,
        and so are the SpeedRef samples, taken after each pass.
        """
        kinds = (None,) if tracer is None else (None, tracer)
        stats: tuple[list[dict], list[dict]] = ([], [])
        start = time.perf_counter()
        deadline = start + seconds
        last, attempts = 0.0, 0
        with SpeedRef() as ref:
            while attempts < MIN_PASSES * len(kinds) or time.perf_counter() + last < deadline:
                if len(self.setups) < SETUP_REPS and time.perf_counter() - start >= len(self.setups) * seconds / SETUP_REPS:
                    self.setups.append(timed_setup(self.w))
                kind = attempts % len(kinds)
                attempts += 1
                tag = f"{'traced' if kind else 'pass'}-{attempts}"
                try:
                    p = run_pass(self.w, kinds[kind], tag)
                except Exception:
                    traceback.print_exc()
                    self.tally.add("pass", 1, 1)
                    continue
                self.tally.add("pass", 1, 0)
                last = p.wall
                stats[kind].append(self.check(p))
                ref.keep_share(time.perf_counter() - start)
            while len(ref.times) < MIN_REF_SAMPLES:
                ref.sample()
        self.ref_times = ref.times
        while len(self.setups) < SETUP_REPS:
            self.setups.append(timed_setup(self.w))
        return stats

    def check(self, p: Pass) -> dict:
        import checks

        w, rec, tally = self.w, p.rec, self.tally
        tally.add("invariants", len(rec.checks), sum(not ok for _, _, ok in rec.checks))
        cache = rec.primary()
        times = rec.step_times()
        decisions = rec.primary_decisions()
        tally.add("steps", 1, int(len(times) != w.steps or len(decisions) != w.steps))
        survivors = checks.encode(cache.token_ids, w.tpf)
        if self.expected_survivors is None:
            self.expected_survivors = checks.stage1_survivors(
                w.grid.data, w.frames, w.tpf, w.config.k_rate, w.config.window_len
            )
        tally.add("stage1", 1, int(not checks.np.array_equal(survivors, self.expected_survivors)))
        audits = [(s.scores, d.to_json()) for s, d in decisions]
        bad, steps, mass = checks.check_decisions(audits, survivors, w.config.p_rate, w.tpf)
        tally.add("stage2", len(audits), bad)
        readmitted = sum(len(r) for _, r, _ in steps)
        if p.out.readmitted_total is not None:
            tally.add("readmitted_total", 1, int(p.out.readmitted_total != readmitted))
        if self.first_report is None:
            self.first_report = p.out.report
        else:
            tally.add("report_repeats", 1, int(p.out.report != self.first_report))
        digest = checks.digest(survivors, p.out.decoded, steps, readmitted)
        self.digests.add(digest)
        if self.pin is not None:
            tally.add("digest", 1, int(digest != self.pin))
        kv = [kv_bytes(c) for c in rec.caches()]
        np = checks.np
        churn = [(len(r) + len(e)) / len(kept) for kept, r, e in steps[1:]]
        return {
            "wall": p.wall,
            "ttft": times[0] - p.t0,
            "itl": np.diff(times).tolist(),
            "rate": (len(times) - 1) / (times[-1] - times[0]),
            "mass": float(np.mean(mass)) if mass else 1.0,
            "active": sum(a for a, _, _ in kv),
            "parked": sum(b for _, b, _ in kv),
            "kv": sum(sum(x) for x in kv),
            "steps": len(times),
            "survivors": len(survivors),
            "readmitted": float(np.mean([len(r) for _, r, _ in steps[1:]])) if len(steps) > 1 else 0.0,
            "evicted": float(np.mean([len(e) for _, _, e in steps[1:]])) if len(steps) > 1 else 0.0,
            "churn": float(np.mean(churn)) if churn else 0.0,
        }


def summary(values, unit: str, value=None) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    import numpy as np

    values = np.asarray(values, dtype=np.float64)
    out = {"value": float(np.median(values)) if value is None else value, "unit": unit, "n": len(values)}
    for q in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = float(np.percentile(values, q))
            break
    return out


def end_to_end(stats: list[dict], setups: list[float], ref_times: list[float]) -> dict:
    import numpy as np

    itl_ms = [x * 1e3 for s in stats for x in s["itl"]]
    wall = summary([s["wall"] for s in stats], "s")
    ttft = summary([s["ttft"] * 1e3 for s in stats], "ms")
    setup = summary(setups, "s")
    ref = summary(ref_times, "s")
    scale = REF_NOMINAL_S / ref["value"]
    m = {
        "wall_norm_s": {"value": wall["value"] * scale, "unit": "s"},
        "ttft_norm_ms": {"value": ttft["value"] * scale, "unit": "ms"},
        "wall_s": wall,
        "ttft_ms": ttft,
        "speed_ref_s": ref,
        "itl_p50_ms": summary(itl_ms, "ms"),
        "itl_p90_ms": summary(itl_ms, "ms", float(np.percentile(itl_ms, 90))),
        "tok_per_s": summary([s["rate"] for s in stats], "1/s"),
        "peak_kv_bytes": {"value": max(s["kv"] for s in stats), "unit": "bytes", "computed": True},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "attn_mass_kept": summary([s["mass"] for s in stats], "ratio"),
        "setup_s": {"value": setup["value"] * scale, "unit": "s"},
        "setup_raw_s": setup,
    }
    return m


def per_layer(w, plain: list[dict], traced: list[dict], tracer, none_itl) -> tuple[dict, float]:
    import numpy as np
    import probe
    from dycoke import costmodel, dynkv
    from workloads import cost_ratios

    n_pass = len(traced)
    n_steps = sum(s["steps"] for s in traced)
    st = tracer.self_times("traced")

    def self_ms(*names, per):
        return sum(st[n][0] for n in names if n in st) * 1e3 / per

    def dur_ms(name, per):
        return st[name][1] * 1e3 / per if name in st else 0.0

    survivors = traced[0]["survivors"]
    quota = dynkv.retention_quota(survivors, w.config.p_rate)
    flops = costmodel.prefill_flops(costmodel.CostInputs(w.dims, survivors + w.text, w.steps, quota + w.text))
    prefill_ms = dur_ms("attention.prefill", n_pass)
    load_ms = dur_ms("trace.load_trace", n_pass)
    trace_bytes = os.path.getsize(w.path) if getattr(w, "path", None) else 0
    write_ms = [
        (end - start) * 1e3 for name, start, end, _, _ in tracer.spans if name == "trace.write_trace"
    ]
    plain_itl = [x for s in plain for x in s["itl"]]
    layers_only = sum(v[0] for n, v in st.items() if not n.startswith(probe.ORCHESTRATION))
    root = st["bench.pass"][1]
    flops_ratio, decode_ratio = cost_ratios(w)
    m = {
        "ttm.apply_ms": dur_ms("ttm.apply_ttm", n_pass),
        "ttm.tokens_removed": w.frames * w.tpf - survivors,
        "attention.prefill_ms": prefill_ms,
        "attention.prefill_qkv_ms": dur_ms("attention.project_qkv", n_pass),
        "attention.prefill_gflops_per_s": flops / prefill_ms / 1e6 if prefill_ms else 0.0,
        "attention.decode_eval_ms": self_ms("attention.decode_eval", per=n_steps),
        "attention.decode_pruned_ms": self_ms("attention.decode_pruned", per=n_steps),
        "attention.decode_proj_ffn_ms": self_ms("attention.decode_step", per=n_steps),
        "attention.select_ms": self_ms("attention.select_token", per=n_steps),
        "attention.keys_per_step": tracer.keys / n_steps,
        "attention.kv_bytes_per_step": tracer.kv_bytes / n_steps,
        "dynkv.decide_ms": self_ms("dynkv.initial_prune", "dynkv.dynamic_swap", per=n_steps),
        "dynkv.apply_ms": self_ms("dynkv.apply", per=n_steps),
        "dynkv.check_ms": self_ms("dynkv.check_invariants", per=n_steps),
        "dynkv.readmitted_per_step": float(np.mean([s["readmitted"] for s in traced])),
        "dynkv.evicted_per_step": float(np.mean([s["evicted"] for s in traced])),
        "dynkv.churn_ratio": float(np.mean([s["churn"] for s in traced])),
        "dynkv.active_bytes": max(s["active"] for s in traced),
        "dynkv.parked_bytes": max(s["parked"] for s in traced),
        "trace.write_ms": float(np.median(write_ms)) if write_ms else 0.0,
        "trace.load_ms": load_ms,
        "trace.bytes": trace_bytes,
        "trace.load_mb_per_s": trace_bytes / 1e3 / load_ms if load_ms else 0.0,
        "costmodel.flops_ratio": flops_ratio,
        "costmodel.decode_flops_ratio": decode_ratio,
        "simulate.decode_time_ratio": float(np.median(plain_itl) / np.median(none_itl)) if none_itl else 0.0,
        "simulate.self_ms": (root - layers_only) * 1e3 / n_pass,
        "bench.tracing_overhead_pct": (
            np.median([s["wall"] for s in traced]) / np.median([s["wall"] for s in plain]) - 1
        ) * 100,
    }
    span_sum_error = abs(sum(v[0] for v in st.values()) - root)
    return {k: {"value": float(v), "unit": LAYER_UNITS[k]} for k, v in m.items()}, span_sum_error


def timed_setup(w) -> float:
    """Seconds to import numpy and dycoke and set up ``w``'s inputs in a fresh interpreter.

    The CLI pays those imports too. A child process keeps the set-up's memory
    out of this process's peak RSS.
    """
    out_dir = OUT / "setup"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, w.name, str(w.seed), str(int(w.tiny)), str(out_dir)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def env_stamp(w, seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "dycoke").glob("*.py")):
        src.update(path.read_bytes())
    shape = {"frames": w.frames, "tokens_per_frame": w.tpf, "text_tokens": w.text, "steps": w.steps}
    shape.update(layers=w.dims.layers, hidden=w.dims.hidden, ffn_inner=w.dims.ffn_inner, heads=w.dims.heads)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "dtype": w.dtype,
        "shape": shape,
        "config": {"K": w.config.k_rate, "L": w.config.eval_layer, "P": w.config.p_rate},
        "seed": seed,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, pins=None) -> dict:
    """Set up, measure and check one workload; returns {"result": ..., "detail": ...}."""
    import numpy as np
    import probe
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    if pins is None:
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    w = WORKLOADS[name](seed, tiny=tiny)
    tally = Tally()
    tracer = probe.Tracer() if trace else None
    patches = probe.Patches()
    if tracer is not None:
        tracer.run = "setup"
        tracer.install(patches)
    try:
        w.setup(OUT)
    finally:
        patches.undo()
    rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    runner = Runner(w, seed, tally, pins)
    if runner.pin is None:
        print(f"perfbench: no digest pinned for {name} seed {seed}; digest check skipped", file=sys.stderr)
    detail: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    if not trace:
        plain, _ = runner.measure(seconds)
        if not plain:
            raise RuntimeError("every pass failed")
        metrics = end_to_end(plain, runner.setups, runner.ref_times)
    else:
        plain, traced = runner.measure(seconds, tracer)
        if not plain or not traced:
            raise RuntimeError("every pass failed")
        none_itl = []
        if hasattr(w, "run_none"):
            rec, patches = probe.Recorder(), probe.Patches()
            rec.install(patches)
            try:
                w.run_none(NONE_STEPS)
            finally:
                patches.undo()
            none_itl = np.diff(rec.step_times()).tolist()
        metrics, span_err = per_layer(w, plain, traced, tracer, none_itl)
        detail["span_sum_error_s"] = span_err
        detail["spans_self_ms"] = {
            k: {"self_ms": v[0] * 1e3, "count": v[2]} for k, v in sorted(tracer.self_times("traced").items())
        }
        detail["untraced_e2e"] = end_to_end(plain, runner.setups, runner.ref_times)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    detail.update(
        passes=len(plain),
        checks={k: {"attempted": a, "failed": f} for k, (a, f) in tally.kinds.items()},
        error_rate=tally.failed / max(1, tally.attempted),
        digest=sorted(runner.digests),
        pinned=runner.pin,
        rss_after_setup_mb=rss_setup_mb,
        metrics=metrics,
        env=env_stamp(w, seed),
    )
    if getattr(w, "path", None):
        os.remove(w.path)  # a run leaves only its reports behind
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items() if trace or k in GATED
        },
    }
    return {"result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("prefill_video", "decode_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "dycoke" / "__init__.py").is_file():
        print(f"perfbench: no dycoke sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import dycoke

    if Path(dycoke.__file__).resolve().parent != SRC / "dycoke":
        print(f"perfbench: imported dycoke from {dycoke.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps({"perfbench": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

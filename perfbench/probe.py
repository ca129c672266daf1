"""Wrappers the benchmark installs around dycoke's public functions.

``Recorder`` is installed on every measured pass. At each call of
``DualCache.check_invariants`` (every decode loop makes exactly one per
step) it reads the clock, which gives the step boundaries, and it
keeps references to each retention decision with the snapshot that drove it,
so decisions can be checked and scored after the pass. Inside the timed
region it does nothing else.

``Tracer`` is installed only in traced runs. It records one span (name,
start, end, parent, run id) around each public entry point of the ttm,
attention, dynkv, trace, costmodel and simulate modules. Spans stay in memory
and are written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Patches:
    """Replaces a function everywhere dycoke binds it; ``undo`` restores all."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        orig = getattr(owner, name)
        new = make(orig)
        if isinstance(owner, type):
            targets = [owner]
        else:
            # ``from .ttm import apply_ttm`` binds the function in other modules
            # too, so every dycoke module holding it gets the wrapper.
            targets = [
                mod
                for key, mod in list(sys.modules.items())
                if (key == "dycoke" or key.startswith("dycoke."))
                and getattr(mod, name, None) is orig
            ]
        for target in targets:
            self._undo.append((target, name, orig))
            setattr(target, name, new)

    def undo(self) -> None:
        while self._undo:
            target, name, orig = self._undo.pop()
            setattr(target, name, orig)


class Recorder:
    """Step clock and decision log for one pass."""

    def __init__(self):
        self.checks: list[tuple[object, float, bool]] = []  # (cache, time, ok)
        self.decisions: list[tuple[object, object, object]] = []  # (cache, snapshot, decision)

    def install(self, patches: Patches) -> None:
        from dycoke import dynkv

        def clock(orig):
            def check_invariants(cache, *args, **kwargs):
                ok = False
                try:
                    orig(cache, *args, **kwargs)
                    ok = True
                finally:
                    self.checks.append((cache, time.perf_counter(), ok))

            return check_invariants

        def keep(orig):
            def decide(snapshot, cache, *args, **kwargs):
                decision = orig(snapshot, cache, *args, **kwargs)
                self.decisions.append((cache, snapshot, decision))
                return decision

            return decide

        patches.wrap(dynkv.DualCache, "check_invariants", clock)
        patches.wrap(dynkv, "initial_prune", keep)
        patches.wrap(dynkv, "dynamic_swap", keep)

    def primary(self):
        """The cache the loop checks every step."""
        return self.checks[0][0] if self.checks else None

    def step_times(self) -> list[float]:
        cache = self.primary()
        return [t for c, t, _ in self.checks if c is cache]

    def primary_decisions(self) -> list[tuple[object, object]]:
        cache = self.primary()
        return [(s, d) for c, s, d in self.decisions if c is cache]

    def caches(self) -> list:
        seen: dict[int, object] = {}
        for cache, _, _ in self.decisions:
            seen.setdefault(id(cache), cache)
        return list(seen.values())


# Spans whose self time is orchestration rather than a layer's own work.
ORCHESTRATION = ("bench.", "simulate.")


class Tracer:
    """Span recorder. Each span is [name, start, end, parent index, run id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = ""
        self.keys = 0  # attention keys read in decode, summed over layers
        self.kv_bytes = 0  # bytes of those keys and values, from array sizes
        self._stack: list[int] = []
        self._layer = 0
        self._eval_layer = 0

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def install(self, patches: Patches) -> None:
        from dycoke import attention, costmodel, dynkv, simulate, trace, ttm

        def named(name):
            return lambda fn: self._span(name, fn)

        for mod, fn in (
            (simulate, "run_simulation"),
            (ttm, "apply_ttm"),
            (attention, "project_qkv"),
            (dynkv, "initial_prune"),
            (dynkv, "dynamic_swap"),
            (trace, "write_trace"),
            (trace, "load_trace"),
            (costmodel, "prefill_flops"),
            (costmodel, "decode_flops"),
            (costmodel, "total_flops"),
        ):
            patches.wrap(mod, fn, named(f"{mod.__name__.split('.')[-1]}.{fn}"))
        for cls, fn, name in (
            (attention.ToyDecoder, "__init__", "attention.init"),
            (attention.ToyDecoder, "prefill", "attention.prefill"),
            (attention.ToyDecoder, "forward_full", "attention.forward_full"),
            (attention.ToyDecoder, "select_token", "attention.select_token"),
            (dynkv.DualCache, "__init__", "dynkv.cache_init"),
            (dynkv.DualCache, "apply", "dynkv.apply"),
            (dynkv.DualCache, "check_invariants", "dynkv.check_invariants"),
        ):
            patches.wrap(cls, fn, named(name))
        patches.wrap(attention.ToyDecoder, "decode_step", self._decode_step)
        patches.wrap(attention, "attention_segments", self._segments)

    def _decode_step(self, fn):
        traced = self._span("attention.decode_step", fn)

        def decode_step(decoder, embedding, cache, *args, **kwargs):
            self._layer, self._eval_layer = 0, cache.eval_layer
            return traced(decoder, embedding, cache, *args, **kwargs)

        return decode_step

    def _segments(self, fn):
        # decode_step calls attention_segments once per layer, bottom up, so
        # the call count inside the current step is the layer index.
        at_eval = self._span("attention.decode_eval", fn)
        pruned = self._span("attention.decode_pruned", fn)

        def attention_segments(query, segments, *args, **kwargs):
            layer, self._layer = self._layer, self._layer + 1
            for k, v in segments:
                self.keys += k.shape[0]
                self.kv_bytes += k.nbytes + v.nbytes
            traced = at_eval if layer <= self._eval_layer else pruned
            return traced(query, segments, *args, **kwargs)

        return attention_segments

    def self_times(self, run_prefix: str) -> dict[str, list[float]]:
        """Per span name: [self seconds, duration seconds, count], over matching runs."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, run) in enumerate(self.spans):
            if not run.startswith(run_prefix):
                continue
            acc = out.setdefault(name, [0.0, 0.0, 0])
            acc[0] += end - start - child[i]
            acc[1] += end - start
            acc[2] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                fh.write(json.dumps(row) + "\n")

"""Output checks: brute-force oracles for both stages and the discrete-output digest.

Token ids are compared as integers ``frame * tokens_per_frame + position``,
so a check reads only what dycoke reports (``RetentionDecision.to_json``,
the cache's survivor ids) and not how it stores it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def encode(ids, tokens_per_frame: int) -> np.ndarray:
    """(frame, position) pairs -> sorted-order-preserving int64 codes."""
    pairs = np.asarray(list(ids), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0] * tokens_per_frame + pairs[:, 1]


def stage1_survivors(data: np.ndarray, frames: int, tpf: int, k_rate: float, window_len: int):
    """Codes of the tokens stage 1 keeps, recomputed from the paper's rule.

    In each window, an odd-offset frame is compared with the frame before it
    and an even-offset frame with the window's first frame; the
    floor(k_rate * tpf) most similar positions (ties: lower position first)
    are removed.
    """
    rows = data.astype(np.float64).reshape(frames, tpf, -1)
    norms = np.linalg.norm(rows, axis=2)
    quota = math.floor(k_rate * tpf + 1e-9)
    keep = np.ones((frames, tpf), dtype=bool)
    for first in range(0, frames, window_len):
        for frame in range(first + 1, min(first + window_len, frames)):
            ref = frame - 1 if (frame - first) % 2 == 1 else first
            denom = norms[frame] * norms[ref]
            ok = (norms[frame] >= 1e-12) & (norms[ref] >= 1e-12)
            sims = np.zeros(tpf)
            np.divide(np.einsum("ij,ij->i", rows[frame], rows[ref]), denom, out=sims, where=ok)
            sims = np.clip(sims, -1.0, 1.0)
            keep[frame, np.lexsort((np.arange(tpf), -sims))[:quota]] = False
    return np.flatnonzero(keep.reshape(-1))


def top_quota(scores: np.ndarray, codes: np.ndarray, p_rate: float) -> np.ndarray:
    """Sorted codes of the ceil((1 - p) * n) highest scores, ties to the lower id."""
    quota = max(0, math.ceil((1.0 - p_rate) * len(codes) - 1e-9))
    order = np.lexsort((np.arange(len(codes)), -np.asarray(scores, dtype=np.float64)))
    return np.sort(codes[order[:quota]])


def check_decisions(decisions, survivors: np.ndarray, p_rate: float, tpf: int):
    """Check each step's reported readmit/evict sets against the oracle.

    ``decisions`` is [(scores, decision JSON)] for one cache in step order.
    Returns (mismatching step count, [(retained, readmitted, evicted)] codes
    as reported, attention-mass-kept per step).
    """
    prev = survivors
    bad = 0
    steps, mass = [], []
    for scores, audit in decisions:
        readmitted = encode(audit["readmitted_ids"], tpf)
        evicted = encode(audit["evicted_ids"], tpf)
        retained = np.union1d(np.setdiff1d(prev, evicted), readmitted)
        expect = top_quota(scores, survivors, p_rate)
        if not (
            np.array_equal(retained, expect)
            and np.array_equal(readmitted, np.setdiff1d(expect, prev))
            and np.array_equal(evicted, np.setdiff1d(prev, expect))
            and audit["retained_count"] == len(expect)
        ):
            bad += 1
        kept = np.isin(survivors, retained)
        total = float(np.sum(scores))
        mass.append(float(np.sum(np.asarray(scores)[kept])) / total if total > 0 else 1.0)
        steps.append((retained, readmitted, evicted))
        prev = retained
    return bad, steps, mass


def digest(survivors, decoded, steps, readmitted_total: int) -> str:
    """Hash of the discrete outputs only; float bits are deliberately left out."""
    h = hashlib.sha256()
    h.update(np.asarray(survivors, dtype=np.int64).tobytes())
    h.update(np.asarray(decoded, dtype=np.int64).tobytes())
    for retained, readmitted, evicted in steps:
        for codes in (retained, readmitted, evicted):
            h.update(np.int64(len(codes)).tobytes())
            h.update(np.asarray(codes, dtype=np.int64).tobytes())
    h.update(np.int64(readmitted_total).tobytes())
    return h.hexdigest()[:16]

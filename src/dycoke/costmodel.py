"""Analytic FLOPs and retained-ratio accounting.

Per transformer layer the prefill phase costs 4nd^2 + 2n^2d + 2ndm FLOPs
(QKV + output projections, attention, FFN) and the decode phase costs
R(4d^2 + 2dm) + 2 * sum_{i=1..R} d*(n+i), where n is the context length the
cache holds during decode. All arithmetic is exact Python integers, so
reports are bit-reproducible; display helpers round to 3 significant digits
of tera-FLOPs. simulate, sweep and cost render every FLOPs figure from one
``RunFlops`` record: ``run_flops`` builds it from a run's token counts,
``modelled_flops`` at the idealized counts of ``retained_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import ModelDims
from .tokens import CompressionConfig


@dataclass(frozen=True)
class CostInputs:
    dims: ModelDims
    prompt_tokens: int  # n at prefill: retained visual + text
    decode_steps: int  # R
    active_tokens: int  # context length inside the decode attention term

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.active_tokens < 0:
            raise ValueError("token counts must be >= 0")
        if self.decode_steps < 1:
            raise ValueError(f"decode_steps must be >= 1, got {self.decode_steps}")


@dataclass(frozen=True)
class RunFlops:
    """One run's FLOPs: its prefill and decode, and the full-token run's of the same shape."""

    prefill: int
    decode: int
    full_prefill: int
    full_decode: int

    @property
    def total(self) -> int:
        return self.prefill + self.decode

    @property
    def full_total(self) -> int:
        return self.full_prefill + self.full_decode

    @property
    def ratio(self) -> float:
        return self.total / self.full_total

    def to_json(self) -> dict:
        """simulate's ``flops`` block."""
        return {
            "prefill": self.prefill,
            "decode": self.decode,
            "total": self.total,
            "total_tflops": tera(self.total),
            "full_total": self.full_total,
            "full_total_tflops": tera(self.full_total),
            "ratio_vs_full": self.ratio,
        }


def tera(flops: int) -> float:
    """FLOPs in tera, 3 significant digits."""
    if flops == 0:
        return 0.0
    return float(f"{flops / 1e12:.3g}")


def prefill_flops(inputs: CostInputs) -> int:
    n = inputs.prompt_tokens
    d = inputs.dims.hidden
    m = inputs.dims.ffn_inner
    return inputs.dims.layers * (4 * n * d * d + 2 * n * n * d + 2 * n * d * m)


def decode_flops(inputs: CostInputs) -> int:
    n = inputs.active_tokens
    d = inputs.dims.hidden
    m = inputs.dims.ffn_inner
    r = inputs.decode_steps
    per_layer = r * (4 * d * d + 2 * d * m) + 2 * (d * n * r + d * r * (r + 1) // 2)
    return inputs.dims.layers * per_layer


def total_flops(inputs: CostInputs) -> int:
    return prefill_flops(inputs) + decode_flops(inputs)


def run_flops(
    dims: ModelDims, n_visual: int, n_text: int, survivors: int, active: int, decode_steps: int
) -> RunFlops:
    """The FLOPs record of a run that keeps ``survivors`` of ``n_visual`` visual tokens.

    The compressed run prefills ``survivors`` visual tokens + text and decodes
    over ``active`` + text; the full run keeps all ``n_visual`` in both phases.
    """
    compressed = CostInputs(dims, survivors + n_text, decode_steps, active + n_text)
    full = CostInputs(dims, n_visual + n_text, decode_steps, n_visual + n_text)
    return RunFlops(prefill_flops(compressed), decode_flops(compressed),
                    prefill_flops(full), decode_flops(full))


def retained_ratio(config: CompressionConfig) -> tuple[float, float]:
    """Idealized (stage-1, final) retained fractions.

    Full windows of w frames prune w - 1 of them at k_rate, so stage 1 keeps
    1 - (w-1)/w * k_rate; stage 2 then keeps (1 - p_rate) of that.
    """
    stage1 = 1.0 - (config.window_len - 1) / config.window_len * config.k_rate
    return stage1, stage1 * (1.0 - config.p_rate)


def modelled_flops(config: CompressionConfig, dims: ModelDims, n_visual: int, n_text: int = 0,
                   decode_steps: int = 100) -> RunFlops:
    """The FLOPs record of an idealized run, at the counts ``retained_ratio`` gives.

    Stage 1 keeps ``round(stage1 * n_visual)`` visual tokens for prefill and
    stage 2 ``round(final * n_visual)`` for decode.
    """
    if n_visual < 0 or n_text < 0:
        raise ValueError(f"token counts must be >= 0, got n_visual={n_visual} n_text={n_text}")
    stage1, final = retained_ratio(config)
    return run_flops(
        dims, n_visual, n_text, round(stage1 * n_visual), round(final * n_visual), decode_steps
    )


def flops_ratio(config: CompressionConfig, dims: ModelDims, n_visual: int, n_text: int = 0,
                decode_steps: int = 100) -> float:
    """Compressed total FLOPs over full-token total FLOPs (see modelled_flops)."""
    return modelled_flops(config, dims, n_visual, n_text, decode_steps).ratio

"""Two-stage visual-token compression for video LLM inference, at desk scale.

Stage 1 merges temporally redundant visual tokens across frame windows
before the prompt is formed; stage 2 re-ranks the surviving tokens by
attention each decode step, keeping a fixed-quota active set and parking
the rest for possible readmission. A toy decoder, an analytic FLOPs model,
and a CLI harness tie the pieces together.
"""

__version__ = "0.1.0"

from .attention import (
    AttentionSnapshot,
    DimensionMismatch,
    EmptyKeySet,
    MODEL_PRESETS,
    ModelDims,
    ToyDecoder,
    project_qkv,
)
from .costmodel import (
    CostInputs,
    RunFlops,
    decode_flops,
    flops_ratio,
    prefill_flops,
    retained_ratio,
    total_flops,
)
from .dynkv import (
    DualCache,
    InvariantViolation,
    MissingParkedRow,
    RetentionDecision,
    dynamic_swap,
    initial_prune,
    one_shot_prune,
    random_prune,
    retention_quota,
)
from .simulate import RunSpec, run_bench, run_replay, run_simulation, run_sweep
from .tokens import (
    CompressionConfig,
    TextTokens,
    TokenId,
    VisualTokenGrid,
    synth_grid,
    synth_text,
)
from .trace import (
    BadMagic,
    MissingAttentionBlock,
    NonFiniteValue,
    TraceContents,
    TraceError,
    TruncatedPayload,
    VersionUnsupported,
    load_trace,
    write_trace,
)
from .ttm import (
    MergeRecord,
    TtmResult,
    apply_ttm,
    partition_windows,
    stage1_survivor_count,
)

"""2D-to-3D pose lifting head: tensor autodiff core, transformer blocks,
training loop, synthetic task, efficiency accounting, and a CLI."""

from .blocks import FFNParams, LinearParams, MHAParams
from .checkpoint import (ChecksumError, CheckpointError, FormatError,
                         load_checkpoint, read_tensors, save_checkpoint,
                         write_tensors)
from .efficiency import (deconv_head_flops, deconv_head_params,
                         efficiency_report, transformer_head_flops,
                         transformer_head_params)
from .model import (HeadConfig, HeadParams, NormalizationDegenerateError,
                    PoseOutput, encode_decode, forward, init_head,
                    pose_output_from_arrays)
from .synthetic import SyntheticGen, flatten_pose, generate, unflatten_pose
from .tensor import ShapeError, Tape, Tensor, backward
from .training import (AdamState, StepMetrics, TrainConfig, TrainResult,
                       TrainingAborted, adam_step, average_checkpoints,
                       evaluate, loss, lr_at, sample_patch_subset, train)

__all__ = [
    "AdamState", "ChecksumError", "CheckpointError", "FFNParams",
    "FormatError", "HeadConfig", "HeadParams", "LinearParams", "MHAParams",
    "NormalizationDegenerateError", "PoseOutput", "ShapeError",
    "StepMetrics", "SyntheticGen", "Tape", "Tensor", "TrainConfig",
    "TrainResult", "TrainingAborted", "adam_step", "average_checkpoints",
    "backward", "deconv_head_flops", "deconv_head_params", "efficiency_report",
    "encode_decode", "evaluate", "flatten_pose", "forward", "generate",
    "init_head", "load_checkpoint", "loss", "lr_at",
    "pose_output_from_arrays", "read_tensors", "sample_patch_subset",
    "save_checkpoint", "train", "transformer_head_flops",
    "transformer_head_params", "unflatten_pose", "write_tensors",
]

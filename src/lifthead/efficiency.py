"""Analytic parameter and FLOP accounting.

Compares the transformer lifting head against a conventional deconvolution
head (three stride-2 deconv layers plus a 1x1 conv emitting per-joint depth
heatmaps). The deconv baseline's widths are assumptions, not measurements;
they are echoed verbatim in the report so the comparison is auditable. GPU
memory and wall-clock claims are hardware-bound and explicitly not computed
here: counts are the desk-scale proxy.

FLOP accounting is matmul-dominant: a multiply-add counts as 2 ops
(2*m*k*n per matrix product, 2*k*k*c_in*c_out*H_out*W_out per conv layer);
softmax, normalization and activations are excluded (sub-1% at these shapes).
Head FLOPs are counted per sample. A batched forward computes less than
batch times that: its samples share block 0's template self-attention,
which runs once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .model import HeadConfig


@dataclass
class DeconvConfig:
    """Assumed deconvolution-head layout: in_channels -> channels[0..2] via
    kernel x kernel stride-2 deconvs (grid doubles per layer), then a 1x1
    conv to heatmap_joints * depth_bins output channels."""
    in_channels: int = 512
    channels: tuple[int, int, int] = (256, 256, 256)
    kernel: int = 4
    heatmap_joints: int = HeadConfig.n_joints
    depth_bins: int = 64
    grid: int = 8  # input spatial side; must match n_patches = grid**2

    def __post_init__(self):
        if len(self.channels) != 3:
            raise ValueError(f"expected 3 deconv layers, got {len(self.channels)}")
        for name in ("in_channels", "kernel", "heatmap_joints", "depth_bins", "grid"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def transformer_head_params(cfg: HeadConfig) -> int:
    """Exact learnable-parameter count of the lifting head."""
    d, h = cfg.d, cfg.h
    dk = d // h
    mha = h * 3 * (d * dk + dk) + (d * d + d)
    ln = 2 * d
    ffn = 3 * (d * d + d)
    block = 3 * mha + 3 * ln + 2 * ffn  # template stage has no FFN
    return ((cfg.c_in * d + d)                     # input projection
            + cfg.n_patches * d                    # position encoding
            + (cfg.n_joints * d + 3 * d)           # joint + type embeddings
            + cfg.L * block
            + (d + 1) * (cfg.kpt_width + cfg.twist_width + cfg.beta_dim))


def transformer_head_flops(cfg: HeadConfig) -> int:
    """Matmul FLOPs of one eval-mode forward pass (all patches)."""
    d, p, t = cfg.d, cfg.n_patches, cfg.n_templates

    def mha(nq, nk):
        # q/k/v projections + out projection: 4*(nq+nk)*d^2 total across
        # heads; score and weighted-value products: 4*nq*nk*d
        return 4 * d * d * (nq + nk) + 4 * nq * nk * d

    def ffn(rows):
        return 3 * 2 * rows * d * d

    block = mha(p, p) + mha(t, t) + mha(t, p) + ffn(p) + ffn(t)
    out = 2 * d * cfg.pose_dim
    return 2 * p * cfg.c_in * d + cfg.L * block + out


def deconv_head_params(dc: DeconvConfig) -> int:
    """Exact parameter count of the assumed deconvolution head."""
    total = 0
    c_prev = dc.in_channels
    for c in dc.channels:
        total += dc.kernel * dc.kernel * c_prev * c + c
        c_prev = c
    heat = dc.heatmap_joints * dc.depth_bins
    return total + (c_prev * heat + heat)


def deconv_head_flops(dc: DeconvConfig) -> int:
    """Conv FLOPs of one forward pass; spatial side doubles per deconv."""
    total = 0
    c_prev, side = dc.in_channels, dc.grid
    for c in dc.channels:
        side *= 2
        total += 2 * dc.kernel * dc.kernel * c_prev * c * side * side
        c_prev = c
    heat = dc.heatmap_joints * dc.depth_bins
    return total + 2 * c_prev * heat * side * side


@dataclass
class EfficiencyReport:
    transformer_head_params: int
    deconv_head_params: int
    param_ratio: float
    transformer_head_flops: int
    deconv_head_flops: int
    flop_ratio: float
    assumptions: list[tuple[str, Union[int, float, str]]] = field(default_factory=list)

    def to_text(self) -> str:
        """Stable key<TAB>value lines for diffing."""
        rows: list[tuple[str, Union[int, float, str]]] = [
            ("transformer_head_params", self.transformer_head_params),
            ("deconv_head_params", self.deconv_head_params),
            ("param_ratio", f"{self.param_ratio:.6f}"),
            ("transformer_head_flops", self.transformer_head_flops),
            ("deconv_head_flops", self.deconv_head_flops),
            ("flop_ratio", f"{self.flop_ratio:.6f}"),
        ]
        rows += [(f"assumption.{k}", v) for k, v in self.assumptions]
        rows += [
            ("note.flop_accounting",
             "multiply-add = 2 ops; softmax/norm/activation excluded"),
            ("note.gpu_memory", "not reproduced (hardware-bound)"),
            ("note.wall_clock", "not reproduced (hardware-bound)"),
            ("note.proxy", "parameter and FLOP counts are the desk-scale proxy"),
        ]
        return "".join(f"{k}\t{v}\n" for k, v in rows)


def efficiency_report(cfg: HeadConfig, dc: DeconvConfig) -> EfficiencyReport:
    tp = transformer_head_params(cfg)
    dp = deconv_head_params(dc)
    tf = transformer_head_flops(cfg)
    df = deconv_head_flops(dc)
    assumptions: list[tuple[str, Union[int, float, str]]] = [
        ("transformer.L", cfg.L), ("transformer.h", cfg.h),
        ("transformer.d", cfg.d), ("transformer.n_patches", cfg.n_patches),
        ("transformer.c_in", cfg.c_in), ("transformer.n_joints", cfg.n_joints),
        ("transformer.n_twists", cfg.n_twists), ("transformer.beta_dim", cfg.beta_dim),
        ("deconv.in_channels", dc.in_channels),
        ("deconv.channels", "x".join(str(c) for c in dc.channels)),
        ("deconv.kernel", dc.kernel),
        ("deconv.heatmap_joints", dc.heatmap_joints),
        ("deconv.depth_bins", dc.depth_bins),
        ("deconv.grid", dc.grid),
    ]
    return EfficiencyReport(
        transformer_head_params=tp, deconv_head_params=dp,
        param_ratio=tp / dp,
        transformer_head_flops=tf, deconv_head_flops=df,
        flop_ratio=tf / df,
        assumptions=assumptions,
    )

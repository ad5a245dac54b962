"""Analytic parameter and FLOP accounting.

Compares the transformer lifting head against a conventional deconvolution
head on the same backbone features: the head config's n_patches positions of
c_in channels go through three stride-2 deconv layers (each multiplies the
positions by 4), then a 1x1 conv emits n_joints depth heatmaps. The deconv
head's own widths (DECONV_CHANNELS, DECONV_KERNEL, DEPTH_BINS) are
assumptions, not measurements; they are echoed verbatim in the report so the
comparison is auditable. GPU memory and wall-clock claims are hardware-bound
and explicitly not computed here: counts are the desk-scale proxy.

FLOP accounting is matmul-dominant: a multiply-add counts as 2 ops
(2*m*k*n per matrix product, 2*k*k*c_in*c_out*positions_out per conv layer);
softmax, normalization and activations are excluded (sub-1% at these shapes).
Head FLOPs are counted per sample. A batched forward computes less than
batch times that: its samples share block 0's template self-attention,
which runs once per batch.
"""

from __future__ import annotations

from .model import HeadConfig

DECONV_CHANNELS = (256, 256, 256)  # output width of each stride-2 deconv
DECONV_KERNEL = 4
DEPTH_BINS = 64  # depth heatmap channels per joint


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


def deconv_head_params(cfg: HeadConfig) -> int:
    """Exact parameter count of the assumed deconvolution head on cfg's
    backbone features."""
    total = 0
    c_prev = cfg.c_in
    for c in DECONV_CHANNELS:
        total += DECONV_KERNEL * DECONV_KERNEL * c_prev * c + c
        c_prev = c
    heat = cfg.n_joints * DEPTH_BINS
    return total + (c_prev * heat + heat)


def deconv_head_flops(cfg: HeadConfig) -> int:
    """Conv FLOPs of one forward pass; each stride-2 deconv quadruples the
    positions."""
    total = 0
    c_prev, positions = cfg.c_in, cfg.n_patches
    for c in DECONV_CHANNELS:
        positions *= 4
        total += 2 * DECONV_KERNEL * DECONV_KERNEL * c_prev * c * positions
        c_prev = c
    heat = cfg.n_joints * DEPTH_BINS
    return total + 2 * c_prev * heat * positions


def efficiency_report(cfg: HeadConfig) -> str:
    """Both heads' counts and ratios, the architecture they assume and the
    notes, as stable key<TAB>value lines for diffing."""
    tp, dp = transformer_head_params(cfg), deconv_head_params(cfg)
    tf, df = transformer_head_flops(cfg), deconv_head_flops(cfg)
    rows = [
        ("transformer_head_params", tp), ("deconv_head_params", dp),
        ("param_ratio", f"{tp / dp:.6f}"),
        ("transformer_head_flops", tf), ("deconv_head_flops", df),
        ("flop_ratio", f"{tf / df:.6f}"),
    ]
    rows += [(f"assumption.transformer.{name}", getattr(cfg, name)) for name in
             ("L", "h", "d", "n_patches", "c_in", "n_joints", "n_twists", "beta_dim")]
    rows += [
        ("assumption.deconv.channels", "x".join(str(c) for c in DECONV_CHANNELS)),
        ("assumption.deconv.kernel", DECONV_KERNEL),
        ("assumption.deconv.depth_bins", DEPTH_BINS),
        ("note.flop_accounting",
         "multiply-add = 2 ops; softmax/norm/activation excluded"),
        ("note.gpu_memory", "not reproduced (hardware-bound)"),
        ("note.wall_clock", "not reproduced (hardware-bound)"),
        ("note.proxy", "parameter and FLOP counts are the desk-scale proxy"),
    ]
    return "".join(f"{k}\t{v}\n" for k, v in rows)

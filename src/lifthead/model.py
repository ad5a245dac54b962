"""The 2D-to-3D lifting head.

Per block, three stages run on interleaved streams: self-attention over the
projected 2D feature patches, self-attention over the output templates
(seeded from joint + output-type embeddings, and fed from the previous
block's decoder output), and cross-attention decoding templates against the
same block's encoded patches. Each stage applies residual add, layer norm,
then ReLU, in that order; the 2D encoder and the decoder end in a 3-layer
FFN while the template stage has none. There is one template row per output
(HeadConfig holds the layout), and the final embedding is projected row-wise
into 3D keypoints, unit-norm (cos, sin) twist pairs and a body shape vector.

A batch of B samples runs as one pass: both streams are (B*rows, d)
matrices, sample-major, and every stage takes the batch size to split them
by sample where attention needs it. The whole batch shares one patch subset.
Block 0's template stream is the same assembled rows for every sample, so
its template self-attention runs once per batch and is tiled to the samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from . import blocks as B
from . import tensor as T
from .blocks import FFNParams, LinearParams, MHAParams
from .tensor import ShapeError, Tensor

TWIST_NORM_FLOOR = 1e-8


class NormalizationDegenerateError(ValueError):
    """A twist projection collapsed to (near) zero length at eval time."""


@dataclass
class HeadConfig:
    """Architectural hyperparameters of the lifting head. The pose layout is
    HybrIK's, fixed by the kinematic tree: class constants, not fields."""
    n_joints: ClassVar[int] = 24
    n_twists: ClassVar[int] = n_joints - 1  # one per non-root joint
    beta_dim: ClassVar[int] = 10
    n_templates: ClassVar[int] = n_joints + n_twists + 1  # a row per output
    kpt_width: ClassVar[int] = 3    # (x, y, z) per keypoint
    twist_width: ClassVar[int] = 2  # (cos, sin) per twist
    # length of the pose flattened as keypoints, twists, shape
    pose_dim: ClassVar[int] = n_joints * kpt_width + n_twists * twist_width + beta_dim
    L: int = 6                # transformer blocks
    h: int = 8                # attention heads
    d: int = 512              # model width
    n_patches: int = 64       # source tokens (8x8 backbone grid)
    c_in: int = 512           # backbone channels per patch
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("L", "h", "d", "n_patches", "c_in"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d % self.h != 0:
            raise ValueError(f"width d={self.d} must be divisible by h={self.h} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


# (joint, type) of each template row: keypoint j on joint j, twist j on
# joint j + 1, the shape row on the root; types 0 keypoint, 1 twist, 2 shape
TEMPLATE_JOINTS = np.array([*range(HeadConfig.n_joints),
                            *(1 + j for j in range(HeadConfig.n_twists)), 0])
TEMPLATE_TYPES = np.array([0] * HeadConfig.n_joints + [1] * HeadConfig.n_twists + [2])


@dataclass
class LayerNormParams:
    gamma: Tensor  # (d,)
    beta: Tensor   # (d,)


@dataclass
class Templates:
    """Learnable embeddings seeding both transformer streams."""
    input_proj: LinearParams  # c_in -> d
    pos_enc: Tensor          # (n_patches, d)
    joint_emb: Tensor        # (n_joints, d)
    type_emb: Tensor         # (3, d): keypoint, twist, shape


@dataclass
class BlockParams:
    """One transformer block: 2D encoder, template encoder (no FFN), decoder."""
    mha_2d: MHAParams
    ln_2d: LayerNormParams
    ffn_2d: FFNParams
    mha_3d: MHAParams
    ln_3d: LayerNormParams
    mha_cross: MHAParams
    ln_cross: LayerNormParams
    ffn_3d: FFNParams


@dataclass
class HeadParams:
    templates: Templates
    blocks: list[BlockParams]
    proj_kpt: LinearParams    # d -> kpt_width
    proj_twist: LinearParams  # d -> twist_width
    proj_beta: LinearParams   # d -> beta_dim

    def named_parameters(self):
        return B.named_tensors(self)

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())


@dataclass
class PoseOutput:
    """Keypoints, (cos, sin) twist pairs and the shape vector, laid out as
    HeadConfig says; a batched forward puts a leading batch axis on each."""
    keypoints: Tensor  # ([B,] n_joints, 3)
    twists: Tensor     # ([B,] n_twists, 2), unit-norm rows
    beta: Tensor       # ([B,] beta_dim)


def _init_layer_norm(d: int, dtype) -> LayerNormParams:
    return LayerNormParams(
        gamma=Tensor(np.ones(d, dtype=dtype), requires_grad=True),
        beta=Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
    )


def allocate_head(cfg: HeadConfig, jobs: list, dtype=T.DEFAULT_DTYPE) -> HeadParams:
    """The head's parameters, drawing nothing: zero biases and betas, unit
    gammas, and np.empty embeddings and weights. Every weight's Xavier job
    is appended to jobs, in stage order, for blocks.fill_uniform; a loaded
    checkpoint (load_checkpoint) overwrites every value instead."""
    def empty(rows: int) -> Tensor:
        return Tensor(np.empty((rows, cfg.d), dtype=dtype), requires_grad=True)

    templates = Templates(B.init_params(cfg.c_in, cfg.d, jobs, dtype),
                          empty(cfg.n_patches), empty(cfg.n_joints), empty(3))
    blocks = [BlockParams(
        mha_2d=B.init_mha(cfg.d, cfg.h, jobs, dtype),
        ln_2d=_init_layer_norm(cfg.d, dtype),
        ffn_2d=B.init_ffn(cfg.d, jobs, dtype),
        mha_3d=B.init_mha(cfg.d, cfg.h, jobs, dtype),
        ln_3d=_init_layer_norm(cfg.d, dtype),
        mha_cross=B.init_mha(cfg.d, cfg.h, jobs, dtype),
        ln_cross=_init_layer_norm(cfg.d, dtype),
        ffn_3d=B.init_ffn(cfg.d, jobs, dtype),
    ) for _ in range(cfg.L)]
    return HeadParams(
        templates=templates,
        blocks=blocks,
        proj_kpt=B.init_params(cfg.d, cfg.kpt_width, jobs, dtype),
        proj_twist=B.init_params(cfg.d, cfg.twist_width, jobs, dtype),
        proj_beta=B.init_params(cfg.d, cfg.beta_dim, jobs, dtype),
    )


def init_head(cfg: HeadConfig, rng: np.random.Generator, dtype=T.DEFAULT_DTYPE) -> HeadParams:
    """Fresh parameters for every stage; deterministic for a given rng state:
    allocate_head's structure, the three normal embedding draws (joint,
    type, pos) on the caller, then every Xavier weight by one
    blocks.fill_uniform, which splits a paper-size head across the pool."""
    jobs: list = []
    params = allocate_head(cfg, jobs, dtype)
    t = params.templates
    for emb in (t.joint_emb, t.type_emb, t.pos_enc):
        # unit-variance rows after summation would swamp the streams; keep
        # O(1) activations with the usual 1/sqrt(d) embedding scale
        emb.data[...] = rng.standard_normal(emb.shape) / np.sqrt(cfg.d)
    B.fill_uniform(rng, jobs)
    return params


def embed_source(features: Tensor, t: Templates,
                 patch_indices: Optional[Sequence[int]] = None) -> Tensor:
    """Project backbone patches to width d and add the position encoding.

    features is (n_patches, c_in) for one sample or (B, n_patches, c_in);
    the result is (B*k, d), sample-major. With patch_indices set (training
    augmentation), only those k rows of every sample and of the position
    encoding participate; otherwise k = n_patches.
    """
    if features.data.ndim not in (2, 3):
        raise ShapeError(f"features must be (n_patches, c_in) or (B, n_patches, c_in), "
                         f"got {features.shape}")
    batch = features.shape[0] if features.data.ndim == 3 else 1
    n_patches, c_in = features.shape[-2:]
    if c_in != t.input_proj.weight.shape[0]:
        raise ShapeError(
            f"feature channels {features.shape} do not match input projection "
            f"{t.input_proj.weight.shape}")
    if n_patches != t.pos_enc.shape[0]:
        raise ShapeError(
            f"patch count {features.shape} does not match position encoding "
            f"{t.pos_enc.shape}")
    keep = np.arange(n_patches) if patch_indices is None else np.asarray(patch_indices, np.intp)
    rows = (np.arange(batch)[:, None] * n_patches + keep).reshape(-1)
    x = T.gather_rows(T.reshape(features, (batch * n_patches, c_in)), rows)
    return T.add(B.linear(t.input_proj, x), T.gather_rows(t.pos_enc, np.tile(keep, batch)))


def assemble_templates(t: Templates) -> Tensor:
    """(n_templates, d) matrix: each row is a joint embedding plus its
    output-type embedding (keypoint rows, then twist rows, then the shape
    row). Every sample's template stream starts from these rows."""
    return T.add(T.gather_rows(t.joint_emb, TEMPLATE_JOINTS),
                 T.gather_rows(t.type_emb, TEMPLATE_TYPES))


def _tile(x: Tensor, batch: int) -> Tensor:
    """batch copies of x's rows, sample-major, as one gather (also for
    batch 1, so the tape does not depend on the batch size)."""
    return T.gather_rows(x, np.tile(np.arange(x.shape[0]), batch))


def _stage(attn_out: Tensor, residual: Tensor, ln: LayerNormParams, *,
           dropout_p: float, rng) -> Tensor:
    """Dropout on the attention output, then residual add, layer norm, ReLU;
    the last three are one layer_norm tape entry."""
    attn_out = T.dropout(attn_out, dropout_p, rng)
    return T.layer_norm(attn_out, ln.gamma, ln.beta, residual=residual, relu=True)


def encode_2d_block(p: BlockParams, e_prev: Tensor, *, batch: int = 1,
                    dropout_p: float = 0.0, rng=None) -> Tensor:
    a = B.multi_head_attention(p.mha_2d, e_prev, e_prev, e_prev, batch=batch)
    b = _stage(a, e_prev, p.ln_2d, dropout_p=dropout_p, rng=rng)
    return B.feed_forward(p.ffn_2d, b, dropout_p=dropout_p, rng=rng)


def encode_templates_block(p: BlockParams, e_prev_3d: Tensor, *, batch: int = 1,
                           shared: Optional[Tensor] = None, dropout_p: float = 0.0,
                           rng=None) -> Tensor:
    """Template self-attention; this stage has no FFN.

    shared, when set, is the (n_templates, d) matrix that every sample's
    rows of e_prev_3d repeat (block 0's assembled templates). Attention acts
    on each sample alone, so it then runs once on shared and its output is
    tiled to the batch.
    """
    if shared is None:
        a = B.multi_head_attention(p.mha_3d, e_prev_3d, e_prev_3d, e_prev_3d, batch=batch)
    else:
        a = _tile(B.multi_head_attention(p.mha_3d, shared, shared, shared), batch)
    return _stage(a, e_prev_3d, p.ln_3d, dropout_p=dropout_p, rng=rng)


def decode_block(p: BlockParams, e_3d_t: Tensor, e_2d: Tensor, *, batch: int = 1,
                 dropout_p: float = 0.0, rng=None) -> Tensor:
    """Cross-attend templates (queries) against this block's encoded patches."""
    a = B.multi_head_attention(p.mha_cross, e_3d_t, e_2d, e_2d, batch=batch)
    b = _stage(a, e_3d_t, p.ln_cross, dropout_p=dropout_p, rng=rng)
    return B.feed_forward(p.ffn_3d, b, dropout_p=dropout_p, rng=rng)


def encode_decode(cfg: HeadConfig, params: HeadParams, features: Tensor, *,
                  training: bool = False, rng=None,
                  patch_indices: Optional[Sequence[int]] = None
                  ) -> tuple[Tensor, Tensor]:
    """Run all L blocks; returns the final (patch, template) embeddings as
    (B*k, d) and (B*n_templates, d) matrices, sample-major (B = 1 for
    unbatched features).

    The template stream of block l reads the decoder output of block l-1;
    the decoder of block l reads the 2D encoder output of the same block.
    Block 0's template stream is the same assembled rows for every sample,
    so its self-attention runs once per batch. This is the one place that
    turns training into a dropout probability: an eval forward runs every
    stage at dropout_p = 0.
    """
    dropout_p = cfg.dropout if training else 0.0
    if dropout_p > 0.0 and rng is None:
        raise ValueError("training-mode forward with dropout needs an rng")
    batch = features.shape[0] if features.data.ndim == 3 else 1
    kw = dict(batch=batch, dropout_p=dropout_p, rng=rng)
    e_2d = embed_source(features, params.templates, patch_indices)
    templates = assemble_templates(params.templates)
    e_3d = _tile(templates, batch)
    for i, blk in enumerate(params.blocks):
        e_2d = encode_2d_block(blk, e_2d, **kw)
        e_3d_t = encode_templates_block(blk, e_3d, shared=templates if i == 0 else None,
                                        **kw)
        e_3d = decode_block(blk, e_3d_t, e_2d, **kw)
    return e_2d, e_3d


def project_outputs(e_last: Tensor, proj_kpt: LinearParams, proj_twist: LinearParams,
                    proj_beta: LinearParams, *, training: bool = False,
                    batch: Optional[int] = None) -> PoseOutput:
    """Row-wise output projections of the final template embedding.

    e_last holds the template rows of one sample (batch None: unbatched
    outputs) or of batch samples, sample-major (outputs lead with batch).
    """
    lead = () if batch is None else (batch,)
    n_joints, n_twists = HeadConfig.n_joints, HeadConfig.n_twists
    starts = np.arange(batch or 1)[:, None] * HeadConfig.n_templates  # each sample's first row

    def rows(lo: int, hi: int) -> Tensor:
        return T.gather_rows(e_last, (starts + np.arange(lo, hi)).reshape(-1))

    kpt = B.linear(proj_kpt, rows(0, n_joints))
    twist_raw = B.linear(proj_twist, rows(n_joints, n_joints + n_twists))
    if not training:
        norms = np.sqrt((twist_raw.data ** 2).sum(axis=1))
        if (norms < TWIST_NORM_FLOOR).any():
            bad = int(np.argmin(norms))
            sample, row = divmod(bad, n_twists)
            raise NormalizationDegenerateError(
                f"sample {sample} twist row {row} has norm {norms[bad]:.3e} "
                f"< {TWIST_NORM_FLOOR}")
    twists = T.normalize_rows(twist_raw, eps=TWIST_NORM_FLOOR)
    beta = B.linear(proj_beta, rows(n_joints + n_twists, HeadConfig.n_templates))
    return PoseOutput(
        keypoints=T.reshape(kpt, lead + (n_joints, kpt.shape[1])),
        twists=T.reshape(twists, lead + (n_twists, twists.shape[1])),
        beta=T.reshape(beta, lead + (beta.shape[1],)))


def forward(cfg: HeadConfig, params: HeadParams, features: Tensor, *,
            training: bool = False, rng=None,
            patch_indices: Optional[Sequence[int]] = None) -> PoseOutput:
    """Full head: embed, encode/decode L blocks, project outputs.

    features of one sample, (n_patches, c_in), give unbatched outputs; a
    (B, n_patches, c_in) batch gives outputs with a leading batch axis.
    """
    _, e_3d = encode_decode(cfg, params, features, training=training, rng=rng,
                            patch_indices=patch_indices)
    batch = features.shape[0] if features.data.ndim == 3 else None
    return project_outputs(e_3d, params.proj_kpt, params.proj_twist, params.proj_beta,
                           training=training, batch=batch)


def pose_output_from_arrays(keypoints, twists, beta, dtype=T.DEFAULT_DTYPE) -> PoseOutput:
    """Wrap plain arrays as a (non-learnable) PoseOutput, e.g. training targets."""
    return PoseOutput(*(Tensor(a, dtype=dtype) for a in (keypoints, twists, beta)))

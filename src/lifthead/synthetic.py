"""Backbone-free synthetic pose data.

Ground-truth targets are sampled directly (keypoints, twist angles as
(cos, sin) pairs, shape vector), flattened to a 128-dim vector, and pushed
through a fixed full-rank random linear map into an n_patches x c_in feature
grid, plus optional Gaussian noise. Features are therefore an exact linear
function of the targets at noise zero, which makes near-zero training loss an
achievable goal and a meaningful health signal for the whole head.

The mixing map depends only on the feature shape (n_patches, c_in), so a
held-out split, which differs from its training split only in the seed,
draws fresh samples through the map the head was trained on. The map of the
shape last asked for is kept, read-only, and shared: a process that asks for
one shape draws it once, and one that changes shape frees the old map
before it draws the new one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HeadConfig, PoseOutput, pose_output_from_arrays
from .tensor import Tensor

N_JOINTS, N_TWISTS, BETA_DIM = HeadConfig.n_joints, HeadConfig.n_twists, HeadConfig.beta_dim
KPT_WIDTH, TWIST_WIDTH = HeadConfig.kpt_width, HeadConfig.twist_width
TARGET_DIM = HeadConfig.pose_dim
KEYPOINT_STD = 0.3  # spread of every sampled keypoint coordinate
FEATURE_CHUNK = 16  # samples per feature pass; bounds its float64 temporaries
MAP_ALIGN = 64  # bytes; the mixing map's data starts on such a boundary
_maps: dict[tuple[int, int], np.ndarray] = {}  # the last feature shape's map only


@dataclass(kw_only=True)
class SyntheticGen:
    """Deterministic generator configuration; same seed, same dataset. The
    seed picks the samples and the noise, not the mixing map. The feature
    shape has no default: it is the head's (HeadConfig.n_patches, c_in)."""
    seed: int = 0
    n_patches: int
    c_in: int
    noise_sigma: float = 0.01

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_patches < 1 or self.c_in < 1:
            raise ValueError("n_patches and c_in must be positive")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.n_patches * self.c_in < TARGET_DIM:
            raise ValueError(
                f"feature size {self.n_patches}x{self.c_in} cannot carry the "
                f"{TARGET_DIM}-dim target (mixing map would lose rank)")

    def mixing_map(self) -> np.ndarray:
        """The fixed (TARGET_DIM, n_patches*c_in) linear map of this feature
        shape, whatever the seed; read-only, and shared with every generator
        of the same shape while it is kept. Its data starts on a 64-byte
        boundary: generate's per-row products run at about half speed on a
        map the allocator happened to place 16, 32 or 48 bytes off one."""
        key = (self.n_patches, self.c_in)
        if key not in _maps:
            _maps.clear()  # free the old shape's map before the draw
            size = TARGET_DIM * self.n_patches * self.c_in
            buf = np.empty(size + MAP_ALIGN // 8)  # float64 data is 8-aligned at worst
            skip = -buf.ctypes.data % MAP_ALIGN // 8
            a = buf[skip:skip + size].reshape(TARGET_DIM, -1)
            # the same values as standard_normal((TARGET_DIM, size // TARGET_DIM))
            np.random.default_rng((0, 0xA11CE)).standard_normal(out=a)
            a /= np.sqrt(TARGET_DIM)
            a.flags.writeable = False
            _maps[key] = a
        return _maps[key]


def flatten_pose(pose: PoseOutput) -> np.ndarray:
    """Concatenate keypoints, twists, beta into one float64 vector."""
    return np.concatenate([t.data.reshape(-1) for t in (pose.keypoints, pose.twists, pose.beta)],
                          dtype=np.float64)


def unflatten_pose(vec: np.ndarray, dtype=np.float32) -> PoseOutput:
    vec = np.asarray(vec).reshape(-1)
    if vec.size != TARGET_DIM:
        raise ValueError(f"expected a {TARGET_DIM}-dim vector, got {vec.size}")
    k = N_JOINTS * KPT_WIDTH
    t = k + N_TWISTS * TWIST_WIDTH
    return pose_output_from_arrays(vec[:k].reshape(N_JOINTS, KPT_WIDTH),
                                   vec[k:t].reshape(N_TWISTS, TWIST_WIDTH),
                                   vec[t:], dtype=dtype)


def generate(n: int, gen: SyntheticGen) -> list[tuple[Tensor, PoseOutput]]:
    """n (features, target) pairs, as views of batched arrays. Only the target
    draws, which share one stream, run per sample; the bytes are a loop's.

    Targets are stored in float32 with twist rows re-normalized after the
    rounding, and the features are computed from those stored values, so the
    linear relation holds for the data exactly as the consumer sees it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mix = gen.mixing_map()
    rng = np.random.default_rng((gen.seed, 0xDA7A))
    draws = [(rng.normal(0.0, KEYPOINT_STD, size=(N_JOINTS, KPT_WIDTH)),
              rng.uniform(-np.pi, np.pi, size=N_TWISTS),
              rng.normal(0.0, 1.0, size=BETA_DIM)) for _ in range(n)]
    kpts, angles, betas = map(np.array, zip(*draws), (np.float32, np.float64, np.float32))
    twists = np.stack([np.cos(angles), np.sin(angles)], axis=2).astype(np.float32)
    twists /= np.linalg.norm(twists, axis=2, keepdims=True)
    flat = np.concatenate([kpts.reshape(n, -1), twists.reshape(n, -1), betas], axis=1,
                          dtype=np.float64)
    feats = np.empty((n, gen.n_patches, gen.c_in), dtype=np.float32)
    # separate stream so noise_sigma does not disturb the latent targets
    noise_rng = np.random.default_rng((gen.seed, 0x0153))
    for lo in range(0, n, FEATURE_CHUNK):
        # row by row, as a per-sample loop rounds it (one GEMM rounds otherwise)
        rows = np.matmul(flat[lo:lo + FEATURE_CHUNK, None, :], mix)[:, 0]
        if gen.noise_sigma > 0:  # one draw for many rows is one draw per row
            rows += noise_rng.normal(0.0, gen.noise_sigma, size=rows.shape)
        feats[lo:lo + FEATURE_CHUNK] = rows.reshape(-1, gen.n_patches, gen.c_in)
    return [(Tensor(f), PoseOutput(Tensor(k), Tensor(t), Tensor(b)))
            for f, k, t, b in zip(feats, kpts, twists, betas)]

"""Backbone-free synthetic pose data.

Ground-truth targets are sampled directly (keypoints, twist angles as
(cos, sin) pairs, shape vector), flattened to a 128-dim vector, and pushed
through a fixed full-rank random linear map into an n_patches x c_in feature
grid, plus optional Gaussian noise. Features are therefore an exact linear
function of the targets at noise zero, which makes near-zero training loss an
achievable goal and a meaningful health signal for the whole head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HeadConfig, PoseOutput, pose_output_from_arrays
from .tensor import Tensor

N_JOINTS, N_TWISTS, BETA_DIM = HeadConfig.n_joints, HeadConfig.n_twists, HeadConfig.beta_dim
KPT_WIDTH, TWIST_WIDTH = HeadConfig.kpt_width, HeadConfig.twist_width
TARGET_DIM = HeadConfig.pose_dim
KEYPOINT_STD = 0.3  # spread of every sampled keypoint coordinate


@dataclass
class SyntheticGen:
    """Deterministic generator configuration; same seed, same dataset."""
    seed: int = 0
    n_patches: int = 64
    c_in: int = 512
    noise_sigma: float = 0.01

    def __post_init__(self):
        if self.n_patches < 1 or self.c_in < 1:
            raise ValueError("n_patches and c_in must be positive")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.n_patches * self.c_in < TARGET_DIM:
            raise ValueError(
                f"feature size {self.n_patches}x{self.c_in} cannot carry the "
                f"{TARGET_DIM}-dim target (mixing map would lose rank)")

    def mixing_map(self) -> np.ndarray:
        """The fixed (TARGET_DIM, n_patches*c_in) linear map, seed-determined."""
        rng = np.random.default_rng((self.seed, 0xA11CE))
        a = rng.standard_normal((TARGET_DIM, self.n_patches * self.c_in))
        a /= np.sqrt(TARGET_DIM)
        return a


def flatten_pose(pose: PoseOutput) -> np.ndarray:
    """Concatenate keypoints, twists, beta into one float64 vector."""
    return np.concatenate([
        np.asarray(pose.keypoints.data, dtype=np.float64).reshape(-1),
        np.asarray(pose.twists.data, dtype=np.float64).reshape(-1),
        np.asarray(pose.beta.data, dtype=np.float64).reshape(-1),
    ])


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
    """n (features, target) pairs.

    Targets are stored in float32 with twist rows re-normalized after the
    rounding, and the features are computed from those stored values, so the
    linear relation holds for the data exactly as the consumer sees it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mix = gen.mixing_map()
    rng = np.random.default_rng((gen.seed, 0xDA7A))
    # separate stream so noise_sigma does not disturb the latent targets
    noise_rng = np.random.default_rng((gen.seed, 0x0153))
    out = []
    for _ in range(n):
        kpt = rng.normal(0.0, KEYPOINT_STD, size=(N_JOINTS, KPT_WIDTH)).astype(np.float32)
        angles = rng.uniform(-np.pi, np.pi, size=N_TWISTS)
        twists = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.float32)
        twists /= np.linalg.norm(twists, axis=1, keepdims=True)
        beta = rng.normal(0.0, 1.0, size=BETA_DIM).astype(np.float32)
        target = pose_output_from_arrays(kpt, twists, beta)
        flat = flatten_pose(target)
        feats = flat @ mix
        if gen.noise_sigma > 0:
            feats = feats + noise_rng.normal(0.0, gen.noise_sigma, size=feats.shape)
        features = Tensor(feats.reshape(gen.n_patches, gen.c_in).astype(np.float32))
        out.append((features, target))
    return out

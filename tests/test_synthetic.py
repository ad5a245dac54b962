"""Synthetic dataset tests: determinism, rank, and the linear-probe oracle
certifying the task carries full signal before any training happens."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lifthead import cli, synthetic
from lifthead.model import pose_output_from_arrays
from lifthead.synthetic import (BETA_DIM, KEYPOINT_STD, KPT_WIDTH, N_JOINTS, N_TWISTS,
                                TARGET_DIM, SyntheticGen, flatten_pose, generate,
                                unflatten_pose)
from lifthead.tensor import Tensor


def small_gen(**kw):
    base = dict(seed=0, n_patches=16, c_in=32, noise_sigma=0.0)
    base.update(kw)
    return SyntheticGen(**base)


class TestGeneratorBasics:
    def test_target_dim_is_128(self):
        assert TARGET_DIM == 24 * 3 + 23 * 2 + 10 == 128

    def test_shapes_and_dtypes(self):
        data = generate(3, small_gen())
        for features, target in data:
            assert features.shape == (16, 32)
            assert features.dtype == np.float32
            assert target.keypoints.shape == (24, 3)
            assert target.twists.shape == (23, 2)
            assert target.beta.shape == (10,)

    def test_same_seed_same_dataset(self):
        a = generate(5, small_gen())
        b = generate(5, small_gen())
        for (fa, ta), (fb, tb) in zip(a, b):
            np.testing.assert_array_equal(fa.data, fb.data)
            np.testing.assert_array_equal(ta.keypoints.data, tb.keypoints.data)
            np.testing.assert_array_equal(ta.twists.data, tb.twists.data)
            np.testing.assert_array_equal(ta.beta.data, tb.beta.data)

    def test_different_seeds_differ(self):
        a = generate(2, small_gen(seed=0))
        b = generate(2, small_gen(seed=1))
        assert not np.array_equal(a[0][0].data, b[0][0].data)

    def test_twist_targets_unit_norm(self):
        for _, target in generate(10, small_gen()):
            norms = np.linalg.norm(target.twists.data, axis=1)
            np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-6)

    def test_noise_leaves_targets_alone(self):
        clean = generate(4, small_gen(noise_sigma=0.0))
        noisy = generate(4, small_gen(noise_sigma=0.05))
        for (fc, tc), (fn, tn) in zip(clean, noisy):
            np.testing.assert_array_equal(tc.keypoints.data, tn.keypoints.data)
            assert not np.array_equal(fc.data, fn.data)

    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            generate(0, small_gen())
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sigma"):
                small_gen(noise_sigma=sigma)
        with pytest.raises(ValueError, match="rank"):
            SyntheticGen(n_patches=4, c_in=6)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            small_gen(seed=-1)

    def test_feature_shape_has_no_default(self):
        # the shape is the head's; a generator cannot quietly assume paper's
        with pytest.raises(TypeError, match="n_patches"):
            SyntheticGen(seed=0)
        with pytest.raises(TypeError):
            SyntheticGen(0, 16, 32)  # keyword-only

    @pytest.mark.parametrize("n_patches, c_in", [(1, TARGET_DIM), (TARGET_DIM, 1), (2, 64)])
    def test_smallest_accepted_feature_sizes(self, n_patches, c_in):
        """One patch, one channel, and exactly TARGET_DIM features are allowed."""
        g = small_gen(n_patches=n_patches, c_in=c_in)
        assert np.linalg.matrix_rank(g.mixing_map()) == TARGET_DIM
        assert generate(1, g)[0][0].shape == (n_patches, c_in)
        for bad in (dict(n_patches=0), dict(c_in=0)):
            with pytest.raises(ValueError, match="positive"):
                small_gen(**{"n_patches": n_patches, "c_in": c_in, **bad})


class TestMixingMap:
    def test_fixed_given_seed(self):
        g = small_gen()
        np.testing.assert_array_equal(g.mixing_map(), g.mixing_map())

    def test_full_rank_on_target_domain(self):
        assert np.linalg.matrix_rank(small_gen().mixing_map()) == TARGET_DIM

    def test_default_profile_full_rank(self):
        g = SyntheticGen(seed=3, n_patches=64, c_in=512)
        assert np.linalg.matrix_rank(g.mixing_map()) == TARGET_DIM

    def test_equal_keys_share_one_read_only_map(self):
        a = small_gen(seed=5).mixing_map()
        b = small_gen(seed=5, noise_sigma=0.5).mixing_map()  # noise is not in the key
        assert b is a
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0

    def test_a_new_shape_draws_again(self):
        a = small_gen(seed=5).mixing_map()
        assert small_gen(seed=6).mixing_map() is a  # the seed is not in the key
        for other in (small_gen(seed=5, n_patches=8), small_gen(seed=5, c_in=16)):
            b = other.mixing_map()
            assert b is not a
            assert b.shape == (TARGET_DIM, other.n_patches * other.c_in)
            assert not b.flags.writeable
        again = small_gen(seed=5).mixing_map()  # only the last shape's map is kept
        assert again is not a
        assert again.tobytes() == a.tobytes()

    def test_heldout_split_shares_the_training_map(self):
        train = small_gen(seed=3)
        held = dataclasses.replace(train, seed=3 + cli.HELDOUT_SEED_OFFSET)
        a = train.mixing_map()
        assert held.mixing_map() is a
        assert train.mixing_map() is a
        assert not a.flags.writeable

    @pytest.mark.parametrize("n_patches, c_in", [(16, 32), (64, 512), (1, TARGET_DIM)])
    def test_map_data_is_64_byte_aligned(self, n_patches, c_in):
        a = small_gen(n_patches=n_patches, c_in=c_in).mixing_map()
        assert a.ctypes.data % 64 == 0
        assert a.flags.c_contiguous

    def test_cached_bytes_equal_an_uncached_draw(self):
        g = small_gen(seed=7)
        g.mixing_map()  # fill the cache, then read it back
        rng = np.random.default_rng((0, 0xA11CE))  # one stream, whatever the seed
        drawn = rng.standard_normal((TARGET_DIM, 16 * 32))
        drawn /= np.sqrt(TARGET_DIM)
        assert g.mixing_map().tobytes() == drawn.tobytes()

    def test_tiny_train_then_eval_draws_the_map_once(self, monkeypatch, tmp_path):
        class CountingDict(dict):
            stores = 0

            def __setitem__(self, key, value):
                CountingDict.stores += 1
                super().__setitem__(key, value)

        monkeypatch.setattr(synthetic, "_maps", CountingDict())
        run = ["--profile", "tiny", "--n-samples", "4", "--eval-samples", "4",
               "--epochs", "1", "--batch-size", "4", "--avg-last-epochs", "1"]
        out = tmp_path / "run"
        assert cli.main(["train", *run, "--out", str(out)]) == 0
        assert cli.main(["eval", *run, "--checkpoint", str(out / "averaged.ckpt")]) == 0
        assert CountingDict.stores == 1
        assert list(synthetic._maps) == [(16, 32)]


class TestFlattening:
    def test_round_trip(self):
        _, target = generate(1, small_gen())[0]
        back = unflatten_pose(flatten_pose(target))
        np.testing.assert_array_equal(back.keypoints.data, target.keypoints.data)
        np.testing.assert_array_equal(back.twists.data, target.twists.data)
        np.testing.assert_array_equal(back.beta.data, target.beta.data)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="128"):
            unflatten_pose(np.zeros(100))


class TestLinearSignal:
    """With zero noise the features are an exact linear function of the
    targets, so a least-squares probe must recover them almost perfectly."""

    def test_features_linear_in_targets(self):
        data = generate(200, small_gen())
        v = np.stack([flatten_pose(t) for _, t in data])           # (200, 128)
        f = np.stack([x.data.reshape(-1).astype(np.float64) for x, _ in data])
        w, *_ = np.linalg.lstsq(v, f, rcond=None)
        residual = np.abs(v @ w - f).max()
        assert residual < 1e-6

    def test_probe_recovers_keypoints(self):
        data = generate(200, small_gen())
        v = np.stack([flatten_pose(t) for _, t in data])
        f = np.stack([x.data.reshape(-1).astype(np.float64) for x, _ in data])
        w, *_ = np.linalg.lstsq(f, v, rcond=None)
        pred = f @ w
        kpt_mse = np.mean((pred[:, :72] - v[:, :72]) ** 2)
        assert kpt_mse < 1e-6

    def test_heldout_split_measures_the_trained_task(self):
        """A probe fit on the training split predicts the held-out split,
        which only a shared mixing map makes possible."""
        def split(seed, n):
            data = generate(n, small_gen(seed=seed))
            f = np.stack([x.data.reshape(-1).astype(np.float64) for x, _ in data])
            return f, np.stack([flatten_pose(t) for _, t in data])

        f, v = split(0, 160)
        w, *_ = np.linalg.lstsq(f, v, rcond=None)
        f_held, v_held = split(cli.HELDOUT_SEED_OFFSET, 64)
        kpt_mse = np.mean((f_held @ w - v_held)[:, :N_JOINTS * KPT_WIDTH] ** 2)
        assert kpt_mse < 1e-10

    def test_noise_breaks_exact_linearity(self):
        data = generate(200, small_gen(noise_sigma=0.05))
        v = np.stack([flatten_pose(t) for _, t in data])
        f = np.stack([x.data.reshape(-1).astype(np.float64) for x, _ in data])
        w, *_ = np.linalg.lstsq(v, f, rcond=None)
        assert np.abs(v @ w - f).max() > 1e-3


def digest(data) -> str:
    """SHA-256 over every returned array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for features, target in data:
        for t in (features, target.keypoints, target.twists, target.beta):
            a = t.data
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# (seed, n_patches, c_in, n, noise_sigma, digest) of the per-sample loop that
# generate() replaced: the batched build must keep every stream and byte
GOLDEN = [
    (0, 16, 32, 1, 0.0, "8ab1380542b155aa35bccdb1aa095b556332ded60592ebb115b1f3198badaf1d"),
    (0, 16, 32, 1, 0.01, "a7bea77103fe03c9a003bdaf5d73b4a3d4d504860fd51f703259b548c7f173f3"),
    (0, 16, 32, 7, 0.0, "058266a0458b6294f73104ad1e7722ccc888dc2588a61c5cb8c40bc6567669b4"),
    (0, 16, 32, 7, 0.01, "fe1db3305d1f8d1d7b2e8fa134bded2db48eb0478e75e3b16ddb3ab47a7a8026"),
    (3, 16, 32, 1, 0.0, "0aaddc24cf045c56bd3fb18fe34415d9dfa63cbec0c0d01bb86f1d434b8cea62"),
    (3, 16, 32, 1, 0.01, "ad0714441c00559802fad7908f9af0600b68d85be8175af8ed7b0f968d67f427"),
    (3, 16, 32, 7, 0.0, "38bb157737d8a11a1c05f7a1bc41233c7f5c8209cf98e9c3c93239f142748013"),
    (3, 16, 32, 7, 0.01, "497e1af47356e723d349fb0b7980fe747ae8014a4eed4df0cc67978050cac3ac"),
    (0, 64, 512, 2, 0.01, "29bc4c5096a101259a2eb5b0df69489a56820ab496e31a7aedb0e24ec1ce9279"),
    (1, 64, 512, 64, 0.01, "54fd141475faa14dda7b9ff71a06ff87d663fe44b386b4bbaad2679662c8aae4"),
    # one float32 feature here differs if the rows go through one GEMM
    (24, 64, 512, 64, 0.01, "631a771755fe6a09cc3a8f64ec35f6d89e5b123574a0ce6e4ba84effedc842bb"),
]


def generate_per_sample(n, gen):
    """The reference: one sample at a time, each built from its own draws."""
    mix = gen.mixing_map()
    rng = np.random.default_rng((gen.seed, 0xDA7A))
    noise_rng = np.random.default_rng((gen.seed, 0x0153))
    out = []
    for _ in range(n):
        kpt = rng.normal(0.0, KEYPOINT_STD, size=(N_JOINTS, KPT_WIDTH)).astype(np.float32)
        angles = rng.uniform(-np.pi, np.pi, size=N_TWISTS)
        twists = np.stack([np.cos(angles), np.sin(angles)], axis=1).astype(np.float32)
        twists /= np.linalg.norm(twists, axis=1, keepdims=True)
        beta = rng.normal(0.0, 1.0, size=BETA_DIM).astype(np.float32)
        target = pose_output_from_arrays(kpt, twists, beta)
        feats = flatten_pose(target) @ mix
        if gen.noise_sigma > 0:
            feats = feats + noise_rng.normal(0.0, gen.noise_sigma, size=feats.shape)
        out.append((Tensor(feats.reshape(gen.n_patches, gen.c_in).astype(np.float32)), target))
    return out


class TestDataStream:
    @pytest.mark.parametrize("n_patches, c_in, n, sigma", [
        (16, 32, 1, 0.0), (16, 32, 40, 0.3), (64, 512, 20, 0.01)])
    def test_matches_per_sample_reference(self, n_patches, c_in, n, sigma):
        g = SyntheticGen(seed=5, n_patches=n_patches, c_in=c_in, noise_sigma=sigma)
        assert digest(generate(n, g)) == digest(generate_per_sample(n, g))

    @pytest.mark.parametrize("seed, n_patches, c_in, n, sigma, want", GOLDEN)
    def test_golden_digest(self, seed, n_patches, c_in, n, sigma, want):
        g = SyntheticGen(seed=seed, n_patches=n_patches, c_in=c_in, noise_sigma=sigma)
        assert digest(generate(n, g)) == want

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), data=st.data(),
           sigma=st.sampled_from([0.0, 0.01, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_prefix_of_a_longer_run(self, seed, n, data, sigma):
        """generate(k) is the first k samples of generate(n), k <= n."""
        k = data.draw(st.integers(1, n))
        g = small_gen(seed=seed, noise_sigma=sigma)
        assert digest(generate(k, g)) == digest(generate(n, g)[:k])

    def test_samples_own_disjoint_memory(self):
        data = generate(3, small_gen(noise_sigma=0.01))
        arrays = [t.data for f, p in data for t in (f, p.keypoints, p.twists, p.beta)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

"""Tensor core: primitive semantics, gradients against finite differences,
tape invariants."""

import ctypes
import inspect
import os
import re
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lifthead import gradcheck as G
from lifthead import tensor as T
from lifthead.gradcheck import check_op, numeric_grad, primitive_checks, rel_error


def t64(a, grad=False):
    return T.Tensor(np.asarray(a, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        m = T.matmul(t64(np.eye(2)), t64([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(m.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_shape_law(self):
        out = T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((3, 4))))
        assert out.shape == (2, 4)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 2))))

    def test_grad_matches_finite_differences(self):
        err = check_op(*primitive_checks(seed=3)["matmul"])
        assert err < 1e-6

    def test_batched_forms_match_numpy(self):
        rng = np.random.default_rng(0)
        a, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(2, 4, 5))
        np.testing.assert_array_equal(T.matmul(t64(a), t64(w)).data, a @ w)
        np.testing.assert_array_equal(T.matmul(t64(a), t64(b)).data, a @ b)

    def test_shared_matrix_gradient_sums_over_the_batch(self):
        rng = np.random.default_rng(1)
        a, w = t64(rng.normal(size=(2, 3, 4)), grad=True), t64(rng.normal(size=(4, 5)), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.matmul(a, w))
        T.backward(loss, tape)
        np.testing.assert_allclose(w.grad, sum(a.data[i].T @ np.ones((3, 5)) for i in range(2)),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a_shape, k", [
        ((688, 512), 512), ((768, 512), 512), ((2, 344, 512), 512), ((256, 32), 32)])
    def test_input_gradient_is_the_product_with_a_copied_transpose(self, a_shape, k):
        """The backward reads the weight through its transposed view; on the
        build the tiny digests were recorded with, that gives the bytes of
        the product with a contiguous copy, so the digests hold."""
        from test_training import PINNED_TINY_BUILD, blas_key
        rng = np.random.default_rng(k)
        a = T.Tensor(rng.standard_normal(a_shape, dtype=np.float32), requires_grad=True)
        w = T.Tensor(rng.standard_normal((k, k), dtype=np.float32), requires_grad=True)
        g = rng.standard_normal(a_shape[:-1] + (k,), dtype=np.float32)
        with T.Tape() as tape:
            T.matmul(a, w)
        da, dw = tape.entries[0].backward_fn(g)
        copied = g @ np.ascontiguousarray(w.data.T)
        np.testing.assert_allclose(da, copied, rtol=1e-5, atol=1e-4)
        assert dw.tobytes() == (a.data.reshape(-1, k).T @ g.reshape(-1, k)).tobytes()
        if blas_key()[0] != PINNED_TINY_BUILD:
            pytest.skip(f"the bytes were compared with numpy and BLAS {PINNED_TINY_BUILD}; "
                        f"this build is {blas_key()[0]}, whose kernels may round differently")
        assert da.tobytes() == copied.tobytes()

    def test_leading_dims_must_match(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
            T.matmul(t64(np.zeros((2, 3, 4))), t64(np.zeros((3, 4, 5))))
        with pytest.raises(T.ShapeError):
            T.matmul(t64(np.zeros((3, 4))), t64(np.zeros((2, 4, 5))))


class TestTranspose:
    def test_swapped_axes_transpose_matrix(self):
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(T.transpose(t64(x), (1, 0)).data, x.T)

    def test_axes_permutation_and_inverse_gradient(self):
        w = np.random.default_rng(2).normal(size=(4, 2, 3))
        for _ in range(2):  # the second call reads the cached inverse
            x = t64(np.arange(24.0).reshape(2, 3, 4), grad=True)
            with T.Tape() as tape:
                y = T.transpose(x, (2, 0, 1))
                loss = T.sum_(T.mul(y, t64(w)))
            np.testing.assert_array_equal(y.data, x.data.transpose(2, 0, 1))
            T.backward(loss, tape)
            np.testing.assert_array_equal(x.grad, w.transpose(1, 2, 0))

    def test_not_a_permutation(self):
        # (1, 0) is checked and cached for a matrix first: the check is keyed
        # by the number of axes too, so it stays a bad call on a 3-D tensor
        T.transpose(t64(np.zeros((2, 3))), (1, 0))
        cube = t64(np.zeros((2, 3, 4)))
        for axes in ((1, 0), (0, 0, 1), (0, 1, 3)):
            for _ in range(2):
                with pytest.raises(T.ShapeError, match="permutation"):
                    T.transpose(cube, axes)


class TestReshape:
    def test_wrong_size_and_minus_one_rejected(self):
        x = t64(np.zeros((2, 3)))
        assert T.reshape(x, (3, 2)).shape == (3, 2)
        for shape in ((4, 2), (-1, 3), (-1, 6)):
            with pytest.raises(T.ShapeError,
                               match=re.escape(f"reshape: cannot view (2, 3) as {shape}")):
                T.reshape(x, shape)


class TestSoftmaxRows:
    def test_zero_row_uniform(self):
        out = T.softmax_rows(t64(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, [[0.25] * 4], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5))
        a = T.softmax_rows(t64(x)).data
        b = T.softmax_rows(t64(x + 37.5)).data
        np.testing.assert_allclose(a, b, atol=1e-6)
        assert (a.argmax(axis=1) == b.argmax(axis=1)).all()

    def test_large_logit_stays_finite(self):
        out = T.softmax_rows(t64([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        # 64-bit oracle with max subtraction: exp(0)=1, exp(-1000) underflows
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)

    def test_last_axis_of_a_stack(self):
        x = np.random.default_rng(3).normal(size=(2, 3, 5))
        out = T.softmax_rows(t64(x)).data
        for i in range(2):
            np.testing.assert_array_equal(out[i], T.softmax_rows(t64(x[i])).data)

    @given(arrays(np.float64, (2, 6), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        out = T.softmax_rows(T.Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert (out.data >= 0).all()


class TestLayerNorm:
    def test_constant_row_zeros(self):
        x = t64(np.full((2, 4), 3.7))
        out = T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_already_normalized(self):
        out = T.layer_norm(t64([[1.0, -1.0]]), t64(np.ones(2)), t64(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_row_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 64))
        out = T.layer_norm(t64(x), t64(np.ones(64)), t64(np.zeros(64)), eps=1e-8)
        assert abs(out.data.mean()) < 1e-6
        assert abs(out.data.var() - 1.0) < 1e-4


class TestElementwiseAndStructural:
    def test_relu(self):
        out = T.relu(t64([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_concat_shape_law(self):
        h, m, d = 4, 3, 8
        parts = [t64(np.zeros((m, d // h))) for _ in range(h)]
        assert T.concat_last_dim(parts).shape == (m, d)

    def test_add_gradient_passthrough(self):
        a, b = t64(np.ones((2, 2)), grad=True), t64(np.ones((2, 2)), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.add(a, b))
        T.backward(loss, tape)
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(b.grad, np.ones((2, 2)))

    def test_add_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros((2, 2))), t64(np.zeros((3, 2))))
        with pytest.raises(T.ShapeError):  # no row-vector broadcast: matmul takes the bias
            T.add(t64(np.zeros((2, 3))), t64(np.zeros(3)))

    def test_slice_rows_values_and_grad(self):
        x = t64(np.arange(12.0).reshape(4, 3), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.slice_rows(x, 1, 3))
        T.backward(loss, tape)
        expected = np.zeros((4, 3))
        expected[1:3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_slice_rows_takes_any_nonempty_range_within_the_rows(self):
        x = t64(np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(T.slice_rows(x, 0, 4).data, x.data)
        for start, stop in ((2, 2), (-1, 2), (3, 5)):
            with pytest.raises(T.ShapeError, match=rf"\[{start}:{stop}\]"):
                T.slice_rows(x, start, stop)

    def test_gather_rows_repeats_accumulate(self):
        x = t64(np.eye(3), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.gather_rows(x, [0, 0, 2]))
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[2, 2, 2], [0, 0, 0], [1, 1, 1]])

    def test_gather_rows_index_equal_to_row_count_is_shape_error(self):
        with pytest.raises(T.ShapeError, match="out of range for 3 rows"):
            T.gather_rows(t64(np.zeros((3, 2))), [0, 3])

    def test_abs_gradient_is_zero_at_zero(self):
        x = t64([[-2.0, 0.0, -0.0, 3.0]], grad=True)
        with T.Tape() as tape:
            T.backward(T.sum_(T.mul(T.abs_(x), t64([[1.5, 2.0, 4.0, -1.0]]))), tape)
        np.testing.assert_array_equal(x.grad, [[-1.5, 0.0, 0.0, -1.0]])


class TestDropout:
    def test_p_zero_returns_input_without_drawing_or_recording(self):
        x = t64(np.arange(6.0).reshape(2, 3), grad=True)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with T.Tape() as tape:
            out = T.dropout(x, 0.0, rng)
        assert out is x
        assert tape.entries == []
        assert rng.bit_generator.state == before

    def test_invalid_probability(self):
        x = t64(np.zeros((2, 2)))
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="probability"):
                T.dropout(x, p, np.random.default_rng(0))

    def test_survivor_statistics(self):
        rng = np.random.default_rng(42)
        x = T.Tensor(np.ones((100, 1000)) * 2.0, dtype=np.float64)
        out = T.dropout(x, 0.1, rng)
        survivors = (out.data != 0).mean()
        assert abs(survivors - 0.9) < 0.01
        assert abs(out.data.mean() - x.data.mean()) / x.data.mean() < 0.02


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.zeros((3, 2)), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(x)
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_matmul_sum_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a_val, b_val = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, (4, 4))
        a, b = t64(a_val, grad=True), t64(b_val, grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.matmul(a, b))
        T.backward(loss, tape)

        num_a = numeric_grad(lambda v: (v @ b_val).sum(), a_val)
        num_b = numeric_grad(lambda v: (a_val @ v).sum(), b_val)
        assert rel_error(a.grad, num_a) < 1e-6
        assert rel_error(b.grad, num_b) < 1e-6

    def test_numeric_grad_perturbs_a_strided_view(self):
        # a transposed view is not contiguous: its reshape would be a copy
        a = np.arange(6.0).reshape(3, 2).T
        np.testing.assert_allclose(numeric_grad(lambda v: (v * v).sum(), a), 2 * a, atol=1e-8)
        np.testing.assert_allclose(numeric_grad(lambda v: (v * v).sum(), a, coords=[1, 3]),
                                   2 * a.flat[[1, 3]], atol=1e-8)
        np.testing.assert_array_equal(a, np.arange(6.0).reshape(3, 2).T)

    def test_non_scalar_loss_rejected(self):
        x = t64(np.zeros((2, 2)), grad=True)
        with T.Tape() as tape:
            y = T.relu(x)
        with pytest.raises(T.NonScalarLossError):
            T.backward(y, tape)

    def test_accumulation_is_exactly_double(self):
        # a tape is walked once, so the second pass records a tape of its own
        x = t64(np.arange(4.0).reshape(2, 2), grad=True)
        once = None
        for _ in range(2):
            with T.Tape() as tape:
                loss = T.sum_(T.scale(x, 3.0))
            T.backward(loss, tape)
            if once is None:
                once = x.grad.copy()
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_0d_leaf_gradient_stays_an_array(self):
        """scale's backward hands a 0-d leaf a numpy scalar, and so does the
        sum of two 0-d gradients; .grad keeps both as 0-d arrays."""
        x = T.Tensor(np.array(2.0, dtype=np.float32), requires_grad=True)
        for want in (3.0, 6.0):
            with T.Tape() as tape:
                loss = T.scale(x, 3.0)
            T.backward(loss, tape)
            assert type(x.grad) is np.ndarray
            assert x.grad.shape == () and x.grad.dtype == np.float32
            assert x.grad == want

    def test_backward_empties_the_tape(self):
        x = t64(np.arange(4.0).reshape(2, 2), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.mul(T.scale(x, 3.0), x))
        assert len(tape.entries) == 3
        T.backward(loss, tape)
        assert tape.entries == []

    def test_early_activation_is_freed_during_backward(self):
        # h's array is held only by the mul entry's closure; the sweep pops
        # that entry before it runs the first entry (scale), which runs last
        x = t64(np.arange(4.0).reshape(2, 2), grad=True)
        with T.Tape() as tape:
            h = T.scale(x, 2.0)
            loss = T.sum_(T.mul(h, h))
        h_alive = weakref.ref(h.data)
        del h
        assert h_alive() is not None
        first = tape.entries[0]
        run_first, seen = first.backward_fn, []

        def watched(g):
            seen.append(h_alive() is None)
            return run_first(g)

        first.backward_fn = watched
        del first
        T.backward(loss, tape)
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, 8.0 * x.data)

    def test_second_backward_on_a_walked_tape_raises(self):
        x = t64(np.arange(4.0).reshape(2, 2), grad=True)
        with T.Tape() as tape:
            loss = T.sum_(T.scale(x, 3.0))
        T.backward(loss, tape)
        once = x.grad.copy()
        with pytest.raises(RuntimeError, match="already walked"):
            T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, once)

    def test_reused_intermediate_accumulates(self):
        # y used twice: d(sum(y*y + y))/dx must see both paths
        x = t64([[0.5, -0.3]], grad=True)
        with T.Tape() as tape:
            y = T.scale(x, 2.0)
            loss = T.sum_(T.add(T.mul(y, y), y))
        T.backward(loss, tape)
        expected = 2.0 * (2.0 * 2.0 * x.data) + 2.0  # d/dx (4x^2 + 2x)
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)

    def test_no_tape_no_tracking(self):
        x = t64(np.ones((2, 2)), grad=True)
        y = T.relu(x)
        assert y._tape is None


class TestFiniteDifferenceContract:
    @pytest.mark.parametrize("name", sorted(primitive_checks(seed=11).keys()))
    def test_primitive(self, name):
        err = check_op(*primitive_checks(seed=11)[name])
        assert err < 1e-6, f"{name}: rel err {err:.3e}"

    def test_fault_injection_detected(self):
        err = check_op(*primitive_checks(seed=11)["matmul"], fault=0.01)
        assert err > 1e-6

    @pytest.mark.parametrize("c, want", [(0.5, 0.01 * 0.5), (2.0, 0.01 * 2.0 / 2.02)])
    def test_fault_multiplies_the_analytic_gradient(self, c, want):
        """The tape's gradient c of sum(c x) becomes c * 1.01; the error is
        0.01 c under rel_error's floor of 1, and 0.01 c / 1.01 c above it."""
        err = check_op(lambda t: T.sum_(T.scale(t[0], c)), [np.ones((2, 3))], fault=0.01)
        assert err == pytest.approx(want, rel=1e-6)

    def test_an_error_at_the_tolerance_fails(self, monkeypatch):
        monkeypatch.setattr(G, "check_op", lambda make_scalar, inputs: G.PRIMITIVE_TOLERANCE)
        assert not any(ok for _, _, ok in G.run_primitive_suite())

    @pytest.mark.parametrize("seed", [0, 11])
    def test_relu_and_abs_are_checked_on_both_sides_of_zero(self, seed):
        rows = primitive_checks(seed)
        for name in ("relu", "abs", "relu_dropout", "layer_norm_relu"):
            x = rows[name][1][0]
            assert (x < 0).any() and (x > 0).any(), name

    def test_scale_row_catches_a_dropped_sign(self, monkeypatch):
        """The scale row's factor is negative, so a backward that multiplies
        by its magnitude fails the row."""
        def unsigned_scale(x, c):
            return T._maybe_record(T.Tensor(x.data * c), (x,), lambda g: (g * abs(c),))

        monkeypatch.setattr(T, "scale", unsigned_scale)
        assert check_op(*primitive_checks()["scale"]) > 1e-6

    def test_every_primitive_has_a_row(self):
        """Every function of lifthead.tensor that defines a backward records
        a tape entry in at least one row of the table."""
        defining = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
                    if fn.__module__ == T.__name__
                    and any(isinstance(c, types.CodeType) and c.co_name == "bwd"
                            for c in fn.__code__.co_consts)}
        assert {"matmul", "layer_norm", "softmax_rows"} <= defining
        recorded = set()
        for make_scalar, inputs in primitive_checks().values():
            leaves = [t64(a, grad=True) for a in inputs]
            with T.Tape() as tape:
                make_scalar(leaves)
            recorded |= {e.backward_fn.__qualname__.split(".")[0] for e in tape.entries}
        assert defining <= recorded, f"no gradcheck row for {sorted(defining - recorded)}"


class TestDeterminism:
    def test_dropout_bit_identical_same_seed(self):
        x = T.Tensor(np.random.default_rng(1).normal(size=(8, 8)))
        a = T.dropout(x, 0.3, np.random.default_rng(99))
        b = T.dropout(x, 0.3, np.random.default_rng(99))
        np.testing.assert_array_equal(a.data, b.data)

    def test_ops_bit_identical_across_runs(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5))
        a = T.softmax_rows(T.Tensor(x)).data
        b = T.softmax_rows(T.Tensor(x)).data
        np.testing.assert_array_equal(a, b)


class TestNormalizeRows:
    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        out = T.normalize_rows(t64(rng.normal(size=(5, 2))))
        np.testing.assert_allclose((out.data ** 2).sum(axis=1), 1.0, atol=1e-12)

    def test_near_zero_row_epsilon_path(self):
        x = t64([[1e-12, 0.0]])
        out = T.normalize_rows(x, eps=1e-8)
        np.testing.assert_allclose(out.data, [[1e-4, 0.0]], atol=1e-18)

    def test_epsilon_branch_gradient(self):
        err = check_op(
            lambda t: T.sum_(T.normalize_rows(t[0], eps=1.0)),
            [np.array([[1e-3, -2e-3]])])
        assert err < 1e-6

    def test_small_norm_rows_gradient_is_g_over_eps(self):
        # one row under eps and one exactly at it (0.5 squared, summed and
        # rooted is exact); eps != 1, so g / eps differs from g * eps
        x = t64([[0.1, -0.2], [0.5, 0.0], [3.0, 4.0]], grad=True)
        g = np.array([[1.0, 2.0], [-3.0, 0.5], [1.0, 1.0]])
        with T.Tape() as tape:
            T.backward(T.sum_(T.mul(T.normalize_rows(x, eps=0.5), t64(g))), tape)
        np.testing.assert_array_equal(x.grad[:2], g[:2] / 0.5)


# The formulas the BLAS-sum and halving-max kernels replaced, kept as the
# reference: float32 results may round differently, float64 agrees to 1e-12.

def ref_softmax(x, g):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    return y, y * (g - (g * y).sum(axis=-1, keepdims=True))


def ref_layer_norm(x, gamma, beta, g, eps=1e-5):
    mu = x.mean(axis=1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gxhat = g * gamma
    dx = inv_std * (gxhat - gxhat.mean(axis=1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=1, keepdims=True))
    return xhat * gamma + beta, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def grads_of(fn, *arrays, dtype=np.float64):
    """Forward value and input gradients of fn under a random readout."""
    leaves = [T.Tensor(np.asarray(a, dtype=dtype), requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        out = fn(*leaves)
        w = np.random.default_rng(7).standard_normal(out.shape)
        T.backward(T.sum_(T.mul(out, T.Tensor(w, dtype=dtype))), tape)
    return out.data, w, [leaf.grad for leaf in leaves]


# both sides of _row_max's cut at 64 columns: a transposed max below it,
# folds in halves from it on
MAX_WIDTHS = (1, 2, 3, 5, 16, 43, 47, 48, 63, 64, 65, 128)
lead_dims = st.lists(st.integers(1, 4), min_size=0, max_size=3)


class TestFastKernels:
    @given(lead=lead_dims, w=st.sampled_from(MAX_WIDTHS), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_row_max_is_exact(self, lead, w, seed):
        x = np.random.default_rng(seed).standard_normal(tuple(lead) + (w,))
        for arr in (x, x.astype(np.float32)):
            got = T._row_max(arr)
            assert got.shape == arr.shape[:-1] + (1,)
            np.testing.assert_array_equal(got, arr.max(axis=-1, keepdims=True))

    def test_row_max_propagates_nan_and_rejects_empty(self):
        assert T._TRANSPOSED_MAX_BELOW == 64
        for w in (7, 63, 64, 65):
            for dtype in (np.float32, np.float64):
                x = np.zeros((3, w), dtype)
                x[1, w - 1] = np.nan  # at 65 the odd column, folded in at the first level
                x[2, 0] = np.nan
                got = T._row_max(x)
                assert np.isnan(got[1:]).all() and got[0, 0] == 0.0, w
        with pytest.raises(T.ShapeError, match="empty"):
            T._row_max(np.zeros((3, 0)))

    @pytest.mark.parametrize("w", [2, 5, 63, 64, 65])
    def test_signed_zero_max_gives_the_same_softmax_on_either_path(self, w, monkeypatch):
        # the transposed max and the folds may pick different zeros of a row
        # whose max is both -0.0 and +0.0; either shifts the row to the same
        # values, exp(-0.0) == exp(+0.0)
        x = -1.0 - np.abs(np.random.default_rng(w).standard_normal((4, w)))
        x[0, [0, -1]] = -0.0, 0.0
        x[1, [0, -1]] = 0.0, -0.0
        x[2, :] = -0.0
        x[2, w // 2] = 0.0
        x[3, :2] = -0.0, 0.0
        for dtype in (np.float32, np.float64):
            outs = []
            for cut in (1, 10 ** 6):  # every width folds; every width transposes
                monkeypatch.setattr(T, "_TRANSPOSED_MAX_BELOW", cut)
                outs.append(T.softmax_rows(T.Tensor(x, dtype=dtype)).data.tobytes())
            assert outs[0] == outs[1]

    @given(lead=lead_dims, w=st.sampled_from(MAX_WIDTHS), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_softmax_matches_reference_float64(self, lead, w, seed):
        x = 3.0 * np.random.default_rng(seed).standard_normal(tuple(lead) + (w,))
        y, w_out, (dx,) = grads_of(T.softmax_rows, x)
        ref_y, ref_dx = ref_softmax(x, w_out)
        np.testing.assert_allclose(y, ref_y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)

    @given(rows=st.integers(1, 40), n=st.integers(2, 70), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_layer_norm_matches_reference_float64(self, rows, n, seed):
        rng = np.random.default_rng(seed)
        x, gamma, beta = rng.standard_normal((rows, n)), rng.standard_normal(n), rng.standard_normal(n)
        out, w_out, (dx, dgamma, dbeta) = grads_of(T.layer_norm, x, gamma, beta)
        ref = ref_layer_norm(x, gamma, beta, w_out)
        for got, want in zip((out, dx, dgamma, dbeta), ref):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @given(lead=lead_dims, rows=st.integers(1, 40), n=st.integers(1, 70),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_bias_gradient_matches_reference_float64(self, lead, rows, n, seed):
        rng = np.random.default_rng(seed)
        x, w, bias = (rng.standard_normal(s) for s in (tuple(lead) + (rows, 3), (3, n), (n,)))
        out, w_out, (_, _, dbias) = grads_of(T.matmul, x, w, bias)
        np.testing.assert_array_equal(out, x @ w + bias)
        np.testing.assert_allclose(dbias, w_out.reshape(-1, n).sum(axis=0),
                                   rtol=1e-12, atol=1e-12)

    def test_relu_matches_where_and_propagates_nan(self):
        x = np.random.default_rng(0).standard_normal((64, 33)).astype(np.float32)
        np.testing.assert_array_equal(T.relu(T.Tensor(x)).data, np.where(x > 0, x, 0))
        x[3, 4] = np.nan
        out = T.relu(T.Tensor(x)).data
        assert np.isnan(out[3, 4]) and np.isnan(out).sum() == 1

    def test_softmax_nan_stays_in_its_row(self):
        x = np.zeros((3, 5))
        x[1, 2] = np.nan
        y = T.softmax_rows(t64(x)).data
        assert np.isnan(y[1]).all()
        np.testing.assert_array_equal(y[[0, 2]], np.full((2, 5), 0.2))

    @pytest.mark.parametrize("indices", [[0, 2, 3, 5], [4], [], [3, 1, 2], [2, 0, 2, 1],
                                         [1, 3, 3]])
    def test_gather_rows_backward_matches_add_at(self, indices):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        g = rng.standard_normal((len(indices), 4)).astype(np.float32)
        xt = T.Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            out = T.gather_rows(xt, indices)
            T.backward(T.sum_(T.mul(out, T.Tensor(g))), tape)
        want = np.zeros_like(x)
        np.add.at(want, np.asarray(indices, dtype=np.intp), g)
        np.testing.assert_array_equal(xt.grad, want)

    def test_relu_backward_mask_from_output(self):
        x = np.array([[np.nan, 0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, 1e-30]])
        g = np.arange(1.0, 9.0).reshape(1, -1)
        for dtype in (np.float32, np.float64):
            xt = T.Tensor(x, requires_grad=True, dtype=dtype)
            with T.Tape() as tape:
                T.backward(T.sum_(T.mul(T.relu(xt), T.Tensor(g, dtype=dtype))), tape)
            with np.errstate(invalid="ignore"):
                want = g.astype(dtype) * (x.astype(dtype) > 0)
            np.testing.assert_array_equal(xt.grad, want)
            assert want[0, :3].tolist() == [0, 0, 0] and want[0, 3] == 4

    def test_dropout_factor_bit_identical_to_float64_division(self):
        x = np.random.default_rng(2).standard_normal((32, 17)).astype(np.float32)
        for p in (0.1, 0.3, 0.5):
            out = T.dropout(T.Tensor(x), p, np.random.default_rng(5))
            keep = np.random.default_rng(5).random(x.shape) >= p
            np.testing.assert_array_equal(out.data, x * (keep / (1.0 - p)).astype(x.dtype))


def bias_add(x, bias):
    """The (m, n) + (n,) add that matmul's bias replaced: its bias gradient
    is the column sum."""
    out = T.Tensor(x.data + bias.data)
    return T._maybe_record(out, (x, bias), lambda g: (g, T._col_sums(g)))


class TestFoldedOps:
    """layer_norm's residual, softmax_rows' scale and matmul's bias equal the
    compositions they replace, add-then-norm, scale-then-softmax and
    product-then-bias-add, bit for bit, forward and backward."""

    @given(rows=st.integers(1, 40), k=st.integers(1, 33), n=st.integers(1, 49),
           seed=st.integers(0, 2**16), dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=60, deadline=None)
    def test_matmul_bias_is_product_then_bias_add(self, rows, k, n, seed, dtype):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s) for s in ((rows, k), (k, n), (n,))]
        folded = grads_of(T.matmul, *arrays, dtype=dtype)
        composed = grads_of(lambda x, w, b: bias_add(T.matmul(x, w), b), *arrays, dtype=dtype)
        assert folded[0].dtype == dtype
        np.testing.assert_array_equal(folded[0], composed[0])
        for got, want in zip(folded[2], composed[2]):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtypes", [(np.float32, np.float32, np.float64),
                                        (np.float32, np.float64, np.float32),
                                        (np.float64, np.float32, np.float32)])
    def test_matmul_bias_promotes_like_a_separate_add(self, dtypes):
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(s) for s in ((5, 4), (4, 3), (3,))]

        def run(fn):
            leaves = [T.Tensor(a, requires_grad=True, dtype=d) for a, d in zip(arrays, dtypes)]
            with T.Tape() as tape:
                out = fn(*leaves)
                T.backward(T.sum_(T.mul(out, T.Tensor(np.ones(out.shape), dtype=out.dtype))),
                           tape)
            return out.data, [leaf.grad for leaf in leaves]

        folded = run(T.matmul)
        composed = run(lambda x, w, b: bias_add(T.matmul(x, w), b))
        assert folded[0].dtype == composed[0].dtype == np.float64
        np.testing.assert_array_equal(folded[0], composed[0])
        for got, want in zip(folded[1], composed[1]):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_matmul_bias_shape_errors(self):
        x, w = t64(np.ones((2, 3))), t64(np.ones((3, 4)))
        for bad in (np.zeros(3), np.zeros(5), np.zeros((1, 4)), np.zeros((2, 4))):
            with pytest.raises(T.ShapeError, match="bias"):
                T.matmul(x, w, t64(bad))
        with pytest.raises(T.ShapeError, match="bias"):  # a stack of matrices takes no bias
            T.matmul(t64(np.ones((2, 2, 3))), t64(np.ones((2, 3, 4))), t64(np.zeros(4)))

    def test_matmul_returns_one_gradient_per_input(self):
        x, w = t64(np.ones((2, 3)), grad=True), t64(np.ones((3, 4)), grad=True)
        with T.Tape() as tape:
            T.matmul(x, w)
            T.matmul(x, w, t64(np.zeros(4), grad=True))
        for entry in tape.entries:
            assert len(entry.backward_fn(np.ones((2, 4)))) == len(entry.inputs)

    @given(rows=st.integers(1, 30), n=st.integers(2, 49), seed=st.integers(0, 2**16),
           dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=60, deadline=None)
    def test_layer_norm_residual_is_add_then_norm(self, rows, n, seed, dtype):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s) for s in ((rows, n), (n,), (n,), (rows, n))]
        folded = grads_of(lambda x, g, b, r: T.layer_norm(x, g, b, residual=r),
                          *arrays, dtype=dtype)
        composed = grads_of(lambda x, g, b, r: T.layer_norm(T.add(x, r), g, b),
                            *arrays, dtype=dtype)
        np.testing.assert_array_equal(folded[0], composed[0])
        for got, want in zip(folded[2], composed[2]):
            np.testing.assert_array_equal(got, want)

    @given(lead=lead_dims, w=st.sampled_from(MAX_WIDTHS), seed=st.integers(0, 2**16),
           c=st.sampled_from([1.0, 0.125, 1 / np.sqrt(512), 2.5, -0.7]),
           dtype=st.sampled_from([np.float64, np.float32]))
    @settings(max_examples=60, deadline=None)
    def test_scaled_softmax_is_scale_then_softmax(self, lead, w, seed, c, dtype):
        x = 3.0 * np.random.default_rng(seed).standard_normal(tuple(lead) + (w,))
        folded = grads_of(lambda t: T.softmax_rows(t, scale=c), x, dtype=dtype)
        composed = grads_of(lambda t: T.softmax_rows(T.scale(t, c)), x, dtype=dtype)
        np.testing.assert_array_equal(folded[0], composed[0])
        np.testing.assert_array_equal(folded[2][0], composed[2][0])

    def test_each_fold_is_one_tape_entry(self):
        x, r = t64(np.ones((2, 3)), grad=True), t64(np.zeros((2, 3)), grad=True)
        with T.Tape() as tape:
            T.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)), residual=r)
            T.softmax_rows(x, scale=0.5)
            T.matmul(x, t64(np.ones((3, 4))), t64(np.zeros(4)))
            T.layer_norm(x, t64(np.ones(3)), t64(np.zeros(3)), residual=r, relu=True)
            T.relu(x, 0.3, np.random.default_rng(0))
        assert len(tape.entries) == 5

    def test_layer_norm_returns_one_gradient_per_input(self):
        x, r = t64(np.ones((2, 3)), grad=True), t64(np.zeros((2, 3)), grad=True)
        gamma, beta = t64(np.ones(3), grad=True), t64(np.zeros(3), grad=True)
        with T.Tape() as tape:
            T.layer_norm(x, gamma, beta)
            T.layer_norm(x, gamma, beta, residual=r)
        for entry in tape.entries:
            assert len(entry.backward_fn(np.ones((2, 3)))) == len(entry.inputs)

    def test_residual_shape_must_match(self):
        with pytest.raises(T.ShapeError, match="residual"):
            T.layer_norm(t64(np.ones((2, 3))), t64(np.ones(3)), t64(np.zeros(3)),
                         residual=t64(np.ones((1, 3))))


# The parent forms that relu's dropout, layer_norm's relu and dropout's bool
# mask replaced, as they were: relu kept its output, dropout a float factor.

def parent_relu(x):
    y = np.maximum(x.data, 0)
    out = T.Tensor(y)

    def bwd(g):
        return (g * (y > 0),)

    return T._maybe_record(out, (x,), bwd)


def parent_dropout(x, p, rng):
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = rng.random(x.shape) >= p
    factor = keep * x.dtype.type(1.0 / (1.0 - p))
    out = T.Tensor(x.data * factor)

    def bwd(g):
        return (g * factor,)

    return T._maybe_record(out, (x,), bwd)


# 3.3e38 is finite in float32 but overflows once scaled by 1/(1-p), p >= 0.1
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 3.3e38, -3.3e38])


def with_specials(shape, seed, frac, dtype):
    """Standard normal values, a fraction frac of them replaced by signed
    zeros, NaN, infinities and values near float32's largest."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    holes = rng.random(shape) < frac
    x[holes] = rng.choice(SPECIALS, size=int(holes.sum()))
    return x.astype(dtype)


def run_bits(fn, arrays, g, seed):
    """Forward value, every input gradient and the generator state after
    fn(rng, *leaves), with g as the gradient of the output."""
    leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"), T.Tape() as tape:
        out = fn(rng, *leaves)
        T.backward(T.sum_(T.mul(out, T.Tensor(g))), tape)
    return [out.data] + [leaf.grad for leaf in leaves], rng.bit_generator.state


def assert_same_bits(got, want):
    (got_arrays, got_state), (want_arrays, want_state) = got, want
    assert len(got_arrays) == len(want_arrays)
    for a, b in zip(got_arrays, want_arrays):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got_state == want_state


shapes = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)
fracs = st.sampled_from([0.0, 0.05, 0.3, 1.0])
dtypes = st.sampled_from([np.float64, np.float32])


class TestMaskFolds:
    """relu with dropout, layer_norm with relu and dropout with a bool mask
    equal the parent forms bit for bit: forward, every gradient, and the
    generator state, with signed zeros, NaN and infinities in the inputs
    and the incoming gradient."""

    @given(shape=shapes, p=st.sampled_from([0.0, 0.1, 0.3, 0.5]), seed=st.integers(0, 2**16),
           frac=fracs, dtype=dtypes)
    @settings(max_examples=80, deadline=None)
    def test_relu_with_p_is_dropout_of_relu(self, shape, p, seed, frac, dtype):
        x = with_specials(shape, seed, frac, dtype)
        g = with_specials(shape, seed + 1, frac, dtype)
        got = run_bits(lambda rng, t: T.relu(t, p, rng), [x], g, seed)
        want = run_bits(lambda rng, t: parent_dropout(parent_relu(t), p, rng), [x], g, seed)
        assert_same_bits(got, want)

    @given(rows=st.integers(1, 12), n=st.integers(2, 33), residual=st.booleans(),
           seed=st.integers(0, 2**16), frac=fracs, dtype=dtypes)
    @settings(max_examples=80, deadline=None)
    def test_layer_norm_relu_is_relu_of_layer_norm(self, rows, n, residual, seed, frac,
                                                   dtype):
        inputs = [(rows, n), (n,), (n,)] + [(rows, n)] * residual
        arrays = [with_specials(s, seed + i, frac, dtype) for i, s in enumerate(inputs)]
        g = with_specials((rows, n), seed + 9, frac, dtype)

        def res(r):  # the residual keyword, if there is a residual
            return dict(zip(["residual"], r))

        got = run_bits(lambda rng, x, gm, bt, *r: T.layer_norm(x, gm, bt, relu=True, **res(r)),
                       arrays, g, seed)
        want = run_bits(lambda rng, x, gm, bt, *r: parent_relu(T.layer_norm(x, gm, bt, **res(r))),
                        arrays, g, seed)
        assert_same_bits(got, want)

    @given(shape=shapes, p=st.sampled_from([0.1, 0.3, 0.5, 0.9]), seed=st.integers(0, 2**16),
           frac=fracs, dtype=dtypes)
    @settings(max_examples=80, deadline=None)
    def test_bool_mask_dropout_is_factor_dropout(self, shape, p, seed, frac, dtype):
        x = with_specials(shape, seed, frac, dtype)
        g = with_specials(shape, seed + 1, frac, dtype)
        got = run_bits(lambda rng, t: T.dropout(t, p, rng), [x], g, seed)
        want = run_bits(lambda rng, t: parent_dropout(t, p, rng), [x], g, seed)
        assert_same_bits(got, want)

    def test_relu_rejects_a_bad_probability_without_drawing(self):
        x = t64(np.zeros((2, 2)))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="probability"):
                T.relu(x, p, rng)
        assert rng.bit_generator.state == before


# Run in a child process, whose heap nothing else has touched: the sizes
# from glibc's mallinfo2 around one 16 MiB allocation and its free.
HEAP_PROBE = """
import ctypes
import numpy as np
import lifthead

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.argtypes = ()
mallinfo2.restype = MallInfo2
before = mallinfo2()
block = np.ones(1 << 21)
held = mallinfo2()
del block
freed = mallinfo2()
print(before.hblkhd, held.hblkhd, held.uordblks - before.uordblks, held.arena, freed.arena)
"""


def test_heap_policy_holds():
    # mallopt's return value proves nothing: glibc also returns 1 for an
    # unknown parameter number. Under the policy a 16 MiB block comes from
    # the heap, not mmap, and freeing it hands nothing back to the kernel.
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("the C library has no mallinfo2 (glibc 2.33 or later has it)")
    src = os.path.dirname(os.path.dirname(T.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    mmapped_before, mmapped_held, heap_growth, arena_held, arena_freed = map(
        int, proc.stdout.split())
    assert mmapped_held == mmapped_before
    assert heap_growth >= 16 << 20
    assert arena_freed == arena_held

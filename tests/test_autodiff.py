"""Gradient checks for every differentiable op against central finite differences."""

import numpy as np
import pytest

from cellscape import autodiff as ad

from oracles import finite_difference_grads, relative_error

RNG = np.random.default_rng(20240817)


def check_op(build_loss, arrays, tol=1e-6, h=1e-5):
    """Compare analytic grads of ``build_loss(tensors)`` with finite differences."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(tensors)
    ad.backward(loss)

    def numeric_loss():
        fresh = [ad.Tensor(t.values, requires_grad=False) for t in tensors]
        return build_loss(fresh).item()

    fd = finite_difference_grads(numeric_loss, [t.values for t in tensors], h=h)
    for t, g in zip(tensors, fd):
        assert t.grad is not None
        assert relative_error(t.grad, g) < tol


class TestBasicOps:
    def test_sum_of_linear(self):
        w = ad.Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        loss = ad.tensor_sum(w)
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, np.ones(3))

    def test_sum_of_square(self):
        w = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = ad.tensor_sum(w * w)
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, [2.0, -4.0, 6.0])

    def test_add_broadcast(self):
        check_op(
            lambda ts: ad.tensor_sum((ts[0] + ts[1]) * (ts[0] + ts[1])),
            [RNG.standard_normal((4, 3)), RNG.standard_normal(3)],
        )

    def test_mul_div_power(self):
        check_op(
            lambda ts: ad.tensor_sum(ts[0] * ts[1] / (ts[1] * ts[1] + 2.0)),
            [RNG.standard_normal((3, 3)), RNG.standard_normal((3, 3)) + 3.0],
        )
        check_op(lambda ts: ad.tensor_sum(ts[0] ** 3), [RNG.standard_normal(5)])

    def test_matmul_transpose(self):
        check_op(
            lambda ts: ad.tensor_sum(ad.matmul(ts[0], ad.transpose(ts[1])) ** 2),
            [RNG.standard_normal((4, 3)), RNG.standard_normal((5, 3))],
        )

    def test_exp_log(self):
        check_op(
            lambda ts: ad.tensor_sum(ad.log(ad.exp(ts[0]) + 1.0)),
            [RNG.standard_normal((2, 6))],
        )

    def test_reductions_and_reshape(self):
        check_op(
            lambda ts: ad.tensor_sum(ad.tensor_sum(ad.reshape(ts[0], (6, 2)) ** 2, axis=0)
                                     * (1.0 / 6)),
            [RNG.standard_normal((3, 4))],
        )

    def test_concat_slice(self):
        def build(ts):
            joined = ad.concat([ts[0], ts[1]], axis=1)
            left = ad.slice_cols(joined, 0, 2)
            return ad.tensor_sum(left * left) + ad.tensor_sum(joined ** 3)

        check_op(build, [RNG.standard_normal((3, 2)), RNG.standard_normal((3, 4))])

    def test_gather_segment(self):
        idx = np.array([0, 2, 2, 1])
        seg = np.array([0, 0, 1, 1])

        def build(ts):
            rows = ad.gather_rows(ts[0], idx)
            pooled = ad.segment_sum(rows * rows, seg, 2)
            return ad.tensor_sum(pooled)

        check_op(build, [RNG.standard_normal((3, 4))])


class TestNonlinearities:
    def test_leaky_relu_elu(self):
        x = RNG.standard_normal((4, 4)) + 0.05  # keep clear of the kink
        check_op(lambda ts: ad.tensor_sum(ad.leaky_relu(ts[0], 0.2) ** 2), [x])
        check_op(lambda ts: ad.tensor_sum(ad.elu(ts[0]) ** 2), [x])

    def test_l2_normalize(self):
        x = RNG.standard_normal((5, 4)) + 1.0
        proj = RNG.standard_normal((5, 4))
        check_op(lambda ts: ad.tensor_sum(ad.l2_normalize_rows(ts[0]) * proj), [x])
        normed = ad.l2_normalize_rows(ad.Tensor(x))
        np.testing.assert_allclose(np.linalg.norm(normed.values, axis=1), 1.0, atol=1e-12)


class TestConvPoolNorm:
    def test_conv2d_hand_value(self):
        # single 3x3 kernel of ones over a one-hot 8x8 input, "same" padding
        x = np.zeros((1, 1, 8, 8))
        x[0, 0, 4, 4] = 1.0
        w = np.ones((1, 1, 3, 3))
        b = np.zeros(1)
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), padding="same")
        assert out.values.sum() == pytest.approx(9.0)
        pooled = ad.maxpool2(out)
        assert pooled.values.max() == pytest.approx(1.0)

    def test_conv2d_grad(self):
        x = RNG.standard_normal((2, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3)) * 0.5
        b = RNG.standard_normal(3) * 0.1
        proj = RNG.standard_normal((2, 3, 5, 5))

        def build(ts):
            out = ad.conv2d(ts[0], ts[1], ts[2], padding="same")
            return ad.tensor_sum(out * proj)

        check_op(build, [x, w, b])

    def test_conv2d_zero_padding_grad(self):
        x = RNG.standard_normal((1, 1, 6, 6))
        w = RNG.standard_normal((2, 1, 3, 3))
        b = np.zeros(2)

        def build(ts):
            out = ad.conv2d(ts[0], ts[1], ts[2], padding=0)
            return ad.tensor_sum(out ** 2)

        check_op(build, [x, w, b])

    def test_maxpool_grad(self):
        x = RNG.standard_normal((2, 2, 7, 7))  # odd size: margins dropped
        proj = RNG.standard_normal((2, 2, 3, 3))
        check_op(lambda ts: ad.tensor_sum(ad.maxpool2(ts[0]) * proj), [x], h=1e-6)

    def test_batch_norm_train_grad(self):
        x = RNG.standard_normal((6, 3, 4, 4))
        gamma = np.abs(RNG.standard_normal(3)) + 0.5
        beta = RNG.standard_normal(3)
        proj = RNG.standard_normal((6, 3, 4, 4))
        state = ad.BatchNormState(3)

        def build(ts):
            out = ad.batch_norm(ts[0], ts[1], ts[2], state, training=True, update_running=False)
            return ad.tensor_sum(out * proj)

        check_op(build, [x, gamma, beta], tol=1e-5)

    def test_batch_norm_eval_uses_running_stats(self):
        state = ad.BatchNormState(2)
        state.running_mean[:] = [1.0, -1.0]
        state.running_var[:] = [4.0, 9.0]
        x = np.array([[1.0, -1.0], [3.0, 2.0]])
        out = ad.batch_norm(
            ad.Tensor(x), ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), state, training=False
        )
        expected = (x - state.running_mean) / np.sqrt(state.running_var + state.eps)
        np.testing.assert_allclose(out.values, expected)

    def test_batch_norm_2d_grad(self):
        x = RNG.standard_normal((8, 5))
        gamma = np.ones(5)
        beta = np.zeros(5)
        state = ad.BatchNormState(5)
        proj = RNG.standard_normal((8, 5))

        def build(ts):
            out = ad.batch_norm(ts[0], ts[1], ts[2], state, training=True, update_running=False)
            return ad.tensor_sum(out * proj)

        check_op(build, [x, gamma, beta], tol=1e-5)


class TestBackwardContract:
    def test_non_scalar_loss_rejected(self):
        w = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(w * 2.0)

    def test_repeated_backward_rejected(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        loss = ad.tensor_sum(w * w)
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(loss)

    def test_grad_accumulates_through_shared_nodes(self):
        w = ad.Tensor(np.array([2.0]), requires_grad=True)
        shared = w * 3.0
        loss = ad.tensor_sum(shared * shared + shared)
        ad.backward(loss)
        # d/dw (9w^2 + 3w) = 18w + 3
        np.testing.assert_allclose(w.grad, [39.0])

    def test_consumed_gradients_freed_and_forward_reusable(self):
        rng = np.random.default_rng(3)
        x, w0 = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))

        def forward(w):
            h = ad.elu(ad.matmul(x, w))
            return ad.tensor_sum(h * h), ad.tensor_sum(ad.exp(h))

        def fresh_grad(which):
            w = ad.Tensor(w0.copy(), requires_grad=True)
            ad.backward(forward(w)[which])
            return w.grad

        w = ad.Tensor(w0.copy(), requires_grad=True)
        first, second = forward(w)
        ad.backward(first)
        nodes, stack = [], [first, second]
        while stack:
            node = stack.pop()
            if all(node is not seen for seen in nodes):
                nodes.append(node)
                stack.extend(node._parents)
        assert sum(node._backward_fn is not None for node in nodes) == 6
        for node in nodes:
            if node._backward_fn is not None:
                assert node.grad is None
        np.testing.assert_array_equal(w.grad, fresh_grad(0))
        # the second loss shares the first's forward graph
        ad.zero_grads([w])
        ad.backward(second)
        np.testing.assert_array_equal(w.grad, fresh_grad(1))

    def test_property_random_expressions(self):
        # composite expression exercising most ops together, 20 random draws
        for trial in range(20):
            rng = np.random.default_rng(trial)
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2))
            proj = rng.standard_normal((3, 2))

            def build(ts):
                h = ad.matmul(ts[0], ts[1])
                h = ad.elu(h)
                e = ad.exp(h)
                s = ad.div(e, ad.tensor_sum(e, axis=1, keepdims=True))
                return ad.tensor_sum(ad.log(s + 1.5) * proj)

            check_op(build, [a, b])

"""Gradient checks for every differentiable op against central finite differences."""

import tracemalloc

import numpy as np
import pytest

from cellscape import autodiff as ad
from cellscape.spatial_graph import build_knn_graph

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
        assert t.grad.shape == t.shape
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


def _held_after(call):
    """``call()``'s result and the bytes of traced memory it left allocated."""
    tracemalloc.start()
    try:
        out = call()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held


class TestNonlinearities:
    def test_leaky_relu_elu(self):
        x = RNG.standard_normal((4, 4)) + 0.05  # keep clear of the kink
        check_op(lambda ts: ad.tensor_sum(ad.leaky_relu(ts[0], 0.2) ** 2), [x])
        check_op(lambda ts: ad.tensor_sum(ad.elu(ts[0]) ** 2), [x])

    def test_elu_keeps_only_output_and_mask(self):
        # the backward reads exp(x) below 0 as output + 1, so the forward
        # keeps no exp(x) - 1 array beside its output and its sign mask
        x = RNG.standard_normal((400, 64))
        leaf = ad.Tensor(x, requires_grad=True)
        out, held = _held_after(lambda: ad.elu(leaf))
        np.testing.assert_array_equal(out.values, np.where(x > 0, x, np.expm1(x)))
        kept = out.values.nbytes + x.size          # float64 output, bool mask
        assert held < kept + 4096, (held, kept)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_gat_attention_keeps_only_weights_and_signs(self, masked):
        # each head's sparse matrix is built where a product needs it, so
        # the forward keeps only its output, the (E, heads) attention weights
        # and their scores' signs, besides the (heads, d) attention vectors
        # and a few hundred bytes of objects a node holds; handed a mask,
        # also the masked cells, whose projection rows it zeroes where it
        # builds them. Each head's sparse matrix would add 12 bytes a pair.
        n, heads, d = 400, 4, 16
        edges = build_knn_graph(RNG.random((2, n)), k=6).directed_edges()
        hw = ad.Tensor(RNG.standard_normal((n, heads * d)), requires_grad=True)
        a_c, a_n = (ad.Tensor(np.ascontiguousarray(v.T), requires_grad=True)
                    for v in RNG.standard_normal((2, heads, d)))
        cells = np.arange(0, n, 3) if masked else None
        # a first call fills numpy's and scipy's lazy caches
        ad.gat_attention(hw, None, a_c, a_n, edges, 0.2, False, masked=cells)
        out, held = _held_after(lambda: ad.gat_attention(
            hw, None, a_c, a_n, edges, 0.2, False, masked=cells))
        pairs = edges.dst.size
        # float64 output, weights and vectors, bool signs
        kept = out.values.nbytes + pairs * heads * 9 + 2 * heads * d * 8
        if masked:
            kept += cells.nbytes
        assert held < kept + 8192, (held, kept)

    def test_gat_attention_keeps_no_projection_or_pre_activation(self):
        # handed the layer input and W, the op computes the projection h @ W
        # again in its backward, and applies the ELU in place of its output:
        # it keeps what the projected form keeps plus the ELU's sign mask,
        # and neither the (n, heads * d) projection nor the pre-ELU output,
        # 204,800 bytes each here
        n, heads, d, f = 400, 4, 16, 32
        edges = build_knn_graph(RNG.random((2, n)), k=6).directed_edges()
        h = ad.Tensor(RNG.standard_normal((n, f)), requires_grad=True)
        W = ad.Tensor(RNG.standard_normal((f, heads * d)), requires_grad=True)
        a_c, a_n = (ad.Tensor(np.ascontiguousarray(v.T), requires_grad=True)
                    for v in RNG.standard_normal((2, heads, d)))
        cells = np.arange(0, n, 3)

        def attend():
            return ad.gat_attention(h, W, a_c, a_n, edges, 0.2, False, masked=cells,
                                    apply_elu=True)

        attend()                  # a first call fills numpy's and scipy's lazy caches
        out, held = _held_after(attend)
        pairs = edges.dst.size
        # float64 output, weights and vectors, bool signs and ELU mask, and
        # the masked cells
        kept = (out.values.nbytes + out.size + pairs * heads * 9 + 2 * heads * d * 8
                + cells.nbytes)
        assert held < kept + 8192, (held, kept)

    def test_sce_keeps_only_row_scalars(self):
        # the backward gathers the target rows from x again, so beside its
        # 0-d output the forward keeps five float64 scalars and a flag a
        # row; a (masked, p) array would add 307,200 bytes here
        n, m, p = 500, 150, 256
        x = RNG.standard_normal((n, p))
        rows = np.sort(RNG.choice(n, size=m, replace=False))
        x_hat = ad.Tensor(RNG.standard_normal((m, p)), requires_grad=True)
        ad.sce(x_hat, x, rows, 3.0)           # a first call fills numpy's lazy caches
        out, held = _held_after(lambda: ad.sce(x_hat, x, rows, 3.0))
        assert out.shape == ()
        kept = m * (5 * 8 + 1)
        assert held < kept + 4096, (held, kept)

    def test_conv_block_keeps_only_output_and_winners(self):
        # the winners' convolution is normalized in place in the pooled maps
        # and the gamma gradient is closed-form in the backward's patch
        # product, so beside its output, the pooled maps the head's gradient
        # reads and the int8 winners the forward keeps only the pooling
        # order's rows and columns, the patch mean, the (cout, 9 * cin)
        # co-moment, the channel statistics and the objects a node holds. A
        # float64 array of the pooled maps' size would add 819,200 bytes here
        n, cout, q, embed = 400, 4, 16, 8
        maps = RNG.standard_normal((n, 1, q, q))
        w, gamma, beta = (ad.Tensor(a, requires_grad=True) for a in (
            RNG.standard_normal((cout, 1, 3, 3)), RNG.random(cout) + 0.5,
            RNG.standard_normal(cout)))
        rng = np.random.default_rng(0)
        fc_w, fc_b = (ad.Tensor(a, requires_grad=True) for a in (
            rng.standard_normal((cout * (q // 2) ** 2, embed)), rng.standard_normal(embed)))
        # a first call fills numpy's lazy caches
        ad.conv_block(maps, w, gamma, beta, fc_w, fc_b)
        out, held = _held_after(lambda: ad.conv_block(maps, w, gamma, beta, fc_w, fc_b))
        # float64 output and pooled maps, int8 winners, the positions' rows
        # and columns
        pooled = n * cout * (q // 2) ** 2
        kept = out.values.nbytes + 9 * pooled + 2 * q * q * np.dtype(np.intp).itemsize
        assert held < kept + 16384, (held, kept)

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
        out = ad.conv2d(ad.Tensor(x), ad.Tensor(w))
        assert out.values.sum() == pytest.approx(9.0)
        pooled = ad.maxpool2(out)
        assert pooled.values.max() == pytest.approx(1.0)

    def test_conv2d_grad(self):
        x = RNG.standard_normal((2, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3)) * 0.5
        proj = RNG.standard_normal((2, 3, 5, 5))
        check_op(lambda ts: ad.tensor_sum(ad.conv2d(ts[0], ts[1]) * proj), [x, w])

    def test_maxpool_grad(self):
        x = RNG.standard_normal((2, 2, 7, 7))  # odd size: margins dropped
        proj = RNG.standard_normal((2, 2, 3, 3))
        check_op(lambda ts: ad.tensor_sum(ad.maxpool2(ts[0]) * proj), [x], h=1e-6)

    def test_batch_norm_train_grad(self):
        x = RNG.standard_normal((6, 3, 4, 4))
        gamma = np.abs(RNG.standard_normal(3)) + 0.5
        beta = RNG.standard_normal(3)
        proj = RNG.standard_normal((6, 3, 4, 4))
        check_op(lambda ts: ad.tensor_sum(ad.batch_norm(ts[0], ts[1], ts[2]) * proj),
                 [x, gamma, beta], tol=1e-5)


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
        w.grad = None  # taken off, as the training step takes it
        ad.backward(second)
        np.testing.assert_array_equal(w.grad, fresh_grad(1))

    def test_task_stacked_seed_gives_each_task_its_scalar_gradient(self):
        # a seed that sums two tasks' upstream gradients gives each leaf the
        # sum of the tasks' scalar gradients, as training's one walk of the
        # two losses' merged gradient does; the bias is added to every row
        rng = np.random.default_rng(4)
        x, w0, v0, b0 = (rng.standard_normal(s) for s in ((5, 4), (4, 3), (3, 2), (3,)))
        keep = np.array([[1.0], [0.0], [1.0], [1.0], [0.0]])
        upstream = rng.standard_normal((2, 5, 5))

        def forward():
            w, v, b = (ad.Tensor(a.copy(), requires_grad=True) for a in (w0, v0, b0))
            h = ad.elu(ad.matmul(x, w) + b) * keep
            joint = ad.concat([h, ad.matmul(h, v)], axis=1)
            return ad.reshape(ad.reshape(joint, (25,)), (5, 5)), (w, v, b)

        out, leaves = forward()
        ad.backward(out, upstream[0] + upstream[1])
        want = [np.zeros(leaf.shape) for leaf in leaves]
        for task in range(2):
            task_out, task_leaves = forward()
            ad.backward(ad.tensor_sum(task_out * upstream[task]))
            for total, single in zip(want, task_leaves):
                total += single.grad
        for seeded, total in zip(leaves, want):
            assert seeded.grad.shape == seeded.shape
            np.testing.assert_allclose(seeded.grad, total, rtol=1e-12, atol=1e-15)

    def test_task_stacked_seed_checked(self):
        w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        out = w * 2.0
        with pytest.raises(ValueError, match="seed"):
            ad.backward(out, np.ones((2, 3)))
        assert w.grad is None and not out._backward_done

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

"""Network layers, losses, and training-loop behavior on toy problems."""

import copy
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from cellscape import autodiff as ad
from cellscape import optim, training
from cellscape.autodiff import Tensor
from cellscape.dataset import ExpressionDataset
from cellscape.config import PipelineConfig
from cellscape.gene_map import mask_cells, render_maps
from cellscape.losses import contrastive_loss, neighbor_arrays, sce_loss
from cellscape.network import CellScapeModel, ModelConfig, gat_layer
from cellscape.pipeline import make_layout
from cellscape.preprocess import pearson_coexpression
from cellscape.spatial_graph import SpatialGraph, build_delaunay_graph, build_knn_graph
from cellscape.training import embed, train

from oracles import (composite_conv_block, composite_gat_layer, dense_contrastive_loss,
                     finite_difference_grads, loop_neighbor_lists, relative_error)

TOY_CFG = dict(
    gat_layers=2,
    attention_heads=2,
    hidden_dim=8,
    embed_dim=4,
    cnn_channels=(2,),
    tau=0.5,
    mask_ratio=0.3,
    learning_rate=1e-3,
)


def toy_dataset(n=20, p=16, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.poisson(3.0, size=(p, n)).astype(float) + rng.random((p, n))
    coords = rng.random((2, n))
    ds = ExpressionDataset(
        X=X,
        coords=coords,
        gene_names=[f"g{i}" for i in range(p)],
        cell_ids=[f"c{j}" for j in range(n)],
    )
    graph = build_knn_graph(coords, k=3)
    layout = make_layout(pearson_coexpression(ds), PipelineConfig(seed=seed))
    return ds, graph, layout


def embed_inputs(ds, graph, layout):
    """The features, maps and directed edges ``train`` prepares for ``embed``."""
    return np.ascontiguousarray(ds.X.T), render_maps(ds.X, layout), graph.directed_edges()


class TestGatLayer:
    def _path_graph(self):
        return SpatialGraph(3, np.array([[0, 1], [1, 2]]), np.ones(2))

    def test_attention_rows_sum_to_one(self):
        # the last input column is all ones and W carries it alone to the last
        # output column, which no score reads: that output is each receiver's
        # sum of attention weights
        rng = np.random.default_rng(0)
        g = build_knn_graph(rng.random((2, 10)), k=2)
        h = np.hstack([rng.standard_normal((10, 5)), np.ones((10, 1))])
        W = np.zeros((6, 8))                  # two heads of width 4
        W[:5, [0, 1, 2, 4, 5, 6]] = rng.standard_normal((5, 6))
        W[5, [3, 7]] = 1.0
        a_c = rng.standard_normal((2, 4, 1))
        a_n = rng.standard_normal((2, 4, 1))
        a_c[:, 3] = a_n[:, 3] = 0.0
        for average in (True, False):
            out = gat_layer(Tensor(h), g.directed_edges(), Tensor(W),
                            [Tensor(a) for a in a_c], [Tensor(a) for a in a_n], 0.2, average)
            sums = out.values[:, 3::4]
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert np.ptp(out.values[:, :3]) > 0.1  # the other columns do vary

    def test_identical_features_uniform_attention(self):
        # identical rows: every node's output is the shared projected row
        g = self._path_graph()
        rng = np.random.default_rng(1)
        W = rng.standard_normal((4, 3))
        a_c = [Tensor(rng.standard_normal((3, 1)))]
        a_n = [Tensor(rng.standard_normal((3, 1)))]
        row = rng.standard_normal(4)
        out = gat_layer(Tensor(np.tile(row, (3, 1))), g.directed_edges(), Tensor(W), a_c, a_n,
                        0.2, True)
        np.testing.assert_allclose(out.values, np.tile(row @ W, (3, 1)), rtol=1e-12)

    def test_hand_computed_scalar_attention(self):
        # path 0-1-2, h=(0,1,2), W=1, scores e_ij = h_i + h_j, self-loops on
        g = self._path_graph()
        out = gat_layer(
            Tensor(np.array([[0.0], [1.0], [2.0]])), g.directed_edges(),
            Tensor(np.array([[1.0]])),
            [Tensor(np.array([[1.0]]))],
            [Tensor(np.array([[1.0]]))],
            0.2, average=True,
        )
        e = np.exp(1.0)
        expected = (e**2 + 2 * e**3) / (e + e**2 + e**3)
        assert out.values[1, 0] == pytest.approx(expected, rel=1e-12)


def _attention_graph(kind: str) -> SpatialGraph:
    rng = np.random.default_rng(21)
    if kind == "knn":
        return build_knn_graph(rng.random((2, 30)), k=3)
    if kind == "self-loops only":
        return SpatialGraph(6, np.empty((0, 2), dtype=np.int64), np.empty(0))
    if kind == "isolated node":
        g = build_knn_graph(rng.random((2, 12)), k=2)
        return SpatialGraph(13, g.edges, g.weights)
    if kind == "hub":
        spokes = [(0, j) for j in range(1, 25)]
        return SpatialGraph(25, np.array(spokes + [(3, 4), (7, 9)]), np.ones(26))
    if kind == "several chunks":
        g = build_knn_graph(rng.random((2, 1600)), k=4)
        assert g.directed_edges().dst.size > 3 * ad._EDGE_CHUNK
        return g
    raise ValueError(kind)


def _attention_inputs(n, heads, head_dim, seed, in_dim=5):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, in_dim)),
            rng.standard_normal((in_dim, heads * head_dim)),
            [rng.standard_normal((head_dim, 1)) for _ in range(heads)],
            [rng.standard_normal((head_dim, 1)) for _ in range(heads)])


def _attention_pass(layer, graph, arrays, average, weights):
    """Value of ``layer`` and the gradients of sum(out * weights) with
    respect to h, W and every attention vector."""
    h, W, a_c, a_n = arrays
    h = Tensor(h.copy(), requires_grad=True)
    W = Tensor(W.copy(), requires_grad=True)
    a_c = [Tensor(a.copy(), requires_grad=True) for a in a_c]
    a_n = [Tensor(a.copy(), requires_grad=True) for a in a_n]
    if layer == "fused":
        out = gat_layer(h, graph.directed_edges(), W, a_c, a_n, 0.2, average)
    else:
        edges = graph.directed_edges()
        out = composite_gat_layer(h, edges.dst, edges.src, graph.n_nodes, W, a_c, a_n,
                                  a_c[0].shape[0], 0.2, average)
    ad.backward(ad.tensor_sum(out * weights))
    return [out.values, h.grad, W.grad, *(a.grad for a in a_c), *(a.grad for a in a_n)]


class TestGatAttentionOracle:
    """The fused op against the head-by-head composite of generic ops."""

    @pytest.mark.parametrize("kind", ["knn", "self-loops only", "isolated node", "hub",
                                      "several chunks"])
    @pytest.mark.parametrize("average", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_values_and_gradients_match_composite(self, kind, heads, average):
        graph = _attention_graph(kind)
        arrays = _attention_inputs(graph.n_nodes, heads, 3, seed=heads)
        out_width = 3 if average else 3 * heads
        weights = np.random.default_rng(5).standard_normal((graph.n_nodes, out_width))
        fused = _attention_pass("fused", graph, arrays, average, weights)
        reference = _attention_pass("composite", graph, arrays, average, weights)
        # relative to each array's largest entry: single entries can cancel
        for got, want in zip(fused, reference):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("average", [False, True])
    def test_gradients_match_finite_differences(self, average):
        graph = _attention_graph("isolated node")
        arrays = _attention_inputs(graph.n_nodes, 2, 3, seed=11, in_dim=4)
        h, W, a_c, a_n = arrays
        weights = np.random.default_rng(6).standard_normal((graph.n_nodes, 3 if average else 6))
        edges = graph.directed_edges()

        def loss():
            out = gat_layer(Tensor(h), edges, Tensor(W), [Tensor(a) for a in a_c],
                            [Tensor(a) for a in a_n], 0.2, average)
            return float((out.values * weights).sum())

        analytic = _attention_pass("fused", graph, arrays, average, weights)[1:]
        numeric = finite_difference_grads(loss, [h, W, *a_c, *a_n], h=1e-5)
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-7

    def test_edge_score_backward_stays_within_a_chunk(self):
        # a decoder-shaped layer (one head, wide output): the backward may
        # hold chunk x width and n x width buffers, never an E x width one
        import tracemalloc

        graph = build_knn_graph(np.random.default_rng(3).random((2, 2000)), k=10)
        edges = graph.directed_edges()
        n, width = graph.n_nodes, 64
        rng = np.random.default_rng(4)
        W = Tensor(rng.standard_normal((8, width)), requires_grad=True)
        a_c = [Tensor(rng.standard_normal((width, 1)), requires_grad=True)]
        a_n = [Tensor(rng.standard_normal((width, 1)), requires_grad=True)]
        out = gat_layer(Tensor(rng.standard_normal((n, 8))), edges, W, a_c, a_n, 0.2, True)
        loss = ad.tensor_sum(out * rng.standard_normal((n, width)))
        edge_by_width = edges.dst.size * width * 8
        assert edges.dst.size > 4 * ad._EDGE_CHUNK
        tracemalloc.start()
        try:
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < edge_by_width


class TestCnnEncoder:
    def test_zero_maps_zero_embedding(self):
        cfg = ModelConfig(seed=0, **TOY_CFG)
        model = CellScapeModel(16, 4, cfg)
        z = model.encode_intrinsic(np.zeros((6, 4, 4)), training=True)
        np.testing.assert_allclose(z.values, 0.0, atol=1e-12)

    def test_batch_permutation_equivariance(self):
        cfg = ModelConfig(seed=1, **TOY_CFG)
        model = CellScapeModel(16, 4, cfg)
        rng = np.random.default_rng(2)
        maps = rng.random((8, 4, 4))
        perm = rng.permutation(8)
        z = model.encode_intrinsic(maps, training=True).values
        zp = model.encode_intrinsic(maps[perm], training=True).values
        np.testing.assert_allclose(zp, z[perm], atol=1e-12)

    def test_small_grid_rejected(self):
        cfg = ModelConfig(seed=0, **TOY_CFG)
        with pytest.raises(ValueError, match="q=3"):
            CellScapeModel(9, 3, cfg)


class TestSceLoss:
    def test_perfect_reconstruction_exact_zero(self):
        x = np.array([[3.0, 4.0], [1.0, 0.0]])
        loss = sce_loss(x, Tensor(x.copy()), np.array([0, 1]), gamma=3.0)
        assert loss.item() == 0.0

    def test_opposite_gives_eight(self):
        x = np.array([[3.0, 4.0]])
        loss = sce_loss(x, Tensor(-x), np.array([0]), gamma=3.0)
        assert loss.item() == 8.0

    def test_orthogonal_gives_one(self):
        x = np.array([[1.0, 0.0]])
        loss = sce_loss(x, Tensor(np.array([[0.0, 1.0]])), np.array([0]), gamma=3.0)
        assert loss.item() == 1.0

    def test_zero_norm_warns_and_contributes_one(self):
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="zero norm"):
            loss = sce_loss(x, Tensor(np.array([[0.0, 0.0], [2.0, 0.0]])), np.array([0, 1]),
                            gamma=3.0)
        assert loss.item() == pytest.approx(0.5)  # (1 + 0) / 2

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = rng.standard_normal((5, 3))
            x_hat = Tensor(rng.standard_normal((5, 3)))
            val = sce_loss(x, x_hat, np.arange(5), gamma=3.0).item()
            assert 0.0 <= val <= 8.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sce_loss(np.ones((2, 2)), Tensor(np.ones((2, 2))), np.array([], dtype=int), gamma=3.0)


def ring_neighbors(n):
    """Contrastive positives of an undirected n-cycle."""
    edges = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
    graph = SpatialGraph(n, np.array(edges), np.ones(len(edges)))
    return neighbor_arrays(graph.directed_edges())


def unit_rows(rng, n, d):
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestContrastiveLoss:
    def test_two_cell_identical_embeddings(self):
        z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        loss = contrastive_loss(z, ring_neighbors(2), tau=1.0)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_two_cell_closed_form_monotone(self):
        previous = None
        for s in (-0.5, 0.0, 0.4, 0.9):
            # rows unit-norm with dot product s
            z = Tensor(np.array([[1.0, 0.0], [s, np.sqrt(1 - s * s)]]))
            loss = contrastive_loss(z, ring_neighbors(2), tau=1.0).item()
            expected = -np.log(np.exp(s) / (np.exp(s) + np.exp(1.0)))
            assert loss == pytest.approx(expected, abs=1e-9)
            if previous is not None:
                assert loss < previous
            previous = loss

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        z = unit_rows(rng, 8, 4)
        nbrs = ring_neighbors(8)
        base = contrastive_loss(Tensor(z), nbrs, tau=0.5).item()
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = contrastive_loss(Tensor(z @ q), nbrs, tau=0.5).item()
        assert rotated == pytest.approx(base, abs=1e-9)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(6)
        nbrs = ring_neighbors(6)
        for _ in range(20):
            z = unit_rows(rng, 6, 3)
            assert contrastive_loss(Tensor(z), nbrs, tau=0.3).item() >= 0.0

    def test_errors(self):
        z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        isolated = SpatialGraph(3, np.array([[0, 2]]), np.ones(1))
        with pytest.raises(ValueError, match="cell 1"):
            neighbor_arrays(isolated.directed_edges())
        with pytest.raises(ValueError, match="temperature"):
            contrastive_loss(z, ring_neighbors(2), tau=0.0)
        with pytest.raises(ValueError, match="unit-norm"):
            contrastive_loss(z * 2.0, ring_neighbors(2), tau=1.0)
        with pytest.raises(ValueError, match="cover every"):
            contrastive_loss(z, ring_neighbors(3), tau=1.0)

    @pytest.mark.parametrize("anchors", [[2, 1], [1, 1, 3], [[0, 1]]])
    def test_anchors_must_be_strictly_increasing(self, anchors):
        z = Tensor(unit_rows(np.random.default_rng(8), 5, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            contrastive_loss(z, ring_neighbors(5), tau=0.5, anchors=np.array(anchors))

    @pytest.mark.parametrize("with_anchors", [False, True], ids=["all", "anchors"])
    @pytest.mark.parametrize("kind,n", [("knn", 2), ("knn", 50), ("knn", 800),
                                        ("delaunay", 3), ("delaunay", 50),
                                        ("delaunay", 800)])
    def test_matches_dense_oracle_exactly(self, kind, n, with_anchors):
        # "exactly" up to summation order: the fused op sums in anchor blocks
        rng = np.random.default_rng(n)
        anchors = np.sort(rng.choice(n, size=max(1, n // 4), replace=False)) if with_anchors \
            else None
        _assert_match(*_contrastive_pair(kind, n, anchors, rng))

    @pytest.mark.parametrize("kind", ["knn", "delaunay"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["chunk", "chunk+1"])
    def test_matches_dense_oracle_at_chunk_edges(self, kind, extra):
        n = 800
        rng = np.random.default_rng(extra)
        anchors = np.sort(rng.choice(n, size=ad._ANCHOR_CHUNK + extra, replace=False))
        _assert_match(*_contrastive_pair(kind, n, anchors, rng))

    @pytest.mark.parametrize("with_anchors", [False, True], ids=["all", "anchors"])
    def test_gradient_matches_finite_differences(self, monkeypatch, with_anchors):
        # a small chunk so that the anchors span several blocks; the loss
        # takes unit rows, so differentiate through the row normalization
        monkeypatch.setattr(ad, "_ANCHOR_CHUNK", 4)
        n = 12
        rng = np.random.default_rng(11)
        neighbors = neighbor_arrays(build_knn_graph(rng.random((2, n)), k=3).directed_edges())
        anchors = np.array([0, 2, 3, 5, 7, 8, 9, 11]) if with_anchors else None
        x_values = rng.standard_normal((n, 3))

        def loss(x):
            return contrastive_loss(ad.l2_normalize_rows(x), neighbors, 0.4, anchors)

        x = Tensor(x_values.copy(), requires_grad=True)
        ad.backward(loss(x))
        numeric = finite_difference_grads(lambda: loss(Tensor(x_values)).item(), [x_values],
                                          h=1e-6)[0]
        assert relative_error(x.grad, numeric) < 1e-7

    def test_no_gradient_input(self):
        n = 600
        rng = np.random.default_rng(12)
        dst, src, degree = neighbor_arrays(build_knn_graph(rng.random((2, n)), k=6)
                                           .directed_edges())
        z_values = unit_rows(rng, n, 1024)

        def traced(requires_grad):
            tracemalloc.start()
            try:
                loss = ad.contrastive(Tensor(z_values, requires_grad=requires_grad),
                                      np.arange(n), dst, src, degree, 0.3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return loss, peak

        plain, plain_peak = traced(False)
        tracked, tracked_peak = traced(True)
        assert plain.item() == tracked.item()
        assert not plain.requires_grad and plain._backward_fn is None
        # the cached (n, d) gradient is the only buffer that size
        assert plain_peak < n * 1024 * 8 < tracked_peak

    def test_peak_memory_below_one_dense_adjacency(self):
        n = 2000
        rng = np.random.default_rng(10)
        graph = build_knn_graph(rng.random((2, n)), k=6)
        z = Tensor(unit_rows(rng, n, 32), requires_grad=True)
        peak = _contrastive_peak(z, graph, anchors=None)
        # a few anchor blocks, far below the n x n similarity matrix
        assert peak < 2 * ad._ANCHOR_CHUNK * n * 8 < n * n * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_peak_memory_at_8k_cells(self):
        n, n_anchors = 8000, 4096
        rng = np.random.default_rng(13)
        graph = build_delaunay_graph(rng.random((2, n)))
        z = Tensor(unit_rows(rng, n, 32), requires_grad=True)
        anchors = np.sort(rng.choice(n, size=n_anchors, replace=False))
        peak = _contrastive_peak(z, graph, anchors)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _contrastive_pair(kind, n, anchors, rng):
    """Loss value and z.grad of the fused loss and of the dense oracle."""
    coords = rng.random((2, n))
    graph = (build_knn_graph(coords, k=min(6, n - 1)) if kind == "knn"
             else build_delaunay_graph(coords))
    z_values = unit_rows(rng, n, 8)
    z = Tensor(z_values.copy(), requires_grad=True)
    loss = contrastive_loss(z, neighbor_arrays(graph.directed_edges()), 0.3, anchors)
    ad.backward(loss)
    z_ref = Tensor(z_values.copy(), requires_grad=True)
    ref = dense_contrastive_loss(z_ref, loop_neighbor_lists(n, graph.edges), 0.3, anchors)
    ad.backward(ref)
    return [loss.values, z.grad], [ref.values, z_ref.grad]


def _contrastive_peak(z, graph, anchors):
    """tracemalloc peak of the contrastive loss forward plus backward."""
    tracemalloc.start()
    try:
        loss = contrastive_loss(z, neighbor_arrays(graph.directed_edges()), 0.3, anchors)
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _conv_block_inputs(n, cin, cout, q, seed, masked=(1, 3)):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cin, q, q))
    x[list(masked)] = 0.0       # masked cells: all-zero maps, whole windows tie
    w = rng.standard_normal((cout, cin, 3, 3))
    gamma = rng.random(cout) + 0.5
    beta = rng.standard_normal(cout)
    return x, w, gamma, beta


def _conv_block_pass(op, arrays, training, weights, x_grad=True, **kwargs):
    """Output, running statistics and the gradients of x (when ``x_grad``),
    w, gamma and beta of ``op`` (the fused op or the composite chain) under
    loss sum(out * weights)."""
    x, w, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in arrays)
    x.requires_grad = x_grad
    state = ad.BatchNormState(w.shape[0])
    state.running_mean[:] = 0.3
    state.running_var[:] = 2.0
    out = op(x, w, gamma, beta, state, training, 0.01, **kwargs)
    ad.backward(ad.tensor_sum(out * weights))
    grads = [x.grad] if x_grad else []
    return [out.values, state.running_mean, state.running_var,
            *grads, w.grad, gamma.grad, beta.grad]


def _assert_match(got_list, want_list):
    # relative to each array's largest entry: single entries can cancel
    for got, want in zip(got_list, want_list):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestConvBlockOracle:
    """The fused CNN block against conv2d -> batch_norm -> leaky_relu -> maxpool2."""

    # ids: training, then whether the running statistics move (exactly when training)
    @pytest.mark.parametrize("training", [pytest.param(True, id="True-True"),
                                          pytest.param(False, id="False-False")])
    @pytest.mark.parametrize("cin,q", [(1, 6), (1, 7), (3, 5), (3, 8)])
    def test_values_and_gradients_match_composite(self, cin, q, training):
        arrays = _conv_block_inputs(6, cin, 4, q, seed=cin * 10 + q)
        weights = np.random.default_rng(q).standard_normal((6, 4, q // 2, q // 2))
        fused = _conv_block_pass(ad.conv_block, arrays, training, weights)
        reference = _conv_block_pass(composite_conv_block, arrays, training, weights)
        _assert_match(fused, reference)
        moved = not (np.all(fused[1] == 0.3) and np.all(fused[2] == 2.0))
        assert moved == training

    @pytest.mark.parametrize("training", [True, False])
    def test_every_cell_masked(self, training):
        # every window of every map ties; the gradient goes to each window's first entry
        arrays = _conv_block_inputs(4, 1, 3, 6, seed=2, masked=range(4))
        weights = np.random.default_rng(3).standard_normal((4, 3, 3, 3))
        fused = _conv_block_pass(ad.conv_block, arrays, training, weights)
        reference = _conv_block_pass(composite_conv_block, arrays, training, weights)
        _assert_match(fused, reference)

    # n spans three blocks, the last one partial; every cell of the middle
    # block is masked, so every window there ties; one channel's gamma is
    # negative and one is zero, where every window ties too
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("cin,x_grad,q", [(1, False, 7), (3, True, 6)])
    def test_multi_block_matches_composite(self, cin, x_grad, q, training):
        block = ad._CELL_BLOCK
        n = 2 * block + block // 3
        masked = [0, 5, *range(block, 2 * block), n - 1]
        arrays = _conv_block_inputs(n, cin, 4, q, seed=20 + cin, masked=masked)
        arrays[2][1] *= -1.0
        arrays[2][2] = 0.0
        weights = np.random.default_rng(cin).standard_normal((n, 4, q // 2, q // 2))
        fused = _conv_block_pass(ad.conv_block, arrays, training, weights, x_grad)
        reference = _conv_block_pass(composite_conv_block, arrays, training, weights, x_grad)
        _assert_match(fused, reference)

    @pytest.mark.parametrize("training", [True, False])
    def test_masked_cells_match_zeroed_copy(self, training):
        # reading the masked cells as zeros is the zeroed copy that training
        # used to make, bit for bit; a masked cell's input gradient is zero
        block = ad._CELL_BLOCK
        n = block + 9
        arrays = _conv_block_inputs(n, 3, 4, 6, seed=31, masked=())
        masked = np.array([2, *range(block - 3, block + 4), n - 1])
        zeroed = (arrays[0].copy(), *arrays[1:])
        zeroed[0][masked] = 0.0
        weights = np.random.default_rng(32).standard_normal((n, 4, 3, 3))
        got = _conv_block_pass(ad.conv_block, arrays, training, weights, masked=masked)
        want = _conv_block_pass(ad.conv_block, zeroed, training, weights)
        want[3][masked] = 0.0
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert np.all(got[3][masked] == 0) and np.any(got[3] != 0)

    def test_model_masks_first_layer_like_zeroed_copy(self):
        cfg = ModelConfig(seed=4, **{**TOY_CFG, "cnn_channels": (4, 8)})
        model = CellScapeModel(36, 6, cfg)
        twin = copy.deepcopy(model)
        maps = np.random.default_rng(7).random((ad._CELL_BLOCK + 5, 6, 6))
        masked = mask_cells(maps.shape[0], 0.3, seed=8)
        zeroed = maps.copy()
        zeroed[masked] = 0.0
        z = model.encode_intrinsic(maps, True, masked)
        z_twin = twin.encode_intrinsic(zeroed, True)
        ad.backward(ad.tensor_sum(z * z.values))
        ad.backward(ad.tensor_sum(z_twin * z_twin.values))
        np.testing.assert_array_equal(z.values, z_twin.values)
        for name, param in model.params.items():
            if name.startswith("cnn."):
                np.testing.assert_array_equal(param.grad, twin.params[name].grad)

    def test_masked_indices_checked(self):
        arrays = _conv_block_inputs(4, 1, 2, 4, seed=0, masked=())
        state = ad.BatchNormState(2)
        with pytest.raises(ValueError, match="masked"):
            ad.conv_block(*arrays, state, True, 0.01, masked=[4])
        with pytest.raises(ValueError, match="masked"):
            ad.conv_block(*arrays, state, True, 0.01, masked=np.ones(4, dtype=bool))

    def test_peak_memory_below_one_patch_matrix(self):
        n, q, cout = 4000, 16, 4
        rng = np.random.default_rng(11)
        x = Tensor(rng.random((n, 1, q, q)))
        w, gamma, beta = (Tensor(a, requires_grad=True) for a in
                          (rng.standard_normal((cout, 1, 3, 3)), np.ones(cout), np.zeros(cout)))
        tracemalloc.start()
        try:
            out = ad.conv_block(x, w, gamma, beta, ad.BatchNormState(cout), True, 0.01)
            ad.backward(ad.tensor_sum(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.grad is not None and x.grad is None
        # a few output-sized arrays (output, winners, normalized winners, the
        # upstream gradient and its leaky-ReLU copy) plus a few blocks'
        # patches and channels, below the all-cells (9, n * q * q) patch matrix
        block = (9 + cout) * ad._CELL_BLOCK * q * q * 8
        bound = 5 * out.values.nbytes + 4 * block
        assert peak < bound < 9 * n * q * q * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_two_layer_model_matches_composite(self):
        cfg = ModelConfig(seed=4, **{**TOY_CFG, "cnn_channels": (4, 8)})
        model = CellScapeModel(36, 6, cfg)
        maps = np.random.default_rng(5).random((10, 6, 6))
        maps[[2, 7]] = 0.0
        weights = np.random.default_rng(6).standard_normal((10, cfg.embed_dim))
        names = [name for name in model.params if name.startswith("cnn.")]
        states = copy.deepcopy(model.bn_states)

        z = model.encode_intrinsic(maps, training=True)
        ad.backward(ad.tensor_sum(z * weights))
        fused = [z.values, *(model.params[k].grad for k in names),
                 *(s.running_mean for s in model.bn_states.values()),
                 *(s.running_var for s in model.bn_states.values())]
        ad.zero_grads(model.params.values())

        x = Tensor(maps.reshape(10, 1, 6, 6))
        for i in range(2):
            x = composite_conv_block(x, model.params[f"cnn.{i}.w"],
                                     model.params[f"cnn.{i}.gamma"],
                                     model.params[f"cnn.{i}.beta"], states[f"cnn.{i}"],
                                     True, 0.01)
        z_ref = ad.matmul(ad.reshape(x, (10, -1)), model.params["cnn.fc.w"]) \
            + model.params["cnn.fc.b"]
        ad.backward(ad.tensor_sum(z_ref * weights))
        reference = [z_ref.values, *(model.params[k].grad for k in names),
                     *(s.running_mean for s in states.values()),
                     *(s.running_var for s in states.values())]
        assert "cnn.1.w" in names and "cnn.0.b" not in model.params
        _assert_match(fused, reference)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients_match_finite_differences(self, training):
        # no masked cells: a tied window is a kink that central differences straddle
        arrays = _conv_block_inputs(3, 2, 2, 5, seed=9, masked=())
        weights = np.random.default_rng(10).standard_normal((3, 2, 2, 2))
        analytic = _conv_block_pass(ad.conv_block, arrays, training, weights)[3:]
        state = ad.BatchNormState(2)
        state.running_mean[:] = 0.3
        state.running_var[:] = 2.0

        def loss():
            out = ad.conv_block(*(Tensor(a) for a in arrays), state, training, 0.01)
            return float((out.values * weights).sum())

        numeric = finite_difference_grads(loss, list(arrays), h=1e-6)
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-6


class TestModelGradients:
    def test_full_model_matches_finite_differences(self):
        ds, graph, layout = toy_dataset(n=12, p=16, seed=7)
        cfg = ModelConfig(seed=7, **TOY_CFG)
        model = CellScapeModel(16, layout.q, cfg)
        mask = mask_cells(ds.n_cells, cfg.mask_ratio, seed=3)
        x_full = np.ascontiguousarray(ds.X.T)
        feats = x_full.copy()
        feats[mask] = 0.0
        maps = render_maps(ds.X, layout)
        maps[mask] = 0.0
        edges = graph.directed_edges()
        neighbors = neighbor_arrays(edges)

        def total_loss():
            _, _, z_fused = model.encode(feats, maps, edges, training=True)
            recon = sce_loss(x_full, model.decode(z_fused, edges), mask, cfg.gamma)
            con = contrastive_loss(ad.l2_normalize_rows(z_fused), neighbors, cfg.tau)
            return recon + con

        loss = total_loss()
        ad.backward(loss)
        analytic = {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}
        assert set(analytic) == set(model.params)

        names = list(model.params)
        arrays = [model.params[k].values for k in names]
        fd = finite_difference_grads(lambda: total_loss().item(), arrays, h=1e-4)
        for name, g in zip(names, fd):
            err = relative_error(analytic[name], g)
            assert err < 1e-4, f"{name}: rel err {err}"


class TestTraining:
    def test_loss_decreases_on_toy(self):
        ds, graph, layout = toy_dataset(n=20, p=16, seed=11)
        cfg = ModelConfig(seed=11, epochs=40, **TOY_CFG)
        _, _, log = train(ds, graph, layout, cfg)
        total = [r["loss_recon"] + r["loss_contrastive"] for r in log]
        early = np.mean(total[1:6])
        late = np.mean(total[-5:])
        assert late < early

    def test_cci_only_mode(self):
        ds, graph, layout = toy_dataset(seed=12)
        cfg = ModelConfig(seed=12, epochs=3, cci_only=True, **TOY_CFG)
        model, emb, log = train(ds, graph, None, cfg)
        assert emb.Z_intrinsic is None
        assert emb.Z_spatial.shape == (20, 4)
        assert len(log) == 3

    def test_cci_only_ignores_layout_bit_exact(self):
        ds, graph, layout = toy_dataset(seed=13)
        cfg = ModelConfig(seed=13, epochs=2, cci_only=True, **TOY_CFG)
        _, emb_a, _ = train(ds, graph, None, cfg)
        _, emb_b, _ = train(ds, graph, layout, cfg)
        assert emb_a.Z.tobytes() == emb_b.Z.tobytes()

    def test_zero_epochs_initial_state(self):
        ds, graph, layout = toy_dataset(seed=14)
        cfg = ModelConfig(seed=14, epochs=0, **TOY_CFG)
        model, emb, log = train(ds, graph, layout, cfg)
        assert log == []
        again = embed(model, *embed_inputs(ds, graph, layout))
        assert emb.Z.tobytes() == again.Z.tobytes()

    def test_embed_runs_the_encoders_alone(self, monkeypatch):
        ds, graph, layout = toy_dataset(seed=19)
        cfg = ModelConfig(seed=19, epochs=3, **TOY_CFG)
        model, emb, _ = train(ds, graph, layout, cfg)

        def no_decoder(*args, **kwargs):
            raise AssertionError("embed ran the decoder")

        monkeypatch.setattr(CellScapeModel, "decode", no_decoder)
        again = embed(model, *embed_inputs(ds, graph, layout))
        assert emb.Z_spatial.tobytes() == again.Z_spatial.tobytes()
        assert emb.Z_intrinsic.tobytes() == again.Z_intrinsic.tobytes()
        assert emb.Z.tobytes() == again.Z.tobytes()

    def test_no_graph_outlives_its_epoch(self, monkeypatch):
        # an epoch's masked inputs and autodiff graph are freed before the
        # next epoch's forward and before embed: only the parameters are
        # live tensors at those points
        ds, graph, layout = toy_dataset(n=200, p=36, seed=20)
        cfg = ModelConfig(seed=20, epochs=2, **TOY_CFG)
        counts = []

        def live_tensors():
            return sum(isinstance(o, Tensor) for o in gc.get_objects())

        def counting_schedule(epoch, base_lr):
            if epoch > 0:
                counts.append(live_tensors())
            return optim.lr_schedule(epoch, base_lr)

        def counting_embed(*args):
            counts.append(live_tensors())
            return embed(*args)

        monkeypatch.setattr(training, "lr_schedule", counting_schedule)
        monkeypatch.setattr(training, "embed", counting_embed)
        gc.collect()
        model, _, _ = train(ds, graph, layout, cfg)
        assert counts == [len(model.params)] * 2

    def test_embed_deterministic(self):
        ds, graph, layout = toy_dataset(seed=15)
        cfg = ModelConfig(seed=15, epochs=2, **TOY_CFG)
        model, emb, _ = train(ds, graph, layout, cfg)
        twice = embed(model, *embed_inputs(ds, graph, layout))
        assert emb.Z_spatial.tobytes() == twice.Z_spatial.tobytes()
        assert emb.Z.tobytes() == twice.Z.tobytes()

    def test_embed_permutation_equivariance(self):
        ds, graph, layout = toy_dataset(seed=16)
        cfg = ModelConfig(seed=16, epochs=2, **TOY_CFG)
        model, emb, _ = train(ds, graph, layout, cfg)

        rng = np.random.default_rng(1)
        perm = rng.permutation(ds.n_cells)
        inv = {int(old): new for new, old in enumerate(perm)}
        ds_p = dataclasses.replace(ds, X=ds.X[:, perm], coords=ds.coords[:, perm],
                                   cell_ids=[ds.cell_ids[i] for i in perm])
        remapped = np.array(
            sorted(sorted((inv[int(i)], inv[int(j)])) for i, j in graph.edges)
        )
        graph_p = SpatialGraph(graph.n_nodes, remapped, np.ones(len(remapped)))
        emb_p = embed(model, *embed_inputs(ds_p, graph_p, layout))
        np.testing.assert_allclose(emb_p.Z_spatial, emb.Z_spatial[perm], atol=1e-9)

    def test_fused_rows_unit_norm(self):
        ds, graph, layout = toy_dataset(seed=17)
        cfg = ModelConfig(seed=17, epochs=2, **TOY_CFG)
        _, emb, _ = train(ds, graph, layout, cfg)
        np.testing.assert_allclose(np.linalg.norm(emb.Z, axis=1), 1.0, atol=1e-9)

    def test_log_schema_and_lr_schedule(self):
        ds, graph, layout = toy_dataset(seed=18)
        cfg = ModelConfig(seed=18, epochs=3, **TOY_CFG)
        _, _, log = train(ds, graph, layout, cfg)
        assert [r["epoch"] for r in log] == [0, 1, 2]
        assert all(r["lr"] == cfg.learning_rate for r in log)

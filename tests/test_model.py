"""Network layers, losses, and training-loop behavior on toy problems."""

import copy
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from cellscape import autodiff as ad
from cellscape import optim, training
from cellscape.autodiff import Tensor
from cellscape.dataset import ExpressionDataset
from cellscape.config import PipelineConfig
from cellscape.gene_map import mask_cells, render_maps
from cellscape.losses import contrastive_loss, neighbor_arrays, sce_loss
from cellscape.network import CellScapeModel, ModelConfig
from cellscape.pipeline import make_layout
from cellscape.preprocess import pearson_coexpression
from cellscape.spatial_graph import SpatialGraph, build_delaunay_graph, build_knn_graph
from cellscape.training import embed, train

from oracles import (composite_cnn, composite_gat_layer, composite_sce_loss,
                     dense_contrastive_loss, finite_difference_grads, gene_space_decoder,
                     loop_neighbor_lists, relative_error, fused_embedding_step_grads)

TOY_CFG = dict(
    gat_layers=2,
    attention_heads=2,
    hidden_dim=8,
    embed_dim=4,
    cnn_channels=2,
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
    return ds.X.T, render_maps(ds.X, layout), graph.directed_edges()


def gat_layer(h, edges, W, a_center, a_neighbor, slope, average):
    """One graph-attention layer as the encoder's final layer runs it: the
    fused op projects by ``W`` and attends."""
    return ad.gat_attention(h, W, a_center, a_neighbor, edges, slope, average)


def _assert_match(got_list, want_list):
    # floored at the largest entry of any array the pass returns: single
    # entries can cancel, and so can a whole array whose true value is zero
    # (an attention vector's gradient when every pair score of a head lies
    # on one side of the leaky ReLU's kink)
    scale = max(np.abs(want).max() for want in want_list)
    for got, want in zip(got_list, want_list):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


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
        a_c = rng.standard_normal((2, 4)).T      # column k is head k's vector
        a_n = rng.standard_normal((2, 4)).T
        a_c[3] = a_n[3] = 0.0
        for average in (True, False):
            out = gat_layer(Tensor(h), g.directed_edges(), Tensor(W), Tensor(a_c), Tensor(a_n),
                            0.2, average)
            sums = out.values[:, 3::4]
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
            assert np.ptp(out.values[:, :3]) > 0.1  # the other columns do vary

    def test_identical_features_uniform_attention(self):
        # identical rows: every node's output is the shared projected row
        g = self._path_graph()
        rng = np.random.default_rng(1)
        W = rng.standard_normal((4, 3))
        a_c = Tensor(rng.standard_normal((3, 1)))
        a_n = Tensor(rng.standard_normal((3, 1)))
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
            Tensor(np.array([[1.0]])),
            Tensor(np.array([[1.0]])),
            0.2, average=True,
        )
        e = np.exp(1.0)
        expected = (e**2 + 2 * e**3) / (e + e**2 + e**3)
        assert out.values[1, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 3001])
def test_attention_columns_keep_the_per_head_draw_order(seed):
    # column k of a layer's (d, heads) attention tensors is the (d, 1)
    # Glorot draw that head k's own vectors took: the layer's W, then head by
    # head its centre vector and its neighbour vector. Drawing each tensor as
    # one (d, heads) block would move every seeded output.
    cfg = ModelConfig(seed=seed)
    n_genes, q = 100, 10
    model = CellScapeModel(n_genes, q, cfg)
    assert len(model.params) == 15
    rng = np.random.default_rng(seed)

    def draw(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, shape)

    in_dim, heads = n_genes, cfg.attention_heads
    for layer in range(cfg.gat_layers):
        final = layer == cfg.gat_layers - 1
        d = cfg.embed_dim if final else cfg.hidden_dim // heads
        width = heads * d
        np.testing.assert_array_equal(model.params[f"encoder.{layer}.W"].values,
                                      draw((in_dim, width), in_dim, width))
        for role in ("a_center", "a_neighbor"):
            assert model.params[f"encoder.{layer}.{role}"].shape == (d, heads)
        for k in range(heads):
            for role in ("a_center", "a_neighbor"):
                np.testing.assert_array_equal(
                    model.params[f"encoder.{layer}.{role}"].values[:, k:k + 1],
                    draw((d, 1), d, 1), err_msg=f"layer {layer} head {k} {role}")
        in_dim = d if final else width
    # the draws after the encoder start where they did
    np.testing.assert_array_equal(model.params["cnn.w"].values, draw((4, 1, 3, 3), 9, 36))


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
        # more than three edge blocks at the narrowest width the oracle
        # draws, one averaged head of 3: 3 sender and 3 receiver entries an edge
        g = build_knn_graph(rng.random((2, 1600)), k=4)
        assert g.directed_edges().dst.size > 3 * (ad._EDGE_ENTRIES // 6)
        return g
    raise ValueError(kind)


def _attention_inputs(n, heads, head_dim, seed, in_dim=5):
    rng = np.random.default_rng(seed)
    # the attention vectors are (head_dim, heads), column k being head k's
    return (rng.standard_normal((n, in_dim)),
            rng.standard_normal((in_dim, heads * head_dim)),
            rng.standard_normal((heads, head_dim)).T,
            rng.standard_normal((heads, head_dim)).T)


def _attention_pass(layer, graph, arrays, average, weights):
    """Value of ``layer`` and the gradients of sum(out * weights) with
    respect to h, W and both attention tensors."""
    h, W, a_c, a_n = (Tensor(a.copy(), requires_grad=True) for a in arrays)
    if layer == "fused":
        out = gat_layer(h, graph.directed_edges(), W, a_c, a_n, 0.2, average)
    else:
        edges = graph.directed_edges()
        out = composite_gat_layer(h, edges.dst, edges.src, graph.n_nodes, W, a_c, a_n,
                                  a_c.shape[0], 0.2, average)
    ad.backward(ad.tensor_sum(out * weights))
    return [out.values, h.grad, W.grad, a_c.grad, a_n.grad]


class TestGatAttentionOracle:
    """The fused op against the head-by-head composite of generic ops."""

    @pytest.mark.parametrize("kind", ["knn", "self-loops only", "isolated node", "hub",
                                      "several chunks"])
    @pytest.mark.parametrize("average", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_values_and_gradients_match_composite(self, monkeypatch, kind, heads, average):
        # blocks of 2,048 edges at the narrowest width, fewer at wider ones
        monkeypatch.setattr(ad, "_EDGE_ENTRIES", 6 * 2048)
        graph = _attention_graph(kind)
        arrays = _attention_inputs(graph.n_nodes, heads, 3, seed=heads)
        out_width = 3 if average else 3 * heads
        weights = np.random.default_rng(5).standard_normal((graph.n_nodes, out_width))
        fused = _attention_pass("fused", graph, arrays, average, weights)
        reference = _attention_pass("composite", graph, arrays, average, weights)
        _assert_match(fused, reference)

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("average", [False, True])
    def test_projection_and_elu_match_chain(self, average, masked):
        # the op projects by W and applies the ELU itself, as the encoder's
        # hidden layer runs it; the chain projects by matmul, attends over
        # the projection and applies elu
        graph = _attention_graph("isolated node")
        n = graph.n_nodes
        edges = graph.directed_edges()
        arrays = _attention_inputs(n, 2, 3, seed=12)
        cells = np.array([0, 4, n - 1]) if masked else None
        weights = np.random.default_rng(13).standard_normal((n, 3 if average else 6))

        def run(fused):
            h, W, a_c, a_n = (Tensor(a.copy(), requires_grad=True) for a in arrays)
            if fused:
                out = ad.gat_attention(h, W, a_c, a_n, edges, 0.2, average, masked=cells,
                                       apply_elu=True)
            else:
                out = ad.elu(ad.gat_attention(ad.matmul(h, W), None, a_c, a_n, edges, 0.2,
                                              average, masked=cells))
            ad.backward(ad.tensor_sum(out * weights))
            return [out.values, h.grad, W.grad, a_c.grad, a_n.grad]

        fused = run(fused=True)
        if masked:
            assert not np.any(fused[1][cells]) and np.any(fused[1])
        _assert_match(fused, run(fused=False))

    @pytest.mark.parametrize("average", [False, True])
    def test_gradients_match_finite_differences(self, average):
        graph = _attention_graph("isolated node")
        arrays = _attention_inputs(graph.n_nodes, 2, 3, seed=11, in_dim=4)
        h, W, a_c, a_n = arrays
        weights = np.random.default_rng(6).standard_normal((graph.n_nodes, 3 if average else 6))
        edges = graph.directed_edges()

        def loss():
            out = gat_layer(Tensor(h), edges, Tensor(W), Tensor(a_c), Tensor(a_n), 0.2,
                            average)
            return float((out.values * weights).sum())

        analytic = _attention_pass("fused", graph, arrays, average, weights)[1:]
        numeric = finite_difference_grads(loss, [h, W, a_c, a_n], h=1e-5)
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-7

    def test_edge_score_backward_stays_within_a_chunk(self):
        # one head of wide output: the backward may hold chunk x width and
        # n x width buffers, never an E x width one
        import tracemalloc

        graph = build_knn_graph(np.random.default_rng(3).random((2, 2000)), k=10)
        edges = graph.directed_edges()
        n, width = graph.n_nodes, 64
        rng = np.random.default_rng(4)
        W = Tensor(rng.standard_normal((8, width)), requires_grad=True)
        a_c = Tensor(rng.standard_normal((width, 1)), requires_grad=True)
        a_n = Tensor(rng.standard_normal((width, 1)), requires_grad=True)
        out = gat_layer(Tensor(rng.standard_normal((n, 8))), edges, W, a_c, a_n, 0.2, True)
        loss = ad.tensor_sum(out * rng.standard_normal((n, width)))
        edge_by_width = edges.dst.size * width * 8
        # more than four blocks of edges, each gathering width-wide senders
        # and (averaged) receivers
        assert edges.dst.size > 4 * (ad._EDGE_ENTRIES // (2 * width))
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
        z = model.encode_intrinsic(np.zeros((6, 4, 4)))
        np.testing.assert_allclose(z.values, 0.0, atol=1e-12)

    def test_batch_permutation_equivariance(self):
        cfg = ModelConfig(seed=1, **TOY_CFG)
        model = CellScapeModel(16, 4, cfg)
        rng = np.random.default_rng(2)
        maps = rng.random((8, 4, 4))
        perm = rng.permutation(8)
        z = model.encode_intrinsic(maps).values
        zp = model.encode_intrinsic(maps[perm]).values
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

    def test_clamped_row_takes_zero_gradient_below_gamma_one(self):
        # x_hat = 2 x gives cos = 1 exactly on the row (3, 4), so its term
        # 1 - cos = 0 is clamped, and its gradient is 0 for every gamma,
        # though gamma * 0 ** (gamma - 1) is infinite below 1. The second
        # row is orthogonal: a term of 1 and a gradient of
        # -gamma / 2 * x / (|x_hat| |x|) = -(1, 2) / 20
        x = np.array([[3.0, 4.0], [1.0, 2.0]])
        x_hat = Tensor(np.array([[6.0, 8.0], [2.0, -1.0]]), requires_grad=True)
        loss = sce_loss(x, x_hat, np.array([0, 1]), gamma=0.5)
        ad.backward(loss)
        assert loss.item() == 0.5
        np.testing.assert_array_equal(x_hat.grad[0], 0.0)
        np.testing.assert_allclose(x_hat.grad[1], [-0.05, -0.1], rtol=1e-15)

    # gamma below, at and above 1; the fifth masked pair has a zero-norm
    # target and the third a zero-norm reconstruction (the warning path),
    # the last is clamped (cos = 1 exactly, a single non-zero entry)
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
    def test_matches_composite_chain(self, gamma):
        rng = np.random.default_rng(int(10 * gamma))
        x = rng.standard_normal((12, 5))
        mask = np.array([0, 2, 3, 5, 8, 11, 6])
        x_hat_values = rng.standard_normal((mask.size, 5))
        x[8] = 0.0
        x_hat_values[2] = 0.0
        x[6] = [0.0, 0.0, -3.0, 0.0, 0.0]
        x_hat_values[6] = [0.0, 0.0, -1.5, 0.0, 0.0]
        results = []
        for loss_fn in (sce_loss, composite_sce_loss):
            x_hat = Tensor(x_hat_values.copy(), requires_grad=True)
            with pytest.warns(RuntimeWarning, match="2 masked pair"):
                loss = loss_fn(x, x_hat, mask, gamma)
            ad.backward(loss)
            results.append([loss.values, x_hat.grad])
        got, want = results
        np.testing.assert_array_equal(got[1][[2, 4, 6]], 0.0)
        _assert_match(got, want)


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
        loss = contrastive_loss(z, ring_neighbors(2), tau=1.0, anchors=np.arange(2))
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_two_cell_closed_form_monotone(self):
        previous = None
        for s in (-0.5, 0.0, 0.4, 0.9):
            # rows unit-norm with dot product s
            z = Tensor(np.array([[1.0, 0.0], [s, np.sqrt(1 - s * s)]]))
            loss = contrastive_loss(z, ring_neighbors(2), tau=1.0, anchors=np.arange(2)).item()
            expected = -np.log(np.exp(s) / (np.exp(s) + np.exp(1.0)))
            assert loss == pytest.approx(expected, abs=1e-9)
            if previous is not None:
                assert loss < previous
            previous = loss

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        z = unit_rows(rng, 8, 4)
        nbrs = ring_neighbors(8)
        base = contrastive_loss(Tensor(z), nbrs, tau=0.5, anchors=np.arange(8)).item()
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        rotated = contrastive_loss(Tensor(z @ q), nbrs, tau=0.5, anchors=np.arange(8)).item()
        assert rotated == pytest.approx(base, abs=1e-9)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(6)
        nbrs = ring_neighbors(6)
        for _ in range(20):
            z = unit_rows(rng, 6, 3)
            assert contrastive_loss(Tensor(z), nbrs, tau=0.3, anchors=np.arange(6)).item() >= 0.0

    def test_errors(self):
        z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        isolated = SpatialGraph(3, np.array([[0, 2]]), np.ones(1))
        with pytest.raises(ValueError, match="cell 1"):
            neighbor_arrays(isolated.directed_edges())
        with pytest.raises(ValueError, match="temperature"):
            contrastive_loss(z, ring_neighbors(2), tau=0.0, anchors=np.arange(2))
        with pytest.raises(ValueError, match="unit-norm"):
            contrastive_loss(z * 2.0, ring_neighbors(2), tau=1.0, anchors=np.arange(2))
        with pytest.raises(ValueError, match="cover every"):
            contrastive_loss(z, ring_neighbors(3), tau=1.0, anchors=np.arange(2))

    # -1 would alias cell 4 and 5 would index past the last cell
    @pytest.mark.parametrize("anchors", [[2, 1], [1, 1, 3], [[0, 1]], [-1, 4], [0, 5]])
    def test_anchors_must_be_strictly_increasing(self, anchors):
        z = Tensor(unit_rows(np.random.default_rng(8), 5, 3))
        with pytest.raises(ValueError, match=r"strictly increasing cell indices in \[0, 5\)"):
            contrastive_loss(z, ring_neighbors(5), tau=0.5, anchors=np.array(anchors))

    @pytest.mark.parametrize("with_anchors", [False, True], ids=["all", "anchors"])
    @pytest.mark.parametrize("kind,n", [("knn", 2), ("knn", 50), ("knn", 800),
                                        ("delaunay", 3), ("delaunay", 50),
                                        ("delaunay", 800)])
    def test_matches_dense_oracle_exactly(self, kind, n, with_anchors):
        # "exactly" up to summation order: the fused op sums in anchor blocks
        rng = np.random.default_rng(n)
        anchors = np.sort(rng.choice(n, size=max(1, n // 4), replace=False)) if with_anchors \
            else np.arange(n)
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
        anchors = np.array([0, 2, 3, 5, 7, 8, 9, 11]) if with_anchors else np.arange(n)
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
        peak = _contrastive_peak(z, graph, anchors=np.arange(n))
        # a few anchor blocks, far below the n x n similarity matrix
        assert peak < 2 * ad._ANCHOR_CHUNK * n * 8 < n * n * 8, f"peak {peak / 2**20:.1f} MiB"

    def test_peak_memory_at_8k_cells(self):
        n, n_anchors = 8000, 4096
        rng = np.random.default_rng(13)
        graph = build_delaunay_graph(rng.random((2, n)), prune_percentile=100.0)
        z = Tensor(unit_rows(rng, n, 32), requires_grad=True)
        anchors = np.sort(rng.choice(n, size=n_anchors, replace=False))
        peak = _contrastive_peak(z, graph, anchors)
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _contrastive_pair(kind, n, anchors, rng):
    """Loss value and z.grad of the fused loss and of the dense oracle."""
    coords = rng.random((2, n))
    graph = (build_knn_graph(coords, k=min(6, n - 1)) if kind == "knn"
             else build_delaunay_graph(coords, prune_percentile=100.0))
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


def _conv_block_inputs(n, cin, cout, q, seed, masked=(1, 3), offset=0.0, embed=3):
    """Maps, then the block's w, gamma and beta and the head's (cout * q//2
    * q//2, embed) fc_w and fc_b."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, cin, q, q)) + offset
    x[list(masked)] = 0.0       # masked cells: all-zero maps, whole windows tie
    w = rng.standard_normal((cout, cin, 3, 3))
    gamma = rng.random(cout) + 0.5
    beta = rng.standard_normal(cout)
    fc_w = rng.standard_normal((cout * (q // 2) ** 2, embed))
    fc_b = rng.standard_normal(embed)
    return x, w, gamma, beta, fc_w, fc_b


def _conv_block_pass(op, arrays, weights, **kwargs):
    """Output and the gradients of w, gamma, beta, fc_w and fc_b of ``op``
    (``ad.conv_block`` or ``composite_cnn``) on ``arrays`` (maps first) under
    loss sum(out * weights)."""
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays[1:]]
    out = op(arrays[0], *params, **kwargs)
    ad.backward(ad.tensor_sum(out * weights))
    return [out.values, *(p.grad for p in params)]


def _composite_cnn(model, maps):
    """``model.encode_intrinsic`` without a mask, rebuilt from the composite
    chain and the reshape, matmul and add head on the model's parameters."""
    p = model.params
    return composite_cnn(maps.reshape(maps.shape[0], 1, model.q, model.q), p["cnn.w"],
                         p["cnn.gamma"], p["cnn.beta"], p["cnn.fc.w"], p["cnn.fc.b"])


def _match_composite(arrays, weights, masked, pass_mask, stale=False):
    """The fused op against the composite chain on ``arrays``, whose
    ``masked`` cells hold zero maps. Handed ``masked``, as a training step
    hands it, or not, as the embedding pass, the fused op gives the chain's
    output and gradients. With ``stale``, the op's maps of those cells hold
    data: handed ``masked``, it reads them as zeros all the same."""
    kwargs = {"masked": np.asarray(masked, dtype=np.intp)} if pass_mask else {}
    maps = arrays[0]
    if stale:
        maps = maps.copy()
        maps[list(masked)] = np.random.default_rng(0).standard_normal(maps[list(masked)].shape)
    fused = _conv_block_pass(ad.conv_block, (maps, *arrays[1:]), weights, **kwargs)
    reference = _conv_block_pass(composite_cnn, arrays if pass_mask else (maps, *arrays[1:]),
                                 weights)
    _assert_match(fused, reference)


class TestConvBlockOracle:
    """The fused CNN against conv2d -> batch_norm -> leaky_relu -> maxpool2,
    then reshape -> matmul -> add for the linear head."""

    # ids: whether the op is handed the zero-map cells as masked, then
    # whether its own maps of those cells hold stale data (read as zeros);
    # the first is a training step, the second the embedding pass. The maps
    # of the last case share a large offset, so each channel's convolution
    # mean is up to three times its spread (the zero padding at the map
    # edges keeps the spread large), and the gamma gradient's closed form
    # subtracts mu * dbeta from a sum sum_p dy_p y_p of the same size
    @pytest.mark.parametrize("pass_mask,stale", [(True, True), (False, False)])
    @pytest.mark.parametrize("cin,q,offset", [(1, 6, 0.0), (1, 7, 0.0), (3, 5, 0.0),
                                              (3, 8, 0.0), (3, 8, 100.0)],
                             ids=["1-6", "1-7", "3-5", "3-8", "3-8-offset"])
    def test_values_and_gradients_match_composite(self, cin, q, offset, pass_mask, stale):
        arrays = _conv_block_inputs(6, cin, 4, q, seed=cin * 10 + q, offset=offset)
        weights = np.random.default_rng(q).standard_normal((6, 3))
        _match_composite(arrays, weights, (1, 3), pass_mask, stale)

    @pytest.mark.parametrize("pass_mask", [True, False])
    def test_every_cell_masked(self, pass_mask):
        # every window of every map ties; the gradient goes to each window's first entry
        arrays = _conv_block_inputs(4, 1, 3, 6, seed=2, masked=range(4))
        weights = np.random.default_rng(3).standard_normal((4, 3))
        _match_composite(arrays, weights, range(4), pass_mask)

    # n spans three blocks, the last one partial; every cell of the middle
    # block holds a zero map, so every window there ties unless the maps
    # hold stale data and the op is not handed the mask; one channel's gamma
    # is negative and one is zero, where every window ties too
    @pytest.mark.parametrize("pass_mask", [True, False])
    @pytest.mark.parametrize("cin,stale,q", [(1, False, 7), (3, True, 6)])
    def test_multi_block_matches_composite(self, cin, stale, q, pass_mask):
        block = ad._CELL_BLOCK
        n = 2 * block + block // 3
        masked = [0, 5, *range(block, 2 * block), n - 1]
        arrays = _conv_block_inputs(n, cin, 4, q, seed=20 + cin, masked=masked)
        arrays[2][1] *= -1.0
        arrays[2][2] = 0.0
        weights = np.random.default_rng(cin).standard_normal((n, 3))
        _match_composite(arrays, weights, masked, pass_mask, stale)

    @pytest.mark.parametrize("stale", [True, False])
    def test_masked_cells_match_zeroed_copy(self, stale):
        # reading the masked cells as zeros is the zeroed copy that training
        # used to make, bit for bit, whether their maps hold stale data or
        # are zero already
        block = ad._CELL_BLOCK
        n = block + 9
        arrays = _conv_block_inputs(n, 3, 4, 6, seed=31, masked=())
        masked = np.array([2, *range(block - 3, block + 4), n - 1])
        zeroed = (arrays[0].copy(), *arrays[1:])
        zeroed[0][masked] = 0.0
        weights = np.random.default_rng(32).standard_normal((n, 3))
        got = _conv_block_pass(ad.conv_block, arrays if stale else zeroed, weights,
                               masked=masked)
        want = _conv_block_pass(ad.conv_block, zeroed, weights)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_model_masks_first_layer_like_zeroed_copy(self):
        cfg = ModelConfig(seed=4, **{**TOY_CFG, "cnn_channels": 4})
        model = CellScapeModel(36, 6, cfg)
        twin = copy.deepcopy(model)
        maps = np.random.default_rng(7).random((ad._CELL_BLOCK + 5, 6, 6))
        masked = mask_cells(maps.shape[0], 0.3, seed=8)
        zeroed = maps.copy()
        zeroed[masked] = 0.0
        z = model.encode_intrinsic(maps, masked)
        z_twin = twin.encode_intrinsic(zeroed)
        ad.backward(ad.tensor_sum(z * z.values))
        ad.backward(ad.tensor_sum(z_twin * z_twin.values))
        np.testing.assert_array_equal(z.values, z_twin.values)
        for name, param in model.params.items():
            if name.startswith("cnn."):
                np.testing.assert_array_equal(param.grad, twin.params[name].grad)

    def test_masked_indices_checked(self):
        arrays = _conv_block_inputs(4, 1, 2, 4, seed=0, masked=())
        with pytest.raises(ValueError, match="masked"):
            ad.conv_block(*arrays, masked=[4])
        with pytest.raises(ValueError, match="masked"):
            ad.conv_block(*arrays, masked=np.ones(4, dtype=bool))

    def test_peak_memory_below_one_patch_matrix(self):
        n, q, cout = 4000, 16, 4
        rng = np.random.default_rng(11)
        maps = rng.random((n, 1, q, q))
        w, gamma, beta, fc_w, fc_b = (Tensor(a, requires_grad=True) for a in (
            rng.standard_normal((cout, 1, 3, 3)), np.ones(cout), np.zeros(cout),
            rng.standard_normal((cout * (q // 2) ** 2, 4)), np.zeros(4)))
        tracemalloc.start()
        try:
            out = ad.conv_block(maps, w, gamma, beta, fc_w, fc_b)
            ad.backward(ad.tensor_sum(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.grad is not None
        # a few arrays of the pooled maps' size (the pooled maps, winners,
        # normalized winners and the head's output) plus a few blocks'
        # patches and channels, below the all-cells (9, n * q * q) patch matrix
        pooled = n * cout * (q // 2) ** 2 * 8
        block = (9 + cout) * ad._CELL_BLOCK * q * q * 8
        bound = 5 * pooled + 4 * block
        assert peak < bound < 9 * n * q * q * 8, f"peak {peak / 2**20:.1f} MiB"

    # ids: n spans one cell block, or two with the second partial; masked
    # or not
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("n", [37, ad._CELL_BLOCK + 7], ids=["one-block", "two-blocks"])
    def test_head_matches_reshape_matmul_add(self, n, masked):
        # the op applies the linear head cnn.fc itself and takes its pooled
        # gradient block by block; the chain reshapes the pooled maps and
        # applies the head by matmul and add
        cfg = ModelConfig(seed=6, **{**TOY_CFG, "cnn_channels": 4})
        model = CellScapeModel(36, 6, cfg)
        maps = np.random.default_rng(8).random((n, 1, 6, 6))
        cells = mask_cells(n, 0.3, seed=9) if masked else None
        weights = np.random.default_rng(10).standard_normal((n, cfg.embed_dim))
        names = [name for name in model.params if name.startswith("cnn.")]
        arrays = [model.params[name].values for name in names]
        assert names == ["cnn.w", "cnn.gamma", "cnn.beta", "cnn.fc.w", "cnn.fc.b"]
        fused = _conv_block_pass(ad.conv_block, (maps, *arrays), weights, masked=cells)
        zeroed = maps.copy()
        if masked:
            zeroed[cells] = 0.0
        assert fused[0].shape == (n, cfg.embed_dim)
        _assert_match(fused, _conv_block_pass(composite_cnn, (zeroed, *arrays), weights))

    def test_model_matches_composite(self):
        cfg = ModelConfig(seed=4, **{**TOY_CFG, "cnn_channels": 4})
        model = CellScapeModel(36, 6, cfg)
        maps = np.random.default_rng(5).random((10, 6, 6))
        maps[[2, 7]] = 0.0
        weights = np.random.default_rng(6).standard_normal((10, cfg.embed_dim))
        names = [name for name in model.params if name.startswith("cnn.")]

        z = model.encode_intrinsic(maps)
        ad.backward(ad.tensor_sum(z * weights))
        fused = [z.values, *(model.params[k].grad for k in names)]
        for p in model.params.values():
            p.grad = None

        z_ref = _composite_cnn(model, maps)
        ad.backward(ad.tensor_sum(z_ref * weights))
        reference = [z_ref.values, *(model.params[k].grad for k in names)]
        # one bias-free block and the head
        assert names == ["cnn.w", "cnn.gamma", "cnn.beta", "cnn.fc.w", "cnn.fc.b"]
        _assert_match(fused, reference)

    @pytest.mark.parametrize("masked", [True, False])
    def test_gradients_match_finite_differences(self, masked):
        # a masked cell reads as a zero map, whose windows tie whatever the
        # parameters, so central differences straddle no kink there
        arrays = _conv_block_inputs(3, 2, 2, 5, seed=9, masked=())
        cells = [1] if masked else None
        weights = np.random.default_rng(10).standard_normal((3, 3))
        analytic = _conv_block_pass(ad.conv_block, arrays, weights, masked=cells)[1:]

        def loss():
            out = ad.conv_block(*arrays, masked=cells)
            return float((out.values * weights).sum())

        numeric = finite_difference_grads(loss, list(arrays[1:]), h=1e-6)
        assert len(analytic) == len(numeric) == 5
        for got, want in zip(analytic, numeric):
            assert relative_error(got, want) < 1e-6


DECODER_PARAMS = ("decoder.W", "decoder.0.a_center", "decoder.0.a_neighbor")


class TestDecoder:
    """``decode`` attends in the embedding space and projects the masked
    rows alone; the reference attends over the (n, genes) projection."""

    def _decoder_pass(self, decoder, n_genes, embed_dim, loss_kind):
        """Loss, reconstruction and the gradients of z and of the decoder's
        parameters, for the reconstruction of the cells ``mask_cells`` draws."""
        rng = np.random.default_rng(n_genes)
        n = 50
        model = CellScapeModel(n_genes, None, ModelConfig(seed=n_genes, embed_dim=embed_dim,
                                                          cci_only=True))
        edges = build_knn_graph(rng.random((2, n)), k=4).directed_edges()
        rows = mask_cells(n, 0.3, seed=n_genes)
        z = Tensor(rng.standard_normal((n, embed_dim)), requires_grad=True)
        x_hat = decoder(model, z, edges, rows)
        if loss_kind == "weighted":
            loss = ad.tensor_sum(x_hat * rng.standard_normal(x_hat.shape))
        else:
            x = rng.random((n, n_genes))
            x[rows[2]] = 0.0  # a zero-norm target: sce_loss's degenerate path
            with pytest.warns(RuntimeWarning, match="1 masked pair"):
                loss = sce_loss(x, x_hat, rows, gamma=3.0)
        ad.backward(loss)
        return [loss.values, x_hat.values, z.grad,
                *(model.params[name].grad for name in DECODER_PARAMS)]

    @pytest.mark.parametrize("loss_kind", ["weighted", "sce"])
    @pytest.mark.parametrize("n_genes,embed_dim", [(16, 4), (100, 32)])
    def test_matches_gene_space_decoder(self, n_genes, embed_dim, loss_kind):
        got = self._decoder_pass(CellScapeModel.decode, n_genes, embed_dim, loss_kind)
        want = self._decoder_pass(gene_space_decoder, n_genes, embed_dim, loss_kind)
        assert got[1].shape == (15, n_genes)
        _assert_match(got, want)

    def test_builds_no_cells_by_genes_array(self):
        # every op output between z and the reconstruction holds at most the
        # masked rows x genes; the sizes make n x embed_dim fit under that
        # bound and n x genes exceed it
        n, n_genes, embed_dim = 60, 64, 8
        rng = np.random.default_rng(0)
        model = CellScapeModel(n_genes, None, ModelConfig(seed=0, embed_dim=embed_dim,
                                                          cci_only=True))
        edges = build_knn_graph(rng.random((2, n)), k=4).directed_edges()
        rows = mask_cells(n, 0.3, seed=1)
        z = Tensor(rng.standard_normal((n, embed_dim)), requires_grad=True)
        out = model.decode(z, edges, rows)
        sizes, seen, stack = [], set(), [out]
        while stack:
            t = stack.pop()
            if t is z or id(t) in seen or not t._parents:  # z, parameters and constants
                continue
            seen.add(id(t))
            sizes.append(t.size)
            stack.extend(t._parents)
        assert out.shape == (rows.size, n_genes)
        assert len(sizes) >= 4
        assert max(sizes) <= rows.size * n_genes < n * n_genes


def _reachable_arrays(root):
    """Every numpy array the graph under ``root`` holds: each tensor's
    values, and whatever its backward closure holds, through nested
    closures, tuples and lists, with each array's base."""
    arrays, tensors, seen = [], [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            tensors.append(obj)
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
            if isinstance(obj.base, np.ndarray):
                visit(obj.base)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    visit(cell.cell_contents)
                except ValueError:          # a cell not yet assigned
                    pass

    visit(root)
    while tensors:
        t = tensors.pop()
        visit(t.values)
        visit(t._backward_fn)
        visit(t._parents)
    return arrays


class TestEncoderKeeps:
    """What the encoders' graph holds between the forward and the walk."""

    def test_masked_encode_holds_no_projection_or_pre_activation(self):
        # four heads of 6 in the hidden layer and of 5 in the final one, so
        # (n, 24) arrays are the hidden layer's projection, its pre-ELU
        # output and its output, and (n, 20) ones the final layer's
        # projection; of those the graph holds the hidden output alone
        ds, graph, layout = toy_dataset(n=30, p=36, seed=28)
        cfg = ModelConfig(seed=28, **{**TOY_CFG, "attention_heads": 4, "hidden_dim": 24,
                                      "embed_dim": 5})
        model, (features, maps, edges, _) = _step_inputs(ds, graph, layout, cfg)
        mask = mask_cells(ds.n_cells, cfg.mask_ratio, seed=29)
        z_spatial, _, z_fused = model.encode(features, maps, edges, masked=mask)
        hidden = z_spatial._parents[0].values
        assert hidden.shape == (ds.n_cells, 24)
        wide = [a for a in _reachable_arrays(z_fused)
                if a.dtype == np.float64 and a.ndim >= 2 and a.shape[0] == ds.n_cells
                and int(np.prod(a.shape[1:])) in (20, 24)]
        assert wide and all(np.shares_memory(a, hidden) for a in wide)

    def test_cnn_head_walk_holds_no_pooled_gradient(self):
        # the head's gradient reaches the pooled cells one cell block at a
        # time, so the walk never holds an (n, cout * hp * wp) array: its
        # peak stays below one, at 32 blocks of 128 cells
        cfg = ModelConfig(seed=30, **{**TOY_CFG, "cnn_channels": 16})
        q = 10
        model = CellScapeModel(q * q, q, cfg)
        rng = np.random.default_rng(31)
        n = 32 * ad._CELL_BLOCK
        z = model.encode_intrinsic(rng.random((n, q, q)))
        seed = rng.standard_normal(z.shape)
        tracemalloc.start()
        try:
            ad.backward(z, seed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.params["cnn.fc.w"].grad.shape == (16 * 5 * 5, cfg.embed_dim)
        pooled = n * 16 * (q // 2) ** 2 * 8
        assert peak < pooled, f"peak {peak / 2**20:.2f} MiB"


class TestModelGradients:
    def test_full_model_matches_finite_differences(self):
        ds, graph, layout = toy_dataset(n=12, p=16, seed=7)
        cfg = ModelConfig(seed=7, **TOY_CFG)
        model = CellScapeModel(16, layout.q, cfg)
        mask = mask_cells(ds.n_cells, cfg.mask_ratio, seed=3)
        features = ds.X.T
        maps = render_maps(ds.X, layout)
        edges = graph.directed_edges()
        neighbors = neighbor_arrays(edges)

        def total_loss():
            _, _, z_fused = model.encode(features, maps, edges, masked=mask)
            recon = sce_loss(features, model.decode(z_fused, edges, mask), mask, cfg.gamma)
            con = contrastive_loss(ad.l2_normalize_rows(z_fused), neighbors, cfg.tau,
                                   anchors=np.arange(ds.n_cells))
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


def _step_inputs(ds, graph, layout, cfg):
    """A fresh model and the epoch inputs ``train`` prepares for ``_step``."""
    q = None if cfg.cci_only else layout.q
    maps = None if cfg.cci_only else render_maps(ds.X, layout)
    edges = graph.directed_edges()
    return CellScapeModel(ds.n_genes, q, cfg), (ds.X.T, maps, edges, neighbor_arrays(edges))


class TestTaskStackedGradients:
    """One encoder walk per epoch carries both objectives' gradients, merged
    by PCGrad at the fused embedding."""

    # ids: the toy model; five CNN channels, where PCGrad projects in
    # neither epoch; the spatial branch alone; fewer contrastive anchors
    # than cells. Each with whether PCGrad projects in epochs 0 and 1: both
    # kinds of epoch are covered
    @pytest.mark.parametrize("case,projects", [
        ("toy", [True, True]), ("five-channels", [False, False]),
        ("cci-only", [True, False]), ("sampled-anchors", [True, True]),
    ], ids=["toy", "five-channels", "cci-only", "sampled-anchors"])
    def test_matches_two_pass_oracle(self, case, projects, monkeypatch):
        extra = {"five-channels": {"cnn_channels": 5},
                 "cci-only": {"cci_only": True}}.get(case, {})
        ds, graph, layout = toy_dataset(n=30, p=36, seed=23)
        if case == "sampled-anchors":
            monkeypatch.setattr(training, "MAX_CONTRASTIVE_ANCHORS", 7)
        cfg = ModelConfig(seed=23, **{**TOY_CFG, **extra})
        model, inputs = _step_inputs(ds, graph, layout, cfg)
        optimizer = optim.AdamState(model.params, cfg.weight_decay)
        stepped = []

        def taking_adam_step(state, params, grads, lr):
            stepped.append(grads)
            optim.adam_step(state, params, grads, lr)

        monkeypatch.setattr(training, "adam_step", taking_adam_step)
        for epoch in range(2):
            want, projected = fused_embedding_step_grads(copy.deepcopy(model), epoch, *inputs)
            record = training._step(model, optimizer, epoch, *inputs)
            assert record["pcgrad_projected"] == projected == projects[epoch]
            got = stepped[-1]
            assert set(got) == set(want) == set(model.params)
            # within 1e-12 of the step's largest gradient entry: an attention
            # vector's gradient that vanishes in theory is rounding noise
            scale = max(np.abs(g).max() for g in want.values())
            for name, reference in want.items():
                assert got[name].shape == model.params[name].shape, name
                np.testing.assert_allclose(got[name], reference, rtol=1e-12,
                                           atol=1e-12 * scale, err_msg=name)

    def test_one_epoch_runs_each_encoder_op_backward_once(self, monkeypatch):
        # every encoder attention layer, the CNN and the decoder's attention
        # run their backward once, each with a gradient of its output's
        # shape: the decoder's for the reconstruction loss alone, the
        # encoders' for both losses merged
        ds, graph, layout = toy_dataset(n=30, p=36, seed=24)
        cfg = ModelConfig(seed=24, **TOY_CFG)
        model, inputs = _step_inputs(ds, graph, layout, cfg)
        made = []   # (op, whether each backward call's gradient had the output's shape)

        def counting(op):
            original = getattr(ad, op)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                record = (op, [])
                backward_fn = out._backward_fn

                def counted(g):
                    record[1].append(g.shape == out.shape)
                    backward_fn(g)

                out._backward_fn = counted
                made.append(record)
                return out

            monkeypatch.setattr(ad, op, wrapper)

        counting("gat_attention")
        counting("conv_block")
        counting("sce")
        training._step(model, optim.AdamState(model.params, cfg.weight_decay), 0, *inputs)
        assert [op for op, _ in made] == ["gat_attention"] * 2 + ["conv_block"] + [
            "gat_attention", "sce"]
        assert [calls for _, calls in made] == [[True]] * 5


    def test_reconstruction_graph_freed_before_contrastive_head(self, monkeypatch):
        # one loss head's graph at a time: when the contrastive loss is
        # built, no tensor of the reconstruction head is alive. Tensors take
        # no weak reference, so watch the decoder output's values, which its
        # tensor alone holds
        ds, graph, layout = toy_dataset(n=30, p=36, seed=25)
        cfg = ModelConfig(seed=25, **TOY_CFG)
        model, inputs = _step_inputs(ds, graph, layout, cfg)
        decoded, alive = [], []

        def watched_sce(x, x_hat, *args, **kwargs):
            decoded.append(weakref.ref(x_hat.values))
            return sce_loss(x, x_hat, *args, **kwargs)

        def watched_contrastive(*args, **kwargs):
            alive.append(decoded[-1]() is not None)
            return contrastive_loss(*args, **kwargs)

        monkeypatch.setattr(training, "sce_loss", watched_sce)
        monkeypatch.setattr(training, "contrastive_loss", watched_contrastive)
        training._step(model, optim.AdamState(model.params, cfg.weight_decay), 0, *inputs)
        assert alive == [False]

    def test_per_loss_gradients_freed_before_encoder_walk(self, monkeypatch):
        # the log figures are read before the encoders' walk, so neither the
        # (2, n, d) per-loss gradients pcgrad receives nor the projections
        # it returns are alive when the merged gradient seeds the walk
        ds, graph, layout = toy_dataset(n=30, p=36, seed=27)
        cfg = ModelConfig(seed=27, **TOY_CFG)
        model, inputs = _step_inputs(ds, graph, layout, cfg)
        watched, alive = [], []
        backward = ad.backward

        def watched_pcgrad(grads):
            adjusted = optim.pcgrad(grads)
            watched.extend([weakref.ref(grads), weakref.ref(adjusted)])
            return adjusted

        def watched_backward(root, seed=None):
            if seed is not None:
                alive.append([ref() is not None for ref in watched])
            backward(root, seed)

        monkeypatch.setattr(training, "pcgrad", watched_pcgrad)
        monkeypatch.setattr(ad, "backward", watched_backward)
        record = training._step(model, optim.AdamState(model.params, cfg.weight_decay), 0,
                                *inputs)
        assert alive == [[False, False]]
        assert record["grad_norm_recon"] > 0.0 and record["grad_norm_contrastive"] > 0.0

    @pytest.mark.parametrize("head, message", [
        ("sce_loss", "non-finite loss at epoch 0: recon=nan"),
        ("contrastive_loss", "non-finite loss at epoch 0: contrastive=nan"),
        # a NaN merged gradient reaches every encoder parameter; the guard
        # names the first
        ("pcgrad", "non-finite gradient at epoch 0: encoder.0.W"),
    ], ids=["sce_loss", "contrastive_loss", "pcgrad"])
    def test_non_finite_loss_raises_before_any_update(self, monkeypatch, head, message):
        ds, graph, layout = toy_dataset(n=30, p=36, seed=26)
        cfg = ModelConfig(seed=26, **TOY_CFG)
        model, inputs = _step_inputs(ds, graph, layout, cfg)
        before = {name: p.values.copy() for name, p in model.params.items()}
        if head == "pcgrad":
            monkeypatch.setattr(training, head, lambda dz: dz * np.nan)
        else:
            monkeypatch.setattr(training, head, lambda *args, **kwargs: Tensor(np.nan))
        with pytest.raises(RuntimeError, match=message):
            training._step(model, optim.AdamState(model.params, cfg.weight_decay), 0, *inputs)
        for key, values in before.items():
            np.testing.assert_array_equal(model.params[key].values, values, err_msg=key)


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
        assert emb.Z_intrinsic.tobytes() == twice.Z_intrinsic.tobytes()
        assert emb.Z.tobytes() == twice.Z.tobytes()

    def test_intrinsic_embedding_matches_composite_on_trained_parameters(self):
        # embed normalizes the CNN by the statistics of the cells it
        # encodes, as a training forward does; no running average enters
        ds, graph, layout = toy_dataset(seed=21)
        cfg = ModelConfig(seed=21, epochs=4, **TOY_CFG)
        model, emb, _ = train(ds, graph, layout, cfg)
        reference = _composite_cnn(model, render_maps(ds.X, layout))
        _assert_match([emb.Z_intrinsic], [reference.values])

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
        np.testing.assert_allclose(emb_p.Z_intrinsic, emb.Z_intrinsic[perm], atol=1e-9)
        np.testing.assert_allclose(emb_p.Z, emb.Z[perm], atol=1e-9)

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

"""Gene layout optimization, map rendering, and joint masking."""

import itertools

import numpy as np
import pytest

from cellscape import training
from cellscape.dataset import ExpressionDataset
from cellscape.config import PipelineConfig
from cellscape.gene_map import GeneLayout, layout_genes, mask_cells, render_maps
from cellscape.network import CellScapeModel, ModelConfig
from cellscape.pipeline import make_layout
from cellscape.preprocess import CoexpressionMatrix
from cellscape.spatial_graph import build_knn_graph
from oracles import naive_gene_layout


def cm(C):
    C = np.asarray(C, dtype=np.float64)
    return CoexpressionMatrix(C=C, constant_genes=np.zeros(len(C), dtype=bool))


def default_layout(C, seed):
    """``layout_genes`` at the configured ``swap_budget_factor * p^2`` swaps."""
    return make_layout(cm(C), PipelineConfig(seed=seed))


def brute_force_optimum(C, q):
    """Minimum objective over every assignment of genes to grid cells."""
    p = len(C)
    w = np.maximum(C, 0.0).copy()
    np.fill_diagonal(w, 0.0)
    cells = [(r, s) for r in range(q) for s in range(q)]
    best = np.inf
    for assignment in itertools.permutations(cells, p):
        pos = np.array(assignment, dtype=float)
        j = 0.0
        for u in range(p):
            for v in range(u + 1, p):
                j += w[u, v] * np.linalg.norm(pos[u] - pos[v])
        best = min(best, j)
    return best


class TestLayout:
    def test_single_gene(self):
        layout = default_layout([[1.0]], seed=0)
        assert layout.q == 1
        np.testing.assert_array_equal(layout.positions, [[0, 0]])
        assert layout.objective_value == 0.0

    def test_two_block_pairs_adjacent(self):
        C = np.eye(4)
        C[0, 1] = C[1, 0] = 0.9
        C[2, 3] = C[3, 2] = 0.9
        layout = default_layout(C, seed=1)
        assert layout.q == 2
        d01 = np.linalg.norm((layout.positions[0] - layout.positions[1]).astype(float))
        d23 = np.linalg.norm((layout.positions[2] - layout.positions[3]).astype(float))
        assert d01 == pytest.approx(1.0)
        assert d23 == pytest.approx(1.0)
        assert layout.objective_value == pytest.approx(brute_force_optimum(C, 2))

    def test_zero_weights_any_layout_optimal(self):
        layout = default_layout(np.eye(5), seed=2)
        assert layout.objective_value == 0.0
        # bijective placement
        cells = layout.cell_indices()
        assert len(set(cells.tolist())) == 5

    def test_non_symmetric_rejected(self):
        C = np.eye(3)
        C[0, 1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            default_layout(C, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        base = rng.uniform(-1, 1, (9, 9))
        C = (base + base.T) / 2
        np.fill_diagonal(C, 1.0)
        a = default_layout(C, seed=11)
        b = default_layout(C, seed=11)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert a.objective_value == b.objective_value

    def test_swaps_never_hurt_and_small_gap(self):
        gaps = []
        for seed in range(4):
            rng = np.random.default_rng(seed + 40)
            base = rng.uniform(0, 1, (5, 5))
            C = (base + base.T) / 2
            np.fill_diagonal(C, 1.0)
            layout = default_layout(C, seed=seed)
            assert layout.objective_value <= layout.greedy_objective + 1e-12
            optimum = brute_force_optimum(C, layout.q)
            gaps.append(layout.objective_value - optimum)
            assert layout.objective_value >= optimum - 1e-9
        # heuristic optimality gap is reported, not asserted
        print(f"layout optimality gaps over 4 random 5-gene problems: {gaps}")

    @pytest.mark.parametrize("kind", ["correlation", "mostly_negative"])
    @pytest.mark.parametrize("p", [2, 3, 10, 17, 50, 101])
    def test_matches_naive_reference(self, p, kind):
        # squares and non-squares (padding cells); mostly-negative entries
        # clip to mostly zero weights, so seeding runs through its tie-breaks
        rng = np.random.default_rng(p)
        if kind == "correlation":
            C = np.corrcoef(rng.standard_normal((p, p + 5)))
        else:
            C = rng.uniform(-1.0, 0.1, (p, p))
            np.fill_diagonal(C, 1.0)
        C = (C + C.T) / 2
        budget = 20 * p * p if p <= 50 else 2 * p * p  # the loop reference is O(p) per evaluation
        layout = layout_genes(cm(C), seed=p, swap_budget=budget)
        positions, greedy_j, final_j = naive_gene_layout(C, seed=p, swap_budget=budget)
        np.testing.assert_array_equal(layout.positions, np.array(positions).reshape(p, 2))
        # the objectives are summed in a different order
        assert layout.greedy_objective == pytest.approx(greedy_j, rel=1e-12, abs=1e-12)
        assert layout.objective_value == pytest.approx(final_j, rel=1e-12, abs=1e-12)

    def test_grid_size_invariant(self):
        for p in (1, 2, 4, 5, 9, 10, 16, 17):
            C = np.eye(p)
            layout = default_layout(C, seed=0)
            assert layout.q ** 2 >= p
            assert (layout.q - 1) ** 2 < p


def render_one(x, layout):
    """One cell's map: ``render_maps`` on a one-column matrix."""
    return render_maps(np.asarray(x)[:, None], layout)[0]


class TestRender:
    def _identity_layout(self, p, q):
        cells = np.arange(p)
        positions = np.stack(np.divmod(cells, q), axis=1)
        return GeneLayout(positions=positions, q=q, objective_value=0.0, greedy_objective=0.0)

    def test_row_major_padding(self):
        layout = self._identity_layout(3, 2)
        np.testing.assert_array_equal(
            render_one(np.array([5.0, 7.0, 9.0]), layout), [[5, 7], [9, 0]]
        )

    def test_zero_vector(self):
        layout = self._identity_layout(3, 2)
        np.testing.assert_array_equal(render_one(np.zeros(3), layout), np.zeros((2, 2)))

    def test_permuted_layout(self):
        positions = np.array([[1, 1], [0, 0], [0, 1], [1, 0]])
        layout = GeneLayout(positions=positions, q=2, objective_value=0.0, greedy_objective=0.0)
        np.testing.assert_array_equal(
            render_one(np.array([1.0, 2.0, 3.0, 4.0]), layout), [[2, 3], [4, 1]]
        )

    def test_length_mismatch(self):
        layout = self._identity_layout(3, 2)
        with pytest.raises(ValueError, match="expected 3 gene rows"):
            render_one(np.zeros(4), layout)

    def test_linearity_and_conservation(self):
        rng = np.random.default_rng(7)
        layout = self._identity_layout(7, 3)
        x, y = rng.standard_normal(7), rng.standard_normal(7)
        lhs = render_one(2.0 * x + 3.0 * y, layout)
        rhs = 2.0 * render_one(x, layout) + 3.0 * render_one(y, layout)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        assert render_one(x, layout).sum() == pytest.approx(x.sum())

    def test_batched_matches_single(self):
        rng = np.random.default_rng(8)
        layout = self._identity_layout(5, 3)
        X = rng.standard_normal((5, 4))
        batch = render_maps(X, layout)
        for i in range(4):
            np.testing.assert_array_equal(batch[i], render_one(X[:, i], layout))


class TestMask:
    """``mask_cells`` draws the masked cells; each training epoch zeroes
    the features of those same cells and has the CNN read their gene maps
    as zeros (``conv_block``'s ``masked``, checked in ``test_model``)."""

    def _epoch_inputs(self, monkeypatch, cci_only=False, n=12, p=16, q=4):
        """X, the full maps, and the mask, features, maps and masked cells
        that the one training epoch encodes."""
        rng = np.random.default_rng(9)
        X = rng.random((p, n)) + 0.5
        ds = ExpressionDataset(X=X, coords=rng.random((2, n)),
                               gene_names=[f"g{i}" for i in range(p)],
                               cell_ids=[f"c{j}" for j in range(n)])
        positions = np.stack(np.divmod(np.arange(p), q), axis=1)
        layout = GeneLayout(positions=positions, q=q, objective_value=0.0, greedy_objective=0.0)
        cfg = ModelConfig(gat_layers=1, attention_heads=1, hidden_dim=4, embed_dim=4,
                          cnn_channels=(2,), mask_ratio=0.5, epochs=1, cci_only=cci_only)
        drawn, seen = [], []

        def draw(*args):
            drawn.append(mask_cells(*args))
            return drawn[-1]

        def encode(model, features, maps, edges, training, masked=None):
            seen.append((features.copy(), None if maps is None else maps.copy(), masked))
            return original_encode(model, features, maps, edges, training, masked)

        original_encode = CellScapeModel.encode
        monkeypatch.setattr(training, "mask_cells", draw)
        monkeypatch.setattr(CellScapeModel, "encode", encode)
        training.train(ds, build_knn_graph(ds.coords, k=3), layout, cfg)
        assert len(drawn) == 1 and len(seen) == 2  # the epoch, then the mask-free embed
        features, maps, masked = seen[0]
        assert seen[1][2] is None  # embed masks nothing
        return X, render_maps(X, layout), drawn[0], features, maps, masked

    def test_mask_count_and_zeroing(self, monkeypatch):
        mask = mask_cells(7, ratio=0.3, seed=0)
        assert mask.size == 3  # ceil(0.3 * 7)
        assert np.all(np.diff(mask) > 0) and 0 <= mask.min() and mask.max() < 7
        _, full_maps, mask, features, maps, masked = self._epoch_inputs(monkeypatch)
        assert mask.size == 6
        assert np.all(features[mask] == 0)
        # the maps go in whole, with the masked cells named beside them
        np.testing.assert_array_equal(masked, mask)
        np.testing.assert_array_equal(maps, full_maps)
        # the spatial-only branch draws the same cells and zeroes their features
        _, _, cci_mask, cci_features, cci_maps, _ = self._epoch_inputs(monkeypatch, cci_only=True)
        np.testing.assert_array_equal(cci_mask, mask)
        assert np.all(cci_features[mask] == 0) and cci_maps is None

    def test_unmasked_untouched(self, monkeypatch):
        X, full_maps, mask, features, maps, _ = self._epoch_inputs(monkeypatch)
        kept = np.setdiff1d(np.arange(X.shape[1]), mask)
        np.testing.assert_array_equal(features[kept], X.T[kept])
        np.testing.assert_array_equal(maps[kept], full_maps[kept])

    def test_same_seed_same_mask(self):
        a = mask_cells(50, ratio=0.3, seed=42)
        b = mask_cells(50, ratio=0.3, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, mask_cells(50, ratio=0.3, seed=43))

    def test_map_sum_conservation(self, monkeypatch):
        X, _, mask, _, maps, masked = self._epoch_inputs(monkeypatch)
        np.testing.assert_array_equal(masked, mask)
        for i in range(X.shape[1]):
            assert maps[i].sum() == pytest.approx(X[:, i].sum())

    def test_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                mask_cells(4, ratio=bad, seed=0)

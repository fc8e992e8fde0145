"""Gene layout optimization, map rendering, and joint masking."""

import itertools

import numpy as np
import pytest

from cellscape import autodiff as ad, gene_map, training
from cellscape.dataset import ExpressionDataset
from cellscape.config import PipelineConfig
from cellscape.gene_map import GeneLayout, layout_genes, mask_cells, render_maps
from cellscape.network import CellScapeModel, ModelConfig
from cellscape.pipeline import SWAP_BUDGET_FACTOR, make_layout, preprocess_expression
from cellscape.preprocess import pearson_coexpression
from cellscape.spatial_graph import build_knn_graph
from cellscape.synth import SyntheticSpec, generate_tissue
from oracles import chunked_layout_genes, naive_gene_layout


def default_layout(C, seed):
    """``layout_genes`` at the pipeline's ``SWAP_BUDGET_FACTOR * p^2`` swaps."""
    return make_layout(np.asarray(C, dtype=np.float64), PipelineConfig(seed=seed))


def weight_matrix(kind: str, p: int, seed: int) -> np.ndarray:
    """A symmetric p x p co-expression matrix: random correlations, a
    block-diagonal one (genes in five programs, correlated within their
    program and uncorrelated across, so that about a fifth of the weights
    are positive, as in the synthetic tissues), the same scaled by 1e-9, so
    that swap deltas lie near the -1e-12 acceptance threshold, or one
    without a positive weight."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.eye(p)
    if kind == "faint":
        return 1e-9 * weight_matrix("blocks", p, seed)
    if kind == "correlation":
        C = np.atleast_2d(np.corrcoef(rng.standard_normal((p, p + 5))))
    else:
        program = np.arange(p) * 5 // p
        X = 2.0 * rng.standard_normal((program[-1] + 1, 60))[program] + rng.standard_normal((p, 60))
        C = np.where(program[:, None] == program[None, :], np.atleast_2d(np.corrcoef(X)), 0.0)
    return (C + C.T) / 2


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
        layout = layout_genes(C, seed=p, swap_budget=budget)
        positions, greedy_j, final_j = naive_gene_layout(C, seed=p, swap_budget=budget)
        np.testing.assert_array_equal(layout.positions, np.array(positions).reshape(p, 2))
        # the objectives are summed in a different order
        assert layout.greedy_objective == pytest.approx(greedy_j, rel=1e-12, abs=1e-12)
        assert layout.objective_value == pytest.approx(final_j, rel=1e-12, abs=1e-12)

    def test_row_updates_match_full_outer_products(self, monkeypatch):
        # placements and swaps update only the table rows with a non-zero
        # weight factor; the full rank-1 update gives the same layout
        rng = np.random.default_rng(40)
        C = np.corrcoef(rng.standard_normal((40, 45)))
        C = (C + C.T) / 2
        got = default_layout(C, seed=40)

        def full_outer(M, u, v):
            M += np.outer(u, v)

        monkeypatch.setattr(gene_map, "_add_rows", full_outer)
        want = default_layout(C, seed=40)
        np.testing.assert_array_equal(got.positions, want.positions)
        assert got.greedy_objective == want.greedy_objective
        assert got.objective_value == want.objective_value < got.greedy_objective

    @pytest.mark.parametrize("kind", ["correlation", "blocks", "faint", "zero"])
    @pytest.mark.parametrize("budget", [0, 7, 777, 512 * 9 + 3, "20p^2"])
    @pytest.mark.parametrize("p", [1, 2, 5, 17, 30, 64, 100, 256])
    def test_matches_chunked_reference_bit_for_bit(self, p, budget, kind):
        if budget == "20p^2":
            budget = 20 * p * p
        C = weight_matrix(kind, p, seed=p)
        layout = layout_genes(C, seed=p + 1, swap_budget=budget)
        positions, greedy_j, final_j = chunked_layout_genes(C, seed=p + 1, swap_budget=budget)
        np.testing.assert_array_equal(layout.positions, positions)
        assert layout.greedy_objective == greedy_j
        assert layout.objective_value == final_j

    @pytest.mark.slow
    def test_matches_chunked_reference_at_800_genes(self):
        ds = generate_tissue(SyntheticSpec(n_cells=2000, n_genes=800, seed=3))[0]
        cfg = PipelineConfig(seed=3)
        coexpr = pearson_coexpression(preprocess_expression(ds, cfg)[0])
        assert coexpr.shape == (800, 800)
        layout = make_layout(coexpr, cfg)
        positions, greedy_j, final_j = chunked_layout_genes(
            coexpr, seed=3, swap_budget=SWAP_BUDGET_FACTOR * 800 ** 2)
        np.testing.assert_array_equal(layout.positions, positions)
        assert layout.greedy_objective == greedy_j
        assert layout.objective_value == final_j < greedy_j

    def test_stops_drawing_once_no_swap_improves(self, monkeypatch):
        # at 20 p^2 candidates the descent reaches a layout no swap improves
        # and stops drawing; the layout it stops at is a true 2-opt optimum
        drawn = []
        draws = gene_map._draws

        def counted(rng, p, budget):
            for block in draws(rng, p, budget):
                drawn.append(block.shape[0] * block.shape[2])
                yield block

        monkeypatch.setattr(gene_map, "_draws", counted)
        p = 100
        C = weight_matrix("blocks", p, seed=5)
        layout = layout_genes(C, seed=5, swap_budget=20 * p * p)
        assert sum(drawn) < 20 * p * p
        w = np.maximum(C, 0.0)
        np.fill_diagonal(w, 0.0)
        pos = layout.positions.astype(float)
        D = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
        assert 0.5 * (w * D).sum() == pytest.approx(layout.objective_value, rel=1e-12)
        # swapping a and b changes the objective by sum_k (w[a, k] - w[b, k])
        # (D[b, k] - D[a, k]) + 2 w[a, b] D[a, b], for every pair at once
        G = w @ D
        own = np.diag(G)
        deltas = G - own[:, None] + G.T - own[None, :] + 2.0 * w * D
        assert deltas.min() >= -1e-9

    @pytest.mark.parametrize("kind", ["blocks", "faint"])
    @pytest.mark.parametrize("p, budget, two_opt", [(30, 0, False), (100, 200_000, True)])
    def test_two_opt_check_agrees_with_every_swap_delta(self, monkeypatch, kind, p, budget,
                                                        two_opt):
        # the check scores every ordered pair in row blocks (patched small,
        # so that there are many); it must find an improving swap exactly
        # when one exists, also when the improvement is near the threshold
        monkeypatch.setattr(gene_map, "_ROW_BLOCK", 64)
        C = weight_matrix(kind, p, seed=7)
        w = np.maximum(C, 0.0)
        np.fill_diagonal(w, 0.0)
        layout = layout_genes(C, seed=7, swap_budget=budget)
        grid = np.stack(np.divmod(np.arange(layout.q ** 2), layout.q), axis=1).astype(float)
        grid_dist = np.linalg.norm(grid[:, None, :] - grid[None, :, :], axis=2)
        cell_of = layout.cell_indices()
        D = grid_dist[np.ix_(cell_of, cell_of)]
        G = w @ D
        own = np.diag(G)
        deltas = G - own[:, None] + G.T - own[None, :] + 2.0 * w * D
        assert bool(deltas.min() >= -1e-12) is two_opt
        M = w @ grid_dist[cell_of]  # the table of the layout, from scratch
        assert gene_map._is_two_opt(M, w, grid_dist, cell_of) is two_opt

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
        # the maps are written in the compute dtype, so each side rounds
        # every entry once or twice there (1e-12 when it is float64)
        eps = np.finfo(ad.DTYPE).eps
        np.testing.assert_allclose(lhs, rhs, rtol=0,
                                   atol=max(1e-12, 4 * eps * (2 * np.abs(x) + 3 * np.abs(y)).max()))
        assert render_one(x, layout).sum() == pytest.approx(x.sum())

    def test_batched_matches_single(self):
        rng = np.random.default_rng(8)
        layout = self._identity_layout(5, 3)
        X = rng.standard_normal((5, 4))
        batch = render_maps(X, layout)
        for i in range(4):
            np.testing.assert_array_equal(batch[i], render_one(X[:, i], layout))


class TestMask:
    """``mask_cells`` draws the masked cells; each training epoch has both
    encoders read those cells as zeros without copying the inputs: the
    first GAT layer zeroes their projected rows, and the CNN reads their
    gene maps as zeros (``conv_block``'s ``masked``, checked in
    ``test_model``)."""

    _encode = staticmethod(CellScapeModel.encode)  # the unpatched method

    def _epoch(self, monkeypatch, cci_only=False, X=None, n=12, p=16, q=4):
        """One training epoch on ``X`` (seeded random by default): X, the
        full maps, the drawn mask, and what the epoch encoded (features,
        maps, masked cells), its fused embedding and its log record."""
        rng = np.random.default_rng(9)
        drawn_X = rng.random((p, n)) + 0.5
        X = drawn_X if X is None else X
        ds = ExpressionDataset(X=X, coords=rng.random((2, n)),
                               gene_names=[f"g{i}" for i in range(p)],
                               cell_ids=[f"c{j}" for j in range(n)])
        positions = np.stack(np.divmod(np.arange(p), q), axis=1)
        layout = GeneLayout(positions=positions, q=q, objective_value=0.0, greedy_objective=0.0)
        cfg = ModelConfig(gat_layers=1, attention_heads=1, hidden_dim=4, embed_dim=4,
                          cnn_channels=2, mask_ratio=0.5, epochs=1, cci_only=cci_only)
        drawn, seen = [], []

        def draw(*args):
            drawn.append(mask_cells(*args))
            return drawn[-1]

        def encode(model, features, maps, edges, masked=None):
            out = self._encode(model, features, maps, edges, masked)
            seen.append(dict(features=features.copy(),
                             maps=None if maps is None else maps.copy(),
                             masked=masked, z_fused=out[2].values.copy()))
            return out

        monkeypatch.setattr(training, "mask_cells", draw)
        monkeypatch.setattr(CellScapeModel, "encode", encode)
        _, _, log = training.train(ds, build_knn_graph(ds.coords, k=3), layout, cfg)
        assert len(drawn) == 1 and len(seen) == 2  # the epoch, then the mask-free embed
        assert seen[1]["masked"] is None  # embed masks nothing
        return dict(X=X, full_maps=render_maps(X, layout), mask=drawn[0], log=log[0],
                    **seen[0])

    def test_mask_count_and_zeroing(self, monkeypatch):
        mask = mask_cells(7, ratio=0.3, seed=0)
        assert mask.size == 3  # ceil(0.3 * 7)
        assert np.all(np.diff(mask) > 0) and 0 <= mask.min() and mask.max() < 7
        for cci_only in (False, True):
            epoch = self._epoch(monkeypatch, cci_only)
            X, mask = epoch["X"], epoch["mask"]
            assert mask.size == 6
            if cci_only:
                assert epoch["maps"] is None
            else:
                # the maps go in whole, with the masked cells named beside them
                np.testing.assert_array_equal(epoch["masked"], mask)
                np.testing.assert_array_equal(epoch["maps"], epoch["full_maps"])
            # the encoders read the masked cells as zeros: whatever they
            # express, the epoch's embedding and contrastive loss are the
            # same bit for bit; only the reconstruction target moves
            changed = X.copy()
            changed[:, mask] = 3.0 * X[:, mask][::-1] + 1.0
            again = self._epoch(monkeypatch, cci_only, X=changed)
            np.testing.assert_array_equal(again["mask"], mask)
            assert again["z_fused"].tobytes() == epoch["z_fused"].tobytes()
            assert again["log"]["loss_contrastive"] == epoch["log"]["loss_contrastive"]
            assert again["log"]["loss_recon"] != epoch["log"]["loss_recon"]

    def test_unmasked_untouched(self, monkeypatch):
        epoch = self._epoch(monkeypatch)
        kept = np.setdiff1d(np.arange(epoch["X"].shape[1]), epoch["mask"])
        # the features are X transposed and cast once to the compute dtype
        np.testing.assert_array_equal(epoch["features"][kept],
                                      epoch["X"].T[kept].astype(ad.DTYPE))
        np.testing.assert_array_equal(epoch["maps"][kept], epoch["full_maps"][kept])

    def test_same_seed_same_mask(self):
        a = mask_cells(50, ratio=0.3, seed=42)
        b = mask_cells(50, ratio=0.3, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, mask_cells(50, ratio=0.3, seed=43))

    def test_map_sum_conservation(self, monkeypatch):
        epoch = self._epoch(monkeypatch)
        np.testing.assert_array_equal(epoch["masked"], epoch["mask"])
        for i in range(epoch["X"].shape[1]):
            assert epoch["maps"][i].sum() == pytest.approx(epoch["X"][:, i].sum())

    def test_ratio_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                mask_cells(4, ratio=bad, seed=0)

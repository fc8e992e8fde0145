"""Spatial graph construction checks, including a brute-force Delaunay oracle."""

import itertools
import tracemalloc

import numpy as np
import pytest

from cellscape import autodiff as ad
from cellscape.config import PipelineConfig
from cellscape.losses import neighbor_arrays
from cellscape.pipeline import build_graph
from cellscape.spatial_graph import (
    SpatialGraph,
    block_diagonal_merge,
    build_delaunay_graph,
    build_knn_graph,
    choose_graph_method,
    nearest_neighbors,
    prune_long_edges,
    read_edge_list,
    write_edge_list,
)

from oracles import brute_force_knn_edges, brute_force_neighbors, loop_neighbor_lists


def brute_force_delaunay_edges(pts: np.ndarray) -> set[tuple[int, int]]:
    """Edges of all empty-circumcircle triangles (general-position points)."""
    n = len(pts)
    edges = set()
    for i, j, k in itertools.combinations(range(n), 3):
        ax, ay = pts[i]
        bx, by = pts[j]
        cx, cy = pts[k]
        d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
        if abs(d) < 1e-12:
            continue
        ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
              + (cx**2 + cy**2) * (ay - by)) / d
        uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
              + (cx**2 + cy**2) * (bx - ax)) / d
        r2 = (ax - ux) ** 2 + (ay - uy) ** 2
        empty = True
        for m in range(n):
            if m in (i, j, k):
                continue
            if (pts[m, 0] - ux) ** 2 + (pts[m, 1] - uy) ** 2 < r2 - 1e-9:
                empty = False
                break
        if empty:
            for a, b in ((i, j), (j, k), (i, k)):
                edges.add((min(a, b), max(a, b)))
    return edges


def square_grid(side: int, spacing: float) -> np.ndarray:
    xs, ys = np.meshgrid(np.arange(side) * spacing, np.arange(side) * spacing)
    return np.vstack([xs.ravel(), ys.ravel()])


def hex_grid(side: int, scale: float) -> np.ndarray:
    """Rows offset by 1/2 and sqrt(3)/2 apart: six neighbours at distance 1."""
    cols, rows = np.meshgrid(np.arange(side), np.arange(side))
    x = cols + 0.5 * (rows % 2)
    y = rows * (np.sqrt(3.0) / 2.0)
    return np.vstack([x.ravel(), y.ravel()]) * scale


# every cell has equidistant neighbours; the scales make the tied distances
# differ from their true values in the last bits
LATTICES = {
    "square-0.1": square_grid(20, 0.1),
    "hex-100": hex_grid(20, 100.0),
    "hex-0.37": hex_grid(20, 0.37),
}


class TestKnn:
    def test_collinear_three_points(self):
        coords = np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0]])
        g = build_knn_graph(coords, k=1)
        assert {tuple(e) for e in g.edges} == {(0, 1), (1, 2)}
        lookup = {tuple(e): w for e, w in zip(map(tuple, g.edges), g.weights)}
        assert lookup[(0, 1)] == pytest.approx(1.0)
        assert lookup[(1, 2)] == pytest.approx(2.0)

    def test_unit_square_side_neighbors(self):
        coords = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        g = build_knn_graph(coords, k=1)
        assert np.allclose(g.weights, 1.0)  # diagonal sqrt(2) never chosen
        assert np.all(g.degrees() >= 1)

    def test_complete_graph(self):
        rng = np.random.default_rng(0)
        coords = rng.random((2, 6))
        g = build_knn_graph(coords, k=5)
        assert g.n_edges == 15

    def test_degree_at_least_k(self):
        rng = np.random.default_rng(1)
        coords = rng.random((2, 40))
        for k in (1, 3, 6):
            g = build_knn_graph(coords, k=k)
            assert np.all(g.degrees() >= k)

    def test_weights_are_distances(self):
        rng = np.random.default_rng(2)
        coords = rng.random((2, 25)) * 10
        g = build_knn_graph(coords, k=4)
        for (i, j), w in zip(g.edges, g.weights):
            assert abs(w - np.linalg.norm(coords[:, i] - coords[:, j])) < 1e-12

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k=3"):
            build_knn_graph(np.zeros((2, 3)) + np.arange(3), k=3)

    def test_duplicate_coordinates_warn(self):
        coords = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="duplicate"):
            g = build_knn_graph(coords, k=1)
        assert (0, 1) in {tuple(e) for e in g.edges}

    def test_points_of_any_dimension(self):
        # 6-D embedding: the first two dimensions are noise, the other four
        # place the cells in three far-apart clusters
        rng = np.random.default_rng(8)
        centers = rng.standard_normal((4, 3)) * 10
        points = np.vstack([rng.random((2, 60)),
                            centers[:, np.arange(60) % 3] + rng.standard_normal((4, 60))])
        g = build_knn_graph(points, k=4)
        edges = {tuple(e) for e in g.edges.tolist()}
        assert edges == brute_force_knn_edges(points, k=4)
        assert edges != {tuple(e) for e in build_knn_graph(points[:2], k=4).edges.tolist()}
        for (i, j), w in zip(g.edges, g.weights):
            assert w == pytest.approx(np.linalg.norm(points[:, i] - points[:, j]), abs=1e-12)

    @pytest.mark.parametrize("lattice", sorted(LATTICES))
    @pytest.mark.parametrize("k", [1, 4, 6, 8])
    def test_lattice_ties_match_oracle(self, lattice, k):
        points = LATTICES[lattice]
        edges = {tuple(e) for e in build_knn_graph(points, k=k).edges.tolist()}
        assert edges == brute_force_knn_edges(points, k)

    @pytest.mark.parametrize("kind", ["twins", "triplets", "hex-100"])
    def test_nearest_neighbors_match_oracle(self, kind):
        """Rows in (distance, index) order; a coordinate twin is a neighbour
        at distance 0 and a point is never its own."""
        rng = np.random.default_rng(11)
        if kind == "hex-100":
            points = LATTICES[kind]
        else:
            base = rng.random((2, 50))
            points = np.hstack([base] * (2 if kind == "twins" else 3))
        got = nearest_neighbors(points, 7)
        np.testing.assert_array_equal(got, brute_force_neighbors(points, 7))
        assert not np.any(got == np.arange(points.shape[1])[:, None])

    def test_nearest_neighbors_rejects_bad_k(self):
        with pytest.raises(ValueError, match="positive"):
            nearest_neighbors(np.random.default_rng(0).random((2, 5)), 0)
        with pytest.raises(ValueError, match="k=5"):
            nearest_neighbors(np.random.default_rng(0).random((2, 5)), 5)

    def test_no_self_loops_no_duplicates(self):
        rng = np.random.default_rng(3)
        g = build_knn_graph(rng.random((2, 30)), k=5)
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert len({tuple(e) for e in g.edges}) == g.n_edges


class TestDelaunay:
    def test_triangle(self):
        coords = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        g = build_delaunay_graph(coords, prune_percentile=100.0)
        assert {tuple(e) for e in g.edges} == {(0, 1), (0, 2), (1, 2)}

    def test_unit_square_five_edges(self):
        coords = np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
        g = build_delaunay_graph(coords, prune_percentile=100.0)
        edge_set = {tuple(e) for e in g.edges}
        assert g.n_edges == 5
        perimeter = {(0, 1), (0, 2), (1, 3), (2, 3)}
        assert perimeter <= edge_set
        assert len(edge_set - perimeter) == 1
        assert (edge_set - perimeter).pop() in {(0, 3), (1, 2)}

    def test_collinear_fallback_path(self):
        coords = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="collinear"):
            g = build_delaunay_graph(coords, prune_percentile=100.0)
        assert {tuple(e) for e in g.edges} == {(0, 1), (1, 2), (2, 3)}

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_delaunay_graph(np.array([[0.0, 1.0], [0.0, 1.0]]), prune_percentile=100.0)

    def test_matches_brute_force_oracle(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts = rng.random((18, 2))
            g = build_delaunay_graph(pts.T, prune_percentile=100.0)
            assert {tuple(e) for e in g.edges} == brute_force_delaunay_edges(pts)

    def test_duplicate_cell_joins_its_twin(self):
        # Qhull leaves one of two equal points out of the triangulation
        coords = np.random.default_rng(10).random((2, 300))
        coords[:, 11] = coords[:, 10]
        g = build_delaunay_graph(coords, prune_percentile=100.0)
        neighbours = loop_neighbor_lists(g.n_nodes, g.edges)
        assert 11 in neighbours[10]
        assert set(neighbours[10]) - {11} == set(neighbours[11]) - {10}
        g = build_graph(coords, PipelineConfig())  # auto: Delaunay, pruned
        neighbor_arrays(g.directed_edges())
        assert g.degrees().min() >= 1

    def test_prune_long_edges(self):
        rng = np.random.default_rng(9)
        g = build_delaunay_graph(rng.random((2, 60)), prune_percentile=100.0)
        pruned = prune_long_edges(g, 90.0)
        assert pruned.n_edges < g.n_edges
        assert pruned.weights.max() <= np.percentile(g.weights, 90.0)

    def test_pruning_keeps_a_stray_cells_shortest_edge(self):
        # every edge of a cell moved far outside the tissue is over the cutoff
        coords = np.random.default_rng(11).random((2, 1000))
        coords[:, 0] = 5.0
        full = build_delaunay_graph(coords, prune_percentile=100.0)
        g = build_graph(coords, PipelineConfig())  # auto: Delaunay, pruned
        touching = (full.edges == 0).any(axis=1)
        assert full.weights[touching].min() > np.percentile(full.weights, 99.0)
        shortest = tuple(full.edges[touching][np.argmin(full.weights[touching])])
        assert [tuple(e) for e in g.edges if 0 in e] == [shortest]
        kept = full.weights <= np.percentile(full.weights, 99.0)
        assert g.n_edges == kept.sum() + 1
        neighbor_arrays(g.directed_edges())


class TestMergeAndNeighbors:
    def _tiny(self, n, edge_pairs):
        edges = np.array(edge_pairs, dtype=np.int64).reshape(-1, 2)
        return SpatialGraph(n, edges, np.ones(len(edge_pairs)))

    def test_merge_offsets(self):
        a = self._tiny(2, [(0, 1)])
        b = self._tiny(3, [(0, 1), (1, 2)])
        merged = block_diagonal_merge([a, b])
        assert merged.n_nodes == 5
        assert {tuple(e) for e in merged.edges} == {(0, 1), (2, 3), (3, 4)}
        first = {0, 1}
        assert not any((i in first) != (j in first) for i, j in merged.edges)

    def test_merge_single_identity(self):
        g = self._tiny(3, [(0, 2)])
        merged = block_diagonal_merge([g])
        assert merged.n_nodes == 3
        np.testing.assert_array_equal(merged.edges, g.edges)

    def test_merge_edgeless(self):
        singles = [self._tiny(1, []) for _ in range(3)]
        merged = block_diagonal_merge(singles)
        assert merged.n_nodes == 3 and merged.n_edges == 0

    def test_merge_empty_list(self):
        with pytest.raises(ValueError):
            block_diagonal_merge([])

    def test_merge_edge_count_additive(self):
        rng = np.random.default_rng(4)
        gs = [build_knn_graph(rng.random((2, m)), k=2) for m in (10, 15, 20)]
        merged = block_diagonal_merge(gs)
        assert merged.n_edges == sum(g.n_edges for g in gs)

    @pytest.mark.parametrize("kind", ["knn", "delaunay", "merged", "edgeless", "isolated"])
    def test_neighbor_lists_match_loop(self, kind):
        """The contrastive positives from the CSR edges are the loop-built
        neighbour lists, flattened anchor by anchor."""
        rng = np.random.default_rng(9)
        if kind == "knn":
            g = build_knn_graph(rng.random((2, 300)), k=5)
        elif kind == "delaunay":
            g = build_delaunay_graph(rng.random((2, 200)), prune_percentile=100.0)
        elif kind == "merged":
            g = block_diagonal_merge([build_knn_graph(rng.random((2, m)), k=2) for m in (8, 12)])
        elif kind == "edgeless":
            g = self._tiny(4, [])
        else:
            g = self._tiny(6, [(0, 3), (1, 3), (3, 5)])
        expected = loop_neighbor_lists(g.n_nodes, g.edges)
        sizes = [len(nb) for nb in expected]
        if 0 in sizes:
            with pytest.raises(ValueError, match=f"cell {sizes.index(0)} has an empty"):
                neighbor_arrays(g.directed_edges())
            return
        dst, src, degree = neighbor_arrays(g.directed_edges())
        np.testing.assert_array_equal(dst, np.repeat(np.arange(g.n_nodes), sizes))
        np.testing.assert_array_equal(src, np.concatenate(expected))
        assert degree.dtype == ad.DTYPE
        np.testing.assert_array_equal(degree, g.degrees())


class TestMethodChoiceAndIO:
    def test_grid_prefers_knn(self):
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        coords = np.vstack([xs.ravel(), ys.ravel()])
        assert choose_graph_method(coords) == "knn"

    def test_irregular_prefers_delaunay(self):
        rng = np.random.default_rng(5)
        assert choose_graph_method(rng.random((2, 200))) == "delaunay"

    @pytest.mark.parametrize("method", ["auto", "knn"])
    def test_build_graph_memory_at_20k_cells(self, method):
        coords = np.random.default_rng(12).random((2, 20000)) * 100
        cfg = PipelineConfig()
        cfg.graph.method = method
        tracemalloc.start()
        try:
            build_graph(coords, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_edge_list_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        g = build_knn_graph(rng.random((2, 20)), k=3)
        path = tmp_path / "graph.txt"
        write_edge_list(path, g)
        back = read_edge_list(path)
        assert back.n_nodes == g.n_nodes
        np.testing.assert_array_equal(back.edges, g.edges)
        np.testing.assert_allclose(back.weights, g.weights, rtol=0, atol=0)

    def test_directed_edges_include_self_loops(self):
        g = SpatialGraph(3, np.array([[0, 1]]), np.array([1.0]))
        edges = g.directed_edges()
        assert len(edges.dst) == 2 + 3
        assert set(zip(edges.dst.tolist(), edges.src.tolist())) == {
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 2),
        }

    def test_directed_edges_csr_order(self):
        g = build_knn_graph(np.random.default_rng(7).random((2, 50)), k=3)
        edges = g.directed_edges()
        assert np.all(np.diff(edges.dst) >= 0)
        for i in range(g.n_nodes):
            row = slice(edges.indptr[i], edges.indptr[i + 1])
            np.testing.assert_array_equal(edges.dst[row], i)
            assert np.all(np.diff(edges.src[row]) > 0)
            assert i in edges.src[row]
        assert edges.indptr[-1] == 2 * g.n_edges + g.n_nodes

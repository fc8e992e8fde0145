"""Transition graph, rank-sum markers, composition, and enrichment tests."""

import numpy as np
import pytest

from cellscape.analysis import (
    composition,
    geneset_enrichment,
    read_gmt,
    transition_graph,
    wilcoxon_dge,
)
from cellscape.spatial_graph import SpatialGraph, build_knn_graph

from oracles import exact_hypergeom_upper_tail, exact_rank_sum_pvalue


def graph_from_pairs(n, pairs):
    edges = np.array(sorted(tuple(sorted(p)) for p in pairs), dtype=np.int64)
    return SpatialGraph(n, edges.reshape(-1, 2), np.ones(len(pairs)))


class TestTransitionGraph:
    def test_disconnected_cliques_zero(self):
        clique_a = [(i, j) for i in range(3) for j in range(i + 1, 3)]
        clique_b = [(i, j) for i in range(3, 6) for j in range(i + 1, 6)]
        g = graph_from_pairs(6, clique_a + clique_b)
        tg = transition_graph(np.array([0, 0, 0, 1, 1, 1]), g)
        assert tg.connectivity[0, 1] == 0.0
        assert tg.connectivity[1, 0] == 0.0

    def test_split_domain_is_maximal(self):
        xs, ys = np.meshgrid(np.arange(6.0), np.arange(4.0))
        coords = np.vstack([xs.ravel(), ys.ravel()])
        g = build_knn_graph(coords, k=3)
        labels = (coords[0] >= 3).astype(int)  # one domain cut in half
        tg = transition_graph(labels, g)
        assert tg.connectivity[0, 1] == pytest.approx(1.0)

    def test_single_domain_empty(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        tg = transition_graph(np.zeros(3, dtype=int), g)
        assert tg.connectivity.shape == (1, 1)
        assert tg.connectivity[0, 0] == 0.0

    def test_symmetry_and_relabel_invariance(self):
        rng = np.random.default_rng(0)
        g = build_knn_graph(rng.random((2, 40)), k=3)
        labels = rng.integers(0, 3, 40)
        tg = transition_graph(labels, g)
        np.testing.assert_allclose(tg.connectivity, tg.connectivity.T, atol=1e-15)
        np.testing.assert_array_equal(np.diag(tg.connectivity), 0.0)
        remap = np.array([5, 9, 1])[labels]
        tg2 = transition_graph(remap, g)
        # same partition, permuted ids: sorted unique ids are (1, 5, 9) = old (2, 0, 1)
        perm = [2, 0, 1]
        np.testing.assert_allclose(
            tg2.connectivity, tg.connectivity[np.ix_(perm, perm)], atol=1e-12
        )


class TestWilcoxon:
    def test_separated_groups_exact_p(self):
        X = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        labels = np.array(["d", "d", "d", "rest", "rest", "rest"])
        rec = wilcoxon_dge(X, labels, "d")[0]
        assert rec.statistic == 0.0
        assert rec.p_value == pytest.approx(0.1)

    def test_identical_multisets_central(self):
        X = np.array([[5.0, 1.0, 3.0, 3.0, 1.0, 5.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        rec = wilcoxon_dge(X, labels, 0)[0]
        assert rec.statistic == pytest.approx(4.5)  # n1*n2/2
        assert rec.p_value == pytest.approx(1.0)

    def test_constant_gene_convention(self):
        X = np.array([[2.0] * 6, [1, 2, 3, 4, 5, 6]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        recs = {r.gene: r for r in wilcoxon_dge(X, labels, 0)}
        assert recs["g0"].p_value == 1.0
        assert recs["g0"].log2_fold_change == pytest.approx(0.0)

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n1, n2 = rng.integers(2, 6), rng.integers(2, 6)
            a = rng.integers(0, 5, n1).astype(float)
            b = rng.integers(0, 5, n2).astype(float)
            if np.concatenate([a, b]).min() == np.concatenate([a, b]).max():
                continue
            X = np.concatenate([a, b])[None, :]
            labels = np.array([0] * n1 + [1] * n2)
            rec = wilcoxon_dge(X, labels, 0)[0]
            expected, _ = exact_rank_sum_pvalue(a.tolist(), b.tolist())
            assert rec.p_value == pytest.approx(expected, abs=1e-12)

    def test_normal_mode_reasonable(self):
        rng = np.random.default_rng(2)
        shifted = np.concatenate([rng.normal(0, 1, 30), rng.normal(3, 1, 30)])
        null = rng.normal(0, 1, 60)
        X = np.vstack([shifted, null])
        labels = np.array([0] * 30 + [1] * 30)
        recs = {r.gene: r for r in wilcoxon_dge(X, labels, 0)}
        assert recs["g0"].p_value < 1e-6
        assert recs["g1"].p_value > 0.01
        assert recs["g0"].adj_p_value >= recs["g0"].p_value

    def test_sorting_and_fraction(self):
        rng = np.random.default_rng(3)
        X = rng.poisson(2.0, (5, 40)).astype(float)
        X[3, :20] += 10.0
        labels = np.array([0] * 20 + [1] * 20)
        recs = wilcoxon_dge(X, labels, 0)
        assert recs[0].gene == "g3"
        adj = [r.adj_p_value for r in recs]
        assert adj == sorted(adj)
        assert 0.0 <= recs[0].fraction_expressing <= 1.0

    def test_empty_groups_rejected(self):
        X = np.ones((2, 3))
        with pytest.raises(ValueError, match="no cells"):
            wilcoxon_dge(X, np.array([0, 0, 0]), 1)
        with pytest.raises(ValueError, match="every cell"):
            wilcoxon_dge(X, np.array([0, 0, 0]), 0)


class TestComposition:
    def test_simple_counts(self):
        comp = composition(np.zeros(3, dtype=int), np.array(["A", "A", "B"]))
        np.testing.assert_allclose(comp.P[0], [2 / 3, 1 / 3])

    def test_single_type(self):
        comp = composition(np.array([0, 0, 1, 1]), np.array(["A"] * 4))
        np.testing.assert_allclose(comp.P, [[1.0], [1.0]])

    def test_two_domain_case(self):
        comp = composition(
            np.array([0, 0, 1, 1]), np.array(["A", "B", "B", "B"])
        )
        np.testing.assert_allclose(comp.P, [[0.5, 0.5], [0.0, 1.0]])
        np.testing.assert_allclose(comp.P_all, [0.25, 0.75])

    def test_invariants(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, 100)
        types = rng.integers(0, 3, 100)
        comp = composition(labels, types)
        np.testing.assert_allclose(comp.P.sum(axis=1), 1.0, atol=1e-12)
        assert comp.P_all.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(comp.N.sum(), 100)


class TestEnrichment:
    def test_exact_small_case(self):
        universe = [f"g{i}" for i in range(5)]
        records = geneset_enrichment(
            ["g0", "g1"], universe, {"hit": ["g0", "g1"]}
        )
        assert records[0].p_value == pytest.approx(0.1)

    def test_disjoint_and_full_universe(self):
        universe = [f"g{i}" for i in range(6)]
        records = geneset_enrichment(
            ["g0", "g1"], universe, {"far": ["g4", "g5"], "everything": universe}
        )
        by_name = {r.set_name: r for r in records}
        assert by_name["far"].p_value == pytest.approx(1.0)
        assert by_name["everything"].p_value == pytest.approx(1.0)
        assert by_name["everything"].overlap == 2

    def test_matches_pmf_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(5, 21))
            universe = [f"g{i}" for i in range(m)]
            markers = list(rng.choice(universe, size=rng.integers(1, m // 2 + 1),
                                      replace=False))
            gene_set = list(rng.choice(universe, size=rng.integers(1, m), replace=False))
            rec = geneset_enrichment(markers, universe, {"s": gene_set})[0]
            k = len(set(markers) & set(gene_set))
            expected = exact_hypergeom_upper_tail(k, m, len(gene_set), len(markers))
            assert rec.p_value == pytest.approx(expected, abs=1e-12)

    def test_markers_outside_universe_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            geneset_enrichment(["gX"], ["g0", "g1"], {"s": ["g0"]})

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            geneset_enrichment([], [], {"s": ["g0"]})

    def test_gmt_reader(self, tmp_path):
        path = tmp_path / "sets.gmt"
        path.write_text("setA\tdesc\tg0\tg1\nsetB\tother\tg2\n")
        sets = read_gmt(path)
        assert sets == {"setA": ["g0", "g1"], "setB": ["g2"]}

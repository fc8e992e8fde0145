"""Transition graph, rank-sum markers, composition, and enrichment tests."""

import math

import numpy as np
import pytest

from cellscape.analysis import (
    _exact_rank_sum_two_sided,
    _midranks,
    _normal_two_sided,
    benjamini_hochberg,
    composition,
    geneset_enrichment,
    read_gmt,
    transition_graph,
    wilcoxon_dge,
)
from cellscape.spatial_graph import SpatialGraph, build_knn_graph

from oracles import (
    exact_hypergeom_upper_tail,
    exact_rank_sum_pvalue,
    loop_benjamini_hochberg,
    midranks,
)


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
        rec = wilcoxon_dge(X, labels, ["d"])[0][0]
        assert rec.statistic == 0.0
        assert rec.p_value == pytest.approx(0.1)

    def test_identical_multisets_central(self):
        X = np.array([[5.0, 1.0, 3.0, 3.0, 1.0, 5.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        rec = wilcoxon_dge(X, labels, [0])[0][0]
        assert rec.statistic == pytest.approx(4.5)  # n1*n2/2
        assert rec.p_value == pytest.approx(1.0)

    def test_constant_gene_convention(self):
        X = np.array([[2.0] * 6, [1, 2, 3, 4, 5, 6]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        recs = {r.gene: r for r in wilcoxon_dge(X, labels, [0])[0]}
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
            rec = wilcoxon_dge(X, labels, [0])[0][0]
            expected, _ = exact_rank_sum_pvalue(a.tolist(), b.tolist())
            assert rec.p_value == pytest.approx(expected, abs=1e-12)

    def test_normal_mode_reasonable(self):
        rng = np.random.default_rng(2)
        shifted = np.concatenate([rng.normal(0, 1, 30), rng.normal(3, 1, 30)])
        null = rng.normal(0, 1, 60)
        X = np.vstack([shifted, null])
        labels = np.array([0] * 30 + [1] * 30)
        recs = {r.gene: r for r in wilcoxon_dge(X, labels, [0])[0]}
        assert recs["g0"].p_value < 1e-6
        assert recs["g1"].p_value > 0.01
        assert recs["g0"].adj_p_value >= recs["g0"].p_value

    def test_sorting_and_fraction(self):
        rng = np.random.default_rng(3)
        X = rng.poisson(2.0, (5, 40)).astype(float)
        X[3, :20] += 10.0
        labels = np.array([0] * 20 + [1] * 20)
        recs = wilcoxon_dge(X, labels, [0])[0]
        assert recs[0].gene == "g3"
        adj = [r.adj_p_value for r in recs]
        assert adj == sorted(adj)
        assert 0.0 <= recs[0].fraction_expressing <= 1.0

    @pytest.mark.parametrize("row", [
        [3.0, 1.0, 3.0, 3.0, 2.0, 1.0, 3.0, 3.0],     # heavy ties
        [4.0] * 7,                                   # all equal
        [-2.5, 0.0, -2.5, -7.0, 1e-300, -1e-300],    # negatives and signed tiny values
        [5.0],                                       # n = 1
        list(np.random.default_rng(6).integers(-3, 4, 200).astype(float)),
    ])
    def test_midranks_match_reference_loop(self, row):
        from scipy.stats import rankdata  # the previous implementation's ranks

        ranks, counts = _midranks(np.array(row))
        expected, tie_term = midranks(row)
        np.testing.assert_array_equal(ranks, expected)
        np.testing.assert_array_equal(ranks, rankdata(row, method="average"))
        assert float((counts.astype(np.float64) ** 3 - counts).sum()) == tie_term

    @pytest.mark.parametrize("n1,n2", [(4, 7), (30, 45)], ids=["exact", "normal"])
    def test_records_bit_identical_to_rankdata_reference(self, n1, n2):
        from scipy.stats import rankdata

        rng = np.random.default_rng(7)
        X = rng.poisson(1.5, (40, n1 + n2)).astype(np.float64)
        X[:10] = np.round(rng.normal(0.0, 2.0, (10, n1 + n2)), 1)  # signed, tied
        X[10] = 3.0                                                 # constant gene
        X[11, :n1] += 4.0                                           # a marker
        labels = np.array([1] * n1 + [0] * n2)
        tables = wilcoxon_dge(X, labels, [1, 0])  # both domains from one ranking pass
        for domain, table in zip([1, 0], tables):
            in_group = labels == domain
            m1 = int(in_group.sum())
            exact = max(m1, in_group.size - m1) <= 8
            stats, pvals = [], []
            for row in X:
                ranks = rankdata(row, method="average")
                u = ranks[in_group].sum() - m1 * (m1 + 1) / 2.0
                if row.min() == row.max():
                    p = 1.0
                elif exact:
                    p = _exact_rank_sum_two_sided(ranks, m1, u)
                else:
                    _, ties = np.unique(row, return_counts=True)
                    p = _normal_two_sided(u, m1, in_group.size - m1,
                                          float((ties.astype(np.float64) ** 3 - ties).sum()))
                stats.append(u)
                pvals.append(p)
            adj = benjamini_hochberg(pvals)
            got = {r.gene: r for r in table}
            for gi in range(X.shape[0]):
                rec = got[f"g{gi}"]
                assert (rec.statistic, rec.p_value, rec.adj_p_value) == \
                    (stats[gi], pvals[gi], adj[gi])
            assert got["g10"].p_value == 1.0

    @pytest.mark.parametrize("sizes", [(3, 5, 4), (40, 25, 30, 35, 20)],
                             ids=["exact", "normal"])
    def test_one_indicator_product_matches_per_domain_loop(self, sizes):
        # the per-(gene, domain) loop that the indicator product replaced:
        # U and p bit-equal, fold change and detected fraction within 1e-12
        rng = np.random.default_rng(8)
        n = sum(sizes)
        X = rng.poisson(1.0, (30, n)) * rng.gamma(2.0, 1.5, (30, n))
        X[:5] = np.round(rng.normal(0.0, 2.0, (5, n)), 1)     # signed, tied
        X[5] = 0.0                                            # never detected
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        X[6, labels == 1] += 5.0                              # a marker
        domains = [2, 0, 1] + list(range(3, len(sizes)))
        tables = wilcoxon_dge(X, labels, domains)
        for domain, table in zip(domains, tables):
            in_group = labels == domain
            n1, n2 = int(in_group.sum()), int((~in_group).sum())
            got = {r.gene: r for r in table}
            for gi, row in enumerate(X):
                ranks, counts = _midranks(row)
                u = ranks[in_group].sum() - n1 * (n1 + 1) / 2.0
                if counts.size == 1:
                    p = 1.0
                elif max(n1, n2) <= 8:
                    p = _exact_rank_sum_two_sided(ranks, n1, u)
                else:
                    p = _normal_two_sided(u, n1, n2,
                                          float((counts.astype(np.float64) ** 3 - counts).sum()))
                mean_in = max(row[in_group].mean(), 0.0)
                mean_out = max(row[~in_group].mean(), 0.0)
                lfc = math.log2((mean_in + 1e-9) / (mean_out + 1e-9))
                rec = got[f"g{gi}"]
                assert (rec.statistic, rec.p_value) == (u, p)
                assert rec.log2_fold_change == pytest.approx(lfc, rel=1e-12, abs=1e-12)
                assert rec.fraction_expressing == pytest.approx(
                    float((row[in_group] > 0).mean()), rel=1e-12, abs=1e-12)

    def test_empty_groups_rejected(self):
        X = np.ones((2, 3))
        with pytest.raises(ValueError, match="no cells"):
            wilcoxon_dge(X, np.array([0, 0, 0]), [1])
        with pytest.raises(ValueError, match="every cell"):
            wilcoxon_dge(X, np.array([0, 0, 0]), [0])


class TestBenjaminiHochberg:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(2000):
            m = int(rng.integers(0, 40))
            p = rng.random(m)
            if trial % 2:  # coarse values: ties, and ranks that cross 1 when scaled
                p = np.round(p, 1)
            np.testing.assert_array_equal(benjamini_hochberg(p), loop_benjamini_hochberg(p))

    def test_known_values(self):
        # sorted, p * 4 / rank = 0.04, 0.06, 0.16 / 3, 0.5; the minimum from
        # the top down lowers rank 2's 0.06 to rank 3's 0.16 / 3
        adj = benjamini_hochberg([0.01, 0.04, 0.03, 0.5])
        np.testing.assert_allclose(adj, [0.04, 0.16 / 3, 0.16 / 3, 0.5], rtol=1e-15)


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

    @staticmethod
    def tail(k, M, K, N):
        """Enrichment p of a K-gene set holding k of the N markers in an
        M-gene universe."""
        genes = [f"g{i}" for i in range(M)]
        gene_set = genes[:k] + genes[N:N + K - k]
        return geneset_enrichment(genes[:N], genes, {"s": gene_set})[0].p_value

    def test_tail_matches_fraction_oracle(self):
        rng = np.random.default_rng(8)
        # tails near 1e-258, 1e-230 and 1e-217, one that underflows, and the
        # largest sum (1,500 terms)
        cases = [(150, 3000, 150, 150), (140, 3000, 150, 140), (130, 3000, 140, 130),
                 (300, 3000, 300, 300), (60, 2000, 80, 70), (1500, 3000, 1500, 1500),
                 (800, 3000, 1500, 1500), (1, 3000, 1, 1)]
        for _ in range(40):
            M = int(rng.integers(1, 3001))
            K, N = (int(v) for v in rng.integers(1, M + 1, 2))
            cases.append((int(rng.integers(max(0, K + N - M), min(K, N) + 1)), M, K, N))
        expected = [exact_hypergeom_upper_tail(*case) for case in cases]
        assert sum(1e-300 < e < 1e-200 for e in expected) == 3
        for case, e in zip(cases, expected):
            # relative 1e-13 wherever float64 has full precision
            assert self.tail(*case) == pytest.approx(e, rel=1e-13, abs=1e-300), case

    def test_tail_is_one_at_zero_overlap(self):
        for M, K, N in [(3000, 1500, 1500), (3000, 2990, 5), (10, 0, 4), (7, 3, 7)]:
            assert self.tail(0, M, K, N) == 1.0

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

    def test_gmt_repeated_set_name_rejected(self, tmp_path):
        path = tmp_path / "sets.gmt"
        path.write_text("setA\tdesc\tg0\tg1\nsetB\tother\tg3\nsetA\tagain\tg2\n")
        with pytest.raises(ValueError, match=r"sets\.gmt: line 3: gene set 'setA'"):
            read_gmt(path)

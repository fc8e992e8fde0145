"""Loading, preprocessing, correlation, and batch-correction behavior."""

import dataclasses

import numpy as np
import pytest

from cellscape import pipeline
from cellscape.config import PipelineConfig
from cellscape.dataset import ExpressionDataset, load_dataset, load_table, write_table
from cellscape.preprocess import combat_correct, normalize_total, pearson_coexpression, select_hvg
from cellscape.synth import SyntheticSpec, generate_tissue

from oracles import four_step_combat, pearson_corr


def make_ds(X, coords=None, **kw):
    X = np.asarray(X, dtype=np.float64)
    p, n = X.shape
    if coords is None:
        coords = np.vstack([np.arange(n, dtype=float), np.zeros(n)])
    return ExpressionDataset(
        X=X,
        coords=coords,
        gene_names=[f"g{i}" for i in range(p)],
        cell_ids=[f"c{j}" for j in range(n)],
        **kw,
    )


class TestLoading:
    def test_dense_csv_roundtrip(self, tmp_path):
        expr = tmp_path / "expr.csv"
        expr.write_text("gene_id,cA,cB\nTP53,1,2\nGAPDH,0,4\nACTB,3,0\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ncA,0.0,1.0\ncB,2.5,3.5\n")
        ds = load_dataset(expr, coords, format="dense-csv")
        assert ds.n_genes == 3 and ds.n_cells == 2
        assert ds.gene_names == ["TP53", "GAPDH", "ACTB"]
        np.testing.assert_array_equal(ds.X, [[1, 2], [0, 4], [3, 0]])
        np.testing.assert_array_equal(ds.coords, [[0.0, 2.5], [1.0, 3.5]])

    def test_coord_count_mismatch(self, tmp_path):
        expr = tmp_path / "expr.csv"
        expr.write_text("gene_id,cA,cB\ng0,1,2\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ncA,0,0\ncB,1,0\ncC,2,0\n")
        with pytest.raises(ValueError) as err:
            load_dataset(expr, coords, format="dense-csv")
        assert "2" in str(err.value) and "3" in str(err.value)

    def test_sparse_triplet_densifies(self, tmp_path):
        expr = tmp_path / "expr.txt"
        expr.write_text("%shape 3 2\n0 0 5\n2 1 3\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ns1,0,0\ns2,1,1\n")
        ds = load_dataset(expr, coords, format="sparse-triplet")
        np.testing.assert_array_equal(ds.X, [[5, 0], [0, 0], [0, 3]])
        assert ds.cell_ids == ["s1", "s2"]

    def test_duplicate_gene_id_rejected(self, tmp_path):
        expr = tmp_path / "expr.csv"
        expr.write_text("gene_id,cA\ng0,1\ng0,2\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ncA,0,0\n")
        with pytest.raises(ValueError, match="g0"):
            load_dataset(expr, coords, format="dense-csv")

    def test_duplicate_cell_id_rejected(self, tmp_path):
        # the table codec checks row ids; the dataset checks the cell columns
        expr = tmp_path / "expr.csv"
        expr.write_text("gene_id,cA,cA\ng0,1,2\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ncA,0,0\ncB,1,0\n")
        with pytest.raises(ValueError, match="duplicate cell identifier: 'cA'"):
            load_dataset(expr, coords, format="dense-csv")

    def test_non_numeric_entry_located(self, tmp_path):
        expr = tmp_path / "expr.csv"
        expr.write_text("gene_id,cA,cB\ng0,1,oops\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ncA,0,0\ncB,1,0\n")
        with pytest.raises(ValueError, match="row 1.*column 2"):
            load_dataset(expr, coords, format="dense-csv")

    def test_dense_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.poisson(3.0, size=(4, 5)).astype(float)
        path = tmp_path / "m.csv"
        write_table(path, ["gene_id", *(f"c{j}" for j in range(5))], [f"g{i}" for i in range(4)], X)
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\n" + "".join(f"c{j},{j},0\n" for j in range(5)))
        ds = load_dataset(path, coords, format="dense-csv")
        np.testing.assert_array_equal(ds.X, X)

    def test_subset_genes_copies(self, tmp_path):
        # preprocessing builds new arrays and leaves the loaded counts as
        # loaded; the gene subset is a copy of its rows
        expr = tmp_path / "expr.csv"
        expr.write_text("gene_id,cA,cB\ng0,1,2\ng1,0,4\ng2,3,0\n")
        coords = tmp_path / "coords.csv"
        coords.write_text("cell_id,x,y\ncA,0,0\ncB,1,0\n")
        ds = load_dataset(expr, coords, format="dense-csv")
        out = normalize_total(ds, target=10)
        np.testing.assert_array_equal(ds.X, [[1, 2], [0, 4], [3, 0]])
        sub = out.subset_genes([0, 2])
        assert not np.shares_memory(sub.X, out.X)
        np.testing.assert_array_equal(sub.X, out.X[[0, 2]])
        assert sub.gene_names == ["g0", "g2"]


class TestCellTable:
    """Expression, coordinates and embeddings share one ``id,v1,...,vk``
    table codec."""

    def test_embeddings_and_coords_roundtrip(self, tmp_path):
        Z = np.random.default_rng(0).standard_normal((4, 3))
        ids = [f"c{j}" for j in range(4)]
        write_table(tmp_path / "emb.csv", ["cell_id", "dim_0", "dim_1", "dim_2"], ids, Z)
        write_table(tmp_path / "cells.csv", ["cell_id", "x", "y"], ids, Z[:, :2])
        values, read_ids, columns = load_table(tmp_path / "emb.csv")
        np.testing.assert_array_equal(values, Z)
        assert read_ids == ids and columns == ["dim_0", "dim_1", "dim_2"]
        values, read_ids, columns = load_table(tmp_path / "cells.csv", columns=2)
        np.testing.assert_array_equal(values, Z[:, :2])
        assert read_ids == ids and columns == ["x", "y"]

    @pytest.mark.parametrize("text, message", [
        ("cell_id,dim_0,dim_1\ncA,1,2\ncB,3\n", "row 2 has 2 fields, header has 3"),
        ("cell_id,dim_0,dim_1\ncA,1,2\ncB,3,x\n", "non-numeric entry 'x' at row 2, column 2"),
        ("cell_id,dim_0,dim_1\ncA,1,2\ncA,3,4\n", "row 2: duplicate cell identifier: 'cA'"),
        ("cell_id,dim_0\n", "no data rows"),
        ("cell_id\ncA\n", "expected a header row"),
    ], ids=["ragged", "non-numeric", "duplicate-id", "empty", "no-values"])
    def test_errors_name_file_row_and_column(self, tmp_path, text, message):
        path = tmp_path / "emb.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_table(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    def test_coords_need_two_columns(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("cell_id,x,y,z\ncA,0,0,0\n")
        with pytest.raises(ValueError, match="3 value columns, expected 2"):
            load_table(path, columns=2)


class TestNormalize:
    def test_already_normalized(self):
        ds = make_ds([[2.0], [3.0], [5.0]])
        out = normalize_total(ds, target=10)
        np.testing.assert_allclose(out.X[:, 0], [2, 3, 5])

    def test_symmetric_split(self):
        ds = make_ds([[1.0], [1.0]])
        out = normalize_total(ds, target=1e4)
        np.testing.assert_allclose(out.X[:, 0], [5000, 5000])

    def test_proportional_scaling(self):
        ds = make_ds([[1.0], [3.0]])
        out = normalize_total(ds, target=1e4)
        np.testing.assert_allclose(out.X[:, 0], [2500, 7500])

    def test_zero_column_names_cell(self):
        ds = make_ds([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="c1"):
            normalize_total(ds, target=1e4)

    def test_property_column_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            X = rng.random((rng.integers(2, 8), rng.integers(2, 8))) + 0.01
            out = normalize_total(make_ds(X), target=1e4)
            np.testing.assert_allclose(out.X.sum(axis=0), 1e4, rtol=1e-9)

    def test_negative_rejected(self):
        # the log transform after it relies on this check
        ds = make_ds([[1.0], [1.0]])
        ds.X[0, 0] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            normalize_total(ds, target=1e4)


class TestSelectHVG:
    def _vst_scores(self, counts):
        # independent re-derivation of the dispersion statistic, scalar loops
        p, n = counts.shape
        mean = counts.mean(axis=1)
        var = counts.var(axis=1, ddof=1)
        ok = (mean > 0) & (var > 0)
        lm, lv = np.log10(mean[ok]), np.log10(var[ok])
        if np.unique(lm).size >= 2:
            b, a = np.polyfit(lm, lv, 1)
        else:
            b, a = 1.0, float(np.mean(lv - lm))
        scores = np.full(p, -1.0)
        for g in np.flatnonzero(ok):
            sd = np.sqrt(10 ** (a + b * np.log10(mean[g])))
            z = np.clip((counts[g] - mean[g]) / sd, -np.sqrt(n), np.sqrt(n))
            scores[g] = z.var(ddof=1)
        return scores

    def test_constant_gene_never_selected(self):
        counts = np.array([[5.0] * 6, [1, 9, 2, 8, 3, 7], [4, 5, 4, 5, 4, 5]])
        idx = select_hvg(counts, n_top=2)
        assert 0 not in idx

    def test_three_gene_oracle(self):
        counts = np.array(
            [[1.0, 1, 1, 1], [0, 10, 0, 10], [4, 6, 4, 6]], dtype=float
        )
        scores = self._vst_scores(counts)
        assert scores[1] == max(scores)
        idx = select_hvg(counts, n_top=1)
        np.testing.assert_array_equal(idx, [1])

    def test_identity_when_all_selected(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(4.0, (5, 10)).astype(float)
        np.testing.assert_array_equal(select_hvg(counts, n_top=5), np.arange(5))

    def test_too_many_rejected(self):
        counts = np.ones((3, 4))
        with pytest.raises(ValueError, match="exceeds"):
            select_hvg(counts, n_top=4)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        counts = rng.poisson(np.linspace(1, 20, 8)[:, None], (8, 30)).astype(float)
        base = set(select_hvg(counts, n_top=3).tolist())
        perm = rng.permutation(8)
        permuted = counts[perm]
        selected = set(select_hvg(permuted, n_top=3).tolist())
        assert {int(perm[i]) for i in selected} == base


class TestPearson:
    def test_exact_cases(self):
        X = np.array([[1.0, 2, 3], [2, 4, 6], [1, 0, 1], [3, 2, 1]])
        C = pearson_coexpression(make_ds(X))
        assert C[0, 1] == pytest.approx(1.0)
        assert C[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert C[0, 3] == pytest.approx(-1.0)

    def test_exact_symmetry_and_bounds(self):
        rng = np.random.default_rng(5)
        X = rng.random((20, 15))
        C = pearson_coexpression(make_ds(X))
        assert np.array_equal(C, C.T)
        assert np.all(np.abs(C) <= 1.0 + 1e-12)
        np.testing.assert_array_equal(np.diag(C), 1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.random((6, 12))
        base = pearson_coexpression(make_ds(X))
        # an affine map with a positive slope and shift of its own per gene
        # preserves correlations (the values stay positive, as counts are)
        scaled = X * rng.uniform(0.5, 3.0, (6, 1)) + rng.uniform(0.1, 2.0, (6, 1))
        np.testing.assert_allclose(pearson_coexpression(make_ds(scaled)), base, atol=1e-10)
        shifted = X * 2.5 + 7.0
        np.testing.assert_allclose(pearson_coexpression(make_ds(shifted)), base, atol=1e-10)

    def test_matches_covariance_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.random((5, 9))
        C = pearson_coexpression(make_ds(X))
        for u in range(5):
            for v in range(5):
                assert C[u, v] == pytest.approx(pearson_corr(X[u], X[v]), abs=1e-10)

    def test_constant_gene_flagged(self):
        X = np.array([[1.0, 1, 1], [1, 2, 3]])
        C = pearson_coexpression(make_ds(X))
        assert C[0, 1] == 0.0 and C[1, 0] == 0.0
        assert C[0, 0] == 1.0

    def test_single_cell_rejected(self):
        with pytest.raises(ValueError, match="2 cells"):
            pearson_coexpression(make_ds([[1.0], [2.0]]))


class TestCombat:
    def _two_batch_ds(self, X, n_a):
        n = X.shape[1]
        return make_ds(X, batch_labels=["A"] * n_a + ["B"] * (n - n_a))

    def test_additive_shift_removed(self):
        rng = np.random.default_rng(9)
        base = rng.random((6, 20)) * 5
        X = np.hstack([base, base + 5.0])
        ds = self._two_batch_ds(X, 20)
        out = combat_correct(ds)
        mean_a = out.X[:, :20].mean(axis=1)
        mean_b = out.X[:, 20:].mean(axis=1)
        # exact moments, no shrinkage: the whole shift goes
        np.testing.assert_allclose(mean_a, mean_b, rtol=0, atol=1e-9)
        assert out.X.shape == X.shape

    def test_single_batch_noop_with_warning(self):
        X = np.random.default_rng(10).random((4, 6))
        ds = make_ds(X, batch_labels=["A"] * 6)
        with pytest.warns(RuntimeWarning, match="single batch"):
            out = combat_correct(ds)
        assert out.X.tobytes() == ds.X.tobytes()

    def test_scale_effect_harmonized(self):
        rng = np.random.default_rng(11)
        base = rng.random((5, 30)) + 1.0
        X = np.hstack([base, base.copy()])
        X[2, 30:] = 2.0 * base[2]  # pure scale on one gene
        ds = self._two_batch_ds(X, 30)
        out = combat_correct(ds)
        sd_a = out.X[2, :30].std(ddof=1)
        sd_b = out.X[2, 30:].std(ddof=1)
        assert abs(sd_a - sd_b) < 1e-6

    def test_singleton_batch_rejected(self):
        X = np.random.default_rng(12).random((3, 4))
        ds = make_ds(X, batch_labels=["A", "A", "A", "B"])
        with pytest.raises(ValueError, match="'B'"):
            combat_correct(ds)

    @staticmethod
    def _assert_equal_batch_means(X, batches):
        # one tolerance per gene: 1e-9 of its largest magnitude
        atol = 1e-9 * np.abs(X).max(axis=1)
        means = [X[:, batches == b].mean(axis=1) for b in np.unique(batches)]
        for other in means[1:]:
            assert np.all(np.abs(other - means[0]) <= atol), np.abs(other - means[0]) / atol

    def test_gene_constant_in_one_batch_maps_to_the_grand_mean(self):
        # gene 0 is absent from batch A and gene 1 constant there; their
        # batch-A values become the grand mean, so the batch means agree
        rng = np.random.default_rng(13)
        for n_a, n_b in [(20, 30), (7, 5), (40, 40), (3, 9)]:
            X = rng.poisson(4.0, (5, n_a + n_b)).astype(float)
            X[:, :n_a] = np.log1p(X[:, :n_a] * 1.7)
            X[0, :n_a] = 0.0
            X[1, :n_a] = 2.0
            out = combat_correct(self._two_batch_ds(X, n_a))
            batches = np.array(out.batch_labels)
            self._assert_equal_batch_means(out.X, batches)
            grand = (n_a * X[:, :n_a].mean(axis=1) + n_b * X[:, n_a:].mean(axis=1)) / (n_a + n_b)
            np.testing.assert_allclose(out.X[:2, :n_a], np.repeat(grand[:2, None], n_a, axis=1),
                                       rtol=1e-14)

    def test_gene_absent_from_one_sample_of_a_merged_fit(self):
        # the two-sample console chain's tissues, with gene g0 never
        # detected in the first sample
        a, _ = generate_tissue(SyntheticSpec(n_cells=200, n_genes=40, n_domains=3, seed=1))
        b, _ = generate_tissue(SyntheticSpec(n_cells=200, n_genes=40, n_domains=3, seed=2))
        X = a.X.copy()
        X[a.gene_names.index("g0")] = 0.0
        ds, samples = pipeline._merge_samples([dataclasses.replace(a, X=X), b])
        pre, _ = pipeline.preprocess_expression(ds, PipelineConfig())
        self._assert_equal_batch_means(pre.X, samples)
        g0 = pre.X[pre.gene_names.index("g0")]
        np.testing.assert_array_equal(g0[:200], g0[0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_four_step_reference(self, seed):
        # random batch counts, sizes, shifts and scales; no gene is
        # constant within a batch
        rng = np.random.default_rng(100 + seed)
        for _ in range(50):
            n_batches = int(rng.integers(2, 5))
            sizes = rng.integers(2, 25, n_batches)
            p = int(rng.integers(1, 12))
            blocks = [rng.normal(rng.normal(0, 5, (p, 1)), rng.uniform(0.01, 4, (p, 1)), (p, k))
                      for k in sizes]
            X = np.hstack(blocks)
            labels = [f"b{i}" for i, k in enumerate(sizes) for _ in range(k)]
            perm = rng.permutation(X.shape[1])
            X, labels = X[:, perm], [labels[j] for j in perm]
            out = combat_correct(make_ds(X, batch_labels=labels))
            expected = four_step_combat(X, labels)
            atol = 1e-12 * np.abs(X).max(axis=1, keepdims=True)
            assert np.all(np.abs(out.X - expected) <= atol)

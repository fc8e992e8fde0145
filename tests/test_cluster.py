"""PCA, GMM clustering, refinement, and agreement metrics vs the
brute-force contingency oracle."""

import numpy as np
import pytest

from cellscape import cluster
from cellscape.cluster import gmm_cluster, pca_reduce, refine_labels
from cellscape.config import PipelineConfig
from cellscape.metrics import hom, nmi
from cellscape.synth import SyntheticSpec, generate_tissue

from oracles import contingency_hom, contingency_nmi, loop_refine_labels, naive_gmm_cluster


def _pin_means(monkeypatch, init):
    """Start every EM restart from ``init``: the restarts then run the same
    EM and the earliest near-best one, restart 0, is a single restart."""
    monkeypatch.setattr(cluster, "_kmeanspp_means", lambda X, K, rng: init.copy())


class TestPCA:
    def test_diagonal_covariance_recovery(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((400, 3)) * np.array([5.0, 2.0, 0.5])
        out = pca_reduce(Z, k=3)
        got = np.sort(out.var(axis=0, ddof=1))[::-1]
        want = np.sort(Z.var(axis=0, ddof=1))[::-1]
        np.testing.assert_allclose(got, want, rtol=0.05)

    def test_rank_one_exact_reconstruction(self):
        rng = np.random.default_rng(1)
        direction = rng.standard_normal(6)
        Z = np.outer(rng.standard_normal(30), direction)
        out = pca_reduce(Z, k=1)
        centered = Z - Z.mean(axis=0)
        # the single component captures everything: norms match row-wise
        np.testing.assert_allclose(
            np.abs(out[:, 0]), np.linalg.norm(centered, axis=1), atol=1e-9
        )

    def test_variance_ordering_and_total(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((50, 10)) @ np.diag(np.linspace(3, 0.3, 10))
        out = pca_reduce(Z, k=10)
        variances = out.var(axis=0, ddof=1)
        assert np.all(np.diff(variances) <= 1e-12)
        # independent spectral oracle: eigenvalues of the covariance
        centered = Z - Z.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centered.T @ centered / (50 - 1))
        assert abs(variances.sum() - eigvals.sum()) < 1e-8

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="k=11"):
            pca_reduce(np.zeros((50, 10)), k=11)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((40, 4))
        a = pca_reduce(Z, k=2)
        b = pca_reduce(-Z + 7.0, k=2)  # affine flip: same axes, deterministic signs
        np.testing.assert_allclose(np.abs(a), np.abs(b), atol=1e-9)


class TestGMM:
    def test_two_separated_gaussians(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 1.0, (100, 2))
        b = rng.normal(10.0, 1.0, (100, 2))
        X = np.vstack([a, b])
        truth = np.array([0] * 100 + [1] * 100)
        result = gmm_cluster(X, K=2, seed=0)
        assert nmi(truth, result.labels) >= 0.99
        ll = np.array(result.log_likelihood_path)
        assert np.all(np.diff(ll) >= -1e-8)
        objective = np.array(result.objective_path)
        assert objective.shape == ll.shape
        assert np.all(np.diff(objective) >= -1e-8)

    def test_near_singular_component_passes_the_guard(self):
        # three points in four dimensions give one component a singular
        # scatter, where the plain log-likelihood can fall between EM steps;
        # the guarded objective must not
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(0, 1, (20, 4)), rng.normal(5, 1, (20, 4)),
                       rng.normal(-5, 1, (3, 4))])
        result = gmm_cluster(X, K=3, seed=9)
        labels = result.labels
        assert len(set(labels[40:])) == 1
        assert labels[40] not in set(labels[20:40])
        assert np.diff(result.log_likelihood_path).min() < -1e-8
        assert np.all(np.diff(result.objective_path) >= -1e-8)

    def test_small_exact_grouping(self):
        X = np.array([[0.0, 0], [0.1, 0], [-0.1, 0], [10.0, 0], [10.1, 0]])
        result = gmm_cluster(X, K=2, seed=1)
        assert len(set(result.labels[:3])) == 1
        assert len(set(result.labels[3:])) == 1
        assert result.labels[0] != result.labels[3]

    def test_duplication_invariance_with_fixed_init(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(6, 1, (30, 2))])
        _pin_means(monkeypatch, np.array([[0.0, 0.0], [6.0, 6.0]]))
        single = gmm_cluster(X, K=2, seed=0)
        doubled = gmm_cluster(np.vstack([X, X]), K=2, seed=0)
        np.testing.assert_array_equal(
            np.concatenate([single.labels, single.labels]), doubled.labels
        )

    def test_preconditions(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="components"):
            gmm_cluster(X, K=1, seed=0)
        with pytest.raises(ValueError, match="more cells"):
            gmm_cluster(X, K=4, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 4))
        a = gmm_cluster(X, K=3, seed=9)
        b = gmm_cluster(X, K=3, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)


def _mixture(K, d, n, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 4.0, (K, d))
    return centers[rng.integers(K, size=n)] + rng.normal(0.0, 1.0, (n, d))


class TestGMMAgainstLoopReference:
    """The batched EM against the per-component loop with LU solves: same
    labels and iteration counts, values equal up to summation order."""

    @staticmethod
    def _assert_matches(result, reference):
        labels, _, path, objective = reference
        np.testing.assert_array_equal(result.labels, labels)
        assert len(result.log_likelihood_path) == len(path)
        np.testing.assert_allclose(result.log_likelihood_path, path, rtol=1e-10)
        np.testing.assert_allclose(result.objective_path, objective, rtol=1e-10)

    @pytest.mark.parametrize("d", [2, 4, 30])
    @pytest.mark.parametrize("K", [2, 3, 5, 6])
    def test_restarts(self, K, d):
        X = _mixture(K, d, n=60 * K if d == 30 else 40 * K, seed=1000 + 100 * K + d)
        self._assert_matches(gmm_cluster(X, K=K, seed=d), naive_gmm_cluster(X, K=K, seed=d))

    def test_restarts_tied_at_one_optimum(self):
        # restarts 0 and 2 converge to the same mixture with permuted
        # components, their final log-likelihoods 1 ulp apart; both sides
        # keep the earlier one, so the label ids agree, not just the partition
        X = _mixture(6, 4, n=240, seed=604)
        result = gmm_cluster(X, K=6, seed=4)
        labels, _, path, _ = naive_gmm_cluster(X, K=6, seed=4)
        assert len(set(labels.tolist())) == 6
        np.testing.assert_array_equal(result.labels, labels)
        assert result.log_likelihood_path[-1] == pytest.approx(path[-1], rel=1e-12)

    def test_init_means(self, monkeypatch):
        X = _mixture(3, 4, n=150, seed=12)
        init = X[[0, 50, 100]]
        _pin_means(monkeypatch, init)
        self._assert_matches(gmm_cluster(X, K=3, seed=0),
                             naive_gmm_cluster(X, K=3, seed=0, init_means=init))

    def test_collapsed_component_is_reseeded(self, monkeypatch):
        # a mean far from every cell takes almost no responsibility on the
        # first E-step, so its component is reseeded at the farthest cell
        X = _mixture(2, 2, n=80, seed=13)
        init = np.vstack([X[[0, 1]], [[500.0, 500.0]]])
        _pin_means(monkeypatch, init)
        with pytest.warns(RuntimeWarning, match="collapsed"):
            result = gmm_cluster(X, K=3, seed=0)
        with pytest.warns(RuntimeWarning, match="collapsed"):
            reference = naive_gmm_cluster(X, K=3, seed=0, init_means=init)
        self._assert_matches(result, reference)


class TestRefine:
    def test_unanimous_flip(self):
        coords = np.array(
            [[0.0, 0.1, -0.1, 0.0, 0.05, 0.1], [0.0, 0.1, 0.1, 0.15, -0.1, 0.0]]
        )
        labels = np.array([1, 0, 0, 0, 0, 0])
        out = refine_labels(labels, coords, r=5)
        assert out.labels[0] == 0

    def test_fixed_point_on_clean_labels(self):
        rng = np.random.default_rng(8)
        coords = np.vstack([np.sort(rng.random(30)), np.zeros(30)])
        labels = (coords[0] > 0.5).astype(int)
        out = refine_labels(labels, coords, r=3)
        inner = (coords[0] > 0.6) | (coords[0] < 0.4)
        np.testing.assert_array_equal(out.labels[inner], labels[inner])

    def test_tie_keeps_original(self):
        coords = np.array([[0.0, 1.0, -1.0, 2.0, -2.0], [0.0] * 5])
        labels = np.array([2, 0, 0, 1, 1])
        out = refine_labels(labels, coords, r=4)
        assert out.labels[0] == 2

    def test_vectorised_ties_match_loop(self):
        # four random labels (not 0..K-1) and four votes per cell: 457 of
        # the 2,000 cells tie, 174 of them three or four ways
        rng = np.random.default_rng(14)
        coords = rng.integers(0, 60, (2, 2000)).astype(np.float64)
        coords[1] += rng.random(2000) * 1e-3  # no duplicate points
        labels = rng.integers(0, 4, 2000) * 3 + 1
        expected = loop_refine_labels(labels, coords, r=4)
        np.testing.assert_array_equal(refine_labels(labels, coords, r=4).labels, expected)

    def test_twins_and_distance_ties_match_loop(self):
        # every cell has a coordinate twin with a label of its own, on a grid
        # where the r-th voter ties with others: the twin votes, the cell
        # itself never does, and ties go to the lower index
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        grid = np.vstack([xs.ravel(), ys.ravel()])
        coords = np.hstack([grid, grid])
        labels = np.random.default_rng(15).integers(0, 3, 200)
        expected = loop_refine_labels(labels, coords, r=4)
        np.testing.assert_array_equal(refine_labels(labels, coords, r=4).labels, expected)

    def test_r_too_large(self):
        with pytest.raises(ValueError, match="r=5"):
            refine_labels(np.zeros(5, dtype=int), np.zeros((2, 5)), r=5)

    def test_idempotent_on_bands(self):
        # wide bands on a grid: every cell's r neighbors share its band, so a
        # pass that fixes interior mislabels reaches a fixed point
        xs, ys = np.meshgrid(np.arange(24.0), np.arange(8.0))
        coords = np.vstack([xs.ravel(), ys.ravel()])
        labels = (coords[0] // 8).astype(int)
        noisy = labels.copy()
        noisy[[2 * 24 + 3, 5 * 24 + 12, 3 * 24 + 20]] = [2, 0, 1]  # interior flips
        once = refine_labels(noisy, coords, r=4)
        np.testing.assert_array_equal(once.labels, labels)
        twice = refine_labels(once.labels, coords, r=4)
        np.testing.assert_array_equal(once.labels, twice.labels)

    # ROADMAP item 1: the vote must keep a correct segmentation. Seeds 31-33
    # serve no gate; the niche tissue waits for item 2's generator
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: today's plurality vote among r = 15 degrades the true bands to "
        "NMI 0.85-0.89 on these tissues, cells near a band boundary outvoted across it"))
    def test_refining_the_true_bands_keeps_them(self):
        r = PipelineConfig().clustering.refine_neighbors
        scores = {}
        for n_cells in (800, 1000):
            for seed in (31, 32, 33):
                ds, truth = generate_tissue(SyntheticSpec(n_cells=n_cells, seed=seed))
                refined = refine_labels(truth.labels, ds.coords, r=r)
                scores[n_cells, seed] = nmi(truth.labels, refined.labels)
        assert min(scores.values()) >= 0.97, scores


class TestMetrics:
    def test_identity(self):
        y = [0, 0, 1, 1, 2]
        assert nmi(y, y) == pytest.approx(1.0)
        assert hom(y, y) == pytest.approx(1.0)

    def test_independence_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_case(self):
        y, p = [0, 0, 1, 1], [0, 0, 0, 1]
        assert nmi(y, p) == pytest.approx(contingency_nmi(y, p), abs=1e-12)
        assert hom(y, p) == pytest.approx(contingency_hom(y, p), abs=1e-12)

    def test_singleton_purity(self):
        y = [0, 0, 1, 1]
        assert hom(y, [0, 1, 2, 3]) == pytest.approx(1.0)
        assert hom(y, [0, 0, 0, 0]) == pytest.approx(0.0)

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [5, 5, 5]) == 1.0
        assert hom([0, 0, 0], [1, 2, 3]) == 1.0

    def test_property_against_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            y = rng.integers(0, rng.integers(2, 7), n)
            p = rng.integers(0, rng.integers(2, 7), n)
            assert abs(nmi(y, p) - contingency_nmi(y, p)) < 1e-10
            assert abs(hom(y, p) - contingency_hom(y, p)) < 1e-10

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 4, 40)
        p = rng.integers(0, 3, 40)
        remap_y = np.array([7, 3, 9, 1])[y]
        remap_p = np.array([4, 8, 0])[p]
        assert nmi(remap_y, remap_p) == pytest.approx(nmi(y, p), abs=1e-12)
        assert hom(remap_y, remap_p) == pytest.approx(hom(y, p), abs=1e-12)

    def test_nmi_symmetric_hom_not(self):
        y, p = [0, 0, 1, 1], [0, 0, 0, 1]
        assert nmi(y, p) == pytest.approx(nmi(p, y), abs=1e-12)
        # singleton-vs-merged is the canonical asymmetric counterexample
        assert hom([0, 1, 2, 3], [0, 0, 1, 1]) != hom([0, 0, 1, 1], [0, 1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            nmi([0, 1], [0, 1, 2])
        with pytest.raises(ValueError, match="equal length"):
            hom([0, 1], [0])

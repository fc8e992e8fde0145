"""End-to-end pipeline flows on small synthetic tissues."""

import numpy as np
import pytest

from cellscape import pipeline
from cellscape.cluster import gmm_cluster, pca_reduce, refine_labels
from cellscape.config import PipelineConfig, model_config_from
from cellscape.synth import SyntheticSpec, generate_tissue
from cellscape.training import train


@pytest.mark.parametrize("cci_only", [False, True])
def test_fit_equals_the_stage_chain(cci_only):
    # the chain benchmark/fit.py times, stage by stage
    ds = generate_tissue(SyntheticSpec(n_cells=150, n_genes=40, n_domains=3, seed=4))[0]
    cfg = PipelineConfig(seed=4)
    cfg.model.epochs = 2
    cfg.model.cci_only = cci_only
    cfg.clustering.n_domains = 3
    pre, _, coexpr = pipeline.preprocess_dataset(ds, cfg)
    graph = pipeline.build_graph(pre.coords, cfg)
    layout = pipeline.make_layout(coexpr, cfg)
    _, embeddings, _ = train(pre, graph, layout, model_config_from(cfg))
    labels = pipeline.segment_embeddings(embeddings.Z_spatial, pre.coords, cfg)

    result = pipeline.fit([ds], cfg)
    np.testing.assert_array_equal(result.embeddings.Z_spatial, embeddings.Z_spatial)
    np.testing.assert_array_equal(result.labels.labels, labels.labels)
    np.testing.assert_array_equal(result.graph.edges, graph.edges)
    assert result.dataset.cell_ids == ds.cell_ids
    assert (result.embeddings.Z_intrinsic is None) == cci_only
    assert set(result.samples) == {"sample0"}


def test_fit_refines_each_sample_alone():
    # two samples in the same unit-square frame with bands on different
    # axes: a cell's nearest neighbours in the stacked coordinates include
    # cells of the other sample, whose domains disagree with its own
    samples = [
        generate_tissue(SyntheticSpec(n_cells=150, n_genes=40, n_domains=3,
                                      band_axis=axis, seed=seed))[0]
        for axis, seed in (("x", 1), ("y", 2))
    ]
    cfg = PipelineConfig()
    cfg.model.epochs = 1
    cfg.clustering.n_domains = 3
    result = pipeline.fit(samples, cfg)

    unrefined = pipeline._pca_gmm(result.embeddings.Z_spatial, cfg).labels
    coords = result.dataset.coords
    r = cfg.clustering.refine_neighbors
    per_sample = np.concatenate([
        refine_labels(unrefined[cells], coords[:, cells], r=r).labels
        for cells in (np.arange(150), np.arange(150, 300))
    ])
    pooled = refine_labels(unrefined, coords, r=r).labels
    assert not np.array_equal(pooled, per_sample)  # the input can show a leak
    np.testing.assert_array_equal(result.labels.labels, per_sample)
    assert result.samples.tolist() == ["sample0"] * 150 + ["sample1"] * 150
    assert result.dataset.batch_labels == result.samples.tolist()
    assert result.dataset.cell_ids[0] == "s0_c0" and result.dataset.cell_ids[150] == "s1_c0"


def test_fit_on_25_cells():
    ds = generate_tissue(SyntheticSpec(n_cells=25, n_genes=20, n_domains=2, seed=0))[0]
    cfg = PipelineConfig()
    cfg.model.epochs = 2
    cfg.clustering.n_domains = 2
    result = pipeline.fit([ds], cfg)
    assert result.labels.labels.shape == (25,)
    assert set(result.labels.labels.tolist()) <= {0, 1}


@pytest.mark.parametrize("refine, n_domains, words", [
    (True, 2, "sample0 has 12 cells; clustering.refine_neighbors=15 needs more"),
    (False, 12, "12 cells in total; clustering.n_domains=12 needs more"),
])
def test_fit_rejects_a_tissue_too_small_to_segment_before_training(
        monkeypatch, refine, n_domains, words):
    def no_training(*args, **kwargs):
        raise AssertionError("fit reached training")

    monkeypatch.setattr(pipeline, "train", no_training)
    ds = generate_tissue(SyntheticSpec(n_cells=12, n_genes=20, n_domains=2, seed=0))[0]
    cfg = PipelineConfig()
    cfg.clustering.refine = refine
    cfg.clustering.n_domains = n_domains
    with pytest.raises(ValueError, match=words):
        pipeline.fit([ds], cfg)


def test_segment_rejects_a_sample_too_small_to_refine():
    # the same check and message as fit's, per sample, before the vote
    Z = np.random.default_rng(0).normal(size=(40, 4))
    samples = ["sample0"] * 25 + ["sample1"] * 15
    with pytest.raises(ValueError, match="sample1 has 15 cells; clustering.refine_neighbors=15"):
        pipeline.segment_embeddings(Z, np.zeros((2, 40)), k_domain_config(seed=0), samples)


def k_domain_config(seed: int) -> PipelineConfig:
    cfg = PipelineConfig(seed=seed)
    cfg.clustering.n_domains = 3
    return cfg


def test_segment_reads_k_principal_components():
    # the PCA width is the domain count; an embedding that narrow skips PCA
    centres = np.random.default_rng(0).normal(scale=3.0, size=(3, 32))
    Z = np.repeat(centres, 30, axis=0) + np.random.default_rng(1).normal(size=(90, 32))
    cfg = k_domain_config(seed=5)
    cfg.clustering.refine = False
    assert cfg.clustering.pca_dim == 3
    labels = pipeline.segment_embeddings(Z, np.zeros((2, 90)), cfg).labels
    np.testing.assert_array_equal(labels, gmm_cluster(pca_reduce(Z, 3), 3, seed=5).labels)
    narrow = Z[:, :3]
    labels = pipeline.segment_embeddings(narrow, np.zeros((2, 90)), cfg).labels
    np.testing.assert_array_equal(labels, gmm_cluster(narrow, 3, seed=5).labels)


@pytest.mark.parametrize("n", [2, 3])
def test_segment_names_too_few_cells(n):
    cfg = k_domain_config(seed=0)
    with pytest.raises(ValueError, match=f"need more cells than components, got n={n}, K=3"):
        pipeline.segment_embeddings(np.ones((n, 32)), np.zeros((2, n)), cfg)


def test_control_reads_k_principal_components_of_the_expression():
    ds = generate_tissue(SyntheticSpec(n_cells=120, n_genes=40, n_domains=3, seed=2))[0]
    cfg = k_domain_config(seed=2)
    X = pipeline.preprocess_dataset(ds, cfg)[0].X.T
    np.testing.assert_array_equal(pipeline.baseline_pca_gmm(ds, cfg).labels,
                                  gmm_cluster(pca_reduce(X, 3), 3, seed=2).labels)


def test_readouts_call_the_clustering_through_the_pipeline_module(monkeypatch):
    # the benchmark's tracer times PCA and the GMM by patching these names
    calls = []

    def counted(name):
        original = getattr(pipeline, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("pca_reduce", "gmm_cluster"):
        monkeypatch.setattr(pipeline, name, counted(name))
    ds = generate_tissue(SyntheticSpec(n_cells=60, n_genes=20, n_domains=3, seed=3))[0]
    cfg = k_domain_config(seed=3)
    pipeline.baseline_pca_gmm(ds, cfg)
    pipeline.segment_embeddings(np.random.default_rng(0).normal(size=(60, 8)), ds.coords, cfg)
    assert calls == ["pca_reduce", "gmm_cluster"] * 2

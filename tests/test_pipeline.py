"""End-to-end pipeline flows on small synthetic tissues."""

import numpy as np
import pytest

from cellscape import pipeline
from cellscape.cluster import refine_labels
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
    assert (result.layout is None) == cci_only
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

    unrefined = result.labels.posterior.argmax(axis=1)
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


def test_fit_on_fewer_cells_than_pca_dim():
    # 25 cells: PCA keeps n - 1 = 24 dims, not clustering.pca_dim = 30
    ds = generate_tissue(SyntheticSpec(n_cells=25, n_genes=20, n_domains=2, seed=0))[0]
    cfg = PipelineConfig()
    cfg.model.epochs = 2
    cfg.clustering.n_domains = 2
    assert cfg.clustering.pca_dim > ds.n_cells
    result = pipeline.fit([ds], cfg)
    assert result.labels.labels.shape == (25,)
    assert set(result.labels.labels.tolist()) <= {0, 1}

"""End-to-end pipeline flows on small synthetic tissues."""

import numpy as np

from cellscape.cluster import refine_labels
from cellscape.config import PipelineConfig
from cellscape.pipeline import integrated_run
from cellscape.synth import SyntheticSpec, generate_tissue


def test_integrated_run_refines_each_sample_alone():
    # two samples in the same unit-square frame with bands along different
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
    result = integrated_run(samples, cfg)

    unrefined = result["labels"].posterior.argmax(axis=1)
    coords = result["dataset"].coords
    r = cfg.clustering.refine_neighbors
    per_sample = np.concatenate([
        refine_labels(unrefined[cells], coords[:, cells], r=r).labels
        for cells in (np.arange(150), np.arange(150, 300))
    ])
    pooled = refine_labels(unrefined, coords, r=r).labels
    assert not np.array_equal(pooled, per_sample)  # the input can show a leak
    np.testing.assert_array_equal(result["labels"].labels, per_sample)

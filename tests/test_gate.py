"""The quality gate of ROADMAP item 1: on the banded tissue the domains are
spatial, so the spatial model's fit must score at least its own non-spatial
control, PCA+GMM on the expression under the same ``clustering`` section.

The protocol is fixed: two regimes, tissue seeds 11-13 (never used for
development, which runs on seeds 0-2), ``PipelineConfig(seed=s)`` with its
default epochs for both the fit and the control, and the mean NMI against
the bands over the three seeds. A bound may be raised, never lowered. A
regime that misses its bound is ``xfail(strict=True)``, so that a pass turns
the run red until its marker goes. Minutes per run: select with ``-m slow``.
"""

import dataclasses

import numpy as np
import pytest

from cellscape import pipeline
from cellscape.config import PipelineConfig
from cellscape.metrics import nmi
from cellscape.synth import SyntheticSpec, generate_tissue

SEEDS = (11, 12, 13)

# regime: (tissue, how far the fit's mean NMI may fall below the control's)
REGIMES = {
    "weak": (SyntheticSpec(n_cells=1000, n_genes=200, program_strength=0.6), 0.0),
    "strong": (SyntheticSpec(n_cells=800, n_genes=100, program_strength=10.0), 0.05),
}

MISSED = ("ROADMAP item 1: on development seeds 0-2 the fit's mean NMI is {:.2f} against "
          "the control's {:.2f}, short of this bound")


@pytest.mark.slow
@pytest.mark.parametrize("regime", [
    pytest.param("weak", marks=pytest.mark.xfail(strict=True, reason=MISSED.format(0.28, 0.44))),
    pytest.param("strong", marks=pytest.mark.xfail(strict=True, reason=MISSED.format(0.73, 1.00))),
])
def test_fit_scores_at_least_its_non_spatial_control(regime):
    spec, margin = REGIMES[regime]
    fits, controls = [], []
    for seed in SEEDS:
        ds, truth = generate_tissue(dataclasses.replace(spec, seed=seed))
        cfg = PipelineConfig(seed=seed)
        fits.append(nmi(truth.labels, pipeline.fit([ds], cfg).labels.labels))
        controls.append(nmi(truth.labels, pipeline.baseline_pca_gmm(ds, cfg).labels))
    assert np.mean(fits) >= np.mean(controls) - margin, (fits, controls)

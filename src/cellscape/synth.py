"""Layered-tissue synthetic data generator: cells in banded spatial domains,
each domain with its own program genes, plus the ground-truth labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import DomainLabels
from .dataset import ExpressionDataset


@dataclass
class SyntheticSpec:
    """Banded-tissue generator parameters."""

    n_cells: int = 2000
    n_genes: int = 200
    n_domains: int = 5
    band_axis: str = "x"
    program_strength: float = 5.0
    noise_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_cells < 1 or self.n_genes < 1:
            raise ValueError("n_cells and n_genes must be positive")
        if not 1 <= self.n_domains <= self.n_genes:
            raise ValueError("need 1 <= n_domains <= n_genes")
        if self.band_axis not in ("x", "y"):
            raise ValueError("band_axis must be 'x' or 'y'")
        if self.program_strength < 0 or self.noise_sd < 0:
            raise ValueError("program_strength and noise_sd must be non-negative")
        for value in (self.program_strength, self.noise_sd):
            if not np.isfinite(value):
                raise ValueError("generator parameters must be finite")


def generate_tissue(spec: SyntheticSpec) -> tuple[ExpressionDataset, DomainLabels]:
    """Cells uniform in the unit square, domains as bands along one axis.

    Each domain owns a block of program genes with boosted Poisson rates.
    """
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    coords = rng.random((2, spec.n_cells))
    axis = 0 if spec.band_axis == "x" else 1
    domains = np.minimum(
        (coords[axis] * spec.n_domains).astype(np.int64), spec.n_domains - 1
    )
    per_domain = spec.n_genes // spec.n_domains
    lam = np.full((spec.n_genes, spec.n_cells), 1.0)
    for d in range(spec.n_domains):
        genes = slice(d * per_domain, (d + 1) * per_domain)
        lam[genes, domains == d] += spec.program_strength
    X = rng.poisson(lam).astype(np.float64)
    if spec.noise_sd > 0:
        X = np.maximum(X + rng.normal(0.0, spec.noise_sd, X.shape), 0.0)
    ds = ExpressionDataset(
        X=X,
        coords=coords,
        gene_names=[f"g{i}" for i in range(spec.n_genes)],
        cell_ids=[f"c{j}" for j in range(spec.n_cells)],
    )
    return ds, DomainLabels(labels=domains, n_domains=spec.n_domains)

"""Expression preprocessing: library-size normalization, log transform,
variable-gene selection, gene-gene correlation, and batch harmonization."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import ExpressionDataset


@dataclass
class CoexpressionMatrix:
    """Symmetric gene-gene Pearson correlation; a constant gene's
    off-diagonal correlations are zero."""

    C: np.ndarray                  # (p, p), entries in [-1, 1], exact symmetry

    @property
    def n_genes(self) -> int:
        return self.C.shape[0]


def normalize_total(ds: ExpressionDataset, target: float) -> ExpressionDataset:
    """Scale every cell column to ``target`` total expression."""
    if target <= 0:
        raise ValueError("target must be positive")
    if np.any(ds.X < 0):
        raise ValueError("normalize_total requires non-negative expression")
    sums = ds.X.sum(axis=0)
    zero = np.flatnonzero(sums == 0)
    if zero.size:
        raise ValueError(f"cell {ds.cell_ids[zero[0]]!r} has zero total expression")
    return replace(ds, X=ds.X * (target / sums))


def log1p_transform(ds: ExpressionDataset) -> ExpressionDataset:
    """Elementwise ln(1 + x)."""
    if np.any(ds.X < 0):
        raise ValueError("log1p_transform requires non-negative expression")
    return replace(ds, X=np.log1p(ds.X))


def select_hvg(counts: np.ndarray, n_top: int) -> np.ndarray:
    """Indices of the most variable genes by clipped variance-stabilized dispersion.

    Works on the raw (p, n) count matrix: fit a power-law trend of variance
    against mean in log10 space, standardize counts by the fitted standard
    deviation, clip at sqrt(n_cells), and rank genes by the variance of the
    clipped values.
    Deterministic with ascending-index tie-break.
    """
    p, n = counts.shape
    if n_top > p:
        raise ValueError(f"n_top={n_top} exceeds gene count {p}")
    if n_top <= 0:
        raise ValueError("n_top must be positive")
    mean = counts.mean(axis=1)
    var = counts.var(axis=1, ddof=1) if n > 1 else np.zeros(p)
    usable = (mean > 0) & (var > 0)

    scores = np.full(p, -1.0)
    if np.any(usable):
        log_mean = np.log10(mean[usable])
        log_var = np.log10(var[usable])
        if np.unique(log_mean).size >= 2:
            slope, intercept = np.polyfit(log_mean, log_var, 1)
        else:
            # all usable genes share one mean: assume variance tracks the mean
            slope, intercept = 1.0, float(np.mean(log_var - log_mean))
        fitted_sd = np.sqrt(10.0 ** (intercept + slope * np.log10(mean[usable])))
        clip = np.sqrt(n)
        z = (counts[usable] - mean[usable, None]) / fitted_sd[:, None]
        z = np.clip(z, -clip, clip)
        scores[usable] = z.var(axis=1, ddof=1)

    order = np.lexsort((np.arange(p), -scores))
    return np.sort(order[:n_top])


def pearson_coexpression(ds: ExpressionDataset) -> CoexpressionMatrix:
    """Gene-gene Pearson correlation across cells, exactly symmetric.

    Constant genes get zero off-diagonal correlation.
    """
    p, n = ds.X.shape
    if n < 2:
        raise ValueError(f"correlation needs at least 2 cells, got {n}")
    centered = ds.X - ds.X.mean(axis=1, keepdims=True)
    ss = np.sqrt((centered * centered).sum(axis=1))
    constant = ss == 0
    denom = np.where(constant, 1.0, ss)
    C = (centered @ centered.T) / np.outer(denom, denom)
    C[constant, :] = 0.0
    C[:, constant] = 0.0
    C = np.clip(C, -1.0, 1.0)
    upper = np.triu(C, k=1)
    C = upper + upper.T
    np.fill_diagonal(C, 1.0)
    return CoexpressionMatrix(C=C)


def combat_correct(ds: ExpressionDataset) -> ExpressionDataset:
    """Remove per-gene location/scale batch effects.

    Standardizes each gene, estimates per-batch additive (gamma) and
    multiplicative (delta^2) effects, and back-transforms. The batch moments
    are removed exactly, with no empirical-Bayes shrinkage, which makes
    post-correction batch means identical per gene.
    """
    if ds.batch_labels is None:
        raise ValueError("combat_correct requires batch labels")
    labels = list(ds.batch_labels)
    batch_names = sorted(set(labels))
    if len(batch_names) < 2:
        warnings.warn("combat_correct: single batch, returning input unchanged", RuntimeWarning)
        return ds
    batch_idx = np.array([batch_names.index(b) for b in labels])
    counts = np.bincount(batch_idx, minlength=len(batch_names))
    for name, c in zip(batch_names, counts):
        if c < 2:
            raise ValueError(f"batch {name!r} has {c} cell(s); need at least 2 per batch")

    X = ds.X
    n = X.shape[1]
    n_batches = len(batch_names)
    members = [np.flatnonzero(batch_idx == b) for b in range(n_batches)]

    batch_means = np.stack([X[:, m].mean(axis=1) for m in members], axis=1)  # (p, B)
    grand = batch_means @ (counts / n)
    resid = X - batch_means[:, batch_idx]
    var_pooled = (resid * resid).mean(axis=1)

    informative = var_pooled > 0
    scale = np.where(informative, np.sqrt(var_pooled), 1.0)
    Z = (X - grand[:, None]) / scale[:, None]

    gamma = np.stack([Z[:, m].mean(axis=1) for m in members], axis=1)
    delta2 = np.stack([Z[:, m].var(axis=1, ddof=1) for m in members], axis=1)

    delta2 = np.where(delta2 > 0, delta2, 1.0)
    adjusted = (Z - gamma[:, batch_idx]) / np.sqrt(delta2)[:, batch_idx]
    corrected = scale[:, None] * adjusted + grand[:, None]
    corrected[~informative, :] = grand[~informative, None]

    return replace(ds, X=corrected)

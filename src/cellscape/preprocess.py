"""Expression preprocessing: library-size normalization, variable-gene
selection on the raw counts, batch harmonization by per-batch
standardization (ComBat without shrinkage), and the gene-gene correlation
that the gene layout reads. The log transform is ``np.log1p`` on the
normalized, non-negative values (``pipeline.preprocess_expression``)."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .dataset import ExpressionDataset


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


def pearson_coexpression(ds: ExpressionDataset) -> np.ndarray:
    """The (p, p) gene-gene Pearson correlation across cells.

    The result is exactly symmetric, its entries lie in [-1, 1] and its
    diagonal is 1. A constant gene has no correlation: its off-diagonal
    entries are 0.
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
    return C


def combat_correct(ds: ExpressionDataset) -> ExpressionDataset:
    """Remove per-gene location and scale batch effects: ComBat (Johnson,
    Li & Rabinovic 2007) with the batch moments removed exactly, no
    empirical-Bayes shrinkage.

    Without shrinkage ComBat's standardize, estimate, adjust and
    back-transform steps reduce to a closed form. Per gene, a value ``x``
    of batch b becomes ``grand + pooled_sd * (x - mean_b) / sd_b``:
    ``grand`` is the cell-weighted mean of the batch means, ``pooled_sd``
    the pooled within-batch standard deviation (ddof 0) and ``mean_b`` and
    ``sd_b`` the batch's own mean and standard deviation (ddof 1). A gene
    that is exactly constant within a batch (such as one the sample never
    detected) takes the value ``grand`` in that batch. So every gene's
    corrected batch means are equal, and each batch's standard deviation
    is ``pooled_sd`` or 0.
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
    members = [np.flatnonzero(batch_idx == b) for b in range(len(batch_names))]
    batch_means = np.stack([X[:, m].mean(axis=1) for m in members], axis=1)  # (p, B)
    grand = batch_means @ (counts / X.shape[1])
    resid = X - batch_means[:, batch_idx]
    pooled_sd = np.sqrt((resid * resid).mean(axis=1))

    scale = np.zeros_like(batch_means)  # pooled_sd / sd_b, 0 where constant
    for b, m in enumerate(members):
        varies = np.ptp(X[:, m], axis=1) > 0
        scale[varies, b] = pooled_sd[varies] / X[np.ix_(varies, m)].std(axis=1, ddof=1)
    return replace(ds, X=grand[:, None] + scale[:, batch_idx] * resid)

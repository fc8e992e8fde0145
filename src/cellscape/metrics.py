"""Clustering agreement metrics from contingency counts (natural log)."""

from __future__ import annotations

import numpy as np


def _contingency(y_true, y_pred) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(
            f"label vectors must be 1D and equal length, got {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("label vectors are empty")
    _, ti = np.unique(y_true, return_inverse=True)
    _, pi = np.unique(y_pred, return_inverse=True)
    table = np.zeros((ti.max() + 1, pi.max() + 1), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table, table.sum(axis=1), table.sum(axis=0)


def _entropy(counts: np.ndarray, n: int) -> float:
    nz = counts[counts > 0]
    p = nz / n
    return float(-(p * np.log(p)).sum())


def nmi(y_true, y_pred) -> float:
    """Normalized mutual information 2 I / (H(Y) + H(Yhat)); defined as 1 when
    both partitions are a single cluster."""
    table, rows, cols = _contingency(y_true, y_pred)
    n = int(rows.sum())
    h_true = _entropy(rows, n)
    h_pred = _entropy(cols, n)
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    r, c = np.nonzero(table)
    cell = table[r, c].astype(np.float64)
    mi = float(
        (cell / n * (np.log(cell * n) - np.log(rows[r]) - np.log(cols[c]))).sum()
    )
    return float(np.clip(2.0 * mi / (h_true + h_pred), 0.0, 1.0))


def hom(y_true, y_pred) -> float:
    """Homogeneity 1 - H(Y|Yhat)/H(Y); defined as 1 when H(Y) is zero."""
    table, rows, cols = _contingency(y_true, y_pred)
    n = int(rows.sum())
    h_true = _entropy(rows, n)
    if h_true == 0.0:
        return 1.0
    cond = 0.0
    for j in range(table.shape[1]):
        col = table[:, j]
        total = col.sum()
        if total:
            cond += (total / n) * _entropy(col, int(total))
    return float(np.clip(1.0 - cond / h_true, 0.0, 1.0))

"""Arrange genes on a q x q grid so co-expressed genes sit close together,
render per-cell 2D expression maps, and draw the masked cells."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .preprocess import CoexpressionMatrix


@dataclass
class GeneLayout:
    """Bijection from gene index to grid cell on a q x q grid."""

    positions: np.ndarray      # (p, 2) int rows (r, s)
    q: int
    objective_value: float     # final weighted-distance objective
    greedy_objective: float    # objective right after greedy seeding

    @property
    def n_genes(self) -> int:
        return self.positions.shape[0]

    def cell_indices(self) -> np.ndarray:
        """Flat grid index r*q + s per gene."""
        return self.positions[:, 0] * self.q + self.positions[:, 1]


def _add_outer(M: np.ndarray, u: np.ndarray, v: np.ndarray, buf: np.ndarray) -> None:
    """``M += outer(u, v)`` through the preallocated ``buf`` of M's shape,
    so a rank-1 update allocates nothing."""
    np.multiply(u[:, None], v, out=buf)
    M += buf


def layout_genes(coexpr: CoexpressionMatrix, seed: int, *, swap_budget: int) -> GeneLayout:
    """Deterministic greedy seeding plus first-improvement pairwise swaps.

    Minimizes sum over gene pairs of clipped-positive correlation times grid
    distance. ``swap_budget`` caps the number of swap evaluations.

    Both phases work on one table (Taillard 1991, robust taboo search for
    the QAP), ``M[g, c] = sum_k w[g, k] * dist(c, cell_of[k])``: the cost of
    gene g sitting on grid cell c against every placed gene. Seeding places
    the unplaced gene with the largest attachment to the placed ones on the
    free cell of least ``M``; the swap of genes a and b changes the
    objective by ``M[a, pb] - M[a, pa] + M[b, pa] - M[b, pb]
    + 2 w[a, b] dist(pa, pb)``. Each swap evaluation costs O(1); each
    placement and each accepted swap is a rank-1 O(p q^2) update of ``M``,
    which holds p x q^2 floats, written through one buffer of that size.
    """
    C = coexpr.C
    if C.shape[0] != C.shape[1] or not np.array_equal(C, C.T):
        raise ValueError("co-expression matrix must be square and exactly symmetric")
    p = C.shape[0]
    if p < 1:
        raise ValueError("need at least one gene")
    q = math.isqrt(p - 1) + 1 if p > 1 else 1

    w = np.maximum(C, 0.0)
    np.fill_diagonal(w, 0.0)

    grid_rs = np.stack(np.divmod(np.arange(q * q), q), axis=1)  # flat cell -> (r, s)
    grid_dist = np.sqrt(
        ((grid_rs[:, None, :] - grid_rs[None, :, :]) ** 2).sum(axis=2).astype(np.float64)
    )

    # greedy seeding: strongest gene at the grid center, then best-fit placement
    cell_of = np.full(p, -1, dtype=np.int64)
    free = np.ones(q * q, dtype=bool)
    M = np.zeros((p, q * q))
    buf = np.empty_like(M)
    attachment = np.zeros(p)  # sum of w to the placed genes; -inf once placed
    g = int(np.argmax(w.sum(axis=1)))
    cell = ((q - 1) // 2) * q + (q - 1) // 2
    for step in range(p):
        if step:
            g = int(np.argmax(attachment))  # ties go to the lowest gene index
            free_cells = np.flatnonzero(free)
            cell = int(free_cells[int(np.argmin(M[g, free_cells]))])
        cell_of[g] = cell
        free[cell] = False
        _add_outer(M, w[:, g], grid_dist[cell], buf)
        attachment += w[:, g]
        attachment[g] = -np.inf

    greedy_j = 0.5 * float((w * grid_dist[np.ix_(cell_of, cell_of)]).sum())

    # first-improvement pairwise swap hill climbing over a fixed budget;
    # candidate pairs are scored in chunks against the current layout and the
    # first improving swap in each chunk is applied (the rest of the chunk
    # still counts as spent evaluations)
    budget = int(swap_budget)
    j = greedy_j
    if p > 1 and budget > 0 and w.any():
        rng = np.random.default_rng(seed)
        remaining = budget
        chunk = min(512, budget)
        while remaining > 0:
            size = min(chunk, remaining)
            a = rng.integers(0, p, size)
            b = rng.integers(0, p, size)
            valid = a != b
            remaining -= size
            if not valid.any():
                continue
            a, b = a[valid], b[valid]
            pa, pb = cell_of[a], cell_of[b]
            deltas = (M[a, pb] - M[a, pa] + M[b, pa] - M[b, pb]
                      + 2.0 * w[a, b] * grid_dist[pa, pb])
            improving = np.flatnonzero(deltas < -1e-12)
            if improving.size:
                i = improving[0]
                cell_of[a[i]], cell_of[b[i]] = pb[i], pa[i]
                _add_outer(M, w[:, a[i]] - w[:, b[i]], grid_dist[pb[i]] - grid_dist[pa[i]], buf)
        # from scratch, free of the table's float drift
        j = 0.5 * float((w * grid_dist[np.ix_(cell_of, cell_of)]).sum())

    return GeneLayout(positions=grid_rs[cell_of], q=q, objective_value=j,
                      greedy_objective=greedy_j)


def render_maps(X: np.ndarray, layout: GeneLayout) -> np.ndarray:
    """Batched rendering of a (p, n) matrix into (n, q, q) maps."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] != layout.n_genes:
        raise ValueError(f"expected {layout.n_genes} gene rows, got {X.shape[0]}")
    n = X.shape[1]
    flat = np.zeros((n, layout.q * layout.q), dtype=np.float64)
    flat[:, layout.cell_indices()] = X.T
    return flat.reshape(n, layout.q, layout.q)


def mask_cells(n: int, ratio: float, seed: int) -> np.ndarray:
    """Sorted indices of ceil(ratio * n) seeded-random cells out of n; training
    reads both the features and the gene maps of these cells as zeros."""
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"mask ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=math.ceil(ratio * n), replace=False))

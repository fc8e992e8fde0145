"""Arrange genes on a q x q grid so co-expressed genes sit close together,
render per-cell 2D expression maps, and draw the masked cells."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


_CHUNK = 512      # swap candidates scored against one layout
_MAX_BLOCK = 64   # chunks drawn at once, and the most scored in one pass
_ROW_BLOCK = 1 << 15  # entries per row block of a table update or the 2-opt
                      # check, so that a block's temporaries stay in cache


def _add_rows(M: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """``M += outer(u, v)`` on the rows where ``u`` is non-zero, in row
    blocks. Every other row would get ``+ 0 * v``, which changes at most
    the sign of a zero."""
    rows = np.flatnonzero(u)
    step = max(1, _ROW_BLOCK // M.shape[1])
    for lo in range(0, rows.size, step):
        block = rows[lo:lo + step]
        M[block] += u[block, None] * v


def _draws(rng: np.random.Generator, p: int, budget: int):
    """The ``budget`` candidate pairs as (chunks, 2, size) blocks of at most
    ``_MAX_BLOCK`` chunks: chunk by chunk, ``size`` first genes, then
    ``size`` second genes. One draw of k chunks yields the values of 2k
    per-chunk draws of ``size``: each value comes from the generator's
    stream of 32-bit words, whose position (a buffered half word included)
    the generator keeps, not the call. The short last chunk is drawn by its
    own two calls."""
    n_full, tail = divmod(budget, _CHUNK)
    for first in range(0, n_full, _MAX_BLOCK):
        yield rng.integers(0, p, (min(_MAX_BLOCK, n_full - first), 2, _CHUNK))
    if tail:
        yield np.stack([rng.integers(0, p, tail), rng.integers(0, p, tail)])[None]


def _is_two_opt(M: np.ndarray, w: np.ndarray, grid_dist: np.ndarray,
                cell_of: np.ndarray) -> bool:
    """Whether no swap of two genes has a delta below -1e-12, each ordered
    pair's delta computed by the candidates' expression, in row blocks."""
    p = len(cell_of)
    Ms = M[np.arange(p), cell_of]
    rows = max(1, _ROW_BLOCK // p)
    for lo in range(0, p, rows):
        a = slice(lo, lo + rows)
        deltas = (M[a][:, cell_of] - Ms[a, None] + M[:, cell_of[a]].T - Ms[None, :]
                  + 2.0 * w[a] * grid_dist[np.ix_(cell_of[a], cell_of)])
        if (deltas < -1e-12).any():
            return False
    return True


def _swap_descent(M: np.ndarray, w: np.ndarray, grid_dist: np.ndarray,
                  cell_of: np.ndarray, rng: np.random.Generator, budget: int) -> None:
    """First-improvement swaps over ``budget`` drawn candidates, applied to
    ``cell_of`` and ``M`` in place (see ``layout_genes``)."""
    p, n_cells = M.shape
    M_flat, w_flat, dist_flat = M.reshape(-1), w.reshape(-1), grid_dist.reshape(-1)
    width, unchecked = 1, True  # chunks per pass; layout changed since the 2-opt check
    for drawn in _draws(rng, p, budget):
        at = 0
        while at < len(drawn):
            block = drawn[at:at + width]
            a, b = block[:, 0].ravel(), block[:, 1].ravel()
            pa, pb = cell_of[a], cell_of[b]
            ra, rb = a * n_cells, b * n_cells  # flat index of row a, b of M
            deltas = (M_flat[ra + pb] - M_flat[ra + pa] + M_flat[rb + pa] - M_flat[rb + pb]
                      + 2.0 * w_flat[a * p + b] * dist_flat[pa * n_cells + pb])
            improving = np.flatnonzero(deltas < -1e-12)
            if improving.size:
                i = improving[0]
                cell_of[a[i]], cell_of[b[i]] = pb[i], pa[i]
                _add_rows(M, w[a[i]] - w[b[i]], grid_dist[pb[i]] - grid_dist[pa[i]])
                at += i // block.shape[2] + 1
                width, unchecked = 1, True
                continue
            at += len(block)
            if width == _MAX_BLOCK and unchecked:
                if _is_two_opt(M, w, grid_dist, cell_of):
                    return
                unchecked = False
            width = min(2 * width, _MAX_BLOCK)


def layout_genes(coexpr: np.ndarray, seed: int, *, swap_budget: int) -> GeneLayout:
    """Deterministic greedy seeding plus first-improvement pairwise swaps.

    ``coexpr`` is a (p, p) gene-gene correlation, exactly symmetric
    (``preprocess.pearson_coexpression``). The layout minimizes the sum over
    gene pairs of clipped-positive correlation times grid distance.
    ``swap_budget`` caps the number of swap evaluations.

    Both phases work on one table (Taillard 1991, robust taboo search for
    the QAP), ``M[g, c] = sum_k w[g, k] * dist(c, cell_of[k])``: the cost of
    gene g sitting on grid cell c against every placed gene. Seeding places
    the unplaced gene with the largest attachment to the placed ones on the
    free cell of least ``M``; the swap of genes a and b changes the
    objective by ``M[a, pb] - M[a, pa] + M[b, pa] - M[b, pb]
    + 2 w[a, b] dist(pa, pb)``.

    The swaps are those of a plain loop: candidates drawn ``min(512,
    budget)`` at a time from ``default_rng(seed)`` (all first genes, then
    all second genes), each chunk scored against the current layout, and
    its first candidate with a delta below -1e-12 applied. Four things make
    the same result cheaper, each exactly:

    - Placing gene g adds ``outer(w[:, g], dist[cell])`` to ``M``, and
      swapping a and b adds ``outer(w[:, a] - w[:, b], dist[pb] -
      dist[pa])``; only the rows with a non-zero first factor are touched
      (``_add_rows``). The others would gain ``+0``, which can flip the sign
      of a zero entry and nothing else, and no comparison tells -0 from 0.
    - Candidates are drawn up to 64 chunks in one call (``_draws``), which
      yields the values of the per-chunk calls.
    - The draws never depend on the layout, so several chunks are scored in
      one pass against the current layout. The first improving candidate
      of the first chunk that has one is the swap the loop makes, since the
      chunks before it were scored against the same layout; scoring resumes
      at the next chunk. The pass widens from 1 to 64 chunks while no
      candidate improves and drops to 1 after a swap. A pair with a == b
      scores exactly 0, so it needs no filter.
    - After a clean 64-chunk pass on a layout not yet checked, every
      ordered pair is scored by the same expression on the same operands
      (``_is_two_opt``). If none improves, no later candidate can, since
      only a swap changes the layout, and the rest of the budget is skipped.
    """
    C = coexpr
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
        _add_rows(M, w[g], grid_dist[cell])  # w is symmetric: row g is column g
        attachment += w[g]
        attachment[g] = -np.inf

    greedy_j = 0.5 * float((w * grid_dist[np.ix_(cell_of, cell_of)]).sum())

    budget = int(swap_budget)
    j = greedy_j
    if p > 1 and budget > 0 and w.any():
        _swap_descent(M, w, grid_dist, cell_of, np.random.default_rng(seed), budget)
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

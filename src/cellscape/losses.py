"""Training objectives: scaled cosine reconstruction error over masked cells
and the graph-neighborhood multi-positive contrastive loss."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .spatial_graph import DirectedEdges


def sce_loss(x: np.ndarray, x_hat: Tensor, mask_set: np.ndarray, gamma: float) -> Tensor:
    """Mean of (1 - cos(x, x_hat))^gamma over the masked cells.

    ``x`` holds the original (n, p) cell rows and ``mask_set`` indexes the
    masked cells; ``x_hat`` holds their (len(mask_set), p) reconstructions,
    row ``i`` for cell ``mask_set[i]`` (``CellScapeModel.decode``'s rows).
    A zero-norm vector in a masked pair contributes cos = 0 (loss 1) with a
    warning and is excluded from the gradient path; a term whose 1 - cos
    rounds to 0 or below is clamped to 0 and takes a zero gradient.

    The loss is one fused op, ``autodiff.sce``, with a closed-form gradient:
    it keeps per-row scalars and gathers the target rows from ``x`` again
    in its backward, so it holds no (masked, p) array of its own between
    the two.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    mask = np.asarray(mask_set, dtype=np.intp)
    if mask.size == 0:
        raise ValueError("mask set is empty")
    if x_hat.shape[0] != mask.size:
        raise ValueError(f"expected {mask.size} reconstructed rows, got {x_hat.shape[0]}")
    return ad.sce(x_hat, x, mask, gamma)


def neighbor_arrays(edges: DirectedEdges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positive pairs of the contrastive loss: ``(dst, src, degree)``.

    ``dst, src`` are the graph's directed edges without self-loops, sorted
    by (anchor, neighbor); ``degree`` counts each cell's occurrences across
    all neighbor sets (its graph degree), as float64.
    """
    empty = np.flatnonzero(np.diff(edges.indptr) == 1)  # a row holding only its self-loop
    if empty.size:
        raise ValueError(f"cell {empty[0]} has an empty neighbor set")
    keep = edges.dst != edges.src
    dst, src = edges.dst[keep], edges.src[keep]
    degree = np.bincount(src, minlength=len(edges.indptr) - 1).astype(np.float64)
    return dst, src, degree


def contrastive_loss(z: Tensor, neighbors: tuple[np.ndarray, np.ndarray, np.ndarray],
                     tau: float, anchors: np.ndarray) -> Tensor:
    """Multi-positive InfoNCE over spatial neighborhoods.

    ``neighbors`` is the ``(dst, src, degree)`` triple of ``neighbor_arrays``:
    the positives of anchor ``i`` are the cells ``src`` paired with it in
    ``dst``. For each anchor the numerator pools similarities to its graph
    neighbors and the denominator pools similarities to every neighbor
    occurrence in the batch, computed in log-space with max-shift
    stabilization. The loss averages over ``anchors``, strictly increasing
    cell indices in ``[0, n)`` (``np.arange(n)`` for every cell).

    The loss is one fused op, ``autodiff.contrastive``, which walks the
    anchors in blocks of ``autodiff._ANCHOR_CHUNK`` and builds the gradient
    during the forward, so memory is O(chunk * n) rather than
    O(anchors * n).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    dst, src, degree = neighbors
    n = z.shape[0]
    if degree.shape[0] != n:
        raise ValueError("neighbor arrays must cover every embedding row")
    norms = np.sqrt((z.values * z.values).sum(axis=1))
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("contrastive_loss expects unit-norm embedding rows")

    anchor_idx = np.asarray(anchors, dtype=np.intp)
    if (anchor_idx.ndim != 1 or np.any(np.diff(anchor_idx) <= 0)
            or (anchor_idx.size and (anchor_idx[0] < 0 or anchor_idx[-1] >= n))):
        raise ValueError(f"anchors must be strictly increasing cell indices in [0, {n})")
    # anchor edges keep their (anchor, neighbor) order: dst is sorted and
    # pos increases with the cell index
    pos = np.full(n, -1, dtype=np.intp)
    pos[anchor_idx] = np.arange(anchor_idx.size)
    sel = pos[dst] >= 0
    rows, cols = pos[dst[sel]], src[sel]
    return ad.contrastive(z, anchor_idx, rows, cols, degree, tau)

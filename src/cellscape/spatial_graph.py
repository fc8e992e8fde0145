"""Cell-cell spatial graphs over one exact neighbour search
(``nearest_neighbors``, for points of any dimension, so embeddings too): kNN
with union symmetrization, Delaunay triangulation with degenerate-input
fallback, and block-diagonal merging of per-sample graphs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay, QhullError, cKDTree


@dataclass(frozen=True)
class DirectedEdges:
    """Attention pairs of a graph in CSR order: both orientations of every
    edge plus a self-loop on every node, sorted by (dst, src). Receiver
    ``i`` owns entries ``indptr[i]:indptr[i + 1]``, never an empty range."""

    dst: np.ndarray     # (E,) receivers, non-decreasing
    src: np.ndarray     # (E,) senders, increasing within each receiver
    indptr: np.ndarray  # (n + 1,) row pointers into dst/src


@dataclass
class SpatialGraph:
    """Weighted undirected graph over cells; weights are Euclidean distances."""

    n_nodes: int
    edges: np.ndarray    # (E, 2) int, each row sorted i < j, rows unique + sorted
    weights: np.ndarray  # (E,) non-negative distances: coordinate twins join at 0

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.edges.shape[0] != self.weights.shape[0]:
            raise ValueError("edge and weight counts differ")
        if self.edges.size and (
            np.any(self.edges[:, 0] >= self.edges[:, 1])
            or np.any(self.edges < 0)
            or np.any(self.edges >= self.n_nodes)
        ):
            raise ValueError("edges must be sorted pairs (i < j) within node range")

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)

    def directed_edges(self) -> DirectedEdges:
        """The graph's attention pairs, built anew on each call."""
        loop = np.arange(self.n_nodes, dtype=np.int64)
        dst = np.concatenate([self.edges[:, 0], self.edges[:, 1], loop])
        src = np.concatenate([self.edges[:, 1], self.edges[:, 0], loop])
        order = np.lexsort((src, dst))
        dst, src = dst[order], src[order]
        indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=self.n_nodes), out=indptr[1:])
        return DirectedEdges(dst, src, indptr)


def _finalize(n: int, pairs: np.ndarray, coords: np.ndarray) -> SpatialGraph:
    """The graph of the (m, 2) ``pairs``, each edge once, weighted by length."""
    # (i, j) with i < j as the key i * n + j: sorting the keys sorts the rows
    pairs = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
    edges = np.column_stack([keys // n, keys % n])
    diffs = coords[:, edges[:, 0]] - coords[:, edges[:, 1]]
    weights = np.sqrt((diffs * diffs).sum(axis=0))
    return SpatialGraph(n, edges, weights)


def _check_points(coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError(f"points must be d x n, got {coords.shape}")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates contain NaN or Inf")
    return coords


def _check_coords(coords) -> np.ndarray:
    coords = _check_points(coords)
    if coords.shape[0] != 2:
        raise ValueError(f"coords must be 2 x n, got {coords.shape}")
    return coords


# cKDTree may round a distance differently from the exact recomputation
_ROUNDING_MARGIN = 1.0 + 1e-10


def nearest_neighbors(points, k: int) -> np.ndarray:
    """Each point's k nearest others, shape (n, k), for d x n ``points``.

    ``cKDTree`` proposes candidates, k + 2 per point and then doubling until
    the last one lies strictly beyond the k-th other point, so every tie at
    the boundary is a candidate. They are ordered by (distance, index), the
    distance recomputed as sqrt(sum((p_j - p_i)**2)). A point is dropped by
    its index: a coordinate twin is a neighbour, the point itself never is.
    """
    pts = np.ascontiguousarray(_check_points(points).T)
    n = pts.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of cells n={n}")
    tree = cKDTree(pts)
    out = np.empty((n, k), dtype=np.int64)
    rows, width = np.arange(n), k + 2
    while rows.size:
        width = min(width, n)
        dist, cand = tree.query(pts[rows], k=width)
        done = (dist[:, -1] > dist[:, k] * _ROUNDING_MARGIN) | (width == n)
        own, cand = rows[done], cand[done]
        diff = pts[cand] - pts[own, None, :]
        exact = np.sqrt((diff * diff).sum(axis=2))
        ranked = np.take_along_axis(cand, np.lexsort((cand, exact), axis=1), axis=1)
        out[own] = ranked[ranked != own[:, None]].reshape(own.size, width - 1)[:, :k]
        rows, width = rows[~done], 2 * width
    return out


def build_knn_graph(coords, k: int) -> SpatialGraph:
    """Union-symmetrized kNN graph over d x n points: each point joins its k
    ``nearest_neighbors``, ties to the lower index; duplicates raise a warning."""
    coords = _check_points(coords)
    n = coords.shape[1]
    neighbors = nearest_neighbors(coords, k)
    if np.unique(coords, axis=1).shape[1] < n:
        warnings.warn("duplicate coordinates present; neighbor ties broken by cell index",
                      RuntimeWarning)
    return _finalize(n, np.column_stack([np.repeat(np.arange(n), k), neighbors.ravel()]),
                     coords)


def _path_pairs(pts: np.ndarray) -> np.ndarray:
    """Consecutive cells in (x, y) order: the graph of degenerate input."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    return np.column_stack([order[:-1], order[1:]])


def build_delaunay_graph(coords, prune_percentile: float) -> SpatialGraph:
    """Delaunay-triangulation graph; falls back to a sorted path on collinear
    input. ``prune_percentile`` drops edges longer than that length
    percentile; 100 keeps every edge."""
    coords = _check_coords(coords)
    n = coords.shape[1]
    if n < 3:
        raise ValueError(f"Delaunay construction needs at least 3 cells, got {n}")

    pts = coords.T
    if np.linalg.matrix_rank(pts - pts.mean(axis=0), tol=1e-12) < 2:
        warnings.warn(
            "all cells are collinear; using a coordinate-sorted path graph",
            RuntimeWarning,
        )
        pairs = _path_pairs(pts)
    else:
        try:
            tri = Delaunay(pts)
        except QhullError:
            warnings.warn(
                "triangulation failed on degenerate input; using a sorted path graph",
                RuntimeWarning,
            )
            pairs = _path_pairs(pts)
        else:
            pairs = tri.simplices[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
            # a cell Qhull leaves out (a duplicate) joins the vertex Qhull
            # names for it and that vertex's neighbours
            joins = [pairs]
            for cell, _, vertex in tri.coplanar:
                indptr, neighbors = tri.vertex_neighbor_vertices  # cached by scipy
                joined = np.append(neighbors[indptr[vertex]:indptr[vertex + 1]], vertex)
                joins.append(np.column_stack([np.full_like(joined, cell), joined]))
            pairs = np.concatenate(joins)
    return prune_long_edges(_finalize(n, pairs, coords), prune_percentile)


def prune_long_edges(g: SpatialGraph, percentile: float) -> SpatialGraph:
    """Drop edges longer than the given percentile of edge lengths (hull
    artifacts), but never a cell's last edge: a cell whose every edge is over
    the cutoff keeps its shortest one (the first in edge order on a tie)."""
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if g.n_edges == 0 or percentile == 100:
        return g
    keep = g.weights <= np.percentile(g.weights, percentile)
    # each edge listed at both its ends (entry 2e and 2e + 1), sorted by
    # cell and then length: a cell's first entry is its shortest edge
    ends = g.edges.ravel()
    order = np.lexsort((np.repeat(g.weights, 2), ends))
    cells = ends[order]
    first = order[np.r_[True, cells[1:] != cells[:-1]]]
    stranded = np.bincount(g.edges[keep].ravel(), minlength=g.n_nodes)[ends[first]] == 0
    keep[first[stranded] // 2] = True
    return SpatialGraph(g.n_nodes, g.edges[keep], g.weights[keep])


def block_diagonal_merge(graphs: list[SpatialGraph]) -> SpatialGraph:
    """Disjoint union of per-sample graphs with cumulative index offsets."""
    if not graphs:
        raise ValueError("cannot merge an empty list of graphs")
    offset = 0
    edges = []
    weights = []
    for g in graphs:
        if g.n_edges:
            edges.append(g.edges + offset)
            weights.append(g.weights)
        offset += g.n_nodes
    if edges:
        return SpatialGraph(offset, np.vstack(edges), np.concatenate(weights))
    return SpatialGraph(offset, np.empty((0, 2), dtype=np.int64), np.empty(0))


def choose_graph_method(coords) -> str:
    """'knn' for grid-regular coordinates (nearest-neighbor distances nearly
    constant), 'delaunay' for irregular layouts."""
    coords = _check_coords(coords)
    if coords.shape[1] < 3:
        return "knn"
    diff = coords[:, nearest_neighbors(coords, 1)[:, 0]] - coords
    nn = np.sqrt((diff * diff).sum(axis=0))
    mean = nn.mean()
    if mean == 0:
        return "knn"
    cv = nn.std() / mean
    return "knn" if cv < 0.05 else "delaunay"


def write_edge_list(path, g: SpatialGraph) -> None:
    with open(path, "w") as fh:
        fh.write(f"%n {g.n_nodes}\n")
        for (i, j), w in zip(g.edges, g.weights):
            fh.write(f"{i} {j} {format(w, '.17g')}\n")


def read_edge_list(path) -> SpatialGraph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "%n":
            raise ValueError(f"{path}: first line must be '%n <node count>'")
        n = int(header[1])
        edges = []
        weights = []
        for lineno, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'i j weight'")
            edges.append((int(toks[0]), int(toks[1])))
            weights.append(float(toks[2]))
    return SpatialGraph(
        n,
        np.array(edges, dtype=np.int64).reshape(-1, 2),
        np.array(weights, dtype=np.float64),
    )

"""Cell-cell spatial graph construction: exact kNN with union symmetrization
(over points of any dimension, so embeddings too), Delaunay triangulation
with degenerate-input fallback, and block-diagonal merging of per-sample
graphs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, QhullError


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
    weights: np.ndarray  # (E,) positive distances
    _directed: DirectedEdges | None = field(default=None, repr=False, compare=False)

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
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def directed_edges(self) -> DirectedEdges:
        """The graph's attention pairs, built on first use and cached."""
        if self._directed is None:
            loop = np.arange(self.n_nodes, dtype=np.int64)
            dst = np.concatenate([self.edges[:, 0], self.edges[:, 1], loop])
            src = np.concatenate([self.edges[:, 1], self.edges[:, 0], loop])
            order = np.lexsort((src, dst))
            dst, src = dst[order], src[order]
            indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(dst, minlength=self.n_nodes), out=indptr[1:])
            self._directed = DirectedEdges(dst, src, indptr)
        return self._directed


def _finalize(n: int, pair_set: set[tuple[int, int]], coords: np.ndarray) -> SpatialGraph:
    if not pair_set:
        return SpatialGraph(n, np.empty((0, 2), dtype=np.int64), np.empty(0))
    edges = np.array(sorted(pair_set), dtype=np.int64)
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


def build_knn_graph(coords, k: int, chunk: int = 512) -> SpatialGraph:
    """Union-symmetrized k-nearest-neighbor graph over d x n points, with
    deterministic tie-break.

    Exact blockwise distances; equidistant candidates are ordered by cell
    index, and exact coordinate duplicates raise a warning.
    """
    coords = _check_points(coords)
    n = coords.shape[1]
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of cells n={n}")

    pts = coords.T
    _, dup_counts = np.unique(pts, axis=0, return_counts=True)
    if np.any(dup_counts > 1):
        warnings.warn(
            "duplicate coordinates present; neighbor ties broken by cell index",
            RuntimeWarning,
        )

    pairs: set[tuple[int, int]] = set()
    sq = (pts * pts).sum(axis=1)
    col = np.arange(n)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = sq[start:stop, None] - 2.0 * pts[start:stop] @ pts.T + sq[None, :]
        block[col[start:stop] - start, col[start:stop]] = np.inf  # mask self
        # per-row order by (distance, index): lexsort keys minor-to-major
        order = np.lexsort((np.broadcast_to(col, block.shape), block), axis=1)
        for local, row in enumerate(order[:, :k]):
            i = start + local
            for j in row:
                pairs.add((i, int(j)) if i < j else (int(j), i))
    return _finalize(n, pairs, coords)


def build_delaunay_graph(coords, prune_percentile: float | None = None) -> SpatialGraph:
    """Delaunay-triangulation graph; falls back to a sorted path on collinear
    input. ``prune_percentile`` drops edges longer than that length percentile."""
    coords = _check_coords(coords)
    n = coords.shape[1]
    if n < 3:
        raise ValueError(f"Delaunay construction needs at least 3 cells, got {n}")

    pts = coords.T
    centered = pts - pts.mean(axis=0)
    degenerate = np.linalg.matrix_rank(centered, tol=1e-12) < 2
    pairs: set[tuple[int, int]] = set()
    if degenerate:
        warnings.warn(
            "all cells are collinear; using a coordinate-sorted path graph",
            RuntimeWarning,
        )
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        for a, b in zip(order[:-1], order[1:]):
            pairs.add((min(a, b), max(a, b)))
    else:
        try:
            tri = Delaunay(pts)
        except QhullError:
            warnings.warn(
                "triangulation failed on degenerate input; using a sorted path graph",
                RuntimeWarning,
            )
            order = np.lexsort((pts[:, 1], pts[:, 0]))
            for a, b in zip(order[:-1], order[1:]):
                pairs.add((min(a, b), max(a, b)))
        else:
            for simplex in tri.simplices:
                for a in range(3):
                    u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
                    pairs.add((min(u, v), max(u, v)))
    g = _finalize(n, pairs, coords)
    if prune_percentile is not None:
        g = prune_long_edges(g, prune_percentile)
    return g


def prune_long_edges(g: SpatialGraph, percentile: float) -> SpatialGraph:
    """Drop edges longer than the given percentile of edge lengths (hull artifacts)."""
    if not 0 < percentile <= 100:
        raise ValueError("percentile must be in (0, 100]")
    if g.n_edges == 0 or percentile == 100:
        return g
    cutoff = np.percentile(g.weights, percentile)
    keep = g.weights <= cutoff
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
    n = coords.shape[1]
    if n < 3:
        return "knn"
    pts = coords.T
    sq = (pts * pts).sum(axis=1)
    nn = np.empty(n)
    col = np.arange(n)
    for start in range(0, n, 512):
        stop = min(start + 512, n)
        block = sq[start:stop, None] - 2.0 * pts[start:stop] @ pts.T + sq[None, :]
        block[col[start:stop] - start, col[start:stop]] = np.inf
        nn[start:stop] = np.sqrt(np.maximum(block.min(axis=1), 0.0))
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

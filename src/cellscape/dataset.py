"""Expression dataset container and file I/O.

Supported inputs: per-row tables, a header then ``id,v1,...,vk`` rows, read
by ``load_table`` and written by ``write_table`` (the dense expression CSV
has genes as rows, ``gene_id,cell_1,...``; coordinates are ``cell_id,x,y``;
embeddings have one column per dimension), sparse triplet text (``%shape p
n`` header then ``row col value`` lines) and label CSV (``cell_id,label``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass
class ExpressionDataset:
    """Genes x cells expression matrix with per-cell coordinates and labels."""

    X: np.ndarray                 # (p, n) float64
    coords: np.ndarray            # (2, n) float64, tissue-plane units
    gene_names: list[str]
    cell_ids: list[str]
    batch_labels: list[str] | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.validate()

    @property
    def n_genes(self) -> int:
        return self.X.shape[0]

    @property
    def n_cells(self) -> int:
        return self.X.shape[1]

    def validate(self) -> None:
        p, n = self.X.shape
        if not np.all(np.isfinite(self.X)):
            raise ValueError("expression matrix contains NaN or Inf")
        if self.coords.shape != (2, n):
            raise ValueError(
                f"coordinate matrix has {self.coords.shape[1] if self.coords.ndim == 2 else '?'}"
                f" cells but expression has {n}"
            )
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coordinates contain NaN or Inf")
        if len(self.gene_names) != p:
            raise ValueError(f"{len(self.gene_names)} gene names for {p} matrix rows")
        if len(self.cell_ids) != n:
            raise ValueError(f"{len(self.cell_ids)} cell ids for {n} matrix columns")
        _require_unique(self.gene_names, "gene")
        _require_unique(self.cell_ids, "cell")
        if self.batch_labels is not None and len(self.batch_labels) != n:
            raise ValueError(f"batch labels length {len(self.batch_labels)} != {n} cells")

    def subset_genes(self, indices) -> "ExpressionDataset":
        """Dataset restricted to the given gene rows, copied."""
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, X=self.X[idx], gene_names=[self.gene_names[i] for i in idx])



def _require_unique(names, what: str) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {what} identifier: {name!r}")
        seen.add(name)


def _parse_float(token: str, row: int, col: int, path) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"{path}: non-numeric entry {token!r} at row {row}, column {col}"
        ) from None


def load_table(path, columns: int | None = None) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a per-row CSV, a header ``id,name_1,...,name_k`` then ``id,v1,...,vk``
    rows; returns the (rows, k) values, the row ids and the k column names.
    Every row has the header's width, row ids are unique, and ``columns``,
    when given, is the required k."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a header row 'id,v1,...'")
        if columns is not None and len(header) != columns + 1:
            raise ValueError(f"{path}: header has {len(header) - 1} value columns, "
                             f"expected {columns}")
        what = header[0].strip().removesuffix("_id")  # "cell" or "gene"
        ids: list[str] = []
        rows: list[list[float]] = []
        seen: set[str] = set()
        for r, line in enumerate(reader, start=1):
            if not line:
                continue
            if len(line) != len(header):
                raise ValueError(
                    f"{path}: row {r} has {len(line)} fields, header has {len(header)}"
                )
            rid = line[0].strip()
            if rid in seen:
                raise ValueError(f"{path}: row {r}: duplicate {what} identifier: {rid!r}")
            seen.add(rid)
            ids.append(rid)
            rows.append([_parse_float(tok, r, c + 1, path) for c, tok in enumerate(line[1:])])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), ids, [c.strip() for c in header[1:]]


def load_sparse_triplet(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read ``%shape p n`` triplet text; duplicate entries are summed.

    Gene/cell identifiers are synthesized (``g<i>``/``c<j>``); coordinate files
    supply the real cell ids when present.
    """
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split()
        if len(header) != 3 or header[0] != "%shape":
            raise ValueError(f"{path}: first line must be '%shape <p> <n>'")
        p, n = int(header[1]), int(header[2])
        X = np.zeros((p, n), dtype=np.float64)
        for lineno, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'row col value'")
            r, c = int(toks[0]), int(toks[1])
            if not (0 <= r < p and 0 <= c < n):
                raise ValueError(f"{path}: line {lineno}: index ({r},{c}) outside {p}x{n}")
            X[r, c] += _parse_float(toks[2], lineno, 3, path)
    return X, [f"g{i}" for i in range(p)], [f"c{j}" for j in range(n)]


def load_coords(path) -> tuple[np.ndarray, list[str]]:
    """Read ``cell_id,x,y`` CSV; returns (coords 2 x n, cell_ids)."""
    xy, ids, _ = load_table(path, columns=2)
    return xy.T, ids


def load_labels(path) -> dict[str, str]:
    """Read ``cell_id,label`` CSV into a mapping."""
    path = Path(path)
    out: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for r, line in enumerate(reader, start=1):
            if not line:
                continue
            if len(line) != 2:
                raise ValueError(f"{path}: row {r}: expected 'cell_id,label'")
            cid = line[0].strip()
            if cid in out:
                raise ValueError(f"{path}: duplicate cell identifier: {cid!r}")
            out[cid] = line[1].strip()
    return out


_READERS = {"dense-csv": load_table, "sparse-triplet": load_sparse_triplet}
FORMATS = tuple(_READERS)  # the expression formats ``load_dataset`` reads


def load_dataset(expr_path, coords_path, format: str, batch_path=None) -> ExpressionDataset:
    """Load and cross-validate expression, coordinates, and optional batch
    labels."""
    if format not in _READERS:
        raise ValueError(f"unknown expression format {format!r}")
    X, gene_names, cell_ids = _READERS[format](expr_path)
    named = format == "dense-csv"  # sparse-triplet cell ids are synthesized
    if np.any(X < 0):
        bad = np.argwhere(X < 0)[0]
        raise ValueError(f"negative expression value at gene {bad[0]}, cell {bad[1]}")

    coords, coord_ids = load_coords(coords_path)
    if coords.shape[1] != X.shape[1]:
        raise ValueError(
            f"dimension mismatch: expression has {X.shape[1]} cells "
            f"but coordinates file has {coords.shape[1]} rows"
        )
    if named:
        if coord_ids != cell_ids:
            missing = [c for c in cell_ids if c not in set(coord_ids)]
            if missing:
                raise ValueError(f"coordinates missing cell ids, first: {missing[0]!r}")
            # same set, different order: align coordinates to expression order
            pos = {c: i for i, c in enumerate(coord_ids)}
            coords = coords[:, [pos[c] for c in cell_ids]]
    else:
        cell_ids = coord_ids

    batch_labels = None
    if batch_path is not None:
        mapping = load_labels(batch_path)
        missing = [c for c in cell_ids if c not in mapping]
        if missing:
            raise ValueError(f"label file {batch_path} missing cell id {missing[0]!r}")
        batch_labels = [mapping[c] for c in cell_ids]
    return ExpressionDataset(X=X, coords=coords, gene_names=gene_names,
                             cell_ids=cell_ids, batch_labels=batch_labels)


# ---------------------------------------------------------------------------
# writers (same schemas the loaders consume)
# ---------------------------------------------------------------------------

def write_table(path, header, ids, rows) -> None:
    """Write the ``header`` row, then one ``id,v1,...,vk`` row per id with the
    values at full precision; ``load_table`` reads it back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rid, row in zip(ids, rows):
            writer.writerow([rid, *(format(v, ".17g") for v in row)])


def write_labels(path, cell_ids, labels, header: str = "label") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", header])
        for cid, lab in zip(cell_ids, labels):
            writer.writerow([cid, lab])

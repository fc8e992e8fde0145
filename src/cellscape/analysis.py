"""Downstream domain analyses: transition connectivity, rank-sum marker
genes, cell-type composition, and gene-set enrichment
against user-supplied collections.

The statistical tests use numpy and the standard library alone: midranks
come from one ``np.unique`` per gene and the hypergeometric tail is summed
in exact integers. This keeps scipy's statistics subpackage, slow to import
and used by no fit, out of every process that imports cellscape.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spatial_graph import SpatialGraph


@dataclass
class TransitionGraph:
    """Coarse domain-connectivity graph (symmetric, zero diagonal, in [0, 1])."""

    domains: list
    connectivity: np.ndarray


@dataclass
class CompositionMatrix:
    """Domain x cell-type proportions with raw counts and tissue-wide totals."""

    domains: list
    types: list
    N: np.ndarray        # (D, T) counts
    P: np.ndarray        # (D, T), rows sum to 1
    P_all: np.ndarray    # (T,), sums to 1


@dataclass
class GeneRecord:
    gene: str
    statistic: float
    p_value: float
    adj_p_value: float
    log2_fold_change: float
    fraction_expressing: float


@dataclass
class EnrichmentRecord:
    set_name: str
    overlap: int
    set_size: int
    p_value: float
    adj_p_value: float


def benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up FDR adjustment; returns adjusted p-values in input order."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 1.0
    for rank_from_end, idx in enumerate(order[::-1]):
        rank = m - rank_from_end
        running = min(running, p[idx] * m / rank)
        adjusted[idx] = running
    return np.clip(adjusted, 0.0, 1.0)


# ---------------------------------------------------------------------------
# domain transition graph
# ---------------------------------------------------------------------------

def transition_graph(labels, g: SpatialGraph) -> TransitionGraph:
    """Observed/expected inter-domain edge ratio, normalized to [0, 1].

    For domains a, b the expected cross count under random edge placement is
    d_a * d_b / (2|E|) with d the summed node degrees; the ratio matrix is
    scaled by its maximum.
    """
    lab = np.asarray(labels)
    if lab.shape[0] != g.n_nodes:
        raise ValueError(f"{lab.shape[0]} labels for {g.n_nodes} graph nodes")
    domains, dense = np.unique(lab, return_inverse=True)
    D = domains.size
    conn = np.zeros((D, D))
    if D == 1 or g.n_edges == 0:
        return TransitionGraph(domains=domains.tolist(), connectivity=conn)

    deg = g.degrees().astype(np.float64)
    d_sum = np.zeros(D)
    np.add.at(d_sum, dense, deg)
    m = float(g.n_edges)
    observed = np.zeros((D, D))
    ea, eb = dense[g.edges[:, 0]], dense[g.edges[:, 1]]
    np.add.at(observed, (ea, eb), 1.0)
    observed = observed + observed.T  # symmetric cross counts

    expected = np.outer(d_sum, d_sum) / (2.0 * m)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(expected > 0, observed / expected, 0.0)
    np.fill_diagonal(ratio, 0.0)
    peak = ratio.max()
    if peak > 0:
        conn = np.clip(ratio / peak, 0.0, 1.0)
    return TransitionGraph(domains=domains.tolist(), connectivity=conn)


# ---------------------------------------------------------------------------
# marker genes
# ---------------------------------------------------------------------------

def _midranks(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of ``row`` with ties given their mean rank, and the size
    of each tie group in increasing order of value.

    One ``np.unique`` sorts the row: a value whose c copies end at sorted
    position s has rank s - (c - 1) / 2.
    """
    _, inverse, counts = np.unique(row, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse], counts


def _exact_rank_sum_two_sided(ranks: np.ndarray, n1: int, u_obs: float) -> float:
    total = lower = upper = 0
    offset = n1 * (n1 + 1) / 2.0
    for combo in itertools.combinations(range(ranks.size), n1):
        u = ranks[list(combo)].sum() - offset
        total += 1
        if u <= u_obs + 1e-12:
            lower += 1
        if u >= u_obs - 1e-12:
            upper += 1
    return min(1.0, 2.0 * min(lower / total, upper / total))


def _normal_two_sided(u: float, n1: int, n2: int, tie_term: float) -> float:
    n = n1 + n2
    mu = n1 * n2 / 2.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    diff = u - mu
    if diff != 0.0:
        diff -= 0.5 * math.copysign(1.0, diff)  # continuity correction
    z = diff / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def wilcoxon_dge(X: np.ndarray, labels, domains, gene_names=None,
                 pseudocount: float = 1e-9) -> list[list[GeneRecord]]:
    """Per-gene rank-sum test of each domain against all other cells: one
    record list per entry of ``domains``, in that order.

    Genes are ranked one at a time, and each gene's midranks
    (``_midranks``) serve every domain; their tie-group counts also give
    the tie term sum(c^3 - c). One product with the (n, 2D) indicator of
    each domain and of its complement gives every domain's rank sum,
    in- and out-group expression sums and detected-cell count. Ranks are
    half-integers, so rank sums are exact in float64 in any order. The
    p-value is exact, by enumeration, when both group sizes are at most 8,
    and otherwise the tie-corrected normal approximation with continuity
    correction. Each list is sorted by adjusted p then descending |lfc|.
    """
    X = np.asarray(X, dtype=np.float64)
    lab = np.asarray(labels)
    n = lab.shape[0]
    if n != X.shape[1]:
        raise ValueError(f"{n} labels for {X.shape[1]} cells")
    in_group = np.stack([lab == domain for domain in domains], axis=1)
    n1 = in_group.sum(axis=0)
    for domain, size in zip(domains, n1):
        if size == 0:
            raise ValueError(f"domain {domain!r} has no cells")
        if size == n:
            raise ValueError(f"domain {domain!r} covers every cell; no comparison group")
    n2 = n - n1
    n_dom = len(domains)
    indicator = np.concatenate([in_group, ~in_group], axis=1).astype(np.float64)
    offset = n1 * (n1 + 1) / 2.0
    names = gene_names if gene_names is not None else [f"g{i}" for i in range(X.shape[0])]

    shape = (n_dom, X.shape[0])
    stats, pvals, sum_in, sum_out, detected = (np.empty(shape) for _ in range(5))
    for gi, row in enumerate(X):
        ranks, counts = _midranks(row)
        tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
        totals = np.stack((ranks, row, row > 0)) @ indicator
        stats[:, gi] = totals[0, :n_dom] - offset
        sum_in[:, gi], sum_out[:, gi] = totals[1, :n_dom], totals[1, n_dom:]
        detected[:, gi] = totals[2, :n_dom]
        for di in range(n_dom):
            u = float(stats[di, gi])
            if counts.size == 1:
                pvals[di, gi] = 1.0
            elif max(n1[di], n2[di]) <= 8:
                pvals[di, gi] = _exact_rank_sum_two_sided(ranks, int(n1[di]), u)
            else:
                pvals[di, gi] = _normal_two_sided(u, int(n1[di]), int(n2[di]), tie_term)
    mean_in = np.maximum(sum_in / n1[:, None], 0.0)
    mean_out = np.maximum(sum_out / n2[:, None], 0.0)
    lfcs = np.log2((mean_in + pseudocount) / (mean_out + pseudocount))
    fracs = detected / n1[:, None]

    tables = []
    for di in range(n_dom):
        adj = benjamini_hochberg(pvals[di])
        records = [
            GeneRecord(names[gi], stats[di, gi], pvals[di, gi], adj[gi], lfcs[di, gi],
                       fracs[di, gi])
            for gi in range(X.shape[0])
        ]
        records.sort(key=lambda rec: (rec.adj_p_value, -abs(rec.log2_fold_change)))
        tables.append(records)
    return tables


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def composition(labels, type_labels) -> CompositionMatrix:
    """Domain-wise cell-type proportions P plus tissue-wide proportions P_all."""
    lab = np.asarray(labels)
    types = np.asarray(type_labels)
    if lab.shape[0] != types.shape[0]:
        raise ValueError(f"{lab.shape[0]} domain labels vs {types.shape[0]} type labels")
    domain_ids, di = np.unique(lab, return_inverse=True)
    type_ids, ti = np.unique(types, return_inverse=True)
    N = np.zeros((domain_ids.size, type_ids.size), dtype=np.int64)
    np.add.at(N, (di, ti), 1)
    row_tot = N.sum(axis=1, keepdims=True)
    P = N / row_tot
    P_all = N.sum(axis=0) / N.sum()
    return CompositionMatrix(
        domains=domain_ids.tolist(), types=type_ids.tolist(), N=N, P=P, P_all=P_all
    )


# ---------------------------------------------------------------------------
# gene-set enrichment
# ---------------------------------------------------------------------------

def _hypergeom_upper_tail(k: int, M: int, K: int, N: int) -> float:
    """P(X >= k) for X the successes in N draws without replacement from M
    items of which K are successes.

    The tail is summed in exact integers and divided once; Python rounds an
    int / int true division correctly, so the result is the exact tail
    rounded to float64, however small. At k = 0 the sum is C(M, N) itself,
    so the tail is exactly 1.0.
    """
    tail = sum(math.comb(K, i) * math.comb(M - K, N - i) for i in range(k, min(K, N) + 1))
    return tail / math.comb(M, N)


def geneset_enrichment(markers, universe, gene_sets: dict) -> list[EnrichmentRecord]:
    """One-sided hypergeometric over-representation of markers in each set.

    Sets are intersected with the universe before testing. Each p-value is
    the exact upper tail P(overlap >= k), and p-values are BH-adjusted
    across sets.
    """
    universe = set(universe)
    if not universe:
        raise ValueError("empty gene universe")
    markers = set(markers)
    stray = markers - universe
    if stray:
        raise ValueError(f"marker gene(s) outside the universe, first: {sorted(stray)[0]!r}")
    M = len(universe)
    n_draw = len(markers)
    records = []
    pvals = []
    for name, genes in gene_sets.items():
        members = set(genes) & universe
        k = len(members & markers)
        records.append((name, k, len(members)))
        pvals.append(_hypergeom_upper_tail(k, M, len(members), n_draw))
    adj = benjamini_hochberg(pvals) if pvals else np.empty(0)
    out = [
        EnrichmentRecord(name, k, size, p, a)
        for (name, k, size), p, a in zip(records, pvals, adj)
    ]
    out.sort(key=lambda rec: (rec.adj_p_value, rec.p_value, rec.set_name))
    return out


def read_gmt(path) -> dict[str, list[str]]:
    """GMT gene-set file: ``set_name<TAB>description<TAB>gene...`` per line.

    Set names must be unique: a repeated name raises rather than replacing
    the earlier set.
    """
    sets: dict[str, list[str]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 3:
                raise ValueError(f"{path}: line {lineno}: expected name, description, genes")
            if fields[0] in sets:
                raise ValueError(f"{path}: line {lineno}: gene set {fields[0]!r} "
                                 "repeats an earlier line")
            sets[fields[0]] = [g for g in fields[2:] if g]
    return sets


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def write_enrichment_table(path, records: list[EnrichmentRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["set_name", "overlap", "set_size", "p_value", "adj_p_value"])
        for rec in records:
            writer.writerow([rec.set_name, rec.overlap, rec.set_size,
                             rec.p_value, rec.adj_p_value])


def write_transition_graph(path, tg: TransitionGraph) -> None:
    with open(path, "w") as fh:
        fh.write(f"%n {len(tg.domains)}\n")
        D = len(tg.domains)
        for a in range(D):
            for b in range(a + 1, D):
                fh.write(f"{tg.domains[a]} {tg.domains[b]} "
                         f"{format(tg.connectivity[a, b], '.17g')}\n")


def write_composition(path, comp: CompositionMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", *map(str, comp.types)])
        for domain, row in zip(comp.domains, comp.P):
            writer.writerow([domain, *(format(v, ".17g") for v in row)])
        writer.writerow(["all", *(format(v, ".17g") for v in comp.P_all)])

"""The pipeline's stage functions and ``fit``, which runs them once from raw
samples to domain labels; the command-line entry points are thin wrappers
over these."""

from __future__ import annotations

import dataclasses

import numpy as np

from .cluster import DomainLabels, gmm_cluster, pca_reduce, refine_labels
from .config import PipelineConfig, model_config_from
from .dataset import ExpressionDataset
from .gene_map import GeneLayout, layout_genes
from .preprocess import (
    CoexpressionMatrix,
    combat_correct,
    log1p_transform,
    normalize_total,
    pearson_coexpression,
    select_hvg,
)
from .spatial_graph import (
    SpatialGraph,
    block_diagonal_merge,
    build_delaunay_graph,
    build_knn_graph,
    choose_graph_method,
)
from .training import EmbeddingSet, train


def preprocess_dataset(ds: ExpressionDataset,
                       cfg: PipelineConfig) -> tuple[ExpressionDataset, np.ndarray,
                                                     CoexpressionMatrix]:
    """Normalize, log-transform, subset to variable genes (selected on raw
    counts, capped at the panel size), optionally harmonize batches, and
    compute gene co-expression on the result."""
    out = normalize_total(ds, target=cfg.preprocessing.target_sum)
    out = log1p_transform(out)
    n_hvg = min(cfg.preprocessing.n_hvg, ds.n_genes)
    hvg = select_hvg(ds.X, n_top=n_hvg)
    out = out.subset_genes(hvg)
    if cfg.preprocessing.combat and out.batch_labels is not None:
        out = combat_correct(out)
    coexpr = pearson_coexpression(out)
    return out, hvg, coexpr


def build_graph(coords: np.ndarray, cfg: PipelineConfig) -> SpatialGraph:
    method = cfg.graph.method
    if method == "auto":
        method = choose_graph_method(coords)
    if method == "knn":
        return build_knn_graph(coords, k=cfg.graph.k)
    return build_delaunay_graph(coords, prune_percentile=cfg.graph.prune_percentile)


def make_layout(coexpr: CoexpressionMatrix, cfg: PipelineConfig) -> GeneLayout:
    budget = cfg.layout.swap_budget_factor * coexpr.n_genes ** 2
    return layout_genes(coexpr, seed=cfg.seed, swap_budget=budget)


def _pca_gmm(X: np.ndarray, cfg: PipelineConfig) -> DomainLabels:
    """A K-component GMM, K = ``clustering.n_domains``, on the cells x
    features ``X`` reduced by PCA to ``clustering.pca_dim`` (= K) dims. An
    ``X`` with at most K columns is clustered as it is, and so is one with
    at most K cells, which ``gmm_cluster`` rejects by name."""
    k = cfg.clustering.pca_dim
    reduced = X if min(X.shape) <= k else pca_reduce(X, k=k)
    return gmm_cluster(reduced, K=cfg.clustering.n_domains, seed=cfg.seed)


def segment_embeddings(Z_spatial: np.ndarray, coords: np.ndarray,
                       cfg: PipelineConfig,
                       sample_labels: np.ndarray | list | None = None) -> DomainLabels:
    """PCA to K = ``clustering.n_domains`` dims and a K-component GMM
    (``_pca_gmm``), then optional spatial majority-vote refinement.
    ``sample_labels`` gives each cell's sample when several samples share
    one coordinate frame; cells then vote only among neighbours from their
    own sample."""
    result = _pca_gmm(Z_spatial, cfg)
    if not cfg.clustering.refine:
        return result
    n = len(result.labels)
    samples = np.zeros(n) if sample_labels is None else np.asarray(sample_labels)
    if samples.shape != (n,):
        raise ValueError(f"sample_labels must have one entry per cell ({n})")
    labels = result.labels.copy()
    for sample in np.unique(samples):
        cells = np.flatnonzero(samples == sample)
        labels[cells] = refine_labels(result.labels[cells], coords[:, cells],
                                      r=cfg.clustering.refine_neighbors).labels
    return dataclasses.replace(result, labels=labels)


def baseline_pca_gmm(ds_raw: ExpressionDataset, cfg: PipelineConfig) -> DomainLabels:
    """Non-spatial control: the same preprocessing, then the fit's own
    readout, PCA to K dims and a K-component GMM (``_pca_gmm``), on the
    expression (no graph, no refinement)."""
    ds_pre, _, _ = preprocess_dataset(ds_raw, cfg)
    return _pca_gmm(ds_pre.X.T, cfg)  # cells x genes


@dataclasses.dataclass
class Fit:
    """One run of the pipeline, as its callers read it."""

    dataset: ExpressionDataset      # preprocessed, the samples merged
    graph: SpatialGraph             # per-sample graphs, block-diagonal
    layout: GeneLayout | None       # None with cci_only
    embeddings: EmbeddingSet
    log: list[dict]                 # one record per training epoch
    labels: DomainLabels
    samples: np.ndarray             # each cell's sample, "sample<i>"


def _merge_samples(samples: list[ExpressionDataset]) -> tuple[ExpressionDataset, np.ndarray]:
    """One dataset over every cell, plus each cell's sample. A single sample
    passes through unchanged; with several, cell ids get an ``s<i>_`` prefix
    and each cell's sample becomes its batch label."""
    if not samples:
        raise ValueError("no samples to fit")
    names = np.repeat([f"sample{i}" for i in range(len(samples))],
                      [s.n_cells for s in samples])
    if len(samples) == 1:
        return samples[0], names
    genes = samples[0].gene_names
    for idx, sample in enumerate(samples[1:], start=1):
        if sample.gene_names != genes:
            raise ValueError(f"sample {idx} gene panel differs from sample 0")
    merged = ExpressionDataset(
        X=np.hstack([s.X for s in samples]),
        coords=np.hstack([s.coords for s in samples]),
        gene_names=list(genes),
        cell_ids=[f"s{i}_{cid}" for i, s in enumerate(samples) for cid in s.cell_ids],
        batch_labels=names.tolist(),
    )
    return merged, names


def fit(samples: list[ExpressionDataset], cfg: PipelineConfig) -> Fit:
    """Raw samples to domain labels: preprocess, graph, gene layout, train,
    segment, each once. Samples may share one coordinate frame: they share no
    graph edge, and refinement votes only within a sample. With several
    samples, ComBat runs with one batch per sample whatever
    ``preprocessing.combat`` says."""
    ds, samples_of_cells = _merge_samples(samples)
    if len(samples) > 1:
        cfg = dataclasses.replace(
            cfg, preprocessing=dataclasses.replace(cfg.preprocessing, combat=True))
    pre, _, coexpr = preprocess_dataset(ds, cfg)
    graph = block_diagonal_merge([build_graph(s.coords, cfg) for s in samples])
    mcfg = model_config_from(cfg)
    layout = None if mcfg.cci_only else make_layout(coexpr, cfg)
    _, embeddings, log = train(pre, graph, layout, mcfg)
    labels = segment_embeddings(embeddings.Z_spatial, pre.coords, cfg,
                                sample_labels=samples_of_cells)
    return Fit(pre, graph, layout, embeddings, log, labels, samples_of_cells)

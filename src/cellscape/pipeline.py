"""Stage functions composing the modules into the end-to-end pipeline; the
command-line entry points and the benchmark methods are thin wrappers over
these."""

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
    build_delaunay_graph,
    build_knn_graph,
    choose_graph_method,
)
from .training import EmbeddingSet, embed, train


def preprocess_dataset(ds: ExpressionDataset,
                       cfg: PipelineConfig) -> tuple[ExpressionDataset, np.ndarray,
                                                     CoexpressionMatrix]:
    """Normalize, log-transform, subset to variable genes (selected on raw
    counts, capped at the panel size), optionally harmonize batches, and
    compute gene co-expression on the result."""
    out = normalize_total(ds, target=cfg.preprocessing.target_sum)
    out = log1p_transform(out)
    n_hvg = min(cfg.preprocessing.n_hvg, ds.n_genes)
    hvg = select_hvg(out, n_top=n_hvg)
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


def segment_embeddings(Z_spatial: np.ndarray, coords: np.ndarray,
                       cfg: PipelineConfig, seed: int | None = None,
                       sample_labels: np.ndarray | list | None = None) -> DomainLabels:
    """PCA (skipped when the embedding is already narrow), GMM, then optional
    spatial majority-vote refinement. ``sample_labels`` gives each cell's
    sample when several samples share one coordinate frame; cells then vote
    only among neighbours from their own sample."""
    seed = cfg.seed if seed is None else seed
    k = cfg.clustering.pca_dim
    reduced = Z_spatial if Z_spatial.shape[1] <= k else pca_reduce(Z_spatial, k=k)
    result = gmm_cluster(reduced, K=cfg.clustering.n_domains, seed=seed)
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


def full_run(ds_raw: ExpressionDataset, cfg: PipelineConfig,
             seed: int | None = None, graph: SpatialGraph | None = None) -> dict:
    """Dataset to domain labels in one call; returns all intermediate
    artifacts. ``graph`` overrides construction (used for merged samples)."""
    if seed is not None:
        import copy

        cfg = copy.deepcopy(cfg)
        cfg.seed = seed
    ds_pre, hvg, coexpr = preprocess_dataset(ds_raw, cfg)
    if graph is None:
        graph = build_graph(ds_pre.coords, cfg)
    mcfg = model_config_from(cfg)
    layout = None if mcfg.cci_only else make_layout(coexpr, cfg)
    model, embeddings, log = train(ds_pre, graph, layout, mcfg)
    labels = segment_embeddings(embeddings.Z_spatial, ds_pre.coords, cfg)
    return {
        "dataset": ds_pre,
        "hvg": hvg,
        "coexpression": coexpr,
        "graph": graph,
        "layout": layout,
        "model": model,
        "embeddings": embeddings,
        "log": log,
        "labels": labels,
    }


def baseline_pca_gmm(ds_raw: ExpressionDataset, cfg: PipelineConfig,
                     seed: int | None = None) -> DomainLabels:
    """Non-spatial control: the same preprocessing, then PCA on expression
    followed by GMM (no graph, no refinement)."""
    seed = cfg.seed if seed is None else seed
    ds_pre, _, _ = preprocess_dataset(ds_raw, cfg)
    X = ds_pre.X.T  # cells x genes
    k = min(cfg.clustering.pca_dim, min(X.shape) - 1)
    reduced = pca_reduce(X, k=k)
    return gmm_cluster(reduced, K=cfg.clustering.n_domains, seed=seed)


def pipeline_method(cfg: PipelineConfig):
    """Benchmark adapter for the full pipeline."""

    def run(ds, n_domains, seed):
        import copy

        local = copy.deepcopy(cfg)
        local.clustering.n_domains = n_domains
        result = full_run(ds, local, seed=seed)
        return result["labels"].labels

    return run


def baseline_method(cfg: PipelineConfig):
    """Benchmark adapter for the non-spatial PCA + GMM control."""

    def run(ds, n_domains, seed):
        import copy

        local = copy.deepcopy(cfg)
        local.clustering.n_domains = n_domains
        return baseline_pca_gmm(ds, local, seed=seed).labels

    return run


def integrate_samples(samples: list[ExpressionDataset], cfg: PipelineConfig,
                      apply_combat: bool = True) -> tuple[ExpressionDataset, SpatialGraph]:
    """Multi-sample integration: per-sample preprocessing and graphs, batch
    harmonization on the concatenated matrix, block-diagonal graph merge."""
    from .spatial_graph import block_diagonal_merge

    if not samples:
        raise ValueError("no samples to integrate")
    processed = []
    graphs = []
    shared_genes: list[str] | None = None
    for idx, sample in enumerate(samples):
        out = normalize_total(sample, target=cfg.preprocessing.target_sum)
        out = log1p_transform(out)
        processed.append(out)
        graphs.append(build_graph(sample.coords, cfg))
        if shared_genes is None:
            shared_genes = out.gene_names
        elif out.gene_names != shared_genes:
            raise ValueError(f"sample {idx} gene panel differs from sample 0")

    X = np.hstack([s.X for s in processed])
    raw = np.hstack([s.raw_counts for s in processed])
    coords = np.hstack([s.coords for s in processed])
    cell_ids = []
    batch_labels = []
    for idx, s in enumerate(processed):
        cell_ids.extend(f"s{idx}_{cid}" for cid in s.cell_ids)
        batch_labels.extend([f"sample{idx}"] * s.n_cells)
    merged = ExpressionDataset(
        X=X,
        coords=coords,
        gene_names=list(shared_genes),
        cell_ids=cell_ids,
        batch_labels=batch_labels,
        raw_counts=raw,
    )

    n_hvg = min(cfg.preprocessing.n_hvg, merged.n_genes)
    hvg = select_hvg(merged, n_top=n_hvg)
    merged = merged.subset_genes(hvg)
    if apply_combat and len(samples) > 1:
        merged = combat_correct(merged)
    return merged, block_diagonal_merge(graphs)


def integrated_run(samples: list[ExpressionDataset], cfg: PipelineConfig) -> dict:
    """Integration flow: harmonize, merge graphs, train, segment."""
    merged, graph = integrate_samples(samples, cfg)
    coexpr = pearson_coexpression(merged)
    mcfg = model_config_from(cfg)
    layout = None if mcfg.cci_only else make_layout(coexpr, cfg)
    model, embeddings, log = train(merged, graph, layout, mcfg)
    labels = segment_embeddings(embeddings.Z_spatial, merged.coords, cfg,
                                sample_labels=merged.batch_labels)
    return {
        "dataset": merged,
        "graph": graph,
        "coexpression": coexpr,
        "layout": layout,
        "model": model,
        "embeddings": embeddings,
        "log": log,
        "labels": labels,
    }

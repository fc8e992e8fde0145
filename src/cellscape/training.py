"""Training loop: masked dual-branch encode and decode, per-loss backprop,
gradient surgery, Adam with the halving schedule, and mask-free embedding
extraction by the encoders alone."""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import zero_grads
from .dataset import ExpressionDataset
from .gene_map import GeneLayout, mask_cells, render_maps
from .losses import contrastive_loss, neighbor_arrays, sce_loss
from .network import CellScapeModel, ModelConfig
from .optim import AdamState, adam_step, lr_schedule, pcgrad
from .spatial_graph import SpatialGraph

MAX_CONTRASTIVE_ANCHORS = 4096  # sampled per epoch above this many cells: bounds the loss's work


@dataclass
class EmbeddingSet:
    """Per-cell embeddings from both branches plus the fused representation."""

    Z_spatial: np.ndarray            # (n, d)
    Z_intrinsic: np.ndarray | None   # (n, d), absent in cci_only mode
    Z: np.ndarray                    # (n, d) fused, rows unit-norm


def _collect_grads(params: dict) -> dict[str, np.ndarray]:
    return {
        name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy())
        for name, p in params.items()
    }


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return float(np.sqrt(sum(float(g.ravel() @ g.ravel()) for g in grads.values())))


def train(ds: ExpressionDataset, graph: SpatialGraph, layout: GeneLayout | None,
          cfg: ModelConfig) -> tuple[CellScapeModel, EmbeddingSet, list[dict]]:
    """Fit the dual-branch model; returns (model, embeddings, per-epoch log).

    Each epoch resamples the mask, evaluates both objectives on the masked
    inputs, backpropagates them separately, merges per-parameter gradients
    with gradient surgery, and applies one scheduled Adam step. Each log
    record holds the epoch, its learning rate, both losses, its wall time
    (``epoch_s``), each loss's gradient norm over all parameters and the
    fraction of parameter tensors that PCGrad changed.
    """
    if graph.n_nodes != ds.n_cells:
        raise ValueError(f"graph has {graph.n_nodes} nodes but dataset has {ds.n_cells} cells")
    X = ds.X
    n = ds.n_cells
    features_full = np.ascontiguousarray(X.T)
    if cfg.cci_only:
        maps_full = None
        q = None
    else:
        if layout is None:
            raise ValueError("gene layout required unless cci_only")
        maps_full = render_maps(X, layout)
        q = layout.q

    model = CellScapeModel(ds.n_genes, q, cfg)
    params = model.params
    optimizer = AdamState(params, cfg.learning_rate, cfg.weight_decay)
    edges = graph.directed_edges()
    neighbors = neighbor_arrays(edges)

    log: list[dict] = []
    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        lr = lr_schedule(epoch, cfg.learning_rate)
        seq = np.random.SeedSequence([cfg.seed, epoch])
        mask_seed, surgery_seed, anchor_seed = (int(s) for s in seq.generate_state(3))

        mask = mask_cells(n, cfg.mask_ratio, mask_seed)
        feats = features_full.copy()
        feats[mask] = 0.0
        masked_maps = None
        if maps_full is not None:
            masked_maps = maps_full.copy()
            masked_maps[mask] = 0.0

        _, _, z_fused = model.encode(feats, masked_maps, edges, training=True)
        loss_recon = sce_loss(features_full, model.decode(z_fused, edges), mask, cfg.gamma)

        z_norm = ad.l2_normalize_rows(z_fused)
        anchors = None
        if n > MAX_CONTRASTIVE_ANCHORS:
            anchors = np.sort(
                np.random.default_rng(anchor_seed).choice(
                    n, size=MAX_CONTRASTIVE_ANCHORS, replace=False
                )
            )
        loss_con = contrastive_loss(z_norm, neighbors, cfg.tau, anchors=anchors)

        recon_val = loss_recon.item()
        con_val = loss_con.item()
        if not (np.isfinite(recon_val) and np.isfinite(con_val)):
            raise RuntimeError(
                f"non-finite loss at epoch {epoch}: "
                f"recon={recon_val}, contrastive={con_val}"
            )

        ad.backward(loss_recon)
        grads_recon = _collect_grads(params)
        zero_grads(params.values())
        ad.backward(loss_con)
        grads_con = _collect_grads(params)
        zero_grads(params.values())

        combined = {}
        projected = 0
        for name in params:
            tasks = [grads_recon[name].ravel(), grads_con[name].ravel()]
            adjusted = pcgrad(tasks, seed=surgery_seed)
            projected += any(not np.array_equal(a, t) for a, t in zip(adjusted, tasks))
            combined[name] = (adjusted[0] + adjusted[1]).reshape(params[name].shape)
        adam_step(optimizer, params, combined, lr=lr)

        log.append({
            "epoch": epoch, "lr": lr, "loss_recon": recon_val, "loss_contrastive": con_val,
            "epoch_s": time.perf_counter() - start,
            "grad_norm_recon": _global_norm(grads_recon),
            "grad_norm_contrastive": _global_norm(grads_con),
            "pcgrad_projected_frac": projected / len(params),
        })

    embeddings = embed(model, ds, graph, layout)
    return model, embeddings, log


def embed(model: CellScapeModel, ds: ExpressionDataset, graph: SpatialGraph,
          layout: GeneLayout | None) -> EmbeddingSet:
    """Deterministic mask-free encoder pass (normalization in eval mode); the
    decoder does not run."""
    if ds.n_genes != model.n_genes:
        raise ValueError(f"dataset has {ds.n_genes} genes, model expects {model.n_genes}")
    if graph.n_nodes != ds.n_cells:
        raise ValueError("graph size does not match dataset")
    if model.cfg.cci_only:
        maps = None
    else:
        if layout is None:
            raise ValueError("gene layout required unless cci_only")
        if layout.q != model.q:
            raise ValueError(f"layout grid {layout.q} differs from model grid {model.q}")
        maps = render_maps(ds.X, layout)
    z_spatial, z_intrinsic, z_fused = model.encode(
        np.ascontiguousarray(ds.X.T), maps, graph.directed_edges(), training=False
    )
    fused = z_fused.values
    norms = np.maximum(np.sqrt((fused * fused).sum(axis=1, keepdims=True)), 1e-12)
    return EmbeddingSet(
        Z_spatial=z_spatial.values,
        Z_intrinsic=None if z_intrinsic is None else z_intrinsic.values,
        Z=fused / norms,
    )


def write_embeddings_csv(path, Z: np.ndarray, cell_ids) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_id", *(f"dim_{i}" for i in range(Z.shape[1]))])
        for cid, row in zip(cell_ids, Z):
            writer.writerow([cid, *(format(v, ".17g") for v in row)])


def write_training_log(path, log: list[dict]) -> None:
    with open(path, "w") as fh:
        for record in log:
            fh.write(json.dumps(record) + "\n")

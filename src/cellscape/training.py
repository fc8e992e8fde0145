"""Training loop: masked dual-branch encode and decode, per-loss backprop,
gradient surgery, Adam with the halving schedule, and mask-free embedding
extraction by the encoders alone.

``train`` prepares the inputs once and runs one ``_step`` per epoch, so an
epoch's masked features and autodiff graph are freed before the next epoch's
forward. ``embed`` takes the arrays ``train`` prepared: features, maps and
directed edges."""

from __future__ import annotations

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
from .spatial_graph import DirectedEdges, SpatialGraph

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

    The inputs are prepared once: the (n, p) features, the (n, q, q) maps
    (``None`` with ``cci_only``) and the graph's directed edges. Each epoch is
    one ``_step``; ``embed`` then encodes the same arrays.
    """
    if graph.n_nodes != ds.n_cells:
        raise ValueError(f"graph has {graph.n_nodes} nodes but dataset has {ds.n_cells} cells")
    features = np.ascontiguousarray(ds.X.T)
    if cfg.cci_only:
        maps = None
        q = None
    else:
        if layout is None:
            raise ValueError("gene layout required unless cci_only")
        maps = render_maps(ds.X, layout)
        q = layout.q

    model = CellScapeModel(ds.n_genes, q, cfg)
    optimizer = AdamState(model.params, cfg.weight_decay)
    edges = graph.directed_edges()
    neighbors = neighbor_arrays(edges)
    log = [_step(model, optimizer, epoch, features, maps, edges, neighbors)
           for epoch in range(cfg.epochs)]
    return model, embed(model, features, maps, edges), log


def _step(model: CellScapeModel, optimizer: AdamState, epoch: int, features: np.ndarray,
          maps: np.ndarray | None, edges: DirectedEdges,
          neighbors: tuple[np.ndarray, np.ndarray, np.ndarray]) -> dict:
    """One epoch: resample the mask, evaluate both objectives on the masked
    inputs, backpropagate them separately, merge per-parameter gradients with
    gradient surgery, and apply one scheduled Adam step.

    Returns the epoch's log record: the epoch, its learning rate, both
    losses, its wall time (``epoch_s``), each loss's gradient norm over all
    parameters and the fraction of parameter tensors that PCGrad changed.
    The masked feature copy and the autodiff graph are locals, freed on
    return; the CNN reads the masked cells' maps as zeros, without a copy.
    """
    start = time.perf_counter()
    cfg = model.cfg
    params = model.params
    n = features.shape[0]
    lr = lr_schedule(epoch, cfg.learning_rate)
    # the middle word is unused; drawing three keeps the mask and anchor
    # seeds that every earlier seeded run used
    mask_seed, _, anchor_seed = (
        int(s) for s in np.random.SeedSequence([cfg.seed, epoch]).generate_state(3))

    mask = mask_cells(n, cfg.mask_ratio, mask_seed)
    feats = features.copy()
    feats[mask] = 0.0

    _, _, z_fused = model.encode(feats, maps, edges, training=True, masked=mask)
    loss_recon = sce_loss(features, model.decode(z_fused, edges), mask, cfg.gamma)

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
        adjusted = pcgrad(tasks)
        projected += any(not np.array_equal(a, t) for a, t in zip(adjusted, tasks))
        combined[name] = (adjusted[0] + adjusted[1]).reshape(params[name].shape)
    adam_step(optimizer, params, combined, lr=lr)

    return {
        "epoch": epoch, "lr": lr, "loss_recon": recon_val, "loss_contrastive": con_val,
        "epoch_s": time.perf_counter() - start,
        "grad_norm_recon": _global_norm(grads_recon),
        "grad_norm_contrastive": _global_norm(grads_con),
        "pcgrad_projected_frac": projected / len(params),
    }


def embed(model: CellScapeModel, features: np.ndarray, maps: np.ndarray | None,
          edges: DirectedEdges) -> EmbeddingSet:
    """Deterministic mask-free encoder pass (normalization in eval mode) over
    the (n, p) features, the (n, q, q) maps or ``None``, and the graph's
    directed edges; the decoder does not run."""
    z_spatial, z_intrinsic, z_fused = model.encode(features, maps, edges, training=False)
    return EmbeddingSet(
        Z_spatial=z_spatial.values,
        Z_intrinsic=None if z_intrinsic is None else z_intrinsic.values,
        Z=ad.l2_normalize_rows(z_fused).values,
    )


def write_training_log(path, log: list[dict]) -> None:
    with open(path, "w") as fh:
        for record in log:
            fh.write(json.dumps(record) + "\n")

"""Training loop: masked dual-branch encode and decode, gradient surgery
where the two objectives meet, one backward pass through the encoders,
Adam with the halving schedule, and mask-free embedding extraction by the
encoders alone.

``train`` prepares the inputs once and runs one ``_step`` per epoch, so an
epoch's autodiff graph is freed before the next epoch's forward. An epoch
copies no input: the encoders read the masked cells as zeros and the
decoder rebuilds only the masked rows. Between the forward and the
backward the graph holds each layer's output and what its fused op keeps:
no GAT layer's (n, heads * d) projection or pre-ELU output, and no (masked,
p) products of the reconstruction loss, which keeps per-row scalars. The
encoders' walk builds no (n, C * H' * W') gradient of the CNN's pooled
maps. Each loss backpropagates only down
to the fused embedding, the representation both objectives share, and one
loss head's graph is alive at a time: the reconstruction head's graph is
freed after its backward, before the contrastive head is built. PCGrad
(Yu et al. 2020) projects the conflict out of those two gradients, as
MGDA-UB (Sener & Koltun 2018) takes the shared representation's gradient
for the shared parameters'. The epoch's log figures (both gradient norms,
their cosine, whether PCGrad projected) are read there, and the per-loss
gradients are freed; one backward then carries their projected sum alone
through the fusion, the CNN and the GAT encoder.

``embed`` takes the arrays ``train`` prepared: features, maps and directed
edges. There is one forward pass and no train/eval switch: ``embed`` is the
training forward without a mask, so the CNN normalizes by the statistics of
exactly the cells it trained on."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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


def train(ds: ExpressionDataset, graph: SpatialGraph, layout: GeneLayout | None,
          cfg: ModelConfig) -> tuple[CellScapeModel, EmbeddingSet, list[dict]]:
    """Fit the dual-branch model; returns (model, embeddings, per-epoch log).

    The inputs are prepared once: the (n, p) features (the transposed view
    of ``ds.X``, not a copy), the (n, q, q) maps (``None`` with
    ``cci_only``) and the graph's directed edges. Each epoch is one
    ``_step``; ``embed`` then encodes the same arrays.
    """
    if graph.n_nodes != ds.n_cells:
        raise ValueError(f"graph has {graph.n_nodes} nodes but dataset has {ds.n_cells} cells")
    features = ds.X.T
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
    """One epoch: resample the mask, evaluate both objectives, merge their
    gradients at the fused embedding with gradient surgery, walk the
    encoders once with the merged gradient, then take one scheduled Adam
    step.

    ``pcgrad`` projects the two (n, d) gradients ``_loss_heads`` returns,
    flattened, and their sum seeds one backward through the fusion, the CNN
    and the GAT encoder. The log figures are read before that walk, and the
    per-loss gradients and their projections are freed, so the walk holds
    the merged gradient alone. The decoder's parameters keep the
    reconstruction gradient ``_loss_heads`` left on them. The autodiff
    graph is a local, freed on return. Neither input is copied: both
    encoders read the masked cells as zeros, and the decoder reconstructs
    the masked rows alone. A non-finite parameter gradient raises before
    ``adam_step``, so no parameter changes.

    Returns the epoch's log record: the epoch, its learning rate, both
    losses, its wall time (``epoch_s``), the norm of each loss's gradient
    at the fused embedding, their cosine and whether PCGrad projected.
    """
    start = time.perf_counter()
    cfg = model.cfg
    lr = lr_schedule(epoch, cfg.learning_rate)
    # the middle word is unused; drawing three keeps the mask and anchor
    # seeds that every earlier seeded run used
    mask_seed, _, anchor_seed = (
        int(s) for s in np.random.SeedSequence([cfg.seed, epoch]).generate_state(3))

    mask = mask_cells(features.shape[0], cfg.mask_ratio, mask_seed)
    _, _, z_fused = model.encode(features, maps, edges, masked=mask)
    recon_val, con_val, dz = _loss_heads(model, epoch, z_fused.values, features, edges,
                                         neighbors, mask, anchor_seed)
    adjusted = pcgrad(dz)
    # the log figures, from the products pcgrad takes, so a projection
    # implies a negative cosine; then both (2, n, d) per-loss gradients go,
    # and the encoders' walk holds only their merged sum
    flat = dz.reshape(2, -1)
    norm_recon, norm_con = (float(np.sqrt(g @ g)) for g in flat)
    scale = norm_recon * norm_con
    cosine = float(flat[0] @ flat[1]) / scale if scale > 0.0 else 0.0
    projected = not np.array_equal(adjusted, dz)
    merged = adjusted[0] + adjusted[1]
    del dz, flat, adjusted
    ad.backward(z_fused, merged)

    grads = {}
    for name, p in model.params.items():
        grads[name], p.grad = p.grad, None
        if not np.isfinite(grads[name]).all():
            raise RuntimeError(f"non-finite gradient at epoch {epoch}: {name}")
    adam_step(optimizer, model.params, grads, lr=lr)
    return {
        "epoch": epoch, "lr": lr, "loss_recon": recon_val, "loss_contrastive": con_val,
        "epoch_s": time.perf_counter() - start,
        "grad_norm_recon": norm_recon,
        "grad_norm_contrastive": norm_con,
        "grad_cosine": cosine,
        "pcgrad_projected": projected,
    }


def _loss_heads(model: CellScapeModel, epoch: int, z_fused: np.ndarray, features: np.ndarray,
                edges: DirectedEdges, neighbors: tuple[np.ndarray, np.ndarray, np.ndarray],
                mask: np.ndarray, anchor_seed: int) -> tuple[float, float, np.ndarray]:
    """Both losses on the (n, d) fused embedding values and their gradients
    there: ``(loss_recon, loss_contrastive, dz)`` with ``dz`` (2, n, d),
    the reconstruction loss's first.

    The losses read the embedding as a leaf, so each scalar backward stops
    there: the reconstruction loss's runs through the decoder and leaves the
    decoder's parameter gradients, the contrastive loss's runs through the
    row normalization alone. One head's graph is alive at a time: the
    reconstruction head's backward runs, and its graph is freed, before the
    contrastive head is built. A non-finite loss raises as soon as it is
    computed, before its backward, so before any parameter update.
    """
    cfg = model.cfg
    n = z_fused.shape[0]
    z = Tensor(z_fused, requires_grad=True)
    loss = sce_loss(features, model.decode(z, edges, mask), mask, cfg.gamma)
    recon_val = _finite(loss, "recon", epoch)
    ad.backward(loss)
    dz_recon, z.grad = z.grad, None
    del loss                 # the last reference to the reconstruction head's graph

    if n > MAX_CONTRASTIVE_ANCHORS:
        anchors = np.sort(np.random.default_rng(anchor_seed).choice(
            n, size=MAX_CONTRASTIVE_ANCHORS, replace=False))
    else:
        anchors = np.arange(n)
    loss = contrastive_loss(ad.l2_normalize_rows(z), neighbors, cfg.tau, anchors=anchors)
    con_val = _finite(loss, "contrastive", epoch)
    ad.backward(loss)
    return recon_val, con_val, np.stack([dz_recon, z.grad])


def _finite(loss: Tensor, name: str, epoch: int) -> float:
    """The scalar ``loss`` as a float; raises if it is not finite."""
    value = loss.item()
    if not np.isfinite(value):
        raise RuntimeError(f"non-finite loss at epoch {epoch}: {name}={value}")
    return value


def embed(model: CellScapeModel, features: np.ndarray, maps: np.ndarray | None,
          edges: DirectedEdges) -> EmbeddingSet:
    """Deterministic mask-free encoder pass over the (n, p) features, the
    (n, q, q) maps or ``None``, and the graph's directed edges; the decoder
    does not run. It is a training forward without the mask: the CNN
    normalizes by the statistics of these n cells."""
    z_spatial, z_intrinsic, z_fused = model.encode(features, maps, edges)
    return EmbeddingSet(
        Z_spatial=z_spatial.values,
        Z_intrinsic=None if z_intrinsic is None else z_intrinsic.values,
        Z=ad.l2_normalize_rows(z_fused).values,
    )


def write_training_log(path, log: list[dict]) -> None:
    with open(path, "w") as fh:
        for record in log:
            fh.write(json.dumps(record) + "\n")

"""Dual-branch network: graph-attention encoder over the cell graph, CNN
encoder over gene maps, linear fusion, and a graph-attention decoder.

Each encoder layer is one fused autodiff op that keeps for its backward
only what that backward reads: a GAT layer (``gat_attention``) projects
its input by its weight and applies the hidden layers' ELU itself, keeping
neither the projection nor the pre-ELU output, and the CNN, one block
(``conv_block``), applies the linear head itself, so its backward builds no
full gradient of the pooled maps.

Masking costs no copy of the inputs: the first GAT layer zeroes the masked
cells' rows of the (n, width) projection it computes (``gat_attention``'s
``masked``), which is what a zeroed feature row would give, and the CNN
reads their maps as zeros (``conv_block``'s ``masked``). The model is its
parameters: training and embedding run the same forward pass, and the CNN
normalizes by the statistics of the cells it encodes. The decoder attends
in the embedding space and projects onto the genes only the rows the
reconstruction loss reads, so no (n, genes) array is built in training."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .spatial_graph import DirectedEdges

ATTENTION_SLOPE = 0.2  # leaky-ReLU slope inside attention scores, as in the original GAT


@dataclass
class ModelConfig:
    gat_layers: int = 2
    attention_heads: int = 4
    hidden_dim: int = 64          # total width of hidden GAT layers (concat of heads)
    embed_dim: int = 32            # spatial, intrinsic, and fused embedding width
    cnn_channels: int = 4          # channels of the one CNN block
    gamma: float = 3.0             # reconstruction-loss exponent
    tau: float = 0.1               # contrastive temperature
    mask_ratio: float = 0.3
    epochs: int = 105
    seed: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    cci_only: bool = False

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in (0, 1)")
        for name in ("gat_layers", "attention_heads", "hidden_dim", "embed_dim", "cnn_channels"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.hidden_dim % self.attention_heads:
            raise ValueError("hidden_dim must be divisible by attention_heads")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


class CellScapeModel:
    """Parameters of the dual-branch network plus its encoder and decoder
    passes. Each parameter is drawn in float64 from the seeded stream and
    held, like every training array, in ``autodiff.DTYPE``."""

    def __init__(self, n_genes: int, q: int | None, cfg: ModelConfig):
        self.cfg = cfg
        self.q = q
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(cfg.seed)
        head_dim = cfg.hidden_dim // cfg.attention_heads

        # encoder GAT stack: hidden layers concat heads, final layer averages
        in_dim = n_genes
        for layer in range(cfg.gat_layers):
            final = layer == cfg.gat_layers - 1
            out_dim = cfg.embed_dim if final else head_dim
            width = cfg.attention_heads * out_dim
            self.params[f"encoder.{layer}.W"] = _glorot(rng, (in_dim, width), in_dim, width)
            # head by head, its centre vector and then its neighbour vector,
            # each a (d, 1) draw; column k of each (d, heads) tensor is head k
            pairs = _glorot(rng, (cfg.attention_heads, 2, out_dim), out_dim, 1).values
            for i, role in enumerate(("a_center", "a_neighbor")):
                self.params[f"encoder.{layer}.{role}"] = Tensor(pairs[:, i].T.copy(),
                                                                requires_grad=True)
            in_dim = out_dim if final else width

        if not cfg.cci_only:
            if q is None:
                raise ValueError("gene-map grid size required unless cci_only")
            if q < 4:
                raise ValueError(f"gene-map grid q={q} below the receptive-field minimum 4")
            channels = cfg.cnn_channels
            self.params["cnn.w"] = _glorot(rng, (channels, 1, 3, 3), 9, channels * 9)
            self.params["cnn.gamma"] = Tensor(np.ones(channels), requires_grad=True)
            self.params["cnn.beta"] = Tensor(np.zeros(channels), requires_grad=True)
            flat = channels * (q // 2) ** 2
            self.params["cnn.fc.w"] = _glorot(rng, (flat, cfg.embed_dim), flat, cfg.embed_dim)
            self.params["cnn.fc.b"] = Tensor(np.zeros(cfg.embed_dim), requires_grad=True)

        joint = cfg.embed_dim if cfg.cci_only else 2 * cfg.embed_dim
        self.params["fusion.W"] = _glorot(rng, (joint, cfg.embed_dim), joint, cfg.embed_dim)

        self.params["decoder.W"] = _glorot(
            rng, (cfg.embed_dim, n_genes), cfg.embed_dim, n_genes
        )
        self.params["decoder.0.a_center"] = _glorot(rng, (n_genes, 1), n_genes, 1)
        self.params["decoder.0.a_neighbor"] = _glorot(rng, (n_genes, 1), n_genes, 1)

    # -- forward pieces ---------------------------------------------------

    def encode_spatial(self, features: np.ndarray, edges: DirectedEdges,
                       masked: np.ndarray | None = None) -> Tensor:
        """GAT stack over the (n, p) features; the cells indexed by
        ``masked`` read as all-zero feature rows, because the first layer
        zeroes their rows of its projection. Each layer is one
        ``gat_attention`` op: it projects by its ``W`` and attends over the
        graph's directed edges (self-loops included) with its (d, heads)
        ``a_center`` and ``a_neighbor``, column k being head k's vector;
        hidden layers concatenate their heads and apply an ELU, the final
        layer averages them. No layer's projection or pre-ELU output is kept
        for the backward, which computes the projection again."""
        cfg = self.cfg
        h = Tensor(features)
        for layer in range(cfg.gat_layers):
            final = layer == cfg.gat_layers - 1
            h = ad.gat_attention(
                h, self.params[f"encoder.{layer}.W"], self.params[f"encoder.{layer}.a_center"],
                self.params[f"encoder.{layer}.a_neighbor"], edges, ATTENTION_SLOPE,
                average=final, masked=masked if layer == 0 else None, apply_elu=not final,
            )
        return h

    def encode_intrinsic(self, maps: np.ndarray, masked: np.ndarray | None = None) -> Tensor:
        """CNN embedding of the (n, q, q) maps; the cells indexed by
        ``masked`` read as all-zero maps. The CNN is one ``conv_block`` op,
        which applies the linear head ``cnn.fc`` too, so the backward takes
        each cell block's pooled gradient through the head where it is read
        and never builds the (n, C * q//2 * q//2) gradient of the flattened
        maps."""
        p = self.params
        return ad.conv_block(maps.reshape(maps.shape[0], 1, self.q, self.q), p["cnn.w"],
                             p["cnn.gamma"], p["cnn.beta"], p["cnn.fc.w"], p["cnn.fc.b"], masked)

    def encode(self, features: np.ndarray, maps: np.ndarray | None,
               edges: DirectedEdges, masked: np.ndarray | None = None
               ) -> tuple[Tensor, Tensor | None, Tensor]:
        """Both encoders and the fusion on (n, p) cell features and (n, q, q)
        maps: ``(z_spatial, z_intrinsic, z_fused)`` as graph-connected
        tensors, ``z_intrinsic`` None with ``cci_only``. Both encoders read
        the cells indexed by ``masked`` as all-zero features and maps; the
        arrays themselves are not copied."""
        z_spatial = self.encode_spatial(features, edges, masked)
        if self.cfg.cci_only:
            z_intrinsic = None
            joint = z_spatial
        else:
            z_intrinsic = self.encode_intrinsic(maps, masked)
            joint = ad.concat([z_spatial, z_intrinsic], axis=1)
        return z_spatial, z_intrinsic, ad.matmul(joint, self.params["fusion.W"])

    def decode(self, z: Tensor, edges: DirectedEdges, rows: np.ndarray) -> Tensor:
        """Reconstruct the (len(rows), p) expression of the cells indexed by
        ``rows`` from the (n, d) embedding ``z``.

        The decoder is one single-head GAT layer with the linear (d, p)
        weight ``W``, so it attends in the embedding space: the score
        ``a . (W^T z_i)`` equals ``(W a) . z_i`` and the aggregate
        ``sum_j alpha_ij W^T z_j`` equals ``W^T sum_j alpha_ij z_j``. Only
        the requested rows are projected onto the genes, which is exact in
        real arithmetic and holds no (n, p) array.
        """
        W = self.params["decoder.W"]
        attended = ad.gat_attention(
            z, None, ad.matmul(W, self.params["decoder.0.a_center"]),
            ad.matmul(W, self.params["decoder.0.a_neighbor"]), edges, ATTENTION_SLOPE,
            average=True,
        )
        return ad.matmul(ad.gather_rows(attended, rows), W)

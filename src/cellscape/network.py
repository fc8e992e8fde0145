"""Dual-branch network: graph-attention encoder over the cell graph, CNN
encoder over gene maps, linear fusion, and a graph-attention decoder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .spatial_graph import DirectedEdges, SpatialGraph


@dataclass
class ModelConfig:
    gat_layers: int = 2
    attention_heads: int = 4
    hidden_dim: int = 64          # total width of hidden GAT layers (concat of heads)
    embed_dim: int = 32            # spatial, intrinsic, and fused embedding width
    cnn_channels: tuple[int, ...] = (4,)
    gamma: float = 3.0             # reconstruction-loss exponent
    tau: float = 0.1               # contrastive temperature
    mask_ratio: float = 0.3
    epochs: int = 105
    seed: int = 0
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    cci_only: bool = False
    attention_slope: float = 0.2   # leaky-ReLU slope inside attention scores
    max_contrastive_anchors: int = 4096

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in (0, 1)")
        for name in ("gat_layers", "attention_heads", "hidden_dim", "embed_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        self.cnn_channels = tuple(int(c) for c in self.cnn_channels)
        if not self.cci_only and any(c <= 0 for c in self.cnn_channels):
            raise ValueError("cnn_channels must be positive")
        if self.hidden_dim % self.attention_heads:
            raise ValueError("hidden_dim must be divisible by attention_heads")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)


def gat_layer(h: Tensor, edges: DirectedEdges, W: Tensor, a_center: list[Tensor],
              a_neighbor: list[Tensor], slope: float, average: bool,
              collect_attention: list | None = None) -> Tensor:
    """One multi-head graph-attention layer: project by ``W``, then attend
    over the graph's directed edges (self-loops included), one head per
    ``a_center``/``a_neighbor`` pair. Heads are concatenated, or averaged
    when ``average`` is set (final layers)."""
    return ad.gat_attention(ad.matmul(h, W), a_center, a_neighbor, edges, slope, average,
                            collect_attention)


class CellScapeModel:
    """Parameter container plus the masked dual-branch forward pass."""

    def __init__(self, n_genes: int, q: int | None, cfg: ModelConfig):
        self.cfg = cfg
        self.n_genes = n_genes
        self.q = q
        self.params: dict[str, Tensor] = {}
        self.bn_states: dict[str, BatchNormState] = {}
        rng = np.random.default_rng(cfg.seed)
        head_dim = cfg.hidden_dim // cfg.attention_heads

        # encoder GAT stack: hidden layers concat heads, final layer averages
        in_dim = n_genes
        for layer in range(cfg.gat_layers):
            final = layer == cfg.gat_layers - 1
            out_dim = cfg.embed_dim if final else head_dim
            width = cfg.attention_heads * out_dim
            self.params[f"encoder.{layer}.W"] = _glorot(rng, (in_dim, width), in_dim, width)
            for head in range(cfg.attention_heads):
                self.params[f"encoder.{layer}.{head}.a_center"] = _glorot(
                    rng, (out_dim, 1), out_dim, 1
                )
                self.params[f"encoder.{layer}.{head}.a_neighbor"] = _glorot(
                    rng, (out_dim, 1), out_dim, 1
                )
            in_dim = out_dim if final else width

        if not cfg.cci_only:
            if q is None:
                raise ValueError("gene-map grid size required unless cci_only")
            if q < 4:
                raise ValueError(f"gene-map grid q={q} below the receptive-field minimum 4")
            side = q
            in_ch = 1
            for i, out_ch in enumerate(cfg.cnn_channels):
                self.params[f"cnn.{i}.w"] = _glorot(
                    rng, (out_ch, in_ch, 3, 3), in_ch * 9, out_ch * 9
                )
                self.params[f"cnn.{i}.gamma"] = Tensor(np.ones(out_ch), requires_grad=True)
                self.params[f"cnn.{i}.beta"] = Tensor(np.zeros(out_ch), requires_grad=True)
                self.bn_states[f"cnn.{i}"] = BatchNormState(out_ch)
                side //= 2
                in_ch = out_ch
                if side < 1:
                    raise ValueError("gene map too small for the configured CNN depth")
            flat = in_ch * side * side
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

    def encode_spatial(self, features: Tensor, edges: DirectedEdges,
                       collect_attention=None) -> Tensor:
        cfg = self.cfg
        h = features
        for layer in range(cfg.gat_layers):
            final = layer == cfg.gat_layers - 1
            h = gat_layer(
                h, edges,
                self.params[f"encoder.{layer}.W"],
                [self.params[f"encoder.{layer}.{k}.a_center"] for k in range(cfg.attention_heads)],
                [self.params[f"encoder.{layer}.{k}.a_neighbor"] for k in range(cfg.attention_heads)],
                cfg.attention_slope, average=final,
                collect_attention=collect_attention,
            )
            if not final:
                h = ad.elu(h)
        return h

    def encode_intrinsic(self, maps: np.ndarray, training: bool,
                         update_running: bool = True) -> Tensor:
        n = maps.shape[0]
        x = Tensor(maps.reshape(n, 1, self.q, self.q))
        for i in range(len(self.cfg.cnn_channels)):
            x = ad.conv_block(
                x, self.params[f"cnn.{i}.w"], self.params[f"cnn.{i}.gamma"],
                self.params[f"cnn.{i}.beta"], self.bn_states[f"cnn.{i}"], training,
                update_running, 0.01,
            )
        flat = ad.reshape(x, (n, -1))
        return ad.matmul(flat, self.params["cnn.fc.w"]) + self.params["cnn.fc.b"]

    def decode(self, z: Tensor, edges: DirectedEdges) -> Tensor:
        return gat_layer(
            z, edges,
            self.params["decoder.W"],
            [self.params["decoder.0.a_center"]],
            [self.params["decoder.0.a_neighbor"]],
            self.cfg.attention_slope, average=True,
        )

    def forward(self, features: np.ndarray, maps: np.ndarray | None,
                graph: SpatialGraph, training: bool, update_running: bool = True,
                collect_attention=None) -> dict:
        """Full pass on (n, p) cell features and (n, q, q) maps.

        Returns spatial/intrinsic/fused embeddings and the decoded
        reconstruction, all as graph-connected tensors.
        """
        n = graph.n_nodes
        if features.shape != (n, self.n_genes):
            raise ValueError(f"features shape {features.shape} != ({n}, {self.n_genes})")
        edges = graph.directed_edges()

        z_spatial = self.encode_spatial(Tensor(features), edges, collect_attention)
        if self.cfg.cci_only:
            z_intrinsic = None
            joint = z_spatial
        else:
            if maps is None:
                raise ValueError("gene maps required unless cci_only")
            z_intrinsic = self.encode_intrinsic(maps, training, update_running)
            joint = ad.concat([z_spatial, z_intrinsic], axis=1)
        z_fused = ad.matmul(joint, self.params["fusion.W"])
        x_hat = self.decode(z_fused, edges)
        return {
            "z_spatial": z_spatial,
            "z_intrinsic": z_intrinsic,
            "z_fused": z_fused,
            "x_hat": x_hat,
        }

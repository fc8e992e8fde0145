"""Pipeline configuration: YAML file with per-section defaults, validated
against the module preconditions. CLI flags override individual keys."""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml


@dataclass
class PathsConfig:
    expression: str | None = None
    coords: str | None = None
    format: str = "dense-csv"
    batch_labels: str | None = None
    type_labels: str | None = None
    truth_labels: str | None = None
    gene_sets: str | None = None
    output_dir: str = "cellscape_out"
    samples: list[dict] = field(default_factory=list)  # [{expression, coords}, ...]


@dataclass
class PreprocessingConfig:
    target_sum: float = 1e4
    n_hvg: int = 3000
    combat: bool = False


@dataclass
class GraphConfig:
    method: str = "auto"            # knn | delaunay | auto
    k: int = 6
    prune_percentile: float = 99.0  # Delaunay long-edge pruning


@dataclass
class LayoutConfig:
    swap_budget_factor: int = 20    # swap evaluations = factor * p^2


@dataclass
class ModelSection:
    gat_layers: int = 2
    attention_heads: int = 4
    hidden_dim: int = 64
    embed_dim: int = 32
    cnn_channels: list[int] = field(default_factory=lambda: [4])
    gamma: float = 3.0
    tau: float = 0.1
    mask_ratio: float = 0.3
    epochs: int = 105
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    cci_only: bool = False


@dataclass
class ClusteringConfig:
    n_domains: int = 5
    pca_dim: int = 30
    refine: bool = True
    refine_neighbors: int = 15


@dataclass
class AnalysisConfig:
    transition_source: str = "spatial"   # spatial | embedding
    embedding_knn: int = 15
    marker_adj_p: float = 0.05
    marker_min_lfc: float = 0.25
    top_markers: int = 5


@dataclass
class SimulateConfig:
    n_cells: int = 2000
    n_genes: int = 200
    n_domains: int = 5
    band_axis: str = "x"
    program_strength: float = 5.0
    noise_sd: float = 0.5


@dataclass
class PipelineConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    model: ModelSection = field(default_factory=ModelSection)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)

    def validate(self) -> None:
        if self.graph.method not in ("knn", "delaunay", "auto"):
            raise ValueError(f"graph.method must be knn|delaunay|auto, got {self.graph.method!r}")
        if self.graph.k < 1:
            raise ValueError("graph.k must be positive")
        if not 0 < self.graph.prune_percentile <= 100:
            raise ValueError("graph.prune_percentile must be in (0, 100]")
        if self.preprocessing.target_sum <= 0:
            raise ValueError("preprocessing.target_sum must be positive")
        if self.preprocessing.n_hvg < 1:
            raise ValueError("preprocessing.n_hvg must be positive")
        if not 0 < self.model.mask_ratio < 1:
            raise ValueError("model.mask_ratio must lie in (0, 1)")
        if self.clustering.n_domains < 2:
            raise ValueError("clustering.n_domains must be at least 2")
        if self.analysis.transition_source not in ("spatial", "embedding"):
            raise ValueError("analysis.transition_source must be spatial|embedding")

    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)


_SECTIONS = {
    "paths": PathsConfig,
    "preprocessing": PreprocessingConfig,
    "graph": GraphConfig,
    "layout": LayoutConfig,
    "model": ModelSection,
    "clustering": ClusteringConfig,
    "analysis": AnalysisConfig,
    "simulate": SimulateConfig,
}


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from YAML (optional), flag overrides (optional), and the
    CELLSCAPE_SEED environment variable (highest precedence for the seed)."""
    data = {}
    if path is not None:
        with open(path) as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config root must be a mapping")

    cfg = PipelineConfig()
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValueError(f"unknown config section(s): {sorted(unknown)}")
    if "seed" in data:
        cfg.seed = int(data["seed"])
    for section, cls in _SECTIONS.items():
        block = data.get(section)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ValueError(f"config section {section!r} must be a mapping")
        valid = {f.name for f in dataclasses.fields(cls)}
        bad = set(block) - valid
        if bad:
            raise ValueError(f"unknown key(s) in {section!r}: {sorted(bad)}")
        current = getattr(cfg, section)
        for key, value in block.items():
            setattr(current, key, value)

    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in dotted:
            section, key = dotted.split(".", 1)
            setattr(getattr(cfg, section), key, value)
        else:
            setattr(cfg, dotted, value)

    env_seed = os.environ.get("CELLSCAPE_SEED")
    if env_seed is not None:
        cfg.seed = int(env_seed)
    cfg.validate()
    return cfg


def model_config_from(cfg: PipelineConfig):
    from .network import ModelConfig

    m = cfg.model
    return ModelConfig(
        gat_layers=m.gat_layers,
        attention_heads=m.attention_heads,
        hidden_dim=m.hidden_dim,
        embed_dim=m.embed_dim,
        cnn_channels=tuple(m.cnn_channels),
        gamma=m.gamma,
        tau=m.tau,
        mask_ratio=m.mask_ratio,
        epochs=m.epochs,
        seed=cfg.seed,
        learning_rate=m.learning_rate,
        weight_decay=m.weight_decay,
        cci_only=m.cci_only,
    )

"""Pipeline configuration: one YAML section per stage, each section the type
its stage takes (``model`` is ``network.ModelConfig``, ``simulate`` is
``synth.SyntheticSpec``). ``load_config`` merges the YAML file, CLI flags
and ``CELLSCAPE_SEED`` and builds each section once, so every type and value
check runs at load, before any stage. The seed is set once, at the top level;
``model_config_from`` and the simulate command hand it to their section."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .dataset import FORMATS
from .network import ModelConfig
from .synth import SyntheticSpec

GRAPH_METHODS = ("knn", "delaunay", "auto")
TRANSITION_SOURCES = ("spatial", "embedding")


def _one_of(name: str, value, allowed) -> None:
    if value not in allowed:
        raise ValueError(f"{name} must be {'|'.join(allowed)}, got {value!r}")


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
    samples: list[dict] = field(default_factory=list)  # [{expression, coords[, format]}, ...]

    def __post_init__(self):
        _one_of("format", self.format, FORMATS)
        for idx, entry in enumerate(self.samples):
            name = f"samples[{idx}]"
            if not isinstance(entry, dict):
                raise ValueError(f"{name} must be a mapping {{expression, coords[, format]}}")
            unknown = set(entry) - {"expression", "coords", "format"}
            if unknown:
                raise ValueError(f"unknown key(s) in {name}: {sorted(unknown)}")
            for key in ("expression", "coords"):
                if type(entry.get(key)) is not str:
                    raise ValueError(f"{name}.{key} must be a path, got {entry.get(key)!r}")
            _one_of(f"{name}.format", entry.get("format", self.format), FORMATS)
        if self.samples and (self.expression or self.coords or self.batch_labels):
            raise ValueError("samples cannot be set together with expression, coords "
                             "or batch_labels")


@dataclass
class PreprocessingConfig:
    target_sum: float = 1e4
    n_hvg: int = 3000
    combat: bool = False

    def __post_init__(self):
        if self.target_sum <= 0:
            raise ValueError("target_sum must be positive")
        if self.n_hvg < 1:
            raise ValueError("n_hvg must be positive")


@dataclass
class GraphConfig:
    method: str = "auto"            # one of GRAPH_METHODS
    k: int = 6
    prune_percentile: float = 99.0  # Delaunay long-edge pruning

    def __post_init__(self):
        _one_of("method", self.method, GRAPH_METHODS)
        if self.k < 1:
            raise ValueError("k must be positive")
        if not 0 < self.prune_percentile <= 100:
            raise ValueError("prune_percentile must be in (0, 100]")


@dataclass
class LayoutConfig:
    swap_budget_factor: int = 20    # swap evaluations = factor * p^2

    def __post_init__(self):
        if self.swap_budget_factor < 0:
            raise ValueError("swap_budget_factor must be non-negative")


@dataclass
class ClusteringConfig:
    n_domains: int = 5
    refine: bool = True
    refine_neighbors: int = 15

    def __post_init__(self):
        if self.n_domains < 2:
            raise ValueError("n_domains must be at least 2")
        if self.refine_neighbors < 1:
            raise ValueError("refine_neighbors must be positive")

    @property
    def pca_dim(self) -> int:
        """The PCA width before the GMM: the domain count K. Not a setting;
        every domain readout (the fit and its PCA+GMM controls) reads it
        here."""
        return self.n_domains


@dataclass
class AnalysisConfig:
    transition_source: str = "spatial"   # one of TRANSITION_SOURCES
    embedding_knn: int = 15
    marker_adj_p: float = 0.05
    marker_min_lfc: float = 0.25
    top_markers: int = 5

    def __post_init__(self):
        _one_of("transition_source", self.transition_source, TRANSITION_SOURCES)
        if self.embedding_knn < 1 or self.top_markers < 0:
            raise ValueError("embedding_knn must be positive and top_markers non-negative")


@dataclass
class PipelineConfig:
    seed: int = 0
    paths: PathsConfig = field(default_factory=PathsConfig)
    preprocessing: PreprocessingConfig = field(default_factory=PreprocessingConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    simulate: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def output_dir(self) -> Path:
        return Path(self.paths.output_dir)


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
             if f.name != "seed"}


def _typed(name: str, value, default):
    """``value`` if its type is its default's: an int passes for a float (as
    a float), a list of ints for ``cnn_channels``, a string or None for an
    optional path; a bool passes only for a bool, and a float must be finite."""
    want = str if default is None else type(default)
    if want is float and type(value) is int:
        value = float(value)
    elif want is tuple and type(value) is list:
        value = tuple(value)
    ok = type(value) is want or (default is None and value is None)
    if ok and want is float:
        ok = math.isfinite(value)
    if ok and want is tuple:
        ok = all(type(v) is type(default[0]) for v in value)
    if not ok:
        what = ("a finite float" if want is float
                else f"a list of {type(default[0]).__name__}" if want is tuple else want.__name__)
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _section(name: str, cls, block: dict):
    """``cls`` built from ``block``, every key known and typed; a ``seed``
    belongs to the top level only."""
    defaults = cls()
    keys = {f.name for f in dataclasses.fields(cls)} - {"seed"}
    unknown = set(block) - keys
    if unknown:
        raise ValueError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    values = {key: _typed(f"{name}.{key}", value, getattr(defaults, key))
              for key, value in block.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build a config from YAML (optional), flag overrides (optional), and the
    CELLSCAPE_SEED environment variable (highest precedence for the seed)."""
    data = {}
    if path is not None:
        with open(path) as fh:
            try:
                data = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config root must be a mapping")
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ValueError(f"unknown config section(s): {sorted(unknown)}")

    blocks = {}
    for section in _SECTIONS:
        block = {} if data.get(section) is None else data[section]
        if not isinstance(block, dict):
            raise ValueError(f"config section {section!r} must be a mapping")
        blocks[section] = dict(block)
    seed = data.get("seed", 0)
    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in dotted:
            section, key = dotted.split(".", 1)
            blocks[section][key] = value
        else:
            seed = value

    env_seed = os.environ.get("CELLSCAPE_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValueError(f"CELLSCAPE_SEED must be an integer, got {env_seed!r}") from None
    sections = {name: _section(name, cls, blocks[name]) for name, cls in _SECTIONS.items()}
    return PipelineConfig(seed=_typed("seed", seed, 0), **sections)


def model_config_from(cfg: PipelineConfig) -> ModelConfig:
    return dataclasses.replace(cfg.model, seed=cfg.seed)

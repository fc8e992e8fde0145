"""Spatial + intrinsic representation learning for spatial transcriptomics.

The pipeline pairs a graph-attention encoder over a cell-proximity graph
with a CNN encoder over co-expression-ordered gene maps, trained by masked
reconstruction and a neighborhood contrastive objective under gradient
surgery, then segments and analyzes the resulting embeddings.
"""

from .analysis import (
    composition,
    geneset_enrichment,
    transition_graph,
    wilcoxon_dge,
)
from .cluster import DomainLabels, gmm_cluster, pca_reduce, refine_labels
from .config import PipelineConfig, load_config
from .dataset import ExpressionDataset, load_dataset
from .gene_map import GeneLayout, layout_genes, mask_cells, render_map, render_maps
from .losses import contrastive_loss, sce_loss
from .metrics import hom, nmi
from .network import CellScapeModel, ModelConfig
from .optim import AdamState, adam_step, lr_schedule, pcgrad
from .preprocess import (
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
)
from .synth import SyntheticSpec, generate_tissue
from .training import EmbeddingSet, embed, train

__version__ = "0.1.0"

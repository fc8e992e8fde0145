"""Spatial + intrinsic representation learning for spatial transcriptomics.

The pipeline pairs a graph-attention encoder over a cell-proximity graph
with a CNN encoder over co-expression-ordered gene maps, trained by masked
reconstruction and a neighborhood contrastive objective under gradient
surgery, then segments and analyzes the resulting embeddings.
"""

__version__ = "0.1.0"

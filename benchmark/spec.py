"""What the benchmark runs and what it reports: the workloads and the metric
names, units and directions. ``BENCHMARK.json`` at the repository root must
agree with this file; ``tests/test_benchmark.py`` checks that it does."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    n_cells: int
    n_genes: int
    program_strength: float
    epochs: int
    tissues: int   # fits every run makes at least; nmi is their mean
    fit_wall_s: float   # one fit's process wall time on the reference box
    why: str

    def fits(self, seconds: float) -> int:
        """How many fits a run of ``seconds`` makes: a count fixed by the
        workload and ``seconds`` alone, not by how fast the fits go, so a run
        repeats its fits (and its failures) exactly for a given seed."""
        return max(self.tissues, math.ceil(seconds / self.fit_wall_s))


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-heavy", n_cells=800, n_genes=100, program_strength=10.0, epochs=12, tissues=10,
        fit_wall_s=5.2,
        why="800 cells x 100 genes, 12 epochs: training is most of the fit, so autodiff, "
            "network and loss changes show here",
    ),
    Workload(
        "wide-panel", n_cells=1000, n_genes=256, program_strength=10.0, epochs=2, tissues=7,
        fit_wall_s=7.6,
        why="1,000 cells x 256 genes, 2 epochs: the gene-map layout is most of the fit; "
            "training changes should barely move it",
    ),
)}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "nmi": ("1", "higher"),
}

# Every public autodiff op the fit path calls, in the order the tracer wraps them.
AUTODIFF_OPS = (
    "add", "mul", "div", "power", "matmul", "transpose", "exp", "log",
    "tensor_sum", "concat", "reshape", "slice_cols", "gather_rows",
    "segment_sum", "leaky_relu", "elu", "l2_normalize_rows", "conv2d",
    "maxpool2", "batch_norm",
)
# CellScapeModel method -> the network layer it implements
NETWORK_METHODS = {
    "encode_spatial": "network.gat_encoder",
    "encode_intrinsic": "network.cnn",
    "decode": "network.gat_decoder",
}


def _per_layer() -> dict[str, tuple[str, str]]:
    m = {
        "preprocess.s": ("s", "lower"),
        "spatial_graph.s": ("s", "lower"),
        "spatial_graph.edges": ("count", "lower"),
        "gene_map.layout_s": ("s", "lower"),
        "gene_map.swap_evals": ("count", "lower"),
        "gene_map.layout_gain": ("1", "higher"),
        "gene_map.render_s": ("s", "lower"),
        "training.train_s": ("s", "lower"),
        "training.first_epoch_s": ("s", "lower"),
        "training.epoch_s": ("s", "lower"),
        "training.embed_s": ("s", "lower"),
        "training.peak_mb": ("MiB", "lower"),
        "training.attributed_frac": ("1", "higher"),
    }
    for part in NETWORK_METHODS.values():
        m[f"{part}.fwd_s"] = ("s", "lower")
        m[f"{part}.bwd_s"] = ("s", "lower")
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}.fwd_s"] = ("s", "lower")
        m[f"autodiff.{op}.bwd_s"] = ("s", "lower")
    m.update({
        "autodiff.backward_s": ("s", "lower"),
        "autodiff.ops_per_epoch": ("count", "lower"),
        "autodiff.out_bytes_per_epoch": ("B-computed", "lower"),
        "autodiff.backward.peak_mb": ("MiB", "lower"),
        "losses.sce.fwd_s": ("s", "lower"),
        "losses.sce.bwd_s": ("s", "lower"),
        "losses.contrastive.fwd_s": ("s", "lower"),
        "losses.contrastive.bwd_s": ("s", "lower"),
        "losses.contrastive.anchors": ("count", "lower"),
        "losses.contrastive.peak_mb": ("MiB", "lower"),
        "losses.neighbor_arrays_s": ("s", "lower"),
        "optim.pcgrad_s": ("s", "lower"),
        "optim.adam_s": ("s", "lower"),
        "optim.pcgrad_conflict_frac": ("1", "lower"),
        "cluster.pca_s": ("s", "lower"),
        "cluster.gmm_s": ("s", "lower"),
        "cluster.gmm_iters": ("count", "lower"),
        "cluster.refine_s": ("s", "lower"),
        "cluster.peak_mb": ("MiB", "lower"),
        "cluster.control_nmi": ("1", "higher"),
        "cluster.smoothed_control_nmi": ("1", "higher"),
        "trace.overhead_s": ("s", "lower"),
    })
    return m


PER_LAYER = _per_layer()

"""One fit of one workload tissue, in a process of its own.

    python3 benchmark/fit.py --workload NAME --seed S --index I --t0 T
                             [--trace timing|memory --spans-out PATH] [--controls]

Generates tissue ``I`` of workload seed ``S`` with ``synth.generate_tissue``,
runs the cellscape stages from raw counts to domain labels, checks each
stage's output, scores the labels with ``metrics.nmi`` and prints one JSON
record on the last line of standard output. ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports and tissue generation.

A stage that raises or whose output fails its check ends the fit; the
record then names the stage and carries ``"ok": false`` (and
``"check_failed": true`` when a check rejected the output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import tracemalloc

import numpy as np
import scipy.sparse as sp
from cellscape import cluster, metrics, pipeline, training
from cellscape.config import PipelineConfig, model_config_from
from cellscape.synth import SyntheticSpec, generate_tissue

from spec import WORKLOADS
from tracer import Tracer, memory_metrics, timing_metrics


class CheckFailed(Exception):
    """A stage returned output that breaks the stage's contract."""


class StageFailure(Exception):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"{stage}: {cause!r}")
        self.stage = stage
        self.cause = cause


# -- output checks ----------------------------------------------------------

def check_graph(graph, n_cells: int) -> None:
    if graph.n_nodes != n_cells:
        raise CheckFailed(f"graph has {graph.n_nodes} nodes for {n_cells} cells")


def check_layout(layout, n_genes: int) -> None:
    """Each gene sits on its own cell of the smallest square grid that holds
    every gene (a bijection onto the grid when p is a square)."""
    q = math.isqrt(n_genes - 1) + 1 if n_genes > 1 else 1
    pos = np.asarray(layout.positions)
    if layout.q != q or pos.shape != (n_genes, 2):
        raise CheckFailed(f"layout is {pos.shape} on q={layout.q}, want ({n_genes}, 2) on q={q}")
    if pos.min() < 0 or pos.max() >= q:
        raise CheckFailed("layout position outside the grid")
    if np.unique(pos[:, 0] * q + pos[:, 1]).size != n_genes:
        raise CheckFailed("two genes share a grid cell")


def check_training(embeddings, log: list[dict], n_cells: int, epochs: int) -> None:
    Z = embeddings.Z_spatial
    if Z.ndim != 2 or Z.shape[0] != n_cells or not np.all(np.isfinite(Z)):
        raise CheckFailed(f"Z_spatial of shape {Z.shape} is malformed or not finite")
    if len(log) != epochs:
        raise CheckFailed(f"training log has {len(log)} epochs, want {epochs}")
    for rec in log:
        if not (math.isfinite(rec["loss_recon"]) and math.isfinite(rec["loss_contrastive"])):
            raise CheckFailed(f"non-finite loss in epoch {rec['epoch']}")


def check_labels(domains, n_cells: int, n_domains: int) -> None:
    labels = np.asarray(domains.labels)
    if labels.shape != (n_cells,):
        raise CheckFailed(f"{labels.shape} labels for {n_cells} cells")
    if not np.issubdtype(labels.dtype, np.integer) or labels.min() < 0 or labels.max() >= n_domains:
        raise CheckFailed(f"labels outside [0, {n_domains})")


# -- inputs and the fit -------------------------------------------------------

def tissue_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_inputs(workload, seed: int, index: int):
    """Tissue, truth and configs for tissue ``index`` of workload seed ``seed``."""
    t_seed = tissue_seed(seed, index)
    ds, truth = generate_tissue(SyntheticSpec(
        n_cells=workload.n_cells, n_genes=workload.n_genes,
        program_strength=workload.program_strength, seed=t_seed,
    ))
    cfg = PipelineConfig(seed=t_seed)
    cfg.model.epochs = workload.epochs
    return ds, truth, cfg, model_config_from(cfg)


class Untraced:
    """Stand-in for the tracer in measured fits: calls straight through."""

    def call(self, name, fn, /, *args, layer=None):
        return fn(*args)

    def note(self, key, value) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


def run_fit(ds, cfg, mcfg, tracer) -> dict:
    """Raw ``ExpressionDataset`` to ``DomainLabels`` through the pipeline
    stages; returns the artifacts plus per-stage seconds (checks excluded)."""
    stage_s: dict[str, float] = {}

    def stage(name, fn, *args, check=None, layer=None):
        try:
            t = time.perf_counter()
            out = tracer.call(f"stage.{name}", fn, *args, layer=layer)
            stage_s[name] = time.perf_counter() - t
            if check is not None:
                check(out)
        except Exception as exc:
            raise StageFailure(name, exc) from exc
        return out

    n = ds.n_cells
    pre, _, coexpr = stage("preprocess", pipeline.preprocess_dataset, ds, cfg)
    graph = stage("graph", pipeline.build_graph, pre.coords, cfg,
                  check=lambda g: check_graph(g, n))
    tracer.note("graph_edges", graph.n_edges)
    layout = stage("layout", pipeline.make_layout, coexpr, cfg,
                   check=lambda lay: check_layout(lay, pre.n_genes))
    _, embeddings, _ = stage("train", training.train, pre, graph, layout, mcfg, layer="training",
                             check=lambda out: check_training(out[1], out[2], n, mcfg.epochs))
    labels = stage("segment", pipeline.segment_embeddings, embeddings.Z_spatial, pre.coords, cfg,
                   check=lambda d: check_labels(d, n, cfg.clustering.n_domains))
    return {"preprocessed": pre, "graph": graph, "labels": labels, "stage_s": stage_s}


def control_nmis(ds, truth, cfg, pre, graph) -> tuple[float, float]:
    """NMI of the two non-spatial-model controls: PCA+GMM on expression, and
    the same after a one-hop neighbour mean over the workload's graph."""
    base = pipeline.baseline_pca_gmm(ds, cfg)
    X = pre.X.T  # cells x genes
    n = X.shape[0]
    i, j = graph.edges[:, 0], graph.edges[:, 1]
    adj = sp.coo_matrix((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])), shape=(n, n))
    closed = (adj + sp.identity(n)).tocsr()
    smoothed = (closed @ X) / np.asarray(closed.sum(axis=1))
    k = min(cfg.clustering.pca_dim, min(X.shape) - 1)
    smooth = cluster.gmm_cluster(cluster.pca_reduce(smoothed, k=k),
                                 K=cfg.clustering.n_domains, seed=cfg.seed)
    return metrics.nmi(truth.labels, base.labels), metrics.nmi(truth.labels, smooth.labels)


def labels_digest(labels) -> str:
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", choices=("timing", "memory"))
    parser.add_argument("--spans-out")
    parser.add_argument("--controls", action="store_true")
    args = parser.parse_args(argv)

    record: dict = {"index": args.index, "trace": args.trace, "ok": False, "stage": "setup"}
    try:
        ds, truth, cfg, mcfg = make_inputs(WORKLOADS[args.workload], args.seed, args.index)
    except Exception as exc:
        record["error"] = repr(exc)
        print(json.dumps(record))
        return 0
    record["setup_s"] = time.monotonic() - args.t0
    record["tissue_seed"] = cfg.seed

    if args.trace is None:
        tracer = Untraced()
    else:
        tracer = Tracer(memory=args.trace == "memory")
        if tracer.memory:
            tracemalloc.start()
    try:
        with tracer:
            out = run_fit(ds, cfg, mcfg, tracer)
    except StageFailure as failure:
        record.update(stage=failure.stage, error=repr(failure.cause),
                      check_failed=isinstance(failure.cause, CheckFailed))
        print(json.dumps(record))
        return 0
    labels = out["labels"].labels
    record.update(
        ok=True, stage=None,
        fit_s=sum(out["stage_s"].values()),
        stage_s=out["stage_s"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        nmi=metrics.nmi(truth.labels, labels),
        labels_sha256=labels_digest(labels),
    )

    if args.trace is not None:
        record["per_layer"] = memory_metrics(tracer) if tracer.memory else timing_metrics(tracer)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.to_json(), fh)
    if args.controls:
        try:
            record["control_nmi"], record["smoothed_control_nmi"] = control_nmis(
                ds, truth, cfg, out["preprocessed"], out["graph"])
        except Exception as exc:
            record.update(ok=False, stage="controls", error=repr(exc))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

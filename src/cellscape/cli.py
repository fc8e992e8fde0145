"""Command-line entry point.

Subcommands: preprocess, graph, train, segment, evaluate, analyze, integrate,
simulate. All read one YAML config (``--config``) with flag overrides;
``CELLSCAPE_SEED`` overrides the configured seed. Exit codes: 0 success,
1 usage or configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .analysis import (
    composition,
    geneset_enrichment,
    read_gmt,
    transition_graph,
    wilcoxon_dge,
    write_composition,
    write_enrichment_table,
    write_transition_graph,
)
from .config import PipelineConfig, load_config
from .dataset import (
    load_coords,
    load_dataset,
    load_dense_matrix,
    load_labels,
    write_coords,
    write_dense_matrix,
    write_gene_list,
    write_labels,
)
from .metrics import hom, nmi
from .spatial_graph import build_knn_graph, read_edge_list, write_edge_list
from .synth import generate_tissue
from .training import write_embeddings_csv, write_training_log

_DEFAULTS = PipelineConfig()


def _require(path_value, what: str) -> Path:
    if not path_value:
        raise ValueError(f"config is missing required path: {what}")
    path = Path(path_value)
    if not path.exists():
        raise ValueError(f"{what} file not found: {path}")
    return path


def _load_input_dataset(cfg: PipelineConfig):
    expr = _require(cfg.paths.expression, "paths.expression")
    coords = _require(cfg.paths.coords, "paths.coords")
    return load_dataset(
        expr,
        coords,
        format=cfg.paths.format,
        batch_path=cfg.paths.batch_labels or None,
        types_path=cfg.paths.type_labels or None,
    )


def _outdir(cfg: PipelineConfig) -> Path:
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_artifact(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ValueError(f"missing upstream artifact: {path} (run `cellscape {hint}` first)")
    return path


def _read_embeddings(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, rows = [], []
        for line in reader:
            ids.append(line[0])
            rows.append([float(v) for v in line[1:]])
    return ids, np.array(rows)


def _read_label_csv(path: Path) -> tuple[list[str], list[str]]:
    mapping = load_labels(path)
    return list(mapping.keys()), list(mapping.values())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(cfg: PipelineConfig, args) -> int:
    ds = _load_input_dataset(cfg)
    out = _outdir(cfg)
    ds_pre, hvg, coexpr = pipeline.preprocess_dataset(ds, cfg)
    write_dense_matrix(out / "preprocessed_expression.csv", ds_pre.X,
                       ds_pre.gene_names, ds_pre.cell_ids)
    write_gene_list(out / "hvg_genes.txt", ds_pre.gene_names)
    write_dense_matrix(out / "coexpression.csv", coexpr.C,
                       ds_pre.gene_names, ds_pre.gene_names)
    print(f"wrote {out / 'preprocessed_expression.csv'}")
    print(f"wrote {out / 'hvg_genes.txt'} ({len(hvg)} genes)")
    print(f"wrote {out / 'coexpression.csv'}")
    return 0


def cmd_graph(cfg: PipelineConfig, args) -> int:
    ds = _load_input_dataset(cfg)
    out = _outdir(cfg)
    graph = pipeline.build_graph(ds.coords, cfg)
    write_edge_list(out / "graph.txt", graph)
    print(f"wrote {out / 'graph.txt'} ({graph.n_nodes} nodes, {graph.n_edges} edges)")
    return 0


def _write_fit(out: Path, result: pipeline.Fit) -> None:
    """The artifacts of one fit, each reported as it is written; ``segment``
    and ``analyze`` read them back."""
    ds, emb = result.dataset, result.embeddings
    ids = ds.cell_ids

    def write(name: str, writer, *args, **kwargs) -> None:
        writer(out / name, *args, **kwargs)
        print(f"wrote {out / name}")

    write("preprocessed_expression.csv", write_dense_matrix, ds.X, ds.gene_names, ids)
    write("graph.txt", write_edge_list, result.graph)
    write("embeddings_spatial.csv", write_embeddings_csv, emb.Z_spatial, ids)
    if emb.Z_intrinsic is not None:
        write("embeddings_intrinsic.csv", write_embeddings_csv, emb.Z_intrinsic, ids)
    write("embeddings_fused.csv", write_embeddings_csv, emb.Z, ids)
    write("training_log.jsonl", write_training_log, result.log)
    write("cells.csv", write_coords, ds.coords, ids)
    write("samples.csv", write_labels, ids, result.samples.tolist(), header="sample")
    write("labels.csv", write_labels, ids, result.labels.labels.tolist(), header="domain")


def cmd_train(cfg: PipelineConfig, args) -> int:
    ds = _load_input_dataset(cfg)
    _write_fit(_outdir(cfg), pipeline.fit([ds], cfg))
    return 0


def cmd_segment(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    ids, Z = _read_embeddings(_read_artifact(out / "embeddings_spatial.csv", "train"))
    coords, coord_ids = load_coords(_read_artifact(out / "cells.csv", "train"))
    sample_ids, samples = _read_label_csv(_read_artifact(out / "samples.csv", "train"))
    if coord_ids != ids or sample_ids != ids:
        raise ValueError("embeddings, coordinates and samples disagree on cell ids")
    labels = pipeline.segment_embeddings(Z, coords, cfg, sample_labels=samples)
    write_labels(out / "labels.csv", ids, labels.labels.tolist(), header="domain")
    print(f"wrote {out / 'labels.csv'} ({labels.n_domains} domains)")
    return 0


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    labels_path = _read_artifact(out / "labels.csv", "segment")
    truth_path = _require(cfg.paths.truth_labels, "paths.truth_labels")
    pred_ids, pred = _read_label_csv(labels_path)
    truth_map = load_labels(truth_path)
    missing = [c for c in pred_ids if c not in truth_map]
    if missing:
        raise ValueError(f"truth labels missing cell id {missing[0]!r}")
    truth = [truth_map[c] for c in pred_ids]
    if len(truth) != len(pred):
        raise ValueError(f"{len(pred)} predictions vs {len(truth)} truth labels")
    metrics = {"nmi": nmi(truth, pred), "hom": hom(truth, pred)}
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(f"wrote {out / 'metrics.json'}: nmi={metrics['nmi']:.4f} hom={metrics['hom']:.4f}")
    return 0


def cmd_analyze(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    labels_path = _read_artifact(out / "labels.csv", "segment")
    expr_path = _read_artifact(out / "preprocessed_expression.csv", "train")
    ids, domains = _read_label_csv(labels_path)
    X, gene_names, cell_ids = load_dense_matrix(expr_path)
    if cell_ids != ids:
        raise ValueError("labels and expression artifacts disagree on cell ids")
    domain_arr = np.asarray(domains)

    if cfg.analysis.transition_source == "embedding":
        emb_path = _read_artifact(out / "embeddings_spatial.csv", "train")
        _, Z = _read_embeddings(emb_path)
        graph = build_knn_graph(Z.T, k=min(cfg.analysis.embedding_knn, len(ids) - 1))
    else:
        graph = read_edge_list(_read_artifact(out / "graph.txt", "train"))
    tg = transition_graph(domain_arr, graph)
    write_transition_graph(out / "transition.txt", tg)
    print(f"wrote {out / 'transition.txt'}")

    all_markers: list[str] = []
    with open(out / "markers.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "gene", "statistic", "p_value", "adj_p_value",
                        "log2_fold_change", "fraction_expressing"])
        domain_ids = sorted(set(domains))
        tables = wilcoxon_dge(X, domain_arr, domain_ids, gene_names=gene_names)
        for domain, records in zip(domain_ids, tables):
            kept = [
                r for r in records
                if r.adj_p_value < cfg.analysis.marker_adj_p
                and r.log2_fold_change > cfg.analysis.marker_min_lfc
            ][: cfg.analysis.top_markers]
            for rec in kept:
                writer.writerow([domain, rec.gene, rec.statistic, rec.p_value,
                                rec.adj_p_value, rec.log2_fold_change,
                                rec.fraction_expressing])
                all_markers.append(rec.gene)
    print(f"wrote {out / 'markers.csv'}")

    if cfg.paths.type_labels:
        type_map = load_labels(_require(cfg.paths.type_labels, "paths.type_labels"))
        types = [type_map.get(c, "unknown") for c in ids]
        comp = composition(domain_arr, np.asarray(types))
        write_composition(out / "composition.csv", comp)
        print(f"wrote {out / 'composition.csv'}")

    if cfg.paths.gene_sets:
        sets = read_gmt(_require(cfg.paths.gene_sets, "paths.gene_sets"))
        markers = sorted(set(all_markers))
        if markers:
            records = geneset_enrichment(markers, gene_names, sets)
            write_enrichment_table(out / "enrichment.csv", records)
            print(f"wrote {out / 'enrichment.csv'}")
        else:
            print("no markers passed the filters; enrichment skipped")
    return 0


def cmd_integrate(cfg: PipelineConfig, args) -> int:
    if not cfg.paths.samples:
        raise ValueError("config is missing paths.samples (list of {expression, coords})")
    samples = []
    for idx, entry in enumerate(cfg.paths.samples):
        expr = _require(entry.get("expression"), f"paths.samples[{idx}].expression")
        coords = _require(entry.get("coords"), f"paths.samples[{idx}].coords")
        samples.append(
            load_dataset(expr, coords, format=entry.get("format", cfg.paths.format))
        )
    _write_fit(_outdir(cfg), pipeline.fit(samples, cfg))
    return 0


def cmd_simulate(cfg: PipelineConfig, args) -> int:
    out = _outdir(cfg)
    ds, truth = generate_tissue(dataclasses.replace(cfg.simulate, seed=cfg.seed))
    write_dense_matrix(out / "expression.csv", ds.X, ds.gene_names, ds.cell_ids)
    write_coords(out / "coords.csv", ds.coords, ds.cell_ids)
    write_labels(out / "truth_labels.csv", ds.cell_ids, truth.labels.tolist(),
                 header="domain")
    for name in ("expression.csv", "coords.csv", "truth_labels.csv"):
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="YAML pipeline config file")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"random seed (default: {_DEFAULTS.seed})")
    sub.add_argument("--output-dir", default=None,
                     help=f"artifact directory (default: {_DEFAULTS.paths.output_dir})")
    sub.add_argument("--expression", default=None, help="expression matrix path")
    sub.add_argument("--coords", default=None, help="coordinates CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellscape",
        description="Spatial + intrinsic representation learning pipeline "
                    "for spatial transcriptomics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    d = _DEFAULTS

    p = sub.add_parser("preprocess", help="normalize, select variable genes, correlate")
    _add_common(p)
    p.add_argument("--format", default=None, choices=["dense-csv", "sparse-triplet"],
                   help=f"expression file format (default: {d.paths.format})")
    p.add_argument("--target-sum", type=float, default=None,
                   help=f"per-cell total after normalization (default: {d.preprocessing.target_sum})")
    p.add_argument("--n-hvg", type=int, default=None,
                   help=f"variable genes to keep (default: {d.preprocessing.n_hvg})")
    p.add_argument("--combat", action="store_true", default=None,
                   help="apply batch harmonization (default: off)")

    p = sub.add_parser("graph", help="build the spatial cell graph")
    _add_common(p)
    p.add_argument("--method", default=None, choices=["knn", "delaunay", "auto"],
                   help=f"construction method (default: {d.graph.method})")
    p.add_argument("--k", type=int, default=None,
                   help=f"neighbors for knn (default: {d.graph.k})")
    p.add_argument("--prune-percentile", type=float, default=None,
                   help=f"Delaunay long-edge cutoff (default: {d.graph.prune_percentile})")

    p = sub.add_parser("train", help="train the model, write embeddings and domains")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None,
                   help=f"training epochs (default: {d.model.epochs})")
    p.add_argument("--cci-only", action="store_true", default=None,
                   help="spatial-only variant, skips the gene-map branch (default: off)")
    p.add_argument("--mask-ratio", type=float, default=None,
                   help=f"masked cell fraction (default: {d.model.mask_ratio})")
    p.add_argument("--tau", type=float, default=None,
                   help=f"contrastive temperature (default: {d.model.tau})")
    p.add_argument("--gamma", type=float, default=None,
                   help=f"reconstruction exponent (default: {d.model.gamma})")

    p = sub.add_parser("segment", help="cluster spatial embeddings into domains")
    _add_common(p)
    p.add_argument("--n-domains", type=int, default=None,
                   help=f"mixture components K (default: {d.clustering.n_domains})")
    p.add_argument("--pca-dim", type=int, default=None,
                   help=f"PCA dimensions before clustering (default: {d.clustering.pca_dim})")
    p.add_argument("--no-refine", action="store_true", default=None,
                   help="skip majority-vote refinement (default: refinement on)")
    p.add_argument("--refine-neighbors", type=int, default=None,
                   help=f"voters per cell (default: {d.clustering.refine_neighbors})")

    p = sub.add_parser("evaluate", help="score labels against truth annotations")
    _add_common(p)
    p.add_argument("--truth-labels", default=None, help="truth labels CSV path")

    p = sub.add_parser("analyze", help="markers, transitions, composition, enrichment")
    _add_common(p)
    p.add_argument("--gene-sets", default=None, help="GMT gene-set file")
    p.add_argument("--type-labels", default=None, help="cell-type labels CSV")
    p.add_argument("--transition-source", default=None, choices=["spatial", "embedding"],
                   help=f"graph for domain transitions (default: {d.analysis.transition_source})")

    p = sub.add_parser("integrate", help="multi-sample harmonization + joint training")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None,
                   help=f"training epochs (default: {d.model.epochs})")
    p.add_argument("--n-domains", type=int, default=None,
                   help=f"mixture components K (default: {d.clustering.n_domains})")

    p = sub.add_parser("simulate", help="generate a banded synthetic tissue")
    _add_common(p)
    p.add_argument("--n-cells", type=int, default=None,
                   help=f"cells to generate (default: {d.simulate.n_cells})")
    p.add_argument("--n-genes", type=int, default=None,
                   help=f"genes to generate (default: {d.simulate.n_genes})")
    p.add_argument("--n-domains", type=int, default=None,
                   help=f"bands (default: {d.simulate.n_domains})")
    p.add_argument("--program-strength", type=float, default=None,
                   help=f"domain program boost (default: {d.simulate.program_strength})")
    p.add_argument("--noise-sd", type=float, default=None,
                   help=f"additive noise sd (default: {d.simulate.noise_sd})")

    return parser


_OVERRIDE_KEYS = {
    "seed": "seed",
    "output_dir": "paths.output_dir",
    "expression": "paths.expression",
    "coords": "paths.coords",
    "format": "paths.format",
    "truth_labels": "paths.truth_labels",
    "gene_sets": "paths.gene_sets",
    "type_labels": "paths.type_labels",
    "target_sum": "preprocessing.target_sum",
    "n_hvg": "preprocessing.n_hvg",
    "combat": "preprocessing.combat",
    "method": "graph.method",
    "k": "graph.k",
    "prune_percentile": "graph.prune_percentile",
    "epochs": "model.epochs",
    "cci_only": "model.cci_only",
    "mask_ratio": "model.mask_ratio",
    "tau": "model.tau",
    "gamma": "model.gamma",
    "n_domains": "clustering.n_domains",  # simulate.n_domains for simulate
    "pca_dim": "clustering.pca_dim",
    "refine_neighbors": "clustering.refine_neighbors",
    "transition_source": "analysis.transition_source",
    "n_cells": "simulate.n_cells",
    "n_genes": "simulate.n_genes",
    "program_strength": "simulate.program_strength",
    "noise_sd": "simulate.noise_sd",
}

COMMANDS = {
    "preprocess": cmd_preprocess,
    "graph": cmd_graph,
    "train": cmd_train,
    "segment": cmd_segment,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "integrate": cmd_integrate,
    "simulate": cmd_simulate,
}


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    for attr, dotted in _OVERRIDE_KEYS.items():
        if not hasattr(args, attr):
            continue
        value = getattr(args, attr)
        if value is None:
            continue
        if attr == "n_domains" and args.command == "simulate":
            dotted = "simulate.n_domains"
        overrides[dotted] = value
    if getattr(args, "no_refine", None):
        overrides["clustering.refine"] = False
    return overrides


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, overrides=_collect_overrides(args))
        return COMMANDS[args.command](cfg, args)
    except (ValueError, FileNotFoundError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

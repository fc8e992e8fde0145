"""Command-line entry point.

Subcommands: preprocess, graph, train, segment, evaluate, analyze, simulate.
All read one YAML config (``--config``) with flag overrides, each flag
setting the config key that is its argparse dest; ``CELLSCAPE_SEED``
overrides the configured seed. Only ``preprocess``, ``graph`` and ``train``
read input data. ``preprocess`` and ``train`` take ``--expression``,
``--coords`` and ``--format``; ``graph`` reads the coordinate file alone,
so it takes only ``--coords``, and node i of its graph is row i of that
file. ``segment``, ``evaluate`` and ``analyze`` read the artifacts of
``train`` in the output directory, and ``simulate`` writes a tissue there.
``train`` fits every entry of ``paths.samples`` jointly when that list is
set, and otherwise the one sample of ``paths.expression`` and
``paths.coords``. Exit codes: 0 success, 1 usage or configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from functools import reduce
from pathlib import Path

import numpy as np

from . import pipeline
from .analysis import (
    composition,
    geneset_enrichment,
    read_gmt,
    transition_graph,
    wilcoxon_dge,
    write_enrichment_table,
    write_transition_graph,
)
from .config import GRAPH_METHODS, TRANSITION_SOURCES, PipelineConfig, load_config
from .dataset import (
    FORMATS,
    load_coords,
    load_dataset,
    load_labels,
    load_table,
    write_gene_list,
    write_labels,
    write_table,
)
from .metrics import hom, nmi
from .spatial_graph import build_knn_graph, read_edge_list, write_edge_list
from .synth import generate_tissue
from .training import write_training_log

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
    return load_dataset(expr, coords, format=cfg.paths.format,
                        batch_path=cfg.paths.batch_labels or None)


def _outdir(cfg: PipelineConfig) -> Path:
    out = cfg.output_dir()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_artifact(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ValueError(f"missing upstream artifact: {path} (run `cellscape {hint}` first)")
    return path


def _read_label_csv(path: Path) -> tuple[list[str], list[str]]:
    mapping = load_labels(path)
    return list(mapping.keys()), list(mapping.values())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_preprocess(cfg: PipelineConfig) -> int:
    ds = _load_input_dataset(cfg)
    out = _outdir(cfg)
    ds_pre, hvg, coexpr = pipeline.preprocess_dataset(ds, cfg)
    genes = ds_pre.gene_names
    write_table(out / "preprocessed_expression.csv", ["gene_id", *ds_pre.cell_ids], genes,
                ds_pre.X)
    write_gene_list(out / "hvg_genes.txt", genes)
    write_table(out / "coexpression.csv", ["gene_id", *genes], genes, coexpr.C)
    print(f"wrote {out / 'preprocessed_expression.csv'}")
    print(f"wrote {out / 'hvg_genes.txt'} ({len(hvg)} genes)")
    print(f"wrote {out / 'coexpression.csv'}")
    return 0


def cmd_graph(cfg: PipelineConfig) -> int:
    coords, _ = load_coords(_require(cfg.paths.coords, "paths.coords"))
    out = _outdir(cfg)
    graph = pipeline.build_graph(coords, cfg)
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

    write("preprocessed_expression.csv", write_table, ["gene_id", *ids], ds.gene_names, ds.X)
    write("graph.txt", write_edge_list, result.graph)
    for branch, Z in (("spatial", emb.Z_spatial), ("intrinsic", emb.Z_intrinsic),
                      ("fused", emb.Z)):
        if Z is not None:  # no intrinsic branch with cci_only
            write(f"embeddings_{branch}.csv", write_table,
                  ["cell_id", *(f"dim_{i}" for i in range(Z.shape[1]))], ids, Z)
    write("training_log.jsonl", write_training_log, result.log)
    write("cells.csv", write_table, ["cell_id", "x", "y"], ids, ds.coords.T)
    write("samples.csv", write_labels, ids, result.samples.tolist(), header="sample")
    write("labels.csv", write_labels, ids, result.labels.labels.tolist(), header="domain")


def cmd_train(cfg: PipelineConfig) -> int:
    """Fit the samples of ``paths.samples`` jointly when that list is set,
    else the one sample of ``paths.expression`` and ``paths.coords``."""
    samples = [
        load_dataset(_require(entry["expression"], f"paths.samples[{idx}].expression"),
                     _require(entry["coords"], f"paths.samples[{idx}].coords"),
                     format=entry.get("format", cfg.paths.format))
        for idx, entry in enumerate(cfg.paths.samples)
    ] or [_load_input_dataset(cfg)]
    _write_fit(_outdir(cfg), pipeline.fit(samples, cfg))
    return 0


def cmd_segment(cfg: PipelineConfig) -> int:
    out = _outdir(cfg)
    Z, ids, _ = load_table(_read_artifact(out / "embeddings_spatial.csv", "train"))
    coords, coord_ids = load_coords(_read_artifact(out / "cells.csv", "train"))
    sample_ids, samples = _read_label_csv(_read_artifact(out / "samples.csv", "train"))
    if coord_ids != ids or sample_ids != ids:
        raise ValueError("embeddings, coordinates and samples disagree on cell ids")
    labels = pipeline.segment_embeddings(Z, coords, cfg, sample_labels=samples)
    write_labels(out / "labels.csv", ids, labels.labels.tolist(), header="domain")
    print(f"wrote {out / 'labels.csv'} ({labels.n_domains} domains)")
    return 0


def cmd_evaluate(cfg: PipelineConfig) -> int:
    out = _outdir(cfg)
    labels_path = _read_artifact(out / "labels.csv", "segment")
    truth_path = _require(cfg.paths.truth_labels, "paths.truth_labels")
    pred_ids, pred = _read_label_csv(labels_path)
    truth_map = load_labels(truth_path)
    missing = [c for c in pred_ids if c not in truth_map]
    if missing:
        raise ValueError(f"truth labels missing cell id {missing[0]!r}")
    truth = [truth_map[c] for c in pred_ids]
    metrics = {"nmi": nmi(truth, pred), "hom": hom(truth, pred)}
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(f"wrote {out / 'metrics.json'}: nmi={metrics['nmi']:.4f} hom={metrics['hom']:.4f}")
    return 0


def cmd_analyze(cfg: PipelineConfig) -> int:
    out = _outdir(cfg)
    labels_path = _read_artifact(out / "labels.csv", "segment")
    expr_path = _read_artifact(out / "preprocessed_expression.csv", "train")
    ids, domains = _read_label_csv(labels_path)
    X, gene_names, cell_ids = load_table(expr_path)
    if cell_ids != ids:
        raise ValueError("labels and expression artifacts disagree on cell ids")
    domain_arr = np.asarray(domains)

    if cfg.analysis.transition_source == "embedding":
        emb_path = _read_artifact(out / "embeddings_spatial.csv", "train")
        Z, _, _ = load_table(emb_path)
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
        write_table(out / "composition.csv", ["domain", *comp.types],
                    [*comp.domains, "all"], [*comp.P, comp.P_all])
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


def cmd_simulate(cfg: PipelineConfig) -> int:
    out = _outdir(cfg)
    ds, truth = generate_tissue(dataclasses.replace(cfg.simulate, seed=cfg.seed))
    write_table(out / "expression.csv", ["gene_id", *ds.cell_ids], ds.gene_names, ds.X)
    write_table(out / "coords.csv", ["cell_id", "x", "y"], ds.cell_ids, ds.coords.T)
    write_labels(out / "truth_labels.csv", ds.cell_ids, truth.labels.tolist(),
                 header="domain")
    for name in ("expression.csv", "coords.csv", "truth_labels.csv"):
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _flag(p: argparse.ArgumentParser, flag: str, key: str, help: str, **kw) -> None:
    """``flag`` sets the config value ``key``, which is also its dest; its
    type and the default its help shows come from ``PipelineConfig()``."""
    default = reduce(getattr, key.split("."), _DEFAULTS)
    if isinstance(default, bool):
        help += f" ({key}, default: {'on' if default else 'off'})"
    else:
        kw.update(type=str if default is None else type(default),
                  metavar=flag[2:].replace("-", "_").upper())
        help += f" ({key})" if default is None else f" ({key}, default: {default})"
    p.add_argument(flag, dest=key, default=None, help=help, **kw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellscape",
        description="Spatial + intrinsic representation learning pipeline "
                    "for spatial transcriptomics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    input_flags = {
        "--expression": ("paths.expression", "expression matrix path"),
        "--coords": ("paths.coords", "coordinates CSV path"),
        "--format": ("paths.format", f"expression file format: {', '.join(FORMATS)}"),
    }
    dataset = tuple(input_flags)

    def command(name: str, help: str, inputs: tuple = ()) -> argparse.ArgumentParser:
        """A subcommand's parser; ``inputs`` names the flags of
        ``input_flags`` it takes, the input files it reads."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", default=None, help="YAML pipeline config file")
        _flag(p, "--seed", "seed", "random seed")
        _flag(p, "--output-dir", "paths.output_dir", "artifact directory")
        for flag in inputs:
            _flag(p, flag, *input_flags[flag])
        return p

    p = command("preprocess", "normalize, select variable genes, correlate", inputs=dataset)
    _flag(p, "--target-sum", "preprocessing.target_sum", "per-cell total after normalization")
    _flag(p, "--n-hvg", "preprocessing.n_hvg", "variable genes to keep")
    _flag(p, "--combat", "preprocessing.combat", "apply batch harmonization",
          action="store_true")

    p = command("graph", "build the spatial cell graph from the coordinates",
                inputs=("--coords",))
    _flag(p, "--method", "graph.method", f"construction method: {', '.join(GRAPH_METHODS)}")
    _flag(p, "--k", "graph.k", "neighbors for knn")
    _flag(p, "--prune-percentile", "graph.prune_percentile", "Delaunay long-edge cutoff")

    p = command("train", "train on one sample or on every entry of paths.samples, "
                         "write embeddings and domains", inputs=dataset)
    _flag(p, "--epochs", "model.epochs", "training epochs")
    _flag(p, "--cci-only", "model.cci_only",
          "spatial-only variant, skips the gene-map branch", action="store_true")
    _flag(p, "--mask-ratio", "model.mask_ratio", "masked cell fraction")
    _flag(p, "--tau", "model.tau", "contrastive temperature")
    _flag(p, "--gamma", "model.gamma", "reconstruction exponent")
    _flag(p, "--n-domains", "clustering.n_domains", "mixture components K")

    p = command("segment", "cluster spatial embeddings into domains")
    _flag(p, "--n-domains", "clustering.n_domains", "mixture components K")
    _flag(p, "--no-refine", "clustering.refine", "skip majority-vote refinement",
          action="store_false")
    _flag(p, "--refine-neighbors", "clustering.refine_neighbors", "voters per cell")

    p = command("evaluate", "score labels against truth annotations")
    _flag(p, "--truth-labels", "paths.truth_labels", "truth labels CSV path")

    p = command("analyze", "markers, transitions, composition, enrichment")
    _flag(p, "--gene-sets", "paths.gene_sets", "GMT gene-set file")
    _flag(p, "--type-labels", "paths.type_labels", "cell-type labels CSV")
    _flag(p, "--transition-source", "analysis.transition_source",
          f"graph for domain transitions: {', '.join(TRANSITION_SOURCES)}")

    p = command("simulate", "generate a banded synthetic tissue")
    _flag(p, "--n-cells", "simulate.n_cells", "cells to generate")
    _flag(p, "--n-genes", "simulate.n_genes", "genes to generate")
    _flag(p, "--n-domains", "simulate.n_domains", "bands")
    _flag(p, "--program-strength", "simulate.program_strength", "domain program boost")
    _flag(p, "--noise-sd", "simulate.noise_sd", "additive noise sd")

    return parser


COMMANDS = {
    "preprocess": cmd_preprocess,
    "graph": cmd_graph,
    "train": cmd_train,
    "segment": cmd_segment,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    command, path = flags.pop("command"), flags.pop("config")
    try:
        return COMMANDS[command](load_config(path, overrides=flags))
    except (ValueError, FileNotFoundError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The command-line chains on tiny simulated tissues."""

import csv
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
import yaml

from cellscape import pipeline, training
from cellscape.cli import main
from cellscape.config import PipelineConfig
from cellscape.dataset import load_coords, load_dataset, load_table
from cellscape.preprocess import combat_correct, normalize_total, select_hvg
from cellscape.spatial_graph import write_edge_list

MARKER_HEADER = ["domain", "gene", "statistic", "p_value", "adj_p_value",
                 "log2_fold_change", "fraction_expressing"]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_markers(path, domains, top=5):
    """markers.csv holds, per domain, at most ``top`` genes that pass the
    default filters (adjusted p < 0.05, log2 fold change > 0.25)."""
    header, *rows = read_rows(path)
    assert header == MARKER_HEADER
    assert rows
    for domain in {row[0] for row in rows}:
        assert domain in domains
        assert sum(row[0] == domain for row in rows) <= top
    assert all(float(row[4]) < 0.05 and float(row[5]) > 0.25 for row in rows)


def test_simulate_train_segment_evaluate(tmp_path, capsys):
    out = str(tmp_path)
    common = ["--output-dir", out, "--seed", "0"]
    assert main(["simulate", *common, "--n-cells", "400", "--n-genes", "60"]) == 0
    inputs = ["--expression", str(tmp_path / "expression.csv"),
              "--coords", str(tmp_path / "coords.csv")]
    assert main(["train", *common, *inputs, "--epochs", "3"]) == 0
    assert main(["analyze", *common]) == 0
    assert main(["segment", *common]) == 0
    assert main(["evaluate", *common,
                 "--truth-labels", str(tmp_path / "truth_labels.csv")]) == 0

    rows = read_rows(tmp_path / "labels.csv")[1:]
    assert len(rows) == 400
    assert {int(label) for _, label in rows} <= set(range(5))
    assert read_rows(tmp_path / "samples.csv") == \
        [["cell_id", "sample"]] + [[cid, "sample0"] for cid, _ in rows]
    check_markers(tmp_path / "markers.csv", {label for _, label in rows})

    with open(tmp_path / "training_log.jsonl") as fh:
        log = [json.loads(line) for line in fh]
    assert [r["epoch"] for r in log] == [0, 1, 2]
    for r in log:
        assert set(r) == {"epoch", "lr", "loss_recon", "loss_contrastive", "epoch_s",
                          "grad_norm_recon", "grad_norm_contrastive", "grad_cosine",
                          "pcgrad_projected"}
        assert r["epoch_s"] > 0.0
        assert math.isfinite(r["grad_norm_recon"]) and r["grad_norm_recon"] > 0.0
        assert math.isfinite(r["grad_norm_contrastive"]) and r["grad_norm_contrastive"] > 0.0
        assert math.isfinite(r["grad_cosine"]) and -1.0 <= r["grad_cosine"] <= 1.0
        assert isinstance(r["pcgrad_projected"], bool)
        assert not r["pcgrad_projected"] or r["grad_cosine"] < 0.0


@pytest.mark.parametrize("cci_only", [False, True], ids=["dual", "cci-only"])
def test_train_writes_and_reports_exactly_its_artifacts(tmp_path, capsys, cci_only):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", "--output-dir", str(data), "--seed", "0",
                 "--n-cells", "200", "--n-genes", "30"]) == 0
    capsys.readouterr()
    argv = ["train", "--output-dir", str(out), "--seed", "0", "--epochs", "1",
            "--expression", str(data / "expression.csv"), "--coords", str(data / "coords.csv")]
    assert main(argv + (["--cci-only"] if cci_only else [])) == 0
    expected = {"preprocessed_expression.csv", "graph.txt", "embeddings_spatial.csv",
                "embeddings_fused.csv", "training_log.jsonl", "cells.csv", "samples.csv",
                "labels.csv"}
    if not cci_only:
        expected.add("embeddings_intrinsic.csv")
    assert {path.name for path in out.iterdir()} == expected
    reported = capsys.readouterr().out.splitlines()
    assert sorted(reported) == sorted(f"wrote {out / name}" for name in expected)


def test_non_finite_gradient_exits_2(tmp_path, capsys, monkeypatch):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", "--output-dir", str(data), "--seed", "0",
                 "--n-cells", "200", "--n-genes", "30"]) == 0
    monkeypatch.setattr(training, "pcgrad", lambda dz: dz * float("nan"))
    capsys.readouterr()
    assert main(["train", "--output-dir", str(out), "--seed", "0", "--epochs", "1",
                 "--expression", str(data / "expression.csv"),
                 "--coords", str(data / "coords.csv")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        "numerical failure: non-finite gradient at epoch 0: "), err


def test_train_two_samples_segment_analyze(tmp_path, capsys):
    for name, seed in (("a", "1"), ("b", "2")):
        assert main(["simulate", "--output-dir", str(tmp_path / name), "--seed", seed,
                     "--n-cells", "200", "--n-genes", "40", "--n-domains", "3"]) == 0
    config = tmp_path / "samples.yaml"
    config.write_text(yaml.safe_dump({
        "paths": {"samples": [
            {"expression": str(tmp_path / name / "expression.csv"),
             "coords": str(tmp_path / name / "coords.csv")}
            for name in ("a", "b")
        ]},
        "model": {"epochs": 1},
        "clustering": {"n_domains": 3},
    }))
    out = tmp_path / "out"
    common = ["--config", str(config), "--output-dir", str(out), "--seed", "0"]
    assert main(["train", *common]) == 0
    integrated = read_rows(out / "labels.csv")
    assert main(["segment", *common]) == 0
    assert read_rows(out / "labels.csv") == integrated  # refined within each sample
    assert main(["analyze", *common]) == 0

    rows = integrated[1:]
    assert [cid for cid, _ in rows] == \
        [f"s{i}_c{j}" for i in range(2) for j in range(200)]
    assert {int(label) for _, label in rows} <= set(range(3))
    assert read_rows(out / "samples.csv")[1:] == \
        [[cid, f"sample{int(cid[1])}"] for cid, _ in rows]
    check_markers(out / "markers.csv", {label for _, label in rows})


@pytest.mark.parametrize("batch_file", [False, True], ids=["unbatched", "batched"])
def test_train_harmonizes_exactly_when_given_batch_labels(tmp_path, capsys, batch_file):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["simulate", "--output-dir", str(data), "--seed", "0",
                 "--n-cells", "60", "--n-genes", "10", "--n-domains", "2"]) == 0
    cell_ids = [row[0] for row in read_rows(data / "coords.csv")[1:]]
    batches = tmp_path / "batches.csv"
    batches.write_text("cell_id,batch\n" + "".join(f"{cid},b{i % 2}\n"
                                                  for i, cid in enumerate(cell_ids)))
    config = tmp_path / "batches.yaml"
    config.write_text(yaml.safe_dump(
        {"paths": {"batch_labels": str(batches)}} if batch_file else {}))
    assert main(["train", "--config", str(config), "--output-dir", str(out), "--seed", "0",
                 "--expression", str(data / "expression.csv"),
                 "--coords", str(data / "coords.csv"), "--epochs", "1",
                 "--n-domains", "2"]) == 0

    ds = load_dataset(data / "expression.csv", data / "coords.csv", format="dense-csv",
                      batch_path=batches)
    cfg = PipelineConfig().preprocessing
    normalized = normalize_total(ds, target=cfg.target_sum).subset_genes(
        select_hvg(ds.X, n_top=min(cfg.n_hvg, ds.n_genes)))
    uncorrected = dataclasses.replace(normalized, X=np.log1p(normalized.X))
    expected = combat_correct(uncorrected) if batch_file else uncorrected
    X, genes, ids = load_table(out / "preprocessed_expression.csv")
    assert (genes, ids) == (expected.gene_names, expected.cell_ids)
    np.testing.assert_array_equal(X, expected.X)
    assert not np.array_equal(combat_correct(uncorrected).X, uncorrected.X)


def test_analyze_writes_enrichment(tmp_path, capsys):
    out = str(tmp_path)
    common = ["--output-dir", out, "--seed", "0"]
    assert main(["simulate", *common, "--n-cells", "400", "--n-genes", "60"]) == 0
    assert main(["train", *common, "--expression", str(tmp_path / "expression.csv"),
                 "--coords", str(tmp_path / "coords.csv"), "--epochs", "1"]) == 0
    genes = [row[0] for row in read_rows(tmp_path / "expression.csv")[1:]]
    gmt = tmp_path / "blocks.gmt"
    gmt.write_text("".join(f"block{i // 10}\tgenes\t" + "\t".join(genes[i:i + 10]) + "\n"
                           for i in range(0, len(genes), 10)))
    assert main(["analyze", *common, "--gene-sets", str(gmt)]) == 0

    header, *rows = read_rows(tmp_path / "enrichment.csv")
    assert header == ["set_name", "overlap", "set_size", "p_value", "adj_p_value"]
    assert sorted(row[0] for row in rows) == [f"block{i}" for i in range(6)]
    for _, overlap, size, p, adj in rows:
        assert 0 <= int(overlap) <= int(size) == 10
        assert 0.0 <= float(p) <= 1.0
        assert float(p) <= float(adj) <= 1.0


def test_train_reads_a_sparse_triplet_sample(tmp_path, capsys):
    # --format names the layout of the expression file train reads
    assert main(["simulate", "--output-dir", str(tmp_path), "--seed", "0",
                 "--n-cells", "60", "--n-genes", "10", "--n-domains", "2"]) == 0
    header, *rows = read_rows(tmp_path / "expression.csv")
    triplets = [f"{g} {c} {value}" for g, row in enumerate(rows)
                for c, value in enumerate(row[1:]) if float(value)]
    sparse = tmp_path / "expression.txt"
    sparse.write_text(f"%shape {len(rows)} {len(header) - 1}\n" + "\n".join(triplets) + "\n")
    out = tmp_path / "out"
    argv = ["train", "--output-dir", str(out), "--expression", str(sparse),
            "--coords", str(tmp_path / "coords.csv"), "--epochs", "1", "--n-domains", "2"]
    assert main(argv) == 1  # read as the default dense-csv
    assert main([*argv, "--format", "sparse-triplet"]) == 0
    assert read_rows(out / "preprocessed_expression.csv")[0] == \
        ["gene_id", *(cid for cid, _, _ in read_rows(tmp_path / "coords.csv")[1:])]


@pytest.mark.parametrize("method", [[], ["--method", "knn"]], ids=["default", "knn"])
def test_train_graph_is_built_from_the_coordinates(tmp_path, capsys, method):
    assert main(["simulate", "--output-dir", str(tmp_path), "--seed", "0",
                 "--n-cells", "60", "--n-genes", "10", "--n-domains", "2"]) == 0
    out = tmp_path / "out"
    assert main(["train", "--output-dir", str(out), "--expression",
                 str(tmp_path / "expression.csv"), "--coords", str(tmp_path / "coords.csv"),
                 "--epochs", "1", "--n-domains", "2", *method]) == 0
    coords, _ = load_coords(out / "cells.csv")
    cfg = PipelineConfig()
    if method:
        cfg = dataclasses.replace(cfg, graph=dataclasses.replace(cfg.graph, method="knn"))
    write_edge_list(tmp_path / "expected.txt", pipeline.build_graph(coords, cfg))
    assert (out / "graph.txt").read_text() == (tmp_path / "expected.txt").read_text()


def test_knn_graph_and_embedding_transitions(tmp_path, capsys):
    out = str(tmp_path)
    common = ["--output-dir", out, "--seed", "0"]
    inputs = ["--expression", str(tmp_path / "expression.csv"),
              "--coords", str(tmp_path / "coords.csv")]
    assert main(["simulate", *common, "--n-cells", "200", "--n-genes", "30"]) == 0
    assert main(["train", *common, *inputs, "--epochs", "1", "--method", "knn"]) == 0
    header, *edges = (tmp_path / "graph.txt").read_text().splitlines()
    assert header == "%n 200"
    degree = Counter(int(cell) for line in edges for cell in line.split()[:2])
    assert min(degree[cell] for cell in range(200)) >= 6  # graph.k
    assert main(["analyze", *common]) == 0
    spatial = (tmp_path / "transition.txt").read_text()
    assert main(["analyze", *common, "--transition-source", "embedding"]) == 0

    domains = sorted({label for _, label in read_rows(tmp_path / "labels.csv")[1:]})
    header, *lines = (tmp_path / "transition.txt").read_text().splitlines()
    assert header == f"%n {len(domains)}"
    pairs = [line.split() for line in lines]
    assert [(a, b) for a, b, _ in pairs] == \
        [(a, b) for i, a in enumerate(domains) for b in domains[i + 1:]]
    weights = [float(w) for *_, w in pairs]
    assert all(0.0 <= w <= 1.0 for w in weights) and max(weights) == 1.0
    assert (tmp_path / "transition.txt").read_text() != spatial


def test_type_labels_are_read_by_analyze_only(tmp_path, capsys):
    """A types file that lacks a cell does not stop ``train``; ``analyze``
    counts that cell as ``unknown`` in ``composition.csv``."""
    out = str(tmp_path)
    common = ["--output-dir", out, "--seed", "0"]
    assert main(["simulate", *common, "--n-cells", "200", "--n-genes", "30"]) == 0
    truth = read_rows(tmp_path / "truth_labels.csv")
    (tmp_path / "types.csv").write_text(
        "".join(",".join(row) + "\n" for row in truth[:-1]))  # the last cell is missing
    config = tmp_path / "types.yaml"
    config.write_text(yaml.safe_dump({"paths": {"type_labels": str(tmp_path / "types.csv")}}))
    common += ["--config", str(config)]
    assert main(["train", *common, "--expression", str(tmp_path / "expression.csv"),
                 "--coords", str(tmp_path / "coords.csv"), "--epochs", "1"]) == 0
    assert main(["analyze", *common]) == 0

    header, *rows = read_rows(tmp_path / "composition.csv")
    assert sorted(header[1:]) == sorted({label for _, label in truth[1:-1]} | {"unknown"})
    domains = {label for _, label in read_rows(tmp_path / "labels.csv")[1:]}
    assert [row[0] for row in rows] == sorted(domains) + ["all"]
    for row in rows:
        assert math.isclose(sum(float(v) for v in row[1:]), 1.0)
    assert float(rows[-1][header.index("unknown")]) == 1 / 200


def test_segment_names_the_refine_setting_a_tiny_tissue_needs(tmp_path, capsys):
    # 12 cells cannot give each cell 15 voters; segment says which setting
    # to change, as train does, instead of failing inside the vote
    out = str(tmp_path)
    common = ["--output-dir", out, "--seed", "0"]
    assert main(["simulate", *common, "--n-cells", "12", "--n-genes", "20",
                 "--n-domains", "2"]) == 0
    no_refine = tmp_path / "norefine.yaml"
    no_refine.write_text(yaml.safe_dump({"clustering": {"refine": False}}))
    assert main(["train", "--config", str(no_refine), *common, "--epochs", "2",
                 "--n-domains", "2", "--expression", str(tmp_path / "expression.csv"),
                 "--coords", str(tmp_path / "coords.csv")]) == 0
    capsys.readouterr()
    assert main(["segment", *common, "--n-domains", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: sample0 has 12 cells; clustering.refine_neighbors=15 needs more "
        "(or set clustering.refine to false)\n")


@pytest.mark.parametrize("argv", [
    [], ["integrate"], ["train", "--epochs", "x"], ["train", "--no-such-flag"],
    ["segment", "--no-refine", "yes"], ["--seed", "1"], ["segment", "--pca-dim", "5"],
    ["preprocess"], ["graph", "--method", "knn"], ["train", "--combat"],
], ids=["no-command", "integrate-is-gone", "bad-type", "unknown-flag", "flag-value",
        "flag-before-command", "pca-dim-is-gone", "preprocess-is-gone", "graph-is-gone",
        "combat-is-gone"])
def test_usage_error_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "usage: cellscape" in capsys.readouterr().err


def test_ragged_embeddings_are_named(tmp_path, capsys):
    (tmp_path / "embeddings_spatial.csv").write_text("cell_id,dim_0,dim_1\nc0,1,2\nc1,3\n")
    assert main(["segment", "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'embeddings_spatial.csv'}: row 2 has 2 fields, " \
                  "header has 3\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: cellscape" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["segment", "evaluate", "analyze", "simulate"])
def test_input_paths_are_usage_errors_where_unread(tmp_path, capsys, command):
    # only train reads --expression
    out = tmp_path / "out"
    argv = [command, "--output-dir", str(out), "--expression", str(tmp_path / "nowhere.csv")]
    if command == "simulate":
        argv += ["--n-cells", "50", "--n-genes", "10", "--n-domains", "2"]
    assert main(argv) == 1
    assert "unrecognized arguments: --expression" in capsys.readouterr().err
    assert not out.exists()

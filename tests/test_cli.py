"""The command-line chains on tiny simulated tissues."""

import csv
import json
import math

import yaml

from cellscape.cli import main

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
                          "grad_norm_recon", "grad_norm_contrastive", "pcgrad_projected_frac"}
        assert r["epoch_s"] > 0.0
        assert math.isfinite(r["grad_norm_recon"]) and r["grad_norm_recon"] > 0.0
        assert math.isfinite(r["grad_norm_contrastive"]) and r["grad_norm_contrastive"] > 0.0
        assert 0.0 <= r["pcgrad_projected_frac"] <= 1.0


def test_integrate_segment_analyze(tmp_path, capsys):
    for name, seed in (("a", "1"), ("b", "2")):
        assert main(["simulate", "--output-dir", str(tmp_path / name), "--seed", seed,
                     "--n-cells", "200", "--n-genes", "40", "--n-domains", "3"]) == 0
    config = tmp_path / "integrate.yaml"
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
    assert main(["integrate", *common]) == 0
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

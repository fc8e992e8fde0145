"""The command-line chain on a tiny simulated tissue."""

import csv

from cellscape.cli import main


def test_simulate_train_segment_evaluate(tmp_path, capsys):
    out = str(tmp_path)
    common = ["--output-dir", out, "--seed", "0"]
    assert main(["simulate", *common, "--n-cells", "400", "--n-genes", "60"]) == 0
    inputs = ["--expression", str(tmp_path / "expression.csv"),
              "--coords", str(tmp_path / "coords.csv")]
    assert main(["train", *common, *inputs, "--epochs", "3"]) == 0
    assert main(["segment", *common]) == 0
    assert main(["evaluate", *common,
                 "--truth-labels", str(tmp_path / "truth_labels.csv")]) == 0

    with open(tmp_path / "labels.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 400
    assert {int(label) for _, label in rows} <= set(range(5))

"""Tests of the benchmark itself: a tiny fit of every workload, traced and
untraced; metric names against BENCHMARK.json; the tracer's clean-up; the
output checks; and the refusal to run without the sources.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from cellscape import autodiff, pipeline, training
from cellscape.cluster import DomainLabels
from cellscape.network import CellScapeModel

import fit
import run
from spec import AUTODIFF_OPS, END_TO_END, NETWORK_METHODS, PER_LAYER, WORKLOADS
from tracer import Tracer, memory_metrics, timing_metrics

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def tiny(workload):
    return dataclasses.replace(workload, n_cells=150, n_genes=25, epochs=2)


def patched_attributes():
    """Every (owner, name) pair the tracer replaces while installed."""
    pairs = [(autodiff, op) for op in AUTODIFF_OPS]
    pairs.append((autodiff, "backward"))
    pairs += [(CellScapeModel, m) for m in NETWORK_METHODS]
    pairs += [(training, n) for n in ("sce_loss", "contrastive_loss", "neighbor_arrays",
                                      "pcgrad", "adam_step", "lr_schedule", "embed",
                                      "render_maps")]
    pairs += [(pipeline, n) for n in ("layout_genes", "pca_reduce", "gmm_cluster",
                                      "refine_labels")]
    return pairs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_fit_of_every_workload_traced_and_untraced(name):
    ds, truth, cfg, mcfg = fit.make_inputs(tiny(WORKLOADS[name]), seed=3, index=1)
    try:
        plain = fit.run_fit(ds, cfg, mcfg, fit.Untraced())
    except fit.StageFailure as failure:
        # A defect of the program (such as the gmm_cluster "EM log-likelihood
        # decreased" guard) must surface as a failed fit naming its stage,
        # the same with the tracer installed; it is reported, not hidden.
        with Tracer() as timing, pytest.raises(fit.StageFailure) as traced:
            fit.run_fit(ds, cfg, mcfg, timing)
        assert traced.value.stage == failure.stage
        pytest.xfail(f"the fit failed in stage {failure.stage}: {failure.cause!r}")
    labels = plain["labels"].labels
    assert labels.shape == (ds.n_cells,)
    assert set(plain["stage_s"]) == {"preprocess", "graph", "layout", "train", "segment"}

    with Tracer() as timing:
        traced = fit.run_fit(ds, cfg, mcfg, timing)
    np.testing.assert_array_equal(traced["labels"].labels, labels)
    with Tracer(memory=True) as memory:
        tracemalloc.start()
        try:
            fit.run_fit(ds, cfg, mcfg, memory)
        finally:
            tracemalloc.stop()

    per_layer = {**timing_metrics(timing), **memory_metrics(memory)}
    per_layer.update(run.per_layer([], []))
    assert set(per_layer) == set(PER_LAYER)
    assert per_layer["gene_map.swap_evals"] == 20 * 25 ** 2
    assert per_layer["losses.contrastive.anchors"] == ds.n_cells
    assert per_layer["training.peak_mb"] > 0
    assert 0.0 <= per_layer["training.attributed_frac"] <= 1.0

    control, smoothed = fit.control_nmis(ds, truth, cfg, plain["preprocessed"], plain["graph"])
    assert 0.0 <= control <= 1.0 and 0.0 <= smoothed <= 1.0


def test_benchmark_json_matches_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["benchmark"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER

    records = [{"index": i, "ok": True, "setup_s": 1.0, "fit_s": 2.0 + i,
                "peak_rss_mb": 300.0, "nmi": 0.5} for i in range(3)]
    assert set(run.end_to_end(records, tissues=2)) == set(END_TO_END)


def test_fits_per_run_depend_only_on_workload_and_seconds():
    w = WORKLOADS["train-heavy"]
    assert w.fits(0) == w.fits(1) == w.tissues
    assert w.fits(50) == w.fits(50) >= w.tissues
    assert w.fits(10 * w.fit_wall_s * w.tissues) == 10 * w.tissues


def test_end_to_end_uses_only_the_first_tissues_for_nmi():
    records = [{"index": i, "ok": True, "setup_s": 1.0, "fit_s": 1.0,
                "peak_rss_mb": 1.0, "nmi": float(i)} for i in range(5)]
    records[1] = {"index": 1, "ok": False, "stage": "segment", "setup_s": 9.0}
    values = run.end_to_end(records, tissues=3)
    assert values["nmi"] == 1.0          # mean of tissues 0 and 2; 1 failed
    assert values["setup_s"] == 1.0      # the failed fit's set-up still counts


def test_a_crash_fails_the_fit_and_a_rejected_output_fails_the_run():
    ok = [{"index": i, "ok": True, "setup_s": 1.0, "fit_s": 1.0,
           "peak_rss_mb": 1.0, "nmi": 0.5} for i in range(3)]
    crash = {"index": 3, "ok": False, "stage": "segment", "setup_s": 1.0,
             "check_failed": False, "error": "RuntimeError('EM log-likelihood decreased')"}
    result = run.summarize(ok + [crash], [], trace=False, tissues=4)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 1)

    rejected = dict(crash, check_failed=True, error="CheckFailed('3 labels for 4 cells')")
    result = run.summarize(ok + [rejected], [], trace=False, tissues=4)
    assert (result["correct"], result["failed"]) == (False, 1)


def test_tracer_restores_every_wrapped_name():
    before = {(owner, name): getattr(owner, name) for owner, name in patched_attributes()}
    tracer = Tracer()
    tracer.install()
    assert autodiff.matmul is not before[(autodiff, "matmul")]
    assert all(getattr(o, n) is not f for (o, n), f in before.items())
    tracer.uninstall()
    assert autodiff.matmul is before[(autodiff, "matmul")]
    assert all(getattr(o, n) is f for (o, n), f in before.items())

    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("fit failed")
    assert all(getattr(o, n) is f for (o, n), f in before.items())


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    own = tracer.self_times()
    assert tracer.spans[1].parent == 0
    assert own[0] == pytest.approx(outer.duration - inner.duration)


def test_checks_reject_corrupted_outputs():
    def labels(values):
        return DomainLabels(labels=np.array(values), n_domains=3)

    fit.check_labels(labels([0, 1, 2, 1]), n_cells=4, n_domains=3)
    with pytest.raises(fit.CheckFailed):
        fit.check_labels(labels([0, 1, 2]), n_cells=4, n_domains=3)
    with pytest.raises(fit.CheckFailed):
        fit.check_labels(labels([0, 1, 3, 1]), n_cells=4, n_domains=3)

    ds, _, cfg, mcfg = fit.make_inputs(tiny(WORKLOADS["train-heavy"]), seed=0, index=0)
    pre, _, coexpr = pipeline.preprocess_dataset(ds, cfg)
    layout = pipeline.make_layout(coexpr, cfg)
    fit.check_layout(layout, pre.n_genes)
    layout.positions[1] = layout.positions[0]
    with pytest.raises(fit.CheckFailed):
        fit.check_layout(layout, pre.n_genes)

    graph = pipeline.build_graph(pre.coords, cfg)
    with pytest.raises(fit.CheckFailed):
        fit.check_graph(graph, ds.n_cells + 1)

    emb = training.EmbeddingSet(Z_spatial=np.full((4, 2), np.nan), Z_intrinsic=None, Z=None)
    with pytest.raises(fit.CheckFailed):
        fit.check_training(emb, [], n_cells=4, epochs=0)
    emb.Z_spatial = np.zeros((4, 2))
    with pytest.raises(fit.CheckFailed):
        fit.check_training(emb, [{"epoch": 0, "loss_recon": 1.0, "loss_contrastive": np.inf}],
                           n_cells=4, epochs=1)


def test_corrupted_stage_output_fails_the_fit_and_names_the_stage(monkeypatch):
    ds, _, cfg, mcfg = fit.make_inputs(tiny(WORKLOADS["train-heavy"]), seed=0, index=0)

    def short_labels(Z_spatial, coords, cfg):
        return DomainLabels(labels=np.zeros(Z_spatial.shape[0] - 1, dtype=np.int64), n_domains=5)

    monkeypatch.setattr(pipeline, "segment_embeddings", short_labels)
    with pytest.raises(fit.StageFailure) as info:
        fit.run_fit(ds, cfg, mcfg, fit.Untraced())
    assert info.value.stage == "segment"
    assert isinstance(info.value.cause, fit.CheckFailed)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "train-heavy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

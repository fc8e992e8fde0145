"""Outside-in tracer for one fit.

The tracer wraps the public functions that each cellscape layer offers to
its callers, records a span (name, start, end, parent) around every call,
and keeps the spans in memory. ``install`` replaces the module attributes;
``uninstall`` puts the original objects back, so a traced run leaves the
package exactly as it found it. Backward time is charged to the op that
created the tensor and to the innermost layer that was open at the time.

With ``memory=True`` every span also records its traced-memory peak above
the level at which it started (tracemalloc sees numpy buffers). Memory
tracing slows Python-heavy code, so times and memory come from two
separate traced fits.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
from cellscape import autodiff, pipeline, training
from cellscape.network import CellScapeModel

from spec import AUTODIFF_OPS, NETWORK_METHODS


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at the top
    owner: str | None = None    # backward spans: layer that created the tensor
    size: int = 0               # op spans: bytes of the output buffer
    peak_bytes: int = 0         # memory mode: peak above the level at entry

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.notes: dict[str, list] = {}
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._mem: list[list[int]] = []     # [level at entry, running peak]
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, owner: str | None = None, layer: str | None = None) -> Span:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem.append([current, current])
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, owner)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._layers.append(layer or (self._layers[-1] if self._layers else "fit"))
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._layers.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            base, running = self._mem.pop()
            top = max(running, peak)
            span.peak_bytes = top - base
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], top)

    def call(self, name: str, fn, /, *args, layer: str | None = None):
        span = self.open(name, layer=layer)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch(self, owner, attr: str, name: str, layer: str | None = None,
              observe=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``; ``observe``
        sees (args, kwargs, result) after the call returns."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer=layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        self._replace(owner, attr, wrapper)

    def patch_op(self, module, attr: str) -> None:
        """Time an autodiff op forward, and its backward through the output
        tensor's ``_backward_fn``."""
        original = getattr(module, attr)
        name = f"autodiff.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.close(span)
            span.size = out.values.nbytes
            backward_fn = out._backward_fn
            if backward_fn is not None:
                owner = self._layers[-1] if self._layers else "fit"

                def timed_backward(g):
                    bspan = self.open(name + ".bwd", owner=owner)
                    try:
                        backward_fn(g)
                    finally:
                        self.close(bspan)

                out._backward_fn = timed_backward
            return out

        self._replace(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer entry points that the fit path goes through."""
        try:
            for op in AUTODIFF_OPS:
                self.patch_op(autodiff, op)
            self.patch(autodiff, "backward", "autodiff.backward")
            for method, layer in NETWORK_METHODS.items():
                self.patch(CellScapeModel, method, layer, layer=layer)
            self.patch(training, "sce_loss", "losses.sce", layer="losses.sce")
            self.patch(training, "contrastive_loss", "losses.contrastive",
                       layer="losses.contrastive", observe=_observe_anchors)
            self.patch(training, "neighbor_arrays", "losses.neighbor_arrays")
            self.patch(training, "pcgrad", "optim.pcgrad", observe=_observe_pcgrad)
            self.patch(training, "adam_step", "optim.adam")
            self.patch(training, "lr_schedule", "training.lr_schedule")
            self.patch(training, "embed", "training.embed", layer="training.embed")
            self.patch(training, "render_maps", "gene_map.render")
            self.patch(pipeline, "layout_genes", "gene_map.layout", observe=_observe_layout)
            self.patch(pipeline, "pca_reduce", "cluster.pca")
            self.patch(pipeline, "gmm_cluster", "cluster.gmm", observe=_observe_gmm)
            self.patch(pipeline, "refine_labels", "cluster.refine")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived numbers --------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.owner, s.size, s.peak_bytes]
                for s in self.spans
            ],
            "notes": self.notes,
        }


def _observe_anchors(tracer, args, kwargs, result) -> None:
    anchors = kwargs.get("anchors")
    tracer.note("contrastive_anchors", args[0].shape[0] if anchors is None else len(anchors))


def _observe_pcgrad(tracer, args, kwargs, result) -> None:
    tracer.note("pcgrad_projected",
                any(not np.array_equal(a, g) for a, g in zip(result, args[0])))


def _observe_layout(tracer, args, kwargs, result) -> None:
    tracer.note("swap_evals", int(kwargs["swap_budget"]))
    tracer.note("layout_gain", 1.0 - result.objective_value / result.greedy_objective)


def _observe_gmm(tracer, args, kwargs, result) -> None:
    tracer.note("gmm_iters", len(result.log_likelihood_path))


def timing_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts from a timing-only traced fit."""
    spans = tracer.spans
    own = tracer.self_times()
    inclusive: dict[str, float] = {}
    exclusive: dict[str, float] = {}
    owned_bwd: dict[str, float] = {}
    for s, t in zip(spans, own):
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        exclusive[s.name] = exclusive.get(s.name, 0.0) + t
        if s.owner is not None:
            owned_bwd[s.owner] = owned_bwd.get(s.owner, 0.0) + s.duration

    def first(name: str) -> Span:
        return next(s for s in spans if s.name == name)

    train = first("stage.train")
    embed = first("training.embed")
    epoch_starts = [s.start for s in spans if s.name == "training.lr_schedule"]
    bounds = epoch_starts + [embed.start]
    epochs = [b - a for a, b in zip(bounds, bounds[1:])]
    op_names = {f"autodiff.{op}" for op in AUTODIFF_OPS}
    in_epochs = [s for s in spans
                 if s.name in op_names and epoch_starts[0] <= s.start < embed.start]
    notes = tracer.notes

    m: dict[str, float] = {
        "preprocess.s": inclusive["stage.preprocess"],
        "spatial_graph.s": inclusive["stage.graph"],
        "spatial_graph.edges": notes["graph_edges"][0],
        "gene_map.layout_s": inclusive["gene_map.layout"],
        "gene_map.swap_evals": notes["swap_evals"][0],
        "gene_map.layout_gain": notes["layout_gain"][0],
        "gene_map.render_s": inclusive.get("gene_map.render", 0.0),
        "training.train_s": train.duration,
        "training.first_epoch_s": epochs[0],
        "training.epoch_s": statistics.median(epochs[1:]) if len(epochs) > 1 else epochs[0],
        "training.embed_s": embed.duration,
        "training.attributed_frac": 1.0 - exclusive["stage.train"] / train.duration,
    }
    for layer in NETWORK_METHODS.values():
        m[f"{layer}.fwd_s"] = inclusive.get(layer, 0.0)
        m[f"{layer}.bwd_s"] = owned_bwd.get(layer, 0.0)
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}.fwd_s"] = exclusive.get(f"autodiff.{op}", 0.0)
        m[f"autodiff.{op}.bwd_s"] = inclusive.get(f"autodiff.{op}.bwd", 0.0)
    m["autodiff.backward_s"] = inclusive["autodiff.backward"]
    m["autodiff.ops_per_epoch"] = len(in_epochs) / len(epochs)
    m["autodiff.out_bytes_per_epoch"] = sum(s.size for s in in_epochs) / len(epochs)
    for loss in ("sce", "contrastive"):
        m[f"losses.{loss}.fwd_s"] = inclusive[f"losses.{loss}"]
        m[f"losses.{loss}.bwd_s"] = owned_bwd.get(f"losses.{loss}", 0.0)
    m["losses.contrastive.anchors"] = notes["contrastive_anchors"][0]
    m["losses.neighbor_arrays_s"] = inclusive["losses.neighbor_arrays"]
    m["optim.pcgrad_s"] = inclusive["optim.pcgrad"]
    m["optim.adam_s"] = inclusive["optim.adam"]
    m["optim.pcgrad_conflict_frac"] = float(np.mean(notes["pcgrad_projected"]))
    m["cluster.pca_s"] = inclusive.get("cluster.pca", 0.0)
    m["cluster.gmm_s"] = inclusive["cluster.gmm"]
    m["cluster.gmm_iters"] = notes["gmm_iters"][0]
    m["cluster.refine_s"] = inclusive.get("cluster.refine", 0.0)
    return m


def memory_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer traced-memory peaks (MiB above the level at entry) from a
    memory-traced fit."""

    def peak(name: str) -> float:
        return max((s.peak_bytes for s in tracer.spans if s.name == name), default=0) / 2**20

    return {
        "training.peak_mb": peak("stage.train"),
        "autodiff.backward.peak_mb": peak("autodiff.backward"),
        "losses.contrastive.peak_mb": peak("losses.contrastive"),
        "cluster.peak_mb": peak("stage.segment"),
    }

"""Training computes in ``autodiff.DTYPE``, float32.

One training step keeps every parameter, gradient, Adam moment and encoder
output in that dtype, and no fused op is handed a float64 array, which
would promote its products; ``embed`` hands float64 embeddings on. Each
fused op run in float32 matches its float64 run within ``RELATIVE_BOUND``
of each array's largest entry, for its value and every gradient."""

import numpy as np
import pytest

from cellscape import autodiff as ad
from cellscape import training
from cellscape.autodiff import Tensor
from cellscape.losses import contrastive_loss, neighbor_arrays
from cellscape.network import ATTENTION_SLOPE, CellScapeModel, ModelConfig
from cellscape.spatial_graph import build_knn_graph

from test_model import TOY_CFG, toy_dataset

FUSED_OPS = ("gat_attention", "conv_block", "contrastive", "sce")

# float32 against float64, as a fraction of each array's largest entry: the
# cases below reach 5.3e-6 at most (conv_block's weight gradient with a
# third of the cells masked), 1.3e-6 for gat_attention and 1e-6 for the
# losses; eps in float32 is 1.2e-7
RELATIVE_BOUND = 3e-5


def test_one_step_keeps_every_training_array_in_dtype(monkeypatch):
    assert ad.DTYPE is np.float32                  # the shipped compute dtype
    handed = []                                    # (op, dtype) of each float array an op takes
    for name in FUSED_OPS:
        def wrapped(*args, _op=getattr(ad, name), _name=name, **kwargs):
            for arg in (*args, *kwargs.values()):
                values = arg.values if isinstance(arg, Tensor) else arg
                if isinstance(values, np.ndarray) and values.dtype.kind == "f":
                    handed.append((_name, values.dtype))
            return _op(*args, **kwargs)

        monkeypatch.setattr(ad, name, wrapped)
    steps, encoded = [], []
    adam_step, encode = training.adam_step, CellScapeModel.encode

    def record_step(state, params, grads, lr):
        adam_step(state, params, grads, lr=lr)
        steps.append((state, params, grads))

    def record_encode(model, *args, **kwargs):
        encoded.append(encode(model, *args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(training, "adam_step", record_step)
    monkeypatch.setattr(CellScapeModel, "encode", record_encode)
    ds, graph, layout = toy_dataset(seed=3)
    _, emb, _ = training.train(ds, graph, layout, ModelConfig(seed=3, epochs=1, **TOY_CFG))

    assert len(steps) == 1 and len(encoded) == 2   # the step, then embed
    state, params, grads = steps[0]
    for name, p in params.items():
        for what, array in (("values", p.values), ("gradient", grads[name]),
                            ("m", state.m[name]), ("v", state.v[name])):
            assert array.dtype == ad.DTYPE, (name, what, array.dtype)
    for z in encoded[0]:
        assert z.values.dtype == ad.DTYPE
    assert {name for name, _ in handed} == set(FUSED_OPS)
    assert {dtype for _, dtype in handed} == {np.dtype(ad.DTYPE)}
    for z in (emb.Z_spatial, emb.Z_intrinsic, emb.Z):
        assert z.dtype == np.float64


def _attention(average, masked, project):
    rng = np.random.default_rng(1)
    n, f, heads, d = 300, 20, 4, 8
    edges = build_knn_graph(rng.random((2, n)), k=6).directed_edges()
    h = rng.standard_normal((n, f if project else heads * d))
    W = rng.standard_normal((f, heads * d)) / np.sqrt(f)
    a_c, a_n = rng.standard_normal((2, d, heads))
    cells = np.sort(rng.choice(n, n // 3, replace=False)) if masked else None
    upstream = rng.standard_normal((n, d if average else heads * d))
    arrays = (h, W, a_c, a_n) if project else (h, a_c, a_n)

    def build():
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        h_t, W_t, a_c_t, a_n_t = leaves if project else (leaves[0], None, *leaves[1:])
        # a hidden layer's ELU with the projection, as the encoder runs it
        out = ad.gat_attention(h_t, W_t, a_c_t, a_n_t, edges, ATTENTION_SLOPE, average,
                               masked=cells, apply_elu=project and not average)
        return out, leaves, upstream

    return build


def _conv_block(masked):
    rng = np.random.default_rng(2)
    n, q, cout, embed = 300, 10, 4, 16
    maps = 3.0 * rng.random((n, 1, q, q))
    arrays = (rng.standard_normal((cout, 1, 3, 3)) / 3, rng.random(cout) + 0.5,
              0.1 * rng.standard_normal(cout),
              0.1 * rng.standard_normal((cout * (q // 2) ** 2, embed)),
              0.1 * rng.standard_normal(embed))
    cells = np.sort(rng.choice(n, n // 3, replace=False)) if masked else None
    upstream = rng.standard_normal((n, embed))

    def build():
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        return ad.conv_block(maps.astype(ad.DTYPE), *leaves, masked=cells), leaves, upstream

    return build


def _contrastive(n_anchors):
    # the benchmark's width and temperature; 300 anchors span two blocks
    rng = np.random.default_rng(3)
    n = 800
    neighbors = neighbor_arrays(build_knn_graph(rng.random((2, n)), k=6).directed_edges())
    z = rng.standard_normal((n, 32))
    anchors = np.sort(rng.choice(n, n_anchors, replace=False))

    def build():
        leaf = Tensor(z, requires_grad=True)
        return contrastive_loss(ad.l2_normalize_rows(leaf), neighbors, 0.1, anchors), [leaf], None

    return build


def _sce(gamma):
    rng = np.random.default_rng(4)
    n, m, p = 800, 240, 100
    x = 3.0 * rng.random((n, p))
    rows = np.sort(rng.choice(n, m, replace=False))
    x_hat = x[rows] + rng.standard_normal((m, p))

    def build():
        leaf = Tensor(x_hat, requires_grad=True)
        return ad.sce(leaf, x.astype(ad.DTYPE), rows, gamma), [leaf], None

    return build


CASES = {
    **{f"gat_attention-{'W' if project else 'no-W'}-{'averaged' if average else 'concat'}"
       f"-{'masked' if masked else 'unmasked'}": _attention(average, masked, project)
       for project in (True, False) for average in (True, False) for masked in (True, False)},
    "conv_block-masked": _conv_block(True),
    "conv_block-unmasked": _conv_block(False),
    "contrastive-all": _contrastive(800),
    "contrastive-anchors": _contrastive(300),
    "sce-gamma-3": _sce(3.0),
    "sce-gamma-0.5": _sce(0.5),
}


def _run(build, dtype):
    """The op's value and its leaves' gradients, computed in ``dtype``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad, "DTYPE", dtype)
        out, leaves, upstream = build()
        ad.backward(out, None if upstream is None else upstream.astype(dtype))
        got = [out.values, *(leaf.grad for leaf in leaves)]
    assert all(a.dtype == dtype for a in got[1:])
    return got


@pytest.mark.parametrize("case", list(CASES))
def test_float32_matches_float64(case):
    single, double = _run(CASES[case], np.float32), _run(CASES[case], np.float64)
    for got, want in zip(single, double):
        assert got.shape == want.shape
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(got - want).max() <= RELATIVE_BOUND * scale

"""Three fused ops against their composite references on drawn inputs:
values and every input's gradient, at the fixed-grid tests' relative
tolerance of 1e-12. The fixed-grid tests floor it at 1e-12 of each array's
largest entry; here the floor is 1e-12 of the largest entry of any array
the pass returns. An attention vector's gradient vanishes in theory when
every pair score of a head lies on one side of the leaky ReLU's kink (the
centre term then cancels in each receiver's softmax), which small drawn
graphs often give, and what is left of it is rounding noise.

``gat_attention`` is drawn over cell counts, head counts and widths,
concatenated or averaged heads, graphs with a cell that has no edge and a
pair of coordinate twins, and masked cells, handed to the op as ``masked``
(a training step's form) or as zero feature rows (the composite's form). ``contrastive_loss``
is drawn over cell counts, widths and temperatures, graphs with coordinate
twins, and anchor sets of a single cell, of some cells and of every cell.
``sce_loss`` is drawn over exponents from 0.25 to 4, widths and masked
sets, with pairs of a zero-norm target or reconstruction (the warning
path) and clamped pairs, whose 1 - cos is 0 exactly and whose gradient is
0 whatever the exponent.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cellscape import autodiff as ad
from cellscape.autodiff import Tensor
from cellscape.losses import contrastive_loss, neighbor_arrays, sce_loss
from cellscape.network import ATTENTION_SLOPE

from oracles import (composite_gat_layer, composite_sce_loss, dense_contrastive_loss,
                     loop_neighbor_lists)
from test_task_axis import MASKS, _graph, _masked

DRAWS = settings(max_examples=30, deadline=None)


def _assert_match(got_list, want_list):
    scale = max(np.abs(want).max() for want in want_list)
    for got, want in zip(got_list, want_list):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


@DRAWS
@given(n=st.integers(4, 24), k=st.integers(1, 4), heads=st.integers(1, 3),
       head_dim=st.integers(1, 4), average=st.booleans(), mask=MASKS,
       pass_mask=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_gat_attention_matches_composite(n, k, heads, head_dim, average, mask, pass_mask,
                                         seed):
    rng = np.random.default_rng(seed)
    edges = _graph(n, k, rng).directed_edges()
    arrays = [rng.standard_normal((n, 3)), rng.standard_normal((3, heads * head_dim)),
              *(rng.standard_normal((head_dim, 1)) for _ in range(2 * heads))]
    weights = rng.standard_normal((n, head_dim if average else heads * head_dim))
    masked = _masked(mask, n, rng)
    keep = np.ones((n, 1))
    keep[masked] = 0.0

    def run(fused):
        h, W, *vectors = (Tensor(a, requires_grad=True) for a in arrays)
        if not fused:
            out = composite_gat_layer(h * keep, edges.dst, edges.src, n, W, vectors[:heads],
                                      vectors[heads:], head_dim, ATTENTION_SLOPE, average)
        elif pass_mask:
            # handed the mask, as a training step hands it, the op reads the
            # masked rows of the projection as zeros
            out = ad.gat_attention(h, W, vectors[:heads], vectors[heads:], edges,
                                   ATTENTION_SLOPE, average, masked=masked)
        else:
            out = ad.gat_attention(h * keep, W, vectors[:heads], vectors[heads:], edges,
                                   ATTENTION_SLOPE, average)
        ad.backward(ad.tensor_sum(out * weights))
        return [out.values, h.grad, W.grad, *(v.grad for v in vectors)]

    fused = run(fused=True)
    # a masked row takes a zero input gradient
    assert not np.any(fused[1][masked])
    _assert_match(fused, run(fused=False))


@DRAWS
@given(n=st.integers(3, 24), k=st.integers(1, 4), d=st.integers(1, 4),
       tau=st.floats(0.2, 2.0), anchor_kind=st.sampled_from(["single", "some", "every"]),
       seed=st.integers(0, 2**32 - 1))
def test_contrastive_loss_matches_dense(n, k, d, tau, anchor_kind, seed):
    rng = np.random.default_rng(seed)
    graph = _graph(n, k, rng, isolated=False)
    z_values = rng.standard_normal((n, d))
    z_values /= np.linalg.norm(z_values, axis=1, keepdims=True)
    if anchor_kind == "single":
        anchors = rng.integers(n, size=1)
    elif anchor_kind == "every":
        anchors = np.arange(n)
    else:
        anchors = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))

    z = Tensor(z_values, requires_grad=True)
    loss = contrastive_loss(z, neighbor_arrays(graph.directed_edges()), tau, anchors)
    ad.backward(loss)
    z_ref = Tensor(z_values, requires_grad=True)
    ref = dense_contrastive_loss(z_ref, loop_neighbor_lists(n, graph.edges), tau, anchors)
    ad.backward(ref)
    _assert_match([loss.values, z.grad], [ref.values, z_ref.grad])


@DRAWS
@given(n=st.integers(1, 12), p=st.integers(1, 5), gamma=st.floats(0.25, 4.0),
       kinds=st.lists(st.sampled_from(["drawn", "zero target", "zero reconstruction",
                                       "clamped"]), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_sce_loss_matches_composite(n, p, gamma, kinds, seed):
    rng = np.random.default_rng(seed)
    mask = rng.permutation(max(n, len(kinds)))[:len(kinds)]
    x = rng.standard_normal((max(n, len(kinds)), p))
    x_hat_values = rng.standard_normal((mask.size, p))
    for i, kind in enumerate(kinds):
        if kind == "zero target":
            x[mask[i]] = 0.0
        elif kind == "zero reconstruction":
            x_hat_values[i] = 0.0
        elif kind == "clamped":
            # one non-zero entry and a positive multiple of it: cos = 1 exactly
            entry = rng.integers(p)
            x[mask[i]] = 0.0
            x[mask[i], entry] = rng.standard_normal()
            x_hat_values[i] = 0.0
            x_hat_values[i, entry] = x[mask[i], entry] * rng.uniform(0.1, 10.0)
    results = []
    for loss_fn in (sce_loss, composite_sce_loss):
        x_hat = Tensor(x_hat_values, requires_grad=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loss = loss_fn(x, x_hat, mask, gamma)
        ad.backward(loss)
        # the chain builds no graph when every pair is silent
        grad = np.zeros(x_hat.shape) if x_hat.grad is None else x_hat.grad
        results.append(([loss.values, grad], len(caught)))
    (got, warned), (want, want_warned) = results
    assert warned == want_warned == int("zero target" in kinds
                                        or "zero reconstruction" in kinds)
    silent = [i for i, kind in enumerate(kinds) if kind != "drawn"]
    np.testing.assert_array_equal(got[1][silent], 0.0)
    _assert_match(got, want)

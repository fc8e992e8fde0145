"""The task axis of a stacked backward, on drawn inputs: for graph attention
(concatenated and averaged heads) and the CNN block (with and without an
input gradient), a (2, ...) upstream gradient gives each task the gradients
a single-task backward gives it. The graphs hold a cell with no edge and a
pair of coordinate twins; the masked sets are empty, partial or every cell."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellscape import autodiff as ad
from cellscape.autodiff import Tensor
from cellscape.network import ATTENTION_SLOPE
from cellscape.spatial_graph import SpatialGraph, build_knn_graph

DRAWS = settings(max_examples=30, deadline=None)
MASKS = st.sampled_from(["empty", "partial", "all"])


def _masked(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "empty":
        return np.empty(0, dtype=np.intp)
    if kind == "all":
        return np.arange(n)
    return np.sort(rng.choice(n, size=rng.integers(1, n) if n > 1 else 1, replace=False))


def _graph(n: int, k: int, rng: np.random.Generator) -> SpatialGraph:
    """A kNN graph over n - 1 random cells, of which cells 0 and 1 share
    their coordinates, plus cell n - 1 with no edge at all."""
    coords = rng.random((2, n - 1))
    coords[:, 1] = coords[:, 0]
    with pytest.warns(RuntimeWarning, match="duplicate"):
        knn = build_knn_graph(coords, k=min(k, n - 2))
    return SpatialGraph(n, knn.edges, knn.weights)


def _assert_tasks_match(forward, upstream):
    """``forward()`` builds fresh leaves and returns (output, leaves): one
    backward seeded with the (2, ...) ``upstream`` must give each leaf, in
    slice t, the gradient of sum(output * upstream[t])."""
    out, leaves = forward()
    ad.backward(out, upstream)
    for task in range(2):
        task_out, task_leaves = forward()
        ad.backward(ad.tensor_sum(task_out * upstream[task]))
        for stacked, single in zip(leaves, task_leaves):
            assert stacked.grad.shape == (2,) + single.shape
            np.testing.assert_allclose(stacked.grad[task], single.grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(single.grad).max())


@DRAWS
@given(n=st.integers(4, 24), k=st.integers(1, 4), heads=st.integers(1, 3),
       head_dim=st.integers(1, 4), average=st.booleans(), mask=MASKS,
       seed=st.integers(0, 2**32 - 1))
def test_gat_attention_tasks_match_single_task_backward(n, k, heads, head_dim, average,
                                                        mask, seed):
    rng = np.random.default_rng(seed)
    edges = _graph(n, k, rng).directed_edges()
    h = rng.standard_normal((n, 3))
    arrays = [rng.standard_normal((3, heads * head_dim)),
              *(rng.standard_normal((head_dim, 1)) for _ in range(2 * heads))]
    # masked cells read as zero rows of the projection, as the encoder masks them
    keep = np.ones((n, 1))
    keep[_masked(mask, n, rng)] = 0.0

    def forward():
        x = Tensor(h, requires_grad=True)
        W, *vectors = (Tensor(a, requires_grad=True) for a in arrays)
        out = ad.gat_attention(ad.matmul(x, W) * keep, vectors[:heads], vectors[heads:], edges,
                               ATTENTION_SLOPE, average)
        return out, (x, W, *vectors)

    width = head_dim if average else heads * head_dim
    _assert_tasks_match(forward, rng.standard_normal((2, n, width)))


@DRAWS
@given(n=st.integers(1, 140), cin=st.integers(1, 3), cout=st.integers(1, 3),
       q=st.integers(2, 7), x_grad=st.booleans(), mask=MASKS, seed=st.integers(0, 2**32 - 1))
def test_conv_block_tasks_match_single_task_backward(n, cin, cout, q, x_grad, mask, seed):
    # up to 140 cells: two blocks of ad._CELL_BLOCK, the second partial
    rng = np.random.default_rng(seed)
    maps = rng.standard_normal((n, cin, q, q))
    w0 = rng.standard_normal((cout, cin, 3, 3))
    gamma0, beta0 = rng.random(cout) + 0.5, rng.standard_normal(cout)
    masked = _masked(mask, n, rng)

    def forward():
        x = Tensor(maps, requires_grad=x_grad)
        w, gamma, beta = (Tensor(a, requires_grad=True) for a in (w0, gamma0, beta0))
        out = ad.conv_block(x, w, gamma, beta, 0.01, masked)
        return out, ((x,) if x_grad else ()) + (w, gamma, beta)

    _assert_tasks_match(forward, rng.standard_normal((2, n, cout, q // 2, q // 2)))

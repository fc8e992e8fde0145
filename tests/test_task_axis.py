"""Two tasks' gradients in one walk. Training merges the two objectives'
gradients at the fused embedding and walks the encoders once with their
sum, which gives every parameter the sum of the two objectives' own walks
only because every backward is linear in its upstream gradient. So every
op in ``autodiff``, model op or reference op, walked with a seed that sums
two tasks' upstream gradients gives each leaf, in the leaf's shape, the sum
of the gradients of the two tasks' own walks. On drawn inputs, for graph
attention (concatenated and averaged heads, with and without the hidden
layer's ELU) and the CNN (its block and linear head), the summed walk
matches the two tasks' scalar backwards. The graphs hold a cell with no
edge and a pair of coordinate twins; the masked sets are empty, partial or
every cell, and for the CNN also one whole block of cells. The CNN's
summed walk also matches the composite chain on the drawn inputs."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellscape import autodiff as ad
from cellscape.autodiff import Tensor
from cellscape.losses import neighbor_arrays
from cellscape.network import ATTENTION_SLOPE
from cellscape.spatial_graph import SpatialGraph, build_knn_graph

from oracles import composite_cnn

# against float64 references, at their 1e-12 tolerances
pytestmark = pytest.mark.usefixtures("float64")

DRAWS = settings(max_examples=30, deadline=None)
MASKS = st.sampled_from(["empty", "partial", "all"])


def _masked(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "empty":
        return np.empty(0, dtype=np.intp)
    if kind == "all":
        return np.arange(n)
    if kind == "block":
        # every cell of the second block of ad._CELL_BLOCK cells, or of the
        # only one
        first = ad._CELL_BLOCK if n > ad._CELL_BLOCK else 0
        return np.arange(first, min(first + ad._CELL_BLOCK, n))
    return np.sort(rng.choice(n, size=rng.integers(1, n) if n > 1 else 1, replace=False))


def _graph(n: int, k: int, rng: np.random.Generator, isolated: bool = True) -> SpatialGraph:
    """A kNN graph over random cells, of which cells 0 and 1 share their
    coordinates; with ``isolated``, the last of the n cells has no edge at
    all."""
    coords = rng.random((2, n - isolated))
    coords[:, 1] = coords[:, 0]
    with pytest.warns(RuntimeWarning, match="duplicate"):
        knn = build_knn_graph(coords, k=min(k, n - 1 - isolated))
    return SpatialGraph(n, knn.edges, knn.weights)


def _attention_case(rng, average):
    edges = _graph(8, 3, rng).directed_edges()
    heads, d = 2, 3

    def attend(hw, a_c, a_n):
        return ad.gat_attention(hw, None, a_c, a_n, edges, ATTENTION_SLOPE, average)

    return attend, [rng.standard_normal((8, heads * d)),
                    *(rng.standard_normal((heads, d)).T for _ in range(2))]


def _projected_attention_case(rng):
    # a hidden encoder layer: projection by W, masked cells, concatenated
    # heads, then the ELU. Ten cells of four neighbours: each attention
    # vector's gradient is far from the rounding noise it is in theory when
    # every pair score of a head lies on one side of the leaky ReLU's kink
    edges = _graph(10, 4, rng).directed_edges()
    heads, d = 2, 3

    def attend(h, W, a_c, a_n):
        return ad.gat_attention(h, W, a_c, a_n, edges, ATTENTION_SLOPE, False, masked=[1, 4],
                                apply_elu=True)

    return attend, [rng.standard_normal((10, 5)), rng.standard_normal((5, heads * d)),
                    *(rng.standard_normal((heads, d)).T for _ in range(2))]


def _sce_case(rng):
    # the last pair is clamped: a single non-zero entry, so cos = 1 exactly
    x = rng.standard_normal((7, 4))
    rows = np.array([0, 2, 3, 6])
    x[6] = [0.0, 2.0, 0.0, 0.0]
    x_hat = rng.standard_normal((4, 4))
    x_hat[3] = [0.0, 5.0, 0.0, 0.0]
    return (lambda t: ad.sce(t, x, rows, 2.5)), [x_hat]


def _conv_block_case(rng, cin, q, masked):
    # the maps are a plain array the op takes no gradient for
    maps = rng.standard_normal((5, cin, q, q))

    def cnn(w, gamma, beta, fc_w, fc_b):
        return ad.conv_block(maps, w, gamma, beta, fc_w, fc_b, masked)

    return cnn, [rng.standard_normal((3, cin, 3, 3)), rng.random(3) + 0.5,
                 rng.standard_normal(3), rng.standard_normal((3 * (q // 2) ** 2, 4)),
                 rng.standard_normal(4)]


def _contrastive_case(rng):
    dst, src, degree = neighbor_arrays(_graph(8, 3, rng, isolated=False).directed_edges())
    z = rng.standard_normal((8, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return (lambda t: ad.contrastive(t, np.arange(8), dst, src, degree, 0.5)), [z]


# op -> builders of (function of fresh leaves, the leaves' arrays); every
# public op of autodiff has at least one
OP_CASES = {
    "add": [lambda rng: (ad.add, [rng.standard_normal((4, 3)), rng.standard_normal(3)])],
    "mul": [lambda rng: (ad.mul, [rng.standard_normal((4, 3)), rng.standard_normal((4, 1))])],
    "div": [lambda rng: (ad.div, [rng.standard_normal((4, 3)), rng.random((4, 3)) + 1.0])],
    "power": [lambda rng: (lambda a: ad.power(a, 3.0), [rng.standard_normal((4, 3))])],
    "matmul": [lambda rng: (ad.matmul, [rng.standard_normal((4, 3)),
                                        rng.standard_normal((3, 2))])],
    "transpose": [lambda rng: (ad.transpose, [rng.standard_normal((4, 3))])],
    "exp": [lambda rng: (ad.exp, [rng.standard_normal((4, 3))])],
    "log": [lambda rng: (ad.log, [rng.random((4, 3)) + 0.5])],
    "tensor_sum": [
        lambda rng: (ad.tensor_sum, [rng.standard_normal((4, 3))]),
        lambda rng: (lambda a: ad.tensor_sum(a, axis=0), [rng.standard_normal((4, 3))]),
        lambda rng: (lambda a: ad.tensor_sum(a, axis=-1, keepdims=True),
                     [rng.standard_normal((4, 3))]),
    ],
    "concat": [
        lambda rng: (lambda a, b: ad.concat([a, b], axis=1),
                     [rng.standard_normal((4, 2)), rng.standard_normal((4, 3))]),
        lambda rng: (lambda a, b: ad.concat([a, b], axis=0),
                     [rng.standard_normal((1, 3)), rng.standard_normal((4, 3))]),
    ],
    "reshape": [lambda rng: (lambda a: ad.reshape(a, (2, 6)), [rng.standard_normal((4, 3))])],
    "slice_cols": [lambda rng: (lambda a: ad.slice_cols(a, 1, 3),
                                [rng.standard_normal((4, 5))])],
    "gather_rows": [lambda rng: (lambda a: ad.gather_rows(a, [2, 0, 2, 3]),
                                 [rng.standard_normal((4, 3))])],
    "segment_sum": [lambda rng: (lambda a: ad.segment_sum(a, [0, 0, 1, 3, 3], 4),
                                 [rng.standard_normal((5, 3))])],
    "gat_attention": [lambda rng: _attention_case(rng, False),
                      lambda rng: _attention_case(rng, True),
                      _projected_attention_case],
    "contrastive": [_contrastive_case],
    "sce": [_sce_case],
    "leaky_relu": [lambda rng: (lambda a: ad.leaky_relu(a, 0.2), [rng.standard_normal((4, 3))])],
    "elu": [lambda rng: (ad.elu, [rng.standard_normal((4, 3))])],
    "l2_normalize_rows": [lambda rng: (ad.l2_normalize_rows, [rng.standard_normal((4, 3))])],
    "conv2d": [lambda rng: (ad.conv2d, [rng.standard_normal((2, 2, 5, 5)),
                                        rng.standard_normal((3, 2, 3, 3))])],
    "maxpool2": [lambda rng: (ad.maxpool2, [rng.standard_normal((2, 2, 5, 5))])],
    "batch_norm": [lambda rng: (ad.batch_norm, [rng.standard_normal((3, 2, 4, 4)),
                                                rng.random(2) + 0.5, rng.standard_normal(2)])],
    "conv_block": [lambda rng: _conv_block_case(rng, 2, 6, [1]),
                   lambda rng: _conv_block_case(rng, 1, 7, None)],
}


def test_every_op_has_a_task_axis_case():
    ops = {name for name, f in vars(ad).items()
           if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")}
    # unit_rows is the row normalization on plain arrays, not an op
    assert ops - {"as_tensor", "backward", "unit_rows"} == set(OP_CASES)


@pytest.mark.parametrize("op,case", [(op, i) for op, cases in OP_CASES.items()
                                     for i in range(len(cases))])
def test_every_op_carries_the_task_axis(op, case):
    # one walk seeded with the sum of two tasks' upstream gradients; each
    # leaf's gradient equals the sum of the two tasks' own walks, within
    # 1e-12 of its largest entry
    rng = np.random.default_rng(50 + case)
    fn, arrays = OP_CASES[op][case](rng)

    def forward():
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        return fn(*leaves), leaves

    out, leaves = forward()
    upstream = rng.standard_normal((2,) + out.shape)
    ad.backward(out, np.asarray(upstream[0] + upstream[1]))
    want = [np.zeros(leaf.shape) for leaf in leaves]
    for task in range(2):
        task_out, task_leaves = forward()
        ad.backward(task_out, np.asarray(upstream[task]))
        for total, single in zip(want, task_leaves):
            total += single.grad
    for seeded, total in zip(leaves, want):
        assert seeded.grad.shape == seeded.shape
        np.testing.assert_allclose(seeded.grad, total, rtol=0, atol=1e-12 * np.abs(total).max())


def _assert_tasks_match(forward, upstream):
    """``forward()`` builds fresh leaves and returns (output, leaves): one
    backward seeded with ``upstream[0] + upstream[1]`` must give each leaf
    the gradient of sum(output * upstream[0]) plus that of sum(output *
    upstream[1]), each from a scalar backward of its own, within 1e-12 of the
    walk's largest gradient entry (an attention vector's gradient that
    vanishes in theory is rounding noise in both). Returns the seeded walk's
    leaves."""
    out, leaves = forward()
    ad.backward(out, upstream[0] + upstream[1])
    want = [np.zeros(leaf.shape) for leaf in leaves]
    for task in range(2):
        task_out, task_leaves = forward()
        ad.backward(ad.tensor_sum(task_out * upstream[task]))
        for total, single in zip(want, task_leaves):
            total += single.grad
    scale = max(np.abs(total).max() for total in want)
    for seeded, total in zip(leaves, want):
        assert seeded.grad.shape == seeded.shape
        np.testing.assert_allclose(seeded.grad, total, rtol=1e-12, atol=1e-12 * scale)
    return leaves


@DRAWS
@given(n=st.integers(4, 24), k=st.integers(1, 4), heads=st.integers(1, 3),
       head_dim=st.integers(1, 4), average=st.booleans(), apply_elu=st.booleans(), mask=MASKS,
       seed=st.integers(0, 2**32 - 1))
def test_gat_attention_tasks_match_single_task_backward(n, k, heads, head_dim, average,
                                                        apply_elu, mask, seed):
    rng = np.random.default_rng(seed)
    edges = _graph(n, k, rng).directed_edges()
    h = rng.standard_normal((n, 3))
    arrays = [rng.standard_normal((3, heads * head_dim)),
              *(rng.standard_normal((heads, head_dim)).T for _ in range(2))]
    # masked cells read as zero rows of the projection, as the encoder masks them
    masked = _masked(mask, n, rng)

    def forward():
        x = Tensor(h, requires_grad=True)
        W, a_c, a_n = (Tensor(a, requires_grad=True) for a in arrays)
        out = ad.gat_attention(x, W, a_c, a_n, edges, ATTENTION_SLOPE, average, masked=masked,
                               apply_elu=apply_elu)
        return out, (x, W, a_c, a_n)

    width = head_dim if average else heads * head_dim
    _assert_tasks_match(forward, rng.standard_normal((2, n, width)))


@DRAWS
@given(n=st.integers(1, 3 * ad._CELL_BLOCK + 20), cin=st.integers(1, 3), cout=st.integers(1, 3),
       q=st.integers(2, 7), embed=st.integers(1, 3),
       mask=st.sampled_from(["empty", "partial", "all", "block"]),
       seed=st.integers(0, 2**32 - 1))
def test_conv_block_tasks_match_single_task_backward(n, cin, cout, q, embed, mask, seed):
    # up to three blocks of ad._CELL_BLOCK cells and part of a fourth (maps
    # this small take whole blocks)
    assert ad._cell_blocks(n, q, q)[0] == (0, min(n, ad._CELL_BLOCK))
    rng = np.random.default_rng(seed)
    maps = rng.standard_normal((n, cin, q, q))
    arrays = (rng.standard_normal((cout, cin, 3, 3)), rng.random(cout) + 0.5,
              rng.standard_normal(cout), rng.standard_normal((cout * (q // 2) ** 2, embed)),
              rng.standard_normal(embed))
    masked = _masked(mask, n, rng)

    def forward():
        params = [Tensor(a, requires_grad=True) for a in arrays]
        return ad.conv_block(maps, *params, masked), params

    upstream = rng.standard_normal((2, n, embed))
    seeded = _assert_tasks_match(forward, upstream)
    # against the composite chain on a copy with the masked maps zeroed
    zeroed = maps.copy()
    zeroed[masked] = 0.0
    chain = [Tensor(a, requires_grad=True) for a in arrays]
    ad.backward(ad.tensor_sum(composite_cnn(zeroed, *chain) * (upstream[0] + upstream[1])))
    for got, want in zip(seeded, chain):
        np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(want.grad).max())

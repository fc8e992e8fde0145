"""Two tasks' gradients in one walk. Training merges the two objectives'
gradients at the fused embedding and walks the encoders once with their
sum, which gives every parameter the sum of the two objectives' own walks
only because every backward is linear in its upstream gradient. So every
op in ``autodiff``, model op or reference op, walked with a seed that sums
two tasks' upstream gradients gives each leaf, in the leaf's shape, the sum
of the gradients of the two tasks' own walks. On drawn inputs, for graph
attention (concatenated and averaged heads, with and without the hidden
layer's ELU) and the CNN block (with and without an input gradient), the
summed walk matches the two tasks' scalar
backwards. The graphs hold a cell with no edge and a pair of coordinate
twins; the masked sets are empty, partial or every cell, and for the CNN
block also one whole block of cells. The CNN block's backward also matches
the composite chain, on the drawn inputs and across block boundaries, and
holds no copy of the whole upstream gradient; its input gradient holds no
patch matrix of the convolution gradient."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellscape import autodiff as ad
from cellscape.autodiff import Tensor
from cellscape.losses import neighbor_arrays
from cellscape.network import ATTENTION_SLOPE
from cellscape.spatial_graph import SpatialGraph, build_knn_graph

from oracles import composite_conv_block

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
    "conv_block": [lambda rng: (lambda x, w, gamma, beta: ad.conv_block(x, w, gamma, beta,
                                                                        0.01, [1]),
                                [rng.standard_normal((5, 2, 6, 6)),
                                 rng.standard_normal((3, 2, 3, 3)),
                                 rng.random(3) + 0.5, rng.standard_normal(3)]),
                   # the last block, with the linear head
                   lambda rng: (lambda x, w, gamma, beta, fc_w, fc_b: ad.conv_block(
                                    x, w, gamma, beta, 0.01, [1], head=(fc_w, fc_b)),
                                [rng.standard_normal((5, 2, 6, 6)),
                                 rng.standard_normal((3, 2, 3, 3)),
                                 rng.random(3) + 0.5, rng.standard_normal(3),
                                 rng.standard_normal((27, 4)), rng.standard_normal(4)])],
}


def test_every_op_has_a_task_axis_case():
    ops = {name for name, f in vars(ad).items()
           if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")}
    assert ops - {"as_tensor", "backward"} == set(OP_CASES)


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
       q=st.integers(2, 7), x_grad=st.booleans(),
       mask=st.sampled_from(["empty", "partial", "all", "block"]),
       seed=st.integers(0, 2**32 - 1))
def test_conv_block_tasks_match_single_task_backward(n, cin, cout, q, x_grad, mask, seed):
    # up to three blocks of ad._CELL_BLOCK cells and part of a fourth (maps
    # this small take whole blocks)
    assert ad._cell_blocks(n, q, q)[0] == (0, min(n, ad._CELL_BLOCK))
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

    upstream = rng.standard_normal((2, n, cout, q // 2, q // 2))
    seeded = _assert_tasks_match(forward, upstream)
    # against the composite chain on a copy with the masked maps zeroed
    zeroed = maps.copy()
    zeroed[masked] = 0.0
    chain = [Tensor(a, requires_grad=True) for a in (zeroed, w0, gamma0, beta0)]
    ad.backward(ad.tensor_sum(composite_conv_block(*chain, 0.01) * (upstream[0] + upstream[1])))
    for got, want in zip(seeded, chain[0 if x_grad else 1:]):
        want = want.grad.copy()
        if x_grad and got is seeded[0]:
            want[masked] = 0.0              # the op gives masked cells no input gradient
        np.testing.assert_allclose(got.grad, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def _conv_block_arrays(n, cin, cout, q, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, cin, q, q)), rng.standard_normal((cout, cin, 3, 3)),
            rng.random(cout) + 0.5, rng.standard_normal(cout))


@pytest.mark.parametrize("x_grad", [False, True])
def test_conv_block_stacked_matches_composite_across_blocks(x_grad):
    # the beta and gamma gradients are summed block by block, so the block
    # boundaries are where the op's backward could part from the composite
    # chain: three blocks, the middle one all masked (its windows tie), the
    # last partial; every gradient within 1e-12 of the chain's
    block = ad._CELL_BLOCK
    n, cin, cout, q = 2 * block + block // 2 + 1, 2, 3, 6
    assert len(ad._cell_blocks(n, q, q)) == 3
    maps, w0, gamma0, beta0 = _conv_block_arrays(n, cin, cout, q, seed=41)
    masked = np.array([1, *range(block, 2 * block), n - 2])
    maps[masked] = 0.0
    upstream = np.random.default_rng(42).standard_normal((n, cout, q // 2, q // 2))

    def leaves():
        return [Tensor(a, requires_grad=x_grad or i > 0)
                for i, a in enumerate((maps, w0, gamma0, beta0))]

    fused = leaves()
    ad.backward(ad.conv_block(*fused, 0.01, masked), upstream)
    chain = leaves()
    ad.backward(ad.tensor_sum(composite_conv_block(*chain, 0.01) * upstream))
    for got, want in zip(fused, chain):
        if not got.requires_grad:
            continue
        want = want.grad.copy()
        if got is fused[0]:
            want[masked] = 0.0              # the op gives masked cells no input gradient
        np.testing.assert_allclose(got.grad, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_conv_block_stacked_backward_copies_no_full_gradient():
    # n = four blocks and three cells. The backward moves the upstream
    # gradient cell-last one block at a time, so beside the driver's copy of
    # the seed and one block's patch matrix and convolution gradient it
    # holds less than half the seed; a cell-last copy of the whole gradient
    # alone is as large as the seed
    n, cin, cout, q = 4 * ad._CELL_BLOCK + 3, 1, 16, 10
    assert ad._cell_blocks(n, q, q)[0] == (0, ad._CELL_BLOCK)
    maps, w0, gamma0, beta0 = _conv_block_arrays(n, cin, cout, q, seed=43)
    w, gamma, beta = (Tensor(a, requires_grad=True) for a in (w0, gamma0, beta0))
    out = ad.conv_block(Tensor(maps), w, gamma, beta, 0.01)
    seed = np.random.default_rng(44).standard_normal(out.shape)
    tracemalloc.start()
    try:
        ad.backward(out, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.grad.shape == w.shape
    block = (9 * cin + cout) * q * q * ad._CELL_BLOCK * 8
    assert peak < seed.nbytes + seed.nbytes // 2 + block, f"peak {peak / 2**20:.2f} MiB"


def test_conv_block_input_gradient_makes_no_gradient_patch_matrix():
    # a second block's input gradient is the adjoint of the forward's patch
    # gather, made from one block's (9 * cin, H * W * b) patch gradient: beside
    # the driver's copy of the seed and the input gradient, the backward
    # holds less than one block's (9 * cout, H * W * b) patch matrix of the
    # convolution gradient, which a flipped-kernel convolution builds
    n, cin, cout, q = 3 * ad._CELL_BLOCK + 5, 1, 16, 8
    block = ad._cell_blocks(n, q, q)[0][1]
    maps, w0, gamma0, beta0 = _conv_block_arrays(n, cin, cout, q, seed=45)
    x = Tensor(maps, requires_grad=True)
    w, gamma, beta = (Tensor(a, requires_grad=True) for a in (w0, gamma0, beta0))
    out = ad.conv_block(x, w, gamma, beta, 0.01)
    seed = np.random.default_rng(46).standard_normal(out.shape)
    tracemalloc.start()
    try:
        ad.backward(out, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape
    gradient_patches = 9 * cout * q * q * block * 8
    assert peak < seed.nbytes + x.grad.nbytes + gradient_patches, f"peak {peak / 2**20:.2f} MiB"

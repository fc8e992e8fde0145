"""Minimal reverse-mode automatic differentiation over dense numpy buffers.

Tensors wrap arrays of the module constant ``DTYPE`` (float32), or, for a
scalar such as a loss, float64, and record the operations that produced them;
``backward`` walks the graph in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad=True``. A leaf's
``grad`` sums over every ``backward`` until its reader takes it off (sets it
to None). Every gradient has the shape of what it differentiates: an op's
backward takes a gradient of its output's shape, each leaf's ``grad`` has
the leaf's shape, and a walk from a non-scalar root is seeded with a
gradient of the root's shape. The training step walks the encoders once
per epoch, seeded with the two losses' merged gradient at the fused
embedding. The operations are those the training loop needs, plus the few
listed at the end; all run on CPU numpy and scipy.sparse.

Training computes in ``DTYPE``: parameters, activations, gradients and the
arrays the fused ops build are all ``DTYPE``, and an op casts a plain array
input (maps, targets, degrees) to it, which is no copy when the caller cast
it once. Sums whose rounding grows with the number of cells accumulate in
float64 (Micikevicius et al. 2018's mixed precision): the loss scalars, the
CNN's batch statistics and co-moments and its backward's sums over the
cells, and the contrastive loss's per-anchor denominator. A float64 operand in a
product with ``DTYPE`` arrays would promote the product, so each op casts
its float64 per-row or per-channel factors to ``DTYPE`` before they meet
an array that grows with the cells.

Most ops are generic (elementwise, matmul, gathers, segment sums); the
model calls four of them (``matmul``, ``concat``, ``gather_rows`` and
``l2_normalize_rows``) and four fused ops, each of which keeps for its
backward only what that backward reads and rebuilds what is cheap to
rebuild (Chen et al. 2016's trade of compute for memory).

Graph attention is one fused op, ``gat_attention``: it projects the layer
input by the layer's weight, then per-pair scores, the per-receiver
softmax and the aggregation for every head run over the graph's CSR edge
arrays, with the aggregation as a sparse product and the pair-score
backward in blocks of a fixed number of entries, so no op holds an edges x
features array. The heads' centre and neighbour attention vectors are the
columns of two (d, heads) tensors, each taking its gradient once. A hidden
layer's ELU runs inside the op. It returns the layer output only and
keeps, for the backward, only its attention weights, their scores' signs
and the ELU's sign mask: the projection and each head's sparse matrix are
built where a product needs them, in the forward and again in the
backward. Like the CNN, it reads the cells it is handed as masked as
zero rows: it zeroes those rows of each projection it builds, so masking
copies no input and needs no other special case.

The CNN is one fused op, ``conv_block``: a bias-free 3x3 convolution,
batch normalization, leaky ReLU, 2x2 max pooling and the linear head over
cells in blocks of ``_cell_blocks``, so no op holds an N*H*W x channels
array. Its batch norm always uses the exact statistics of the batch at
hand: the model trains full-batch and embeds the cells it trained on, so
no running averages are kept. One pass per block convolves, pools (the
activation is monotone in gamma * conv, so its winners are known before the
statistics) and merges the channel means and variances and the
channel-patch co-moment over the blocks; normalization and activation then
run on the winners alone. The backward keeps only the pooled maps and the
int8 winner of each pooling window plus those statistics, which give the
weight gradient in closed form; the maps take no gradient. The backward
walks the same blocks once and takes each block's pooled gradient through
the head there, so no buffer it makes grows with N.

Both losses are fused ops. ``sce``, the masked reconstruction's scaled
cosine error, has a closed-form gradient: it keeps per-row scalars and
gathers its target rows again in the backward. ``contrastive``, the
neighbourhood contrastive loss, walks the anchors in blocks of
``_ANCHOR_CHUNK``, reads each block's positive pairs from the sorted edge
arrays and builds the (n, d) gradient during the forward, so no op holds
an anchors x n array.

``add``, ``mul``, ``div``, ``power``, ``tensor_sum``, ``reshape``,
``leaky_relu``, ``elu``, ``slice_cols``, ``conv2d``, ``batch_norm``,
``maxpool2``, ``transpose``, ``exp``, ``log`` and ``segment_sum`` have no
caller in the model. They stay only because
``benchmark/spec.py::AUTODIFF_OPS`` names them, so the benchmark tracer
wraps them by name (the composite and dense references in the tests are
built from them too), and each takes only the form those references call:
``conv2d`` is a bias-free 3x3 "same" convolution, ``batch_norm`` normalizes
4-D input by the statistics of the batch at hand, and ``segment_sum`` takes
sorted ids. The has-a-caller gate in ``tests/test_imports.py`` counts those
names as reads and nothing else does: an op dropped from ``AUTODIFF_OPS``
must be deleted here as well.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

# The compute dtype of training: every non-scalar tensor, gradient and
# fused-op buffer. A module constant, not a setting; tests that compare
# against float64 references set it to float64 for their duration.
DTYPE = np.float32


class Tensor:
    """A dense tensor with optional gradient tracking: ``DTYPE`` values, or
    float64 for a 0-d tensor, a loss or a scalar operand."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn", "_backward_done")

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        self.values = values.astype(np.float64 if values.ndim == 0 else DTYPE, copy=False)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        # ``own=True`` promises that no other tensor holds the buffer or will
        # read it, so first-touch can take it without a copy; a copy takes
        # the tensor's dtype
        if self.grad is None:
            self.grad = grad if own else np.array(grad, dtype=self.values.dtype)
        else:
            self.grad += grad

    # operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(values: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    """Create an op output, recording the graph only if a parent needs grads."""
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and linear algebra
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values + b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(values, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.shape), own=True)

    return _make(values, (a, b), backward_fn)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values / b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.values, a.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.values / (b.values * b.values), b.shape), own=True)

    return _make(values, (a, b), backward_fn)


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    values = a.values ** p

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * p * a.values ** (p - 1.0), own=True)

    return _make(values, (a,), backward_fn)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2D operands, got {a.shape} @ {b.shape}")
    values = a.values @ b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T, own=True)
        if b.requires_grad:
            b._accumulate(a.values.T @ g, own=True)

    return _make(values, (a, b), backward_fn)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose expects a 2D tensor")

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.T.copy(), own=True)

    return _make(a.values.T.copy(), (a,), backward_fn)


def exp(a) -> Tensor:
    a = as_tensor(a)
    values = np.exp(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * values, own=True)

    return _make(values, (a,), backward_fn)


def log(a) -> Tensor:
    a = as_tensor(a)
    values = np.log(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g / a.values, own=True)

    return _make(values, (a,), backward_fn)


def tensor_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    values = a.values.sum(axis=axis, keepdims=keepdims)
    # the output's shape with the summed axes kept, which g reshapes to
    summed = range(a.ndim) if axis is None else (axis % a.ndim,)
    kept = tuple(1 if i in summed else s for i, s in enumerate(a.shape))

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g.reshape(kept), a.shape).astype(a.values.dtype),
                          own=True)

    return _make(values, (a,), backward_fn)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    axis %= values.ndim
    sizes = [t.shape[axis] for t in tensors]

    def backward_fn(g):
        for t, part in zip(tensors, np.split(g, np.cumsum(sizes)[:-1], axis=axis)):
            if t.requires_grad:
                t._accumulate(part)

    return _make(values, tensors, backward_fn)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    values = a.values.reshape(shape)

    def backward_fn(g):
        # a view of g: the walk drops the output's gradient once this returns
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape), own=True)

    return _make(values, (a,), backward_fn)


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("slice_cols expects a 2D tensor")

    def backward_fn(g):
        if a.requires_grad:
            full = np.zeros(a.shape, dtype=a.values.dtype)
            full[:, start:stop] = g
            a._accumulate(full, own=True)

    return _make(a.values[:, start:stop].copy(), (a,), backward_fn)


def _sorted_row_sums(rows: np.ndarray, sorted_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Sums of ``rows`` grouped by pre-sorted integer ids (reduceat is much
    faster than np.add.at for the edge-sized arrays used here)."""
    out = np.zeros((num_segments,) + rows.shape[1:], dtype=rows.dtype)
    if sorted_ids.size == 0:
        return out
    starts = np.flatnonzero(np.diff(sorted_ids)) + 1
    starts = np.concatenate(([0], starts))
    out[sorted_ids[starts]] = np.add.reduceat(rows, starts, axis=0)
    return out


def gather_rows(a, index) -> Tensor:
    """Masked row selection: pick rows of ``a`` by integer index (with repeats)."""
    a = as_tensor(a)
    idx = np.asarray(index, dtype=np.intp)

    def backward_fn(g):
        if a.requires_grad:
            perm = np.argsort(idx, kind="stable")
            a._accumulate(_sorted_row_sums(g[perm], idx[perm], a.shape[0]), own=True)

    return _make(a.values[idx], (a,), backward_fn)


def segment_sum(a, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given per-row segment
    ids, which must be sorted ascending."""
    a = as_tensor(a)
    seg = np.asarray(segment_ids, dtype=np.intp)
    values = _sorted_row_sums(a.values, seg, num_segments)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g[seg], own=True)

    return _make(values, (a,), backward_fn)


# ---------------------------------------------------------------------------
# graph attention
# ---------------------------------------------------------------------------

# Entries per block of the edge-score backward's two gather buffers
# together (256 KiB of float32): a block takes _EDGE_ENTRIES // (senders'
# width + receivers' width) edges, so the buffers stay this size whatever the
# layer's width. The first encoder layer (64-wide senders and receivers)
# walks 512 edges a block, the final one (128-wide senders, 32-wide averaged
# receivers) 409 and the decoder (32 and 32) 1,024.
_EDGE_ENTRIES = 1 << 16


def _masked_cells(masked, n: int, op: str) -> np.ndarray:
    """The sorted unique cell indices of ``masked`` (``None`` for none),
    checked to lie in [0, n)."""
    masked = np.asarray(() if masked is None else masked)
    if masked.size and masked.dtype.kind not in "iu":
        raise ValueError(f"{op} masked cells must be indices, got dtype {masked.dtype}")
    masked = np.unique(masked.astype(np.intp))
    if masked.size and (masked[0] < 0 or masked[-1] >= n):
        raise ValueError(f"{op} masked cells must lie in [0, {n}), "
                         f"got {masked[0]}..{masked[-1]}")
    return masked


def gat_attention(h, W, a_center: Tensor, a_neighbor: Tensor, edges, slope: float,
                  average: bool, masked=None, apply_elu: bool = False) -> Tensor:
    """Multi-head graph attention (Velickovic et al. 2018) of the layer
    input ``h`` (n, f) projected by ``W`` (f, heads * d), all heads in one
    op; with ``W`` None, ``h`` is itself the (n, heads * d) projection (the
    decoder attends in the embedding space). ``a_center`` and
    ``a_neighbor`` are (d, heads), column k being head k's vector.

    ``edges`` holds the attention pairs in CSR order: ``dst`` and ``src``
    arrays sorted by receiver and row pointers ``indptr`` with every row
    non-empty (``spatial_graph.DirectedEdges``). With ``hw = h @ W``, head
    ``k`` scores pair (i <- j) as leaky_relu(hw_k[i] . a_center[:, k] +
    hw_k[j] . a_neighbor[:, k]), softmax-normalizes the scores per receiver
    and aggregates sum_j alpha_ij hw_k[j] as one sparse product. Heads are
    concatenated, or averaged when ``average`` is set; ``apply_elu`` then
    applies an ELU (alpha = 1), as a hidden layer does. The op zeroes the
    rows of ``hw`` indexed by ``masked`` wherever it computes ``hw``, so
    training masks the projection without copying the input: a zero row
    scores 0, sends 0 and adds 0 to each attention vector's gradient, and
    its input gradient is zero.

    The forward keeps only its output, the (E, heads) attention weights and
    their scores' signs for the backward, plus the ELU's sign mask; each
    head's sparse matrix is built where a product needs it, in the forward
    and again in the backward. The projection ``h @ W`` is not kept either:
    the backward computes it again, with the same product, from ``h`` and
    ``W`` (Chen et al. 2016's trade of compute for memory), and frees it
    before it builds the projection's gradient. Below 0 the ELU's
    derivative, exp(x), is its output + 1, so no pre-activation is kept.
    """
    h = as_tensor(h)
    W = None if W is None else as_tensor(W)
    d, heads = a_center.shape
    n = h.shape[0]
    width = heads * d
    masked = _masked_cells(masked, n, "gat_attention")

    def project() -> np.ndarray:
        feats = h.values if W is None else h.values @ W.values
        if masked.size:
            if W is None:
                feats = feats.copy()          # h's own values are not the op's to zero
            feats[masked] = 0.0
        return feats.reshape(n, heads, d)

    feats = project()
    dst, src, indptr = edges.dst, edges.src, edges.indptr
    starts = indptr[:-1]
    # (heads, d), row k being head k's vector; C-contiguous, because the
    # score einsums' summation order, and so their rounding, follows the layout
    ac = np.ascontiguousarray(a_center.values.T)
    an = np.ascontiguousarray(a_neighbor.values.T)

    center = np.einsum("nhd,hd->nh", feats, ac)
    neighbor = np.einsum("nhd,hd->nh", feats, an)
    raw = center[dst] + neighbor[src]                            # (E, heads)
    positive = raw > 0
    scores = np.where(positive, raw, slope * raw)
    ex = np.exp(scores - np.maximum.reduceat(scores, starts, axis=0)[dst])
    alpha = ex / np.add.reduceat(ex, starts, axis=0)[dst]
    del center, neighbor, raw, scores, ex

    def adjacency(k):
        # head k's (n, n) attention matrix, receivers by senders
        return csr_matrix((np.array(alpha[:, k]), src, indptr), shape=(n, n))

    outs = [adjacency(k) @ feats[:, k] for k in range(heads)]
    del feats
    if average:
        values = outs[0]
        for out in outs[1:]:
            values += out
        values *= 1.0 / heads
    else:
        values = np.concatenate(outs, axis=1)
    del outs
    rising = None
    if apply_elu:
        # as ``elu``: the output and its sign mask are all the backward reads
        rising = values > 0
        activated = np.minimum(values, 0.0)
        np.expm1(activated, out=activated)
        np.copyto(activated, values, where=rising)
        values = activated

    def backward_fn(g):
        if rising is not None:
            deriv = values + 1.0
            np.copyto(deriv, 1.0, where=rising)
            g = g * deriv
            del deriv
        # (n, heads, d), or (n, 1, d) shared by all heads when averaged
        grads = (g * (1.0 / heads) if average else g).reshape(n, -1, d)
        feats = project()
        # d loss / d alpha for every pair: <g_k[dst], hw_k[src]>, by blocks of edges
        # (one pair of gather buffers, reused by every block)
        step = max(1, _EDGE_ENTRIES // (width + grads.shape[1] * d))
        dscores = np.empty(alpha.shape, dtype=DTYPE)
        senders = np.empty((min(step, dst.size), heads, d), dtype=DTYPE)
        receivers = np.empty((senders.shape[0],) + grads.shape[1:], dtype=DTYPE)
        for lo in range(0, dst.size, step):
            hi = min(lo + step, dst.size)
            np.take(feats, src[lo:hi], axis=0, out=senders[:hi - lo], mode="clip")
            np.take(grads, dst[lo:hi], axis=0, out=receivers[:hi - lo], mode="clip")
            np.einsum("ehd,ehd->eh", receivers[:hi - lo], senders[:hi - lo], out=dscores[lo:hi])
        del senders, receivers
        # softmax, then leaky-ReLU backward, in place; the segment maximum cancels
        dscores *= alpha
        spread = np.add.reduceat(dscores, starts, axis=0)[dst]          # (E, heads)
        spread *= alpha
        dscores -= spread
        del spread
        np.multiply(dscores, slope, out=dscores, where=~positive)
        dcenter = np.add.reduceat(dscores, starts, axis=0)               # (n, heads)
        # bincount sums its weights in float64
        dneighbor = np.array([np.bincount(src, weights=dscores[:, k], minlength=n)
                              for k in range(heads)], dtype=DTYPE).T
        del dscores                          # only the per-cell sums are read from here on
        for a, dscore in ((a_center, dcenter), (a_neighbor, dneighbor)):
            if a.requires_grad:
                a._accumulate(np.stack([feats[:, k].T @ dscore[:, k] for k in range(heads)],
                                       axis=1), own=True)
        # the projection is read no more: its gradient is built without it
        del feats
        weight_grad = W is not None and W.requires_grad
        if not (h.requires_grad or weight_grad):
            return
        # head by head, so no temporary is wider than one head's (n, d)
        dfeats = np.empty((n, heads, d), dtype=DTYPE)
        for k in range(heads):
            head = dfeats[:, k]
            np.multiply(dcenter[:, k, None], ac[k], out=head)
            head += dneighbor[:, k, None] * an[k]
            head += adjacency(k).T @ grads[:, 0 if average else k]
        dfeats[masked] = 0.0
        dfeats = dfeats.reshape(n, width)
        if W is None:
            h._accumulate(dfeats, own=True)
            return
        if h.requires_grad:
            h._accumulate(dfeats @ W.values.T, own=True)
        if weight_grad:
            W._accumulate(h.values.T @ dfeats, own=True)

    parents = (h, a_center, a_neighbor) if W is None else (h, W, a_center, a_neighbor)
    return _make(values, parents, backward_fn)


# ---------------------------------------------------------------------------
# neighbourhood contrastive loss
# ---------------------------------------------------------------------------

# Anchors per block of the contrastive op: its similarity buffer is
# _ANCHOR_CHUNK x n instead of anchors x n.
_ANCHOR_CHUNK = 256


def contrastive(z, anchors: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                degree: np.ndarray, tau: float) -> Tensor:
    """Multi-positive InfoNCE over unit-norm embedding rows ``z`` (n, d).

    ``anchors`` are the averaged cells; the positive pairs are
    ``(anchors[rows], cols)``, unique, with ``rows`` (positions into
    ``anchors``) sorted ascending. Anchor ``a`` contributes
    ``log sum_j deg_j exp(s_aj) - log sum_{j in N(a)} exp(s_aj)`` with
    ``s_aj = <z_a, z_j> / tau`` and ``deg = degree``; the loss is their mean.

    The forward walks the anchors in blocks of ``_ANCHOR_CHUNK``. Each block
    exponentiates its row-max-shifted similarities in one buffer, weights
    them by degree in place and sums each row, a sum over all n cells, in
    float64; when ``z`` needs a gradient, it turns that buffer into d loss /
    d similarity and adds both matmul terms to one cached (n, d) gradient;
    the backward only scales it. No anchors x n array is ever held.
    """
    z = as_tensor(z)
    zv = z.values
    degree = np.asarray(degree, dtype=DTYPE)
    n_anchors = anchors.size
    inv_tau = 1.0 / tau
    grad = np.zeros_like(zv) if z.requires_grad else None
    total = 0.0
    for lo in range(0, n_anchors, _ANCHOR_CHUNK):
        hi = min(lo + _ANCHOR_CHUNK, n_anchors)
        block = anchors[lo:hi]
        scaled = zv[block]
        scaled *= inv_tau
        ex = scaled @ zv.T                                     # (block, n)
        ex -= ex.max(axis=1, keepdims=True)                    # detached stabilizer
        np.exp(ex, out=ex)
        e0, e1 = np.searchsorted(rows, (lo, hi))
        r, c = rows[e0:e1] - lo, cols[e0:e1]
        pair = ex[r, c]
        num = _sorted_row_sums(pair, r, hi - lo)
        ex *= degree
        den = ex.sum(axis=1, dtype=np.float64)
        total += float(np.sum(np.log(den) - np.log(num)))
        if grad is not None:
            # d loss / d similarity, in place: (exp * deg / den - [pair] exp / num) / m
            ex /= (n_anchors * den).astype(DTYPE)[:, None]
            ex[r, c] -= pair / (n_anchors * num[r])
            grad[block] += (ex @ zv) * inv_tau
            grad += ex.T @ scaled
        del scaled, ex      # before the next block allocates its own
    values = np.asarray(total / n_anchors)

    def backward_fn(g):
        z._accumulate(float(g) * grad, own=True)

    return _make(values, (z,), backward_fn)


# ---------------------------------------------------------------------------
# scaled cosine error
# ---------------------------------------------------------------------------

def sce(x_hat, x: np.ndarray, rows: np.ndarray, gamma: float) -> Tensor:
    """Scaled cosine error (Hou et al. 2022): the mean over i of
    (1 - cos(x_hat[i], x[rows[i]]))^gamma, for ``gamma`` > 0.

    ``x_hat`` (m, p) holds the reconstructions of the cells ``rows`` indexes
    in ``x`` (n, p). A pair with a zero-norm vector contributes cos = 0 (a
    term of 1) with a warning and takes no gradient. A term whose 1 - cos
    rounds to 0 or below is clamped to 0, and its gradient is exactly 0
    whatever ``gamma``.

    The gradient is closed-form, row by row: with u = 1 - cos, d u^gamma /
    d cos = -gamma u^(gamma - 1), and cos = dot / (|x_hat| |x|) with dot =
    <x_hat, x> and |x_hat| = (|x_hat|^2)^0.5. The forward keeps only per-row
    scalars (the dot product, |x_hat|^2, |x|, the norms' product, u and
    which terms take a gradient); the backward gathers the target rows from
    ``x`` again, so no (m, p) array is held between the two. The row sums
    over the genes run in ``DTYPE``; the per-row scalars and the sum over
    the m cells are float64, and the two per-row factors of the gradient
    are cast to ``DTYPE`` before they scale (m, p) rows.
    """
    x_hat = as_tensor(x_hat)
    x = np.asarray(x, dtype=DTYPE)
    rows = np.asarray(rows, dtype=np.intp)
    xh = x_hat.values
    m = rows.size
    target = x[rows]
    dot = (xh * target).sum(axis=1).astype(np.float64)
    squares = (xh * xh).sum(axis=1).astype(np.float64)
    norm_x = np.sqrt((target * target).sum(axis=1).astype(np.float64))
    norms = squares ** 0.5 * norm_x
    degenerate = norms == 0.0
    n_degenerate = int(degenerate.sum())
    if n_degenerate:
        warnings.warn(f"sce: {n_degenerate} masked pair(s) with zero norm use cos=0",
                      RuntimeWarning, stacklevel=3)
    cos = np.zeros(m)
    np.divide(dot, norms, out=cos, where=~degenerate)
    u = 1.0 - cos
    live = (u > 0.0) & ~degenerate           # the terms that take a gradient
    terms = np.where(u > 0.0, u, 0.0) ** gamma
    total = np.sum(terms[~degenerate] if n_degenerate else terms) + float(n_degenerate)
    values = np.asarray(total * (1.0 / m))

    def backward_fn(g):
        # on the live rows alone: elsewhere every factor is exactly 0
        i = np.flatnonzero(live)
        dcos = -(g * (1.0 / m) * gamma) * u[i] ** (gamma - 1.0)     # d loss / d cos
        ddot = np.zeros(m)
        ddot[i] = dcos / norms[i]                                    # d loss / d dot
        dnorm = -dcos * dot[i] / (norms[i] * norms[i]) * norm_x[i]   # d loss / d |x_hat|
        dsquares = np.zeros(m)
        dsquares[i] = dnorm * 0.5 * squares[i] ** -0.5              # d loss / d |x_hat|^2
        # d dot / d x_hat = x, d |x_hat|^2 / d x_hat = 2 x_hat: the second
        # term is added twice, not doubled, and after the first, as a
        # composite of generic ops adds them, so the two agree bit for bit
        grad = x[rows]                   # the target rows, gathered again
        grad *= ddot.astype(DTYPE)[:, None]
        half = xh * dsquares.astype(DTYPE)[:, None]
        grad += half
        grad += half
        x_hat._accumulate(grad, own=True)

    return _make(values, (x_hat,), backward_fn)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = as_tensor(a)
    positive = a.values > 0
    values = np.where(positive, a.values, slope * a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * np.where(positive, 1.0, slope).astype(DTYPE), own=True)

    return _make(values, (a,), backward_fn)


def elu(a) -> Tensor:
    """ELU with alpha = 1: x above 0, exp(x) - 1 elsewhere."""
    a = as_tensor(a)
    positive = a.values > 0
    values = np.minimum(a.values, 0.0)
    np.expm1(values, out=values)
    np.copyto(values, a.values, where=positive)

    def backward_fn(g):
        if a.requires_grad:
            # exp(x) = values + 1 below 0, so only the output and the mask are kept
            deriv = values + 1.0
            np.copyto(deriv, 1.0, where=positive)
            a._accumulate(g * deriv, own=True)

    return _make(values, (a,), backward_fn)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` with each row scaled to unit Euclidean norm, in ``x``'s dtype,
    and the (rows, 1) norms it divided by, floored at 1e-12 so zero rows
    stay zero."""
    safe = np.maximum(np.sqrt((x * x).sum(axis=1, keepdims=True)), 1e-12)
    return x / safe, safe


def l2_normalize_rows(a) -> Tensor:
    """Normalize each row to unit Euclidean norm, as ``unit_rows``."""
    a = as_tensor(a)
    values, safe = unit_rows(a.values)

    def backward_fn(g):
        if a.requires_grad:
            dots = (g * a.values).sum(axis=-1, keepdims=True)
            a._accumulate(g / safe - a.values * dots / (safe ** 3), own=True)

    return _make(values, (a,), backward_fn)


# ---------------------------------------------------------------------------
# convolution, pooling, batch normalization
# ---------------------------------------------------------------------------

def _conv_same(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stride-1 3x3 "same" convolution of NCHW ``x`` by ``w``, and its
    (C * 9, N * H * W) patch matrix: channel-major, so the convolution is
    ``w.reshape(cout, -1) @ cols`` and each copied run is one output row of
    one image."""
    x = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    n, c, h, wd = x.shape
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (c, 3, 3, n, h - 2, wd - 2), (s1, s2, s3, s0, s2, s3), writeable=False
    )
    cols = np.ascontiguousarray(windows).reshape(c * 9, -1)
    out = w.reshape(w.shape[0], -1) @ cols
    return out.reshape(-1, n, h - 2, wd - 2).transpose(1, 0, 2, 3), cols


def conv2d(x, w) -> Tensor:
    """Stride-1 3x3 "same" convolution without bias, NCHW layout."""
    x, w = as_tensor(x), as_tensor(w)
    values, cols = _conv_same(x.values, w.values)

    def backward_fn(g):
        if w.requires_grad:
            g2 = g.transpose(1, 0, 2, 3).reshape(w.shape[0], -1)
            w._accumulate((g2 @ cols.T).reshape(w.shape), own=True)
        if x.requires_grad:
            # g convolved with the rotated, channel-swapped kernel
            w_rot = w.values[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            x._accumulate(_conv_same(g, w_rot)[0], own=True)

    return _make(values, (x, w), backward_fn)


def maxpool2(x) -> Tensor:
    """2x2 max pooling with stride 2; trailing odd rows/columns are dropped."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    hp, wp = h // 2, w // 2
    if hp == 0 or wp == 0:
        raise ValueError(f"maxpool2 input spatial dims too small: {x.shape}")
    windows = (
        x.values[:, :, : 2 * hp, : 2 * wp]
        .reshape(n, c, hp, 2, wp, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, hp, wp, 4)
    )
    idx = windows.argmax(axis=-1)
    values = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]

    def backward_fn(g):
        if not x.requires_grad:
            return
        # each window's gradient at its winner, (n, c, hp, 2, wp, 2)
        g4 = np.where(idx[..., None] == np.arange(4), g[..., None], 0.0)
        g4 = g4.reshape(g.shape + (2, 2)).swapaxes(-3, -2)
        gx = np.zeros(x.shape, dtype=DTYPE)
        gx[..., : 2 * hp, : 2 * wp] = g4.reshape(n, c, 2 * hp, 2 * wp)
        x._accumulate(gx, own=True)

    return _make(values, (x,), backward_fn)


# batch normalization's eps, for conv_block and the reference batch_norm
_BN_EPS = 1e-5
# conv_block's leaky-ReLU slope; pooling before the batch statistics needs
# 0 <= slope <= 1
_CNN_SLOPE = 0.01


def batch_norm(x, gamma, beta) -> Tensor:
    """Batch normalization of NCHW ``x`` per channel, by the statistics of
    the batch at hand."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    axes = (0, 2, 3)
    gv = gamma.values.reshape(1, -1, 1, 1)
    m = x.size // x.shape[1]
    mu = x.values.mean(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(x.values.var(axis=axes, keepdims=True) + _BN_EPS)
    xhat = (x.values - mu) * inv_std
    values = gv * xhat + beta.values.reshape(1, -1, 1, 1)

    def backward_fn(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=axes), own=True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes), own=True)
        if x.requires_grad:
            gxhat = g * gv
            term = (gxhat.sum(axis=axes, keepdims=True)
                    + xhat * (gxhat * xhat).sum(axis=axes, keepdims=True))
            x._accumulate(inv_std * (gxhat - term / m), own=True)

    return _make(values, (x, gamma, beta), backward_fn)


# Cells per block of conv_block: its largest buffers are the block's
# (9 * cin, H * W * b) patch matrix and (C, H * W * b) channels, never
# N * H * W wide. A block spans about _BLOCK_POSITIONS map positions, within
# 16 to _CELL_BLOCK cells: 128 cells on maps of up to 11 x 11, 64 at 16 x 16,
# 16 from 32 x 32 on (smaller blocks cost more in per-block calls than
# they save in cache misses).
_CELL_BLOCK = 128
_BLOCK_POSITIONS = 16384


def _cell_blocks(n: int, h: int, w: int) -> list[tuple[int, int]]:
    """The (lo, hi) cell ranges conv_block walks for n cells of h x w maps."""
    size = min(_CELL_BLOCK, max(16, _BLOCK_POSITIONS // (h * w)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _pool_order(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each of the h * w positions in the order conv_block
    lays them out: the top-left entry of every 2x2 pooling window, then the
    top-right, bottom-left and bottom-right entries, then the trailing odd
    row and column that pooling drops."""
    rows, cols = np.indices((h, w))
    hp, wp = h // 2, w // 2
    dropped = np.ones((h, w), dtype=bool)
    dropped[:2 * hp, :2 * wp] = False
    corners = [(slice(r, 2 * hp, 2), slice(c, 2 * wp, 2)) for r in (0, 1) for c in (0, 1)]
    return tuple(np.concatenate([*(a[s].ravel() for s in corners), a[dropped]])
                 for a in (rows, cols))


def _padded_block(x: np.ndarray, lo: int, hi: int, masked: np.ndarray) -> np.ndarray:
    """Cells ``lo:hi`` of NCHW ``x`` as a zero-padded cell-last (C, H + 2,
    W + 2, hi - lo) block; the cells in the sorted index array ``masked``
    read as all-zero maps."""
    _, c, h, w = x.shape
    padded = np.zeros((c, h + 2, w + 2, hi - lo), dtype=x.dtype)
    padded[:, 1:-1, 1:-1] = x[lo:hi].transpose(1, 2, 3, 0)
    a, b = np.searchsorted(masked, (lo, hi))
    padded[..., masked[a:b] - lo] = 0.0
    return padded


def _block_patches(padded: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(C * 9, P * B) patch matrix of a stride-1 3x3 "same" convolution of a
    (C, H + 2, W + 2, B) padded cell-last block at the P output positions
    (rows, cols): column p * B + b is cell b's patch at position p, with
    rows ordered (channel, kernel row, kernel column) like ``w.reshape(cout, -1)``."""
    dr, dc = np.divmod(np.arange(9), 3)
    patches = padded[:, rows + dr[:, None], cols + dc[:, None]]      # (C, 9, P, B)
    return patches.reshape(-1, rows.size * padded.shape[-1])


def conv_block(maps, w, gamma, beta, fc_w, fc_b, masked=None) -> Tensor:
    """The CNN in one op: stride-1 3x3 "same" convolution (no bias) of the
    NCHW ``maps``, batch normalization per channel, leaky ReLU, 2x2 max
    pooling and the linear head ``(fc_w, fc_b)``.

    The same function as ``maxpool2(leaky_relu(batch_norm(conv2d(maps, w),
    gamma, beta)))`` flattened to (N, C * H//2 * W//2), times ``fc_w``, plus
    ``fc_b``: the (N, embed) embedding, with the cells indexed by ``masked``
    read as all-zero maps, so training masks the maps without copying them.
    The maps are a plain array and take no gradient. Pooling drops trailing
    odd rows and columns, and the leaky ReLU's slope is the module constant
    ``_CNN_SLOPE``. Batch normalization has one mode, as in ``batch_norm``:
    every call normalizes by the statistics of its own N cells, with the
    module constant ``_BN_EPS`` as eps, and keeps no running averages.

    The cells are walked in the blocks of ``_cell_blocks``, cell-last, with
    each pooling window's four entries in four contiguous runs; a block's patch
    matrix and convolution are the only buffers wider than the output. The
    activation never falls as gamma * conv rises, so one pass pools gamma *
    conv, keeping each window's winner (its first maximum in window order,
    as in ``maxpool2``, so all-zero maps tie to the first entry) and the
    convolution there; up to rounding that is the activation's winner. The
    same pass merges, over the blocks, each channel's mean and
    centred sum of squares, the patch mean s and the channel-patch co-moment
    C = sum_p (y_p - mean) p^T = w G, with G the centred patch Gram matrix
    (the pairwise update of Chan, Golub & LeVeque). The convolution at each
    winner goes straight into the pooled maps, where normalization, gamma,
    beta and the activation then run in place on the winners alone.

    Kept for the backward: the pooled maps and the int8 winners, plus s, C
    and the statistics; no normalized value is kept. The backward is one
    walk over the same cell blocks. Each block's pooled gradient is formed
    there, as its slice of the upstream gradient times fc_w^T, then moved
    cell-last and through the leaky ReLU, so no (N, C * H//2 * W//2)
    gradient exists; fc_w's gradient is the one full product pooled^T g
    over all cells, and fc_b's the column sums of g. The walk sums the beta
    gradient and D = sum_p dy_p p^T, the product of the patches, re-read
    from ``maps``, with dy, the batch-norm output's gradient (the pooled
    gradient through the leaky ReLU and the pooling, zero off the winners).
    The gamma gradient is closed-form in D (Ioffe & Szegedy 2015): sum_p
    dy_p xhat_p = inv_std * (sum_k wm[:, k] * D[:, k] - mu * dbeta), with wm
    the (cout, 9 * cin) weight matrix, since y = wm p. So are the weight
    gradient's batch-statistics terms, in s and C, so the convolution is not
    recomputed for either. The backward's buffers are those of one block,
    whatever N.
    """
    w, gamma, beta = as_tensor(w), as_tensor(gamma), as_tensor(beta)
    fc_w, fc_b = as_tensor(fc_w), as_tensor(fc_b)
    maps = np.asarray(maps, dtype=DTYPE)
    cout, cin, kh, kw = w.shape
    if (kh, kw) != (3, 3):
        raise ValueError(f"conv_block expects a 3x3 kernel, got {w.shape}")
    if maps.ndim != 4 or maps.shape[1] != cin:
        raise ValueError(f"conv_block maps shape {maps.shape} incompatible with kernel {w.shape}")
    n, _, h, wd = maps.shape
    hp, wp = h // 2, wd // 2
    if hp == 0 or wp == 0:
        raise ValueError(f"conv_block maps spatial dims too small: {maps.shape}")
    masked = _masked_cells(masked, n, "conv_block")
    m = n * h * wd
    wm = w.values.reshape(cout, -1)
    k = wm.shape[1]
    rows, cols = _pool_order(h, wd)
    windows = 4 * hp * wp                                      # positions that pooling reads
    blocks = _cell_blocks(n, h, wd)

    # the activation leaky(gamma * (y - mu) * inv_std + beta) never falls as
    # gamma * y rises (inv_std > 0, slope >= 0), so pooling gamma * y finds
    # its winners before the batch statistics are known; the pooled maps
    # hold y at the winners until they are
    winner = np.empty((cout, hp, wp, n), dtype=np.int8)
    pooled = np.empty((n, cout, hp, wp), dtype=DTYPE)
    act = pooled.transpose(1, 2, 3, 0)                         # cell-last view
    # batch statistics, merged over blocks: channel means and centred sums
    # of squares, patch means and the channel-patch co-moment sum (y - mu) p^T
    y_mean, m2, count = np.zeros(cout), np.zeros(cout), 0
    p_mean, comoment = np.zeros(k), np.zeros((cout, k))
    for lo, hi in blocks:
        b = hi - lo
        patches = _block_patches(_padded_block(maps, lo, hi, masked), rows, cols)
        y = wm @ patches                                       # (cout, h * wd * b)
        # ">" keeps the first maximum, so the winner index 2 * row + column
        # is maxpool2's argmax: compare within each row, then the row maxima
        corners = y[:, :windows * b].reshape(cout, 4, hp, wp, b)
        tl, tr, bl, br = np.moveaxis(corners * gamma.values[:, None, None, None, None], 1, 0)
        right_top, right_bottom = tr > tl, br > bl
        row_win = np.maximum(bl, br) > np.maximum(tl, tr)
        block_winner = np.where(row_win, right_bottom, right_top).view(np.int8)
        block_winner += 2 * row_win.view(np.int8)
        winner[..., lo:hi] = block_winner
        act[..., lo:hi] = np.where(row_win,
                                   np.where(right_bottom, corners[:, 3], corners[:, 2]),
                                   np.where(right_top, corners[:, 1], corners[:, 0]))
        # pairwise update of Chan, Golub & LeVeque (1979); sum (y - mean) = 0
        # within the block, so its co-moment needs no centred patches
        size = y.shape[1]
        block_mean = y.mean(axis=1)
        y -= block_mean[:, None]
        block_p_mean = patches.mean(axis=1)
        shift, p_shift = block_mean - y_mean, block_p_mean - p_mean
        weight = count * size / (count + size)
        m2 += np.einsum("ij,ij->i", y, y) + shift * shift * weight
        comoment += y @ patches.T + np.outer(shift, p_shift) * weight
        count += size
        y_mean += shift * (size / count)
        p_mean += p_shift * (size / count)

    mu, var = y_mean, m2 / m
    inv_std = 1.0 / np.sqrt(var + _BN_EPS)
    # normalize, scale and shift the winners in place, the float64
    # statistics cast to DTYPE
    pooled -= mu.astype(DTYPE)[:, None, None]
    pooled *= inv_std.astype(DTYPE)[:, None, None]
    pooled *= gamma.values[:, None, None]
    pooled += beta.values[:, None, None]
    np.multiply(pooled, _CNN_SLOPE, out=pooled, where=pooled < 0)   # leaky ReLU
    values = pooled.reshape(n, -1) @ fc_w.values
    values += fc_b.values

    def backward_fn(g):
        # float64 sums over the cells
        dbeta = np.zeros(cout)
        dy_patches = np.zeros((cout, k))                       # D = sum of dy * patch^T

        def block_grad(lo, hi):
            # cells lo:hi of the pooled gradient, through the linear head,
            # cell-last (cout, hp, wp, b) and through the leaky ReLU (the
            # winner's sign is the pooled value's); and the block's patches
            # with the convolution's gradient dy, zero off the winners
            b = hi - lo
            upstream = (g[lo:hi] @ fc_w.values.T).reshape(b, cout, hp, wp)
            cells = np.ascontiguousarray(upstream.transpose(1, 2, 3, 0))
            np.multiply(cells, _CNN_SLOPE, out=cells, where=act[..., lo:hi] <= 0)
            patches = _block_patches(_padded_block(maps, lo, hi, masked), rows, cols)
            is_winner = winner[:, None, ..., lo:hi] == np.arange(4)[:, None, None, None]
            dy = np.zeros((cout, h * wd * b), dtype=DTYPE)
            corners = dy[:, :windows * b].reshape(cout, 4, hp, wp, b)
            np.multiply(cells[:, None], is_winner, out=corners)
            return cells, patches, dy

        for lo, hi in blocks:
            cells, patches, dy = block_grad(lo, hi)
            dbeta += cells.sum(axis=(1, 2, 3))
            dy_patches += dy @ patches.T
            del cells, patches, dy                             # one block's buffers at a time
        # sum_p dy_p y_p = sum_k wm[:, k] D[:, k] and sum_p dy_p = dbeta
        dgamma = inv_std * (np.einsum("ck,ck->c", wm, dy_patches) - mu * dbeta)
        if gamma.requires_grad:
            gamma._accumulate(dgamma.astype(DTYPE), own=True)
        if beta.requires_grad:
            beta._accumulate(dbeta.astype(DTYPE), own=True)
        if w.requires_grad:
            # sum_p xhat_p p^T = inv_std * comoment and sum_p p^T = m * p_mean^T
            dy_patches -= (dgamma * inv_std / m)[:, None] * comoment
            dy_patches -= dbeta[:, None] * p_mean
            scale = gamma.values * inv_std
            w._accumulate((scale[:, None] * dy_patches).reshape(w.shape).astype(DTYPE), own=True)
        if fc_w.requires_grad:
            fc_w._accumulate(pooled.reshape(n, -1).T @ g, own=True)
        if fc_b.requires_grad:
            fc_b._accumulate(g.sum(axis=0, dtype=np.float64).astype(DTYPE), own=True)

    return _make(values, (w, gamma, beta, fc_w, fc_b), backward_fn)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(root: Tensor, seed: np.ndarray | None = None) -> None:
    """Reverse-mode gradient accumulation from ``root`` into every reachable
    tensor with ``requires_grad=True``.

    ``seed``, of the root's shape, is the upstream gradient at ``root``.
    Without it, ``root`` is a scalar loss, seeded with d loss / d loss = 1.
    Each reached leaf's ``grad`` has the leaf's shape.

    Raises if ``root`` is not scalar without a seed, if ``seed`` does not
    have the root's shape, or if called twice on the same root. An op's output is made after its parents, so the graph holds no
    cycle.
    """
    if seed is None:
        if root.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {root.shape}")
        seed = np.ones(root.shape)
    if seed.shape != root.shape:
        raise ValueError(f"seed of shape {seed.shape} does not match "
                         f"the root's shape {root.shape}")
    if root._backward_done:
        raise RuntimeError("backward already ran for this tensor")

    order: list[Tensor] = []
    finished: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            finished.add(id(node))
            order.append(node)
            continue
        if id(node) in finished:
            continue
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in finished:
                stack.append((parent, False))

    # reset op outputs (not leaves): a backward that stopped midway leaves
    # unconsumed intermediate gradients that must not leak into this one
    for node in order:
        if node._backward_fn is not None:
            node.grad = None

    root._backward_done = True
    root._accumulate(seed)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            # consumed: free it now rather than holding a gradient per
            # intermediate tensor until the next backward
            node.grad = None

"""Minimal reverse-mode automatic differentiation over dense numpy buffers.

Tensors wrap float64 arrays and record the operations that produced them;
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
features array. A hidden layer's ELU runs inside the op. It returns the
layer output only and keeps, for the backward, only its attention weights,
their scores' signs and the ELU's sign mask: the projection and each head's
sparse matrix are built where a product needs them, in the forward and
again in the backward. Like the CNN block, it reads the cells it is handed
as masked as zero rows, so masking copies nothing.

A CNN block is one fused op, ``conv_block``: a bias-free 3x3 convolution,
batch normalization, leaky ReLU and 2x2 max pooling over cells in blocks of
``_cell_blocks``, so no op holds an N*H*W x channels array; the last block
also applies the linear head. Its batch norm always uses the exact
statistics of the batch at hand: the model trains full-batch and embeds the
cells it trained on, so no running averages are kept. One pass per block
convolves, pools (the activation is monotone in gamma * conv, so its
winners are known before the statistics) and merges the channel means and
variances and the channel-patch co-moment over the blocks; normalization
and activation then run on the winners alone. The backward keeps only the
pooled output and the int8 winner of each pooling window plus those
statistics, which give the weight gradient in closed form; only an input
that needs a gradient recomputes its blocks' convolutions. The backward
walks the same blocks, and takes each block's pooled gradient through the
head there: apart from the input gradient it returns, no buffer it makes
grows with N.

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

import os
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_matrix

# CELLSCAPE_DEBUG=1: NaN/Inf checks after every forward and backward step
_DEBUG = bool(os.environ.get("CELLSCAPE_DEBUG"))


def _check_finite(arr: np.ndarray, where: str) -> None:
    if _DEBUG and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values produced by {where}")


class Tensor:
    """A dense float64 tensor with optional gradient tracking."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward_fn", "_backward_done")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
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
        # read it, so first-touch can take it without a copy
        if self.grad is None:
            self.grad = grad if own else np.array(grad, dtype=np.float64)
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


def _make(values: np.ndarray, parents: Sequence[Tensor], backward_fn, where: str) -> Tensor:
    """Create an op output, recording the graph only if a parent needs grads."""
    _check_finite(values, where)
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

    return _make(values, (a, b), backward_fn, "add")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values * b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.shape), own=True)

    return _make(values, (a, b), backward_fn, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    values = a.values / b.values

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.values, a.shape), own=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.values / (b.values * b.values), b.shape), own=True)

    return _make(values, (a, b), backward_fn, "div")


def power(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    values = a.values ** p

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * p * a.values ** (p - 1.0), own=True)

    return _make(values, (a,), backward_fn, "power")


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

    return _make(values, (a, b), backward_fn, "matmul")


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("transpose expects a 2D tensor")

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.T.copy(), own=True)

    return _make(a.values.T.copy(), (a,), backward_fn, "transpose")


def exp(a) -> Tensor:
    a = as_tensor(a)
    values = np.exp(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * values, own=True)

    return _make(values, (a,), backward_fn, "exp")


def log(a) -> Tensor:
    a = as_tensor(a)
    values = np.log(a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g / a.values, own=True)

    return _make(values, (a,), backward_fn, "log")


def tensor_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    values = a.values.sum(axis=axis, keepdims=keepdims)
    # the output's shape with the summed axes kept, which g reshapes to
    summed = range(a.ndim) if axis is None else (axis % a.ndim,)
    kept = tuple(1 if i in summed else s for i, s in enumerate(a.shape))

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g.reshape(kept), a.shape).copy(), own=True)

    return _make(values, (a,), backward_fn, "sum")


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    axis %= values.ndim
    sizes = [t.shape[axis] for t in tensors]

    def backward_fn(g):
        for t, part in zip(tensors, np.split(g, np.cumsum(sizes)[:-1], axis=axis)):
            if t.requires_grad:
                t._accumulate(part)

    return _make(values, tensors, backward_fn, "concat")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    values = a.values.reshape(shape)

    def backward_fn(g):
        # a view of g: the walk drops the output's gradient once this returns
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape), own=True)

    return _make(values, (a,), backward_fn, "reshape")


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("slice_cols expects a 2D tensor")

    def backward_fn(g):
        if a.requires_grad:
            full = np.zeros(a.shape)
            full[:, start:stop] = g
            a._accumulate(full, own=True)

    return _make(a.values[:, start:stop].copy(), (a,), backward_fn, "slice_cols")


def _sorted_row_sums(rows: np.ndarray, sorted_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Sums of ``rows`` grouped by pre-sorted integer ids (reduceat is much
    faster than np.add.at for the edge-sized arrays used here)."""
    out = np.zeros((num_segments,) + rows.shape[1:])
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

    return _make(a.values[idx], (a,), backward_fn, "gather_rows")


def segment_sum(a, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given per-row segment
    ids, which must be sorted ascending."""
    a = as_tensor(a)
    seg = np.asarray(segment_ids, dtype=np.intp)
    values = _sorted_row_sums(a.values, seg, num_segments)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g[seg], own=True)

    return _make(values, (a,), backward_fn, "segment_sum")


# ---------------------------------------------------------------------------
# graph attention
# ---------------------------------------------------------------------------

# Entries per block of the edge-score backward's two gather buffers
# together (512 KiB of float64): a block takes _EDGE_ENTRIES // (senders'
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


def gat_attention(h, W, a_center: Sequence[Tensor], a_neighbor: Sequence[Tensor], edges,
                  slope: float, average: bool, masked=None, apply_elu: bool = False) -> Tensor:
    """Multi-head graph attention (Velickovic et al. 2018) of the layer
    input ``h`` (n, f) projected by ``W`` (f, heads * d), all heads in one
    op; with ``W`` None, ``h`` is itself the (n, heads * d) projection (the
    decoder attends in the embedding space).

    ``edges`` holds the attention pairs in CSR order: ``dst`` and ``src``
    arrays sorted by receiver and row pointers ``indptr`` with every row
    non-empty (``spatial_graph.DirectedEdges``). With ``hw = h @ W``, head
    ``k`` scores pair (i <- j) as leaky_relu(hw_k[i] . a_center[k] +
    hw_k[j] . a_neighbor[k]), softmax-normalizes the scores per receiver and
    aggregates sum_j alpha_ij hw_k[j] as one sparse product. Heads are
    concatenated, or averaged when ``average`` is set; ``apply_elu`` then
    applies an ELU (alpha = 1), as a hidden layer does. The rows of ``hw``
    indexed by ``masked`` read as zeros (their input gradient is zero), so
    training masks the projection without copying it.

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
    heads = len(a_center)

    def project() -> np.ndarray:
        return h.values if W is None else h.values @ W.values

    feats = project()
    n, width = feats.shape
    d = width // heads
    feats = feats.reshape(n, heads, d)
    masked = _masked_cells(masked, n, "gat_attention")
    dst, src, indptr = edges.dst, edges.src, edges.indptr
    starts = indptr[:-1]
    ac = np.stack([a.values.reshape(d) for a in a_center])
    an = np.stack([a.values.reshape(d) for a in a_neighbor])
    # pairs whose sender is masked: its zero row adds nothing to the aggregate
    silent = None
    if masked.size:
        silent = np.zeros(n, dtype=bool)
        silent[masked] = True
        silent = silent[src]

    center = np.einsum("nhd,hd->nh", feats, ac)
    neighbor = np.einsum("nhd,hd->nh", feats, an)
    center[masked] = 0.0
    neighbor[masked] = 0.0
    raw = center[dst] + neighbor[src]                            # (E, heads)
    positive = raw > 0
    scores = np.where(positive, raw, slope * raw)
    ex = np.exp(scores - np.maximum.reduceat(scores, starts, axis=0)[dst])
    alpha = ex / np.add.reduceat(ex, starts, axis=0)[dst]
    del center, neighbor, raw, scores, ex

    def adjacency(k):
        # head k's (n, n) attention matrix, receivers by senders
        weights = np.array(alpha[:, k])
        if silent is not None:
            weights[silent] = 0.0
        return csr_matrix((weights, src, indptr), shape=(n, n))

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
        feats = project().reshape(n, heads, d)
        # d loss / d alpha for every pair: <g_k[dst], hw_k[src]>, by blocks of edges
        # (one pair of gather buffers, reused by every block)
        step = max(1, _EDGE_ENTRIES // (width + grads.shape[1] * d))
        dscores = np.empty(alpha.shape)
        senders = np.empty((min(step, dst.size), heads, d))
        receivers = np.empty((senders.shape[0],) + grads.shape[1:])
        for lo in range(0, dst.size, step):
            hi = min(lo + step, dst.size)
            np.take(feats, src[lo:hi], axis=0, out=senders[:hi - lo], mode="clip")
            np.take(grads, dst[lo:hi], axis=0, out=receivers[:hi - lo], mode="clip")
            np.einsum("ehd,ehd->eh", receivers[:hi - lo], senders[:hi - lo], out=dscores[lo:hi])
        del senders, receivers
        if silent is not None:
            dscores[silent] = 0.0
        # softmax, then leaky-ReLU backward, in place; the segment maximum cancels
        dscores *= alpha
        spread = np.add.reduceat(dscores, starts, axis=0)[dst]          # (E, heads)
        spread *= alpha
        dscores -= spread
        del spread
        dscores *= np.where(positive, 1.0, slope)
        dcenter = np.add.reduceat(dscores, starts, axis=0)               # (n, heads)
        dneighbor = np.array([np.bincount(src, weights=dscores[:, k], minlength=n)
                              for k in range(heads)]).T
        del dscores                          # only the per-cell sums are read from here on
        # a masked row reads as zero, so it neither scores nor takes a gradient
        dcenter[masked] = 0.0
        dneighbor[masked] = 0.0
        for params, dscore in ((a_center, dcenter), (a_neighbor, dneighbor)):
            for k, a in enumerate(params):
                if a.requires_grad:
                    a._accumulate((feats[:, k].T @ dscore[:, k]).reshape(d, 1), own=True)
        # the projection is read no more: its gradient is built without it
        del feats
        weight_grad = W is not None and W.requires_grad
        if not (h.requires_grad or weight_grad):
            return
        # head by head, so no temporary is wider than one head's (n, d)
        dfeats = np.empty((n, heads, d))
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

    parents = (h, *a_center, *a_neighbor) if W is None else (h, W, *a_center, *a_neighbor)
    return _make(values, parents, backward_fn, "gat_attention")


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
    exponentiates its row-max-shifted similarities in one buffer and, when
    ``z`` needs a gradient, turns that buffer into d loss / d similarity and
    adds both matmul terms to one cached (n, d) gradient; the backward only
    scales it. No anchors x n array is ever held.
    """
    z = as_tensor(z)
    zv = z.values
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
        den = ex @ degree
        e0, e1 = np.searchsorted(rows, (lo, hi))
        r, c = rows[e0:e1] - lo, cols[e0:e1]
        pair = ex[r, c]
        num = _sorted_row_sums(pair, r, hi - lo)
        total += float(np.sum(np.log(den) - np.log(num)))
        if grad is not None:
            # d loss / d similarity, in place: (exp * deg / den - [pair] exp / num) / m
            ex *= degree
            ex /= (n_anchors * den)[:, None]
            ex[r, c] -= pair / (n_anchors * num[r])
            grad[block] += (ex @ zv) * inv_tau
            grad += ex.T @ scaled
        del scaled, ex      # before the next block allocates its own
    values = np.asarray(total / n_anchors)

    def backward_fn(g):
        z._accumulate(g * grad, own=True)

    return _make(values, (z,), backward_fn, "contrastive")


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
    ``x`` again, so no (m, p) array is held between the two.
    """
    x_hat = as_tensor(x_hat)
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    xh = x_hat.values
    m = rows.size
    target = x[rows]
    dot = (xh * target).sum(axis=1)
    squares = (xh * xh).sum(axis=1)
    norm_x = np.sqrt((target * target).sum(axis=1))
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
        grad *= ddot[:, None]
        half = xh * dsquares[:, None]
        grad += half
        grad += half
        x_hat._accumulate(grad, own=True)

    return _make(values, (x_hat,), backward_fn, "sce")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def leaky_relu(a, slope: float = 0.01) -> Tensor:
    a = as_tensor(a)
    positive = a.values > 0
    values = np.where(positive, a.values, slope * a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * np.where(positive, 1.0, slope), own=True)

    return _make(values, (a,), backward_fn, "leaky_relu")


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

    return _make(values, (a,), backward_fn, "elu")


def l2_normalize_rows(a) -> Tensor:
    """Normalize each row to unit Euclidean norm (norms are floored at
    1e-12, so zero rows stay zero)."""
    a = as_tensor(a)
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, 1e-12)
    values = a.values / safe

    def backward_fn(g):
        if a.requires_grad:
            dots = (g * a.values).sum(axis=-1, keepdims=True)
            a._accumulate(g / safe - a.values * dots / (safe ** 3), own=True)

    return _make(values, (a,), backward_fn, "l2_normalize_rows")


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

    return _make(values, (x, w), backward_fn, "conv2d")


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
        gx = np.zeros(x.shape)
        gx[..., : 2 * hp, : 2 * wp] = g4.reshape(n, c, 2 * hp, 2 * wp)
        x._accumulate(gx, own=True)

    return _make(values, (x,), backward_fn, "maxpool2")


# batch normalization's eps, for conv_block and the reference batch_norm
_BN_EPS = 1e-5


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

    return _make(values, (x, gamma, beta), backward_fn, "batch_norm")


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
    padded = np.zeros((c, h + 2, w + 2, hi - lo))
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


def conv_block(x, w, gamma, beta, slope: float, masked=None,
               head: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """One CNN block in one op: stride-1 3x3 "same" convolution (no bias),
    batch normalization per channel, leaky ReLU, then 2x2 max pooling.

    The same function as ``maxpool2(leaky_relu(batch_norm(conv2d(x, w), gamma, beta)))``
    with the cells indexed by ``masked`` read as all-zero maps (their input
    gradient is zero), so training masks the maps without copying them. The
    pooled output is (N, C, H//2, W//2); trailing odd rows and columns are
    dropped. Handed ``head``, the linear head ``(fc_w, fc_b)`` of the CNN's
    last block, the op returns ``pooled.reshape(N, -1) @ fc_w + fc_b``, the
    (N, embed) embedding, instead. Batch normalization has one mode, as in
    ``batch_norm``: every call normalizes by the statistics of its own N
    cells, with the module constant ``_BN_EPS`` as eps, and keeps no running
    averages.

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
    winner goes straight into the output, where normalization, gamma, beta
    and the activation then run in place on the winners alone.

    Kept for the backward: the pooled output and the int8 winners, plus s, C
    and the statistics; no normalized value is kept. The backward walks the
    same cell blocks and never copies the whole upstream gradient: each
    block's slice is moved cell-last and through the leaky ReLU on its own.
    With the head, a block's pooled gradient is formed there, as its slice
    of the upstream gradient times fc_w^T, so no (N, C * H//2 * W//2)
    gradient exists; fc_w's gradient is the one full product pooled^T g
    over all cells, and fc_b's the column sums of g. One pass sums the
    beta gradient and D = sum_p dy_p p^T, the product of the patches, re-read
    from ``x``, with dy, the batch-norm output's gradient (the upstream
    gradient through the pooling and the leaky ReLU, zero off the winners).
    The gamma gradient is closed-form in D (Ioffe & Szegedy 2015): sum_p dy_p
    xhat_p = inv_std * (sum_k wm[:, k] * D[:, k] - mu * dbeta), with wm the
    (cout, 9 * cin) weight matrix, since y = wm p. So are the weight
    gradient's batch-statistics terms, in s and C, so the convolution is not
    recomputed for either. Only an input that needs a gradient takes a second
    pass, since it needs the gamma and beta totals: it gathers each block's
    patches again and recomputes its convolution (the batch-norm backward
    needs every position's normalized value). Its input gradient is the
    adjoint of the forward's patch gather: wm^T dy', with dy' the
    convolution's gradient, is the gradient of every patch entry, and each of
    the nine kernel offsets adds its share back to the padded block where the
    gather read it; no patch matrix of the gradient is built. Apart from the
    input gradient it returns, the backward's buffers are those of one block,
    whatever N.
    """
    x, w, gamma, beta = as_tensor(x), as_tensor(w), as_tensor(gamma), as_tensor(beta)
    head = () if head is None else tuple(as_tensor(t) for t in head)
    cout, cin, kh, kw = w.shape
    if (kh, kw) != (3, 3):
        raise ValueError(f"conv_block expects a 3x3 kernel, got {w.shape}")
    if x.ndim != 4 or x.shape[1] != cin:
        raise ValueError(f"conv_block input shape {x.shape} incompatible with kernel {w.shape}")
    n, _, h, wd = x.shape
    hp, wp = h // 2, wd // 2
    if hp == 0 or wp == 0:
        raise ValueError(f"conv_block input spatial dims too small: {x.shape}")
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"conv_block leaky-ReLU slope must lie in [0, 1], got {slope}")
    masked = _masked_cells(masked, n, "conv_block")
    m = n * h * wd
    wm = w.values.reshape(cout, -1)
    k = wm.shape[1]
    rows, cols = _pool_order(h, wd)
    windows = 4 * hp * wp                                      # positions that pooling reads
    blocks = _cell_blocks(n, h, wd)

    # the activation leaky(gamma * (y - mu) * inv_std + beta) never falls as
    # gamma * y rises (inv_std > 0, slope >= 0), so pooling gamma * y finds
    # its winners before the batch statistics are known; the output holds y
    # at the winners until they are
    winner = np.empty((cout, hp, wp, n), dtype=np.int8)
    values = np.empty((n, cout, hp, wp))
    act = values.transpose(1, 2, 3, 0)                         # cell-last view
    # batch statistics, merged over blocks: channel means and centred sums
    # of squares, patch means and the channel-patch co-moment sum (y - mu) p^T
    y_mean, m2, count = np.zeros(cout), np.zeros(cout), 0
    p_mean, comoment = np.zeros(k), np.zeros((cout, k))
    for lo, hi in blocks:
        b = hi - lo
        patches = _block_patches(_padded_block(x.values, lo, hi, masked), rows, cols)
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
    # normalize, scale and shift the winners in place
    values -= mu[:, None, None]
    values *= inv_std[:, None, None]
    values *= gamma.values[:, None, None]
    values += beta.values[:, None, None]
    np.multiply(values, slope, out=values, where=values < 0)   # leaky ReLU, 0 <= slope <= 1
    pooled = values
    if head:
        fc_w, fc_b = head
        values = pooled.reshape(n, -1) @ fc_w.values
        values += fc_b.values

    def backward_fn(g):
        scale = gamma.values * inv_std
        dbeta = np.zeros(cout)
        dy_patches = np.zeros((cout, k))                       # D = sum of dy * patch^T
        dx = np.zeros(x.shape) if x.requires_grad else None

        def block_grad(lo, hi):
            # cells lo:hi of the upstream gradient, cell-last (cout, hp, wp,
            # b), through the pooling and the leaky ReLU: the winner's sign
            # is the pooled value's; and the block's patches with the
            # convolution's gradient dy, zero off the winners
            b = hi - lo
            upstream = g[lo:hi]
            if head:
                # the block's pooled gradient, through the linear head
                upstream = (upstream @ fc_w.values.T).reshape(b, cout, hp, wp)
            cells = np.empty((cout, hp, wp, b))
            np.multiply(upstream.transpose(1, 2, 3, 0),
                        np.where(act[..., lo:hi] > 0, 1.0, slope), out=cells)
            patches = _block_patches(_padded_block(x.values, lo, hi, masked), rows, cols)
            is_winner = winner[:, None, ..., lo:hi] == np.arange(4)[:, None, None, None]
            dy = np.zeros((cout, h * wd * b))
            corners = dy[:, :windows * b].reshape(cout, 4, hp, wp, b)
            np.multiply(cells[:, None], is_winner, out=corners)
            return cells, patches, dy

        def input_grad(lo, hi):
            # the block's input gradient, once dbeta and dgamma are complete
            b = hi - lo
            _, patches, dy = block_grad(lo, hi)
            # batch-norm backward (Ioffe & Szegedy 2015): the convolution
            # output's gradient is scale * (dy - xhat * dgamma / m - dbeta / m)
            xhat = wm @ patches
            xhat -= mu[:, None]
            xhat *= inv_std[:, None]
            dy -= xhat * (dgamma / m)[:, None]
            dy -= (dbeta / m)[:, None]
            dy *= scale[:, None]
            # the adjoint of the patch gather: wm.T @ dy is the gradient of
            # each patch entry, added back where the gather read it, at the
            # nine kernel offsets of the padded block
            grid = np.empty((cout, h, wd, b))                  # dy in map order
            grid[:, rows, cols] = dy.reshape(cout, -1, b)
            dpatches = (wm.T @ grid.reshape(cout, -1)).reshape(cin, 3, 3, h, wd, b)
            dpadded = np.zeros((cin, h + 2, wd + 2, b))
            for r in range(3):
                for c in range(3):
                    dpadded[:, r:r + h, c:c + wd] += dpatches[:, r, c]
            dx[lo:hi] = dpadded[:, 1:-1, 1:-1].transpose(3, 0, 1, 2)

        # one pass sums dbeta and D; the input gradient needs the dbeta and
        # dgamma totals, so only then a second pass reads the blocks again
        for lo, hi in blocks:
            cells, patches, dy = block_grad(lo, hi)
            dbeta += cells.sum(axis=(1, 2, 3))
            dy_patches += dy @ patches.T
            del cells, patches, dy                             # one block's buffers at a time
        # sum_p dy_p y_p = sum_k wm[:, k] D[:, k] and sum_p dy_p = dbeta
        dgamma = inv_std * (np.einsum("ck,ck->c", wm, dy_patches) - mu * dbeta)
        if gamma.requires_grad:
            gamma._accumulate(dgamma, own=True)
        if beta.requires_grad:
            beta._accumulate(dbeta, own=True)
        if dx is not None:
            for lo, hi in blocks:
                input_grad(lo, hi)
        if w.requires_grad:
            # sum_p xhat_p p^T = inv_std * comoment and sum_p p^T = m * p_mean^T
            dy_patches -= (dgamma * inv_std / m)[:, None] * comoment
            dy_patches -= dbeta[:, None] * p_mean
            w._accumulate((scale[:, None] * dy_patches).reshape(w.shape), own=True)
        if dx is not None:
            dx[masked] = 0.0
            x._accumulate(dx, own=True)
        if head:
            if fc_w.requires_grad:
                fc_w._accumulate(pooled.reshape(n, -1).T @ g, own=True)
            if fc_b.requires_grad:
                fc_b._accumulate(g.sum(axis=0), own=True)

    return _make(values, (x, w, gamma, beta, *head), backward_fn, "conv_block")


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
            _check_finite(node.grad, "backward")
            node._backward_fn(node.grad)
            # consumed: free it now rather than holding a gradient per
            # intermediate tensor until the next backward
            node.grad = None

"""Minimal reverse-mode automatic differentiation over dense numpy buffers.

Tensors wrap float64 arrays and record the operations that produced them;
``backward`` walks the graph in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad=True``. Only the
operations the training loop needs are implemented; all run on CPU numpy
and scipy.sparse.

Most ops are generic (elementwise, matmul, gathers, segment sums).
Graph attention is one fused op, ``gat_attention``: per-pair scores, the
per-receiver softmax and the aggregation for every head run over the
graph's CSR edge arrays, with the aggregation as a sparse product and the
pair-score backward in blocks of edges, so no op holds an edges x features
array; it returns the layer output only, its attention weights stay inside
for the backward. A CNN block is one fused op, ``conv_block``: a bias-free 3x3
convolution, batch normalization, leaky ReLU and 2x2 max pooling over cells
in blocks of ``_CELL_BLOCK``, so no op holds an N*H*W x channels array.
Training-mode batch norm keeps exact whole-batch statistics: one pass per
block convolves, pools (the activation is monotone in gamma * conv, so its
winners are known before the statistics) and merges the channel means and
variances and the channel-patch co-moment over the blocks; normalization
and activation then run on the winners alone. The backward keeps only what
is output-sized (the int8 winner of each pooling window and the normalized
value there) plus those statistics, which give the weight gradient in
closed form; only an input that needs a gradient recomputes its blocks'
convolutions (Chen et al. 2016's trade of compute for memory). The
neighbourhood contrastive loss is one fused op, ``contrastive``: it walks
the anchors in blocks of ``_ANCHOR_CHUNK``, reads each block's positive
pairs from the sorted edge arrays and builds the (n, d) gradient during the
forward, so no op holds an anchors x n array.

``slice_cols``, ``conv2d``, ``batch_norm``, ``maxpool2``, ``transpose``,
``exp``, ``log`` and ``segment_sum`` have no caller in the model. They stay
only because ``benchmark/spec.py::AUTODIFF_OPS`` names them, so the
benchmark tracer wraps them by name (the composite and dense references in
the tests are built from them too). The has-a-caller gate in
``tests/test_imports.py`` counts those names as reads and nothing else
does: an op dropped from ``AUTODIFF_OPS`` must be deleted here as well.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence

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

    def zero_grad(self) -> None:
        self.grad = None
        self._backward_done = False

    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        # ``own=True`` promises the buffer is freshly allocated and never
        # handed to another tensor, so first-touch can take it without a copy
        if self.grad is None:
            self.grad = grad if own else np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    # operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(other, mul(self, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

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
    """Reduce a broadcasted gradient back to the original operand shape."""
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


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    values = a.values.sum(axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.shape).copy())

    return _make(values, (a,), backward_fn, "sum")


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    values = np.concatenate([t.values for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward_fn(g):
        offset = 0
        for t, s in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + s)
                t._accumulate(g[tuple(index)])
            offset += s

    return _make(values, tensors, backward_fn, "concat")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(a.values.reshape(shape), (a,), backward_fn, "reshape")


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError("slice_cols expects a 2D tensor")

    def backward_fn(g):
        if a.requires_grad:
            full = np.zeros_like(a.values)
            full[:, start:stop] = g
            a._accumulate(full)

    return _make(a.values[:, start:stop].copy(), (a,), backward_fn, "slice_cols")


def _sorted_row_sums(rows: np.ndarray, sorted_ids: np.ndarray,
                     num_segments: int) -> np.ndarray:
    """Row sums grouped by pre-sorted integer ids (reduceat is much faster
    than np.add.at for the edge-sized arrays used here)."""
    out_shape = (num_segments,) + rows.shape[1:]
    out = np.zeros(out_shape, dtype=np.float64)
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
    order: list[np.ndarray] = []  # lazy argsort cache for the scatter-add

    def backward_fn(g):
        if a.requires_grad:
            if not order:
                order.append(np.argsort(idx, kind="stable"))
            perm = order[0]
            a._accumulate(_sorted_row_sums(g[perm], idx[perm], a.shape[0]), own=True)

    return _make(a.values[idx], (a,), backward_fn, "gather_rows")


def segment_sum(a, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given per-row segment ids."""
    a = as_tensor(a)
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.size and np.all(seg[1:] >= seg[:-1]):
        values = _sorted_row_sums(a.values, seg, num_segments)
    else:
        values = np.zeros((num_segments,) + a.shape[1:], dtype=np.float64)
        np.add.at(values, seg, a.values)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g[seg], own=True)

    return _make(values, (a,), backward_fn, "segment_sum")


# ---------------------------------------------------------------------------
# graph attention
# ---------------------------------------------------------------------------

# Edges per block of the edge-score backward: its temporaries are
# _EDGE_CHUNK x width instead of E x width (E x n_genes in the decoder).
_EDGE_CHUNK = 2048


def gat_attention(hw, a_center: Sequence[Tensor], a_neighbor: Sequence[Tensor], edges,
                  slope: float, average: bool) -> Tensor:
    """Multi-head graph attention (Velickovic et al. 2018) over projected
    features ``hw`` (n, heads * d), all heads in one op.

    ``edges`` holds the attention pairs in CSR order: ``dst`` and ``src``
    arrays sorted by receiver and row pointers ``indptr`` with every row
    non-empty (``spatial_graph.DirectedEdges``). Head ``k`` scores pair
    (i <- j) as leaky_relu(hw_k[i] . a_center[k] + hw_k[j] . a_neighbor[k]),
    softmax-normalizes the scores per receiver and aggregates
    sum_j alpha_ij hw_k[j] as one sparse product. Heads are concatenated, or
    averaged when ``average`` is set. The attention weights stay inside the
    op, for its backward.
    """
    hw = as_tensor(hw)
    heads = len(a_center)
    n, width = hw.shape
    d = width // heads
    dst, src, indptr = edges.dst, edges.src, edges.indptr
    starts = indptr[:-1]
    feats = hw.values.reshape(n, heads, d)
    ac = np.stack([a.values.reshape(d) for a in a_center])
    an = np.stack([a.values.reshape(d) for a in a_neighbor])

    raw = (np.einsum("nhd,hd->nh", feats, ac)[dst]
           + np.einsum("nhd,hd->nh", feats, an)[src])           # (E, heads)
    positive = raw > 0
    scores = np.where(positive, raw, slope * raw)
    ex = np.exp(scores - np.maximum.reduceat(scores, starts, axis=0)[dst])
    alpha = ex / np.add.reduceat(ex, starts, axis=0)[dst]
    adjacency = [csr_matrix((alpha[:, k], src, indptr), shape=(n, n)) for k in range(heads)]
    outs = [adjacency[k] @ feats[:, k] for k in range(heads)]
    if average:
        values = outs[0]
        for out in outs[1:]:
            values += out
        values *= 1.0 / heads
    else:
        values = np.concatenate(outs, axis=1)

    def backward_fn(g):
        # (n, heads, d), or (n, 1, d) shared by all heads when they are averaged
        grads = (g * (1.0 / heads) if average else g).reshape(n, -1, d)
        # d loss / d alpha for every pair: <g_k[dst], hw_k[src]>, by blocks of edges
        dalpha = np.empty_like(alpha)
        for lo in range(0, dst.size, _EDGE_CHUNK):
            hi = lo + _EDGE_CHUNK
            dalpha[lo:hi] = np.einsum("ehd,ehd->eh", grads[dst[lo:hi]], feats[src[lo:hi]])
        # softmax, then leaky-ReLU backward; the segment maximum cancels
        weighted = alpha * dalpha
        dscores = weighted - alpha * np.add.reduceat(weighted, starts, axis=0)[dst]
        dscores *= np.where(positive, 1.0, slope)
        dcenter = np.add.reduceat(dscores, starts, axis=0)                  # (n, heads)
        dneighbor = np.stack([np.bincount(src, weights=dscores[:, k], minlength=n)
                              for k in range(heads)], axis=1)
        if hw.requires_grad:
            dfeats = dcenter[:, :, None] * ac + dneighbor[:, :, None] * an
            per_head = np.broadcast_to(grads, (n, heads, d))
            for k in range(heads):
                dfeats[:, k] += adjacency[k].T @ np.ascontiguousarray(per_head[:, k])
            hw._accumulate(dfeats.reshape(n, width), own=True)
        for params, dscore in ((a_center, dcenter), (a_neighbor, dneighbor)):
            for k, a in enumerate(params):
                if a.requires_grad:
                    a._accumulate((feats[:, k].T @ dscore[:, k]).reshape(d, 1), own=True)

    return _make(values, (hw, *a_center, *a_neighbor), backward_fn, "gat_attention")


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


def elu(a, alpha: float = 1.0) -> Tensor:
    a = as_tensor(a)
    positive = a.values > 0
    expm = alpha * np.expm1(np.minimum(a.values, 0.0))
    values = np.where(positive, a.values, expm)

    def backward_fn(g):
        if a.requires_grad:
            a._accumulate(g * np.where(positive, 1.0, expm + alpha), own=True)

    return _make(values, (a,), backward_fn, "elu")


def l2_normalize_rows(a, eps: float = 1e-12) -> Tensor:
    """Normalize each row to unit Euclidean norm (zero rows stay zero via eps)."""
    a = as_tensor(a)
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    safe = np.maximum(norms, eps)
    values = a.values / safe

    def backward_fn(g):
        if a.requires_grad:
            dots = (g * a.values).sum(axis=1, keepdims=True)
            a._accumulate(g / safe - a.values * dots / (safe ** 3), own=True)

    return _make(values, (a,), backward_fn, "l2_normalize_rows")


# ---------------------------------------------------------------------------
# convolution, pooling, batch normalization
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, kh: int, kw: int, pad: int) -> np.ndarray:
    """Return the (C*kh*kw, N*Ho*Wo) patch matrix of a stride-1 convolution
    of NCHW ``x``: channel-major, so the convolution is ``w.reshape(cout, -1)
    @ cols`` and each copied run is one output row of one image."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    n, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (c, kh, kw, n, ho, wo), (s1, s2, s3, s0, s2, s3), writeable=False
    )
    return np.ascontiguousarray(windows).reshape(c * kh * kw, n * ho * wo)


def _conv_raw(x: np.ndarray, w: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    n, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho, wo = h + 2 * pad - kh + 1, wd + 2 * pad - kw + 1
    cols = _im2col(x, kh, kw, pad)
    out = w.reshape(cout, -1) @ cols
    return out.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3), cols


def _conv_input_grad(g: np.ndarray, w: np.ndarray, pad: int) -> np.ndarray:
    """Input gradient of a stride-1 convolution: ``g`` convolved with the
    rotated, channel-swapped kernel."""
    w_rot = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _conv_raw(g, w_rot, w.shape[2] - 1 - pad)[0]


def conv2d(x, w, b, padding: int | str = "same") -> Tensor:
    """Stride-1 2D convolution, NCHW layout; ``padding`` is "same" or an int."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    cout, cin, kh, kw = w.shape
    if x.ndim != 4 or x.shape[1] != cin:
        raise ValueError(f"conv2d input shape {x.shape} incompatible with kernel {w.shape}")
    if padding == "same":
        if kh % 2 == 0 or kw % 2 == 0:
            raise ValueError("'same' padding requires odd kernel size")
        pad = (kh - 1) // 2
    else:
        pad = int(padding)
    values, cols = _conv_raw(x.values, w.values, pad)
    values = values + b.values.reshape(1, cout, 1, 1)

    def backward_fn(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        if b.requires_grad:
            b._accumulate(g2.sum(axis=1))
        if w.requires_grad:
            w._accumulate((g2 @ cols.T).reshape(w.shape), own=True)
        if x.requires_grad:
            x._accumulate(_conv_input_grad(g, w.values, pad), own=True)

    return _make(values, (x, w, b), backward_fn, "conv2d")


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
        g4 = np.zeros((n, c, hp, wp, 4), dtype=np.float64)
        np.put_along_axis(g4, idx[..., None], g[..., None], axis=-1)
        gx = np.zeros_like(x.values)
        gx[:, :, : 2 * hp, : 2 * wp] = (
            g4.reshape(n, c, hp, wp, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, 2 * hp, 2 * wp)
        )
        x._accumulate(gx, own=True)

    return _make(values, (x,), backward_fn, "maxpool2")


class BatchNormState:
    """Running statistics for one batch-normalization layer."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)
        self.momentum = momentum
        self.eps = eps


def batch_norm(x, gamma, beta, state: BatchNormState, training: bool,
               update_running: bool = True) -> Tensor:
    """Batch normalization over (N,) or (N,H,W) per channel; NCHW or ND input."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim == 2:
        axes, pshape = (0,), (1, -1)
    elif x.ndim == 4:
        axes, pshape = (0, 2, 3), (1, -1, 1, 1)
    else:
        raise ValueError(f"batch_norm expects 2D or 4D input, got {x.shape}")
    gv = gamma.values.reshape(pshape)
    bv = beta.values.reshape(pshape)
    m = int(np.prod([x.shape[a] for a in axes]))

    if training:
        mu = x.values.mean(axis=axes, keepdims=True)
        var = x.values.var(axis=axes, keepdims=True)
        if update_running:
            unbiased = var.reshape(-1) * (m / max(m - 1, 1))
            state.running_mean += state.momentum * (mu.reshape(-1) - state.running_mean)
            state.running_var += state.momentum * (unbiased - state.running_var)
    else:
        mu = state.running_mean.reshape(pshape)
        var = state.running_var.reshape(pshape)

    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = (x.values - mu) * inv_std
    values = gv * xhat + bv

    def backward_fn(g):
        if gamma.requires_grad:
            gamma._accumulate((g * xhat).sum(axis=axes), own=True)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=axes))
        if x.requires_grad:
            gxhat = g * gv
            if training:
                term = gxhat.sum(axis=axes, keepdims=True) + xhat * (gxhat * xhat).sum(
                    axis=axes, keepdims=True
                )
                x._accumulate(inv_std * (gxhat - term / m), own=True)
            else:
                x._accumulate(gxhat * inv_std, own=True)

    return _make(values, (x, gamma, beta), backward_fn, "batch_norm")


# Cells per block of conv_block: its largest buffers are the block's
# (9 * cin, H * W * _CELL_BLOCK) patch matrix and (C, H * W * _CELL_BLOCK)
# channels, never N * H * W wide.
_CELL_BLOCK = 128


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


def conv_block(x, w, gamma, beta, state: BatchNormState, training: bool,
               slope: float, masked=None) -> Tensor:
    """One CNN block in one op: stride-1 3x3 "same" convolution (no bias),
    batch normalization per channel, leaky ReLU, then 2x2 max pooling.

    The same function as ``maxpool2(leaky_relu(batch_norm(conv2d(x, w, 0))))``
    with the cells indexed by ``masked`` read as all-zero maps (their input
    gradient is zero), so training masks the maps without copying them. The
    output is (N, C, H//2, W//2); trailing odd rows and columns are dropped.
    With ``training`` the block normalizes by the batch statistics and moves
    the running ones in ``state`` towards them; otherwise it normalizes by
    the running statistics and leaves ``state`` alone.

    The cells are walked in blocks of ``_CELL_BLOCK``, cell-last, with each
    pooling window's four entries in four contiguous runs; a block's patch
    matrix and convolution are the only buffers wider than the output. The
    activation never falls as gamma * conv rises, so one pass pools gamma *
    conv, keeping each window's winner (its first maximum in window order,
    as in ``maxpool2``, so all-zero maps tie to the first entry) and the
    convolution there; up to rounding that is the activation's winner. In
    training the same pass merges, over the blocks, each channel's mean and
    centred sum of squares, the patch mean s and the channel-patch co-moment
    C = sum_p (y_p - mean) p^T = w G, with G the centred patch Gram matrix
    (the pairwise update of Chan, Golub & LeVeque); normalization and
    activation then run on the winners alone.

    Kept for the backward: the output, the int8 winners and the normalized
    value at each winner, plus s, C and the statistics. gamma and beta
    gradients come from the winners. The weight gradient is the patches at
    the winners times the upstream gradient, re-read from ``x`` one block at
    a time, minus the batch-statistics terms, which are closed-form in s and
    C; so the convolution is not recomputed for it. Only an input that
    needs a gradient recomputes its block's convolution (in training, where
    the batch-norm backward needs every position's normalized value) and
    convolves the block's gradient with the flipped kernel.
    """
    x, w, gamma, beta = as_tensor(x), as_tensor(w), as_tensor(gamma), as_tensor(beta)
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
    masked = np.asarray(() if masked is None else masked)
    if masked.size and masked.dtype.kind not in "iu":
        raise ValueError(f"conv_block masked cells must be indices, got dtype {masked.dtype}")
    masked = np.unique(masked.astype(np.intp))
    if masked.size and (masked[0] < 0 or masked[-1] >= n):
        raise ValueError(f"conv_block masked cells must lie in [0, {n}), "
                         f"got {masked[0]}..{masked[-1]}")
    m = n * h * wd
    wm = w.values.reshape(cout, -1)
    k = wm.shape[1]
    rows, cols = _pool_order(h, wd)
    windows = 4 * hp * wp                                      # positions that pooling reads
    blocks = [(lo, min(lo + _CELL_BLOCK, n)) for lo in range(0, n, _CELL_BLOCK)]

    # the activation leaky(gamma * (y - mu) * inv_std + beta) never falls as
    # gamma * y rises (inv_std > 0, slope >= 0), so pooling gamma * y finds
    # its winners before the batch statistics are known
    winner = np.empty((cout, hp, wp, n), dtype=np.int8)
    xhat_win = np.empty((cout, hp, wp, n))                     # y at the winners, for now
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
        xhat_win[..., lo:hi] = np.where(row_win,
                                        np.where(right_bottom, corners[:, 3], corners[:, 2]),
                                        np.where(right_top, corners[:, 1], corners[:, 0]))
        if training:
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

    if training:
        mu, var = y_mean, m2 / m
        state.running_mean += state.momentum * (mu - state.running_mean)
        state.running_var += state.momentum * (var * (m / max(m - 1, 1)) - state.running_var)
    else:
        mu, var = state.running_mean, state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat_win -= mu[:, None, None, None]
    xhat_win *= inv_std[:, None, None, None]
    values = np.empty((n, cout, hp, wp))
    act = values.transpose(1, 2, 3, 0)
    np.multiply(xhat_win, gamma.values[:, None, None, None], out=act)
    act += beta.values[:, None, None, None]
    np.multiply(act, slope, out=act, where=act < 0)            # leaky ReLU, 0 <= slope <= 1

    def backward_fn(g):
        # pooling, then leaky ReLU: the winner's sign is the pooled value's
        g = np.ascontiguousarray(g.transpose(1, 2, 3, 0))
        np.multiply(g, slope, out=g, where=values.transpose(1, 2, 3, 0) <= 0)
        dbeta = g.sum(axis=(1, 2, 3))
        dgamma = np.einsum("chwn,chwn->c", g, xhat_win)
        if gamma.requires_grad:
            gamma._accumulate(dgamma, own=True)
        if beta.requires_grad:
            beta._accumulate(dbeta, own=True)
        if not (w.requires_grad or x.requires_grad):
            return
        # batch-norm backward (Ioffe & Szegedy 2015): the convolution output's
        # gradient is scale * (dy - xhat * dgamma / m - dbeta / m) in training
        scale = gamma.values * inv_std
        dy_patches = np.zeros((cout, k))                       # sum of dy * patch^T
        dx = np.zeros(x.shape) if x.requires_grad else None
        w_flip = w.values[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        for lo, hi in blocks:
            b = hi - lo
            patches = _block_patches(_padded_block(x.values, lo, hi, masked), rows, cols)
            dy = np.empty((cout, h * wd * b))
            dy[:, windows * b:] = 0.0
            corners = dy[:, :windows * b].reshape(cout, 4, hp, wp, b)
            block_g, block_winner = g[..., lo:hi], winner[..., lo:hi]
            for i in range(4):
                np.multiply(block_g, block_winner == i, out=corners[:, i])
            dy_patches += dy @ patches.T
            if dx is not None:
                if training:
                    xhat = wm @ patches                        # recomputed
                    xhat -= mu[:, None]
                    xhat *= inv_std[:, None]
                    dy -= xhat * (dgamma / m)[:, None]
                    dy -= (dbeta / m)[:, None]
                dy *= scale[:, None]
                # the input gradient is dy convolved with the flipped kernel
                padded = np.zeros((cout, h + 2, wd + 2, b))
                padded[:, rows + 1, cols + 1] = dy.reshape(cout, -1, b)
                block_dx = np.empty((cin, h, wd, b))
                block_dx[:, rows, cols] = (w_flip @ _block_patches(padded, rows, cols)
                                           ).reshape(cin, -1, b)
                dx[lo:hi] = block_dx.transpose(3, 0, 1, 2)
        if w.requires_grad:
            if training:
                # sum_p xhat_p p^T = inv_std * comoment and sum_p p^T = m * p_mean^T
                dy_patches -= (dgamma * inv_std / m)[:, None] * comoment
                dy_patches -= np.outer(dbeta, p_mean)
            w._accumulate((scale[:, None] * dy_patches).reshape(w.shape), own=True)
        if dx is not None:
            dx[masked] = 0.0
            x._accumulate(dx, own=True)

    return _make(values, (x, w, gamma, beta), backward_fn, "conv_block")


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Reverse-mode gradient accumulation from a scalar loss.

    Raises if the loss is not scalar, if the graph contains a cycle, or if
    called twice on the same root without resetting gradients.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran for this tensor; reset gradients first")
    loss._backward_done = True

    order: list[Tensor] = []
    state: dict[int, int] = {}  # 1 = on stack, 2 = finished
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[id(node)] = 2
            order.append(node)
            continue
        mark = state.get(id(node))
        if mark == 2:
            continue
        if mark == 1:
            raise RuntimeError("computation graph contains a cycle")
        state[id(node)] = 1
        stack.append((node, True))
        for parent in node._parents:
            if state.get(id(parent)) == 1:
                raise RuntimeError("computation graph contains a cycle")
            if state.get(id(parent)) != 2:
                stack.append((parent, False))

    # reset op outputs (not leaves): a backward that stopped midway leaves
    # unconsumed intermediate gradients that must not leak into this one
    for node in order:
        if node._backward_fn is not None:
            node.grad = None

    loss._accumulate(np.ones_like(loss.values))
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            _check_finite(node.grad, "backward")
            node._backward_fn(node.grad)
            # consumed: free it now rather than holding a gradient per
            # intermediate tensor until the next backward
            node.grad = None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.zero_grad()

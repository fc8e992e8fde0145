"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately naive (loops, enumeration, finite
differences) and shares no code with the package under test, except
``composite_gat_layer``, ``composite_conv_block``, ``composite_cnn``,
``composite_sce_loss`` and ``dense_contrastive_loss``: they build graph
attention, the CNN and both losses from the package's generic
autodiff ops, which ``test_autodiff`` checks one by one, to serve as the
references for the fused ``gat_attention``, ``conv_block`` and ``sce`` ops
and for the edge-list ``contrastive_loss``. ``gene_space_decoder`` is the decoder that attends
over the (n, genes) projection, built on ``gat_attention`` (checked against
``composite_gat_layer``), as the reference for the decoder that attends in
the embedding space. ``fused_embedding_step_grads`` is the training
step's gradients built the long way, each loss's gradient at the fused
embedding from a backward of its own and a plain-loop PCGrad, as the
reference for ``training._step``.
``chunked_layout_genes`` is the gene layout's vectorised chunk-by-chunk
loop, kept bit for bit as the reference for the faster ``layout_genes``;
``naive_gene_layout`` checks it by plain loops. ``four_step_combat`` is
ComBat's standardize, estimate, adjust and back-transform steps without
shrinkage, the reference for the closed form of ``combat_correct``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np

import cellscape.training
from cellscape import autodiff as ad
from cellscape.gene_map import mask_cells
from cellscape.losses import contrastive_loss, sce_loss
from cellscape.network import ATTENTION_SLOPE


def finite_difference_grads(loss_fn, params, h: float = 1e-5):
    """Central finite differences of ``loss_fn()`` w.r.t. a list of arrays.

    ``loss_fn`` must be a zero-argument callable reading the arrays in place.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        # by index, not through p.reshape(-1): that is a copy, not p, when
        # p is not C-contiguous (a transpose), and the steps would miss p
        for i in np.ndindex(p.shape):
            orig = p[i]
            p[i] = orig + h
            up = loss_fn()
            p[i] = orig - h
            down = loss_fn()
            p[i] = orig
            g[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def composite_gat_layer(h, dst, src, n: int, W, a_center, a_neighbor, head_dim: int,
                        slope: float, average: bool):
    """Multi-head graph attention head by head, from generic autodiff ops.

    ``dst``/``src`` list each attention pair (receiver, sender) including
    self-loops; softmax normalizes per receiver. ``a_center`` and
    ``a_neighbor`` are (head_dim, heads), column k being head k's vector.
    Heads are concatenated, or averaged when ``average`` is set.
    """
    heads = a_center.shape[1]
    hw = ad.matmul(h, W)
    outputs = []
    for head in range(heads):
        part = ad.slice_cols(hw, head * head_dim, (head + 1) * head_dim)
        score_c = ad.matmul(part, ad.slice_cols(a_center, head, head + 1))
        score_n = ad.matmul(part, ad.slice_cols(a_neighbor, head, head + 1))
        e = ad.leaky_relu(
            ad.gather_rows(score_c, dst) + ad.gather_rows(score_n, src), slope
        )
        # per-receiver softmax, stabilized by the detached segment maximum
        seg_max = np.full((n, 1), -np.inf)
        np.maximum.at(seg_max, dst, e.values)
        ex = ad.exp(e + (-seg_max[dst]))
        denom = ad.segment_sum(ex, dst, n)
        alpha = ex / ad.gather_rows(denom, dst)
        messages = ad.gather_rows(part, src) * alpha
        outputs.append(ad.segment_sum(messages, dst, n))
    if heads == 1:
        return outputs[0]
    if average:
        total = outputs[0]
        for out in outputs[1:]:
            total = total + out
        return total * (1.0 / heads)
    return ad.concat(outputs, axis=1)


def gene_space_decoder(model, z, edges, rows):
    """The model's decoder the direct way: project every cell onto the genes
    by ``decoder.W``, attend over that (n, genes) array with the decoder's
    one head, then take the rows the reconstruction loss reads."""
    full = ad.gat_attention(ad.matmul(z, model.params["decoder.W"]), None,
                            model.params["decoder.0.a_center"],
                            model.params["decoder.0.a_neighbor"],
                            edges, ATTENTION_SLOPE, average=True)
    return ad.gather_rows(full, rows)


def loop_pcgrad(g0, g1):
    """PCGrad (Yu et al. 2020) on two gradients of one shape, by plain loops
    over their entries: each is projected off the other's original when
    their dot product is negative. Returns (the sum of the two, whether a
    projection happened)."""
    flat = [np.asarray(g, dtype=np.float64).ravel().tolist() for g in (g0, g1)]
    adjusted = [list(f) for f in flat]
    projected = False
    for i, j in ((0, 1), (1, 0)):
        dot = sum(a * b for a, b in zip(flat[i], flat[j]))
        if dot < 0.0:
            projected = True
            ratio = dot / sum(b * b for b in flat[j])
            adjusted[i] = [a - ratio * b for a, b in zip(adjusted[i], flat[j])]
    total = np.array([a + b for a, b in zip(*adjusted)]).reshape(np.shape(g0))
    return total, projected


def fused_embedding_step_grads(model, epoch: int, features, maps, edges, neighbors):
    """Every parameter's gradient in training epoch ``epoch`` and whether
    PCGrad projected: the same mask and anchors as the step, one forward of
    the encoders, then each loss on its own leaf copy of the fused
    embedding with a scalar backward of its own, giving its (n, d) gradient
    there (and, for the reconstruction loss, the decoder's gradients);
    ``loop_pcgrad`` merges the two, and one backward seeded with the merged
    gradient walks the encoders."""
    cfg = model.cfg
    n = features.shape[0]
    mask_seed, _, anchor_seed = (
        int(s) for s in np.random.SeedSequence([cfg.seed, epoch]).generate_state(3))
    mask = mask_cells(n, cfg.mask_ratio, mask_seed)
    if n > cellscape.training.MAX_CONTRASTIVE_ANCHORS:
        anchors = np.sort(np.random.default_rng(anchor_seed).choice(
            n, size=cellscape.training.MAX_CONTRASTIVE_ANCHORS, replace=False))
    else:
        anchors = np.arange(n)
    _, _, z_fused = model.encode(features, maps, edges, masked=mask)

    z_recon = ad.Tensor(z_fused.values.copy(), requires_grad=True)
    ad.backward(sce_loss(features, model.decode(z_recon, edges, mask), mask, cfg.gamma))
    z_con = ad.Tensor(z_fused.values.copy(), requires_grad=True)
    ad.backward(contrastive_loss(ad.l2_normalize_rows(z_con), neighbors, cfg.tau,
                                 anchors=anchors))
    merged, projected = loop_pcgrad(z_recon.grad, z_con.grad)
    ad.backward(z_fused, merged)
    grads = {name: p.grad for name, p in model.params.items()}
    for p in model.params.values():
        p.grad = None
    return grads, projected


def composite_sce_loss(x, x_hat, mask_set, gamma: float):
    """The scaled cosine error of ``losses.sce_loss`` from generic autodiff
    ops: the mean over the masked cells of (1 - cos)^gamma. A zero-norm
    pair is a constant term of 1, with a warning, and a pair whose 1 - cos
    is 0 or below a constant term of 0; neither takes a gradient, so the
    chain runs on the other rows alone. (A leaky-ReLU clamp in the chain
    would give a clamped row the gradient 0 * 0 ** (gamma - 1), NaN below
    gamma 1.)"""
    mask = np.asarray(mask_set, dtype=np.intp)
    x_m = np.asarray(x, dtype=np.float64)[mask]
    norm_x = np.sqrt((x_m * x_m).sum(axis=1))
    norm_h = np.sqrt((x_hat.values * x_hat.values).sum(axis=1))
    degenerate = (norm_x == 0.0) | (norm_h == 0.0)
    if np.any(degenerate):
        warnings.warn(f"{int(degenerate.sum())} masked pair(s) with zero norm use cos=0",
                      RuntimeWarning)

    def cosines(idx):
        rows = x_hat if idx.size == mask.size else ad.gather_rows(x_hat, idx)
        dot = ad.tensor_sum(rows * x_m[idx], axis=1, keepdims=True)
        norm_rows = ad.tensor_sum(rows * rows, axis=1, keepdims=True) ** 0.5
        return dot / (norm_rows * norm_x[idx, None])

    keep = np.flatnonzero(~degenerate)
    live = keep[1.0 - cosines(keep).values[:, 0] > 0.0] if keep.size else keep
    constant_part = float(degenerate.sum())
    if live.size == 0:
        return ad.Tensor(np.asarray(constant_part / mask.size))
    terms = (1.0 - cosines(live)) ** gamma
    return (ad.tensor_sum(terms) + constant_part) * (1.0 / mask.size)


def composite_conv_block(x, w, gamma, beta, slope: float):
    """conv -> batch norm -> leaky ReLU -> 2x2 max pool from the generic
    autodiff ops."""
    out = ad.batch_norm(ad.conv2d(x, w), gamma, beta)
    return ad.maxpool2(ad.leaky_relu(out, slope))


def composite_cnn(maps, w, gamma, beta, fc_w, fc_b):
    """``composite_conv_block`` of the NCHW array ``maps`` at the CNN's
    leaky-ReLU slope 0.01, flattened and through the linear head ``(fc_w,
    fc_b)`` by ``reshape``, ``matmul`` and ``add``."""
    pooled = composite_conv_block(ad.Tensor(maps), w, gamma, beta, 0.01)
    return ad.matmul(ad.reshape(pooled, (maps.shape[0], -1)), fc_w) + fc_b


def dense_contrastive_loss(z, neighbors, tau: float, anchors):
    """Multi-positive InfoNCE from per-cell neighbour lists over a dense
    n x n 0/1 adjacency; ``anchors`` selects adjacency rows."""
    n = z.shape[0]
    degree = np.zeros(n)
    adjacency = np.zeros((n, n))
    for i, nb in enumerate(neighbors):
        adjacency[i, nb] = 1.0
        degree[nb] += 1.0
    anchors = np.asarray(anchors, dtype=np.intp)
    z_anchor = ad.gather_rows(z, anchors)
    adjacency = adjacency[anchors]
    sims = ad.matmul(z_anchor * (1.0 / tau), ad.transpose(z))
    shift = sims.values.max(axis=1, keepdims=True)
    expsims = ad.exp(sims + (-shift))
    denominator = ad.matmul(expsims, degree[:, None])
    n_anchors = adjacency.shape[0]
    rows, cols = np.nonzero(adjacency)
    flat = ad.reshape(sims, (n_anchors * n, 1))
    edge_terms = ad.exp(ad.gather_rows(flat, rows * n + cols) + (-shift[rows]))
    numerator = ad.segment_sum(edge_terms, rows, n_anchors)
    return ad.tensor_sum(ad.log(denominator) + ad.log(numerator) * -1.0) * (1.0 / n_anchors)


def loop_neighbor_lists(n_nodes: int, edges):
    """Each node's neighbours, appended edge by edge and sorted."""
    adj = [[] for _ in range(n_nodes)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return [np.array(sorted(a), dtype=np.int64) for a in adj]


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error with an absolute floor for tiny values.

    The floor (1e-6) reflects what central differences can resolve: the
    roundoff noise of (f(x+h) - f(x-h)) / 2h is ~1e-12 for double precision
    at h = 1e-4, so gradients below the floor are compared absolutely at
    that scale rather than relatively.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def entropy_from_labels(labels) -> float:
    """Shannon entropy (nats) of a label vector, by direct counting."""
    n = len(labels)
    h = 0.0
    for count in Counter(labels).values():
        p = count / n
        h -= p * math.log(p)
    return h


def contingency_nmi(y_true, y_pred) -> float:
    """NMI = 2 I / (H(Y)+H(Yhat)) from an explicitly enumerated joint table."""
    n = len(y_true)
    joint = Counter(zip(y_true, y_pred))
    row = Counter(y_true)
    col = Counter(y_pred)
    mi = 0.0
    for (a, b), c in joint.items():
        p_ab = c / n
        mi += p_ab * math.log(p_ab / ((row[a] / n) * (col[b] / n)))
    hy, hp = entropy_from_labels(y_true), entropy_from_labels(y_pred)
    if hy == 0.0 and hp == 0.0:
        return 1.0
    if hy + hp == 0.0:
        return 1.0
    return 2.0 * mi / (hy + hp)


def contingency_hom(y_true, y_pred) -> float:
    """Homogeneity = 1 - H(Y|Yhat)/H(Y) via direct conditional entropy."""
    n = len(y_true)
    hy = entropy_from_labels(y_true)
    if hy == 0.0:
        return 1.0
    cond = 0.0
    pred_groups = {}
    for t, p in zip(y_true, y_pred):
        pred_groups.setdefault(p, []).append(t)
    for group in pred_groups.values():
        w = len(group) / n
        cond += w * entropy_from_labels(group)
    return 1.0 - cond / hy


def midranks(values) -> tuple[list[float], int]:
    """1-based ranks with ties given the mean of the positions they span, and
    the tie term sum(t^3 - t) over the tie groups, by a loop over the sorted
    order."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_term = 0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mid
        t = j - i + 1
        tie_term += t ** 3 - t
        i = j + 1
    return ranks, tie_term


def exact_rank_sum_pvalue(a, b) -> tuple[float, float]:
    """Exact two-sided/one-sided rank-sum p via full enumeration with midranks.

    Returns (two_sided, lower_tail). Tie structure of the pooled sample is
    preserved by enumerating index subsets of the pooled midranks.
    """
    pooled = list(a) + list(b)
    n1 = len(a)
    ranks, _ = midranks(pooled)
    u_obs = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    total = 0
    lower = 0
    upper = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        u = sum(ranks[i] for i in combo) - n1 * (n1 + 1) / 2.0
        total += 1
        if u <= u_obs + 1e-12:
            lower += 1
        if u >= u_obs - 1e-12:
            upper += 1
    p_lower = lower / total
    p_upper = upper / total
    return min(1.0, 2.0 * min(p_lower, p_upper)), p_lower


def exact_hypergeom_upper_tail(k: int, universe: int, set_size: int, draws: int) -> float:
    """P(X >= k) for a hypergeometric draw: the PMF terms summed as exact
    fractions, rounded to float once at the end."""
    denom = math.comb(universe, draws)
    total = sum(Fraction(math.comb(set_size, kk) * math.comb(universe - set_size, draws - kk),
                         denom)
                for kk in range(k, min(set_size, draws) + 1))
    return float(total)


def loop_benjamini_hochberg(p_values) -> np.ndarray:
    """Step-up FDR adjustment one p-value at a time, from the largest down:
    the running minimum of p * m / rank, capped at 1, in input order."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 1.0
    for rank_from_end, idx in enumerate(order[::-1]):
        rank = m - rank_from_end
        running = min(running, p[idx] * m / rank)
        adjusted[idx] = running
    return np.clip(adjusted, 0.0, 1.0)


def pearson_corr(x, y) -> float:
    """Plain covariance-formula Pearson correlation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return float((xc * yc).sum() / denom)


def four_step_combat(X, batch_labels):
    """ComBat without empirical-Bayes shrinkage, step by step, on a (p, n)
    matrix and one batch label per cell: standardize each gene by the
    cell-weighted grand mean and the pooled within-batch deviation (ddof 0),
    estimate each batch's additive (gamma) and multiplicative (delta^2,
    ddof 1) effect on the standardized values, remove them, and
    back-transform. A gene without within-batch variance maps to its grand
    mean; a batch whose standardized variance is 0 is not rescaled."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(batch_labels)
    names = sorted(set(labels.tolist()))
    members = [np.flatnonzero(labels == b) for b in names]
    counts = np.array([len(m) for m in members])
    batch_idx = np.empty(X.shape[1], dtype=np.int64)
    for b, m in enumerate(members):
        batch_idx[m] = b

    batch_means = np.stack([X[:, m].mean(axis=1) for m in members], axis=1)
    grand = batch_means @ (counts / X.shape[1])
    resid = X - batch_means[:, batch_idx]
    var_pooled = (resid * resid).mean(axis=1)
    informative = var_pooled > 0
    scale = np.where(informative, np.sqrt(var_pooled), 1.0)
    Z = (X - grand[:, None]) / scale[:, None]

    gamma = np.stack([Z[:, m].mean(axis=1) for m in members], axis=1)
    delta2 = np.stack([Z[:, m].var(axis=1, ddof=1) for m in members], axis=1)
    delta2 = np.where(delta2 > 0, delta2, 1.0)
    adjusted = (Z - gamma[:, batch_idx]) / np.sqrt(delta2)[:, batch_idx]
    corrected = scale[:, None] * adjusted + grand[:, None]
    corrected[~informative, :] = grand[~informative, None]
    return corrected


def chunked_layout_genes(C, seed: int, swap_budget: int):
    """Greedy seeding plus chunked first-improvement swaps on the table
    ``M[g, c] = sum_k w[g, k] * dist(c, cell_of[k])``, one chunk of
    ``min(512, budget)`` candidates at a time, every placement and accepted
    swap a full rank-1 update of ``M``: the algorithm of ``layout_genes``
    without its shortcuts, so its output must match bit for bit.

    Returns ``(positions, greedy_objective, objective_value)``.
    """
    C = np.asarray(C, dtype=np.float64)
    p = C.shape[0]
    q = math.isqrt(p - 1) + 1 if p > 1 else 1

    w = np.maximum(C, 0.0)
    np.fill_diagonal(w, 0.0)

    grid_rs = np.stack(np.divmod(np.arange(q * q), q), axis=1)
    grid_dist = np.sqrt(
        ((grid_rs[:, None, :] - grid_rs[None, :, :]) ** 2).sum(axis=2).astype(np.float64)
    )

    cell_of = np.full(p, -1, dtype=np.int64)
    free = np.ones(q * q, dtype=bool)
    M = np.zeros((p, q * q))
    attachment = np.zeros(p)
    g = int(np.argmax(w.sum(axis=1)))
    cell = ((q - 1) // 2) * q + (q - 1) // 2
    for step in range(p):
        if step:
            g = int(np.argmax(attachment))
            free_cells = np.flatnonzero(free)
            cell = int(free_cells[int(np.argmin(M[g, free_cells]))])
        cell_of[g] = cell
        free[cell] = False
        M += np.outer(w[:, g], grid_dist[cell])
        attachment += w[:, g]
        attachment[g] = -np.inf

    greedy_j = 0.5 * float((w * grid_dist[np.ix_(cell_of, cell_of)]).sum())

    budget = int(swap_budget)
    j = greedy_j
    if p > 1 and budget > 0 and w.any():
        rng = np.random.default_rng(seed)
        remaining = budget
        chunk = min(512, budget)
        while remaining > 0:
            size = min(chunk, remaining)
            a = rng.integers(0, p, size)
            b = rng.integers(0, p, size)
            valid = a != b
            remaining -= size
            if not valid.any():
                continue
            a, b = a[valid], b[valid]
            pa, pb = cell_of[a], cell_of[b]
            deltas = (M[a, pb] - M[a, pa] + M[b, pa] - M[b, pb]
                      + 2.0 * w[a, b] * grid_dist[pa, pb])
            improving = np.flatnonzero(deltas < -1e-12)
            if improving.size:
                i = improving[0]
                cell_of[a[i]], cell_of[b[i]] = pb[i], pa[i]
                M += np.outer(w[:, a[i]] - w[:, b[i]], grid_dist[pb[i]] - grid_dist[pa[i]])
        j = 0.5 * float((w * grid_dist[np.ix_(cell_of, cell_of)]).sum())

    return grid_rs[cell_of], greedy_j, j


def naive_gene_layout(C, seed: int, swap_budget: int):
    """Greedy seeding plus chunked first-improvement swaps, by plain loops.

    Genes are placed one at a time: the heaviest row sum at the centre cell,
    then repeatedly the unplaced gene with the largest summed weight to the
    placed ones (lowest index on ties) on the free cell with the least
    weighted distance to them (lowest cell on ties). Every swap candidate
    is scored from scratch in O(p). Candidates are drawn ``min(512,
    budget)`` at a time from ``default_rng(seed)`` (all first genes, then
    all second genes); the first improving one in a chunk is applied and
    the rest of the chunk is skipped. Sums run in placement order.

    Returns ``(positions, greedy_objective, objective_value)``.
    """
    p = len(C)
    w = [[float(C[i][j]) if i != j and C[i][j] > 0 else 0.0 for j in range(p)]
         for i in range(p)]
    q = 1
    while q * q < p:
        q += 1
    cells = [(c // q, c % q) for c in range(q * q)]
    dist = [[math.sqrt((r1 - r2) ** 2 + (s1 - s2) ** 2) for (r2, s2) in cells]
            for (r1, s1) in cells]

    def objective(cell_of):
        total = 0.0
        for u in range(p):
            for v in range(u + 1, p):
                total += w[u][v] * dist[cell_of[u]][cell_of[v]]
        return total

    first, best = 0, -math.inf
    for g in range(p):
        row = 0.0
        for k in range(p):
            row += w[g][k]
        if row > best:
            first, best = g, row
    cell_of = [-1] * p
    cell_of[first] = ((q - 1) // 2) * q + (q - 1) // 2
    placed = [first]
    while len(placed) < p:
        gene, best = -1, -math.inf
        for g in range(p):
            if cell_of[g] >= 0:
                continue
            att = 0.0
            for k in placed:
                att += w[g][k]
            if att > best:
                gene, best = g, att
        taken = set(cell_of)
        cell, best = -1, math.inf
        for c in range(q * q):
            if c in taken:
                continue
            cost = 0.0
            for k in placed:
                cost += w[gene][k] * dist[c][cell_of[k]]
            if cost < best:
                cell, best = c, cost
        cell_of[gene] = cell
        placed.append(gene)
    greedy = objective(cell_of)

    budget = swap_budget
    if p > 1 and budget > 0 and any(x > 0 for row in w for x in row):
        rng = np.random.default_rng(seed)
        remaining = budget
        while remaining > 0:
            size = min(512, budget, remaining)
            firsts = rng.integers(0, p, size).tolist()
            seconds = rng.integers(0, p, size).tolist()
            remaining -= size
            for a, b in zip(firsts, seconds):
                if a == b:
                    continue
                pa, pb = cell_of[a], cell_of[b]
                delta = 0.0
                for k in range(p):
                    delta += (w[a][k] - w[b][k]) * (dist[pb][cell_of[k]] - dist[pa][cell_of[k]])
                delta += 2.0 * w[a][b] * dist[pa][pb]
                if delta < -1e-12:
                    cell_of[a], cell_of[b] = pb, pa
                    break
    positions = [cells[c] for c in cell_of]
    return positions, greedy, objective(cell_of)


def naive_gmm_cluster(X, K: int, seed: int, n_restarts: int = 5, max_iter: int = 200,
                      tol: float = 1e-7, reg: float = 1e-6, init_means=None):
    """Full-covariance EM one component at a time, with general LU solves.

    The same algorithm as ``cluster.gmm_cluster``: k-means++ starts drawn
    from ``default_rng(SeedSequence([seed, restart]))``, the MAP covariance
    step ``(scatter_k + lam I) / n_k`` with ``lam = reg n / K``, reseeding of
    components whose weight falls below 2 cells at the farthest point, the
    relative-tolerance stopping rule and selection by final log-likelihood
    (the earliest restart within a relative 1e-12 of the best). Each E-step
    factors every covariance on its own and solves ``chol x = diff.T`` and
    ``chol x = I`` with ``np.linalg.solve``. Returns ``(labels, posterior, log_likelihood_path,
    objective_path)``.
    """
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    lam = reg * n / K

    def kmeanspp(rng):
        means = np.empty((K, d))
        means[0] = X[int(rng.integers(n))]
        d2 = ((X - means[0]) ** 2).sum(axis=1)
        for k in range(1, K):
            total = d2.sum()
            idx = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
            means[k] = X[idx]
            d2 = np.minimum(d2, ((X - means[k]) ** 2).sum(axis=1))
        return means

    def component(mean, cov):
        chol = np.linalg.cholesky(cov)
        diff = X - mean
        solved = np.linalg.solve(chol, diff.T)
        maha = (solved * solved).sum(axis=0)
        logdet = 2.0 * np.log(np.diag(chol)).sum()
        tr_inv = float((np.linalg.solve(chol, np.eye(d)) ** 2).sum())
        return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha), tr_inv

    finals = []
    for restart in range(1 if init_means is not None else n_restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        if init_means is not None:
            means = np.asarray(init_means, dtype=np.float64).copy()
        else:
            means = kmeanspp(rng)
        data_cov = np.cov(X, rowvar=False, ddof=1).reshape(d, d) + reg * np.eye(d)
        covs = np.stack([data_cov.copy() for _ in range(K)])
        weights = np.full(K, 1.0 / K)
        path, objectives = [], []
        prev_ll = -np.inf
        for _ in range(max_iter):
            logpdfs, tr_inv = zip(*(component(means[k], covs[k]) for k in range(K)))
            log_r = np.log(weights) + np.stack(logpdfs, axis=1)
            row_max = log_r.max(axis=1, keepdims=True)
            log_norm = row_max[:, 0] + np.log(np.exp(log_r - row_max).sum(axis=1))
            ll = float(log_norm.sum())
            path.append(ll)
            objectives.append(ll - 0.5 * lam * sum(tr_inv))
            resp = np.exp(log_r - log_norm[:, None])
            converged = np.isfinite(prev_ll) and abs(ll - prev_ll) < tol * (1.0 + abs(ll))
            prev_ll = ll
            nk = resp.sum(axis=0)
            degenerate = np.flatnonzero(nk < 2.0)
            if degenerate.size:
                for k in degenerate:
                    far = int(np.argmax(((X - means[k]) ** 2).sum(axis=1)))
                    means[k] = X[far]
                    covs[k] = data_cov.copy()
                    weights[k] = 1.0 / K
                    warnings.warn(f"GMM component {k} collapsed; reseeded from the farthest point",
                                  RuntimeWarning)
                weights /= weights.sum()
                continue
            if converged:
                break
            weights = nk / n
            means = (resp.T @ X) / nk[:, None]
            for k in range(K):
                diff = X - means[k]
                covs[k] = ((diff.T * resp[:, k]) @ diff + lam * np.eye(d)) / nk[k]
        finals.append((prev_ll, resp, path, objectives))
    top = max(f[0] for f in finals)
    for ll, resp, path, objectives in finals:
        if ll >= top - 1e-12 * abs(top):
            break
    return resp.argmax(axis=1), resp, path, objectives


def brute_force_neighbors(points, k: int) -> np.ndarray:
    """Each point's k nearest others, point by point: every distance
    sqrt(sum((p_j - p_i)**2)), a full sort on (distance, index), and the
    point itself dropped by its index."""
    pts = np.array(np.asarray(points, dtype=np.float64).T, order="C")
    n = len(pts)
    rows = []
    for i in range(n):
        dist = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(n), dist))
        rows.append(order[order != i][:k])
    return np.array(rows)


def brute_force_knn_edges(points, k: int) -> set[tuple[int, int]]:
    """Union of each point's ``brute_force_neighbors``, as sorted pairs."""
    return {(min(i, int(j)), max(i, int(j)))
            for i, row in enumerate(brute_force_neighbors(points, k)) for j in row}


def loop_refine_labels(labels, graph):
    """Plurality vote among each cell's neighbours in ``graph``, gathered
    edge by edge, tallied and tie-checked cell by cell; a tied vote, or no
    vote, keeps the cell's own label."""
    labels = np.asarray(labels)
    neighbours = [[] for _ in range(graph.n_nodes)]
    for i, j in graph.edges.tolist():
        neighbours[i].append(j)
        neighbours[j].append(i)
    refined = labels.copy()
    for i, voters in enumerate(neighbours):
        counts = Counter(labels[voters].tolist())
        top = max(counts.values(), default=0)
        winners = [label for label, c in counts.items() if c == top]
        if len(winners) == 1:
            refined[i] = winners[0]
    return refined

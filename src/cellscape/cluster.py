"""Spatial-domain segmentation: PCA reduction, full-covariance Gaussian
mixture EM with k-means++ restarts, and neighbor majority-vote refinement."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


@dataclass
class DomainLabels:
    """Hard domain assignments with optional posterior responsibilities."""

    labels: np.ndarray                      # (n,) ints in [0, n_domains)
    n_domains: int
    posterior: np.ndarray | None = None     # (n, K), rows sum to 1
    log_likelihood_path: list[float] = field(default_factory=list, repr=False)


def pca_reduce(Z: np.ndarray, k: int = 30) -> np.ndarray:
    """Project onto the top-k principal axes of the centered data.

    Components are ordered by decreasing eigenvalue; each axis is signed so
    its largest-magnitude loading is positive.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n, d = Z.shape
    if k > min(n, d):
        raise ValueError(f"k={k} exceeds min(n, d) = {min(n, d)}")
    if k <= 0:
        raise ValueError("k must be positive")
    centered = Z - Z.mean(axis=0)
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    axes = eigvecs[:, order]
    for j in range(k):
        pivot = np.argmax(np.abs(axes[:, j]))
        if axes[pivot, j] < 0:
            axes[:, j] = -axes[:, j]
    return centered @ axes


def _kmeanspp_means(X: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    means = np.empty((K, X.shape[1]))
    first = int(rng.integers(n))
    means[0] = X[first]
    d2 = ((X - means[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        means[k] = X[idx]
        d2 = np.minimum(d2, ((X - means[k]) ** 2).sum(axis=1))
    return means


def _component_logpdf(X: np.ndarray, mean: np.ndarray,
                      cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Log density of each row of X under N(mean, cov), and tr(cov^-1).

    Both come from one Cholesky factor, so they describe the same rounded
    covariance; the penalized objective is stationary in the covariance
    after an M-step, so its rounding then moves the objective only at second
    order even when the covariance is near-singular.
    """
    d = X.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = X - mean
    solved = np.linalg.solve(chol, diff.T)
    maha = (solved * solved).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    tr_inv = float((np.linalg.solve(chol, np.eye(d)) ** 2).sum())
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha), tr_inv


def gmm_cluster(Zp: np.ndarray, K: int, seed: int, n_restarts: int = 5,
                max_iter: int = 200, tol: float = 1e-7, reg: float = 1e-6,
                init_means: np.ndarray | None = None) -> DomainLabels:
    """Full-covariance EM, best of ``n_restarts`` k-means++ starts by final
    log-likelihood. Assignment is by maximum posterior responsibility.

    ``reg`` acts as a fixed prior on each covariance: the M-step sets
    ``cov_k = S_k + (lam / n_k) I`` with ``lam = reg * n / K`` (about
    ``reg`` on balanced components), which maximizes the expected
    log-likelihood minus ``(lam / 2) tr(cov_k^-1)``. EM therefore ascends
    ``ll - (lam / 2) sum_k tr(cov_k^-1)``, and that quantity must be
    non-decreasing across iterations (within 1e-8); the plain
    log-likelihood need not be when a component is near-degenerate.

    ``init_means`` pins the starting means (single restart), for controlled
    comparisons.
    """
    X = np.asarray(Zp, dtype=np.float64)
    n, d = X.shape
    if K < 2:
        raise ValueError("need at least 2 mixture components")
    if n <= K:
        raise ValueError(f"need more cells than components, got n={n}, K={K}")

    lam = reg * n / K
    best = None
    restarts = 1 if init_means is not None else n_restarts
    for restart in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        if init_means is not None:
            means = np.asarray(init_means, dtype=np.float64).copy()
            if means.shape != (K, d):
                raise ValueError(f"init_means must have shape ({K}, {d})")
        else:
            means = _kmeanspp_means(X, K, rng)
        data_cov = np.cov(X, rowvar=False, ddof=1).reshape(d, d) + reg * np.eye(d)
        covs = np.stack([data_cov.copy() for _ in range(K)])
        weights = np.full(K, 1.0 / K)

        path: list[float] = []
        prev_ll = prev_objective = -np.inf
        monotone_check = True
        for _ in range(max_iter):
            logpdfs, tr_inv = zip(*(_component_logpdf(X, means[k], covs[k]) for k in range(K)))
            log_r = np.log(weights) + np.stack(logpdfs, axis=1)
            row_max = log_r.max(axis=1, keepdims=True)
            log_norm = row_max[:, 0] + np.log(np.exp(log_r - row_max).sum(axis=1))
            ll = float(log_norm.sum())
            objective = ll - 0.5 * lam * sum(tr_inv)
            if monotone_check and objective < prev_objective - 1e-8:
                raise RuntimeError(
                    f"EM penalized log-likelihood decreased: {prev_objective} -> {objective}"
                )
            path.append(ll)
            resp = np.exp(log_r - log_norm[:, None])

            converged = np.isfinite(prev_ll) and abs(ll - prev_ll) < tol * (1.0 + abs(ll))
            prev_ll, prev_objective = ll, objective
            monotone_check = True

            nk = resp.sum(axis=0)
            degenerate = np.flatnonzero(nk < 2.0)
            if degenerate.size:
                for k in degenerate:
                    dist = ((X - means[k]) ** 2).sum(axis=1)
                    far = int(np.argmax(dist))
                    means[k] = X[far]
                    covs[k] = data_cov.copy()
                    weights[k] = 1.0 / K
                    warnings.warn(
                        f"GMM component {k} collapsed; reseeded from the farthest point",
                        RuntimeWarning,
                    )
                weights /= weights.sum()
                monotone_check = False  # reseeding may lower the next likelihood
                continue
            if converged:
                break

            weights = nk / n
            means = (resp.T @ X) / nk[:, None]
            for k in range(K):
                diff = X - means[k]
                covs[k] = ((diff.T * resp[:, k]) @ diff + lam * np.eye(d)) / nk[k]

        candidate = (prev_ll, -restart, resp, path)
        if best is None or candidate[:2] > best[:2]:
            best = candidate

    _, _, resp, path = best
    labels = resp.argmax(axis=1).astype(np.int64)
    return DomainLabels(labels=labels, n_domains=K, posterior=resp, log_likelihood_path=path)


def refine_labels(labels: np.ndarray, coords: np.ndarray, r: int = 15) -> DomainLabels:
    """One synchronous pass of majority voting among each cell's r nearest
    spatial neighbors (self excluded); vote ties keep the original label."""
    labels = np.asarray(labels)
    coords = np.asarray(coords, dtype=np.float64)
    n = labels.shape[0]
    if r < 1:
        raise ValueError("r must be at least 1")
    if r >= n:
        raise ValueError(f"r={r} must be smaller than the number of cells n={n}")
    if coords.shape != (2, n):
        raise ValueError(f"coords must be 2 x {n}")
    tree = cKDTree(coords.T)
    _, idx = tree.query(coords.T, k=r + 1)
    neighbor_idx = idx[:, 1:]
    uniq, dense = np.unique(labels, return_inverse=True)
    K = uniq.size
    votes = np.zeros((n, K), dtype=np.int64)
    rows = np.repeat(np.arange(n), r)
    np.add.at(votes, (rows, dense[neighbor_idx.ravel()]), 1)
    top = votes.max(axis=1)
    refined = dense.copy()
    for i in range(n):
        winners = np.flatnonzero(votes[i] == top[i])
        if winners.size == 1:
            refined[i] = winners[0]
        # ties (including zero votes) keep the original label
    return DomainLabels(labels=uniq[refined], n_domains=K)

"""Spatial-domain segmentation: PCA reduction, full-covariance Gaussian
mixture EM with k-means++ restarts, and neighbor majority-vote refinement."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri

from .spatial_graph import nearest_neighbors


@dataclass
class DomainLabels:
    """Hard domain assignments; from ``gmm_cluster`` also the per-E-step
    log-likelihood and penalized objective paths."""

    labels: np.ndarray                      # (n,) ints in [0, n_domains)
    n_domains: int
    log_likelihood_path: list[float] = field(default_factory=list, repr=False)
    # per E-step, the penalized log-likelihood EM ascends (see gmm_cluster)
    objective_path: list[float] = field(default_factory=list, repr=False)


def pca_reduce(Z: np.ndarray, k: int) -> np.ndarray:
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


def _component_terms(diff: np.ndarray, covs: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """Log density of each cell under every component into ``out``, shape
    (K, n), from the cell-last ``diff[k] = (X - mean_k)^T`` (K, d, n);
    returns tr(cov_k^-1), shape (K,).

    All of them come from one Cholesky factor L_k per component and its
    triangular inverse (LAPACK ``trtri``): the Mahalanobis term is
    ||L_k^-1 (x - mean_k)||^2, the log-determinant 2 sum log diag(L_k) and
    tr(cov_k^-1) = ||L_k^-1||_F^2. Sharing the factor makes them describe the
    same rounded covariance; the penalized objective is stationary in the
    covariance after an M-step, so its rounding then moves the objective
    only at second order even when the covariance is near-singular.
    """
    d = diff.shape[1]
    chol = np.linalg.cholesky(covs)
    factors = [dtrtri(c, lower=1) for c in chol]
    if any(info for _, info in factors):
        raise np.linalg.LinAlgError("singular Cholesky factor")
    inv_chol = np.stack([inv for inv, _ in factors])
    whitened = inv_chol @ diff
    np.einsum("kdn,kdn->kn", whitened, whitened, out=out)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    out += (d * np.log(2.0 * np.pi) + logdet)[:, None]
    out *= -0.5
    return (inv_chol * inv_chol).sum(axis=(1, 2))


# final log-likelihoods within this relative distance of the best count as tied
_RESTART_RTOL = 1e-12
EM_RESTARTS = 5     # k-means++ starts: more make a poor seeding less likely to win
EM_MAX_ITER = 200   # cap per start; a start stops once EM_TOL is met
EM_TOL = 1e-7       # stop when ll moves less than EM_TOL * (1 + |ll|)
EM_REG = 1e-6       # covariance prior: keeps a component on few cells invertible


def gmm_cluster(Zp: np.ndarray, K: int, seed: int) -> DomainLabels:
    """Full-covariance EM, best of ``EM_RESTARTS`` k-means++ starts by final
    log-likelihood (the earliest restart within a relative 1e-12 of the
    best). Assignment is by maximum posterior responsibility.

    ``EM_REG`` acts as a fixed prior on each covariance: the M-step sets
    ``cov_k = S_k + (lam / n_k) I`` with ``lam = EM_REG * n / K`` (about
    ``EM_REG`` on balanced components), which maximizes the expected
    log-likelihood minus ``(lam / 2) tr(cov_k^-1)``. EM therefore ascends
    ``ll - (lam / 2) sum_k tr(cov_k^-1)``, recorded per E-step as
    ``objective_path``; it must be non-decreasing across iterations (within
    1e-8), while the plain log-likelihood need not be when a component is
    near-degenerate.
    """
    X = np.asarray(Zp, dtype=np.float64)
    n, d = X.shape
    if K < 2:
        raise ValueError("need at least 2 mixture components")
    if n <= K:
        raise ValueError(f"need more cells than components, got n={n}, K={K}")

    lam = EM_REG * n / K
    data_cov = np.cov(X, rowvar=False, ddof=1).reshape(d, d) + EM_REG * np.eye(d)
    # cells last: every broadcast and product runs over n, not over d
    XT = np.ascontiguousarray(X.T)                                   # (d, n)
    finals = []
    for restart in range(EM_RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        means = _kmeanspp_means(X, K, rng)
        covs = np.repeat(data_cov[None], K, axis=0)
        weights = np.full(K, 1.0 / K)

        path: list[float] = []
        objectives: list[float] = []
        diff = XT - means[:, :, None]                           # (K, d, n)
        weighted = np.empty_like(diff)
        # the E-step's buffers: log r (K, n), and the log-sum-exp's work,
        # which ends as the responsibilities
        log_r = np.empty((K, n))
        resp = np.empty((K, n))
        prev_ll = prev_objective = -np.inf
        monotone_check = True
        for _ in range(EM_MAX_ITER):
            tr_inv = _component_terms(diff, covs, out=log_r)
            log_r += np.log(weights)[:, None]
            col_max = log_r.max(axis=0)
            np.subtract(log_r, col_max, out=resp)
            np.exp(resp, out=resp)
            log_norm = col_max + np.log(resp.sum(axis=0))
            ll = float(log_norm.sum())
            objective = ll - 0.5 * lam * float(tr_inv.sum())
            if monotone_check and objective < prev_objective - 1e-8:
                raise RuntimeError(
                    f"EM penalized log-likelihood decreased: {prev_objective} -> {objective}"
                )
            path.append(ll)
            objectives.append(objective)
            np.subtract(log_r, log_norm, out=resp)
            np.exp(resp, out=resp)

            converged = np.isfinite(prev_ll) and abs(ll - prev_ll) < EM_TOL * (1.0 + abs(ll))
            prev_ll, prev_objective = ll, objective
            monotone_check = True

            nk = resp.sum(axis=1)
            degenerate = np.flatnonzero(nk < 2.0)
            if degenerate.size:
                for k in degenerate:
                    dist = (diff[k] ** 2).sum(axis=0)
                    far = int(np.argmax(dist))
                    means[k] = X[far]
                    np.subtract(XT, means[k][:, None], out=diff[k])
                    covs[k] = data_cov
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
            means = (resp @ X) / nk[:, None]
            np.subtract(XT, means[:, :, None], out=diff)
            np.multiply(diff, resp[:, None], out=weighted)
            scatter = weighted @ diff.transpose(0, 2, 1)
            covs = (scatter + lam * np.eye(d)) / nk[:, None, None]

        finals.append((prev_ll, resp, path, objectives))

    # restarts that reach one optimum end a few ulps apart, with permuted
    # components; keeping the earliest near-best one makes the label ids
    # independent of summation order
    top = max(ll for ll, *_ in finals)
    _, resp, path, objectives = next(
        f for f in finals if f[0] >= top - _RESTART_RTOL * abs(top)
    )
    labels = resp.argmax(axis=0).astype(np.int64)
    return DomainLabels(labels=labels, n_domains=K, log_likelihood_path=path,
                        objective_path=objectives)


def refine_labels(labels: np.ndarray, coords: np.ndarray, r: int) -> DomainLabels:
    """One synchronous pass of majority voting among each cell's r
    ``nearest_neighbors`` (ties in distance to the lower index; a cell's
    coordinate twin votes, the cell never); vote ties keep the original label."""
    labels = np.asarray(labels)
    coords = np.asarray(coords, dtype=np.float64)
    n = labels.shape[0]
    if r < 1:
        raise ValueError("r must be at least 1")
    if r >= n:
        raise ValueError(f"r={r} must be smaller than the number of cells n={n}")
    if coords.shape != (2, n):
        raise ValueError(f"coords must be 2 x {n}")
    uniq, dense = np.unique(labels, return_inverse=True)
    K = uniq.size
    votes = np.zeros((n, K), dtype=np.int64)
    np.add.at(votes, (np.repeat(np.arange(n), r), dense[nearest_neighbors(coords, r)].ravel()), 1)
    n_winners = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1)
    # ties (including zero votes) keep the original label
    refined = np.where(n_winners == 1, votes.argmax(axis=1), dense)
    return DomainLabels(labels=uniq[refined], n_domains=K)

"""Statistical mining: two-point angular pair counting (dual-tree, exact),
the Landy-Szalay correlation estimator, and Gaussian-mixture EM with kd-tree
node pruning for outlier scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from .errors import ValidationError
from .kdtree import KdTree


# ---------------------------------------------------------------------------
# pair counting

@dataclass
class PairCountHistogram:
    bin_edges_rad: np.ndarray
    counts: np.ndarray
    total_pairs: int
    distance_evaluations: int


def _chord2_edges(bin_edges_rad: np.ndarray) -> np.ndarray:
    """Angular bin edges mapped to squared chord lengths (monotone)."""
    edges = np.asarray(bin_edges_rad, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValidationError("bin edges must be strictly increasing, length >= 2")
    if edges[0] < 0 or edges[-1] > np.pi:
        raise ValidationError("angular bin edges must lie in [0, pi]")
    c = 2.0 * np.sin(0.5 * edges)
    return c * c


def _bin_d2(d2: np.ndarray, edges2: np.ndarray, counts: np.ndarray) -> None:
    """Histogram squared chord distances: bins half-open [lo, hi), final bin
    closed. Shared by every counting path so that they agree exactly."""
    k = np.searchsorted(edges2, d2, side="right") - 1
    k[d2 == edges2[-1]] = len(edges2) - 2
    valid = (k >= 0) & (k < len(edges2) - 1)
    if valid.any():
        counts += np.bincount(k[valid], minlength=len(edges2) - 1)


def _pairwise_d2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def pair_count(points: np.ndarray, bin_edges_rad, others: np.ndarray | None = None,
               leaf_size: int = 32) -> PairCountHistogram:
    """Count point pairs per angular separation bin with a dual-tree walk:
    the unordered pairs within `points`, or, given `others`, the cross pairs
    with one point from each set.

    A node pair whose box distance interval lies strictly inside one bin is
    counted whole; one outside every bin is skipped; two leaves are compared
    point by point. The walk splits one node per call, so its recursion
    depth is at most the sum of the two trees' depths.
    """
    a_pts = np.asarray(points, dtype=np.float64)
    if others is None:
        if len(a_pts) < 2:
            raise ValidationError("pair counting needs at least 2 points")
        b_pts = a_pts
        total = len(a_pts) * (len(a_pts) - 1) // 2
    else:
        b_pts = np.asarray(others, dtype=np.float64)
        if len(a_pts) == 0 or len(b_pts) == 0:
            raise ValidationError("cross pair counting needs non-empty sets")
        total = len(a_pts) * len(b_pts)
    edges2 = _chord2_edges(bin_edges_rad)
    counts = np.zeros(len(edges2) - 1, dtype=np.int64)
    tree_a = KdTree(a_pts, leaf_size=leaf_size)
    tree_b = tree_a if others is None else KdTree(b_pts, leaf_size=leaf_size)
    evals = [0]

    def visit_cross(na: int, nb: int) -> None:
        dmin2, dmax2 = tree_a.box_pair_sqdist_bounds(na, nb, tree_b)
        if dmax2 < edges2[0] or dmin2 > edges2[-1]:
            return
        k = int(np.searchsorted(edges2, dmin2, side="right")) - 1
        if 0 <= k < len(edges2) - 1 and dmin2 >= edges2[k] and dmax2 < edges2[k + 1]:
            counts[k] += tree_a.node_count(na) * tree_b.node_count(nb)
            return
        a_leaf, b_leaf = tree_a.is_leaf(na), tree_b.is_leaf(nb)
        if a_leaf and b_leaf:
            ia, ib = tree_a.node_indices(na), tree_b.node_indices(nb)
            d2 = _pairwise_d2(a_pts[ia], b_pts[ib]).ravel()
            evals[0] += len(ia) * len(ib)
            _bin_d2(d2, edges2, counts)
            return
        # split the wider node
        if b_leaf or (not a_leaf and tree_a.node_count(na) >= tree_b.node_count(nb)):
            visit_cross(int(tree_a.node_left[na]), nb)
            visit_cross(int(tree_a.node_right[na]), nb)
        else:
            visit_cross(na, int(tree_b.node_left[nb]))
            visit_cross(na, int(tree_b.node_right[nb]))

    def visit_self(node: int) -> None:
        if tree_a.is_leaf(node):
            idx = tree_a.node_indices(node)
            if len(idx) < 2:
                return
            d2 = _pairwise_d2(a_pts[idx], a_pts[idx])
            iu = np.triu_indices(len(idx), k=1)
            evals[0] += len(iu[0])
            _bin_d2(d2[iu], edges2, counts)
            return
        left, right = int(tree_a.node_left[node]), int(tree_a.node_right[node])
        visit_self(left)
        visit_self(right)
        visit_cross(left, right)

    if others is None:
        visit_self(0)
    else:
        visit_cross(0, 0)
    return PairCountHistogram(np.asarray(bin_edges_rad, dtype=np.float64),
                              counts, total, evals[0])


# ---------------------------------------------------------------------------
# Landy-Szalay estimator

@dataclass
class CorrelationEstimate:
    bin_edges_rad: np.ndarray
    dd: np.ndarray
    dr: np.ndarray
    rr: np.ndarray
    w: np.ndarray          # NaN where RR = 0 (undefined bin)
    err: np.ndarray        # Poisson estimate (1+w)/sqrt(DD); NaN where DD = 0


def correlation_ls(data: np.ndarray, randoms: np.ndarray,
                   bin_edges_rad) -> CorrelationEstimate:
    """Landy-Szalay w(theta) = (dd - 2 dr + rr)/rr from normalized pair
    counts. Pair totals are normalized by N^2/2 (cross by Nd*Nr) so that
    data == randoms collapses to w = 0 identically.
    """
    data = np.asarray(data, dtype=np.float64)
    randoms = np.asarray(randoms, dtype=np.float64)
    if len(data) < 2 or len(randoms) < 2:
        raise ValidationError("correlation needs >= 2 data and >= 2 random points")
    nd, nr = len(data), len(randoms)
    dd_h = pair_count(data, bin_edges_rad)
    rr_h = pair_count(randoms, bin_edges_rad)
    dr_h = pair_count(data, bin_edges_rad, randoms)
    dd = dd_h.counts / (nd * nd / 2.0)
    rr = rr_h.counts / (nr * nr / 2.0)
    dr = dr_h.counts / float(nd * nr)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(rr_h.counts > 0, (dd - 2.0 * dr + rr) / rr, np.nan)
        err = np.where(dd_h.counts > 0, (1.0 + w) / np.sqrt(dd_h.counts), np.nan)
    return CorrelationEstimate(np.asarray(bin_edges_rad, dtype=np.float64),
                               dd_h.counts, dr_h.counts, rr_h.counts, w, err)


# ---------------------------------------------------------------------------
# Gaussian mixture EM

@dataclass
class MixtureModel:
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihoods: list = field(default_factory=list)
    n_iter: int = 0
    seed: int | None = None
    mode: str = "exact"

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def to_json(self) -> str:
        return json.dumps({
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "log_likelihoods": list(self.log_likelihoods),
            "n_iter": self.n_iter,
            "seed": self.seed,
            "mode": self.mode,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MixtureModel":
        d = json.loads(text)
        return cls(np.asarray(d["weights"]), np.asarray(d["means"]),
                   np.asarray(d["covariances"]), d["log_likelihoods"],
                   d["n_iter"], d.get("seed"), d.get("mode", "exact"))


@dataclass
class KdTreeStats:
    nodes_pruned: int = 0
    responsibility_evaluations: int = 0
    exact_equivalence_deviation: float | None = None


def _component_logpdfs(points: np.ndarray, means: np.ndarray,
                       covs: np.ndarray) -> np.ndarray:
    """(N, k) log densities via Cholesky factors."""
    n, d = points.shape
    out = np.empty((n, len(means)))
    for j in range(len(means)):
        chol = np.linalg.cholesky(covs[j])
        diff = points - means[j]
        sol = solve_triangular(chol, diff.T, lower=True)
        maha = np.einsum("ij,ij->j", sol, sol)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, j] = -0.5 * (maha + logdet + d * np.log(2.0 * np.pi))
    return out


def _init_means(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Farthest-point seeding: random first center, then repeatedly the point
    farthest from the chosen set (ties to the lower index)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = len(points)
    chosen = [int(rng.integers(n))]
    min_d2 = np.einsum("ij,ij->i", points - points[chosen[0]],
                       points - points[chosen[0]])
    while len(chosen) < k:
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        d2 = np.einsum("ij,ij->i", points - points[nxt], points - points[nxt])
        min_d2 = np.minimum(min_d2, d2)
    return points[np.asarray(chosen)].copy()


def _covariance_floor(points: np.ndarray) -> np.ndarray:
    var = np.var(points, axis=0)
    floor = 1e-6 * np.maximum(var, 1e-12)
    return np.diag(floor)


def em_fit(points: np.ndarray, k: int, mode: str = "exact", tol: float = 1e-6,
           max_iter: int = 200, seed: int = 0, leaf_size: int = 64,
           tau: float = 1e-4) -> tuple[MixtureModel, KdTreeStats]:
    """Fit a k-component Gaussian mixture by EM.

    'exact' runs the standard per-point E-step; 'kd' computes the E-step over
    kd-tree nodes, assigning a whole node at its centroid responsibility when
    the node's responsibility bounds are tighter than tau.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n, d = points.shape
    if not np.all(np.isfinite(points)):
        raise ValidationError("points must be finite")
    if k < 1 or k > n:
        raise ValidationError(f"need 1 <= k <= N, got k={k}, N={n}")
    if mode not in ("exact", "kd"):
        raise ValidationError(f"unknown EM mode {mode!r}")

    floor = _covariance_floor(points)
    means = _init_means(points, k, seed)
    base_cov = np.cov(points.T).reshape(d, d) + floor
    covs = np.repeat(base_cov[None], k, axis=0)
    weights = np.full(k, 1.0 / k)
    stats = KdTreeStats()
    lls: list[float] = []

    tree = KdTree(points, leaf_size=leaf_size) if mode == "kd" else None
    node_aggr = None
    if tree is not None:
        counts = np.array([tree.node_count(i) for i in range(tree.n_nodes)], dtype=np.float64)
        sums = np.zeros((tree.n_nodes, d))
        sqsums = np.zeros((tree.n_nodes, d, d))
        for i in range(tree.n_nodes):
            idx = tree.node_indices(i)
            if len(idx):
                sums[i] = points[idx].sum(axis=0)
                sqsums[i] = points[idx].T @ points[idx]
        node_aggr = (counts, sums, sqsums)

    for it in range(max_iter):
        if mode == "exact":
            logp = _component_logpdfs(points, means, covs)
            stats.responsibility_evaluations += n * k
            joint = logp + np.log(weights)
            norm = logsumexp(joint, axis=1)
            resp = np.exp(joint - norm[:, None])
            ll = float(np.sum(norm))
            nk = resp.sum(axis=0)
            new_means = (resp.T @ points) / nk[:, None]
            new_covs = np.empty_like(covs)
            for j in range(k):
                diff = points - new_means[j]
                new_covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j] + floor
        else:
            nk, sum_x, sum_xx, ll = _kd_estep(tree, points, node_aggr, weights,
                                              means, covs, tau, stats)
            new_means = sum_x / nk[:, None]
            new_covs = np.empty_like(covs)
            for j in range(k):
                new_covs[j] = (sum_xx[j] / nk[j]
                               - np.outer(new_means[j], new_means[j]) + floor)
                new_covs[j] = 0.5 * (new_covs[j] + new_covs[j].T)
        lls.append(ll)
        weights = nk / nk.sum()
        means = new_means
        covs = new_covs
        if len(lls) >= 2:
            prev = lls[-2]
            if abs(lls[-1] - prev) < tol * max(abs(prev), 1.0):
                break

    model = MixtureModel(weights, means, covs, lls, len(lls), seed, mode)
    return model, stats


def _kd_estep(tree: KdTree, points: np.ndarray, node_aggr, weights, means, covs,
              tau: float, stats: KdTreeStats):
    """Node-pruned E-step: accumulate (Nk, sum x, sum xx^T) per component."""
    counts, sums, sqsums = node_aggr
    k = len(weights)
    d = points.shape[1]
    log_w = np.log(weights)

    chols = [np.linalg.cholesky(covs[j]) for j in range(k)]
    logdets = [2.0 * np.sum(np.log(np.diag(c))) for c in chols]
    eigvals = [np.linalg.eigvalsh(covs[j]) for j in range(k)]
    lam_min = np.array([e[0] for e in eigvals])
    lam_max = np.array([e[-1] for e in eigvals])
    log_norm = np.array([-0.5 * (logdets[j] + d * np.log(2.0 * np.pi))
                         for j in range(k)])

    nk = np.zeros(k)
    sum_x = np.zeros((k, d))
    sum_xx = np.zeros((k, d, d))
    ll = [0.0]

    def points_estep(idx):
        pts = points[idx]
        logp = _component_logpdfs(pts, means, covs)
        stats.responsibility_evaluations += len(idx) * k
        joint = logp + log_w
        norm = logsumexp(joint, axis=1)
        resp = np.exp(joint - norm[:, None])
        ll[0] += float(np.sum(norm))
        for j in range(k):
            nk[j] += resp[:, j].sum()
            sum_x[j] += resp[:, j] @ pts
            sum_xx[j] += (resp[:, j][:, None] * pts).T @ pts

    def visit(node: int):
        cnt = counts[node]
        if cnt == 0:
            return
        # bounds on each component's log density over the node box
        dmin2 = np.array([tree.box_min_sqdist(node, means[j]) for j in range(k)])
        dmax2 = np.array([tree.box_max_sqdist(node, means[j]) for j in range(k)])
        logp_hi = log_norm - 0.5 * dmin2 / lam_max
        logp_lo = log_norm - 0.5 * dmax2 / lam_min
        hi = log_w + logp_hi
        lo = log_w + logp_lo
        # responsibility bounds from the density bounds
        spread_ok = True
        for j in range(k):
            if k == 1:
                break
            rest_hi = logsumexp(np.delete(hi, j))
            rest_lo = logsumexp(np.delete(lo, j))
            r_max = 1.0 / (1.0 + np.exp(rest_lo - hi[j]))
            r_min = 1.0 / (1.0 + np.exp(rest_hi - lo[j]))
            if r_max - r_min > tau:
                spread_ok = False
                break
        if spread_ok:
            stats.nodes_pruned += 1
            centroid = (sums[node] / cnt)[None, :]
            logp_c = _component_logpdfs(centroid, means, covs)[0]
            stats.responsibility_evaluations += k
            joint = logp_c + log_w
            norm = logsumexp(joint)
            resp = np.exp(joint - norm)
            ll[0] += float(cnt * norm)
            for j in range(k):
                nk[j] += resp[j] * cnt
                sum_x[j] += resp[j] * sums[node]
                sum_xx[j] += resp[j] * sqsums[node]
            return
        if tree.is_leaf(node):
            points_estep(tree.node_indices(node))
            return
        visit(int(tree.node_left[node]))
        visit(int(tree.node_right[node]))

    visit(0)
    nk = np.maximum(nk, 1e-12)
    return nk, sum_x, sum_xx, ll[0]


def outlier_scores(model: MixtureModel, points: np.ndarray) -> np.ndarray:
    """Negative mixture log-likelihood per point; higher is more anomalous."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1] != model.dim:
        raise ValidationError(f"points are {points.shape[1]}-d, model is {model.dim}-d")
    logp = _component_logpdfs(points, model.means, model.covariances)
    return -logsumexp(logp + np.log(model.weights), axis=1)

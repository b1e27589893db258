"""Statistical mining: two-point angular pair counting (dual-tree, exact),
the Landy-Szalay correlation estimator, and Gaussian-mixture EM with kd-tree
node pruning for outlier scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import expit, logsumexp

from .errors import ValidationError
from .kdtree import KdTree, box_sqdist_bounds


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

    The walk handles one level of node pairs per step. A node pair whose box
    distance interval lies strictly inside one bin is counted whole; one
    outside every bin is skipped; a pair of two leaves is kept; any other
    pair is replaced by the two pairs of the wider node's children (by point
    count; a leaf is never split). A node's own pairs are its children's own
    pairs plus their cross pairs. The kept leaves are compared point by
    point after the walk (`_compare_leaves`).
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
    n_bins = len(edges2) - 1
    counts = np.zeros(n_bins, dtype=np.int64)
    tree_a = KdTree(a_pts, leaf_size=leaf_size)
    tree_b = tree_a if others is None else KdTree(b_pts, leaf_size=leaf_size)
    size_a = tree_a.node_end - tree_a.node_start
    size_b = tree_b.node_end - tree_b.node_start
    leaf_a, leaf_b = tree_a.node_left < 0, tree_b.node_left < 0

    root, none = np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    # own: nodes whose pairs within themselves are due; (na, nb): node pairs
    # whose cross pairs are due
    own, na, nb = (root, none, none) if others is None else (none, root, root)
    own_leaves, leaf_pairs = [], []
    while len(own) or len(na):
        own_leaves.append(own[leaf_a[own]])
        halved = own[~leaf_a[own]]
        dmin2, dmax2 = box_sqdist_bounds(tree_a.node_lo[na], tree_a.node_hi[na],
                                         tree_b.node_lo[nb], tree_b.node_hi[nb])
        live = (dmax2 >= edges2[0]) & (dmin2 <= edges2[-1])
        k = np.searchsorted(edges2, dmin2, side="right") - 1
        in_bins = (k >= 0) & (k < n_bins)
        kc = np.where(in_bins, k, 0)
        whole = live & in_bins & (dmin2 >= edges2[kc]) & (dmax2 < edges2[kc + 1])
        np.add.at(counts, k[whole], size_a[na[whole]] * size_b[nb[whole]])
        na, nb = na[live & ~whole], nb[live & ~whole]
        a_leaf, b_leaf = leaf_a[na], leaf_b[nb]
        both = a_leaf & b_leaf
        leaf_pairs.append((na[both], nb[both]))
        # split the wider node
        by_a = ~both & (b_leaf | (~a_leaf & (size_a[na] >= size_b[nb])))
        by_b = ~both & ~by_a
        split_a, split_b = na[by_a], nb[by_b]
        na, nb = (np.concatenate([tree_a.node_left[split_a], tree_a.node_right[split_a],
                                  na[by_b], na[by_b], tree_a.node_left[halved]]),
                  np.concatenate([nb[by_a], nb[by_a], tree_b.node_left[split_b],
                                  tree_b.node_right[split_b], tree_a.node_right[halved]]))
        own = np.concatenate([tree_a.node_left[halved], tree_a.node_right[halved]])

    own = np.concatenate(own_leaves)
    evals = _compare_leaves(tree_a, own, tree_a, own, edges2, counts, within=True)
    evals += _compare_leaves(tree_a, np.concatenate([p[0] for p in leaf_pairs]),
                             tree_b, np.concatenate([p[1] for p in leaf_pairs]),
                             edges2, counts)
    return PairCountHistogram(np.asarray(bin_edges_rad, dtype=np.float64),
                              counts, total, evals)


_BATCH_PAIRS = 1 << 18   # most point pairs compared in one array operation


def _compare_leaves(tree_a: KdTree, la: np.ndarray, tree_b: KdTree, lb: np.ndarray,
                    edges2: np.ndarray, counts: np.ndarray, within: bool = False) -> int:
    """Bin the distance of every point pair of each leaf pair (la[i], lb[i]),
    or with `within` (la == lb) of every unordered pair inside each leaf.
    Leaf pairs of one shape are compared together, with the same einsum
    reduction as `_pairwise_d2`. Returns the number of distances computed."""
    if len(la) == 0:
        return 0
    sizes = np.stack([tree_a.node_end[la] - tree_a.node_start[la],
                      tree_b.node_end[lb] - tree_b.node_start[lb]])
    shapes, group = np.unique(sizes, axis=1, return_inverse=True)
    evals = 0
    for g, (sa, sb) in enumerate(shapes.T.tolist()):
        rows = np.flatnonzero(group.ravel() == g)
        pa = tree_a.points[tree_a.perm[tree_a.node_start[la[rows], None] + np.arange(sa)]]
        pb = tree_b.points[tree_b.perm[tree_b.node_start[lb[rows], None] + np.arange(sb)]]
        iu = np.triu_indices(sa, k=1)
        step = max(1, _BATCH_PAIRS // (sa * sb))
        for lo in range(0, len(rows), step):
            diff = pa[lo:lo + step, :, None, :] - pb[lo:lo + step, None, :, :]
            d2 = np.einsum("gijk,gijk->gij", diff, diff)
            if within:
                d2 = d2[:, iu[0], iu[1]]
            _bin_d2(d2.ravel(), edges2, counts)
            evals += d2.size
    return evals


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
    node_aggr = None if tree is None else _node_aggregates(tree, points)

    for it in range(max_iter):
        if mode == "exact":
            resp, norm = _responsibilities(points, means, covs, np.log(weights))
            stats.responsibility_evaluations += n * k
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


def _responsibilities(points: np.ndarray, means, covs, log_w):
    """(N, k) responsibilities and the (N,) log mixture densities."""
    joint = _component_logpdfs(points, means, covs) + log_w
    norm = logsumexp(joint, axis=1)
    return np.exp(joint - norm[:, None]), norm


def _node_aggregates(tree: KdTree, points: np.ndarray):
    """Per-node point count, coordinate sum and sum of outer products."""
    d = points.shape[1]
    counts = (tree.node_end - tree.node_start).astype(np.float64)
    sums = np.zeros((tree.n_nodes, d))
    sqsums = np.zeros((tree.n_nodes, d, d))
    for i in range(tree.n_nodes):
        idx = tree.node_indices(i)
        if len(idx):
            sums[i] = points[idx].sum(axis=0)
            sqsums[i] = points[idx].T @ points[idx]
    return counts, sums, sqsums


def _tight_nodes(hi: np.ndarray, lo: np.ndarray, tau: float) -> np.ndarray:
    """Nodes (rows) where every component's responsibility lies in an
    interval no wider than tau, given lo <= log(w_j p_j(x)) <= hi over the
    node. With rest_j the log-sum-exp over the other components, component
    j's responsibility lies in [expit(lo_j - rest_hi_j),
    expit(hi_j - rest_lo_j)]; in log space nothing overflows."""
    k = hi.shape[1]
    if k == 1:
        return np.ones(len(hi), dtype=bool)
    others = np.where(np.eye(k, dtype=bool), -np.inf, 0.0)   # row j drops component j
    rest_hi, rest_lo = logsumexp(np.stack([hi, lo])[:, :, None, :] + others, axis=3)
    spread = expit(hi - rest_lo) - expit(lo - rest_hi)
    return ~np.any(spread > tau, axis=1)


def _kd_estep(tree: KdTree, points: np.ndarray, node_aggr, weights, means, covs,
              tau: float, stats: KdTreeStats):
    """Node-pruned E-step: accumulate (Nk, sum x, sum xx^T) per component.

    The walk handles one tree level per step. It bounds each component's
    log density over every frontier node's box at once, from the box-to-mean
    distances and the covariance's extreme eigenvalues. A node whose
    responsibility bounds are tight (`_tight_nodes`) is pruned: all its
    points take the responsibilities of its centroid. An open leaf keeps its
    points; an open inner node is replaced by its children. After the walk
    the pruned centroids and the open leaves' points are each scored in one
    call.
    """
    counts, sums, sqsums = node_aggr
    k = len(weights)
    d = points.shape[1]
    log_w = np.log(weights)
    chols = np.linalg.cholesky(covs)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    eigvals = np.linalg.eigvalsh(covs)
    lam_min, lam_max = eigvals[:, 0], eigvals[:, -1]
    log_norm = -0.5 * (logdets + d * np.log(2.0 * np.pi))

    pruned, leaves = [], []
    frontier = np.zeros(1, dtype=np.int64)   # em_fit has N >= 1: no node is empty
    while len(frontier):
        lo_box, hi_box = tree.node_lo[frontier, None], tree.node_hi[frontier, None]
        dmin2, dmax2 = box_sqdist_bounds(lo_box, hi_box, means, means)   # (nodes, k)
        hi = log_w + (log_norm - 0.5 * dmin2 / lam_max)
        lo = log_w + (log_norm - 0.5 * dmax2 / lam_min)
        tight = _tight_nodes(hi, lo, tau)
        pruned.append(frontier[tight])
        frontier = frontier[~tight]
        leaf = tree.node_left[frontier] < 0
        leaves.append(frontier[leaf])
        frontier = np.concatenate([tree.node_left[frontier[~leaf]],
                                   tree.node_right[frontier[~leaf]]])

    nk = np.zeros(k)
    sum_x = np.zeros((k, d))
    sum_xx = np.zeros((k, d, d))
    ll = 0.0
    pruned = np.concatenate(pruned)
    if len(pruned):
        stats.nodes_pruned += len(pruned)
        stats.responsibility_evaluations += len(pruned) * k
        cnt = counts[pruned]
        resp, norm = _responsibilities(sums[pruned] / cnt[:, None], means, covs, log_w)
        ll += float(cnt @ norm)
        nk += cnt @ resp
        sum_x += resp.T @ sums[pruned]
        sum_xx += np.einsum("nj,nab->jab", resp, sqsums[pruned])
    idx = tree.nodes_indices(np.concatenate(leaves))
    if len(idx):
        stats.responsibility_evaluations += len(idx) * k
        pts = points[idx]
        resp, norm = _responsibilities(pts, means, covs, log_w)
        ll += float(np.sum(norm))
        nk += resp.sum(axis=0)
        sum_x += resp.T @ pts
        for j in range(k):
            sum_xx[j] += (resp[:, j][:, None] * pts).T @ pts
    return np.maximum(nk, 1e-12), sum_x, sum_xx, ll


def outlier_scores(model: MixtureModel, points: np.ndarray) -> np.ndarray:
    """Negative mixture log-likelihood per point; higher is more anomalous."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1] != model.dim:
        raise ValidationError(f"points are {points.shape[1]}-d, model is {model.dim}-d")
    logp = _component_logpdfs(points, model.means, model.covariances)
    return -logsumexp(logp + np.log(model.weights), axis=1)

"""Independent oracles the benchmark checks mm-lab's outputs against.

Every function here works on plain numpy arrays and shares no code with
mm_lab: Prokhorov values come from linear programs (scipy's HiGHS) instead
of max-flow, observable diameters from an explicit grid family, Ky Fan
values from a sort and a suffix sum.  The masses use the same 1e-12
tolerance as the library, so ties on a threshold decide the same way.
"""
from __future__ import annotations

import math

import numpy as np

MASS_TOL = 1e-12


# ---------------------------------------------------------------------------
# partial diameter, Lipschitz constant, Ky Fan

def partial_diameter_rows(values: np.ndarray, weights, alpha: float) -> np.ndarray:
    """Partial diameter at mass alpha of each row of values (rows x points).

    For each left end in sorted order, the shortest window reaching mass
    alpha; the minimum over left ends.  A tie at the left end is covered by
    its first member, which carries the most mass to the right.
    """
    v = np.atleast_2d(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    order = np.argsort(v, axis=1, kind="stable")
    vs = np.take_along_axis(v, order, axis=1)
    ws = w[order]
    prefix = np.concatenate([np.zeros((len(v), 1)), np.cumsum(ws, axis=1)], axis=1)
    n = v.shape[1]
    best = vs[:, -1] - vs[:, 0]
    for a in range(n):
        reach = prefix[:, a + 1:] >= (prefix[:, a] + alpha - MASS_TOL)[:, None]
        has = reach.any(axis=1)
        b = a + np.argmax(reach, axis=1)
        width = vs[np.arange(len(v)), b] - vs[:, a]
        best = np.where(has, np.minimum(best, width), best)
    return best


def partial_diameter(values, weights, alpha: float) -> float:
    return float(partial_diameter_rows(np.asarray(values, float)[None, :], weights, alpha)[0])


def max_lipschitz_excess(dist: np.ndarray, values) -> float:
    """Largest |v_i - v_j| - d(i, j); at most 0 for a 1-Lipschitz function."""
    v = np.asarray(values, dtype=float)
    return float((np.abs(v[:, None] - v[None, :]) - dist).max())


def max_lipschitz_excess_euclidean(coords: np.ndarray, values, rows: int = 64) -> float:
    """max_lipschitz_excess for the Euclidean distance of coords, computed
    directly from coordinate differences a block of rows at a time."""
    x = np.asarray(coords, dtype=float)
    v = np.asarray(values, dtype=float)
    worst = -np.inf
    for lo in range(0, len(x), rows):
        diff = x[lo:lo + rows, None, :] - x[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        worst = max(worst, float((np.abs(v[lo:lo + rows, None] - v[None, :]) - dist).max()))
    return worst


def ky_fan(weights, f, g) -> float:
    """Least eps >= 0 with mass{|f - g| > eps} <= eps.

    Between consecutive distinct deviations u_k < u_{k+1} the tail mass is
    the constant T_k = mass{dev > u_k}, so the first interval whose value
    max(u_k, T_k) lies below u_{k+1} holds the infimum.  Tail masses come
    from one sort and one suffix sum.
    """
    w = np.asarray(weights, dtype=float)
    dev = np.abs(np.asarray(f, float) - np.asarray(g, float))
    order = np.argsort(dev, kind="stable")
    d, ws = dev[order], w[order]
    suffix = np.concatenate([np.cumsum(ws[::-1])[::-1], [0.0]])
    u = np.unique(np.concatenate([[0.0], d]))
    # first sorted index with dev > u_k, allowing the library's 1e-15 slack
    first_above = np.searchsorted(d, u + 1e-15, side="right")
    tail = suffix[first_above]
    cand = np.maximum(u, tail)
    upper = np.concatenate([u[1:], [np.inf]])
    ok = cand - MASS_TOL < upper
    return float(cand[int(np.argmax(ok))])


# ---------------------------------------------------------------------------
# Prokhorov distance by linear programming

def max_transport(dist: np.ndarray, mu, nu, radius: float) -> float:
    """Largest mass a partial coupling of mu and nu moves along d <= radius."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    ii, jj = np.nonzero(dist <= radius + 1e-12)
    m = len(ii)
    n_rows, n_cols = dist.shape
    rows = np.concatenate([ii, n_rows + jj])
    cols = np.concatenate([np.arange(m), np.arange(m)])
    A = coo_matrix((np.ones(2 * m), (rows, cols)), shape=(n_rows + n_cols, m)).tocsr()
    res = linprog(-np.ones(m), A_ub=A, b_ub=np.concatenate([mu, nu]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP did not solve: {res.message}")
    return float(-res.fun)


def prokhorov_lp(dist: np.ndarray, mu, nu, lam: float = 1.0) -> float:
    """Lambda-Prokhorov distance: least eps with transport(eps) >= 1 - lam * eps.

    The transport LP value is a step function of the radius, constant
    between consecutive distinct distances d_k < d_{k+1}; on that interval
    the least feasible radius is max(d_k, (1 - T_k) / lam).  Infeasible
    intervals form a prefix, so a binary search over k finds the first
    feasible one with O(log k) linear programs.
    """
    d_k = np.unique(np.asarray(dist, dtype=float))
    if d_k[0] > 0:
        d_k = np.concatenate([[0.0], d_k])
    upper = np.concatenate([d_k[1:], [np.inf]])

    def candidate(k):
        c = max(d_k[k], (1.0 - max_transport(dist, mu, nu, d_k[k])) / lam)
        return c, c < upper[k]

    lo, hi = 0, len(d_k) - 1
    best, _ = candidate(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        c, ok = candidate(mid)
        if ok:
            hi, best = mid, c
        else:
            lo = mid + 1
    return float(best)


def plan_problems(dist, mu, nu, lam, eps, plan_matrix, tol: float = 1e-6) -> list:
    """Ways a subtransport plan fails to witness the Prokhorov value eps."""
    pi = np.asarray(plan_matrix, dtype=float)
    out = []
    if (pi < -tol).any():
        out.append("plan has negative entries")
    if (pi.sum(axis=1) > np.asarray(mu) + tol).any():
        out.append("plan row sums exceed mu")
    if (pi.sum(axis=0) > np.asarray(nu) + tol).any():
        out.append("plan column sums exceed nu")
    if (pi[dist > eps + 1e-12] > tol).any():
        out.append("plan moves mass beyond the returned radius")
    deficiency = 1.0 - float(pi.sum())
    if deficiency > lam * eps + tol:
        out.append(f"plan deficiency {deficiency:.3g} exceeds lam*eps {lam * eps:.3g}")
    return out


# ---------------------------------------------------------------------------
# observable diameter on tiny spaces

def mcshane_grid_rows(dist: np.ndarray, delta: float) -> np.ndarray:
    """All 1-Lipschitz value vectors with v_0 = 0 whose later values are grid
    multiples of delta or an end of their Lipschitz interval.

    Point by point, the interval left open by the values already fixed is
    [max_j (v_j - d_ij), min_j (v_j + d_ij)]; every vector of the
    Lipschitz polytope lies within delta per coordinate of a row.
    """
    n = dist.shape[0]
    K = int(math.ceil(float(dist.max()) / delta))
    grid = np.arange(-K, K + 1) * delta
    rows = np.zeros((1, 1))
    for i in range(1, n):
        lo = (rows - dist[i, :i]).max(axis=1)
        hi = (rows + dist[i, :i]).min(axis=1)
        inner = (grid[None, :] > lo[:, None]) & (grid[None, :] < hi[:, None])
        parent = np.concatenate([np.arange(len(rows)), np.arange(len(rows)),
                                 np.nonzero(inner)[0]])
        value = np.concatenate([lo, hi, np.broadcast_to(grid, inner.shape)[inner]])
        rows = np.column_stack([rows[parent], value])
    return rows


def observable_diameter_grid(dist: np.ndarray, weights, kappa: float, delta: float) -> float:
    """Observable diameter over the delta-grid McShane family.

    The family is a set of genuine 1-Lipschitz functions, so the value is a
    lower bound; each optimal function has a row within delta per value,
    whose partial diameter is at most 2 * delta smaller.
    """
    if dist.shape[0] == 1:
        return 0.0
    rows = mcshane_grid_rows(dist, delta)
    return float(partial_diameter_rows(rows, weights, 1.0 - kappa).max())


# ---------------------------------------------------------------------------
# vertex covers and subset enumerations

def bipartite_min_cover(edges: np.ndarray) -> int:
    """Fewest vertices touching every edge of a bipartite graph given as a
    rows x columns boolean matrix: by König's theorem, the size of a
    maximum matching."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    match = maximum_bipartite_matching(csr_matrix(np.asarray(edges, dtype=bool)),
                                       perm_type="column")
    return int((match >= 0).sum())


def _subset_bits(n: int) -> np.ndarray:
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)


def concentration_function(dist: np.ndarray, weights, r: float, closed: bool = False) -> float:
    """Largest mass outside the r-neighbourhood of a set of mass >= 1/2."""
    w = np.asarray(weights, dtype=float)
    near = (dist <= r if closed else dist < r).astype(float)
    bits = _subset_bits(len(w))
    heavy = bits @ w >= 0.5 - MASS_TOL
    covered = (bits[heavy].astype(float) @ near) > 0
    return float((1.0 - covered @ w).max(initial=0.0))


def kappa_distance(dist: np.ndarray, weights, A1, A2, kappa: float) -> float:
    """Largest min-distance between subsets B1 of A1 and B2 of A2 of mass >= kappa."""
    w = np.asarray(weights, dtype=float)
    A1, A2 = np.asarray(A1, int), np.asarray(A2, int)
    best = 0.0
    heavy2 = [A2[s] for s in _subset_bits(len(A2)) if w[A2[s]].sum() >= kappa - MASS_TOL]
    for s1 in _subset_bits(len(A1)):
        B1 = A1[s1]
        if w[B1].sum() < kappa - MASS_TOL:
            continue
        for B2 in heavy2:
            best = max(best, float(dist[np.ix_(B1, B2)].min()))
    return best


def triangle_excess(a: float, b: float, c: float) -> float:
    """Largest amount by which one side exceeds the sum of the other two."""
    return max(a - b - c, b - a - c, c - a - b)

"""Coupling distances and closeness certificates between finite mm-spaces.

Prokhorov distances and Lipschitz-up-to-additive-error domains from one
min-cut helper, which solves a stack of threshold graphs in one max-flow
call, and one bisection that batches its probes into such stacks; on up to
12 points, values without a plan from Hall's condition on one subset table.
Also the Ky Fan metric, the box distance on equal-mass chunks, near-isomorphism
search, and concentration certificates for maps onto tiny targets.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MASS_TOL,
    ZERO_MASS,
    FiniteMMSpace,
    LipFunction,
    RealDistribution,
    _numbers,
    _sample_count,
    _subset_table,
    mcshane_extend,
    tail_mass,
    validate_space,
)
from .errors import HostMismatch, MMLabError, NotRational, TargetTooLarge, TooLarge
from .invariants import _candidate_observables, _levy_mean_of_values

_FLOW_SCALE = 10 ** 9  # int32 capacities per edge for scipy maximum_flow; totals read in int64
# edges one stacked solve may take, counted as width x the search's densest
# graph: past about 2^14 a stack costs more than the solves it saves (n = 50)
_STACK_EDGES = 16384
# and no more adjacency entries than this: a sparse graph on many points
# stacks dense (n, m) masks, whose cost the edge count does not show
_STACK_CELLS = 1 << 18
_BRUTE_BOUND = 12
_PROFILE_BOUND = 12  # subset tables of at most 4096 rows for the box lower bound
_COVER_EXACT_BOUND = 16
_CHUNK_CAP = 8
_ISO_SEARCH_BUDGET = 600  # single-point reassignments of epsilon_mm_iso_search
_CERT_TARGET_BOUND = 6  # target points of concentration_certificate


# ---------------------------------------------------------------------------
# Ky Fan metric

def ky_fan(space: FiniteMMSpace, f, g) -> float:
    """Infimum eps with mass{|f - g| > eps} <= eps, exact by threshold scan.

    The infimum is attained at 0, at a deviation |f - g|, or at a tail mass
    taken at one of those.  The tail masses at every candidate come from one
    sort of the deviations, one suffix sum of the sorted weights and one
    searchsorted (:func:`tail_mass`), so the scan is O(n log n); the first
    candidate whose tail mass is at most itself is the value.
    """
    fv, gv = (h.values if isinstance(h, LipFunction) else np.asarray(h, dtype=float) for h in (f, g))
    if fv.shape != (space.n,) or gv.shape != (space.n,):
        raise HostMismatch("observables must live on the same space")
    dev = np.abs(fv - gv)
    w = space.weight
    candidates = np.unique(np.concatenate([[0.0], dev]))
    candidates = np.unique(np.concatenate([candidates, tail_mass(dev, w, candidates)]))
    ok = tail_mass(dev, w, candidates) <= candidates + MASS_TOL
    return float(candidates[int(np.argmax(ok))]) if ok.any() else 1.0


# ---------------------------------------------------------------------------
# Prokhorov distance: Strassen feasibility by max-flow

@dataclass(frozen=True)
class SubtransportPlan:
    """Partial coupling supported within the stated radius."""

    matrix: np.ndarray
    radius: float
    deficiency: float

    def check(self, dist: np.ndarray, mu, nu) -> bool:
        pi = self.matrix
        ok_rows = (pi.sum(axis=1) <= np.asarray(mu) + MASS_TOL).all()
        ok_cols = (pi.sum(axis=0) <= np.asarray(nu) + MASS_TOL).all()
        ok_supp = not (pi[dist > self.radius + 1e-12] > MASS_TOL).any()
        ok_def = abs(self.deficiency - (1.0 - pi.sum())) <= 1e-9
        return bool(ok_rows and ok_cols and ok_supp and ok_def)


def _check_prokhorov(space, mu, nu, lam: float) -> list:
    """mu and nu as probability vectors on the space, once lam > 0; else MMLabError."""
    if not lam > 0:
        raise MMLabError("lambda must be positive")
    out = []
    for v in (_numbers(mu, "measure"), _numbers(nu, "measure")):
        if v.shape != (space.n,):
            raise HostMismatch(f"measure of shape {v.shape} on a {space.n}-point space")
        if v.min(initial=0.0) < -1e-12 or abs(v.sum() - 1.0) > 1e-9:
            raise MMLabError("measure must be a probability vector")
        out.append(np.maximum(v, 0.0))
    return out


def maximum_flow(graph, source: int, sink: int):
    """scipy's max-flow solve, imported on the first call rather than with mm_lab."""
    from scipy.sparse.csgraph import maximum_flow as solve
    return solve(graph, source, sink)


def _min_cut(src_caps, snk_caps, adj: np.ndarray):
    """Integer max-flows source -> rows -> columns -> sink on a stack of graphs.

    ``adj`` is a (K, n, m) stack of adjacencies, rows to columns uncapped
    where true; every copy takes the source capacities ``src_caps`` and the
    sink capacities ``snk_caps``.  The K copies go into one scipy solve as
    disjoint graphs between one shared source and sink, so its fixed cost is
    paid once: a maximum flow of the union restricts to a maximum flow of
    each copy.  Returns the K flow values, summed in int64 from the blocks,
    and the (K, n, m) rows x columns flow blocks.
    """
    from scipy.sparse import csr_array
    K, n, m = adj.shape
    adj = adj.reshape(K * n, m)
    rows, sink = K * n, K * (n + m) + 1
    first_col = np.arange(rows) // n * m + rows + 1  # the first column node of each row's copy
    counts = np.count_nonzero(adj, axis=1)
    # CSR rows: the source, the K * n rows, the K * m columns, the sink
    indptr = np.cumsum(np.concatenate([[0, rows], counts, np.ones(K * m, int), [0]]))
    indices = np.concatenate([np.arange(1, rows + 1), np.repeat(first_col, counts) + np.nonzero(adj)[1],
                              np.full(K * m, sink)])
    caps = np.concatenate([np.tile(src_caps, K), np.full(counts.sum(), _FLOW_SCALE),
                           np.tile(snk_caps, K)]).astype(np.int32)
    flow = maximum_flow(csr_array((caps, indices, indptr), shape=(sink + 1, sink + 1)), 0, sink).flow
    # a row node's flow goes back to the source (node 0) or on to a column of its copy
    ptr = flow.indptr[1: rows + 2]
    to, amount = flow.indices[ptr[0]: ptr[-1]], flow.data[ptr[0]: ptr[-1]]
    at = np.repeat(np.arange(rows) * m - first_col, np.diff(ptr)) + to  # index into the blocks
    blocks = np.zeros(rows * m, dtype=np.int32)
    blocks[at[to > 0]] = amount[to > 0]
    blocks = blocks.reshape(K, n, m)
    return blocks.sum(axis=(1, 2), dtype=np.int64), blocks


def _cut_side(src_caps, adj: np.ndarray, block: np.ndarray):
    """Rows and columns on the source side of a minimum cut: those the residual graph reaches."""
    rows = block.sum(axis=1) < src_caps  # source edges with room, then a fixpoint
    while True:
        cols = adj[rows].any(axis=0)
        grown = rows | (block[:, cols] > 0).any(axis=1)
        if (grown == rows).all():
            return rows, cols
        rows = grown


def _stack_width(edges: int, cells: int) -> int:
    """Probes per solve for a search whose densest graph has ``edges`` of ``cells`` possible edges."""
    return max(1, min(_STACK_EDGES // max(1, edges), _STACK_CELLS // max(1, cells)))


def _first_fit(cands, least, width: int = 1):
    """Bisect for the first k whose least value on [cands[k], cands[k+1]) lies below cands[k+1].

    ``least(ks)`` returns, for each k of the list, that value and then what
    the caller keeps; the test is monotone in k, and the last interval, open
    above, is taken untested.  Each call of ``least`` probes up to ``width``
    of the midpoints the bisection can reach next, level by level, and the
    bisection then walks through the answers; so any width returns the
    bisection's k and out, and width 1 probes exactly its sequence.
    """
    last = len(cands) - 1
    lo, hi, found, seen = 0, last, None, {}
    while True:
        while lo < hi and (mid := (lo + hi) // 2) in seen:
            if seen[mid][0] < cands[mid + 1]:
                hi, found = mid, seen[mid]
            else:
                lo = mid + 1
        if lo >= hi and (found or hi in seen):
            return hi, found or seen[hi]
        batch, spans = [], [(lo, hi)]
        for a, b in spans:  # breadth first through the bisection tree below (lo, hi)
            if len(batch) == width:
                break
            if a < b:
                mid = (a + b) // 2
                batch.append(mid)
                spans += [(a, mid), (mid + 1, b)]
        if len(batch) < width and found is None and hi == last:
            batch.append(last)  # the untested last interval, should every probe fail
        seen.update(zip(batch, least(batch)))


def prokhorov(space: FiniteMMSpace, mu, nu, lam: float = 1.0):
    """Lambda-Prokhorov distance plus an optimal subtransport plan.

    Feasibility at radius eps is a bipartite max-flow question: mass moved
    only along pairs with d <= eps must reach 1 - lam * eps, so on [d_k,
    d_k+1) between distinct distances the least feasible radius is
    max(d_k, shortfall_k / lam).  A bisection over the distances, on masses
    in units of 1e-9, finds the first interval holding its own least radius;
    the probes of its next levels share one stacked solve (:func:`_first_fit`),
    one in all on up to 12 points.  The min cut leaves the critical nu-points
    A unreached, and the value is priced in floats, max(d_k, (nu(A) -
    mu(N(A))) / lam) with N(A) within d_k of A: exact except on ties within
    about n * 1e-9 / lam, where it reads low.  The plan comes from the flow.
    """
    mu, nu = _check_prokhorov(space, mu, nu, lam)
    d = space.dist
    mu_int = np.round(mu * _FLOW_SCALE).astype(np.int32)
    nu_int = np.round(nu * _FLOW_SCALE).astype(np.int32)
    # the rounded masses need not sum to _FLOW_SCALE, so the shortfall is
    # measured against the flow with every pair admissible
    full = min(int(mu_int.sum()), int(nu_int.sum()))
    radii = np.unique(d)

    def least_radius(ks):
        flows, blocks = _min_cut(mu_int, nu_int, d <= radii[ks][:, None, None])
        return [(max(float(radii[k]), max(0, full - int(flow)) / _FLOW_SCALE / lam), block)
                for k, flow, block in zip(ks, flows, blocks)]

    # at the diameter every pair is admissible and the flow is full
    k, (_, block) = _first_fit(radii, least_radius, _stack_width(d.size, d.size))
    adj = d <= radii[k]
    critical = ~_cut_side(mu_int, adj, block)[1]
    near = adj[:, critical].any(axis=1)
    eps = max(float(radii[k]), (float(nu[critical].sum()) - float(mu[near].sum())) / lam)
    plan = np.maximum(block, 0).astype(float) / _FLOW_SCALE
    # integer rounding can push marginals past mu/nu by ~1/_FLOW_SCALE; clip
    rs = plan.sum(axis=1)
    plan *= np.where(rs > mu, np.divide(mu, rs, out=np.ones_like(mu), where=rs > 0), 1.0)[:, None]
    cs = plan.sum(axis=0)
    plan *= np.where(cs > nu, np.divide(nu, cs, out=np.ones_like(nu), where=cs > 0), 1.0)[None, :]
    return eps, SubtransportPlan(matrix=plan, radius=eps,
                                 deficiency=float(1.0 - plan.sum()))


def _priced(masks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``float(v[idx].sum())`` for the ascending set bits idx of every mask,
    summed along the rows of one gather per bit count, as the 1-D sum adds."""
    bits = masks[:, None] >> np.arange(len(v)) & 1 > 0
    sizes = bits.sum(axis=1)
    out = np.zeros(len(masks))
    for c in np.unique(sizes[sizes > 0]):
        out[sizes == c] = v[np.nonzero(bits[sizes == c])[1]].reshape(-1, c).sum(axis=1)
    return out


def prokhorov_bruteforce(space: FiniteMMSpace, mu, nu, lam: float = 1.0) -> float:
    """Lambda-Prokhorov value from Hall's condition on subset tables, up to 12 points.

    By Strassen's and Hall's theorems it is the least max(d_k, S_k / lam)
    over the distinct distances d_k, S_k the largest nu(A) - mu(N_k(A)) over
    A within the support of nu; N_k(A), the points within d_k of A, is an OR
    of neighbour bitmasks, one subset table per level bisected as in
    :func:`prokhorov`.  At the probed levels within 1e-12 of the least, the
    subsets within 1e-12 of S_k are priced as a per-subset enumeration
    prices them, nu[A].sum() - mu[N].sum() with ascending indices.
    """
    if space.n > _BRUTE_BOUND:
        raise TooLarge(space.n, _BRUTE_BOUND)
    mu, nu = _check_prokhorov(space, mu, nu, lam)
    support = np.nonzero(nu > ZERO_MASS)[0]
    radii, nu = np.unique(space.dist), nu[support]
    mu_sums, nu_sums = _subset_table(mu, np.add, 0.0), _subset_table(nu, np.add, 0.0)
    # bit i of near[a, k]: point i lies within radii[k] of the a-th support point
    near = ((space.dist[:, support, None] <= radii) << np.arange(space.n)[:, None, None]).sum(axis=0)
    probed = {}

    def level(k):
        hood = _subset_table(near[:, k], np.bitwise_or, 0)
        short = nu_sums - mu_sums[hood]
        return max(float(radii[k]), float(short.max()) / lam), short, hood

    _first_fit(radii, lambda ks: [probed.setdefault(k, level(k)) for k in ks])
    least = min(eps for eps, _, _ in probed.values())
    value = math.inf
    for k, (eps, short, hood) in probed.items():
        if eps <= least + 1e-12:
            top = np.nonzero(short >= short.max() - 1e-12)[0]
            gap = _priced(top, nu) - _priced(hood[top], mu)
            value = min(value, max(float(radii[k]), float(gap.max()) / lam))
    return value


def _prokhorov_eps(space: FiniteMMSpace, mu, nu, lam: float) -> float:
    """The lambda-Prokhorov value alone: the subset table up to 12 points, else the flow."""
    if space.n <= _BRUTE_BOUND:
        return prokhorov_bruteforce(space, mu, nu, lam)
    return prokhorov(space, mu, nu, lam)[0]


def prokhorov_real(a: RealDistribution, b: RealDistribution, lam: float = 1.0) -> float:
    """Prokhorov distance between two real-atom distributions on their union carrier."""
    pos = np.unique(np.concatenate([a.positions, b.positions]))
    dist = np.abs(pos[:, None] - pos[None, :])
    carrier = validate_space({"dist": dist, "weight": np.full(len(pos), 1.0 / len(pos))})
    mu, nu = (np.bincount(np.searchsorted(pos, rd.positions), rd.masses, len(pos)) for rd in (a, b))
    return _prokhorov_eps(carrier, mu, nu, lam)


# ---------------------------------------------------------------------------
# box distance on equal-mass chunks

def _chunk_counts(weight: list, k: int):
    """Chunks of mass 1/k per atom, or None unless every atom holds a positive whole number."""
    scaled = [w * k for w in weight]
    counts = [round(v) for v in scaled]
    if max(abs(v - c) for v, c in zip(scaled, counts)) > 1e-6 * k:
        return None
    return counts if min(counts) >= 1 and sum(counts) == k else None


def _common_chunking(x: FiniteMMSpace, y: FiniteMMSpace):
    """Smallest common k and the atom of each of the k equal-mass chunks of x and y.

    Every atom takes at least one chunk, so k starts at the larger point count.
    """
    wx, wy = x.weight.tolist(), y.weight.tolist()
    for k in range(max(x.n, y.n), _CHUNK_CAP + 1):
        rx, ry = _chunk_counts(wx, k), _chunk_counts(wy, k)
        if rx and ry:
            return k, np.repeat(np.arange(x.n), rx), np.repeat(np.arange(y.n), ry)
    raise NotRational(
        f"weights admit no common equal-mass refinement with at most {_CHUNK_CAP} chunks")


def _chunk_couplings(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """One y-label sequence per integer coupling of the chunk labels ``cx``, ``cy``.

    Row r gives the y-atom of every x-chunk; rows use the multiset ``cy`` and
    are non-decreasing inside each block of equal ``cx``, so each matrix of
    counts with margins ``bincount(cx)`` and ``bincount(cy)`` appears once.
    Built one position at a time: every state keeps its unused counts and a
    pointer to its prefix, and the rows are read back through the pointers.
    """
    left = np.bincount(cy)[None, :]
    labels = np.arange(left.shape[1])
    steps = []
    for p in range(len(cx)):
        ok = left > 0
        if p > 0 and cx[p] == cx[p - 1]:
            ok &= labels >= lab[:, None]
        row, lab = np.nonzero(ok)
        left = left[row] - (labels == lab[:, None])
        steps.append((row, lab))
    seqs = np.empty((len(left), len(cx)), dtype=int)
    state = np.arange(len(left))
    for p in range(len(cx) - 1, -1, -1):
        row, lab = steps[p]
        seqs[:, p] = lab[state]
        state = row[state]
    return seqs


def box_distance(x: FiniteMMSpace, y: FiniteMMSpace, mode: str = "exact_tiny", seed=0):
    """Box distance: exact over integer couplings of equal-mass chunks, or bounds.

    Exact mode splits both spaces into k equal-mass chunks (k <= 8) and
    minimizes, over chunk bijections and retained chunk subsets, the larger
    of the discarded mass and the worst pairwise distance discrepancy.
    Couplings of uniform chunk vectors are convex combinations of bijections
    and the retained-subset objective is extremal at vertices, so the
    enumeration is exact for rational weights.  It runs over integer
    couplings of equal-mass chunks, one evaluation each: a bijection enters
    only through the number of chunks of x-atom i it sends to y-atom j, since
    exchanging two chunks of one atom permutes the chunk pairs and leaves
    their distance discrepancies, hence every subset's value, unchanged.
    Every max and min is exact, so the value equals the minimum over all k!
    bijections bit for bit.  Bound mode returns (lower, upper) with the upper
    bound 3 * (best near-isomorphism epsilon).
    """
    if mode == "exact_tiny":
        k, cx, cy = _common_chunking(x, y)
        dx = x.dist[np.ix_(cx, cx)]
        couplings = _chunk_couplings(cx, cy)
        sizes = _subset_table(np.ones(k), np.add, 0.0)  # chunks in every subset
        deficits = 1.0 - sizes[:, None] / k
        # batches double from one coupling up to 2^18 subset diameters at
        # once (k <= _CHUNK_CAP = 8), so a zero found early ends the scan
        best, lo, batch = np.inf, 0, 1
        while lo < len(couplings) and best > 0.0:
            lab = couplings[lo: lo + batch].T
            disc = np.abs(dx[:, :, None] - y.dist[lab[:, None, :], lab[None, :, :]])
            eps = np.maximum(_subset_diameters(disc), deficits).min(axis=0)
            best = min(best, float(eps.min()))
            lo, batch = lo + batch, min(2 * batch, 1 << (18 - k))
        return best
    if mode == "bound":
        cert = epsilon_mm_iso_search(x, y, seed=seed)
        upper = 3.0 * cert.eps
        lower = _box_lower_profile(x, y)
        return (min(lower, upper), upper)
    raise MMLabError(f"unknown mode {mode!r}")


def _subset_diameters(d: np.ndarray) -> np.ndarray:
    """Largest ``d[i, j]`` over the pairs of every subset of the first axis.

    ``d`` is symmetric in its first two axes; further axes are carried
    along.  A subset with top bit b adds to the subset below it the pairs
    (i, b), whose maximum is read from the subset table of column b.
    """
    diams = np.zeros((1 << len(d),) + d.shape[2:])
    for b in range(len(d)):
        far = _subset_table(d[:b, b], np.maximum, 0.0)  # far[m]: largest d[i, b], i in m
        np.maximum(diams[: 1 << b], far, out=diams[1 << b: 2 << b])
    return diams


def _partial_diameters(space: FiniteMMSpace):
    """Partial diameter of the space at any array of mass levels, from its subsets."""
    diams = _subset_diameters(space.dist)
    masses = _subset_table(space.weight, np.add, 0.0)
    order = np.argsort(masses, kind="stable")
    # best[k]: smallest diameter from the k-th lightest subset on; best[2^n] = diam
    best = np.append(np.minimum.accumulate(diams[order][::-1])[::-1], space.diam)
    return lambda alpha: best[np.searchsorted(masses[order], alpha - MASS_TOL, side="left")]


def _box_lower_profile(x: FiniteMMSpace, y: FiniteMMSpace) -> float:
    if x.n > _PROFILE_BOUND or y.n > _PROFILE_BOUND:
        return 0.0
    alphas = np.linspace(0.15, 1.0, 18)
    eps = np.linspace(0.0, max(x.diam, y.diam), 64)[:, None]
    pdx, pdy = _partial_diameters(x), _partial_diameters(y)
    shrunk = np.maximum(alphas - eps, 1e-9)
    sep = ((pdy(shrunk) > pdx(alphas) + eps + 1e-9).any(axis=1)
           | (pdx(shrunk) > pdy(alphas) + eps + 1e-9).any(axis=1))
    return float(eps[sep].max(initial=0.0))


# ---------------------------------------------------------------------------
# near-isomorphism search and Lipschitz-up-to domains

def _cut_domain_eps(gap: np.ndarray, w: np.ndarray, grid=None, left=None):
    """Least eps, and a domain, over the grid or else 0 and the positive gaps.

    On [c_k, c_k+1) the least eps is max(c_k, float mass of a min-cut cover
    of the pairs with gap > c_k), least when ``left`` splits every such pair
    (Koenig-Egervary).  Otherwise the cut runs on the bipartite double cover
    and a point joins if either copy does, a half-integral LP optimum rounded
    up (Nemhauser-Trotter): at most twice the least mass, an upper bound.
    """
    cands = np.unique(np.append(gap[gap > 0], 0.0)) if grid is None else np.asarray(grid, float)
    w_int = np.round(w * _FLOW_SCALE).astype(np.int32)
    if left is None:
        left = right = np.ones(len(w), dtype=bool)
    else:
        right = ~left
        gap = gap[np.ix_(left, right)]

    def least(ks):
        viol = gap > cands[ks][:, None, None]
        cut = viol.any(axis=(1, 2))
        blocks = iter(_min_cut(w_int[left], w_int[right], viol[cut])[1] if cut.any() else ())
        outs = []
        for k, v, solved in zip(ks, viol, cut):
            cover = np.zeros(len(w), dtype=bool)
            if solved:
                rows, cols = _cut_side(w_int[left], v, next(blocks))
                cover[left] = ~rows
                cover[right] |= cols
            outs.append((max(float(cands[k]), float(w[cover].sum())), cover))
        return outs

    # the lowest candidate has the most violating pairs
    _, (eps, cover) = _first_fit(cands, least, _stack_width(int((gap > cands[0]).sum()), gap.size))
    return eps, np.nonzero(~cover)[0]


def _least_domain_eps(gap: np.ndarray, w: np.ndarray, eps_grid=None, left=None):
    """Least eps, and a domain, with domain mass >= 1 - eps and every gap in it <= eps.

    On up to 16 points the least eps is min over domains K of max(largest
    gap in K, mass outside K): one subset table of largest gaps and one of
    masses, read at the complement (mask 2^n - 1 - m is the reversed table),
    so the full domain costs exactly its largest gap; beyond 16 points, see
    :func:`_cut_domain_eps`.  With a grid, the first grid value from there
    on is returned; None when there is none.
    """
    n = len(w)
    grid = None if eps_grid is None else sorted(float(e) for e in eps_grid)
    if n <= _COVER_EXACT_BOUND:
        cost = np.maximum(_subset_diameters(gap), _subset_table(w, np.add, 0.0)[::-1])
        best = int(np.argmin(cost))
        eps, domain = float(cost[best]), np.nonzero(best >> np.arange(n) & 1)[0]
    else:
        eps, domain = _cut_domain_eps(gap, w, grid, left)
    if grid is not None:
        eps = next((e for e in grid if e >= eps - 1e-12), None)
    return None if eps is None else (eps, domain)


def _point_map(p_map, source: FiniteMMSpace, target: FiniteMMSpace) -> np.ndarray:
    """``p_map`` as one target index per source point, or MMLabError."""
    p = _numbers(p_map, "map", dtype=int)
    if p.shape != (source.n,) or ((p < 0) | (p >= target.n)).any():
        raise MMLabError("map must assign a target index to every source point")
    return p


def lip_up_to_eps(p_map, source: FiniteMMSpace, target: FiniteMMSpace,
                  eps_grid=None):
    """Smallest (grid) epsilon admitting a mass >= 1 - eps domain on which
    d_Y(p x, p x') <= d_X(x, x') + eps holds for all pairs.

    Exact on up to 16 points: the least epsilon is the minimum over domains
    of the larger of their largest gap and their missing mass, from two
    subset tables, and with eps_grid the first grid value at or above it.
    Beyond 16 points a min cut covers the violating pairs: exactly onto at
    most 2 points, as an upper bound onto more.  Returns (inf, all points)
    when no grid epsilon admits a domain.
    """
    p = _point_map(p_map, source, target)
    found = _least_domain_eps(target.dist[np.ix_(p, p)] - source.dist, source.weight,
                              eps_grid, left=(p == 0) if target.n <= 2 else None)
    return found or (math.inf, np.arange(source.n))


@dataclass(frozen=True)
class IsoCertificate:
    eps: float
    mapping: np.ndarray
    domain: np.ndarray
    eps_distortion: float
    eps_prok: float


def epsilon_mm_iso_search(x: FiniteMMSpace, y: FiniteMMSpace, seed=0) -> IsoCertificate:
    """Search point maps x -> y approximately preserving distances and measure.

    The objective is max(distortion-with-domain, pushforward Prokhorov).
    Exhaustive when there are at most 4096 maps, where the first least map
    wins; otherwise greedy weight matching followed by _ISO_SEARCH_BUDGET
    random single-point reassignments, each kept when it lowers the
    objective by more than 1e-15.
    """

    def objective(p):
        pushed = np.bincount(p, x.weight, y.n)
        e_dist, dom = _least_domain_eps(np.abs(x.dist - y.dist[np.ix_(p, p)]), x.weight)
        e_prok = _prokhorov_eps(y, pushed, y.weight, 1.0)
        return IsoCertificate(eps=float(max(e_dist, e_prok)), mapping=p, domain=dom,
                              eps_distortion=e_dist, eps_prok=e_prok)

    if y.n ** x.n <= 4096:
        return min((objective(np.array(p, dtype=int))
                    for p in itertools.product(range(y.n), repeat=x.n)),
                   key=lambda cert: cert.eps)

    capacity = y.weight.copy()
    p = np.zeros(x.n, dtype=int)
    for i in np.argsort(-x.weight, kind="stable"):
        j = int(np.argmax(capacity))
        p[i] = j
        capacity[j] -= x.weight[i]
    best = objective(p)
    rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, 55])
    for _ in range(_ISO_SEARCH_BUDGET):
        i = int(rng.integers(0, x.n))
        j = int(rng.integers(0, y.n))
        if best.mapping[i] == j:
            continue
        trial = best.mapping.copy()
        trial[i] = j
        cand = objective(trial)
        if cand.eps < best.eps - 1e-15:
            best = cand
    return best


# ---------------------------------------------------------------------------
# concentration certificates

@dataclass(frozen=True)
class ConcentrationCertificate:
    """How far a map is from collapsing the source onto a tiny target:
    ``epsilon_prok`` exact, ``epsilon_lip`` exact (an upper bound beyond 16
    points onto more than 2), ``epsilon_haus`` the largest of the heuristic
    fits in ``observables``, bounding from neither side, and ``overall``."""

    mapping: np.ndarray
    epsilon_lip: float
    lip_domain: np.ndarray
    epsilon_prok: float
    epsilon_haus: float
    overall: float
    observables: tuple = ()
    meta: dict = field(default_factory=dict)


def _lip1_target_fit(source: FiniteMMSpace, target: FiniteMMSpace, p: np.ndarray,
                     f_vals: np.ndarray) -> float:
    """Ky Fan distance from f to g o p for a 1-Lipschitz g on the target.

    g is the Levy mean of f on each fiber (the median of f on an empty one).
    The McShane extensions of g and of its lower envelope max_k g_k - d(k, j)
    are scored, and the first least kept.  Only a one-point target is
    searched further, on a shrinking grid: on more points each coordinate of
    a McShane extension already sits at both ends of its Lipschitz window.
    """
    every = np.arange(target.n)
    overall = float(np.median(f_vals))
    g = np.empty(target.n)
    for j in every:
        fiber = p == j
        if fiber.any():
            wj = source.weight[fiber]
            g[j] = _levy_mean_of_values(f_vals[fiber], wj / wj.sum()).mean
        else:
            g[j] = overall
    lower = (g[None, :] - target.dist).max(axis=1)
    starts = [mcshane_extend(target, every, v) for v in (g, lower)]
    best, center = min(((ky_fan(source, f_vals, gv[p]), gv[0]) for gv in starts),
                       key=lambda sc: sc[0])
    if target.n > 1:
        return best
    step = max(best, target.diam / 8, 1e-6)
    for _ in range(3):
        improved = True
        while improved:
            improved = False
            for c in np.linspace(center - step, center + step, 9):
                s = ky_fan(source, f_vals, np.full(source.n, c))
                if s < best - 1e-12:
                    best, center = s, c
                    improved = True
        step /= 3.0
    return best


def concentration_certificate(source: FiniteMMSpace, target: FiniteMMSpace,
                              p_map, budget: int = 4000, seed=0) -> ConcentrationCertificate:
    """Measure how well a map collapses the source onto a tiny target.

    The overall epsilon is the largest of three parts: the Prokhorov distance
    of the pushforward from the target measure (exact); the additive
    Lipschitz error of the map (:func:`lip_up_to_eps`: exact, an upper bound
    beyond 16 source points onto more than 2); and the largest Ky Fan
    distance from a sampled source observable to its heuristic 1-Lipschitz
    fit on the target (:func:`_lip1_target_fit`), which bounds from neither
    side.  ``budget`` must be an integer of at least 1.
    """
    _sample_count(budget, "budget")
    if target.n > _CERT_TARGET_BOUND:
        raise TargetTooLarge(f"target has {target.n} > {_CERT_TARGET_BOUND} points")
    p = _point_map(p_map, source, target)

    pushed = np.bincount(p, source.weight, target.n)
    eps_prok = _prokhorov_eps(target, pushed, target.weight, 1.0)

    eps_lip, domain = lip_up_to_eps(p, source, target)

    n_obs = max(8, min(40, budget // 100))
    evidence = tuple(float(_lip1_target_fit(source, target, p, f))
                     for block in _candidate_observables(source, n_obs, seed) for f in block)
    eps_haus = max(evidence, default=0.0)
    overall = max(eps_lip, eps_prok, eps_haus)
    return ConcentrationCertificate(
        mapping=p, epsilon_lip=float(eps_lip), lip_domain=domain,
        epsilon_prok=float(eps_prok), epsilon_haus=float(eps_haus),
        overall=float(overall), observables=evidence,
        meta={"seed": seed, "budget": budget, "samples": len(evidence)})

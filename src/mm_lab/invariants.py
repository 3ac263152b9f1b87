"""Concentration invariants of finite metric measure spaces.

Partial diameter, observable diameter and Levy radius (exact on tiny
instances, over every value ordering; lower bounds elsewhere), concentration
function, Levy mean, and kappa-distance between subsets.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    MASS_TOL,
    MERGE_GAP,
    FiniteMMSpace,
    RealDistribution,
    _merge_sorted,
    _projection_flags,
    _readonly,
    _sample_count,
    _subset_table,
    as_lip,
    project_to_lip1,
    tail_mass,
    validate_space,
)
from .errors import BadAlpha, BadKappa, MMLabError, TooLarge

EXACT_OD_BOUND = 6  # points of the exact observable diameter and Levy radius
_EXACT_SUBSET_BOUND = 16


# ---------------------------------------------------------------------------
# estimates and modes

@dataclass(frozen=True)
class Estimate:
    """A concentration invariant in [lower, upper], in one of three regimes:
    ``exact`` (lower equals upper), ``lower`` (a heuristic pool or the greedy
    kappa-distance; upper is inf) or ``bracket`` (the heuristic
    concentration sandwich).  ``witness`` is the observable of an observable
    diameter or the pair of chunks of a kappa-distance, else None."""

    lower: float
    upper: float
    regime: str
    witness: object = None
    meta: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.lower


def _mode(mode: str, n: int, bound: int) -> str:
    """``exact`` or ``bounds``: the path an estimator takes on n points when
    its exact path takes at most ``bound``.  ``auto`` is exact when it fits;
    ``exact`` above the bound raises TooLarge.  The former spellings
    exact_tiny and heuristic_lb read as exact and bounds."""
    if mode in ("exact_tiny", "heuristic_lb"):
        mode = "exact" if mode == "exact_tiny" else "bounds"
    if mode == "auto":
        return "exact" if n <= bound else "bounds"
    if mode not in ("exact", "bounds"):
        raise MMLabError(f"unknown mode {mode!r}: expected auto, exact or bounds")
    if mode == "exact" and n > bound:
        raise TooLarge(n, bound)
    return mode


# ---------------------------------------------------------------------------
# partial diameter and Levy mean on real distributions

def partial_diameter(dist: RealDistribution, alpha: float) -> float:
    """Shortest closed interval capturing mass >= alpha, by sliding window.

    On the line any minimal-mass carrier may be replaced by an interval, so
    the window scan over sorted atoms is exact.
    """
    if not (0.0 < alpha <= 1.0 + MASS_TOL):
        raise BadAlpha(f"alpha = {alpha} outside (0, 1]")
    return _pd_of_values(dist.positions, dist.masses, alpha)


def _pd_of_values(values, weights, alpha: float) -> float:
    pos, mass = _merge_sorted(values, weights)
    prefix = np.concatenate([[0.0], np.cumsum(mass)])
    j = np.searchsorted(prefix, prefix[:-1] + alpha - MASS_TOL, side="left") - 1
    valid = j < len(pos)
    if not valid.any():
        return float(pos[-1] - pos[0])
    return float((pos[j[valid]] - pos[np.nonzero(valid)[0]]).min())


@dataclass(frozen=True)
class MedianInterval:
    mean: float
    low: float
    high: float


def levy_mean(dist: RealDistribution) -> MedianInterval:
    """Midpoint of the closed interval of medians (one-sided half-mass conditions)."""
    return _levy_mean_of_values(dist.positions, dist.masses)


def _levy_mean_of_values(values, weights) -> MedianInterval:
    """levy_mean of the atoms ``values`` with masses ``weights`` (summing to one)."""
    pos, mass = _merge_sorted(values, weights)
    low, high = (float(pos[i]) for i in _median_ends(mass))
    return MedianInterval(mean=0.5 * (low + high), low=low, high=high)


def _median_ends(mass: np.ndarray):
    """First and last median position along the last axis of ``mass``: each
    holds mass >= 1/2 - MASS_TOL up to it and from it on."""
    cum = np.cumsum(mass, axis=-1)
    median = (cum >= 0.5 - MASS_TOL) & (1.0 - cum + mass >= 0.5 - MASS_TOL)
    return np.argmax(median, axis=-1), mass.shape[-1] - 1 - np.argmax(median[..., ::-1], axis=-1)


# ---------------------------------------------------------------------------
# observable diameter

@functools.lru_cache(maxsize=EXACT_OD_BOUND)
def _orderings(n: int) -> np.ndarray:
    """The orderings p of n points with p[0] < p[-1], one per row, read-only.

    Reversed, an ordering negates the observable, which moves neither a
    partial diameter nor a Levy radius, so the exact modes need only these.
    """
    perms = [p for p in itertools.permutations(range(n)) if p[0] < p[-1]]
    return _readonly(np.array(perms, dtype=int).reshape(-1, n))


def _qualifying_runs(wp: np.ndarray, target: float):
    """Minimal index b per start a with run mass >= target, per permutation row."""
    idx = np.arange(wp.shape[1])
    prefix = np.concatenate([np.zeros((len(wp), 1)), np.cumsum(wp, axis=1)], axis=1)
    # hit[p, a, b]: b >= a and the run a..b holds mass >= target
    hit = (prefix[:, None, 1:] >= prefix[:, :-1, None] + target - MASS_TOL) & (idx >= idx[:, None])
    return np.where(hit.any(axis=2), np.argmax(hit, axis=2), -1)


def _ordering_paths(d: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Lightest path table of each ordering, one (n, n) table per row of perms:
    paths[p, i, j] from position i to j of sigma = perms[p], where a step up
    k -> m costs d(sigma_k, sigma_m) and a step back is free (Floyd-Warshall).
    It depends on the space and the ordering, not on kappa.  Its bit identity
    with the former frontier DP of _od_exact is empirical (hypothesis, 2-8
    points): both add the same edges but may group the sums differently."""
    idx = np.arange(perms.shape[1])
    paths = np.where(idx[:, None] < idx, d[perms[:, :, None], perms[:, None, :]], 0.0)
    for k in range(len(idx)):
        paths = np.minimum(paths, paths[:, :, k, None] + paths[:, None, k, :])
    return paths


def _od_exact(space: FiniteMMSpace, kappa: float):
    """Exact observable diameter for n <= EXACT_OD_BOUND points.

    For each value ordering, maximizing the smallest heavy-window span under
    the Lipschitz caps is a difference-constraint system whose run edges
    weigh -t.  It is feasible while every cycle through k run edges has
    non-run weight at least k * t, so the largest span is the minimum cycle
    mean (Karp 1978) of the graph on run starts whose edge i -> a costs the
    lightest non-run path from i to the end of the run at a, read from the
    _ordering_paths table.  The witness is the Bellman-Ford potential of the
    best ordering.  All orderings are done at once, O(n^3) each.
    """
    n, w, d = space.n, space.weight, space.dist
    target = 1.0 - kappa
    if n == 1 or float(w.max()) >= target - MASS_TOL:
        return 0.0, np.zeros(n), {"surrogate": 0.0, "orderings": 0}

    perms = _orderings(n)
    runs = _qualifying_runs(w[perms], target)
    paths = _ordering_paths(d, perms)
    # step[p, i, a]: lightest path from i to the end of the run starting at a, then back to a
    rows, cols = np.arange(len(perms))[:, None, None], np.arange(n)[None, :, None]
    step = np.where(runs[:, None, :] >= 0, paths[rows, cols, runs[:, None, :]], np.inf)

    # D[k, p, v]: lightest k-edge walk ending at v; the least cycle mean is
    # min over v of max over k < n of (D[n] - D[k]) / (n - k)
    D = np.zeros((n + 1, len(perms), n))
    for k in range(1, n + 1):
        D[k] = (D[k - 1][:, :, None] + step).min(axis=1)
    with np.errstate(invalid="ignore"):
        means = ((D[n] - D[:n]) / (n - np.arange(n))[:, None, None]).max(axis=0)
    span = np.where(np.isfinite(D[n]), means, np.inf).min(axis=1)
    best = int(np.argmax(span))
    t = float(span[best])

    # C[i, j]: the constraint u_j <= u_i + C[i, j] of the best ordering
    idx = np.arange(n)
    C = np.where(idx[:, None] < idx, d[perms[best][:, None], perms[best]], np.inf)
    C[idx[1:], idx[:-1]] = 0.0
    has = runs[best] >= 0
    C[runs[best][has], idx[has]] = -t
    # Jacobi rounds from a zero super-source: a lightest path is simple, so
    # n - 1 rounds reach every one
    u = np.zeros(n)
    for _ in range(n - 1):
        u = np.minimum(u, (u[:, None] + C).min(axis=0))
    # values[sigma_i] = u_i
    return t, u[np.argsort(perms[best])], {"surrogate": t, "orderings": len(perms)}


_RANK_BLOCK = 256


def _candidate_observables(space: FiniteMMSpace, count: int, seed):
    """Deterministic pool of 1-Lipschitz observables (distance cones, coordinates).

    Yields the pool's rows, at most count of them, as fresh arrays of at most
    _RANK_BLOCK rows, so that a caller can rank each block while the next
    is built: the distance columns of up to 32 anchors, then distance cones
    min_a (c_a + d(., a)) over 1, 2, 3 anchors in turn, then coordinate
    projections.  Two seeded streams draw every cone at once: row k of
    default_rng([seed, 202]).integers(0, n, (cones, 3)) holds the anchors
    of cone k, and row k of default_rng([seed, 203]).random((cones, 3)) * diam
    its offsets; cone k takes the first 1 + k % 3 of each.  Both tables
    fill row by row, so a pool is a prefix of any larger pool with the same
    seed.  Each block of cones is built one arity at a time, straight into
    its rows, from rows of d, which equal its columns bit for bit (the
    canonical matrix of validate_space).  The coordinate
    projections are flagged together by _projection_flags, with the flags
    of _exceeds_lip1: when coords_error certifies the distances, only pairs
    nearly parallel to a direction are compared, and every other pair is
    proved 1-Lipschitz; otherwise the float64 comparison of _exceeds_lip1
    decides.  Only the directions flagged are rescaled by project_to_lip1;
    the others are 1-Lipschitz already and are used as they are.
    """
    n, d = space.n, space.dist
    key = int(seed) & 0x7FFFFFFF
    rng = np.random.default_rng([key, 101])
    anchors = np.arange(n) if n <= 32 else rng.choice(n, 32, replace=False)
    n_cones = max(0, count // 2 - len(anchors))
    dirs = []
    if space.coords is not None:
        dims = space.coords.shape[1]
        dirs = [np.eye(dims)[i] for i in range(min(dims, 16))]
        sub = np.random.default_rng([key, 303])
        extra = sub.normal(size=(min(32, max(4, count // 8)), dims))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs.extend(extra)
        dirs = dirs[: max(0, count - len(anchors) - n_cones)]
    yield d[anchors[:count]]
    if n_cones:
        a = np.random.default_rng([key, 202]).integers(0, n, (n_cones, 3))
        c = np.random.default_rng([key, 203]).random((n_cones, 3)) * space.diam
        for lo in range(0, n_cones, _RANK_BLOCK):
            block = np.empty((min(_RANK_BLOCK, n_cones - lo), n))
            for r in range(3):
                # cones k = r, r + 3, ... take the first r + 1 anchors of their rows
                first = lo + (r - lo) % 3
                ar, cr = a[first: lo + len(block): 3], c[first: lo + len(block): 3]
                rows = block[first - lo:: 3]
                np.add(cr[:, 0, None], d[ar[:, 0]], out=rows)
                for i in range(1, r + 1):
                    cone = d[ar[:, i]]
                    cone += cr[:, i, None]
                    np.minimum(rows, cone, out=rows)
            yield block
    if dirs:
        proj = np.empty((len(dirs), n))
        for row, u in zip(proj, dirs):
            np.matmul(space.coords, u, out=row)
        for i in np.nonzero(_projection_flags(space, dirs, proj))[0]:
            proj[i] = project_to_lip1(space, proj[i])
        yield proj


def _pd_of_rows(values: np.ndarray, weights, alpha: float) -> np.ndarray:
    """_pd_of_values of every row of a 2-D array, from one row-wise sort.

    A row whose sorted values hold a gap <= MERGE_GAP, which _merge_sorted
    would merge, goes through _pd_of_values itself; a -0.0/0.0 tie is such a
    gap, so the order a sort gives equal values never reaches a result.  Every
    other row has distinct values, so any sort gives it the stable order,
    and the row-wise cumsum adds in the same order as the 1-D one: the
    results are the same bits.  When all weights are equal, weights[order]
    is weights for every row, so one 1-D prefix and one searchsorted give
    the window ends j of every row, and the rows need only a sort.
    """
    rows, n = values.shape
    if np.ptp(weights) == 0:
        pos = np.sort(values, axis=1)
        prefix = np.concatenate([[0.0], np.cumsum(weights)])
        j = np.searchsorted(prefix, prefix[:-1] + alpha - MASS_TOL, side="left") - 1
        valid = j < n
        if valid.any():
            pd = (pos[:, j[valid]] - pos[:, valid]).min(axis=1)
        else:
            pd = pos[:, -1] - pos[:, 0]
    else:
        order = np.argsort(values, axis=1)
        pos = np.take_along_axis(values, order, axis=1)
        prefix = np.zeros((rows, n + 1))
        np.cumsum(weights[order], axis=1, out=prefix[:, 1:])
        j = np.empty((rows, n), dtype=np.intp)
        for r in range(rows):
            j[r] = np.searchsorted(prefix[r], prefix[r, :-1] + alpha - MASS_TOL, side="left") - 1
        valid = j < n
        spans = np.take_along_axis(pos, np.minimum(j, n - 1), axis=1) - pos
        spans[~valid] = np.inf
        pd = np.where(valid.any(axis=1), spans.min(axis=1), pos[:, -1] - pos[:, 0])
    for r in np.nonzero((np.diff(pos, axis=1) <= MERGE_GAP).any(axis=1))[0]:
        pd[r] = _pd_of_values(values[r], weights, alpha)
    return pd


_LOCAL_SEARCH_MAX_N = 400


def _od_heuristic(space: FiniteMMSpace, kappa: float, budget: int, seed):
    """Best partial diameter over the candidate pool, then local search.

    Each block of the pool is ranked by _pd_of_rows as it is built; the
    first observable with the largest value wins, as in a one-by-one scan,
    and is copied out so that the result keeps no block alive.  On at
    most 400 points, single values then move to the ends and the midpoint
    of their Lipschitz interval while that improves and the budget lasts.
    """
    target = 1.0 - kappa
    w = space.weight
    best_v, best_pd, evals = None, -1.0, 0
    for block in _candidate_observables(space, max(16, budget // 4), seed):
        pds = _pd_of_rows(block, w, target)
        i = int(np.argmax(pds))
        if pds[i] > best_pd:
            best_v, best_pd = block[i].copy(), float(pds[i])
        evals += len(block)
    if space.n <= _LOCAL_SEARCH_MAX_N and best_v is not None:
        rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, 404])
        v = best_v.copy()
        improving = True
        while improving and evals + 3 * space.n <= budget:
            improving = False
            for i in rng.permutation(space.n):
                others = np.delete(np.arange(space.n), i)
                lo = float((v[others] - space.dist[i, others]).max())
                hi = float((v[others] + space.dist[i, others]).min())
                for cand in (lo, hi, 0.5 * (lo + hi)):
                    old = v[i]
                    v[i] = cand
                    pd = _pd_of_values(v, w, target)
                    evals += 1
                    if pd > best_pd + 1e-15:
                        best_pd, best_v = pd, v.copy()
                        improving = True
                    else:
                        v[i] = old
    return best_pd if best_pd >= 0 else 0.0, best_v if best_v is not None else np.zeros(space.n), {
        "evaluations": evals}


def observable_diameter(space: FiniteMMSpace, kappa: float, mode: str = "auto",
                        budget: int = 20_000, seed=0) -> Estimate:
    """Largest partial diameter of a 1-Lipschitz image at mass 1 - kappa.

    ``budget``, the evaluations of the bounds mode, must be an integer of
    at least 1 in every mode.
    """
    if not (0.0 < kappa < 1.0):
        raise BadKappa(f"kappa = {kappa} outside (0, 1)")
    _sample_count(budget, "budget")
    exact = _mode(mode, space.n, EXACT_OD_BOUND) == "exact"
    if exact:
        surrogate, values, meta = _od_exact(space, kappa)
    else:
        surrogate, values, meta = _od_heuristic(space, kappa, budget, seed)
    witness = as_lip(space, values, lip_const=1.0)
    value = _pd_of_values(values, space.weight, 1.0 - kappa)
    meta = dict(meta, surrogate=surrogate, budget=budget, seed=seed)
    if exact:
        return Estimate(value, value, "exact", witness, meta)
    return Estimate(value, np.inf, "lower", witness, meta)


# ---------------------------------------------------------------------------
# concentration function

def concentration_function(space: FiniteMMSpace, r: float, mode: str = "auto",
                           closed: bool = False) -> Estimate:
    """Worst missing mass of r-neighborhoods of half-mass sets.

    Exact subset enumeration up to 16 points; the bounds mode brackets it
    between a greedy lower bound and a quotient-space upper bound.
    """
    if not r > 0:
        raise MMLabError(f"radius must be positive, got {r}")
    if _mode(mode, space.n, _EXACT_SUBSET_BOUND) == "exact":
        # distance from every point to every subset, one row per bit mask
        dmin = _subset_table(space.dist, np.minimum, np.inf)
        near_mass = (dmin <= r if closed else dmin < r) @ space.weight
        ok = _subset_table(space.weight, np.add, 0.0) >= 0.5 - MASS_TOL
        val = float((1.0 - near_mass[ok]).max(initial=0.0))
        return Estimate(val, val, "exact")
    lower = _conc_lower_greedy(space, r, closed)
    upper = _conc_upper_quotient(space, r, closed)
    return Estimate(lower, max(lower, upper), "bracket")


def _conc_lower_greedy(space: FiniteMMSpace, r: float, closed: bool) -> float:
    n, w, d = space.n, space.weight, space.dist
    best = 0.0
    centers = range(n) if n <= 64 else np.random.default_rng(0).choice(n, 64, replace=False)
    for c in centers:
        order = np.argsort(d[c], kind="stable")
        cum = np.cumsum(w[order])
        k = int(np.argmax(cum >= 0.5 - MASS_TOL))
        A = order[: k + 1]
        dmin = d[:, A].min(axis=1)
        inside = dmin <= r if closed else dmin < r
        best = max(best, 1.0 - float(w[inside].sum()))
    return best


def _conc_upper_quotient(space: FiniteMMSpace, r: float, closed: bool) -> float:
    n, w, d = space.n, space.weight, space.dist
    reps = [0]
    dist_to_rep = d[0].copy()
    while len(reps) < min(_EXACT_SUBSET_BOUND, n):
        nxt = int(np.argmax(dist_to_rep))
        if dist_to_rep[nxt] <= 0:
            break
        reps.append(nxt)
        dist_to_rep = np.minimum(dist_to_rep, d[nxt])
    reps = np.array(reps)
    assign = np.argmin(d[:, reps], axis=1)
    rho = float(np.max(d[np.arange(n), reps[assign]]))
    if r - 2 * rho <= 0:
        return 0.5
    qw = np.bincount(assign, weights=w, minlength=len(reps))
    quotient = validate_space({"labels": [str(i) for i in range(len(reps))],
                               "dist": d[np.ix_(reps, reps)], "weight": qw})
    return concentration_function(quotient, r - 2 * rho, mode="exact", closed=closed).value


# ---------------------------------------------------------------------------
# Levy radius

def _levy_radius_of_values(values, weights, kappa: float) -> float:
    lm = _levy_mean_of_values(values, weights / weights.sum()).mean
    dev = np.abs(np.asarray(values, float) - lm)
    candidates = np.unique(np.concatenate([[0.0], dev]))
    ok = tail_mass(dev, np.asarray(weights, float), candidates) <= kappa + MASS_TOL
    return float(candidates[int(np.argmax(ok))]) if ok.any() else float(dev.max())


# rows ranked at once by _levy_radius_of_rows: its temporaries are about ten
# times the rows they rank, so a pool block of _RANK_BLOCK rows is ranked in
# parts of this many
_LEVY_ROWS = 32


def _levy_radius_of_rows(values: np.ndarray, weights, kappa: float) -> np.ndarray:
    """_levy_radius_of_values of every row of a 2-D array, from row-wise sorts.

    A row whose sorted values hold a gap <= MERGE_GAP, which _merge_sorted
    would merge, goes through _levy_radius_of_values itself.  Every other row
    has distinct values, so its Levy mean adds the same masses in the same
    order as the 1-D one, and its candidate radii are tried in the same
    ascending order against the same tail_mass scan: the same bits.  Rows
    are independent, so they are ranked _LEVY_ROWS at a time, which bounds
    the temporaries without moving a bit.
    """
    if len(values) > _LEVY_ROWS:
        return np.concatenate([_levy_radius_of_rows(values[lo: lo + _LEVY_ROWS], weights, kappa)
                               for lo in range(0, len(values), _LEVY_ROWS)])
    rows = len(values)
    order = np.argsort(values, axis=1)
    pos = np.take_along_axis(values, order, axis=1)
    low, high = (np.take_along_axis(pos, i[:, None], axis=1)
                 for i in _median_ends((weights / weights.sum())[order]))
    dev = np.abs(values - 0.5 * (low + high))
    cand = np.concatenate([np.zeros((rows, 1)), np.sort(dev, axis=1)], axis=1)
    ok = tail_mass(dev, weights, cand) <= kappa + MASS_TOL
    radius = np.where(ok.any(axis=1), cand[np.arange(rows), np.argmax(ok, axis=1)], cand[:, -1])
    for r in np.nonzero((np.diff(pos, axis=1) <= MERGE_GAP).any(axis=1))[0]:
        radius[r] = _levy_radius_of_values(values[r], weights, kappa)
    return radius


def _levy_radius_exact(space: FiniteMMSpace, kappa: float) -> float:
    """Exact Levy radius on up to EXACT_OD_BOUND points, over all orderings.

    Along an ordering sigma the values rise and are 1-Lipschitz: difference
    constraints whose shortest paths SP are the _ordering_paths table.  With
    l and h the first and last median positions, the points at least t from
    the Levy mean (v_l + v_h) / 2 are a prefix ending at a and a suffix
    starting at e, and the largest such t, the projection onto a, l, h and
    e, is min(SP(a, e), SP(a, l) + SP(a, h), SP(l, e) + SP(h, e)) / 2.  Its
    maximum over every sigma and (a, e) of mass above kappa is the radius.
    """
    perms = _orderings(space.n)
    mass = space.weight[perms]
    low, high = _median_ends(mass)
    p = np.arange(len(perms))
    # node n is an empty prefix or suffix: infinitely far, and of no mass
    sp = np.pad(_ordering_paths(space.dist, perms), ((0, 0), (0, 1), (0, 1)),
                constant_values=np.inf)
    before = (sp[p, :, low] + sp[p, :, high])[:, :, None]
    after = (sp[p, low, :] + sp[p, high, :])[:, None, :]
    t = np.minimum(sp, np.minimum(before, after)) / 2
    prefix = np.pad(np.cumsum(mass, axis=1), ((0, 0), (0, 1)))
    suffix = np.pad(np.cumsum(mass[:, ::-1], axis=1)[:, ::-1], ((0, 0), (0, 1)))
    heavy = prefix[:, :, None] + suffix[:, None, :] > kappa + MASS_TOL
    return float(np.max(t, where=heavy, initial=0.0))


def levy_radius(space: FiniteMMSpace, kappa: float, budget: int = 8000, seed=0,
                mode: str = "auto") -> Estimate:
    """Smallest radius around the Levy mean holding all but kappa of the mass,
    maximized over 1-Lipschitz observables: exactly over every value ordering
    (up to EXACT_OD_BOUND points) or over a pool, a lower bound.  The lower
    regime holds up to rounding: on random_metric_space(6, seed=1) at
    kappa = 0.3 the pool reads 1.3638396267270354 and the exact path
    1.3638396267270352.  ``budget`` must be an integer of at least 1 in
    every mode."""
    if not (0.0 < kappa < 1.0):
        raise BadKappa(f"kappa = {kappa} outside (0, 1)")
    _sample_count(budget, "budget")
    if _mode(mode, space.n, EXACT_OD_BOUND) == "exact":
        radius = _levy_radius_exact(space, kappa)
        return Estimate(radius, radius, "exact")
    blocks = _candidate_observables(space, max(16, budget // 2), seed)
    radius = max(float(_levy_radius_of_rows(rows, space.weight, kappa).max()) for rows in blocks)
    return Estimate(radius, np.inf, "lower")


# ---------------------------------------------------------------------------
# kappa-distance

def kappa_distance(space: FiniteMMSpace, A1, A2, kappa: float) -> Estimate:
    """Largest separation between mass-kappa chunks of two subsets of points.

    Exact by subset enumeration when the smaller side has at most 16 points
    (the partner chunk is then chosen farthest-first, which is optimal);
    a greedy seeded lower bound beyond.  A1 and A2 hold integer indices in
    [0, n); the witness is the pair of chunks.
    """
    if not (0.0 < kappa < 1.0):
        raise BadKappa(f"kappa = {kappa} outside (0, 1)")
    A1, A2 = _point_indices(space, A1), _point_indices(space, A2)
    w = space.weight
    if min(float(w[A1].sum()), float(w[A2].sum())) < kappa - MASS_TOL:
        return Estimate(0.0, 0.0, "exact", ((), ()))
    if len(A2) < len(A1):
        res = kappa_distance(space, A2, A1, kappa)
        return replace(res, witness=res.witness[::-1])
    if len(A1) <= _EXACT_SUBSET_BOUND:
        return _kappa_distance_exact(space, A1, A2, kappa)
    return _kappa_distance_greedy(space, A1, A2, kappa)


def _point_indices(space: FiniteMMSpace, points) -> np.ndarray:
    """The distinct points of ``points``, sorted; each an integer in [0, n)."""
    idx = sorted({_sample_count(i, "point index", least=0) for i in points})
    if idx and idx[-1] >= space.n:
        raise MMLabError(f"point index {idx[-1]} outside [0, {space.n})")
    return np.asarray(idx, dtype=int)


def _kappa_distance_exact(space, A1, A2, kappa):
    w, d = space.weight, space.dist
    k1 = len(A1)
    M = 1 << k1
    dmin = _subset_table(d[np.ix_(A1, A2)], np.minimum, np.inf)
    ok = _subset_table(w[A1], np.add, 0.0) >= kappa - MASS_TOL
    ok[0] = False
    order = np.argsort(-dmin, axis=1, kind="stable")
    dd = np.take_along_axis(dmin, order, axis=1)
    ww = w[A2][order]
    cum = np.cumsum(ww, axis=1)
    kidx = np.argmax(cum >= kappa - MASS_TOL, axis=1)
    theta = dd[np.arange(M), kidx]
    theta[~ok] = -np.inf
    best = int(np.argmax(theta))
    value = max(float(theta[best]), 0.0)
    b1 = tuple(int(A1[i]) for i in range(k1) if best >> i & 1)
    cut = kidx[best]
    b2 = tuple(int(A2[j]) for j in order[best, : cut + 1])
    return Estimate(value, value, "exact", (b1, b2))


def _kappa_distance_greedy(space, A1, A2, kappa):
    w, d = space.weight, space.dist
    best_val, best_wit = 0.0, ((), ())
    sub = d[np.ix_(A1, A2)]
    seeds = np.unravel_index(np.argsort(sub, axis=None)[::-1][:32], sub.shape)
    for a_i, b_j in zip(*seeds):
        a, b = A1[a_i], A2[b_j]
        o1 = A1[np.argsort(d[a, A1], kind="stable")]
        c1 = np.cumsum(w[o1])
        B1 = o1[: int(np.argmax(c1 >= kappa - MASS_TOL)) + 1]
        o2 = A2[np.argsort(d[b, A2], kind="stable")]
        c2 = np.cumsum(w[o2])
        B2 = o2[: int(np.argmax(c2 >= kappa - MASS_TOL)) + 1]
        val = float(d[np.ix_(B1, B2)].min())
        if val > best_val:
            best_val, best_wit = val, (tuple(map(int, B1)), tuple(map(int, B2)))
    return Estimate(best_val, np.inf, "lower", best_wit)

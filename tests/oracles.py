"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's vectorized code paths: plain Python
recursion and subset loops, and the library's former one-mask-per-candidate
scans, so agreement is a two-implementation check.
"""
import itertools
import math
from fractions import Fraction

import numpy as np


def pd_window_oracle(positions, masses, alpha, tol=1e-12):
    """Partial diameter by exhaustive subset enumeration (<= ~14 atoms)."""
    atoms = sorted(zip(positions, masses))
    n = len(atoms)
    best = atoms[-1][0] - atoms[0][0]
    for r in range(1, n + 1):
        for sub in itertools.combinations(atoms, r):
            mass = sum(m for _, m in sub)
            if mass >= alpha - tol:
                width = max(p for p, _ in sub) - min(p for p, _ in sub)
                best = min(best, width)
    return best


def _pd_of(values, weights, alpha, tol=1e-12):
    pairs = sorted(zip(values, weights))
    merged = []
    for v, w in pairs:
        if merged and v - merged[-1][0] <= 1e-12:
            merged[-1][1] += w
        else:
            merged.append([v, w])
    n = len(merged)
    best = merged[-1][0] - merged[0][0]
    for i in range(n):
        mass = 0.0
        for j in range(i, n):
            mass += merged[j][1]
            if mass >= alpha - tol:
                best = min(best, merged[j][0] - merged[i][0])
                break
    return best


def od_grid_oracle(space, kappa, delta):
    """Observable diameter over the delta-grid McShane family, recursively.

    Candidate values at each point are the grid points inside the Lipschitz
    interval fixed by earlier points, plus the interval endpoints; the family
    covers the 1-Lipschitz polytope within delta per value, so the maximum
    sits within 2 * delta of the true observable diameter.
    """
    n = space.n
    d = space.dist
    w = list(map(float, space.weight))
    alpha = 1.0 - kappa
    if n == 1:
        return 0.0
    K = int(math.ceil(space.diam / delta))
    grid = [k * delta for k in range(-K, K + 1)]
    values = [0.0] * n
    best = [0.0]

    def recurse(i):
        if i == n:
            best[0] = max(best[0], _pd_of(values, w, alpha))
            return
        lo = max(values[j] - d[i][j] for j in range(i))
        hi = min(values[j] + d[i][j] for j in range(i))
        cands = {lo, hi}
        for g in grid:
            if lo - 1e-12 <= g <= hi + 1e-12:
                cands.add(g)
        for c in sorted(cands):
            values[i] = c
            recurse(i + 1)

    recurse(1)
    return best[0]


def kappa_distance_oracle(space, A1, A2, kappa, tol=1e-12):
    """Largest min-cross-distance over explicit subset pairs."""
    w = space.weight
    best = 0.0
    for r1 in range(1, len(A1) + 1):
        for B1 in itertools.combinations(A1, r1):
            if sum(w[i] for i in B1) < kappa - tol:
                continue
            for r2 in range(1, len(A2) + 1):
                for B2 in itertools.combinations(A2, r2):
                    if sum(w[j] for j in B2) < kappa - tol:
                        continue
                    val = min(space.dist[i, j] for i in B1 for j in B2)
                    best = max(best, val)
    return best


def ky_fan_loop(weight, f, g):
    """Ky Fan metric by one masked tail sum per candidate threshold."""
    w = np.asarray(weight, dtype=float)
    dev = np.abs(np.asarray(f, dtype=float) - np.asarray(g, dtype=float))
    candidates = np.unique(np.concatenate([[0.0], dev]))
    tails = np.array([float(w[dev > c + 1e-15].sum()) for c in candidates])
    candidates = np.unique(np.concatenate([candidates, tails]))
    for c in candidates:
        if float(w[dev > c + 1e-15].sum()) <= c + 1e-12:
            return float(c)
    return 1.0


def levy_radius_loop(values, weights, kappa, center):
    """Least deviation from center whose strict tail mass is at most kappa."""
    dev = np.abs(np.asarray(values, dtype=float) - center)
    w = np.asarray(weights, dtype=float)
    for eps in np.unique(np.concatenate([[0.0], dev])):
        if float(w[dev > eps + 1e-15].sum()) <= kappa + 1e-12:
            return float(eps)
    return float(dev.max())


def levy_radius_lp(space, kappa, tol=1e-12):
    """Largest Levy radius of a 1-Lipschitz observable, by LP.

    For every ordering of the points by value, let l and h be the first and
    last positions holding mass >= 1/2 - tol on both sides.  For every
    prefix (possibly empty) and the shortest suffix that brings the mass
    above kappa + tol, one linear program maximizes t subject to the
    Lipschitz caps, the monotone order, and a distance of at least t from
    the Levy mean (u_l + u_h) / 2 on the last prefix point and the first
    suffix point.  A longer suffix only adds constraints.
    """
    from scipy.optimize import linprog

    n = space.n
    d = space.dist
    best = 0.0
    for sigma in itertools.permutations(range(n)):
        w = [float(space.weight[k]) for k in sigma]
        median = [k for k in range(n)
                  if sum(w[:k + 1]) >= 0.5 - tol and sum(w[k:]) >= 0.5 - tol]
        low, high = median[0], median[-1]
        for a in range(-1, n):
            heavy = [e for e in range(a + 1, n + 1)
                     if (a >= 0 or e < n) and sum(w[:a + 1]) + sum(w[e:]) > kappa + tol]
            if not heavy:
                continue
            e = heavy[-1]
            rows, rhs = [], []

            def row(coefs, bound):
                r = [0.0] * (n + 1)  # values u_0..u_{n-1} in sigma order, then t
                for k, c in coefs:
                    r[k] += c
                rows.append(r)
                rhs.append(bound)

            for i in range(n):
                for j in range(i + 1, n):
                    row([(j, 1.0), (i, -1.0)], float(d[sigma[i], sigma[j]]))
            for i in range(n - 1):
                row([(i, 1.0), (i + 1, -1.0)], 0.0)
            if a >= 0:
                row([(a, 2.0), (low, -1.0), (high, -1.0), (n, 2.0)], 0.0)
            if e < n:
                row([(low, 1.0), (high, 1.0), (e, -2.0), (n, 2.0)], 0.0)
            c = [0.0] * n + [-1.0]
            bounds = [(0.0, 0.0)] + [(None, None)] * n
            res = linprog(c, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
            assert res.success, res.message
            best = max(best, -res.fun)
    return best


def triangle_check_loop(d, tol):
    """First (i, j, k, gap) with d[i, k] - d[i, j] - d[j, k] > tol, pivot j outermost."""
    n = d.shape[0]
    for j in range(n):
        slack = d - (d[:, j][:, None] + d[j][None, :])
        bad = np.argwhere(slack > tol)
        if bad.size:
            i, k = bad[0]
            return int(i), int(j), int(k), float(slack[i, k])
    return None


def triangle_check_sampled_loop(d, tol):
    """Largest d[i, k] - d[i, j] - d[j, k] over 2e6 triplets drawn by default_rng(0), if above tol."""
    n = d.shape[0]
    rng = np.random.default_rng(0)
    m = 2_000_000
    i = rng.integers(0, n, m)
    j = rng.integers(0, n, m)
    k = rng.integers(0, n, m)
    slack = d[i, k] - d[i, j] - d[j, k]
    worst = int(np.argmax(slack))
    if slack[worst] > tol:
        return int(i[worst]), int(j[worst]), int(k[worst]), float(slack[worst])
    return None


def max_triangle_slack(d):
    """Largest d[i, k] - (d[i, j] + d[j, k]) over every triplet, evaluated as the pivot sweep does."""
    return max(float((d - (d[:, j][:, None] + d[j][None, :])).max()) for j in range(len(d)))


def max_triangle_slack_exact(d):
    """Largest d[i, k] - d[i, j] - d[j, k] over every triplet of the float entries, in rationals."""
    q = [[Fraction(float(v)) for v in row] for row in d]
    n = len(q)
    return max(q[i][k] - q[i][j] - q[j][k]
               for i in range(n) for j in range(n) for k in range(n))


def gram_bracket_misses(x, c, eps):
    """Pairs (i, j) whose exact squared distance |x_i - x_j|^2 of the float
    coordinates lies outside [max(c - eps, 0)^2, (c + eps)^2], in rationals."""
    q = [[Fraction(float(v)) for v in row] for row in x]
    e = Fraction(float(eps))
    misses = []
    for i, j in itertools.combinations(range(len(q)), 2):
        sq = sum((a - b) ** 2 for a, b in zip(q[i], q[j]))
        ch = Fraction(float(c[i, j]))
        if not max(ch - e, Fraction(0)) ** 2 <= sq <= (ch + e) ** 2:
            misses.append((i, j))
    return misses


def od_span_lp(space, kappa, tol=1e-12):
    """Largest smallest heavy-window span of a 1-Lipschitz observable, by LP.

    For every ordering of the points by value, one linear program maximizes
    t subject to the Lipschitz caps, the monotone order, and a span of at
    least t on every window of consecutive points with mass >= 1 - kappa.
    """
    from scipy.optimize import linprog

    n = space.n
    d = space.dist
    w = space.weight
    best = 0.0
    for sigma in itertools.permutations(range(n)):
        rows, rhs = [], []

        def row(coefs, bound):
            r = [0.0] * (n + 1)  # values u_0..u_{n-1} in sigma order, then t
            for k, c in coefs:
                r[k] += c
            rows.append(r)
            rhs.append(bound)

        for i in range(n):
            for j in range(i + 1, n):
                row([(j, 1.0), (i, -1.0)], float(d[sigma[i], sigma[j]]))
        for i in range(n - 1):
            row([(i, 1.0), (i + 1, -1.0)], 0.0)
        for a in range(n):
            for b in range(a, n):
                if sum(w[sigma[k]] for k in range(a, b + 1)) >= 1.0 - kappa - tol:
                    row([(n, 1.0), (b, -1.0), (a, 1.0)], 0.0)
        c = [0.0] * n + [-1.0]
        bounds = [(0.0, 0.0)] + [(None, None)] * n
        res = linprog(c, A_ub=rows, b_ub=rhs, bounds=bounds, method="highs")
        assert res.success, res.message
        best = max(best, -res.fun)
    return best


def sphere_distances(pts, r, metric):
    """Chordal or geodesic distances of sphere points of radius r from
    whole-matrix Gram-form temporaries, symmetrized, with a zero diagonal."""
    sq = (pts * pts).sum(axis=1)
    g = sq[:, None] + sq[None, :] - 2.0 * (pts @ pts.T)
    chord = np.sqrt(np.maximum(g, 0.0))
    if metric == "chordal":
        dist = chord
    else:
        dist = 2.0 * r * np.arcsin(np.clip(chord / (2.0 * r), 0.0, 1.0))
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def candidate_pool_loop(space, count, seed):
    """Candidate observables with one scan per member.

    Cone k takes the first 1 + k % 3 anchors and offsets of row k of two
    seeded tables and reads those columns of the matrix by its own scan,
    and every coordinate direction is certified by its own project_to_lip1.
    """
    from mm_lab.core import project_to_lip1

    n, d = space.n, space.dist
    key = int(seed) & 0x7FFFFFFF
    pool = []
    rng = np.random.default_rng([key, 101])
    anchors = np.arange(n) if n <= 32 else rng.choice(n, 32, replace=False)
    pool.extend(d[:, a].copy() for a in anchors)
    n_cones = max(0, count // 2 - len(pool))
    A = np.random.default_rng([key, 202]).integers(0, n, (n_cones, 3))
    C = np.random.default_rng([key, 203]).random((n_cones, 3)) * float(d.max())
    for k in range(n_cones):
        m = 1 + k % 3
        pool.append((C[k, None, :m] + d[:, A[k, :m]]).min(axis=1))
    if space.coords is not None:
        dims = space.coords.shape[1]
        dirs = [np.eye(dims)[i] for i in range(min(dims, 16))]
        sub = np.random.default_rng([key, 303])
        extra = sub.normal(size=(min(32, max(4, count // 8)), dims))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        dirs.extend(extra)
        for u in dirs:
            pool.append(project_to_lip1(space, space.coords @ u))
    return pool[:count]


def od_heuristic_loop(space, kappa, budget, seed):
    """Heuristic observable diameter with one _pd_of_values per pool member.

    The first largest member wins, then coordinate moves to the Lipschitz
    interval ends and midpoint while they improve and the budget lasts.
    Returns (value, witness values, evaluations).
    """
    from mm_lab.invariants import _pd_of_values

    n, d = space.n, space.dist
    pool = candidate_pool_loop(space, max(16, budget // 4), seed)
    target = 1.0 - kappa
    w = space.weight
    best_v, best_pd = None, -1.0
    for v in pool:
        pd = _pd_of_values(v, w, target)
        if pd > best_pd:
            best_v, best_pd = v, pd
    evals = len(pool)
    if n <= 400:
        rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, 404])
        v = best_v.copy()
        improving = True
        while improving and evals + 3 * n <= budget:
            improving = False
            for i in rng.permutation(n):
                others = np.delete(np.arange(n), i)
                lo = float((v[others] - d[i, others]).max())
                hi = float((v[others] + d[i, others]).min())
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
    return best_pd, best_v, evals


def golden_argmin_loop(f, lo, hi, iters=40):
    """Scalar golden-section argmin of f on [max(lo, 0), hi]; f returns a float."""
    lo = max(lo, 0.0)
    a, b = lo, hi
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - gold * (b - a)
    x2 = a + gold * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - gold * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + gold * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def refine_local_minima_loop(F, grid, vals):
    """Golden-section polish of strict grid local minima, one cell at a time.

    Every probe is one eval_mpf call on a 0-d array.  A cell at x searches
    [x, x + h] only, never below itself: 40 iterations per 1-D cell, then
    min(f(x*), f(x), f(x + h)); two rounds of 24-iteration coordinate descent
    per 2-D cell at (x, y), each round over [x, x + h] then [y, y + h].  At
    most 64 cells, the lowest by a stable sort, are polished.
    """
    from mm_lab.mpf import eval_mpf

    cap = 64

    refined = vals.copy()
    h = grid[1] - grid[0] if len(grid) > 1 else 0.0
    if vals.ndim == 1:
        mask = np.zeros_like(vals, dtype=bool)
        if len(vals) > 2:
            mask[1:-1] = (vals[1:-1] <= vals[:-2] + 1e-15) & (vals[1:-1] <= vals[2:] + 1e-15) \
                & ((vals[1:-1] < vals[:-2] - 1e-15) | (vals[1:-1] < vals[2:] - 1e-15))
        cells = np.nonzero(mask)[0]
        if cells.size > cap:
            cells = cells[np.argsort(vals[cells], kind="stable")[:cap]]

        def f(x):
            return float(eval_mpf(F, [np.array(x)]))

        for i in cells:
            lo, hi = grid[i], grid[i] + h
            x = golden_argmin_loop(f, lo, hi)
            refined[i] = min(refined[i], min(f(x), f(lo), f(hi)))
        return refined
    V = vals
    mask = np.zeros_like(V, dtype=bool)
    if V.shape[0] > 2 and V.shape[1] > 2:
        c = V[1:-1, 1:-1]
        le = ((c <= V[:-2, 1:-1] + 1e-15) & (c <= V[2:, 1:-1] + 1e-15)
              & (c <= V[1:-1, :-2] + 1e-15) & (c <= V[1:-1, 2:] + 1e-15))
        lt = ((c < V[:-2, 1:-1] - 1e-15) | (c < V[2:, 1:-1] - 1e-15)
              | (c < V[1:-1, :-2] - 1e-15) | (c < V[1:-1, 2:] - 1e-15))
        mask[1:-1, 1:-1] = le & lt
    cells = np.argwhere(mask)
    if cells.shape[0] > cap:
        cells = cells[np.argsort(V[mask], kind="stable")[:cap]]
    for i, j in cells:
        x0, y0 = grid[i], grid[j]
        y = y0
        for _ in range(2):
            x = golden_argmin_loop(lambda u: float(eval_mpf(F, [np.array(u), np.array(y)])),
                                   x0, x0 + h, iters=24)
            y = golden_argmin_loop(lambda u: float(eval_mpf(F, [np.array(x), np.array(u)])),
                                   y0, y0 + h, iters=24)
        refined[i, j] = min(refined[i, j], float(eval_mpf(F, [np.array(x), np.array(y)])))
    return refined


def _refine_local_minima_full(F, grid, vals):
    """Lockstep polish of strict grid local minima on a full copy of ``vals``.

    Each cell's brackets start at the cell and run one step up, as in
    ``refine_local_minima_loop``.
    """
    from mm_lab.mpf import _golden_argmin, eval_mpf

    refined = vals.copy()
    h = grid[1] - grid[0] if len(grid) > 1 else 0.0
    if vals.ndim == 1:
        mask = np.zeros_like(vals, dtype=bool)
        if len(vals) > 2:
            mask[1:-1] = (vals[1:-1] <= vals[:-2] + 1e-15) & (vals[1:-1] <= vals[2:] + 1e-15) \
                & ((vals[1:-1] < vals[:-2] - 1e-15) | (vals[1:-1] < vals[2:] - 1e-15))
        cells = np.nonzero(mask)[0]
        if cells.size > 64:
            cells = cells[np.argsort(vals[cells], kind="stable")[:64]]
        if cells.size:
            lo, hi = grid[cells], grid[cells] + h
            x = _golden_argmin(lambda u: eval_mpf(F, [u]), lo, hi)
            ends = eval_mpf(F, [np.concatenate([x, lo, hi])])
            refined[cells] = np.minimum(refined[cells], ends.reshape(3, -1).min(axis=0))
        return refined
    V = vals
    mask = np.zeros_like(V, dtype=bool)
    if V.shape[0] > 2 and V.shape[1] > 2:
        c = V[1:-1, 1:-1]
        le = ((c <= V[:-2, 1:-1] + 1e-15) & (c <= V[2:, 1:-1] + 1e-15)
              & (c <= V[1:-1, :-2] + 1e-15) & (c <= V[1:-1, 2:] + 1e-15))
        lt = ((c < V[:-2, 1:-1] - 1e-15) | (c < V[2:, 1:-1] - 1e-15)
              | (c < V[1:-1, :-2] - 1e-15) | (c < V[1:-1, 2:] - 1e-15))
        mask[1:-1, 1:-1] = le & lt
    cells = np.argwhere(mask)
    if cells.shape[0] > 64:
        order = np.argsort(V[mask], kind="stable")[:64]
        cells = cells[order]
    if cells.shape[0]:
        i, j = cells.T
        x0, y0 = grid[i], grid[j]
        y = y0
        for _ in range(2):
            x = _golden_argmin(lambda u: eval_mpf(F, [u, y]), x0, x0 + h, iters=24)
            y = _golden_argmin(lambda u: eval_mpf(F, [x, u]), y0, y0 + h, iters=24)
        refined[i, j] = np.minimum(refined[i, j], eval_mpf(F, [x, y]))
    return refined


def _suffix_min_2d_rows(vals):
    out = np.empty_like(vals)
    out[-1] = np.minimum.accumulate(vals[-1][::-1])[::-1]
    for i in range(vals.shape[0] - 2, -1, -1):
        out[i] = np.minimum.accumulate(np.minimum(vals[i], out[i + 1])[::-1])[::-1]
    return out


def defect_table_full(F, D, h=1.0 / 64.0, probe=None):
    """The isotone-defect table on the full probe grid, one row at a time.

    Evaluates F on a meshgrid of the whole probe grid, polishes a full copy
    of it, and takes the suffix minimum row by row from the top.  Returns
    ``(table, sup_defect)`` for [0, D]^arity; with D = probe, ``table.max()``
    is the sup over the whole probe grid.
    """
    from mm_lab.mpf import eval_mpf

    if probe is None:
        probe = D
    m_probe = int(round(probe / h))
    m_D = int(round(D / h))
    grid = np.arange(m_probe + 1) * h
    if F.arity == 1:
        vals = eval_mpf(F, [grid])
        inf_ = np.minimum.accumulate(_refine_local_minima_full(F, grid, vals)[::-1])[::-1]
        table = np.maximum(vals[: m_D + 1] - inf_[: m_D + 1], 0.0)
    else:
        S, T = np.meshgrid(grid, grid, indexing="ij")
        vals = eval_mpf(F, [S, T])
        inf_ = _suffix_min_2d_rows(_refine_local_minima_full(F, grid, vals))
        table = np.maximum(vals[: m_D + 1, : m_D + 1] - inf_[: m_D + 1, : m_D + 1], 0.0)
    return table, float(table.max())


def defect_table_outer_sum(F, D, h=1.0 / 64.0, probe=None):
    """The isotone defect of an add_f descriptor f_1(s) + f_2(t) from its parts.

    The outer sum of the parts' 1-D ``defect_table_full`` tables.  Returns
    ``(table, sup_defect, sup_probe)``, each sup the sum of the parts' sups
    from the 1-D oracle: on [0, D] and on the whole probe grid.
    """
    if probe is None:
        probe = D
    tables, sups, probe_sups = [], [], []
    for f in F.children:
        table, sup = defect_table_full(f, D, h, probe)
        tables.append(table)
        sups.append(sup)
        probe_sups.append(defect_table_full(f, probe, h, probe)[1])
    return np.add.outer(*tables), sups[0] + sups[1], probe_sups[0] + probe_sups[1]


def min_on_interval_loop(F, lo, hi, grid=512):
    """Grid minimum of F on [lo, hi], polished by the scalar golden search."""
    from mm_lab.mpf import eval_mpf

    xs = np.linspace(lo, hi, grid)
    vals = eval_mpf(F, [xs])
    k = int(np.argmin(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(grid - 1, k + 1)]
    x = golden_argmin_loop(lambda u: float(eval_mpf(F, [np.array(u)])), a, b)
    return float(min(vals[k], eval_mpf(F, [np.array(x)])))


def min_on_rect_loop(F, lo1, hi1, lo2, hi2, grid=128):
    """Grid minimum of F on a rectangle, then three rounds of scalar
    coordinate descent with the probes clipped into the rectangle."""
    from mm_lab.mpf import eval_mpf

    xs = np.linspace(lo1, hi1, grid)
    ys = np.linspace(lo2, hi2, grid)
    S, T = np.meshgrid(xs, ys, indexing="ij")
    vals = eval_mpf(F, [S, T])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    x, y = xs[i], ys[j]
    hx = xs[1] - xs[0] if grid > 1 else 0.0
    hy = ys[1] - ys[0] if grid > 1 else 0.0
    for _ in range(3):
        x = golden_argmin_loop(
            lambda u: float(eval_mpf(F, [np.array(np.clip(u, lo1, hi1)), np.array(y)])),
            max(lo1, x - hx), min(hi1, x + hx))
        x = float(np.clip(x, lo1, hi1))
        y = golden_argmin_loop(
            lambda u: float(eval_mpf(F, [np.array(x), np.array(np.clip(u, lo2, hi2))])),
            max(lo2, y - hy), min(hi2, y + hy))
        y = float(np.clip(y, lo2, hi2))
    return float(min(vals[i, j], eval_mpf(F, [np.array(x), np.array(y)])))


def box_distance_perm_loop(x, y):
    """Exact box distance over all k! chunk bijections, one subset mask per pair.

    Every permutation of the k equal-mass chunks is scored against every
    retained subset through a (subsets x pairs) mask, as the library did
    before it enumerated integer couplings.
    """
    from mm_lab.errors import NotRational

    def chunk_indices(space, k):
        scaled = space.weight * k
        rounded = np.round(scaled)
        if np.abs(scaled - rounded).max() > 1e-6 * k or (rounded < 1).any():
            return None
        if int(rounded.sum()) != k:
            return None
        return np.repeat(np.arange(space.n), rounded.astype(int))

    for k in range(1, 9):
        cx, cy = chunk_indices(x, k), chunk_indices(y, k)
        if cx is not None and cy is not None:
            break
    else:
        raise NotRational("no common equal-mass refinement with at most 8 chunks")
    dx = x.dist[np.ix_(cx, cx)]
    dy = y.dist[np.ix_(cy, cy)]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    masks = np.arange(1 << k)
    sel = np.zeros((1 << k, len(pairs)), dtype=bool)
    for c, (i, j) in enumerate(pairs):
        sel[:, c] = (((masks >> i) & 1) == 1) & (((masks >> j) & 1) == 1)
    sizes = np.array([bin(m).count("1") for m in range(1 << k)])
    deficits = 1.0 - sizes / k
    perms = np.array(list(itertools.permutations(range(k))), dtype=int)
    best = np.inf
    if pairs:
        pi = np.array([p[0] for p in pairs])
        pj = np.array([p[1] for p in pairs])
    batch = max(1, (1 << 22) // max(1, sel.size))
    for lo in range(0, len(perms), batch):
        P = perms[lo: lo + batch]
        dys = dy[P[:, :, None], P[:, None, :]]
        if pairs:
            dflat = np.abs(dx[None, :, :] - dys)[:, pi, pj]
            pairmax = np.where(sel[None, :, :], dflat[:, None, :], 0.0).max(axis=2)
        else:
            pairmax = np.zeros((len(P), 1 << k))
        eps = np.maximum(pairmax, deficits[None, :]).min(axis=1)
        best = min(best, float(eps.min()))
        if best <= 0.0:
            break
    return best


def od_exact_closure_loop(space, kappa):
    """Exact observable diameter by all-pairs closure, walk powers and Bellman-Ford.

    The library's former exact kernel: the non-run graph of every ordering is
    closed by repeated min-plus squaring, the largest span is the least mean
    of a closed walk through at most n - 1 run starts (k-step walk powers),
    and the witness comes from an edge-list Bellman-Ford.  The qualifying
    runs come from running sums of each run's own masses, not from the
    library's run search.  Returns (surrogate, witness values, orderings).
    """
    from mm_lab.core import MASS_TOL

    big = 1e15
    n, w, d = space.n, space.weight, space.dist
    target = 1.0 - kappa
    if n == 1 or float(w.max()) >= target - MASS_TOL:
        return 0.0, np.zeros(n), 0
    perms = np.array([p for p in itertools.permutations(range(n)) if p[0] < p[-1]],
                     dtype=int)
    P = len(perms)
    # runs[p, a]: the first b whose run a..b of ordering p holds mass 1 - kappa
    runs = np.full((P, n), -1)
    for a in range(n):
        mass = np.zeros(P)
        for b in range(a, n):
            mass += w[perms[:, b]]
            runs[:, a] = np.where((runs[:, a] < 0) & (mass >= target - MASS_TOL), b, runs[:, a])
    W = np.full((P, n, n), big)
    idx = np.arange(n)
    W[:, idx, idx] = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            W[:, i, j] = d[perms[:, i], perms[:, j]]
    for i in range(n - 1):
        W[:, i + 1, i] = 0.0
    paths = W
    for _ in range(math.ceil(math.log2(n)) + 1):
        paths = np.minimum(paths, (paths[:, :, :, None] + paths[:, None, :, :]).min(axis=2))
    step = np.full((P, n, n), big)
    for a in range(n):
        rows = np.nonzero(runs[:, a] > a)[0]
        step[rows, :, a] = paths[rows, :, runs[rows, a]]
    walk = step
    span = walk[:, idx, idx].min(axis=1)
    for k in range(2, n):
        walk = (walk[:, :, :, None] + step[:, None, :, :]).min(axis=2)
        span = np.minimum(span, walk[:, idx, idx].min(axis=1) / k)
    best = int(np.argmax(span))
    t = float(span[best])
    sigma, runs_row = perms[best], runs[best]
    edges = [(i, j, float(d[sigma[i], sigma[j]])) for i in range(n) for j in range(i + 1, n)]
    edges += [(i + 1, i, 0.0) for i in range(n - 1)]
    edges += [(runs_row[a], a, -t) for a in range(n) if runs_row[a] > a]
    u = np.zeros(n)
    for _ in range(n + 1):
        changed = False
        for i, j, wt in edges:
            if u[i] + wt < u[j] - 1e-15:
                u[j] = u[i] + wt
                changed = True
        if not changed:
            break
    values = np.empty(n)
    values[sigma] = u
    return t, values, P


def ordering_paths_dp(d, perms):
    """Lightest path table of every ordering by the frontier DP that
    invariants._od_exact used before _ordering_paths: stepping down an
    ordering is free, so the lightest path from s to x > s is the cheapest
    way to push the frontier there, a DP over jump[y, x] = min d(sigma_k,
    sigma_m) for k <= y < x <= m."""
    P, n = perms.shape
    dsig = d[perms[:, :, None], perms[:, None, :]]
    # jump[p, y, x]: min d(sigma_k, sigma_m) over k <= y and m >= x
    suffix = np.minimum.accumulate(dsig[:, :, ::-1], axis=2)[:, :, ::-1]
    jump = np.minimum.accumulate(suffix, axis=1)
    # paths[p, s, x]: lightest non-run path from s to x, free for s >= x
    paths = np.zeros((P, n, n))
    for x in range(1, n):
        paths[:, :x, x] = (paths[:, :x, :x] + jump[:, None, :x, x]).min(axis=2)
    return paths


def lip_domain_subset_loop(gap, w):
    """Least max(largest gap inside K, mass outside K) over every subset K of points."""
    n = len(w)
    best = math.inf
    for r in range(n + 1):
        for K in itertools.combinations(range(n), r):
            inside = max((float(gap[i][j]) for i in K for j in K if i < j), default=0.0)
            outside = sum(float(w[i]) for i in range(n) if i not in K)
            best = min(best, max(inside, outside, 0.0))
    return best


def _min_cover_mass_bnb(viol, w):
    """Minimum-mass vertex cover of the violation graph, by branch and bound."""
    n = len(w)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if viol[i, j]]
    best = [float(w.sum())]

    def recurse(removed, mass, edges_left):
        if mass >= best[0] - 1e-15:
            return
        for (i, j) in edges_left:
            if not removed[i] and not removed[j]:
                rest = [e for e in edges_left if e != (i, j)]
                for pick in (i, j):
                    removed[pick] = True
                    recurse(removed, mass + w[pick], rest)
                    removed[pick] = False
                return
        best[0] = mass

    recurse(np.zeros(n, dtype=bool), 0.0, edges)
    return best[0]


def lip_eps_candidate_scan(gap, w):
    """The library's former small-space Lipschitz-up-to scan.

    Tries about 56 candidate radii (0, quantiles of the positive gaps, the
    largest gap and the eight lightest cumulative masses) in increasing
    order, each with an exact branch-and-bound minimum cover of the pairs
    whose gap exceeds it; the first radius the cover fits under wins, inf if
    none does.
    """
    vals = gap[np.triu_indices_from(gap, 1)]
    vals = vals[vals > 0]
    cands = {0.0}
    if vals.size:
        cands.update(float(v) for v in np.quantile(vals, np.linspace(0.0, 1.0, min(48, max(2, vals.size)))))
        cands.add(float(vals.max()))
    cands.update(float(np.cumsum(np.sort(w))[i]) for i in range(min(len(w), 8)))
    for eps in sorted(cands):
        viol = gap > eps + 1e-12
        np.fill_diagonal(viol, False)
        mass = _min_cover_mass_bnb(viol, w) if viol.any() else 0.0
        if mass <= eps + 1e-12:
            return eps
    return math.inf


def min_cut_single(src_caps, snk_caps, adj, flow_scale=10 ** 9):
    """Integer max-flow source -> rows -> columns -> sink on one graph, one scipy solve.

    The library's former one-graph min cut: returns scipy's flow value and
    the rows x columns flow block.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_flow
    n, m = adj.shape
    ii, jj = np.nonzero(adj)
    indptr = np.cumsum(np.concatenate([[0, n], np.bincount(ii, minlength=n), np.ones(m, int), [0]]))
    indices = np.concatenate([np.arange(1, n + 1), jj + n + 1, np.full(m, n + m + 1)])
    caps = np.concatenate([src_caps, np.full(len(ii), flow_scale), snk_caps]).astype(np.int32)
    graph = csr_array((caps, indices, indptr), shape=(n + m + 2, n + m + 2))
    res = maximum_flow(graph, 0, n + m + 1)
    return res.flow_value, res.flow[1: n + 1, n + 1: n + m + 1].toarray()


def first_fit_bisect(cands, least):
    """The library's former one-probe-per-call bisection; ``least(k)`` takes one k."""
    lo, hi, found = 0, len(cands) - 1, None
    while lo < hi:
        mid = (lo + hi) // 2
        out = least(mid)
        if out[0] < cands[mid + 1]:
            hi, found = mid, out
        else:
            lo = mid + 1
    return hi, found or least(hi)


def cut_domain_eps_bisect(gap, w, grid=None, left=None, flow_scale=10 ** 9):
    """The library's former ``_cut_domain_eps``: one solve per probe of the bisection.

    Returns eps, the domain and the number of max-flow solves made.
    """
    from mm_lab.distances import _cut_side
    cands = np.unique(np.append(gap[gap > 0], 0.0)) if grid is None else grid
    w_int = np.round(w * flow_scale).astype(np.int32)
    both = np.ones(len(w), dtype=bool)
    left, right = (both, both) if left is None else (left, ~left)
    solves = []

    def least(k):
        viol = gap[np.ix_(left, right)] > cands[k]
        cover = np.zeros(len(w), dtype=bool)
        if viol.any():
            solves.append(k)
            block = min_cut_single(w_int[left], w_int[right], viol, flow_scale)[1]
            rows, cols = _cut_side(w_int[left], viol, block)
            cover[left] = ~rows
            cover[right] |= cols
        return max(float(cands[k]), float(w[cover].sum())), cover

    _, (eps, cover) = first_fit_bisect(cands, least)
    return eps, np.nonzero(~cover)[0], len(solves)


def lip1_target_fit_loop(source, target, p, f_vals):
    """Ky Fan target fit with a coordinate search on every target.

    Scores the McShane extensions of g, of min(g, upper envelope) and of
    max(g, lower envelope), then moves one coordinate at a time over nine
    points of its Lipschitz window while a move gains more than 1e-12, three
    times with a shrinking step.  Returns the least Ky Fan distance found.
    """
    from mm_lab.core import mcshane_extend
    from mm_lab.distances import ky_fan
    from mm_lab.invariants import _levy_mean_of_values

    m = target.n
    fibers = [np.nonzero(p == j)[0] for j in range(m)]
    g = np.empty(m)
    overall = float(np.median(f_vals))
    for j in range(m):
        if len(fibers[j]):
            wj = source.weight[fibers[j]]
            g[j] = _levy_mean_of_values(f_vals[fibers[j]], wj / wj.sum()).mean
        else:
            g[j] = overall
    lower = (g[None, :] - target.dist).max(axis=1)
    upper = (g[None, :] + target.dist).min(axis=1)
    candidates = [g, np.minimum(g, upper), np.maximum(g, lower)]
    best_g, best = None, np.inf

    def score(gv):
        return ky_fan(source, f_vals, gv[p])

    for gv in candidates:
        gv = mcshane_extend(target, np.arange(m), gv)
        s = score(gv)
        if s < best:
            best, best_g = s, gv.copy()
    step = max(best, target.diam / 8, 1e-6)
    for _ in range(3):
        improved = True
        while improved:
            improved = False
            for j in range(m):
                lo = (best_g[None, :] - target.dist).max(axis=1)[j] if m > 1 else best_g[j] - step
                hi = (best_g[None, :] + target.dist).min(axis=1)[j] if m > 1 else best_g[j] + step
                for cand in np.linspace(max(lo, best_g[j] - step), min(hi, best_g[j] + step), 9):
                    trial = best_g.copy()
                    trial[j] = cand
                    trial = mcshane_extend(target, np.arange(m), trial)
                    s = score(trial)
                    if s < best - 1e-12:
                        best, best_g = s, trial
                        improved = True
        step /= 3.0
    return best


def prokhorov_bruteforce_loop(space, mu, nu, lam=1.0):
    """The library's former definition-direct lambda-Prokhorov value by subset enumeration.

    For every subset A of the support of nu the smallest feasible radius
    solves a piecewise-linear inequality in closed form; the distance is the
    largest of these roots.
    """
    mu = np.maximum(np.asarray(mu, dtype=float), 0.0)
    nu = np.maximum(np.asarray(nu, dtype=float), 0.0)
    d = space.dist
    support_nu = np.nonzero(nu > 1e-15)[0]
    worst = 0.0
    for r in range(1, len(support_nu) + 1):
        for A in itertools.combinations(support_nu, r):
            A = list(A)
            nuA = float(nu[A].sum())
            dA = d[:, A].min(axis=1)
            ts = np.unique(np.concatenate([[0.0], dA]))
            levels = np.array([float(mu[dA <= t].sum()) for t in ts])
            root = None
            for k, t in enumerate(ts):
                upper = ts[k + 1] if k + 1 < len(ts) else np.inf
                need = (nuA - levels[k]) / lam
                if need <= t:
                    root = t
                    break
                if need <= upper:
                    root = need
                    break
            worst = max(worst, 0.0 if root is None else float(root))
    return worst


def prokhorov_lp(dist, mu, nu, lam=1.0):
    """Lambda-Prokhorov value from transport linear programs, one per distinct distance r.

    The most mass T(r) movable along pairs at distance <= r is an LP
    (scipy's HiGHS); the value is the least max(r, (1 - T(r)) / lam).
    """
    from scipy.optimize import linprog
    dist = np.asarray(dist, dtype=float)
    n, m = dist.shape
    best = math.inf
    for r in np.unique(dist):
        ii, jj = np.nonzero(dist <= r)
        rows = np.zeros((n + m, len(ii)))
        rows[ii, np.arange(len(ii))] = 1.0
        rows[n + jj, np.arange(len(ii))] = 1.0
        res = linprog(-np.ones(len(ii)), A_ub=rows, b_ub=np.concatenate([mu, nu]),
                      bounds=(0, None), method="highs")
        best = min(best, max(float(r), (1.0 + res.fun) / lam))
    return best


def exceeds_lip1_broadcast(space, rows):
    """Flag each row v having a pair i != j with |v_i - v_j| > d(i, j).

    The float64 broadcast kernel that core._exceeds_lip1 replaced: every
    (row, point, point) gap, in blocks of about 256 (row, point) pairs, with
    the diagonal left out as lip_constant leaves it out.
    """
    rows = np.asarray(rows, dtype=float)
    m, n = rows.shape
    d = np.array(space.dist)
    np.fill_diagonal(d, np.inf)
    flagged = np.zeros(m, dtype=bool)
    step = max(1, 256 // max(m, 1))
    for lo in range(0, n, step):
        gap = np.abs(rows[:, lo: lo + step, None] - rows[:, None, :])
        flagged |= (gap > d[lo: lo + step]).any(axis=(1, 2))
    return flagged


def _sqrt_down(f: Fraction, bits: int = 200) -> Fraction:
    """A rational at most sqrt(f), within 2^-bits of it."""
    return Fraction(math.isqrt(f.numerator * 4**bits // f.denominator), 2**bits)


def projection_window_floor(coords, tau, u):
    """The window width that core._projection_windows derives for the
    direction u, evaluated in rationals and rounded down: any sound float
    evaluation of it is at least this.

    Its w is the axis a of the least |u_a| minus fl((u_a / fl|u|^2) u), built
    with the same float operations.  Square roots are taken from below and
    the one divisor, |u|, from above.
    """
    x = np.asarray(coords, dtype=float)
    u = np.asarray(u, dtype=float)
    dims = x.shape[1]
    a = int(np.argmin(np.abs(u)))
    w = u * -(u[a] / (u * u).sum())
    w[a] += 1.0
    U = Fraction(1, 2**53)
    g = dims * U / (1 - dims * U)
    R = max(sum(Fraction(float(c)) ** 2 for c in row) for row in x)
    root = _sqrt_down(R)
    qu = [Fraction(float(c)) for c in u]
    qw = [Fraction(float(c)) for c in w]
    u_norm = _sqrt_down(sum(c * c for c in qu))
    u_up = u_norm + Fraction(1, 2**200)
    w_norm = _sqrt_down(sum(c * c for c in qw))
    along = abs(sum(p * q for p, q in zip(qu, qw))) / u_up
    L = (1 + U) * u_norm
    beta = 2 * (1 + U) * g * root * u_norm + Fraction(float(tau))
    rho2 = max(L * L - 1, Fraction(0)) * 4 * R + 4 * L * beta * root + beta * beta
    return 2 * root * along + _sqrt_down(rho2) * w_norm + 2 * g * root * w_norm


def triangle_draws_whole_row(rng, arity, m, horizon):
    """(m, arity, 3) rows of uniform triangle triplets, rejecting whole rows.

    The sampler that triangle_draws_rejection replaced: it draws 4m rows of arity
    uniform triplets in [0, horizon]^3 at a time and keeps a row only when
    every coordinate is a triangle triplet, until m rows are kept.
    """
    rows = []
    kept = 0
    while kept < m:
        draw = rng.random((4 * m, arity, 3)) * horizon
        ok = ((draw[:, :, 0] <= draw[:, :, 1] + draw[:, :, 2])
              & (draw[:, :, 1] <= draw[:, :, 0] + draw[:, :, 2])
              & (draw[:, :, 2] <= draw[:, :, 0] + draw[:, :, 1])).all(axis=1)
        rows.append(draw[ok][:m - kept])
        kept += rows[-1].shape[0]
    return np.concatenate(rows)


def triangle_draws_rejection(rng, arity, m, horizon):
    """(arity, 3, m) uniform triangle triplets, rejecting per coordinate.

    The sampler that mpf._triangle_draws replaced: coordinate by coordinate
    it draws a (3, q) block of uniforms in [0, horizon]^3 with q a little
    over twice the rows still needed, keeps the triangle triplets in draw
    order, and draws again while short.  About half of the draws are kept.
    """
    out = np.empty((arity, 3, m))
    for k in range(arity):
        filled = 0
        while filled < m:
            need = m - filled
            x = rng.random((3, 2 * need + 4 * math.isqrt(need) + 8))
            x *= horizon
            a, b, c = x
            kept = np.compress((a <= b + c) & (b <= a + c) & (c <= a + b), x, axis=1)[:, :need]
            out[k, :, filled:filled + kept.shape[1]] = kept
            filled += kept.shape[1]
    return out


def triangle_excess(a, b, c):
    """Largest amount by which one side exceeds the sum of the other two."""
    return max(a - b - c, b - a - c, c - a - b)

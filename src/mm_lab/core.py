"""Finite metric measure spaces, real observables, and pushforward distributions.

A space is a finite set of labelled points carrying a dense symmetric distance
matrix and a strictly positive probability weight vector.  Everything downstream
(products, invariants, coupling distances) consumes the validated form produced
by :func:`validate_space`.
"""
from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapExceeded,
    HostMismatch,
    MMLabError,
    NegativeWeight,
    NotLipschitz,
    NotNormalized,
    TooLarge,
    TriangleViolation,
)

MASS_TOL = 1e-12
METRIC_TOL = 1e-9
# Decisions that several modules must make alike: the row kernels of
# invariants give the bits of the 1-D kernels only while they share these.
MERGE_GAP = 1e-12  # sorted atoms at most this far apart merge into one
TAIL_SLACK = 1e-15  # tail_mass counts the mass of dev > t + TAIL_SLACK
ZERO_MASS = 1e-15  # a weight at most this is no atom; below -ZERO_MASS it is negative
BATTERY_TOL = 1e-9  # every battery row and product check asserts lhs <= rhs + BATTERY_TOL

DEFAULT_POINT_CAP = 4096
# full cubic triangle sweep up to this size, sampled triplets beyond
_EXHAUSTIVE_TRIANGLE_N = 512
_SAMPLED_TRIANGLE_COUNT = 2_000_000
# sampled triplets scored at a time: each float temporary of a chunk is
# 256 KB, so a chunk's working set stays in a 2 MB L2 cache (BENCH_pr32.json)
_TRIANGLE_CHUNK = 1 << 15
# up to this size sweeping every pivot beats the Chebyshev screen
# (BENCH_pr10.json, triangle_crossover_us), and every triplet is scored at once
_TRIANGLE_SCREEN_N = 6
# above this size the Euclidean certificate of coords beats the pivot sweep
# (BENCH_pr26.json, euclid_crossover_us)
_EUCLID_CERT_N = 6
_U = 2.0**-53  # unit roundoff of float64
# up to this many (row, pair) entries comparing every pair in float64 beats
# the Lipschitz screen, and the screen casts blocks of this many matrix rows
# (BENCH_pr25.json, lip_screen_crossover_us); _projection_flags rechecks at
# most _LIP_BLOCK pairs per point of a row, the screen's block, before
# handing the row to the screen
_LIP_BROADCAST = 1 << 16
_LIP_BLOCK = 128
# rows of each temporary of the n x n passes that need one: the Gram form
# and the symmetry checks
_ROW_BLOCK = 128


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _sample_count(samples, name: str = "samples", least: int = 1) -> int:
    """``samples`` as an int of at least ``least``; bools and floats are refused.

    The one check of the library's integer arguments (sample counts,
    budgets, dimensions).  operator.index takes Python and numpy integers
    and refuses floats and numpy bools, but it takes a Python bool, which
    is refused here too.
    """
    try:
        count = operator.index(samples)
    except TypeError:
        count = None
    if count is None or isinstance(samples, bool):
        raise MMLabError(f"{name} must be an integer, got {samples!r}")
    if count < least:
        raise MMLabError(f"{name} must be >= {least}")
    return count


def _transposed_blocks(d: np.ndarray):
    """Each block of _ROW_BLOCK rows of d beside the same rows of d.T, as views.

    Comparing them block by block compares d with d.T with temporaries of
    _ROW_BLOCK rows, not of n.
    """
    for lo in range(0, len(d), _ROW_BLOCK):
        yield d[lo: lo + _ROW_BLOCK], d[:, lo: lo + _ROW_BLOCK].T


@dataclass(frozen=True)
class FiniteMMSpace:
    """Validated finite metric measure space.

    A space whose coords certify its distances carries coords_error, so that
    proofs about d can be made from the coordinates instead of the n x n
    matrix: _projection_flags proves coordinate projections 1-Lipschitz
    with it.
    """

    labels: tuple
    dist: np.ndarray
    weight: np.ndarray
    # "exhaustive" when every triplet was checked, "certified" when a bound
    # proved from the construction (Euclidean coords, an lp product) holds,
    # "sampled" when the triangle inequality was only falsified on a random
    # sample of triplets
    triangle_check: str
    coords: np.ndarray | None = None
    # proved upper bound on d[i, k] - d[i, j] - d[j, k] over every triplet,
    # exact and as _triangle_check evaluates it in floats; None when sampled
    triangle_slack: float | None = None
    # proved tau with |d[i, j] - |x_i - x_j|| <= tau for every pair, x_i the
    # stored float coords, when the Euclidean certificate of coords holds;
    # None otherwise (no coords, a non-Euclidean metric, products, n <= 6)
    coords_error: float | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def diam(self) -> float:
        # cached in the instance __dict__: the read-only matrix cannot change,
        # and dataclass equality compares fields only
        return float(self.dist.max()) if self.n else 0.0

    def reweighted(self, weight) -> "FiniteMMSpace":
        """Same carrier with a different measure, re-validated into a copy of
        weight; a proved triangle_slack and coords_error carry over."""
        return validate_space(replace(self, weight=np.asarray(weight, dtype=float)))


@dataclass(frozen=True)
class RealDistribution:
    """Weighted real atoms, sorted ascending, masses summing to one."""

    positions: np.ndarray
    masses: np.ndarray

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class LipFunction:
    """Point values on a host space with a claimed Lipschitz constant."""

    values: np.ndarray
    lip_const: float


def tail_mass(dev: np.ndarray, weight: np.ndarray, thresholds) -> np.ndarray:
    """Mass ``weight[dev > t + TAIL_SLACK].sum()`` at every threshold t.

    ``dev`` is one row, or a stack of rows each with its own row of
    thresholds.  Per row one stable sort, one suffix sum of the sorted
    weights and one searchsorted: O((n + m) log n) for m thresholds.
    """
    rows = np.atleast_2d(dev)
    order = np.argsort(rows, axis=1, kind="stable")
    suffix = np.cumsum(weight[order][:, ::-1], axis=1)[:, ::-1]
    suffix = np.concatenate([suffix, np.zeros((len(rows), 1))], axis=1)
    limits = np.asarray(thresholds, float).reshape(len(rows), -1) + TAIL_SLACK
    first_above = [r[o].searchsorted(t, side="right") for r, o, t in zip(rows, order, limits)]
    return suffix[np.arange(len(rows))[:, None], first_above].reshape(np.shape(thresholds))


def _merge_sorted(pos, mass):
    """Sort atoms and merge each run whose neighbours lie within MERGE_GAP of each other."""
    order = np.argsort(pos, kind="stable")
    pos, mass = np.asarray(pos, float)[order], np.asarray(mass, float)[order]
    keep = np.empty(len(pos), dtype=bool)
    keep[0] = True
    np.greater(np.diff(pos), MERGE_GAP, out=keep[1:])
    groups = np.cumsum(keep) - 1
    out_p = pos[keep]
    out_m = np.bincount(groups, weights=mass, minlength=keep.sum())
    return out_p, out_m


def _subset_table(rows, ufunc, empty) -> np.ndarray:
    """Row m folds ``ufunc`` over ``rows[b]`` for every bit b set in m.

    Filled one bit at a time, ``table[2^b : 2^(b+1)] = ufunc(table[:2^b], rows[b])``,
    so row 0 (the empty set) holds ``empty``; the table keeps the dtype of
    ``rows``, so integer bitmasks fold under ``np.bitwise_or``.
    """
    rows = np.asarray(rows)
    table = np.empty((1 << len(rows),) + rows.shape[1:], dtype=rows.dtype)
    table[0] = empty
    for b, row in enumerate(rows):
        ufunc(table[: 1 << b], row, out=table[1 << b: 2 << b])
    return table


def _triangle_pivots(d: np.ndarray, tol: float):
    """Ascending pivots j at which d[i, k] - (d[i, j] + d[j, k]) > tol can hold,
    and a bound on the slacks at every other pivot.

    A violation at pivot j gives |d[i, k] - d[j, k]| > d[i, j] + tol, so the
    Chebyshev distance between rows i and j exceeds min(d[i, j], d[j, i]) + tol,
    up to a rounding margin; a pivot equal to i or k needs d[j, j] < -tol, which
    the zero Chebyshev diagonal flags in the same comparison.  Every slack at
    an unreturned pivot j is at most the largest excess
    cheb(i, j) - min(d[i, j], d[j, i]) over its row, which is returned, up to
    its own float rounding of at most 5.01 u max|d|.
    """
    # imported here, not at module level: scipy.spatial would add tens of
    # milliseconds to every import of mm_lab (BENCH_pr10.json)
    from scipy.spatial.distance import pdist, squareform

    margin = 8 * np.finfo(float).eps * max(1.0, float(np.abs(d).max()))
    cheb = squareform(pdist(d, "chebyshev"))
    low = np.minimum(d, d.T)
    flagged = (cheb > low + (tol - margin)).any(axis=1)
    cheb -= low
    return np.flatnonzero(flagged), float(cheb[~flagged].max(initial=-np.inf))


def _triplet_draws(n: int):
    """Points i, j, k of the fixed sample of _SAMPLED_TRIANGLE_COUNT triplets, in draw order."""
    rng = np.random.default_rng(0)
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    return [rng.integers(0, n, _SAMPLED_TRIANGLE_COUNT).astype(dtype) for _ in range(3)]


def _flat_triplets(n: int, i, j, k):
    """Flat indices (i*n + k, i*n + j, j*n + k), built in place over i and j."""
    i *= n
    ik = i + k
    i += j
    j *= n
    j += k
    return [ik, i, j]


@functools.lru_cache(maxsize=2)
def _sampled_triplets(n: int):
    """Flat indices of the fixed triplet sample on n points, stably sorted by row i.

    Sorted, the gathers of d[i, k] and d[i, j] walk the matrix row by row
    instead of jumping about it.  The sort key is the smallest unsigned type
    holding n - 1, which numpy radix-sorts up to 65536 points.
    """
    i, j, k = _triplet_draws(n)
    order = np.argsort(i.astype(np.min_scalar_type(n - 1)), kind="stable")
    flat = _flat_triplets(n, i, j, k)
    # free k before the gathers, which keeps the build's peak near 50 MB at n = 1000
    del i, j, k
    for t in range(3):
        flat[t] = _readonly(flat[t][order])
    return tuple(flat)


def _max_slack(flat: np.ndarray, ik, ij, jk):
    """Largest d[i, k] - d[i, j] - d[j, k] over the flat triplets, and its first position.

    The largest slack is the same float in any order of the triplets.
    """
    best, at = -np.inf, -1
    for lo in range(0, len(ik), _TRIANGLE_CHUNK):
        part = slice(lo, lo + _TRIANGLE_CHUNK)
        slack = flat.take(ik[part]) - flat.take(ij[part]) - flat.take(jk[part])
        w = int(np.argmax(slack))
        if slack[w] > best:
            best, at = float(slack[w]), lo + w
    return best, at


def _triangle_check(d: np.ndarray, tol: float):
    """The first (i, j, k, slack) with slack = d[i, k] - (d[i, j] + d[j, k]) > tol,
    or None; and beside it a proved triangle_slack of d, or None.

    Up to _EXHAUSTIVE_TRIANGLE_N points every triplet is checked, and the
    witness is the first violation in (j, i, k) order.  Up to
    _TRIANGLE_SCREEN_N points every slack is evaluated at once.  Beyond, d is
    a metric iff max_m |d[i, m] - d[j, m]| <= d[i, j] for every pair
    (Frechet-Kuratowski), so one Chebyshev distance between rows per pair
    (_triangle_pivots) rules out every pivot that cannot carry a violation.
    The sweep then visits only the remaining pivots, in ascending order, with
    one n x n buffer; its witness is the same, with the same slack bits, as
    a sweep over every pivot.  When there is none, every exact slack is at
    most the larger of the largest float slack over the swept pivots and
    the screen's bound over the rest, plus 6 u max|d|, and _slack_bound makes
    that a triangle_slack.

    Beyond that size a fixed sample of _SAMPLED_TRIANGLE_COUNT triplets,
    drawn once per n, is scored in chunks; it falsifies but does not
    certify, so it proves no slack.  The memoised sample is sorted by row,
    which gives the largest slack but not the draw order; only when that
    slack exceeds tol is the sample drawn again, unsorted and not memoised,
    and the witness is its first triplet of largest slack in draw order.
    Entries must be finite.
    """
    n = d.shape[0]
    if n > _EXHAUSTIVE_TRIANGLE_N:
        flat = d.ravel()
        if _max_slack(flat, *_sampled_triplets(n))[0] <= tol:
            return None, None
        ik, ij, jk = _flat_triplets(n, *_triplet_draws(n))
        best, at = _max_slack(flat, ik, ij, jk)
        i, k = divmod(int(ik[at]), n)
        return (i, int(ij[at]) % n, k, best), None
    if n <= _TRIANGLE_SCREEN_N:
        # slack[j, i, k], with the float operations of the sweep
        slack = d[None] - (d.T[:, :, None] + d[:, None, :])
        worst = float(slack.max(initial=-np.inf))
        if worst > tol:
            j, i, k = np.argwhere(slack > tol)[0]
            return (int(i), int(j), int(k), float(slack[j, i, k])), None
    else:
        slack = np.empty_like(d)
        pivots, worst = _triangle_pivots(d, tol)
        for j in pivots:
            np.add.outer(d[:, j], d[j], out=slack)
            np.subtract(d, slack, out=slack)
            top = float(slack.max())
            if top > tol:
                i, k = np.argwhere(slack > tol)[0]
                return (int(i), int(j), int(k), float(slack[i, k])), None
            worst = max(worst, top)
    scale = _abs_max(d)
    return None, _slack_bound(worst + 6 * _U * scale, scale)


def _abs_max(d: np.ndarray) -> float:
    """max |d| without an n x n temporary."""
    return max(float(d.max(initial=0.0)), -float(d.min(initial=0.0)))


def _round_up(x: float) -> float:
    """x raised by a relative 2^-40.

    Every bound below is a sum and product of a few dozen nonnegative floats,
    whose computed value lies within a relative 2^-46 of the exact one; so
    the raised value is an upper bound on the exact one.
    """
    return x * (1.0 + 2.0**-40)


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), the relative error of m roundings."""
    return m * _U / (1.0 - m * _U)


def _slack_bound(exact: float, scale: float) -> float:
    """triangle_slack from a bound on the exact slacks of entries at most ``scale`` in absolute value.

    The sweep evaluates a slack as fl(d[i, k] - fl(d[i, j] + d[j, k])), the
    sampled check as fl(fl(d[i, k] - d[i, j]) - d[j, k]): either way two
    roundings, of terms at most 2 scale and 3 scale, move it at most
    5.01 u scale from the exact slack.  A negative bound is raised to 0.
    """
    return _round_up(max(exact, 0.0) + 6 * _U * scale)


def _gram_distances(x: np.ndarray):
    """The Gram-form distances c of the rows of x, and a bound eps on their error.

    c = fl(sqrt(max(fl(|x_i|^2 + |x_j|^2) - 2 <x_i, x_j>, 0))) with a zero
    diagonal, with |x_i|^2 = (x * x).sum(axis=1): one matmul, which is the
    returned matrix, then in-place passes over blocks of _ROW_BLOCK rows,
    whose one temporary holds the sums of squared norms of a block.  numpy
    computes x @ x.T of a contiguous float64 x from one triangle (BLAS
    syrk), so then c is symmetric bit for bit.  eps
    bounds |c[i, j] - e[i, j]|, with e[i, j] = |x_i - x_j| the exact distance
    of the float coordinates.  With R = max |x_i|^2 and u the unit roundoff
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1):

    - each of the three terms carries at most dims roundings, of a sum of
      terms at most R in all, and the two additions two more, so the
      computed argument g is within eta = 4 gamma_{dims+2} R of e^2, plus
      4 (dims + 2) 2^-1074 for products that underflow; the bound counts
      roundings only, so it holds in any order of the sums;
    - clamping g at 0 only moves it toward e^2 >= 0, and
      |sqrt(g) - e| = |g - e^2| / (sqrt(g) + e) <= eta (1 + u) / c_min, with
      c_min the least off-diagonal c; the rounded sqrt adds u c_max, so
      eps = (eta / c_min + u c_max)(1 + u) off the diagonal, where c and e
      are both 0.

    Every term of the form is at most 4R in magnitude before rounding, so c
    is None, and eps inf, only when 8R overflows; eps is inf when two points
    coincide (c_min = 0).
    """
    n, dims = x.shape
    sq = (x * x).sum(axis=1)
    with np.errstate(over="ignore"):
        r = float(sq.max(initial=0.0)) / (1.0 - _gamma(dims))
        if not np.isfinite(8.0 * r):
            return None, np.inf
    c = x @ x.T
    part = np.empty((min(n, _ROW_BLOCK), n))
    for lo in range(0, n, _ROW_BLOCK):
        rows = c[lo: lo + _ROW_BLOCK]
        sums = part[: len(rows)]
        np.add(sq[lo: lo + _ROW_BLOCK, None], sq, out=sums)
        rows *= 2.0
        np.subtract(sums, rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
        np.sqrt(rows, out=rows)
    np.fill_diagonal(c, np.inf)
    least = float(c.min(initial=np.inf))
    np.fill_diagonal(c, 0.0)
    if not least > 0.0:
        return c, np.inf
    eta = 4.0 * _gamma(dims + 2) * r + 4.0 * (dims + 2) * 2.0**-1074
    return c, _round_up((eta / least + _U * float(c.max())) * (1.0 + _U))


def _euclidean_slack(d: np.ndarray, x: np.ndarray):
    """A proved triangle_slack of d, and a proved coords_error tau, if d is,
    within rounding, the Euclidean matrix of the rows of x; else (inf, inf).

    With c and eps from _gram_distances and delta = max |d - c| (its float
    read raised by 2u), tau = eps + delta (raised) bounds
    |d[i, j] - |x_i - x_j|| for every pair, and the triangle inequality of
    the exact distances leaves every exact slack of d at most 3 tau.  Row 0
    is probed first, at O(n dims): when its distances to the points differ
    from d[0] by more than METRIC_TOL / 3, as for geodesic spheres and
    transformed metrics, no n^2 work is done.
    """
    with np.errstate(over="ignore"):
        if 3.0 * float(np.abs(d[0] - np.linalg.norm(x - x[0], axis=1)).max()) > METRIC_TOL:
            return np.inf, np.inf
    c, eps = _gram_distances(x)
    if not eps < np.inf:
        return np.inf, np.inf
    np.subtract(d, c, out=c)
    np.abs(c, out=c)
    delta = float(c.max()) * (1.0 + 2.0 * _U)
    return _slack_bound(3.0 * (eps + delta), _abs_max(d)), _round_up(eps + delta)


def _numbers(value, what: str, dtype=float) -> np.ndarray:
    """``np.asarray(value, dtype)``, or MMLabError naming ``what`` if that fails."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise MMLabError(f"{what} is not an array of numbers: {exc}") from exc


def validate_space(candidate, cap: int = DEFAULT_POINT_CAP) -> FiniteMMSpace:
    """Validate a raw space record into a FiniteMMSpace.

    Zero-weight points are dropped and the weights renormalized; any broken
    invariant raises the matching error.  Idempotent on validated spaces: a
    FiniteMMSpace keeps its triangle_check and triangle_slack when the slack
    is within METRIC_TOL, which is how product() and sample_sphere() hand
    over the bound their construction proves, and it keeps its coords_error.
    Otherwise the triangle inequality is certified from coords above
    _EUCLID_CERT_N points when _euclidean_slack proves it within METRIC_TOL,
    which also stores that certificate's coords_error, and checked by
    _triangle_check when nothing does.  Dropping points keeps coords_error,
    a bound over pairs, which holds on any subset.  Symmetry is checked on
    blocks of _ROW_BLOCK rows against the same rows of the transpose, so no
    check makes an n x n float temporary.  The weights are copied; dist and
    coords are frozen in place, since a copy of dist is 8 MB at 1000 points.
    """
    if isinstance(candidate, FiniteMMSpace):
        labels = list(candidate.labels)
        dist = np.asarray(candidate.dist, dtype=float)
        weight = np.asarray(candidate.weight, dtype=float)
        coords = candidate.coords
        check, slack = candidate.triangle_check, candidate.triangle_slack
        coords_error = candidate.coords_error
    elif isinstance(candidate, dict):
        for key in ("dist", "weight"):
            if key not in candidate:
                raise MMLabError(f"space record has no {key!r}")
        labels = candidate.get("labels", [])
        if not isinstance(labels, (list, tuple)):
            raise MMLabError(f"space labels are a list, not a {type(labels).__name__}")
        dist = _numbers(candidate["dist"], "space dist")
        weight = _numbers(candidate["weight"], "space weight")
        coords = candidate.get("coords")
        if coords is not None:
            coords = _numbers(coords, "space coords")
        slack = coords_error = None
    else:
        raise MMLabError(f"a space record is an object, not a {type(candidate).__name__}")

    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise MMLabError(f"distance matrix shape {dist.shape} is not square")
    n = dist.shape[0]
    if not labels:
        labels = [str(i) for i in range(n)]
    if len(labels) != n or weight.shape != (n,):
        raise MMLabError("labels / dist / weight sizes disagree")
    if n > cap:
        raise CapExceeded(n, cap)
    if not np.isfinite(dist).all():
        raise MMLabError("distance matrix has a non-finite entry")
    if not np.isfinite(weight).all():
        raise MMLabError("weight vector has a non-finite entry")
    if coords is not None and (coords.ndim != 2 or coords.shape[0] != n
                               or not np.isfinite(coords).all()):
        raise MMLabError(f"space coords of shape {coords.shape} are not a finite "
                         f"array of one row per point")

    if np.abs(np.diagonal(dist)).max(initial=0.0) > METRIC_TOL:
        raise MMLabError("distance matrix has a nonzero diagonal entry")
    if any(np.abs(rows - cols).max(initial=0.0) > METRIC_TOL
           for rows, cols in _transposed_blocks(dist)):
        raise MMLabError("distance matrix is not symmetric")
    if dist.min(initial=0.0) < -METRIC_TOL:
        raise MMLabError("distance matrix has a negative entry")

    if slack is None and coords is not None and n > _EUCLID_CERT_N:
        slack, error = _euclidean_slack(dist, coords)
        check = "certified"
        if slack <= METRIC_TOL:
            coords_error = error
    if slack is None or slack > METRIC_TOL:
        bad, slack = _triangle_check(dist, METRIC_TOL)
        if bad is not None:
            raise TriangleViolation(*bad)
        check = "exhaustive" if n <= _EXHAUSTIVE_TRIANGLE_N else "sampled"

    neg = np.nonzero(weight < -ZERO_MASS)[0]
    if neg.size:
        raise NegativeWeight(int(neg[0]), float(weight[neg[0]]))
    total = float(weight.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise NotNormalized(total)

    keep = weight > ZERO_MASS
    if not keep.all():
        idx = np.nonzero(keep)[0]
        labels = [labels[i] for i in idx]
        dist = dist[np.ix_(idx, idx)]
        weight = weight[idx]
        if coords is not None:
            coords = coords[idx]
    s = float(weight.sum())
    if abs(s - 1.0) > 5e-16:
        weight = weight / s

    return FiniteMMSpace(
        labels=tuple(labels),
        dist=_readonly(dist),
        weight=_readonly(weight.copy()),
        coords=None if coords is None else _readonly(coords),
        triangle_check=check,
        triangle_slack=slack,
        coords_error=coords_error,
    )


# ---------------------------------------------------------------------------
# observables

def lip_constant(space: FiniteMMSpace, values) -> float:
    """Smallest L with |v_i - v_j| <= L d(i,j); inf if values split a zero distance."""
    v = np.asarray(values, dtype=float)
    d = space.dist
    dv = np.abs(v[:, None] - v[None, :])
    off = ~np.eye(space.n, dtype=bool)
    zero = off & (d <= 0)
    if np.any(dv[zero] > 1e-15):
        return float("inf")
    pos = off & (d > 0)
    if not pos.any():
        return 0.0
    return float((dv[pos] / d[pos]).max())


def _breaks_lip1(d: np.ndarray, v: np.ndarray, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether a pair (i[k], j[k]) with i[k] != j[k] has |v_i - v_j| > d(i, j) or > d(j, i).

    The float64 comparison of lip_constant's pairs, on the given pairs only.
    """
    gap = np.abs(v[i] - v[j])
    return bool((((gap > d[i, j]) | (gap > d[j, i])) & (i != j)).any())


def _exceeds_lip1(space: FiniteMMSpace, rows) -> np.ndarray:
    """Flag each row v of a 2-D array having a pair i != j with |v_i - v_j| > d(i, j).

    For positive floats fl(a / b) > 1 exactly when a > b, so every row whose
    lip_constant exceeds 1 is flagged, and so is every row that splits a zero
    distance (lip_constant inf).  An unflagged row is 1-Lipschitz, and
    project_to_lip1 returns it unchanged.

    Up to _LIP_BROADCAST (row, pair) entries every pair is compared at once,
    against min(d(i, j), d(j, i)).  Beyond, a float32 min-plus screen
    decides most points, and a float64 recheck of the rest gives the flags
    of the exact comparison.  The screen casts blocks of _LIP_BLOCK matrix
    rows once and bounds, for every point i, the least slack
    d(i, j) + v_j - v_i over j != i.  A violating pair leaves a slack of at
    most the asymmetry METRIC_TOL at one of its ends, and float32 rounding
    moves a slack by less than 4 eps32 (max|d| + 2 max|v|).  So at each
    point whose least slack is not above their sum, the pairs whose slack
    is not above it are rechecked against d(i, j) and d(j, i) (_breaks_lip1).
    Every pair of a row too large for float32, or holding a nan, is
    rechecked.  A flagged row skips later blocks.
    """
    n = space.n
    rows = np.asarray(rows, dtype=float).reshape(len(rows), n)
    d = space.dist
    if len(rows) * n * n <= _LIP_BROADCAST:
        lim = np.minimum(d, d.T)
        np.fill_diagonal(lim, np.inf)
        return (np.abs(rows[:, :, None] - rows[:, None, :]) > lim).any(axis=(1, 2))
    flagged = np.zeros(len(rows), dtype=bool)
    f32 = np.finfo(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        # |d| <= diam + METRIC_TOL: validate_space allows entries down to -METRIC_TOL
        scale = space.diam + METRIC_TOL + 2.0 * np.abs(rows).max(axis=1)
        # float64, so the float32 slacks are compared with it exactly
        margin = np.where(scale < f32.max / 4, 4 * float(f32.eps) * scale + METRIC_TOL, np.inf)
        v32 = rows.astype(np.float32)
        for lo in range(0, n, _LIP_BLOCK):
            d32 = d[lo: lo + _LIP_BLOCK].astype(np.float32)
            b = len(d32)
            d32[np.arange(b), np.arange(lo, lo + b)] = np.inf
            plus = np.empty_like(d32)
            for r in np.flatnonzero(~flagged):
                np.add(d32, v32[r], out=plus)
                own = v32[r, lo: lo + b]
                undecided = np.flatnonzero(~(plus.min(axis=1) - own > margin[r]))
                if undecided.size:
                    pairs = ~(plus[undecided] - own[undecided, None] > margin[r])
                    k, j = np.divmod(np.flatnonzero(pairs), n)
                    flagged[r] = _breaks_lip1(d, rows[r], undecided[k] + lo, j)
    return flagged


def _projection_windows(space: FiniteMMSpace, dirs):
    """Keys t and widths h such that every pair (i, j) that a projection
    fl(coords @ dirs[k]) stretches past d(i, j) or d(j, i) has
    |t[k, i] - t[k, j]| <= h[k] as floats; h[k] is nan or inf where no
    finite width is proved.  Needs coords_error and coords of dims >= 2.

    Let x_i be the coords, tau the coords_error, R >= max |x_i|^2, g the
    gamma of dims roundings and u the unit roundoff; each bound below also
    takes dims 2^-1074 for products that underflow.  For a direction d_k,
    each v_i = fl(<x_i, d_k>) is within alpha = g sqrt(R) |d_k| of the
    exact value, in any order of the sum, and the comparison reads
    fl|v_i - v_j| <= (1 + u) |v_i - v_j|.  With e = x_i - x_j, a pair
    breaks only if (1 + u)(|<e, d_k>| + 2 alpha) > d(i, j) >= |e| - tau
    (d(j, i) alike), that is |e| < L |e_par| + beta, with e_par = <e, d^>
    along d^ = d_k / |d_k|, L = (1 + u)|d_k| and beta = 2 (1 + u) alpha + tau.
    Squared, and with |e_par| <= |e| <= 2 sqrt(R), the part e_perp of e
    perpendicular to d_k has |e_perp|^2 < rho^2 =
    (L^2 - 1)^+ 4R + 4 L beta sqrt(R) + beta^2.  Take w, the axis a of the
    least |d_k[a]| minus its computed part along d_k, and t = fl(X w).
    Then <e, w> = e_par <d^, w> + <e_perp, w>, so every breaking pair has
    |t_i - t_j| < 2 sqrt(R) |<d^, w>| + rho |w| + 2 g sqrt(R) |w|, and h
    adds 2u (max|t| + h), which covers the rounding of t_i + h.  The norms
    and <d_k, w> are bounded from their computed values with the same g.
    With q = fl|d_k|^2, L^2 - 1 <= (|q - 1| + g + 3u q) / (1 - g); every
    other bound is a sum and product of nonnegative floats, which
    _round_up raises past its rounding.
    """
    x, tau = space.coords, space.coords_error
    dims = x.shape[1]
    g, tiny = _gamma(dims), dims * 2.0**-1074
    dirs = np.asarray(dirs, dtype=float).reshape(-1, dims)
    k = np.arange(len(dirs))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        root = _round_up(np.sqrt((float((x * x).sum(axis=1).max()) + tiny) / (1.0 - g)))
        q = (dirs * dirs).sum(axis=1)
        len_hi = np.sqrt((q + tiny) / (1.0 - g))
        len_lo = np.sqrt((q - tiny) / (1.0 + g))
        lift = (np.abs(q - 1.0) + g + tiny + 3.0 * _U * (q + tiny)) / (1.0 - g)
        axis = np.argmin(np.abs(dirs), axis=1)
        w = dirs * -(dirs[k, axis] / q)[:, None]
        w[k, axis] += 1.0
        w_hi = np.sqrt(((w * w).sum(axis=1) + tiny) / (1.0 - g))
        along = (np.abs((dirs * w).sum(axis=1)) + g * len_hi * w_hi + tiny) / len_lo
        L = (1.0 + _U) * len_hi
        beta = 2.0 * (1.0 + _U) * (g * root * len_hi + tiny) + tau
        rho = np.sqrt(lift * 4.0 * root * root + 4.0 * L * beta * root + beta * beta)
        t = w @ x.T
        h = 2.0 * root * along + rho * w_hi + 2.0 * (g * root * w_hi + tiny)
        h = _round_up(h + 2.0 * _U * (np.abs(t).max(axis=1) + h))
    return t, h


def _projection_flags(space: FiniteMMSpace, dirs, rows) -> np.ndarray:
    """_exceeds_lip1(space, rows) for the projections rows[k] = fl(coords @ dirs[k]).

    When coords_error certifies the distances, each row's keys t from
    _projection_windows are sorted, one searchsorted finds every pair within
    its width h, and only those pairs are compared in float64 against d(i, j)
    and d(j, i) (_breaks_lip1): every other pair is proved not to break.  A
    row goes to _exceeds_lip1 when coords_error is None, when dims = 1 (no
    perpendicular space), when h is not finite, or when its windows hold
    more than n * _LIP_BLOCK pairs.  Either way the flags are _exceeds_lip1's.
    """
    n = space.n
    rows = np.asarray(rows, dtype=float).reshape(len(rows), n)
    flagged = np.zeros(len(rows), dtype=bool)
    screen = np.ones(len(rows), dtype=bool)
    if space.coords_error is not None and space.coords.shape[1] > 1 and len(rows):
        t, h = _projection_windows(space, dirs)
        starts = np.arange(1, n + 1)
        for r in np.flatnonzero(np.isfinite(h)):
            order = np.argsort(t[r])
            keys = t[r, order]
            span = keys.searchsorted(keys + h[r], side="right") - starts
            total = int(span.sum())
            if total > n * _LIP_BLOCK:
                continue
            screen[r] = False
            if total:
                first = np.repeat(starts - 1, span)
                second = first + 1 + np.arange(total) - np.repeat(np.cumsum(span) - span, span)
                flagged[r] = _breaks_lip1(space.dist, rows[r], order[first], order[second])
    if screen.any():
        flagged[screen] = _exceeds_lip1(space, rows[screen])
    return flagged


def as_lip(space: FiniteMMSpace, values, lip_const: float | None = None) -> LipFunction:
    """Wrap point values as a LipFunction, certifying the claimed constant.

    A claimed constant of at least 1 is certified by one _exceeds_lip1 row:
    an unflagged row has lip_constant <= 1.  Only a flagged row, or a smaller
    or missing claim, pays for lip_constant, which decides and names the
    observed constant.  The function holds a read-only copy of values.
    """
    v = np.array(values, dtype=float)
    if v.shape != (space.n,):
        raise HostMismatch(f"{v.shape} values on a {space.n}-point space")
    if lip_const is None:
        lip_const = lip_constant(space, v)
    elif lip_const < 1.0 or _exceeds_lip1(space, v[None])[0]:
        actual = lip_constant(space, v)
        if actual > lip_const + METRIC_TOL:
            raise NotLipschitz(f"claimed constant {lip_const}, observed {actual}")
    return LipFunction(values=_readonly(v), lip_const=float(lip_const))


def project_to_lip1(space: FiniteMMSpace, values) -> np.ndarray:
    """Rescale values around their mean so the result is 1-Lipschitz."""
    v = np.asarray(values, dtype=float)
    L = lip_constant(space, v)
    if not np.isfinite(L) or L > 1.0:
        c = v.mean()
        scale = 0.0 if not np.isfinite(L) else 1.0 / L
        v = c + (v - c) * scale
    return v


def mcshane_extend(space: FiniteMMSpace, domain_idx, domain_values) -> np.ndarray:
    """Minimal 1-Lipschitz extension f(x) = min_y (v_y + d(x, y)) from a sub-domain."""
    idx = np.asarray(domain_idx, dtype=int)
    vals = np.asarray(domain_values, dtype=float)
    return (vals[None, :] + space.dist[:, idx]).min(axis=1)


def real_distribution(pairs) -> RealDistribution:
    """Build a sorted, merged, normalized RealDistribution from (position, mass) pairs.

    Atoms within MERGE_GAP of their neighbour merge into the leftmost one.
    """
    pairs = list(pairs)
    pos = np.asarray([p for p, _ in pairs], dtype=float)
    mass = np.asarray([m for _, m in pairs], dtype=float)
    if (mass < -ZERO_MASS).any():
        i = int(np.nonzero(mass < -ZERO_MASS)[0][0])
        raise NegativeWeight(i, float(mass[i]))
    total = float(mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise NotNormalized(total)
    pos, mass = _merge_sorted(pos, mass)
    return RealDistribution(_readonly(pos), _readonly(mass))


def pushforward(space: FiniteMMSpace, f: LipFunction) -> RealDistribution:
    """Image distribution of the space's measure under the observable f."""
    if f.values.shape != (space.n,):
        raise HostMismatch(f"{f.values.shape} values on a {space.n}-point space")
    return real_distribution(zip(f.values, space.weight))


# ---------------------------------------------------------------------------
# tiny-instance isomorphism testing

_ISO_BOUND = 10


def mm_isomorphic(a: FiniteMMSpace, b: FiniteMMSpace, tol: float = 1e-9):
    """Exhaustive weight- and distance-preserving bijection search.

    Returns (True, permutation) with b-index per a-index, or (False, None).
    Backtracking over point assignments with multiset pre-pruning; instances
    above 10 points raise TooLarge.
    """
    if a.n > _ISO_BOUND or b.n > _ISO_BOUND:
        raise TooLarge(max(a.n, b.n), _ISO_BOUND)
    if a.n != b.n:
        return False, None
    n = a.n
    if np.abs(np.sort(a.weight) - np.sort(b.weight)).max(initial=0.0) > tol:
        return False, None
    if np.abs(np.sort(a.dist, axis=None) - np.sort(b.dist, axis=None)).max(initial=0.0) > 2 * tol:
        return False, None

    assigned = [-1] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for j in range(n):
            if used[j] or abs(a.weight[i] - b.weight[j]) > tol:
                continue
            ok = all(abs(a.dist[i, k] - b.dist[j, assigned[k]]) <= tol for k in range(i))
            if ok:
                assigned[i] = j
                used[j] = True
                if extend(i + 1):
                    return True
                used[j] = False
                assigned[i] = -1
        return False

    if extend(0):
        return True, list(assigned)
    return False, None


# ---------------------------------------------------------------------------
# JSON round trip

def space_to_json(space: FiniteMMSpace) -> dict:
    out = {
        "labels": list(space.labels),
        "dist": [list(map(float, row)) for row in space.dist],
        "weight": [float(w) for w in space.weight],
    }
    if space.coords is not None:
        out["coords"] = [list(map(float, row)) for row in space.coords]
    return out


def space_from_json(obj: dict, cap: int = DEFAULT_POINT_CAP) -> FiniteMMSpace:
    """Load a space record; derives the matrix from coords when dist is absent."""
    if isinstance(obj, dict) and "dist" not in obj:
        if "coords" not in obj:
            raise MMLabError("space record has neither 'dist' nor 'coords'")
        coords = _numbers(obj["coords"], "space coords")
        if coords.ndim != 2:
            raise MMLabError(f"coords of shape {coords.shape} are not one row per point")
        metric = obj.get("metric", "euclidean")
        diff = coords[:, None, :] - coords[None, :, :]
        chord = np.sqrt((diff * diff).sum(axis=2))
        if metric == "euclidean":
            dist = chord
        elif metric == "geodesic_sphere":
            if "radius" not in obj:
                raise MMLabError("metric 'geodesic_sphere' needs a 'radius'")
            try:
                r = float(obj["radius"])
            except (TypeError, ValueError) as exc:
                raise MMLabError(f"space radius {obj['radius']!r} is not a number") from exc
            dist = 2.0 * r * np.arcsin(np.clip(chord / (2.0 * r), 0.0, 1.0))
        else:
            raise MMLabError(f"unknown derived metric {metric!r}")
        obj = dict(obj, dist=dist)
    return validate_space(obj, cap=cap)


def save_space(space: FiniteMMSpace, path) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_json(space), fh)


def read_json(path):
    """The JSON value in a file, or MMLabError naming a file it cannot read."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise MMLabError(f"cannot read {path}: {exc}") from exc


def load_space(path, cap: int = DEFAULT_POINT_CAP) -> FiniteMMSpace:
    return space_from_json(read_json(path), cap=cap)


def random_metric_space(n: int, seed) -> FiniteMMSpace:
    """Random Euclidean point cloud in R^3 with strictly positive random weights."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    w = 0.05 + rng.random(n)
    w = w / w.sum()
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    return validate_space({
        "labels": [str(i) for i in range(n)],
        "dist": d,
        "weight": w,
        "coords": pts,
    })

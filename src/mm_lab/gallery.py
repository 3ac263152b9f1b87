"""Constructors for the named spaces and counterexample machinery.

Uniform sphere samples (chordal or geodesic), two- and four-point spaces,
the interval-with-sphere glued space and its collapse map, and the bundles
that realize the transformed-metric collapse of non-isotone families.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    METRIC_TOL,
    FiniteMMSpace,
    _abs_max,
    _gram_distances,
    _sample_count,
    _slack_bound,
    validate_space,
)
from .errors import MMLabError, NotTriangleTriplet, WitnessInvalid
from .mpf import MPF, _golden_argmin, eval_mpf
from .product import ProductSpec, lp_product, metric_transform, product

DIMENSION_CAP = 256


@dataclass(frozen=True)
class SphereSample:
    dimension: int
    radius: float
    count: int
    metric: str
    seed: int
    space: FiniteMMSpace


def sample_sphere(n: int, r: float, N: int, metric: str = "chordal",
                  seed: int = 0) -> SphereSample:
    """Uniform i.i.d. sample of the n-sphere of radius r with 1/N weights.

    Gaussian normalization gives uniformity.  n >= 1 and N >= 2 must be
    integers, and r must lie in [2^-511, 2^510], the radii whose Gram form
    keeps full precision and stays finite:

    - its terms are squared norms near r^2, and below 2^-511 the square
      r^2 < 2^-1022 is subnormal and holds fewer than 53 bits (50 points of
      S^3 at r = 1e-160 had distances off by up to 3 % relatively);
    - every term is at most 4 r^2 up to rounding, and _gram_distances
      returns a matrix while 8 r^2, up to rounding, is finite: at r = 2^510
      it is 2^1023, while near 2^511 even 4 r^2 overflows.

    The matrix is built once, by _gram_distances.  A chordal sample is
    handed to validate_space as a FiniteMMSpace tagged "certified", with
    triangle_slack 3 eps from the error bound eps of the Gram form (its
    matrix is the Gram form itself, so it differs from it by 0) and
    coords_error eps, when that slack is within METRIC_TOL; otherwise, and
    for geodesic samples, whose distances are 2 r arcsin(chord / 2r) of the
    same chords, validate_space checks the record (a geodesic sample gets
    no coords_error).
    """
    n = _sample_count(n, "dimension")
    N = _sample_count(N, "N", least=2)
    if not 2.0**-511 <= r <= 2.0**510:
        raise MMLabError(f"sphere radius must lie in [2^-511, 2^510], got {r!r}")
    if metric not in ("chordal", "geodesic"):
        raise MMLabError(f"unknown sphere metric {metric!r}")
    g = np.random.default_rng(seed).normal(size=(N, n + 1))
    pts = r * (g / np.linalg.norm(g, axis=1, keepdims=True))
    dist, eps = _gram_distances(pts)
    labels = [f"s{i}" for i in range(N)]
    weight = np.full(N, 1.0 / N)
    record = {"labels": labels, "dist": dist, "weight": weight, "coords": pts}
    if metric == "geodesic":
        # in place, the float operations of 2 r arcsin(clip(chord / 2r, 0, 1))
        two_r = 2.0 * r
        dist /= two_r
        np.clip(dist, 0.0, 1.0, out=dist)
        np.arcsin(dist, out=dist)
        dist *= two_r
    elif (slack := _slack_bound(3.0 * eps, _abs_max(dist))) <= METRIC_TOL:
        record = FiniteMMSpace(labels=tuple(labels), dist=dist, weight=weight,
                               triangle_check="certified", coords=pts, triangle_slack=slack,
                               coords_error=eps)
    return SphereSample(dimension=n, radius=r, count=N, metric=metric,
                        seed=seed, space=validate_space(record))


def two_point(s: float, w0: float = 0.5) -> FiniteMMSpace:
    if s <= 0:
        raise MMLabError("two_point needs a positive distance")
    return validate_space({"labels": ["x0", "x1"],
                           "dist": [[0.0, s], [s, 0.0]],
                           "weight": [w0, 1.0 - w0]})


def four_point_Z(alpha: float, beta: float, gamma: float) -> FiniteMMSpace:
    """Four uniform points with the cross-distance pattern (alpha, beta, gamma).

    Opposite-corner pairs sit at gamma, edges at alpha and beta; this is a
    metric exactly when (alpha, beta, gamma) is a triangle triplet with
    positive entries.
    """
    trip = sorted((alpha, beta, gamma))
    if trip[0] <= 0 or trip[2] > trip[0] + trip[1] + 1e-12:
        raise NotTriangleTriplet(f"({alpha}, {beta}, {gamma})")
    labels = ["z00", "z10", "z01", "z11"]
    idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    d = np.zeros((4, 4))
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if a == b:
                continue
            if i != k and j == l:
                d[a, b] = alpha
            elif i == k and j != l:
                d[a, b] = beta
            else:
                d[a, b] = gamma
    return validate_space({"labels": labels, "dist": d, "weight": [0.25] * 4})


# ---------------------------------------------------------------------------
# interval glued to a shrinking-influence sphere

@dataclass(frozen=True)
class GluedSpaceBundle:
    space: FiniteMMSpace
    limit: FiniteMMSpace
    p_map: np.ndarray
    interval_count: int
    sphere_count: int


def example_5_1(n: int, N_sphere: int, seed: int = 0) -> GluedSpaceBundle:
    """Interval [0, pi] glued at pi to a geodesic unit n-sphere, half mass each.

    The sphere influence collapses as n grows: the bundle carries the
    discretized limit (interval atoms plus a point mass at 3*pi/2) and the
    collapse map sending every sphere sample there.
    """
    M = max(1, math.ceil(N_sphere / 4))
    mids = (np.arange(M) + 0.5) * (math.pi / M)
    sph = sample_sphere(n, 1.0, N_sphere, metric="geodesic", seed=seed)
    pole = np.zeros(n + 1)
    pole[0] = 1.0
    chord_to_pole = np.linalg.norm(sph.space.coords - pole[None, :], axis=1)
    geo_to_pole = 2.0 * np.arcsin(np.clip(chord_to_pole / 2.0, 0.0, 1.0))

    total = M + N_sphere
    d = np.zeros((total, total))
    d[:M, :M] = np.abs(mids[:, None] - mids[None, :])
    d[M:, M:] = sph.space.dist
    cross = (math.pi - mids)[:, None] + geo_to_pole[None, :]
    d[:M, M:] = cross
    d[M:, :M] = cross.T
    w = np.concatenate([np.full(M, 0.5 / M), np.full(N_sphere, 0.5 / N_sphere)])
    labels = [f"i{k}" for k in range(M)] + [f"s{k}" for k in range(N_sphere)]
    space = validate_space({"labels": labels, "dist": d, "weight": w})

    limit_pos = np.concatenate([mids, [1.5 * math.pi]])
    dl = np.abs(limit_pos[:, None] - limit_pos[None, :])
    wl = np.concatenate([np.full(M, 0.5 / M), [0.5]])
    limit = validate_space({"labels": [f"i{k}" for k in range(M)] + ["dirac"],
                            "dist": dl, "weight": wl,
                            "coords": limit_pos[:, None]})
    p_map = np.concatenate([np.arange(M), np.full(N_sphere, M)]).astype(int)
    return GluedSpaceBundle(space=space, limit=limit, p_map=p_map,
                            interval_count=M, sphere_count=N_sphere)


# ---------------------------------------------------------------------------
# collapse bundles for non-isotone families

@dataclass(frozen=True)
class CounterexampleBundle:
    """Everything needed to watch a transformed product collapse numerically."""

    s: float
    s_n: float
    eta: float
    n: int
    r_n: float
    k_n: int
    dim_capped: bool
    base_space: FiniteMMSpace
    product_space: FiniteMMSpace
    transformed: FiniteMMSpace
    limit_space: FiniteMMSpace
    p_map: np.ndarray
    sphere_coords: np.ndarray
    fiber_of: np.ndarray
    limit_distance: float
    second: dict = field(default_factory=dict)


def _min_on_interval(F: MPF, lo: float, hi: float) -> float:
    xs = np.linspace(lo, hi, 512)
    vals = eval_mpf(F, [xs])
    k = int(np.argmin(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(511, k + 1)]
    x = _golden_argmin(lambda u: eval_mpf(F, [u]), np.array([a]), np.array([b]))
    return float(min(vals[k], eval_mpf(F, [x])[0]))


def _min_on_rect(F: MPF, lo1, hi1, lo2, hi2) -> float:
    xs = np.linspace(lo1, hi1, 128)
    ys = np.linspace(lo2, hi2, 128)
    S, T = np.meshgrid(xs, ys, indexing="ij")
    vals = eval_mpf(F, [S, T])
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    x, y = np.array([xs[i]]), np.array([ys[j]])
    for _ in range(3):
        x = _golden_argmin(lambda u: eval_mpf(F, [u, y]),
                           np.array([max(lo1, x[0] - hx)]), np.array([min(hi1, x[0] + hx)]))
        y = _golden_argmin(lambda u: eval_mpf(F, [x, u]),
                           np.array([max(lo2, y[0] - hy)]), np.array([min(hi2, y[0] + hy)]))
    return float(min(vals[i, j], eval_mpf(F, [x, y])[0]))


def build_counterexample_1dim(F_family, s: float, s_n_rule, n: int, N: int,
                              seed: int = 0) -> CounterexampleBundle:
    """Two-point space times a sphere whose transformed metric collapses.

    The fiber sphere has radius sqrt(s_n^2 - s^2) / 2, so antipodal pairs in
    opposite fibers sit at exactly s_n while every cross-fiber distance lies
    in [s, s_n]; applying the family member then pinches the fibers to the
    minimum of the function on [s, s_n].
    """
    F_n = F_family(n) if callable(F_family) else F_family
    s_n = float(s_n_rule(n)) if callable(s_n_rule) else float(s_n_rule)
    if not s_n > s > 0:
        raise WitnessInvalid(f"need 0 < s < s_n, got s={s}, s_n={s_n}")
    f_s = float(eval_mpf(F_n, [np.array(s)]))
    f_sn = float(eval_mpf(F_n, [np.array(s_n)]))
    eta = f_s - f_sn
    if eta <= 0:
        raise WitnessInvalid(f"family value does not drop: F({s})={f_s} vs F({s_n})={f_sn}")

    r_n = math.sqrt(s_n * s_n - s * s) / 2.0
    k_raw = max(n, math.ceil(r_n ** 4))
    k_n = min(k_raw, DIMENSION_CAP)
    base = two_point(s)
    sph = sample_sphere(k_n, r_n, N, metric="chordal", seed=seed)
    prod = lp_product(base, sph.space, 2.0, check_samples=0)
    transformed = metric_transform(prod, F_n)
    d_y = _min_on_interval(F_n, s, s_n)
    limit = two_point(d_y)
    # product() is row-major in the first factor
    fiber_of = np.repeat(np.arange(2), N)
    p_map = fiber_of.copy()
    return CounterexampleBundle(
        s=s, s_n=s_n, eta=eta, n=n, r_n=r_n, k_n=k_n, dim_capped=k_n < k_raw,
        base_space=base, product_space=prod, transformed=transformed,
        limit_space=limit, p_map=p_map, sphere_coords=sph.space.coords,
        fiber_of=fiber_of, limit_distance=d_y)


def build_counterexample_2dim(F_family, s: float, t: float, s_n_rule, t_n_rule,
                              n: int, N: int, seed: int = 0) -> CounterexampleBundle:
    """Two sphere-fattened two-point factors whose F-product collapses to a
    four-point space with edge lengths (alpha, beta, gamma) minimized over
    the reachable distance rectangles."""
    F_n = F_family(n) if callable(F_family) else F_family
    s_n = float(s_n_rule(n)) if callable(s_n_rule) else float(s_n_rule)
    t_n = float(t_n_rule(n)) if callable(t_n_rule) else float(t_n_rule)
    if not (s_n > s >= 0 and t_n > t >= 0):
        raise WitnessInvalid("need s < s_n and t < t_n")
    f_st = float(eval_mpf(F_n, [np.array(s), np.array(t)]))
    f_nn = float(eval_mpf(F_n, [np.array(s_n), np.array(t_n)]))
    eta = f_st - f_nn
    if eta <= 0:
        raise WitnessInvalid(
            f"family value does not drop: F({s},{t})={f_st} vs F({s_n},{t_n})={f_nn}")

    r_n = math.sqrt(s_n * s_n - s * s) / 2.0
    rho_n = math.sqrt(t_n * t_n - t * t) / 2.0
    k_n = min(2 * max(n, math.ceil(r_n ** 4)) + 1, DIMENSION_CAP)
    l_n = min(2 * max(n, math.ceil(rho_n ** 4)) + 1, DIMENSION_CAP)

    alpha = _min_on_rect(F_n, s, s_n, 0.0, 2 * rho_n)
    beta = _min_on_rect(F_n, 0.0, 2 * r_n, t, t_n)
    gamma = _min_on_rect(F_n, s, s_n, t, t_n)
    limit = four_point_Z(alpha, beta, gamma)

    sphX = sample_sphere(k_n, r_n, N, metric="chordal", seed=seed)
    sphY = sample_sphere(l_n, rho_n, N, metric="chordal", seed=seed + 1)
    Xn = lp_product(two_point(max(s, 1e-9)), sphX.space, 2.0, check_samples=0)
    Yn = lp_product(two_point(max(t, 1e-9)), sphY.space, 2.0, check_samples=0)
    prod = product(ProductSpec((Xn, Yn), F_n, check_samples=0, cap=Xn.n * Yn.n))
    # product() is row-major in the first factor; each factor is row-major
    # in its own two-point part, so fibers decode arithmetically
    fiber_x = np.repeat(np.arange(2), N)
    xi = fiber_x[np.repeat(np.arange(2 * N), 2 * N)]
    yj = fiber_x[np.tile(np.arange(2 * N), 2 * N)]
    p_map = xi + 2 * yj  # target order: z00, z10, z01, z11
    return CounterexampleBundle(
        s=s, s_n=s_n, eta=eta, n=n, r_n=r_n, k_n=k_n,
        dim_capped=k_n >= DIMENSION_CAP or l_n >= DIMENSION_CAP,
        base_space=two_point(max(s, 1e-9)),
        product_space=prod, transformed=prod, limit_space=limit,
        p_map=p_map, sphere_coords=sphX.space.coords, fiber_of=p_map,
        limit_distance=gamma,
        second={"t": t, "t_n": t_n, "rho_n": rho_n, "l_n": l_n,
                "alpha": alpha, "beta": beta, "gamma": gamma})

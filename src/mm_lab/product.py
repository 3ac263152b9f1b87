"""Product spaces generated by metric-preserving functions, and metric transforms."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POINT_CAP,
    FiniteMMSpace,
    LipFunction,
    _gamma,
    _sample_count,
    _slack_bound,
    as_lip,
    validate_space,
)
from .errors import (
    ArityMismatch,
    CapExceeded,
    MetricViolation,
    MMLabError,
    NotLipschitz,
    TriangleViolation,
)
from .invariants import _levy_mean_of_values
from .mpf import _INF, MPF, check_triangle_triplets, eval_mpf, lp

LABEL_SEP = "⊗"  # joins factor labels in product points


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple
    F: MPF
    cap: int = DEFAULT_POINT_CAP
    check_samples: int = 2000
    seed: int = 0


def product_index_grid(sizes) -> np.ndarray:
    """Row-major tuple indices for the Cartesian product of the given sizes."""
    return np.array(list(itertools.product(*[range(s) for s in sizes])), dtype=int)


def product(spec: ProductSpec) -> FiniteMMSpace:
    """Materialize (X_1 x ... x X_N, F of factor distances, product weights).

    The descriptor is pre-screened by the triplet falsifier at the configured
    sample budget; the assembled matrix is then re-validated.  An lp product
    with p in {1, 2, inf} of factors with proved slacks is certified by
    _lp_slack; any other is checked, every triplet up to 512 points and a
    fixed sample of triplets beyond.  A triangle failure is surfaced as
    MetricViolation with a decoded witness rather than repaired, since
    product construction is the strongest available falsifier of metric
    preservation.
    """
    factors = list(spec.factors)
    F = spec.F
    if F.arity != len(factors):
        raise ArityMismatch(f"descriptor arity {F.arity} vs {len(factors)} factors")
    total = 1
    for X in factors:
        total *= X.n
    if total > spec.cap:
        raise CapExceeded(total, spec.cap)

    check_samples = _sample_count(spec.check_samples, "check_samples", least=0)
    if check_samples:
        horizon = max(X.diam for X in factors) + 1.0
        verdict = check_triangle_triplets(F, samples=check_samples,
                                          horizon=horizon, seed=spec.seed)
        if not verdict.passed:
            raise MetricViolation(verdict.counterexample,
                                  f"descriptor failed pre-screening: {verdict.counterexample}")

    grid = product_index_grid([X.n for X in factors])
    args = [X.dist[np.ix_(grid[:, k], grid[:, k])] for k, X in enumerate(factors)]
    dist = eval_mpf(F, args)

    weight = np.ones(total)
    for k, X in enumerate(factors):
        weight = weight * X.weight[grid[:, k]]
    labels = [LABEL_SEP.join(factors[k].labels[i] for k, i in enumerate(row))
              for row in grid]

    candidate = {"labels": labels, "dist": dist, "weight": weight}
    slack = _lp_slack(F, factors, dist)
    if slack is not None:
        # validate_space keeps the proved slack of a FiniteMMSpace
        candidate = FiniteMMSpace(tuple(labels), dist, weight, "certified", triangle_slack=slack)
    try:
        return validate_space(candidate, cap=spec.cap)
    except TriangleViolation as tv:
        wit = {"points": (labels[tv.i], labels[tv.j], labels[tv.k]), "gap": tv.gap}
        raise MetricViolation(wit, f"product metric breaks the triangle inequality: {wit}") from tv


def _lp_slack(F: MPF, factors, dist: np.ndarray) -> float | None:
    """A proved triangle_slack of the lp product ``dist = F(factor distances)``, or None.

    It needs p in {1, 2, inf}, for which numpy evaluates F with correctly
    rounded square, +, sqrt and max (``x ** 2.0`` and ``x ** 0.5`` are
    np.square and np.sqrt, ``x ** 1.0`` is exact), and factors with a proved
    slack, whose canonical matrices have no negative entry.  With s the
    largest factor slack, the factor distances satisfy d(x, z) <= d(x, y) +
    d(y, z) + s 1 coordinatewise on the nonnegative orthant, where the k-ary
    lp norm is isotone and subadditive, so in exact arithmetic
    F(d(x, z)) <= F(d(x, y)) + F(d(y, z)) + F(s 1) = ... + k^(1/p) s.
    Each computed entry takes at most k + 1 roundings, a relative
    gamma_{k+1} of F, plus sqrt(k) 2^-537 where squares underflow; three
    entries of a slack add that thrice.
    """
    p = F.params.get("p") if F.kind == "lp" else None
    if p not in (1.0, 2.0, _INF) or any(X.triangle_slack is None for X in factors):
        return None
    k = len(factors)
    s = max(X.triangle_slack for X in factors)
    root = 1.0 if p == _INF else k ** (1.0 / p)
    top = float(dist.max(initial=0.0))
    g = _gamma(k + 1)
    rounding = 3.0 * (g * top / (1.0 - g) + math.sqrt(k) * 2.0**-537)
    return _slack_bound(root * s + rounding, top)


def lp_product(x: FiniteMMSpace, y: FiniteMMSpace, p: float = 2.0, **kw) -> FiniteMMSpace:
    return product(ProductSpec(factors=(x, y), F=lp(p), **kw))


def metric_transform(space: FiniteMMSpace, F: MPF) -> FiniteMMSpace:
    """Replace the metric by F(d); points and weights are untouched."""
    if F.arity != 1:
        raise ArityMismatch("metric_transform needs a unary descriptor")
    dist = eval_mpf(F, [space.dist])
    np.fill_diagonal(dist, 0.0)
    try:
        return validate_space({"labels": list(space.labels), "dist": dist,
                               "weight": space.weight, "coords": space.coords})
    except TriangleViolation as tv:
        wit = {"points": (space.labels[tv.i], space.labels[tv.j], space.labels[tv.k]),
               "gap": tv.gap}
        raise MetricViolation(wit, f"transformed metric is invalid: {wit}") from tv


def levy_projection(f: LipFunction, x: FiniteMMSpace, y: FiniteMMSpace,
                    factor: str = "first", p: float = 2.0) -> LipFunction:
    """Collapse a 1-Lipschitz observable on an l_p product onto one factor.

    The projection takes the fiberwise median midpoint, g(x) = lm(f(x, .)),
    which is again 1-Lipschitz on the factor.  Point order is row-major in
    the first factor, matching product().
    """
    n, m = x.n, y.n
    if f.values.shape != (n * m,):
        raise NotLipschitz(f"observable has {f.values.shape} values, product has {n * m} points")
    dprod = eval_mpf(lp(p), [np.kron(x.dist, np.ones((m, m))),
                             np.kron(np.ones((n, n)), y.dist)])
    gap = np.abs(f.values[:, None] - f.values[None, :])
    if (gap > dprod + 1e-9).any():
        raise NotLipschitz("certificate fails on the supplied l_p product")
    grid = f.values.reshape(n, m)
    if factor == "first":
        vals = [_levy_mean_of_values(grid[i], y.weight).mean for i in range(n)]
        host = x
    elif factor == "second":
        vals = [_levy_mean_of_values(grid[:, j], x.weight).mean for j in range(m)]
        host = y
    else:
        raise MMLabError("factor must be 'first' or 'second'")
    return as_lip(host, np.array(vals), lip_const=1.0)

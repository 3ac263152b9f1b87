"""Triangle inequality certified by construction: Euclidean coords and lp products.

Every certified space is checked against the exhaustive sweep, which finds
its witness and largest slack without the certificate, and the rounding
bounds against exact rational arithmetic.
"""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mm_lab import core, gallery, invariants as inv, mpf
from mm_lab.errors import TriangleViolation
from mm_lab.product import ProductSpec, lp_product, metric_transform, product

from oracles import (
    gram_bracket_misses,
    max_triangle_slack,
    max_triangle_slack_exact,
    triangle_check_loop,
)

TOL = core.METRIC_TOL
INF = float("inf")


def _euclid(x):
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _record(x, d=None):
    n = len(x)
    return {"dist": _euclid(x) if d is None else d, "weight": np.full(n, 1.0 / n), "coords": x}


def _cloud(n, dims, seed, scale=1.0):
    return core.validate_space(_record(np.random.default_rng(seed).normal(size=(n, dims)) * scale))


def _rms(n, seed):
    return core.random_metric_space(n, seed=seed)


CONSTRUCTIONS = {
    "cloud_R1_40": lambda: _cloud(40, 1, 1),
    "cloud_R3_512": lambda: _rms(512, 5),
    "cloud_R8_200_tiny": lambda: _cloud(200, 8, 2, 1e-3),
    "cloud_R32_300_large": lambda: _cloud(300, 32, 3, 1e3),
    "sphere_S2_512": lambda: gallery.sample_sphere(2, 1.0, 512, seed=7).space,
    "sphere_S50_512": lambda: gallery.sample_sphere(50, 1.7, 512, seed=7).space,
}
for _p in (1.0, 2.0, INF):
    CONSTRUCTIONS.update({
        # factors at most _EUCLID_CERT_N points are swept, larger ones certified
        f"l{_p:g}_swept_factors": lambda p=_p: lp_product(_rms(5, 1), _rms(6, 2), p),
        f"l{_p:g}_certified_factors": lambda p=_p: lp_product(_rms(16, 3), _rms(20, 4), p),
        f"l{_p:g}_three_factors": lambda p=_p: product(
            ProductSpec((_rms(4, 5), _rms(8, 6), _rms(9, 7)), mpf.lp(p, 3))),
        f"l{_p:g}_two_point_sphere": lambda p=_p: lp_product(
            gallery.two_point(2.0), gallery.sample_sphere(8, 1.2, 256, seed=3).space, p),
    })


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_certified_construction_passes_the_sweep_within_its_slack(name):
    X = CONSTRUCTIONS[name]()
    assert X.n <= 512
    assert X.triangle_check == "certified" and 0.0 < X.triangle_slack <= TOL
    bad, swept = core._triangle_check(X.dist, TOL)
    assert bad is None and swept <= TOL
    assert max_triangle_slack(X.dist) <= X.triangle_slack


@st.composite
def small_certified(draw):
    """A cloud just above the crossover, or an lp product of small factors."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n = draw(st.integers(core._EUCLID_CERT_N + 1, 11))
        x = rng.normal(size=(n, draw(st.integers(1, 5)))) * 10.0 ** draw(st.integers(-4, 2))
        return core.validate_space(_record(x))
    a, b = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    p = draw(st.sampled_from([1.0, 2.0, INF]))
    return lp_product(_rms(a, seed), _rms(b, seed + 1), p)


@settings(max_examples=30)
@given(small_certified())
def test_certified_slack_bounds_the_exact_slack(X):
    assert X.triangle_check == "certified"
    assert max_triangle_slack_exact(X.dist) <= Fraction(X.triangle_slack)
    assert max_triangle_slack(X.dist) <= X.triangle_slack


@st.composite
def small_metrics(draw):
    """Uniform [1, 2], line and 3 x 3 grid L1 metrics on 1-14 points, scaled."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "line", "grid"]))
    if kind == "uniform":
        d = np.triu(1.0 + rng.random((n, n)), 1)
        d = d + d.T
    elif kind == "line":
        x = np.sort(rng.random(n))
        d = np.abs(x[:, None] - x)
    else:
        x = rng.integers(0, 3, (n, 2)).astype(float)
        d = np.abs(x[:, None] - x).sum(axis=2)
    return d * 10.0 ** draw(st.integers(-3, 7))


@settings(max_examples=60)
@given(small_metrics())
def test_swept_slack_bounds_every_slack(d):
    # up to _TRIANGLE_SCREEN_N points every pivot is swept, beyond it the
    # Chebyshev screen bounds the pivots it rules out
    bad, slack = core._triangle_check(d, TOL)
    assert bad is None
    assert max_triangle_slack(d) <= slack
    assert max_triangle_slack_exact(d) <= Fraction(slack)


@settings(max_examples=40)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(-6, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 1e-9, 1e-4]))
def test_gram_error_bound_holds_in_rationals(n, dims, scale, seed, near):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dims)) * 10.0**scale
    if near:
        x[1] = x[0] + near * 10.0**scale * rng.normal(size=dims)
    c, eps = core._gram_distances(x)
    if eps == INF:
        # the Gram form rounds a pair 1e-9 apart to 0, like a duplicate
        assert near == 1e-9 and (c[~np.eye(n, dtype=bool)] == 0.0).any()
        return
    assert (np.diagonal(c) == 0.0).all()
    assert gram_bracket_misses(x, c, eps) == []


@settings(max_examples=30)
@given(st.integers(core._EUCLID_CERT_N + 1, 40), st.integers(0, 2**32 - 1),
       st.floats(0.34, 4.0), st.booleans())
def test_distances_moved_past_the_bound_get_the_sweep_verdict(n, seed, size, stretch):
    # an entry moved by more than METRIC_TOL / 3 is past any certificate, so
    # the space gets exactly the sweep's verdict and witness
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    d = _euclid(x)
    i, j, k = rng.choice(n, 3, replace=False)
    moved = d[i, j] + d[j, k] + size * TOL if stretch else d[i, k] + size * TOL
    d[i, k] = d[k, i] = moved
    want = triangle_check_loop(d, TOL)
    if want is None:
        X = core.validate_space(_record(x, d))
        assert X.triangle_check == "exhaustive"
        assert X.triangle_slack == core._triangle_check(d, TOL)[1]
    else:
        with pytest.raises(TriangleViolation) as info:
            core.validate_space(_record(x, d))
        assert (info.value.i, info.value.j, info.value.k, info.value.gap) == want


def _geodesic(n):
    return gallery.sample_sphere(3, 1.0, n, metric="geodesic", seed=1).space


def _duplicates():
    x = np.random.default_rng(4).normal(size=(20, 3))
    x[7] = x[2]
    return core.validate_space(_record(x))


def _scaled():
    # the distances are finite, the squared norms of the coords are not
    x = np.random.default_rng(5).normal(size=(20, 3))
    return core.validate_space(_record(x * 1e160, _euclid(x) * 1e160))


@pytest.mark.parametrize("make, plain", [
    (lambda: _geodesic(100), "exhaustive"),
    (lambda: _geodesic(600), "sampled"),
    (lambda: metric_transform(_rms(50, 3), mpf.power_sum(0.5, 1)), "exhaustive"),
    (_duplicates, "exhaustive"),
    (_scaled, "exhaustive"),
], ids=["geodesic", "geodesic_sampled", "transform", "duplicates", "coords_1e160"])
def test_euclidean_certificate_falls_back(make, plain):
    X = make()
    assert X.coords is not None
    assert X.triangle_check == plain
    assert X.triangle_slack == core._triangle_check(X.dist, TOL)[1]


def test_probe_rejects_non_euclidean_coords_before_the_gram_matrix():
    sph, X = _geodesic(100), _rms(50, 3)
    with mock.patch.object(core, "_gram_distances", side_effect=AssertionError):
        assert core.validate_space(sph).triangle_check == "exhaustive"
        assert metric_transform(X, mpf.power_sum(0.5, 1)).triangle_check == "exhaustive"


def test_products_without_a_proof_are_swept():
    X, Y = _rms(4, 1), gallery.two_point(1.0)
    # p outside {1, 2, inf}, and a non-norm descriptor
    assert lp_product(X, Y, 3.0).triangle_check == "exhaustive"
    assert product(ProductSpec((X, Y), mpf.builtin("fexp"))).triangle_check == "exhaustive"
    assert lp_product(X, Y, 2.0).triangle_check == "certified"


def test_collapse_bundle_does_not_load_scipy_spatial():
    src = str(Path(core.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from mm_lab import gallery, mpf\n"
            "F = mpf.builtin('h1')\n"
            "b = gallery.build_counterexample_1dim(lambda k: F, 2.0, 3.0, n=50, N=512)\n"
            "print(b.product_space.triangle_check, b.transformed.triangle_check)\n"
            "print('scipy.spatial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.splitlines() == ["certified sampled", "False"], run.stdout


def test_heuristic_od_on_a_sphere_draws_no_triplet_sample():
    core._sampled_triplets.cache_clear()
    sph = gallery.sample_sphere(8, 1.0, 1000, seed=7)
    assert sph.space.triangle_check == "certified"
    inv.observable_diameter(sph.space, 0.1, mode="bounds", budget=2000, seed=7)
    assert core._sampled_triplets.cache_info().misses == 0


def test_chordal_sample_carries_the_slack_of_its_own_gram_matrix():
    # the matrix is the Gram form itself, so the certificate's delta is 0
    for n, r in ((2, 1.0), (8, 0.5), (50, 1.7)):
        X = gallery.sample_sphere(n, r, 512, seed=7).space
        assert X.triangle_check == "certified"
        slack, tau = core._euclidean_slack(X.dist, X.coords)
        assert X.triangle_slack == slack
        # the sample stores eps itself, the certificate eps + 0 raised
        assert X.coords_error == core._gram_distances(X.coords)[1] and tau == core._round_up(X.coords_error)
        assert max_triangle_slack(X.dist) <= X.triangle_slack


def test_coords_error_bounds_the_exact_euclidean_distances():
    x = np.random.default_rng(2).normal(size=(30, 4))
    nudged = _euclid(x)
    nudged[3, 7] = nudged[7, 3] = nudged[3, 7] + 1e-12
    certified = [
        _rms(40, 1),
        gallery.sample_sphere(2, 1.0, 40, seed=3).space,
        gallery.sample_sphere(7, 2.5, 30, seed=4).space,
        core.validate_space(_record(x, nudged)),
    ]
    for X in certified:
        tau = X.coords_error
        assert X.triangle_check == "certified" and 0.0 < tau <= TOL
        # |d[i, j] - |x_i - x_j|| <= tau for every pair, in rationals
        assert gram_bracket_misses(X.coords, X.dist, tau) == []
    assert certified[-1].coords_error >= 1e-12
    # a new measure keeps the bound, and so does dropping points of weight 0
    X = certified[0]
    w = np.arange(1.0, 41.0) / 820.0
    assert X.reweighted(w).coords_error == X.coords_error
    w = w.copy()
    w[::3] = 0.0
    sub = X.reweighted(w / w.sum())
    assert sub.n == 26 and sub.coords_error == X.coords_error
    assert gram_bracket_misses(sub.coords, sub.dist, sub.coords_error) == []
    assert core.validate_space(sub).coords_error == X.coords_error


def test_spaces_without_a_euclidean_certificate_have_no_coords_error():
    X = _rms(40, 1)
    assert metric_transform(X, mpf.power_sum(0.5, 1)).coords_error is None
    assert gallery.sample_sphere(3, 1.0, 40, metric="geodesic", seed=1).space.coords_error is None
    assert lp_product(X, gallery.two_point(1.0), 2.0).coords_error is None
    assert _rms(6, 1).coords_error is None
    assert core.validate_space({"dist": X.dist, "weight": X.weight}).coords_error is None


def test_validated_space_keeps_its_proof():
    X = lp_product(_rms(4, 1), gallery.two_point(1.0), 2.0)
    again = core.validate_space(X)
    assert (again.triangle_check, again.triangle_slack) == ("certified", X.triangle_slack)
    assert core.validate_space({"dist": X.dist, "weight": X.weight}).triangle_check == "exhaustive"
    # a new measure on the carrier keeps the proof, also above 512 points
    big = lp_product(gallery.two_point(1.0), gallery.sample_sphere(3, 1.0, 300, seed=1).space, 2.0)
    w = np.arange(1.0, big.n + 1) / (big.n * (big.n + 1) / 2)
    again = big.reweighted(w)
    assert (again.triangle_check, again.triangle_slack) == ("certified", big.triangle_slack)
    # a space that claims no slack is checked
    d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
    with pytest.raises(TriangleViolation):
        core.validate_space(core.FiniteMMSpace(("a", "b", "c"), d, np.full(3, 1 / 3), "exhaustive"))

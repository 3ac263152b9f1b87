import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mm_lab import core, gallery, invariants as inv, mpf
from mm_lab.product import ProductSpec, lp_product, metric_transform, product
from mm_lab.errors import (
    HostMismatch,
    MMLabError,
    NegativeWeight,
    NotLipschitz,
    NotNormalized,
    TooLarge,
    TriangleViolation,
)

from oracles import (
    candidate_pool_loop,
    exceeds_lip1_broadcast,
    projection_window_floor,
    triangle_check_loop,
    triangle_check_sampled_loop,
)
from strategies import weighted_deviations


def test_validate_minimal_two_point():
    s = core.validate_space({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
                             "weight": [0.5, 0.5]})
    assert s.n == 2 and s.diam == 1.0


def test_validate_triangle_violation():
    with pytest.raises(TriangleViolation):
        core.validate_space({"labels": list("abc"),
                             "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                             "weight": [1 / 3] * 3})


def test_validate_drops_zero_weight_points():
    # a weight at ZERO_MASS is dropped, one ulp above it is kept
    for w, n in ((0.0, 2), (core.ZERO_MASS, 2), (np.nextafter(core.ZERO_MASS, 1.0), 3)):
        s = core.validate_space({"labels": list("abc"),
                                 "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                 "weight": [0.5, 0.5, w]})
        assert s.n == n and s.labels == ("a", "b", "c")[:n]


def test_validate_weight_errors():
    with pytest.raises(NegativeWeight):
        core.validate_space({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
                             "weight": [1.5, -0.5]})
    with pytest.raises(NotNormalized):
        core.validate_space({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
                             "weight": [0.6, 0.6]})


@settings(max_examples=300)
@given(weighted_deviations())
def test_tail_mass_matches_masked_sums(case):
    w, dev = case
    thresholds = np.concatenate([[0.0], dev, dev - 5e-16, dev - 1e-15])
    want = [w[dev > t + 1e-15].sum() for t in thresholds]
    np.testing.assert_allclose(core.tail_mass(dev, w, thresholds), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dist, weight", [
    ([[0, np.nan], [np.nan, 0]], [0.5, 0.5]),
    ([[0, np.inf], [np.inf, 0]], [0.5, 0.5]),
    ([[np.nan, 1], [1, 0]], [0.5, 0.5]),
    ([[0, 1], [1, 0]], [np.nan, 1.0]),
    ([[0, 1], [1, 0]], [np.inf, 1.0]),
])
def test_validate_rejects_non_finite(dist, weight):
    with pytest.raises(MMLabError, match="non-finite"):
        core.validate_space({"dist": dist, "weight": weight})


@settings(max_examples=100)
@given(st.integers(3, 24), st.integers(0, 3), st.integers(0, 10_000))
def test_triangle_sweep_matches_loop(n, planted, seed):
    # entries in [1, 2] always satisfy the triangle inequality and one entry
    # planted above 4 breaks it; several planted entries may or may not
    rng = np.random.default_rng(seed)
    d = np.triu(1.0 + rng.random((n, n)), 1)
    for _ in range(planted):
        i, k = sorted(rng.choice(n, 2, replace=False))
        d[i, k] = 4.5 + rng.random()
    d = d + d.T
    got = core._triangle_check(d, core.METRIC_TOL)[0]
    assert got == triangle_check_loop(d, core.METRIC_TOL)
    if planted <= 1:
        assert (got is None) == (planted == 0)


@st.composite
def triangle_matrices(draw, sizes):
    """Symmetric matrices with planted violations within a few ulps of the tolerance.

    The base is a metric with entries in [1, 2], a line metric (every
    collinear triplet tight), or an L1 metric on a 3 x 3 grid (ties and zero
    off-diagonal distances), scaled by 1e-3 to 1e7 so that rounding reaches
    the tolerance.  Each planted d[i, k] is d[i, j] + d[j, k] + tol moved by
    -3 to 3 ulps, so the computed slack lands just above or just below tol.
    """
    n = draw(sizes)
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
    d *= 10.0 ** draw(st.integers(-3, 7))
    for _ in range(draw(st.integers(0, 3)) if n >= 3 else 0):
        i, j, k = rng.choice(n, 3, replace=False)
        v = d[i, j] + d[j, k] + core.METRIC_TOL
        d[i, k] = d[k, i] = v + draw(st.integers(-3, 3)) * np.spacing(v)
    return d


@settings(max_examples=300)
@given(triangle_matrices(st.integers(1, 40)))
def test_triangle_screen_matches_loop(d):
    assert core._triangle_check(d, core.METRIC_TOL)[0] == triangle_check_loop(d, core.METRIC_TOL)


@settings(max_examples=6)
@given(triangle_matrices(st.sampled_from([511, 512, 513])))
def test_triangle_check_matches_loops_at_the_regime_boundary(d):
    oracle = triangle_check_loop if d.shape[0] <= 512 else triangle_check_sampled_loop
    assert core._triangle_check(d, core.METRIC_TOL)[0] == oracle(d, core.METRIC_TOL)


def test_triangle_screen_margin_covers_rounding_of_a_near_tie():
    # fl(a + b) rounds down by half an ulp of 2^23 (1.86e-9), so the slack
    # reads one ulp, above tol, while the exact slack, 9.3e-10, is below it and
    # no Chebyshev row distance exceeds its entry by more than tol
    a, b = 1.0 + 2.0**-30, 2.0**23
    c = np.nextafter(a + b, np.inf)
    three = np.array([[0.0, a, c], [a, 0.0, b], [c, b, 0.0]])
    idx = [0, 1, 2] + [0] * 5  # copies of point 0 take it past the plain-sweep size
    d = three[np.ix_(idx, idx)]
    want = triangle_check_loop(d, core.METRIC_TOL)
    assert want == (0, 1, 2, c - (a + b))
    assert core._triangle_check(d, core.METRIC_TOL)[0] == want


def test_triangle_sweep_visits_only_flagged_pivots():
    # a path metric is tight on every collinear triplet; lengthening the
    # distance between two points two apart flags only the pairs among them
    # and the point between
    n, a = 200, 57
    d = np.abs(np.arange(n, dtype=float)[:, None] - np.arange(n))
    assert list(core._triangle_pivots(d, core.METRIC_TOL)[0]) == []
    d[a, a + 2] = d[a + 2, a] = 2.5
    assert list(core._triangle_pivots(d, core.METRIC_TOL)[0]) == [a, a + 1, a + 2]
    got = core._triangle_check(d, core.METRIC_TOL)[0]
    assert got == triangle_check_loop(d, core.METRIC_TOL) == (a, a + 1, a + 2, 0.5)


@pytest.mark.parametrize("n, case", [(513, "clean"), (700, "planted"), (1100, "planted"),
                                     (1000, "below_tol"), (1000, "above_tol"),
                                     (1100, "above_tol")])
def test_sampled_triangle_check_matches_loop(n, case):
    rng = np.random.default_rng(n)
    if case == "clean":
        x = rng.normal(size=(n, 3))
        d = np.sqrt(((x[:, None] - x) ** 2).sum(axis=2))
    elif case == "planted":
        d = np.triu(1.0 + rng.random((n, n)) + 1.5 * (rng.random((n, n)) < 0.01), 1)
        d = d + d.T
    else:
        # a line metric scaled by 2^24/3 or 2^25/3: rounding leaves collinear
        # triplets a slack of at most 9.3e-10 or 1.86e-9, just below or just
        # above tol, and the largest is tied in every chunk of the sample
        x = np.sort(rng.random(n))
        d = np.abs(x[:, None] - x) * (2.0**24 if case == "below_tol" else 2.0**25) / 3
    got = core._triangle_check(d, core.METRIC_TOL)[0]
    assert got == triangle_check_sampled_loop(d, core.METRIC_TOL)
    assert (got is None) == (case in ("clean", "below_tol"))


def test_sampled_triangle_witness_is_first_in_draw_order():
    # on the all-ones metric every slack is at most 0; stretching two disjoint
    # pairs to 3 gives slack 1 to every sampled triplet (a, j, b) with {a, b}
    # one of them, and the pair met first in draw order has the larger rows
    n = 1000
    rng = np.random.default_rng(0)
    i, j, k = (rng.integers(0, n, 2_000_000) for _ in range(3))
    distinct = (i != j) & (j != k) & (i != k)
    p = int(np.flatnonzero(distinct & (i >= 900) & (k >= 900))[0])
    q = int(np.flatnonzero(distinct & (i < 100) & (k < 100) & (np.arange(len(i)) > p))[0])
    d = np.ones((n, n)) - np.eye(n)
    for t in (p, q):
        d[i[t], k[t]] = d[k[t], i[t]] = 3.0
    pairs = {frozenset((i[t], k[t])) for t in (p, q)}
    tied = [t for t in np.flatnonzero(distinct & ((i < 100) | (i >= 900)))
            if frozenset((i[t], k[t])) in pairs and j[t] not in (i[t], k[t])]
    row_first = min(tied, key=lambda t: (i[t], t))
    want = triangle_check_sampled_loop(d, core.METRIC_TOL)
    assert want == (int(i[tied[0]]), int(j[tied[0]]), int(k[tied[0]]), 1.0)
    assert want[:3] != (i[row_first], j[row_first], k[row_first])
    assert core._triangle_check(d, core.METRIC_TOL)[0] == want


def test_sampled_triplets_build_peak_and_row_order():
    core._sampled_triplets.cache_clear()
    tracemalloc.start()
    try:
        ik, ij, jk = core._sampled_triplets(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6
    assert (np.diff(ik // 1000) >= 0).all() and (ik // 1000 == ij // 1000).all()
    assert (ij % 1000 == jk // 1000).all() and (ik % 1000 == jk % 1000).all()


def _without_coords(X):
    """The distances and weights of X as a record without coords."""
    return {"dist": X.dist, "weight": X.weight}


def test_sampled_triplets_drawn_once_per_size():
    # random clouds carry coords and are certified; their distances alone are sampled
    core._sampled_triplets.cache_clear()
    for seed in (1, 2):
        X = core.random_metric_space(1000, seed=seed)
        assert X.triangle_check == "certified"
        assert core.validate_space(_without_coords(X)).triangle_check == "sampled"
    info = core._sampled_triplets.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_triangle_check_mode_recorded():
    n0 = core._EUCLID_CERT_N
    for n, plain in ((n0, "exhaustive"), (n0 + 1, "exhaustive"), (512, "exhaustive"),
                     (513, "sampled")):
        X = core.random_metric_space(n, seed=3)
        Y = core.validate_space(_without_coords(X))
        assert Y.triangle_check == plain
        assert (Y.triangle_slack is None) == (plain == "sampled")
        assert X.triangle_check == ("exhaustive" if n <= n0 else "certified")
        assert 0.0 < X.triangle_slack <= core.METRIC_TOL


@pytest.mark.parametrize("coords", [np.zeros((7, 2)), np.zeros(5), np.zeros((5, 2, 1)),
                                    np.full((5, 2), np.nan), np.full((5, 2), np.inf)],
                         ids=["rows", "1d", "3d", "nan", "inf"])
def test_validate_rejects_malformed_coords(coords):
    X = core.random_metric_space(5, seed=0)
    with pytest.raises(MMLabError, match="coords"):
        core.validate_space(dict(_without_coords(X), coords=coords))


def _asymmetric_in_a_late_block():
    d = np.array(core.random_metric_space(300, seed=4).dist)
    d[260, 10] += 1e-6  # above METRIC_TOL, in the third block of rows
    return d


@pytest.mark.parametrize("record, match", [
    ({"dist": [[0.0, 1.0]], "weight": [1.0]}, "not square"),
    ({"dist": [0.0, 1.0], "weight": [1.0]}, "not square"),
    ({"dist": [[0.0, 1.0], [1.0, 0.0]], "weight": [1.0]}, "sizes disagree"),
    ({"dist": [[0.0, 1.0], [1.0, 0.0]], "weight": [0.5, 0.5], "labels": ["a"]},
     "sizes disagree"),
    ({"dist": [[0.0, 1.0], [1.0, 1e-6]], "weight": [0.5, 0.5]}, "nonzero diagonal"),
    ({"dist": [[0.0, 1.0], [1.5, 0.0]], "weight": [0.5, 0.5]}, "not symmetric"),
    ({"dist": _asymmetric_in_a_late_block(), "weight": np.full(300, 1 / 300)}, "not symmetric"),
], ids=["one_row", "1d", "short_weight", "short_labels", "diagonal", "asymmetric",
        "asymmetric_late_block"])
def test_validate_rejects_malformed_matrices(record, match):
    with pytest.raises(MMLabError, match=match):
        core.validate_space(record)


def test_validation_copies_the_callers_weights_and_values():
    X = core.random_metric_space(10, seed=3)
    d, w, v = np.array(X.dist), np.full(10, 0.1), np.array(X.dist[0])
    spaces = [X.reweighted(w), core.validate_space({"dist": d, "weight": w})]
    f = core.as_lip(X, v, lip_const=1.0)
    w[::3] = 0.0
    v[0] = 5.0
    for Y in spaces:
        assert (Y.weight == 0.1).all()
        assert not (Y.dist.flags.writeable or Y.weight.flags.writeable)
    assert f.values[0] == X.dist[0, 0] and not f.values.flags.writeable
    # dist and coords are frozen in place, not copied: 8 MB at 1000 points
    assert np.shares_memory(spaces[1].dist, d) and not d.flags.writeable
    assert spaces[0].coords is X.coords and not X.coords.flags.writeable


def _assert_canonical(dist):
    """dist equals its transpose bit for bit, with a +0.0 diagonal and no sign bit set."""
    assert dist.tobytes() == dist.T.copy().tobytes()
    assert not np.signbit(dist).any()
    assert (np.diagonal(dist) == 0.0).all()


@st.composite
def perturbed_metrics(draw):
    """A Euclidean matrix whose points 0 and 1 coincide, moved within METRIC_TOL.

    Each drawn move is one that validation allows: a one-sided change of
    +-5e-10 in the last row, so in the last block of rows at 300 points; a
    diagonal entry of +-1e-10; d(0, 1) = -1e-13, on one side or both; or a
    -0.0 planted on the diagonal or at d(0, 1).  The matrix is returned with
    the set of moves made.
    """
    n = draw(st.sampled_from([3, 8, 40, 300]))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, 3))
    x[1] = x[0]
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    moves = draw(st.sets(st.sampled_from(["skew", "diagonal", "negative", "minus_zero"])))
    if "skew" in moves:
        j = draw(st.integers(0, n - 2))
        d[n - 1, j] += draw(st.sampled_from([5e-10, -5e-10]))
    if "diagonal" in moves:
        k = draw(st.integers(0, n - 1))
        d[k, k] = draw(st.sampled_from([1e-10, -1e-10]))
    if "negative" in moves:
        d[0, 1] = -1e-13
        if draw(st.booleans()):
            d[1, 0] = -1e-13
    if "minus_zero" in moves:
        i, j = draw(st.sampled_from([(2, 2), (0, 1), (1, 0)]))
        d[i, j] = -0.0
    return d, moves


@settings(max_examples=80, deadline=None)
@given(perturbed_metrics())
def test_validation_stores_the_canonical_matrix(case):
    d, moves = case
    before = d.copy()
    X = core.validate_space({"dist": d, "weight": np.full(len(d), 1.0 / len(d))})
    _assert_canonical(X.dist)
    assert d.tobytes() == before.tobytes()
    want = np.maximum(np.minimum(before, before.T), 0.0) + 0.0
    np.fill_diagonal(want, 0.0)
    assert X.dist.tobytes() == want.tobytes()
    # only a matrix that is not canonical already is copied
    assert np.shares_memory(X.dist, d) == (not moves)


def test_validation_keeps_the_proof_of_a_canonical_space():
    sph = gallery.sample_sphere(4, 1.0, 300, seed=3).space
    X = core.random_metric_space(40, seed=2)
    with mock.patch.object(core, "_triangle_check", None):
        for space in (sph, X):
            again = core.validate_space(space)
            assert np.shares_memory(again.dist, space.dist)
            assert (again.triangle_check, again.triangle_slack, again.coords_error) == (
                space.triangle_check, space.triangle_slack, space.coords_error)
    # a copied matrix drops the proofs it came with and derives them again
    d = np.array(X.dist)
    np.fill_diagonal(d, -1e-10)
    bogus = replace(X, dist=d, triangle_slack=0.0, coords_error=0.0)
    again = core.validate_space(bogus)
    assert again.dist.tobytes() == X.dist.tobytes()
    assert (again.triangle_slack, again.coords_error) == (X.triangle_slack, X.coords_error)


def test_constructors_store_canonical_matrices():
    X = core.random_metric_space(30, seed=5)
    Y = gallery.two_point(1.5)
    coords = np.random.default_rng(1).normal(size=(12, 3))
    sphere = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    spaces = [
        X, Y, gallery.four_point_Z(1.0, 1.5, 2.0),
        gallery.sample_sphere(3, 1.0, 200, metric="chordal", seed=1).space,
        gallery.sample_sphere(3, 1.0, 200, metric="geodesic", seed=1).space,
        gallery.example_5_1(2, 40, seed=1).space,
        product(ProductSpec((X, Y), mpf.builtin("fexp"))),
        lp_product(X, Y, 2.0),
        metric_transform(X, mpf.power_sum(0.5, 1)),
        X.reweighted(np.full(30, 1 / 30)),
        core.space_from_json({"coords": coords.tolist(), "weight": [1 / 12] * 12}),
        core.space_from_json({"coords": sphere.tolist(), "weight": [1 / 12] * 12,
                              "metric": "geodesic_sphere", "radius": 1.0}),
    ]
    for space in spaces:
        _assert_canonical(space.dist)
    # a factor's -1e-13 entries are stored as 0, so its l2 product is certified
    neg = core.validate_space({"dist": [[0.0, -1e-13], [-1e-13, 0.0]], "weight": [0.5, 0.5]})
    _assert_canonical(neg.dist)
    assert neg.dist.max() == 0.0 and neg.triangle_check == "exhaustive"
    assert lp_product(neg, Y, 2.0).triangle_check == "certified"


@given(st.integers(2, 7), st.integers(0, 10_000))
def test_validate_idempotent(n, seed):
    s = core.random_metric_space(n, seed=seed)
    again = core.validate_space(s)
    assert np.array_equal(again.dist, s.dist)
    assert np.array_equal(again.weight, s.weight)
    assert again.labels == s.labels


@given(st.integers(2, 7), st.integers(0, 10_000))
def test_pushforward_preserves_mass(n, seed):
    s = core.random_metric_space(n, seed=seed)
    f = core.as_lip(s, s.dist[0], lip_const=1.0)
    push = core.pushforward(s, f)
    assert push.total_mass == pytest.approx(1.0, abs=1e-12)


def test_pushforward_examples():
    s = core.validate_space({"labels": ["a", "b"], "dist": [[0, 2], [2, 0]],
                             "weight": [0.5, 0.5]})
    push = core.pushforward(s, core.as_lip(s, [0.0, 2.0]))
    assert list(push.positions) == [0.0, 2.0]

    const = core.pushforward(s, core.as_lip(s, [1.0, 1.0]))
    assert const.n == 1 and const.masses[0] == pytest.approx(1.0)

    u4 = core.validate_space({"labels": list("abcd"),
                              "dist": (np.ones((4, 4)) - np.eye(4)).tolist(),
                              "weight": [0.25] * 4})
    merged = core.pushforward(u4, core.as_lip(u4, [0.0, 0.0, 1.0, 1.0]))
    assert merged.n == 2
    assert list(merged.masses) == [0.5, 0.5]

    with pytest.raises(HostMismatch):
        core.pushforward(s, core.LipFunction(values=np.zeros(3), lip_const=1.0))


def test_real_distribution_merges_chains_of_close_atoms():
    # neighbours closer than 1e-12 share an atom, even when the chain spans more
    d = core.real_distribution([(1.6e-12, 0.25), (0.0, 0.5), (0.8e-12, 0.25)])
    assert d.positions.tolist() == [0.0]
    assert d.masses.tolist() == [1.0]
    d2 = core.real_distribution([(0.0, 0.5), (1.1e-12, 0.5)])
    assert d2.positions.tolist() == [0.0, 1.1e-12]


def test_mm_isomorphic_relabel():
    s = core.random_metric_space(5, seed=3)
    perm = [4, 2, 0, 1, 3]
    relabeled = core.validate_space({
        "labels": [s.labels[i] for i in perm],
        "dist": s.dist[np.ix_(perm, perm)],
        "weight": s.weight[perm],
    })
    ok, wit = core.mm_isomorphic(s, relabeled)
    assert ok
    inv = np.argsort(perm)
    assert np.allclose(s.dist, relabeled.dist[np.ix_(wit, wit)])


def test_mm_isomorphic_rejects():
    a = core.validate_space({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
                             "weight": [0.5, 0.5]})
    b = core.validate_space({"labels": ["a", "b"], "dist": [[0, 2], [2, 0]],
                             "weight": [0.5, 0.5]})
    c = core.validate_space({"labels": ["a", "b"], "dist": [[0, 1], [1, 0]],
                             "weight": [0.25, 0.75]})
    assert core.mm_isomorphic(a, b)[0] is False
    assert core.mm_isomorphic(a, c)[0] is False


def test_mm_isomorphic_equivalence_properties():
    rng = np.random.default_rng(0)
    for trial in range(6):
        x = core.random_metric_space(4, seed=100 + trial)
        assert core.mm_isomorphic(x, x)[0]
        perm = rng.permutation(4)
        y = core.validate_space({"labels": [f"p{i}" for i in range(4)],
                                 "dist": x.dist[np.ix_(perm, perm)],
                                 "weight": x.weight[perm]})
        ok_xy, _ = core.mm_isomorphic(x, y, tol=1e-9)
        ok_yx, _ = core.mm_isomorphic(y, x, tol=1e-9)
        assert ok_xy and ok_yx
        z = core.random_metric_space(4, seed=500 + trial)
        # transitivity with accumulated tolerance
        if core.mm_isomorphic(x, y, tol=1e-9)[0] and core.mm_isomorphic(y, z, tol=1e-9)[0]:
            assert core.mm_isomorphic(x, z, tol=2e-9)[0]


def test_mm_isomorphic_too_large():
    big = core.random_metric_space(11, seed=0)
    with pytest.raises(TooLarge):
        core.mm_isomorphic(big, big)


def test_json_round_trip_bit_exact():
    s = core.random_metric_space(6, seed=9)
    blob = json.dumps(core.space_to_json(s))
    back = core.space_from_json(json.loads(blob))
    assert np.array_equal(back.dist, s.dist)
    assert np.array_equal(back.weight, s.weight)
    assert back.labels == s.labels


def test_json_coords_derivation():
    pts = [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]
    s = core.space_from_json({"labels": list("abc"), "coords": pts,
                              "weight": [1 / 3] * 3, "metric": "euclidean"})
    assert s.dist[1, 2] == pytest.approx(5.0)

    sph = core.space_from_json({
        "labels": ["n", "s"],
        "coords": [[0.0, 1.0], [0.0, -1.0]],
        "weight": [0.5, 0.5],
        "metric": "geodesic_sphere",
        "radius": 1.0,
    })
    assert sph.dist[0, 1] == pytest.approx(np.pi)


def test_lip_constant_and_projection():
    s = core.validate_space({"labels": ["a", "b"], "dist": [[0, 2], [2, 0]],
                             "weight": [0.5, 0.5]})
    assert core.lip_constant(s, [0.0, 4.0]) == pytest.approx(2.0)
    v = core.project_to_lip1(s, [0.0, 4.0])
    assert core.lip_constant(s, v) <= 1.0 + 1e-12


def test_mcshane_extend_agrees_on_domain():
    s = core.random_metric_space(6, seed=2)
    dom = [0, 2, 4]
    vals = core.project_to_lip1(s, np.sin(np.arange(6.0)))[dom]
    ext = core.mcshane_extend(s, dom, vals)
    assert core.lip_constant(s, ext) <= 1.0 + 1e-9
    assert np.allclose(ext[dom], vals)


def _coordinate_rows(space, count=200, seed=3):
    """The coordinate projections closing the candidate pool, one row each."""
    dims = space.coords.shape[1]
    pool = np.vstack(list(inv._candidate_observables(space, count, seed)))
    k = min(dims, 16) + min(32, max(4, count // 8))
    return pool[-k:], candidate_pool_loop(space, count, seed)[-k:]


def test_lip1_screen_flags_every_direction_of_a_shrunk_metric():
    X = core.random_metric_space(40, seed=4)
    half = core.validate_space({"dist": 0.5 * X.dist, "weight": X.weight, "coords": X.coords})
    new, old = _coordinate_rows(half)
    assert core._exceeds_lip1(half, [half.coords @ u for u in np.eye(3)]).all()
    for v, w in zip(new, old):
        assert np.array_equal(v, w)
        # every direction was rescaled onto constant 1
        assert core.lip_constant(half, v) == pytest.approx(1.0, abs=1e-12)


def test_lip1_screen_sends_zero_distance_splits_to_the_inf_path():
    # points 0 and 1 sit at distance zero but carry different coordinates
    X = core.validate_space({"dist": [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
                             "weight": [0.25, 0.25, 0.5],
                             "coords": [[0.0, 0.0], [0.5, 0.0], [0.0, 1.0]]})
    assert core.lip_constant(X, X.coords[:, 0]) == float("inf")
    assert core._exceeds_lip1(X, X.coords.T).tolist() == [True, False]
    new, old = _coordinate_rows(X)
    assert np.array_equal(new[0], np.full(3, X.coords[:, 0].mean()))
    for v, w in zip(new, old):
        assert np.array_equal(v, w)


def test_lip1_screen_passes_chordal_sphere_directions():
    sph = gallery.sample_sphere(6, 1.0, 300, metric="chordal", seed=2).space
    rng = np.random.default_rng(2)
    dirs = np.vstack([np.eye(7), rng.normal(size=(20, 7))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert not core._exceeds_lip1(sph, [sph.coords @ u for u in dirs]).any()


def _assert_oracle_flags(space, rows):
    want = exceeds_lip1_broadcast(space, np.asarray(rows, dtype=float))
    assert core._exceeds_lip1(space, rows).tolist() == want.tolist()
    return want


def _sphere_rows(space, seed):
    """The coordinate directions of a pool, and some distance columns."""
    dims = space.coords.shape[1]
    rng = np.random.default_rng(seed)
    dirs = np.vstack([np.eye(dims)[:16], rng.normal(size=(32, dims))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return np.vstack([dirs @ space.coords.T, space.dist[rng.integers(0, space.n, 4)]])


@pytest.mark.parametrize("seed", [7, 11])
def test_lip1_screen_matches_broadcast_oracle_on_chordal_spheres(seed):
    for dim in (2, 4, 8, 16, 32):
        sph = gallery.sample_sphere(dim, 1.0, 1000, metric="chordal", seed=seed).space
        rows = _sphere_rows(sph, seed)
        assert not _assert_oracle_flags(sph, rows).any()
        if dim in (2, 32):
            # a shrunk metric breaks every row; one shrunk by 1e-9 breaks some
            for c in (0.5, 1 - 1e-9):
                shrunk = core.validate_space({"dist": c * sph.dist, "weight": sph.weight,
                                              "coords": sph.coords})
                flags = _assert_oracle_flags(shrunk, rows)
                assert flags.all() if c == 0.5 else flags.any()


def _line(n, step=0.25, scale=1.0):
    """n points on a line at multiples of step; a dyadic step makes every distance exact."""
    x = np.arange(n) * step * scale
    return core.validate_space({"dist": np.abs(x[:, None] - x[None, :]),
                                "weight": np.full(n, 1.0 / n), "coords": x[:, None]}), x


def test_lip1_screen_decides_exact_ties_on_a_line():
    X, x = _line(300)
    rows = [x, -x, x + 3.0, x * (1 + 2.0 ** -52), x * (1 + 1e-12), x * (1 - 1e-12)]
    flags = _assert_oracle_flags(X, rows)
    # |v_i - v_j| = d(i, j) bit for bit is no violation; any stretch is one
    assert flags.tolist() == [False, False, False, True, True, False]
    # off the dyadic grid a pair broken by 4e-12 is still flagged
    X, x = _line(300, step=0.1)
    rows = []
    for c in (0.3, 1.7, 2.9, 5.3, 7.1, 9.7, 13.3, 29.9):
        v = 0.5 * x + c
        v[1] = v[0] + X.dist[0, 1] + 4e-12
        rows.append(v)
    assert _assert_oracle_flags(X, rows).all()
    assert not _assert_oracle_flags(X, [x, x * (1 - 1e-12)]).any()


def test_lip1_screen_matches_oracle_on_zero_distance_splits():
    X, x = _line(300)
    # point 1 moved onto point 0: they sit at distance zero, with other labels
    x[1] = 0.0
    dup = core.validate_space({"dist": np.abs(x[:, None] - x[None, :]),
                               "weight": X.weight, "coords": x[:, None]})
    split = x.copy()
    split[1] = 1e-300
    flags = _assert_oracle_flags(dup, [x, split, -split, np.zeros(300)])
    assert flags.tolist() == [False, True, True, False]


@pytest.mark.parametrize("scale", [2.0 ** 997, 2.0 ** -997])
def test_lip1_screen_is_exact_beyond_float32_range(scale):
    # distances about 1e300 and 1e-300, which float32 cannot hold;
    # power-of-two scales keep the flags of the dyadic line
    X, x = _line(300, scale=scale)
    rows = [x, x * (1 + 1e-12), -x, x[::-1].copy(), 2 * x]
    assert _assert_oracle_flags(X, rows).tolist() == [False, True, False, False, True]


def test_lip1_screen_finds_a_violation_near_float32_max():
    # d(0, 1) lies above the float32 maximum; the row breaks only pair (0, 1)
    X = core.validate_space({"dist": [[0, 3.5e38, 1e38], [3.5e38, 0, 3e38], [1e38, 3e38, 0]],
                             "weight": [1 / 3] * 3})
    assert _assert_oracle_flags(X, [[0.6e38, -3e38, 0.0], [0.5e38, -3e38, 0.0]]).tolist() == [
        True, False]


def test_validation_stores_the_smaller_of_two_asymmetric_entries():
    # v breaks d(0, 1) but not d(1, 0) = d(0, 1) + 5e-10: the stored matrix
    # holds the smaller entry both ways, so v is flagged
    X, x = _line(300, step=2.0 ** -22)
    d = X.dist.copy()
    d[0, 1] -= 5e-10
    Y = core.validate_space({"dist": d, "weight": X.weight})
    assert Y.dist[0, 1] == Y.dist[1, 0] == d[0, 1]
    v = 0.5 * x
    v[1] = x[1] - 2.5e-10
    assert _assert_oracle_flags(Y, [v, 0.5 * x]).tolist() == [True, False]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10_000),
       st.sampled_from([0.5, 1 - 1e-9, 1.0, 1 + 1e-12]))
def test_lip1_screen_matches_broadcast_oracle(n, seed, c):
    X = core.random_metric_space(n, seed=seed)
    scaled = core.validate_space({"dist": c * X.dist, "weight": X.weight, "coords": X.coords})
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rows = np.vstack([dirs @ X.coords.T, X.dist[rng.integers(0, n, 2)], np.zeros(n)])
    _assert_oracle_flags(scaled, rows)


def test_validation_stores_a_negative_diagonal_as_zero():
    X = core.random_metric_space(30, seed=1)
    d = X.dist.copy()
    np.fill_diagonal(d, -1e-10)
    Y = core.validate_space({"dist": d, "weight": X.weight, "coords": X.coords})
    assert Y.dist.tobytes() == X.dist.tobytes()
    assert (np.diagonal(d) == -1e-10).all()
    # a comparison with a nan is false: only the row's other pairs can flag it
    with_nan = np.zeros(30)
    with_nan[3] = np.nan
    rows = np.vstack([np.zeros(30), Y.coords.T, 0.5 * Y.coords.T, with_nan])
    assert core.lip_constant(Y, rows[0]) == 0.0
    flags = _assert_oracle_flags(Y, rows)
    assert not flags[0]
    for row, flag in zip(rows, flags):
        assert flag == (core.lip_constant(Y, row) > 1.0)


def test_lip1_screen_of_no_rows_is_empty():
    X = core.random_metric_space(5, seed=0)
    got = core._exceeds_lip1(X, np.empty((0, 5)))
    assert got.shape == (0,) and got.dtype == bool


# ---------------------------------------------------------------------------
# coordinate projections proved 1-Lipschitz from coords_error

def _pool_projections(space, count, seed):
    """The directions and rows that _candidate_observables hands to _projection_flags."""
    calls = []
    real = core._projection_flags

    def spy(sp, dirs, rows):
        calls.append((np.array(dirs), np.array(rows)))
        return real(sp, dirs, rows)

    with mock.patch.object(inv, "_projection_flags", spy):
        for _ in inv._candidate_observables(space, count, seed):
            pass
    (dirs, rows), = calls
    return dirs, rows


def _assert_projection_flags(space, dirs, rows):
    got = core._projection_flags(space, dirs, rows)
    assert got.tolist() == core._exceeds_lip1(space, rows).tolist()
    return got


@pytest.mark.parametrize("N", [7, 300, 1000])
def test_projection_flags_match_the_screen_on_chordal_pools(N):
    # coordinate dimensions 2..51; every seventh or so at 1000 points
    for dims in range(2, 52) if N < 1000 else (2, 3, 4, 5, 9, 16, 17, 32, 33, 51):
        sph = gallery.sample_sphere(dims - 1, 1.0, N, seed=dims).space
        assert sph.coords_error is not None
        _assert_projection_flags(sph, *_pool_projections(sph, 5000, dims))


@pytest.mark.parametrize("n", [7, 8, 10, 20, 40, 100, 400])
def test_projection_flags_match_the_screen_on_random_clouds(n):
    for seed in range(3):
        X = core.random_metric_space(n, seed=100 * n + seed)
        assert X.coords_error is not None
        _assert_projection_flags(X, *_pool_projections(X, 400, seed))


@pytest.mark.parametrize("offset", [0.0, 1e-5])
def test_projection_flags_recheck_near_parallel_pairs(offset):
    # point 20 is point 0 moved by 0.5 along axis 0, point 21 is point 1
    # moved by 0.5 along axis 1, each also by offset along the other axis;
    # d(0, 20) is the gap of the axis-0 projection, d(1, 21) one ulp below
    # that of the axis-1 projection
    x = np.random.default_rng(5).normal(size=(20, 3))
    moved = x[:2].copy()
    moved[0, :2] += (0.5, offset)
    moved[1, :2] += (offset, 0.5)
    x = np.vstack([x, moved])
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    d[0, 20] = d[20, 0] = abs(x[20, 0] - x[0, 0])
    d[1, 21] = d[21, 1] = np.nextafter(abs(x[21, 1] - x[1, 1]), 0.0)
    X = core.validate_space({"dist": d, "weight": np.full(22, 1 / 22), "coords": x})
    assert X.triangle_check == "certified" and X.coords_error is not None
    dirs = np.eye(3)[:2]
    rows = [X.coords @ u for u in dirs]
    rechecked = []
    real = core._breaks_lip1

    def spy(dist, v, i, j):
        rechecked.append({tuple(sorted(p)) for p in zip(i.tolist(), j.tolist())})
        return real(dist, v, i, j)

    with mock.patch.object(core, "_breaks_lip1", spy), \
            mock.patch.object(core, "_exceeds_lip1", None):
        assert core._projection_flags(X, dirs, rows).tolist() == [False, True]
    # each constructed pair reached the float64 comparison of its row
    assert (0, 20) in rechecked[0] and (1, 21) in rechecked[1]
    assert _assert_projection_flags(X, dirs, rows).tolist() == [False, True]


def test_projection_flags_leave_uncertified_spaces_to_the_screen(monkeypatch):
    X = core.random_metric_space(40, seed=4)
    cases = {
        "transformed": metric_transform(X, mpf.power_sum(0.5, 1)),
        "geodesic": gallery.sample_sphere(3, 1.0, 200, metric="geodesic", seed=1).space,
        "shrunk": core.validate_space({"dist": 0.5 * X.dist, "weight": X.weight,
                                       "coords": X.coords}),
        "line": _line(300)[0],
        "six points": core.random_metric_space(6, seed=2),
    }
    calls = []
    real = core._exceeds_lip1

    def counted(space, rows):
        calls.append(len(rows))
        return real(space, rows)

    monkeypatch.setattr(core, "_exceeds_lip1", counted)
    rng = np.random.default_rng(3)
    for name, space in cases.items():
        dims = space.coords.shape[1]
        assert (space.coords_error is None) != (name == "line"), name
        dirs = np.vstack([np.eye(dims), rng.normal(size=(5, dims))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rows = [space.coords @ u for u in dirs]
        want = core._exceeds_lip1(space, rows)
        calls.clear()
        got = core._projection_flags(space, dirs, rows)
        assert calls == [len(dirs)], name
        assert got.tolist() == want.tolist(), name
    # the shrunk metric breaks every direction, as the pool test above sees
    assert core._projection_flags(cases["shrunk"], np.eye(3), cases["shrunk"].coords.T).all()


def test_projection_windows_cover_the_exact_bound():
    rng = np.random.default_rng(8)
    spaces = [gallery.sample_sphere(dims - 1, r, 300, seed=dims).space
              for dims, r in ((2, 1.0), (3, 1.0), (9, 1e3), (51, 1.0))]
    spaces.append(core.random_metric_space(50, seed=9))
    for X in spaces:
        dims = X.coords.shape[1]
        unit = np.vstack([np.eye(dims)[:4], rng.normal(size=(6, dims))])
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        dirs = np.vstack([unit, 3.0 * unit[-1], 0.25 * unit[-1]])
        t, h = core._projection_windows(X, dirs)
        for k, u in enumerate(dirs):
            floor = projection_window_floor(X.coords, X.coords_error, u)
            assert h[k] >= floor, (dims, k)
            if k < len(unit):
                # unit directions: looser only by the rounding bound on |u|^2
                assert h[k] <= float(floor) * 1.1, (dims, k)


def test_sphere_od_pools_make_no_screen_call(monkeypatch):
    calls = []
    real = core._exceeds_lip1

    def counted(space, rows):
        calls.append(len(rows))
        return real(space, rows)

    monkeypatch.setattr(core, "_exceeds_lip1", counted)
    for dims in (2, 4, 8, 16, 32):
        sph = gallery.sample_sphere(dims, 1.0, 1000, seed=7).space
        calls.clear()
        inv.observable_diameter(sph, 0.1, mode="bounds", budget=20_000, seed=7)
        # only as_lip's one row, the witness; the 48 directions are proved
        assert calls == [1], dims


def test_as_lip_certifies_through_the_screen(monkeypatch):
    calls = []
    original = core.lip_constant

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(core, "lip_constant", counted)
    X, x = _line(300)
    assert core.as_lip(X, x, lip_const=1.0).lip_const == 1.0
    assert core.as_lip(X, x, lip_const=2.0).lip_const == 2.0
    assert calls == []
    # a flagged row names its constant; a claim below 1 is decided as before
    with pytest.raises(NotLipschitz, match="observed 2.0"):
        core.as_lip(X, 2 * x, lip_const=1.0)
    assert core.as_lip(X, x * (1 + 1e-12), lip_const=1.0).lip_const == 1.0
    with pytest.raises(NotLipschitz):
        core.as_lip(X, x, lip_const=0.5)
    assert core.as_lip(X, 2 * x, lip_const=2.0).lip_const == 2.0
    assert core.as_lip(X, x).lip_const == 1.0
    assert len(calls) == 5


def test_heuristic_od_loads_no_scipy_subpackage():
    src = str(Path(core.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from mm_lab import gallery, invariants\n"
            "sph = gallery.sample_sphere(8, 1.0, 1000, metric='chordal', seed=7)\n"
            "invariants.observable_diameter(sph.space, 0.1, mode='bounds', seed=7)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MML_CACHE_DIR", None)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.strip() == "[]", run.stdout


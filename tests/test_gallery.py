import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mm_lab import core, distances as dst, gallery, invariants as inv, mpf
from mm_lab.errors import MMLabError, NotTriangleTriplet, WitnessInvalid

from oracles import min_on_interval_loop, min_on_rect_loop, pd_window_oracle, sphere_distances


def test_sphere_metric_consistency():
    sph_c = gallery.sample_sphere(5, 2.0, 60, metric="chordal", seed=4)
    sph_g = gallery.sample_sphere(5, 2.0, 60, metric="geodesic", seed=4)
    r = 2.0
    chord = sph_c.space.dist
    geo = sph_g.space.dist
    assert np.allclose(chord, 2 * r * np.sin(geo / (2 * r)), atol=1e-9)
    assert np.allclose(geo, 2 * r * np.arcsin(np.clip(chord / (2 * r), 0, 1)), atol=1e-9)
    assert np.allclose(np.linalg.norm(sph_c.space.coords, axis=1), r, atol=1e-9)
    # the same arguments give the same sample, bit for bit
    again = gallery.sample_sphere(5, 2.0, 60, metric="geodesic", seed=4)
    assert np.array_equal(again.space.coords, sph_g.space.coords)
    assert np.array_equal(again.space.dist, sph_g.space.dist)


@pytest.mark.parametrize("metric", ["chordal", "geodesic"])
def test_sphere_matrix_is_the_whole_matrix_kernel_bit_for_bit(metric):
    for n in (1, 2, 8, 50):
        for N in (2, 7, 513, 1000):
            sph = gallery.sample_sphere(n, 1.3, N, metric=metric, seed=n + N)
            want = sphere_distances(sph.space.coords, 1.3, metric)
            assert sph.space.dist.tobytes() == want.tobytes(), (n, N)


@pytest.mark.parametrize("metric, check", [("chordal", "certified"), ("geodesic", "exhaustive")])
def test_sphere_sample_builds_one_gram_matrix(metric, check):
    calls = []
    real = core._gram_distances

    def counted(x):
        calls.append(len(x))
        return real(x)

    with mock.patch.object(core, "_gram_distances", counted), \
            mock.patch.object(gallery, "_gram_distances", counted):
        sph = gallery.sample_sphere(8, 1.0, 500, metric=metric, seed=7)
    # the Euclidean certificate rejects geodesic rows by its probe alone
    assert calls == [500]
    assert sph.space.triangle_check == check


def test_sphere_sample_and_its_heuristic_od_peak_memory():
    n2 = 1000 * 1000 * 8  # bytes of the distance matrix
    tracemalloc.start()
    try:
        sph = gallery.sample_sphere(8, 1.0, 1000, seed=7)
        _, sample_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        inv.observable_diameter(sph.space, 0.1, mode="bounds", budget=20_000, seed=7)
        _, od_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one matrix and row-block temporaries; the pool is ranked block by block
    # and its cones read rows of the symmetric matrix, not a transposed copy
    assert sample_peak <= 1.7 * n2
    assert od_peak - live <= 1.2 * n2


def test_heuristic_levy_radius_peak_memory_on_a_sphere():
    n2 = 1000 * 1000 * 8  # bytes of the distance matrix
    tracemalloc.start()
    try:
        sph = gallery.sample_sphere(8, 1.0, 1000, seed=7)
        tracemalloc.reset_peak()
        live, _ = tracemalloc.get_traced_memory()
        inv.levy_radius(sph.space, 0.1, budget=8000, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each pool block is ranked _LEVY_ROWS rows at a time, as heuristic OD
    # keeps its ranking temporaries near one block
    assert peak - live <= 1.2 * n2


@pytest.mark.parametrize("r", [
    -1.0, 0.0, 1e-160, 1e154, math.inf, math.nan,
    np.nextafter(2.0**-511, 0.0), np.nextafter(2.0**510, math.inf),
])
@pytest.mark.parametrize("metric", ["chordal", "geodesic"])
def test_sample_sphere_rejects_radii_outside_the_gram_range(r, metric):
    with pytest.raises(MMLabError, match="radius"):
        gallery.sample_sphere(3, r, 8, metric=metric)


@pytest.mark.parametrize("r", [2.0**-511, 2.0**510])
@pytest.mark.parametrize("metric", ["chordal", "geodesic"])
def test_sample_sphere_keeps_full_precision_at_the_radius_limits(r, metric):
    sph = gallery.sample_sphere(3, r, 8, metric=metric, seed=1)
    unit = gallery.sample_sphere(3, 1.0, 8, metric=metric, seed=1)
    # the sample is the unit sample scaled, to rounding
    off = ~np.eye(8, dtype=bool)
    rel = np.abs(sph.space.dist[off] / r - unit.space.dist[off]) / unit.space.dist[off]
    assert rel.max() <= 1e-14


@pytest.mark.parametrize("n, N", [
    (2.5, 8), (True, 8), (0, 8), (np.float64(3.0), 8),
    (3, 10.5), (3, True), (3, 1), (3, np.bool_(True)),
])
def test_sample_sphere_rejects_counts_that_are_not_integers_in_range(n, N):
    with pytest.raises(MMLabError, match="^(dimension|N) must be"):
        gallery.sample_sphere(n, 1.0, N)


def test_sample_sphere_takes_numpy_integers():
    sph = gallery.sample_sphere(np.int64(2), 1.0, np.int32(7), seed=3)
    again = gallery.sample_sphere(2, 1.0, 7, seed=3)
    assert (sph.dimension, sph.count) == (2, 7)
    assert np.array_equal(sph.space.dist, again.space.dist)


def test_sphere_mean_squared_chordal_distance():
    # independent pairs on the unit sphere have mean squared distance 2 r^2
    sph = gallery.sample_sphere(32, 1.0, 2000, metric="chordal", seed=7)
    d2 = sph.space.dist ** 2
    off = d2[np.triu_indices(2000, 1)]
    assert abs(off.mean() - 2.0) < 0.05


def test_circle_small_sample():
    sph = gallery.sample_sphere(1, 1.0, 4, metric="chordal", seed=7)
    assert sph.space.n == 4
    assert sph.space.diam <= 2.0 + 1e-12


def test_two_and_four_point():
    tp = gallery.two_point(2.0)
    assert tp.dist[0, 1] == 2.0 and tp.weight[0] == 0.5
    z = gallery.four_point_Z(1.0, 1.0, 1.0)
    assert z.n == 4
    assert z.dist[0, 3] == 1.0
    with pytest.raises(NotTriangleTriplet):
        gallery.four_point_Z(3.0, 1.0, 1.0)


def test_four_point_pattern():
    z = gallery.four_point_Z(1.0, 1.2, 1.6)
    idx = {lab: i for i, lab in enumerate(z.labels)}
    assert z.dist[idx["z00"], idx["z10"]] == pytest.approx(1.0)
    assert z.dist[idx["z00"], idx["z01"]] == pytest.approx(1.2)
    assert z.dist[idx["z00"], idx["z11"]] == pytest.approx(1.6)
    assert z.dist[idx["z10"], idx["z01"]] == pytest.approx(1.6)


def test_glued_space_structure():
    g = gallery.example_5_1(6, 120, seed=2)
    M = g.interval_count
    mids = (np.arange(M) + 0.5) * (math.pi / M)
    # interval-to-sphere distance decomposes through the glue point
    for i in (0, M // 2, M - 1):
        for s in (0, 17, 119):
            got = g.space.dist[i, M + s]
            assert got >= (math.pi - mids[i]) - 1e-9
    # interval part keeps the line metric
    assert np.allclose(g.space.dist[:M, :M], np.abs(mids[:, None] - mids[None, :]))
    # half mass on each side
    assert g.space.weight[:M].sum() == pytest.approx(0.5)

    # the collapse map pushes the measure exactly onto the limit measure
    push = np.zeros(g.limit.n)
    np.add.at(push, g.p_map, g.space.weight)
    val, _ = dst.prokhorov(g.limit, push, g.limit.weight)
    assert val <= 1e-9
    finer = gallery.example_5_1(6, 240, seed=2)
    push2 = np.zeros(finer.limit.n)
    np.add.at(push2, finer.p_map, finer.space.weight)
    val2, _ = dst.prokhorov(finer.limit, push2, finer.limit.weight)
    assert val2 <= 1e-9


def test_glued_limit_partial_diameter_matches_oracle():
    g = gallery.example_5_1(4, 40, seed=3)
    pos = g.limit.coords[:, 0]
    mass = g.limit.weight
    rd = core.real_distribution(zip(pos, mass))
    for alpha in (0.5, 0.6, 0.8):
        assert inv.partial_diameter(rd, alpha) == pytest.approx(
            pd_window_oracle(pos, mass, alpha), abs=1e-12)


def test_glued_sphere_fibers_concentrate():
    kys = []
    for n in (4, 24):
        g = gallery.example_5_1(n, 160, seed=5)
        M = g.interval_count
        sphere_idx = np.arange(M, g.space.n)
        w = g.space.weight[sphere_idx]
        sub = core.validate_space({
            "labels": [g.space.labels[i] for i in sphere_idx],
            "dist": g.space.dist[np.ix_(sphere_idx, sphere_idx)],
            "weight": w / w.sum()})
        worst = 0.0
        for anchor in (0, 40, 80):
            f = sub.dist[anchor]
            lm = inv.levy_mean(core.real_distribution(zip(f, sub.weight))).mean
            worst = max(worst, dst.ky_fan(sub, f, np.full(sub.n, lm)))
        kys.append(worst)
    assert kys[1] < kys[0]


def test_counterexample_1dim_bundle():
    F = mpf.builtin("h1")
    b = gallery.build_counterexample_1dim(lambda n: F, 2.0, 3.0, n=10, N=80, seed=11)
    assert b.r_n == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-15)
    assert b.k_n == 10
    assert b.limit_distance == pytest.approx(1.0, abs=1e-9)
    N = 80
    # antipodal transport hits s_n exactly
    a = b.sphere_coords
    z0 = np.concatenate([np.zeros((N, 1)), a], axis=1)
    z1 = np.concatenate([np.full((N, 1), 2.0), -a], axis=1)
    assert np.abs(np.linalg.norm(z0 - z1, axis=1) - 3.0).max() < 1e-9
    # cross-fiber distances live in [s, s_n]
    cross = b.product_space.dist[:N, N:]
    assert cross.min() >= 2.0 - 1e-9 and cross.max() <= 3.0 + 1e-9
    # transformed cross distances never dip below the limit distance
    tcross = b.transformed.dist[:N, N:]
    assert tcross.min() >= b.limit_distance - 0.05


def test_counterexample_rejects_non_dropping_family():
    F = mpf.builtin("fp:1")  # isotone unary: never drops
    with pytest.raises(WitnessInvalid):
        gallery.build_counterexample_1dim(lambda n: mpf.identity(), 2.0, 3.0, n=4, N=20)


def test_counterexample_2dim_bundle():
    # the two-peak function drops from 2 at (1,1) to 1 on [2,inf)^2, and the
    # collapsed edge gamma is the minimum over the witness square, which is 1
    dip = mpf.builtin("dip")
    b = gallery.build_counterexample_2dim(lambda n: dip, 1.0, 1.0, 2.0, 2.0,
                                          n=3, N=8, seed=13)
    sec = b.second
    assert b.eta == pytest.approx(1.0)
    assert sec["gamma"] == pytest.approx(1.0, abs=1e-6)
    trip = sorted((sec["alpha"], sec["beta"], sec["gamma"]))
    assert trip[2] <= trip[0] + trip[1] + 1e-9
    assert sec["alpha"] <= float(dip(1.0, 0.0)) + 1e-6
    assert sec["beta"] <= float(dip(0.0, 1.0)) + 1e-6
    assert sec["gamma"] <= float(dip(1.0, 1.0)) - b.eta + 1e-6
    assert b.limit_space.n == 4
    # fibers have equal mass under the collapse map
    masses = np.zeros(4)
    np.add.at(masses, b.p_map, b.product_space.weight)
    assert np.allclose(masses, 0.25)


def test_min_on_interval_and_rect_match_loop_oracle():
    h1 = mpf.builtin("h1")
    assert gallery._min_on_interval(h1, 2.0, 3.0) == min_on_interval_loop(h1, 2.0, 3.0)
    # the dip rectangles of test_counterexample_2dim_bundle: alpha, beta, gamma
    dip = mpf.builtin("dip")
    r = math.sqrt(2.0 ** 2 - 1.0) / 2.0
    for rect in ((1.0, 2.0, 0.0, 2 * r), (0.0, 2 * r, 1.0, 2.0), (1.0, 2.0, 1.0, 2.0)):
        assert gallery._min_on_rect(dip, *rect) == min_on_rect_loop(dip, *rect)
    for token in ("h2", "fn1:3", "fn2:4", "clamp"):
        F = mpf.builtin(token)
        assert gallery._min_on_interval(F, 0.5, 7.0) == min_on_interval_loop(F, 0.5, 7.0)
    for token in ("gn2:4", "gn3:5", "fexp", "petrik", "mul:sinh"):
        F = mpf.builtin(token)
        for rect in ((1.0, 3.0, 0.0, 2.0), (2.0, 5.0, 2.0, 5.0)):
            assert gallery._min_on_rect(F, *rect) == min_on_rect_loop(F, *rect)


def test_counterexample_2dim_isotone_family_is_refused():
    # an isotone family never drops, so the builder must refuse it
    F = mpf.builtin("fp:2")
    with pytest.raises(WitnessInvalid):
        gallery.build_counterexample_2dim(lambda n: F, 1.0, 1.0,
                                          lambda n: 1.5, lambda n: 1.5,
                                          n=2, N=6, seed=3)


def test_sphere_od_decreases_with_dimension():
    vals = []
    for n in (2, 8, 32):
        sph = gallery.sample_sphere(n, 1.0, 600, metric="chordal", seed=9)
        est = inv.observable_diameter(sph.space, 0.1, mode="bounds",
                                      budget=4000, seed=9)
        vals.append(est.value)
    assert vals[0] > vals[1] > vals[2]

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mm_lab import batteries, core, gallery, invariants as inv, mpf
from mm_lab.errors import BadAlpha, BadKappa, MMLabError, TooLarge
from mm_lab.product import ProductSpec, product

from oracles import (
    candidate_pool_loop,
    kappa_distance_oracle,
    levy_radius_loop,
    levy_radius_lp,
    od_exact_closure_loop,
    od_heuristic_loop,
    od_span_lp,
    ordering_paths_dp,
    pd_window_oracle,
)
from strategies import weighted_deviations


def two_point(d, w0=0.5):
    return core.validate_space({"labels": ["x0", "x1"],
                                "dist": [[0, d], [d, 0]], "weight": [w0, 1 - w0]})


def test_partial_diameter_examples():
    u4 = core.real_distribution([(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)])
    assert inv.partial_diameter(u4, 0.5) == pytest.approx(1.0)
    assert inv.partial_diameter(u4, 1.0) == pytest.approx(3.0)
    assert inv.partial_diameter(u4, 0.2) == pytest.approx(0.0)
    with pytest.raises(BadAlpha):
        inv.partial_diameter(u4, 0.0)


@given(st.integers(0, 300))
def test_partial_diameter_matches_subset_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pos = np.sort(rng.normal(size=n) * 3.0)
    mass = rng.random(n) + 0.05
    mass /= mass.sum()
    dist = core.real_distribution(zip(pos, mass))
    for alpha in (0.3, 0.5, 0.8, 1.0):
        want = pd_window_oracle(pos, mass, alpha)
        assert inv.partial_diameter(dist, alpha) == pytest.approx(want, abs=1e-12)


@given(st.integers(0, 300))
def test_partial_diameter_monotone_in_alpha(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    pos = rng.normal(size=n)
    mass = rng.random(n) + 0.05
    mass /= mass.sum()
    dist = core.real_distribution(zip(pos, mass))
    alphas = np.linspace(0.05, 1.0, 12)
    vals = [inv.partial_diameter(dist, a) for a in alphas]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_observable_diameter_examples():
    assert inv.observable_diameter(two_point(2.0), 0.3).value == pytest.approx(2.0)
    assert inv.observable_diameter(two_point(2.0), 0.6).value == pytest.approx(0.0)
    one = core.validate_space({"labels": ["o"], "dist": [[0.0]], "weight": [1.0]})
    assert inv.observable_diameter(one, 0.5).value == 0.0
    with pytest.raises(BadKappa):
        inv.observable_diameter(two_point(1.0), 1.5)


def test_exact_od_early_exit_reports_zero_orderings():
    # one point, or an atom of mass >= 1 - kappa: no ordering is examined
    one = core.validate_space({"dist": [[0.0]], "weight": [1.0]})
    for X, kappa in ((gallery.two_point(2.0), 0.6), (one, 0.5)):
        est = inv.observable_diameter(X, kappa, mode="exact")
        assert est.value == 0.0
        assert est.meta["orderings"] == 0


def test_observable_diameter_witness_certifies_value():
    for seed in range(5):
        X = core.random_metric_space(5, seed=seed)
        est = inv.observable_diameter(X, 0.25)
        assert core.lip_constant(X, est.witness.values) <= 1.0 + 1e-9
        push = core.pushforward(X, est.witness)
        assert inv.partial_diameter(push, 0.75) == pytest.approx(est.value, abs=1e-9)


def test_exact_od_matches_lp_oracle():
    rng = np.random.default_rng(17)
    for seed in range(60):
        n = int(rng.integers(2, 6))
        X = core.random_metric_space(n, seed=500 + seed)
        if seed % 3 == 0:  # tied distances and equal weights
            X = core.validate_space({"dist": np.ceil(X.dist * 2) / 2 * (1 - np.eye(n)),
                                     "weight": np.full(n, 1.0 / n)})
        kappa = float(rng.choice([0.1, 0.25, 0.4, 0.6]))
        got = inv.observable_diameter(X, kappa, mode="exact").meta["surrogate"]
        assert got == pytest.approx(od_span_lp(X, kappa), abs=1e-9 * max(1.0, X.diam))


def _exact_od_cases(count, sizes, seed):
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.choice(sizes))
        X = core.random_metric_space(n, seed=int(rng.integers(0, 2**31 - 1)))
        if case % 3 == 0:  # tied distances and equal weights
            X = core.validate_space({"dist": np.ceil(X.dist * 2) / 2 * (1 - np.eye(n)),
                                     "weight": np.full(n, 1.0 / n)})
        yield X, float(rng.choice([0.05, 0.1, 0.25, 0.4, 0.6, 0.8]))


def test_exact_od_matches_closure_loop():
    for X, kappa in _exact_od_cases(300, range(2, 7), seed=23):
        want, want_values, orderings = od_exact_closure_loop(X, kappa)
        est = inv.observable_diameter(X, kappa, mode="exact")  # as_lip certifies the witness
        tol = 1e-12 * max(1.0, X.diam)
        assert est.meta["surrogate"] == pytest.approx(want, abs=tol)
        assert est.value == pytest.approx(inv._pd_of_values(want_values, X.weight, 1 - kappa),
                                          abs=tol)
        assert est.meta["orderings"] == orderings
        if orderings:
            assert orderings == math.factorial(X.n) // 2


def test_exact_od_kernel_matches_closure_loop_on_7_and_8_points():
    for X, kappa in _exact_od_cases(5, (7, 7, 8), seed=29):
        want, want_values, orderings = od_exact_closure_loop(X, kappa)
        t, values, meta = inv._od_exact(X, kappa)
        tol = 1e-12 * max(1.0, X.diam)
        assert t == pytest.approx(want, abs=tol)
        core.as_lip(X, values, lip_const=1.0)
        assert inv._pd_of_values(values, X.weight, 1 - kappa) == pytest.approx(
            inv._pd_of_values(want_values, X.weight, 1 - kappa), abs=tol)
        assert meta["orderings"] == orderings


# 8 points once in 13 draws (3 of the 40 examples): their 20 160 orderings
# cost about 0.2 s a table
@settings(max_examples=40)
@given(st.sampled_from((2, 3, 4, 5, 6, 7) * 2 + (8,)), st.integers(0, 2**31 - 1),
       st.sampled_from(["random", "square_root", "halves"]))
def test_ordering_paths_match_the_frontier_dp(n, seed, kind):
    d = core.random_metric_space(n, seed=seed).dist
    if kind == "square_root":
        d = np.sqrt(d)
    elif kind == "halves":  # tied distances
        d = np.ceil(d * 2) / 2 * (1 - np.eye(n))
    perms = inv._orderings(n)
    got = inv._ordering_paths(d, perms)
    assert got.shape == (len(perms), n, n)
    assert got.tobytes() == ordering_paths_dp(d, perms).tobytes()


def test_observable_diameter_monotone_in_kappa():
    for seed in range(4):
        X = core.random_metric_space(4, seed=40 + seed)
        kappas = (0.1, 0.2, 0.35, 0.5, 0.7)
        vals = [inv.observable_diameter(X, k).value for k in kappas]
        assert all(vals[i] + 1e-9 >= vals[i + 1] for i in range(len(vals) - 1))


def test_heuristic_od_is_a_lower_bound():
    for seed in range(6):
        X = core.random_metric_space(5, seed=70 + seed)
        exact = inv.observable_diameter(X, 0.2).value
        lb = inv.observable_diameter(X, 0.2, mode="bounds",
                                     budget=2500, seed=seed).value
        assert lb <= exact + 1e-9


def test_heuristic_od_deterministic_given_seed():
    X = core.random_metric_space(24, seed=5)
    a = inv.observable_diameter(X, 0.15, mode="bounds", budget=1500, seed=9).value
    b = inv.observable_diameter(X, 0.15, mode="bounds", budget=1500, seed=9).value
    assert a == b


def _heuristic_cases():
    cases = []
    for metric in ("chordal", "geodesic"):
        for n in (2, 16):
            sph = gallery.sample_sphere(n, 1.0, 600, metric=metric, seed=3)
            cases.append((f"{metric} n={n}", sph.space, 20_000))
    cases.append(("local search", core.random_metric_space(120, seed=8), 3000))
    sph = gallery.sample_sphere(4, 1.0, 450, metric="geodesic", seed=4)
    bare = core.validate_space({"dist": sph.space.dist, "weight": sph.space.weight})
    cases.append(("no coordinates", bare, 8000))
    # 2^7 points whose distances take 7 values: many cones tie within 1e-12
    cube = product(ProductSpec(tuple([two_point(1.0)] * 7), mpf.lp(2.0, 7),
                               check_samples=0))
    cases.append(("l2 cube", cube, 4000))
    return cases


def test_heuristic_od_matches_loop_oracle():
    for name, X, budget in _heuristic_cases():
        value, witness, evals = od_heuristic_loop(X, 0.1, budget, seed=7)
        est = inv.observable_diameter(X, 0.1, mode="bounds", budget=budget, seed=7)
        assert est.meta["surrogate"] == value, name
        assert np.array_equal(est.witness.values, witness), name
        assert est.meta["evaluations"] == evals, name


def test_heuristic_od_witness_owns_its_values():
    # ranked from views of the pool, the winner is copied out: an Estimate
    # must not keep the whole pool alive
    sph = gallery.sample_sphere(4, 1.0, 450, metric="chordal", seed=4).space
    for X in (sph, core.random_metric_space(40, seed=2)):
        _, values, _ = inv._od_heuristic(X, 0.1, 4000, seed=7)
        assert values.base is None
        est = inv.observable_diameter(X, 0.1, mode="bounds", budget=4000, seed=7)
        assert est.witness.values.base is None


def test_candidate_pool_matches_loop_oracle():
    X = core.random_metric_space(40, seed=4)
    bare = core.validate_space({"dist": X.dist, "weight": X.weight})
    cases = [
        # 32 anchors, cones of every arity, then coordinate directions
        (X, 200), (X, 41), (bare, 200),
        # fewer rows than anchors: the pool is the first anchors alone
        (X, 20), (core.random_metric_space(12, seed=5), 8),
        # a sphere_od pool: 2468 cones on 1000 points
        (gallery.sample_sphere(5, 1.0, 1000, metric="chordal", seed=7).space, 5000),
    ]
    # every size from one point, whose cones draw no anchor index, to 40
    cases += [(core.random_metric_space(n, seed=n), 120) for n in range(1, 41)]
    for space, count in cases:
        for seed in (0, 7):
            pool = np.vstack(list(inv._candidate_observables(space, count, seed)))
            want = np.array(candidate_pool_loop(space, count, seed))
            assert pool.shape == want.shape, (space.n, count)
            assert pool.tobytes() == want.tobytes(), (space.n, count)


def test_candidate_pool_blocks_match_loop_oracle_across_block_edges():
    X = core.random_metric_space(40, seed=4)
    small = core.random_metric_space(12, seed=5)
    d = X.dist.copy()
    d[5, 9] += 1e-12  # asymmetric within METRIC_TOL: validation stores min(d, d.T)
    skew = core.validate_space({"dist": d, "weight": X.weight, "coords": X.coords})
    assert skew.dist.tobytes() == skew.dist.T.copy().tobytes()
    spaces = [X, core.validate_space({"dist": X.dist, "weight": X.weight}), skew, small]
    for space in spaces:
        anchors = min(space.n, 32)
        # 255, 256 and 257 cones: the last arity cycle straddles a block edge;
        # fewer rows than anchors give the anchor block alone
        for count in [2 * (anchors + k) for k in (255, 256, 257)] + [anchors - 3, 41]:
            for seed in (0, 7):
                blocks = list(inv._candidate_observables(space, count, seed))
                assert all(0 < len(b) <= inv._RANK_BLOCK for b in blocks)
                want = np.array(candidate_pool_loop(space, count, seed))
                assert np.vstack(blocks).tobytes() == want.tobytes(), (space.n, count, seed)


@pytest.mark.parametrize("budget", [2500.0, True, -5, 0, float("nan")])
def test_heuristic_budget_must_be_a_positive_integer(budget):
    X = core.random_metric_space(12, seed=1)
    with pytest.raises(MMLabError, match="budget"):
        inv.observable_diameter(X, 0.1, mode="bounds", budget=budget)
    with pytest.raises(MMLabError, match="budget"):
        inv.levy_radius(X, 0.1, budget=budget)


def test_heuristic_budget_takes_numpy_integers():
    X = core.random_metric_space(12, seed=1)
    est = inv.observable_diameter(X, 0.1, mode="bounds", budget=np.int64(400), seed=2)
    want = inv.observable_diameter(X, 0.1, mode="bounds", budget=400, seed=2)
    assert (est.value, est.meta["evaluations"]) == (want.value, want.meta["evaluations"])
    assert (inv.levy_radius(X, 0.1, budget=np.int32(400), mode="bounds")
            == inv.levy_radius(X, 0.1, budget=400, mode="bounds"))


def test_candidate_pool_is_a_prefix_of_larger_pools():
    # both draw tables fill row by row: a larger count appends cones, and
    # never changes an anchor or cone row of a smaller pool
    for n in (1, 7, 40):
        X = core.random_metric_space(n, seed=n)
        bare = core.validate_space({"dist": X.dist, "weight": X.weight})
        for seed in (0, 7):
            big = np.vstack(list(inv._candidate_observables(bare, 400, seed)))
            for count in (2, 16, 41, 90, 201, 399):
                small = np.vstack(list(inv._candidate_observables(bare, count, seed)))
                assert len(small) < len(big), (n, count)
                assert small.tobytes() == big[: len(small)].tobytes(), (n, count, seed)


def test_pd_of_rows_falls_back_on_merged_atoms():
    # every cone on the cube has tied values, so the oracle case above takes the fallback
    cube = product(ProductSpec(tuple([two_point(1.0)] * 7), mpf.lp(2.0, 7),
                               check_samples=0))
    pool = np.vstack(list(inv._candidate_observables(cube, 200, seed=7)))
    assert (np.diff(np.sort(pool, axis=1), axis=1) <= 1e-12).any(axis=1).all()
    # 0 and 5e-13 merge into one atom of mass 0.75 and partial diameter 0;
    # kept apart, the lightest window of mass 0.75 would span 5e-13
    w = np.array([0.25, 0.5, 0.25])
    rows = np.array([[0.0, 5e-13, 1.0], [1.0, 0.0, 5e-13], [0.0, 0.5, 1.0], [1.0, 1.0, 0.0]])
    want = [inv._pd_of_values(v, w, 0.75) for v in rows]
    assert want[:2] == [0.0, 0.0]
    assert inv._pd_of_rows(rows, w, 0.75).tolist() == want
    # equal weights share one prefix; unequal ones go through the argsort path
    rows = np.array([
        [0.0, 0.5, 1.0, 2.0], [3.0, -1.0, 0.25, 0.0],
        [0.0, 5e-13, 1.0, 2.0], [2.0, 1.0, 5e-13, 0.0],
        # a -0.0/0.0 tie: the sort may put either first, the result may not care
        [-0.0, 0.0, 1.0, 0.5], [0.0, -0.0, 1.0, 0.5], [1.0, 1.0, 1.0, 1.0],
        # atoms exactly MERGE_GAP apart merge, one ulp further apart they do not
        [0.0, core.MERGE_GAP, 1.0, 2.0], [0.0, np.nextafter(core.MERGE_GAP, 1.0), 1.0, 2.0],
    ])
    for w in (np.full(4, 0.25), np.array([0.25, 0.5, 0.125, 0.125])):
        for alpha in (0.2, 0.5, 0.75, 1.0):
            got = inv._pd_of_rows(rows, w, alpha)
            for v, g in zip(rows, got):
                assert g.hex() == inv._pd_of_values(v, w, alpha).hex(), (w, alpha, v)


def test_heuristic_od_certifies_only_the_witness(monkeypatch):
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(core, "lip_constant", counting("lip_constant", core.lip_constant))
    monkeypatch.setattr(core, "_exceeds_lip1", counting("screen", core._exceeds_lip1))
    monkeypatch.setattr(inv, "_projection_flags", counting("proof", core._projection_flags))
    sph = gallery.sample_sphere(8, 1.0, 500, metric="chordal", seed=5)
    inv.observable_diameter(sph.space, 0.1, mode="bounds", budget=4000, seed=5)
    # the pool's directions are proved from coords_error without a screen;
    # one screen of the witness, no lip_constant
    assert calls == ["proof", "screen"]


def test_levy_mean_examples():
    mi = inv.levy_mean(core.real_distribution([(0, 0.5), (2, 0.5)]))
    assert (mi.low, mi.high, mi.mean) == (0.0, 2.0, 1.0)
    assert inv.levy_mean(core.real_distribution([(3.5, 1.0)])).mean == 3.5
    mi2 = inv.levy_mean(core.real_distribution([(0, 0.25), (1, 0.5), (5, 0.25)]))
    assert mi2.mean == 1.0


@given(st.integers(0, 200))
def test_levy_mean_inside_support(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    pos = rng.normal(size=n)
    mass = rng.random(n) + 0.05
    mass /= mass.sum()
    mi = inv.levy_mean(core.real_distribution(zip(pos, mass)))
    assert pos.min() - 1e-12 <= mi.mean <= pos.max() + 1e-12


@settings(max_examples=200)
@given(weighted_deviations(), st.lists(st.sampled_from([0.0, 5e-13, -5e-13, 1e-12]), min_size=30,
                                       max_size=30))
def test_levy_mean_of_values_matches_real_distribution(case, nudges):
    w, values = case
    values = values + np.array(nudges[: len(values)])
    want = inv.levy_mean(core.real_distribution(zip(values, w)))
    assert inv._levy_mean_of_values(values, w) == want


def test_concentration_function_examples():
    assert inv.concentration_function(two_point(2.0), 1.0).value == pytest.approx(0.5)
    assert inv.concentration_function(two_point(2.0), 3.0).value == 0.0
    one = core.validate_space({"labels": ["o"], "dist": [[0.0]], "weight": [1.0]})
    assert inv.concentration_function(one, 0.5).value == 0.0


@pytest.mark.parametrize("mode", ["exact", "bounds"])
@pytest.mark.parametrize("r", [float("nan"), 0.0, -1.0])
def test_concentration_function_rejects_radius_that_is_not_positive(mode, r):
    with pytest.raises(MMLabError, match="radius must be positive"):
        inv.concentration_function(two_point(2.0), r, mode=mode)


def test_concentration_heuristic_sandwich():
    X = core.random_metric_space(12, seed=13)
    r = 0.8 * X.diam
    exact = inv.concentration_function(X, r, mode="exact").value
    sand = inv.concentration_function(X, r, mode="bounds")
    assert sand.regime == "bracket"
    assert sand.lower <= exact + 1e-9 <= sand.upper + 2e-9


def _same_estimate(a, b):
    """Two estimates of one mode: the same regime, meta and bits of every
    bound and witness value."""
    key = [(e.lower.hex(), e.upper.hex(), e.regime, e.meta) for e in (a, b)]
    wa, wb = (getattr(e.witness, "values", e.witness) for e in (a, b))
    return key[0] == key[1] and (wa is wb or wa.tobytes() == wb.tobytes())


@pytest.mark.parametrize("estimator, bound, arg", [
    (inv.observable_diameter, inv.EXACT_OD_BOUND, 0.3),
    (inv.levy_radius, inv.EXACT_OD_BOUND, 0.3),
    (inv.concentration_function, inv._EXACT_SUBSET_BOUND, 0.5),
], ids=["od", "lr", "conc"])
def test_modes_are_auto_exact_or_bounds(estimator, bound, arg):
    X = core.random_metric_space(5, seed=3)
    with pytest.raises(MMLabError, match="unknown mode 'fast'"):
        estimator(X, arg, mode="fast")
    with pytest.raises(TooLarge):
        estimator(core.random_metric_space(bound + 1, seed=3), arg, mode="exact")
    # the former spellings read as exact and bounds, bit for bit
    for old, new in (("exact_tiny", "exact"), ("heuristic_lb", "bounds")):
        assert _same_estimate(estimator(X, arg, mode=old), estimator(X, arg, mode=new)), old
    assert _same_estimate(estimator(X, arg), estimator(X, arg, mode="exact"))


def test_levy_radius_examples():
    one = core.validate_space({"labels": ["o"], "dist": [[0.0]], "weight": [1.0]})
    assert inv.levy_radius(one, 0.3).value == 0.0
    assert inv.levy_radius(two_point(2.0), 0.3).value == pytest.approx(1.0)


@settings(max_examples=300)
@given(weighted_deviations(), st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.125, 0.25, 0.5])))
def test_levy_radius_of_values_matches_loop(case, kappa):
    w, values = case
    center = inv.levy_mean(core.real_distribution(zip(values, w / w.sum()))).mean
    got = inv._levy_radius_of_values(values, w, kappa)
    assert got == pytest.approx(levy_radius_loop(values, w, kappa, center), abs=1e-12)


def _tail_boundary_kappas(row, weights):
    """Each tail mass of the stably sorted deviations less MASS_TOL, and one ulp either side."""
    dev = np.abs(row - inv._levy_mean_of_values(row, weights / weights.sum()).mean)
    ks = np.cumsum(weights[np.argsort(dev, kind="stable")][::-1]) - core.MASS_TOL
    ks = np.concatenate([ks, np.nextafter(ks, 0.0), np.nextafter(ks, 1.0)])
    return ks[(ks > 0.0) & (ks < 1.0)]


def test_levy_radius_of_rows_matches_values():
    X = gallery.sample_sphere(8, 1.0, 1000, metric="chordal", seed=3).space
    pool = np.vstack(list(inv._candidate_observables(X, 300, seed=0)))
    # most rows take the row-wise path, not the per-row fallback
    assert (np.diff(np.sort(pool, axis=1), axis=1) > 1e-12).all(axis=1).sum() > 150
    for kappa in (0.05, 0.2, 0.5, 0.9):
        want = np.array([inv._levy_radius_of_values(v, X.weight, kappa) for v in pool])
        assert inv._levy_radius_of_rows(pool, X.weight, kappa).tobytes() == want.tobytes()
    rng = np.random.default_rng(0)
    half = rng.permutation(np.arange(1, 101)) * 0.125
    w = rng.random(201)
    cases = [
        # atoms 5e-13 apart on either side of the median, merged by the fallback
        (np.repeat([0.0, 5e-13], 20), np.full(40, 1 / 40)),
        # deviations one ulp apart (0.1 * 3 and 3 / 10), within the 1e-15 offset
        (np.concatenate([-0.1 * np.arange(1, 21), np.arange(1, 21) / 10, [0.0]]),
         np.full(41, 1 / 41)),
        # deviations tied in pairs: the tail sums add each pair in stable order
        (np.concatenate([-half, half, [0.0]]), w / w.sum()),
        # atoms exactly MERGE_GAP apart merge, one ulp further apart they do not
        (np.array([0.0, core.MERGE_GAP, 1.0, 2.0]), np.full(4, 0.25)),
        (np.array([0.0, np.nextafter(core.MERGE_GAP, 1.0), 1.0, 2.0]), np.full(4, 0.25)),
    ]
    for row, weights in cases:
        for kappa in _tail_boundary_kappas(row, weights):
            want = inv._levy_radius_of_values(row, weights, kappa)
            assert inv._levy_radius_of_rows(row[None], weights, kappa)[0].hex() == want.hex()


def test_levy_radius_below_od():
    for seed in range(5):
        X = core.random_metric_space(4, seed=90 + seed)
        kappa = 0.2 + 0.05 * seed
        lr = inv.levy_radius(X, kappa, budget=1500, seed=seed, mode="bounds").value
        od = inv.observable_diameter(X, kappa).value
        assert lr <= od + 1e-6


def test_levy_radius_exact_tiny_grid():
    est = inv.levy_radius(two_point(2.0), 0.3, mode="exact")
    assert (est.lower, est.upper, est.regime) == (1.0, 1.0, "exact")


def test_orderings_table_is_shared_and_read_only():
    for n in range(1, 7):
        perms = inv._orderings(n)
        assert perms is inv._orderings(n) and not perms.flags.writeable
        assert perms.shape == ((math.factorial(n) // 2, n) if n > 1 else (0, 1))
        assert (perms[:, 0] < perms[:, -1]).all()
        assert len({tuple(p) for p in perms}) == len(perms)


def _shifted(weight, shift):
    """weight with shift moved from its last point to its first."""
    w = np.array(weight, dtype=float)
    w[0] += shift
    w[-1] -= shift
    return w


@st.composite
def levy_cases(draw, max_n):
    """A random space of 1..max_n points and a kappa.  The weights are
    generic, uniform, in eighths, uniform with a shift of a fraction or a
    multiple of MASS_TOL (on either side of a half-mass median when n is
    even), or uniform but for one point of mass MASS_TOL."""
    n = draw(st.integers(1, max_n))
    X = core.random_metric_space(n, seed=draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["generic", "uniform", "eighths", "shifted", "tiny"]))
    uniform = np.full(n, 1.0 / n)
    if kind == "uniform":
        X = X.reweighted(uniform)
    elif kind == "eighths":
        w = np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)), dtype=float)
        X = X.reweighted(w / w.sum())
    elif kind == "shifted" and n > 1:
        shift = draw(st.sampled_from([0.5, -0.5, 2.0, -2.0])) * core.MASS_TOL
        X = X.reweighted(_shifted(uniform, shift))
    elif kind == "tiny" and n > 2:
        X = X.reweighted(np.append(np.full(n - 1, (1.0 - core.MASS_TOL) / (n - 1)), core.MASS_TOL))
    kappa = draw(st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.125, 0.25, 0.5])))
    return X, kappa


@settings(max_examples=40, deadline=None)
@given(levy_cases(max_n=4))
def test_levy_radius_exact_matches_lp(case):
    X, kappa = case
    got = inv.levy_radius(X, kappa, mode="exact").value
    assert got == pytest.approx(levy_radius_lp(X, kappa), abs=1e-9)
    assert got >= inv.levy_radius(X, kappa, budget=2000, seed=1, mode="bounds").value - 1e-12


_HALVES = [0.25, 0.25, 0.25, 0.125, 0.125]


@pytest.mark.parametrize("weight, kappa", [
    (None, 0.3),
    (_HALVES, 0.2),
    (_shifted(_HALVES, 0.5 * core.MASS_TOL), 0.3),
    (_shifted(_HALVES, 2.0 * core.MASS_TOL), 0.3),
    ([0.25, 0.25, 0.25, 0.25 - core.MASS_TOL, core.MASS_TOL], 0.45),
], ids=["generic", "half_mass", "half_mass_within_tol", "half_mass_past_tol", "tiny_median"])
def test_levy_radius_exact_matches_lp_on_five_points(weight, kappa):
    X = core.random_metric_space(5, seed=0)
    if weight is not None:
        X = X.reweighted(weight)
    got = inv.levy_radius(X, kappa, mode="exact").value
    assert got == pytest.approx(levy_radius_lp(X, kappa), abs=1e-9)


def test_levy_radius_exact_between_heuristic_and_od():
    rng = np.random.default_rng(11)
    for t in range(24):
        X = core.random_metric_space(2 + t % 5, seed=700 + t)
        if t % 3 == 1:
            X = X.reweighted(np.full(X.n, 1.0 / X.n))
        kappa = float(rng.uniform(0.01, 0.5))
        exact = inv.levy_radius(X, kappa, mode="exact").value
        assert exact >= inv.levy_radius(X, kappa, budget=2000, seed=t, mode="bounds").value - 1e-12
        assert exact <= inv.observable_diameter(X, kappa).value + 1e-9


def test_heuristic_levy_radius_is_a_pool_bound_at_every_size(monkeypatch):
    # on up to EXACT_OD_BOUND points it adds no exact OD witness to its pool
    X = core.random_metric_space(6, seed=3)
    exact = inv.levy_radius(X, 0.2, mode="exact").value
    monkeypatch.setattr(inv, "observable_diameter", None)
    pool = np.vstack(list(inv._candidate_observables(X, 1000, 0)))
    want = float(inv._levy_radius_of_rows(pool, X.weight, 0.2).max())
    est = inv.levy_radius(X, 0.2, budget=2000, mode="bounds")
    assert (est.value, est.upper, est.regime) == (want, np.inf, "lower") and want <= exact


def test_kappa_distance_examples_and_oracle():
    ts = two_point(3.0)
    assert inv.kappa_distance(ts, [0], [1], 0.4).value == pytest.approx(3.0)
    assert inv.kappa_distance(ts, [0], [1], 0.6).value == 0.0

    # two 2-point clusters: intra 0.1, inter about 5
    pts = np.array([[0.0], [0.1], [5.0], [5.2]])
    d = np.abs(pts - pts.T)
    X = core.validate_space({"labels": list("abcd"), "dist": d, "weight": [0.25] * 4})
    kd = inv.kappa_distance(X, [0, 1], [2, 3], 0.25)
    want = kappa_distance_oracle(X, [0, 1], [2, 3], 0.25)
    assert kd.value == pytest.approx(want)
    assert kd.regime == "exact" and kd.upper == kd.value
    b1, b2 = kd.witness
    assert min(X.dist[i, j] for i in b1 for j in b2) == pytest.approx(kd.value)


def test_kappa_distance_rejects_kappa_outside_unit_interval():
    ts = two_point(3.0)
    for kappa in (-0.5, 0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(BadKappa):
            inv.kappa_distance(ts, [0], [1], kappa)


@pytest.mark.parametrize("bad", [-1, 6, 0.7], ids=["negative", "n", "fraction"])
def test_kappa_distance_rejects_a_point_index_outside_the_space(bad):
    X = core.random_metric_space(6, seed=1)
    for A1, A2 in (([bad], [0, 1]), ([0, 1], [2, bad])):
        with pytest.raises(MMLabError, match="point index"):
            inv.kappa_distance(X, A1, A2, 0.05)


@given(st.integers(0, 120))
def test_kappa_distance_matches_oracle_random(seed):
    X = core.random_metric_space(5, seed=seed)
    rng = np.random.default_rng(seed)
    A1 = sorted(rng.choice(X.n, 2, replace=False).tolist())
    A2 = sorted(rng.choice(X.n, 2, replace=False).tolist())
    kappa = float(rng.uniform(0.05, 0.3))
    got = inv.kappa_distance(X, A1, A2, kappa).value
    want = kappa_distance_oracle(X, A1, A2, kappa)
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_kappa_distance_greedy_is_a_witnessed_lower_bound(seed):
    # both sides above 16 points: the greedy heuristic answers
    X = core.random_metric_space(36, seed=seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(X.n)
    A1, A2 = np.sort(perm[:17]), np.sort(perm[17:34])
    kappa = float(rng.uniform(0.05, 0.3))
    kd = inv.kappa_distance(X, A1, A2, kappa)
    assert (kd.regime, kd.upper) == ("lower", np.inf)
    assert kd.value <= inv._kappa_distance_exact(X, A1, A2, kappa).value + 1e-12
    b1, b2 = kd.witness
    assert set(b1) <= set(A1.tolist()) and set(b2) <= set(A2.tolist())
    assert X.weight[list(b1)].sum() >= kappa - core.MASS_TOL
    assert X.weight[list(b2)].sum() >= kappa - core.MASS_TOL
    assert X.dist[np.ix_(b1, b2)].min() == kd.value


@pytest.mark.parametrize("name", batteries.BATTERY_NAMES)
def test_each_battery_smoke(name):
    rep = batteries.run_inequality_battery(name, trials=3, seed=123)
    assert rep.all_pass, [(r.lhs, r.rhs, r.meta) for r in rep.failures]


@pytest.mark.parametrize("trials", [0, -3])
def test_battery_rejects_fewer_than_one_trial(trials):
    with pytest.raises(MMLabError, match="trials must be >= 1"):
        batteries.run_inequality_battery("key_F", trials=trials)


def test_battery_rows_same_across_hash_seeds():
    src = str(Path(batteries.__file__).resolve().parents[1])
    code = ("from mm_lab import batteries\n"
            "rep = batteries.run_inequality_battery('prok_le_ky', trials=3, seed=7)\n"
            "print([(r.lhs, r.rhs, r.passed) for r in rep.rows])\n")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]

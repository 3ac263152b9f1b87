"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success so the run doubles as a
checklist; stated runtime budgets are asserted as hard limits.
"""
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from mm_lab import (
    GALLERY_TOKENS,
    batteries as bt,
    core,
    distances as dst,
    gallery,
    invariants as inv,
    mpf,
)
from mm_lab.product import lp_product, metric_transform

from oracles import od_grid_oracle


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_strassen_equivalence(monkeypatch):
    flows, solve = [], dst.maximum_flow
    monkeypatch.setattr(dst, "maximum_flow", lambda *a: flows.append(1) or solve(*a))
    start = time.time()
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 6))
        X = core.random_metric_space(n, seed=20_000 + trial)
        mu = rng.random(n) + 0.05
        mu /= mu.sum()
        nu = rng.random(n) + 0.05
        nu /= nu.sum()
        flows.clear()
        flow, _ = dst.prokhorov(X, mu, nu, lam=1.0)
        assert flows, "the flow route must solve a max-flow"
        brute = dst.prokhorov_bruteforce(X, mu, nu, lam=1.0)
        gap = abs(flow - brute)
        worst = max(worst, gap)
        assert gap <= 1e-6, (trial, flow, brute)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("1 strassen", f"200 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_lemma_batteries():
    start = time.time()
    batteries = bt.BATTERY_NAMES
    for name in batteries:
        rep = bt.run_inequality_battery(name, trials=50, seed=7, tol=1e-6)
        assert rep.all_pass, (name, [(r.lhs, r.rhs, r.meta) for r in rep.failures])
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("2 batteries", f"{len(batteries)} batteries x 50 trials, {elapsed:.1f}s")


def test_criterion_3_sphere_levy_decay():
    start = time.time()
    n_list = (2, 4, 8, 16, 32)
    ods = []
    for n in n_list:
        sph = gallery.sample_sphere(n, 1.0, 2000, metric="chordal", seed=7)
        est = inv.observable_diameter(sph.space, 0.1, mode="heuristic_lb",
                                      budget=20_000, seed=7)
        ods.append(est.value)
    lx = np.log(n_list)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    slope = float(np.linalg.lstsq(A, np.log(ods), rcond=None)[0][0])
    assert -0.75 <= slope <= -0.30, (slope, ods)
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("3 sphere decay", f"slope {slope:.3f} in [-0.75, -0.30], {elapsed:.0f}s")


def test_criterion_4_sequence_classifier():
    start = time.time()
    n_list = (1, 2, 4, 8, 16)
    D_list = (4.0, 8.0)
    expected = {
        "gn1": (False, True, True, True, True),
        "gn2": (False, False, True, True, True),
        "gn3": (False, False, False, False, True),
    }
    for token, want in expected.items():
        v = mpf.classify_sequence(mpf.family(token), mpf.family_limit(token),
                                  D_list=D_list, n_list=n_list)
        got = tuple(v.conditions[k] for k in (1, 2, 3, 4, 5))
        assert got == want, (token, got)
    # the moving bump keeps the global defect at full height for every index
    v2 = mpf.classify_sequence(mpf.family("gn2"), mpf.family_limit("gn2"),
                               D_list=D_list, n_list=n_list)
    assert min(v2.evidence["sup_defect_global_probe"]) >= 1.0 - 1e-6
    # the pinched tail keeps the pointwise defect at one for every index
    for n in n_list:
        rep = mpf.defect_table(mpf.builtin(f"gn3:{n}"), D=4.0, h=1 / 64,
                               probe=max(8.0, n + 8.0))
        i2 = int(round(2.0 * 64))
        assert rep.table[i2, 0] == pytest.approx(1.0, abs=1e-6), n
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("4 classifier", f"three separations reproduced, {elapsed:.1f}s")


def test_criterion_5_counterexample_collapse():
    start = time.time()
    F = mpf.builtin("h1")
    bundle = gallery.build_counterexample_1dim(lambda k: F, 2.0, 3.0,
                                               n=50, N=1500, seed=7)
    N = 1500
    assert bundle.limit_distance == pytest.approx(1.0, abs=1e-9)

    # (a) antipodal transport pairs sit at exactly s_n
    a = bundle.sphere_coords
    z0 = np.concatenate([np.zeros((N, 1)), a], axis=1)
    z1 = np.concatenate([np.full((N, 1), 2.0), -a], axis=1)
    anti_gap = float(np.abs(np.linalg.norm(z0 - z1, axis=1) - 3.0).max())
    assert anti_gap <= 1e-9

    # (b) every sampled cross-fiber distance lies in [s, s_n]
    cross = bundle.product_space.dist[:N, N:]
    assert cross.min() >= 2.0 - 1e-9 and cross.max() <= 3.0 + 1e-9

    # (c) the transformed cross-fiber distances stay above the limit edge and
    # every point sees a partner close to it: 5th percentile of the
    # per-point minima at most 1.25
    tcross = bundle.transformed.dist[:N, N:]
    assert tcross.min() >= bundle.limit_distance - 1e-9
    pct5 = float(np.percentile(tcross.min(axis=1), 5))
    assert pct5 <= 1.25, pct5

    # (d) the map certifies collapse onto the pinched two-point space, but the
    # naive transform of the base needs eps 0.5 on the grid: dropping a fiber
    # (mass 1/2) always works there, and at 0.4 the least cover of the
    # violating pairs, a maximum matching by Koenig's theorem, weighs more
    cert = dst.concentration_certificate(bundle.transformed, bundle.limit_space,
                                         bundle.p_map, budget=3000, seed=7)
    assert cert.overall <= 0.3, cert
    naive = metric_transform(gallery.two_point(2.0), F)
    assert naive.dist[0, 1] == pytest.approx(2.0)
    eps_naive, _ = dst.lip_up_to_eps(bundle.p_map, bundle.transformed, naive,
                                     eps_grid=(0.1, 0.2, 0.3, 0.4, 0.5))
    assert eps_naive == 0.5
    assert np.all(bundle.transformed.weight == 1.0 / (2 * N))
    viol = csr_matrix(naive.dist[0, 1] - tcross > 0.4)
    matched = maximum_bipartite_matching(viol, perm_type="column") >= 0
    assert matched.sum() / (2 * N) > 0.4

    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("5 collapse", f"antipodal {anti_gap:.1e}, pct5 {pct5:.3f}, "
                          f"cert {cert.overall:.3f}, naive eps {eps_naive}, {elapsed:.0f}s")


def test_criterion_6_box_product_inequality():
    start = time.time()
    rng = np.random.default_rng(7)
    for trial in range(50):
        X, Y, Z, W = (gallery.two_point(float(rng.uniform(0.4, 3.0)))
                      for _ in range(4))
        lhs = dst.box_distance(lp_product(X, Z, 2.0, check_samples=0),
                               lp_product(Y, W, 2.0, check_samples=0),
                               mode="exact_tiny")
        rhs = dst.box_distance(X, Y) + dst.box_distance(Z, W)
        assert lhs <= rhs + 1e-9, (trial, lhs, rhs)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report("6 box product", f"50 four-tuples, {elapsed:.1f}s")


def test_criterion_7_triplet_falsifier():
    start = time.time()
    bad = mpf.check_triangle_triplets(mpf.builtin("sq"), samples=100_000, seed=7)
    assert not bad.passed and bad.counterexample is not None
    fa, fb, fc = bad.counterexample["values"]
    assert max(fa - fb - fc, fb - fa - fc, fc - fa - fb) > 0
    for token in GALLERY_TOKENS:
        v = mpf.check_triangle_triplets(mpf.builtin(token), samples=100_000,
                                        horizon=8.0, seed=7)
        assert v.passed, (token, v.counterexample, v.zero_note)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("7 falsifier", f"squaring rejected; {len(GALLERY_TOKENS)} builtins "
                           f"survive 1e5 samples, {elapsed:.1f}s")


def test_criterion_8_od_oracle_agreement():
    start = time.time()
    for trial in range(100):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 6))
        X = core.random_metric_space(n, seed=9000 + trial)
        kappa = float(rng.uniform(0.1, 0.6))
        delta = X.diam / 8.0
        exact = inv.observable_diameter(X, kappa, mode="exact_tiny").value
        oracle = od_grid_oracle(X, kappa, delta)
        assert oracle <= exact + 1e-9, (trial, exact, oracle)
        assert exact - oracle <= 2 * delta + 1e-9, (trial, exact, oracle, delta)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("8 od oracle", f"100 instances within 2*delta, {elapsed:.1f}s")

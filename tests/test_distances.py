import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import floyd_warshall, maximum_flow

from mm_lab import batteries, core, distances as dst, gallery, invariants as inv, mpf
from mm_lab.errors import MMLabError, NotRational, TooLarge

from oracles import (
    _min_cover_mass_bnb,
    box_distance_perm_loop,
    cut_domain_eps_bisect,
    first_fit_bisect,
    ky_fan_loop,
    lip1_target_fit_loop,
    lip_domain_subset_loop,
    lip_eps_candidate_scan,
    min_cut_single,
    prokhorov_bruteforce_loop,
    prokhorov_lp,
)
from strategies import weighted_deviations


def two_point(d, w0=0.5):
    return core.validate_space({"labels": ["x0", "x1"],
                                "dist": [[0, d], [d, 0]], "weight": [w0, 1 - w0]})


def uniform(n, d_matrix):
    return core.validate_space({"labels": [str(i) for i in range(n)],
                                "dist": d_matrix, "weight": [1.0 / n] * n})


def test_ky_fan_examples():
    u4 = uniform(4, (np.ones((4, 4)) - np.eye(4)).tolist())
    f = np.zeros(4)
    assert dst.ky_fan(u4, f, f) == 0.0
    assert dst.ky_fan(u4, f, np.full(4, 0.7)) == pytest.approx(0.7)
    assert dst.ky_fan(u4, f, np.full(4, 1.4)) == pytest.approx(1.0)
    assert dst.ky_fan(u4, f, np.array([0, 0, 0, 0.5])) == pytest.approx(0.25)


@settings(max_examples=300)
@given(weighted_deviations(), st.floats(-3.0, 3.0))
def test_ky_fan_matches_loop(case, shift):
    w, dev = case
    n = len(w)
    X = core.validate_space({"dist": np.ones((n, n)) - np.eye(n), "weight": w})
    f = shift + dev
    g = np.full(n, shift)
    assert dst.ky_fan(X, f, g) == pytest.approx(ky_fan_loop(X.weight, f, g), abs=1e-12)


def test_prokhorov_examples():
    two = two_point(1.0)
    v, plan = dst.prokhorov(two, [1.0, 0.0], [0.5, 0.5], lam=1.0)
    assert v == pytest.approx(0.5, abs=1e-6)
    assert plan.check(two.dist, [1.0, 0.0], [0.5, 0.5])
    v2, _ = dst.prokhorov(two, [1.0, 0.0], [0.5, 0.5], lam=2.0)
    assert v2 == pytest.approx(0.25, abs=1e-6)
    v0, plan0 = dst.prokhorov(two, [0.5, 0.5], [0.5, 0.5], lam=1.0)
    assert v0 == 0.0 and plan0.deficiency == pytest.approx(0.0, abs=1e-8)
    # lam * diam < 1: the distance is the diameter, never beyond it
    assert dst.prokhorov(two, [1.0, 0.0], [0.0, 1.0], lam=0.25)[0] == 1.0
    # these non-dyadic weights round to one unit less than _FLOW_SCALE
    X = core.random_metric_space(7, seed=1)
    assert dst.prokhorov(X, X.weight, X.weight)[0] == 0.0


def test_prokhorov_flow_count_is_logarithmic(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return maximum_flow(*args, **kwargs)

    monkeypatch.setattr(dst, "maximum_flow", counted)
    X = core.random_metric_space(50, seed=11)
    bound = math.ceil(math.log2(len(np.unique(X.dist)))) + 1
    rng = np.random.default_rng(11)
    for lam in (0.5, 1.0, 2.0):
        mu = rng.random(50)
        mu /= mu.sum()
        nu = rng.random(50)
        nu /= nu.sum()
        calls.clear()
        _, plan = dst.prokhorov(X, mu, nu, lam=lam)
        assert 1 <= len(calls) <= bound
        assert plan.check(X.dist, mu, nu)


def test_prokhorov_gap_does_not_scale_with_inverse_lambda():
    rng = np.random.default_rng(23)
    for t in range(22):
        n = 2 + t % 11
        X = core.random_metric_space(n, seed=4000 + t)
        # masses on a 1/1000 grid round to flow units exactly; random masses
        # do not, but the critical set is priced in floats as the brute force
        # prices it, so neither gap grows with 1 / lambda
        exact = [(rng.multinomial(1000 - n, np.ones(n) / n) + 1) / 1000 for _ in range(2)]
        noisy = [m / m.sum() for m in rng.random((2, n)) + 0.05]
        for lam in (0.1, 1.0, 10.0):
            for mu, nu in (exact, noisy):
                flow, plan = dst.prokhorov(X, mu, nu, lam=lam)
                brute = dst.prokhorov_bruteforce(X, mu, nu, lam=lam)
                assert abs(flow - brute) <= 1e-15, (t, lam, flow, brute)
                assert plan.check(X.dist, mu, nu)


def _count_calls(monkeypatch, name):
    """Calls of ``mm_lab.distances.<name>`` from now on, counted and passed through."""
    calls, original = [], getattr(dst, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dst, name, counted)
    return calls


def _count_flows(monkeypatch):
    return _count_calls(monkeypatch, "maximum_flow")


def test_prokhorov_real_solves_by_table(monkeypatch):
    flows = _count_flows(monkeypatch)
    tables = _count_calls(monkeypatch, "prokhorov_bruteforce")
    rng = np.random.default_rng(5)
    a = core.real_distribution(zip(rng.normal(size=6), np.full(6, 1 / 6)))
    b = core.real_distribution(zip(rng.normal(size=6), np.full(6, 1 / 6)))
    assert len(np.union1d(a.positions, b.positions)) == dst._BRUTE_BOUND
    assert dst.prokhorov_real(a, b) > 0.0
    assert len(tables) == 1 and not flows


def test_value_only_callers_solve_no_flow_up_to_12_points(monkeypatch):
    flows = _count_flows(monkeypatch)
    rng = np.random.default_rng(9)
    X, Y = core.random_metric_space(3, seed=1), core.random_metric_space(4, seed=2)
    ms = [m / m.sum() for Z in (X, X, Y, Y) for m in [rng.random(Z.n) + 0.05]]
    res = batteries.lprok_product_check(X, ms[0], ms[1], Y, ms[2], ms[3], mpf.builtin("fp:2"))
    assert res["pass"]
    a = core.real_distribution(zip(rng.normal(size=6), np.full(6, 1 / 6)))
    b = core.real_distribution(zip(rng.normal(size=6), np.full(6, 1 / 6)))
    assert dst.prokhorov_real(a, b) > 0.0
    source = core.random_metric_space(12, seed=3)
    target = core.random_metric_space(3, seed=4)
    cert = dst.concentration_certificate(source, target, np.arange(12) % 3, budget=800)
    assert cert.epsilon_prok > 0.0
    # 3^8 maps: the greedy start and its single-point reassignments
    cert = dst.epsilon_mm_iso_search(core.random_metric_space(8, seed=5), target, seed=1)
    assert cert.eps_prok >= 0.0
    assert not flows


def test_prokhorov_on_at_most_six_points_solves_once(monkeypatch):
    calls = _count_flows(monkeypatch)
    rng = np.random.default_rng(31)
    for t in range(40):
        n = 2 + t % 5
        X = core.random_metric_space(n, seed=6000 + t)
        if t % 2:  # tied distances
            X = core.validate_space({"dist": np.ceil(X.dist * 4) / 4 * (1 - np.eye(n)),
                                     "weight": X.weight})
        mu, nu = (m / m.sum() for m in rng.random((2, n)) + 0.05)
        lam = (0.1, 0.5, 1.0, 2.0)[t % 4]
        calls.clear()
        eps, plan = dst.prokhorov(X, mu, nu, lam=lam)
        assert len(calls) == 1
        assert plan.check(X.dist, mu, nu)
        assert abs(eps - dst.prokhorov_bruteforce(X, mu, nu, lam=lam)) <= 1e-15


def _random_caps(rng, n):
    return np.round(rng.dirichlet(np.ones(n)) * dst._FLOW_SCALE).astype(np.int32)


def _assert_stack_matches_single_solves(src, snk, adj):
    flows, blocks = dst._min_cut(src, snk, adj)
    assert flows.dtype == np.int64 and blocks.shape == adj.shape
    for a, flow, block in zip(adj, flows, blocks):
        value, single = min_cut_single(src, snk, a)
        assert flow == value == block.sum(dtype=np.int64)
        # a feasible flow: nonnegative, on the graph's edges, within the capacities
        assert (block >= 0).all() and not block[~a].any()
        assert (block.sum(axis=1) <= src).all() and (block.sum(axis=0) <= snk).all()
        # every maximum flow leaves the same source side of the least cut
        rows, cols = dst._cut_side(src, a, block)
        rows1, cols1 = dst._cut_side(src, a, single)
        assert (rows == rows1).all() and (cols == cols1).all()
    return flows


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 8), st.integers(1, 8))
def test_stacked_min_cut_matches_single_graph_solves(seed, copies, n, m):
    rng = np.random.default_rng(seed)
    adj = rng.random((copies, n, m)) < rng.random((copies, 1, 1))
    adj[rng.random(copies) < 0.25] = False  # copies with no edges
    _assert_stack_matches_single_solves(_random_caps(rng, n), _random_caps(rng, m), adj)


def test_stacked_min_cut_single_copy_and_empty_copies():
    rng = np.random.default_rng(2)
    src, snk = _random_caps(rng, 4), _random_caps(rng, 3)
    full = np.ones((1, 4, 3), dtype=bool)
    for adj in (full, ~full, rng.random((1, 4, 3)) < 0.5, np.zeros((3, 4, 3), dtype=bool)):
        _assert_stack_matches_single_solves(src, snk, adj)


def test_stacked_min_cut_reads_totals_past_int32():
    rng = np.random.default_rng(9)
    n, m = 7, 5
    adj = rng.random((6, n, m)) < 0.6
    adj[0] = True
    adj[3] = False
    flows = _assert_stack_matches_single_solves(_random_caps(rng, n), _random_caps(rng, m), adj)
    assert flows.sum() > 2 ** 31


def _step_predicate(rng, L, monotone):
    """Candidates and a least(k) whose test passes from a random k on, or at random.

    A failing value equals the next candidate, so the test is strict there.
    """
    cands = np.cumsum(rng.random(L) + 0.01)
    passes = np.arange(L) >= rng.integers(0, L + 1) if monotone else rng.random(L) < 0.5
    values = np.where(passes, cands, np.append(cands[1:], np.inf))
    return cands, lambda k: (float(values[k]), ("kept", k))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_batched_first_fit_returns_the_bisection_result(L, seed, monotone):
    cands, least = _step_predicate(np.random.default_rng(seed), L, monotone)
    expected = first_fit_bisect(cands, least)
    for width in range(1, L + 2):
        sizes = []

        def batched(ks):
            assert 1 <= len(ks) <= width and len(set(ks)) == len(ks)
            sizes.append(len(ks))
            return [least(k) for k in ks]

        assert dst._first_fit(cands, batched, width) == expected
        if width >= L:  # every midpoint and the last interval fit one call
            assert len(sizes) == 1


def test_first_fit_width_one_probes_the_bisection_sequence():
    rng = np.random.default_rng(12)
    for L in range(1, 60):
        for monotone in (True, False):
            cands, least = _step_predicate(rng, L, monotone)
            old, new = [], []
            first_fit_bisect(cands, lambda k: old.append(k) or least(k))
            dst._first_fit(cands, lambda ks: new.append(list(ks)) or [least(k) for k in ks])
            assert new == [[k] for k in old]


@given(st.integers(0, 150))
def test_strassen_agreement_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    X = core.random_metric_space(n, seed=3000 + seed)
    mu = rng.random(n) + 0.05
    mu /= mu.sum()
    nu = rng.random(n) + 0.05
    nu /= nu.sum()
    lam = float(rng.choice([0.5, 1.0, 2.0]))
    flow, plan = dst.prokhorov(X, mu, nu, lam=lam)
    brute = dst.prokhorov_bruteforce(X, mu, nu, lam=lam)
    assert flow == pytest.approx(brute, abs=1e-6)
    assert plan.check(X.dist, mu, nu)
    assert plan.deficiency <= lam * flow + 1e-6


def test_bruteforce_symmetric_and_bounded():
    X = core.random_metric_space(4, seed=8)
    rng = np.random.default_rng(8)
    mu = rng.random(4) + 0.1
    mu /= mu.sum()
    nu = rng.random(4) + 0.1
    nu /= nu.sum()
    assert dst.prokhorov_bruteforce(X, mu, nu) == pytest.approx(
        dst.prokhorov_bruteforce(X, nu, mu), abs=1e-9)
    with pytest.raises(TooLarge):
        dst.prokhorov_bruteforce(core.random_metric_space(13, seed=1),
                                 np.full(13, 1 / 13), np.full(13, 1 / 13))


def _prokhorov_case(rng, n):
    """A space of n points, two measures and lambda, with the ties the table must price.

    Half the spaces are graph metrics of quarter-multiple edges, so distances
    tie; masses are random or eighths, and nu puts 0 or at most ZERO_MASS on
    some points, which its support leaves out.
    """
    if rng.random() < 0.5:
        w = rng.integers(1, 9, size=(n, n)) / 4.0
        dist = floyd_warshall(np.minimum(w, w.T), directed=False)
        np.fill_diagonal(dist, 0.0)
    else:
        dist = core.random_metric_space(n, seed=int(rng.integers(1 << 16))).dist
    X = core.validate_space({"dist": dist, "weight": np.full(n, 1.0 / n)})
    mu, nu = ((m + 0.05) / (m + 0.05).sum() if rng.random() < 0.5 else rng.multinomial(8, m / m.sum()) / 8.0
              for m in rng.random((2, n)))
    tiny = (rng.random(n) < 0.3) & (np.arange(n) != np.argmax(nu))
    nu = np.where(tiny, rng.choice([0.0, 5e-16, core.ZERO_MASS], size=n), nu)
    nu[~tiny] /= nu[~tiny].sum()
    return X, mu, nu, float(rng.choice([0.1, 1.0, 10.0]))


def _assert_table_matches_loop_and_lp(X, mu, nu, lam):
    got = dst.prokhorov_bruteforce(X, mu, nu, lam=lam)
    assert got.hex() == prokhorov_bruteforce_loop(X, mu, nu, lam).hex()
    assert abs(got - prokhorov_lp(X.dist, mu, nu, lam)) <= 1e-9


@settings(max_examples=60)
@given(st.integers(1, 10), st.integers(0, 1 << 16))
def test_prokhorov_table_matches_loop_and_lp(n, seed):
    _assert_table_matches_loop_and_lp(*_prokhorov_case(np.random.default_rng(seed), n))


@pytest.mark.parametrize("n, seed", [(11, 0), (11, 1), (11, 2), (12, 0), (12, 1), (12, 2)])
def test_prokhorov_table_matches_loop_and_lp_on_11_and_12_points(n, seed):
    _assert_table_matches_loop_and_lp(*_prokhorov_case(np.random.default_rng(seed), n))


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
def test_prokhorov_rejects_nonpositive_lambda(lam):
    X = core.random_metric_space(3, seed=2)
    for route in (dst.prokhorov, dst.prokhorov_bruteforce, dst._prokhorov_eps):
        with pytest.raises(MMLabError, match="lambda must be positive"):
            route(X, X.weight, X.weight, lam)


@pytest.mark.parametrize("measure", [0.5, ["a", "b", "c"]])
def test_prokhorov_rejects_measures_that_are_not_vectors(measure):
    X = core.random_metric_space(3, seed=2)
    for route in (dst.prokhorov, dst.prokhorov_bruteforce):
        with pytest.raises(MMLabError, match="measure"):
            route(X, measure, X.weight)


@given(st.integers(0, 150))
def test_pushforward_prokhorov_below_ky_fan(seed):
    rng = np.random.default_rng(seed)
    X = core.random_metric_space(int(rng.integers(2, 6)), seed=4000 + seed)
    f = core.project_to_lip1(X, rng.normal(size=X.n) * X.diam)
    g = core.project_to_lip1(X, rng.normal(size=X.n) * X.diam)
    push_f = core.real_distribution(zip(f, X.weight))
    push_g = core.real_distribution(zip(g, X.weight))
    lhs = dst.prokhorov_real(push_f, push_g, lam=1.0)
    assert lhs <= dst.ky_fan(X, f, g) + 1e-6


def test_box_examples():
    one = core.validate_space({"labels": ["z"], "dist": [[0.0]], "weight": [1.0]})
    two = two_point(1.0)
    assert dst.box_distance(two, two) == 0.0
    assert dst.box_distance(one, two) == pytest.approx(0.5)
    assert dst.box_distance(one, two) == dst.box_distance(two, one)
    with pytest.raises(NotRational):
        dst.box_distance(two_point(1.0, w0=1 / 3 + 1e-3), two)


def _rational_space(n, denom, seed):
    rng = np.random.default_rng(seed)
    w = (rng.multinomial(denom - n, np.ones(n) / n) + 1) / denom
    return core.random_metric_space(n, seed=seed).reweighted(w)


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([4, 8]), st.integers(0, 10**6))
def test_box_bound_brackets_exact(nx, ny, denom, seed):
    X = _rational_space(nx, denom, seed)
    Y = _rational_space(ny, 8, seed + 1)
    lower, upper = dst.box_distance(X, Y, mode="bound")
    exact = dst.box_distance(X, Y, mode="exact_tiny")
    assert lower <= exact + 1e-12, (lower, exact)
    assert exact <= upper + 1e-12, (exact, upper)


def _split_atoms(X):
    """Every point twice, at distance zero, each copy with half its mass."""
    idx = np.repeat(np.arange(X.n), 2)
    return core.validate_space({"dist": X.dist[np.ix_(idx, idx)], "weight": X.weight[idx] / 2})


@settings(max_examples=10)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_box_exact_unchanged_by_chunk_refinement(nx, ny, seed):
    X = _rational_space(nx, 4, seed)
    Y = _rational_space(ny, 4, seed + 1)
    coarse = dst.box_distance(X, Y)
    assert dst.box_distance(_split_atoms(X), _split_atoms(Y)) == pytest.approx(coarse, abs=1e-12)


def test_box_symmetry_random():
    rng = np.random.default_rng(3)
    for t in range(5):
        X = core.random_metric_space(3, seed=600 + t)
        Y = core.random_metric_space(3, seed=650 + t)
        mu = (rng.multinomial(5, np.ones(3) / 3) + 1) / 8.0
        nu = (rng.multinomial(5, np.ones(3) / 3) + 1) / 8.0
        A = X.reweighted(mu)
        B = Y.reweighted(nu)
        assert dst.box_distance(A, B) == pytest.approx(dst.box_distance(B, A), abs=1e-12)


def test_box_below_twice_prokhorov():
    rng = np.random.default_rng(5)
    for t in range(6):
        X = core.random_metric_space(4, seed=700 + t)
        mu = (rng.multinomial(4, np.ones(4) / 4) + 1) / 8.0
        nu = (rng.multinomial(4, np.ones(4) / 4) + 1) / 8.0
        b = dst.box_distance(X.reweighted(mu), X.reweighted(nu))
        p, _ = dst.prokhorov(X, mu, nu)
        assert b <= 2 * p + 1e-6


def test_box_product_inequality():
    rng = np.random.default_rng(11)
    for t in range(5):
        spaces = [two_point(float(rng.uniform(0.5, 3.0))) for _ in range(4)]
        res = batteries.box_product_check(*spaces, 2.0)
        assert res["pass"], res
        res_f = batteries.box_product_check(*spaces, mpf.builtin("fexp"))
        assert res_f["pass"], res_f


def _chunked_space(counts, seed, ties=False):
    """Space whose atom i holds counts[i] of sum(counts) equal-mass chunks."""
    n = len(counts)
    X = core.random_metric_space(n, seed=seed)
    if ties:  # every pair at distance 1: many equal discrepancies
        X = core.validate_space({"dist": np.ones((n, n)) - np.eye(n), "weight": np.ones(n) / n})
    return X.reweighted(np.asarray(counts, dtype=float) / sum(counts))


@st.composite
def _chunk_count_pairs(draw):
    k = draw(st.integers(1, 8))

    def counts():
        n = draw(st.integers(1, k))
        cuts = sorted(draw(st.lists(st.integers(1, k - 1), min_size=n - 1, max_size=n - 1,
                                    unique=True))) if n > 1 else []
        return np.diff([0, *cuts, k])
    return counts(), counts()


@settings(max_examples=40)
@given(_chunk_count_pairs(), st.integers(0, 10**6), st.booleans())
def test_box_exact_equals_permutation_loop(margins, seed, ties):
    X = _chunked_space(margins[0], seed, ties)
    Y = _chunked_space(margins[1], seed + 1)
    assert dst.box_distance(X, Y) == box_distance_perm_loop(X, Y)
    assert dst.box_distance(Y, X) == box_distance_perm_loop(Y, X)


def test_box_exact_pinned_cases():
    X = _chunked_space((3, 2, 3), 40)
    assert dst.box_distance(X, X) == box_distance_perm_loop(X, X) == 0.0  # early exit
    for cx, cy in [
        ((1,), (1,)),                # k = 1: no chunk pairs
        ((1,) * 8, (1,) * 8),        # 8 distinct atoms of 1/8: no symmetry
        ((6, 1, 1), (2, 3, 3)),      # lopsided margins
        ((8,), (1,) * 8),
        ((2, 4), (3, 3)),            # thirds against halves: k = 6
    ]:
        X, Y = _chunked_space(cx, 40), _chunked_space(cy, 41)
        assert dst.box_distance(X, Y) == box_distance_perm_loop(X, Y)
        assert dst.box_distance(Y, X) == box_distance_perm_loop(Y, X)


def test_box_exact_stops_at_a_zero_first_coupling(monkeypatch):
    scored = []
    original = dst._subset_diameters

    def counted(d):
        scored.append(d.shape[2])
        return original(d)

    monkeypatch.setattr(dst, "_subset_diameters", counted)
    X = _chunked_space((1,) * 8, 40)
    assert dst.box_distance(X, X) == box_distance_perm_loop(X, X) == 0.0
    assert scored == [1]


@pytest.mark.parametrize("noise, rational", [(1e-9, True), (1e-5, False)])
def test_box_chunking_tolerance_matches_loop(noise, rational):
    # weights within 1e-6 * k of whole chunks still chunk; farther ones do not
    X = core.random_metric_space(3, seed=5).reweighted(np.array([1 / 4 + noise, 1 / 4, 1 / 2 - noise]))
    Y = _chunked_space((1, 3), 6)
    if rational:
        assert dst.box_distance(X, Y) == box_distance_perm_loop(X, Y)
    else:
        for box in (dst.box_distance, box_distance_perm_loop):
            with pytest.raises(NotRational):
                box(X, Y)


def _count_matrices(rx, ry):
    """Integer matrices with row sums rx and column sums ry, listed by itertools.product."""
    rows = [[v for v in itertools.product(*(range(min(r, c) + 1) for c in ry)) if sum(v) == r]
            for r in rx]
    return {m for m in itertools.product(*rows) if tuple(map(sum, zip(*m))) == tuple(ry)}


@pytest.mark.parametrize("rx, ry", [
    ((8,), (8,)), ((8,), (1,) * 8), ((6, 1, 1), (2, 3, 3)), ((2, 3, 3), (6, 1, 1)),
    ((2, 2, 2, 2), (4, 4)), ((3, 3, 2), (1, 2, 2, 3)), ((1, 1, 1, 1), (1, 1, 1, 1)),
    ((1, 2, 1, 3, 1), (2, 2, 2, 2)), ((1,), (1,)), ((4, 4), (3, 3, 2)),
])
def test_chunk_couplings_one_row_per_coupling(rx, ry):
    cx = np.repeat(np.arange(len(rx)), rx)
    cy = np.repeat(np.arange(len(ry)), ry)
    rows = dst._chunk_couplings(cx, cy)
    want = _count_matrices(rx, ry)
    assert rows.shape == (len(want), len(cx))
    assert len({tuple(r) for r in rows}) == len(rows)
    assert (np.sort(rows, axis=1) == cy).all()
    got = set()
    for r in rows:
        m = np.zeros((len(rx), len(ry)), dtype=int)
        np.add.at(m, (cx, r), 1)
        got.add(tuple(map(tuple, m)))
    assert got == want


def test_chunk_couplings_without_symmetry_lists_every_bijection():
    labels = np.arange(8)
    rows = dst._chunk_couplings(labels, labels)
    assert rows.shape == (math.factorial(8), 8)
    assert len({tuple(r) for r in rows}) == math.factorial(8)


def test_epsilon_mm_iso_search():
    two = two_point(1.0)
    cert = dst.epsilon_mm_iso_search(two, two)
    assert cert.eps == pytest.approx(0.0, abs=1e-8)

    stretched = two_point(1.2)
    cert2 = dst.epsilon_mm_iso_search(two, stretched)
    assert cert2.eps == pytest.approx(0.2, abs=1e-6)

    # certified near-isomorphism dominates the box distance
    for t in range(4):
        X = core.random_metric_space(3, seed=800 + t)
        mu = np.array([2, 3, 3]) / 8.0
        A = X.reweighted(mu)
        cert3 = dst.epsilon_mm_iso_search(A, A)
        box = dst.box_distance(A, A)
        assert box <= 3 * cert3.eps + 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_iso_search_walk_keeps_its_objective_and_brackets_the_box(seed):
    # 4^7 maps is past the exhaustive branch: a greedy start, then the walk
    X = _rational_space(7, 8, seed)
    Y = _rational_space(4, 8, seed + 50)
    assert Y.n ** X.n > 4096
    cert = dst.epsilon_mm_iso_search(X, Y, seed=seed)
    p = cert.mapping
    e_dist, dom = dst._least_domain_eps(np.abs(X.dist - Y.dist[np.ix_(p, p)]), X.weight)
    pushed = np.zeros(Y.n)
    np.add.at(pushed, p, X.weight)
    e_prok, _ = dst.prokhorov(Y, pushed, Y.weight)
    assert (cert.eps_distortion, cert.eps_prok) == (e_dist, e_prok)
    assert cert.eps == max(e_dist, e_prok)
    assert np.array_equal(cert.domain, dom)
    lower, upper = dst.box_distance(X, Y, mode="bound", seed=seed)
    exact = dst.box_distance(X, Y, mode="exact_tiny")
    assert upper == 3.0 * cert.eps
    assert lower <= exact + 1e-12 and exact <= upper + 1e-12, (lower, exact, upper)


@st.composite
def _fit_cases(draw):
    """A source of 1-12 points, a target of 1-6 points, random or on a line,
    a map that may leave fibers empty, and observables on the source."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10**6))
    X = core.random_metric_space(n, seed=seed)
    if draw(st.booleans()):
        x = np.sort(np.random.default_rng(seed).random(m) * 3.0)
        Y = core.validate_space({"dist": np.abs(x[:, None] - x[None, :]),
                                 "weight": np.full(m, 1.0 / m)})
    else:
        Y = core.random_metric_space(m, seed=seed + 1)
    hit = draw(st.integers(1, m))  # fibers hit + 1 .. m stay empty
    p = np.array(draw(st.lists(st.integers(0, hit - 1), min_size=n, max_size=n)), dtype=int)
    pool = [row for block in inv._candidate_observables(X, 4, seed) for row in block]
    pool.append(np.random.default_rng(seed).normal(size=n) * X.diam)
    return X, Y, p, pool


@settings(max_examples=100)
@given(_fit_cases())
def test_lip1_target_fit_matches_coordinate_search_oracle(case):
    X, Y, p, pool = case
    for f in pool:
        assert dst._lip1_target_fit(X, Y, p, f) == lip1_target_fit_loop(X, Y, p, f)


def test_certificate_fit_scores_two_starts_per_observable(monkeypatch):
    b = gallery.build_counterexample_1dim(lambda k: mpf.builtin("h1"), 2.0, 3.0,
                                          n=6, N=40, seed=3)
    calls = []
    real_ky_fan = dst.ky_fan

    def counted(*args):
        calls.append(args)
        return real_ky_fan(*args)

    monkeypatch.setattr(dst, "ky_fan", counted)
    cert = dst.concentration_certificate(b.transformed, b.limit_space, b.p_map,
                                         budget=600, seed=3)
    monkeypatch.undo()
    k = cert.meta["samples"]
    # onto a two-point target no coordinate search runs
    assert b.limit_space.n == 2 and len(calls) == 2 * k
    pool = np.vstack(list(inv._candidate_observables(b.transformed, k, 3)))
    assert cert.observables == tuple(
        float(lip1_target_fit_loop(b.transformed, b.limit_space, b.p_map, f)) for f in pool)


def test_lip_up_to_eps():
    X = core.random_metric_space(5, seed=31)
    eps, dom = dst.lip_up_to_eps(np.arange(5), X, X)
    assert eps == 0.0 and len(dom) == 5
    with pytest.raises(MMLabError, match="target index"):
        dst.lip_up_to_eps([-1, 0, 1, 2, 3], X, X)  # no index wraps around

    one = core.validate_space({"labels": ["z"], "dist": [[0.0]], "weight": [1.0]})
    eps1, _ = dst.lip_up_to_eps(np.zeros(5, dtype=int), X, one)
    assert eps1 == 0.0

    # a doubled target metric needs either error or discarded mass
    Y = core.validate_space({"labels": list(X.labels), "dist": 2.0 * X.dist,
                             "weight": X.weight})
    eps2, dom2 = dst.lip_up_to_eps(np.arange(5), X, Y)
    assert eps2 > 0.0
    gap = Y.dist - X.dist
    sub = np.ix_(dom2, dom2)
    assert gap[sub].max(initial=0.0) <= eps2 + 1e-9


@st.composite
def _lip_maps(draw, sizes=(1, 8), targets=(1, 4)):
    """A source of 1-8 points, a target of 1-4 points (or the ``sizes`` and
    ``targets`` ranges) and a map between them.

    Half the cases put both metrics on a half-integer grid, so gaps tie with
    each other; the weights are ratios of small integers.
    """
    n, m = draw(st.integers(*sizes)), draw(st.integers(*targets))
    seed, ties = draw(st.integers(0, 10**6)), draw(st.booleans())
    X = core.random_metric_space(n, seed=seed)
    Y = core.random_metric_space(m, seed=seed + 1)
    w = np.array(draw(st.lists(st.integers(1, 8), min_size=n, max_size=n)), dtype=float)
    w /= w.sum()
    if ties:
        X = core.validate_space({"dist": np.ceil(X.dist * 2) / 2 * (1 - np.eye(n)), "weight": w})
        Y = core.validate_space({"dist": np.ceil(Y.dist * 2) / 2 * (1 - np.eye(m)),
                                 "weight": np.full(m, 1.0 / m)})
    else:
        X = X.reweighted(w)
    p = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)), dtype=int)
    return X, Y, p


@settings(max_examples=150)
@given(_lip_maps())
def test_lip_up_to_eps_is_the_least_domain_eps(case):
    X, Y, p = case
    gap = Y.dist[np.ix_(p, p)] - X.dist
    eps, dom = dst.lip_up_to_eps(p, X, Y)
    assert eps == pytest.approx(lip_domain_subset_loop(gap, X.weight), abs=1e-12)
    assert eps <= lip_eps_candidate_scan(gap, X.weight) + 1e-12
    assert gap[np.ix_(dom, dom)].max(initial=0.0) <= eps
    assert 1.0 - X.weight[dom].sum() <= eps + 1e-12
    grid = (0.1, 0.25, 0.5, 1.0)
    eps_g, _ = dst.lip_up_to_eps(p, X, Y, eps_grid=grid)
    assert eps_g == next((e for e in grid if e >= eps - 1e-12), math.inf)
    distortion = np.abs(gap)
    assert dst._least_domain_eps(distortion, X.weight)[0] == pytest.approx(
        lip_domain_subset_loop(distortion, X.weight), abs=1e-12)


@settings(max_examples=150)
@given(_lip_maps(), st.sampled_from([None, (0.1, 0.25, 0.5, 1.0)]))
def test_min_cut_domain_eps(case, grid):
    X, Y, p = case
    gap = Y.dist[np.ix_(p, p)] - X.dist
    exact = lip_domain_subset_loop(gap, X.weight)
    # the double cover: a valid domain whose eps bounds the least one above
    eps, dom = dst._cut_domain_eps(gap, X.weight, grid)
    assert gap[np.ix_(dom, dom)].max(initial=0.0) <= eps
    assert 1.0 - X.weight[dom].sum() <= eps + 1e-12
    assert eps >= exact - 1e-12
    if Y.n <= 2 and grid is None:
        # two fibers split every violating pair, and the cut is exact
        eps2, dom2 = dst._cut_domain_eps(gap, X.weight, left=p == 0)
        assert eps2 == pytest.approx(exact, abs=1e-12)
        assert gap[np.ix_(dom2, dom2)].max(initial=0.0) <= eps2
        assert 1.0 - X.weight[dom2].sum() <= eps2 + 1e-12


@settings(max_examples=40, deadline=None)
@given(_lip_maps(sizes=(17, 30), targets=(2, 2)), st.floats(0.0, 1.0))
def test_two_fiber_min_cut_cover_is_least(case, q):
    X, Y, p = case
    gap = Y.dist[np.ix_(p, p)] - X.dist
    thr = float(np.quantile(gap[gap >= 0], q))
    viol = gap > thr
    eps, dom = dst._cut_domain_eps(gap, X.weight, [thr], left=p == 0)
    assert not viol[np.ix_(dom, dom)].any()
    least = _min_cover_mass_bnb(viol, X.weight)
    assert 1.0 - X.weight[dom].sum() == pytest.approx(least, abs=1e-12)
    assert eps == pytest.approx(max(thr, least), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(_lip_maps(sizes=(17, 30)), st.sampled_from([None, (0.1, 0.25, 0.5, 1.0)]), st.booleans())
def test_cut_domain_eps_matches_the_one_solve_per_probe_bisection(case, grid, split):
    X, Y, p = case
    gap = Y.dist[np.ix_(p, p)] - X.dist
    left = p == 0 if split else None
    eps, dom = dst._cut_domain_eps(gap, X.weight, grid, left)
    eps1, dom1, _ = cut_domain_eps_bisect(gap, X.weight, grid, left)
    assert eps == eps1 and dom.tolist() == dom1.tolist()


def _points_space(pts):
    return core.validate_space({"dist": np.linalg.norm(pts[:, None] - pts[None, :], axis=-1),
                                "weight": np.full(len(pts), 1 / len(pts))})


def _fibers_at_distance_two():
    # two fibers of 160 points at distance 2 whose cross pairs mostly sit
    # closer than 2: the violation graphs have more edges than a stack takes
    X = _points_space(np.random.default_rng(4).normal(size=(320, 3)) * 0.4)
    return np.arange(320) % 2, X, two_point(2.0)


def _one_point_moved():
    # only the pairs of the moved point violate: few edges, but a stack
    # would hold 600 x 600 masks
    pts = np.random.default_rng(5).normal(size=(600, 3))
    moved = pts.copy()
    moved[0] += 0.5
    return np.arange(600), _points_space(pts), _points_space(moved)


@pytest.mark.parametrize("make", [_fibers_at_distance_two, _one_point_moved])
def test_lip_up_to_eps_past_the_stack_bounds_solves_as_the_bisection(monkeypatch, make):
    p, X, Y = make()
    gap = Y.dist[np.ix_(p, p)] - X.dist
    left = p == 0 if Y.n <= 2 else None
    sub = gap if left is None else gap[np.ix_(left, ~left)]
    assert dst._stack_width(int((sub > 0).sum()), sub.size) == 1
    eps1, dom1, solves = cut_domain_eps_bisect(gap, X.weight, left=left)
    calls = _count_flows(monkeypatch)
    eps, dom = dst.lip_up_to_eps(p, X, Y)
    assert len(calls) == solves > 1
    assert eps == eps1 and dom.tolist() == dom1.tolist()


def test_lip_up_extension_matches_within_ky():
    # any function that is 1-Lipschitz up to an additive error admits a
    # genuine 1-Lipschitz companion within that Ky Fan distance
    rng = np.random.default_rng(17)
    for t in range(6):
        X = core.random_metric_space(6, seed=900 + t)
        f = core.project_to_lip1(X, rng.normal(size=6) * X.diam)

        # case 1: additive error on the full domain
        eps = 0.15 * X.diam
        noisy = f + rng.uniform(0.0, eps / 2, size=6)
        gap = np.abs(noisy[:, None] - noisy[None, :]) - X.dist
        np.fill_diagonal(gap, 0.0)
        assert gap.max() <= eps  # 1-Lipschitz up to eps everywhere
        dom = np.arange(6)
        ext = core.mcshane_extend(X, dom, noisy[dom])
        assert core.lip_constant(X, ext) <= 1.0 + 1e-9
        assert dst.ky_fan(X, noisy, ext) <= eps + 1e-9

        # case 2: one spoiled point excluded from the domain
        spoiled = f.copy()
        spoiled[0] += 0.4 * X.diam
        dom = np.arange(1, 6)
        eps_dom = float(X.weight[0])
        ext2 = core.mcshane_extend(X, dom, spoiled[dom])
        assert core.lip_constant(X, ext2) <= 1.0 + 1e-9
        assert dst.ky_fan(X, spoiled, ext2) <= eps_dom + 1e-9


def test_lprok_product_check_random():
    rng = np.random.default_rng(23)
    for t in range(6):
        X = core.random_metric_space(3, seed=1000 + t)
        Y = core.random_metric_space(3, seed=2000 + t)
        ms = []
        for Z in (X, X, Y, Y):
            v = rng.random(Z.n) + 0.1
            ms.append(v / v.sum())
        F = mpf.builtin("fp:2") if t % 2 else mpf.builtin("fexp")
        res = batteries.lprok_product_check(X, ms[0], ms[1], Y, ms[2], ms[3], F,
                                            lam=[0.5, 1.0, 2.0][t % 3])
        assert res["pass"], res


def test_certificate_identity_and_collapse():
    X = core.random_metric_space(4, seed=55)
    cert = dst.concentration_certificate(X, X, np.arange(4), budget=800, seed=1)
    assert cert.overall <= 1e-6

    two = two_point(2.0)
    one = core.validate_space({"labels": ["z"], "dist": [[0.0]], "weight": [1.0]})
    collapse = dst.concentration_certificate(two, one, np.zeros(2, dtype=int),
                                             budget=800, seed=1)
    # the anchor observable keeps a two-point space visibly non-trivial:
    # any constant stays at Ky Fan distance at least the far atom mass
    assert collapse.epsilon_haus >= 0.5 - 1e-9


@pytest.mark.parametrize("budget", [2500.0, True, -5, 0, float("nan")])
def test_certificate_budget_must_be_a_positive_integer(budget):
    X = core.random_metric_space(12, seed=1)
    with pytest.raises(MMLabError, match="budget"):
        dst.concentration_certificate(X, X, np.arange(12), budget=budget)


def test_certificate_reproducible():
    X = core.random_metric_space(9, seed=66)
    Y = core.random_metric_space(3, seed=67)
    p = np.arange(9) % 3
    a = dst.concentration_certificate(X, Y, p, budget=600, seed=4)
    b = dst.concentration_certificate(X, Y, p, budget=600, seed=4)
    assert (a.epsilon_lip, a.epsilon_prok, a.epsilon_haus) == \
        (b.epsilon_lip, b.epsilon_prok, b.epsilon_haus)

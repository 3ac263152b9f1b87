import itertools

import numpy as np
import pytest

from mm_lab import core, mpf
from mm_lab.errors import MetricViolation, MMLabError, NotLipschitz
from mm_lab.product import ProductSpec, levy_projection, lp_product, metric_transform, product


def two_point(d, w0=0.5):
    return core.validate_space({"labels": ["x0", "x1"],
                                "dist": [[0, d], [d, 0]], "weight": [w0, 1 - w0]})


def test_product_345():
    prod = lp_product(two_point(3.0), two_point(4.0), 2.0)
    assert prod.n == 4
    i = prod.labels.index("x0⊗x0")
    j = prod.labels.index("x1⊗x1")
    assert prod.dist[i, j] == pytest.approx(5.0)
    assert prod.weight[i] == pytest.approx(0.25)


def test_product_max_metric():
    x, y = two_point(2.0), two_point(3.0)
    prod = lp_product(x, y, float("inf"))
    # every product distance is the max of the factor distances
    for (i1, j1), (i2, j2) in itertools.combinations(list(itertools.product([0, 1], repeat=2)), 2):
        a = prod.labels.index(f"x{i1}⊗x{j1}")
        b = prod.labels.index(f"x{i2}⊗x{j2}")
        want = max(x.dist[i1, i2], y.dist[j1, j2])
        assert prod.dist[a, b] == pytest.approx(want)


def test_product_three_factors_cyclic():
    xs = [two_point(1.0), two_point(2.0), two_point(3.0)]
    prod = product(ProductSpec(tuple(xs), mpf.builtin("fcyc"), check_samples=0))
    a = prod.labels.index("x0⊗x0⊗x0")
    b = prod.labels.index("x1⊗x1⊗x1")
    assert prod.dist[a, b] == pytest.approx(5.0)  # max{1+2, 2+3, 3+1}


def test_product_surfaces_metric_violation():
    line = core.validate_space({"labels": list("abc"),
                                "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                                "weight": [1 / 3] * 3})
    single = core.validate_space({"labels": ["z"], "dist": [[0.0]], "weight": [1.0]})
    squared = mpf.power_sum(2.0, arity=2)
    with pytest.raises(MetricViolation):
        product(ProductSpec((line, single), squared, check_samples=0))


def test_metric_transform_examples():
    s5 = two_point(5.0)
    assert metric_transform(s5, mpf.identity()).dist[0, 1] == pytest.approx(5.0)
    assert metric_transform(s5, mpf.builtin("h1")).dist[0, 1] == pytest.approx(1.0)
    assert metric_transform(s5, mpf.min_clamp(2.0)).dist[0, 1] == pytest.approx(2.0)


def test_metric_transform_composition_associative():
    X = core.random_metric_space(5, seed=4)
    F, G = mpf.builtin("h1"), mpf.min_clamp(2.0)
    FG = mpf.combine("compose", [F, G, None])
    once = metric_transform(X, FG)
    twice = metric_transform(metric_transform(X, G), F)
    assert np.allclose(once.dist, twice.dist, atol=1e-12)


def test_minkowski_ordering_of_products():
    rng = np.random.default_rng(1)
    for trial in range(5):
        x = core.random_metric_space(3, seed=trial)
        y = core.random_metric_space(2, seed=100 + trial)
        p2 = lp_product(x, y, 2.0, check_samples=0)
        p1 = lp_product(x, y, 1.0, check_samples=0)
        assert (p2.dist <= p1.dist + 1e-12).all()


def test_set_distance_product_formula_for_isotone():
    # min cross-set product distance factorizes through an isotone descriptor
    x = core.random_metric_space(3, seed=11)
    y = core.random_metric_space(3, seed=12)
    F = mpf.builtin("fexp")
    prod = product(ProductSpec((x, y), F, check_samples=0))

    def min_cross(A, B, dist):
        return min(dist[a, b] for a in A for b in B)

    for A in [(0,), (0, 1)]:
        for A2 in [(2,), (1, 2)]:
            for B in [(0,), (0, 2)]:
                for B2 in [(1,), (1, 2)]:
                    AB = [a * y.n + b for a in A for b in B]
                    AB2 = [a * y.n + b for a in A2 for b in B2]
                    got = min_cross(AB, AB2, prod.dist)
                    want = float(F(min_cross(A, A2, x.dist), min_cross(B, B2, y.dist)))
                    assert got == pytest.approx(want, abs=1e-9)


def test_levy_projection():
    x = two_point(1.0)
    y = two_point(3.0)
    prod = lp_product(x, y, 1.0)
    # observable ignoring the second factor projects to itself
    f = core.as_lip(prod, np.array([0.0, 0.0, 1.0, 1.0]), lip_const=1.0)
    g = levy_projection(f, x, y, factor="first", p=1.0)
    assert np.allclose(g.values, [0.0, 1.0])
    assert g.lip_const == 1.0

    # distance to a product corner projects to d_X(., x0) + lm(d_Y(., y0))
    vals = prod.dist[0]
    f2 = core.as_lip(prod, vals, lip_const=1.0)
    g2 = levy_projection(f2, x, y, factor="first", p=1.0)
    assert np.allclose(g2.values, x.dist[0] + 1.5)

    const = core.as_lip(prod, np.full(4, 2.5), lip_const=1.0)
    gc = levy_projection(const, x, y, factor="second", p=1.0)
    assert np.allclose(gc.values, 2.5)

    bad = core.LipFunction(values=np.array([0.0, 0.0, 5.0, 5.0]), lip_const=1.0)
    with pytest.raises(NotLipschitz):
        levy_projection(bad, x, y, factor="first", p=1.0)


def test_levy_projection_output_is_lipschitz():
    rng = np.random.default_rng(5)
    x = core.random_metric_space(3, seed=21)
    y = core.random_metric_space(3, seed=22)
    prod = lp_product(x, y, 2.0, check_samples=0)
    raw = core.project_to_lip1(prod, rng.normal(size=prod.n))
    f = core.as_lip(prod, raw)
    g = levy_projection(core.as_lip(prod, raw, lip_const=1.0), x, y, p=2.0)
    assert core.lip_constant(x, g.values) <= 1.0 + 1e-9


@pytest.mark.parametrize("check_samples", [2.5, True, np.True_, "100"])
def test_product_rejects_non_integer_check_samples(check_samples):
    x = core.random_metric_space(2, seed=1)
    with pytest.raises(MMLabError, match="check_samples must be an integer"):
        product(ProductSpec((x, x), mpf.lp(2.0), check_samples=check_samples))


def test_product_rejects_negative_check_samples():
    x = core.random_metric_space(2, seed=1)
    with pytest.raises(MMLabError, match="check_samples must be >= 0"):
        product(ProductSpec((x, x), mpf.lp(2.0), check_samples=-1))


@pytest.mark.parametrize("check_samples", [0, 50, np.int32(50)])
def test_product_accepts_integer_check_samples(check_samples):
    x = core.random_metric_space(2, seed=1)
    prod = product(ProductSpec((x, x), mpf.lp(2.0), check_samples=check_samples))
    assert prod.n == 4

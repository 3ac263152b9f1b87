"""Hand-solvable cases for the benchmark's oracles and tracer.

Run from the repository root:  python -m pytest perfbench
"""
import numpy as np
import pytest

import oracles
from tracing import Tracer


def line(*xs):
    x = np.asarray(xs, dtype=float)
    return np.abs(x[:, None] - x[None, :])


def test_partial_diameter_on_three_atoms():
    v, w = [0.0, 1.0, 3.0], [0.5, 0.25, 0.25]
    assert oracles.partial_diameter(v, w, 0.5) == 0.0
    assert oracles.partial_diameter(v, w, 0.75) == 1.0
    assert oracles.partial_diameter(v, w, 1.0) == 3.0
    # a tie at the left end counts all of its mass
    assert oracles.partial_diameter([2.0, 2.0, 5.0], [0.3, 0.3, 0.4], 0.6) == 0.0


def test_ky_fan_of_constant_offsets():
    w = np.full(4, 0.25)
    f = np.zeros(4)
    assert oracles.ky_fan(w, f, f) == 0.0
    assert oracles.ky_fan(w, f, f + 0.7) == pytest.approx(0.7)
    assert oracles.ky_fan(w, f, f + 1.4) == pytest.approx(1.0)
    assert oracles.ky_fan(w, f, [0.0, 0.0, 0.0, 0.5]) == pytest.approx(0.25)


def test_prokhorov_on_two_points():
    d = line(0.0, 1.0)
    assert oracles.prokhorov_lp(d, [1.0, 0.0], [0.5, 0.5], 1.0) == pytest.approx(0.5)
    assert oracles.prokhorov_lp(d, [1.0, 0.0], [0.5, 0.5], 2.0) == pytest.approx(0.25)
    assert oracles.prokhorov_lp(d, [0.5, 0.5], [0.5, 0.5], 1.0) == 0.0


@pytest.mark.parametrize("shift, lam", [(0.2, 1.0), (0.3, 2.0), (3.0, 1.0), (3.0, 0.5)])
def test_prokhorov_of_a_shifted_point_mass(shift, lam):
    # moving all mass by `shift` costs min(shift, 1 / lam)
    d = line(0.0, shift)
    got = oracles.prokhorov_lp(d, [1.0, 0.0], [0.0, 1.0], lam)
    assert got == pytest.approx(min(shift, 1.0 / lam))


def test_plan_problems():
    d = line(0.0, 1.0)
    mu, nu = [1.0, 0.0], [0.5, 0.5]
    good = np.array([[0.5, 0.0], [0.0, 0.0]])
    assert oracles.plan_problems(d, mu, nu, 1.0, 0.5, good) == []
    far = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert any("beyond" in p for p in oracles.plan_problems(d, mu, nu, 1.0, 0.5, far))
    short = np.array([[0.2, 0.0], [0.0, 0.0]])
    assert any("deficiency" in p for p in oracles.plan_problems(d, mu, nu, 1.0, 0.5, short))


def test_observable_diameter_of_two_points():
    d, w = line(0.0, 1.5), [0.5, 0.5]
    # both atoms are needed at mass 0.6, so the best observable spreads them fully
    assert oracles.observable_diameter_grid(d, w, 0.4, 1.5 / 8) == pytest.approx(1.5)
    assert oracles.observable_diameter_grid(d, w, 0.6, 1.5 / 8) == 0.0


def test_mcshane_rows_are_lipschitz():
    d = line(0.0, 1.0, 2.5, 4.0)
    rows = oracles.mcshane_grid_rows(d, 0.5)
    assert (rows[:, 0] == 0.0).all()
    assert max(oracles.max_lipschitz_excess(d, r) for r in rows) <= 1e-12
    # the extreme functions +-distance-to-the-first-point are in the family
    assert any(np.allclose(r, d[0]) for r in rows)
    assert any(np.allclose(r, -d[0]) for r in rows)


def test_lipschitz_excess_from_coordinates():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    v = x[:, 0] + 5.0  # a coordinate plus a constant offset is 1-Lipschitz
    assert oracles.max_lipschitz_excess_euclidean(x, v, rows=7) <= 1e-12
    assert oracles.max_lipschitz_excess_euclidean(x, 2 * v, rows=7) == pytest.approx(
        oracles.max_lipschitz_excess(d, 2 * v))


def test_bipartite_min_cover():
    assert oracles.bipartite_min_cover(np.zeros((3, 2), bool)) == 0
    assert oracles.bipartite_min_cover(np.ones((1, 4), bool)) == 1
    assert oracles.bipartite_min_cover(np.eye(3, dtype=bool)) == 3
    # a star plus one disjoint edge: the centre and one end of the edge
    star = np.array([[1, 1, 1, 0], [0, 0, 0, 1]], dtype=bool)
    assert oracles.bipartite_min_cover(star) == 2


def test_concentration_function_of_two_points():
    d, w = line(0.0, 1.0), [0.5, 0.5]
    assert oracles.concentration_function(d, w, 0.5) == 0.5
    assert oracles.concentration_function(d, w, 1.0, closed=False) == 0.5
    assert oracles.concentration_function(d, w, 1.0, closed=True) == 0.0
    assert oracles.concentration_function(d, w, 2.0) == 0.0


def test_kappa_distance_on_a_line():
    d, w = line(0.0, 1.0, 2.0, 3.0), np.full(4, 0.25)
    assert oracles.kappa_distance(d, w, [0, 1], [2, 3], 0.25) == 3.0
    assert oracles.kappa_distance(d, w, [0, 1], [2, 3], 0.5) == 1.0


def test_triangle_excess():
    assert oracles.triangle_excess(3.0, 1.0, 1.0) == 1.0
    assert oracles.triangle_excess(1.0, 1.0, 1.0) == -1.0


def test_tracer_counts_internal_calls_and_self_time():
    from mm_lab import core, product as product_fn
    from mm_lab.gallery import two_point
    import importlib
    product = importlib.import_module("mm_lab.product")

    x = two_point(1.0)
    tracer = Tracer()
    tracer.install()
    try:
        product.lp_product(x, x, 2.0, check_samples=0)
        core.validate_space(x)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    # lp_product -> product -> validate_space, plus the direct call
    assert snap["product.product.calls"] == 1
    assert snap["core.validate_space.calls"] == 2
    assert snap["mpf.eval_mpf.calls"] == 1
    assert snap["product.product.self_s"] < snap["product.product.s"]
    assert product_fn is product.product  # uninstall restored the originals
    assert core.validate_space.__module__ == "mm_lab.core"
    assert not hasattr(core.validate_space, "__wrapped__")

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from mm_lab import mpf
from mm_lab.errors import ArityMismatch, MMLabError, NotIncreasing
from oracles import (defect_table_full, defect_table_outer_sum, refine_local_minima_loop,
                     triangle_draws_rejection, triangle_draws_whole_row, triangle_excess)


def test_eval_spot_values():
    assert mpf.builtin("fp:2")(3.0, 4.0) == pytest.approx(5.0)
    assert mpf.builtin("fexp")(0.0, 0.7) == pytest.approx(0.7)
    h1 = mpf.builtin("h1")
    assert h1(2.5) == pytest.approx(1.5)
    assert h1(5.0) == pytest.approx(1.0)
    assert mpf.builtin("falpha:0.5")(4.0, 9.0) == pytest.approx(5.0)
    assert mpf.builtin("fpq:2,4")(1.0, 1.0) == pytest.approx(2.0 ** 0.25)
    assert mpf.builtin("fcyc")(1.0, 2.0, 3.0) == pytest.approx(5.0)
    assert mpf.builtin("petrik")(1.0, 1.0) == pytest.approx(12.0 / 7.0, abs=1e-9)
    g53 = mpf.builtin("gn3:5")
    assert g53(2.0, 0.0) == pytest.approx(2.0)


def test_eval_arity_and_domain():
    with pytest.raises(ArityMismatch):
        mpf.eval_mpf(mpf.builtin("fp:2"), [np.array(1.0)])
    with pytest.raises(MMLabError):
        mpf.eval_mpf(mpf.builtin("fp:2"), [np.array(-1.0), np.array(0.0)])


@pytest.mark.parametrize("token", mpf.GALLERY_TOKENS + ("id", "clamp:2", "dip", "sq"))
def test_eval_mpf_reads_its_arguments_only(token):
    # arguments are not written, the result shares no memory with them, and
    # it has the bits of an evaluation on clipped copies (-0.0 becomes +0.0)
    F = mpf.builtin(token)
    rng = np.random.default_rng(3)
    xs = [rng.random(64) * 8.0 for _ in range(F.arity)]
    for k, x in enumerate(xs):
        # a -0.0 with no negative entry beside it, and one with a tiny one
        x[:3] = (0.0, -0.0, -1e-13 if k else 1.0)
        x.setflags(write=False)
    kept = [x.copy() for x in xs]
    out = mpf.eval_mpf(F, xs)
    assert not any(np.shares_memory(out, x) for x in xs)
    assert all(np.array_equal(x, k) for x, k in zip(xs, kept))
    clipped = [np.maximum(x, 0.0) for x in xs]
    assert out.tobytes() == mpf.eval_mpf(F, clipped).tobytes()


@pytest.mark.parametrize("F", [mpf.maximum(1),
                               mpf.combine("compose", [None, mpf.maximum(1), None])],
                         ids=["max", "compose"])
def test_eval_mpf_never_returns_an_argument(F):
    x = np.array([0.5, 2.0])
    out = mpf.eval_mpf(F, [x])
    assert out is not x and not np.shares_memory(out, x) and np.array_equal(out, x)
    for z in ([-0.0, 1.0], [-0.0, -1e-13]):
        out = mpf.eval_mpf(F, [np.array(z)])
        assert np.array_equal(out, np.maximum(z, 0.0)) and not np.signbit(out).any()


def test_mulholland_matches_closed_forms():
    grid = np.linspace(0.0, 5.0, 20)
    S, T = np.meshgrid(grid, grid)
    m2 = mpf.make_mulholland(mpf.power_sum(2.0, arity=1))
    gap = np.abs(mpf.eval_mpf(m2, [S, T]) - mpf.eval_mpf(mpf.builtin("fp:2"), [S, T]))
    assert gap.max() < 1e-9

    mexp = mpf.make_mulholland(mpf.MPF("expm1", 1))
    gap = np.abs(mpf.eval_mpf(mexp, [S, T]) - mpf.eval_mpf(mpf.builtin("fexp"), [S, T]))
    assert gap.max() < 1e-9

    mq = mpf.builtin("mul:quad")
    assert mq(1.0, 1.0) == pytest.approx(math.sqrt(7.0) - 1.0, abs=1e-9)


def _opaque(phi: mpf.MPF) -> mpf.MPF:
    """phi with every segment behind scale(1, .): the same values, no closed-form inverse."""
    return mpf.piecewise(phi.params["breaks"], [mpf.scale(1.0, seg) for seg in phi.children])


def test_bisected_inverse_does_not_depend_on_its_batch():
    # petrik's generator, but every point bisects; (700, 700) needs the
    # widest bracket, and the other points must not bisect past their own tol
    F = mpf.make_mulholland(_opaque(mpf.petrik_phi()))
    pts = [(0.3, 0.3), (5.0, 5.0), (700.0, 700.0)]
    alone = [mpf.eval_mpf(F, [np.array(s), np.array(t)]) for s, t in pts]
    together = mpf.eval_mpf(F, [np.array([p[0] for p in pts]), np.array([p[1] for p in pts])])
    assert together.tolist() == [float(v) for v in alone]
    # one-point values keep the bits they had under the batch-wide stopping rule
    assert [float(v).hex() for v in alone[:2]] == ["0x1.3333333333000p-1", "0x1.c48c6001f0a00p+2"]


def test_gallery_generators_invert_in_closed_form(monkeypatch):
    F = mpf.builtin("petrik")
    assert F(0.3, 0.3) == 0.6
    assert F(5.0, 5.0) == 50.0 ** 0.5
    calls = []
    bisect = mpf._bisect_inverse
    monkeypatch.setattr(mpf, "_bisect_inverse",
                        lambda f, y: calls.append(np.size(y)) or bisect(f, y))
    for token in mpf.GALLERY_TOKENS:
        assert mpf.check_triangle_triplets(mpf.builtin(token), samples=5000, seed=1).passed
    assert calls == []
    # the counter does see a generator without closed-form segments
    mpf.make_mulholland(_opaque(mpf.petrik_phi()))(0.3, 0.3)
    assert calls


@st.composite
def piecewise_generators(draw):
    """Strictly increasing piecewise generators, continuous or with upward jumps.

    Segments are linear maps or powers s^alpha, which invert in closed form,
    and exactly one s^alpha + a s + c, which does not.  Each segment starts
    where the previous one ends, up to rounding, or above it by a jump.  A
    power segment past 0 takes the alpha that meets its start value, and is
    linear where that alpha is out of [0.3, 4].
    """
    breaks = sorted(draw(st.lists(st.floats(0.05, 8.0), min_size=1, max_size=4, unique=True)))
    edges = [0.0] + breaks
    opaque = draw(st.integers(0, len(breaks)))
    segs, end = [], 0.0
    for j, b in enumerate(edges):
        start = end + (draw(st.sampled_from([0.0, 0.0, 0.5, 2.0])) if j else 0.0)
        a = draw(st.floats(0.2, 4.0))
        alpha = draw(st.floats(0.3, 4.0))
        if j and start > 0 and b != 1.0:
            alpha = math.log(start) / math.log(b)
        power = 0.3 <= alpha <= 4.0 and draw(st.booleans())
        if j == opaque:
            seg = mpf.combine("add_F", [mpf.power_sum(alpha if power else 2.0, arity=1),
                                        mpf.linear(a)])
            seg = mpf.combine("add_F", [seg, mpf.const(start - float(mpf.eval_mpf(seg, [b])))])
        elif power:
            seg = mpf.power_sum(alpha, arity=1)
        else:
            seg = mpf.linear(a, start - a * b)
        segs.append(seg)
        if j < len(breaks):
            end = float(mpf.eval_mpf(seg, [edges[j + 1]]))
    return mpf.piecewise(breaks, segs)


@settings(max_examples=60)
@given(piecewise_generators(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_piecewise_inverse_matches_bisection(phi, fracs):
    breaks = np.asarray(phi.params["breaks"])
    at = phi(breaks)
    # y = 0, phi at every break (the right segment's value), the left
    # segment's value there, the middle of every jump, and points up to phi(12)
    left = [float(mpf.eval_mpf(seg, [b])) for seg, b in zip(phi.children, breaks)]
    y = np.concatenate([[0.0], at, left, (at + left) / 2, np.array(fracs) * phi(12.0)])
    got = mpf._inverse(phi, y)
    want = mpf._bisect_inverse(phi, y)
    assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, want)).all()
    assert got[0] == 0.0 or phi.children[0].kind == "sum"


def test_piecewise_inverse_maps_jumps_to_the_jump_point():
    # s on [0, 1), s + 1 on [1, 2), s^2 from 2: up by 1 at s = 1 and s = 2
    phi = mpf.piecewise([1.0, 2.0], [mpf.identity(), mpf.linear(1.0, 1.0),
                                     mpf.power_sum(2.0, arity=1)])
    y = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 9.0])
    got = mpf._inverse(phi, y)
    assert got.tolist() == [0.0, 0.5, 1.0, 1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 3.0]
    assert np.abs(got - mpf._bisect_inverse(phi, y)).max() <= 1e-12
    assert mpf._inverse(phi, np.array(3.5)).shape == () and float(mpf._inverse(phi, 3.5)) == 2.0


def test_mulholland_rejects_nonincreasing_generator():
    bad = mpf.piecewise([1.0], [mpf.linear(1.0), mpf.linear(-0.5, 1.5)])
    with pytest.raises(NotIncreasing):
        mpf.make_mulholland(bad)
    # a generator is unary
    with pytest.raises(ArityMismatch):
        mpf.make_mulholland(mpf.lp(2.0))


def test_combine_reconstructs_gallery_members():
    grid = np.linspace(0.0, 6.0, 25)
    S, T = np.meshgrid(grid, grid)

    alpha = mpf.combine("add_f", [mpf.power_sum(0.5, arity=1)] * 2)
    want = mpf.eval_mpf(mpf.builtin("falpha:0.5"), [S, T])
    assert np.abs(mpf.eval_mpf(alpha, [S, T]) - want).max() < 1e-12
    assert alpha(4.0, 9.0) == pytest.approx(5.0)

    fpq = mpf.combine("compose", [mpf.power_sum(0.5, arity=1), mpf.lp(2.0), None, None])
    want = mpf.eval_mpf(mpf.builtin("fpq:2,4"), [S, T])
    assert np.abs(mpf.eval_mpf(fpq, [S, T]) - want).max() < 1e-12

    fn3 = mpf.builtin("fn1:3")
    gn = mpf.combine("add_f", [fn3, fn3])
    want = mpf.eval_mpf(mpf.builtin("gn1:3"), [S, T])
    assert np.abs(mpf.eval_mpf(gn, [S, T]) - want).max() < 1e-12

    both = mpf.combine("add_F", [mpf.lp(1.0), mpf.lp(2.0)])
    assert both(3.0, 4.0) == pytest.approx(12.0)

    with pytest.raises(ArityMismatch):
        mpf.combine("add_F", [mpf.lp(2.0), mpf.lp(2.0, arity=3)])


def test_triplet_falsifier_rejects_squaring():
    v = mpf.check_triangle_triplets(mpf.builtin("sq"), samples=2000, seed=0)
    assert not v.passed
    (a, b, c), = [v.counterexample["triplets"][k] for k in range(1)]
    fa, fb, fc = v.counterexample["values"]
    assert fa > fb + fc + 1e-9 or fb > fa + fc + 1e-9 or fc > fa + fb + 1e-9
    assert fa == pytest.approx(a * a)


def test_triplet_falsifier_accepts_minkowski_family():
    for token in ("fp:1", "fp:2", "fp:inf", "h1"):
        v = mpf.check_triangle_triplets(mpf.builtin(token), samples=10_000, seed=1)
        assert v.passed, (token, v.counterexample)


def test_dip_is_metric_preserving_but_not_isotone():
    dip = mpf.builtin("dip")
    assert mpf.check_triangle_triplets(dip, samples=20_000, seed=2).passed
    # not isotone: grows to 2 then drops to 1
    assert dip(1.0, 1.0) > dip(3.0, 3.0)
    # but both axis sections are nondecreasing
    grid = np.linspace(0.0, 5.0, 201)
    vals_s = mpf.eval_mpf(dip, [grid, np.zeros_like(grid)])
    vals_t = mpf.eval_mpf(dip, [np.zeros_like(grid), grid])
    assert (np.diff(vals_s) >= -1e-12).all()
    assert (np.diff(vals_t) >= -1e-12).all()


def test_defect_tables():
    rep = mpf.defect_table(mpf.builtin("fp:2"), D=4.0, h=1 / 32, probe=8.0)
    assert rep.sup_defect == pytest.approx(0.0, abs=1e-12)

    rep = mpf.defect_table(mpf.builtin("gn3:5"), D=4.0, h=1 / 32, probe=16.0)
    i2 = int(round(2.0 * 32))
    assert rep.table[i2, 0] == pytest.approx(1.0, abs=1e-9)
    assert rep.table.min() >= -1e-9

    rep = mpf.defect_table(mpf.builtin("fn1:4"), D=4.0, h=1 / 64, probe=8.0)
    assert rep.table[int(round(2.0 * 64))] == pytest.approx(0.25, abs=1e-9)

    # off-grid breakpoints are caught by the golden refinement
    rep = mpf.defect_table(mpf.builtin("fn1:3"), D=4.0, h=1 / 64, probe=8.0)
    assert rep.table[int(round(2.0 * 64))] == pytest.approx(1.0 / 3.0, abs=1e-6)


def _grid_values(F, extent, h):
    grid = np.arange(int(round(extent / h)) + 1) * h
    if F.arity == 1:
        return grid, mpf.eval_mpf(F, [grid])
    return grid, mpf.eval_mpf(F, list(np.meshgrid(grid, grid, indexing="ij")))


def _polished(F, grid, vals):
    """``vals`` with the cells of the lockstep polish overlaid on a copy."""
    cells, values = mpf._polish_local_minima(F, grid, vals)
    out = vals.copy()
    out[cells] = values
    return out


def _count_eval_calls(monkeypatch):
    """Route mpf.eval_mpf through a counter of top-level calls and their sizes.

    A call's size is the element count of its broadcast arguments.  Nested
    calls (piecewise segments, generator inverses) run at depth > 1 and are
    not counted.
    """
    sizes, depth = [], [0]
    inner = mpf.eval_mpf

    def counting(F, args):
        if depth[0] == 0:
            sizes.append(math.prod(np.broadcast_shapes(*(np.shape(a) for a in args))))
        depth[0] += 1
        try:
            return inner(F, args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(mpf, "eval_mpf", counting)
    return sizes


def _vee(c, tilt):
    """|s + t - c| + 2 - tilt * s: a valley along an anti-diagonal."""
    fold = mpf.piecewise([c], [mpf.linear(-1.0, c), mpf.linear(1.0, -c)])
    return mpf.combine("add_F", [
        mpf.combine("compose", [fold, mpf.combine("add_f", [mpf.identity()] * 2), None, None]),
        mpf.combine("add_f", [mpf.linear(-tilt, 2.0), mpf.const(0.0)])])


# sine_taper in two variables, dip(s, t) plus a tilted valley along
# s + t = 3.02, off the grid, whose polished values depend on sweeping x
# before y, and a sum through petrik's bisected generator inverse, whose
# polish matches only if a point's inverse does not depend on the other
# points of its batch
_CUSTOM_2D = {
    "h2+h2": mpf.combine("add_f", [mpf.builtin("h2"), mpf.builtin("h2")]),
    "dip+tilt": mpf.combine("add_F", [mpf.builtin("dip"), _vee(3.02, 0.1)]),
    "dip+petrik-fp:inf/2": mpf.combine("add_F", [
        mpf.builtin("dip"), mpf.builtin("petrik"), mpf.scale(-0.5, mpf.builtin("fp:inf"))]),
}


@pytest.mark.parametrize("token", [
    "h1", "h2", "fn1:3", "fn2:4", "fn3:5", "clamp", "sq",
    "fp:1", "fp:2", "fp:inf", "fexp", "falpha:0.5", "fpq:2,4", "mul:sinh", "mul:quad",
    "petrik", "dip",
    "gn1:1", "gn1:4", "gn1:16", "gn2:1", "gn2:4", "gn2:16", "gn3:1", "gn3:4", "gn3:16",
])
def test_refine_local_minima_matches_loop_oracle(token):
    F = mpf.builtin(token)
    n = int(token.partition(":")[2]) if token.startswith("gn") else 0
    grid, vals = _grid_values(F, max(8.0, n + 8.0), 1 / 16)
    got = _polished(F, grid, vals)
    assert got.tobytes() == refine_local_minima_loop(F, grid, vals).tobytes()


@pytest.mark.parametrize("name", sorted(_CUSTOM_2D))
def test_refine_local_minima_matches_loop_oracle_on_custom_2d(name):
    F = _CUSTOM_2D[name]
    grid, vals = _grid_values(F, 12.0, 1 / 16)
    got = _polished(F, grid, vals)
    assert np.count_nonzero(got != vals) > 1
    assert got.tobytes() == refine_local_minima_loop(F, grid, vals).tobytes()


def test_refine_cell_cap_keeps_the_lowest_cells_in_stable_order():
    # a strict grid minimum on every interior cell of s + t = 6 (95 of them),
    # each with the valley floor s + t = 6.02 in its upper box and lowest at
    # the largest s, so only the 64 lowest are polished
    F = _vee(6.02, 0.1)
    grid, vals = _grid_values(F, 8.0, 1 / 16)
    assert mpf._local_minima(vals)[0].size == 95
    got = _polished(F, grid, vals)
    moved = np.argwhere(got != vals)
    assert len(moved) == mpf._REFINE_CELL_CAP and moved[:, 0].min() == 95 - 64 + 1
    assert got.tobytes() == refine_local_minima_loop(F, grid, vals).tobytes()
    # fp:inf also has 127 minima, on the diagonal, but is isotone: nothing in
    # a cell's upper box lies below it, so the polish moves no value
    F = mpf.builtin("fp:inf")
    grid, vals = _grid_values(F, 8.0, 1 / 16)
    assert mpf._local_minima(vals)[0].size == 127
    assert _polished(F, grid, vals).tobytes() == vals.tobytes()
    # 100 tied minima above the function: the stable sort polishes the first
    # 64 by index
    grid = np.arange(201) / 16
    vals = 10.0 + np.tile([1.0, 0.0], 101)[:201]
    F = mpf.builtin("h2")
    got = _polished(F, grid, vals)
    assert np.array_equal(np.flatnonzero(got != vals), np.arange(1, 129, 2))
    assert got.tobytes() == refine_local_minima_loop(F, grid, vals).tobytes()


def _sum_form(f):
    """f(s) + f(t) as add_F of two add_f parts: the values of add_f([f, f]),
    but a kind that keeps the 2-D grid path."""
    zero = mpf.const(0.0)
    return mpf.combine("add_F", [mpf.combine("add_f", [f, zero]), mpf.combine("add_f", [zero, f])])


def test_defect_table_eval_calls_do_not_grow_with_cells(monkeypatch):
    sizes = _count_eval_calls(monkeypatch)
    # 2-D: the grid, two rounds of an x sweep and a y sweep (24 iterations
    # after two opening probes), and the final values; 1277 local minima
    # on this grid, 64 polished
    mpf.defect_table(_sum_form(mpf.builtin("fn3:5")), D=13.0)
    assert len(sizes) <= 1 + 2 * 2 * (24 + 2) + 1
    # 1-D: the grid, 40 iterations after two opening probes, f(x), f(lo), f(hi)
    sizes.clear()
    mpf.defect_table(mpf.builtin("h2"), D=8.0)
    assert len(sizes) <= 1 + (40 + 2) + 3
    assert min(sizes) > 0


@pytest.mark.parametrize("F, D, h", [
    (mpf.const(1.0), 4.0, 1 / 64),
    (mpf.combine("add_f", [mpf.const(1.0), mpf.const(2.0)]), 4.0, 1 / 16),
    (mpf.builtin("h2"), 1 / 64, 1 / 64),
    (mpf.builtin("dip"), 1 / 16, 1 / 16),
])
def test_refine_without_cells_makes_no_eval_calls(monkeypatch, F, D, h):
    grid, vals = _grid_values(F, D, h)
    sizes = _count_eval_calls(monkeypatch)
    cells, values = mpf._polish_local_minima(F, grid, vals)
    assert sizes == []
    assert values.size == 0 and len(cells) == F.arity and all(c.size == 0 for c in cells)
    rep = mpf.defect_table(F, D=D, h=h)
    # an add_f descriptor evaluates each of its two parts on the 1-D grid
    assert sizes == ([len(grid)] * 2 if F.kind == "add_f" else [vals.size])
    assert rep.sup_defect == 0.0


def test_refine_single_cell_matches_loop_oracle():
    # fn1:4 drops to its plateau at 2.25: one strict grid minimum
    F = mpf.builtin("fn1:4")
    grid, vals = _grid_values(F, 8.0, 1 / 64)
    got = _polished(F, grid, vals)
    assert got.tobytes() == refine_local_minima_loop(F, grid, vals).tobytes()
    F = mpf.builtin("fp:2")
    grid = np.arange(5) / 16
    vals = np.ones((5, 5))
    vals[2, 2] = 0.5
    got = _polished(F, grid, vals)
    assert got[2, 2] < 0.5
    assert got.tobytes() == refine_local_minima_loop(F, grid, vals).tobytes()


def _defect_cases():
    """(name, D, h, probe) cases for the comparison with defect_table_full."""
    cases = []
    named = [t for t in mpf.GALLERY_TOKENS if mpf.builtin(t).arity <= 2] + sorted(_CUSTOM_2D)
    named += [f"{g}:{n}" for g in ("gn1", "gn2", "gn3") for n in (1, 2, 4, 8, 16)]
    named += ["fn1:3", "fn2:4", "fn3:5", "fn1:16"]
    for name in named:
        n = int(name.partition(":")[2]) if name[:2] in ("gn", "fn") else 4
        cases += [(name, 8.0, 1 / 16, n + 8.0), (name, n + 8.0, 1 / 16, n + 8.0)]
    # the classifier's largest table (1537 rows) and an 833-row grid, not a
    # multiple of the 64-row block
    cases += [("gn3:16", 8.0, 1 / 64, 24.0), ("gn2:16", 24.0, 1 / 64, 24.0),
              ("gn3:5", 13.0, 1 / 64, 13.0), ("dip+tilt", 13.0, 1 / 64, 13.0),
              ("fn2:4", 13.0, 1 / 64, 13.0)]
    # grids of 2 rows, without an interior cell, and of 3 rows, with one
    # (0 < h <= D leaves at least 2 rows)
    for name in ("gn3:1", "fp:2", "dip+tilt", "h1"):
        cases += [(name, 1 / 64, 1 / 64, 1 / 64), (name, 1 / 64, 1 / 64, 1 / 32),
                  (name, 1 / 32, 1 / 64, 1 / 32)]
    return cases


@pytest.mark.parametrize("name, D, h, probe", _defect_cases())
def test_defect_table_matches_full_grid_oracle(name, D, h, probe):
    F = _CUSTOM_2D[name] if name in _CUSTOM_2D else mpf.builtin(name)
    rep = mpf.defect_table(F, D=D, h=h, probe=probe)
    if F.kind == "add_f":
        table, sup, sup_probe = defect_table_outer_sum(F, D, h, probe)
    else:
        table, sup = defect_table_full(F, D, h, probe)
        full = table if D == probe else defect_table_full(F, probe, h, probe)[0]
        sup_probe = float(full.max())
    assert rep.table.shape == table.shape and rep.table.tobytes() == table.tobytes()
    assert rep.sup_defect.hex() == sup.hex()
    assert rep.sup_probe.hex() == sup_probe.hex()


@pytest.mark.parametrize("token", [f"{g}:{n}" for g in ("gn1", "gn3") for n in (1, 2, 4, 8, 16)])
def test_separable_defect_matches_the_2d_grid_oracle(token):
    # the classifier's tables: on gn1 and gn3 the outer sum of the 1-D parts
    # has the bits of the 2-D grid, polish and suffix minimum
    n = int(token.partition(":")[2])
    probe, m_D = n + 8.0, 8 * 64
    rep = mpf.defect_table(mpf.builtin(token), D=8.0, h=1 / 64, probe=probe)
    full, _ = defect_table_full(mpf.builtin(token), probe, 1 / 64, probe)
    assert rep.table.tobytes() == full[: m_D + 1, : m_D + 1].tobytes()
    assert rep.sup_defect.hex() == float(full[: m_D + 1, : m_D + 1].max()).hex()
    assert rep.sup_probe.hex() == float(full.max()).hex()


def test_grid_polish_stays_in_the_upper_quadrant():
    # fn2:16(s) + fn2:16(t) on the grid path: the polish used to search below
    # its cell, and a plateau cell at s = 2.015625 brought a value from
    # s = 1.984 into the infimum over the s = 2 cells (sup 0.015624698597635156)
    F = _sum_form(mpf.builtin("fn2:16"))
    rep = mpf.defect_table(F, D=8.0, probe=24.0)
    assert rep.sup_defect == 0.0 and rep.sup_probe == 2.0
    separable = mpf.defect_table(mpf.builtin("gn2:16"), D=8.0, probe=24.0)
    assert rep.table.tobytes() == separable.table.tobytes()


_UNARY_PARTS = ["id", "clamp", "h1", "h2"] + [
    f"fn{k}:{n}" for k in (1, 2, 3) for n in (1, 3, 5, 16)]


@st.composite
def unary_parts(draw):
    kind = draw(st.sampled_from(["token", "linear", "const", "clamp"]))
    if kind == "token":
        return mpf.builtin(draw(st.sampled_from(_UNARY_PARTS)))
    c = draw(st.floats(0.0, 4.0))
    if kind == "linear":
        return mpf.linear(draw(st.floats(0.0, 2.0)), c)
    return mpf.const(c) if kind == "const" else mpf.min_clamp(c)


@settings(max_examples=40, deadline=None)
@given(unary_parts(), unary_parts(), st.sampled_from([1 / 64, 1 / 16, 0.1, 0.25, 0.7]),
       st.integers(1, 160), st.integers(0, 160))
def test_separable_defect_matches_outer_sum_oracle(f, g, h, k_D, k_extra):
    F = mpf.combine("add_f", [f, g])
    D, probe = k_D * h, (k_D + k_extra) * h
    with pytest.MonkeyPatch.context() as mp:
        sizes = _count_eval_calls(mp)
        rep = mpf.defect_table(F, D=D, h=h, probe=probe)
    # no 2-D evaluation: every call is on at most the m + 1 probe grid points
    assert max(sizes) <= int(round(probe / h)) + 1
    table, sup, sup_probe = defect_table_outer_sum(F, D, h, probe)
    assert rep.table.tobytes() == table.tobytes()
    assert rep.sup_defect.hex() == sup.hex() and rep.sup_probe.hex() == sup_probe.hex()


@pytest.mark.parametrize("token, D, probe", [
    ("gn1:16", 8.0, 24.0), ("gn2:16", 24.0, 24.0), ("gn3:5", 13.0, 13.0), ("h2+h2", 8.0, 12.0)])
def test_separable_defect_evaluates_on_the_1d_grid_only(monkeypatch, token, D, probe):
    F = _CUSTOM_2D[token] if token in _CUSTOM_2D else mpf.builtin(token)
    sizes = _count_eval_calls(monkeypatch)
    mpf.defect_table(F, D=D, probe=probe)
    assert sizes and max(sizes) <= int(round(probe * 64)) + 1


def test_defect_table_peak_memory_is_about_one_grid_array():
    # max(fn3:16(s), fn3:16(t)) stays on the grid path and evaluates into one
    # array: out to probe 24 at h = 1/64, 1537^2 cells, 18.9 MB per float64 array
    grid_bytes = 1537 ** 2 * 8
    f = mpf.builtin("fn3:16")
    F = mpf.combine("compose", [None, mpf.maximum(), f, f])
    tracemalloc.start()
    try:
        mpf.defect_table(F, D=8.0, probe=24.0)
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mpf.classify_sequence(mpf.family("gn3"), mpf.family_limit("gn3"),
                              D_list=(4.0, 8.0), n_list=(1, 2, 4, 8, 16))
        classify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table_peak <= 1.5 * grid_bytes
    # the separable route: five 513^2 tables on [0, 8]^2, their stack and the
    # limit test's temporaries, no probe-sized array
    assert classify_peak <= 2 * grid_bytes


def test_limit_is_zero_decides_each_column_alone():
    seqs = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.5, 0.3, 0.25],  # ends at a quarter of its peak
        [1.0, 0.5, 0.3, 0.26],
        [1.0, 0.1, 0.2, 0.2],  # rises on the way
        [1.0, 0.2, 0.2 + 1e-6, 0.2],  # rises by no more than 1e-6
        [0.5, 1.0, 3.0, 1e-6],  # small enough at the end
    ])
    want = [True, True, False, False, True, True]
    assert [bool(mpf._limit_is_zero(s)) for s in seqs] == want
    assert mpf._limit_is_zero(seqs.T).tolist() == want
    assert mpf._limit_is_zero(seqs.T.reshape(4, 2, 3)).tolist() == [want[:3], want[3:]]


@pytest.mark.parametrize("D_list, n_list", [((4.0,), ()), ((), (1, 2))], ids=["no n", "no D"])
def test_classifier_rejects_an_empty_list(D_list, n_list):
    with pytest.raises(MMLabError):
        mpf.classify_sequence(mpf.family("gn1"), mpf.family_limit("gn1"),
                              D_list=D_list, n_list=n_list)


def test_classifier_reproduces_separations():
    n_list = (1, 2, 4, 8)
    D_list = (4.0,)
    expected = {
        "const:fp:2": (True, True, True, True, True),
        "gn1": (False, True, True, True, True),
        "gn2": (False, False, True, True, True),
        "gn3": (False, False, False, False, True),
    }
    for token, want in expected.items():
        v = mpf.classify_sequence(mpf.family(token), mpf.family_limit(token),
                                  D_list=D_list, n_list=n_list)
        got = tuple(v.conditions[k] for k in (1, 2, 3, 4, 5))
        assert got == want, (token, got, v.evidence)
        chain = [v.conditions[k] for k in (1, 2, 3, 4, 5)]
        assert all(chain[i] <= chain[i + 1] for i in range(4))
        assert v.converges_uniformly


_GALLERY_SAMPLED = ["fp:1", "fp:2", "fp:inf", "fexp", "falpha:0.5", "fpq:2,4",
                    "mul:sinh", "mul:quad", "petrik", "h1", "h2"]


@given(st.sampled_from(_GALLERY_SAMPLED), st.integers(0, 400))
def test_lipschitz_like_bound_on_samples(token, seed):
    # |F(s) - F(s')| <= F(|s - s'|) coordinatewise, on random pairs
    F = mpf.builtin(token)
    rng = np.random.default_rng(seed)
    a = rng.random((64, F.arity)) * 6.0
    b = rng.random((64, F.arity)) * 6.0
    fa = mpf.eval_mpf(F, list(a.T))
    fb = mpf.eval_mpf(F, list(b.T))
    fd = mpf.eval_mpf(F, list(np.abs(a - b).T))
    assert (np.abs(fa - fb) <= fd + 1e-9).all()


@given(st.sampled_from(_GALLERY_SAMPLED), st.integers(0, 400))
def test_doubling_bound_on_samples(token, seed):
    # s_i <= 2 s'_i pointwise forces F(s) <= 2 F(s')
    F = mpf.builtin(token)
    rng = np.random.default_rng(seed)
    b = rng.random((64, F.arity)) * 4.0
    a = b * (2.0 * rng.random((64, F.arity)))
    fa = mpf.eval_mpf(F, list(a.T))
    fb = mpf.eval_mpf(F, list(b.T))
    assert (fa <= 2.0 * fb + 1e-9).all()


@given(st.sampled_from(_GALLERY_SAMPLED + ["fcyc"]), st.integers(0, 400))
def test_subadditivity_on_samples(token, seed):
    F = mpf.builtin(token)
    rng = np.random.default_rng(seed)
    a = rng.random((64, F.arity)) * 5.0
    b = rng.random((64, F.arity)) * 5.0
    lhs = mpf.eval_mpf(F, list((a + b).T))
    rhs = mpf.eval_mpf(F, list(a.T)) + mpf.eval_mpf(F, list(b.T))
    assert (lhs <= rhs + 1e-9).all()


def test_petrik_generator_breaks_log_exp_convexity():
    # the generator passes the falsifier even though log-phi-exp convexity
    # fails at sampled points, which separates it from the convexity route
    phi = mpf.petrik_phi()
    x = np.linspace(-1.0, 1.5, 101)
    g = np.log(phi(np.exp(x)))
    second = g[:-2] - 2 * g[1:-1] + g[2:]
    assert second.min() < -1e-6
    v = mpf.check_triangle_triplets(mpf.builtin("petrik"), samples=20_000, seed=3)
    assert v.passed


_COMPOSE = mpf.combine("compose", [mpf.power_sum(0.5, arity=1), mpf.lp(2.0), None, None])


def test_descriptor_json_round_trip():
    tokens = ("fp:2", "h1", "gn3:5", "mul:quad", "petrik", "fcyc", "dip",
              "mul:sinh", "mul:power,3", "mul:exp")
    opaque = mpf.make_mulholland(_opaque(mpf.petrik_phi()))
    for F in [mpf.builtin(t) for t in tokens] + [_COMPOSE, opaque]:
        back = mpf.mpf_from_json(json.loads(json.dumps(mpf.mpf_to_json(F))))
        assert back == F
        rng = np.random.default_rng(0)
        args = [rng.random(32) * 5.0 for _ in range(F.arity)]
        assert np.array_equal(mpf.eval_mpf(F, args), mpf.eval_mpf(back, args))
    # a generator and a compose map are children like every sub-descriptor
    assert mpf.mpf_to_json(mpf.builtin("mul:sinh")) == {
        "kind": "mulholland", "arity": 2, "children": [{"kind": "sinh", "arity": 1}]}
    assert mpf.mpf_to_json(_COMPOSE) == {
        "kind": "compose", "arity": 2, "children": [
            {"kind": "power_sum", "arity": 1, "alpha": 0.5},
            {"kind": "lp", "arity": 2, "p": 2.0}, None, None]}


@pytest.mark.parametrize("record", [
    {"kind": "mulholland", "arity": 2, "phi": {"name": "sinh", "params": {}}},
    {"kind": "compose", "arity": 2, "outer": None,
     "children": [{"kind": "lp", "arity": 2, "p": 2.0}, None, None]},
], ids=["phi", "outer"])
def test_descriptor_json_rejects_a_sub_descriptor_outside_children(record):
    with pytest.raises(MMLabError, match="outside 'children'"):
        mpf.mpf_from_json(record)


def test_verdict_zero_locus_check():
    v = mpf.check_triangle_triplets(mpf.builtin("fp:2"), samples=100, seed=0)
    assert v.zero_ok
    # a clamp with positive floor everywhere fails the vanishing check
    shifted = mpf.linear(0.0, 1.0)
    v2 = mpf.check_triangle_triplets(shifted, samples=100, seed=0)
    assert not v2.zero_ok


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -1.0])
def test_check_triangle_triplets_rejects_bad_horizon(horizon):
    with pytest.raises(MMLabError, match="horizon must be finite and positive"):
        mpf.check_triangle_triplets(mpf.builtin("fp:2"), samples=10, horizon=horizon)


@pytest.mark.parametrize("samples", [2.5, np.float64(3.0), True, False, np.True_, "10", None])
def test_check_triangle_triplets_rejects_non_integer_samples(samples):
    with pytest.raises(MMLabError, match="samples must be an integer"):
        mpf.check_triangle_triplets(mpf.builtin("fp:2"), samples=samples)


@pytest.mark.parametrize("samples", [0, -3, np.int64(0)])
def test_check_triangle_triplets_rejects_fewer_than_one_sample(samples):
    with pytest.raises(MMLabError, match="samples must be >= 1"):
        mpf.check_triangle_triplets(mpf.builtin("fp:2"), samples=samples)


@pytest.mark.parametrize("samples", [10, np.int64(10), np.uint8(10)])
def test_check_triangle_triplets_accepts_python_and_numpy_integers(samples):
    v = mpf.check_triangle_triplets(mpf.builtin("fp:2"), samples=samples)
    assert v.passed and v.samples_run == 18


@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("horizon", [8.0, 3.7, 1.0, 0.3])
def test_triangle_draws_are_triangle_triplets_in_the_box(arity, horizon):
    x = mpf._triangle_draws(np.random.default_rng(arity), arity, 5000, horizon)
    assert x.shape == (arity, 3, 5000)
    assert x.min() >= 0.0 and x.max() <= horizon
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    assert ((a <= b + c) & (b <= a + c) & (c <= a + b)).all()


def _triplet_statistics(rows):
    """a, b, c, max(a, b, c) and a + b + c of an (m, 3) block of triplets."""
    return {"a": rows[:, 0], "b": rows[:, 1], "c": rows[:, 2],
            "max": rows.max(axis=1), "sum": rows.sum(axis=1)}


def _assert_same_marginals(new, old):
    # per coordinate, each marginal of the fold against a rejection oracle's;
    # 5 statistics x 6 coordinates per oracle, each at a 1e-4 level
    assert new.shape == old.shape
    for k in range(new.shape[0]):
        ours = _triplet_statistics(new[k].T)
        theirs = _triplet_statistics(old[k].T)
        for name in ours:
            p = ks_2samp(ours[name], theirs[name]).pvalue
            assert p > 1e-4, (k, name, p)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_triangle_draws_match_the_whole_row_sampler(arity):
    m = 20_000
    new = mpf._triangle_draws(np.random.default_rng(40 + arity), arity, m, 8.0)
    old = triangle_draws_whole_row(np.random.default_rng(50 + arity), arity, m, 8.0)
    assert old.shape == (m, arity, 3)
    _assert_same_marginals(new, old.transpose(1, 2, 0))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_triangle_draws_match_the_per_coordinate_rejection_sampler(arity):
    m = 20_000
    new = mpf._triangle_draws(np.random.default_rng(40 + arity), arity, m, 8.0)
    old = triangle_draws_rejection(np.random.default_rng(60 + arity), arity, m, 8.0)
    _assert_same_marginals(new, old)


def test_fold_fixes_the_cone_and_maps_each_corner_by_its_reflection():
    # on the 2^-53 grid the fold is exact: (a, b, c) -> (a, a - c, a - b)
    # on the corner a > b + c, and the identity on the cone
    u = np.random.default_rng(5).random((3, 30_000))
    x = mpf._triangle_draws(np.random.default_rng(5), 1, 30_000, 1.0)[0]
    a, b, c = u
    for j, (p, q, r) in enumerate([(a, b, c), (b, a, c), (c, a, b)]):
        corner = p > q + r
        assert corner.any()
        assert np.array_equal(x[j, corner], p[corner])
        folded = [p[corner] - r[corner], p[corner] - q[corner]]
        assert np.array_equal(x[[k for k in range(3) if k != j]][:, corner], np.array(folded))
    cone = (a <= b + c) & (b <= a + c) & (c <= a + b)
    assert np.array_equal(x[:, cone], u[:, cone])


def test_triangle_draws_coordinates_are_uncorrelated():
    m = 50_000
    x = mpf._triangle_draws(np.random.default_rng(9), 3, m, 8.0)
    cols = np.concatenate([x, x.sum(axis=1, keepdims=True)], axis=1)  # (3, 4, m)
    r = np.corrcoef(cols.reshape(12, m))
    for j in range(3):
        for k in range(j + 1, 3):
            block = r[4 * j: 4 * j + 4, 4 * k: 4 * k + 4]
            assert np.abs(block).max() < 5.0 / math.sqrt(m), (j, k, block)


@pytest.mark.parametrize("samples", [1, 3000])
@pytest.mark.parametrize("token", mpf.GALLERY_TOKENS)
def test_samples_run_counts_the_boundary_rows(token, samples):
    v = mpf.check_triangle_triplets(mpf.builtin(token), samples=samples, seed=3)
    assert v.passed and v.samples_run == samples + 8


def _spike():
    """The identity with a tent of height 3 over [5, 5.6]: not metric preserving,
    yet the identity at every boundary value 0, 0.5, 1, 2, 4 and 8."""
    return mpf.piecewise([5.0, 5.3, 5.6], [mpf.identity(), mpf.linear(11.0, -50.0),
                                           mpf.linear(-9.0, 56.0), mpf.identity()])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_falsifier_catches_a_violation_the_boundary_rows_miss(seed):
    F = _spike()
    edges = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(mpf.eval_mpf(F, [edges]), edges)
    v = mpf.check_triangle_triplets(F, samples=10_000, seed=seed)
    assert not v.passed and v.samples_run == 10_008
    (a, b, c), = v.counterexample["triplets"]
    assert triangle_excess(a, b, c) <= 1e-12
    values = (F(a), F(b), F(c))
    assert values == v.counterexample["values"]
    assert triangle_excess(*values) == v.counterexample["slack"] > 1e-9
    # the witness is the first violating row of the first batch
    x = mpf._triangle_draws(np.random.default_rng(seed), 1, 10_000, 8.0)[0]
    fx = mpf.eval_mpf(F, [x])
    first = next(i for i in range(x.shape[1]) if triangle_excess(*fx[:, i]) > 1e-9)
    assert (a, b, c) == tuple(x[:, first])


def _counting_eval(monkeypatch):
    """Patch mpf.eval_mpf to count its top-level calls and all of its calls."""
    real = mpf.eval_mpf
    calls = {"top": 0, "all": 0, "depth": 0}

    def counted(F, args):
        calls["top"] += calls["depth"] == 0
        calls["all"] += 1
        calls["depth"] += 1
        try:
            return real(F, args)
        finally:
            calls["depth"] -= 1

    monkeypatch.setattr(mpf, "eval_mpf", counted)
    return calls


def _falsifier_eval_calls(monkeypatch, token, samples):
    calls = _counting_eval(monkeypatch)
    v = mpf.check_triangle_triplets(mpf.builtin(token), samples=samples, seed=7)
    assert v.passed
    # the pieces of h1 and of petrik's generator are evaluated without eval_mpf
    assert calls["all"] == calls["top"]
    return calls["top"]


@pytest.mark.parametrize("token", ["fp:2", "h1", "fcyc", "mul:quad", "petrik"])
def test_falsifier_evaluates_each_batch_once(monkeypatch, token):
    # the boundary rows, the seven batches of 1e5 samples, the five zero-locus probes
    assert _falsifier_eval_calls(monkeypatch, token, 100_000) == 1 + 7 + 5


@pytest.mark.parametrize("samples", [1, 16_384, 16_385, 100_000])
def test_falsifier_evaluation_count_follows_the_batches(monkeypatch, samples):
    batches = -(-samples // mpf._BATCH_ROWS)
    assert _falsifier_eval_calls(monkeypatch, "fp:2", samples) == 1 + batches + 5


class _CountingRng:
    """A Generator that counts the uniforms its ``random`` calls return."""

    def __init__(self, rng):
        self.rng = rng
        self.uniforms = 0

    def random(self, size=None, out=None):
        out = self.rng.random(size, out=out)
        self.uniforms += out.size
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("token", ["id", "fp:2", "fcyc"])
def test_falsifier_draws_one_uniform_triplet_per_kept_one(monkeypatch, token):
    made = []
    real = np.random.default_rng

    def counting_rng(seed):
        made.append(_CountingRng(real(seed)))
        return made[-1]

    monkeypatch.setattr(mpf.np.random, "default_rng", counting_rng)
    F = mpf.builtin(token)
    for samples in (1, 20_000, 100_000):
        made.clear()
        v = mpf.check_triangle_triplets(F, samples=samples, seed=7)
        assert v.passed and len(made) == 1
        assert made[0].uniforms == 3 * F.arity * samples


class _PlantedRng(_CountingRng):
    """Its first fill carries a triplet on the boundary of the cone in column 5
    of coordinate 0: a = b + c exactly, but 3.7 a > 3.7 b + 3.7 c in float."""

    TRIPLET = (float.fromhex("0x1.e85e1aad7907ap-1"), float.fromhex("0x1.b17c7d1779e1cp-2"),
               float.fromhex("0x1.0f9fdc21bc16cp-1"))

    def random(self, size=None, out=None):
        first = self.uniforms == 0
        out = super().random(size, out=out)
        if first:
            out[0, :, 5] = self.TRIPLET
        return out


def test_triangle_draws_redraw_a_triplet_that_scaling_pushes_out():
    a, b, c = _PlantedRng.TRIPLET
    assert a == b + c and 3.7 * a > 3.7 * b + 3.7 * c
    rng = _PlantedRng(np.random.default_rng(1))
    x = mpf._triangle_draws(rng, 2, 1000, 3.7)
    assert rng.uniforms == 3 * 2 * 1000 + 3
    a, b, c = x[:, 0], x[:, 1], x[:, 2]
    assert ((a <= b + c) & (b <= a + c) & (c <= a + b)).all()
    assert x.min() >= 0.0 and x.max() <= 3.7
    assert not np.array_equal(x[0, :, 5], 3.7 * np.array(_PlantedRng.TRIPLET))
    # the other columns are the fold of the same stream, as drawn
    plain = mpf._triangle_draws(np.random.default_rng(1), 2, 1000, 3.7)
    assert np.array_equal(np.delete(x, 5, axis=2)[0], np.delete(plain, 5, axis=2)[0])
    assert np.array_equal(x[1], plain[1])


def test_falsifier_batches_stay_small():
    # the 1e5-sample check of the arity-3 fcyc peaks at one batch and its
    # evaluation: the (3, 3, 16 384) stack is 1.2 MB
    F = mpf.builtin("fcyc")
    mpf.check_triangle_triplets(F, samples=1000, seed=7)
    tracemalloc.start()
    try:
        v = mpf.check_triangle_triplets(F, samples=100_000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.passed
    assert peak < 3 * 2 ** 20, peak


def test_falsifier_verdicts_same_across_hash_seeds():
    src = str(Path(mpf.__file__).resolve().parents[1])
    spike = json.dumps(mpf.mpf_to_json(_spike()))
    code = ("import json\n"
            "from mm_lab import mpf\n"
            f"spike = mpf.mpf_from_json(json.loads({spike!r}))\n"
            "Fs = [mpf.builtin(t) for t in mpf.GALLERY_TOKENS + ('sq',)] + [spike]\n"
            "for F in Fs:\n"
            "    v = mpf.check_triangle_triplets(F, samples=100_000, seed=7)\n"
            "    print(v.passed, v.samples_run, v.counterexample, v.zero_note)\n")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        outs.append(run.stdout)
    lines = outs[0].splitlines()
    assert len(lines) == len(mpf.GALLERY_TOKENS) + 2
    assert lines[-2].startswith("False 8 ") and lines[-1].startswith("False 16392 ")
    assert outs[0] == outs[1]

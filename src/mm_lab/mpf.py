"""Metric-preserving function descriptors and their numerical diagnostics.

A descriptor is a small expression tree that evaluates a function
F: [0, inf)^N -> [0, inf) in closed form on numpy arrays.  The module ships a
builtin gallery (l_p sums, exponential sums, piecewise descent functions,
Mulholland generated sums, indexed families with moving bumps), combinators,
a randomized triangle-triplet falsifier, isotone-defect tables, and the
five-condition sequence classifier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import METRIC_TOL, _sample_count
from .errors import ArityMismatch, InconsistentArity, MMLabError, NotIncreasing

_INF = float("inf")
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# descriptor tree

@dataclass(frozen=True)
class MPF:
    """Expression-tree descriptor of an N-ary nonnegative function."""

    kind: str
    arity: int
    params: dict = field(default_factory=dict)
    children: tuple = ()

    def __call__(self, *args):
        squeeze = np.isscalar(args[0]) or np.asarray(args[0]).ndim == 0
        out = eval_mpf(self, list(args))
        return float(out) if squeeze else out


def eval_mpf(F: MPF, args) -> np.ndarray:
    """Evaluate a descriptor on N nonnegative scalar/array arguments."""
    if len(args) != F.arity:
        raise ArityMismatch(f"{F.kind} expects {F.arity} arguments, got {len(args)}")
    xs = [np.asarray(a, dtype=float) for a in args]
    los = [float(x.min(initial=_INF)) for x in xs]
    lo = min(los)
    if lo < -1e-12:
        raise MMLabError(f"negative argument {lo} outside [0, inf)")
    # clip only an argument holding a negative entry or a -0.0; the others
    # are passed as they are, and a result that is one of them is copied
    xs = [x if m > 0.0 or (m == 0.0 and not np.signbit(x).any()) else np.maximum(x, 0.0)
          for x, m in zip(xs, los)]
    out = _eval(F, xs)
    return out.copy() if any(out is x for x in xs) else out


def _eval(F: MPF, xs):
    kind = F.kind
    p = F.params
    if kind == "lp":
        pw = p["p"]
        if pw == _INF:
            out = xs[0]
            for x in xs[1:]:
                out = np.maximum(out, x)
            return np.asarray(out, dtype=float)
        total = sum(x ** pw for x in xs)
        return total ** (1.0 / pw)
    if kind == "exp_log":
        m = xs[0]
        for x in xs[1:]:
            m = np.maximum(m, x)
        acc = sum(np.exp(x - m) for x in xs) - (len(xs) - 1) * np.exp(-m)
        return np.log(acc) + m
    if kind == "power_sum":
        a = p["alpha"]
        return sum(x ** a for x in xs)
    if kind == "pq":
        return sum(x ** p["p"] for x in xs) ** (1.0 / p["q"])
    if kind == "cyc":
        s1, s2, s3 = xs
        return np.maximum(np.maximum(s1 + s2, s2 + s3), s3 + s1)
    if kind == "dip":
        a = p.get("a", 1.0)
        s, t = xs
        rising = np.minimum(s, a) + np.minimum(t, a)
        plateau = 2.0 * a - np.minimum(np.minimum(s - a, t - a), a)
        return np.where((s < a) | (t < a), rising, plateau)
    if kind == "linear":
        return p["a"] * xs[0] + p["b"]
    if kind == "const":
        return np.full_like(xs[0], p["c"])
    if kind == "min_clamp":
        return np.minimum(xs[0], p["c"])
    if kind == "sine_taper":
        s = xs[0]
        safe = np.where(s > 0, s, 1.0)
        return (1.0 + s + np.sin(s - 1.0) ** 2) / (2.0 * safe)
    if kind == "expm1":
        return np.expm1(xs[0])
    if kind == "sinh":
        return np.sinh(xs[0])
    if kind == "quad":
        s = xs[0]
        return s * s + 2.0 * s
    if kind == "piecewise":
        # the points come from eval_mpf's checked arguments or from a generator's
        # breaks and brackets, all nonnegative, so each segment goes straight to
        # _eval without eval_mpf's scan and clip
        s = np.asarray(xs[0], dtype=float)
        idx = np.searchsorted(np.asarray(p["breaks"], dtype=float), s, side="right")
        out = np.empty_like(s)
        for k, seg in enumerate(F.children):
            if seg.arity != 1:
                raise ArityMismatch(f"{seg.kind} expects {seg.arity} arguments, got 1")
            mask = idx == k
            if mask.any():
                out[mask] = _eval(seg, [s[mask]])
        return out
    if kind == "sum":
        return sum(_eval(c, xs) for c in F.children)
    if kind == "add_f":
        return sum(_eval(c, [x]) for c, x in zip(F.children, xs))
    if kind == "scale":
        return p["c"] * _eval(F.children[0], xs)
    if kind == "compose":
        outer, inner, *pre = F.children
        ys = [x if g is None else _eval(g, [x]) for g, x in zip(pre, xs)]
        out = _eval(inner, ys)
        return out if outer is None else _eval(outer, [out])
    if kind == "mulholland":
        phi = F.children[0]
        y = sum(_eval(phi, [x]) for x in xs)
        s = _inverse(phi, y)
        return _bisect_inverse(phi, y) if s is None else s
    raise MMLabError(f"unknown descriptor kind {F.kind!r}")


def _inverse(f: MPF, y):
    """Closed-form inverse of an increasing unary descriptor at y, or None.

    A ``piecewise`` f finds each point's segment by one searchsorted on
    f(breaks) and inverts it there, clipped to the segment, so an upward jump
    inverts to the jump point; a segment without a closed form is bisected.
    """
    p = f.params
    if f.kind == "linear" and p["a"] > 0:
        return (y - p["b"]) / p["a"]
    if f.kind == "power_sum" and p["alpha"] > 0:
        return y ** (1.0 / p["alpha"])
    if f.kind == "expm1":
        return np.log1p(y)
    if f.kind == "sinh":
        return np.arcsinh(y)
    if f.kind == "quad":
        return np.sqrt(y + 1.0) - 1.0
    if f.kind != "piecewise":
        return None
    # side="right" puts y = f(b) on the segment right of b, as _eval puts
    # s = b there
    y = np.asarray(y, dtype=float)
    breaks = np.asarray(p["breaks"], dtype=float)
    seg_of = np.searchsorted(_eval(f, [breaks]), y, side="right")
    edges = np.concatenate([[0.0], breaks, [_INF]])
    out = np.empty_like(y)
    rest = np.zeros(y.shape, dtype=bool)
    for j, seg in enumerate(f.children):
        mask = seg_of == j
        if not mask.any():
            continue
        s = _inverse(seg, y[mask])
        if s is None:
            rest |= mask
        else:
            out[mask] = np.clip(s, edges[j], edges[j + 1])
    if rest.any():
        out[rest] = _bisect_inverse(f, y[rest])
    return out


def _bisect_inverse(f: MPF, y):
    """f^{-1}(y) by bisection on brackets doubled from [0, 1] until they hold y."""
    y = np.asarray(y, dtype=float)
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    for _ in range(80):
        need = _eval(f, [hi]) < y
        if not need.any():
            break
        hi[need] *= 2.0
    # bisect the live points only: a point leaves once its own bracket is
    # within 1e-12, so its value does not depend on the rest of its batch
    lo, hi, y_flat = lo.ravel(), hi.ravel(), y.ravel()
    live = np.flatnonzero(hi - lo > 1e-12)
    a, b, target = lo[live], hi[live], y_flat[live]
    for _ in range(80):
        if not live.size:
            break
        mid = 0.5 * (a + b)
        below = _eval(f, [mid]) < target
        a = np.where(below, mid, a)
        b = np.where(below, b, mid)
        keep = b - a > 1e-12
        if not keep.all():
            lo[live], hi[live] = a, b
            live, a, b, target = live[keep], a[keep], b[keep], target[keep]
    lo[live], hi[live] = a, b
    return (0.5 * (lo + hi)).reshape(y.shape)


# ---------------------------------------------------------------------------
# constructors

def lp(p: float, arity: int = 2) -> MPF:
    return MPF("lp", arity, {"p": float(p)})


def maximum(arity: int = 2) -> MPF:
    return MPF("lp", arity, {"p": _INF})


def exp_log(arity: int = 2) -> MPF:
    return MPF("exp_log", arity)


def power_sum(alpha: float, arity: int = 2) -> MPF:
    return MPF("power_sum", arity, {"alpha": float(alpha)})


def pq(p: float, q: float, arity: int = 2) -> MPF:
    return MPF("pq", arity, {"p": float(p), "q": float(q)})


def cyclic_sum_max() -> MPF:
    return MPF("cyc", 3)


def dip2d(a: float = 1.0) -> MPF:
    return MPF("dip", 2, {"a": float(a)})


def linear(a: float, b: float = 0.0) -> MPF:
    return MPF("linear", 1, {"a": float(a), "b": float(b)})


def identity() -> MPF:
    return linear(1.0, 0.0)


def const(c: float) -> MPF:
    return MPF("const", 1, {"c": float(c)})


def min_clamp(c: float) -> MPF:
    return MPF("min_clamp", 1, {"c": float(c)})


def piecewise(breaks, segments) -> MPF:
    if len(segments) != len(breaks) + 1:
        raise MMLabError("piecewise needs len(breaks) + 1 segments")
    return MPF("piecewise", 1, {"breaks": tuple(float(b) for b in breaks)},
               tuple(segments))


def scale(c: float, F: MPF) -> MPF:
    return MPF("scale", F.arity, {"c": float(c)}, (F,))


def make_mulholland(phi: MPF, arity: int = 2) -> MPF:
    """Descriptor for phi^{-1}(phi(s_1) + ... + phi(s_N)), phi its only child.

    The generator is a unary descriptor that must vanish at 0 and be
    strictly increasing; both are checked on a grid of [0, 10], and a
    NotIncreasing error carries a witness.
    """
    if phi.arity != 1:
        raise ArityMismatch(f"a generator must be unary, got a {phi.kind} of arity {phi.arity}")
    v0 = float(_eval(phi, [np.array(0.0)]))
    if abs(v0) > 1e-12:
        raise MMLabError(f"generator must vanish at 0, got {v0}")
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 10.0, 200)])
    vals = _eval(phi, [grid])
    diffs = np.diff(vals)
    bad = np.nonzero(diffs <= 0)[0]
    if bad.size:
        k = int(bad[0])
        raise NotIncreasing(float(grid[k]), float(grid[k + 1]), float(vals[k]), float(vals[k + 1]))
    return MPF("mulholland", arity, children=(phi,))


def combine(kind: str, parts) -> MPF:
    """Combinators closed under metric preservation.

    add_F sums same-arity descriptors, add_f sums one unary descriptor per
    coordinate, compose builds outer(F(f_1(s_1), ..., f_N(s_N))) from its
    children (outer, F, f_1, ..., f_N), where outer or any f_i may be None.
    """
    parts = list(parts)
    if kind == "add_F":
        arity = parts[0].arity
        if any(f.arity != arity for f in parts):
            raise ArityMismatch("add_F parts must share arity")
        return MPF("sum", arity, children=tuple(parts))
    if kind == "add_f":
        if any(f.arity != 1 for f in parts):
            raise ArityMismatch("add_f parts must be unary")
        return MPF("add_f", len(parts), children=tuple(parts))
    if kind == "compose":
        outer, inner, *pre = parts
        if len(pre) != inner.arity:
            raise ArityMismatch("compose needs one unary map per inner argument")
        if any(g is not None and g.arity != 1 for g in pre):
            raise ArityMismatch("compose pre-maps must be unary")
        if outer is not None and outer.arity != 1:
            raise ArityMismatch("compose outer map must be unary")
        return MPF("compose", inner.arity, children=tuple(parts))
    raise MMLabError(f"unknown combinator {kind!r}")


# ---------------------------------------------------------------------------
# builtin gallery

def descent_h1() -> MPF:
    return piecewise([2.0, 3.0], [identity(), linear(-1.0, 4.0), const(1.0)])


def descent_h2() -> MPF:
    return piecewise([1.0], [identity(), MPF("sine_taper", 1)])


def petrik_phi() -> MPF:
    return piecewise([1.0, 2.0], [linear(5.0 / 3.0), linear(7.0 / 3.0, -2.0 / 3.0),
                                  power_sum(2.0, arity=1)])


def bump_family_1(n: int) -> MPF:
    inv = 1.0 / n
    return piecewise([2.0, 2.0 + inv],
                     [identity(), linear(-1.0, 4.0), const(2.0 - inv)])


def bump_family_2(n: int) -> MPF:
    return piecewise([2.0, n + 2.0, n + 3.0, n + 4.0],
                     [identity(), const(2.0), linear(1.0, -float(n)),
                      linear(-1.0, n + 6.0), const(2.0)])


def bump_family_3(n: int) -> MPF:
    return piecewise([2.0, n + 2.0, n + 3.0],
                     [identity(), const(2.0), linear(-1.0, n + 4.0), const(1.0)])


# 'fnK' is bump family K, and 'gnK' its planar sum f_n(s) + f_n(t)
_BUMP_FAMILIES = {"fn1": bump_family_1, "fn2": bump_family_2, "fn3": bump_family_3,
                  "gn1": bump_family_1, "gn2": bump_family_2, "gn3": bump_family_3}


def _args(token: str, rest: str, defaults: tuple) -> list:
    """A token's comma-separated numbers ``rest``, padded with ``defaults``;
    a default of None must be given.  'oo' reads as infinity; a nan is refused."""
    texts = rest.split(",") if rest else []
    if len(texts) > len(defaults) or None in defaults[len(texts):]:
        raise MMLabError(f"descriptor token {token!r} takes {len(defaults)} number(s), "
                         f"got {len(texts)}")
    try:
        values = [_INF if t == "oo" else float(t) for t in texts]
    except ValueError:
        values = None
    if values is None or any(math.isnan(v) for v in values):
        raise MMLabError(f"descriptor token {token!r}: {rest!r} is not a number list")
    return values + list(defaults[len(texts):])


def builtin(token: str) -> MPF:
    """Resolve a gallery token such as 'fp:2', 'h1', 'gn3:5', or 'mul:power,3'.

    After the name and ':' come comma-separated numbers, an index n >= 1 for
    'fnK' and 'gnK', or for 'mul' a generator token 'power[,p]', 'expm1'
    ('exp'), 'sinh', 'quad' or 'petrik'.  A malformed token raises MMLabError.
    """
    name, _, rest = token.partition(":")
    if name in ("fp", "lp"):
        return lp(*_args(token, rest, (None,)))
    if name == "fexp":
        return exp_log()
    if name == "falpha":
        return power_sum(*_args(token, rest, (None,)))
    if name == "fpq":
        return pq(*_args(token, rest, (None, None)))
    if name == "mul":
        return make_mulholland(_named_phi(rest, token))
    if name == "petrik":
        return make_mulholland(petrik_phi())
    if name == "h1":
        return descent_h1()
    if name == "h2":
        return descent_h2()
    if name == "fcyc":
        return cyclic_sum_max()
    if name == "dip":
        return dip2d(*_args(token, rest, (1.0,)))
    if name == "id":
        return identity()
    if name == "clamp":
        return min_clamp(*_args(token, rest, (2.0,)))
    if name == "sq":
        return power_sum(2.0, arity=1)
    if name in _BUMP_FAMILIES:
        if not (rest.isdecimal() and int(rest) >= 1):
            raise MMLabError(f"descriptor token {token!r} needs an integer index n >= 1")
        f = _BUMP_FAMILIES[name](int(rest))
        return f if name.startswith("fn") else combine("add_f", [f, f])
    raise MMLabError(f"unknown builtin token {token!r}")


def _named_phi(gen: str, token: str) -> MPF:
    name, _, rest = gen.partition(",")
    if name == "power":
        return power_sum(*_args(token, rest, (2.0,)), arity=1)
    if name in ("expm1", "exp", "sinh", "quad"):
        return MPF("expm1" if name == "exp" else name, 1)
    if name == "petrik":
        return petrik_phi()
    raise MMLabError(f"unknown generator in descriptor token {token!r}")


#: the twelve gallery descriptors exercised by the falsifier battery
GALLERY_TOKENS = (
    "fp:1", "fp:2", "fp:inf", "fexp", "falpha:0.5", "fpq:2,4",
    "mul:sinh", "mul:quad", "petrik", "h1", "h2", "fcyc",
)


def family(token: str):
    """Indexed descriptor family n -> MPF for classify_sequence and the CLI:
    'fnK' is n -> builtin(f'fnK:{n}'), likewise 'gnK', and 'const:TOKEN'
    is n -> builtin('TOKEN')."""
    name, _, rest = token.partition(":")
    if name == "const":
        F = builtin(rest)
        return lambda n: F
    if name in _BUMP_FAMILIES and not rest:
        return lambda n: builtin(f"{name}:{n}")
    raise MMLabError(f"unknown family token {token!r}")


def family_limit(token: str) -> MPF:
    name, _, rest = token.partition(":")
    if name == "const":
        return builtin(rest)
    if name in _BUMP_FAMILIES and not rest:
        f = min_clamp(2.0)  # the pointwise limit of every bump family
        return f if name.startswith("fn") else combine("add_f", [f, f])
    raise MMLabError(f"unknown family token {token!r}")


# ---------------------------------------------------------------------------
# JSON form

def mpf_to_json(F: MPF) -> dict:
    """Kind, arity, params, and every sub-descriptor or None under 'children'."""
    out = {"kind": F.kind, "arity": F.arity, **F.params}
    if F.children:
        out["children"] = [None if c is None else mpf_to_json(c) for c in F.children]
    return out


def mpf_from_json(obj: dict) -> MPF:
    """Inverse of ``mpf_to_json``; a param that is an object or null raises."""
    obj = dict(obj)
    kind = obj.pop("kind")
    arity = obj.pop("arity")
    children = tuple(None if c is None else mpf_from_json(c)
                     for c in obj.pop("children", ()))
    for k, v in obj.items():
        if v is None or isinstance(v, dict):
            raise MMLabError(f"{kind} descriptor holds {k!r} outside 'children'")
    params = {k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()}
    return MPF(kind, arity, params, children)


# ---------------------------------------------------------------------------
# triangle-triplet falsifier

@dataclass(frozen=True)
class TripletVerdict:
    """Outcome of the randomized falsifier; 'passed' means no violation found."""

    passed: bool
    samples_run: int
    counterexample: dict | None
    zero_ok: bool
    zero_note: str


def _boundary_triplets(arity: int, horizon: float) -> np.ndarray:
    base = np.array([
        (horizon, horizon / 2, horizon / 2),
        (1.0, 0.5, 0.5),
        (2.0, 1.0, 1.0),
        (1.0, 1.0, 1.0),
        (horizon, horizon, horizon),
        (0.0, 0.0, 0.0),
        (horizon / 2, horizon / 2, 0.0),
        (1.0, 1.0, 0.0),
    ])
    return np.tile(base.T, (arity, 1, 1))  # (arity, 3, cases)


_BATCH_ROWS = 16384


def _triangle_draws(rng, arity: int, m: int, horizon: float) -> np.ndarray:
    """(arity, 3, m) coordinates of m uniform triangle triplets in [0, horizon]^3.

    One ``rng.random`` call fills the whole stack on the unit cube, and each
    triplet is folded onto the cone T = {a <= b + c, b <= a + c, c <= a + b}
    without rejection: with e = max(a - (b + c), b - (a + c), c - (a + b), 0),
    every coordinate becomes min(x + e, max(a, b, c)).  Triangle triplets
    have e = 0 and stay.  On the corner a > b + c the map is
    (a, b, c) -> (a, a - c, a - b), affine with |det| = 1, and it takes that
    corner simplex onto the part of T where a is largest; likewise for b and
    c.  T fills half of the cube and the three corners the other half, so a
    uniform point of the cube folds to a uniform point of T, and a call uses
    3 * arity * m uniforms.  On the 2^-53 grid of ``Generator.random``,
    |a - b| - c and a - c are exact, and c - (a + b) rounds only where it is
    negative, so the fold is exact.  The stack is then scaled by ``horizon``
    and checked again in float; a triplet on the boundary of T may round out
    of it, and each one that does is drawn again the same way.
    """
    x = rng.random(out=np.empty((arity, 3, m)))
    for k in range(arity):
        a, b, c = x[k]
        e = np.subtract(a, b)
        np.abs(e, out=e)
        e -= c                                 # the a or the b corner's excess
        top = np.add(a, b)
        np.subtract(c, top, out=top)           # the c corner's
        np.maximum(e, top, out=e)
        np.maximum(e, 0.0, out=e)
        np.maximum(a, b, out=top)
        np.maximum(top, c, out=top)
        x[k] += e
        np.minimum(x[k], top, out=x[k])
    x *= horizon
    for k in range(arity):
        a, b, c = x[k]
        bad = a > b + c
        bad |= b > a + c
        bad |= c > a + b
        if bad.any():
            x[k][:, bad] = _triangle_draws(rng, 1, int(bad.sum()), horizon)[0]
    return x


def check_triangle_triplets(F: MPF, samples: int = 100_000, horizon: float = 8.0,
                            seed: int = 0) -> TripletVerdict:
    """Search for triangle triplets whose images break the triangle inequality.

    A row holds one triangle triplet (a_k, b_k, c_k) per coordinate k, and
    F is checked on F(a) <= F(b) + F(c) and its two rotations.  The eight
    deterministic boundary rows are checked first; then ``samples`` random
    rows follow in batches of at most ``_BATCH_ROWS`` = 16 384, each
    evaluated by one ``eval_mpf`` call on its (arity, 3, m) stack, until one
    breaks the inequality by more than METRIC_TOL relative to max(1, |F|).
    A batch row of 16 384 floats is 128 KB, so a batch and the temporaries
    of its evaluation stay in a core's L2 cache.  The witness is the first
    such row of its batch in draw order.  The vanishing locus is probed on
    spherical shells last.  ``samples_run`` counts the boundary rows and
    every row evaluated.  A clean verdict falsifies nothing: it only reports
    that no violation was found.

    The random rows are i.i.d. with N independent coordinates, each uniform
    on the triangle cone T = {a <= b + c, b <= a + c, c <= a + b} of
    [0, horizon]^3.  That is the law of a whole row of N i.i.d. uniform
    triplets conditioned on every coordinate lying in T: the event is the
    product T^N of one event per independent coordinate, so conditioning
    keeps the coordinates independent and conditions each on T alone.
    ``_triangle_draws`` samples each coordinate on T with no rejection: a
    uniform triplet of the unit cube outside T lies in one of three corner
    simplices {a > b + c}, {b > a + c}, {c > a + b}, and the corner a > b + c
    is folded by (a, b, c) -> (a, a - c, a - b), a volume-preserving affine
    bijection onto the part of T where a is largest (and likewise for b and
    c).  T fills half of the cube and the three corners the other half, so
    the folded point is uniform on T.
    """
    samples = _sample_count(samples)
    if not (math.isfinite(horizon) and horizon > 0):
        raise MMLabError(f"horizon must be finite and positive, got {horizon}")
    N = F.arity
    rng = np.random.default_rng(seed)

    def violation(x):
        # x: (N, 3, m) coordinates; fa, fb, fc: images of the a, b and c rows
        fa, fb, fc = eval_mpf(F, list(x))
        slack = fa - fb - fc
        np.maximum(slack, fb - fa - fc, out=slack)
        np.maximum(slack, fc - fa - fb, out=slack)
        guard = np.abs(fa)
        np.maximum(guard, np.abs(fb), out=guard)
        np.maximum(guard, np.abs(fc), out=guard)
        guard = METRIC_TOL * np.maximum(1.0, guard, out=guard)
        # a nan slack or guard is a violation too
        idx = np.nonzero(~(slack <= guard))[0]
        if idx.size:
            i = int(idx[0])
            return {
                "triplets": [tuple(float(v) for v in x[k, :, i]) for k in range(N)],
                "values": (float(fa[i]), float(fb[i]), float(fc[i])),
                "slack": float(slack[i]),
            }
        return None

    boundary = _boundary_triplets(N, horizon)
    cex = violation(boundary)
    run = boundary.shape[2]
    total = samples + run
    while cex is None and run < total:
        m = min(_BATCH_ROWS, total - run)
        run += m
        cex = violation(_triangle_draws(rng, N, m, horizon))

    zero_ok, zero_note = _zero_locus_check(F, rng)
    return TripletVerdict(passed=cex is None and zero_ok,
                          samples_run=run, counterexample=cex,
                          zero_ok=zero_ok, zero_note=zero_note)


def _zero_locus_check(F: MPF, rng) -> tuple[bool, str]:
    at0 = float(eval_mpf(F, [np.array(0.0)] * F.arity))
    if not abs(at0) <= 1e-9:
        return False, f"F(0,...,0) = {at0}"
    for radius in (1e-6, 1e-3, 1.0, 10.0):
        dirs = np.abs(rng.normal(size=(64, F.arity)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = radius * dirs
        vals = eval_mpf(F, list(pts.T))
        low = float(vals.min())
        if low <= 0.0:
            return False, f"F vanishes on the shell of radius {radius}"
        if not low > 0.0:
            return False, f"F is nan on the shell of radius {radius}"
    return True, "zero set looks like the origin on sampled shells"


# ---------------------------------------------------------------------------
# isotone defect

@dataclass(frozen=True)
class DefectReport:
    """Sampled isotone defect I(s) = F(s) - inf over the upper quadrant at s.

    ``table`` holds I on the grid of [0, D]^arity and ``sup_defect`` its sup;
    ``sup_probe`` is the sup of I over the whole probe grid, [0, probe]^arity.
    For an ``add_f`` descriptor f_1(s_1) + f_2(s_2) the defect splits as
    I_1(s_1) + I_2(s_2), and all three fields are sums of the parts' 1-D
    reports.
    """

    D: float
    h: float
    grid: np.ndarray
    table: np.ndarray
    sup_defect: float
    probe_bound: float
    sup_probe: float


_REFINE_CELL_CAP = 64
_ROW_BLOCK = 64
_ZERO_DEFECT = 1e-9  # a sampled defect at most this counts as isotone


def _grid_args(grid: np.ndarray, arity: int) -> list:
    """Arguments that broadcast to the grid^arity table (arity 1 or 2)."""
    return [grid] if arity == 1 else [grid[:, None], grid[None, :]]


def _strict_minima(c: np.ndarray, neighbours) -> tuple:
    """Indices where c is at most every neighbour + 1e-15 and below one by more.

    Rounding is monotone, so c <= fl(v + 1e-15) for every v exactly when
    c <= fl(min v + 1e-15), and c < fl(v - 1e-15) for some v exactly when
    c < fl(max v - 1e-15): two comparisons instead of one per neighbour.
    ``np.minimum`` keeps a NaN neighbour (no cell beside it qualifies) and
    ``np.fmax`` skips it, as the per-neighbour comparisons do.
    """
    a, b, *rest = neighbours
    lo, hi = np.minimum(a, b), np.fmax(a, b)
    for v in rest:
        np.minimum(lo, v, out=lo)
        np.fmax(hi, v, out=hi)
    lo += 1e-15
    hi -= 1e-15
    return np.nonzero((c <= lo) & (c < hi))


def _local_minima(vals: np.ndarray) -> tuple:
    """Strict grid local minima of a 1- or 2-D table in row-major order.

    2-D tables test the 4-neighbourhood of interior cells on blocks of 64
    rows sliced from ``vals``, so no temporary is larger than a block.
    """
    if vals.ndim == 1:
        idx, = _strict_minima(vals[1:-1], (vals[:-2], vals[2:]))
        return (idx + 1,)
    parts = [(np.zeros(0, dtype=np.intp),) * 2]
    for r0 in range(1, len(vals) - 1, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, len(vals) - 1)
        i, j = _strict_minima(vals[r0:r1, 1:-1], (
            vals[r0 - 1: r1 - 1, 1:-1], vals[r0 + 1: r1 + 1, 1:-1],
            vals[r0:r1, :-2], vals[r0:r1, 2:]))
        parts.append((i + r0, j + 1))
    return tuple(np.concatenate(axis) for axis in zip(*parts))


def _polish_local_minima(F: MPF, grid: np.ndarray, vals: np.ndarray) -> tuple:
    """Lockstep golden-section polish of strict grid local minima.

    Returns ``(cells, values)``: index arrays of the at most 64 lowest
    candidates (stable sort, row-major order) and the least of each one's
    grid value and polished value, so ``vals[cells] = values`` overlays the
    polish.  Piecewise-linear gallery descriptors attain quadrant infima at
    breakpoints or plateau edges, which the polish localizes; for custom
    descriptors it is approximate.  Every bracket starts at its cell and
    runs one step up, so a polished value is attained at or above the cell
    and belongs in the infimum over its upper quadrant.  All cells advance
    together, one eval_mpf call per iteration: in 1-D a 40-step search on
    [x, x + h], then min(f(x*), f(x), f(x + h)); in 2-D two rounds of
    coordinate descent, a 24-step sweep over [x, x + h] for every cell, then
    one over [y, y + h].
    """
    cells = _local_minima(vals)
    values = vals[cells]
    if values.size > _REFINE_CELL_CAP:
        keep = np.argsort(values, kind="stable")[:_REFINE_CELL_CAP]
        cells, values = tuple(c[keep] for c in cells), values[keep]
    if not values.size:
        return cells, values
    h = grid[1] - grid[0]
    if vals.ndim == 1:
        lo = grid[cells[0]]
        x = _golden_argmin(lambda u: eval_mpf(F, [u]), lo, lo + h)
        ends = eval_mpf(F, [np.concatenate([x, lo, lo + h])])
        return cells, np.minimum(values, ends.reshape(3, -1).min(axis=0))
    x0, y0 = grid[cells[0]], grid[cells[1]]
    y = y0
    for _ in range(2):
        x = _golden_argmin(lambda u: eval_mpf(F, [u, y]), x0, x0 + h, iters=24)
        y = _golden_argmin(lambda u: eval_mpf(F, [x, u]), y0, y0 + h, iters=24)
    return cells, np.minimum(values, eval_mpf(F, [x, y]))


def _golden_argmin(f, lo, hi, iters: int = 40) -> np.ndarray:
    """Golden-section argmin on every bracket [max(lo, 0), hi] at once.

    ``f`` maps an array of points, one per bracket, to their values.  Each
    iteration makes one ``f`` call on the new probe of every bracket, after
    two calls for the first probe pair.  A bracket keeps its left part when
    f1 <= f2, and its arithmetic does not depend on the other brackets.
    Returns the midpoints of the final brackets.
    """
    a = np.maximum(lo, 0.0)
    b = np.asarray(hi, dtype=float)
    x1 = b - _GOLD * (b - a)
    x2 = a + _GOLD * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 <= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        probe = np.where(left, b - _GOLD * (b - a), a + _GOLD * (b - a))
        fp = f(probe)
        x1, x2 = np.where(left, probe, x2), np.where(left, x1, probe)
        f1, f2 = np.where(left, fp, f2), np.where(left, f1, fp)
    return 0.5 * (a + b)


def defect_table(F: MPF, D: float, h: float = 1.0 / 64.0,
                 probe: float | None = None) -> DefectReport:
    """Tabulate I(s) = F(s) - inf_{s' >= s componentwise} F(s') on a grid.

    The infimum runs over the grid of [0, probe]^arity, the table covers
    [0, D]^arity.  Supports arity 1 and 2.

    A planar ``add_f`` descriptor f_1(s_1) + f_2(s_2) takes the separable
    route: on the box [s_1, probe] x [s_2, probe] the infimum of the sum is
    the sum of the infima, so I(s_1, s_2) = I_1(s_1) + I_2(s_2).  Each part
    gets its own 1-D report on the grid path with the same (D, h, probe), one
    report when the parts are equal, and the table is their outer sum.
    Rounding is monotone, so the sums of the parts' sups are the sups of the
    summed defect bit for bit.  No probe-sized 2-D array is built and F is
    never evaluated in 2-D.  Every other descriptor takes the grid path.
    """
    if probe is None:
        probe = D
    if not (0 < h <= D and probe >= D):
        raise MMLabError("need 0 < h <= D <= probe")
    if F.arity > 2:
        raise MMLabError("defect tables support arity 1 and 2")
    if F.kind != "add_f" or F.arity != 2:
        return _grid_defect_table(F, D, h, probe)
    f, g = F.children
    u = _grid_defect_table(f, D, h, probe)
    v = u if g == f else _grid_defect_table(g, D, h, probe)
    return DefectReport(D=u.D, h=u.h, grid=u.grid,
                        table=u.table[:, None] + v.table[None, :],
                        sup_defect=u.sup_defect + v.sup_defect,
                        probe_bound=u.probe_bound, sup_probe=u.sup_probe + v.sup_probe)


def _grid_defect_table(F: MPF, D: float, h: float, probe: float) -> DefectReport:
    """The grid path of ``defect_table``.

    F is evaluated once on the grid extended to the probe horizon, with
    broadcast arguments, and the infimum is taken over that grid after a
    lockstep golden-section polish of its grid local minima (all cells
    advance together, one eval_mpf call per iteration).  The defect is
    clamped at zero.  In 2-D the suffix minimum runs over blocks of 64 rows
    from the top of the grid down, carrying one row between blocks, so the
    grid values are the only grid-sized array; each block also yields its
    sup for ``sup_probe``.  Down the rows a block takes the minimum of each
    row and the one above it, bottom up, one contiguous row at a time, then
    accumulates along the columns.
    """
    m = int(round(probe / h))
    m_D = int(round(D / h))
    grid = np.arange(m + 1) * h
    vals = eval_mpf(F, _grid_args(grid, F.arity))
    cells, polished = _polish_local_minima(F, grid, vals)
    # a 1-D table runs as a single row
    rows = vals.reshape(-1, m + 1)
    if F.arity == 1:
        cells = (np.zeros_like(cells[0]), cells[0])
    table = np.empty((min(len(rows), m_D + 1), m_D + 1))
    sups, carry = [], np.full(m + 1, np.inf)
    for r1 in range(len(rows), 0, -_ROW_BLOCK):
        r0 = max(r1 - _ROW_BLOCK, 0)
        blk = rows[r0:r1].copy()
        here = (cells[0] >= r0) & (cells[0] < r1)
        blk[cells[0][here] - r0, cells[1][here]] = polished[here]
        np.minimum(blk[-1], carry, out=blk[-1])
        # row by row: accumulate(axis=0) would walk columns with a strided inner loop
        for i in range(len(blk) - 2, -1, -1):
            np.minimum(blk[i], blk[i + 1], out=blk[i])
        blk = np.minimum.accumulate(blk[:, ::-1], axis=1)[:, ::-1]
        carry = blk[0]
        defect = np.maximum(rows[r0:r1] - blk, 0.0)
        sups.append(defect.max())
        if r0 <= m_D:
            table[r0: r1] = defect[: m_D + 1 - r0, : m_D + 1]
    table = table.reshape((m_D + 1,) * F.arity)
    return DefectReport(D=float(D), h=float(h), grid=grid[: m_D + 1],
                        table=table, sup_defect=float(table.max()),
                        probe_bound=float(probe), sup_probe=float(np.max(sups)))


# ---------------------------------------------------------------------------
# sequence classifier

@dataclass(frozen=True)
class SequenceVerdict:
    """Five-condition verdict on an indexed descriptor family.

    conditions[k] for k = 1..5: all-n isotone, global sup defect -> 0,
    sup defect on every window -> 0, pointwise defect -> 0, isotone limit.
    The implication chain 1 => 2 => 3 => 4 => 5 is enforced on output; raw
    numeric decisions are kept in evidence.
    """

    conditions: dict
    evidence: dict
    converges_uniformly: bool


def _limit_is_zero(values) -> np.ndarray:
    """Numeric surrogate for 'the sequence tends to zero' along axis 0 (growing n).

    True where the last value is at most 1e-6, or where the sequence never
    rises by more than 1e-6 and ends at most a quarter of its peak.
    """
    v = np.asarray(values, dtype=float)
    noninc = (v[1:] <= v[:-1] + 1e-6).all(axis=0)
    return (v[-1] <= 1e-6) | (noninc & (v[-1] <= 0.25 * v.max(axis=0)))


def classify_sequence(F_seq, F_limit: MPF, D_list, n_list, h: float = 1.0 / 64.0,
                      probe: float | None = None) -> SequenceVerdict:
    """Test the five isotonicity conditions on a descriptor family.

    F_seq is a callable mapping an index n to a descriptor; all descriptors
    must share arity with F_limit.  Defect tables are evaluated on one
    extended grid per n, with the global condition probed out to
    max(D_list, n + 8).
    """
    n_list = sorted(int(n) for n in n_list)
    D_list = sorted(float(D) for D in D_list)
    if not n_list or n_list[0] < 1:
        raise MMLabError("n_list must contain positive indices")
    if not D_list:
        raise MMLabError("D_list must contain at least one window")
    Dmax = D_list[-1]
    arity = F_limit.arity
    descriptors = {}
    for n in n_list:
        F = F_seq(n)
        if F.arity != arity:
            raise InconsistentArity(f"descriptor at n={n} has arity {F.arity}, limit has {arity}")
        descriptors[n] = F

    sup_window = {D: [] for D in D_list}
    sup_global = []
    sup_at_Dmax = []
    pointwise = []
    for n in n_list:
        extent = max(Dmax, n + 8.0)
        if probe is not None:
            extent = max(extent, probe)
        rep = defect_table(descriptors[n], D=Dmax, h=h, probe=extent)
        pointwise.append(rep.table)
        sup_at_Dmax.append(rep.sup_defect)
        sup_global.append(rep.sup_probe)
        for D in D_list:
            k = int(round(D / h))
            sup_window[D].append(float(rep.table[: k + 1][..., : k + 1].max()))

    limit_rep = defect_table(F_limit, D=Dmax, h=h, probe=max(Dmax, n_list[-1] + 8.0))
    c1 = all(v <= _ZERO_DEFECT for v in sup_at_Dmax)
    c2 = bool(_limit_is_zero(sup_global))
    c3 = all(_limit_is_zero(sup_window[D]) for D in D_list)
    stack = np.stack(pointwise)
    c4 = bool(_limit_is_zero(stack).all())
    c5 = limit_rep.sup_defect <= _ZERO_DEFECT

    raw = {1: c1, 2: c2, 3: c3, 4: c4, 5: c5}
    chained = {}
    prev = False
    for k in (1, 2, 3, 4, 5):
        prev = raw[k] or prev
        chained[k] = prev

    conv_grid = np.arange(0.0, Dmax + 1e-9, max(h, Dmax / 64.0))
    pts = _grid_args(conv_grid, arity)
    lim_vals = eval_mpf(F_limit, pts)
    diffs = [float(np.abs(eval_mpf(descriptors[n], pts) - lim_vals).max()) for n in n_list]
    conv_unif = bool(_limit_is_zero(diffs))

    evidence = {
        "n_list": n_list,
        "sup_defect_on_Dmax": sup_at_Dmax,
        "sup_defect_global_probe": sup_global,
        "sup_defect_per_window": {D: sup_window[D] for D in D_list},
        "pointwise_last": stack[-1],
        "uniform_gap_to_limit": diffs,
        "raw_conditions": raw,
        "limit_sup_defect": limit_rep.sup_defect,
    }
    return SequenceVerdict(conditions=chained, evidence=evidence,
                           converges_uniformly=conv_unif)

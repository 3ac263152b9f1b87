"""The paper's product inequalities, checked as batteries of random trials.

Each battery draws tiny validated spaces, builds the products or transforms
an inequality speaks about, and records one row ``lhs <= rhs + tol`` per
trial; the Prokhorov and box product checks compare a product with its
factors directly.  Every row is a theorem on validated inputs.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .core import (
    BATTERY_TOL,
    MASS_TOL,
    FiniteMMSpace,
    project_to_lip1,
    random_metric_space,
    real_distribution,
)
from .distances import _prokhorov_eps, box_distance, ky_fan, prokhorov, prokhorov_real
from .errors import MMLabError
from .gallery import two_point
from .invariants import (
    _levy_mean_of_values,
    concentration_function,
    levy_radius,
    observable_diameter,
)
from .mpf import MPF, builtin, cyclic_sum_max, eval_mpf, lp
from .product import ProductSpec, lp_product, metric_transform, product


# ---------------------------------------------------------------------------
# product compatibility checks

def lprok_product_check(x: FiniteMMSpace, mu, mu2, y: FiniteMMSpace, nu, nu2,
                        F: MPF, lam: float = 1.0) -> dict:
    """Product-measure Prokhorov against the worst of sum and doubled image."""
    prod = product(ProductSpec((x, y), F, check_samples=0))
    pm = np.outer(mu, nu).ravel()
    pm2 = np.outer(mu2, nu2).ravel()
    lhs = _prokhorov_eps(prod, pm, pm2, lam)
    px = _prokhorov_eps(x, mu, mu2, lam)
    py = _prokhorov_eps(y, nu, nu2, lam)
    rhs = max(px + py, 2.0 * float(F(px, py)))
    return {"lhs": float(lhs), "rhs": float(rhs), "pass": bool(lhs <= rhs + BATTERY_TOL),
            "prok_x": px, "prok_y": py}


def box_product_check(x, y, z, w, F_or_p) -> dict:
    """Box distance of products against factor box distances."""
    if isinstance(F_or_p, (int, float)):
        F = lp(float(F_or_p))
        lp_form = True
    else:
        F = F_or_p
        lp_form = False
    pxz = product(ProductSpec((x, z), F, check_samples=0))
    pyw = product(ProductSpec((y, w), F, check_samples=0))
    lhs = box_distance(pxz, pyw, mode="exact_tiny")
    bxy = box_distance(x, y, mode="exact_tiny")
    bzw = box_distance(z, w, mode="exact_tiny")
    if lp_form:
        rhs = bxy + bzw
    else:
        rhs = max(bxy + bzw, 2.0 * float(F(0.5 * bxy, 0.5 * bzw)))
    return {"lhs": float(lhs), "rhs": float(rhs), "pass": bool(lhs <= rhs + BATTERY_TOL),
            "box_xy": bxy, "box_zw": bzw}


# ---------------------------------------------------------------------------
# inequality batteries

@dataclass(frozen=True)
class BatteryRow:
    index: int
    lhs: float
    rhs: float
    passed: bool
    meta: dict


@dataclass(frozen=True)
class BatteryReport:
    lemma: str
    rows: tuple
    tol: float

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self):
        return [r for r in self.rows if not r.passed]


def _od_value(space, kappa, budget=4000, seed=0):
    return observable_diameter(space, kappa, budget=budget, seed=seed).value


def _tiny_space(rng, n):
    return random_metric_space(n, seed=int(rng.integers(0, 2**31 - 1)))


def _rational_weights(rng, n, denom=8):
    parts = rng.multinomial(denom - n, np.ones(n) / n) + 1
    return parts / denom


def _random_lip(rng, space):
    return project_to_lip1(space, rng.normal(size=space.n) * space.diam)


def _trial_key_1dim(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 5)))
    token = ("h1", "h2", "clamp:2", "fn1:3")[int(rng.integers(0, 4))]
    F = builtin(token)
    kappa = float(rng.uniform(0.05, 0.45))
    XF = metric_transform(X, F)
    lhs = _od_value(XF, 2 * kappa)
    rhs = 4.0 * float(eval_mpf(F, [np.array(_od_value(X, kappa))]))
    return lhs, rhs, {"fn": token, "kappa": kappa}


def _trial_key_lp(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 4)))
    Y = _tiny_space(rng, n=2)
    p = (1.0, 2.0, float("inf"))[int(rng.integers(0, 3))]
    kp = float(rng.uniform(0.05, 0.45))
    k = float(rng.uniform(0.05, min(0.9, 0.95 - kp)))
    prod = lp_product(X, Y, p, check_samples=0)
    lhs = _od_value(prod, k + kp)
    rhs = _od_value(X, k) + 2.0 * _od_value(Y, kp)
    return lhs, rhs, {"p": p, "kappa": k, "kappa2": kp}


def _trial_key_F(rng):
    token = ("fexp", "fp:2", "falpha:0.5", "mul:quad")[int(rng.integers(0, 4))]
    F = builtin(token)
    X = _tiny_space(rng, n=int(rng.integers(2, 4)))
    Y = _tiny_space(rng, n=int(rng.integers(2, 4)))
    kp = float(rng.uniform(0.05, 0.2))
    k = float(rng.uniform(0.05, 0.45 - kp))
    prod = product(ProductSpec((X, Y), F, check_samples=0))
    lhs = _od_value(prod, 2 * (k + kp), budget=6000, seed=int(rng.integers(0, 1 << 30)))
    odx = _od_value(X, k)
    ody = _od_value(Y, kp)
    rhs = 4.0 * float(F(odx, 0.0)) + 8.0 * float(F(0.0, ody))
    return lhs, rhs, {"fn": token, "kappa": k, "kappa2": kp, "product_points": prod.n}


def _trial_LO(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 4)))
    Y = _tiny_space(rng, n=2)
    kappa = float(rng.uniform(0.05, 0.9))
    pf = product(ProductSpec((X, Y), lp(2.0), check_samples=0))
    pg = product(ProductSpec((X, Y), lp(1.0), check_samples=0))
    return _od_value(pf, kappa), _od_value(pg, kappa), {"kappa": kappa}


def _trial_conc_fct(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 6)))
    kappa = float(rng.uniform(0.05, 0.9))
    lhs = _od_value(X, kappa)
    radii = np.unique(X.dist[X.dist > 0])
    rhs_r = X.diam
    for r in radii:
        if concentration_function(X, float(r), mode="exact", closed=True).value <= kappa / 2 + MASS_TOL:
            rhs_r = float(r)
            break
    return lhs, 2.0 * rhs_r, {"kappa": kappa}


def _trial_key_lp_N(rng):
    Xs = [_tiny_space(rng, n=2) for _ in range(3)]
    k1 = float(rng.uniform(0.1, 0.5))
    k2 = float(rng.uniform(0.05, 0.2))
    k3 = float(rng.uniform(0.05, 0.2))
    prod = product(ProductSpec(tuple(Xs), lp(2.0, arity=3), check_samples=0))
    lhs = _od_value(prod, k1 + k2 + k3, budget=4000, seed=int(rng.integers(0, 1 << 30)))
    rhs = _od_value(Xs[0], k1) + 2.0 * (_od_value(Xs[1], k2) + _od_value(Xs[2], k3))
    return lhs, rhs, {"kappas": (k1, k2, k3)}


def _trial_key_F_N(rng):
    F = cyclic_sum_max() if rng.random() < 0.5 else lp(2.0, arity=3)
    Xs = [_tiny_space(rng, n=2) for _ in range(3)]
    k1 = float(rng.uniform(0.05, 0.2))
    k2 = float(rng.uniform(0.05, 0.12))
    k3 = float(rng.uniform(0.05, 0.12))
    prod = product(ProductSpec(tuple(Xs), F, check_samples=0))
    lhs = _od_value(prod, 2 * (k1 + k2 + k3), budget=4000, seed=int(rng.integers(0, 1 << 30)))
    ods = [_od_value(X, k) for X, k in zip(Xs, (k1, k2, k3))]
    slots = []
    for i in range(3):
        args = [0.0, 0.0, 0.0]
        args[i] = ods[i]
        slots.append(float(F(*args)))
    rhs = 4.0 * slots[0] + 8.0 * (slots[1] + slots[2])
    return lhs, rhs, {"kappas": (k1, k2, k3), "fn": F.kind}


def _trial_lm_lem(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 6)))
    nu = rng.random(X.n) + 0.1
    nu /= nu.sum()
    eps, plan = prokhorov(X, X.weight, nu, lam=1.0)
    kappa = min(0.45 * (1.0 - plan.deficiency), 0.49)
    if kappa <= 0:
        return 0.0, 0.0, {"degenerate": True}
    f = _random_lip(rng, X)
    lm_mu = _levy_mean_of_values(f, X.weight).mean
    lm_nu = _levy_mean_of_values(f, nu).mean
    lhs = abs(lm_mu - lm_nu)
    od_mu = _od_value(X, kappa)
    od_nu = _od_value(X.reweighted(nu), kappa)
    rhs = eps + od_mu + od_nu
    return lhs, rhs, {"kappa": kappa, "eps": eps, "deficiency": plan.deficiency}


def _trial_lprok(rng):
    X = _tiny_space(rng, n=3)
    Y = _tiny_space(rng, n=3)
    mus = []
    for Z in (X, X, Y, Y):
        v = rng.random(Z.n) + 0.1
        mus.append(v / v.sum())
    F = builtin(("fp:2", "fexp")[int(rng.integers(0, 2))])
    lam = (0.5, 1.0, 2.0)[int(rng.integers(0, 3))]
    res = lprok_product_check(X, mus[0], mus[1], Y, mus[2], mus[3], F, lam)
    return res["lhs"], res["rhs"], {"lambda": lam}


def _trial_box1(rng):
    res = box_product_check(*(two_point(float(rng.uniform(0.5, 3.0))) for _ in range(4)), 2.0)
    return res["lhs"], res["rhs"], {}


def _trial_box_le_2prok(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 5)))
    denom = (4, 6, 8)[int(rng.integers(0, 3))] if X.n <= 3 else 4
    mu = _rational_weights(rng, X.n, denom=denom)
    nu = _rational_weights(rng, X.n, denom=denom)
    lhs = box_distance(X.reweighted(mu), X.reweighted(nu), mode="exact_tiny")
    return lhs, 2.0 * _prokhorov_eps(X, mu, nu, 1.0), {}


def _trial_lr_le_od(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 6)))
    kappa = float(rng.uniform(0.05, 0.45))
    lhs = levy_radius(X, kappa, mode="exact_tiny")
    rhs = _od_value(X, kappa)
    return lhs, rhs, {"kappa": kappa}


def _trial_prok_le_ky(rng):
    X = _tiny_space(rng, n=int(rng.integers(2, 6)))
    f = _random_lip(rng, X)
    g = _random_lip(rng, X)
    push_f = real_distribution(zip(f, X.weight))
    push_g = real_distribution(zip(g, X.weight))
    lhs = prokhorov_real(push_f, push_g, lam=1.0)
    rhs = ky_fan(X, f, g)
    return lhs, rhs, {}


_BATTERIES = {
    "key_1dim": _trial_key_1dim,
    "key_lp": _trial_key_lp,
    "key_F": _trial_key_F,
    "LO": _trial_LO,
    "conc_fct": _trial_conc_fct,
    "key_lp_N": _trial_key_lp_N,
    "key_F_N": _trial_key_F_N,
    "lm_lem": _trial_lm_lem,
    "lprok": _trial_lprok,
    "box1": _trial_box1,
    "box_le_2prok": _trial_box_le_2prok,
    "lr_le_od": _trial_lr_le_od,
    "prok_le_ky": _trial_prok_le_ky,
}

BATTERY_NAMES = tuple(_BATTERIES)


def run_inequality_battery(lemma: str, trials: int = 50, seed=0,
                           tol: float = BATTERY_TOL) -> BatteryReport:
    """Run one inequality battery; every row asserts lhs <= rhs + tol.

    A failure on validated inputs is release-blocking since each inequality
    is a theorem; the failing witness travels in the row metadata.
    """
    if lemma not in _BATTERIES:
        raise MMLabError(f"unknown battery {lemma!r}; options: {sorted(_BATTERIES)}")
    if trials < 1:
        raise MMLabError("trials must be >= 1")
    trial = _BATTERIES[lemma]
    rows = []
    for i in range(trials):
        rng = np.random.default_rng([zlib.crc32(lemma.encode()), int(seed) & 0x7FFFFFFF, i])
        lhs, rhs, meta = trial(rng)
        rows.append(BatteryRow(index=i, lhs=float(lhs), rhs=float(rhs),
                               passed=bool(lhs <= rhs + tol), meta=meta))
    return BatteryReport(lemma=lemma, rows=tuple(rows), tol=tol)

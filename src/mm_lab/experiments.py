"""Deterministic experiment suites with CSV and SVG artifacts.

Each suite is pure in its spec: rerunning an identical ExperimentSpec
produces byte-identical CSV.  Numbers are formatted at 12 significant
digits and plots are plain polyline SVGs with no external tooling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .batteries import BATTERY_NAMES, run_inequality_battery
from .core import random_metric_space
from .distances import _prokhorov_eps, box_distance, concentration_certificate, lip_up_to_eps
from .errors import BadSpec, NotRational
from .gallery import build_counterexample_1dim, sample_sphere, two_point
from .invariants import observable_diameter
from .mpf import builtin, classify_sequence, family, family_limit
from .product import metric_transform

SUITES = ("sphere_od_decay", "cex_1dim_collapse", "lemma_batteries",
          "box_convergence", "classifier_demo")
_PARAM_KEYS = ("seed", "trials", "N", "budget")  # each suite reads those it needs


@dataclass(frozen=True)
class ExperimentSpec:
    suite: str
    params: dict = field(default_factory=dict)
    out_dir: str | None = None


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    rows: tuple
    header: tuple
    passed: bool
    summary: tuple
    csv_path: str | None = None
    svg_path: str | None = None


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_svg(path, xs, ys, title: str) -> None:
    """Minimal polyline chart on log10 axes."""
    W, H, pad = 640, 420, 48
    fx = np.log10(np.asarray(xs, float))
    fy = np.log10(np.maximum(np.asarray(ys, float), 1e-300))
    x0, x1 = float(fx.min()), float(fx.max())
    y0, y1 = float(fy.min()), float(fy.max())
    sx = (W - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (H - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(f"{pad + (a - x0) * sx:.2f},{H - pad - (b - y0) * sy:.2f}"
                   for a, b in zip(fx, fy))
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">'
        f'<rect width="{W}" height="{H}" fill="white"/>'
        f'<text x="{pad}" y="24" font-family="monospace" font-size="14">{title}</text>'
        f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{pts}"/>'
        + "".join(f'<circle cx="{pad + (a - x0) * sx:.2f}" cy="{H - pad - (b - y0) * sy:.2f}" r="3"/>'
                  for a, b in zip(fx, fy))
        + "</svg>"
    )
    Path(path).write_text(svg)


def _fit_slope(xs, ys) -> float:
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# suites

def _suite_sphere_od_decay(params):
    n_list = (2, 4, 8, 16, 32)
    N = params.get("N", 2000)
    seed = params.get("seed", 7)
    budget = params.get("budget", 20000)
    rows, ods = [], []
    for n in n_list:
        sph = sample_sphere(n, 1.0, N, metric="chordal", seed=seed)
        est = observable_diameter(sph.space, 0.1, mode="bounds",
                                  budget=budget, seed=seed)
        rows.append((n, est.value))
        ods.append(est.value)
    slope = _fit_slope(n_list, ods)
    lo, hi = -0.75, -0.30
    passed = lo <= slope <= hi
    rows = [r + (slope,) for r in rows]
    summary = (f"log-log slope {slope:.4f} in [{lo}, {hi}]: {'PASS' if passed else 'FAIL'}",)
    return ("n", "od_lower_bound", "slope"), rows, passed, summary, (n_list, ods)


def _suite_cex_1dim_collapse(params):
    s, s_n = 2.0, 3.0
    N = params.get("N", 1500)
    seed = params.get("seed", 7)
    F = builtin("h1")
    bundle = build_counterexample_1dim(lambda k: F, s, s_n, n=50, N=N, seed=seed)
    Nn = bundle.sphere_coords.shape[0]

    a = bundle.sphere_coords
    z0 = np.concatenate([np.zeros((Nn, 1)), a], axis=1)
    z1 = np.concatenate([np.full((Nn, 1), s), -a], axis=1)
    anti = np.linalg.norm(z0 - z1, axis=1)
    anti_gap = float(np.abs(anti - s_n).max())

    cross = bundle.product_space.dist[:Nn, Nn:]
    in_range = bool(cross.min() >= s - 1e-9 and cross.max() <= s_n + 1e-9)

    tcross = bundle.transformed.dist[:Nn, Nn:]
    above = bool(tcross.min() >= bundle.limit_distance - 1e-9)
    per_point = tcross.min(axis=1)
    pct5 = float(np.percentile(per_point, 5))

    cert = concentration_certificate(bundle.transformed, bundle.limit_space,
                                     bundle.p_map, budget=params.get("budget", 3000),
                                     seed=seed)
    naive = metric_transform(two_point(s), F)
    eps_naive, _ = lip_up_to_eps(bundle.p_map, bundle.transformed, naive,
                                 eps_grid=(0.1, 0.2, 0.3, 0.4, 0.5))
    rows = [
        ("antipodal_max_gap", anti_gap, anti_gap <= 1e-9),
        ("cross_distances_in_range", 1.0 if in_range else 0.0, in_range),
        ("transformed_at_least_limit", float(tcross.min()), above),
        ("per_point_min_pct5", pct5, pct5 <= 1.25),
        ("certificate_overall", cert.overall, cert.overall <= 0.3),
        ("naive_limit_lip_eps", eps_naive, eps_naive == 0.5),
    ]
    passed = all(r[2] for r in rows)
    summary = tuple(f"{r[0]} = {_fmt(r[1])}: {'PASS' if r[2] else 'FAIL'}" for r in rows)
    return ("check", "value", "pass"), rows, passed, summary, None


def _suite_lemma_batteries(params):
    trials = params.get("trials", 50)
    seed = params.get("seed", 7)
    rows = []
    ok = True
    for name in BATTERY_NAMES:
        rep = run_inequality_battery(name, trials=trials, seed=seed)
        worst = max((r.lhs - r.rhs for r in rep.rows), default=0.0)
        rows.append((name, trials, len(rep.failures), worst, rep.all_pass))
        ok = ok and rep.all_pass
    summary = tuple(f"{r[0]}: {r[2]} failures in {r[1]} trials" for r in rows)
    return ("battery", "trials", "failures", "worst_gap", "pass"), rows, ok, summary, None


def _suite_box_convergence(params):
    seed = params.get("seed", 7)
    X = random_metric_space(4, seed=seed)
    base = np.round(X.weight * 8) / 8.0
    base[0] += 1.0 - base.sum()
    rows = []
    ok = True
    for k in range(6):
        mix = 1.0 / (k + 1.0)
        nu = (1.0 - mix) * base + mix * np.full(X.n, 1.0 / X.n)
        nu = np.round(nu * 8) / 8.0
        nu[0] += 1.0 - nu.sum()
        try:
            b = box_distance(X.reweighted(base), X.reweighted(nu))
        except NotRational:
            continue
        p = _prokhorov_eps(X, base, nu, 1.0)
        ok = ok and (b <= 2 * p + 1e-9)
        rows.append((k, mix, b, p, b <= 2 * p + 1e-9))
    passed = ok and rows and rows[-1][2] <= rows[0][2] + 1e-9
    summary = (f"box vs 2*prokhorov rows: {len(rows)}, all dominated: {ok}",)
    return ("step", "mix", "box", "prokhorov", "dominated"), rows, bool(passed), summary, None


def _suite_classifier_demo(params):
    expected = {
        "const:fp:2": (True, True, True, True, True),
        "gn1": (False, True, True, True, True),
        "gn2": (False, False, True, True, True),
        "gn3": (False, False, False, False, True),
    }
    rows = []
    ok = True
    for token, want in expected.items():
        v = classify_sequence(family(token), family_limit(token), (4.0, 8.0), (1, 2, 4, 8, 16))
        got = tuple(v.conditions[k] for k in (1, 2, 3, 4, 5))
        match = got == want
        ok = ok and match
        rows.append((token,) + got + (match,))
    summary = tuple(f"{r[0]}: conditions {r[1:6]} match={r[6]}" for r in rows)
    return ("family", "c1", "c2", "c3", "c4", "c5", "matches"), rows, ok, summary, None


_SUITE_FNS = {
    "sphere_od_decay": _suite_sphere_od_decay,
    "cex_1dim_collapse": _suite_cex_1dim_collapse,
    "lemma_batteries": _suite_lemma_batteries,
    "box_convergence": _suite_box_convergence,
    "classifier_demo": _suite_classifier_demo,
}


def run_suite(spec: ExperimentSpec) -> SuiteResult:
    """Run a named suite; artifacts land in spec.out_dir when given."""
    if spec.suite not in _SUITE_FNS:
        raise BadSpec(f"unknown suite {spec.suite!r}; options: {SUITES}")
    unknown = sorted(set(spec.params) - set(_PARAM_KEYS))
    if unknown:
        raise BadSpec(f"unknown suite parameters {unknown}; options: {_PARAM_KEYS}")
    header, rows, passed, summary, plot = _SUITE_FNS[spec.suite](dict(spec.params))
    csv_path = svg_path = None
    if spec.out_dir:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = str(out / f"{spec.suite}.csv")
        write_csv(csv_path, header, rows)
        if plot is not None:
            svg_path = str(out / f"{spec.suite}.svg")
            write_svg(svg_path, *plot, spec.suite)
    return SuiteResult(suite=spec.suite, rows=tuple(tuple(r) for r in rows),
                       header=tuple(header), passed=bool(passed),
                       summary=tuple(summary), csv_path=csv_path, svg_path=svg_path)

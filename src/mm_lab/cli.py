"""Command line surface: `mml <subcommand> ...`.

Thin argparse wrappers over the library; every command is deterministic
given --seed and prints a one-line verdict where a check is involved.
Exit code 0 means every assertion made by the invoked command held.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .batteries import BATTERY_NAMES, run_inequality_battery
from .core import (
    BATTERY_TOL,
    _numbers,
    as_lip,
    load_space,
    pushforward,
    read_json,
    save_space,
)
from .distances import box_distance, concentration_certificate, ky_fan, prokhorov
from .errors import MMLabError
from .experiments import SUITES, ExperimentSpec, run_suite, write_csv
from .gallery import (
    build_counterexample_1dim,
    build_counterexample_2dim,
    example_5_1,
    four_point_Z,
    sample_sphere,
    two_point,
)
from .invariants import (
    concentration_function,
    levy_mean,
    levy_radius,
    observable_diameter,
    partial_diameter,
)
from .mpf import (
    builtin,
    check_triangle_triplets,
    classify_sequence,
    defect_table,
    family,
    family_limit,
    mpf_to_json,
)
from .product import ProductSpec, metric_transform, product


def _add_common(p):
    p.add_argument("--seed", type=int, default=7)


def _load_measure(path, space):
    data = read_json(path)
    if isinstance(data, dict):
        if "weight" not in data:
            raise MMLabError(f"{path}: measure object has no 'weight'")
        data = data["weight"]
    v = _numbers(data, f"measure in {path}")
    if v.shape != (space.n,):
        raise MMLabError(f"measure of shape {v.shape} on a {space.n}-point space")
    return v


def _require(args, command, *options):
    """Raise MMLabError naming each of ``options`` that ``command`` was not given."""
    missing = [f"--{o}" for o in options if getattr(args, o) is None]
    if missing:
        raise MMLabError(f"{command} needs {' and '.join(missing)}")


def _option_list(args, option, convert):
    """The comma-separated values of --option, each read by ``convert``."""
    text = getattr(args, option)
    try:
        return [convert(x) for x in text.split(",")]
    except ValueError:
        raise MMLabError(f"--{option} takes comma-separated numbers, got {text!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="mml", description=__doc__)
    ap.add_argument("--version", action="version", version=f"mm-lab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("space", help="validate and round-trip space files")
    p.add_argument("action", choices=["validate"])
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("-o", "--out")
    _add_common(p)

    p = sub.add_parser("mpf", help="descriptor diagnostics")
    p.add_argument("action", choices=["check", "defect", "classify", "show"])
    p.add_argument("--fn", help="descriptor token, e.g. fp:2, h1, gn3:5")
    p.add_argument("--family", help="family token for classify, e.g. gn3")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--horizon", type=float, default=8.0)
    p.add_argument("--D", type=str, default="8")
    p.add_argument("--h", type=float, default=1.0 / 64.0)
    p.add_argument("--probe", type=float)
    p.add_argument("--n", type=str, default="1,2,4,8,16")
    p.add_argument("-o", "--out")
    _add_common(p)

    p = sub.add_parser("product", help="build a product space")
    p.add_argument("--space", action="append", required=True)
    p.add_argument("--fn", default="lp:2")
    p.add_argument("-o", "--out", required=True)
    _add_common(p)

    p = sub.add_parser("transform", help="apply a unary descriptor to the metric")
    p.add_argument("--space", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("-o", "--out", required=True)
    _add_common(p)

    p = sub.add_parser("invariant", help="concentration invariants")
    p.add_argument("what", choices=["od", "pd", "conc", "lr", "lm"])
    p.add_argument("--space", required=True)
    p.add_argument("--kappa", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--mode", default="auto",
                   choices=["auto", "exact", "exact_tiny", "heuristic", "heuristic_lb"])
    p.add_argument("--budget", type=int, default=20_000)
    _add_common(p)

    p = sub.add_parser("dist", help="distances between spaces or measures")
    p.add_argument("what", choices=["prok", "box", "kyfan"])
    p.add_argument("--space")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--mu")
    p.add_argument("--nu")
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--mode", default="exact_tiny", choices=["exact_tiny", "bound"])
    p.add_argument("--plan-csv")
    _add_common(p)

    p = sub.add_parser("cert", help="concentration certificate for a map")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", dest="map_file", required=True)
    p.add_argument("--budget", type=int, default=4000)
    _add_common(p)

    p = sub.add_parser("gallery", help="build named spaces")
    p.add_argument("what", choices=["sphere", "two-point", "four-point",
                                    "example51", "counterexample1", "counterexample2"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--N", type=int, default=400)
    p.add_argument("--metric", default="chordal", choices=["chordal", "geodesic"])
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--sn", type=float, default=3.0)
    p.add_argument("--tn", type=float, default=3.0)
    p.add_argument("--w0", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--fn", default="h1")
    p.add_argument("-o", "--out", required=True)
    _add_common(p)

    p = sub.add_parser("battery", help="run an inequality battery")
    p.add_argument("lemma", choices=list(BATTERY_NAMES))
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--csv")
    p.add_argument("--tol", type=float, default=BATTERY_TOL)
    _add_common(p)

    p = sub.add_parser("experiment", help="run an experiment suite")
    p.add_argument("suite", choices=list(SUITES))
    p.add_argument("--out", default="experiments")
    p.add_argument("--trials", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--budget", type=int)
    _add_common(p)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except MMLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "space":
        space = load_space(args.inp)
        proof = (f" (slack ≤ {space.triangle_slack:.3g})"
                 if space.triangle_check == "certified" else "")
        if space.coords_error is not None:
            proof += f", coords within τ = {space.coords_error:.3g}"
        print(f"valid space: {space.n} points, diameter {space.diam:.6g}, "
              f"{space.triangle_check} triangle check{proof}")
        if args.out:
            save_space(space, args.out)
        return 0

    if cmd == "mpf":
        return _cmd_mpf(args)

    if cmd == "product":
        spaces = tuple(load_space(s) for s in args.space)
        F = builtin(args.fn)
        prod = product(ProductSpec(spaces, F, seed=args.seed))
        save_space(prod, args.out)
        print(f"product: {prod.n} points -> {args.out}")
        return 0

    if cmd == "transform":
        space = load_space(args.space)
        out = metric_transform(space, builtin(args.fn))
        save_space(out, args.out)
        print(f"transformed: {out.n} points -> {args.out}")
        return 0

    if cmd == "invariant":
        return _cmd_invariant(args)

    if cmd == "dist":
        return _cmd_dist(args)

    if cmd == "cert":
        source = load_space(args.source)
        target = load_space(args.target)
        cert = concentration_certificate(source, target, read_json(args.map_file),
                                         budget=args.budget, seed=args.seed)
        print(f"epsilon_lip={cert.epsilon_lip:.6g} epsilon_prok={cert.epsilon_prok:.6g} "
              f"epsilon_haus={cert.epsilon_haus:.6g} overall={cert.overall:.6g}")
        return 0

    if cmd == "gallery":
        return _cmd_gallery(args)

    if cmd == "battery":
        rep = run_inequality_battery(args.lemma, trials=args.trials, seed=args.seed,
                                     tol=max(args.tol, BATTERY_TOL))
        if args.csv:
            write_csv(args.csv, ("index", "lhs", "rhs", "pass"),
                      [(r.index, r.lhs, r.rhs, r.passed) for r in rep.rows])
        status = "PASS" if rep.all_pass else "FAIL"
        print(f"battery {args.lemma}: {len(rep.failures)} failures in {args.trials} trials [{status}]")
        return 0 if rep.all_pass else 1

    if cmd == "experiment":
        params = {}
        for key in ("trials", "N", "budget"):
            v = getattr(args, key, None)
            if v is not None:
                params[key] = v
        params["seed"] = args.seed
        res = run_suite(ExperimentSpec(suite=args.suite, params=params, out_dir=args.out))
        for line in res.summary:
            print(line)
        print(f"suite {args.suite}: {'PASS' if res.passed else 'FAIL'}")
        return 0 if res.passed else 1


def _cmd_mpf(args) -> int:
    _require(args, f"mpf {args.action}", "family" if args.action == "classify" else "fn")
    if args.action == "show":
        print(json.dumps(mpf_to_json(builtin(args.fn)), indent=2))
        return 0
    if args.action == "check":
        F = builtin(args.fn)
        v = check_triangle_triplets(F, samples=args.samples, horizon=args.horizon,
                                    seed=args.seed)
        if v.passed:
            print(f"{args.fn}: no violation in {v.samples_run} sampled triplets "
                  "(falsifier, not a proof)")
            return 0
        print(f"{args.fn}: VIOLATION {v.counterexample or v.zero_note}")
        return 1
    if args.action == "defect":
        F = builtin(args.fn)
        D = _option_list(args, "D", float)[0]
        rep = defect_table(F, D=D, h=args.h, probe=args.probe or max(D, 16.0))
        print(f"{args.fn}: sup defect {rep.sup_defect:.6g} on [0,{D}]^{F.arity} "
              f"(h={rep.h}, probe={rep.probe_bound})")
        if args.out:
            if F.arity == 1:
                rows = [(g, t) for g, t in zip(rep.grid, rep.table)]
                write_csv(args.out, ("s", "defect"), rows)
            else:
                rows = [(rep.grid[i], rep.grid[j], rep.table[i, j])
                        for i in range(len(rep.grid)) for j in range(len(rep.grid))]
                write_csv(args.out, ("s", "t", "defect"), rows)
        return 0
    if args.action == "classify":
        n_list = _option_list(args, "n", int)
        D_list = _option_list(args, "D", float)
        v = classify_sequence(family(args.family), family_limit(args.family),
                              D_list=D_list, n_list=n_list, h=args.h,
                              probe=args.probe)
        conds = " ".join(f"({k}){'Y' if v.conditions[k] else 'n'}" for k in (1, 2, 3, 4, 5))
        print(f"{args.family}: {conds}")
        for k, ev in enumerate(v.evidence["sup_defect_global_probe"]):
            print(f"  n={v.evidence['n_list'][k]}: global sup defect {ev:.6g}")
        return 0


def _cmd_invariant(args) -> int:
    space = load_space(args.space)
    if args.what == "od":
        mode = {"exact": "exact_tiny", "heuristic": "heuristic_lb"}.get(args.mode, args.mode)
        est = observable_diameter(space, args.kappa, mode=mode,
                                  budget=args.budget, seed=args.seed)
        print(f"od(kappa={args.kappa}) = {est.value:.9g} [{est.mode}]")
        return 0
    if args.what == "pd":
        ident = as_lip(space, space.dist[0], lip_const=1.0)
        val = partial_diameter(pushforward(space, ident), args.alpha)
        print(f"pd of anchor observable at alpha={args.alpha}: {val:.9g}")
        return 0
    if args.what == "conc":
        mode = {"exact_tiny": "exact", "heuristic_lb": "heuristic"}.get(args.mode, args.mode)
        res = concentration_function(space, args.r, mode=mode)
        print(f"alpha({args.r}) in [{res.lower:.9g}, {res.upper:.9g}] [{res.mode}]")
        return 0
    if args.what == "lr":
        mode = "exact_tiny" if args.mode in ("exact", "exact_tiny") else "heuristic_lb"
        val = levy_radius(space, args.kappa, budget=args.budget, seed=args.seed, mode=mode)
        print(f"levy radius at kappa={args.kappa} [{mode}]: {val:.9g}")
        return 0
    if args.what == "lm":
        ident = as_lip(space, space.dist[0], lip_const=1.0)
        mi = levy_mean(pushforward(space, ident))
        print(f"levy mean of anchor observable: {mi.mean:.9g} (medians [{mi.low:.9g}, {mi.high:.9g}])")
        return 0


def _cmd_dist(args) -> int:
    need = {"prok": ("space", "mu", "nu"), "box": ("x", "y"), "kyfan": ("space", "f", "g")}
    _require(args, f"dist {args.what}", *need[args.what])
    if args.what == "prok":
        space = load_space(args.space)
        mu = _load_measure(args.mu, space)
        nu = _load_measure(args.nu, space)
        val, plan = prokhorov(space, mu, nu, lam=args.lam)
        print(f"prokhorov(lambda={args.lam}) = {val:.9g} "
              f"(plan deficiency {plan.deficiency:.6g})")
        if args.plan_csv:
            write_csv(args.plan_csv, tuple(space.labels),
                      [tuple(row) for row in plan.matrix])
        return 0
    if args.what == "box":
        x = load_space(args.x)
        y = load_space(args.y)
        res = box_distance(x, y, mode=args.mode, seed=args.seed)
        if args.mode == "exact_tiny":
            print(f"box = {res:.9g}")
        else:
            print(f"box in [{res[0]:.9g}, {res[1]:.9g}]")
        return 0
    if args.what == "kyfan":
        space = load_space(args.space)
        f = _load_measure(args.f, space)
        g = _load_measure(args.g, space)
        print(f"ky_fan = {ky_fan(space, f, g):.9g}")
        return 0


def _cmd_gallery(args) -> int:
    out = Path(args.out)
    if args.what == "sphere":
        sph = sample_sphere(args.n, args.r, args.N, metric=args.metric, seed=args.seed)
        save_space(sph.space, out)
        print(f"sphere sample: dim {args.n}, {args.N} points -> {out}")
        return 0
    if args.what == "two-point":
        save_space(two_point(args.s, args.w0), out)
        return 0
    if args.what == "four-point":
        save_space(four_point_Z(args.alpha, args.beta, args.gamma), out)
        return 0
    out.mkdir(parents=True, exist_ok=True)
    if args.what == "example51":
        g = example_5_1(args.n, args.N, seed=args.seed)
        save_space(g.space, out / "glued.json")
        save_space(g.limit, out / "limit.json")
        (out / "map.json").write_text(json.dumps([int(v) for v in g.p_map]))
        print(f"glued space ({g.space.n} points) and limit -> {out}/")
        return 0
    if args.what == "counterexample1":
        F = builtin(args.fn)
        b = build_counterexample_1dim(lambda k: F, args.s, args.sn,
                                      n=args.n, N=args.N, seed=args.seed)
        save_space(b.product_space, out / "product.json")
        save_space(b.transformed, out / "transformed.json")
        save_space(b.limit_space, out / "limit.json")
        (out / "map.json").write_text(json.dumps([int(v) for v in b.p_map]))
        (out / "bundle.json").write_text(json.dumps({
            "s": b.s, "s_n": b.s_n, "eta": b.eta, "r_n": b.r_n, "k_n": b.k_n,
            "limit_distance": b.limit_distance, "dim_capped": b.dim_capped}))
        print(f"collapse bundle (k_n={b.k_n}, limit d={b.limit_distance:.6g}) -> {out}/")
        return 0
    if args.what == "counterexample2":
        F = builtin(args.fn)
        b = build_counterexample_2dim(lambda k: F, args.s, args.t, args.sn, args.tn,
                                      n=args.n, N=args.N, seed=args.seed)
        save_space(b.product_space, out / "product.json")
        save_space(b.limit_space, out / "limit.json")
        (out / "map.json").write_text(json.dumps([int(v) for v in b.p_map]))
        (out / "bundle.json").write_text(json.dumps(
            {k: (float(v) if isinstance(v, (int, float)) else v)
             for k, v in b.second.items()}))
        print(f"planar collapse bundle -> {out}/")
        return 0


if __name__ == "__main__":
    sys.exit(main())

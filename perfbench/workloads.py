"""The four benchmark workloads.

Each workload has three parts:

* ``inputs(seed)`` builds the inputs on the benchmark's side, from the seed
  alone, as plain numbers and arrays.  This is part of set-up.
* ``ops(inp)`` lists the operations of one round as ``(label, thunk)``
  pairs.  Every thunk makes its calls into mm_lab through module attributes,
  so the tracer's wrappers see them; a round is the timed section.
* ``check(inp, results)`` tests the outputs against the oracles in
  ``oracles.py`` and returns a list of problems; it runs outside the timed
  section.
"""
from __future__ import annotations

import importlib

import numpy as np

import mm_lab.core as core
import mm_lab.distances as distances
import mm_lab.gallery as gallery
import mm_lab.invariants as invariants
import mm_lab.mpf as mpf

# the package rebinds the name "product" to the function, so fetch the module
product = importlib.import_module("mm_lab.product")

import oracles


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0x7FFFFFFF, tag])


def _euclidean(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _weights(rng, n: int) -> np.ndarray:
    w = 0.05 + rng.random(n)
    return w / w.sum()


def _rational(rng, n: int, denom: int) -> np.ndarray:
    """Weights k/denom with every k >= 1."""
    return (rng.multinomial(denom - n, np.ones(n) / n) + 1) / denom


def _odd_eighths(rng, n: int) -> np.ndarray:
    """Weights k/8, k >= 1, with an odd k, so that no coarser equal-mass
    chunking exists and box_distance enumerates all 8 chunks."""
    while True:
        w = _rational(rng, n, 8)
        if ((w * 8).round() % 2).any():
            return w


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# collapse: the transformed product of a two-point space and a sphere

class Collapse:
    """One cex_1dim_collapse bundle per round: h1, s = 2, s_n = 3, n = 50,
    N = 512 sphere samples per fiber (1024 points), certificate budget 1000,
    the naive Lipschitz-up-to check, and six spot Ky Fan values."""

    name = "collapse"
    S, SN, INDEX, N, BUDGET = 2.0, 3.0, 50, 512, 1000
    NAIVE_GRID = (0.1, 0.2, 0.3, 0.4, 0.5)

    def inputs(self, seed):
        rng = _rng(seed, 1)
        # anchors of distance-cone observables, and 1-Lipschitz functions on
        # the two-point limit (its edge has length F(2) - F(3) = 1 under h1)
        anchors = rng.integers(0, 2 * self.N, 6)
        g0 = rng.uniform(0.0, 2.0, 6)
        g1 = g0 + rng.uniform(-1.0, 1.0, 6)
        return {"seed": int(seed), "spots": [(int(a), np.array([x, y]))
                                             for a, x, y in zip(anchors, g0, g1)]}

    def ops(self, inp):
        def bundle():
            F = mpf.builtin("h1")
            b = gallery.build_counterexample_1dim(lambda k: F, self.S, self.SN,
                                                  n=self.INDEX, N=self.N, seed=inp["seed"])
            cert = distances.concentration_certificate(b.transformed, b.limit_space, b.p_map,
                                                       budget=self.BUDGET, seed=inp["seed"])
            naive = product.metric_transform(gallery.two_point(self.S), F)
            eps_naive, _ = distances.lip_up_to_eps(b.p_map, b.transformed, naive,
                                                   eps_grid=self.NAIVE_GRID)
            spots = [distances.ky_fan(b.transformed, b.transformed.dist[:, a], g[b.p_map])
                     for a, g in inp["spots"]]
            return {"bundle": b, "cert": cert, "naive_edge": float(naive.dist[0, 1]),
                    "eps_naive": eps_naive, "spots": spots}
        return [("bundle", bundle)]

    def check(self, inp, results):
        if "bundle" not in results:
            return []
        out = results["bundle"]
        b, cert = out["bundle"], out["cert"]
        N, s, sn = self.N, self.S, self.SN
        problems = []
        if not _close(b.limit_distance, 1.0, 1e-9):
            problems.append(f"limit distance {b.limit_distance} != 1")
        a = b.sphere_coords
        z0 = np.concatenate([np.zeros((N, 1)), a], axis=1)
        z1 = np.concatenate([np.full((N, 1), s), -a], axis=1)
        anti_gap = float(np.abs(np.linalg.norm(z0 - z1, axis=1) - sn).max())
        if anti_gap > 1e-9:
            problems.append(f"antipodal gap {anti_gap:.3g} > 1e-9")
        cross = b.product_space.dist[:N, N:]
        if cross.min() < s - 1e-9 or cross.max() > sn + 1e-9:
            problems.append(f"cross distances span [{cross.min()}, {cross.max()}], not in [{s}, {sn}]")
        i, j = _rng(inp["seed"], 2).integers(0, N, (2, 64))
        direct = np.sqrt(s * s + ((a[i] - a[j]) ** 2).sum(axis=1))
        if np.abs(cross[i, j] - direct).max() > 1e-9:
            problems.append("product cross distances disagree with the coordinates")
        if cert.epsilon_prok != 0.0:
            problems.append(f"epsilon_prok {cert.epsilon_prok} != 0 for two half-mass fibers")
        parts = (cert.epsilon_lip, cert.epsilon_prok, cert.epsilon_haus)
        if cert.overall != max(parts):
            problems.append(f"overall {cert.overall} != max of components {parts}")
        if cert.overall > 0.3:
            problems.append(f"certificate overall {cert.overall} > 0.3")
        if cert.epsilon_haus != max(cert.observables, default=0.0):
            problems.append("epsilon_haus is not the worst observable fit")
        w = b.transformed.weight
        problems += self._naive_problems(out, b.transformed.dist[:N, N:], w)
        for (anchor, g), got in zip(inp["spots"], out["spots"]):
            want = oracles.ky_fan(w, b.transformed.dist[:, anchor], g[b.p_map])
            if not _close(got, want, 1e-9):
                problems.append(f"ky_fan at anchor {anchor}: {got} != oracle {want}")
        return problems

    def _naive_problems(self, out, tcross, w):
        """The naive limit, the base pair at distance F(2) = 2, needs eps 0.5.

        Only cross-fiber pairs can break d_Y(p x, p x') <= d_X(x, x') + eps,
        so the violations form a bipartite graph and the least removable
        mass is a minimum vertex cover.  Removing one fiber (mass 1/2)
        always works at eps = 0.5; at 0.4 the cover must weigh more than
        0.4.  lip_up_to_eps covers greedily beyond 16 points, so its eps is
        an upper bound: 0.5 or inf.
        """
        problems = []
        if out["naive_edge"] != 2.0:
            problems.append(f"naive limit edge {out['naive_edge']} != F(2) = 2")
        if np.ptp(w) != 0.0:
            return problems + ["collapse weights are not uniform"]
        cover = oracles.bipartite_min_cover(out["naive_edge"] - tcross > 0.4 + 1e-12) * w[0]
        if cover <= 0.4 + 1e-12:
            problems.append(f"a domain of mass {1 - cover} exists at eps 0.4")
        if out["eps_naive"] < 0.5:
            problems.append(f"naive eps {out['eps_naive']} < 0.5")
        return problems


# ---------------------------------------------------------------------------
# sphere_od: heuristic observable diameter of sphere samples

class SphereOD:
    """observable_diameter(heuristic_lb) of N = 1000 chordal samples of the
    unit n-sphere for n in 2..32, kappa 0.1, budget 20000."""

    name = "sphere_od"
    DIMS, N, KAPPA, BUDGET = (2, 4, 8, 16, 32), 1000, 0.1, 20_000
    SLOPE = (-0.75, -0.30)

    def inputs(self, seed):
        return {"seed": int(seed)}

    def ops(self, inp):
        def one(n):
            sph = gallery.sample_sphere(n, 1.0, self.N, metric="chordal", seed=inp["seed"])
            est = invariants.observable_diameter(sph.space, self.KAPPA, mode="heuristic_lb",
                                                 budget=self.BUDGET, seed=inp["seed"])
            # keep the coordinates, not the N x N matrix: the check rebuilds it
            return {"coords": sph.space.coords, "weight": sph.space.weight, "est": est}
        return [(f"n={n}", lambda n=n: one(n)) for n in self.DIMS]

    def check(self, inp, results):
        problems = []
        for n in self.DIMS:
            r = results.get(f"n={n}")
            if r is None:
                continue
            est, coords = r["est"], r["coords"]
            if np.abs(np.linalg.norm(coords, axis=1) - 1.0).max() > 1e-9:
                problems.append(f"n={n}: samples are off the unit sphere")
            excess = oracles.max_lipschitz_excess_euclidean(coords, est.witness.values)
            if excess > 1e-9:
                problems.append(f"n={n}: witness breaks 1-Lipschitz by {excess:.3g}")
            pd = oracles.partial_diameter(est.witness.values, r["weight"], 1.0 - self.KAPPA)
            if not _close(est.value, pd, 1e-9):
                problems.append(f"n={n}: value {est.value} != partial diameter {pd} of its witness")
        if len(results) == len(self.DIMS):
            ods = [results[f"n={n}"]["est"].value for n in self.DIMS]
            slope = float(np.polyfit(np.log(self.DIMS), np.log(ods), 1)[0])
            lo, hi = self.SLOPE
            if not lo <= slope <= hi:
                problems.append(f"decay slope {slope:.4f} outside [{lo}, {hi}]")
        return problems


# ---------------------------------------------------------------------------
# tiny_exact: many small exact solves

class TinyExact:
    """About 200 small instances per round; the seed draws their points,
    weights and parameters, and the sizes are fixed."""

    name = "tiny_exact"
    PROK_SMALL, PROK_LARGE, OD, KYFAN, BOX_SELF, BOX_PROD = 120, (50, 100, 200), 24, 30, 4, 6
    BOX_PROK = ((3, 8), (4, 8), (5, 8), (2, 4), (3, 4), (2, 6), (3, 6))  # (points, denominator)
    CONC = (8, 10, 12, 14, 16, 16, 12, 10)
    KAPPA = (4, 5, 6, 7, 8, 9, 10, 10)

    def inputs(self, seed):
        rng = _rng(seed, 3)
        inp = {}

        def cloud(n, scale=1.0):
            return _euclidean(scale * rng.normal(size=(n, 3)))

        def prok_case(n):
            return {"dist": cloud(n), "mu": _weights(rng, n), "nu": _weights(rng, n),
                    "lam": float(rng.choice([0.5, 1.0, 2.0]))}

        # sizes are fixed so that every seed asks for the same amount of work
        inp["prok"] = ([prok_case(2 + i % 5) for i in range(self.PROK_SMALL)]
                       + [prok_case(n) for n in self.PROK_LARGE])
        inp["od"] = []
        for i in range(self.OD):
            n = 3 + i % 4
            inp["od"].append({"dist": cloud(n), "weight": _weights(rng, n),
                              "kappa": float(rng.uniform(0.1, 0.6))})
        # small diameters keep box values below the discarded-mass ceiling
        inp["box_self"] = []
        for i in range(self.BOX_SELF):
            n = 2 + i % 3
            w = _odd_eighths(rng, n) if i % 2 else _rational(rng, n, 4)
            inp["box_self"].append({"dist": cloud(n, 0.3), "weight": w})
        inp["box_prok"] = []
        for n, denom in self.BOX_PROK:
            mu = _odd_eighths(rng, n) if denom == 8 else _rational(rng, n, denom)
            nu = mu
            # equal measures would stop the chunk enumeration after one batch
            while np.array_equal(nu, mu):
                nu = _rational(rng, n, denom)
            inp["box_prok"].append({"dist": cloud(n, 0.3), "mu": mu, "nu": nu})
        inp["box_prod"] = [rng.uniform(0.2, 1.0, 4) for _ in range(self.BOX_PROD)]
        inp["conc"] = []
        for n in self.CONC:
            d = cloud(n)
            inp["conc"].append({"dist": d, "weight": _weights(rng, n),
                                "r": float(rng.uniform(0.2, 0.8) * d.max()),
                                "closed": bool(rng.random() < 0.5)})
        inp["kappa"] = []
        for n in self.KAPPA:
            perm = rng.permutation(n)
            k1 = min(5, n // 2)
            k2 = min(5, n - k1)
            inp["kappa"].append({"dist": cloud(n), "weight": _weights(rng, n),
                                 "A1": sorted(perm[:k1].tolist()),
                                 "A2": sorted(perm[k1:k1 + k2].tolist()),
                                 "kappa": float(rng.uniform(0.02, 0.2))})
        inp["kyfan"] = []
        for i in range(self.KYFAN):
            n = 2 + i % 5
            d = cloud(n)

            def cone():
                # McShane extension of random anchor values: 1-Lipschitz
                a = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
                return (rng.uniform(0.0, d.max(), len(a))[None, :] + d[:, a]).min(axis=1)
            inp["kyfan"].append({"dist": d, "weight": _weights(rng, n), "f": cone(), "g": cone()})
        return inp

    def ops(self, inp):
        def space(dist, weight):
            return core.validate_space({"dist": dist, "weight": weight})

        def prok(c):
            X = space(c["dist"], c["mu"])
            eps, plan = distances.prokhorov(X, c["mu"], c["nu"], lam=c["lam"])
            return eps, plan.matrix

        def od(c):
            return invariants.observable_diameter(space(c["dist"], c["weight"]), c["kappa"],
                                                  mode="exact_tiny")

        def box_self(c):
            X = space(c["dist"], c["weight"])
            return distances.box_distance(X, X, mode="exact_tiny")

        def box_prok(c):
            X, Y = space(c["dist"], c["mu"]), space(c["dist"], c["nu"])
            box = distances.box_distance(X, Y, mode="exact_tiny")
            eps, plan = distances.prokhorov(X, c["mu"], c["nu"], lam=1.0)
            return box, eps, plan.matrix

        def box_prod(lengths):
            X, Y, Z, W = (space([[0.0, t], [t, 0.0]], [0.5, 0.5]) for t in lengths)
            XZ = product.lp_product(X, Z, 2.0, check_samples=0)
            YW = product.lp_product(Y, W, 2.0, check_samples=0)
            return {"xz": XZ.dist, "yw": YW.dist,
                    "lhs": distances.box_distance(XZ, YW, mode="exact_tiny"),
                    "xy": distances.box_distance(X, Y, mode="exact_tiny"),
                    "zw": distances.box_distance(Z, W, mode="exact_tiny")}

        def conc(c):
            X = space(c["dist"], c["weight"])
            return invariants.concentration_function(X, c["r"], mode="exact", closed=c["closed"])

        def kappa(c):
            X = space(c["dist"], c["weight"])
            return invariants.kappa_distance(X, c["A1"], c["A2"], c["kappa"])

        def kyfan(c):
            X = space(c["dist"], c["weight"])
            ky = distances.ky_fan(X, c["f"], c["g"])
            pf = core.real_distribution(zip(c["f"], X.weight))
            pg = core.real_distribution(zip(c["g"], X.weight))
            return ky, distances.prokhorov_real(pf, pg, lam=1.0)

        table = [("prok", prok), ("od", od), ("box_self", box_self), ("box_prok", box_prok),
                 ("box_prod", box_prod), ("conc", conc), ("kappa", kappa), ("kyfan", kyfan)]
        return [(f"{kind}[{i}]", lambda fn=fn, c=c: fn(c))
                for kind, fn in table for i, c in enumerate(inp[kind])]

    def check(self, inp, results):
        problems = []

        def each(kind):
            for i, c in enumerate(inp[kind]):
                label = f"{kind}[{i}]"
                if label in results:
                    yield label, c, results[label]

        def prok_problems(label, dist, mu, nu, lam, eps, plan):
            want = oracles.prokhorov_lp(dist, mu, nu, lam)
            out = [] if _close(eps, want, 1e-6) else [f"{label}: prokhorov {eps} != LP {want}"]
            return out + [f"{label}: {p}" for p in oracles.plan_problems(dist, mu, nu, lam, eps, plan)]

        for label, c, (eps, plan) in each("prok"):
            problems += prok_problems(label, c["dist"], c["mu"], c["nu"], c["lam"], eps, plan)
        for label, c, est in each("od"):
            d, w, kappa = c["dist"], c["weight"], c["kappa"]
            delta = float(d.max()) / 8.0
            grid = oracles.observable_diameter_grid(d, w, kappa, delta)
            if not grid - 1e-9 <= est.value <= grid + 2 * delta + 1e-9:
                problems.append(f"{label}: exact od {est.value} not within 2*delta of grid {grid}")
            if oracles.max_lipschitz_excess(d, est.witness.values) > 1e-9:
                problems.append(f"{label}: witness is not 1-Lipschitz")
            pd = oracles.partial_diameter(est.witness.values, w, 1.0 - kappa)
            if not _close(est.value, pd, 1e-9):
                problems.append(f"{label}: value {est.value} != witness partial diameter {pd}")
        for label, c, box in each("box_self"):
            if box != 0.0:
                problems.append(f"{label}: box(X, X) = {box}")
        for label, c, (box, eps, plan) in each("box_prok"):
            problems += prok_problems(label, c["dist"], c["mu"], c["nu"], 1.0, eps, plan)
            if box > 2.0 * eps + 1e-9:
                problems.append(f"{label}: box {box} > 2 * prokhorov {eps}")
        for label, t, r in each("box_prod"):
            d = [np.array([[0.0, x], [x, 0.0]]) for x in t]
            one = np.ones((2, 2))
            for key, (p, q) in (("xz", (0, 2)), ("yw", (1, 3))):
                want = np.sqrt(np.kron(d[p] ** 2, one) + np.kron(one, d[q] ** 2))
                if np.abs(r[key] - want).max() > 1e-12:
                    problems.append(f"{label}: l2 product {key} has wrong distances")
            for key, (p, q) in (("xy", (0, 1)), ("zw", (2, 3))):
                want = min(abs(t[p] - t[q]), 0.5)
                if not _close(r[key], want, 1e-12):
                    problems.append(f"{label}: two-point box {r[key]} != {want}")
            if r["lhs"] > r["xy"] + r["zw"] + 1e-9:
                problems.append(f"{label}: box of products {r['lhs']} > {r['xy']} + {r['zw']}")
        for label, c, val in each("conc"):
            want = oracles.concentration_function(c["dist"], c["weight"], c["r"], c["closed"])
            if not (_close(val.lower, want, 1e-12) and _close(val.upper, want, 1e-12)):
                problems.append(f"{label}: concentration [{val.lower}, {val.upper}] != {want}")
        for label, c, kd in each("kappa"):
            d, w = c["dist"], c["weight"]
            want = oracles.kappa_distance(d, w, c["A1"], c["A2"], c["kappa"])
            if not _close(kd.value, want, 1e-12):
                problems.append(f"{label}: kappa distance {kd.value} != {want}")
            B1, B2 = kd.witness
            if want > 0 and not (set(B1) <= set(c["A1"]) and set(B2) <= set(c["A2"])
                                 and w[list(B1)].sum() >= c["kappa"] - 1e-12
                                 and w[list(B2)].sum() >= c["kappa"] - 1e-12
                                 and _close(float(d[np.ix_(B1, B2)].min()), kd.value, 1e-12)):
                problems.append(f"{label}: witness does not realize the kappa distance")
        for label, c, (ky, prok) in each("kyfan"):
            w, f, g = c["weight"], c["f"], c["g"]
            want = oracles.ky_fan(w, f, g)
            if not _close(ky, want, 1e-9):
                problems.append(f"{label}: ky_fan {ky} != oracle {want}")
            pos = np.unique(np.concatenate([f, g]))
            mu = np.array([w[f == p].sum() for p in pos])
            nu = np.array([w[g == p].sum() for p in pos])
            want = oracles.prokhorov_lp(np.abs(pos[:, None] - pos[None, :]), mu, nu, 1.0)
            if not _close(prok, want, 1e-6):
                problems.append(f"{label}: prokhorov_real {prok} != LP {want}")
            if prok > ky + 1e-9:
                problems.append(f"{label}: prokhorov {prok} > ky_fan {ky}")
        return problems


# ---------------------------------------------------------------------------
# mpf_classify: descriptor classification and the triplet falsifier

class MPFClassify:
    """classify_sequence on gn1/gn2/gn3 (n = 1..16, D = 4, 8), the triplet
    falsifier on every gallery descriptor at 1e5 samples, and on sq."""

    name = "mpf_classify"
    N_LIST, D_LIST, SAMPLES = (1, 2, 4, 8, 16), (4.0, 8.0), 100_000
    EXPECTED = {
        "gn1": (False, True, True, True, True),
        "gn2": (False, False, True, True, True),
        "gn3": (False, False, False, False, True),
    }

    def inputs(self, seed):
        return {"seed": int(seed)}

    def ops(self, inp):
        def classify(token):
            return mpf.classify_sequence(mpf.family(token), mpf.family_limit(token),
                                         D_list=self.D_LIST, n_list=self.N_LIST)

        def falsify(token):
            return mpf.check_triangle_triplets(mpf.builtin(token), samples=self.SAMPLES,
                                               horizon=8.0, seed=inp["seed"])

        return ([(f"classify {t}", lambda t=t: classify(t)) for t in self.EXPECTED]
                + [(f"falsify {t}", lambda t=t: falsify(t))
                   for t in mpf.GALLERY_TOKENS + ("sq",)])

    def check(self, inp, results):
        problems = []
        for token, want in self.EXPECTED.items():
            v = results.get(f"classify {token}")
            if v is None:
                continue
            got = tuple(v.conditions[k] for k in (1, 2, 3, 4, 5))
            if got != want:
                problems.append(f"{token}: conditions {got} != {want}")
            if token == "gn2" and min(v.evidence["sup_defect_global_probe"]) < 1.0 - 1e-6:
                problems.append("gn2: the moving bump lost its global defect")
        for token in mpf.GALLERY_TOKENS:
            v = results.get(f"falsify {token}")
            if v is not None and not (v.passed and v.samples_run >= self.SAMPLES):
                problems.append(f"{token}: falsifier reports {v.counterexample or v.zero_note}")
        v = results.get("falsify sq")
        if v is not None:
            cex = v.counterexample
            if v.passed or cex is None:
                problems.append("sq: the falsifier found no violation")
            else:
                (a, b, c), = cex["triplets"]
                values = (a * a, b * b, c * c)
                if oracles.triangle_excess(a, b, c) > 1e-12:
                    problems.append(f"sq: witness {(a, b, c)} is not a triangle triplet")
                if not np.allclose(values, cex["values"], rtol=1e-12, atol=0.0):
                    problems.append(f"sq: reported values {cex['values']} != squares {values}")
                if not oracles.triangle_excess(*values) > 0:
                    problems.append(f"sq: squares {values} satisfy the triangle inequality")
        return problems


WORKLOADS = {w.name: w for w in (Collapse(), SphereOD(), TinyExact(), MPFClassify())}

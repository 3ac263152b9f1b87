import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mm_lab import batteries, cli, core, invariants as inv
from mm_lab.cli import main
from mm_lab.errors import BadSpec
from mm_lab.experiments import ExperimentSpec, run_suite


@pytest.fixture()
def space_file(tmp_path):
    s = core.random_metric_space(4, seed=14)
    path = tmp_path / "space.json"
    core.save_space(s, path)
    return path


def test_space_validate_round_trip(tmp_path, space_file):
    out = tmp_path / "copy.json"
    assert main(["space", "validate", "--in", str(space_file), "-o", str(out)]) == 0
    a = core.load_space(space_file)
    b = core.load_space(out)
    assert np.array_equal(a.dist, b.dist)
    assert np.array_equal(a.weight, b.weight)


def test_space_validate_names_the_triangle_check(tmp_path, space_file, capsys):
    # 4 points are swept; 40 points with coords and no dist are certified
    assert main(["space", "validate", "--in", str(space_file)]) == 0
    assert capsys.readouterr().out.strip().endswith(", exhaustive triangle check")
    path = tmp_path / "cloud.json"
    x = np.random.default_rng(0).normal(size=(40, 3))
    path.write_text(json.dumps({"coords": x.tolist(), "weight": [1 / 40] * 40}))
    assert main(["space", "validate", "--in", str(path)]) == 0
    cloud = core.load_space(path)
    slack = cloud.triangle_slack
    assert 0.0 < slack <= core.METRIC_TOL
    assert capsys.readouterr().out.strip().endswith(
        f", certified triangle check (slack ≤ {slack:.3g}), "
        f"coords within τ = {cloud.coords_error:.3g}")


def test_space_validate_prints_the_coords_error_only_when_proved(tmp_path, capsys):
    x = np.random.default_rng(1).normal(size=(40, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    chordal, geodesic = tmp_path / "chordal.json", tmp_path / "geodesic.json"
    chordal.write_text(json.dumps({"coords": x.tolist(), "weight": [1 / 40] * 40}))
    geodesic.write_text(json.dumps({"coords": x.tolist(), "weight": [1 / 40] * 40,
                                    "metric": "geodesic_sphere", "radius": 1.0}))
    tau = core.load_space(chordal).coords_error
    assert 0.0 < tau <= core.METRIC_TOL
    assert main(["space", "validate", "--in", str(chordal)]) == 0
    assert capsys.readouterr().out.strip().endswith(f"), coords within τ = {tau:.3g}")
    # geodesic distances are not those of the coords: no tau, and no certificate
    assert core.load_space(geodesic).coords_error is None
    assert main(["space", "validate", "--in", str(geodesic)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith(", exhaustive triangle check") and "τ" not in out


@pytest.mark.parametrize("record, missing", [
    ({"coords": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], "weight": [0.5, 0.5],
      "metric": "geodesic_sphere"}, "'radius'"),
    ({"labels": ["a", "b"], "weight": [0.5, 0.5]}, "'coords'"),
    ({"dist": [[0.0, 1.0], [1.0, 0.0]]}, "'weight'"),
    ([[0.0, 1.0], [1.0, 0.0]], "list"),
    ({"coords": [1.0, 2.0], "weight": [0.5, 0.5]}, "coords"),
    ({"labels": 5, "dist": [[0.0, 1.0], [1.0, 0.0]], "weight": [0.5, 0.5]}, "labels"),
    ({"dist": [[0.0, 1.0], [1.0]], "weight": [0.5, 0.5]}, "space dist"),
    ({"dist": [[0.0, "one"], ["one", 0.0]], "weight": [0.5, 0.5]}, "space dist"),
    ({"coords": [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], "weight": [0.5, 0.5],
      "metric": "geodesic_sphere", "radius": "x"}, "radius"),
], ids=["no-radius", "no-dist-or-coords", "no-weight", "top-level-list", "1d-coords",
        "labels-not-list", "ragged-dist", "non-numeric-dist", "non-numeric-radius"])
def test_space_validate_reports_malformed_file(tmp_path, capsys, record, missing):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["space", "validate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
@pytest.mark.parametrize("flag", ["space", "measure", "map"])
def test_unreadable_input_file_is_an_error(tmp_path, space_file, capsys, flag, text):
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_text(text)
    argv = {
        "space": ["space", "validate", "--in", str(bad)],
        "measure": ["dist", "kyfan", "--space", str(space_file), "--f", str(bad),
                    "--g", str(bad)],
        "map": ["cert", "--source", str(space_file), "--target", str(space_file),
                "--map", str(bad)],
    }[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


@pytest.mark.parametrize("index", [-1, 4], ids=["negative", "past-the-end"])
def test_map_index_outside_the_target_is_an_error(tmp_path, space_file, capsys, index):
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps([0, 1, 2, index]))
    argv = ["cert", "--source", str(space_file), "--target", str(space_file), "--map", str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: map must assign a target index")


@pytest.mark.parametrize("what", ["kyfan", "prok"])
def test_non_numeric_measure_is_an_error(tmp_path, space_file, capsys, what):
    bad = tmp_path / "mu.json"
    bad.write_text(json.dumps(["x", 0.5, 0.25, 0.25]))
    flags = {"kyfan": ("--f", "--g"), "prok": ("--mu", "--nu")}[what]
    argv = ["dist", what, "--space", str(space_file), flags[0], str(bad), flags[1], str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: measure in ") and str(bad) in err


def test_map_object_is_an_error(tmp_path, space_file, capsys):
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps({"0": 0, "1": 1, "2": 2, "3": 3}))
    argv = ["cert", "--source", str(space_file), "--target", str(space_file), "--map", str(bad)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: map is not an array of numbers")


def test_measure_object_without_weight_is_an_error(tmp_path, space_file, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"mass": [0.25] * 4}))
    argv = ["dist", "prok", "--space", str(space_file), "--mu", str(mu), "--nu", str(mu)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'weight'" in err


def test_mpf_check_and_defect(tmp_path, capsys):
    assert main(["mpf", "check", "--fn", "fp:2", "--samples", "2000"]) == 0
    assert main(["mpf", "check", "--fn", "sq", "--samples", "2000"]) == 1
    out = tmp_path / "defect.csv"
    assert main(["mpf", "defect", "--fn", "gn3:5", "--D", "8", "--probe", "16",
                 "-o", str(out)]) == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "sup defect" in text


def test_mpf_show_and_unary_defect_csv(tmp_path, capsys):
    assert main(["mpf", "show", "--fn", "fp:2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "lp", "arity": 2, "p": 2.0}
    out = tmp_path / "defect.csv"
    assert main(["mpf", "defect", "--fn", "h1", "--D", "2", "--h", "0.25", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "h1: sup defect 1 on [0,2.0]^1 (h=0.25, probe=16.0)\n"
    rows = out.read_text().splitlines()
    assert rows[:2] == ["s,defect", "0,0"] and len(rows) == 1 + 9


def test_mpf_defect_and_classify_gn2(capsys):
    # gn2:16 is add_f of two unary parts, so its table is the outer sum of two
    # 1-D tables: no 2-D polish reaches below the s = 2 cells to read 0.0156
    assert main(["mpf", "defect", "--fn", "gn2:16", "--D", "8", "--probe", "24"]) == 0
    assert capsys.readouterr().out == "gn2:16: sup defect 0 on [0,8.0]^2 (h=0.015625, probe=24.0)\n"
    assert main(["mpf", "classify", "--family", "gn2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["gn2: (1)n (2)n (3)Y (4)Y (5)Y"] + [
        f"  n={n}: global sup defect 2" for n in (1, 2, 4, 8, 16)]


def test_mpf_classify(capsys):
    assert main(["mpf", "classify", "--family", "gn3", "--n", "1,2,4",
                 "--D", "4"]) == 0
    text = capsys.readouterr().out
    assert "(5)Y" in text and "(4)n" in text


@pytest.mark.parametrize("token", ["fp:abc", "fpq:2", "falpha:", "gn3:x", "mul:power,z", "fn1:0"])
def test_malformed_descriptor_token_is_an_error(capsys, token):
    assert main(["mpf", "show", "--fn", token]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(token) in err and err.count("\n") == 1


@pytest.mark.parametrize("token", ["fp:nan", "falpha:NaN", "fpq:2,-nan"])
def test_nan_descriptor_token_is_an_error(capsys, token):
    # every comparison with a nan is false, so no falsifier check may see one
    assert main(["mpf", "check", "--fn", token, "--samples", "1000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(token) in err and err.count("\n") == 1
    # infinity stays a number: fp:inf is a gallery token
    assert main(["mpf", "show", "--fn", "fp:oo"]) == main(["mpf", "show", "--fn", "fp:inf"]) == 0


@pytest.mark.parametrize("argv, option", [
    (["dist", "box", "--x", "{space}"], "--y"),
    (["dist", "prok", "--space", "{space}"], "--mu and --nu"),
    (["dist", "kyfan", "--space", "{space}"], "--f and --g"),
    (["mpf", "check"], "--fn"),
    (["mpf", "defect"], "--fn"),
    (["mpf", "show"], "--fn"),
    (["mpf", "classify"], "--family"),
    (["mpf", "classify", "--family", "gn1", "--D", ""], "--D"),
    (["mpf", "classify", "--family", "gn1", "--n", "1,x"], "--n"),
])
def test_missing_or_malformed_option_is_an_error(space_file, capsys, argv, option):
    assert main([a.format(space=space_file) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err and err.count("\n") == 1


def test_product_transform_invariant_dist(tmp_path, space_file, capsys):
    two = tmp_path / "two.json"
    assert main(["gallery", "two-point", "--s", "2", "-o", str(two)]) == 0
    prod = tmp_path / "prod.json"
    assert main(["product", "--space", str(two), "--space", str(two),
                 "--fn", "lp:2", "-o", str(prod)]) == 0
    p = core.load_space(prod)
    assert p.n == 4

    tr = tmp_path / "tr.json"
    assert main(["transform", "--space", str(two), "--fn", "h1", "-o", str(tr)]) == 0
    assert core.load_space(tr).dist[0, 1] == pytest.approx(2.0)

    assert main(["invariant", "od", "--space", str(two), "--kappa", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "od(kappa=0.3) = 2" in out

    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text(json.dumps([1.0, 0.0]))
    nu.write_text(json.dumps([0.5, 0.5]))
    plan = tmp_path / "plan.csv"
    assert main(["dist", "prok", "--space", str(two), "--mu", str(mu),
                 "--nu", str(nu), "--lambda", "1", "--plan-csv", str(plan)]) == 0
    assert "0.5" in capsys.readouterr().out
    assert plan.exists()

    assert main(["dist", "box", "--x", str(two), "--y", str(two)]) == 0
    assert "box = 0" in capsys.readouterr().out


def test_invariant_od_rejects_a_zero_budget(tmp_path, capsys):
    path = tmp_path / "cloud.json"
    core.save_space(core.random_metric_space(12, seed=3), path)
    assert main(["invariant", "od", "--space", str(path), "--budget", "0"]) == 2
    assert capsys.readouterr().err == "error: budget must be >= 1\n"


def test_invariant_pd_conc_lm_and_dist_kyfan(tmp_path, capsys):
    four = tmp_path / "four.json"
    assert main(["gallery", "four-point", "-o", str(four)]) == 0
    assert capsys.readouterr().out == ""
    assert core.load_space(four).labels == ("z00", "z10", "z01", "z11")
    for what, line in (("pd", "pd of anchor observable at alpha=0.5: 0"),
                       ("conc", "alpha(1.0) = 0.5 [exact]"),
                       ("lm", "levy mean of anchor observable: 1 (medians [1, 1])")):
        assert main(["invariant", what, "--space", str(four)]) == 0
        assert capsys.readouterr().out == line + "\n", what
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    f.write_text(json.dumps([0.0, 1.0, 2.0, 3.0]))
    g.write_text(json.dumps({"weight": [0.0, 1.0, 2.0, 2.5]}))
    assert main(["dist", "kyfan", "--space", str(four), "--f", str(f), "--g", str(g)]) == 0
    assert capsys.readouterr().out == "ky_fan = 0.25\n"


def test_gallery_sphere_example51_counterexample2(tmp_path, capsys):
    sph = tmp_path / "sph.json"
    assert main(["gallery", "sphere", "--n", "2", "--N", "20", "-o", str(sph)]) == 0
    assert capsys.readouterr().out == f"sphere sample: dim 2, 20 points -> {sph}\n"
    assert core.load_space(sph).n == 20
    glued = tmp_path / "glued"
    assert main(["gallery", "example51", "--n", "2", "--N", "12", "-o", str(glued)]) == 0
    assert capsys.readouterr().out == f"glued space (15 points) and limit -> {glued}/\n"
    assert sorted(p.name for p in glued.iterdir()) == ["glued.json", "limit.json", "map.json"]
    planar = tmp_path / "planar"
    assert main(["gallery", "counterexample2", "--fn", "dip", "--s", "1", "--t", "1",
                 "--sn", "2", "--tn", "2", "--n", "3", "--N", "4", "-o", str(planar)]) == 0
    assert capsys.readouterr().out == f"planar collapse bundle -> {planar}/\n"
    assert core.load_space(planar / "limit.json").n == 4


def test_dist_box_bound(tmp_path, capsys):
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    assert main(["gallery", "two-point", "--s", "2", "-o", str(x)]) == 0
    assert main(["gallery", "two-point", "--s", "1", "-o", str(y)]) == 0
    capsys.readouterr()
    assert main(["dist", "box", "--x", str(x), "--y", str(y), "--mode", "bound"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("box in [")
    lower, upper = (float(v) for v in text.strip()[len("box in ["):-1].split(","))
    # the exact box distance of these two-point spaces is min(|2 - 1|, 1/2)
    assert lower <= 0.5 <= upper


def test_gallery_and_cert(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gallery", "counterexample1", "--fn", "h1", "--s", "2",
                 "--sn", "3", "--n", "6", "--N", "40", "--seed", "3",
                 "-o", str(bundle)]) == 0
    for name in ("product.json", "transformed.json", "limit.json", "map.json", "bundle.json"):
        assert (bundle / name).exists()
    meta = json.loads((bundle / "bundle.json").read_text())
    assert meta["limit_distance"] == pytest.approx(1.0, abs=1e-9)

    assert main(["cert", "--source", str(bundle / "transformed.json"),
                 "--target", str(bundle / "limit.json"),
                 "--map", str(bundle / "map.json"), "--budget", "600"]) == 0
    assert "overall=" in capsys.readouterr().out


def test_invariant_lr_routes_mode(tmp_path, capsys):
    X = core.random_metric_space(5, seed=0)
    path = tmp_path / "x.json"
    core.save_space(X, path)
    args = ["invariant", "lr", "--space", str(path), "--kappa", "0.3"]
    exact = inv.levy_radius(X, 0.3, mode="exact").value
    pool = inv.levy_radius(X, 0.3, budget=20_000, seed=7, mode="bounds").value
    assert f"{exact:.9g}" != f"{pool:.9g}"
    # auto on 5 points takes the exact path
    for mode, want in (("exact", f"= {exact:.9g} [exact]"), ("auto", f"= {exact:.9g} [exact]"),
                       ("bounds", f"in [{pool:.9g}, inf] [lower]")):
        assert main(args + ["--mode", mode]) == 0
        assert capsys.readouterr().out == f"lr(kappa=0.3) {want}\n", mode


def test_invariant_modes_are_auto_exact_and_bounds(capsys):
    with pytest.raises(SystemExit):
        main(["invariant", "--help"])
    assert "--mode {auto,exact,bounds}" in capsys.readouterr().out


def test_nan_horizon_and_empty_battery_are_errors(capsys):
    assert main(["mpf", "check", "--fn", "fp:2", "--horizon", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: horizon must be finite and positive")
    for trials in ("0", "-3"):
        assert main(["battery", "key_F", "--trials", trials]) == 2
        assert capsys.readouterr().err == "error: trials must be >= 1\n"


def test_battery_cli_default_tol_is_the_library_default(monkeypatch):
    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs["tol"])
        return batteries.run_inequality_battery(*args, **kwargs)

    monkeypatch.setattr(cli, "run_inequality_battery", record)
    assert main(["battery", "prok_le_ky", "--trials", "1"]) == 0
    assert seen == [core.BATTERY_TOL]
    assert batteries.run_inequality_battery("prok_le_ky", trials=1).tol == core.BATTERY_TOL


def test_battery_cli(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    assert main(["battery", "prok_le_ky", "--trials", "5", "--csv", str(csv)]) == 0
    assert "0 failures" in capsys.readouterr().out
    assert csv.read_text().startswith("index,lhs,rhs,pass")


def test_experiment_deterministic_csv(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["experiment", "box_convergence", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    c1 = (out1 / "box_convergence.csv").read_bytes()
    c2 = (out2 / "box_convergence.csv").read_bytes()
    assert c1 == c2


def test_run_suite_rejects_unknown_params():
    with pytest.raises(BadSpec, match="steps"):
        run_suite(ExperimentSpec(suite="box_convergence", params={"seed": 5, "steps": 2}))


def test_lemma_batteries_csv_same_across_hash_seeds(tmp_path):
    src = str(Path(core.__file__).resolve().parents[1])
    csvs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        subprocess.run([sys.executable, "-m", "mm_lab", "experiment", "lemma_batteries",
                        "--trials", "2", "--out", str(out)],
                       env=env, capture_output=True, timeout=300, check=True)
        csvs.append((out / "lemma_batteries.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_scipy_loads_on_the_first_flow_solve_only():
    # importing mm_lab and the falsifier need numpy alone; the first max-flow
    # solve brings in scipy.sparse
    src = str(Path(core.__file__).resolve().parents[1])
    code = ("import sys\n"
            "import mm_lab\n"
            "from mm_lab.cli import main\n"
            "loaded = lambda: any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(loaded())\n"
            "main(['mpf', 'check', '--fn', 'petrik', '--samples', '100'])\n"
            "print(loaded())\n"
            "X = mm_lab.random_metric_space(4, seed=0)\n"
            "mm_lab.prokhorov(X, X.weight, [1.0, 0.0, 0.0, 0.0])\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    lines = run.stdout.splitlines()
    assert [lines[0], lines[2], lines[3]] == ["False", "False", "True"], run.stdout

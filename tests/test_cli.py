import argparse
import dataclasses
import json
import resource
import shutil
import subprocess
import sys

import numpy as np
import pytest

from latticediff import cli
from latticediff.model import DispersionSpec, NumericError, SpinSystem
from latticediff.presets import reference_1d, reference_2d
from latticediff.reservoir import psi_xt


def _write_config(tmp_path, cfg, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return str(path)


def _run(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "latticediff.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


def _stamp(name, text):
    """The manifest hash a data file carries: a JSON key, or a CSV's first
    line."""
    return (json.loads(text)["manifest_hash"] if name.endswith(".json")
            else text.splitlines()[0].removeprefix("# manifest: "))


@pytest.fixture(scope="module")
def small_cfg():
    return reference_1d(n_k=32)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory, small_cfg):
    return _write_config(tmp_path_factory.mktemp("cfg"), small_cfg)


def test_validate_good_config_exits_zero(config_path):
    result = _run("validate", "--config", config_path)
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["passed"]


def test_validate_bad_config_exits_two(tmp_path, small_cfg):
    data = small_cfg.to_dict()
    data["spin"]["couplings"] = [[[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    result = _run("validate", "--config", str(path))
    assert result.returncode == 2
    assert "fgr_connectivity" in result.stdout
    error = json.loads(result.stderr)
    assert error["error"] == "ValidationError"
    assert "fgr_connectivity" in error["message"]


@pytest.mark.parametrize("path,value", [
    (("dim",), 1.9),
    (("dim",), True),
    (("grid", "points_per_axis"), 16.5),
    (("grid", "sphere_nodes"), 2.5),
    (("rng_seed",), 3.7),
    (("rng_seed",), -1),
    (("rng_seed",), 2**64),
], ids=["dim", "dim-bool", "points-per-axis", "sphere-nodes", "rng-seed",
        "rng-seed-negative", "rng-seed-2**64"])
def test_non_integer_config_value_exits_two(tmp_path, small_cfg, path, value):
    # a non-integer, or a seed outside [0, 2**64), is refused, not truncated
    # or reduced to a config that then runs
    data = small_cfg.to_dict()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = _run("validate", "--config", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""
    error = json.loads(result.stderr)
    assert error["error"] == "ValidationError"
    assert path[-1] in error["message"]


_MISSING = object()


def _malformed(data, case):
    """A copy of the config text with one section, value or shape broken,
    or a required key left out; 1e400 is written as a literal, which JSON
    reads as inf, and 10^400 as an integer literal past the float range."""
    if case == "top-level-list":
        return json.dumps([data])
    path, value = {
        "bath-list": (("bath",), [1]),
        "dispersion-string": (("dispersion",), "nn"),
        "grid-string": (("grid",), "x"),
        "spin-string": (("spin",), "x"),
        "couplings-vector": (("spin", "couplings"), [1, 2]),
        "beta-overflow": (("beta",), "@inf@"),
        "cutoff-overflow": (("bath", "cutoff"), "@inf@"),
        "cutoff-negative": (("bath", "cutoff"), -1),
        "cutoff-zero": (("bath", "cutoff"), 0),
        "coefficient-overflow": (("dispersion",),
                                 {"kind": "cosine_series",
                                  "coefficients": ["@inf@"]}),
        "coefficients-number": (("dispersion",),
                                {"kind": "cosine_series", "coefficients": 3}),
        "levels-number": (("spin", "levels"), 5),
        "levels-nested": (("spin", "levels"), [[0, 1], [1, 2]]),
        "beta-list": (("beta",), [1]),
        "omega-number": (("bath",), {"kind": "tabulated", "omega": 1,
                                     "values": [0.0, 1.0]}),
        "coupling-short": (("spin", "couplings", 0, 1), [1.0]),
        "coupling-nested": (("spin", "couplings", 0, 1), [[1, 2], 3]),
        "coupling-triple": (("spin", "couplings", 0, 1), [1, 0, 0]),
        "coupling-overflow": (("spin", "couplings", 0, 1), "@inf@"),
        "beta-integer-overflow": (("beta",), "@huge@"),
        "spin-missing": (("spin",), _MISSING),
        "levels-missing": (("spin", "levels"), _MISSING),
        "omega-missing": (("bath",), {"kind": "tabulated",
                                      "values": [0.0, 1.0]}),
        "nearest-neighbor-coefficients": (
            ("dispersion",), {"kind": "nearest_neighbor",
                              "coefficients": [1.0]}),
        "bath-kind-string": (("bath", "kind"), "foo"),
        "bath-kind-number": (("bath", "kind"), 5),
    }[case]
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(data).replace('"@inf@"', "1e400").replace(
        '"@huge@"', "1" + "0" * 400)


@pytest.mark.parametrize("case", [
    "top-level-list", "bath-list", "dispersion-string", "grid-string",
    "spin-string", "couplings-vector", "beta-overflow", "cutoff-overflow",
    "cutoff-negative", "cutoff-zero", "coefficient-overflow",
    "coefficients-number", "levels-number", "levels-nested", "beta-list",
    "omega-number", "coupling-short", "coupling-nested", "coupling-triple",
    "coupling-overflow", "beta-integer-overflow", "spin-missing",
    "levels-missing", "omega-missing", "nearest-neighbor-coefficients",
    "bath-kind-string", "bath-kind-number"])
def test_malformed_config_exits_two(tmp_path, small_cfg, case):
    # refused when the config is read: no traceback, no warning, no report
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed(small_cfg.to_dict(), case))
    result = _run("validate", "--config", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ValidationError"
    if case.endswith("-missing"):
        # the message names the key, not only its bare repr
        key = case.split("-")[0]
        assert key in error["message"] and error["message"] != repr(key)


@pytest.mark.parametrize("case,named", [
    ("nearest-neighbor-coefficients", "dispersion.coefficients"),
    ("bath-kind-string", "unknown bath kind 'foo'"),
    ("bath-kind-number", "unknown bath kind 5"),
])
def test_malformed_config_names_the_field_at_fault(tmp_path, small_cfg, case,
                                                   named):
    # a nearest-neighbour dispersion with amplitudes ended in a TypeError
    # traceback, and an unknown bath kind was read as a tabulated bath
    # without its omega
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed(small_cfg.to_dict(), case))
    result = _run("validate", "--config", str(bad))
    assert result.returncode == 2
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValidationError"
    assert named in error["message"]


def test_missing_config_exits_two(tmp_path):
    result = _run("validate", "--config", str(tmp_path / "nope.json"))
    assert result.returncode == 2


def test_psi_writes_csv_with_manifest(tmp_path, config_path, small_cfg):
    out = tmp_path / "psi.csv"
    result = _run("psi", "--config", config_path, "--x", "0", "--tmax", "5",
                  "--points", "11", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "t,re,im"
    assert len(lines) == 13
    # the rows take one frequency rule; the checked psi_xt agrees at t = 1
    t, re, im = (float(v) for v in lines[4].split(","))
    assert t == 1.0
    assert complex(re, im) == pytest.approx(psi_xt(small_cfg.bath, [0.0], t),
                                            rel=1e-7)
    manifest = json.loads((tmp_path / "psi.manifest.json").read_text())
    assert lines[0].split(": ")[1] == manifest["manifest_hash"]
    assert manifest["outputs"] == [str(out)]
    assert "wall_time_s" in manifest


def test_psi_decay_check_enters_the_manifest(tmp_path, config_path):
    manifests = []
    for v_star in ("0.3", "0.5"):
        run_dir = tmp_path / v_star
        run_dir.mkdir()
        decay = run_dir / "decay.json"
        result = _run("psi", "--config", config_path, "--tmax", "20",
                      "--points", "11", "--decay-check", str(decay),
                      "--v-star", v_star, "--out", str(run_dir / "psi.csv"))
        assert result.returncode == 0
        manifest = json.loads((run_dir / "psi.manifest.json").read_text())
        assert manifest["flags"]["v_star"] == float(v_star)
        assert manifest["outputs"] == [str(run_dir / "psi.csv"), str(decay)]
        assert json.loads(decay.read_text())["manifest_hash"] \
            == manifest["manifest_hash"]
        manifests.append(manifest)
    assert manifests[0]["manifest_hash"] != manifests[1]["manifest_hash"]


@pytest.mark.parametrize("argv", [
    ["validate", "--out", "validate.json"],
    ["validate"],
    ["rates", "--out", "rates.json"],
    ["rates", "--out", "rates.json", "--dump-matrix", "p=0",
     "--matrix-out", "matrix.csv"],
    ["spectrum", "--steps", "4", "--out", "spectrum.csv"],
    ["diffusion", "--out", "diffusion.json"],
    ["psi", "--tmax", "5", "--points", "11", "--out", "psi.csv"],
    ["psi", "--tmax", "20", "--points", "11", "--decay-check", "decay.json",
     "--out", "psi.csv"],
    ["simulate", "--traj", "256", "--tfinal", "5", "--probes", "0.1",
     "--out", "stats.json"],
    ["simulate", "--traj", "256", "--tfinal", "5", "--probes", "0.1",
     "--out", "stats.json", "--dump-paths", "paths.csv", "--n-paths", "2"],
    ["diagrams", "--check-d1", "--samples", "1e3", "--nmax", "2",
     "--out", "d1.json"],
    ["diagrams", "--check-d1", "--samples", "1e3", "--nmax", "2"],
], ids=["validate", "validate-stdout", "rates", "rates-dump-matrix",
        "spectrum", "diffusion", "psi", "psi-decay-check", "simulate",
        "simulate-dump-paths", "diagrams", "diagrams-stdout"])
def test_outputs_carry_their_manifest_and_rerun_identically(
        tmp_path, config_path, monkeypatch, capsys, argv):
    # run b reads a byte-copy of the config at another path, on one thread:
    # neither enters the stamp
    from latticediff import cli

    copy = tmp_path / "copy.json"
    shutil.copyfile(config_path, copy)
    runs = []
    for name, threads, config in (("a", "2", config_path), ("b", "1", copy)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        run_argv = (argv if argv[0] == "diagrams"
                    else [argv[0], "--config", str(config), *argv[1:]])
        assert cli.main(["--threads", threads, *run_argv]) == 0
        files = {p.name: p.read_text() for p in run_dir.iterdir()}
        manifests = [n for n in files if n.endswith(".manifest.json")]
        manifest = json.loads(files.pop(manifests[0])) if manifests else None
        runs.append((files, capsys.readouterr().out, manifests, manifest))
    (files, stdout, manifests, manifest), again = runs
    # data files and stdout are byte-identical; the manifest holds wall time
    assert (files, stdout) == again[:2]
    if "--out" not in argv:
        assert files == {} and manifests == []
        assert isinstance(json.loads(stdout), dict)
        return
    out = argv[argv.index("--out") + 1]
    assert stdout == ""
    assert manifests == [out.rsplit(".", 1)[0] + ".manifest.json"]
    assert manifest["outputs"][0] == out
    assert sorted(manifest["outputs"]) == sorted(files)
    assert manifest["config"] == (None if argv[0] == "diagrams"
                                  else config_path)
    for name, text in files.items():
        assert _stamp(name, text) == manifest["manifest_hash"], name


@pytest.mark.parametrize("argv,flag,values", [
    (["diffusion", "--kmc-traj", "256", "--out", "diffusion.json"],
     "--kmc-tfinal", ("5", "9")),
    (["simulate", "--traj", "256", "--tfinal", "5", "--out", "stats.json",
      "--dump-paths", "paths.csv"], "--n-paths", ("2", "3")),
    (["spectrum", "--out", "spectrum.csv"], "--steps", ("3", "4")),
], ids=["diffusion-kmc-tfinal", "simulate-n-paths", "spectrum-steps"])
def test_runs_that_differ_in_one_argument_get_distinct_stamps(
        tmp_path, config_path, monkeypatch, argv, flag, values):
    from latticediff import cli

    stamps = []
    for value in values:
        run_dir = tmp_path / value
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert cli.main([argv[0], "--config", config_path, *argv[1:],
                         flag, value]) == 0
        stamps.append({_stamp(p.name, p.read_text())
                       for p in run_dir.iterdir()
                       if not p.name.endswith(".manifest.json")})
    assert all(len(s) == 1 for s in stamps)
    assert stamps[0] != stamps[1]


def test_failed_matrix_dump_writes_no_output(tmp_path, config_path,
                                             monkeypatch, capsys):
    # every output is computed before the first one is written
    from latticediff import cli
    from latticediff.model import NumericError

    def failing(*args, **kwargs):
        raise NumericError("fiber assembly failed")

    monkeypatch.setattr(cli, "assemble_fiber", failing)
    monkeypatch.chdir(tmp_path)
    code = cli.main(["rates", "--config", config_path, "--out", "rates.json",
                     "--dump-matrix", "p=0"])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NumericError"
    assert list(tmp_path.iterdir()) == []


def test_rates_and_matrix_dump(tmp_path, config_path):
    out = tmp_path / "rates.json"
    mat = tmp_path / "matrix.csv"
    result = _run("rates", "--config", config_path, "--out", str(out),
                  "--dump-matrix", "p=0", "--matrix-out", str(mat))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert len(payload["escape_rates"]) == 2
    assert payload["channels"][0]["radius"] == 1.0
    header = mat.read_text().splitlines()[1]
    assert header == "row,col,re,im"


def test_spectrum_csv(tmp_path, config_path):
    out = tmp_path / "spectrum.csv"
    result = _run("spectrum", "--config", config_path, "--pmax", "0.3",
                  "--steps", "4", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "p,eig_re,eig_im,gap"
    assert len(lines) == 6
    first = lines[2].split(",")
    assert abs(float(first[1])) < 1e-9


def test_diffusion_json_has_all_methods(tmp_path, config_path):
    out = tmp_path / "D.json"
    result = _run("diffusion", "--config", config_path, "--out", str(out),
                  "--kmc-traj", "2000", "--kmc-tfinal", "30")
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["hessian"][0][0] > 0
    assert payload["formula"][0][0] > 0
    assert payload["continuum"][0][0] > 0
    assert payload["kmc"][0][0] > 0
    assert payload["kmc_se"][0][0] > 0
    assert "manifest_hash" in payload


def _weakly_coupled(tmp_path, small_cfg, w):
    cfg = dataclasses.replace(small_cfg, spin=SpinSystem(
        levels=(0.0, 1.0), couplings=((0.0, w), (w, 0.0))))
    return _write_config(tmp_path, cfg)


def test_weakly_coupled_hessian_meets_the_formula(tmp_path, small_cfg):
    out = tmp_path / "D.json"
    result = _run("diffusion", "--config",
                  _weakly_coupled(tmp_path, small_cfg, 1e-20), "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    hess, formula = np.array(payload["hessian"]), np.array(payload["formula"])
    assert np.abs(hess - formula).max() <= 1e-12 * np.abs(formula).max()


def test_too_weak_coupling_exits_one_with_one_json_line(tmp_path, small_cfg):
    # the Hessian's retry step 1e-3 gap0 / v_max scales as |W_01|^2: from
    # |W_01| = 1e-75 on its square leaves the normal float range
    out = tmp_path / "D.json"
    result = _run("diffusion", "--config",
                  _weakly_coupled(tmp_path, small_cfg, 1e-104), "--out",
                  str(out))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "FDInconsistencyError"
    assert not out.exists()


def test_simulate_reproducible_across_runs_and_threads(tmp_path, config_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / f"{name}.json"
        paths = tmp_path / f"{name}.csv"
        result = _run("--threads", threads, "simulate", "--config", config_path,
                      "--traj", "3000", "--tfinal", "15",
                      "--probes", "0.1", "--out", str(out),
                      "--dump-paths", str(paths), "--n-paths", "3")
        assert result.returncode == 0
        outs.append((out.read_text(), paths.read_text()))
    assert outs[0] == outs[1]
    assert outs[0] == outs[2]


def test_output_that_is_not_finite_exits_one_and_writes_nothing(
        tmp_path, small_cfg):
    # the largest amplitude validation admits, 2^240, with a coupling so
    # weak that the walk stays ballistic: by t = 1e5 the fourth powers of
    # the positions that the standard errors sum overflow to inf, which
    # JSON cannot hold
    cfg = dataclasses.replace(
        small_cfg, dispersion=DispersionSpec("cosine_series",
                                             coefficients=(2.0 ** 240,)),
        spin=SpinSystem(levels=(0.0, 1.0),
                        couplings=((0.0, 1e-20), (1e-20, 0.0))))
    out = tmp_path / "stats.json"
    result = _run("simulate", "--config", _write_config(tmp_path, cfg),
                  "--traj", "256", "--tfinal", "1e5", "--out", str(out))
    assert result.returncode == 1
    error = json.loads(result.stderr.splitlines()[-1])
    assert error["error"] == "NumericError"
    assert error["message"].startswith(f"{out}: ")
    assert "/diffusion_se/0/0" in error["message"]
    assert list(tmp_path.iterdir()) == [tmp_path / "model.json"]


def test_velocity_outside_float_range_is_refused_before_any_run(
        tmp_path, small_cfg):
    # an amplitude of 6e307 passed validation; then `simulate` overflowed
    # (exit 1, NaN at /diffusion/0/0) and `diffusion` failed late ("retry
    # step 1.74e-312: h^2 underflows")
    cfg = dataclasses.replace(small_cfg, dispersion=DispersionSpec(
        "cosine_series", coefficients=(6e307,)))
    config = _write_config(tmp_path, cfg)
    report = tmp_path / "validate.json"
    result = _run("validate", "--config", config, "--out", str(report))
    assert result.returncode == 2
    checks = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
    assert not checks["velocity_in_float_range"]["passed"]
    assert "max |grad eps| = 6.000e+307" in \
        checks["velocity_in_float_range"]["detail"]
    for argv in (["diffusion"], ["simulate", "--traj", "256", "--tfinal", "1"]):
        out = tmp_path / "out.json"
        result = _run(*argv, "--config", config, "--out", str(out))
        assert result.returncode == 2
        [line] = result.stderr.splitlines()
        assert json.loads(line) == {
            "error": "ValidationError",
            "message": "model validation failed: velocity_in_float_range"}
        assert not out.exists()


def test_too_weak_coupling_still_passes_validation(tmp_path, small_cfg):
    # |W_01| = 1e-80 runs in float64: `simulate` exits 0, and `diffusion`
    # ends in one JSON FDInconsistencyError (the test above at 1e-104)
    config = _weakly_coupled(tmp_path, small_cfg, 1e-80)
    result = _run("validate", "--config", config)
    assert result.returncode == 0
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    assert checks["velocity_in_float_range"]["passed"]


@pytest.mark.parametrize("files,where,fields", [
    ([(None, {"a": [1.0, float("nan")], "b": {"c": float("inf")}})],
     "stdout", "/a/1, /b/c"),
    ([("out.json", {"a": 1.0}), ("rows.csv", (["t", "re"], [
        (0.0, 1.0), (1.0, -float("inf"))]))], "rows.csv", "/1/re"),
], ids=["stdout", "csv"])
def test_emit_refuses_values_that_are_not_finite(tmp_path, monkeypatch,
                                                 capsys, files, where, fields):
    monkeypatch.chdir(tmp_path)
    args = argparse.Namespace(command="test", wall_time=lambda: 0.0)
    with pytest.raises(NumericError) as exc:
        cli._emit(args, "hash", 0, files)
    assert str(exc.value).startswith(f"{where}: not finite at {fields};")
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_simulate_dump_paths(tmp_path, config_path):
    out = tmp_path / "stats.json"
    paths = tmp_path / "paths.csv"
    result = _run("simulate", "--config", config_path, "--traj", "256",
                  "--tfinal", "5", "--out", str(out),
                  "--dump-paths", str(paths), "--n-paths", "2")
    assert result.returncode == 0
    lines = paths.read_text().splitlines()
    assert lines[1] == "path,t,x0,k0,level"
    assert len(lines) > 4
    rows = [line.split(",") for line in lines[2:]]
    for path in ("0", "1"):
        times = [float(r[1]) for r in rows if r[0] == path]
        assert times[0] == 0.0
        assert times[-1] == 5.0


@pytest.mark.parametrize("traj,tfinal", [("0", "5"), ("1", "5"), ("256", "-1")])
def test_simulate_bad_ensemble_exits_two(tmp_path, config_path, traj, tfinal):
    out = tmp_path / "stats.json"
    result = _run("simulate", "--config", config_path, "--traj", traj,
                  "--tfinal", tfinal, "--out", str(out))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--traj", "256", "--tfinal", "5", "--out", "stats.json",
     "--dump-paths", "p.csv", "--n-paths", "-1"],
    ["spectrum", "--steps", "0", "--out", "spectrum.csv"],
    ["spectrum", "--pmax", "nan", "--out", "spectrum.csv"],
    ["rates", "--out", "rates.json", "--dump-matrix", "p=nan",
     "--matrix-out", "matrix.csv"],
    ["psi", "--x", "inf", "--tmax", "5", "--points", "11", "--out", "psi.csv"],
    ["simulate", "--traj", "256", "--tfinal", "5", "--probes", "nan",
     "--out", "stats.json"],
    ["psi", "--tmax", "nan", "--out", "psi.csv"],
    ["psi", "--tmax", "inf", "--out", "psi.csv"],
    ["psi", "--tmax", "0", "--out", "psi.csv"],
    ["psi", "--tmax", "-5", "--out", "psi.csv"],
    ["psi", "--tmax", "5", "--points", "0", "--out", "psi.csv"],
    ["psi", "--decay-check", "d.json", "--v-star", "1.5", "--out", "psi.csv"],
    ["psi", "--tmax", "3", "--decay-check", "d.json", "--out", "psi.csv"],
], ids=["n-paths", "steps", "pmax", "dump-matrix", "psi-x", "probes",
        "psi-tmax-nan", "psi-tmax-inf", "psi-tmax-zero", "psi-tmax-negative",
        "psi-points", "psi-v-star", "psi-decay-window"])
def test_bad_cli_arguments_exit_two_without_output(
        tmp_path, config_path, monkeypatch, capsys, argv):
    from latticediff import cli

    monkeypatch.chdir(tmp_path)
    code = cli.main([argv[0], "--config", config_path, *argv[1:]])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kmc_args", [["--kmc-traj", "1"],
                                      ["--kmc-traj", "256", "--kmc-tfinal", "-1"]])
def test_diffusion_bad_kmc_args_exit_two_before_solving(
        tmp_path, config_path, monkeypatch, capsys, kmc_args):
    from latticediff import cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the spectral solves ran before the check")

    monkeypatch.setattr(cli, "diffusion_tensor_hessian", unreachable)
    out = tmp_path / "diff.json"
    code = cli.main(["diffusion", "--config", config_path, "--out", str(out),
                     *kmc_args])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


def test_singular_solve_exits_one(tmp_path, config_path, monkeypatch, capsys):
    # numpy's LinAlgError subclasses ValueError; it is still a numeric failure
    import numpy as np
    from latticediff import cli

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "diffusion_tensor_formula", singular)
    out = tmp_path / "diff.json"
    code = cli.main(["diffusion", "--config", config_path, "--out", str(out)])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "LinAlgError"
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_diagrams_rejects_nonpositive_samples(tmp_path, samples):
    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", "--samples", samples,
                  "--out", str(out))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("args,error", [
    (["--nmax", "0"], "ValueError"),
    (["--nmax", "-2"], "ValueError"),
    (["--k", "1/0"], "DiagramError"),
    (["--k", "t(1)"], "DiagramError"),
    (["--k", "exp"], "DiagramError"),
    (["--samples", "inf"], "ValueError"),
    (["--samples", "1e400"], "ValueError"),
    (["--samples", "2.5"], "ValueError"),
    (["--a", "nan"], "ValueError"),
], ids=["nmax-zero", "nmax-negative", "kernel-divides-by-zero",
        "kernel-calls-a-number", "kernel-is-a-function", "samples-inf",
        "samples-overflow", "samples-fraction", "a-nan"])
def test_diagrams_bad_check_input_exits_two(tmp_path, args, error):
    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", *args, "--out", str(out))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == error
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_diagrams_divergent_kernel_exits_one_with_one_json_line(tmp_path):
    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", "--k", "0.05", "--out", str(out))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "PreconditionError"
    assert "inf" in error["message"]
    assert not out.exists()


def test_unresolved_kernel_norm_names_the_panel_budget(tmp_path):
    # the norm converges (0.02004) but its kinks outrun the panel budget
    from latticediff.diagrams import NORM_PANELS

    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", "--k",
                  "0.05*(1+t)**-3*abs(cos(t))", "--out", str(out))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "PreconditionError"
    assert f"{NORM_PANELS} panels" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv,env", [
    (["--threads", "0"], None),
    (["--threads", "-2"], None),
    ([], "0"),
], ids=["flag-zero", "flag-negative", "env-zero"])
def test_nonpositive_threads_exit_two(tmp_path, config_path, monkeypatch,
                                      capsys, argv, env):
    from latticediff import cli

    if env is not None:
        monkeypatch.setenv("LATTICEDIFF_THREADS", env)
    out = tmp_path / "validate.json"
    code = cli.main([*argv, "validate", "--config", config_path,
                     "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("argv,env", [
    (["--threads", "x", "validate"], None),
    (["validate"], "x"),
    (["spectrum", "--steps", "abc"], None),
], ids=["threads-flag", "threads-env", "spectrum-steps"])
def test_argument_type_errors_exit_two_with_json(tmp_path, config_path,
                                                 monkeypatch, capsys, argv,
                                                 env):
    from latticediff import cli

    if env is not None:
        monkeypatch.setenv("LATTICEDIFF_THREADS", env)
    out = tmp_path / "out.json"
    code = cli.main([*argv, "--config", config_path, "--out", str(out)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError"
    assert "invalid int value" in error["message"]
    assert not out.exists()


def test_help_exits_zero():
    result = _run("--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: latticediff")


def test_diagrams_report_records_samples_drawn(tmp_path):
    # --samples 1 puts every Monte Carlo shape at its floor, each sampled
    # once: 16 strata of 64 for the minimally irreducible shape of size
    # 2..4, 16 strata of 128 (a 2048 budget) for each other irreducible one
    # (2 - 1 + 10 - 1 + 74 - 1 = 83); size 1 is a closed form
    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", "--samples", "1", "--out", str(out))
    assert result.returncode == 0
    assert json.loads(out.read_text())["samples"] == 3 * 16 * 64 + 83 * 2048
    manifest = json.loads((tmp_path / "d1.manifest.json").read_text())
    assert manifest["flags"]["samples"] == "1"


def test_diagrams_list(tmp_path):
    result = _run("diagrams", "--n", "2", "--list")
    assert result.returncode == 0
    assert "minimally_irreducible" in result.stdout
    assert len(result.stdout.splitlines()) == 3


def test_diagrams_check_writes_report(tmp_path):
    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", "--k", "0.05*exp(-t)", "--a", "0",
                  "--samples", "2e4", "--nmax", "2", "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["passed"]


def test_numeric_failure_exits_one(tmp_path):
    result = _run("diagrams", "--check-d1", "--k", "2*exp(-t)", "--a", "0",
                  "--samples", "1e3", "--nmax", "2")
    assert result.returncode == 1
    error = json.loads(result.stderr)
    assert error["error"] == "PreconditionError"


def test_kernel_expression_guard():
    result = _run("diagrams", "--check-d1", "--k", "__import__('os')",
                  "--samples", "10")
    assert result.returncode == 2


def _address_limit():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv", [
    ("diffusion",), ("spectrum", "--steps", "2"),
    ("rates", "--dump-matrix", "p=0,0,0,0"),
], ids=["diffusion", "spectrum", "rates-dump"])
def test_dense_fiber_over_budget_exits_two_with_one_json_line(tmp_path, argv):
    # reference_2d at d = 4 is valid, but its dense fiber of 131072 rows would
    # take 384 GiB; the 3 GiB address-space limit on the child alone makes a
    # regression fail instead of swapping
    base = reference_2d()
    cfg = dataclasses.replace(base, dim=4,
                              bath=dataclasses.replace(base.bath, dim=4))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "latticediff.cli", argv[0], "--config",
         _write_config(tmp_path, cfg), "--out", str(out), *argv[1:]],
        capture_output=True, text=True, preexec_fn=_address_limit)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    error = json.loads(result.stderr)
    assert error["error"] == "DenseSizeError"
    assert "131072 rows" in error["message"] and "384 GiB" in error["message"]
    assert list(tmp_path.iterdir()) == [tmp_path / "model.json"]


@pytest.mark.parametrize("argv", [
    ("validate",), ("simulate", "--traj", "256", "--tfinal", "1"),
], ids=["validate", "simulate"])
def test_four_dimensions_at_the_default_grid_exit_zero(tmp_path, argv):
    # neither command samples the N^d grid: reference_2d at d = 4 and
    # N = 128 has 2^28 grid momenta, 2 GiB per coordinate, against the
    # child's 3 GiB address-space limit
    base = reference_2d(n_k=128, m_dir=16)
    cfg = dataclasses.replace(base, dim=4,
                              bath=dataclasses.replace(base.bath, dim=4))
    out = tmp_path / "out.json"
    result = subprocess.run(
        [sys.executable, "-m", "latticediff.cli", argv[0], "--config",
         _write_config(tmp_path, cfg), "--out", str(out), *argv[1:]],
        capture_output=True, text=True, preexec_fn=_address_limit)
    assert (result.returncode, result.stderr) == (0, "")
    assert "manifest_hash" in json.loads(out.read_text())

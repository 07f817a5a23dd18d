import json
import subprocess
import sys

import pytest

from latticediff.presets import reference_1d


def _write_config(tmp_path, cfg, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return str(path)


def _run(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "latticediff.cli", *argv],
                          capture_output=True, text=True, cwd=cwd)


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


def test_missing_config_exits_two(tmp_path):
    result = _run("validate", "--config", str(tmp_path / "nope.json"))
    assert result.returncode == 2


def test_psi_writes_csv_with_manifest(tmp_path, config_path):
    out = tmp_path / "psi.csv"
    result = _run("psi", "--config", config_path, "--x", "0", "--tmax", "5",
                  "--points", "11", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "t,re,im"
    assert len(lines) == 13
    manifest = json.loads((tmp_path / "psi.manifest.json").read_text())
    assert lines[0].split(": ")[1] == manifest["manifest_hash"]
    assert manifest["outputs"] == [str(out)]
    assert "wall_time_s" in manifest


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
], ids=["n-paths", "steps", "pmax", "dump-matrix", "psi-x", "probes",
        "psi-tmax-nan", "psi-tmax-inf", "psi-tmax-zero", "psi-tmax-negative",
        "psi-points"])
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
], ids=["nmax-zero", "nmax-negative", "kernel-divides-by-zero",
        "kernel-calls-a-number"])
def test_diagrams_bad_check_input_exits_two(tmp_path, args, error):
    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", *args, "--out", str(out))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == error
    assert "Traceback" not in result.stderr
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


def test_diagrams_report_records_samples_drawn(tmp_path):
    # --samples 1 puts every Monte Carlo shape at its floor: 16 strata of 64
    # for each minimally irreducible shape of size 2..4, 16 strata of 128
    # (a 2048 budget) for each irreducible one; size 1 is a closed form
    from latticediff.diagrams import irreducible_shapes

    out = tmp_path / "d1.json"
    result = _run("diagrams", "--check-d1", "--samples", "1", "--out", str(out))
    assert result.returncode == 0
    n_irreducible = sum(len(irreducible_shapes(n)) for n in (2, 3, 4))
    assert json.loads(out.read_text())["samples"] == 3 * 16 * 64 + n_irreducible * 2048
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

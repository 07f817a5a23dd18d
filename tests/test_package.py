import json
import subprocess
import sys
from pathlib import Path

import latticediff
from latticediff.presets import reference_2d


def test_every_export_resolves():
    missing = [name for name in latticediff.__all__
               if not hasattr(latticediff, name)]
    assert missing == []
    assert len(set(latticediff.__all__)) == len(latticediff.__all__)


def test_cli_import_leaves_out_scipy_interpolate():
    # only a tabulated bath interpolates; every other run skips the import
    code = ("import sys, latticediff.cli; "
            "print('scipy.interpolate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_diagrams_run_leaves_out_scipy_integrate_and_optimize():
    # the kernel norms are a numpy panel rule: a CLI process never pays
    # for scipy.integrate and the modules it drags in
    code = ("import sys, latticediff.cli as cli; "
            "cli.main(['diagrams', '--check-d1', '--samples', '2e4', "
            "'--nmax', '2']); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[]"


def test_only_the_dense_fiber_reads_the_full_grid():
    # the dispersion is separable: every per-axis question reads the d N
    # axis points, and only the dense fiber samples all N^d grid momenta
    src = Path(latticediff.__file__).parent
    callers = sorted(path.name for path in src.glob("*.py")
                     if ".grid_points(" in path.read_text())
    assert callers == ["generator.py"]


def test_cli_runs_leave_out_scipy_special_and_linalg(tmp_path):
    # sphere's Bessel averages and polar rule and spectral's shifted solves
    # are numpy: a diffusion run on the 2-d reference and a 3-d rates run
    # (Gauss-Jacobi direction nodes) load neither scipy module, nor
    # numpy.ma, which a plain np.unique imports
    doc = reference_2d(n_k=4, m_dir=8).to_dict()
    doc["dim"] = 3
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(doc))
    ref2d = Path(__file__).resolve().parents[1] / "configs" / "reference_2d.json"
    runs = [["diffusion", "--config", str(ref2d), "--out",
             str(tmp_path / "diffusion.json")],
            ["rates", "--config", str(cube), "--out",
             str(tmp_path / "rates.json")]]
    code = ("import sys, latticediff.cli as cli; "
            f"codes = [cli.main(argv) for argv in {runs!r}]; "
            "print(codes, [m for m in ('scipy.special', 'scipy.linalg', 'numpy.ma') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "[0, 0] []"

import subprocess
import sys

import latticediff


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

"""The four workloads: what one repetition runs and how its outputs are checked.

Each workload is a function of a `Rep`, timed from its first call into the
package to its last verified output.  Checks run inside that time, in spans
of the benchmark's own layer ("bench").  A failed check is recorded, not
raised; a repetition that crashes counts as failed in `run.py`.
"""

import hashlib
import json

import numpy as np
from scipy.special import chdtrc

from latticediff import cli, reservoir, spectral

# kmc-1d: two Philox blocks of 32768 walkers, one per worker thread.
KMC_WALKERS = 65536
KMC_T_FINAL = 100.0
# bath: three d = 2 points (a, x) away from the zeros of the closed form.
GAIN_POINTS = ((0.7, (1.0, 0.0)), (1.5, (2.0, -1.0)), (2.2, (0.0, 3.0)))
CLI_1D_DATA = ("validate.json", "rates.json", "matrix.csv", "spectrum.csv",
               "diffusion.json", "psi.csv", "decay.json", "diagrams.json")


class Rep:
    """One repetition: its generated input, output directory and checks."""

    def __init__(self, config, out, seed, threads, tracer, cfg, table):
        self.config = str(config)
        self.out = out
        self.seed = seed
        self.threads = threads
        self.tracer = tracer
        self.cfg = cfg
        self.table = table
        self.checks = []
        self.data_hashes = {}
        self.reference = None

    def check(self, name, passed, detail=""):
        self.checks.append({"name": name, "passed": bool(passed),
                            "detail": detail})

    def glue(self):
        return self.tracer.span("bench.check", "bench")

    def path(self, name):
        return str(self.out / name)

    def cli(self, command, *args):
        argv = ["--threads", str(self.threads), command, *args]
        code = cli.main(argv)
        self.check(f"{command} exits 0", code == 0, f"exit code {code}")

    def load(self, name):
        with open(self.out / name) as fh:
            return json.load(fh)


def _rel(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _check_hessian(rep, payload):
    rel = _rel(payload["hessian"], payload["formula"])
    rep.check("hessian vs formula <= 1e-6", rel <= 1e-6, f"rel {rel:.2e}")


def cli_1d(rep):
    config = ("--config", rep.config)
    rep.cli("validate", *config, "--out", rep.path("validate.json"))
    rep.cli("rates", *config, "--out", rep.path("rates.json"),
            "--dump-matrix", "p=0", "--matrix-out", rep.path("matrix.csv"))
    rep.cli("spectrum", *config, "--steps", "32",
            "--out", rep.path("spectrum.csv"))
    rep.cli("diffusion", *config, "--out", rep.path("diffusion.json"))
    rep.cli("psi", *config, "--tmax", "100",
            "--decay-check", rep.path("decay.json"), "--out", rep.path("psi.csv"))
    rep.cli("diagrams", "--check-d1", "--samples", "1e6",
            "--seed", str(rep.seed), "--out", rep.path("diagrams.json"))
    with rep.glue():
        _check_hessian(rep, rep.load("diffusion.json"))
        report = rep.load("diagrams.json")
        rep.check("diagrams bounds pass", report["passed"])
        for name in CLI_1D_DATA:
            with open(rep.out / name, "rb") as fh:
                rep.data_hashes[name] = hashlib.sha256(fh.read()).hexdigest()


def spectral_2d(rep):
    rep.cli("diffusion", "--config", rep.config,
            "--out", rep.path("diffusion.json"))
    with rep.glue():
        payload = rep.load("diffusion.json")
        _check_hessian(rep, payload)
        iso = max(abs(t[0][0] - t[1][1]) / abs(t[0][0])
                  for t in (payload["hessian"], payload["formula"]))
        rep.check("D_xx = D_yy to 1e-6", iso <= 1e-6, f"rel {iso:.2e}")
        g_low = payload["gaps"]["g_low"]
        rep.check("g_low > 0", g_low > 0, f"g_low {g_low:.4g}")


def kmc_1d_reference(rep):
    """The spectral diffusion constant, computed outside the timed region."""
    return float(spectral.diffusion_tensor_formula(rep.cfg, rep.table)[0, 0])


def kmc_1d(rep):
    rep.cli("simulate", "--config", rep.config, "--traj", str(KMC_WALKERS),
            "--tfinal", str(KMC_T_FINAL), "--probes", "0.05,0.1",
            "--out", rep.path("stats.json"))
    with rep.glue():
        stats = rep.load("stats.json")
        est = stats["diffusion"][0][0]
        se = stats["diffusion_se"][0][0]
        off = abs(est - rep.reference) / se
        rep.check("D within 4 se of the formula", off <= 4.0,
                  f"D {est:.5f} vs {rep.reference:.5f}, {off:.2f} se")
        observed = np.asarray(stats["level_hist"], dtype=float)
        expected = np.asarray(stats["gibbs_expected"], dtype=float)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        p = float(chdtrc(len(observed) - 1, chi2))
        rep.check("level histogram chi2 p > 1e-3", p > 1e-3, f"p {p:.3g}")


def bath(rep):
    kind, beta, cutoff = rep.cfg.bath.kind, rep.cfg.beta, rep.cfg.bath.cutoff
    d4 = reservoir.BathProfile(kind, beta=beta, dim=4, cutoff=cutoff)
    power = reservoir.fit_sup_power(d4, 5.0, 50.0)[0]
    cone = reservoir.check_subluminal_decay(d4, 0.5, 20.0)
    partials = [reservoir.check_time_integrability(d4, t).partial_integral
                for t in (25.0, 50.0)]
    d2 = reservoir.BathProfile(kind, beta=beta, dim=2, cutoff=cutoff)
    pairs = [(reservoir.gain_coefficient_position(d2, a, x),
              reservoir.gain_coefficient_sphere(d2, a, x))
             for a, x in GAIN_POINTS]
    shifts = reservoir.lamb_shift(rep.cfg.bath, rep.cfg.spin)
    with rep.glue():
        rep.check("sup power <= -1.4", power <= -1.4, f"power {power:.3f}")
        rep.check("cone rate > 0 with R2 >= 0.95",
                  cone.rate > 0 and cone.r_squared >= 0.95,
                  f"rate {cone.rate:.3f}, R2 {cone.r_squared:.3f}")
        rep.check("partial integrals increase", partials[1] > partials[0],
                  f"partials {partials}")
        worst = max(abs(q - s) / abs(s) for q, s in pairs)
        rep.check("quadrature vs closed form <= 1e-6", worst <= 1e-6,
                  f"rel {worst:.2e}")
        rep.check("lamb shifts finite", np.all(np.isfinite(list(shifts.values()))),
                  f"shifts {shifts}")


# workload -> (function computing rep.reference before timing, workload)
WORKLOADS = {
    "cli-1d": (None, cli_1d),
    "spectral-2d": (None, spectral_2d),
    "kmc-1d": (kmc_1d_reference, kmc_1d),
    "bath": (None, bath),
}

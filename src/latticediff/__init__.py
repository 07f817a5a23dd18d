"""Lattice particle in a thermal boson bath: generator, spectra, simulation.

The package is organized around the physical pipeline:

- `model`: dispersion, internal levels, momentum grid, validation
- `reservoir`: bath frequency profile and space-time correlations
- `generator`: discrete fiber operators with exact detailed balance
- `spectral`: stationary state, eigenvalue curve, gaps, diffusion tensor
- `kmc`: kinetic Monte Carlo oracle for the same jump process
- `diagrams`: time-pair combinatorics and Laplace-domain bounds
- `cli`: the `latticediff` command
"""

__version__ = "0.1.0"

from .model import (DispersionSpec, GridSpec, ModelConfig, SpinSystem,
                    ValidationError, dispersion_eval, dispersion_grad,
                    model_from_json, validate_model)
from .reservoir import (BathProfile, check_subluminal_decay,
                        check_time_integrability, gain_coefficient_position,
                        gain_coefficient_sphere, lamb_shift, psi_xt)
from .generator import (JumpRateTable, assemble_fiber, build_rate_table,
                        escape_rates, gain_kernel_crosscheck)
from .spectral import (diffusion_tensor_continuum, diffusion_tensor_formula,
                       diffusion_tensor_hessian, perron_curve, spectral_gaps,
                       stationary_state)
from .kmc import EnsembleStats, run_ensemble
from .diagrams import (DiagramClass, check_lemma_bounds, classify,
                       enumerate_pairings, mir_shape)

__all__ = [
    "BathProfile", "DiagramClass",
    "DispersionSpec", "EnsembleStats", "GridSpec", "JumpRateTable",
    "ModelConfig", "SpinSystem",
    "ValidationError", "assemble_fiber", "build_rate_table",
    "check_lemma_bounds", "check_subluminal_decay",
    "check_time_integrability", "classify",
    "diffusion_tensor_continuum", "diffusion_tensor_formula",
    "diffusion_tensor_hessian", "dispersion_eval", "dispersion_grad",
    "enumerate_pairings",
    "escape_rates", "gain_coefficient_position", "gain_coefficient_sphere",
    "gain_kernel_crosscheck", "lamb_shift",
    "mir_shape", "model_from_json", "perron_curve", "psi_xt",
    "run_ensemble", "spectral_gaps", "stationary_state", "validate_model",
]

"""metriflow: structure-preserving two-phase compressible flow.

Hamiltonian / entropy functionals with exact discrete gradients, a family
of noncanonical Poisson brackets, Kulkarni-Nomizu metriplectic 4-brackets
for the dissipative dynamics, and desk-scale scenarios with verification
suites for the conservation and entropy-production structure.
"""

from .anisotropy import AnisotropyFn, gamma_eval, homogeneity_residuals, parse_anisotropy
from .brackets import capillary_force, ideal_rhs, poisson_bracket
from .dynamics import (Diagnostics, diagnostics, integrate, stability_limit,
                       step_rk4, total_rhs)
from .errors import (ConfigError, InadmissibleStateError, IntegrationError,
                     MetriflowError, ParameterError, ThermoDomainError,
                     UnsupportedFamilyError)
from .fields import random_gradient, smooth_state
from .functionals import (FAMILIES, FunctionalGradient, ModelConfig, State,
                          entropy, generalized_mu, grad_H, grad_S, hamiltonian,
                          sigma_total, transform_gradients, untransform_gradients)
from .grid import Grid
from .metriplectic import (OnsagerBlocks, TransportCoefficients,
                           dissipative_rhs, entropy_production_rate,
                           kn_4bracket, lam4, metriplectic_2bracket, onsager_fluxes)
from .scenarios import SCENARIO_NAMES, Scenario, make_scenario, zero_crossings
from .thermo import EosParams, SurfaceCoefficients, ThermoPoint, eval_eos, lambda_f
from .verification import verify

__version__ = "0.1.0"

__all__ = [
    "AnisotropyFn", "gamma_eval", "homogeneity_residuals", "parse_anisotropy",
    "capillary_force", "ideal_rhs", "poisson_bracket",
    "Diagnostics", "diagnostics", "integrate", "stability_limit",
    "step_rk4", "total_rhs",
    "ConfigError", "InadmissibleStateError", "IntegrationError",
    "MetriflowError", "ParameterError", "ThermoDomainError",
    "UnsupportedFamilyError",
    "random_gradient", "smooth_state",
    "FAMILIES", "FunctionalGradient", "ModelConfig", "State", "entropy",
    "generalized_mu", "grad_H", "grad_S", "hamiltonian",
    "sigma_total", "transform_gradients", "untransform_gradients",
    "Grid",
    "OnsagerBlocks", "TransportCoefficients", "dissipative_rhs",
    "entropy_production_rate", "kn_4bracket", "lam4", "metriplectic_2bracket",
    "onsager_fluxes",
    "SCENARIO_NAMES", "Scenario", "make_scenario", "zero_crossings",
    "EosParams", "SurfaceCoefficients", "ThermoPoint", "eval_eos", "lambda_f",
    "verify",
]

"""Local equilibrium thermodynamics.

The internal energy model is an ideal-gas-like entropic form plus a quartic
Landau double well in the concentration:

    u(rho, s, c) = c_v * rho**(gamma_ad - 1) * exp(s/c_v)
                   +  (lambda_V/4) * (c**2 - 1)**2

so that T = du/ds, p = rho**2 du/drho, mu = du/dc are available in closed
form and mu reduces to the classical c**3 - c when lambda_V = 1.  eval_eos
is the one equation of state: there is no hook for another, and its
callers call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, ThermoDomainError, require_finite


def _frozen(value) -> np.ndarray:
    """value as a read-only 0-d float array.  A ufunc takes a 0-d array
    operand about 0.2 us faster than a Python float, with the same bits; two
    0-d arrays combine into a slow numpy scalar, so every product a kernel
    needs is kept whole."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


def _constants(**values) -> SimpleNamespace:
    """The values, each as _frozen."""
    return SimpleNamespace(**{name: _frozen(value) for name, value in values.items()})


@dataclass(frozen=True)
class EosParams:
    """Parameters of the default internal energy model."""

    c_v: float = 1.0
    gamma_ad: float = 5.0 / 3.0
    lambda_V: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
        if self.c_v <= 0:
            raise ParameterError("c_v", "c_v must be positive")
        if self.gamma_ad <= 1:
            raise ParameterError("gamma_ad", "gamma_ad must exceed 1")
        if self.lambda_V < 0:
            raise ParameterError("lambda_V", "lambda_V must be nonnegative")

    @cached_property
    def consts(self) -> SimpleNamespace:
        """_eos's constants (see _frozen), made at the first use."""
        return _constants(c_v=self.c_v, gamma_ad=self.gamma_ad, g1=self.gamma_ad - 1.0,
                          q4=0.25 * self.lambda_V, lambda_V=self.lambda_V, one=1.0)


@dataclass(frozen=True, init=False)
class ThermoPoint(SimpleNamespace):
    """Thermodynamic quantities at one state point (arrays broadcast): g is
    the specific Gibbs energy u + p / rho - s T.  The internal energy u =
    thermal + quartic, the two parts of u that g shares, is formed at its
    first read and kept: no stage reads it.  SimpleNamespace's __init__ sets
    the fields in one C call."""

    g: np.ndarray | float
    T: np.ndarray | float
    p: np.ndarray | float
    mu: np.ndarray | float
    thermal: np.ndarray | float
    quartic: np.ndarray | float

    @cached_property
    def u(self) -> np.ndarray | float:
        return self.thermal + self.quartic


@dataclass(frozen=True)
class SurfaceCoefficients:
    """Surface-energy coefficients; the density weight rho^a is fixed by
    the model family (ModelConfig.a)."""

    lambda_u: float = 0.0
    lambda_s: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))

    @cached_property
    def consts(self) -> SimpleNamespace:
        """The surface terms' constants (see _frozen), made at the first use."""
        return _constants(lambda_u=self.lambda_u, lambda_s=self.lambda_s,
                          half_lambda_s=0.5 * self.lambda_s)


def eval_eos(rho, s, c, params: EosParams) -> ThermoPoint:
    """Evaluate u, its exact partial derivatives T, p, mu and the Gibbs energy
    g at (rho, s, c), broadcast to one shape; a rho not > 0 (NaN too) is a
    ThermoDomainError."""
    rho = np.asarray(rho, dtype=float)
    if not np.logical_and.reduce(rho > 0, axis=None):
        raise ThermoDomainError("eval_eos requires rho > 0")
    # one shape, since _eos writes each chain into its first operand's temporary
    rho, s, c = np.broadcast_arrays(rho, np.asarray(s, dtype=float), np.asarray(c, dtype=float))
    return _eos(rho, s, c, params)


def _eos(rho, s, c, params: EosParams, p=None, T=None) -> ThermoPoint:
    """eval_eos at admissible arrays of one shape, unchecked; p and T go into
    p and T if given."""
    k = params.consts
    # each chain in place in the temporary it made, in its order of
    # operations (a product commutes bit for bit), so the bits of
    # c_v * rho ** g1 * exp(s_cv) and of the rest written out
    s_cv = s / k.c_v
    thermal = rho ** k.g1  # a numpy scalar for 0-d rho: *= then rebinds it
    thermal *= k.c_v
    thermal *= np.exp(s_cv)
    c2m1 = c * c
    c2m1 -= k.one
    quartic = c2m1 ** 2
    quartic *= k.q4
    # g = u + p / rho - s T, with p / rho = (gamma_ad - 1) thermal and s T = s_cv thermal
    g = k.gamma_ad - s_cv
    g *= thermal
    g += quartic
    mu = k.lambda_V * c
    mu *= c2m1
    return ThermoPoint(g=g, T=np.divide(thermal, k.c_v, out=T),
                       p=np.multiply(k.g1 * rho, thermal, out=p), mu=mu,
                       thermal=thermal, quartic=quartic)


def lambda_f(T, coeffs: SurfaceCoefficients):
    """Temperature-dependent surface coefficient lambda_u - T*lambda_s."""
    return coeffs.consts.lambda_u - T * coeffs.consts.lambda_s

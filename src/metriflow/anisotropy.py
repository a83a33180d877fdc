"""Degree-1 homogeneous surface-energy functions and their gradients.

A surface-energy function Gamma maps a vector p (in practice the
concentration gradient) to a scalar, with Gamma(lam*p) = lam*Gamma(p) for
lam > 0.  Its gradient xi = dGamma/dp is then degree-0 homogeneous,
satisfies Gamma(p) = p . xi, and p is a null eigenvector of the Hessian.

Built-ins: the isotropic norm Gamma = |p| and a fourfold 2D anisotropy
Gamma = |p| * (1 + eps4*cos(4*theta)); |eps4| < 1/15 keeps Gamma convex.
xi is regularized to 0 near p = 0 so products Gamma*xi vanish continuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import _csum

EPS4_CONVEXITY_LIMIT = 1.0 / 15.0
# the cutoff radius of the regularization, relative to the RMS magnitude of p
EPS_REG = 1e-12
# the central-difference step of homogeneity_residuals, relative to |p|
FD_STEP = 1e-6


@dataclass(frozen=True)
class AnisotropyFn:
    """A surface-energy function Gamma with analytic gradient xi; kind is
    "iso" or "fourfold"."""

    kind: str = "iso"
    eps4: float = 0.0

    def __post_init__(self):
        if self.kind not in ("iso", "fourfold"):
            raise ValueError(f"unknown anisotropy kind {self.kind!r}")
        if self.kind == "fourfold" and not abs(self.eps4) < EPS4_CONVEXITY_LIMIT:  # NaN too
            raise ParameterError("eps4", f"fourfold needs |eps4| < 1/15, got eps4 = {self.eps4}")


def parse_anisotropy(text: str) -> AnisotropyFn:
    """Parse the config form 'iso' or 'fourfold:<eps4>'."""
    if text == "iso":
        return AnisotropyFn(kind="iso")
    if text.startswith("fourfold:"):
        return AnisotropyFn(kind="fourfold", eps4=float(text.split(":", 1)[1]))
    raise ValueError(f"cannot parse anisotropy spec {text!r}")


def gamma_eval(p: np.ndarray, fn: AnisotropyFn) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (Gamma(p), xi(p)) pointwise.

    p has vector components along the leading axis; any trailing grid axes
    are handled elementwise.  At the regularized origin Gamma = 0, xi = 0.
    The cutoff is relative to the RMS of |p| over the trailing len(p) (grid)
    axes, so each member of a batch of states gets the one it gets alone.
    """
    p = np.asarray(p, dtype=float)
    mag = np.sqrt(_csum(p * p))
    # the mean as sum / size: the same bits as .mean(), without its
    # Python-level wrapper; per member, over its flat run of cells
    lead = mag.shape[:max(mag.ndim - len(p), 0)]
    if not lead:
        rms = math.sqrt(np.add.reduce(mag * mag, axis=None) / mag.size)
        cutoff = EPS_REG * (rms if rms > 0 else 1.0)
    else:
        cells = (mag * mag).reshape(lead + (-1,))
        rms = np.sqrt(cells.sum(axis=-1) / cells.shape[-1]).reshape(lead + (1,) * len(p))
        cutoff = EPS_REG * np.where(rms > 0, rms, 1.0)
    if fn.kind == "iso":  # p / |p| where |p| > cutoff, else 0
        return mag, np.divide(p, mag, out=np.zeros(p.shape), where=mag > cutoff)

    # fourfold, 2D only
    if p.shape[0] != 2:
        raise ValueError("fourfold anisotropy is defined for 2D vectors only")
    px, py, safe = p[0], p[1], np.maximum(mag, cutoff)
    theta = np.arctan2(py, px)
    c4, s4 = np.cos(4.0 * theta), np.sin(4.0 * theta)
    gamma = mag * (1.0 + fn.eps4 * c4)
    # polar gradient: dGamma/dr along rhat, (1/r) dGamma/dtheta along thetahat
    dgdr = 1.0 + fn.eps4 * c4
    dgdt_over_r = -4.0 * fn.eps4 * s4
    cos_t = np.where(mag > cutoff, px / safe, 0.0)
    sin_t = np.where(mag > cutoff, py / safe, 0.0)
    xi = np.stack([dgdr * cos_t - dgdt_over_r * sin_t,
                   dgdr * sin_t + dgdt_over_r * cos_t])
    gamma = np.where(mag > cutoff, gamma, 0.0)
    return gamma, xi


def homogeneity_residuals(p: np.ndarray, lam: float,
                          fn: AnisotropyFn) -> tuple[float, float, float]:
    """Residuals of the three homogeneity identities at a single vector p.

    r1 = Gamma(lam*p) - lam*Gamma(p)
    r2 = p . xi(p) - Gamma(p)
    r3 = || Hessian(Gamma)(p) . p ||, Hessian by central differences of xi.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    if lam <= 0:
        raise ValueError("lam must be positive")
    mag = float(np.linalg.norm(p))
    if mag <= 10.0 * EPS_REG:
        raise ValueError("p too close to the regularized origin")

    gamma_p, xi_p = gamma_eval(p, fn)
    gamma_lp, _ = gamma_eval(lam * p, fn)
    r1 = float(gamma_lp - lam * gamma_p)
    r2 = float(p @ xi_p - gamma_p)

    d = len(p)
    step = FD_STEP * mag
    hess_p = np.zeros(d)
    for j in range(d):
        e = np.zeros(d)
        e[j] = step
        _, xi_plus = gamma_eval(p + e, fn)
        _, xi_minus = gamma_eval(p - e, fn)
        hess_p += (xi_plus - xi_minus) / (2.0 * step) * p[j]
    r3 = float(np.linalg.norm(hess_p))
    return r1, r2, r3

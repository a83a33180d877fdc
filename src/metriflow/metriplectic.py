"""Kulkarni-Nomizu 4-brackets, the tendency kernel and its fluxes, entropy
production, and the Onsager matrix.

The 4-bracket uses the collocated weighted form (weight 1): two symmetric
bilinear forms, one pointwise in the entropy slot and one built from
gradients of the momentum / entropy / concentration slots, are combined by
the Kulkarni-Nomizu product and integrated over the grid.  sigma is the
total entropy density for every family (see functionals), so it is the
sharp bracket for all of them, and the concentration slot of grad H is
mu_Gamma.  The 2-bracket is (F, H; G, H); (F, G; F, G) is the sectional
curvature.  Its slot table (Lambda for m, kappa / T for sigma, D for
ctilde) is summed pointwise by _pairing.  Viscous contraction uses the full
3D isotropic rank-4 tensor (trace factor 2/3) in dim x dim form; absent
velocity components and derivatives are zero.

All tendencies, ideal and dissipative, come from one kernel (_tendencies,
the divergence of one flux buffer plus momentum's source and the
production, on the fields of one pack: a state's Derived, or an RK4
stage's own), and each is the tendency its bracket generates from the two
slot tables: the Poisson bracket's weights (the pack) and the 4-bracket's
(Lambda, kappa / T, D), which _coefficients alone applies.  The production
(S, H; S, H) pairs the kernel's own fluxes with their gradients through
_pairing.  ideal_rhs, dissipative_rhs and total_rhs select the kernel's
parts.  The Onsager matrix is built from a state's cells, all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, UnsupportedFamilyError, require_finite
from .functionals import FunctionalGradient, ModelConfig, State, _align_batch, grad_H
from .grid import _csum, _trace


@dataclass(frozen=True)
class TransportCoefficients:
    """Viscosities and the conductivity / diffusivity tensors.

    kappa and dcoef may be nonnegative scalars (isotropic), constant
    symmetric psd matrices of shape (dim, dim), or callables
    (f, model) -> tensor field of shape (dim, dim, *members, *grid.shape).
    f is the Derived being filled (c, rho, v, sigma, eos, mu_gamma, packed,
    grid and the rest already set), not a State: a callable is called once
    per fill of a pack under a model with transport, a state's or an RK4
    stage's, at the end of the kernel pass.  Only a model of a dissipative
    family takes them (ModelConfig raises a ValueError naming any other
    family): no ideal kernel reads them, and stability_limit bounds dt by
    any a model has.
    """

    eta: float = 0.0
    zeta: float = 0.0
    kappa: float | np.ndarray | Callable = 0.0
    dcoef: float | np.ndarray | Callable = 0.0

    def __post_init__(self):
        for name in ("eta", "zeta", "kappa", "dcoef"):
            val, tensor = getattr(self, name), name in ("kappa", "dcoef")
            if tensor and callable(val):
                continue
            arr = np.asarray(val)
            if arr.dtype.kind not in "iuf" or arr.ndim not in ((0, 2) if tensor else (0,)):
                kinds = "a number, a (dim, dim) matrix or a callable" if tensor else "a number"
                raise ParameterError(name, f"{name} must be {kinds}, got {name} = {val!r}")
            if arr.ndim:
                validate_psd_matrix(arr.astype(float), name)
            else:
                require_finite(name, float(arr))
                if arr < 0:
                    raise ParameterError(name, f"{name} must be nonnegative, got {name} = {val}")


PSD_TOL = 1e-12


def validate_psd_matrix(mat: np.ndarray, name: str) -> None:
    """Raise a ParameterError naming ``name`` unless mat is a finite,
    symmetric (to PSD_TOL relative) positive semidefinite square matrix."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(name, f"{name} matrix must be square")
    amax = float(np.abs(mat).max())
    if not math.isfinite(amax):
        raise ParameterError(name, f"{name} matrix must be finite")
    atol = PSD_TOL * max(1.0, amax)
    if not (np.abs(mat - mat.T) <= atol).all():
        raise ParameterError(name, f"{name} matrix must be symmetric")
    if np.linalg.eigvalsh(0.5 * (mat + mat.T)).min() < -PSD_TOL:
        raise ParameterError(name, f"{name} matrix must be positive semidefinite")


def _apply_tensor(coef, w: np.ndarray) -> np.ndarray:
    """Contract a scalar / matrix / tensor-field coefficient with a vector field."""
    if isinstance(coef, (int, float)) or np.ndim(coef) == 0:
        return coef * w
    coef = np.asarray(coef)
    if coef.ndim == 2:
        return np.einsum("ij,j...->i...", coef, w)
    return np.einsum("ij...,j...->i...", coef, w)


def _stress(gradv: np.ndarray, eta: float, zeta: float) -> np.ndarray:
    """Lambda gradv = eta (gradv + gradv^T - (2/3) I tr) + zeta I tr."""
    bulk = (zeta - (2.0 / 3.0) * eta) * _trace(gradv)  # not in place: may be a view of gradv
    out = gradv + gradv.swapaxes(0, 1)
    out *= eta
    for i in range(len(gradv)):
        out[i, i] += bulk
    return out


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=(0, 1)), the same bits, over the flattened pair axes."""
    return _csum(x.reshape((-1,) + x.shape[2:]))


def _coefficients(f, m, sigma, ctilde) -> tuple:
    """The slot table (Lambda, kappa, D) applied to one (m, sigma, ctilde)
    triple of slot gradients, f the fields of the state (a Derived) or the
    stage: (Lambda m, kappa sigma, D ctilde)."""
    tr = f.model.transport
    return (_stress(m, tr.eta, tr.zeta), _apply_tensor(f.kappa, sigma),
            _apply_tensor(f.dcoef, ctilde))


def _pairing(x, y, T) -> np.ndarray:
    """The slot table (Lambda, kappa / T, D) over two (m, sigma, ctilde)
    triples summed pointwise, y already through _coefficients:
    (x_m : y_m + x_sigma . y_sigma / T + x_c . y_c) / T.  Both the 4-bracket
    and the production (S, H; S, H), the kernel's fluxes with their
    gradients, sum through it."""
    # the sigma term has the shape of the sum; a sum commutes bit for bit,
    # so the bits of (m + sigma / T + c) / T
    out = _csum(x[1] * y[1]) / T
    out += _pair_sum(x[0] * y[0])
    out += _csum(x[2] * y[2])
    out /= T
    return out


def kn_4bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                Kg: FunctionalGradient, Ng: FunctionalGradient,
                state: State, model: ModelConfig) -> float | np.ndarray:
    """Minimal metriplectic 4-bracket (F, G; K, N).

    Antisymmetric in (F, G) and in (K, N), symmetric under pair exchange;
    (S, H; S, H) >= 0 whenever the transport coefficients are psd.  The
    four gradients may be batches with the same number of batch axes
    (sizes broadcast); the result is then an array over the batch axes.
    """
    if not model.is_dissipative:
        raise UnsupportedFamilyError(f"family {model.family} has no metriplectic bracket")
    Fg, Gg, Kg, Ng = _align_batch(Fg, Gg, Kg, Ng, state=state)
    g, der = state.grid, state.derived(model)

    def d(A, B):
        # per-slot grads: the 4-bracket never differentiates rho
        return tuple(B.sigma * g.grad(getattr(A, s)) - A.sigma * g.grad(getattr(B, s))
                     for s in ("m", "sigma", "ctilde"))

    return g.integrate(_pairing(d(Fg, Gg), _coefficients(der, *d(Kg, Ng)), der.eos.T))


def metriplectic_2bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                          state: State, model: ModelConfig) -> float | np.ndarray:
    """(F, G)_H = (F, H; G, H) of two gradients."""
    Hg = grad_H(state, model)
    return kn_4bracket(Fg, Hg, Gg, Hg, state, model)


def _dissipative_fluxes(f) -> tuple:
    """The kernel's pair, f the fields of the state: the gradients of H =
    h_hat in the slots (m, sigma, ctilde), (grad v, grad T, grad mu_Gamma),
    and their fluxes (Lambda grad v, kappa grad T, D grad mu_Gamma), each
    formed once, for _tendencies and the checks that read it."""
    grads, dim = f.grads, len(f.grads)
    x = (grads[:, :dim], grads[:, dim + 2], grads[:, dim + 1])
    return x, _coefficients(f, *x)


def _tendencies(f, ideal: bool = True, dissipative: bool = True) -> np.ndarray:
    """Tendencies of (m, rho, ctilde, sigma) of the pack f.packed, f its
    fields (a functionals.Derived): the ideal (bracket) part, the
    dissipative part or their sum, all from this one code path, in one pack
    laid out as State.packed: the divergence of one flux buffer of
    negated fluxes, in the pack's slots, plus momentum's source -sum_s w_s
    grad H_s if ideal, H = h_hat.  The fluxes are -w_s v in every slot s if
    ideal, w the Poisson slot table (the pack), plus C_X grad H_X for X =
    m, ctilde, sigma if dissipative (as _dissipative_fluxes forms them, the
    sigma slot's over T), whose _pairing with the gradients, the
    production, adds to sigma.  Each is the tendency its bracket generates,
    so energy is conserved exactly; the mass, concentration and entropy
    budgets telescope exactly on the periodic grid, and momentum's only to
    O(h^2).  Each stage takes one Grid.deriv call per axis for grad H in
    the kernel pass and for div of the flux buffer, and for a diffuse
    family for grad c in the thermo pass and div(u) in mu_Gamma before
    them.
    """
    packed, dim = f.packed, f.grid.dim
    dissipative = dissipative and f.model.is_dissipative
    if not (ideal or dissipative):
        return np.zeros(packed.shape)
    if ideal:
        flux = packed * np.negative(f.v)[:, None]
    else:
        flux = np.zeros((dim,) + packed.shape)
    if dissipative:
        gradients, (stress, heat, diffusion) = _dissipative_fluxes(f)
        T = f.eos.T
        production = _pairing(gradients, (stress, heat, diffusion), T)
        flux[:, :dim] += stress
        flux[:, dim + 1] += diffusion
        heat /= T  # after the pairing, which reads the heat flux itself
        flux[:, dim + 2] += heat
        del gradients, stress, heat, diffusion  # freed before the divergence
    rhs = f.grid.div(flux)
    del flux  # not read again: held, it would raise the stage's peak
    if ideal:  # sum_s w_s d_i H_s
        rhs[:dim] -= np.einsum("s...,is...->i...", packed, f.grads)
    if dissipative:
        rhs[-1] += production
    return rhs


def dissipative_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Dissipative tendencies (zero for the ideal families).

    Momentum and concentration are in divergence (flux) form; the entropy
    tendency carries the heat-flux divergence plus the production.
    """
    return FunctionalGradient(packed=_tendencies(state.derived(model), ideal=False))


def entropy_production_rate(state: State, model: ModelConfig) -> tuple[np.ndarray, float]:
    """(pointwise production field, its integral: per member for a batch);
    the field is the kernel's, the _pairing of the dissipative fluxes with
    their gradients, nonnegative by construction."""
    if model.is_dissipative:
        d = state.derived(model)
        field = _pairing(*_dissipative_fluxes(d), d.eos.T)
    else:
        field = np.zeros(state.rho.shape)
    return field, state.grid.integrate(field)


_EYE3 = np.eye(3)
# isotropic rank-4 basis, by broadcasting (index order i, j, k, l): the shear
# part delta_il delta_jk + delta_jl delta_ik - (2/3) delta_ij delta_kl and the
# bulk part delta_ij delta_kl
_LAM_BULK = _EYE3[:, :, None, None] * _EYE3[None, None, :, :]
_LAM_SHEAR = (_EYE3[:, None, None, :] * _EYE3[None, :, :, None]
              + _EYE3[None, :, None, :] * _EYE3[:, None, :, None]
              - (2.0 / 3.0) * _LAM_BULK)


def _trailing(x, n: int) -> np.ndarray:
    """x (a scalar or an array of leading axes) with n unit axes appended."""
    return np.asarray(x, dtype=float).reshape(np.shape(x) + (1,) * n)


def lam4(eta, zeta) -> np.ndarray:
    """The isotropic rank-4 viscosity tensor as an explicit 3x3x3x3 array.

    eta and zeta may be arrays of equal shape; the result then has those
    leading axes, each entry the tensor of its own (eta, zeta).
    """
    return _trailing(eta, 4) * _LAM_SHEAR + _trailing(zeta, 4) * _LAM_BULK


def _embed3_matrix(coef) -> np.ndarray:
    """Promote a scalar or (dim, dim) matrix coefficient to 3x3."""
    coef = np.asarray(coef, dtype=float)
    if coef.ndim == 0:
        # isotropic coefficients act on all three directions
        return float(coef) * _EYE3
    return np.pad(coef, [(0, 3 - len(coef))] * 2)


def _onsager_matrix(T, mu, v3, eta, zeta, kap3, dmat3) -> np.ndarray:
    """The Onsager matrix relating fluxes to affinities, symmetric, over
    (m_(ij), e_k, c_k) in the 3D embedding: momentum flux rows are index
    pairs (i, j), energy and concentration rows single spatial indices, and
    the momentum-concentration blocks are zero.  T, mu, eta, zeta of shape
    lead, v3 (*lead, 3), kap3 and dmat3 (*lead, 3, 3), for any leading axes
    lead (none for a single point); returns lead + (15, 15).  Raises if a
    temperature is not positive.
    """
    if (np.asarray(T) <= 0).any():
        raise ValueError("Onsager blocks require T > 0")
    lam = lam4(eta, zeta)
    t = _trailing(T, 2)
    m = _trailing(mu, 2)
    vlamv = np.einsum("...jikl,...j,...l->...ik", lam, v3, v3)
    L_ee = t * t * kap3 + t * vlamv + t * m * m * dmat3
    L_ec = t * m * dmat3
    lead = L_ee.shape[:-2]
    L_mm = (_trailing(T, 4) * lam).reshape(lead + (9, 9))
    L_me = (_trailing(T, 3) * np.einsum("...ijkl,...l->...ijk", lam, v3)).reshape(lead + (9, 3))
    zero = np.zeros(lead + (9, 3))
    return np.block([[L_mm, L_me, zero],
                     [L_me.swapaxes(-1, -2), L_ee, L_ec],
                     [zero.swapaxes(-1, -2), L_ec.swapaxes(-1, -2), t * dmat3]])

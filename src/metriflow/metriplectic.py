"""Kulkarni-Nomizu 4-brackets, the tendency kernel and its fluxes, entropy
production, and the Onsager blocks.

The 4-bracket uses the collocated weighted form (weight 1): two symmetric
bilinear forms, one pointwise in the entropy slot and one built from
gradients of the momentum / entropy / concentration slots, are combined by
the Kulkarni-Nomizu product and integrated over the grid.  For the diffuse-
interface families it is the sharp bracket pulled back through the sigma^a
change of variables: the four gradients go through transform_gradients (in
functionals), which turns the concentration slot of grad H into mu_Gamma.
The 2-bracket is (F, H; G, H); (F, G; F, G) is the sectional curvature.

Viscous contraction uses the full 3D isotropic rank-4 tensor (trace factor
2/3) in dim x dim form.  Absent velocity components and derivatives are
zero, so the out-of-plane stress never enters a divergence or a pairing,
and its one contribution to the viscous production is the analytic trace
term |sym - (tr/3) I_3|^2 = |sym_dd|^2 - tr^2/3.

All tendencies, ideal and dissipative, come from one kernel
(_tendencies, the divergence of the _fluxes buffer plus the terms not in
flux form); ideal_rhs, dissipative_rhs and total_rhs select its parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, UnsupportedFamilyError, require_finite
from .functionals import (FunctionalGradient, ModelConfig, State, _align_batch,
                          _tendency_to_sigma_a, grad_H, sigma_total, transform_gradients)
from .grid import _csum, _trace
from .thermo import eval_eos


@dataclass(frozen=True)
class TransportCoefficients:
    """Viscosities and the conductivity / diffusivity tensors.

    kappa and dcoef may be nonnegative scalars (isotropic), constant
    symmetric psd matrices of shape (dim, dim), or callables
    (state, model) -> tensor field of shape (dim, dim, *members, *grid.shape),
    called once per state by Derived.kappa and Derived.dcoef.
    """

    eta: float = 0.0
    zeta: float = 0.0
    kappa: float | np.ndarray | Callable = 0.0
    dcoef: float | np.ndarray | Callable = 0.0

    def __post_init__(self):
        for name in ("eta", "zeta", "kappa", "dcoef"):
            val = getattr(self, name)
            if isinstance(val, np.ndarray):
                validate_psd_matrix(val, name)
            elif name in ("eta", "zeta") or isinstance(val, (int, float)):
                require_finite(name, val)
                if val < 0:
                    raise ParameterError(name, f"{name} must be nonnegative, got {name} = {val}")

    def kappa_of(self, state, model):
        return self.kappa(state, model) if callable(self.kappa) else self.kappa

    def dcoef_of(self, state, model):
        return self.dcoef(state, model) if callable(self.dcoef) else self.dcoef


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


def _quad_tensor(coef, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise x . coef . y for vector fields x, y."""
    return _csum(x * _apply_tensor(coef, y))


def _stress(gradv: np.ndarray, eta: float, zeta: float) -> np.ndarray:
    """eta*(gradv + gradv^T - (2/3) I tr) + zeta I tr on a (d, d, ...) block."""
    trace = _trace(gradv)
    out = eta * (gradv + gradv.swapaxes(0, 1))
    for i in range(len(gradv)):
        out[i, i] += (zeta - (2.0 / 3.0) * eta) * trace
    return out


def _visc_production(gradv: np.ndarray, eta: float, zeta: float) -> np.ndarray:
    """gradv : Lambda : gradv for a dim x dim gradient (dim <= 2), as
    2 eta |sym - (tr/3) I_3|^2 + zeta tr^2 with the deviator norm
    |sym_dd|^2 - tr^2/3 (at least tr^2/6, so nonnegative)."""
    trace = _trace(gradv)
    sym = 0.5 * (gradv + gradv.swapaxes(0, 1))
    dev2 = _pair_sum(sym * sym) - trace * trace / 3.0
    return 2.0 * eta * dev2 + zeta * trace * trace


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=(0, 1)), the same bits, over the flattened pair axes."""
    return _csum(x.reshape((-1,) + x.shape[2:]))


def _production(T, gradv, gradT, grad_mu, tr, kappa, dcoef) -> np.ndarray:
    """Pointwise entropy production (nonnegative by construction)."""
    cond = _quad_tensor(kappa, gradT, gradT) / T
    diff = _quad_tensor(dcoef, grad_mu, grad_mu)
    return (_visc_production(gradv, tr.eta, tr.zeta) + cond + diff) / T


def kn_4bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                Kg: FunctionalGradient, Ng: FunctionalGradient,
                state: State, model: ModelConfig) -> float | np.ndarray:
    """Minimal metriplectic 4-bracket (F, G; K, N).

    Antisymmetric in (F, G) and in (K, N), symmetric under pair exchange;
    (S, H; S, H) >= 0 whenever the transport coefficients are psd.  The
    four gradients may be batches with the same number of batch axes
    (sizes broadcast); the result is then an array over the batch axes.
    For a diffuse family the gradients first go through transform_gradients.
    """
    if not model.is_dissipative:
        raise UnsupportedFamilyError(f"family {model.family} has no metriplectic bracket")
    Fg, Gg, Kg, Ng = _align_batch(Fg, Gg, Kg, Ng, state=state)
    if model.is_diffuse:
        Fg, Gg, Kg, Ng = (transform_gradients(X, state, model) for X in (Fg, Gg, Kg, Ng))
    g = state.grid
    tr = model.transport
    der = state.derived(model)
    T = np.asarray(der.eos.T)

    def d(A, B, slot):
        # per-slot grads: the 4-bracket never differentiates rho
        return B.sigma * g.grad(getattr(A, slot)) - A.sigma * g.grad(getattr(B, slot))

    integrand = _pair_sum(d(Fg, Gg, "m") * _stress(d(Kg, Ng, "m"), tr.eta, tr.zeta))
    integrand = integrand + _quad_tensor(der.kappa, d(Fg, Gg, "sigma"), d(Kg, Ng, "sigma")) / T
    integrand = integrand + _quad_tensor(der.dcoef, d(Fg, Gg, "ctilde"), d(Kg, Ng, "ctilde"))
    return g.integrate(integrand / T)


def metriplectic_2bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                          state: State, model: ModelConfig) -> float | np.ndarray:
    """(F, G)_H = (F, H; G, H) of two gradients."""
    Hg = grad_H(state, model)
    return kn_4bracket(Fg, Hg, Gg, Hg, state, model)


def _fluxes(state: State, model: ModelConfig, ideal: bool = True,
            dissipative: bool = True) -> np.ndarray:
    """The negated fluxes whose divergence is the tendency pack, (dim, slots,
    *members, *grid.shape), the slots as State.packed then a diffuse dissipative
    family's mu_Gamma flux: stress (capillary if ideal, viscous if
    dissipative), -(rho, ctilde, sigma_total) v if ideal, kappa grad T / T."""
    g, dim = state.grid, state.grid.dim
    dissipative = dissipative and model.is_dissipative
    d = state.derived(model)
    with_mu = dissipative and model.is_diffuse
    # the advective slots are zero without the ideal part
    flux = (np.empty if ideal else np.zeros)((dim, dim + 3 + with_mu) + state.rho.shape)
    m_flux = flux[:, :dim]
    if ideal:
        dens = np.negative(state.packed[dim:])
        np.negative(sigma_total(state, model), out=dens[2])
        np.multiply(dens[None], state.v[:, None], out=flux[:, dim:dim + 3])
    if model.is_diffuse:
        cap_stress, mu_flux = d.capillary_stress()
    if dissipative:
        tr = model.transport
        stress = _stress(d.grads[0], tr.eta, tr.zeta)
        if ideal and model.is_diffuse:
            np.add(cap_stress, stress, out=m_flux)
        else:
            m_flux[...] = stress
        flux[:, dim + 2] += _apply_tensor(d.kappa, d.grads[2]) / d.eos.T
        if with_mu:
            flux[:, -1] = mu_flux
    else:
        m_flux[...] = cap_stress if model.is_diffuse else 0.0
    return flux


def _tendencies(state: State, model: ModelConfig, ideal: bool = True,
                dissipative: bool = True) -> FunctionalGradient:
    """Tendencies of (m, rho, ctilde, sigma): the ideal (bracket) part, the
    dissipative part or their sum, all from this one code path, returned
    as views of one pack laid out as State.packed: the divergence of
    _fluxes, with the terms not in divergence form added in place.  The
    mass, concentration and total-entropy budgets telescope exactly on the
    periodic grid.  Each stage takes one Grid.deriv call per axis: grad
    (v, p, T, c), kept on the state's Derived; div of the flux buffer; grad
    mu_Gamma; div(D grad mu_Gamma); grad c_dot, for the one pullback of the
    entropy tendency to sigma^a.
    """
    g, dim = state.grid, state.grid.dim
    dissipative = dissipative and model.is_dissipative
    if not (ideal or dissipative):
        return FunctionalGradient(packed=np.zeros(state.packed.shape))
    div = g.div(_fluxes(state, model, ideal, dissipative))
    rhs = FunctionalGradient(packed=div[:dim + 3])
    rho, v, d = state.rho, state.v, state.derived(model)
    gradv, grad_p, gradT, _ = d.grads
    if ideal:
        m_dot = rhs.m
        m_dot -= rho * _csum(v[:, None] * gradv)  # v_j d_j v_i
        m_dot -= grad_p
        m_dot += v * rhs.rho
    if dissipative:
        mu = d.eos.mu
        grad_mu = g.grad(mu - div[-1] / rho if model.is_diffuse else mu)  # grad mu_Gamma
        np.add(rhs.ctilde, g.div(_apply_tensor(d.dcoef, grad_mu)), out=rhs.ctilde)
        np.add(rhs.sigma, _production(np.asarray(d.eos.T), gradv, gradT, grad_mu,
                                      model.transport, d.kappa, d.dcoef), out=rhs.sigma)
    if model.is_diffuse:
        _tendency_to_sigma_a(rhs, state, model)
    return rhs


def dissipative_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Dissipative tendencies (zero for the ideal families).

    Momentum and concentration are in divergence (flux) form; the entropy
    tendency carries the heat-flux divergence plus the three production
    terms, pulled back to the evolved sigma^a field for the diffuse
    families.
    """
    return _tendencies(state, model, ideal=False)


def production_density(state: State, model: ModelConfig) -> np.ndarray:
    """Pointwise entropy production rate (nonnegative by construction)."""
    if not model.is_dissipative:
        return np.zeros(state.rho.shape)
    d = state.derived(model)
    gradv, _, gradT, _ = d.grads
    return _production(np.asarray(d.eos.T), gradv, gradT, state.grid.grad(d.mu_gamma),
                       model.transport, d.kappa, d.dcoef)


def entropy_production_rate(state: State, model: ModelConfig) -> tuple[np.ndarray, float]:
    """(pointwise production field, its integral: per member for a batch)."""
    field = production_density(state, model)
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
    out = np.zeros((3, 3))
    out[:coef.shape[0], :coef.shape[1]] = coef
    return out


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """mat @ vec over leading axes: (..., n, n) with (..., n)."""
    return np.matmul(mat, vec[..., None])[..., 0]


@dataclass(frozen=True)
class OnsagerBlocks:
    """Blocks of the Onsager matrix relating fluxes to affinities.

    Index layout (3D embedded): momentum flux rows are index pairs (i, j),
    energy and concentration rows are single spatial indices.  The
    momentum-concentration blocks are identically zero and not stored.
    Every block may carry the same leading axes, one set of blocks per entry.
    """

    L_mm: np.ndarray   # (...,3,3,3,3)
    L_me: np.ndarray   # (...,3,3,3)
    L_ee: np.ndarray   # (...,3,3)
    L_ec: np.ndarray   # (...,3,3)
    L_cc: np.ndarray   # (...,3,3)

    def assemble(self) -> np.ndarray:
        """Full symmetric 15x15 matrix over (m_(ij), e_k, c_k), with the
        blocks' leading axes in front."""
        lead = self.L_ee.shape[:-2]
        L_mm = self.L_mm.reshape(lead + (9, 9))
        L_me = self.L_me.reshape(lead + (9, 3))
        full = np.zeros(lead + (15, 15))
        full[..., :9, :9] = L_mm
        full[..., :9, 9:12] = L_me
        full[..., 9:12, :9] = L_me.swapaxes(-1, -2)
        full[..., 9:12, 9:12] = self.L_ee
        full[..., 9:12, 12:] = self.L_ec
        full[..., 12:, 9:12] = self.L_ec.swapaxes(-1, -2)
        full[..., 12:, 12:] = self.L_cc
        return full


def _onsager_blocks(T, mu, v3, eta, zeta, kap3, dmat3) -> OnsagerBlocks:
    """Onsager blocks from the point values: T, mu, eta, zeta of shape lead,
    v3 (*lead, 3), kap3 and dmat3 (*lead, 3, 3), for any leading axes lead
    (none for a single point).  Raises if a temperature is not positive.
    """
    if (np.asarray(T) <= 0).any():
        raise ValueError("Onsager blocks require T > 0")
    lam = lam4(eta, zeta)
    t = _trailing(T, 2)
    m = _trailing(mu, 2)
    L_mm = _trailing(T, 4) * lam
    L_me = _trailing(T, 3) * np.einsum("...ijkl,...l->...ijk", lam, v3)
    vlamv = np.einsum("...jikl,...j,...l->...ik", lam, v3, v3)
    L_ee = t * t * kap3 + t * vlamv + t * m * m * dmat3
    L_ec = t * m * dmat3
    L_cc = t * dmat3
    return OnsagerBlocks(L_mm=L_mm, L_me=L_me, L_ee=L_ee, L_ec=L_ec, L_cc=L_cc)


def onsager_blocks(rho: float, s: float, c: float, v, model: ModelConfig) -> OnsagerBlocks:
    """Onsager blocks at a single thermodynamic point.

    v is the velocity, given with up to three components (missing ones are
    zero).  Raises if the temperature at the point is not positive, and a
    ParameterError if kappa or dcoef is a callable: a field coefficient has
    no value at a point without a state.
    """
    tr = model.transport
    if tr is None:
        raise ValueError("transport coefficients required")
    for name in ("kappa", "dcoef"):
        if callable(getattr(tr, name)):
            raise ParameterError(name, f"onsager_blocks needs a scalar or matrix {name}, "
                                       "not a callable of (state, model)")
    pt = eval_eos(rho, s, c, model.eos)
    v3 = np.zeros(3)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    v3[:v.shape[0]] = v
    return _onsager_blocks(float(pt.T), float(pt.mu), v3, tr.eta, tr.zeta,
                           _embed3_matrix(tr.kappa), _embed3_matrix(tr.dcoef))


def onsager_fluxes(blocks: OnsagerBlocks, aff_e: np.ndarray, aff_m: np.ndarray,
                   aff_c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contract the blocks with affinities at one point, or at every point
    of the blocks' leading axes (the affinities then carry them too).

    aff_e = grad(1/T) (..., 3), aff_m = grad(-v/T) as (..., 3, 3) with
    [k, l] = d_k(-v_l/T), aff_c = grad(-mu/T) (..., 3).  Returns
    (J_m, J_e, J_c).
    """
    J_m = np.einsum("...ijk,...k->...ij", blocks.L_me, aff_e) \
        + np.einsum("...ijkl,...kl->...ij", blocks.L_mm, aff_m)
    J_e = _matvec(blocks.L_ee, aff_e) \
        + np.einsum("...kli,...kl->...i", blocks.L_me, aff_m) \
        + _matvec(blocks.L_ec, aff_c)
    J_c = _matvec(blocks.L_ec.swapaxes(-1, -2), aff_e) + _matvec(blocks.L_cc, aff_c)
    return J_m, J_e, J_c


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
Its slot table (Lambda for m, kappa / T for sigma, D for ctilde) is summed
pointwise by _pairing and _pairing_end, and the entropy production
(S, H; S, H) pairs the kernel's own fluxes with their gradients through them.

Viscous contraction uses the full 3D isotropic rank-4 tensor (trace factor
2/3) in dim x dim form.  Absent velocity components and derivatives are
zero, so the out-of-plane stress never enters a divergence or a pairing,
and its one contribution to the viscous production is the analytic trace
term |sym - (tr/3) I_3|^2 = |sym_dd|^2 - tr^2/3.

All tendencies, ideal and dissipative, come from one kernel
(_tendencies, the divergence of the _fluxes buffer plus the terms not in
flux form); ideal_rhs, dissipative_rhs and total_rhs select its parts.
The Onsager blocks are built from a state's cells, all at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, UnsupportedFamilyError, require_finite
from .functionals import (Derived, FunctionalGradient, ModelConfig, State, _align_batch,
                          _tendency_to_sigma_a, grad_H, transform_gradients)
from .grid import _csum, _trace


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


def _strain(gradv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gradv + gradv^T, tr gradv): what the stress and viscous production share."""
    return gradv + gradv.swapaxes(0, 1), _trace(gradv)


def _stress(strain, eta: float, zeta: float, out: np.ndarray | None = None) -> np.ndarray:
    """eta*(gradv + gradv^T - (2/3) I tr) + zeta I tr from gradv's _strain, into out."""
    sym2, trace = strain
    out = np.multiply(eta, sym2, out=out)
    for i in range(len(sym2)):
        out[i, i] += (zeta - (2.0 / 3.0) * eta) * trace
    return out


def _visc_production(strain, eta: float, zeta: float) -> np.ndarray:
    """gradv : Lambda : gradv from the _strain of a dim x dim gradient
    (dim <= 2), as 2 eta |sym - (tr/3) I_3|^2 + zeta tr^2 with the deviator
    norm |sym_dd|^2 - tr^2/3 (at least tr^2/6, so nonnegative)."""
    sym, trace = 0.5 * strain[0], strain[1]
    dev2 = _pair_sum(sym * sym) - trace * trace / 3.0
    return 2.0 * eta * dev2 + zeta * trace * trace


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=(0, 1)), the same bits, over the flattened pair axes."""
    return _csum(x.reshape((-1,) + x.shape[2:]))


def _pairing(m_term, x_sigma, kappa_y, T) -> np.ndarray:
    """The m and sigma slots of the slot table (Lambda, kappa / T, then D for
    ctilde in _pairing_end) summed pointwise: m_term + x_sigma . kappa y_sigma
    / T, m_term = x_m : Lambda y_m.  Both the 4-bracket and the production
    (S, H; S, H), the kernel's fluxes with their gradients, sum through it."""
    return m_term + _csum(x_sigma * kappa_y) / T


def _pairing_end(head, x_c, dcoef_y, T) -> np.ndarray:
    """(head + x_c . D y_c) / T: the slot table after _pairing's head."""
    return (head + _csum(x_c * dcoef_y)) / T


class _Closure:
    """A state's dissipative closure (from its Derived d), each part formed
    once: one _strain of grad v and kappa grad T give the viscous and heat
    fluxes, written into flux if given, and their _pairing (head); diffuse
    adds D grad mu_Gamma (diffusion) and the production.  Per stage: kept
    on Derived, it would outlive the stage."""

    def __init__(self, d: Derived, flux: np.ndarray | None = None):
        tr, T = d.model.transport, d.eos.T
        gradv, _, gradT, _ = d.grads
        strain = _strain(gradv)
        visc = _visc_production(strain, tr.eta, tr.zeta)
        heat = _apply_tensor(d.kappa, gradT)
        if flux is not None:
            dim = len(gradv)
            _stress(strain, tr.eta, tr.zeta, out=flux[:, :dim])
            flux[:, dim + 2] += heat / T
        self.d, self.head = d, _pairing(visc, gradT, heat, T)

    def diffuse(self, grad_mu: np.ndarray) -> "_Closure":
        self.diffusion = _apply_tensor(self.d.dcoef, grad_mu)
        self.production = _pairing_end(self.head, grad_mu, self.diffusion, self.d.eos.T)
        return self


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
    g, tr, der = state.grid, model.transport, state.derived(model)
    T = der.eos.T

    def d(A, B, slot):
        # per-slot grads: the 4-bracket never differentiates rho
        return B.sigma * g.grad(getattr(A, slot)) - A.sigma * g.grad(getattr(B, slot))

    m_term = _pair_sum(d(Fg, Gg, "m") * _stress(_strain(d(Kg, Ng, "m")), tr.eta, tr.zeta))
    head = _pairing(m_term, d(Fg, Gg, "sigma"), _apply_tensor(der.kappa, d(Kg, Ng, "sigma")), T)
    return g.integrate(_pairing_end(head, d(Fg, Gg, "ctilde"),
                                    _apply_tensor(der.dcoef, d(Kg, Ng, "ctilde")), T))


def metriplectic_2bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                          state: State, model: ModelConfig) -> float | np.ndarray:
    """(F, G)_H = (F, H; G, H) of two gradients."""
    Hg = grad_H(state, model)
    return kn_4bracket(Fg, Hg, Gg, Hg, state, model)


def _fluxes(state: State, model: ModelConfig, ideal: bool = True,
            dissipative: bool = True) -> tuple[np.ndarray, _Closure | None]:
    """The negated fluxes whose divergence is the tendency pack, (dim, slots,
    *members, *grid.shape), the slots as State.packed then a diffuse dissipative
    family's mu_Gamma flux: stress (capillary if ideal, viscous if
    dissipative), -(rho, ctilde, sigma_total) v if ideal, kappa grad T / T;
    and the _Closure that formed the dissipative ones (None without them)."""
    dim, d = state.grid.dim, state.derived(model)
    dissipative = dissipative and model.is_dissipative
    with_mu = dissipative and model.is_diffuse
    # the advective slots are zero without the ideal part
    flux = (np.empty if ideal else np.zeros)((dim, dim + 3 + with_mu) + state.rho.shape)
    if ideal:
        dens = np.negative(state.packed[dim:])
        np.negative(d.sigma_total(), out=dens[2])
        np.multiply(dens[None], state.v[:, None], out=flux[:, dim:dim + 3])
        del dens  # its memory goes to the closure, formed next (before the capillary stress)
    closure = _Closure(d, flux) if dissipative else None
    if model.is_diffuse:
        cap_stress, mu_flux = d.capillary_stress()
        if with_mu:
            flux[:, -1] = mu_flux
    if not dissipative:
        flux[:, :dim] = cap_stress if model.is_diffuse else 0.0
    elif ideal and model.is_diffuse:
        flux[:, :dim] += cap_stress
    return flux, closure


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
    flux, closure = _fluxes(state, model, ideal, dissipative)
    div = g.div(flux)
    del flux  # not read again: held, it would raise the stage's peak
    rhs = FunctionalGradient(packed=div[:dim + 3])
    rho, v, d = state.rho, state.v, state.derived(model)
    gradv, grad_p, _, _ = d.grads
    if ideal:
        m_dot = rhs.m
        m_dot -= rho * _csum(v[:, None] * gradv)  # v_j d_j v_i
        m_dot -= grad_p
        m_dot += v * rhs.rho
    if dissipative:
        mu = d.eos.mu
        closure.diffuse(g.grad(mu - div[-1] / rho if model.is_diffuse else mu))  # grad mu_Gamma
        np.add(rhs.ctilde, g.div(closure.diffusion), out=rhs.ctilde)
        np.add(rhs.sigma, closure.production, out=rhs.sigma)
    if model.is_diffuse:
        _tendency_to_sigma_a(rhs, d)
    return rhs


def dissipative_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Dissipative tendencies (zero for the ideal families).

    Momentum and concentration are in divergence (flux) form; the entropy
    tendency carries the heat-flux divergence plus the production, pulled
    back to the evolved sigma^a field for the diffuse families.
    """
    return _tendencies(state, model, ideal=False)


def entropy_production_rate(state: State, model: ModelConfig) -> tuple[np.ndarray, float]:
    """(pointwise production field, its integral: per member for a batch);
    the field is the kernel's (see _Closure), nonnegative by construction."""
    if model.is_dissipative:
        d = state.derived(model)
        field = _Closure(d).diffuse(state.grid.grad(d.mu_gamma)).production
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
        L_me, zero = self.L_me.reshape(lead + (9, 3)), np.zeros(lead + (9, 3))
        return np.block([[self.L_mm.reshape(lead + (9, 9)), L_me, zero],
                         [L_me.swapaxes(-1, -2), self.L_ee, self.L_ec],
                         [zero.swapaxes(-1, -2), self.L_ec.swapaxes(-1, -2), self.L_cc]])


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


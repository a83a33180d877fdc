"""Fixtures shared by the test modules."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest

from metriflow import (AnisotropyFn, FunctionalGradient, Grid, OnsagerBlocks,
                       UnsupportedFamilyError, eval_eos, lam4)
from metriflow.functionals import _align_batch, _lift
from metriflow.metriplectic import _embed3_matrix, _onsager_blocks
from metriflow.verification import model_for


def coefficient(kind, dim, scale):
    """A kappa or dcoef of the given kind: the scalar scale, a (dim, dim)
    psd matrix, or a callable, a positive tensor field of shape (dim, dim,
    *members, *grid.shape) of the fill's fields f."""
    if kind == "scalar":
        return scale
    if kind == "matrix":
        return scale * (np.eye(dim) + 0.3 * (np.ones((dim, dim)) - np.eye(dim)))

    def field(f, model):
        eye = np.eye(dim).reshape((dim, dim) + (1,) * f.c.ndim)
        return scale * eye * (1.0 + f.c ** 2)
    return field


def model_of(family, dim, kind="scalar", n=16, eps4=0.04):
    """verification.model_for(family, grid) on a unit grid of n cells per
    axis, with a dissipative family's kappa and dcoef of the given kind (see
    coefficient) and, in 2D, fourfold anisotropy of strength eps4."""
    model, kw = model_for(family, Grid(dim=dim, n=(n,) * dim, length=(1.0,) * dim)), {}
    if model.transport is not None:
        kw["transport"] = replace(model.transport, kappa=coefficient(kind, dim, 0.02),
                                  dcoef=coefficient(kind, dim, 0.03))
    if dim == 2:
        kw["anisotropy"] = AnisotropyFn(kind="fourfold", eps4=eps4)
    return replace(model, **kw)


def as_json(details) -> str:
    """The JSON text of a verify suite's details, numpy scalars as Python's."""
    return json.dumps(details, default=lambda x: x.item())


def coefficient_on(coef, state, model):
    """The transport coefficient coef on the fields of state under model:
    a callable is called on the state's Derived, as the fill calls it."""
    return coef(state.derived(model), model) if callable(coef) else coef


def _change_variables(Fg, state, model, sign):
    """The sigma^a change of variables on gradients at state: sign -1 maps
    gradients in the paper's sigma^a variables to gradients in the state's
    sigma (total entropy) variables, +1 maps back.  m and sigma pass
    through; rho and ctilde pick up the surface-gradient corrections."""
    if not model.is_diffuse:
        raise UnsupportedFamilyError("gradient transform applies to diffuse families only")
    rho, lam_s = state.rho, model.surface.lambda_s
    Fg, = _align_batch(Fg, state=state)
    d = state.derived(model)
    _, gamma, xi = d.gamma_xi
    # sign * div(rho^a lambda_s Gamma xi F_sigma), the surface part
    div_flux = sign * state.grid.div(d.weight * lam_s * gamma * _lift(xi, Fg) * Fg.sigma)
    d_rho = Fg.rho + state.ctilde / rho ** 2 * div_flux
    if model.a == 1:
        d_rho = d_rho + sign * 0.5 * lam_s * gamma * gamma * Fg.sigma
    return FunctionalGradient(m=Fg.m, rho=d_rho, ctilde=Fg.ctilde - div_flux / rho,
                              sigma=Fg.sigma)


def transform_gradients(hatFg, state, model):
    """The reference map: gradients in the paper's sigma^a variables to
    gradients in the sigma variables the package evolves (identity at
    lambda_s = 0).  hatFg may be a batch."""
    return _change_variables(hatFg, state, model, -1.0)


def untransform_gradients(Fg, state, model):
    """Inverse of transform_gradients (sigma variables to sigma^a ones)."""
    return _change_variables(Fg, state, model, 1.0)


@pytest.fixture
def deriv_calls(monkeypatch):
    """The list to which each Grid.deriv call of the test appends its axis."""
    calls = []
    plain = Grid.deriv

    def counted(self, f, axis, out=None):
        calls.append(axis)
        return plain(self, f, axis, out=out)

    monkeypatch.setattr(Grid, "deriv", counted)
    return calls


def reference_onsager_blocks(T, mu, v3, eta, zeta, kap3, dmat3) -> OnsagerBlocks:
    """The Onsager blocks at one point, written out without leading axes:
    T, mu, eta and zeta floats, v3 a 3-vector, kap3 and dmat3 3x3."""
    lam = lam4(eta, zeta)
    return OnsagerBlocks(
        L_mm=T * lam,
        L_me=T * np.einsum("ijkl,l->ijk", lam, v3),
        L_ee=T * T * kap3 + T * np.einsum("jikl,j,l->ik", lam, v3, v3) + T * mu * mu * dmat3,
        L_ec=T * mu * dmat3,
        L_cc=T * dmat3)


@pytest.fixture
def onsager_reference():
    """The per-point reference body of the Onsager blocks (see
    reference_onsager_blocks), which takes _onsager_blocks' arguments."""
    return reference_onsager_blocks


@pytest.fixture
def onsager_point():
    """(rho, s, c, v3, model) -> the Onsager blocks that _onsager_blocks
    gives at that thermodynamic point of model (a scalar or matrix kappa and
    dcoef; only its eos and transport are read), each block checked bit for
    bit against the reference body."""

    def blocks_at(rho, s, c, v3, model):
        tr, pt = model.transport, eval_eos(rho, s, c, model.eos)
        args = (float(pt.T), float(pt.mu), np.asarray(v3, dtype=float), tr.eta, tr.zeta,
                _embed3_matrix(tr.kappa), _embed3_matrix(tr.dcoef))
        blocks, ref = _onsager_blocks(*args), reference_onsager_blocks(*args)
        for f in fields(OnsagerBlocks):
            assert np.array_equal(getattr(blocks, f.name), getattr(ref, f.name)), f.name
        return blocks

    return blocks_at

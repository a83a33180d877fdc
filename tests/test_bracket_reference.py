"""The 4-bracket of a diffuse family is the sharp 4-bracket of the gradients
mapped through transform_gradients, and the 2-bracket is (F, H; G, H).
Both must agree with the hand-written concentration slot and the direct
2-bracket they replaced, which are kept here as the reference: the same
bits for the 4-bracket, roundoff for the 2-bracket.
"""

import numpy as np
import pytest

from metriflow import (AnisotropyFn, Grid, ModelConfig, SurfaceCoefficients,
                       TransportCoefficients, kn_4bracket, metriplectic_2bracket,
                       smooth_state)
from metriflow.fields import random_gradient
from metriflow.functionals import _lift
from metriflow.grid import _csum
from metriflow.metriplectic import _apply_tensor, _pair_sum, _strain, _stress

TRIALS = 20


def _coefficient(kind, dim, scale):
    if kind == "scalar":
        return scale
    if kind == "matrix":
        return scale * (np.eye(dim) + 0.3 * (np.ones((dim, dim)) - np.eye(dim)))

    def field(state, model):
        eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
        return scale * eye * (1.0 + state.c ** 2)
    return field


def _model(family, dim, coef_kind):
    grid = Grid(dim=dim, n=32 if dim == 1 else 16, length=1.0)
    diffuse = family.startswith("CH")
    surf = SurfaceCoefficients(lambda_u=2e-3 if diffuse else 0.0,
                               lambda_s=1e-3 if diffuse else 0.0)
    tr = TransportCoefficients(eta=0.01, zeta=0.005,
                               kappa=_coefficient(coef_kind, dim, 0.02),
                               dcoef=_coefficient(coef_kind, dim, 0.03))
    anis = AnisotropyFn(kind="fourfold", eps4=0.05) if dim == 2 else AnisotropyFn()
    return ModelConfig(family=family, grid=grid, surface=surf, transport=tr,
                       anisotropy=anis)


CASES = [(family, dim, kind) for family in ("GNS", "CHNS0", "CHNS1") for dim in (1, 2)
         for kind in ("scalar", "matrix", "callable")]


# ------------------------------------------------------------ reference

def _reference_conc_slot(Fg, state, model):
    """grad F_ctilde, plus the surface part of the sigma^a map written out."""
    g = state.grid
    if not model.is_diffuse or model.surface.lambda_s == 0.0:
        return g.grad(Fg.ctilde)
    d = state.derived(model)
    _, gamma, xi = d.gamma_xi
    flux_div = g.div(d.weight * model.surface.lambda_s * gamma * _lift(xi, Fg) * Fg.sigma)
    return g.grad(Fg.ctilde + flux_div / state.rho)


def _reference_kn_4bracket(Fg, Gg, Kg, Ng, state, model):
    g = state.grid
    tr = model.transport
    T = np.asarray(state.derived(model).eos.T)

    def d1(A, B):
        return B.sigma * g.grad(A.m) - A.sigma * g.grad(B.m)

    def d2(A, B):
        return B.sigma * g.grad(A.sigma) - A.sigma * g.grad(B.sigma)

    def d3(A, B):
        return (B.sigma * _reference_conc_slot(A, state, model)
                - A.sigma * _reference_conc_slot(B, state, model))

    integrand = _pair_sum(d1(Fg, Gg) * _stress(_strain(d1(Kg, Ng)), tr.eta, tr.zeta))
    integrand = integrand + _csum(d2(Fg, Gg) * _apply_tensor(tr.kappa_of(state, model),
                                                             d2(Kg, Ng))) / T
    integrand = integrand + _csum(d3(Fg, Gg) * _apply_tensor(tr.dcoef_of(state, model),
                                                             d3(Kg, Ng)))
    return g.integrate(integrand / T)


def _reference_2bracket(Fg, Gg, state, model):
    """(F, H; G, H) written out with grad H's slots in closed form."""
    g = state.grid
    tr = model.transport
    d = state.derived(model)
    T = np.asarray(d.eos.T)
    gradv, _, gradT, _ = d.grads
    grad_mu = g.grad(d.mu_gamma)

    x1 = T * g.grad(Fg.m) - Fg.sigma * gradv
    y1 = T * g.grad(Gg.m) - Gg.sigma * gradv
    integrand = _pair_sum(x1 * _stress(_strain(y1), tr.eta, tr.zeta))
    x2 = T * g.grad(Fg.sigma) - Fg.sigma * gradT
    y2 = T * g.grad(Gg.sigma) - Gg.sigma * gradT
    integrand = integrand + _csum(x2 * _apply_tensor(tr.kappa_of(state, model), y2)) / T
    x3 = T * _reference_conc_slot(Fg, state, model) - Fg.sigma * grad_mu
    y3 = T * _reference_conc_slot(Gg, state, model) - Gg.sigma * grad_mu
    integrand = integrand + _csum(x3 * _apply_tensor(tr.dcoef_of(state, model), y3))
    return g.integrate(integrand / T)


# ------------------------------------------------------------ comparisons

@pytest.mark.parametrize("family,dim,kind", CASES)
def test_4bracket_gives_the_reference_bits(family, dim, kind):
    model = _model(family, dim, kind)
    state = smooth_state(model.grid, model, seed=21, amp=0.15)
    seeds = 500 + np.arange(TRIALS)
    F, G, K, N = (random_gradient(model.grid, seeds + 1000 * i) for i in range(4))
    new = kn_4bracket(F, G, K, N, state, model)
    assert new.shape == (TRIALS,)
    assert np.array_equal(new, _reference_kn_4bracket(F, G, K, N, state, model))


@pytest.mark.parametrize("family,dim,kind", CASES)
def test_2bracket_matches_the_direct_body(family, dim, kind):
    model = _model(family, dim, kind)
    state = smooth_state(model.grid, model, seed=22, amp=0.15)
    for trial in range(TRIALS):
        F = random_gradient(model.grid, 700 + trial)
        G = random_gradient(model.grid, 800 + trial)
        ref = _reference_2bracket(F, G, state, model)
        assert abs(metriplectic_2bracket(F, G, state, model) - ref) <= 1e-15 * abs(ref)

"""The paper's variables stay checked.  The package evolves sigma, the total
entropy density sigma^a + rho^a lambda_s Gamma(grad c)^2 / 2, so its
brackets are the sharp ones; the paper writes the diffuse brackets and H's
gradient in its sigma^a variables.  Written out here in those variables,
each must equal the package's on gradients taken through the reference map
conftest.transform_gradients, at roundoff: the Poisson bracket of the four
diffuse families, the 4-bracket of the two dissipative ones and grad H, in
1D and in 2D with fourfold anisotropy.
"""

import numpy as np
import pytest

from metriflow import grad_H, kn_4bracket, poisson_bracket, smooth_state
from metriflow.fields import random_gradient
from metriflow.functionals import DIFFUSE_FAMILIES, FunctionalGradient
from metriflow.grid import _csum
from metriflow.metriplectic import _apply_tensor, _pair_sum, _stress
from conftest import coefficient_on, model_of, transform_gradients

TRIALS = 6
# a written-out bracket and the package's sum the same terms in another
# order: their gap is roundoff of the sum of the terms' absolute values
ROUNDOFF = 1e-13


def _surface_flux_div(B, state, model):
    """q_B = div(rho^a lambda_s Gamma xi B_sigma) / rho: the map adds q_B to
    the ctilde slot of B's gradient and -c q_B to its rho slot."""
    d = state.derived(model)
    _, gamma, xi = d.gamma_xi
    return state.grid.div(d.rho ** model.a * model.surface.lambda_s * gamma * xi
                          * B.sigma) / d.rho


def paper_poisson_bracket(Fa, Ga, state, model):
    """{F, G}^a in the sigma^a variables, written out, and the integral of
    the absolute values of its terms: the sharp pairing of the sigma^a
    gradients with weights (m, rho, ctilde, sigma^a = rho s^a), plus the
    surface terms, (F.m . grad) of the surface parts of G's gradient
    weighted by rho and ctilde, and of G_sigma by the surface entropy E =
    rho^a lambda_s Gamma^2 / 2; minus the same with F and G swapped."""
    g, d = state.grid, state.derived(model)
    lam_s, a = model.surface.lambda_s, model.a
    _, gamma, _ = d.gamma_xi
    weights = list(state.m) + [d.rho, state.ctilde, d.rho * d.s]
    surface_entropy = 0.5 * d.rho ** a * lam_s * gamma * gamma

    def advect(A, field):
        return (A.m * g.grad(field)).sum(axis=0)

    def terms(A, B):
        q = _surface_flux_div(B, state, model)
        rho_part = d.c * q + (0.5 * lam_s * gamma * gamma * B.sigma if a == 1 else 0.0)
        return ([w * advect(A, x) for w, x in zip(weights, B.packed)]
                + [-d.rho * advect(A, rho_part), state.ctilde * advect(A, q),
                   surface_entropy * advect(A, B.sigma)])

    parts = terms(Fa, Ga) + [-x for x in terms(Ga, Fa)]
    return -g.integrate(sum(parts)), g.integrate(sum(np.abs(x) for x in parts))


def paper_kn_4bracket(Fa, Ga, Ka, Na, state, model):
    """(F, G; K, N)^a in the sigma^a variables, written out, and the
    integral of the absolute values of its terms: the slot table (Lambda,
    kappa / T, D) on the m, sigma and concentration slots, the last
    grad(B_ctilde + q_B).  The 4-bracket never differentiates rho."""
    g, d, tr = state.grid, state.derived(model), model.transport
    T = d.eos.T

    def slots(X):
        return (g.grad(X.m), g.grad(X.sigma),
                g.grad(X.ctilde + _surface_flux_div(X, state, model)))

    def pair(A, B):
        return [B.sigma * x - A.sigma * y for x, y in zip(slots(A), slots(B))]

    x, y = pair(Fa, Ga), pair(Ka, Na)
    kappa, dcoef = coefficient_on(tr.kappa, state, model), coefficient_on(tr.dcoef, state, model)
    parts = [_pair_sum(x[0] * _stress(y[0], tr.eta, tr.zeta)) / T,
             _csum(x[1] * _apply_tensor(kappa, y[1])) / (T * T),
             _csum(x[2] * _apply_tensor(dcoef, y[2])) / T]
    return g.integrate(sum(parts)), g.integrate(sum(np.abs(x) for x in parts))


def paper_grad_H(state, model):
    """H's gradient in the sigma^a variables, written out: its surface terms
    carry lambda_u alone, and its sigma^a slot is T."""
    g, d = state.grid, state.derived(model)
    rho, c, v, pt = d.rho, d.c, d.v, d.eos
    lam_u = model.surface.lambda_u
    _, gamma, xi = d.gamma_xi
    div_flux = g.div(rho ** model.a * lam_u * gamma * xi)
    d_rho = -0.5 * (v * v).sum(axis=0) + pt.g - c * pt.mu + c * div_flux / rho
    if model.a == 1:
        d_rho = d_rho + 0.5 * lam_u * gamma * gamma
    return FunctionalGradient(m=v, rho=d_rho, ctilde=pt.mu - div_flux / rho, sigma=pt.T)


CASES = [(family, dim) for family in DIFFUSE_FAMILIES for dim in (1, 2)]


def _case(family, dim):
    # model_of carries fourfold anisotropy in 2D
    model = model_of(family, dim)
    return model, smooth_state(model.grid, model, seed=41, amp=0.15)


def _mapped(state, model, *gradients):
    return [transform_gradients(X, state, model) for X in gradients]


@pytest.mark.parametrize("family, dim", CASES)
def test_the_papers_poisson_bracket_is_the_sharp_one_under_the_map(family, dim):
    model, state = _case(family, dim)
    for trial in range(TRIALS):
        F, G = (random_gradient(model.grid, 600 + 2 * trial + i) for i in (0, 1))
        paper, scale = paper_poisson_bracket(F, G, state, model)
        assert abs(poisson_bracket(*_mapped(state, model, F, G), state, model) - paper) \
            <= ROUNDOFF * scale, trial
        # the map is not the identity here: unmapped, the gap is no roundoff
        assert abs(poisson_bracket(F, G, state, model) - paper) > 1e3 * ROUNDOFF * scale, trial


@pytest.mark.parametrize("family, dim", [(f, d) for f, d in CASES if f.startswith("CHNS")])
def test_the_papers_4bracket_is_the_sharp_one_under_the_map(family, dim):
    model, state = _case(family, dim)
    for trial in range(TRIALS):
        F, G, K, N = (random_gradient(model.grid, 700 + 4 * trial + i) for i in range(4))
        paper, scale = paper_kn_4bracket(F, G, K, N, state, model)
        assert abs(kn_4bracket(*_mapped(state, model, F, G, K, N), state, model) - paper) \
            <= ROUNDOFF * scale, trial
        assert abs(kn_4bracket(F, G, K, N, state, model) - paper) > 1e3 * ROUNDOFF * scale, trial


@pytest.mark.parametrize("family, dim", CASES)
def test_grad_H_is_the_map_of_the_papers_gradient(family, dim):
    # in the sigma variables the surface terms carry lambda_f = lambda_u -
    # T lambda_s: T lambda_s's part is the internal energy's, read at s^a
    model, state = _case(family, dim)
    mapped, = _mapped(state, model, paper_grad_H(state, model))
    Hg = grad_H(state, model)
    for slot in ("m", "rho", "ctilde", "sigma"):
        ref = getattr(Hg, slot)
        assert np.abs(getattr(mapped, slot) - ref).max() <= 1e-14 * np.abs(ref).max(), slot

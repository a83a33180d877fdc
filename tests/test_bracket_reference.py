"""The 4-bracket is the sharp 4-bracket for every family, since sigma is
the total entropy density, and the 2-bracket is (F, H; G, H).  Both must
give the bits of the 4-bracket written out slot by slot, kept here as the
reference; and the slots of grad H that the 2-bracket reads are v, T and
mu_Gamma.  The paper's sigma^a form is checked in test_sigma_a_variables.
"""

import numpy as np
import pytest

from metriflow import grad_H, kn_4bracket, metriplectic_2bracket, smooth_state
from metriflow.fields import random_gradient
from metriflow.grid import _csum
from metriflow.metriplectic import _apply_tensor, _pair_sum, _stress
from conftest import coefficient_on, model_of

TRIALS = 20
CELLS = {1: 32, 2: 16}  # per axis, by dim


CASES = [(family, dim, kind) for family in ("GNS", "CHNS0", "CHNS1") for dim in (1, 2)
         for kind in ("scalar", "matrix", "callable")]


# ------------------------------------------------------------ reference

def _reference_kn_4bracket(Fg, Gg, Kg, Ng, state, model):
    g = state.grid
    tr = model.transport
    T = np.asarray(state.derived(model).eos.T)

    def d1(A, B):
        return B.sigma * g.grad(A.m) - A.sigma * g.grad(B.m)

    def d2(A, B):
        return B.sigma * g.grad(A.sigma) - A.sigma * g.grad(B.sigma)

    def d3(A, B):
        return B.sigma * g.grad(A.ctilde) - A.sigma * g.grad(B.ctilde)

    kappa, dcoef = coefficient_on(tr.kappa, state, model), coefficient_on(tr.dcoef, state, model)
    integrand = _pair_sum(d1(Fg, Gg) * _stress(d1(Kg, Ng), tr.eta, tr.zeta))
    integrand = integrand + _csum(d2(Fg, Gg) * _apply_tensor(kappa, d2(Kg, Ng))) / T
    integrand = integrand + _csum(d3(Fg, Gg) * _apply_tensor(dcoef, d3(Kg, Ng)))
    return g.integrate(integrand / T)


# ------------------------------------------------------------ comparisons

@pytest.mark.parametrize("family,dim,kind", CASES)
def test_4bracket_gives_the_reference_bits(family, dim, kind):
    model = model_of(family, dim, kind, n=CELLS[dim], eps4=0.05)
    state = smooth_state(model.grid, model, seed=21, amp=0.15)
    seeds = 500 + np.arange(TRIALS)
    F, G, K, N = (random_gradient(model.grid, seeds + 1000 * i) for i in range(4))
    new = kn_4bracket(F, G, K, N, state, model)
    assert new.shape == (TRIALS,)
    assert np.array_equal(new, _reference_kn_4bracket(F, G, K, N, state, model))


@pytest.mark.parametrize("family,dim,kind", CASES)
def test_2bracket_matches_the_direct_body(family, dim, kind):
    # (F, H; G, H): the reference 4-bracket with grad H in both H slots
    model = model_of(family, dim, kind, n=CELLS[dim], eps4=0.05)
    state = smooth_state(model.grid, model, seed=22, amp=0.15)
    Hg = grad_H(state, model)
    for trial in range(TRIALS):
        F = random_gradient(model.grid, 700 + trial)
        G = random_gradient(model.grid, 800 + trial)
        ref = _reference_kn_4bracket(F, Hg, G, Hg, state, model)
        assert metriplectic_2bracket(F, G, state, model) == ref, trial


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["GNS", "CHNS0", "CHNS1"])
def test_the_2bracket_reads_v_T_and_mu_gamma_from_grad_H(family, dim):
    # the m, sigma and ctilde slots of grad H: v and T bit for bit, and
    # mu_Gamma, whose surface part grad_H assembles in another order
    model = model_of(family, dim, n=CELLS[dim], eps4=0.05)
    state = smooth_state(model.grid, model, seed=22, amp=0.15)
    Hg, d = grad_H(state, model), state.derived(model)
    assert np.array_equal(Hg.m, state.v) and np.array_equal(Hg.sigma, d.eos.T)
    assert np.abs(Hg.ctilde - d.mu_gamma).max() <= 1e-15 * np.abs(d.mu_gamma).max()

"""Noncanonical Poisson brackets and the ideal equations of motion.

One bracket serves all families: the base Lie-Poisson bracket of the
sharp-interface (GE/GNS) system on (m, rho, ctilde, sigma).  The
diffuse-interface brackets (a=1 and a=0 entropy variables sigma^a) are
its pullback through the sigma^a change of variables, as is the
metriplectic 4-bracket: the gradients go through transform_gradients (in
functionals) and the sigma slot pairs with sigma_total.
transform_gradients(grad S) is the unit sigma gradient, which the base
pairings annihilate exactly, so the entropy is a Casimir to roundoff for
every family.

The ideal tendencies (ideal_rhs) are the ideal part of the shared kernel in
metriplectic, so the RHS has one code path.

Each antisymmetric pairing is evaluated as an explicit difference of the
swapped expression, so antisymmetry holds to exact floating-point negation.
Bracket/RHS consistency relies on the continuum product rule in the
momentum slot, so it holds at second order in the grid spacing.
"""

from __future__ import annotations

import numpy as np

from .functionals import (FunctionalGradient, ModelConfig, State, _lift, sigma_total,
                          transform_gradients)
from .grid import _csum
from .metriplectic import _tendencies


def _directional(grid, fm, scalar_field):
    # (fm . grad)(scalar_field), fm a vector field
    return _csum(fm * grid.grad(scalar_field))


def _vec_advect(grid, fm, gm):
    # vector field with components fm_j d_j gm_i
    return _csum(fm[:, None] * grid.grad(gm))


def poisson_bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                    state: State, model: ModelConfig) -> float | np.ndarray:
    """Poisson bracket of two functional gradients: the base pairings, after
    transform_gradients and with sigma_total in the sigma slot for a
    diffuse family.

    Fg and Gg may be batches with the same number of trial axes (sizes
    broadcast); the result is then an array over the trial axes.
    """
    g = state.grid
    if model.is_diffuse:
        Fg, Gg = transform_gradients(Fg, state, model), transform_gradients(Gg, state, model)
    m, rho, ctilde = _lift(state.m, Fg), state.rho, state.ctilde
    sigma = sigma_total(state, model)

    def pair(f_of_FG):
        return f_of_FG(Fg, Gg) - f_of_FG(Gg, Fg)

    integrand = _csum(m * pair(lambda F, G: _vec_advect(g, F.m, G.m)))
    integrand = integrand + rho * pair(lambda F, G: _directional(g, F.m, G.rho))
    integrand = integrand + ctilde * pair(lambda F, G: _directional(g, F.m, G.ctilde))
    integrand = integrand + sigma * pair(lambda F, G: _directional(g, F.m, G.sigma))
    return -g.integrate(integrand)


def capillary_force(state: State, model: ModelConfig) -> np.ndarray:
    """Capillary acceleration (force per unit mass) in the momentum equation.

    Zero for the sharp-interface families; for the diffuse families this is
    the non-pressure part of the interface stress divergence.
    """
    g = state.grid
    if not model.is_diffuse:
        return g.zeros_vector()
    pi, _ = state.derived(model).capillary_stress()
    return g.div(pi) / state.rho


def ideal_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Tendencies of (m, rho, ctilde, sigma) for the ideal (bracket) part.

    Advected densities use divergence form so the global mass, concentration
    and total-entropy budgets telescope to zero exactly on the periodic grid.
    """
    return _tendencies(state, model, dissipative=False)

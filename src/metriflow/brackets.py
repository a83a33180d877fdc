"""Noncanonical Poisson brackets and the ideal equations of motion.

Three bracket families are implemented, on one code path: the base
Lie-Poisson bracket for the sharp-interface (GE/GNS) system, and its two
transformed versions for the diffuse-interface a=1 and a=0 entropy
variables.  The transformed brackets keep the corresponding entropy
functional as a Casimir invariant.  The change of variables itself
(transform_gradients) is in functionals.

The ideal tendencies (ideal_rhs) are the ideal part of the shared kernel in
metriplectic, so the RHS has one code path.

Each antisymmetric pairing is evaluated as an explicit difference of the
swapped expression, so antisymmetry holds to exact floating-point negation.
Identities that rely on the continuum product rule (Casimir annihilation,
bracket/RHS consistency) hold at second order in the grid spacing.
"""

from __future__ import annotations

import numpy as np

from .functionals import FunctionalGradient, ModelConfig, State, _lift
from .grid import _csum
from .metriplectic import _tendencies


def _directional(grid, fm, scalar_field):
    # (fm . grad)(scalar_field), fm a vector field
    return _csum(fm * grid.grad(scalar_field))


def _vec_advect(grid, fm, gm):
    # vector field with components fm_j d_j gm_i
    return _csum(fm[:, None] * grid.grad(gm))


def _div_outer(grid, u, w):
    # div over the first slot of u (x) w: (d_j (u_j w_i))_i
    return grid.div(u[:, None] * w[None])


def poisson_bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                    state: State, model: ModelConfig) -> float | np.ndarray:
    """Family-selected Poisson bracket of two functional gradients.

    Fg and Gg may be batches with the same number of trial axes (sizes
    broadcast); the result is then an array over the trial axes.
    """
    g = state.grid
    m, rho, ctilde, sigma = _lift(state.m, Fg), state.rho, state.ctilde, state.sigma

    def pair(f_of_FG):
        return f_of_FG(Fg, Gg) - f_of_FG(Gg, Fg)

    # momentum self-coupling and the rho / ctilde advection pairings are
    # shared by all three families
    integrand = _csum(m * pair(lambda F, G: _vec_advect(g, F.m, G.m)))
    integrand = integrand + rho * pair(lambda F, G: _directional(g, F.m, G.rho))
    integrand = integrand + ctilde * pair(lambda F, G: _directional(g, F.m, G.ctilde))
    if model.is_diffuse:
        # the surface-entropy terms of the sigma^a variables, weighted by rho^a
        d = state.derived(model)
        lam_s, weight = model.surface.lambda_s, d.weight
        gc, gamma, xi = d.gamma_xi
        gc, xi = _lift(gc, Fg), _lift(xi, Fg)
        integrand = integrand - lam_s * pair(
            lambda F, G: _csum(F.m * _div_outer(g, weight * G.sigma * gamma * xi, gc)))
        if model.a == 0:
            integrand = integrand + 0.5 * lam_s * pair(
                lambda F, G: _directional(g, F.m, gamma * gamma * G.sigma))
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

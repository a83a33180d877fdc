"""Noncanonical Poisson brackets and the ideal equations of motion.

One bracket serves all families: the base Lie-Poisson bracket of the
sharp-interface (GE/GNS) system, one pairing over the slots of the pack
(m_1..m_dim, rho, ctilde, sigma) in which every conserved density pairs
with the gradients' momentum slot in the same way.  The diffuse-interface
brackets (a=1 and a=0 entropy variables sigma^a) are its pullback through
the sigma^a change of variables, as is the metriplectic 4-bracket: the
gradients go through transform_gradients (in functionals) and the sigma
slot pairs with sigma_total.  transform_gradients(grad S) is the unit
sigma gradient, which the pairing annihilates exactly, so the entropy is
a Casimir to roundoff for every family.

The pairing is an explicit difference of the swapped terms, so
antisymmetry holds to exact floating-point negation.  ideal_rhs is the
ideal part of the shared kernel in metriplectic; it is the tendency the
bracket generates up to O(h^2) in the momentum slot.
"""

from __future__ import annotations

import numpy as np

from .functionals import (FunctionalGradient, ModelConfig, State, _align_batch, _lift,
                          sigma_total, transform_gradients)
from .grid import _csum
from .metriplectic import _tendencies


def poisson_bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                    state: State, model: ModelConfig) -> float | np.ndarray:
    """Poisson bracket of two functional gradients,
    -integral sum_s w_s [(F.m . grad) G_s - (G.m . grad) F_s] over the pack
    slots s, w the state's pack with sigma_total in the sigma slot, after
    transform_gradients for a diffuse family.

    Fg and Gg may be batches with the same number of batch axes (sizes
    broadcast); the result is then an array over the batch axes.
    """
    Fg, Gg = _align_batch(Fg, Gg, state=state)
    g = state.grid
    if model.is_diffuse:
        Fg, Gg = transform_gradients(Fg, state, model), transform_gradients(Gg, state, model)
    w = np.concatenate([state.packed[:-1], sigma_total(state, model)[None]])

    def advect(A, B):
        # (A.m . grad) B_s for every slot s, from one grad of B's pack
        return _csum(A.m[:, None] * g.grad(B.packed))

    pairing = advect(Fg, Gg)  # both terms have the broadcast trial shape
    pairing -= advect(Gg, Fg)
    pairing = pairing * _lift(w, Fg)  # not in place: members widen it
    return -g.integrate(_csum(pairing))


def capillary_force(state: State, model: ModelConfig) -> np.ndarray:
    """Capillary acceleration (force per unit mass) in the momentum equation.

    Zero for the sharp-interface families; for the diffuse families this is
    the non-pressure part of the interface stress divergence.
    """
    if not model.is_diffuse:
        return np.zeros(state.m.shape)
    pi, _ = state.derived(model).capillary_stress()
    return state.grid.div(pi) / state.rho


def ideal_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Tendencies of (m, rho, ctilde, sigma) for the ideal (bracket) part.

    Advected densities use divergence form so the global mass, concentration
    and total-entropy budgets telescope to zero exactly on the periodic grid.
    """
    return _tendencies(state, model, dissipative=False)

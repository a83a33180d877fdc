"""Noncanonical Poisson brackets and the ideal equations of motion.

One bracket serves all families: the base Lie-Poisson bracket of the
sharp-interface (GE/GNS) system, one pairing over the slots of the pack
(m_1..m_dim, rho, ctilde, sigma) in which every conserved density pairs
with the gradients' momentum slot in the same way.  The state's sigma is
the total entropy density for every family (see functionals), so the
diffuse-interface brackets are this one, with no change of variables.
grad S is the unit sigma gradient, which the pairing annihilates exactly,
so the entropy is a Casimir to roundoff for every family.

The pairing is an explicit difference of the swapped terms, so
antisymmetry holds to exact floating-point negation.  ideal_rhs is the
ideal part of the shared kernel in metriplectic and the tendency the
bracket generates, in every slot, to roundoff: every slot s is advected by
the flux -w_s v, w the pairing's weights, and momentum takes the source
-sum_s w_s grad H_s, H the gradient of H the pairing sees (the capillary
force in Jacqmin's potential form).  So energy is conserved exactly by the
semi-discrete system, and momentum only to O(h^2).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .functionals import FunctionalGradient, ModelConfig, State, _align_batch, _lift
from .grid import _csum
from .metriplectic import _tendencies
from .thermo import SurfaceCoefficients


def poisson_bracket(Fg: FunctionalGradient, Gg: FunctionalGradient,
                    state: State, model: ModelConfig) -> float | np.ndarray:
    """Poisson bracket of two functional gradients,
    -integral sum_s w_s [(F.m . grad) G_s - (G.m . grad) F_s] over the pack
    slots s, w the slot table (the state's pack).

    Fg and Gg may be batches with the same number of batch axes (sizes
    broadcast); the result is then an array over the batch axes.
    """
    Fg, Gg = _align_batch(Fg, Gg, state=state)
    g = state.grid
    state.derived(model)  # validated, as every function of a state is

    def advect(A, B):
        # (A.m . grad) B_s for every slot s, from one grad of B's pack
        return _csum(A.m[:, None] * g.grad(B.packed))

    pairing = advect(Fg, Gg)  # both terms have the broadcast trial shape
    pairing -= advect(Gg, Fg)
    pairing = pairing * _lift(state.packed, Fg)  # not in place: members widen it
    return -g.integrate(_csum(pairing))


def capillary_force(state: State, model: ModelConfig) -> np.ndarray:
    """Capillary acceleration (force per unit mass) in the momentum equation:
    the kernel's ideal momentum tendency minus that, with no surface terms,
    of the state at the same s^a (its sigma less the surface entropy), over
    rho.  Zero for the sharp-interface families.
    """
    bare = replace(model, surface=SurfaceCoefficients())
    d = state.derived(model)
    bare_m = ideal_rhs(state.replace(sigma=d.rho * d.s), bare).m
    return (ideal_rhs(state, model).m - bare_m) / state.rho


def ideal_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Tendencies of (m, rho, ctilde, sigma) for the ideal (bracket) part.

    Advected densities use divergence form so the global mass, concentration
    and total-entropy budgets telescope to zero exactly on the periodic grid.
    """
    return FunctionalGradient(packed=_tendencies(state.derived(model), dissipative=False))

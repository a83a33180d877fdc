"""No function of a state writes into an array it did not make.

The stepping path writes its array chains into temporaries it allocated
itself (augmented operators, and ufuncs with an output operand).  A chain
that wrote into an input instead would corrupt the caller's state, its
gradients or the Derived fields the state keeps for the next call, and no
bit-for-bit comparison of the outputs alone would see it.  So each public
function of a state runs here on a state whose Derived is already filled,
and every input and every array that Derived holds must keep its bits.
"""

import numpy as np
import pytest

from metriflow import (diagnostics, dissipative_rhs,
                       entropy_production_rate, eval_eos, gamma_eval, hamiltonian,
                       ideal_rhs, kn_4bracket, poisson_bracket, smooth_state, step_rk4,
                       total_rhs)
from metriflow.fields import random_gradient
from metriflow.functionals import DISSIPATIVE_FAMILIES, FAMILIES
from metriflow.thermo import ThermoPoint
from conftest import model_of


# name -> the call, of (state, model, gradients, inputs)
CALLS = {
    "step_rk4": lambda st, m, gs, _: step_rk4(st, m, 1e-4),
    "total_rhs": lambda st, m, gs, _: total_rhs(st, m),
    "ideal_rhs": lambda st, m, gs, _: ideal_rhs(st, m),
    "dissipative_rhs": lambda st, m, gs, _: dissipative_rhs(st, m),
    "entropy_production_rate": lambda st, m, gs, _: entropy_production_rate(st, m),
    "diagnostics": lambda st, m, gs, _: diagnostics(st, m),
    "hamiltonian": lambda st, m, gs, _: hamiltonian(st, m),
    "poisson_bracket": lambda st, m, gs, _: poisson_bracket(gs[0], gs[1], st, m),
    "kn_4bracket": lambda st, m, gs, _: kn_4bracket(*gs, st, m),
    "eval_eos": lambda st, m, gs, x: eval_eos(*x["eos"], m.eos),
    "gamma_eval": lambda st, m, gs, x: gamma_eval(x["gamma"], m.anisotropy),
}

CASES = [(name, family, dim, members)
         for name in CALLS for family in FAMILIES for dim in (1, 2) for members in (None, 3)
         if not (name == "diagnostics" and members)
         and not (name == "kn_4bracket" and family not in DISSIPATIVE_FAMILIES)]


def _arrays(state, model, gradients, inputs):
    """(name, array) of every input and every array the state's Derived
    holds: in its tuples and its EOS point too."""
    yield "packed", state.packed
    for k, X in enumerate(gradients):
        yield f"gradient {k}", X.packed
    for key, value in inputs.items():
        for k, x in enumerate(value if isinstance(value, tuple) else (value,)):
            yield f"{key} input {k}", x
    for name, value in vars(state.derived(model)).items():
        items = vars(value).items() if isinstance(value, ThermoPoint) else (
            enumerate(value) if isinstance(value, tuple) else [(None, value)])
        for key, x in items:
            if isinstance(x, np.ndarray):
                yield (name if key is None else f"{name}.{key}"), x


@pytest.mark.parametrize("name, family, dim, members", CASES,
                         ids=[f"{n}-{f}-{d}D-{'batch' if k else 'one'}" for n, f, d, k in CASES])
def test_a_function_of_a_state_keeps_every_input_and_derived_bit(name, family, dim, members):
    model = model_of(family, dim, n=16 if dim == 1 else 8)
    seed = 5 if members is None else np.arange(5, 5 + members)
    state = smooth_state(model.grid, model, seed=seed, amp=0.15)
    state.derived(model)  # filled first, as a step's end is for the next step
    gradients = [random_gradient(model.grid, seed + 10 * k) for k in range(4)]
    # gamma_eval reads the Derived's own grad c where there is one
    inputs = {"eos": (state.rho, state.s, state.c),
              "gamma": state.derived(model).gamma_xi[0] if model.is_diffuse
              else state.grid.grad(state.c)}
    before = [(label, x, x.tobytes()) for label, x in _arrays(state, model, gradients, inputs)]
    CALLS[name](state, model, gradients, inputs)
    changed = [label for label, x, bits in before if x.tobytes() != bits]
    assert changed == [], f"{name} wrote into {changed}"

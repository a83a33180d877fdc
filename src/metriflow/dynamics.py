"""Time integration and running diagnostics.

The semidiscrete system is advanced with the classical four-stage
Runge-Kutta method.  Every stage state is validated for admissibility
(finite fields, positive density, positive derived temperature and
pressure); a failed stage raises IntegrationError carrying the step index.
A stage is a pack, not a State: the fill call of functionals (the thermo
pass, with the checks, then the kernel pass) and the tendency kernel run on
its fields, and only the state a step returns is built as a State.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleStateError, IntegrationError
from .functionals import (Derived, FunctionalGradient, ModelConfig, State, _thermo,
                          entropy, hamiltonian)
from .metriplectic import _tendencies, entropy_production_rate
from .thermo import _frozen, lambda_f

# the RK4 weights, as 0-d arrays (see thermo._frozen)
_TWO, _SIXTH = _frozen(2.0), _frozen(1.0 / 6.0)


def total_rhs(state: State, model: ModelConfig) -> FunctionalGradient:
    """Ideal plus dissipative tendencies, in one pass of the shared kernel."""
    return FunctionalGradient(packed=_tendencies(state.derived(model)))


def _eigenvalue_bound(coef) -> float:
    """|coef| of a scalar, else Gershgorin's bound on the largest eigenvalue:
    the largest absolute row sum, over every cell of a tensor field."""
    a = np.abs(np.asarray(coef, dtype=float))
    return float((a if a.ndim < 2 else a.sum(axis=1)).max())


def stability_limit(state: State, model: ModelConfig) -> float:
    """Crude explicit step bound from the stiffest linearized scale.

    Uses the symbol of the wide (div-grad) central stencil: a diffusive
    operator with coefficient nu contributes at most nu * dim / h^2, and
    the fourth-order interfacial operator at most D * lambda_f * (dim/h^2)^2.
    A matrix or field coefficient counts with a bound on its largest
    eigenvalue.  The classical four-stage Runge-Kutta method is stable out
    to about 2.79 on the negative real axis and 2.83 on the imaginary axis;
    2.5 is used throughout as a margin.  The state is validated first, by
    its fill.
    """
    g, d = state.grid, state.derived(model)
    h, dim, pt = min(g.h), g.dim, d.eos
    rho_min = float(d.rho.min())
    cs2 = model.eos.gamma_ad * np.asarray(pt.p) / d.rho
    vmax = float(np.abs(d.v).max() + np.sqrt(cs2.max()))
    limit = 2.5 * h / (dim * max(vmax, 1e-300))
    tr = model.transport
    if tr is not None:
        eta_eff = (4.0 / 3.0) * tr.eta + tr.zeta
        if eta_eff > 0:
            limit = min(limit, 2.5 * h * h * rho_min / (dim * eta_eff))
        kap_max = _eigenvalue_bound(d.kappa)
        if kap_max > 0:
            limit = min(limit, 2.5 * h * h * rho_min * model.eos.c_v / (dim * kap_max))
        dmax = _eigenvalue_bound(d.dcoef)
        if dmax > 0 and model.is_diffuse:
            lam = float(np.max(np.abs(lambda_f(np.asarray(pt.T), model.surface))))
            if lam > 0:
                limit = min(limit, 2.5 * h ** 4 * rho_min / (dim * dim * dmax * lam))
    return limit


def step_rk4(state: State, model: ModelConfig, dt: float,
             step_index: int = 0) -> State:
    """One classical RK4 step on whole packs; validates every stage state.
    k1 is total_rhs of the state.  Stages 2-4 are packs, each run through
    the fill call (validate's checks, then the kernel pass) and the tendency
    kernel on its own fields; the step's end is filled as the State
    returned, whose Derived keeps its fields for the next k1."""
    grid, packed = state.grid, state.packed
    half, full = np.array(0.5 * dt, dtype=float), np.array(dt, dtype=float)
    ks = [total_rhs(state, model).packed]
    try:
        for tag, h in (("stage 2", half), ("stage 3", half), ("stage 4", full)):
            stage = h * ks[-1]  # + packed in place: a sum commutes bit for bit
            stage += packed
            f = Derived(grid=grid, packed=stage, model=model)
            _thermo(f)
            ks.append(_tendencies(f))
            del f, stage  # freed before the next pack: held, it would raise the step's peak
        # (k1 + 2 k2 + 2 k3 + k4) / 6 in place, in packs no one else holds:
        # the same operations in the same order, so the same bits
        k1, k2, k3, k4 = ks
        k1 += np.multiply(k2, _TWO, out=k2)
        k1 += np.multiply(k3, _TWO, out=k3)
        k1 += k4
        k1 *= _SIXTH
        k1 *= full
        k1 += packed
        tag, end = "step end", State(grid, packed=k1)
        del ks, k1, k2, k3, k4  # freed before the end's kernel pass
        end.derived(model)
    except InadmissibleStateError as exc:
        raise IntegrationError(f"inadmissible state at {tag}: {exc}", step=step_index) from exc
    return end


@dataclass(frozen=True)
class Diagnostics:
    """Scalar invariants and monitors at one instant."""

    t: float
    mass: float
    momentum: tuple[float, ...]
    concentration: float
    energy: float
    entropy: float
    entropy_production: float
    temperature_min: float

    header = "t,M,Px,Py,C,H,S,S_prod,T_min"  # the names of row()'s columns

    def row(self) -> list[float]:
        px = self.momentum[0]
        py = self.momentum[1] if len(self.momentum) > 1 else 0.0
        return [self.t, self.mass, px, py, self.concentration, self.energy,
                self.entropy, self.entropy_production, self.temperature_min]


def diagnostics(state: State, model: ModelConfig, t: float = 0.0) -> Diagnostics:
    g = state.grid
    if state.rho.ndim != g.dim:
        raise ValueError(f"diagnostics takes one state, not a member batch: "
                         f"pack shape {state.packed.shape}")
    mom = tuple(float(g.integrate(state.m[i])) for i in range(g.dim))
    pt = state.derived(model).eos
    _, prod = entropy_production_rate(state, model)
    return Diagnostics(
        t=t,
        mass=float(g.integrate(state.rho)),
        momentum=mom,
        concentration=float(g.integrate(state.ctilde)),
        energy=hamiltonian(state, model),
        entropy=entropy(state, model),
        entropy_production=float(prod),
        temperature_min=float(np.asarray(pt.T).min()),
    )


def integrate(state: State, model: ModelConfig, dt: float, n_steps: int,
              callback=None) -> State:
    """Advance n_steps of size dt, optionally invoking callback(i, state).

    callback is called after each accepted step with the 1-based step index.
    Warns (RuntimeWarning) first if dt exceeds stability_limit(state, model).
    """
    if not 0 < dt < np.inf or n_steps < 0:  # NaN too
        raise ValueError(f"dt must be finite and positive and n_steps nonnegative, "
                         f"got dt = {dt}, n_steps = {n_steps}")
    limit = stability_limit(state, model)
    if dt > limit:
        warnings.warn(
            f"dt = {dt:g} exceeds the estimated stability limit {limit:g}",
            RuntimeWarning, stacklevel=2)
    for i in range(1, n_steps + 1):
        state = step_rk4(state, model, dt, step_index=i)
        if callback is not None:
            callback(i, state)
    return state

"""Deterministic smooth random fields: admissible states and functional
gradients.

Fields are built from short, seed-determined lists of Fourier modes, so
the same seed produces the same continuum function on every grid
resolution.  That makes them usable in refinement (convergence) studies,
where the field must be a fixed function of x rather than per-grid noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalGradient, ModelConfig, State
from .grid import Grid

N_MODES = 4  # Fourier modes per field


@dataclass(frozen=True)
class FourierModes:
    """amp[i] * cos(2*pi*(k[i] . x)/L + phase[i]) summed over i.

    Leading axes before the mode axis, if any, index stacked fields.
    """

    amps: np.ndarray     # (..., n_modes)
    kvecs: np.ndarray    # (..., n_modes, dim) integer wavevectors
    phases: np.ndarray   # (..., n_modes)


def make_modes(rng: np.random.Generator, dim: int, kmax: int = 3) -> FourierModes:
    kvecs = rng.integers(-kmax, kmax + 1, size=(N_MODES, dim))
    # avoid the zero mode so the field has zero mean: redraw each zero row,
    # in order (the rows are checked as Python lists, which is cheaper)
    for i, row in enumerate(kvecs.tolist()):
        while not any(row):
            kvecs[i] = rng.integers(-kmax, kmax + 1, size=dim)
            row = kvecs[i].tolist()
    amps = rng.uniform(0.3, 1.0, size=N_MODES) / N_MODES
    phases = rng.uniform(0.0, 2.0 * np.pi, size=N_MODES)
    return FourierModes(amps=amps, kvecs=kvecs, phases=phases)


def fourier_field(grid: Grid, modes: FourierModes) -> np.ndarray:
    """The field(s) on the grid, shape (*modes.amps.shape[:-1], *grid.shape).

    Modes are summed one at a time, in order, so stacked fields carry the
    same bits as fields built one by one.
    """
    x = grid.coords()
    lead = modes.amps.shape[:-1] + (1,) * grid.dim
    out = grid.zeros()
    for j in range(modes.amps.shape[-1]):
        arg = modes.phases[..., j].reshape(lead)
        for d in range(grid.dim):
            k = modes.kvecs[..., j, d].reshape(lead)
            arg = arg + 2.0 * np.pi * k * x[d] / grid.length[d]
        out = out + modes.amps[..., j].reshape(lead) * np.cos(arg)
    return out


def smooth_state(grid: Grid, model: ModelConfig, seed: int = 0,
                 amp: float = 0.1, kmax: int = 3) -> State:
    """An admissible smooth state with O(amp) departures from rest.

    Resolution-independent: refining the grid samples the same functions.
    """
    rng = np.random.default_rng(seed)
    # the mode sets of rho, the dim components of v, c and s, in that order,
    # stacked for one fourier_field call
    modes = [make_modes(rng, grid.dim, kmax=kmax) for _ in range(grid.dim + 3)]
    f = amp * fourier_field(grid, FourierModes(
        amps=np.array([md.amps for md in modes]),
        kvecs=np.array([md.kvecs for md in modes]),
        phases=np.array([md.phases for md in modes])))
    rho = 1.0 + f[0]
    v, c, s = f[1:grid.dim + 1], f[grid.dim + 1], f[grid.dim + 2]
    state = State(grid=grid, m=rho * v, rho=rho, ctilde=rho * c, sigma=rho * s)
    state.validate(model)
    return state


def random_gradient(grid: Grid, seed: int | np.ndarray, kmax: int = 3) -> FunctionalGradient:
    """A smooth, seed-determined covector (functional-gradient) field.

    For a 1-D array of K seeds, the batch of the K gradients (trial axis
    after m's component axis); each equals the gradient of its own seed.
    """
    seeds = np.asarray(seed)
    n_slots = grid.dim + 3  # m components, rho, ctilde, sigma
    draws = [[make_modes(rng, grid.dim, kmax=kmax) for _ in range(n_slots)]
             for rng in map(np.random.default_rng, seeds.ravel())]

    def stacked(name):
        # (n_slots, *seeds.shape, ...) in C order: fourier_field lays out its
        # result as its inputs, so each slot of the result is C-contiguous
        arr = np.array([[getattr(md, name) for md in slot] for slot in zip(*draws)])
        return arr.reshape((n_slots,) + seeds.shape + arr.shape[2:])

    f = fourier_field(grid, FourierModes(amps=stacked("amps"), kvecs=stacked("kvecs"),
                                         phases=stacked("phases")))
    return FunctionalGradient.of_pack(f, grid.dim)

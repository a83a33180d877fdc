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


def _draw_fields(grid: Grid, seed: int | np.ndarray, order, kmax: int) -> np.ndarray:
    """Fields of len(order) mode sets per seed, each seed's sets drawn in
    turn from its own stream: field i of the result, of shape (len(order),
    *seeds.shape, *grid.shape), is the order[i]-th set drawn."""
    seeds = np.asarray(seed)
    draws = [[make_modes(rng, grid.dim, kmax=kmax) for _ in order]
             for rng in map(np.random.default_rng, seeds.ravel())]

    def stacked(name):
        # (fields, *seeds.shape, ...) in C order: fourier_field lays out its
        # result as its inputs, so each field of the result is C-contiguous
        arr = np.array([[getattr(draw[j], name) for draw in draws] for j in order])
        return arr.reshape((len(order),) + seeds.shape + arr.shape[2:])

    return fourier_field(grid, FourierModes(amps=stacked("amps"), kvecs=stacked("kvecs"),
                                            phases=stacked("phases")))


def smooth_state(grid: Grid, model: ModelConfig, seed: int | np.ndarray = 0,
                 amp: float = 0.1, kmax: int = 3) -> State:
    """An admissible smooth state with O(amp) departures from rest.

    Resolution-independent: refining the grid samples the same functions.
    For a 1-D array of K seeds, the batch of the K states (member axis
    after the pack's slot axis); each equals the state of its own seed.
    """
    dim = grid.dim
    # each seed draws the modes of rho, v_1..v_dim, c and s in that order; the
    # pack takes them as (v, rho, c, s) and becomes (m, rho, ctilde, sigma)
    packed = _draw_fields(grid, seed, [*range(1, dim + 1), 0, dim + 1, dim + 2], kmax)
    packed *= amp
    rho = np.add(packed[dim], 1.0, out=packed[dim])
    packed[:dim] *= rho
    packed[dim + 1:] *= rho
    state = State(grid, packed=packed)
    state.validate(model)
    return state


def random_gradient(grid: Grid, seed: int | np.ndarray, kmax: int = 3) -> FunctionalGradient:
    """A smooth, seed-determined covector (functional-gradient) field.

    For a 1-D array of K seeds, the batch of the K gradients (trial axis
    after m's component axis); each equals the gradient of its own seed.
    """
    return FunctionalGradient(packed=_draw_fields(grid, seed, range(grid.dim + 3), kmax))

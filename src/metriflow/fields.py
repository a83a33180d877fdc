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
    """Fields of len(order) mode sets per seed, drawn in turn from the seed's
    own stream: field i, of shape (*seeds.shape, *grid.shape), is the
    order[i]-th set.  A set draws its wavevectors in one call (each zero row
    again entry by entry: zero mean), then the unit doubles of its amplitudes
    and of its phases in one call, as two uniform calls would draw them."""
    seeds = np.asarray(seed)
    if seeds.size == 0:
        raise ValueError("seed: an empty array of seeds draws no field")
    dim, n_sets, size = grid.dim, len(order), N_MODES * grid.dim
    kvecs = [[None] * seeds.size for _ in range(n_sets)]
    unit = np.empty((n_sets, seeds.size, 2 * N_MODES))
    for i, rng in enumerate(map(np.random.default_rng, seeds.ravel())):
        for j in range(n_sets):
            k = rng.integers(-kmax, kmax + 1, size=size).tolist()
            for r in range(0, size, dim):
                while not any(k[r:r + dim]):
                    k[r:r + dim] = [rng.integers(-kmax, kmax + 1) for _ in range(dim)]
            kvecs[j][i] = k
            rng.random(out=unit[j, i])
    # (fields, *seeds.shape, ...) in C order: fourier_field lays out its
    # result as its inputs, so each field of the result is C-contiguous
    lead = (n_sets,) + seeds.shape
    unit = unit[list(order)].reshape(lead + (2 * N_MODES,))
    kvecs = np.array([kvecs[j] for j in order], dtype=np.int64).reshape(lead + (N_MODES, dim))
    # Generator.uniform(low, high) is low + (high - low) * (a unit double)
    return fourier_field(grid, FourierModes(
        amps=(0.3 + (1.0 - 0.3) * unit[..., :N_MODES]) / N_MODES, kvecs=kvecs,
        phases=2.0 * np.pi * unit[..., N_MODES:]))


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

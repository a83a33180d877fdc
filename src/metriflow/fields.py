"""Deterministic smooth random fields: admissible states and functional
gradients.

Fields are built from short, seed-determined lists of Fourier modes, so
the same seed produces the same continuum function on every grid
resolution.  That makes them usable in refinement (convergence) studies,
where the field must be a fixed function of x rather than per-grid noise.

The modes are read from a stateless, counter-based stream (Salmon et al.,
SC11, 2011): word w of seed s is the SplitMix64 finalizer (Steele, Lea &
Flood, OOPSLA 2014) of _mix(s) + (w + 1) * GAMMA.  Every seed's words are
formed at once in uint64 arrays, so a batch of seeds carries the bits of
the single seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalGradient, ModelConfig, State, state_from_sigma_a
from .grid import Grid

N_MODES = 4  # Fourier modes per field
GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment


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


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of each word of a uint64 array, mod 2**64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return z ^ z >> 31


def _draw_fields(grid: Grid, seed: int | np.ndarray, order, kmax: int) -> np.ndarray:
    """Fields of len(order) mode sets per seed: field i, of shape
    (*seeds.shape, *grid.shape), is the order[i]-th set.  Set j reads words
    j * width to (j + 1) * width - 1 of its seed: the wavevector entries row by row,
    (low 32 bits * (2 kmax + 1) >> 32) - kmax (+1 on the first entry of an
    all-zero row: zero mean), then the unit doubles (word >> 11) * 2**-53
    of the amplitudes and of the phases."""
    seeds = np.asarray(seed)
    if seeds.size == 0 or seeds.dtype.kind not in "iu" or (seeds < 0).any():
        raise ValueError(f"seed: expected non-negative integers, at least one, got {seed!r}")
    if not (isinstance(kmax, (int, np.integer)) and 1 <= kmax < 2 ** 31):  # 2 kmax + 1 < 2**32
        raise ValueError(f"kmax: expected an integer from 1 to 2**31 - 1, got {kmax!r}")
    kmax, dim, n_k, width = int(kmax), grid.dim, N_MODES * grid.dim, N_MODES * (grid.dim + 2)
    # (fields, *seeds.shape, ...) in C order: fourier_field lays out its
    # result as its inputs, so each field of the result is C-contiguous.
    # Every operand is an array, since wrapping numpy scalars warn
    count = np.asarray(order, np.uint64)[:, None, None] * width  # w + 1, (fields, 1, width)
    count = count + np.arange(1, width + 1, dtype=np.uint64)
    words = _mix(_mix(seeds.astype(np.uint64).reshape(-1, 1)) + count * GAMMA)
    lead = (len(order),) + seeds.shape
    kvecs = ((words[..., :n_k] & 0xFFFFFFFF) * (2 * kmax + 1) >> 32).astype(np.int64) - kmax
    kvecs = kvecs.reshape(lead + (N_MODES, dim))
    kvecs[..., 0] += ~kvecs.any(axis=-1)
    unit = ((words[..., n_k:] >> 11) * 2.0 ** -53).reshape(lead + (2 * N_MODES,))
    return fourier_field(grid, FourierModes(
        amps=(0.3 + 0.7 * unit[..., :N_MODES]) / N_MODES, kvecs=kvecs,
        phases=2.0 * np.pi * unit[..., N_MODES:]))


def smooth_state(grid: Grid, model: ModelConfig, seed: int | np.ndarray = 0,
                 amp: float = 0.1, kmax: int = 3) -> State:
    """An admissible smooth state with O(amp) departures from rest.

    Resolution-independent: refining the grid samples the same functions.
    For a 1-D array of K seeds, the batch of the K states (member axis
    after the pack's slot axis); each equals the state of its own seed.
    The draws are (rho, v, c, s^a), built by state_from_sigma_a.
    """
    dim = grid.dim
    # each seed draws the modes of rho, v_1..v_dim, c and s in that order; the
    # pack takes them as (v, rho, c, s^a) and becomes (m, rho, ctilde, sigma^a)
    packed = _draw_fields(grid, seed, [*range(1, dim + 1), 0, dim + 1, dim + 2], kmax)
    packed *= amp
    rho = np.add(packed[dim], 1.0, out=packed[dim])
    packed[:dim] *= rho
    packed[dim + 1:] *= rho
    return state_from_sigma_a(grid, packed, model)


def random_gradient(grid: Grid, seed: int | np.ndarray, kmax: int = 3) -> FunctionalGradient:
    """A smooth, seed-determined covector (functional-gradient) field.

    For a 1-D array of K seeds, the batch of the K gradients (trial axis
    after m's component axis); each equals the gradient of its own seed.
    """
    return FunctionalGradient(packed=_draw_fields(grid, seed, range(grid.dim + 3), kmax))

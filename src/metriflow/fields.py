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
SLACK, BLOCK = 8, 64  # spare raw words per seed; seeds decoded together (as Python ints)


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


def _decode(words: np.ndarray, kmax: int):
    """Raw PCG64 words (..., n) as lists: integers(-kmax, kmax + 1) of each
    32-bit half, low first (kmax + 1 where Lemire's method rejects it), and
    random()'s unit double of each word."""
    span = np.uint64(2 * kmax + 1)
    m = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(*words.shape[:-1], -1) * span
    ints = np.where(m & 0xFFFFFFFF < 2 ** 32 % span, kmax + 1, (m >> 32).astype(np.int64) - kmax)
    return ints.tolist(), ((words >> 11) * 2.0 ** -53).tolist()


class _Stream:
    """A seed's PCG64 stream read as default_rng(seed) reads it, from
    _decode's lists; a long redraw chain draws more words from bitgen."""

    def __init__(self, bitgen, ints, units, kmax):
        self.bitgen, self.ints, self.units, self.kmax = bitgen, ints, units, kmax
        self.used, self.pending = 0, None  # words read; ints index of a buffered high half

    def random(self, n):  # a unit double of each of the next n words
        if (short := self.used + n - len(self.units)) > 0:
            more = _decode(self.bitgen.random_raw(short + SLACK), self.kmax)
            self.ints, self.units = self.ints + more[0], self.units + more[1]
        self.used += n
        return self.units[self.used - n:self.used]

    def integers(self, n):
        """n draws of integers(-kmax, kmax + 1): a buffered high half, then the
        next words' halves, low first, less Lemire's rejects, drawn again."""
        out = [] if self.pending is None else [self.ints[self.pending]]
        m, h = n - len(out), 2 * self.used
        self.random((m + 1) // 2)  # the words of the next m halves; an odd m buffers one
        self.pending, out = h + m if m % 2 else None, out + self.ints[h:h + m]
        if max(out) > self.kmax:
            out = [x for x in out if x <= self.kmax]
            out += self.integers(n - len(out))
        return out


def _draw_fields(grid: Grid, seed: int | np.ndarray, order, kmax: int) -> np.ndarray:
    """Fields of len(order) mode sets per seed, drawn in turn from the seed's
    own stream: field i, of shape (*seeds.shape, *grid.shape), is the
    order[i]-th set.  A set draws its wavevectors in one call (each zero row
    again entry by entry: zero mean), then the unit doubles of its amplitudes
    and of its phases in one call, as default_rng(seed) would (see _Stream)."""
    seeds = np.asarray(seed)
    if seeds.size == 0 or seeds.dtype.kind not in "iu" or (seeds < 0).any():
        raise ValueError(f"seed: expected non-negative integers, at least one, got {seed!r}")
    if not (isinstance(kmax, (int, np.integer)) and 1 <= kmax < 2 ** 31):  # numpy's 32-bit path
        raise ValueError(f"kmax: expected an integer from 1 to 2**31 - 1, got {kmax!r}")
    kmax, dim, n_sets, size = int(kmax), grid.dim, len(order), N_MODES * grid.dim
    kvecs = [[None] * seeds.size for _ in range(n_sets)]
    unit = [[None] * seeds.size for _ in range(n_sets)]
    n_words, flat = n_sets * (size // 2 + 2 * N_MODES) + SLACK, seeds.ravel().tolist()
    for b in range(0, len(flat), BLOCK):
        bitgens = [np.random.PCG64(s) for s in flat[b:b + BLOCK]]
        ints, units = _decode(np.array([g.random_raw(n_words) for g in bitgens]), kmax)
        for i, rng in enumerate(map(_Stream, bitgens, ints, units, [kmax] * BLOCK), b):
            for j in range(n_sets):
                k = rng.integers(size)
                for r in range(0, size, dim):
                    while not any(k[r:r + dim]):
                        k[r:r + dim] = rng.integers(dim)
                kvecs[j][i] = k
                unit[j][i] = rng.random(2 * N_MODES)
    # (fields, *seeds.shape, ...) in C order: fourier_field lays out its
    # result as its inputs, so each field of the result is C-contiguous
    lead = (n_sets,) + seeds.shape
    unit = np.array([unit[j] for j in order]).reshape(lead + (2 * N_MODES,))
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

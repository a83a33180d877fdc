"""Periodic structured grids with adjoint-consistent discrete calculus.

All differential operators are second-order central differences with
periodic wraparound.  The key structural property is exact discrete
integration by parts: ``integrate(f * div(u)) == -integrate(dot(grad(f), u))``
up to floating-point roundoff, for every field f and vector field u.  Every
global budget and bracket identity in the rest of the package leans on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError


class _Plans(dict):
    """(field shape, axis) -> Grid.deriv's slices on one grid, built at first
    use, which checks the axis and the field's fit: flat out[mid] = f[hi] -
    f[lo] fills every interior cell and the first and last along the axis,
    which o (cells 0, n - 1) = plus (1, 0) - minus (n - 1, n - 2) overwrites;
    then 1 / (2 h), a 0-d array, which skips numpy's Python-float path."""

    def __init__(self, n: tuple, h: tuple):
        self.n, self.h = n, h

    def __missing__(self, key: tuple) -> tuple:
        shape, axis = key
        if axis not in range(len(self.n)):
            raise ValueError(f"axis {axis!r} is not an axis of the {len(self.n)}-D grid")
        if shape[-len(self.n):] != self.n:  # shorter than n if f has fewer axes
            raise ValueError(f"field shape {shape} does not match grid {self.n}")
        ax = len(shape) - len(self.n) + axis
        n, step, lead = shape[ax], math.prod(shape[ax + 1:]), (slice(None),) * ax
        plan = self[key] = (
            slice(step, -step), slice(2 * step, None), slice(None, -2 * step),
            lead + (slice(None, None, n - 1),), lead + (slice(1, None, -1),),
            lead + (slice(-1, -3, -1),), np.array(1.0 / (2.0 * self.h[axis])))
        return plan


def _csum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ...: the same bits as x.sum(axis=0) without a
    reduction call.  For one component it is x[0] itself, a view of x: a
    caller writes into it only if it made x.  Past the first sum, each term
    adds in place."""
    out = x[0]
    if len(x) > 1:
        out = out + x[1]
        for k in range(2, len(x)):
            out += x[k]
    return out


def _trace(x: np.ndarray) -> np.ndarray:
    """x[0, 0] + x[1, 1] + ...: the same bits as x.trace().  For one
    component it is x[0, 0] itself, a view of x: a caller writes into it
    only if it made x."""
    out = x[0, 0]
    for k in range(1, len(x)):
        out = out + x[k, k]
    return out


def _per_axis(name: str, value, dim: int) -> tuple:
    """value as a dim-tuple, a scalar or a 1-sequence broadcast; any other
    length is a ParameterError naming name."""
    out = tuple(value) if np.ndim(value) else (value,)
    if len(out) not in (1, dim):
        raise ParameterError(name, f"{name} needs 1 or dim = {dim} entries, got {value!r}")
    return out * dim if len(out) == 1 else out


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid in 1 or 2 dimensions.

    n and length may be scalars (same per axis) or per-axis sequences;
    n must be integral.
    """

    dim: int
    n: tuple[int, ...] = ()
    length: tuple[float, ...] = ()
    h: tuple[float, ...] = field(init=False, default=())

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterError("dim", f"dim must be 1 or 2, got {self.dim}")
        n, length = (_per_axis(name, getattr(self, name), self.dim) for name in ("n", "length"))
        if not all(float(ni).is_integer() and ni >= 4 for ni in n):
            raise ParameterError("n", f"n must be whole numbers of at least 4 cells, got {n}")
        if not all(0 < li < np.inf for li in length):
            raise ParameterError("length", f"length must be positive and finite, got {length}")
        object.__setattr__(self, "n", tuple(int(ni) for ni in n))
        object.__setattr__(self, "length", tuple(float(li) for li in length))
        object.__setattr__(self, "h", tuple(li / ni for li, ni in zip(self.length, self.n)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def coords(self) -> list[np.ndarray]:
        """Cell-center coordinates, broadcastable to the grid shape."""
        return [((np.arange(n) + 0.5) * h).reshape((1,) * k + (n,) + (1,) * (self.dim - k - 1))
                for k, (n, h) in enumerate(zip(self.n, self.h))]

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def zeros_vector(self) -> np.ndarray:
        return np.zeros((self.dim,) + self.shape)

    @cached_property
    def _plans(self) -> _Plans:
        return _Plans(self.n, self.h)

    def deriv(self, f: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
        """Central difference along one axis, periodic, into out (new if None),
        by the plan for f's shape and axis (see _Plans); f's trailing axes
        must be the grid's.  f is made C-contiguous, and out must be, since
        its flat view would otherwise be a copy."""
        f = np.ascontiguousarray(f)
        mid, hi, lo, o, plus, minus, scale = self._plans[f.shape, axis]
        if out is None:
            out = np.empty(f.shape, f.dtype)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        flat = f.ravel()
        np.subtract(flat[hi], flat[lo], out.ravel()[mid])
        np.subtract(f[plus], f[minus], out[o])
        out *= scale
        return out

    def grad(self, f: np.ndarray) -> np.ndarray:
        """Gradient (dim, *f.shape); leading axes of f are stacked fields,
        e.g. grad(v)[k, l] = d_k v_l, at one deriv call per axis."""
        if self.dim == 1:  # no output to split: deriv's own, with a unit axis
            return self.deriv(f, 0)[None]
        f = np.ascontiguousarray(f)
        out = np.empty((self.dim,) + f.shape, f.dtype)
        for k in range(self.dim):
            self.deriv(f, k, out[k])
        return out

    def div(self, u: np.ndarray) -> np.ndarray:
        """Divergence over the leading axis: (dim, ..., *shape) -> (..., *shape);
        for a rank-2 tensor t[j, i] this is the vector (div t)_i = d_j t[j, i].

        Exactly the negative adjoint of grad under the cell-sum inner
        product, by skew-symmetry of the periodic central stencil.
        """
        if u.shape[0] != self.dim:
            raise ValueError(f"vector field shape {u.shape} does not match grid")
        out = self.deriv(u[0], 0)
        for k in range(1, self.dim):
            out += self.deriv(u[k], k)
        return out

    def integrate(self, f: np.ndarray) -> float | np.ndarray:
        """Cell-sum quadrature with deterministic pairwise summation over the
        trailing grid axes: a float for one field, an array of integrals
        for stacked fields (leading axes)."""
        total = np.add.reduce(f, axis=tuple(range(f.ndim - self.dim, f.ndim))) * self.cell_volume
        return float(total) if total.ndim == 0 else total

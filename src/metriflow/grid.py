"""Periodic structured grids with adjoint-consistent discrete calculus.

All differential operators are second-order central differences with
periodic wraparound.  The key structural property is exact discrete
integration by parts: ``integrate(f * div(u)) == -integrate(dot(grad(f), u))``
up to floating-point roundoff, for every field f and vector field u.  Every
global budget and bracket identity in the rest of the package leans on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import ParameterError


@cache
def _stencil(shape: tuple, ax: int) -> tuple:
    """(step, out, plus, minus) of a periodic central difference along axis
    ax of a C-contiguous array of this shape: neighbours along ax are step
    apart in the flat array, and the strided views out (cells 0 and n - 1),
    plus (1 and 0) and minus (n - 1 and n - 2) give both wrapped cells."""

    def at(s: slice) -> tuple:
        idx = [slice(None)] * len(shape)
        idx[ax] = s
        return tuple(idx)

    n = shape[ax]
    return (int(np.prod(shape[ax + 1:])), at(slice(None, None, n - 1)),
            at(slice(1, None, -1)), at(slice(-1, -3, -1)))


def _csum(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ...: the same bits as x.sum(axis=0) without a
    reduction call (x[0] itself, a view, for one component)."""
    out = x[0]
    for k in range(1, len(x)):
        out = out + x[k]
    return out


def _trace(x: np.ndarray) -> np.ndarray:
    """x[0, 0] + x[1, 1] + ...: the same bits as x.trace()."""
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
        axes = []
        for k in range(self.dim):
            x = (np.arange(self.n[k]) + 0.5) * self.h[k]
            shape = [1] * self.dim
            shape[k] = self.n[k]
            axes.append(x.reshape(shape))
        return axes

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def zeros_vector(self) -> np.ndarray:
        return np.zeros((self.dim,) + self.shape)

    def deriv(self, f: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
        """Central difference along one axis, periodic, into out (new if None).

        One np.subtract over the flat C-contiguous field fills every interior
        cell; it takes the first and last cell along the axis across rows, so
        one wrap subtraction over strided views overwrites both.  f is made
        C-contiguous; out must be, since its flat view would otherwise be a
        copy.
        """
        f = np.ascontiguousarray(f)
        if out is None:
            out = np.empty_like(f)
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        step, o, plus, minus = _stencil(f.shape, f.ndim - self.dim + axis)
        flat = f.ravel()
        np.subtract(flat[2 * step:], flat[:-2 * step], out=out.ravel()[step:-step])
        np.subtract(f[plus], f[minus], out=out[o])
        out *= 1.0 / (2.0 * self.h[axis])
        return out

    def grad(self, f: np.ndarray) -> np.ndarray:
        """Gradient (dim, *f.shape); leading axes of f are stacked fields,
        e.g. grad(v)[k, l] = d_k v_l, at one deriv call per axis."""
        if f.shape[f.ndim - self.dim:] != self.shape:
            raise ValueError(f"field shape {f.shape} does not match grid {self.shape}")
        out = np.empty((self.dim,) + f.shape, dtype=f.dtype)
        for k in range(self.dim):
            self.deriv(f, k, out=out[k])
        return out

    def div(self, u: np.ndarray) -> np.ndarray:
        """Divergence over the leading axis: (dim, ..., *shape) -> (..., *shape);
        for a rank-2 tensor t[j, i] this is the vector (div t)_i = d_j t[j, i].

        Exactly the negative adjoint of grad under the cell-sum inner
        product, by skew-symmetry of the periodic central stencil.
        """
        if u.shape[0] != self.dim or u.shape[u.ndim - self.dim:] != self.shape:
            raise ValueError(f"vector field shape {u.shape} does not match grid")
        out = self.deriv(u[0], 0)
        for k in range(1, self.dim):
            out += self.deriv(u[k], k)
        return out

    def integrate(self, f: np.ndarray) -> float | np.ndarray:
        """Cell-sum quadrature with deterministic pairwise summation over the
        trailing grid axes: a float for one field, an array of integrals
        for stacked fields (leading axes)."""
        total = f.sum(axis=tuple(range(f.ndim - self.dim, f.ndim))) * self.cell_volume
        return float(total) if total.ndim == 0 else total

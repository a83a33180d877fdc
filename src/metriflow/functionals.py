"""State container and the generating functionals H, S with exact
discrete functional derivatives.

The state carries the conserved densities (m, rho, ctilde, sigma), as views
of one packed array, so that an RK4 stage is one array operation.  sigma is
the total entropy density for every family: for the diffuse-interface
families it is sigma^a + rho^a lambda_s Gamma(grad c)^2 / 2, the paper's
entropy variable sigma^a plus its gradient part, so that S is the integral
of sigma and the brackets are the sharp ones.  The fill recovers s^a, which
the equation of state reads, and state_from_sigma_a builds a state from
the paper's variables.

Functional derivatives are hand-coded using the adjoint-consistent grid
operators, so they are the exact gradients of the discrete functionals (to
roundoff), not merely consistent approximations.  This exactness is what
makes the bracket identities downstream hold at the advertised tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .anisotropy import AnisotropyFn, gamma_eval
from .errors import InadmissibleStateError, ParameterError, UnsupportedFamilyError
from .grid import Grid, _csum
from .thermo import EosParams, SurfaceCoefficients, _eos, _frozen, lambda_f

if TYPE_CHECKING:
    from .metriplectic import TransportCoefficients

FAMILIES = ("GE", "GNS", "CHE0", "CHE1", "CHNS0", "CHNS1")
DIFFUSE_FAMILIES = ("CHE0", "CHE1", "CHNS0", "CHNS1")
DISSIPATIVE_FAMILIES = ("GNS", "CHNS0", "CHNS1")


@dataclass(frozen=True)
class ModelConfig:
    """Model family and all physical parameters."""

    family: str
    grid: Grid
    eos: EosParams = field(default_factory=EosParams)
    surface: SurfaceCoefficients = field(default_factory=SurfaceCoefficients)
    anisotropy: AnisotropyFn = field(default_factory=AnisotropyFn)
    transport: "TransportCoefficients | None" = None
    # set from family, once: the stepping path reads them dozens of times a step
    is_diffuse: bool = field(init=False, repr=False, compare=False)
    is_dissipative: bool = field(init=False, repr=False, compare=False)
    # the density weight rho^a of the surface terms: 1 for CHE1 and CHNS1
    a: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedFamilyError(f"unknown family {self.family!r}")
        object.__setattr__(self, "is_diffuse", self.family in DIFFUSE_FAMILIES)
        object.__setattr__(self, "is_dissipative", self.family in DISSIPATIVE_FAMILIES)
        object.__setattr__(self, "a", 1 if self.family in ("CHE1", "CHNS1") else 0)
        if not self.is_diffuse and (self.surface.lambda_u != 0.0
                                    or self.surface.lambda_s != 0.0):
            raise ValueError(
                f"family {self.family} has no surface-energy terms; "
                "lambda_u and lambda_s must be 0")
        if self.is_dissipative and self.transport is None:
            raise ValueError(f"family {self.family} requires transport coefficients")
        if not self.is_dissipative and self.transport is not None:
            raise ValueError(f"family {self.family} does not dissipate; "
                             "it takes no transport coefficients")
        for name in ("kappa", "dcoef"):
            val, dim = getattr(self.transport, name, None), self.grid.dim
            if not callable(val) and np.ndim(val) == 2 and np.shape(val) != (dim, dim):
                raise ParameterError(name, f"{name} must be a {dim} x {dim} matrix on a {dim}D "
                                           f"grid, got shape {np.shape(val)}")
        if self.anisotropy.kind == "fourfold" and self.grid.dim != 2:
            raise ParameterError("anisotropy", f"fourfold is 2D only, got dim = {self.grid.dim}")


_HALF, _MINUS_HALF = _frozen(0.5), _frozen(-0.5)


@dataclass(frozen=True, init=False, eq=False)
class _Pack:
    """The slots (m, rho, ctilde, sigma) as views of one pack of shape
    (dim + 3, *batch, *grid.shape): m is packed[:dim], then rho, ctilde and
    sigma.  Built from a pack, which it wraps without a copy, or from the
    four fields, broadcast to one shape and copied into a new pack.  Each
    view is made at its first read, and kept (a cached_property).

    The batch rule: any state may carry batch (member) axes, and it pairs
    with gradients batched along the same axes; every function of a state
    but diagnostics then gives, member by member, the bits of the single
    states.  Gradients paired with one state may carry trial axes."""

    packed: np.ndarray

    def __init__(self, m=None, rho=None, ctilde=None, sigma=None, *,
                 packed: np.ndarray | None = None):
        if packed is None:
            dim = len(m)
            packed = np.empty((dim + 3,) + np.broadcast(m[0], rho, ctilde, sigma).shape)
            packed[:dim], packed[dim], packed[dim + 1], packed[dim + 2] = m, rho, ctilde, sigma
        elif not (m is rho is ctilde is sigma is None):
            raise TypeError(f"{type(self).__name__} takes the four fields or packed, not both")
        object.__setattr__(self, "packed", packed)

    m = cached_property(lambda self: self.packed[:-3])
    rho = cached_property(lambda self: self.packed[-3])
    ctilde = cached_property(lambda self: self.packed[-2])
    sigma = cached_property(lambda self: self.packed[-1])


@dataclass(frozen=True, init=False, eq=False)
class State(_Pack):
    """Grid fields (m, rho, ctilde, sigma) in one pack (see _Pack): a pack
    (dim + 3, *members, *grid.shape) is a batch of states.  v, c and s, the
    fields per unit mass, are divided out at their first read and kept, for
    readers without a model."""

    grid: Grid

    def __init__(self, grid: Grid, m=None, rho=None, ctilde=None, sigma=None, *,
                 packed: np.ndarray | None = None):
        object.__setattr__(self, "grid", grid)
        _Pack.__init__(self, m, rho, ctilde, sigma, packed=packed)
        if packed is None:
            shape = self.packed.shape
            if shape[0] != grid.dim + 3 or shape[len(shape) - grid.dim:] != grid.shape:
                raise ValueError(f"fields of pack shape {shape} do not fit the grid {grid.shape}")

    @cached_property
    def v(self) -> np.ndarray:
        return self.m / self.rho

    @cached_property
    def c(self) -> np.ndarray:
        return self.ctilde / self.rho

    @cached_property
    def s(self) -> np.ndarray:
        """sigma / rho, the total entropy per unit mass: for a diffuse
        family not the s^a that the equation of state reads (Derived.s)."""
        return self.sigma / self.rho

    def derived(self, model: ModelConfig) -> "Derived":
        """The Derived fields of this state under model, filled by _thermo,
        which raises if the state fails its checks; a ValueError naming both
        grids if the model's is not the state's.  One is kept, for the last
        model asked about, compared with ``is``: a fresh model object always
        gets fresh fields.  It is kept only once filled, so a state that
        fails keeps none and fails again."""
        d = self.__dict__.get("_derived")
        if d is None or d.model is not model:
            if model.grid is not self.grid and model.grid != self.grid:
                raise ValueError(f"a state on {self.grid} under a model on {model.grid}")
            d = Derived(grid=self.grid, packed=self.packed, model=model)
            _thermo(d)
            self.__dict__["_derived"] = d
        return d

    def validate(self, model: ModelConfig) -> None:
        """Admissibility, the checks of the fill (once per state and model):
        the model's grid, not an empty batch, finite fields, rho > 0, derived
        T and p finite and > 0."""
        self.derived(model)

    def replace(self, **kw) -> "State":
        """A new state, in a new pack, with the given fields replaced."""
        return State(**(dict(grid=self.grid, m=self.m, rho=self.rho,
                              ctilde=self.ctilde, sigma=self.sigma) | kw))


@dataclass(frozen=True, init=False, eq=False)
class FunctionalGradient(_Pack):
    """Per-field variational derivatives (also reused for tendencies), in
    one pack (see _Pack).  The brackets, dot and norm return an array over
    the batch axes, a float for one gradient."""

    def dot(self, other: "FunctionalGradient", grid: Grid) -> float | np.ndarray:
        """Discrete L2 pairing summed over all slots."""
        # m's component axis goes behind the batch axes, and each member's
        # components and cells are summed as one flat run, as for one gradient
        _align_batch(self, other)
        mm = np.moveaxis(self.m * other.m, 0, self.rho.ndim - grid.dim)
        mm = mm.reshape(mm.shape[:mm.ndim - grid.dim - 1] + (-1,) + grid.shape[1:])
        return (grid.integrate(mm) + grid.integrate(self.rho * other.rho)
                + grid.integrate(self.ctilde * other.ctilde)
                + grid.integrate(self.sigma * other.sigma))

    def norm(self, grid: Grid) -> float | np.ndarray:
        d = self.dot(self, grid)
        return float(np.sqrt(d)) if np.ndim(d) == 0 else np.sqrt(d)

    def __add__(self, other):
        return FunctionalGradient(packed=self.packed + other.packed)

    def __sub__(self, other):
        return FunctionalGradient(packed=self.packed - other.packed)

    def __mul__(self, a):
        return FunctionalGradient(packed=a * self.packed)

    __rmul__ = __mul__


def _lift(x: np.ndarray, like: _Pack) -> np.ndarray:
    """x (lead, *shape) with singleton axes after its leading axis until shape
    has as many axes as like.rho, to broadcast against like's batch."""
    return x.reshape(x.shape[:1] + (1,) * (like.rho.ndim - x.ndim + 1) + x.shape[1:])


def _align_batch(*grads: FunctionalGradient, state: State | None = None) -> list:
    """The gradients, lifted to the member axes of state they lack; a
    ValueError naming the shapes unless they have one number of trial axes,
    lest a component axis line up with a trial axis."""
    shapes = [X.rho.shape for X in grads]
    if len({len(shape) for shape in shapes}) > 1:
        raise ValueError(f"gradients with different numbers of trial axes: rho shapes {shapes}")
    return [X if state is None or X.rho.ndim >= state.rho.ndim
            else FunctionalGradient(packed=_lift(X.packed, state)) for X in grads]


def _inadmissible(message: str, name: str, x: np.ndarray, bad: np.ndarray):
    """InadmissibleStateError(message) followed by name, its value at the
    first cell of x where bad holds, and that cell's index, member axes
    first.  Formed only on the failure path."""
    cell = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    return InadmissibleStateError(f"{message}: {name} = {float(x[cell])} at cell {cell}")


def _thermo(f) -> None:
    """The fill call of a Derived f, for a state (State.derived) and for an
    RK4 stage: the thermo pass on the pack f.packed under f.model, then the
    kernel pass.  The thermo pass makes validate's checks with its messages,
    each followed by the field, its value and index at the first bad cell:
    a pack of at least one state (an empty batch is a ValueError naming its
    shape), every entry finite, rho > 0 (NaN fails) before the pack is
    divided by it, then eos at s^a, with v, p and T computed straight into
    the stack (v, H_rho, mu_Gamma, T, p), and T and p finite and > 0.  For
    a diffuse family gamma_xi = (grad c, Gamma, xi), weight = rho^a (the
    density weight of the surface terms) and s^a = (sigma - rho^a lambda_s
    Gamma^2 / 2) / rho (sigma / rho at lambda_s = 0: the surface terms'
    general formulas reduce exactly at a zero coefficient, so none has a
    case for it); for a sharp one gamma_xi = (), weight None and s = sigma
    / rho.  Only once the checks pass does it set rho and sigma (the pack's
    rows), v (the stack's rows), c (ctilde over rho), s, gamma_xi, weight,
    eos and stack."""
    packed, dim, model = f.packed, f.grid.dim, f.model
    if not packed.size:
        raise ValueError(f"an empty batch, pack shape {packed.shape}, has no state")
    # the sum of the pack is finite only if every entry is (inf and NaN
    # absorb a sum); only then, or if finite entries overflow it, does the
    # check look at each row to name the field that failed
    if not math.isfinite(np.add.reduce(packed, axis=None)):
        for k, (name, x) in enumerate(zip(["m"] * dim + ["rho", "ctilde", "sigma"], packed)):
            if not np.isfinite(x).all():
                label = f"m[{k}]" if k < dim else name
                raise _inadmissible(f"non-finite entries in {name}", label, x, ~np.isfinite(x))
    rho = packed[dim]
    if not np.minimum.reduce(rho, axis=None, initial=np.inf) > 0:
        raise _inadmissible("rho must be positive everywhere", "rho", rho, ~(rho > 0))
    stack = np.empty((dim + 4,) + rho.shape)
    v, c = np.divide(packed[:dim], rho, stack[:dim]), packed[dim + 1] / rho
    if model.is_diffuse:
        gc = f.grid.grad(c)
        gamma, xi = gamma_eval(gc, model.anisotropy)
        weight = rho if model.a == 1 else rho ** model.a
        # each chain in place in the temporary it made, in its order (a sum
        # or a product commutes bit for bit): the bits written out
        s = _HALF * weight  # (sigma - 1/2 rho^a lambda_s Gamma^2) / rho
        s *= model.surface.consts.lambda_s
        s *= gamma
        s *= gamma
        s = np.subtract(packed[dim + 2], s, out=s)
        s /= rho
        gamma_xi = (gc, gamma, xi)
    else:
        s, gamma_xi, weight = packed[dim + 2] / rho, (), None
    eos = _eos(rho, s, c, model.eos, stack[dim + 3], stack[dim + 2])
    # one min and one max over T and p side by side, then each alone to name
    # the one that failed (min is NaN if any entry is; NaN > 0 is false)
    Tp = stack[dim + 2:]
    if not (np.minimum.reduce(Tp, axis=None, initial=np.inf) > 0
            and np.maximum.reduce(Tp, axis=None, initial=-np.inf) < np.inf):
        for name, label, x in (("temperature", "T", eos.T), ("pressure", "p", eos.p)):
            if not (x.min() > 0 and x.max() < np.inf):
                raise _inadmissible(f"derived {name} must be finite and positive", label, x,
                                    ~((x > 0) & (x < np.inf)))
    f.rho, f.sigma, f.v, f.c, f.s = rho, packed[dim + 2], v, c, s
    f.gamma_xi, f.weight, f.eos, f.stack = gamma_xi, weight, eos, stack
    _kernel(f)


def _kernel(f) -> None:
    """The kernel pass, at the end of the thermo pass.  In their rows of
    the stack: mu_gamma = mu - div(u) / rho, u = lambda_f(T) rho^a Gamma xi
    (mu for a sharp family), and H_rho = -|v|^2 / 2 + g - c mu_Gamma, g the
    Gibbs energy, plus lambda_f Gamma^2 / 2 for a = 1.  h_hat = (v, H_rho,
    mu_Gamma, T), a view of the stack, is grad_H, to roundoff (bit for bit
    for a sharp family).  grads = grad h_hat, (dim, dim + 3, *members,
    *grid.shape) from one grad: [k, s] = d_k of slot s.  Last, for a model
    with transport, kappa and dcoef: a callable one is called as coef(f,
    model), on these fields, all set."""
    grid, model, eos, stack = f.grid, f.model, f.eos, f.stack
    dim, rho, mu_gamma = grid.dim, f.rho, stack[grid.dim + 1]
    if model.is_diffuse:
        _, gamma, xi = f.gamma_xi
        lam = lambda_f(eos.T, model.surface)
        u = lam * f.weight  # u = lambda_f rho^a Gamma xi
        u *= gamma
        div_u = grid.div(u * xi)
        div_u /= rho
        np.subtract(eos.mu, div_u, out=mu_gamma)
    else:
        mu_gamma[...] = eos.mu
    h = _csum(f.v * f.v)  # -|v|^2 / 2 + g - c mu_Gamma
    h *= _MINUS_HALF
    h += eos.g
    h = np.subtract(h, f.c * mu_gamma, out=stack[dim])
    if model.is_diffuse and model.a == 1:  # lam's last read: + lambda_f Gamma^2 / 2
        lam *= _HALF
        lam *= gamma
        lam *= gamma
        h += lam
    f.mu_gamma, f.h_hat = mu_gamma, stack[:dim + 3]
    f.grads = grid.grad(f.h_hat)
    tr = model.transport
    if tr is not None:
        f.kappa = tr.kappa(f, model) if callable(tr.kappa) else tr.kappa
        f.dcoef = tr.dcoef(f, model) if callable(tr.dcoef) else tr.dcoef


class Derived(SimpleNamespace):
    """The derived fields of one pack under one model, made with grid, packed
    and model and filled whole by _thermo, for a state (State.derived) or
    for an RK4 stage's pack, which gets no State: rho, sigma, v, c, s (the
    s^a that eos is evaluated at), gamma_xi, weight, eos and stack by the
    thermo pass, then mu_gamma, h_hat, grads and, for a model with
    transport, kappa and dcoef by the kernel pass.  It holds no reference
    to a state."""


def state_from_sigma_a(grid: Grid, packed: np.ndarray, model: ModelConfig) -> State:
    """The state of packed, laid out as State.packed but with the paper's
    sigma^a = rho s^a in its sigma slot, validated: for a diffuse family
    that slot becomes, in place, the total entropy density sigma^a + rho^a
    lambda_s Gamma(grad c)^2 / 2, from which the fill recovers s^a.  The
    one place a state is made from (rho, v, c, s^a)."""
    if model.is_diffuse:
        dim, rho = grid.dim, packed[grid.dim]
        gamma, _ = gamma_eval(grid.grad(packed[dim + 1] / rho), model.anisotropy)
        packed[dim + 2] += _HALF * rho ** model.a * model.surface.consts.lambda_s * gamma * gamma
    state = State(grid, packed=packed)
    state.validate(model)
    return state


def thermo_point(state: State, model: ModelConfig):
    """eval_eos at the state, computed once per state and model."""
    return state.derived(model).eos


def hamiltonian(state: State, model: ModelConfig) -> float | np.ndarray:
    """Total energy: kinetic + internal + surface-gradient part."""
    g = state.grid
    d = state.derived(model)
    e = 0.5 * _csum(state.m * state.m) / state.rho + state.rho * d.eos.u
    if model.is_diffuse:
        _, gamma, _ = d.gamma_xi
        e = e + 0.5 * d.weight * model.surface.lambda_u * gamma * gamma
    return g.integrate(e)


def entropy(state: State, model: ModelConfig) -> float | np.ndarray:
    """Entropy functional: the integral of sigma, the total entropy
    density.  It raises as State.validate does."""
    state.derived(model)
    return state.grid.integrate(state.sigma)


def grad_H(state: State, model: ModelConfig) -> FunctionalGradient:
    """Exact discrete functional derivatives of the Hamiltonian; the
    surface terms carry lambda_f = lambda_u - T lambda_s, lambda_u's part
    from the surface energy and T lambda_s's from the internal energy at
    s^a."""
    g, d = state.grid, state.derived(model)
    rho, c, v, pt = d.rho, d.c, d.v, d.eos
    d_rho = -0.5 * _csum(v * v) + pt.g - c * pt.mu
    d_ctilde = pt.mu
    if model.is_diffuse:
        lam, a = lambda_f(pt.T, model.surface), model.a
        _, gamma, xi = d.gamma_xi
        div_flux = g.div(d.weight * lam * gamma * xi)
        if a == 1:
            d_rho = d_rho + 0.5 * lam * gamma * gamma
        d_rho = d_rho + c * div_flux / rho
        d_ctilde = d_ctilde - div_flux / rho
    return FunctionalGradient(m=v, rho=d_rho, ctilde=d_ctilde, sigma=pt.T)


def grad_S(state: State, model: ModelConfig) -> FunctionalGradient:
    """Exact discrete functional derivatives of the entropy functional: the
    unit sigma gradient.  It raises as State.validate does."""
    state.derived(model)
    unit = FunctionalGradient(packed=np.zeros(state.packed.shape))
    unit.sigma[...] = 1.0
    return unit

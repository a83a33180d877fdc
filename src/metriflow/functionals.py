"""State container and the generating functionals H, S with exact
discrete functional derivatives.

The state carries the conserved densities (m, rho, ctilde, sigma), as views
of one packed array, so that an RK4 stage is one array operation.  For the
diffuse-interface families the sigma field stores the transformed entropy
density sigma^a; the total entropy density (sigma^a plus the gradient part)
is reconstructed by sigma_total, and transform_gradients /
untransform_gradients carry functional gradients across that change of
variables.

Functional derivatives are hand-coded using the adjoint-consistent grid
operators, so they are the exact gradients of the discrete functionals (to
roundoff), not merely consistent approximations.  This exactness is what
makes the bracket identities downstream hold at the advertised tolerances.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .anisotropy import AnisotropyFn, gamma_eval
from .errors import InadmissibleStateError, ParameterError, UnsupportedFamilyError
from .grid import Grid, _csum
from .thermo import EosParams, SurfaceCoefficients, _eos, lambda_f

if TYPE_CHECKING:
    from .metriplectic import TransportCoefficients

FAMILIES = ("GE", "GNS", "CHE0", "CHE1", "CHNS0", "CHNS1")
DIFFUSE_FAMILIES = ("CHE0", "CHE1", "CHNS0", "CHNS1")
DISSIPATIVE_FAMILIES = ("GNS", "CHNS0", "CHNS1")


class _lazy:
    """functools.cached_property without its lock (Python 3.11 takes an
    RLock on every first access).  It has no __set__, so the value kept by
    object.__setattr__ (frozen dataclasses allow it) shadows it."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        object.__setattr__(obj, self.name, value)
        return value


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
        for name in ("kappa", "dcoef"):
            val, dim = getattr(self.transport, name, None), self.grid.dim
            if not callable(val) and np.ndim(val) == 2 and np.shape(val) != (dim, dim):
                raise ParameterError(name, f"{name} must be a {dim} x {dim} matrix on a {dim}D "
                                           f"grid, got shape {np.shape(val)}")
        if self.anisotropy.kind == "fourfold" and self.grid.dim != 2:
            raise ParameterError("anisotropy", f"fourfold is 2D only, got dim = {self.grid.dim}")


@dataclass(frozen=True, init=False, eq=False)
class _Pack:
    """The slots (m, rho, ctilde, sigma) as views of one pack of shape
    (dim + 3, *batch, *grid.shape): m is packed[:dim], then rho, ctilde and
    sigma.  Built from a pack, which it wraps without a copy, or from the
    four fields, broadcast to one shape and copied into a new pack.

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
        dim = len(packed) - 3
        setattr_ = object.__setattr__
        setattr_(self, "packed", packed)
        setattr_(self, "m", packed[:dim])
        setattr_(self, "rho", packed[dim])
        setattr_(self, "ctilde", packed[dim + 1])
        setattr_(self, "sigma", packed[dim + 2])


@dataclass(frozen=True, init=False, eq=False)
class State(_Pack):
    """Grid fields (m, rho, ctilde, sigma) in one pack (see _Pack): a pack
    (dim + 3, *members, *grid.shape) is a batch of states."""

    grid: Grid

    def __init__(self, grid: Grid, m=None, rho=None, ctilde=None, sigma=None, *,
                 packed: np.ndarray | None = None):
        object.__setattr__(self, "grid", grid)
        _Pack.__init__(self, m, rho, ctilde, sigma, packed=packed)
        shape = self.packed.shape
        if packed is None and (shape[0] != grid.dim + 3
                               or shape[len(shape) - grid.dim:] != grid.shape):
            raise ValueError(f"fields of pack shape {shape} do not fit the grid {grid.shape}")

    def _per_mass(self, name: str) -> np.ndarray:
        """v, c or s; all three are kept, views of one division of the pack by rho."""
        q, dim = self.packed / self.rho, self.grid.dim
        for key, value in (("v", q[:dim]), ("c", q[dim + 1]), ("s", q[dim + 2])):
            object.__setattr__(self, key, value)
        return getattr(self, name)

    v = _lazy(lambda self: self._per_mass("v"))
    c = _lazy(lambda self: self._per_mass("c"))
    s = _lazy(lambda self: self._per_mass("s"))

    def derived(self, model: ModelConfig) -> "Derived":
        """The Derived fields of this state under model.  One is kept, for
        the last model asked about, compared with ``is``: a fresh model
        object always gets fresh fields."""
        d = self.__dict__.get("_derived")
        if d is None or d.model is not model:
            d = self.__dict__["_derived"] = Derived(self, model)
        return d

    def validate(self, model: ModelConfig) -> None:
        """Admissibility: finite fields, rho > 0 (checked by Derived.stack),
        derived T and p finite and > 0."""
        if not self.packed.size:
            raise ValueError(f"an empty batch, pack shape {self.packed.shape}, has no state")
        if not np.logical_and.reduce(np.isfinite(self.packed), axis=None):
            for name in ("m", "rho", "ctilde", "sigma"):
                if not np.isfinite(getattr(self, name)).all():
                    raise InadmissibleStateError(f"non-finite entries in {name}")
        d, dim = self.derived(model), self.grid.dim
        # one min and one max over T and p side by side, then each alone to
        # name the one that failed (min is NaN if any entry is; NaN > 0 is false)
        Tp = d.stack[dim + 2:]
        if not (np.minimum.reduce(Tp, axis=None) > 0
                and np.maximum.reduce(Tp, axis=None) < np.inf):
            for name, x in (("temperature", d.eos.T), ("pressure", d.eos.p)):
                if not (x.min() > 0 and x.max() < np.inf):
                    raise InadmissibleStateError(f"derived {name} must be finite and positive")

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


class Derived:
    """The derived fields of one state under one model, each computed on
    first use and kept, as states are never mutated: ``eos`` (the EOS
    point), ``stack`` (v, H_rho, mu_Gamma, T, p), ``h_hat`` (the gradient of
    H that the brackets pair with), ``grads`` (its grad), ``gamma_xi`` (grad
    c, Gamma, xi), ``weight`` (rho^a), ``mu_gamma``, ``weights`` (the Poisson
    slot table) and the transport coefficients ``kappa`` and ``dcoef``, a
    callable one called once.  The state holds its Derived
    (``State.derived``), so this holds the state by a weak proxy: a strong
    reference back would make a cycle only the collector frees."""

    def __init__(self, state: State, model: ModelConfig):
        self.state = weakref.proxy(state)
        self._ref = weakref.ref(state)  # a coefficient callable gets the State itself
        self.model = model

    def _thermo(self, name: str):
        """eos (the EOS point) or stack ((v, H_rho, mu_Gamma, T, p), whose
        H_rho and mu_Gamma rows mu_gamma and h_hat fill), both kept, from
        one pass: rho > 0 checked before the pack is divided by it, then p
        and T computed straight into the stack."""
        st, dim = self.state, self.state.grid.dim
        if not np.minimum.reduce(st.rho, axis=None, initial=np.inf) > 0:  # NaN fails
            raise InadmissibleStateError("rho must be positive everywhere")
        stack = self.stack = np.empty((dim + 4,) + st.rho.shape)
        self.eos = _eos(st.rho, st.s, st.c, self.model.eos, stack[dim + 3], stack[dim + 2])
        stack[:dim] = st.v
        return getattr(self, name)

    eos = _lazy(lambda self: self._thermo("eos"))
    stack = _lazy(lambda self: self._thermo("stack"))

    @_lazy
    def mu_gamma(self) -> np.ndarray:
        """mu - div(u) / rho, u = lambda_f(T) rho^a Gamma xi (mu for a sharp
        family), in its row of the stack."""
        st, excess = self.state, 0.0
        if self.model.is_diffuse:
            _, gamma, xi = self.gamma_xi
            u = lambda_f(self.eos.T, self.model.surface) * self.weight * gamma * xi
            excess = st.grid.div(u) / st.rho
        return np.subtract(self.eos.mu, excess, out=self.stack[st.grid.dim + 1])

    @_lazy
    def h_hat(self) -> np.ndarray:
        """The gradient of H that the brackets pair with, the pack (v, H_rho,
        mu_Gamma, T), a view of the stack: transform_gradients(grad_H) for a
        diffuse family, to roundoff, and grad_H itself for a sharp one.
        H_rho = -|v|^2 / 2 + g - c mu_Gamma, g the Gibbs energy, plus
        lambda_f Gamma^2 / 2 for a = 1."""
        st, model, dim = self.state, self.model, self.state.grid.dim
        h = -0.5 * _csum(st.v * st.v) + self.eos.g - st.c * self.mu_gamma
        if model.is_diffuse and model.a == 1:
            _, gamma, _ = self.gamma_xi
            h += 0.5 * lambda_f(self.eos.T, model.surface) * gamma * gamma
        self.stack[dim] = h
        return self.stack[:dim + 3]

    @_lazy
    def grads(self) -> np.ndarray:
        """grad h_hat, (dim, dim + 3, *members, *grid.shape) from one grad:
        [k, s] = d_k of slot s, so [:, :dim] is grad v[k, l] = d_k v_l."""
        return self.state.grid.grad(self.h_hat)

    @_lazy
    def gamma_xi(self):
        gc = self.state.grid.grad(self.state.c)
        return (gc,) + gamma_eval(gc, self.model.anisotropy)

    @_lazy
    def weight(self) -> np.ndarray:
        """rho^a, the density weight of the surface terms: rho itself for a = 1."""
        rho = self.state.rho
        return rho if self.model.a == 1 else rho ** self.model.a

    @_lazy
    def kappa(self):
        return self.model.transport.kappa_of(self._ref(), self.model)

    @_lazy
    def dcoef(self):
        return self.model.transport.dcoef_of(self._ref(), self.model)

    @_lazy
    def weights(self) -> np.ndarray:
        """The Poisson bracket's slot table: the pack with sigma_total in the
        sigma slot (the pack itself where the two agree)."""
        st, sigma = self.state, self.sigma_total()
        return st.packed if sigma is st.sigma else np.concatenate([st.packed[:-1], sigma[None]])

    def sigma_total(self) -> np.ndarray:
        """The total entropy density field (sigma itself for the sharp families)."""
        st, lam_s = self.state, self.model.surface.lambda_s
        if not (self.model.is_diffuse and lam_s != 0.0):
            return st.sigma
        _, gamma, _ = self.gamma_xi
        return st.sigma + 0.5 * self.weight * lam_s * gamma * gamma


def thermo_point(state: State, model: ModelConfig):
    """eval_eos at the state, computed once per state and model."""
    return state.derived(model).eos


def hamiltonian(state: State, model: ModelConfig) -> float | np.ndarray:
    """Total energy: kinetic + internal + surface-gradient part."""
    g = state.grid
    d = state.derived(model)
    e = 0.5 * _csum(state.m * state.m) / state.rho + state.rho * d.eos.u
    if model.is_diffuse and model.surface.lambda_u != 0.0:
        _, gamma, _ = d.gamma_xi
        e = e + 0.5 * d.weight * model.surface.lambda_u * gamma * gamma
    return g.integrate(e)


def sigma_total(state: State, model: ModelConfig) -> np.ndarray:
    """Total entropy density field (equals sigma for the sharp families)."""
    return state.derived(model).sigma_total()


def entropy(state: State, model: ModelConfig) -> float | np.ndarray:
    """Entropy functional: integral of the total entropy density."""
    return state.grid.integrate(sigma_total(state, model))


def grad_H(state: State, model: ModelConfig) -> FunctionalGradient:
    """Exact discrete functional derivatives of the Hamiltonian."""
    g = state.grid
    rho, c, v = state.rho, state.c, state.v
    d = state.derived(model)
    pt = d.eos
    d_rho = -0.5 * _csum(v * v) + pt.g - c * pt.mu
    d_ctilde = pt.mu
    if model.is_diffuse and model.surface.lambda_u != 0.0:
        lam_u, a = model.surface.lambda_u, model.a
        _, gamma, xi = d.gamma_xi
        div_flux = g.div(d.weight * lam_u * gamma * xi)
        if a == 1:
            d_rho = d_rho + 0.5 * lam_u * gamma * gamma
        d_rho = d_rho + c * div_flux / rho
        d_ctilde = d_ctilde - div_flux / rho
    return FunctionalGradient(m=v, rho=d_rho, ctilde=d_ctilde, sigma=pt.T)


def grad_S(state: State, model: ModelConfig) -> FunctionalGradient:
    """Exact discrete functional derivatives of the entropy functional: the
    unit sigma gradient, taken out of the sigma^a variables where the
    surface entropy is present."""
    unit = FunctionalGradient(packed=np.zeros(state.packed.shape))
    unit.sigma[...] = 1.0
    if model.is_diffuse and model.surface.lambda_s != 0.0:
        return untransform_gradients(unit, state, model)
    return unit


def _change_variables(Fg: FunctionalGradient, state: State, model: ModelConfig,
                      sign: float) -> FunctionalGradient:
    """The sigma^a change of variables on gradients: sign -1 maps sigma^a
    gradients to sigma ones, +1 maps back.  m and sigma pass through."""
    if not model.is_diffuse:
        raise UnsupportedFamilyError("gradient transform applies to diffuse families only")
    rho, lam_s = state.rho, model.surface.lambda_s
    Fg, = _align_batch(Fg, state=state)
    d = state.derived(model)
    _, gamma, xi = d.gamma_xi
    # sign * div(rho^a lambda_s Gamma xi F_sigma), the surface part
    div_flux = sign * state.grid.div(d.weight * lam_s * gamma * _lift(xi, Fg) * Fg.sigma)
    d_rho = Fg.rho + state.ctilde / rho ** 2 * div_flux
    if model.a == 1:
        d_rho = d_rho + sign * 0.5 * lam_s * gamma * gamma * Fg.sigma
    return FunctionalGradient(m=Fg.m, rho=d_rho, ctilde=Fg.ctilde - div_flux / rho,
                              sigma=Fg.sigma)


def _tendency_to_sigma_a(rhs: FunctionalGradient, d: Derived) -> None:
    """Turn the total-entropy slot of a diffuse family's tendency (on Derived
    d) into the sigma^a one, in place: sigma^a_dot = sigma_dot - d/dt(rho^a
    lambda_s Gamma^2 / 2) by the chain rule, the transpose of transform_gradients."""
    state, lam_s = d.state, d.model.surface.lambda_s
    if lam_s == 0.0:
        return
    _, gamma, xi = d.gamma_xi
    c_dot = (rhs.ctilde - state.c * rhs.rho) / state.rho
    sigma_dot = rhs.sigma
    sigma_dot -= d.weight * lam_s * gamma * _csum(xi * state.grid.grad(c_dot))
    if d.model.a == 1:
        sigma_dot -= 0.5 * lam_s * gamma * gamma * rhs.rho


def transform_gradients(hatFg: FunctionalGradient, state: State,
                        model: ModelConfig) -> FunctionalGradient:
    """Map gradients in the transformed (sigma^a) variables to gradients in
    the original (sigma) variables.

    The m and sigma slots pass through unchanged; rho and ctilde pick up
    the surface-gradient corrections.  With lambda_s = 0 this is the
    identity.  hatFg may be a batch.  See untransform_gradients for the
    inverse map.
    """
    return _change_variables(hatFg, state, model, -1.0)


def untransform_gradients(Fg: FunctionalGradient, state: State,
                          model: ModelConfig) -> FunctionalGradient:
    """Inverse of transform_gradients (original variables to sigma^a ones)."""
    return _change_variables(Fg, state, model, 1.0)


def generalized_mu(state: State, model: ModelConfig) -> np.ndarray:
    """Generalized chemical potential with the surface-gradient correction.

    mu_Gamma = mu - (1/rho) div(lambda_f(T) rho^a Gamma xi); reduces to the
    plain chemical potential for the sharp-interface families.
    """
    return state.derived(model).mu_gamma

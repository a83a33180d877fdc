"""Canned initial conditions and parameter sets.

Five scenarios exercise the physics at desk scale: 1D/2D spinodal
decomposition of the binary mixture, relaxation of a heat-conduction
perturbation, viscous decay of a shear flow, and a static 1D probe of the
capillary force on a resolved interface profile.

All parameter values here are artifact choices tuned for observability and
sub-minute runtimes; seeded generation is deterministic and
resolution-independent (the initial data are fixed smooth functions of x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .anisotropy import parse_anisotropy
from .errors import ConfigError, ParameterError, require_seed
from .fields import FourierModes, fourier_field
from .functionals import (DIFFUSE_FAMILIES, DISSIPATIVE_FAMILIES, FAMILIES, ModelConfig, State,
                          state_from_sigma_a)
from .grid import Grid
from .metriplectic import TransportCoefficients
from .thermo import EosParams, SurfaceCoefficients

@dataclass(frozen=True)
class RunConfig:
    """The run-config schema: every run setting and its type.

    This is the only list of run settings.  The ``run`` command-line flags
    (``--t-end`` for ``t_end``), the config-file keys, the ``make_scenario``
    overrides (every field but scenario, seed and out) and ``run.json`` are
    all derived from these fields.
    """

    scenario: str
    seed: int
    dim: int
    n: int
    length: float
    dt: float
    t_end: float
    cadence: int
    model: str
    eta: float
    zeta: float
    kappa: float
    dcoef: float
    lambda_u: float
    lambda_s: float
    lambda_v: float
    gamma: str
    noise_amp: float
    out: str


# setting name -> type, which also parses a config-file value
SETTING_TYPES = get_type_hints(RunConfig)
# the settings a scenario is built from, given as make_scenario overrides
_SCENARIO_SETTINGS = frozenset(SETTING_TYPES) - {"scenario", "seed", "out"}


@dataclass(frozen=True)
class Scenario:
    """A fully specified run: model, admissible initial state, and stepping.

    params holds the resolved value of every setting the scenario was built
    from (its defaults with the overrides applied); passed back to
    make_scenario as overrides, it rebuilds the same scenario.
    """

    name: str
    seed: int
    model: ModelConfig
    state: State
    dt: float
    t_end: float
    cadence: int
    params: dict

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


def _dense_modes(rng: np.random.Generator, dim: int, kmax: int) -> FourierModes:
    """Every integer wavevector with 0 < |k| <= kmax (half-plane in 2D),
    random amplitudes and phases."""
    if dim == 1:
        kvecs = [(m,) for m in range(1, kmax + 1)]
    else:
        kvecs = [(mx, my)
                 for my in range(0, kmax + 1)
                 for mx in range(-kmax, kmax + 1)
                 if mx * mx + my * my <= kmax * kmax and (my > 0 or mx > 0)]
    n = len(kvecs)
    return FourierModes(amps=rng.uniform(0.5, 1.0, size=n),
                        kvecs=np.asarray(kvecs, dtype=int),
                        phases=rng.uniform(0.0, 2.0 * np.pi, size=n))


def _noise(grid: Grid, seed: int, amp: float) -> np.ndarray:
    """Seeded broadband noise normalized to peak amplitude amp.

    The spectrum is dense up to |k| = 16 in 1D and 6 in 2D, so the linearly
    unstable band of the mixture is always seeded regardless of the seed
    value (sparse random mode draws can miss it entirely, leaving nothing
    to grow).
    """
    rng = np.random.default_rng(seed)
    field = fourier_field(grid, _dense_modes(rng, grid.dim, 16 if grid.dim == 1 else 6))
    peak = float(np.abs(field).max())
    return amp * field / peak if peak > 0 else field


# spinodal parameters: the well depth lambda_v is kept well below the
# background pressure (gamma_ad - 1) * rho * c_v * T so the Laplace
# pressure drop across an interface (about lambda_v / 2) cannot
# cavitate the density; lambda_f and dcoef are scaled to keep the
# unstable band (modes 1..5) and its growth rate of order 10
_SPINODAL = dict(model="chns1", length=1.0, lambda_u=3.75e-4, lambda_s=1.25e-4,
                 lambda_v=0.25, eta=0.01, zeta=0.0, kappa=0.01, dcoef=0.16,
                 gamma="iso", noise_amp=1e-2)
_DEFAULTS = {
    "spinodal1d": dict(_SPINODAL, dim=1, n=128, dt=1.5e-4, t_end=1.0, cadence=500),
    "spinodal2d": dict(_SPINODAL, dim=2, n=64, dt=5e-4, t_end=0.75, cadence=250),
    "heat_relax": dict(model="gns", dim=1, n=64, length=1.0,
                       dt=1e-3, t_end=0.5, cadence=50,
                       lambda_u=0.0, lambda_s=0.0, lambda_v=1.0,
                       eta=0.0, zeta=0.0, kappa=0.2, dcoef=0.0,
                       gamma="iso", noise_amp=0.02),
    "shear_decay": dict(model="gns", dim=2, n=32, length=1.0,
                        dt=2e-3, t_end=0.5, cadence=25,
                        lambda_u=0.0, lambda_s=0.0, lambda_v=1.0,
                        eta=0.05, zeta=0.0, kappa=0.01, dcoef=0.0,
                        gamma="iso", noise_amp=0.0),
    "capillary_probe": dict(model="chns1", dim=1, n=256, length=1.0,
                            dt=5e-5, t_end=0.01, cadence=50,
                            lambda_u=2e-3, lambda_s=1e-3, lambda_v=1.0,
                            eta=0.01, zeta=0.0, kappa=0.01, dcoef=0.01,
                            gamma="iso", noise_amp=0.0),
}
SCENARIO_NAMES = tuple(_DEFAULTS)


def _bad_value(key: str, exc: ValueError) -> ConfigError:
    return ConfigError(f"bad value for {key!r}: {exc}")


# the model parameters named otherwise than their settings; every other
# parameter (of the grid, the transport, the surface) is named as its setting
_SETTING_OF = {"lambda_V": "lambda_v", "anisotropy": "gamma"}


def _build_model(p: dict) -> ModelConfig:
    """The model of the resolved settings p; a model parameter out of its
    domain is a ConfigError that names the setting it came from."""
    family = p["model"].upper()
    if family not in FAMILIES:
        raise ConfigError(f"unknown model family {p['model']!r}")
    dim = p["dim"]
    try:
        anisotropy = parse_anisotropy(p["gamma"])
    except ValueError as exc:
        raise _bad_value("gamma", exc) from None
    try:
        eos = EosParams(lambda_V=p["lambda_v"])
        grid = Grid(dim=dim, n=(p["n"],) * dim, length=(p["length"],) * dim)
        transport = TransportCoefficients(
            eta=p["eta"], zeta=p["zeta"], kappa=p["kappa"], dcoef=p["dcoef"],
        ) if family in DISSIPATIVE_FAMILIES else None
        surface = SurfaceCoefficients(
            lambda_u=p["lambda_u"], lambda_s=p["lambda_s"],
        ) if family in DIFFUSE_FAMILIES else SurfaceCoefficients()
        return ModelConfig(family=family, grid=grid, eos=eos, surface=surface,
                           anisotropy=anisotropy, transport=transport)
    except ParameterError as exc:
        raise _bad_value(_SETTING_OF.get(exc.name, exc.name), exc) from None


def double_tanh_profile(x: np.ndarray, length: float, width: float) -> np.ndarray:
    """Periodic-compatible pair of interfaces: c = -1 outside, +1 between."""
    return (np.tanh((x - 0.25 * length) / width)
            - np.tanh((x - 0.75 * length) / width) - 1.0)


def _initial_state(name: str, model: ModelConfig, seed: int, p: dict) -> State:
    """The scenario's validated state at rho = 1, from (v, c, s^a), each 0
    but where the scenario sets it (see state_from_sigma_a)."""
    grid = model.grid
    dim, x = grid.dim, grid.coords()
    packed = np.zeros((dim + 3,) + grid.shape)  # (m, rho, ctilde, sigma^a) = (v, 1, c, s^a)
    packed[dim] = 1.0
    if name in ("spinodal1d", "spinodal2d"):
        packed[dim + 1] = _noise(grid, seed, p["noise_amp"])
    elif name == "heat_relax":
        packed[dim + 2] = p["noise_amp"] * np.sin(2.0 * np.pi * x[0] / grid.length[0])
    elif name == "shear_decay":
        packed[1] = np.sin(2.0 * np.pi * x[0] / grid.length[0])
    elif name == "capillary_probe":
        # 24 cells across the interface keeps the discrete capillary force
        # within 1% of the analytic profile force
        width = 24.0 * grid.h[0]
        packed[dim + 1] = double_tanh_profile(x[0], grid.length[0], width)
    return state_from_sigma_a(grid, packed, model)


def parse_setting(key: str, value):
    """Convert one run setting to its RunConfig type; ConfigError names it.

    An integer setting takes an integral value only: int() would truncate
    48.7 to 48.  A float setting must be finite.  Neither takes a bool.
    """
    if key not in SETTING_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    if SETTING_TYPES[key] in (int, float) and isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"bad value for {key!r}: {value!r} is a bool, not a number")
    try:
        out = SETTING_TYPES[key](value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    if SETTING_TYPES[key] is int and not isinstance(value, str) and out != value:
        raise ConfigError(f"bad value for {key!r}: {value!r} is not an integer")
    if SETTING_TYPES[key] is float and not math.isfinite(out):
        raise ConfigError(f"bad value for {key!r}: {key} = {out} is not finite")
    return out


def make_scenario(name: str, seed: int = 0, overrides: dict | None = None) -> Scenario:
    """Build a named scenario, applying overrides on top of its defaults.

    The override keys are the RunConfig fields other than scenario, seed
    and out; each value is converted to its field's type.
    """
    require_seed(seed)
    if name not in _DEFAULTS:
        raise ConfigError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    params = {**_DEFAULTS[name], **(overrides or {})}
    unknown = set(params) - _SCENARIO_SETTINGS
    if unknown:
        raise ConfigError(f"unknown override keys: {sorted(unknown)}")
    params = {k: parse_setting(k, v) for k, v in params.items()}
    dt, t_end, cadence = params["dt"], params["t_end"], params["cadence"]
    if dt <= 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    if not 0.5 < t_end / dt < np.inf:  # n_steps = round(t_end / dt) >= 1
        raise ConfigError(f"t_end = {t_end} must be finite and more than "
                          f"dt / 2 = {dt / 2}: the run takes no step")
    if cadence <= 0:
        raise ConfigError(f"cadence must be positive, got {cadence}")
    model = _build_model(params)
    state = _initial_state(name, model, seed, params)
    return Scenario(name=name, seed=seed, model=model, state=state,
                    dt=dt, t_end=t_end, cadence=cadence, params=params)


def zero_crossings(c: np.ndarray, axis: int = 0) -> int:
    """Count sign changes of c along one axis, including the periodic wrap.

    For 2D fields the counts are summed over the transverse rows, giving a
    scalar coarsening monitor.
    """
    sign = np.where(c >= 0, 1, -1)
    flips = sign * np.roll(sign, -1, axis=axis) < 0
    return int(flips.sum())


def analytic_capillary_force(x: np.ndarray, length: float, width: float,
                             lam_f: float) -> np.ndarray:
    """Exact 1D capillary force -d/dx(lam_f * rho * c'^2)/rho for the
    double-tanh probe profile with rho = 1."""
    def sech2(z):
        return 1.0 / np.cosh(z) ** 2

    z1 = (x - 0.25 * length) / width
    z2 = (x - 0.75 * length) / width
    cp = (sech2(z1) - sech2(z2)) / width
    cpp = (-2.0 * sech2(z1) * np.tanh(z1) + 2.0 * sech2(z2) * np.tanh(z2)) / width ** 2
    return -lam_f * 2.0 * cp * cpp

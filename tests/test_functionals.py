"""Functionals: H and S values, exact discrete gradients, generalized mu."""

import dataclasses
import gc
import re
import warnings
import weakref

import numpy as np
import pytest

from metriflow import (AnisotropyFn, EosParams, FunctionalGradient, Grid,
                       InadmissibleStateError, ModelConfig, ParameterError, State,
                       SurfaceCoefficients, TransportCoefficients,
                       UnsupportedFamilyError, diagnostics, dissipative_rhs, entropy,
                       entropy_production_rate, eval_eos, grad_H, grad_S, hamiltonian,
                       ideal_rhs, integrate, make_scenario, smooth_state, stability_limit,
                       total_rhs)
from metriflow import functionals
from metriflow.fields import random_gradient
from metriflow.functionals import thermo_point

GRID1 = Grid(dim=1, n=(32,), length=(1.0,))
GRID2 = Grid(dim=2, n=(16,), length=(1.0,))

SURF = SurfaceCoefficients(lambda_u=2e-3, lambda_s=1e-3)
TRANSPORT = TransportCoefficients(eta=0.01, zeta=0.005, kappa=0.02, dcoef=0.03)


def make_model(family, grid=GRID1, **kw):
    surf = SURF if family.startswith("CH") else SurfaceCoefficients(lambda_u=0.0, lambda_s=0.0)
    tr = TRANSPORT if family in ("GNS", "CHNS0", "CHNS1") else None
    return ModelConfig(family=family, grid=grid, surface=surf, transport=tr, **kw)


def uniform_state(grid, rho=1.0, v=0.0, c=0.0, s=0.0):
    m = np.full((grid.dim,) + grid.shape, v) * rho
    return State(grid=grid, m=m, rho=np.full(grid.shape, rho),
                 ctilde=np.full(grid.shape, rho * c),
                 sigma=np.full(grid.shape, rho * s))


# ------------------------------------------------------------ model config

def test_unknown_family_rejected():
    with pytest.raises(UnsupportedFamilyError):
        ModelConfig(family="MHD", grid=GRID1)


def test_sharp_family_rejects_surface_terms():
    with pytest.raises(ValueError):
        ModelConfig(family="GE", grid=GRID1, surface=SURF)


def test_dissipative_family_requires_transport():
    with pytest.raises(ValueError):
        ModelConfig(family="GNS", grid=GRID1)


@pytest.mark.parametrize("family", ["GE", "CHE0", "CHE1"])
def test_an_ideal_family_rejects_transport_naming_the_family(family):
    # its kernel reads no transport, which would only tighten stability_limit
    with pytest.raises(ValueError, match=f"family {family} does not dissipate"):
        dataclasses.replace(make_model(family), transport=TRANSPORT)


def test_fourfold_anisotropy_needs_a_2d_grid():
    fourfold = AnisotropyFn(kind="fourfold", eps4=0.05)
    with pytest.raises(ParameterError, match="dim = 1") as info:
        make_model("CHE1", anisotropy=fourfold)
    assert info.value.name == "anisotropy"
    assert make_model("CHE1", grid=GRID2, anisotropy=fourfold).anisotropy == fourfold


# ------------------------------------------------------------ state checks

def test_validate_accepts_smooth_state():
    model = make_model("CHNS1")
    smooth_state(GRID1, model, seed=1).validate(model)


def test_validate_rejects_nonpositive_density():
    model = make_model("GE")
    st = uniform_state(GRID1)
    bad = st.replace(rho=st.rho - 2.0)
    with pytest.raises(InadmissibleStateError):
        bad.validate(model)


@pytest.mark.parametrize("route", ["slots", "pack"])
@pytest.mark.parametrize("name", ["m", "rho", "ctilde", "sigma"])
def test_validate_rejects_nonfinite(name, route):
    model = make_model("GE")
    st = uniform_state(GRID1)
    if route == "slots":
        bad = getattr(st, name).copy()
        bad[..., 3] = np.nan
        bad_state = st.replace(**{name: bad})
    else:
        packed = st.packed.copy()
        row = {"m": 0, "rho": 1, "ctilde": 2, "sigma": 3}[name]
        packed[row, 3] = np.nan
        bad_state = State(GRID1, packed=packed)
    # the message names the row and its first bad cell
    label = "m[0]" if name == "m" else name
    with pytest.raises(InadmissibleStateError, match=re.escape(
            f"non-finite entries in {name}: {label} = nan at cell (3,)")):
        bad_state.validate(model)


@pytest.mark.parametrize("model_grid, kappa", [
    (Grid(dim=1, n=(32,), length=(2.0,)), 0.02),
    (Grid(dim=2, n=(32,), length=(1.0,)), 0.02 * np.eye(2)),
], ids=["length", "dim"])
def test_a_state_under_a_model_on_another_grid_raises_naming_both(model_grid, kappa):
    # every kernel takes the state's grid, and ModelConfig checks kappa
    # against the model's: the two must be one grid, or an equal one
    state = smooth_state(GRID1, make_model("GNS"), seed=1)
    model = make_model("GNS", grid=model_grid)
    model = dataclasses.replace(model, transport=dataclasses.replace(TRANSPORT, kappa=kappa))
    for call in (State.validate, stability_limit, grad_S):
        with pytest.raises(ValueError, match=re.escape(
                f"a state on {GRID1} under a model on {model_grid}")):
            call(state, model)
    twin = make_model("GNS", grid=Grid(dim=1, n=(32,), length=(1.0,)))
    assert twin.grid is not GRID1 and stability_limit(state, twin) == stability_limit(
        state, make_model("GNS"))


@pytest.mark.parametrize("scenario", ["heat_relax", "spinodal1d"], ids=["GNS", "CHNS1"])
@pytest.mark.parametrize("call", [State.validate, hamiltonian, grad_H, grad_S, entropy,
                                  thermo_point, total_rhs, ideal_rhs,
                                  dissipative_rhs, entropy_production_rate],
                         ids=lambda call: call.__name__)
def test_every_function_of_an_empty_batch_fails_as_validate_fails_it(call, scenario):
    # the fill rejects an empty pack before any field is set, for a sharp
    # family and a diffuse one alike
    model = make_scenario(scenario, seed=0).model
    shape = (model.grid.dim + 3, 0) + model.grid.shape
    with pytest.raises(ValueError, match=re.escape(
            f"an empty batch, pack shape {shape}, has no state")):
        call(State(model.grid, packed=np.ones(shape)), model)


@pytest.mark.parametrize("members", [False, True])
@pytest.mark.parametrize("name", ["temperature", "pressure"])
def test_validate_rejects_an_overflowing_eos(name, members):
    # exp(s) overflows at s = 800, so T = p = inf; at rho = 1e200, T stays
    # finite and p = (gamma - 1) rho^2 u_rho overflows alone
    grid = Grid(dim=1, n=(16,), length=(1.0,))
    model = make_model("GNS", grid=grid)
    good = smooth_state(grid, model, seed=2)
    if name == "temperature":
        bad = good.replace(sigma=800.0 * good.rho)
    else:
        bad = good.replace(rho=1e200 * good.rho, m=1e200 * good.m,
                           ctilde=1e200 * good.ctilde, sigma=1e200 * good.sigma)
    if members:  # one member of three overflows
        bad = State(grid, packed=np.stack([good.packed, bad.packed, good.packed], axis=1))
    with np.errstate(over="ignore"), pytest.raises(
            InadmissibleStateError, match=f"derived {name} must be finite and positive"):
        bad.validate(model)


@pytest.mark.parametrize("members", [False, True])
@pytest.mark.parametrize("name", ["temperature", "pressure", "rho"])
def test_an_inadmissible_state_fails_every_check_after_its_first(name, members):
    # the thermo pass keeps no field of a state that fails it, so the second
    # validate, thermo_point and integrate fail as the first validate did
    grid = Grid(dim=1, n=(16,), length=(1.0,))
    model = make_model("GNS", grid=grid)
    good = smooth_state(grid, model, seed=2)
    bad = {"temperature": lambda: good.replace(sigma=800.0 * good.rho),
           "pressure": lambda: State(grid, packed=1e200 * good.packed),
           "rho": lambda: good.replace(rho=-good.rho)}[name]()
    if members:  # one member of three fails
        bad = State(grid, packed=np.stack([good.packed, bad.packed, good.packed], axis=1))
    message = ("rho must be positive everywhere" if name == "rho"
               else f"derived {name} must be finite and positive")
    with np.errstate(over="ignore"):
        for check in (bad.validate, bad.validate, lambda model: thermo_point(bad, model),
                      lambda model: integrate(bad, model, 1e-6, 1)):
            with pytest.raises(InadmissibleStateError, match=message):
                check(model)


@pytest.mark.parametrize("name, slot", [("temperature", "T"), ("pressure", "p")])
def test_validate_rejects_a_nan_eos(name, slot, monkeypatch):
    # the EOS kernel of the Derived pass writes p and T into the state's
    # stack, which validate checks
    plain = functionals._eos

    def with_nan(*args):
        pt = plain(*args)
        getattr(pt, slot)[3] = np.nan
        return pt

    monkeypatch.setattr(functionals, "_eos", with_nan)
    model = make_model("GNS")
    with pytest.raises(InadmissibleStateError, match=f"derived {name} must be finite"):
        smooth_state(GRID1, model, seed=1)


def _state_with_rho_zero_and_negative():
    st = smooth_state(GRID1, make_model("GNS"), seed=4)
    rho = st.rho.copy()
    rho[3], rho[7] = 0.0, -1e-3
    return st.replace(rho=rho)


def test_validate_checks_rho_before_dividing_by_it():
    # rho is checked once, by the pass that fills the Derived fields, and
    # before the pack is divided by rho: no divide-by-zero warning
    st = _state_with_rho_zero_and_negative()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InadmissibleStateError, match="rho must be positive"):
            st.validate(make_model("GNS"))


def test_thermo_point_is_frozen():
    pt = thermo_point(smooth_state(GRID1, make_model("GNS"), seed=4), make_model("GNS"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.T = pt.T * 2.0


def test_derived_fields():
    st = uniform_state(GRID1, rho=2.0, v=0.5, c=0.3, s=-0.1)
    assert np.allclose(st.v, 0.5)
    assert np.allclose(st.c, 0.3)
    assert np.allclose(st.s, -0.1)


# -------------------------------------------------------------- functionals

def test_hamiltonian_uniform_state():
    model = make_model("CHNS1")
    st = uniform_state(GRID1, rho=1.4, c=0.2, s=0.1)
    pt = eval_eos(1.4, 0.1, 0.2, model.eos)
    assert hamiltonian(st, model) == pytest.approx(1.4 * float(pt.u), rel=1e-13)


@pytest.mark.parametrize("family, sharp", [("CHE0", "GE"), ("CHE1", "GE"),
                                           ("CHNS0", "GNS"), ("CHNS1", "GNS")])
def test_a_diffuse_family_without_surface_terms_gives_its_sharp_family_bits(family, sharp):
    # the surface terms' general formulas, with no case of their own for a
    # zero coefficient, reduce exactly there
    model = dataclasses.replace(make_model(family), surface=SurfaceCoefficients())
    bare = make_model(sharp)
    state = smooth_state(GRID1, model, seed=3)
    assert np.array_equal(state.packed, smooth_state(GRID1, bare, seed=3).packed)
    assert hamiltonian(state, model) == hamiltonian(state, bare)
    for call in (grad_H, grad_S, total_rhs):
        assert np.array_equal(call(state, model).packed, call(state, bare).packed), call


def test_hamiltonian_sharp_reduction():
    # with no surface terms H is exactly kinetic + internal
    model = make_model("GNS")
    st = smooth_state(GRID1, model, seed=3)
    pt = eval_eos(st.rho, st.s, st.c, model.eos)
    direct = GRID1.integrate(
        0.5 * np.sum(st.m * st.m, axis=0) / st.rho + st.rho * np.asarray(pt.u))
    assert hamiltonian(st, model) == pytest.approx(direct, rel=1e-14)


def test_hamiltonian_against_refined_quadrature():
    # smooth_state samples fixed continuum functions, so refining the grid
    # gives an independent quadrature oracle for the same functional
    vals = {}
    for n in (64, 512):
        g = Grid(dim=1, n=(n,), length=(1.0,))
        model = make_model("CHE1", grid=g)
        st = smooth_state(g, model, seed=9)
        vals[n] = hamiltonian(st, model)
    assert vals[64] == pytest.approx(vals[512], rel=1e-3)


def test_entropy_uniform_state():
    model = make_model("CHNS1", grid=GRID2)
    st = uniform_state(GRID2, rho=1.0, s=0.25)
    assert entropy(st, model) == pytest.approx(0.25, rel=1e-13)


def test_entropy_reduces_without_lambda_s():
    model = ModelConfig(family="CHE1", grid=GRID1,
                        surface=SurfaceCoefficients(lambda_u=1e-3, lambda_s=0.0))
    st = smooth_state(GRID1, model, seed=4)
    assert entropy(st, model) == GRID1.integrate(st.sigma)


def test_sigma_total_a_independent_at_unit_density():
    # the sigma^a of a sharp state at unit density, raised to the total
    # entropy density for a = 1 and for a = 0; each fill recovers it
    sigma_a = smooth_state(GRID1, make_model("GE"), seed=5).replace(rho=np.ones(GRID1.shape))
    m1 = ModelConfig(family="CHE1", grid=GRID1, surface=SURF)
    m0 = ModelConfig(family="CHE0", grid=GRID1, surface=SURF)
    s1, s0 = (functionals.state_from_sigma_a(GRID1, sigma_a.packed.copy(), m)
              for m in (m1, m0))
    assert np.allclose(s1.sigma, s0.sigma, atol=1e-15)
    assert not np.array_equal(s1.sigma, sigma_a.sigma)
    for st, m in ((s1, m1), (s0, m0)):
        assert np.allclose(st.derived(m).s, sigma_a.sigma, rtol=0, atol=1e-15)


# ------------------------------------------------------------- gradients

def directional_derivative(value, state, direction, eps=1e-6):
    """Central-difference derivative of value(state) along direction."""
    def at(h):
        return value(State(state.grid, packed=state.packed + h * direction.packed))
    return (at(eps) - at(-eps)) / (2.0 * eps)


@pytest.mark.parametrize("family", ["GE", "GNS", "CHE0", "CHE1", "CHNS0", "CHNS1"])
def test_grad_H_matches_directional_derivative(family):
    model = make_model(family)
    st = smooth_state(GRID1, model, seed=8)
    Hg = grad_H(st, model)
    for trial in range(20):
        direction = random_gradient(GRID1, seed=300 + trial)
        fd = directional_derivative(lambda s: hamiltonian(s, model), st, direction)
        exact = Hg.dot(direction, GRID1)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("family", ["GE", "CHE0", "CHE1"])
def test_grad_S_matches_directional_derivative(family):
    model = make_model(family)
    st = smooth_state(GRID1, model, seed=8)
    Sg = grad_S(st, model)
    for trial in range(20):
        direction = random_gradient(GRID1, seed=500 + trial)
        fd = directional_derivative(lambda s: entropy(s, model), st, direction)
        exact = Sg.dot(direction, GRID1)
        assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)


def test_grad_H_momentum_slot_is_velocity():
    model = make_model("CHNS1")
    st = smooth_state(GRID1, model, seed=10)
    assert np.allclose(grad_H(st, model).m, st.m / st.rho, atol=1e-14)


def test_grad_H_concentration_slot_uniform():
    model = make_model("CHE1")
    st = uniform_state(GRID1, rho=1.2, c=0.4, s=0.0)
    pt = eval_eos(1.2, 0.0, 0.4, model.eos)
    assert np.allclose(grad_H(st, model).ctilde, float(pt.mu), atol=1e-14)


def test_grad_S_sigma_slot_is_one():
    for family in ("GE", "CHE1", "CHNS0"):
        model = make_model(family)
        st = smooth_state(GRID1, model, seed=11)
        assert np.all(grad_S(st, model).sigma == 1.0)


@pytest.mark.parametrize("family", ["GNS", "CHNS1"])
def test_grad_S_trivial_without_lambda_s(family):
    # S is the integral of sigma for every family: the unit sigma gradient
    model = make_model(family)
    st = smooth_state(GRID1, model, seed=12)
    Sg = grad_S(st, model)
    assert np.all(Sg.rho == 0.0) and np.all(Sg.ctilde == 0.0)
    assert np.all(Sg.m == 0.0) and np.all(Sg.sigma == 1.0)


# ---------------------------------------------------------- generalized mu

def test_generalized_mu_uniform_concentration():
    model = make_model("CHE1")
    st = uniform_state(GRID1, rho=1.1, c=0.6)
    pt = eval_eos(1.1, 0.0, 0.6, model.eos)
    assert np.allclose(st.derived(model).mu_gamma, float(pt.mu), atol=1e-13)


def test_generalized_mu_a0_assembly():
    # a = 0: mu_Gamma = mu - div(lambda_f * Gamma * xi) / rho, assembled
    # here independently with the same grid operators
    model = make_model("CHE0")
    st = smooth_state(GRID1, model, seed=13)
    from metriflow.thermo import lambda_f as lam_f_of
    pt = thermo_point(st, model)
    _, gamma, xi = st.derived(model).gamma_xi
    lam_f = lam_f_of(np.asarray(pt.T), model.surface)
    expected = np.asarray(pt.mu) - GRID1.div(lam_f * gamma * xi) / st.rho
    assert np.allclose(st.derived(model).mu_gamma, expected, atol=1e-12)


def test_memo_is_not_stale_across_fresh_models():
    # a sweep that builds a fresh model per iteration on one state: freed
    # parameter objects can hand their id() to the next iteration's
    state = smooth_state(GRID1, make_model("GE"), seed=3)
    stale = 0
    for i in range(2000):
        model = ModelConfig(family="GE", grid=GRID1,
                            eos=EosParams(c_v=1.0 + 1e-3 * i))
        pt = thermo_point(state, model)
        ref = eval_eos(state.rho, state.s, state.c, model.eos)
        stale += not np.array_equal(pt.T, ref.T)
    assert stale == 0


def test_derived_is_kept_for_the_last_model_object():
    model = make_model("CHNS1")
    state = smooth_state(GRID1, model, seed=3)
    d = state.derived(model)
    assert state.derived(model) is d
    assert thermo_point(state, model) is d.eos
    # an equal but distinct model object gets its own fields
    twin = dataclasses.replace(model)
    assert twin == model
    assert state.derived(twin) is not d
    assert state.derived(twin) is state.derived(twin)


def test_state_is_freed_without_the_garbage_collector():
    # the Derived a state holds must not refer back to it: a cycle
    # would keep every evaluated state alive until a collection
    model = make_model("CHNS1")
    state = smooth_state(GRID1, model, seed=3)
    total_rhs(state, model)
    diagnostics(state, model)
    alive = weakref.ref(state)
    gc.disable()
    try:
        del state
        assert alive() is None
    finally:
        gc.enable()


def test_derived_held_past_its_state_resolves_a_callable_coefficient():
    # the fill calls kappa on its own fields, so the Derived keeps the value
    # with its state freed, and the callable sees the fields a State has
    kappa = lambda f, model: 0.02 * (1.0 + f.c ** 2)
    model = dataclasses.replace(make_model("GNS"), transport=dataclasses.replace(TRANSPORT, kappa=kappa))
    state = smooth_state(GRID1, model, seed=1)
    expected = 0.02 * (1.0 + state.c ** 2)
    d = state.derived(model)
    del state
    assert np.array_equal(d.kappa, expected) and d.dcoef == TRANSPORT.dcoef


@pytest.mark.parametrize("family", ["GNS", "CHNS1"])
def test_gradients_share_no_memory_with_the_state(family):
    model = make_model(family)
    st = smooth_state(GRID1, model, seed=16)
    v, packed = st.v.copy(), st.packed.copy()
    eos = st.derived(model).eos
    cached = {name: np.copy(getattr(eos, name)) for name in ("u", "T", "p", "mu")}
    for Xg in (grad_H(st, model), grad_S(st, model)):
        for slot in (Xg.m, Xg.rho, Xg.ctilde, Xg.sigma):
            slot *= 2.0
    assert np.array_equal(st.v, v)
    assert np.array_equal(st.packed, packed)
    for name, value in cached.items():
        assert np.array_equal(getattr(st.derived(model).eos, name), value), name


def test_functional_gradient_algebra():
    a = random_gradient(GRID1, seed=14)
    b = random_gradient(GRID1, seed=15)
    s = a + 2.0 * b
    assert np.allclose(s.rho, a.rho + 2.0 * b.rho)
    d = s - a
    assert np.allclose(d.sigma, 2.0 * b.sigma)
    z = FunctionalGradient(packed=np.zeros((GRID1.dim + 3,) + GRID1.shape))
    assert z.norm(GRID1) == 0.0
    assert a.dot(b, GRID1) == pytest.approx(b.dot(a, GRID1), rel=1e-14)

"""The packed stepping path: RK4 on whole packs and the one-buffer tendency
kernel must give the same bits as the per-field stepping and the dict of
named fluxes they replaced, which are kept here as the reference.
"""

import dataclasses
import os
import sys
from collections import Counter

import numpy as np
import pytest

from metriflow import functionals
from metriflow import (Grid, State, dissipative_rhs, eval_eos, gamma_eval, ideal_rhs,
                       smooth_state, stability_limit, step_rk4, total_rhs)
from metriflow.functionals import FAMILIES, Derived, FunctionalGradient, _thermo
from metriflow.grid import _csum, _trace
from metriflow.metriplectic import _apply_tensor, _pair_sum, _tendencies
from metriflow.thermo import ThermoPoint, lambda_f
from metriflow.verification import model_for
from conftest import coefficient_on, model_of

DISSIPATIVE = ("GNS", "CHNS0", "CHNS1")
SLOTS = ("m", "rho", "ctilde", "sigma")


# every family in 1D and 2D (fourfold anisotropy in 2D); the dissipative
# families with scalar, matrix and callable kappa / dcoef
CASES = [(family, dim, kind) for family in FAMILIES for dim in (1, 2)
         for kind in (("scalar", "matrix", "callable") if family in DISSIPATIVE
                      else ("scalar",))]


# ------------------------------------------------------------ reference

def _reference_divergences(grid, fluxes):
    """{name: divergence} of named fluxes, stacked for one deriv per axis."""
    parts = [f.reshape((grid.dim, -1) + grid.shape) for f in fluxes.values()]
    div = grid.div(np.concatenate(parts, axis=1))
    divs, start = {}, 0
    for (name, f), part in zip(fluxes.items(), parts):
        stop = start + part.shape[1]
        divs[name] = div[start:stop].reshape(f.shape[1:])
        start = stop
    return divs


def _reference_stress(gradv, eta, zeta):
    trace = gradv.trace()
    out = eta * (gradv + gradv.swapaxes(0, 1))
    for i in range(len(gradv)):
        out[i, i] += (zeta - (2.0 / 3.0) * eta) * trace
    return out


def _reference_production(T, gradv, stress, gradT, heat, grad_mu, diffusion):
    """Each dissipative flux paired with its gradient, over T (see _pairing)."""
    visc = (gradv * stress).sum(axis=(0, 1))
    cond = (gradT * heat).sum(axis=0) / T
    diff = (grad_mu * diffusion).sum(axis=0)
    return (visc + cond + diff) / T


def _reference_tendencies(state, model, ideal=True, dissipative=True):
    """The kernel with a dict of named fluxes, its own EOS call, grads and
    reductions over the component axes, in the state's variables, sigma the
    total entropy density: the EOS at s^a = (sigma - rho^a lambda_s
    Gamma^2 / 2) / rho (sigma / rho for a sharp family), every slot
    advected by -w_s v, w the pack, momentum's source -sum_s w_s grad H_s
    with H = (v, H_rho, mu_Gamma, T), and the dissipative fluxes C_X grad
    H_X with their production."""
    g, dim = state.grid, state.grid.dim
    dissipative = dissipative and model.is_dissipative
    if not (ideal or dissipative):
        return FunctionalGradient(packed=np.zeros(state.packed.shape))
    rho, v, c, s = state.rho, state.v, state.c, state.s
    if model.is_diffuse:
        gamma, xi = gamma_eval(g.grad(c), model.anisotropy)
        s = (state.sigma - 0.5 * rho ** model.a * model.surface.lambda_s * gamma * gamma) / rho
    pt = eval_eos(rho, s, c, model.eos)
    T = np.asarray(pt.T)
    grads = g.grad(np.concatenate([v, T[None]]))
    gradv, gradT = grads[:, :dim], grads[:, dim]
    mu_gamma = np.asarray(pt.mu) * np.ones(g.shape)
    h_rho = -0.5 * (v * v).sum(axis=0) + pt.g  # g = u + p / rho - s^a T
    if model.is_diffuse:
        lam_f = lambda_f(T, model.surface)
        mu_gamma = mu_gamma - g.div(lam_f * rho ** model.a * gamma * xi) / rho
    h_rho = h_rho - c * mu_gamma
    if model.is_diffuse and model.a == 1:
        h_rho = h_rho + 0.5 * lam_f * gamma * gamma
    fluxes = {}

    def add(name, flux):
        fluxes[name] = fluxes[name] + flux if name in fluxes else flux

    if ideal:
        grad_h = g.grad(h_rho)
        add("m", -v[:, None] * state.m[None])
        add("rho", -rho * v)
        add("ctilde", -state.ctilde * v)
        add("sigma", -state.sigma * v)
    if dissipative:
        tr = model.transport
        kappa, dcoef = coefficient_on(tr.kappa, state, model), coefficient_on(tr.dcoef, state, model)
        grad_mu = g.grad(mu_gamma)
        stress = _reference_stress(gradv, tr.eta, tr.zeta)
        heat, diffusion = _apply_tensor(kappa, gradT), _apply_tensor(dcoef, grad_mu)
        add("m", stress)
        add("ctilde", diffusion)
        add("sigma", heat / T)
    divs = _reference_divergences(g, fluxes)
    rho_dot = divs["rho"] if "rho" in divs else g.zeros()
    m_dot, ctilde_dot, sigma_dot = divs["m"], divs["ctilde"], divs["sigma"]
    if ideal:
        grad_mu = g.grad(mu_gamma)
        m_dot = m_dot - ((state.m[:, None] * gradv.swapaxes(0, 1)).sum(axis=0)
                         + rho * grad_h + state.ctilde * grad_mu + state.sigma * gradT)
    if dissipative:
        sigma_dot = sigma_dot + _reference_production(T, gradv, stress, gradT, heat,
                                                      grad_mu, diffusion)
    return FunctionalGradient(m=m_dot, rho=rho_dot, ctilde=ctilde_dot, sigma=sigma_dot)


def _reference_advance(state, rhs, dt):
    return State(grid=state.grid, m=state.m + dt * rhs.m,
                 rho=state.rho + dt * rhs.rho,
                 ctilde=state.ctilde + dt * rhs.ctilde,
                 sigma=state.sigma + dt * rhs.sigma)


def _reference_step(state, model, dt):
    """RK4 slot by slot, combined as FunctionalGradients."""

    def stage(st):
        st.validate(model)
        return st

    k1 = _reference_tendencies(state, model)
    k2 = _reference_tendencies(stage(_reference_advance(state, k1, 0.5 * dt)), model)
    k3 = _reference_tendencies(stage(_reference_advance(state, k2, 0.5 * dt)), model)
    k4 = _reference_tendencies(stage(_reference_advance(state, k3, dt)), model)
    combined = (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (1.0 / 6.0)
    return stage(_reference_advance(state, combined, dt))


def _assert_same_bits(a, b, where):
    for slot in SLOTS:
        assert np.array_equal(getattr(a, slot), getattr(b, slot)), (where, slot)


# ------------------------------------------------------------ bitwise

@pytest.mark.parametrize("family, dim, coef_kind", CASES)
def test_step_rk4_matches_the_per_field_reference(family, dim, coef_kind):
    model = model_of(family, dim, coef_kind)
    state = smooth_state(model.grid, model, seed=31, amp=0.15)
    dt = 0.2 * stability_limit(state, model)
    new, ref = state, state.replace()
    for step in range(3):
        new = step_rk4(new, model, dt)
        ref = _reference_step(ref, model, dt)
        _assert_same_bits(new, ref, step)


@pytest.mark.parametrize("route", ["slots", "pack"])
@pytest.mark.parametrize("family, dim, coef_kind", CASES)
def test_rhs_matches_the_reference_kernel(family, dim, coef_kind, route):
    model = model_of(family, dim, coef_kind)
    base = smooth_state(model.grid, model, seed=32, amp=0.15)

    def fresh():
        if route == "slots":
            return State(grid=base.grid, m=base.m.copy(), rho=base.rho.copy(),
                         ctilde=base.ctilde.copy(), sigma=base.sigma.copy())
        return State(base.grid, packed=base.packed.copy())

    for name, rhs, flags in (("ideal", ideal_rhs, dict(dissipative=False)),
                             ("dissipative", dissipative_rhs, dict(ideal=False)),
                             ("total", total_rhs, {})):
        _assert_same_bits(rhs(fresh(), model),
                          _reference_tendencies(fresh(), model, **flags), name)


@pytest.mark.parametrize("members", [None, 3], ids=["one", "batch"])
@pytest.mark.parametrize("family, dim, coef_kind", CASES)
def test_a_state_and_a_stage_fill_the_same_bits(family, dim, coef_kind, members):
    # the two routes of the one fill call: State.derived for a state, and
    # _thermo on a Derived of the pack for an RK4 stage, which has no State
    model = model_of(family, dim, coef_kind)
    seed = 38 if members is None else np.arange(38, 38 + members)
    packed = smooth_state(model.grid, model, seed=seed, amp=0.15).packed
    state = State(model.grid, packed=packed)
    stage = Derived(grid=model.grid, packed=packed, model=model)
    _thermo(stage)
    _assert_same_bits(total_rhs(state, model), FunctionalGradient(packed=_tendencies(stage)),
                      "total_rhs")
    # the rhs resolved a callable kappa and dcoef on both
    fields = [{name: tuple(vars(value).values()) if isinstance(value, ThermoPoint) else value
               for name, value in vars(d).items() if name != "owner"}
              for d in (state.derived(model), stage)]
    assert fields[0].keys() == fields[1].keys()
    for name, value in fields[0].items():
        other = fields[1][name]
        if name in ("grid", "packed", "model"):
            assert value is other, name
        elif isinstance(value, tuple):
            assert len(value) == len(other), name
            assert all(np.array_equal(a, b) for a, b in zip(value, other)), name
        else:
            assert np.array_equal(value, other), name


# ------------------------------------------------------------ pack invariants

@pytest.mark.parametrize("dim", [1, 2])
def test_stage_state_shares_memory_with_its_pack(dim):
    model = model_of("CHNS1", dim)
    state = smooth_state(model.grid, model, seed=33)
    k = total_rhs(state, model)
    assert np.shares_memory(k.rho, k.packed)
    stage = State(state.grid, packed=state.packed + 1e-4 * k.packed)
    assert np.array_equal(stage.packed, state.packed + 1e-4 * k.packed)
    for i, slot in enumerate(SLOTS[1:]):
        assert np.shares_memory(getattr(stage, slot), stage.packed)
        assert np.array_equal(getattr(stage, slot), stage.packed[dim + i])
    assert np.shares_memory(stage.m, stage.packed)
    assert stage.m.shape == (dim,) + model.grid.shape
    wrapped = State(stage.grid, packed=stage.packed)
    assert wrapped.packed is stage.packed


def test_replace_carries_no_stale_pack():
    model = model_of("CHE1", 1)
    st = smooth_state(model.grid, model, seed=34)
    new = st.rho * 1.5
    replaced = st.replace(rho=new)
    assert np.array_equal(replaced.packed[1], new)
    assert np.array_equal(replaced.rho, new)
    assert not np.shares_memory(replaced.packed, st.packed)
    assert np.array_equal(replaced.sigma, st.sigma)
    # a pack and a field together would be ambiguous
    with pytest.raises(TypeError):
        dataclasses.replace(st, rho=new)


def test_replace_on_a_member_batch_matches_the_single_states():
    model = model_of("CHNS1", 1)
    seeds = np.array([3, 17, 40])
    batch = smooth_state(model.grid, model, seed=seeds)
    sigma = batch.sigma * 1.01
    replaced = batch.replace(sigma=sigma)
    replaced.validate(model)
    for i, seed in enumerate(seeds):
        single = smooth_state(model.grid, model, seed=int(seed)).replace(sigma=sigma[i])
        assert np.array_equal(replaced.packed[:, i], single.packed), i


@pytest.mark.parametrize("dim", [1, 2])
def test_fields_that_do_not_fit_the_grid_raise(dim):
    model = model_of("GNS", dim)
    fine = Grid(dim=dim, n=(32,) * dim, length=(1.0,) * dim)
    st = smooth_state(fine, dataclasses.replace(model, grid=fine), seed=36)
    # 32-cell fields broadcast among themselves, but not onto 16 cells
    with pytest.raises(ValueError):
        State(model.grid, m=st.m, rho=st.rho, ctilde=st.ctilde, sigma=st.sigma)
    if dim == 2:  # one momentum component on a 2D grid
        with pytest.raises(ValueError):
            State(fine, m=st.m[:1], rho=st.rho, ctilde=st.ctilde, sigma=st.sigma)


def test_state_stays_frozen_and_keeps_its_lazy_fields():
    model = model_of("GE", 1)
    st = smooth_state(model.grid, model, seed=35)
    assert st.v is st.v and st.derived(model).eos is st.derived(model).eos
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.rho = st.rho * 2.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_component_sums_match_the_reductions(dim):
    rng = np.random.default_rng(dim)
    for shape in [(7,), (16,), (9, 5)]:
        scale = 10.0 ** rng.integers(-6, 6, size=(dim, dim) + shape)
        x = rng.standard_normal((dim, dim) + shape) * scale
        assert np.array_equal(_csum(x[0]), x[0].sum(axis=0))
        assert np.array_equal(_pair_sum(x), x.sum(axis=(0, 1)))
        assert np.array_equal(_csum(x.reshape((-1,) + shape)), x.sum(axis=(0, 1)))
        assert np.array_equal(_trace(x), x.trace())


def _arrays_held(d):
    """The arrays a Derived holds, inside its tuples and its EOS point too."""
    for value in vars(d).values():
        items = vars(value).values() if isinstance(value, ThermoPoint) else (
            value if isinstance(value, tuple) else (value,))
        yield from (x for x in items if isinstance(x, np.ndarray))


@pytest.mark.parametrize("dim", [1, 2], ids=["1D", "2D-fourfold"])
def test_a_step_runs_each_pass_once_per_stage_state(monkeypatch, dim):
    # chained steps: the EOS kernel and the kernel pass run once per filled
    # pack (stages 2-4 on their own fields and the step's end through its
    # state's Derived, which k1 of the next step reads: 4 a step);
    # only the state returned is a State and only k1 a FunctionalGradient,
    # and its Derived keeps no (dim + 3)-slot copy of its pack
    model = model_of("CHNS1", dim)
    state = step_rk4(smooth_state(model.grid, model, seed=37), model, 1e-4)
    plain_eos, plain_kernel = functionals._eos, functionals._kernel
    plain_init = functionals._Pack.__init__
    eos_calls, passes, built = [], [], Counter()

    def eos(*args):
        eos_calls.append(1)
        return plain_eos(*args)

    def kernel(f):
        passes.append((f, f.packed))  # holds each stage pack alive, so ids differ
        return plain_kernel(f)

    def init(self, *args, **kwargs):
        built[type(self).__name__] += 1
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(functionals, "_eos", eos)
    monkeypatch.setattr(functionals, "_kernel", kernel)
    monkeypatch.setattr(functionals._Pack, "__init__", init)
    steps, ends = 3, []
    for _ in range(steps):
        state = step_rk4(state, model, 1e-4)
        ends.append(state)
    assert len(eos_calls) == 4 * steps
    assert len(passes) == 4 * steps and len({id(p) for _, p in passes}) == 4 * steps
    assert built == {"State": steps, "FunctionalGradient": steps}
    derived = [f for f, _ in passes if any(f is end.derived(model) for end in ends)]
    assert len(derived) == steps  # a state's, not a stage's
    for d in derived:
        copies = [x.shape for x in _arrays_held(d)
                  if x.shape == d.packed.shape and x.base is None and x is not d.packed]
        assert copies == []


def test_a_coefficient_of_the_temperature_reads_the_fill_it_is_called_in(monkeypatch):
    # kappa(T) reads T off the fill's own fields, the same for a state and
    # for a stage of the same pack, so a step runs one kernel pass per
    # filled pack (4), and kappa is called once in each
    calls = []

    def kappa(f, model):
        calls.append(f)
        return 0.02 * f.eos.T[None, None]

    base = model_of("CHNS1", 1)
    model = dataclasses.replace(base, transport=dataclasses.replace(base.transport, kappa=kappa))
    packed = smooth_state(model.grid, model, seed=39, amp=0.15).packed
    stage = Derived(grid=model.grid, packed=packed, model=model)
    _thermo(stage)
    _assert_same_bits(total_rhs(State(model.grid, packed=packed), model),
                      FunctionalGradient(packed=_tendencies(stage)), "total_rhs")
    state = step_rk4(State(model.grid, packed=packed), model, 1e-4)
    plain_kernel, passes = functionals._kernel, []

    def kernel(f):
        passes.append(f)
        return plain_kernel(f)

    monkeypatch.setattr(functionals, "_kernel", kernel)
    calls.clear()
    steps = 3
    for _ in range(steps):
        state = step_rk4(state, model, 1e-4)
    assert len(passes) == 4 * steps
    assert [id(f) for f in calls] == [id(f) for f in passes]


# Python frames of the package per RK4 stage: what is left of a stage's
# object scaffolding once the stages run on packs (the object stage took
# 27.25 and 55.25; the pack stage with the eager fill takes 10.75 and, with
# no sigma^a pullback, 28.75)
FRAME_BUDGET = {"GE": 11, "CHNS1": 29}


@pytest.mark.parametrize("family", sorted(FRAME_BUDGET))
def test_a_stage_stays_within_its_frame_budget(family):
    grid = Grid(dim=1, n=(64,), length=(1.0,))
    model = model_for(family, grid)
    # a first step makes the grid's slice plans and the models' constants
    state = step_rk4(smooth_state(grid, model, seed=12), model, 1e-4)
    src = os.path.dirname(functionals.__file__) + os.sep
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            calls[frame.f_code.co_name] += 1

    steps = 10
    sys.setprofile(profile)
    try:
        for _ in range(steps):
            state = step_rk4(state, model, 1e-4)
    finally:
        sys.setprofile(None)
    assert sum(calls.values()) / (4 * steps) <= FRAME_BUDGET[family], calls

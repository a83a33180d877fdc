"""Time integration: RK4 order, admissibility guards, diagnostics."""

import re
import warnings

import numpy as np
import pytest

from metriflow import (FAMILIES, Grid, IntegrationError, ModelConfig,
                       TransportCoefficients, diagnostics, dissipative_rhs, entropy,
                       entropy_production_rate, eval_eos, ideal_rhs, integrate,
                       smooth_state, stability_limit, step_rk4, total_rhs)
from metriflow.functionals import State
from metriflow.scenarios import make_scenario
from conftest import model_of

GRID = Grid(dim=1, n=(32,), length=(1.0,))
GE = ModelConfig(family="GE", grid=GRID)
GNS = ModelConfig(family="GNS", grid=GRID,
                  transport=TransportCoefficients(eta=0.01, zeta=0.0,
                                                  kappa=0.02, dcoef=0.0))


def rest_state(grid, rho=1.0, c=0.0, s=0.0):
    r = np.full(grid.shape, rho)
    return State(grid=grid, m=np.zeros((grid.dim,) + grid.shape), rho=r,
                 ctilde=c * r, sigma=s * r)


def test_a_stage_with_nonpositive_rho_fails_naming_the_stage(monkeypatch):
    # k1 takes stage 2 (at dt / 2 = 0.5) to rho = 0 in one cell and -1e-3 in
    # another: the stage's one rho check fails, before any division by rho
    state = rest_state(GRID)
    k1 = np.zeros(state.packed.shape)
    k1[1, 3], k1[1, 7] = -2.0, -2.002
    monkeypatch.setattr("metriflow.dynamics.total_rhs",
                        lambda st, model: State(GRID, packed=k1.copy()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="at stage 2: rho must be positive") as info:
            step_rk4(state, GE, 1.0, step_index=5)
    assert info.value.step == 5


def test_total_rhs_reduces_to_ideal_for_ge():
    state = smooth_state(GRID, GE, seed=1)
    a = total_rhs(state, GE)
    b = ideal_rhs(state, GE)
    for slot in ("m", "rho", "ctilde", "sigma"):
        assert np.array_equal(getattr(a, slot), getattr(b, slot))


@pytest.mark.parametrize("coef_kind", ["scalar", "matrix", "callable"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_total_rhs_is_ideal_plus_dissipative(family, dim, coef_kind):
    model = model_of(family, dim, coef_kind)
    state = smooth_state(model.grid, model, seed=21)
    total = total_rhs(state.replace(), model)
    ideal = ideal_rhs(state.replace(), model)
    diss = dissipative_rhs(state.replace(), model)
    for slot in ("m", "rho", "ctilde", "sigma"):
        a, b = getattr(ideal, slot), getattr(diss, slot)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
        assert np.abs(getattr(total, slot) - (a + b)).max() <= 1e-13 * scale


@pytest.mark.parametrize("dim", [1, 2])
def test_total_rhs_deriv_call_count(dim, deriv_calls):
    model = model_of("CHNS1", dim)
    fresh = smooth_state(model.grid, model, seed=22).replace()
    diagnosed = fresh.replace()
    diagnostics(diagnosed, model)
    deriv_calls.clear()
    # a fresh state takes one call per axis for each of four stages: grad c,
    # div(u) in mu_Gamma, grad (v, H_rho, mu_Gamma, T) and the one below
    total_rhs(fresh, model)
    assert len(deriv_calls) == 4 * dim
    # a diagnosed state already holds the first three (the production reads
    # the third), so the kernel takes one call per axis for its last stage,
    # the flux divergence
    deriv_calls.clear()
    total_rhs(diagnosed, model)
    assert len(deriv_calls) == dim


@pytest.mark.parametrize("name, calls", [
    ("spinodal1d", 4), ("spinodal2d", 8), ("heat_relax", 2), ("shear_decay", 4),
    ("capillary_probe", 4)])
def test_scenario_rhs_deriv_call_count(name, calls, deriv_calls):
    # on a fresh state: the scenario's own state was filled when validated
    scen = make_scenario(name, seed=3)
    state = State(scen.state.grid, packed=scen.state.packed)
    deriv_calls.clear()
    total_rhs(state, scen.model)
    assert len(deriv_calls) == calls


def test_fixed_point_is_bitwise_stationary():
    state = rest_state(GRID, rho=1.0, c=0.0, s=0.2)
    out = step_rk4(state, GE, dt=1e-3)
    assert np.array_equal(out.m, state.m)
    assert np.array_equal(out.rho, state.rho)
    assert np.array_equal(out.ctilde, state.ctilde)
    assert np.array_equal(out.sigma, state.sigma)


def test_rk4_self_convergence_order():
    # halve dt repeatedly on a smooth run; Richardson differences must
    # shrink at fourth order
    grid = Grid(dim=1, n=(64,), length=(1.0,))
    model = ModelConfig(family="GE", grid=grid)
    state0 = smooth_state(grid, model, seed=2, amp=0.05)
    t_end = 0.05
    finals = []
    for n_steps in (10, 20, 40, 80):
        st = integrate(state0, model, t_end / n_steps, n_steps)
        finals.append(np.concatenate([st.m.ravel(), st.rho.ravel(),
                                      st.ctilde.ravel(), st.sigma.ravel()]))
    errs = [np.abs(a - b).max() for a, b in zip(finals[:-1], finals[1:])]
    orders = [np.log2(e1 / e2) for e1, e2 in zip(errs[:-1], errs[1:])]
    assert min(orders) >= 3.9


def test_mass_is_conserved_over_a_run():
    state = smooth_state(GRID, GNS, seed=3)
    mass0 = GRID.integrate(state.rho)
    final = integrate(state, GNS, dt=2e-4, n_steps=200)
    assert abs(GRID.integrate(final.rho) - mass0) <= 1e-12 * abs(mass0)


def test_integration_error_carries_step_index():
    # a huge dt destroys admissibility; the failure must report which step,
    # after the warning that dt exceeds the stability estimate
    state = smooth_state(GRID, GNS, seed=4)
    with pytest.raises(IntegrationError) as excinfo, \
            pytest.warns(RuntimeWarning, match="stability limit"):
        integrate(state, GNS, dt=10.0, n_steps=5)
    assert excinfo.value.step == 1


def test_integrate_rejects_bad_arguments():
    state = rest_state(GRID)
    with pytest.raises(ValueError):
        integrate(state, GE, dt=-1e-3, n_steps=10)
    with pytest.raises(ValueError):
        integrate(state, GE, dt=1e-3, n_steps=-1)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_integrate_rejects_a_non_finite_dt_naming_it(dt):
    sc = make_scenario("heat_relax", seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt must be finite and positive") as info:
            integrate(sc.state, sc.model, dt=dt, n_steps=3)
    assert f"dt = {dt}" in str(info.value)


def test_integrate_warns_when_dt_exceeds_limit():
    state = smooth_state(GRID, GNS, seed=5)
    limit = stability_limit(state, GNS)
    with pytest.warns(RuntimeWarning):
        integrate(state, GNS, dt=2.0 * limit, n_steps=0)


def test_stability_limit_counts_the_largest_eigenvalue_of_kappa():
    # kappa = [[1, 1], [1, 1]] has eigenvalue 2 and largest entry 1; the
    # bound counts it, and the field of it, as the isotropic kappa = 2
    grid = Grid(dim=2, n=(16, 16), length=(1.0, 1.0))

    def model(kappa):
        return ModelConfig(family="GNS", grid=grid, transport=TransportCoefficients(
            eta=0.01, zeta=0.0, kappa=kappa, dcoef=0.0))

    aniso = model(np.ones((2, 2)))
    state = smooth_state(grid, aniso, seed=5)
    limit = stability_limit(state, aniso)
    assert limit == stability_limit(state, model(2.0)) < 0.003
    field = model(lambda st, m: np.ones((2, 2) + grid.shape))
    assert stability_limit(state, field) == limit
    with pytest.warns(RuntimeWarning, match="exceeds the estimated stability limit"):
        integrate(state, aniso, dt=0.003, n_steps=0)


def test_integrate_callback_sees_every_step():
    state = smooth_state(GRID, GE, seed=6)
    seen = []
    integrate(state, GE, dt=1e-4, n_steps=7, callback=lambda i, st: seen.append(i))
    assert seen == list(range(1, 8))


def test_stability_limit_scales_with_resolution():
    st32 = smooth_state(GRID, GNS, seed=7)
    g64 = Grid(dim=1, n=(64,), length=(1.0,))
    m64 = ModelConfig(family="GNS", grid=g64, transport=GNS.transport)
    st64 = smooth_state(g64, m64, seed=7)
    # conduction-limited: halving h should quarter the limit (approximately)
    ratio = stability_limit(st32, GNS) / stability_limit(st64, m64)
    assert 2.0 < ratio < 8.0


def test_diagnostics_uniform_state():
    st = rest_state(GRID, rho=1.5, c=0.2, s=0.1)
    d = diagnostics(st, GNS, t=0.3)
    pt = eval_eos(1.5, 0.1, 0.2, GNS.eos)
    assert d.t == 0.3
    assert d.mass == pytest.approx(1.5, rel=1e-14)
    assert d.momentum == (0.0,)
    assert d.concentration == pytest.approx(0.3, rel=1e-13)
    assert d.energy == pytest.approx(1.5 * float(pt.u), rel=1e-13)
    assert d.entropy == pytest.approx(0.15, rel=1e-13)
    assert d.entropy_production == 0.0
    assert d.temperature_min == pytest.approx(float(pt.T), rel=1e-14)


def test_diagnostics_row_layout():
    st = rest_state(GRID)
    row = diagnostics(st, GE, t=1.0).row()
    assert len(row) == 9
    assert row[0] == 1.0
    assert row[3] == 0.0  # Py placeholder in 1D


def test_entropy_production_column_positive_for_dissipative_run():
    state = smooth_state(GRID, GNS, seed=8)
    d = diagnostics(state, GNS)
    assert d.entropy_production > 0.0


def test_diagnostics_of_a_member_batch_raise_naming_its_shape():
    batch = smooth_state(GRID, GNS, seed=np.array([3, 4]))
    with pytest.raises(ValueError, match=re.escape("pack shape (4, 2, 32)")):
        diagnostics(batch, GNS)


@pytest.mark.parametrize("scenario", ["heat_relax", "spinodal1d"], ids=["GNS", "CHNS1"])
@pytest.mark.parametrize("call", [
    lambda st, model: step_rk4(st, model, 1e-4),
    lambda st, model: stability_limit(st, model),
    lambda st, model: integrate(st, model, 1e-4, 2),
], ids=["step_rk4", "stability_limit", "integrate"])
def test_an_empty_batch_fails_as_validate_fails_it(call, scenario):
    # validate's error, not numpy's from deep inside the kernel or a reduction
    model = make_scenario(scenario, seed=0).model
    shape = (model.grid.dim + 3, 0) + model.grid.shape
    with pytest.raises(ValueError, match=re.escape(
            f"an empty batch, pack shape {shape}, has no state")):
        call(State(model.grid, packed=np.ones(shape)), model)


# the roundoff of S = h sum sigma is about eps h sum |sigma| times the depth
# of the sum (log2 of 4096 cells is 12); S(n + 1) and S(n) are two such
# sums, and the update of sigma and the stage sums add a few eps more: 64
# covers them, fixed before any gap was measured
BUDGET_ULPS = 64


@pytest.mark.parametrize("name, steps", [("spinodal1d", 400), ("spinodal2d", 40)])
def test_each_step_changes_S_by_its_stages_production(name, steps):
    # S is the integral of sigma, linear in the pack, and every part of
    # sigma's tendency but the production is a divergence, so one RK4 step
    # moves S by dt (P1 + 2 P2 + 2 P3 + P4) / 6, P_i the production
    # integral of stage i, to the roundoff of the sums
    sc = make_scenario(name, seed=3)
    model, state, grid, dt = sc.model, sc.state, sc.state.grid, sc.dt
    half, full = np.array(0.5 * dt), np.array(dt)
    bound = BUDGET_ULPS * np.finfo(float).eps * grid.cell_volume
    for step in range(steps):
        prods, k = [], None
        for h in (None, half, half, full):  # the stages of step_rk4
            stage = state if h is None else State(grid, packed=h * k + state.packed)
            prods.append(entropy_production_rate(stage, model)[1])
            k = total_rhs(stage, model).packed
        new = step_rk4(state, model, dt)
        p1, p2, p3, p4 = prods
        gap = entropy(new, model) - entropy(state, model) - dt * (p1 + 2 * p2 + 2 * p3 + p4) / 6
        assert abs(gap) <= bound * np.abs(new.sigma).sum(), (step, gap)
        state = new


def _stage_2_cell(state, model, dt):
    """(value, cell) of rho at the first cell, C order, where stage 2 of a
    step of dt from state has rho <= 0."""
    stage = np.array(0.5 * dt) * total_rhs(state, model).packed + state.packed
    rho = stage[state.grid.dim]
    cell = tuple(int(i) for i in np.unravel_index(np.argmax(rho <= 0), rho.shape))
    return float(rho[cell]), cell


@pytest.mark.parametrize("dim, members", [(1, None), (2, 3)], ids=["1D", "2D-members"])
def test_a_failed_stage_names_the_field_and_its_first_bad_cell(dim, members):
    # a strong compression wave: k1 drives rho below 0 at stage 2 of the
    # first step; in the member batch only member 1 carries it
    model = model_of("CHNS1", dim)
    grid = model.grid
    seed = 4 if members is None else np.arange(4, 4 + members)
    state = smooth_state(grid, model, seed=seed)
    packed = state.packed.copy()
    x = grid.coords()[0]
    wave = 40.0 * np.sin(2.0 * np.pi * x / grid.length[0]) * packed[dim]
    if members is None:
        packed[0] += wave
    else:
        packed[0, 1] += wave[1]
    state = State(grid, packed=packed)
    value, cell = _stage_2_cell(state, model, 0.05)
    assert value <= 0 and (members is None or cell[0] == 1)
    message = f"at stage 2: rho must be positive everywhere: rho = {value} at cell {cell}"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # dt is past the stability limit
        with pytest.raises(IntegrationError, match=re.escape(message)) as info:
            integrate(state, model, 0.05, 3)
    assert info.value.step == 1

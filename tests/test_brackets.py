"""Poisson bracket families, the reference gradient map, and the ideal tendencies."""

import dataclasses

import numpy as np
import pytest

from metriflow import (FunctionalGradient, Grid, ModelConfig, SurfaceCoefficients,
                       UnsupportedFamilyError,
                       capillary_force, entropy, grad_H, grad_S, hamiltonian,
                       ideal_rhs, parse_anisotropy, poisson_bracket, smooth_state)
from metriflow.fields import random_gradient
from metriflow.functionals import DIFFUSE_FAMILIES, FAMILIES, State, state_from_sigma_a
from metriflow.scenarios import analytic_capillary_force, double_tanh_profile
from metriflow.verification import (CASIMIR_SIZES, FLOOR, _batch_of_one,
                                    _judge_refinement, model_for)
from conftest import transform_gradients, untransform_gradients

GRID = Grid(dim=1, n=(32,), length=(1.0,))


@pytest.mark.parametrize("family", FAMILIES)
def test_self_bracket_vanishes(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=2)
    for trial in range(20):
        F = random_gradient(GRID, seed=40 + trial)
        assert abs(poisson_bracket(F, F, state, model)) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_antisymmetry(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=2)
    rng = np.random.default_rng(3)
    for trial in range(20):
        F = random_gradient(GRID, seed=int(rng.integers(1 << 30)))
        G = random_gradient(GRID, seed=int(rng.integers(1 << 30)))
        fg = poisson_bracket(F, G, state, model)
        gf = poisson_bracket(G, F, state, model)
        assert abs(fg + gf) <= 1e-12 * max(1.0, abs(fg))


@pytest.mark.parametrize("family", FAMILIES)
def test_bilinearity(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=2)
    F = random_gradient(GRID, seed=60)
    G = random_gradient(GRID, seed=61)
    K = random_gradient(GRID, seed=62)
    alpha = -1.73
    lhs = poisson_bracket(alpha * F + G, K, state, model)
    rhs = alpha * poisson_bracket(F, K, state, model) \
        + poisson_bracket(G, K, state, model)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_entropy_casimir_converges(family):
    residuals = []
    for n in (16, 32, 64):
        g = Grid(dim=1, n=(n,), length=(1.0,))
        model = model_for(family, grid=g)
        state = smooth_state(g, model, seed=4, kmax=2)
        Sg = grad_S(state, model)
        acc = 0.0
        for trial in range(10):
            F = random_gradient(g, seed=80 + trial, kmax=2)
            acc += abs(poisson_bracket(F, Sg, state, model)) \
                / (F.norm(g) * max(Sg.norm(g), 1.0))
        residuals.append(acc / 10)
    if max(residuals) > 1e-12:
        assert np.log2(residuals[-2] / residuals[-1]) >= 1.9


# --------------------------------------------------------------- transforms

@pytest.mark.parametrize("family", ["CHE0", "CHE1", "CHNS0", "CHNS1"])
def test_transform_untransform_roundtrip(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=5)
    F = random_gradient(GRID, seed=90)
    back = untransform_gradients(transform_gradients(F, state, model), state, model)
    for slot in ("m", "rho", "ctilde", "sigma"):
        assert np.allclose(getattr(back, slot), getattr(F, slot),
                           rtol=0, atol=1e-13)


def test_transform_passes_m_and_sigma_through():
    model = model_for("CHNS1", GRID)
    state = smooth_state(GRID, model, seed=5)
    F = random_gradient(GRID, seed=91)
    out = transform_gradients(F, state, model)
    assert np.array_equal(out.m, F.m)
    assert np.array_equal(out.sigma, F.sigma)


def test_transform_identity_without_lambda_s():
    model = ModelConfig(family="CHE1", grid=GRID,
                        surface=SurfaceCoefficients(lambda_u=1e-3, lambda_s=0.0))
    state = smooth_state(GRID, model, seed=5)
    F = random_gradient(GRID, seed=92)
    out = transform_gradients(F, state, model)
    for slot in ("m", "rho", "ctilde", "sigma"):
        assert np.allclose(getattr(out, slot), getattr(F, slot), atol=1e-15)


def test_transform_rejects_sharp_families():
    model = model_for("GNS", GRID)
    state = smooth_state(GRID, model, seed=5)
    F = random_gradient(GRID, seed=93)
    with pytest.raises(UnsupportedFamilyError):
        transform_gradients(F, state, model)
    with pytest.raises(UnsupportedFamilyError):
        untransform_gradients(F, state, model)


# ----------------------------------------------------------- capillary force

def test_capillary_force_zero_for_sharp_families():
    model = model_for("GNS", GRID)
    state = smooth_state(GRID, model, seed=6)
    assert np.all(capillary_force(state, model) == 0.0)


def test_capillary_force_nonzero_on_1d_interface():
    g = Grid(dim=1, n=(256,), length=(1.0,))
    model = model_for("CHE1", grid=g)
    x = g.coords()[0]
    w = 24.0 * g.h[0]
    c = double_tanh_profile(x, 1.0, w)
    state = State(grid=g, m=g.zeros_vector(), rho=np.ones(g.shape),
                  ctilde=c, sigma=g.zeros())
    derived = state.derived(model)
    force = capillary_force(state, model)
    assert np.abs(force).max() > 1e-3
    assert state.derived(model) is derived  # the bare model's fields live elsewhere


def test_capillary_force_matches_analytic_profile():
    g = Grid(dim=1, n=(512,), length=(1.0,))
    model = model_for("CHE1", grid=g)
    x = g.coords()[0]
    w = 24.0 * g.h[0]
    c = double_tanh_profile(x, 1.0, w)
    # s^a = 0: sigma is the surface entropy alone
    state = state_from_sigma_a(g, State(grid=g, m=g.zeros_vector(), rho=np.ones(g.shape),
                                        ctilde=c, sigma=g.zeros()).packed, model)
    from metriflow.functionals import thermo_point
    from metriflow.thermo import lambda_f
    lam_f = float(np.asarray(lambda_f(
        np.asarray(thermo_point(state, model).T), model.surface)).ravel()[0])
    exact = analytic_capillary_force(x, 1.0, w, lam_f)
    force = capillary_force(state, model)[0]
    scale = np.abs(exact).max()
    assert np.abs(force - exact).max() <= 0.01 * scale


# -------------------------------------------------------------- ideal rhs

@pytest.mark.parametrize("family", FAMILIES)
def test_uniform_translation_is_equilibrium(family):
    model = model_for(family, GRID)
    rho = np.full(GRID.shape, 1.3)
    state = State(grid=GRID, m=0.4 * rho[None, :], rho=rho,
                  ctilde=0.2 * rho, sigma=0.1 * rho)
    rhs = ideal_rhs(state, model)
    for slot in ("m", "rho", "ctilde", "sigma"):
        assert np.abs(getattr(rhs, slot)).max() <= 1e-13


@pytest.mark.parametrize("family", FAMILIES)
def test_mass_and_concentration_tendencies_telescope(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=7)
    rhs = ideal_rhs(state, model)
    assert abs(GRID.integrate(rhs.rho)) <= 1e-13
    assert abs(GRID.integrate(rhs.ctilde)) <= 1e-13


@pytest.mark.parametrize("family", ["GE", "CHE0", "CHE1"])
def test_ideal_entropy_rate_is_exactly_zero(family):
    # divergence form: dS/dt, the integral of sigma's tendency, telescopes away
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=8)
    Sg = grad_S(state, model)
    rate = Sg.dot(ideal_rhs(state, model), GRID)
    assert abs(rate) <= 1e-13


@pytest.mark.parametrize("family", ["GE", "CHE0", "CHE1", "CHNS1"])
def test_bracket_generates_ideal_rhs_at_second_order(family):
    # F . ideal_rhs - {F, H} is at roundoff on every grid: the kernel is the
    # bracket's generator, momentum slot included
    residuals = []
    for n in CASIMIR_SIZES:
        grid = Grid(dim=1, n=(n,), length=(1.0,))
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=4, kmax=2)
        F = random_gradient(grid, 900 + np.arange(8), kmax=2)
        lhs = F.dot(_batch_of_one(ideal_rhs(state, model)), grid)
        rhs = poisson_bracket(F, _batch_of_one(grad_H(state, model)), state, model)
        residuals.append(float(np.abs(lhs - rhs).max() / np.abs(rhs).max()))
    assert max(residuals) <= FLOOR, residuals


def test_ideal_energy_rate_second_order():
    # grad H . ideal_rhs is {H, H}, zero by antisymmetry: at roundoff on every grid
    residuals = []
    for n in (16, 32, 64):
        g = Grid(dim=1, n=(n,), length=(1.0,))
        model = model_for("CHE1", grid=g)
        state = smooth_state(g, model, seed=9, kmax=2)
        from metriflow import grad_H
        Hg = grad_H(state, model)
        rhs = ideal_rhs(state, model)
        residuals.append(abs(Hg.dot(rhs, g)) / (Hg.norm(g) * rhs.norm(g)))
    assert max(residuals) <= FLOOR, residuals


def test_bracket_generates_ideal_rhs():
    # d/dt F = {F, H}: pairing a random gradient with the tendencies must
    # equal the bracket of that gradient with grad H
    from metriflow import grad_H
    for family in ("GE", "CHE1", "CHE0"):
        model = model_for(family, GRID)
        state = smooth_state(GRID, model, seed=10)
        Hg = grad_H(state, model)
        rhs = ideal_rhs(state, model)
        for trial in range(5):
            F = random_gradient(GRID, seed=700 + trial)
            lhs = F.dot(rhs, GRID)
            rhs_b = poisson_bracket(F, Hg, state, model)
            assert lhs == pytest.approx(rhs_b, rel=1e-12, abs=1e-15)


# ------------------------------------------------- the pullback at roundoff

CASES = {"1d": (Grid(dim=1, n=(32,), length=(1.0,)), "iso"),
         "2d-fourfold": (Grid(dim=2, n=(16,), length=(1.0,)), "fourfold:0.05")}


def case_model(family, case):
    grid, gamma = CASES[case]
    return dataclasses.replace(model_for(family, grid), anisotropy=parse_anisotropy(gamma))


def basis_batch(grid):
    """One trial per slot and cell, valued 1/cell_volume, so that the
    trial's pairing with a field picks out that field's slot at that cell;
    trial k is slot k // ncells, cell k % ncells."""
    n = (grid.dim + 3) * int(np.prod(grid.shape))
    eye = np.eye(n) / grid.cell_volume
    return FunctionalGradient(
        packed=np.moveaxis(eye.reshape((n, grid.dim + 3) + grid.shape), 1, 0))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_bracket_generates_scalar_tendencies_at_roundoff(family, case):
    # {z_k, H} for every slot and cell in one call is the generated tendency,
    # and the kernel's in every slot: rho, ctilde and sigma to 1e-14,
    # momentum, whose H_rho and mu_Gamma the kernel forms itself, to 1e-12
    model = case_model(family, case)
    grid = model.grid
    state = smooth_state(grid, model, seed=11, kmax=2)
    generated = poisson_bracket(basis_batch(grid), _batch_of_one(grad_H(state, model)),
                                state, model).reshape((grid.dim + 3,) + grid.shape)
    rhs = ideal_rhs(state, model)
    for k in range(grid.dim + 3):
        ref, tol = rhs.packed[k], 1e-12 if k < grid.dim else 1e-14
        assert np.abs(generated[k] - ref).max() <= tol * np.abs(ref).max(), k


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_the_kernel_pairs_with_the_brackets_gradient_of_H(family, case):
    # Derived.h_hat is grad H for a sharp family, bit for bit, and for a
    # diffuse one to roundoff, formed in fewer passes
    model = case_model(family, case)
    grid = model.grid
    state = smooth_state(grid, model, seed=11, kmax=2)
    Hg, h_hat = grad_H(state, model), state.derived(model).h_hat
    if not model.is_diffuse:
        assert np.array_equal(h_hat, Hg.packed)
        return
    ref = Hg.packed
    for k in range(grid.dim + 3):
        assert np.abs(h_hat[k] - ref[k]).max() <= 1e-14 * np.abs(ref[k]).max(), k


@pytest.mark.parametrize("dim, sizes", [(1, (16, 32, 64, 128)), (2, (16, 32, 64))],
                         ids=["1d", "2d-fourfold"])
@pytest.mark.parametrize("family", FAMILIES)
def test_ideal_momentum_rate_is_second_order(family, dim, sizes):
    # the price of the generated momentum slot: its total rate, relative to
    # the largest tendency, vanishes at O(h^2), not exactly
    residuals = []
    for n in sizes:
        grid = Grid(dim=dim, n=(n,) * dim, length=(1.0,) * dim)
        model = case_model(family, "1d" if dim == 1 else "2d-fourfold")
        model = dataclasses.replace(model, grid=grid)
        m_dot = ideal_rhs(smooth_state(grid, model, seed=4, kmax=2), model).m
        residuals.append(float(np.abs(grid.integrate(m_dot)).max() / np.abs(m_dot).max()))
    assert _judge_refinement(residuals)["passed"], residuals


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", DIFFUSE_FAMILIES)
def test_entropy_casimir_at_roundoff(family, case):
    # grad S is the unit sigma gradient, which the pairings annihilate
    # exactly
    model = case_model(family, case)
    grid = model.grid
    state = smooth_state(grid, model, seed=4)
    Sg = grad_S(state, model)
    F = random_gradient(grid, 80 + np.arange(16))
    ratios = np.abs(poisson_bracket(F, _batch_of_one(Sg), state, model)) \
        / (F.norm(grid) * Sg.norm(grid))
    assert ratios.max() <= 1e-14, ratios.max()

"""Equation-of-state tests against finite-difference and closed-form oracles."""

import numpy as np
import pytest

from metriflow import (AnisotropyFn, EosParams, Grid, ModelConfig, ParameterError, State,
                       SurfaceCoefficients, ThermoDomainError, eval_eos, grad_H, lambda_f,
                       smooth_state)

DEFAULTS = EosParams()


def fd_partial(fn, args, index, step=1e-6):
    """Central difference of fn w.r.t. args[index]."""
    lo = list(args)
    hi = list(args)
    lo[index] -= step
    hi[index] += step
    return (fn(*hi) - fn(*lo)) / (2.0 * step)


def test_reference_point_values():
    pt = eval_eos(1.0, 0.0, 0.0, DEFAULTS)
    assert pt.T == pytest.approx(1.0, abs=1e-14)
    assert pt.p == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert pt.mu == pytest.approx(0.0, abs=1e-14)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(21)
    u = lambda rho, s, c: eval_eos(rho, s, c, DEFAULTS).u
    for _ in range(30):
        rho = rng.uniform(0.4, 2.5)
        s = rng.uniform(-0.8, 0.8)
        c = rng.uniform(-1.5, 1.5)
        pt = eval_eos(rho, s, c, DEFAULTS)
        assert pt.T == pytest.approx(fd_partial(u, (rho, s, c), 1), rel=1e-7)
        assert pt.p == pytest.approx(rho ** 2 * fd_partial(u, (rho, s, c), 0), rel=1e-6)
        assert pt.mu == pytest.approx(fd_partial(u, (rho, s, c), 2), rel=1e-6, abs=1e-8)


def test_mu_vanishes_at_well_minima():
    for lam in (0.3, 1.0, 4.0):
        params = EosParams(lambda_V=lam)
        for c in (-1.0, 1.0):
            assert eval_eos(1.7, 0.2, c, params).mu == 0.0


def test_mu_is_cubic_minus_linear():
    c = np.linspace(-2.0, 2.0, 41)
    pt = eval_eos(1.0, 0.0, c, DEFAULTS)
    assert np.allclose(pt.mu, c ** 3 - c, rtol=0, atol=1e-14)


def test_nonpositive_density_rejected():
    with pytest.raises(ThermoDomainError):
        eval_eos(-1.0, 0.0, 0.0, DEFAULTS)
    with pytest.raises(ThermoDomainError):
        eval_eos(0.0, 0.0, 0.0, DEFAULTS).u


def test_nan_density_rejected():
    # NaN <= 0 is false, so the check must ask for rho > 0
    with pytest.raises(ThermoDomainError):
        eval_eos([1.0, np.nan], 0.0, 0.0, DEFAULTS)


def test_eos_param_validation():
    with pytest.raises(ValueError):
        EosParams(c_v=0.0)
    with pytest.raises(ValueError):
        EosParams(gamma_ad=1.0)
    with pytest.raises(ValueError):
        EosParams(lambda_V=-0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, name", [(EosParams, "c_v"), (EosParams, "gamma_ad"),
                                       (EosParams, "lambda_V"),
                                       (SurfaceCoefficients, "lambda_u"),
                                       (SurfaceCoefficients, "lambda_s"),
                                       (AnisotropyFn, "eps4")])
def test_non_finite_parameters_rejected_naming_them(cls, name, value):
    kind = {"kind": "fourfold"} if cls is AnisotropyFn else {}
    with pytest.raises(ParameterError, match=name) as info:
        cls(**kind, **{name: value})
    assert info.value.name == name


def test_lambda_f_arithmetic():
    coeffs = SurfaceCoefficients(lambda_u=2.0, lambda_s=1.0)
    assert lambda_f(1.0, coeffs) == 1.0


def test_lambda_f_temperature_independent_limit():
    coeffs = SurfaceCoefficients(lambda_u=0.7, lambda_s=0.0)
    T = np.array([0.5, 1.0, 3.0])
    assert np.all(lambda_f(T, coeffs) == 0.7)


def test_lambda_f_slope():
    coeffs = SurfaceCoefficients(lambda_u=2e-3, lambda_s=1e-3)
    d = (lambda_f(1.0 + 1e-6, coeffs) - lambda_f(1.0 - 1e-6, coeffs)) / 2e-6
    assert d == pytest.approx(-coeffs.lambda_s, abs=1e-8)


def modified_gibbs(rho, s, c, v):
    """The rho slot of grad_H on a uniform GE state: the modified specific
    Gibbs free energy u - T*s + p/rho - mu*c - |v|^2/2, the conjugate of rho
    in the density-variable entropy relation (v: a 2-vector)."""
    grid = Grid(dim=2, n=(4,), length=(1.0,))
    ones = np.ones(grid.shape)
    state = State(grid=grid, m=rho * np.asarray(v)[:, None, None] * ones,
                  rho=rho * ones, ctilde=rho * c * ones, sigma=rho * s * ones)
    return grad_H(state, ModelConfig(family="GE", grid=grid)).rho


def test_modified_gibbs_reference_point():
    # at (rho, s, c, v) = (1, 0, 0, 0) the double well contributes 1/4 to u,
    # so g = u + p/rho = 5/4 + 2/3 = 23/12
    g = modified_gibbs(1.0, 0.0, 0.0, np.zeros(2))
    assert g == pytest.approx(23.0 / 12.0, abs=1e-14)


def test_modified_gibbs_kinetic_shift():
    v1 = np.array([0.3, -0.4])
    g1 = modified_gibbs(1.2, 0.1, 0.5, v1)
    g2 = modified_gibbs(1.2, 0.1, 0.5, 2.0 * v1)
    # quadrupling the kinetic energy: g(2v) - g(v) = -(3/2)|v|^2
    assert g2 - g1 == pytest.approx(-1.5 * float(np.sum(v1 * v1)), rel=1e-12)


def test_eval_eos_broadcasts_fields():
    rho = np.full((4, 4), 1.1)
    s = np.linspace(-0.1, 0.1, 16).reshape(4, 4)
    c = np.zeros((4, 4))
    pt = eval_eos(rho, s, c, DEFAULTS)
    assert np.asarray(pt.T).shape == (4, 4)
    assert np.all(np.asarray(pt.p) > 0)


def _u_reference(rho, s, c, params):
    """thermal + 0.25 lambda_V (c^2 - 1)^2, written out as eval_eos evaluates it."""
    rho, s, c = (np.asarray(x, dtype=float) for x in (rho, s, c))
    thermal = params.c_v * rho ** (params.gamma_ad - 1.0) * np.exp(s / params.c_v)
    c2m1 = c * c - 1.0
    return thermal + 0.25 * params.lambda_V * c2m1 ** 2


def test_gibbs_energy_is_u_plus_p_over_rho_minus_s_T():
    rng = np.random.default_rng(24)
    params = EosParams(c_v=1.3, gamma_ad=1.4, lambda_V=0.7)
    rho, s, c = 1.0 + rng.random(16), rng.standard_normal(16), rng.standard_normal(16)
    pt = eval_eos(rho, s, c, params)
    ref = pt.u + pt.p / rho - s * pt.T
    assert np.abs(pt.g - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("shape", [(), (16,), (3, 16)], ids=["scalar", "field", "members"])
def test_u_read_later_equals_the_written_out_energy(shape):
    rng = np.random.default_rng(23)
    params = EosParams(c_v=1.3, gamma_ad=1.4, lambda_V=0.7)
    rho = 1.0 + 0.2 * rng.standard_normal(shape) ** 2
    s, c = rng.standard_normal(shape), rng.standard_normal(shape)
    if not shape:
        rho, s, c = float(rho), float(s), float(c)
    pt = eval_eos(rho, s, c, params)
    assert np.array_equal(pt.u, _u_reference(rho, s, c, params))
    assert np.shape(pt.u) == shape
    assert pt.u is pt.u  # computed once


def test_u_of_a_member_batch_is_each_members_u():
    grid = Grid(dim=1, n=(16,), length=(1.0,))
    model = ModelConfig(family="CHE1", grid=grid,
                        surface=SurfaceCoefficients(lambda_u=2e-3, lambda_s=1e-3))
    batch = smooth_state(grid, model, seed=np.arange(3))
    u = batch.derived(model).eos.u
    # the EOS reads s^a, the total entropy per unit mass less the surface part
    assert np.array_equal(u, _u_reference(batch.rho, batch.derived(model).s, batch.c, model.eos))
    for k in range(3):
        one = smooth_state(grid, model, seed=k)
        assert np.array_equal(u[k], one.derived(model).eos.u)

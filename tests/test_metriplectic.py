"""Metriplectic 4-bracket and its curvature, dissipative tendencies, Onsager blocks."""

import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from metriflow import (Grid, ModelConfig, ParameterError, TransportCoefficients,
                       UnsupportedFamilyError, diagnostics,
                       dissipative_rhs, entropy_production_rate, eval_eos,
                       grad_H, grad_S, kn_4bracket, lam4,
                       metriplectic_2bracket, onsager_fluxes, smooth_state, total_rhs)
from metriflow import metriplectic
from metriflow.fields import random_gradient
from metriflow.functionals import Derived, State
from metriflow.metriplectic import PSD_TOL, _pair_sum, _stress, validate_psd_matrix
from metriflow.verification import model_for

GRID = Grid(dim=1, n=(24,), length=(1.0,))


# ------------------------------------------------------- transport validation

def test_negative_viscosity_rejected():
    with pytest.raises(ValueError):
        TransportCoefficients(eta=-0.1)
    with pytest.raises(ValueError):
        TransportCoefficients(zeta=-1.0)


def test_matrix_coefficients_must_be_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
    with pytest.raises(ValueError):
        TransportCoefficients(kappa=bad)
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError):
        TransportCoefficients(dcoef=asym)


@pytest.mark.parametrize("name, value, match", [
    ("kappa", np.int64(-1), "nonnegative"), ("kappa", np.float32(-1.0), "nonnegative"),
    ("kappa", [[-1.0]], "positive semidefinite"), ("dcoef", [[1.0, 2.0], [0.0, 1.0]], "symmetric"),
    ("kappa", "x", "a number, a"), ("kappa", "1.5", "a number, a"), ("kappa", True, "a number, a"),
    ("dcoef", np.ones(3), "a number, a"),
    ("eta", "x", "a number"), ("zeta", np.eye(2), "a number")],
    ids=["int64", "float32", "list", "non_symmetric", "str", "numeric_str", "bool", "vector",
         "str_eta", "matrix_zeta"])
def test_coefficients_it_cannot_vouch_for_are_rejected_naming_them(name, value, match):
    with pytest.raises(ParameterError, match=match) as info:
        TransportCoefficients(**{name: value})
    assert info.value.name == name


@pytest.mark.parametrize("name", ["kappa", "dcoef"])
def test_a_matrix_coefficient_must_fit_the_grid(name):
    tr = TransportCoefficients(**{name: np.eye(2)})
    with pytest.raises(ParameterError, match="1 x 1 matrix on a 1D grid") as info:
        ModelConfig(family="GNS", grid=GRID, transport=tr)
    assert info.value.name == name
    ModelConfig(family="GNS", grid=GRID, transport=TransportCoefficients(**{name: [[0.5]]}))


def test_validate_psd_matrix_shape():
    with pytest.raises(ValueError):
        validate_psd_matrix(np.zeros((2, 3)), "kappa")


@pytest.mark.parametrize("name", ["eta", "zeta", "kappa", "dcoef"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficients_rejected_naming_them(name, value):
    with pytest.raises(ParameterError, match="finite") as info:
        TransportCoefficients(**{name: value})
    assert info.value.name == name


@pytest.mark.parametrize("mat", [[[np.inf, 0.0], [0.0, 1.0]],
                                 [[np.nan, 0.0], [0.0, 1.0]],
                                 [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["inf", "nan_diagonal", "nan_off_diagonal"])
def test_validate_psd_matrix_rejects_non_finite(mat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="kappa matrix must be finite"):
            validate_psd_matrix(np.array(mat), "kappa")


def test_psd_symmetry_check_accepts_what_allclose_accepts():
    rng = np.random.default_rng(3)
    tol = PSD_TOL
    for _ in range(400):
        A = rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-3, 4)
        sym = A @ A.T + np.eye(3)
        atol = tol * max(1.0, float(np.abs(sym).max()))
        # skew perturbations straddling the tolerance, exactly at it included
        skew = np.zeros((3, 3))
        skew[0, 1] = atol * rng.choice([0.5, 1.0, 1.0 + 1e-9, 2.0])
        mat = sym + skew
        expected = np.allclose(mat, mat.T, rtol=0,
                               atol=tol * max(1.0, float(np.abs(mat).max())))
        try:
            validate_psd_matrix(mat, "kappa")
            accepted = True
        except ParameterError as exc:
            assert "symmetric" in str(exc)
            accepted = False
        assert accepted == expected


def test_callable_coefficients_resolve():
    tr = TransportCoefficients(kappa=lambda f, m: 0.5, dcoef=0.0)
    model = replace(model_for("GNS", GRID), transport=tr)
    state = smooth_state(GRID, model, seed=1)
    assert state.derived(model).kappa == 0.5


@pytest.mark.parametrize("family", ["GNS", "CHNS1"])
def test_callable_coefficients_are_called_once_per_state(family):
    # on the fill's own Derived, every other field already set, not a State
    calls = []

    def counted(name, value):
        def coefficient(f, model):
            assert type(f) is Derived and hasattr(f, "grads")
            calls.append((name, f))
            return value
        return coefficient

    tr = TransportCoefficients(eta=0.01, zeta=0.005, kappa=counted("kappa", 0.02),
                               dcoef=counted("dcoef", 0.03))
    model = replace(model_for(family, GRID), transport=tr)
    state = smooth_state(GRID, model, seed=1)
    total_rhs(state, model)
    diagnostics(state, model)
    assert [name for name, _ in calls] == ["kappa", "dcoef"]
    assert all(f is state.derived(model) for _, f in calls)


# ------------------------------------------------------------ viscous stress

def test_viscous_stress_zero_input():
    assert np.all(_stress(np.zeros((3, 3)), 1.0, 2.0) == 0.0)


def test_viscous_stress_pure_dilation():
    stress = _stress(np.eye(3), eta=0.7, zeta=0.3)
    # deviatoric part cancels, leaving 3*zeta on the diagonal
    assert np.allclose(stress, 3 * 0.3 * np.eye(3), atol=1e-14)


def test_viscous_stress_pure_shear():
    gradv = np.zeros((3, 3))
    gradv[0, 1] = 1.0  # d_x v_y
    stress = _stress(gradv, eta=0.25, zeta=0.9)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 0.25
    assert np.allclose(stress, expected, atol=1e-14)


def test_viscous_stress_matches_rank4_contraction():
    rng = np.random.default_rng(2)
    gradv = rng.standard_normal((3, 3))
    lam = lam4(0.4, 0.15)
    brute = np.einsum("ijkl,kl->ij", lam, gradv)
    assert np.allclose(_stress(gradv, 0.4, 0.15), brute, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_dim_by_dim_production_matches_3x3_embedding(dim):
    # gradv : stress on dim x dim, as the kernel's production pairs them,
    # holds the out-of-plane trace term of the zero-padded form
    rng = np.random.default_rng(3)
    gradv = rng.standard_normal((dim, dim, 5, 7))
    gradv3 = np.zeros((3, 3, 5, 7))
    gradv3[:dim, :dim] = gradv
    embedded = np.sum(gradv3 * _stress(gradv3, 0.4, 0.15), axis=(0, 1))
    fast = _pair_sum(gradv * _stress(gradv, 0.4, 0.15))
    assert np.abs(fast - embedded).max() <= 1e-13 * np.abs(embedded).max()
    assert np.all(fast >= 0.0)


# -------------------------------------------------------------- 4-bracket

@pytest.mark.parametrize("family", ["GNS", "CHNS0", "CHNS1"])
def test_kn_symmetries(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(10):
        seeds = rng.integers(0, 1 << 30, size=4)
        F, G, K, N = (random_gradient(GRID, int(s)) for s in seeds)
        b = kn_4bracket(F, G, K, N, state, model)
        scale = max(abs(b), 1.0)
        assert abs(b + kn_4bracket(G, F, K, N, state, model)) <= 1e-12 * scale
        assert abs(b + kn_4bracket(F, G, N, K, state, model)) <= 1e-12 * scale
        assert abs(b - kn_4bracket(K, N, F, G, state, model)) <= 1e-12 * scale
        bianchi = b + kn_4bracket(F, K, N, G, state, model) \
            + kn_4bracket(F, N, G, K, state, model)
        assert abs(bianchi) <= 1e-12 * scale


def test_hhsh_vanishes_exactly():
    model = model_for("CHNS1", GRID)
    state = smooth_state(GRID, model, seed=5)
    Hg = grad_H(state, model)
    Sg = grad_S(state, model)
    assert kn_4bracket(Hg, Hg, Sg, Hg, state, model) == 0.0


@pytest.mark.parametrize("family", ["GNS", "CHNS0", "CHNS1"])
def test_shsh_nonnegative(family):
    model = model_for(family, GRID)
    rng = np.random.default_rng(6)
    for _ in range(25):
        state = smooth_state(GRID, model, seed=int(rng.integers(1 << 30)), amp=0.15)
        Hg = grad_H(state, model)
        Sg = grad_S(state, model)
        assert kn_4bracket(Sg, Hg, Sg, Hg, state, model) >= -1e-15


def test_4bracket_rejects_ideal_families():
    model = model_for("GE", GRID)
    state = smooth_state(GRID, model, seed=7)
    F = random_gradient(GRID, 1)
    with pytest.raises(UnsupportedFamilyError):
        kn_4bracket(F, F, F, F, state, model)


# -------------------------------------------------------------- 2-bracket

def test_2bracket_equals_4bracket_with_H():
    model = model_for("CHNS1", GRID)
    state = smooth_state(GRID, model, seed=8)
    Hg = grad_H(state, model)
    for trial in range(8):
        F = random_gradient(GRID, 200 + trial)
        G = random_gradient(GRID, 300 + trial)
        two = metriplectic_2bracket(F, G, state, model)
        four = kn_4bracket(F, Hg, G, Hg, state, model)
        assert two == pytest.approx(four, rel=1e-12, abs=1e-14)


def test_2bracket_annihilates_hamiltonian():
    model = model_for("CHNS0", GRID)
    state = smooth_state(GRID, model, seed=9)
    Hg = grad_H(state, model)
    for trial in range(10):
        F = random_gradient(GRID, 400 + trial)
        assert abs(metriplectic_2bracket(F, Hg, state, model)) <= 1e-13


def test_2bracket_symmetry():
    model = model_for("GNS", GRID)
    state = smooth_state(GRID, model, seed=10)
    F = random_gradient(GRID, 11)
    G = random_gradient(GRID, 12)
    fg = metriplectic_2bracket(F, G, state, model)
    gf = metriplectic_2bracket(G, F, state, model)
    assert fg == pytest.approx(gf, rel=1e-12, abs=1e-14)


# --------------------------------------------------------- dissipative rhs

@pytest.mark.parametrize("family", ["GNS", "CHNS0", "CHNS1"])
def test_uniform_state_has_zero_dissipation(family):
    model = model_for(family, GRID)
    rho = np.full(GRID.shape, 1.2)
    state = State(grid=GRID, m=np.zeros((1,) + GRID.shape), rho=rho,
                  ctilde=0.3 * rho, sigma=0.1 * rho)
    rhs = dissipative_rhs(state, model)
    for slot in ("m", "rho", "ctilde", "sigma"):
        assert np.abs(getattr(rhs, slot)).max() <= 1e-14
    _, prod = entropy_production_rate(state, model)
    assert prod == 0.0


def test_density_slot_never_dissipates():
    model = model_for("CHNS1", GRID)
    state = smooth_state(GRID, model, seed=13)
    assert np.all(dissipative_rhs(state, model).rho == 0.0)


def test_ideal_families_have_zero_dissipative_rhs():
    model = model_for("CHE1", GRID)
    state = smooth_state(GRID, model, seed=13)
    rhs = dissipative_rhs(state, model)
    assert np.all(rhs.sigma == 0.0) and np.all(rhs.m == 0.0)


def test_conduction_only_entropy_tendency():
    # kappa only: sigma tendency must equal div(kappa grad T / T) plus the
    # conductive production, assembled here from the same T field
    tr = TransportCoefficients(eta=0.0, zeta=0.0, kappa=0.08, dcoef=0.0)
    model = replace(model_for("GNS", GRID), transport=tr)
    state = smooth_state(GRID, model, seed=14)
    from metriflow.functionals import thermo_point
    T = np.asarray(thermo_point(state, model).T)
    gT = GRID.grad(T)
    oracle = GRID.div(0.08 * gT / T) + 0.08 * np.sum(gT * gT, axis=0) / T ** 2
    rhs = dissipative_rhs(state, model)
    assert np.abs(rhs.sigma - oracle).max() <= 1e-10
    assert np.abs(rhs.m).max() == 0.0
    assert np.abs(rhs.ctilde).max() == 0.0


def test_shear_momentum_tendency_oracle():
    # single-mode transverse shear: viscous force is eta * v_y''
    g = Grid(dim=2, n=(32,), length=(1.0,))
    tr = TransportCoefficients(eta=0.05, zeta=0.0, kappa=0.0, dcoef=0.0)
    model = replace(model_for("GNS", g), transport=tr)
    x = g.coords()[0]
    rho = np.ones(g.shape)
    m = np.zeros((2,) + g.shape)
    m[1] = np.sin(2.0 * np.pi * x) * np.ones(g.shape)
    state = State(grid=g, m=m, rho=rho, ctilde=np.zeros(g.shape),
                  sigma=np.zeros(g.shape))
    rhs = dissipative_rhs(state, model)
    oracle = 0.05 * g.div(g.grad(m[1]))
    assert np.abs(rhs.m[1] - oracle).max() <= 1e-10
    assert np.abs(rhs.m[0]).max() <= 1e-13


@pytest.mark.parametrize("family, derivs_per_axis", [("GNS", 2), ("CHNS1", 4)])
@pytest.mark.parametrize("dim", [1, 2])
def test_each_dissipative_flux_is_formed_once_per_rhs(monkeypatch, deriv_calls, family,
                                                      derivs_per_axis, dim):
    # kappa grad T and D grad mu_Gamma are one _apply_tensor call each, the
    # stress one _stress call (so gradv + gradv^T and its trace are formed
    # once), and the production pairs those very fluxes in one _pairing
    grid = Grid(dim=dim, n=(16,) * dim, length=(1.0,) * dim)
    model = model_for(family, grid=grid)
    # a fresh state: smooth_state's was filled when validated
    state = State(grid, packed=smooth_state(grid, model, seed=5).packed)
    calls, formed, paired = Counter(), [], []

    def counted(name):
        plain = getattr(metriplectic, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = plain(*args, **kwargs)
            if name == "_pairing":
                paired.extend(args[1])
            elif name != "_trace":
                formed.append(out)
            return out

        monkeypatch.setattr(metriplectic, name, wrapper)

    for name in ("_apply_tensor", "_trace", "_stress", "_pairing"):
        counted(name)
    deriv_calls.clear()
    total_rhs(state, model)
    assert calls == {"_apply_tensor": 2, "_trace": 1, "_stress": 1, "_pairing": 1}
    # the stress, kappa grad T and D grad mu_Gamma, in the slot table's order
    assert len(paired) == len(formed) == 3
    assert all(p is f for p, f in zip(paired, formed))
    assert len(deriv_calls) == derivs_per_axis * dim


@pytest.mark.parametrize("family", ["GNS", "CHNS0", "CHNS1"])
def test_entropy_rate_identities(family):
    model = model_for(family, GRID)
    state = smooth_state(GRID, model, seed=15)
    Sg = grad_S(state, model)
    Hg = grad_H(state, model)
    field, prod = entropy_production_rate(state, model)
    assert np.all(field >= -1e-16)
    rate = Sg.dot(dissipative_rhs(state, model), GRID)
    assert rate == pytest.approx(prod, rel=1e-12)
    assert kn_4bracket(Sg, Hg, Sg, Hg, state, model) == pytest.approx(prod, rel=1e-12)
    assert metriplectic_2bracket(Sg, Sg, state, model) == pytest.approx(prod, rel=1e-12)


def test_dissipative_energy_rate_is_roundoff():
    model = model_for("CHNS1", GRID)
    state = smooth_state(GRID, model, seed=16)
    Hg = grad_H(state, model)
    rhs = dissipative_rhs(state, model)
    assert abs(Hg.dot(rhs, GRID)) <= 1e-13 * Hg.norm(GRID) * max(rhs.norm(GRID), 1.0)


def test_production_density_matches_anisotropic_kappa():
    kap = np.array([[0.05]])
    tr = TransportCoefficients(eta=0.0, zeta=0.0, kappa=kap, dcoef=0.0)
    model = replace(model_for("GNS", GRID), transport=tr)
    state = smooth_state(GRID, model, seed=17)
    from metriflow.functionals import thermo_point
    T = np.asarray(thermo_point(state, model).T)
    gT = GRID.grad(T)
    oracle = 0.05 * gT[0] ** 2 / T ** 2
    assert np.allclose(entropy_production_rate(state, model)[0], oracle, atol=1e-13)


# --------------------------------------------------------------- onsager

def test_onsager_rest_point_reduction(onsager_point):
    model = model_for("GNS", GRID)
    blocks = onsager_point(1.0, 0.0, 0.0, np.zeros(3), model)
    pt = eval_eos(1.0, 0.0, 0.0, model.eos)
    T = float(pt.T)
    assert np.allclose(blocks.L_ee, T * T * 0.02 * np.eye(3), atol=1e-14)
    assert np.all(blocks.L_me == 0.0)
    assert np.all(blocks.L_ec == 0.0)


def test_onsager_matrix_symmetric_and_psd(onsager_point):
    model = model_for("GNS", GRID)
    rng = np.random.default_rng(18)
    for _ in range(50):
        blocks = onsager_point(float(rng.uniform(0.5, 2.0)),
                               float(rng.uniform(-0.5, 0.5)),
                               float(rng.uniform(-1.5, 1.5)),
                               rng.uniform(-1, 1, size=3), model)
        L = blocks.assemble()
        assert np.abs(L - L.T).max() <= 1e-13 * max(np.abs(L).max(), 1.0)
        assert np.linalg.eigvalsh(0.5 * (L + L.T)).min() >= -1e-12 * max(np.abs(L).max(), 1.0)


def test_onsager_fluxes_reduce_at_rest(onsager_point):
    model = model_for("GNS", GRID)
    pt = eval_eos(1.0, 0.0, 0.0, model.eos)
    T = float(pt.T)
    blocks = onsager_point(1.0, 0.0, 0.0, np.zeros(3), model)
    gradT = np.array([0.3, -0.2, 0.1])
    J_m, J_e, J_c = onsager_fluxes(blocks, aff_e=-gradT / T ** 2,
                                   aff_m=np.zeros((3, 3)), aff_c=np.zeros(3))
    assert np.allclose(J_e, -0.02 * gradT, atol=1e-13)
    assert np.all(J_m == 0.0)
    assert np.all(J_c == 0.0)


# --------------------------------------------------------------- curvature

def test_curvature_degenerate_pair():
    # K(F, F) = (F, F; F, F) vanishes: the bracket is antisymmetric in each pair
    F = random_gradient(GRID, 11)
    for family in ("GNS", "CHNS0", "CHNS1"):
        model = model_for(family, GRID)
        state = smooth_state(GRID, model, seed=12)
        assert kn_4bracket(F, F, F, F, state, model) == 0.0, family

"""Surface-energy function tests, including homogeneity property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriflow import AnisotropyFn, gamma_eval, homogeneity_residuals, parse_anisotropy
from metriflow.anisotropy import EPS4_CONVEXITY_LIMIT

ISO = AnisotropyFn(kind="iso")
FOURFOLD = AnisotropyFn(kind="fourfold", eps4=0.05)

nonzero_vec = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=2, max_size=2).filter(lambda p: np.hypot(*p) > 1e-3)


def test_iso_345():
    gamma, xi = gamma_eval(np.array([3.0, 4.0]), ISO)
    assert gamma == pytest.approx(5.0, abs=1e-14)
    assert np.allclose(xi, [0.6, 0.8], atol=1e-14)


def test_iso_origin_regularized():
    gamma, xi = gamma_eval(np.zeros(2), ISO)
    assert gamma == 0.0
    assert np.all(xi == 0.0)


def test_fourfold_axis_value():
    gamma, xi = gamma_eval(np.array([1.0, 0.0]), FOURFOLD)
    assert gamma == pytest.approx(1.05, abs=1e-14)
    # finite differences of Gamma as the oracle for xi
    step = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        gp, _ = gamma_eval(np.array([1.0, 0.0]) + e, FOURFOLD)
        gm, _ = gamma_eval(np.array([1.0, 0.0]) - e, FOURFOLD)
        assert xi[j] == pytest.approx((gp - gm) / (2 * step), abs=1e-8)


def test_fourfold_needs_2d():
    with pytest.raises(ValueError):
        gamma_eval(np.array([1.0, 0.0, 0.0]), FOURFOLD)


def test_eps4_convexity_limit_enforced():
    with pytest.raises(ValueError):
        AnisotropyFn(kind="fourfold", eps4=EPS4_CONVEXITY_LIMIT)
    AnisotropyFn(kind="fourfold", eps4=EPS4_CONVEXITY_LIMIT - 1e-6)  # ok


def test_parse_anisotropy():
    assert parse_anisotropy("iso").kind == "iso"
    fn = parse_anisotropy("fourfold:0.03")
    assert fn.kind == "fourfold" and fn.eps4 == 0.03
    with pytest.raises(ValueError):
        parse_anisotropy("sixfold:0.1")


@settings(max_examples=80, deadline=None)
@given(p=nonzero_vec, lam=st.floats(min_value=0.1, max_value=10.0))
def test_iso_homogeneity_exact(p, lam):
    r1, r2, r3 = homogeneity_residuals(np.array(p), lam, ISO)
    assert abs(r1) <= 1e-12 * max(1.0, np.hypot(*p))
    assert abs(r2) <= 1e-12 * max(1.0, np.hypot(*p))
    assert abs(r3) <= 1e-4


@settings(max_examples=80, deadline=None)
@given(p=nonzero_vec, lam=st.floats(min_value=0.1, max_value=10.0))
def test_fourfold_homogeneity(p, lam):
    r1, r2, r3 = homogeneity_residuals(np.array(p), lam, FOURFOLD)
    scale = max(1.0, np.hypot(*p))
    assert abs(r1) <= 1e-10 * scale
    assert abs(r2) <= 1e-10 * scale
    assert abs(r3) <= 1e-5 * scale


@settings(max_examples=60, deadline=None)
@given(p=nonzero_vec, lam=st.floats(min_value=0.1, max_value=10.0))
def test_xi_is_degree_zero_homogeneous(p, lam):
    p = np.array(p)
    _, xi1 = gamma_eval(p, FOURFOLD)
    _, xi2 = gamma_eval(lam * p, FOURFOLD)
    assert np.allclose(xi1, xi2, rtol=0, atol=1e-10)


def test_homogeneity_lambda_one_identity():
    r1, _, _ = homogeneity_residuals(np.array([0.2, -1.3]), 1.0, FOURFOLD)
    assert r1 == 0.0


def test_homogeneity_rejects_origin():
    with pytest.raises(ValueError):
        homogeneity_residuals(np.zeros(2), 2.0, ISO)
    with pytest.raises(ValueError):
        homogeneity_residuals(np.array([1.0, 1.0]), -1.0, ISO)


def test_gamma_xi_product_continuous_at_origin():
    # Gamma * xi must vanish where the field magnitude is below the cutoff
    p = np.zeros((2, 8))
    p[0, 0] = 1.0  # one big entry sets the RMS scale
    gamma, xi = gamma_eval(p, ISO)
    assert np.all(gamma[1:] == 0.0)
    assert np.all(xi[:, 1:] == 0.0)

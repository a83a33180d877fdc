"""Verification suites: a NaN must fail its suite, on whichever grid of a
refinement study it appears, and the Casimir order estimate must come from
the asymptotic range."""

import numpy as np
import pytest

from metriflow import verification
from metriflow.verification import CASIMIR_SIZES, casimir_convergence_suite


def test_nan_production_fails_the_positivity_suite(monkeypatch):
    monkeypatch.setattr(verification, "entropy_production_rate",
                        lambda state, model: (None, float("nan")))
    result = verification.production_positivity_suite(seed=1, level="fast")
    assert not result.passed
    assert np.isnan(result.details["min_production"])


def test_nan_curvature_fails_the_curvature_suite(monkeypatch):
    monkeypatch.setattr(verification, "sectional_curvature",
                        lambda *args, **kwargs: float("nan"))
    result = verification.curvature_suite(seed=1, level="fast")
    assert not result.passed
    assert np.isnan(result.details["min_normalized_psd"])


def test_nan_flux_fails_the_onsager_suite(monkeypatch):
    plain = verification.onsager_fluxes

    def nan_energy_flux(*args):
        J_m, J_e, J_c = plain(*args)
        return J_m, np.full_like(J_e, np.nan), J_c

    monkeypatch.setattr(verification, "onsager_fluxes", nan_energy_flux)
    result = verification.onsager_suite(seed=1, level="fast")
    assert not result.passed
    assert np.isnan(result.details["worst_flux_residual"])


@pytest.mark.parametrize("level", ["fast", "full"])
@pytest.mark.parametrize("seed", [5, 24])
def test_casimir_order_is_asymptotic_for_pre_asymptotic_seeds(seed, level):
    # with sizes up to 64 only, CHE1/CHNS1 entropy once read orders 1.87 /
    # 1.82 at level full for these seeds, below ORDER_MIN.  Since the diffuse
    # brackets are a pullback, every Casimir sits at the floor; this guards
    # against a change that brings a pre-asymptotic residual back
    result = casimir_convergence_suite(seed, level)
    assert result.passed, {k: v["order"] for k, v in result.details.items()}
    assert all(len(d["residuals"]) == len(CASIMIR_SIZES)
               for d in result.details.values())


def test_nan_on_the_coarsest_grid_fails_the_casimir_suite(monkeypatch):
    plain = verification.poisson_bracket

    def nan_for_che1_on_16_cells(Fg, Gg, state, model):
        out = plain(Fg, Gg, state, model)
        if model.family == "CHE1" and state.grid.shape == (16,):
            return np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(verification, "poisson_bracket", nan_for_che1_on_16_cells)
    result = casimir_convergence_suite(seed=1, level="fast")
    assert not result.passed
    for label in ("entropy", "mass"):
        entry = result.details[f"CHE1:{label}"]
        assert np.isnan(entry["residuals"][0]) and entry["passed"] is False
    assert all(d["passed"] for key, d in result.details.items()
               if not key.startswith("CHE1:"))


def test_nan_on_the_coarsest_grid_fails_the_energy_rate_refinement(monkeypatch):
    plain = verification.total_rhs

    def nan_for_ge_on_16_cells(state, model):
        rhs = plain(state, model)
        if model.family == "GE" and state.grid.shape == (16,):
            return rhs * np.nan
        return rhs

    monkeypatch.setattr(verification, "total_rhs", nan_for_ge_on_16_cells)
    result = verification.budgets_suite(seed=1, level="fast")
    assert not result.passed
    entry = result.details["GE:energy_rate"]
    assert np.isnan(entry["residuals"][0]) and entry["passed"] is False
    assert all(d["passed"] for key, d in result.details.items()
               if key != "GE:energy_rate")

"""Verification suites: a NaN must fail its suite, and the Casimir order
estimate must come from the asymptotic range."""

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
    # with sizes up to 64 only, CHE1/CHNS1 entropy read orders 1.87 / 1.82
    # at level full for these seeds, below ORDER_MIN
    result = casimir_convergence_suite(seed, level)
    assert result.passed, {k: v["order"] for k, v in result.details.items()}
    assert all(len(d["residuals"]) == len(CASIMIR_SIZES)
               for d in result.details.values())

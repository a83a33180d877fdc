"""Verification suites: a NaN must fail its suite, on whichever grid of a
refinement study it appears, a defect injected into the model's 4-bracket
or fluxes must fail the suite that judges them, and the Casimir order
estimate must come from the asymptotic range."""

import numpy as np
import pytest

from metriflow import dynamics, metriplectic, verification
from metriflow.verification import CASIMIR_SIZES, casimir_convergence_suite


def test_nan_production_fails_the_positivity_suite(monkeypatch):
    monkeypatch.setattr(verification, "entropy_production_rate",
                        lambda state, model: (None, float("nan")))
    result = verification.production_positivity_suite(seed=1, level="fast")
    assert not result.passed
    assert np.isnan(result.details["min_production"])



def test_nan_poisson_bracket_shows_in_the_symmetry_suite_worst(monkeypatch):
    plain = verification.poisson_bracket

    def nan_for_ge(Fg, Gg, state, model):
        out = plain(Fg, Gg, state, model)
        return np.full_like(out, np.nan) if model.family == "GE" else out

    monkeypatch.setattr(verification, "poisson_bracket", nan_for_ge)
    result = verification.bracket_symmetry_suite(seed=1, level="fast")
    assert not result.passed
    assert result.details["failures"] == [("GE", "antisym"), ("GE", "bilinear")]
    assert np.isnan(result.details["worst"]["antisym"])
    assert np.isnan(result.details["worst"]["bilinear"])

def test_model_suites_pass_for_seeds_0_to_39():
    # the suites that judge the model's own 4-bracket and fluxes
    for seed in range(40):
        for suite in (verification.curvature_suite, verification.onsager_suite):
            result = suite(seed, "fast")
            assert result.passed, (seed, result.details)


def test_nan_curvature_fails_the_curvature_suite(monkeypatch):
    monkeypatch.setattr(verification, "kn_4bracket",
                        lambda F, *args: np.full(F.rho.shape[:1], np.nan))
    result = verification.curvature_suite(seed=1, level="fast")
    assert not result.passed
    assert all(np.isnan(k) for k in result.details["min_curvature"].values())


def test_indefinite_stress_fails_the_curvature_suite(monkeypatch):
    # the viscous form of the 4-bracket turns negative definite
    monkeypatch.setattr(metriplectic, "_stress", lambda strain, eta, zeta: -1.5 * eta * strain[0])
    result = verification.curvature_suite(seed=1, level="fast")
    assert not result.passed
    assert all(k < 0.0 for k in result.details["min_curvature"].values())


def _one_third_stress(strain, eta, zeta, out=None):
    """_stress with 1/3 in place of the trace factor 2/3."""
    sym2, trace = strain
    out = np.multiply(eta, sym2, out=out)
    for i in range(len(sym2)):
        out[i, i] += (zeta - eta / 3.0) * trace
    return out


def test_wrong_trace_factor_in_the_stress_fails_the_onsager_suite(monkeypatch):
    monkeypatch.setattr(metriplectic, "_stress", _one_third_stress)
    result = verification.onsager_suite(seed=1, level="fast")
    assert not result.passed
    assert result.details["worst_flux_residual"] > 1e-3


def test_doubled_heat_flux_fails_the_onsager_suite(monkeypatch):
    plain = metriplectic._fluxes

    def doubled(state, model, *args, **kwargs):
        flux, closure = plain(state, model, *args, **kwargs)
        flux[:, state.grid.dim + 2] *= 2.0
        return flux, closure

    # the kernel and the suite both read the flux buffer
    for module in (metriplectic, verification):
        monkeypatch.setattr(module, "_fluxes", doubled)
    result = verification.onsager_suite(seed=1, level="fast")
    assert not result.passed
    assert result.details["worst_flux_residual"] > 1e-3


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


@pytest.mark.xfail(strict=True, reason=(
    "pre-asymptotic energy rate: for seed 206 the CHE0 and CHE1 residuals read "
    "orders 0.60 and 0.61 from n = 32 to 64, and 1.78, 1.95, 1.99 from n = 64 "
    "to 512; ROADMAP item 1b makes the ideal energy rate exact"))
def test_budgets_pass_for_seed_206():
    # about 1% of seeds fail this way (206, 258, 260, 291 and 326 of 0-399);
    # ORDER_MIN, FLOOR and the grid sizes stay as they are
    assert verification.budgets_suite(206, "fast").passed


def test_only_the_stepping_suites_step_and_they_come_last(monkeypatch):
    # the CLI runs STEPPING_SUITES in its own process and the rest in a
    # worker; it raises the worker's error first, as the serial loop would
    steps = []
    step_rk4 = dynamics.step_rk4

    def counted(*args, **kwargs):
        steps.append(1)
        return step_rk4(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step_rk4", counted)
    stepping = []
    for name, suite in verification._SUITES.items():
        del steps[:]
        suite(1, "fast")
        if steps:
            stepping.append(name)
    assert stepping == list(verification.STEPPING_SUITES)
    assert list(verification._SUITES)[-len(stepping):] == stepping

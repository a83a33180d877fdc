"""Scenario construction: determinism, admissibility, and monitors."""

import numpy as np
import pytest

from metriflow import ConfigError, SCENARIO_NAMES, make_scenario, zero_crossings
from metriflow.scenarios import analytic_capillary_force, double_tanh_profile, parse_setting


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_initial_states_are_admissible(name):
    sc = make_scenario(name, seed=0)
    sc.state.validate(sc.model)  # raises on failure


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_seeded_determinism_is_bitwise(name):
    a = make_scenario(name, seed=42)
    b = make_scenario(name, seed=42)
    assert np.array_equal(a.state.m, b.state.m)
    assert np.array_equal(a.state.rho, b.state.rho)
    assert np.array_equal(a.state.ctilde, b.state.ctilde)
    assert np.array_equal(a.state.sigma, b.state.sigma)


def test_different_seeds_differ():
    a = make_scenario("spinodal1d", seed=1)
    b = make_scenario("spinodal1d", seed=2)
    assert not np.array_equal(a.state.ctilde, b.state.ctilde)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        make_scenario("vortex_street")


def test_unknown_override_rejected():
    with pytest.raises(ConfigError):
        make_scenario("heat_relax", overrides={"viscosity": 1.0})


def test_invalid_overrides_rejected():
    with pytest.raises(ConfigError):
        make_scenario("heat_relax", overrides={"dt": -1.0})
    with pytest.raises(ConfigError):
        make_scenario("heat_relax", overrides={"t_end": 0.0})
    with pytest.raises(ConfigError):
        make_scenario("heat_relax", overrides={"cadence": 0})
    with pytest.raises(ConfigError):
        make_scenario("heat_relax", overrides={"model": "mhd"})


def test_integer_settings_reject_non_integral_values():
    with pytest.raises(ConfigError, match="'n'"):
        make_scenario("heat_relax", overrides={"n": 48.7})
    with pytest.raises(ConfigError, match="'cadence'"):
        make_scenario("heat_relax", overrides={"cadence": 2.5})
    with pytest.raises(ConfigError, match="'n'"):
        make_scenario("heat_relax", overrides={"n": float("inf")})
    for n in (48, "48", 48.0, np.int64(48)):
        assert make_scenario("heat_relax", overrides={"n": n}).model.grid.n == (48,)


def test_number_settings_reject_bools():
    for key in ("dim", "cadence", "dt", "kappa"):
        for flag in (True, np.False_):
            with pytest.raises(ConfigError, match=repr(key)):
                make_scenario("heat_relax", overrides={key: flag})
    with pytest.raises(ConfigError, match="'dt'"):
        parse_setting("dt", True)


def test_overrides_apply():
    sc = make_scenario("heat_relax", overrides={"n": 48, "kappa": 0.5})
    assert sc.model.grid.n == (48,)
    assert sc.model.transport.kappa == 0.5


def test_n_steps_rounding():
    sc = make_scenario("heat_relax", overrides={"dt": 1e-3, "t_end": 0.05})
    assert sc.n_steps == 50


def test_spinodal_noise_fills_unstable_band():
    # the seeded concentration noise must carry energy in the low modes
    # that the mixture amplifies, regardless of the seed
    for seed in (0, 1, 99):
        sc = make_scenario("spinodal1d", seed=seed)
        spectrum = np.abs(np.fft.rfft(sc.state.c))
        assert spectrum[1:6].min() > 0.01 * spectrum.max()


def test_zero_crossings_simple_patterns():
    assert zero_crossings(np.array([1.0, -1.0, 1.0, -1.0])) == 4
    assert zero_crossings(np.ones(8)) == 0
    x = np.linspace(0, 1, 64, endpoint=False)
    assert zero_crossings(np.sin(2 * np.pi * 3 * x)) == 6


def test_zero_crossings_2d_sums_rows():
    c = np.ones((4, 6))
    c[:, ::2] = -1.0
    assert zero_crossings(c, axis=1) == 4 * 6


def test_double_tanh_seam_mismatch_is_negligible():
    x = np.linspace(0, 1, 512, endpoint=False)
    c = double_tanh_profile(x, 1.0, 24.0 / 512)
    assert abs(c[0] - c[-1]) < 1e-5
    assert c.max() < 1.0 and c.min() > -1.0 - 1e-12


def test_analytic_capillary_force_matches_finite_differences():
    x = np.linspace(0, 1, 4096, endpoint=False)
    w, lam_f = 0.06, 1e-3
    c = double_tanh_profile(x, 1.0, w)
    h = x[1] - x[0]
    cp = np.gradient(c, h)
    fd = -lam_f * np.gradient(cp * cp, h)
    exact = analytic_capillary_force(x, 1.0, w, lam_f)
    assert np.abs(fd - exact).max() <= 1e-2 * np.abs(exact).max()


def test_capillary_probe_interface_width_tracks_resolution():
    sc = make_scenario("capillary_probe", seed=0, overrides={"n": 512})
    c = sc.state.c
    # 24 cells per interface: the gradient support should be much narrower
    # than the box but wider than a couple of cells
    grad = np.abs(np.gradient(c))
    wide = np.sum(grad > 0.1 * grad.max())
    assert 20 < wide < 200


def test_heat_relax_initial_profile():
    sc = make_scenario("heat_relax", seed=5)
    assert sc.model.family == "GNS"
    assert np.abs(sc.state.m).max() == 0.0
    assert np.abs(sc.state.s).max() == pytest.approx(0.02, rel=1e-2)

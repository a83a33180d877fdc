"""Grid operator tests: stencil values, adjointness, and quadrature."""

import numpy as np
import pytest

from metriflow import Grid, ParameterError


@pytest.fixture(params=[1, 2])
def grid(request):
    return Grid(dim=request.param, n=(24,) * request.param,
                length=(1.5,) * request.param)


def test_grid_rejects_bad_dim():
    with pytest.raises(ValueError):
        Grid(dim=3, n=(8, 8, 8), length=(1.0, 1.0, 1.0))


def test_grid_rejects_tiny_axis():
    with pytest.raises(ValueError):
        Grid(dim=1, n=(3,), length=(1.0,))


def test_grid_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        Grid(dim=1, n=(8,), length=(0.0,))


def test_scalar_n_broadcasts_to_both_axes():
    g = Grid(dim=2, n=16, length=2.0)
    assert g.shape == (16, 16)
    assert g.length == (2.0, 2.0)
    assert g.h == (0.125, 0.125)


def test_sequences_and_one_tuples_broadcast():
    g = Grid(dim=2, n=[16, 8], length=(2.0,))
    assert g.shape == (16, 8) and g.length == (2.0, 2.0)
    assert Grid(dim=1, n=np.int64(12), length=[1.0]).shape == (12,)
    assert Grid(dim=1, n=(16.0,), length=1.0).n == (16,)


@pytest.mark.parametrize("kw, name", [
    (dict(dim=1, n=(16, 16), length=1.0), "n"),
    (dict(dim=1, length=1.0), "n"),
    (dict(dim=2, n=(8, 8, 8), length=1.0), "n"),
    (dict(dim=1, n=(16.7,), length=1.0), "n"),
    (dict(dim=1, n=np.nan, length=1.0), "n"),
    (dict(dim=1, n=16), "length"),
    (dict(dim=2, n=16, length=(1.0, 1.0, 1.0)), "length"),
    (dict(dim=1, n=16, length=np.inf), "length"),
    (dict(dim=1, n=16, length=np.nan), "length"),
], ids=["n_2_axes_for_dim_1", "n_missing", "n_3_axes", "n_not_integral", "n_nan",
        "length_missing", "length_3_axes", "length_inf", "length_nan"])
def test_shape_must_match_dim_naming_the_setting(kw, name):
    with pytest.raises(ParameterError) as info:
        Grid(**kw)
    assert info.value.name == name and name in str(info.value)


def test_deriv_of_constant_is_zero(grid):
    f = 3.7 * np.ones(grid.shape)
    for ax in range(grid.dim):
        assert np.all(grid.deriv(f, ax) == 0.0)


def test_deriv_matches_discrete_symbol():
    # the periodic central stencil applied to a single Fourier mode gives
    # the mode back, scaled by sin(2 pi h / L) / h
    g = Grid(dim=1, n=(64,), length=(1.0,))
    x = g.coords()[0]
    f = np.sin(2.0 * np.pi * x)
    expected = (np.sin(2.0 * np.pi * g.h[0]) / g.h[0]) * np.cos(2.0 * np.pi * x)
    assert np.allclose(g.deriv(f, 0), expected, rtol=0, atol=1e-13)


def test_deriv_equals_roll_reference(grid):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    for ax in range(grid.dim):
        ref = (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) \
            * (1.0 / (2.0 * grid.h[ax]))
        assert np.array_equal(grid.deriv(f, ax), ref)


def test_deriv_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        g = Grid(dim=1, n=(n,), length=(1.0,))
        x = g.coords()[0]
        f = np.exp(np.sin(2.0 * np.pi * x))
        exact = 2.0 * np.pi * np.cos(2.0 * np.pi * x) * f
        errs.append(np.abs(g.deriv(f, 0) - exact).max())
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


def test_grad_shape_check():
    g = Grid(dim=2, n=(8,), length=(1.0,))
    with pytest.raises(ValueError):
        g.grad(np.zeros((8, 9)))


@pytest.mark.parametrize("grid, field", [
    (Grid(dim=2, n=(8,), length=(1.0,)), np.arange(8.0)),   # one axis of a 2D grid
    (Grid(dim=1, n=(8,), length=(1.0,)), np.arange(10.0)),  # 10 cells on an 8-cell grid
], ids=["1d_field_on_2d_grid", "10_cells_on_8"])
def test_deriv_rejects_a_field_that_does_not_fit_the_grid(grid, field):
    with pytest.raises(ValueError, match="does not match grid"):
        grid.deriv(field, 0)
    with pytest.raises(ValueError, match="does not match grid"):
        grid.grad(field)


@pytest.mark.parametrize("grid, field, axis", [
    (Grid(dim=1, n=(8,), length=(1.0,)), np.arange(24.0).reshape(3, 8), -1),  # a stacked axis
    (Grid(dim=1, n=(8,), length=(1.0,)), np.arange(8.0), 1),
    (Grid(dim=2, n=(8,), length=(1.0,)), np.zeros((8, 8)), 2),
], ids=["stacked_axis_minus_1", "axis_1_of_1d", "axis_2_of_2d"])
def test_deriv_rejects_an_axis_that_is_not_the_grids(grid, field, axis):
    with pytest.raises(ValueError, match=f"axis {axis} is not an axis"):
        grid.deriv(field, axis)


def test_div_shape_check():
    g = Grid(dim=1, n=(8,), length=(1.0,))
    with pytest.raises(ValueError):
        g.div(np.zeros((2, 8)))


def test_div_is_negative_adjoint_of_grad(grid):
    # the exactness everything else rests on:
    # integrate(f * div u) == -integrate(grad f . u)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(grid.shape)
        u = rng.standard_normal((grid.dim,) + grid.shape)
        lhs = grid.integrate(f * grid.div(u))
        rhs = -float((grid.grad(f) * u).sum() * grid.cell_volume)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_divergence_integrates_to_zero(grid):
    rng = np.random.default_rng(6)
    u = rng.standard_normal((grid.dim,) + grid.shape)
    assert abs(grid.integrate(grid.div(u))) <= 1e-12


def test_grad_integrates_to_zero(grid):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid.shape)
    gf = grid.grad(f)
    for k in range(grid.dim):
        assert abs(grid.integrate(gf[k])) <= 1e-12


def test_integrate_constant(grid):
    vol = float(np.prod(grid.length))
    assert grid.integrate(np.ones(grid.shape)) == pytest.approx(vol, abs=1e-14)


def test_integrate_single_mode_vanishes():
    g = Grid(dim=1, n=(48,), length=(2.0,))
    x = g.coords()[0]
    assert abs(g.integrate(np.sin(2.0 * np.pi * x / 2.0))) <= 1e-12


def test_integrate_linearity(grid):
    rng = np.random.default_rng(8)
    f = rng.standard_normal(grid.shape)
    h = rng.standard_normal(grid.shape)
    alpha = 1.37
    lhs = grid.integrate(alpha * f + h)
    rhs = alpha * grid.integrate(f) + grid.integrate(h)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_div_tensor_contracts_first_slot():
    g = Grid(dim=2, n=(16,), length=(1.0,))
    rng = np.random.default_rng(9)
    t = rng.standard_normal((2, 2) + g.shape)
    out = g.div(t)
    for i in range(2):
        expected = g.deriv(t[0, i], 0) + g.deriv(t[1, i], 1)
        assert np.array_equal(out[i], expected)


def _roll_deriv(grid, f, axis):
    ax = f.ndim - grid.dim + axis
    return (np.roll(f, -1, axis=ax) - np.roll(f, 1, axis=ax)) \
        * (1.0 / (2.0 * grid.h[axis]))


# a 1D grid's stacked (k, n) field and a 2D grid's (n, m) field share ndim 2
# but are differentiated along different array axes; the last three cases
# are not C-contiguous: a transposed field, a strided slice of a wider
# array and a Fortran-ordered stack
_STACKED_CASES = [
    (Grid(dim=1, n=(12,), length=(1.0,)), (12,), "C"),
    (Grid(dim=1, n=(12,), length=(1.0,)), (3, 12), "C"),
    (Grid(dim=2, n=(12, 10), length=(1.5, 0.5)), (12, 10), "C"),
    (Grid(dim=1, n=(12,), length=(1.0,)), (2, 3, 12), "C"),
    (Grid(dim=2, n=(12, 10), length=(1.5, 0.5)), (3, 12, 10), "C"),
    (Grid(dim=2, n=(12, 10), length=(1.5, 0.5)), (12, 10), "transposed"),
    (Grid(dim=1, n=(12,), length=(1.0,)), (3, 12), "strided"),
    (Grid(dim=2, n=(12, 10), length=(1.5, 0.5)), (3, 12, 10), "F"),
]


def _field(rng, shape, layout):
    if layout == "transposed":
        return rng.standard_normal(shape[::-1]).T
    if layout == "strided":
        return rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    return np.asarray(rng.standard_normal(shape), order=layout)


def test_deriv_of_stacked_fields_equals_roll_reference():
    rng = np.random.default_rng(13)
    # interleaved, in both orders, so that each stencil table is first
    # built by one grid and then used by the other
    for cases in (_STACKED_CASES, _STACKED_CASES[::-1]):
        for g, shape, layout in cases:
            f = _field(rng, shape, layout)
            assert f.flags.c_contiguous == (layout == "C")
            for axis in range(g.dim):
                assert np.array_equal(g.deriv(f, axis), _roll_deriv(g, f, axis)), \
                    (g.dim, shape, layout, axis)
    # a flat view of a non-C-contiguous out would be a copy, not out
    g = Grid(dim=2, n=(12, 10), length=(1.5, 0.5))
    with pytest.raises(ValueError, match="out"):
        g.deriv(rng.standard_normal((12, 10)), 0, out=np.empty((10, 12)).T)


# the smallest grids, where the strided wrap views (cells 0 and n - 1;
# 1 and 0; n - 1 and n - 2) are shortest and, at n = 4, share every cell
_SMALLEST_CASES = [
    (Grid(dim=1, n=(4,), length=(1.0,)), (4,), "C"),
    (Grid(dim=1, n=(5,), length=(0.7,)), (5,), "C"),
    (Grid(dim=2, n=(4, 5), length=(1.5, 0.5)), (4, 5), "C"),
    (Grid(dim=1, n=(4,), length=(1.0,)), (3, 4), "C"),
    (Grid(dim=1, n=(5,), length=(0.7,)), (2, 3, 5), "C"),
    (Grid(dim=2, n=(4, 5), length=(1.5, 0.5)), (3, 4, 5), "C"),
    (Grid(dim=2, n=(4, 5), length=(1.5, 0.5)), (4, 5), "transposed"),
    (Grid(dim=1, n=(5,), length=(0.7,)), (3, 5), "strided"),
    (Grid(dim=2, n=(4, 5), length=(1.5, 0.5)), (2, 4, 5), "F"),
]


@pytest.mark.parametrize("case", range(len(_SMALLEST_CASES)))
def test_deriv_on_the_smallest_grids_equals_roll_reference(case):
    g, shape, layout = _SMALLEST_CASES[case]
    f = _field(np.random.default_rng(15), shape, layout)
    assert f.flags.c_contiguous == (layout == "C")
    for axis in range(g.dim):
        out = g.deriv(f, axis)
        assert np.array_equal(out, _roll_deriv(g, f, axis)), (shape, layout, axis)
        assert np.array_equal(g.deriv(f, axis, out=np.full(shape, np.nan)), out)


@pytest.mark.parametrize("case", range(len(_STACKED_CASES)))
def test_grad_is_the_stack_of_derivs(case):
    g, shape, layout = _STACKED_CASES[case]
    f = _field(np.random.default_rng(14), shape, layout)
    out = g.grad(f)
    assert np.array_equal(out, np.stack([g.deriv(f, k) for k in range(g.dim)]))
    assert out.flags.c_contiguous


def test_cell_volume_is_computed_once():
    g = Grid(dim=2, n=(12, 10), length=(1.5, 0.5))
    assert g.cell_volume == float(np.prod(g.h))
    assert g.cell_volume is g.cell_volume

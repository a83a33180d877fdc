"""The trial axis: a batch of functional gradients through the bracket layer.

Every batched result must carry the same bits as a loop of single calls,
and the two verify suites that use batches must report exactly what their
per-trial loops (kept here as the reference) report.
"""

import json

import numpy as np
import pytest

from metriflow import (AnisotropyFn, FunctionalGradient, Grid, ModelConfig,
                       SurfaceCoefficients, TransportCoefficients, grad_H,
                       grad_S, kn_4bracket, poisson_bracket, smooth_state)
from metriflow import verification
from metriflow.fields import random_gradient
from metriflow.functionals import FAMILIES
from metriflow.verification import (CASIMIR_SIZES, DISSIPATIVE, FLOOR,
                                    ORDER_MIN, _counts, _jsonable,
                                    _observed_order, model_for, verify)

SEEDS = np.array([3, 17, 40, 41, 1 << 30])


def _grid(dim):
    return Grid(dim=dim, n=(16,) * dim, length=(1.0,) * dim)


def _coefficient(kind, dim, scale):
    if kind == "scalar":
        return scale
    if kind == "matrix":
        return scale * (np.eye(dim) + 0.3 * (np.ones((dim, dim)) - np.eye(dim)))

    def field(state, model):
        # positive, state-dependent tensor field of shape (dim, dim, *grid)
        eye = np.eye(dim).reshape((dim, dim) + (1,) * dim)
        return scale * eye * (1.0 + state.c ** 2)
    return field


def _model(family, dim, coef_kind="scalar"):
    diffuse = family.startswith("CH")
    surf = SurfaceCoefficients(lambda_u=2e-3 if diffuse else 0.0,
                               lambda_s=1e-3 if diffuse else 0.0,
                               a=0 if family.endswith("0") else 1)
    tr = None
    if family in DISSIPATIVE:
        tr = TransportCoefficients(eta=0.01, zeta=0.005,
                                   kappa=_coefficient(coef_kind, dim, 0.02),
                                   dcoef=_coefficient(coef_kind, dim, 0.03))
    anis = AnisotropyFn(kind="fourfold", eps4=0.04) if dim == 2 else AnisotropyFn()
    return ModelConfig(family=family, grid=_grid(dim), surface=surf,
                       transport=tr, anisotropy=anis)


def _batches(grid, n):
    """n batches over SEEDS, and the same gradients one seed at a time."""
    batches = [random_gradient(grid, SEEDS + 1000 * i) for i in range(n)]
    singles = [[random_gradient(grid, int(s) + 1000 * i) for s in SEEDS]
               for i in range(n)]
    return batches, singles


@pytest.mark.parametrize("dim", [1, 2])
def test_random_gradient_batch_stacks_the_single_draws(dim):
    grid = _grid(dim)
    batch = random_gradient(grid, SEEDS, amp=0.5, kmax=2)
    singles = [random_gradient(grid, int(s), amp=0.5, kmax=2) for s in SEEDS]
    assert batch.m.shape == (dim, len(SEEDS)) + grid.shape
    assert np.array_equal(batch.m, np.stack([g.m for g in singles], axis=1))
    for slot in ("rho", "ctilde", "sigma"):
        assert getattr(batch, slot).shape == (len(SEEDS),) + grid.shape
        assert np.array_equal(getattr(batch, slot),
                              np.stack([getattr(g, slot) for g in singles]))
    assert singles[0].rho.shape == grid.shape


@pytest.mark.parametrize("dim", [1, 2])
def test_integrate_sums_over_the_grid_axes_only(dim):
    grid = Grid(dim=dim, n=(33,) * dim, length=(2.0,) * dim)
    fields = np.random.default_rng(5).standard_normal((3, 4) + grid.shape)
    stacked = grid.integrate(fields)
    assert stacked.shape == (3, 4)
    per_field = [[grid.integrate(f) for f in row] for row in fields]
    assert all(type(v) is float for row in per_field for v in row)
    assert np.array_equal(stacked, np.array(per_field))


@pytest.mark.parametrize("dim", [1, 2])
def test_batched_dot_and_norm_match_single_calls(dim):
    grid = _grid(dim)
    (F, G), singles = _batches(grid, 2)
    assert np.array_equal(F.dot(G, grid),
                          [f.dot(g, grid) for f, g in zip(*singles)])
    norms = [f.norm(grid) for f in singles[0]]
    assert type(norms[0]) is float
    assert np.array_equal(F.norm(grid), norms)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_poisson_bracket_matches_single_calls(family, dim):
    model = _model(family, dim)
    state = smooth_state(model.grid, model, seed=8)
    (F, G), (fs, gs) = _batches(model.grid, 2)
    loop = [poisson_bracket(f, g, state, model) for f, g in zip(fs, gs)]
    assert type(loop[0]) is float
    batched = poisson_bracket(F, G, state, model)
    assert batched.shape == (len(SEEDS),)
    assert np.array_equal(batched, loop)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_batch_of_one_broadcasts_against_a_batch(family, dim):
    model = _model(family, dim)
    state = smooth_state(model.grid, model, seed=8)
    (F,), (fs,) = _batches(model.grid, 1)
    Sg = grad_S(state, model)
    one = FunctionalGradient(m=Sg.m[:, None], rho=Sg.rho[None],
                             ctilde=Sg.ctilde[None], sigma=Sg.sigma[None])
    assert np.array_equal(poisson_bracket(F, one, state, model),
                          [poisson_bracket(f, Sg, state, model) for f in fs])


@pytest.mark.parametrize("coef_kind", ["scalar", "matrix", "callable"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", DISSIPATIVE)
def test_batched_kn_4bracket_matches_single_calls(family, dim, coef_kind):
    model = _model(family, dim, coef_kind)
    state = smooth_state(model.grid, model, seed=9)
    batches, singles = _batches(model.grid, 4)
    loop = [kn_4bracket(*grads, state, model) for grads in zip(*singles)]
    assert type(loop[0]) is float
    batched = kn_4bracket(*batches, state, model)
    assert batched.shape == (len(SEEDS),)
    assert np.array_equal(batched, loop)


# ------------------------------------------- the per-trial suites, as reference

def _reference_bracket_symmetry(seed, level):
    """bracket_symmetry_suite as one bracket call per trial."""
    n_trials = _counts(level)["sym"]
    grid = Grid(dim=1, n=(32,), length=(1.0,))
    rng = np.random.default_rng(seed)
    worst = {"antisym": 0.0, "bilinear": 0.0, "kn_12": 0.0, "kn_34": 0.0,
             "kn_pair": 0.0, "kn_bianchi": 0.0, "kn_psd": 0.0}
    failures = []
    for family in FAMILIES:
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=seed + 7)
        fam = dict.fromkeys(worst, 0.0)
        for trial in range(n_trials):
            base = int(rng.integers(0, 2 ** 31))
            F = random_gradient(grid, base)
            G = random_gradient(grid, base + 1)
            pb_fg = poisson_bracket(F, G, state, model)
            pb_gf = poisson_bracket(G, F, state, model)
            scale = max(abs(pb_fg), 1.0)
            fam["antisym"] = max(fam["antisym"], abs(pb_fg + pb_gf) / scale)

            a, b = rng.uniform(-2, 2, size=2)
            pb_lin = poisson_bracket(a * F + b * G, G, state, model)
            resid = abs(pb_lin - (a * pb_fg + b * poisson_bracket(G, G, state, model)))
            fam["bilinear"] = max(fam["bilinear"], resid / scale)

            if family in DISSIPATIVE:
                K = random_gradient(grid, base + 2)
                N = random_gradient(grid, base + 3)
                b_fgkn = kn_4bracket(F, G, K, N, state, model)
                s4 = max(abs(b_fgkn), 1.0)
                fam["kn_12"] = max(fam["kn_12"], abs(
                    b_fgkn + kn_4bracket(G, F, K, N, state, model)) / s4)
                fam["kn_34"] = max(fam["kn_34"], abs(
                    b_fgkn + kn_4bracket(F, G, N, K, state, model)) / s4)
                fam["kn_pair"] = max(fam["kn_pair"], abs(
                    b_fgkn - kn_4bracket(K, N, F, G, state, model)) / s4)
                bianchi = (b_fgkn + kn_4bracket(F, K, N, G, state, model)
                           + kn_4bracket(F, N, G, K, state, model))
                fam["kn_bianchi"] = max(fam["kn_bianchi"], abs(bianchi) / s4)
                Hg = grad_H(state, model)
                Sg = grad_S(state, model)
                shsh = kn_4bracket(Sg, Hg, Sg, Hg, state, model)
                fam["kn_psd"] = min(fam["kn_psd"], shsh)
        for key, val in fam.items():
            if key == "kn_psd":
                worst[key] = min(worst[key], val)
                ok = val >= -1e-15
            else:
                worst[key] = max(worst[key], val)
                ok = val <= 1e-12
            if not ok:
                failures.append((family, key))
    return dict(worst=worst, failures=failures, trials_per_family=n_trials)


def _reference_casimir_convergence(seed, level):
    """casimir_convergence_suite as one bracket call per trial."""
    n_trials = _counts(level)["casimir"]
    details = {}
    for family in FAMILIES:
        for label in ("entropy", "mass"):
            residuals = []
            for n in CASIMIR_SIZES:
                grid = Grid(dim=1, n=(n,), length=(1.0,))
                model = model_for(family, grid)
                state = smooth_state(grid, model, seed=seed + 3, kmax=2)
                if label == "entropy":
                    Cg = grad_S(state, model)
                else:
                    Cg = FunctionalGradient(m=grid.zeros_vector(),
                                            rho=np.ones(grid.shape),
                                            ctilde=grid.zeros(), sigma=grid.zeros())
                acc = 0.0
                for trial in range(n_trials):
                    F = random_gradient(grid, seed + 100 + trial, kmax=2)
                    denom = F.norm(grid) * max(Cg.norm(grid), 1.0)
                    acc += abs(poisson_bracket(F, Cg, state, model)) / denom
                residuals.append(acc / n_trials)
            floor_ok = max(residuals) <= FLOOR
            order = _observed_order(residuals)
            details[f"{family}:{label}"] = dict(
                residuals=residuals, order=None if floor_ok else order,
                passed=floor_ok or order >= ORDER_MIN)
    return details


def test_batched_suites_report_what_the_per_trial_loops_report():
    report = verify(seed=1, level="fast")["suites"]
    for name, reference in (("bracket_symmetry", _reference_bracket_symmetry),
                            ("casimir_convergence", _reference_casimir_convergence)):
        expected = json.dumps(_jsonable(reference(1, "fast")))
        assert json.dumps(report[name]["details"]) == expected, name


def test_symmetry_failure_is_charged_to_its_family_only(monkeypatch):
    plain = verification.poisson_bracket

    def skewed(Fg, Gg, state, model):
        out = plain(Fg, Gg, state, model)
        return out + 1e-6 if model.family == "GE" else out

    monkeypatch.setattr(verification, "poisson_bracket", skewed)
    result = verification.bracket_symmetry_suite(seed=2, level="fast")
    assert not result.passed
    assert result.details["failures"] == [("GE", "antisym"), ("GE", "bilinear")]


def test_nan_production_bracket_fails_the_symmetry_suite(monkeypatch):
    plain = verification.kn_4bracket

    def nan_for_single(*args):
        out = plain(*args)
        return float("nan") if np.ndim(out) == 0 else out

    monkeypatch.setattr(verification, "kn_4bracket", nan_for_single)
    result = verification.bracket_symmetry_suite(seed=2, level="fast")
    assert result.details["failures"] == [(f, "kn_psd") for f in DISSIPATIVE]

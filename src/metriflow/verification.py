"""Self-verification suites for the bracket structure.

Each suite is deterministic for a fixed seed and returns a SuiteResult with
a pass flag and numeric details.  verify() runs all suites at one of two
levels (fast / full, differing only in trial counts) with run_suites and
assembles a machine-readable report with assemble_report; the report
content is reproducible, so two runs with the same seed produce identical
files.

Tolerances: identities that hold by discrete adjointness or by construction
are checked near roundoff; identities limited by the discrete product rule
are checked by grid refinement at observed order >= 1.9, with a roundoff
floor accepted for residuals that are exactly zero discretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .brackets import poisson_bracket
from .dynamics import integrate, total_rhs
from .errors import ConfigError, require_seed
from .fields import random_gradient, smooth_state
from .functionals import (DIFFUSE_FAMILIES, DISSIPATIVE_FAMILIES, FAMILIES,
                          FunctionalGradient, ModelConfig, State, grad_H, grad_S)
from .grid import Grid
from .metriplectic import (TransportCoefficients, _embed3_matrix, _fluxes,
                           _onsager_blocks, dissipative_rhs, entropy_production_rate,
                           kn_4bracket, metriplectic_2bracket, onsager_fluxes)
from .thermo import EosParams, SurfaceCoefficients

ORDER_MIN = 1.9
FLOOR = 1e-12
# grid sizes of casimir_convergence_suite: every Casimir is exact (at FLOOR)
# on each; were one to leave a residual, the order of the two finest would
# tell an O(h^2) discretization error from a defect that does not shrink
CASIMIR_SIZES = (16, 32, 64, 128)
CASIMIR_SEED = 100  # casimir_convergence's trial seeds, the largest drawn, start here


@dataclass
class SuiteResult:
    passed: bool
    details: dict = field(default_factory=dict)


def _counts(level: str) -> dict:
    if level == "fast":
        return dict(sym=25, casimir=6, onsager_states=1,
                    production=150, crosspath=10, budget_steps=50)
    if level == "full":
        return dict(sym=200, casimir=50, onsager_states=2,
                    production=1000, crosspath=30, budget_steps=200)
    raise ValueError(f"unknown level {level!r}; use 'fast' or 'full'")


def model_for(family: str, grid: Grid) -> ModelConfig:
    """A standard test model with mild, generic coefficients."""
    surface = SurfaceCoefficients(
        lambda_u=2e-3, lambda_s=1e-3) if family in DIFFUSE_FAMILIES else SurfaceCoefficients()
    transport = TransportCoefficients(eta=0.01, zeta=0.005, kappa=0.02,
                                      dcoef=0.03) if family in DISSIPATIVE_FAMILIES else None
    return ModelConfig(family=family, grid=grid, eos=EosParams(),
                       surface=surface, transport=transport)


def _observed_order(residuals: list[float]) -> float:
    """Observed order from the two finest grids (the asymptotic estimate)."""
    if residuals[-1] <= 0 or residuals[-2] <= 0:
        return np.inf
    return float(np.log2(residuals[-2] / residuals[-1]))


def _judge_refinement(residuals: list[float]) -> dict:
    """The report entry of a refinement study, coarsest grid first: it
    passes at the roundoff floor or at observed order >= ORDER_MIN, and
    fails on any non-finite residual, whichever grid it is on."""
    finite = all(np.isfinite(residuals))
    floor_ok = finite and max(residuals) <= FLOOR
    order = _observed_order(residuals)
    return dict(residuals=residuals, order=None if floor_ok else order,
                passed=finite and (floor_ok or order >= ORDER_MIN))


# ----------------------------------------------------------------- suites

def _batch_of_one(Gg: FunctionalGradient) -> FunctionalGradient:
    """Gg with a trial axis of length 1, which broadcasts against a batch."""
    return FunctionalGradient(packed=Gg.packed[:, None])


def bracket_symmetry_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Poisson antisymmetry / bilinearity and the 4-bracket symmetries.

    Each identity is evaluated for all trials of a family in one bracket
    call on a batch of gradients.  Each family is judged on its own worst
    values; the report's ``worst`` holds the worst over all families.
    """
    n_trials = _counts(level)["sym"]
    grid = Grid(dim=1, n=(32,), length=(1.0,))
    rng = np.random.default_rng(seed)
    worst = {"antisym": 0.0, "bilinear": 0.0, "kn_12": 0.0, "kn_34": 0.0,
             "kn_pair": 0.0, "kn_bianchi": 0.0, "kn_psd": 0.0}
    failures = []
    for family in FAMILIES:
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=seed + 7)
        draws = [(int(rng.integers(0, 2 ** 31)), rng.uniform(-2, 2, size=2))
                 for _ in range(n_trials)]
        base = np.array([d[0] for d in draws])
        a, b = np.array([d[1] for d in draws]).T
        F = random_gradient(grid, base)
        G = random_gradient(grid, base + 1)
        fam = dict.fromkeys(worst, 0.0)
        pb_fg = poisson_bracket(F, G, state, model)
        pb_gf = poisson_bracket(G, F, state, model)
        scale = np.maximum(np.abs(pb_fg), 1.0)
        fam["antisym"] = np.max(np.abs(pb_fg + pb_gf) / scale)

        field_shape = (n_trials,) + (1,) * grid.dim
        pb_lin = poisson_bracket(F * a.reshape(field_shape) + G * b.reshape(field_shape),
                                 G, state, model)
        # {G, G} is exactly 0: each pairing is a difference of swapped terms
        resid = np.abs(pb_lin - a * pb_fg)
        fam["bilinear"] = np.max(resid / scale)

        if family in DISSIPATIVE_FAMILIES:
            K = random_gradient(grid, base + 2)
            N = random_gradient(grid, base + 3)
            b_fgkn = kn_4bracket(F, G, K, N, state, model)
            s4 = np.maximum(np.abs(b_fgkn), 1.0)
            fam["kn_12"] = np.max(np.abs(b_fgkn + kn_4bracket(G, F, K, N, state, model)) / s4)
            fam["kn_34"] = np.max(np.abs(b_fgkn + kn_4bracket(F, G, N, K, state, model)) / s4)
            fam["kn_pair"] = np.max(np.abs(b_fgkn - kn_4bracket(K, N, F, G, state, model)) / s4)
            bianchi = (b_fgkn + kn_4bracket(F, K, N, G, state, model)
                       + kn_4bracket(F, N, G, K, state, model))
            fam["kn_bianchi"] = np.max(np.abs(bianchi) / s4)
            # (S, H; S, H) depends on the state only; np.minimum keeps a NaN
            Hg = grad_H(state, model)
            Sg = grad_S(state, model)
            fam["kn_psd"] = np.minimum(0.0, kn_4bracket(Sg, Hg, Sg, Hg, state, model))
        for key, val in fam.items():
            # np.minimum and np.maximum keep a NaN, where min and max drop it
            psd = key == "kn_psd"
            worst[key] = np.minimum(worst[key], val) if psd else np.maximum(worst[key], val)
            if not (val >= -1e-15 if psd else val <= 1e-12):
                failures.append((family, key))
    passed = not failures
    return SuiteResult(passed,
                       dict(worst=worst, failures=failures,
                            trials_per_family=n_trials))


def casimir_convergence_suite(seed: int, level: str = "fast") -> SuiteResult:
    """|{F, S^a}^a| and |{F, M}| vanish under refinement (or exactly).

    The trial gradients are drawn once per grid size, as one batch, and
    each Casimir is paired with all of them in one bracket call.
    """
    n_trials = _counts(level)["casimir"]
    residuals = {(family, label): [] for family in FAMILIES
                 for label in ("entropy", "mass")}
    for n in CASIMIR_SIZES:
        grid = Grid(dim=1, n=(n,), length=(1.0,))
        F = random_gradient(grid, seed + CASIMIR_SEED + np.arange(n_trials), kmax=2)
        f_norm = F.norm(grid)
        for family in FAMILIES:
            model = model_for(family, grid)
            state = smooth_state(grid, model, seed=seed + 3, kmax=2)
            casimirs = {
                "entropy": grad_S(state, model),
                "mass": FunctionalGradient(m=grid.zeros_vector(), rho=np.ones(grid.shape),
                                           ctilde=grid.zeros(), sigma=grid.zeros())}
            for label, Cg in casimirs.items():
                denom = f_norm * max(Cg.norm(grid), 1.0)
                ratios = np.abs(poisson_bracket(F, _batch_of_one(Cg), state, model)) / denom
                # summed one term at a time in trial order, as a per-trial loop sums
                residuals[family, label].append(float(np.add.accumulate(ratios)[-1]) / n_trials)
    details = {f"{family}:{label}": _judge_refinement(res)
               for (family, label), res in residuals.items()}
    passed = all(d["passed"] for d in details.values())
    return SuiteResult(passed, details)


def curvature_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Positive sectional curvature K(F, G) = (F, G; F, G) of each dissipative
    model's 4-bracket, the smallest K per family over one batch of random
    gradient pairs, on the state of bracket_symmetry_suite."""
    n_trials = _counts(level)["sym"]
    grid = Grid(dim=1, n=(32,), length=(1.0,))
    base = np.random.default_rng(seed).integers(0, 2 ** 31, size=n_trials)
    F, G = random_gradient(grid, base), random_gradient(grid, base + 1)
    min_k = {}
    for family in DISSIPATIVE_FAMILIES:
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=seed + 7)
        # np.min keeps a NaN, which then fails the comparison below
        min_k[family] = float(np.min(kn_4bracket(F, G, F, G, state, model)))
    return SuiteResult(all(k > 0.0 for k in min_k.values()),
                       dict(min_curvature=min_k, trials_per_family=n_trials))


def _cells3(x: np.ndarray, grid: Grid) -> np.ndarray:
    """A field with leading component axes (each of length dim) as one row
    per cell, the components zero-padded to length 3."""
    k = x.ndim - grid.dim
    x = np.pad(x, [(0, 3 - grid.dim)] * k + [(0, 0)] * grid.dim)
    return np.moveaxis(x.reshape(x.shape[:k] + (-1,)), -1, 0)


def _onsager_cells(state: State, model: ModelConfig):
    """Per cell: the asymmetry and least eigenvalue of the assembled Onsager
    matrix (mu = mu_Gamma), and the largest gap between onsager_fluxes and
    the fluxes of the kernel's own _Closure: J_m = -stress and J_s = -kappa
    grad T / T as _fluxes builds them, J_c = -D grad mu_Gamma and J_e =
    T J_s + mu_Gamma J_c + v . J_m; each relative to its own scale."""
    g, dim, tr = state.grid, state.grid.dim, model.transport
    d = state.derived(model)
    T, mu = np.asarray(d.eos.T), d.mu_gamma
    gradv, _, gradT, _ = d.grads
    grad_mu = g.grad(mu)
    flux, closure = _fluxes(state, model, ideal=False)  # flux holds -J_m and -J_s
    K_c = -closure.diffuse(grad_mu).diffusion
    K_e = T * -flux[:, dim + 2] + mu * K_c + (-flux[:, :dim] * state.v).sum(axis=1)
    K_m, K_e, K_c, T, mu, v3, gT, gv, gmu = (_cells3(x, g) for x in (
        -flux[:, :dim], K_e, K_c, T, mu, state.v, gradT, gradv, grad_mu))

    blocks = _onsager_blocks(T, mu, v3, tr.eta, tr.zeta, _embed3_matrix(d.kappa),
                             _embed3_matrix(d.dcoef))
    T2 = T * T
    J_m, J_e, J_c = onsager_fluxes(
        blocks, -gT / T2[:, None],
        -gv / T[:, None, None] + gT[:, :, None] * v3[:, None, :] / T2[:, None, None],
        -gmu / T[:, None] + mu[:, None] * gT / T2[:, None])
    J_m[:, dim:] = J_m[:, :, dim:] = 0.0  # the out-of-plane stress enters no divergence
    J = np.concatenate([J_m.reshape(-1, 9), J_e, J_c], axis=-1)
    K = np.concatenate([K_m.reshape(-1, 9), K_e, K_c], axis=-1)
    L = blocks.assemble()
    L_t = L.swapaxes(-1, -2)
    scale = np.maximum(np.abs(L).max(axis=(-2, -1)), 1.0)
    # one scratch array, L - L^T and then 2 sym(L), holds down the peak RSS
    work = np.subtract(L, L_t)
    sym = np.abs(work, out=work).max(axis=(-2, -1)) / scale
    np.add(L, L_t, out=work)
    return (sym, np.linalg.eigvalsh(np.multiply(work, 0.5, out=work)).min(axis=-1) / scale,
            np.abs(J - K).max(axis=-1) / np.maximum(np.abs(K).max(axis=-1), 1.0))


def onsager_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Symmetry / psd of the assembled L, and onsager_fluxes against the
    kernel's fluxes, at all cells at once of 1D and 2D states, each with its
    own random transport coefficients, per dissipative family."""
    n_states = _counts(level)["onsager_states"]
    rng = np.random.default_rng(seed)
    worst_sym = worst_flux = 0.0
    min_eig = np.inf
    n_cells = 0
    grids = (Grid(dim=1, n=(32,), length=(1.0,)), Grid(dim=2, n=(16, 16), length=(1.0, 1.0)))
    for family in DISSIPATIVE_FAMILIES:
        for grid in grids:
            for _ in range(n_states):
                A, B = rng.standard_normal((2, grid.dim, grid.dim))
                eta, zeta = rng.uniform(0.0, 1.0, size=2)
                model = replace(model_for(family, grid), transport=TransportCoefficients(
                    eta=float(eta), zeta=float(zeta), kappa=A @ A.T, dcoef=B @ B.T))
                state = smooth_state(grid, model, seed=int(rng.integers(0, 2 ** 31)))
                sym, eig, flux = _onsager_cells(state, model)
                # array reductions and np.minimum / np.maximum keep a NaN
                worst_sym = np.maximum(worst_sym, sym.max())
                min_eig = np.minimum(min_eig, eig.min())
                worst_flux = np.maximum(worst_flux, flux.max())
                n_cells += len(sym)
    passed = bool(worst_sym <= 1e-13 and min_eig >= -1e-12 and worst_flux <= 1e-10)
    return SuiteResult(passed,
                       dict(worst_symmetry=float(worst_sym),
                            min_eigenvalue=float(min_eig),
                            worst_flux_residual=float(worst_flux), cells=n_cells))


def production_positivity_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Production >= 0 on random states; entropy-rate cross-path identities.
    Trial i takes the i-th seed and family i % 3, and each family's states
    are one batch, as are its first crosspath trials."""
    counts = _counts(level)
    grid = Grid(dim=1, n=(16,), length=(1.0,))
    seeds = np.random.default_rng(seed).integers(0, 2 ** 31, size=counts["production"])
    n_fam = len(DISSIPATIVE_FAMILIES)
    min_prod = np.inf
    worst_pair = 0.0
    worst_cross = 0.0
    for k, family in enumerate(DISSIPATIVE_FAMILIES):
        model = model_for(family, grid)
        fam_seeds = seeds[k::n_fam]  # member j is trial k + 3 j
        states = smooth_state(grid, model, seed=fam_seeds, amp=0.15)
        _, prods = entropy_production_rate(states, model)
        # np.min keeps a NaN, which then fails the comparison below
        min_prod = np.minimum(min_prod, np.min(prods))
        # this family's crosspath trials, one batch (a single production broadcasts)
        n_cross = len(range(k, counts["crosspath"], n_fam))
        prod = np.broadcast_to(prods, fam_seeds.shape)[:n_cross]
        cross = State(grid, packed=states.packed[:, :n_cross])
        Sg = grad_S(cross, model)
        rate = Sg.dot(dissipative_rhs(cross, model), grid)
        scale = np.maximum(np.abs(prod), 1e-30)
        worst_pair = np.maximum(worst_pair, np.max(np.abs(rate - prod) / scale))
        # (S, H; S, H): the 2-bracket is the 4-bracket with H in slots 2 and 4
        two = metriplectic_2bracket(Sg, Sg, cross, model)
        worst_cross = np.maximum(worst_cross, np.max(np.abs(two - prod) / scale))
    passed = bool(min_prod >= -1e-14 and worst_pair <= 1e-10 and worst_cross <= 1e-10)
    return SuiteResult(passed,
                       dict(min_production=float(min_prod),
                            worst_rate_mismatch=float(worst_pair),
                            worst_cross_path=float(worst_cross)))


def budgets_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Exact mass / concentration budgets and energy-rate refinement."""
    counts = _counts(level)
    details = {}

    # conserved budgets over a short run, every family
    for family in FAMILIES:
        grid = Grid(dim=1, n=(64,), length=(1.0,))
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=seed + 11)
        mass0 = grid.integrate(state.rho)
        conc0 = grid.integrate(state.ctilde)
        final = integrate(state, model, dt=1e-4, n_steps=counts["budget_steps"])
        dm = abs(grid.integrate(final.rho) - mass0) / abs(mass0)
        dc = abs(grid.integrate(final.ctilde) - conc0) / max(abs(conc0), 1e-3)
        details[f"{family}:budget"] = dict(mass_drift=float(dm), conc_drift=float(dc),
                                           passed=dm <= 1e-12 and dc <= 1e-12)

    # instantaneous energy rate under refinement
    for family in FAMILIES:
        residuals = []
        for n in (16, 32, 64):
            grid = Grid(dim=1, n=(n,), length=(1.0,))
            model = model_for(family, grid)
            state = smooth_state(grid, model, seed=seed + 13, kmax=2)
            Hg = grad_H(state, model)
            if family in DISSIPATIVE_FAMILIES:
                rhs = dissipative_rhs(state, model)
            else:
                rhs = total_rhs(state, model)
            residuals.append(abs(Hg.dot(rhs, grid))
                             / (Hg.norm(grid) * max(rhs.norm(grid), 1e-30)))
        details[f"{family}:energy_rate"] = _judge_refinement(residuals)
    return SuiteResult(all(d["passed"] for d in details.values()), details)


# ------------------------------------------------------------------ driver

_SUITES = {
    "bracket_symmetry": bracket_symmetry_suite,
    "casimir_convergence": casimir_convergence_suite,
    "curvature": curvature_suite,
    "onsager": onsager_suite,
    "production_positivity": production_positivity_suite,
    "budgets": budgets_suite,
}


# the suites that take RK4 steps, last in _SUITES: a caller may run them
# beside the others and still raise an earlier suite's error first
STEPPING_SUITES = ("budgets",)


def require_suite_seed(seed: int, level: str) -> None:
    """Raise a ConfigError naming seed unless it is >= 0 and every seed the
    suites of level draw from fits in int64 (a ValueError for a bad level)."""
    require_seed(seed)
    offset = CASIMIR_SEED + _counts(level)["casimir"] - 1
    if seed > np.iinfo(np.int64).max - offset:
        raise ConfigError(f"bad value for 'seed': seed = {seed} is too large; the {level} "
                          f"suites draw from int64 seeds up to seed + {offset}")


def run_suites(names, seed: int, level: str) -> dict:
    """The report entries of the suites ``names``, run in that order."""
    require_suite_seed(seed, level)
    entries = {}
    for name in names:
        result = _SUITES[name](seed, level)
        entries[name] = {"passed": bool(result.passed),
                         "details": _jsonable(result.details)}
    return entries


def assemble_report(seed: int, level: str, entries: dict) -> dict:
    """The JSON-serializable report of every suite's entry."""
    suites = {name: entries[name] for name in _SUITES}
    return {"seed": seed, "level": level,
            "passed": all(s["passed"] for s in suites.values()), "suites": suites}


def verify(seed: int = 1, level: str = "fast") -> dict:
    """Run every suite; returns a JSON-serializable report."""
    return assemble_report(seed, level, run_suites(_SUITES, seed, level))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: a bool is an int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj

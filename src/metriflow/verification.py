"""Self-verification suites for the bracket structure.

Each suite is deterministic for a fixed seed and returns a SuiteResult with
a pass flag and numeric details.  verify() runs all suites at one of two
levels (fast / full, differing only in trial counts) and assembles a
machine-readable report; the report content is reproducible, so two runs
with the same seed produce identical files.

Tolerances: identities that hold by discrete adjointness or by construction
are checked near roundoff; identities limited by the discrete product rule
are checked by grid refinement at observed order >= 1.9, with a roundoff
floor accepted for residuals that are exactly zero discretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brackets import poisson_bracket
from .dynamics import integrate, total_rhs
from .fields import random_gradient, smooth_state
from .functionals import (DIFFUSE_FAMILIES, DISSIPATIVE_FAMILIES, FAMILIES,
                          FunctionalGradient, ModelConfig, grad_H, grad_S)
from .grid import Grid
from .metriplectic import (TransportCoefficients, _embed3_matrix, _matvec,
                           _onsager_blocks, _trailing, dissipative_rhs,
                           entropy_production_rate, kn_4bracket, lam4,
                           metriplectic_2bracket, onsager_fluxes,
                           sectional_curvature)
from .thermo import EosParams, SurfaceCoefficients, eval_eos

ORDER_MIN = 1.9
FLOOR = 1e-12
# grid sizes of casimir_convergence_suite: every Casimir is exact (at FLOOR)
# on each; were one to leave a residual, the order of the two finest would
# tell an O(h^2) discretization error from a defect that does not shrink
CASIMIR_SIZES = (16, 32, 64, 128)
# trials per batched evaluation in onsager_suite: all 1,000 trials of level
# full at once would raise the peak RSS of `verify --level full` by ~19%
ONSAGER_BLOCK = 100


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _counts(level: str) -> dict:
    if level == "fast":
        return dict(sym=25, casimir=6, curvature=200, onsager=200,
                    production=150, crosspath=10, budget_steps=50)
    if level == "full":
        return dict(sym=200, casimir=50, curvature=1000, onsager=1000,
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
    return FunctionalGradient.of_pack(Gg.packed[:, None], len(Gg.m))


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
            if key == "kn_psd":
                worst[key] = min(worst[key], val)
                ok = val >= -1e-15
            else:
                worst[key] = max(worst[key], val)
                ok = val <= 1e-12
            if not ok:
                failures.append((family, key))
    passed = not failures
    return SuiteResult("bracket_symmetry", passed,
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
        F = random_gradient(grid, seed + 100 + np.arange(n_trials), kmax=2)
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
    return SuiteResult("casimir_convergence", passed, details)


def curvature_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Nonnegative sectional curvature for psd forms; positive for pd."""
    n_trials = _counts(level)["curvature"]
    rng = np.random.default_rng(seed)
    d = 6
    min_psd = np.inf
    min_pd = np.inf
    for _ in range(n_trials):
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        sig_mat = A @ A.T
        m_mat = B @ B.T
        F = rng.standard_normal(d)
        G = rng.standard_normal(d)
        sig_form = lambda x, y: float(x @ sig_mat @ y)
        m_form = lambda x, y: float(x @ m_mat @ y)
        scale = (np.linalg.norm(sig_mat) * np.linalg.norm(m_mat)
                 * np.linalg.norm(F) ** 2 * np.linalg.norm(G) ** 2)
        k = sectional_curvature(F, G, sig_form, m_form)
        # np.minimum / np.maximum keep a NaN, where min / max would drop it
        min_psd = np.minimum(min_psd, k / scale)

        # strictly positive-definite, non-collinear case
        sig_pd = sig_mat + 0.1 * np.eye(d)
        m_pd = m_mat + 0.1 * np.eye(d)
        cosang = abs(F @ G) / (np.linalg.norm(F) * np.linalg.norm(G))
        if cosang < 0.999:
            k_pd = sectional_curvature(
                F, G, lambda x, y: float(x @ sig_pd @ y),
                lambda x, y: float(x @ m_pd @ y))
            min_pd = np.minimum(min_pd, k_pd / scale)
    passed = bool(min_psd >= -1e-12 and min_pd > 0.0)
    return SuiteResult("curvature", passed,
                       dict(min_normalized_psd=float(min_psd),
                            min_normalized_pd=float(min_pd), trials=n_trials))


def _direct_fluxes(eta, zeta, kap3, dmat3, T, mu, v3, gradv, gradT, gradmu):
    """Textbook flux formulas used as the oracle for the Onsager relation,
    at one point or over leading trial axes."""
    lam = lam4(eta, zeta)
    J_m = -np.einsum("...ijkl,...kl->...ij", lam, gradv)
    J_c = -_matvec(dmat3, gradmu)
    J_e = _matvec(J_m, v3) - _matvec(kap3, gradT) - _trailing(mu, 1) * _matvec(dmat3, gradmu)
    return J_m, J_e, J_c


def _flux_abs_max(J_m, J_e, J_c) -> np.ndarray:
    """The largest |entry| of the three fluxes, per trial (NaN if any is)."""
    flat = np.concatenate([J_m.reshape(J_e.shape[:-1] + (9,)), J_e, J_c], axis=-1)
    return np.abs(flat).max(axis=-1)


def onsager_suite(seed: int, level: str = "fast",
                  transport_factory=None) -> SuiteResult:
    """Symmetry / psd of the assembled L and flux reconstruction.

    Trials are drawn one at a time, in a fixed RNG order, and evaluated
    ONSAGER_BLOCK at a time with the blocks' leading trial axis.
    transport_factory, if given, supplies the transport coefficients per
    trial (any object with eta/zeta/kappa/dcoef); used for fault injection.
    """
    n_trials = _counts(level)["onsager"]
    rng = np.random.default_rng(seed)
    eos = EosParams()
    worst_sym = 0.0
    min_eig = np.inf
    worst_flux = 0.0
    for start in range(0, n_trials, ONSAGER_BLOCK):
        trials = []
        for _ in range(min(ONSAGER_BLOCK, n_trials - start)):
            if transport_factory is not None:
                tr = transport_factory(rng)
            else:
                A = rng.standard_normal((3, 3))
                B = rng.standard_normal((3, 3))
                tr = TransportCoefficients(
                    eta=float(rng.uniform(0.0, 1.0)), zeta=float(rng.uniform(0.0, 1.0)),
                    kappa=A @ A.T, dcoef=B @ B.T)
            rho = float(rng.uniform(0.5, 2.0))
            s = float(rng.uniform(-0.5, 0.5))
            c = float(rng.uniform(-1.5, 1.5))
            v3 = rng.uniform(-1.0, 1.0, size=3)
            gradv = rng.uniform(-1, 1, size=(3, 3))
            gradT = rng.uniform(-1, 1, size=3)
            gradmu = rng.uniform(-1, 1, size=3)
            # the EOS and T ** 2 per trial, on floats: on arrays their pow
            # can differ from the scalar path in the last bit
            pt = eval_eos(rho, s, c, eos)
            T = float(pt.T)
            trials.append((T, float(pt.mu), T ** 2, v3, tr.eta, tr.zeta,
                           _embed3_matrix(tr.kappa), _embed3_matrix(tr.dcoef),
                           gradv, gradT, gradmu))
        T, mu, T2, v3, eta, zeta, kap3, dmat3, gradv, gradT, gradmu = (
            np.array(col) for col in zip(*trials))

        blocks = _onsager_blocks(T, mu, v3, eta, zeta, kap3, dmat3)
        L = blocks.assemble()
        L_t = L.swapaxes(-1, -2)
        scale = np.maximum(np.abs(L).max(axis=(-2, -1)), 1.0)
        # array reductions and np.minimum / np.maximum keep a NaN
        worst_sym = np.maximum(worst_sym, (np.abs(L - L_t).max(axis=(-2, -1)) / scale).max())
        min_eig = np.minimum(min_eig, (np.linalg.eigvalsh(0.5 * (L + L_t)).min(axis=-1)
                                       / scale).min())

        # flux reconstruction against the direct formulas
        aff_e = -gradT / T2[:, None]
        aff_m = -gradv / T[:, None, None] + gradT[:, :, None] * v3[:, None, :] / T2[:, None, None]
        aff_c = -gradmu / T[:, None] + mu[:, None] * gradT / T2[:, None]
        J_m, J_e, J_c = onsager_fluxes(blocks, aff_e, aff_m, aff_c)
        D_m, D_e, D_c = _direct_fluxes(eta, zeta, kap3, dmat3,
                                       T, mu, v3, gradv, gradT, gradmu)
        fs = np.maximum(_flux_abs_max(D_m, D_e, D_c), 1.0)
        worst_flux = np.maximum(worst_flux, (_flux_abs_max(J_m - D_m, J_e - D_e, J_c - D_c)
                                             / fs).max())
    passed = bool(worst_sym <= 1e-13 and min_eig >= -1e-12 and worst_flux <= 1e-10)
    return SuiteResult("onsager", passed,
                       dict(worst_symmetry=float(worst_sym),
                            min_eigenvalue=float(min_eig),
                            worst_flux_residual=float(worst_flux), trials=n_trials))


def production_positivity_suite(seed: int, level: str = "fast") -> SuiteResult:
    """Production >= 0 on random states; entropy-rate cross-path identities."""
    counts = _counts(level)
    grid = Grid(dim=1, n=(16,), length=(1.0,))
    rng = np.random.default_rng(seed)
    min_prod = np.inf
    worst_pair = 0.0
    worst_cross = 0.0
    for trial in range(counts["production"]):
        family = DISSIPATIVE_FAMILIES[trial % len(DISSIPATIVE_FAMILIES)]
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=int(rng.integers(0, 2 ** 31)),
                             amp=0.15)
        _, prod = entropy_production_rate(state, model)
        min_prod = np.minimum(min_prod, prod)
        if trial < counts["crosspath"]:
            Sg = grad_S(state, model)
            rate = Sg.dot(dissipative_rhs(state, model), grid)
            scale = max(abs(prod), 1e-30)
            worst_pair = np.maximum(worst_pair, abs(rate - prod) / scale)
            # (S, H; S, H): the 2-bracket is the 4-bracket with H in slots 2 and 4
            two = metriplectic_2bracket(Sg, Sg, state, model)
            worst_cross = np.maximum(worst_cross, abs(two - prod) / scale)
    passed = bool(min_prod >= -1e-14 and worst_pair <= 1e-10 and worst_cross <= 1e-10)
    return SuiteResult("production_positivity", passed,
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
    return SuiteResult("budgets", all(d["passed"] for d in details.values()), details)


# ------------------------------------------------------------------ driver

_SUITES = {
    "bracket_symmetry": bracket_symmetry_suite,
    "casimir_convergence": casimir_convergence_suite,
    "curvature": curvature_suite,
    "onsager": onsager_suite,
    "production_positivity": production_positivity_suite,
    "budgets": budgets_suite,
}


def verify(seed: int = 1, level: str = "fast") -> dict:
    """Run every suite; returns a JSON-serializable report."""
    if seed < 0:
        raise ValueError(f"bad value for 'seed': seed = {seed} is negative")
    _counts(level)  # validate level early
    suites = {}
    for name, suite in _SUITES.items():
        result = suite(seed, level)
        suites[name] = {"passed": bool(result.passed),
                        "details": _jsonable(result.details)}
    return {"seed": seed, "level": level,
            "passed": all(s["passed"] for s in suites.values()), "suites": suites}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj

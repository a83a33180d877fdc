"""End-to-end acceptance checks for the structural guarantees.

Each test covers one headline property at its stated tolerance and prints a
single pass/fail line (run with -s to see them inline).  The checks here are
deliberately heavier than the unit tests: full trial counts, full runs.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from metriflow import (Grid, ModelConfig, SurfaceCoefficients,
                       TransportCoefficients, capillary_force, diagnostics,
                       dissipative_rhs, entropy, entropy_production_rate,
                       grad_H, grad_S, ideal_rhs, integrate, kn_4bracket,
                       make_scenario, onsager_fluxes,
                       poisson_bracket, smooth_state,
                       total_rhs, zero_crossings)
from metriflow.fields import random_gradient
from metriflow.functionals import DISSIPATIVE_FAMILIES, FAMILIES, State, generalized_mu
from metriflow.metriplectic import lam4
from metriflow.scenarios import analytic_capillary_force
from metriflow.verification import model_for

IDEAL = ("GE", "CHE0", "CHE1")


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    pad = "." * max(1, 44 - len(label))
    print(f"[{num:2d}] {label} {pad} {status}  {detail}".rstrip())
    assert ok, f"acceptance check {num} ({label}): {detail}"


def observed_order(residuals):
    if residuals[-1] <= 0 or residuals[-2] <= 0:
        return np.inf
    return float(np.log2(residuals[-2] / residuals[-1]))


# --------------------------------------------------------------------------

def test_01_bracket_axioms():
    grid = Grid(dim=1, n=(32,), length=(1.0,))
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for family in FAMILIES:
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=17)
        for _ in range(200):
            base = int(rng.integers(0, 1 << 30))
            F = random_gradient(grid, base)
            G = random_gradient(grid, base + 1)
            fg = poisson_bracket(F, G, state, model)
            scale = max(abs(fg), 1.0)
            worst = max(worst, abs(fg + poisson_bracket(G, F, state, model)) / scale)
            a = float(rng.uniform(-2, 2))
            lin = poisson_bracket(a * F + G, G, state, model)
            ref = a * fg + poisson_bracket(G, G, state, model)
            worst = max(worst, abs(lin - ref) / scale)
            if family in DISSIPATIVE_FAMILIES:
                K = random_gradient(grid, base + 2)
                N = random_gradient(grid, base + 3)
                b = kn_4bracket(F, G, K, N, state, model)
                s4 = max(abs(b), 1.0)
                worst = max(
                    worst,
                    abs(b + kn_4bracket(G, F, K, N, state, model)) / s4,
                    abs(b + kn_4bracket(F, G, N, K, state, model)) / s4,
                    abs(b - kn_4bracket(K, N, F, G, state, model)) / s4,
                    abs(b + kn_4bracket(F, K, N, G, state, model)
                        + kn_4bracket(F, N, G, K, state, model)) / s4)
    elapsed = time.perf_counter() - t0
    report(1, "bracket axioms", worst <= 1e-12 and elapsed < 30.0,
           f"worst {worst:.2e}, {elapsed:.1f}s")


def test_02_casimir_suite():
    ok = True
    worst_order = np.inf
    for family in FAMILIES:
        for label in ("entropy", "mass"):
            residuals = []
            for n in (16, 32, 64):
                g = Grid(dim=1, n=(n,), length=(1.0,))
                model = model_for(family, g)
                state = smooth_state(g, model, seed=23, kmax=2)
                if label == "entropy":
                    Cg = grad_S(state, model)
                else:
                    from metriflow import FunctionalGradient
                    Cg = FunctionalGradient(m=g.zeros_vector(),
                                            rho=np.ones(g.shape),
                                            ctilde=g.zeros(), sigma=g.zeros())
                acc = 0.0
                for trial in range(50):
                    F = random_gradient(g, 1000 + trial, kmax=2)
                    acc += abs(poisson_bracket(F, Cg, state, model)) \
                        / (F.norm(g) * max(Cg.norm(g), 1.0))
                residuals.append(acc / 50)
            if max(residuals) <= 1e-12:
                continue  # annihilated exactly on every grid
            order = observed_order(residuals)
            worst_order = min(worst_order, order)
            ok = ok and order >= 1.9
    report(2, "Casimir annihilation under refinement", ok,
           f"slowest order {worst_order:.2f}")


def test_03_energy_conservation():
    ok = True
    worst_order = np.inf
    worst_floor = 0.0
    for family in FAMILIES:
        residuals = []
        for n in (16, 32, 64):
            g = Grid(dim=1, n=(n,), length=(1.0,))
            model = model_for(family, g)
            state = smooth_state(g, model, seed=29, kmax=2)
            Hg = grad_H(state, model)
            rhs = dissipative_rhs(state, model) if family in DISSIPATIVE_FAMILIES \
                else total_rhs(state, model)
            residuals.append(abs(Hg.dot(rhs, g))
                             / (Hg.norm(g) * max(rhs.norm(g), 1e-30)))
        if max(residuals) <= 1e-12:
            worst_floor = max(worst_floor, max(residuals))
            continue
        order = observed_order(residuals)
        worst_order = min(worst_order, order)
        ok = ok and order >= 1.9
    report(3, "energy conservation", ok,
           f"slowest order {worst_order:.2f}, exact-zero floor {worst_floor:.1e}")


def test_04_entropy_production():
    grid = Grid(dim=1, n=(16,), length=(1.0,))
    rng = np.random.default_rng(31)
    min_prod = np.inf
    worst_pair = 0.0
    worst_cross = 0.0
    for trial in range(1000):
        family = DISSIPATIVE_FAMILIES[trial % 3]
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=int(rng.integers(1 << 30)),
                             amp=0.15)
        _, prod = entropy_production_rate(state, model)
        min_prod = min(min_prod, prod)
        if trial < 30:
            Sg = grad_S(state, model)
            Hg = grad_H(state, model)
            rate = Sg.dot(dissipative_rhs(state, model), grid)
            cross = kn_4bracket(Sg, Hg, Sg, Hg, state, model)
            scale = max(abs(prod), 1e-30)
            worst_pair = max(worst_pair, abs(rate - prod) / scale)
            worst_cross = max(worst_cross, abs(cross - prod) / scale)
    ok = min_prod >= 0.0 and worst_pair <= 1e-10 and worst_cross <= 1e-10
    report(4, "entropy production identities", ok,
           f"min {min_prod:.1e}, pairing {worst_pair:.1e}, cross {worst_cross:.1e}")


def test_05_exact_budgets():
    worst = 0.0
    for family in FAMILIES:
        g = Grid(dim=1, n=(64,), length=(1.0,))
        model = model_for(family, g)
        state = smooth_state(g, model, seed=37)
        mass0 = g.integrate(state.rho)
        conc0 = g.integrate(state.ctilde)
        final = integrate(state, model, dt=1e-4, n_steps=1000)
        worst = max(worst,
                    abs(g.integrate(final.rho) - mass0) / abs(mass0),
                    abs(g.integrate(final.ctilde) - conc0) / max(abs(conc0), 1e-3))
    report(5, "exact mass / concentration budgets", worst <= 1e-12,
           f"worst drift {worst:.1e}")


def test_06_sectional_curvature():
    # K(F, G) = (F, G; F, G) of each dissipative model's 4-bracket
    grid = Grid(dim=1, n=(32,), length=(1.0,))
    seeds = np.random.default_rng(41).integers(0, 2 ** 31, size=1000)
    F, G = random_gradient(grid, seeds), random_gradient(grid, seeds + 1)
    min_k = {}
    for family in DISSIPATIVE_FAMILIES:
        model = model_for(family, grid)
        state = smooth_state(grid, model, seed=42)
        min_k[family] = float(np.min(kn_4bracket(F, G, F, G, state, model)))
    ok = all(k > 0.0 for k in min_k.values())
    report(6, "sectional curvature sign", ok,
           ", ".join(f"min {family} {k:.1e}" for family, k in min_k.items()))


def test_07_onsager_matrix(onsager_point):
    grid = Grid(dim=1, n=(4,), length=(1.0,))
    model = model_for("GNS", grid)
    rng = np.random.default_rng(43)
    worst_sym = 0.0
    min_eig = np.inf
    worst_flux = 0.0
    for _ in range(1000):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        tr = TransportCoefficients(eta=float(rng.uniform(0, 1)),
                                   zeta=float(rng.uniform(0, 1)),
                                   kappa=A @ A.T, dcoef=B @ B.T)
        rho = float(rng.uniform(0.5, 2.0))
        s = float(rng.uniform(-0.5, 0.5))
        c = float(rng.uniform(-1.5, 1.5))
        v3 = rng.uniform(-1, 1, size=3)
        blocks = onsager_point(rho, s, c, v3, replace(model, transport=tr))
        L = blocks.assemble()
        scale = max(float(np.abs(L).max()), 1.0)
        worst_sym = max(worst_sym, float(np.abs(L - L.T).max()) / scale)
        min_eig = min(min_eig,
                      float(np.linalg.eigvalsh(0.5 * (L + L.T)).min()) / scale)

        from metriflow import eval_eos
        pt = eval_eos(rho, s, c, model.eos)
        T, mu = float(pt.T), float(pt.mu)
        gradv = rng.uniform(-1, 1, size=(3, 3))
        gradT = rng.uniform(-1, 1, size=3)
        gradmu = rng.uniform(-1, 1, size=3)
        J_m, J_e, J_c = onsager_fluxes(
            blocks, aff_e=-gradT / T ** 2,
            aff_m=-gradv / T + np.outer(gradT, v3) / T ** 2,
            aff_c=-gradmu / T + mu * gradT / T ** 2)
        lam = lam4(tr.eta, tr.zeta)
        D_m = -np.einsum("ijkl,kl->ij", lam, gradv)
        D_c = -(B @ B.T) @ gradmu
        D_e = D_m @ v3 - (A @ A.T) @ gradT + mu * D_c
        fs = max(float(np.abs(D_m).max()), float(np.abs(D_e).max()),
                 float(np.abs(D_c).max()), 1.0)
        worst_flux = max(worst_flux,
                         float(np.abs(J_m - D_m).max()) / fs,
                         float(np.abs(J_e - D_e).max()) / fs,
                         float(np.abs(J_c - D_c).max()) / fs)
    ok = worst_sym <= 1e-13 and min_eig >= -1e-12 and worst_flux <= 1e-10
    report(7, "Onsager symmetry / psd / fluxes", ok,
           f"sym {worst_sym:.1e}, eig {min_eig:.1e}, flux {worst_flux:.1e}")


def test_08_cahn_hilliard_reduction():
    worst = 0.0
    for family in ("CHE1", "CHE0"):
        g = Grid(dim=1, n=(96,), length=(1.0,))
        model = ModelConfig(
            family=family, grid=g,
            surface=SurfaceCoefficients(lambda_u=2e-3, lambda_s=0.0))
        x = g.coords()[0]
        rho = np.ones(g.shape)  # lambda_f * rho is then constant
        c = 0.4 * np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x)
        state = State(grid=g, m=g.zeros_vector(), rho=rho, ctilde=c,
                      sigma=g.zeros())
        lam_f = model.surface.lambda_u
        target = c ** 3 - c - lam_f * g.div(g.grad(c))
        resid = np.abs(generalized_mu(state, model) - target).max()
        worst = max(worst, resid)
    report(8, "Cahn-Hilliard chemical potential", worst <= 1e-12,
           f"fieldwise residual {worst:.1e}")


def test_09_capillary_force_1d():
    sc = make_scenario("capillary_probe", seed=0)
    state, model = sc.state, sc.model
    g = state.grid
    force = capillary_force(state, model)[0]
    from metriflow.functionals import thermo_point
    from metriflow.thermo import lambda_f
    lam_f = float(np.asarray(lambda_f(
        np.asarray(thermo_point(state, model).T), model.surface)).ravel()[0])
    width = 24.0 * g.h[0]
    exact = analytic_capillary_force(g.coords()[0], g.length[0], width, lam_f)
    peak = float(np.abs(force).max())
    err = float(np.abs(force - exact).max() / np.abs(exact).max())
    ok = peak > 1e-3 and err <= 0.01
    report(9, "one-dimensional capillary force", ok,
           f"max |f| {peak:.2e}, oracle error {100 * err:.2f}%")


def test_10_physics_runs():
    from metriflow.functionals import thermo_point

    # heat relaxation: monotone total entropy, decaying temperature variance
    t0 = time.perf_counter()
    sc = make_scenario("heat_relax", seed=7)
    S_hist = [entropy(sc.state, sc.model)]
    var0 = float(np.var(np.asarray(thermo_point(sc.state, sc.model).T)))

    def heat_cb(i, st):
        if i % sc.cadence == 0:
            S_hist.append(entropy(st, sc.model))

    final = integrate(sc.state, sc.model, sc.dt, sc.n_steps, callback=heat_cb)
    var1 = float(np.var(np.asarray(thermo_point(final, sc.model).T)))
    heat_time = time.perf_counter() - t0
    heat_ok = (all(b >= a for a, b in zip(S_hist, S_hist[1:]))
               and var1 < var0 and heat_time < 60.0)

    # 1D spinodal decomposition: entropy never decreases, the domain
    # pattern coarsens (zero crossings of c strictly decrease)
    t0 = time.perf_counter()
    sp = make_scenario("spinodal1d", seed=42)
    S_sp = [entropy(sp.state, sp.model)]
    zc = {0: zero_crossings(sp.state.c)}

    def sp_cb(i, st):
        if i % sp.cadence == 0:
            S_sp.append(entropy(st, sp.model))
        if i in (500, sp.n_steps):
            zc[i] = zero_crossings(st.c)

    integrate(sp.state, sp.model, sp.dt, sp.n_steps, callback=sp_cb)
    sp_time = time.perf_counter() - t0
    zc_seq = [zc[0], zc[500], zc[sp.n_steps]]
    sp_ok = (all(b >= a for a, b in zip(S_sp, S_sp[1:]))
             and all(b < a for a, b in zip(zc_seq, zc_seq[1:]))
             and sp_time < 60.0)

    report(10, "physics runs (heat_relax, spinodal1d)", heat_ok and sp_ok,
           f"T-var {var0:.1e}->{var1:.1e}, crossings {zc_seq}, "
           f"{heat_time:.0f}s/{sp_time:.0f}s")


def test_11_temporal_order():
    grid = Grid(dim=1, n=(64,), length=(1.0,))
    model = ModelConfig(family="GE", grid=grid)
    state0 = smooth_state(grid, model, seed=47, amp=0.05)
    finals = []
    for n_steps in (10, 20, 40, 80):
        st = integrate(state0, model, 0.05 / n_steps, n_steps)
        finals.append(np.concatenate([st.m.ravel(), st.rho.ravel(),
                                      st.ctilde.ravel(), st.sigma.ravel()]))
    errs = [float(np.abs(a - b).max()) for a, b in zip(finals[:-1], finals[1:])]
    orders = [float(np.log2(e1 / e2)) for e1, e2 in zip(errs[:-1], errs[1:])]
    report(11, "RK4 self-convergence", min(orders) >= 3.9,
           f"orders {', '.join(f'{o:.2f}' for o in orders)}")

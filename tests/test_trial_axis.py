"""The trial axis: a batch of functional gradients through the bracket layer,
and a batch of points through the Onsager layer; the member axis: a batch of
states through Derived, the functionals, the production, the kernel, the
brackets and the step.

Every batched result must carry the same bits as a loop of single calls,
and the verify suites that use batches must report exactly what their
per-trial or per-cell loops (kept here as the reference) report.  The same
holds for the stacked draws of smooth_state and random_gradient, which must
also take the numbers of the stream as transcribed here in plain Python ints.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from metriflow import (FunctionalGradient, Grid, State, TransportCoefficients,
                       capillary_force, dissipative_rhs, entropy, entropy_production_rate,
                       eval_eos, gamma_eval, grad_H, grad_S, hamiltonian, ideal_rhs, kn_4bracket, lam4,
                       metriplectic_2bracket, poisson_bracket, smooth_state, step_rk4, total_rhs)
from metriflow import fields, verification
from metriflow.fields import FourierModes, fourier_field, random_gradient
from metriflow.functionals import DISSIPATIVE_FAMILIES, FAMILIES
from metriflow.metriplectic import (_apply_tensor, _dissipative_fluxes, _embed3_matrix,
                                   _onsager_matrix)
from metriflow.verification import (CASIMIR_SIZES, FLOOR, ORDER_MIN, _counts,
                                    _observed_order, model_for, onsager_suite,
                                    production_positivity_suite, verify)
from conftest import (as_json, model_of, onsager_affinities, onsager_fluxes_of,
                      transform_gradients, untransform_gradients)

SEEDS = np.array([3, 17, 40, 41, 1 << 30])


def _grid(dim):
    return Grid(dim=dim, n=(16,) * dim, length=(1.0,) * dim)


def _batches(grid, n):
    """n batches over SEEDS, and the same gradients one seed at a time."""
    batches = [random_gradient(grid, SEEDS + 1000 * i) for i in range(n)]
    singles = [[random_gradient(grid, int(s) + 1000 * i) for s in SEEDS]
               for i in range(n)]
    return batches, singles


@pytest.mark.parametrize("dim", [1, 2])
def test_random_gradient_batch_stacks_the_single_draws(dim):
    grid = _grid(dim)
    batch = random_gradient(grid, SEEDS, kmax=2)
    singles = [random_gradient(grid, int(s), kmax=2) for s in SEEDS]
    assert batch.m.shape == (dim, len(SEEDS)) + grid.shape
    assert np.array_equal(batch.m, np.stack([g.m for g in singles], axis=1))
    for slot in ("rho", "ctilde", "sigma"):
        assert getattr(batch, slot).shape == (len(SEEDS),) + grid.shape
        assert np.array_equal(getattr(batch, slot),
                              np.stack([getattr(g, slot) for g in singles]))
    assert singles[0].rho.shape == grid.shape


@pytest.mark.parametrize("dim", [1, 2])
def test_random_gradient_batch_slots_are_c_contiguous(dim):
    # Grid.deriv copies a strided field to C order before it differences it
    grid = _grid(dim)
    for seeds in (SEEDS, SEEDS.reshape(1, -1), int(SEEDS[0])):
        batch = random_gradient(grid, seeds)
        for slot in (batch.m, *batch.m, batch.rho, batch.ctilde, batch.sigma):
            assert slot.flags.c_contiguous, (np.shape(seeds), slot.strides)


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
    # one gradient against a batch raises, as in the brackets, from either
    # side (in 1D it had summed every member's momentum into each pairing)
    for X, Y in ((singles[0][0], G), (G, singles[0][0])):
        with pytest.raises(ValueError, match="trial axes"):
            X.dot(Y, grid)
    norms = [f.norm(grid) for f in singles[0]]
    assert type(norms[0]) is float
    assert np.array_equal(F.norm(grid), norms)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_poisson_bracket_matches_single_calls(family, dim):
    model = model_of(family, dim)
    state = smooth_state(model.grid, model, seed=8)
    (F, G), (fs, gs) = _batches(model.grid, 2)
    loop = [poisson_bracket(f, g, state, model) for f, g in zip(fs, gs)]
    assert type(loop[0]) is float
    batched = poisson_bracket(F, G, state, model)
    assert batched.shape == (len(SEEDS),)
    assert np.array_equal(batched, loop)


@pytest.mark.parametrize("transform", [transform_gradients, untransform_gradients])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["CHE0", "CHE1", "CHNS0", "CHNS1"])
def test_batched_gradient_transforms_match_single_calls(family, dim, transform):
    model = model_of(family, dim)
    state = smooth_state(model.grid, model, seed=8)
    (F,), (fs,) = _batches(model.grid, 1)
    batched = transform(F, state, model)
    loop = [transform(f, state, model) for f in fs]
    assert np.array_equal(batched.m, np.stack([t.m for t in loop], axis=1))
    for slot in ("rho", "ctilde", "sigma"):
        assert np.array_equal(getattr(batched, slot),
                              np.stack([getattr(t, slot) for t in loop])), slot


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_batch_of_one_broadcasts_against_a_batch(family, dim):
    model = model_of(family, dim)
    state = smooth_state(model.grid, model, seed=8)
    (F,), (fs,) = _batches(model.grid, 1)
    Sg = grad_S(state, model)
    one = FunctionalGradient(m=Sg.m[:, None], rho=Sg.rho[None],
                             ctilde=Sg.ctilde[None], sigma=Sg.sigma[None])
    assert np.array_equal(poisson_bracket(F, one, state, model),
                          [poisson_bracket(f, Sg, state, model) for f in fs])


@pytest.mark.parametrize("family", ["GNS", "CHNS1"])
def test_gradients_with_different_numbers_of_trial_axes_raise(family):
    # in 2D a batch of 2 against one gradient would broadcast the gradient's
    # component axis against the trial axis and give wrong values unnoticed
    model = model_of(family, 2)
    state = smooth_state(model.grid, model, seed=8)
    F = random_gradient(model.grid, SEEDS[:2])
    G = random_gradient(model.grid, 5)
    shapes = r"rho shapes \[\(2, 16, 16\), \(16, 16\)"
    with pytest.raises(ValueError, match=r"different numbers of trial axes: " + shapes):
        poisson_bracket(F, G, state, model)
    with pytest.raises(ValueError, match="different numbers of trial axes"):
        kn_4bracket(F, F, F, G, state, model)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_poisson_bracket_deriv_call_count(family, dim, deriv_calls):
    model = model_of(family, dim)
    state = smooth_state(model.grid, model, seed=8)
    (F, G), (fs, gs) = _batches(model.grid, 2)
    one = verification._batch_of_one(gs[0])
    poisson_bracket(fs[0], gs[0], state, model)  # the state's derived fields
    # one grad of each gradient's pack, for every family, whatever the
    # batch size: the brackets take no change of variables
    expected = 2 * dim
    for pair in ((fs[0], gs[0]), (F, G), (F, one), (one, one)):
        deriv_calls.clear()
        poisson_bracket(*pair, state, model)
        assert len(deriv_calls) == expected


@pytest.mark.parametrize("coef_kind", ["scalar", "matrix", "callable"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", DISSIPATIVE_FAMILIES)
def test_batched_kn_4bracket_matches_single_calls(family, dim, coef_kind):
    model = model_of(family, dim, coef_kind)
    state = smooth_state(model.grid, model, seed=9)
    batches, singles = _batches(model.grid, 4)
    loop = [kn_4bracket(*grads, state, model) for grads in zip(*singles)]
    assert type(loop[0]) is float
    batched = kn_4bracket(*batches, state, model)
    assert batched.shape == (len(SEEDS),)
    assert np.array_equal(batched, loop)


def _onsager_points(n, seed=12):
    """n random points: the point values _onsager_matrix takes, one column
    per argument, each column stacked over the points."""
    rng = np.random.default_rng(seed)
    model = model_for("GNS", Grid(dim=1, n=(4,), length=(1.0,)))
    cols = []
    for _ in range(n):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((2, 2))
        tr = TransportCoefficients(eta=float(rng.uniform(0.0, 1.0)),
                                   zeta=float(rng.uniform(0.0, 1.0)),
                                   kappa=A @ A.T, dcoef=B @ B.T)
        rho, s, c = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5)
        v3 = rng.uniform(-1.0, 1.0, size=3)
        pt = eval_eos(rho, s, c, model.eos)
        cols.append((float(pt.T), float(pt.mu), v3, tr.eta, tr.zeta,
                     _embed3_matrix(tr.kappa), _embed3_matrix(tr.dcoef)))
    return [np.array(col) for col in zip(*cols)]


def test_batched_lam4_stacks_the_single_tensors():
    rng = np.random.default_rng(4)
    eta, zeta = rng.uniform(0.0, 1.0, size=(2, 3, 5))
    batch = lam4(eta, zeta)
    assert batch.shape == (3, 5, 3, 3, 3, 3)
    loop = [[lam4(float(e), float(z)) for e, z in zip(*row)] for row in zip(eta, zeta)]
    assert np.array_equal(batch, loop)
    assert lam4(0.3, 0.1).shape == (3, 3, 3, 3)


def test_batched_onsager_matrix_and_fluxes_match_single_calls(onsager_reference):
    args = _onsager_points(7)
    full = _onsager_matrix(*args)
    loop = [onsager_reference(float(T), float(mu), v3, float(eta), float(zeta), kap3, dmat3)
            for T, mu, v3, eta, zeta, kap3, dmat3 in zip(*args)]
    assert full.shape == (7, 15, 15) and loop[0].shape == (15, 15)
    assert np.array_equal(full, loop)
    assert np.array_equal(full, [_onsager_matrix(*point) for point in zip(*args)])

    rng = np.random.default_rng(5)
    aff_e, aff_m, aff_c = (rng.uniform(-1, 1, size=(7,) + shape)
                           for shape in ((3,), (3, 3), (3,)))
    X = onsager_affinities(aff_m, aff_e, aff_c)
    batched = onsager_fluxes_of(full, X)
    per_point = [onsager_fluxes_of(L, x) for L, x in zip(loop, X)]
    for J, J_loop in zip(batched, zip(*per_point)):
        assert J.shape == (7,) + J_loop[0].shape
        assert np.array_equal(J, J_loop)


def _reference_field(grid, seed, j, kmax):
    """Mode set j of seed's stream as one field."""
    kvecs, amps, phases, _ = _reference_modes(seed, j, grid.dim, kmax)
    return fourier_field(grid, FourierModes(amps=amps, kvecs=kvecs, phases=phases))


def _reference_smooth_state(grid, model, seed, amp=0.1, kmax=3):
    """smooth_state as one fourier_field call per field: sets 0 to dim + 2
    are rho, v_1..v_dim, c and s^a; sigma is rho s^a plus, for a diffuse
    family, the surface entropy rho^a lambda_s Gamma(grad c)^2 / 2."""
    dim = grid.dim
    rho = 1.0 + amp * _reference_field(grid, seed, 0, kmax)
    v = np.stack([amp * _reference_field(grid, seed, j, kmax) for j in range(1, dim + 1)])
    ctilde = rho * (amp * _reference_field(grid, seed, dim + 1, kmax))
    sigma = rho * (amp * _reference_field(grid, seed, dim + 2, kmax))
    if model.is_diffuse:
        gamma, _ = gamma_eval(grid.grad(ctilde / rho), model.anisotropy)
        sigma = sigma + 0.5 * rho ** model.a * model.surface.lambda_s * gamma * gamma
    return State(grid=grid, m=rho * v, rho=rho, ctilde=ctilde, sigma=sigma)


@pytest.mark.parametrize("kmax", [2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_smooth_state_equals_the_per_field_reference(dim, kmax):
    model = model_of("CHNS1", dim)
    for seed in range(12):
        state = smooth_state(model.grid, model, seed=seed, amp=0.15, kmax=kmax)
        ref = _reference_smooth_state(model.grid, model, seed, amp=0.15, kmax=kmax)
        for slot in ("m", "rho", "ctilde", "sigma"):
            assert np.array_equal(getattr(state, slot), getattr(ref, slot)), (seed, slot)


def _member(x, i, grid):
    """Member i of a batched field: the axis before the grid axes."""
    return np.take(x, i, axis=x.ndim - grid.dim - 1)


MEMBER_CASES = [("GNS", 1), ("CHNS0", 1), ("CHNS1", 1), ("CHNS1", 2)]


@pytest.mark.parametrize("coef_kind", ["scalar", "callable"])
@pytest.mark.parametrize("family, dim", MEMBER_CASES)
def test_member_batch_matches_the_single_states(family, dim, coef_kind):
    # 2D models carry the fourfold anisotropy
    model = model_of(family, dim, coef_kind)
    grid = model.grid
    batch = smooth_state(grid, model, seed=SEEDS, amp=0.15)
    singles = [smooth_state(grid, model, seed=int(s), amp=0.15) for s in SEEDS]
    assert batch.packed.shape == (dim + 3, len(SEEDS)) + grid.shape
    assert batch.m.shape == (dim, len(SEEDS)) + grid.shape
    db = batch.derived(model)
    prod_field, prod = entropy_production_rate(batch, model)
    assert prod.shape == hamiltonian(batch, model).shape == entropy(batch, model).shape \
        == (len(SEEDS),)
    for i, single in enumerate(singles):
        ds = single.derived(model)
        assert np.array_equal(batch.packed[:, i], single.packed), i
        for name in ("u", "T", "p", "mu"):
            assert np.array_equal(_member(getattr(db.eos, name), i, grid),
                                  getattr(ds.eos, name)), (i, name)
        for b, s in zip((db.grads,) + db.gamma_xi, (ds.grads,) + ds.gamma_xi):
            assert np.array_equal(_member(b, i, grid), s), i
        assert np.array_equal(_member(db.mu_gamma, i, grid), ds.mu_gamma), i
        field_i, prod_i = entropy_production_rate(single, model)
        assert np.array_equal(_member(prod_field, i, grid), field_i), i
        assert prod[i] == prod_i
        assert hamiltonian(batch, model)[i] == hamiltonian(single, model)
        assert entropy(batch, model)[i] == entropy(single, model)


def _functions_of_a_state(state, model):
    """Every function of a state under the batch rule, by name."""
    Hg, Sg = grad_H(state, model), grad_S(state, model)
    rhs = total_rhs(state, model)
    out = dict(total_rhs=rhs.packed, ideal_rhs=ideal_rhs(state, model).packed,
               dissipative_rhs=dissipative_rhs(state, model).packed,
               grad_H=Hg.packed, grad_S=Sg.packed,
               capillary_force=capillary_force(state, model),
               poisson_bracket=poisson_bracket(Sg, Hg, state, model),
               dot=Hg.dot(rhs, model.grid),
               step_rk4=step_rk4(state, model, 1e-4).packed)
    if model.is_diffuse:
        out["transform_gradients"] = transform_gradients(Hg, state, model).packed
    if model.is_dissipative:
        out["kn_4bracket"] = kn_4bracket(Sg, Hg, Sg, Hg, state, model)
    return out


@pytest.mark.parametrize("family, dim",
                         [(family, 1) for family in FAMILIES] + [("CHE1", 2), ("CHNS1", 2)])
def test_every_function_of_a_state_takes_a_member_batch(family, dim):
    # 2D models carry the fourfold anisotropy
    model = model_of(family, dim)
    grid = model.grid
    seeds = SEEDS[:3]
    batched = _functions_of_a_state(smooth_state(grid, model, seed=seeds), model)
    for i, seed in enumerate(seeds):
        single = _functions_of_a_state(smooth_state(grid, model, seed=int(seed)), model)
        assert single.keys() == batched.keys()
        for name, value in single.items():
            if np.ndim(value) == 0:
                assert batched[name].shape == seeds.shape, name
                assert batched[name][i] == value, (i, name)
            else:
                assert np.array_equal(_member(batched[name], i, grid), value), (i, name)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_single_gradients_pair_with_a_member_batch(family, dim):
    # single gradients broadcast over the members of a batch of states
    model = model_of(family, dim)
    grid = model.grid
    F, G, K, N = (random_gradient(grid, seed) for seed in range(1, 5))
    seeds = SEEDS[:3]
    batch = smooth_state(grid, model, seed=seeds)
    brackets = [poisson_bracket]
    if model.is_dissipative:
        brackets.append(lambda F, G, state, model: kn_4bracket(F, G, K, N, state, model))
    for bracket in brackets:
        values = bracket(F, G, batch, model)
        assert values.shape == seeds.shape
        for i, seed in enumerate(seeds):
            assert values[i] == bracket(F, G, smooth_state(grid, model, seed=int(seed)), model)


@pytest.mark.parametrize("dim", [1, 2])
def test_each_member_gets_its_own_rms_cutoff(dim):
    # beside an O(1) member, a member whose grad c is about 1e-14 keeps its
    # xi; a cutoff from the RMS of the whole batch (about 1e-12) zeroes it
    model = model_of("CHNS1", dim)
    grid = model.grid
    strong, weak = smooth_state(grid, model, seed=4), smooth_state(grid, model, seed=5)
    wave = np.cos(2 * np.pi * grid.coords()[0]) * np.ones(grid.shape)
    faint = weak.replace(ctilde=weak.rho * 1e-14 * wave)
    batch = State(grid, packed=np.stack([strong.packed, faint.packed], axis=1))
    for i, single in enumerate((strong, faint)):
        for b, s in zip(batch.derived(model).gamma_xi, single.derived(model).gamma_xi):
            assert np.array_equal(_member(b, i, grid), s), i
    gc, _, xi = faint.derived(model).gamma_xi
    assert np.abs(gc).max() < 1e-12 and np.abs(xi).max() > 0.5


# ------------------------------------------- the draws' stream, transcribed

M64 = 2 ** 64 - 1


def _splitmix(z):
    """The SplitMix64 finalizer of a Python int, mod 2**64."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & M64
    return z ^ z >> 31


def _reference_modes(seed, j, dim, kmax):
    """(kvecs, amps, phases, zero rows) of mode set j of seed, word by word in
    Python ints: word w is _splitmix(_splitmix(seed) + (w + 1) * 0x9E3779B97F4A7C15),
    and set j reads words j * W to (j + 1) * W - 1, W = 4 dim + 8: the 4 x dim
    wavevector entries row by row, ((w & 0xFFFFFFFF) * (2 kmax + 1) >> 32) -
    kmax, with +1 on the first entry of an all-zero row; then the unit
    doubles (w >> 11) * 2**-53 of the 4 amplitudes, 0.3 + 0.7 u over 4, and
    of the 4 phases, 2 pi u."""
    width, key = 4 * dim + 8, _splitmix(seed)
    words = [_splitmix(key + (w + 1) * 0x9E3779B97F4A7C15 & M64)
             for w in range(j * width, (j + 1) * width)]
    entries = [((w & 0xFFFFFFFF) * (2 * kmax + 1) >> 32) - kmax for w in words[:4 * dim]]
    kvecs = [entries[r:r + dim] for r in range(0, 4 * dim, dim)]
    zero_rows = [row for row in kvecs if not any(row)]
    for row in zero_rows:
        row[0] += 1
    units = [(w >> 11) * 2.0 ** -53 for w in words[4 * dim:]]
    return (np.array(kvecs, dtype=np.int64), np.array([(0.3 + 0.7 * u) / 4 for u in units[:4]]),
            np.array([2.0 * np.pi * u for u in units[4:]]), len(zero_rows))


@pytest.fixture
def drawn_modes(monkeypatch):
    """The FourierModes that the draws hand to fourier_field, in call order."""
    seen, plain = [], fields.fourier_field

    def recorded(grid, modes):
        seen.append(modes)
        return plain(grid, modes)

    monkeypatch.setattr(fields, "fourier_field", recorded)
    return seen


@pytest.mark.parametrize("kmax", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_draws_take_the_per_set_stream(dim, kmax, drawn_modes):
    # every number of every set, one seed at a time and as a batch, for
    # random_gradient and smooth_state
    model = model_of("CHNS1", dim)
    grid, seeds, n_sets = model.grid, np.arange(200), dim + 3
    batch = random_gradient(grid, seeds, kmax=kmax)
    states = smooth_state(grid, model, seed=seeds, kmax=kmax)
    modes, zero_rows = drawn_modes[0], 0
    for seed in seeds:
        single = random_gradient(grid, seed, kmax=kmax)
        for j in range(n_sets):
            kvecs, amps, phases, zeros = _reference_modes(int(seed), j, dim, kmax)
            zero_rows += zeros
            assert np.array_equal(modes.kvecs[j, seed], kvecs) and modes.kvecs.dtype == kvecs.dtype
            assert np.array_equal(modes.amps[j, seed], amps)
            assert np.array_equal(modes.phases[j, seed], phases)
            field = fourier_field(grid, FourierModes(amps=amps, kvecs=kvecs, phases=phases))
            assert np.array_equal(single.packed[j], field), (seed, j)
            assert np.array_equal(batch.packed[j, seed], field), (seed, j)
        ref_state = _reference_smooth_state(grid, model, int(seed), kmax=kmax)
        assert np.array_equal(states.packed[:, seed], ref_state.packed), seed
        assert np.array_equal(smooth_state(grid, model, seed=seed, kmax=kmax).packed,
                              ref_state.packed), seed
    # the zero-row rule is exercised (a row is zero with odds (2 kmax + 1)**-dim)
    assert zero_rows > 0


# sha256 of the (kvecs, amps, phases) that random_gradient draws for seeds
# 0-199 on a 16-cell grid, by (dim, kmax)
MODES_SHA256 = {
    (1, 1): "ce5e6a483f4e720a228e9db07ab9480cc417839e1ef5db7ddc7564b883acb4fb",
    (1, 2): "7a278493bf6fe2701812e1bdd0fb02e6d9bd0f7818feeed8c01b3d55572ef777",
    (1, 3): "a9ab54826bc8eae8fc8f9b4bcac3f840f00c69abdcb3bb09eeb75fd17f9915ca",
    (2, 1): "1d06d67fe62c5d86e7e440fcffdc0f76c53d37d8f0cc1e60907fdd31d62ba5af",
    (2, 2): "e549e54b9a31226c45fa2630cbb1c8a472216c9fb4fae04d9f77352d998e63c7",
    (2, 3): "ed04c5b81484dbfc213aa38f255e54b1c0a96c7900b412176daba9c3d4e19788",
}


@pytest.mark.parametrize("kmax", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2])
def test_the_drawn_modes_are_pinned(dim, kmax, drawn_modes):
    random_gradient(_grid(dim), np.arange(200), kmax=kmax)
    (modes,) = drawn_modes
    digest = hashlib.sha256()
    for array in (modes.kvecs, modes.amps, modes.phases):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == MODES_SHA256[dim, kmax]


def _smooth_state_draw(grid, seed, kmax=3):
    return smooth_state(grid, model_of("CHNS1", grid.dim), seed=seed, kmax=kmax)


DRAWS = pytest.mark.parametrize("draw", [random_gradient, _smooth_state_draw],
                                ids=["random_gradient", "smooth_state"])


@DRAWS
def test_an_empty_seed_array_is_rejected(draw):
    with pytest.raises(ValueError, match="seed"):
        draw(_grid(1), np.array([], dtype=int))


def _no_draw(*args, **kw):
    raise AssertionError("drew before checking its arguments")


@pytest.mark.parametrize("seed", [-1, [3, -2], 1.5, [1.0, 2.0], True],
                         ids=["negative", "a_negative_one", "float", "floats", "bool"])
@DRAWS
def test_a_bad_seed_is_rejected_before_any_draw(draw, seed, monkeypatch):
    monkeypatch.setattr(fields, "_mix", _no_draw)
    with pytest.raises(ValueError, match="seed"):
        draw(_grid(1), seed)


@pytest.mark.parametrize("kmax", [0, -1, 1.5, 2 ** 31])
@DRAWS
def test_a_bad_kmax_is_rejected_before_any_draw(draw, kmax, monkeypatch):
    # kmax 0 would draw only zero rows
    monkeypatch.setattr(fields, "_mix", _no_draw)
    with pytest.raises(ValueError, match="kmax"):
        draw(_grid(1), 1, kmax=kmax)


def test_the_largest_kmax_and_seed_take_the_transcribed_numbers():
    # span 2**32 - 1, the widest the 32-bit multiply-shift takes, and seeds
    # up to 2**64 - 1, past int64
    kmax, seeds = 2 ** 31 - 1, np.array([4, 2 ** 63 + 5, M64], dtype=np.uint64)
    batch = random_gradient(_grid(1), seeds, kmax=kmax)
    for i, seed in enumerate(seeds.tolist()):
        kvecs, amps, phases, _ = _reference_modes(seed, 0, 1, kmax)
        field = fourier_field(_grid(1), FourierModes(amps=amps, kvecs=kvecs, phases=phases))
        assert np.array_equal(batch.packed[0, i], field), seed


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

            if family in DISSIPATIVE_FAMILIES:
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


def _reference_production_positivity(seed, level):
    """production_positivity_suite as one state per trial."""
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
            two = metriplectic_2bracket(Sg, Sg, state, model)
            worst_cross = np.maximum(worst_cross, abs(two - prod) / scale)
    return dict(min_production=float(min_prod), worst_rate_mismatch=float(worst_pair),
                worst_cross_path=float(worst_cross))


def _pad3(x, dim):
    """A dim-vector or dim x dim matrix zero-padded to 3 components."""
    return np.pad(x, [(0, 3 - dim)] * x.ndim)


def _reference_onsager(seed, level):
    """onsager_suite as one _onsager_matrix call and one matmul per cell,
    beside the kernel's flux fields read at that cell."""
    n_states = _counts(level)["onsager_states"]
    rng = np.random.default_rng(seed)
    worst_sym = worst_flux = 0.0
    min_eig = np.inf
    n_cells = 0
    for family in DISSIPATIVE_FAMILIES:
        for grid in (Grid(dim=1, n=(32,), length=(1.0,)), _grid(2)):
            dim = grid.dim
            for _ in range(n_states):
                A, B = rng.standard_normal((2, dim, dim))
                eta, zeta = rng.uniform(0.0, 1.0, size=2)
                tr = TransportCoefficients(eta=float(eta), zeta=float(zeta),
                                           kappa=A @ A.T, dcoef=B @ B.T)
                model = replace(model_for(family, grid), transport=tr)
                state = smooth_state(grid, model, seed=int(rng.integers(0, 2 ** 31)))
                d = state.derived(model)
                (gradv, gradT, _), (stress, heat, _) = _dissipative_fluxes(d)
                grad_mu = grid.grad(d.mu_gamma)
                K_c = -_apply_tensor(tr.dcoef, grad_mu)
                for cell in np.ndindex(grid.shape):
                    at = (slice(None),) + cell
                    T, mu = float(d.eos.T[cell]), float(d.mu_gamma[cell])
                    v3 = _pad3(state.v[at], dim)
                    L = _onsager_matrix(T, mu, v3, tr.eta, tr.zeta,
                                        _embed3_matrix(tr.kappa), _embed3_matrix(tr.dcoef))
                    scale = max(float(np.abs(L).max()), 1.0)
                    worst_sym = max(worst_sym, float(np.abs(L - L.T).max()) / scale)
                    min_eig = min(min_eig,
                                  float(np.linalg.eigvalsh(0.5 * (L + L.T)).min()) / scale)

                    gT, gmu = _pad3(gradT[at], dim), _pad3(grad_mu[at], dim)
                    J_m, J_e, J_c = onsager_fluxes_of(L, onsager_affinities(
                        -_pad3(gradv[(slice(None),) + at], dim) / T + np.outer(gT, v3) / (T * T),
                        -gT / (T * T), -gmu / T + mu * gT / (T * T)))
                    K_m = -stress[(slice(None),) + at]
                    K_e = T * (-heat[at] / T) + mu * K_c[at] \
                        + (K_m * state.v[at]).sum(axis=1)
                    J = [J_m[:dim, :dim], J_e, J_c]
                    K = [K_m, _pad3(K_e, dim), _pad3(K_c[at], dim)]
                    fs = max(max(float(np.abs(k).max()) for k in K), 1.0)
                    worst_flux = max(worst_flux, max(float(np.abs(j - k).max()) / fs
                                                     for j, k in zip(J, K)))
                    n_cells += 1
    return dict(worst_symmetry=float(worst_sym), min_eigenvalue=float(min_eig),
                worst_flux_residual=float(worst_flux), cells=n_cells)


@pytest.mark.parametrize("level, seeds", [("fast", range(4)), ("full", [1])])
def test_batched_onsager_suite_reports_what_the_per_trial_loop_reports(level, seeds):
    for seed in seeds:
        expected = as_json(_reference_onsager(seed, level))
        result = onsager_suite(seed, level)
        assert result.passed
        assert as_json(result.details) == expected, seed


@pytest.mark.parametrize("level, seeds", [("fast", range(4)), ("full", [1])])
def test_batched_production_suite_reports_what_the_per_trial_loop_reports(level, seeds):
    for seed in seeds:
        expected = as_json(_reference_production_positivity(seed, level))
        result = production_positivity_suite(seed, level)
        assert result.passed
        assert as_json(result.details) == expected, seed


def test_batched_suites_report_what_the_per_trial_loops_report():
    report = verify(seed=1, level="fast")["suites"]
    for name, reference in (("bracket_symmetry", _reference_bracket_symmetry),
                            ("casimir_convergence", _reference_casimir_convergence)):
        expected = as_json(reference(1, "fast"))
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
    assert result.details["failures"] == [(f, "kn_psd") for f in DISSIPATIVE_FAMILIES]

"""One benchmark process: a metriflow CLI call (or the layer table) in a fresh
interpreter, with its timings written to a JSON file.

    python3 child.py '<spec json>' <result.json>

Spec keys:

    src    directory that holds the ``metriflow`` package
    mode   "run"    timestamps at fixed points of the program (``Ticks``)
           "probe"  as "run", but stop at the first of them (the first step,
                    or the first verify suite): the process measures set-up
           "traced" every layer wrapped from outside by ``Tracer``
           "layers" per-layer table on the five scenarios' initial states
    argv   arguments for ``metriflow.cli.main`` (not used by "layers")
    seed   scenario seed for "layers"

Wrappers are installed at the names callers look up (for example
``metriflow.cli.step_rk4`` and ``Grid.deriv`` on the class); a wrapper bound
anywhere else would count nothing.  Timestamps come from ``time.monotonic``,
which on Linux is the system-wide CLOCK_MONOTONIC, so the parent can subtract
its own spawn timestamp from them.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

clock = time.monotonic


# The reference kernel: a fixed mix of small numpy calls, like the program's
# at these grid sizes, ~2 ms.  It does not use metriflow, so no change to the
# program moves it.
REF_EVERY_S = 0.03


def reference_arrays():
    rng = np.random.default_rng(0)
    return rng.standard_normal((64, 64)), rng.standard_normal(128)


def reference_kernel(a, b):
    roll = np.roll
    for _ in range(8):
        a = 0.25 * (roll(a, 1, 0) + roll(a, -1, 0) + roll(a, 1, 1)
                    + roll(a, -1, 1)) - 1e-3 * a
        for _ in range(10):
            b = 0.5 * (roll(b, 1) + roll(b, -1)) + 1e-3 * np.tanh(b)
    return a, b


class SetupDone(Exception):
    """Raised by a probe at the first step: set-up is over."""


def patch_everywhere(orig, new) -> None:
    """Rebind every module-level name in metriflow that refers to ``orig``."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("metriflow"):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
    from metriflow import verification
    for key, val in list(verification._SUITES.items()):
        if val is orig:
            verification._SUITES[key] = new


class Tracer:
    """Aggregated spans per layer: calls, busy (inclusive) and self time.

    Spans are not stored one by one; each ends by adding into per-name totals
    and into ``nested[(ancestor, name)]`` call counts, which attribute a call
    to every traced layer active above it.
    """

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested = Counter()
        self.extra = defaultdict(float)
        self._stack = []
        self._active = Counter()

    def wrap(self, name, fn, after=None):
        calls, busy, self_time = self.calls, self.busy, self.self_time
        nested, stack, active = self.nested, self._stack, self._active
        # report layers that are never called, with zeros
        calls[name], busy[name], self_time[name] = 0, 0.0, 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for anc in active:
                nested[anc, name] += 1
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                if not active[name]:
                    del active[name]
                    busy[name] += dt
                calls[name] += 1
                self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if after is not None:
                    after(args)

        return traced

    def install(self) -> None:
        from metriflow import (anisotropy, brackets, cli, dynamics, fields,
                               functionals, metriplectic, scenarios, thermo,
                               verification)
        from metriflow.functionals import State
        from metriflow.grid import Grid

        Grid.deriv = self.wrap("grid.deriv", Grid.deriv)
        State.validate = self.wrap("functionals.State.validate", State.validate)
        layers = [
            ("dynamics.step_rk4", dynamics.step_rk4),
            ("dynamics.total_rhs", dynamics.total_rhs),
            ("brackets.ideal_rhs", brackets.ideal_rhs),
            ("metriplectic.dissipative_rhs", metriplectic.dissipative_rhs),
            ("thermo.eval_eos", thermo.eval_eos),
            ("functionals.thermo_point", functionals.thermo_point),
            ("anisotropy.gamma_eval", anisotropy.gamma_eval),
            ("dynamics.diagnostics", dynamics.diagnostics),
            ("scenarios.make_scenario", scenarios.make_scenario),
            ("brackets.poisson_bracket", brackets.poisson_bracket),
            ("metriplectic.kn_4bracket", metriplectic.kn_4bracket),
            ("fields.random_gradient", fields.random_gradient),
        ]
        layers += [(f"verification.{name}", fn)
                   for name, fn in verification._SUITES.items()]
        for name, fn in layers:
            patch_everywhere(fn, self.wrap(name, fn))
        cli._write_fields = self.wrap("cli.write_fields", cli._write_fields,
                                      after=self._count_snapshot)

    def _count_snapshot(self, args) -> None:
        path, state = args[0], args[1]
        data = Path(path).read_bytes()
        self.extra["cli.write_fields.bytes"] += len(data)
        self.extra["cli.write_fields.rows"] += data.count(b"\n") - 1
        self.extra["cli.write_fields.cells"] += state.grid.zeros().size

    def report(self) -> dict:
        return {"calls": dict(self.calls), "busy_s": dict(self.busy),
                "self_s": dict(self.self_time),
                "nested": [[a, b, n] for (a, b), n in self.nested.items()],
                "extra": dict(self.extra)}


class Ticks:
    """Timestamps at fixed points of the program: the start ("s") and end
    ("e") of every ``step_rk4`` call, the start of every verify suite ("u")
    and the end of every ``random_gradient``, ``poisson_bracket`` and
    ``kn_4bracket`` call ("c"), which verify makes thousands of.  The first
    tick ends set-up; a probe stops there.

    At a tick at least REF_EVERY_S after the last reference call, the
    reference kernel runs once more and ``refs[i]`` holds its duration (0.0
    at other ticks).  The parent takes that time out of the interval that
    starts at the tick and scales each interval by the reference call before
    it: the host's speed drifts by up to 2x within seconds, and a reference
    call a few milliseconds away runs at the same speed as the program.
    """

    def __init__(self, stop_at_first: bool):
        self.stop_at_first = stop_at_first
        self.times = []
        self.kinds = []
        self.refs = []
        self.ref_arrays = reference_arrays()
        # three calls during set-up: ``ref0`` is their median, ``ref0_total``
        # their time, which the parent takes out of set-up
        t0 = clock()
        durations = []
        for _ in range(3):
            t = clock()
            reference_kernel(*self.ref_arrays)
            durations.append(clock() - t)
        self.last_ref = clock()
        self.ref0 = sorted(durations)[1]
        self.ref0_total = self.last_ref - t0

    def tick(self, kind: str) -> None:
        now = clock()
        self.times.append(now)
        self.kinds.append(kind)
        if self.stop_at_first:
            raise SetupDone
        ref = 0.0
        if now - self.last_ref >= REF_EVERY_S:
            reference_kernel(*self.ref_arrays)
            self.last_ref = clock()
            ref = self.last_ref - now
        self.refs.append(ref)

    def wrap(self, fn, before=None, after=None):
        @functools.wraps(fn)
        def ticked(*args, **kwargs):
            if before:
                self.tick(before)
            out = fn(*args, **kwargs)
            if after:
                self.tick(after)
            return out
        return ticked


def install_ticks(stop_at_first: bool) -> Ticks:
    from metriflow import brackets, dynamics, fields, metriplectic, verification
    ticks = Ticks(stop_at_first)
    for name, fn in list(verification._SUITES.items()):
        verification._SUITES[name] = ticks.wrap(fn, before="u")
    patch_everywhere(dynamics.step_rk4,
                     ticks.wrap(dynamics.step_rk4, before="s", after="e"))
    for fn in (fields.random_gradient, brackets.poisson_bracket,
               metriplectic.kn_4bracket):
        patch_everywhere(fn, ticks.wrap(fn, after="c"))
    return ticks


def record_integrate_energy(drifts: list) -> None:
    """Relative energy drift of each ``integrate`` call made by verify.

    H is taken on fresh copies so the integrator's own memo sees the same
    states it would see unwrapped.
    """
    from metriflow import verification
    from metriflow.functionals import hamiltonian
    orig = verification.integrate

    @functools.wraps(orig)
    def integrate(state, model, *args, **kwargs):
        h0 = hamiltonian(state.replace(), model)
        final = orig(state, model, *args, **kwargs)
        h1 = hamiltonian(final.replace(), model)
        drifts.append(abs(h1 - h0) / abs(h0))
        return final

    verification.integrate = integrate


# ------------------------------------------------------------ layer table

def _min_ms(fn, budget_s: float = 0.2, min_reps: int = 5) -> float:
    best = float("inf")
    spent, reps = 0.0, 0
    while reps < min_reps or spent < budget_s:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best, spent, reps = min(best, dt), spent + dt, reps + 1
    return best * 1e3


def layer_table(seed: int, scratch: Path) -> dict:
    """Minimum of repeated calls, in ms, of each layer on the initial state
    of each canned scenario.  Each call gets a fresh ``State``
    (``replace()``), so memoized derived fields are rebuilt as they are in a
    run; ``step_rk4_chained`` steps on from the previous step's state and
    ``step_rk4_same_state`` repeats on one instance, whose memo stays warm."""
    from metriflow import (SCENARIO_NAMES, dissipative_rhs, eval_eos,
                           gamma_eval, ideal_rhs, kn_4bracket, make_scenario,
                           poisson_bracket, random_gradient, step_rk4,
                           total_rhs)
    from metriflow import cli
    from metriflow.dynamics import diagnostics
    from metriflow.grid import Grid

    table = {}
    for name in SCENARIO_NAMES:
        sc = make_scenario(name, seed=seed)
        s0, model, g = sc.state, sc.model, sc.model.grid
        grads = [random_gradient(g, seed + i) for i in range(4)]
        gc = g.grad(s0.c)
        snap = scratch / f"fields_{name}.csv"
        cases = {
            "step_rk4": lambda: step_rk4(s0.replace(), model, sc.dt),
            "step_rk4_same_state": lambda: step_rk4(s0, model, sc.dt),
            "total_rhs": lambda: total_rhs(s0.replace(), model),
            "ideal_rhs": lambda: ideal_rhs(s0.replace(), model),
            "dissipative_rhs": lambda: dissipative_rhs(s0.replace(), model),
            "State.validate": lambda: s0.replace().validate(model),
            "grid.deriv": lambda: g.deriv(s0.ctilde, 0),
            "eval_eos": lambda: eval_eos(s0.rho, s0.s, s0.c, model.eos),
            "gamma_eval": lambda: gamma_eval(gc, model.anisotropy),
            "diagnostics": lambda: diagnostics(s0.replace(), model),
            "write_fields": lambda: cli._write_fields(snap, s0.replace(), model),
            "poisson_bracket": lambda: poisson_bracket(
                grads[0], grads[1], s0.replace(), model),
            "kn_4bracket": lambda: kn_4bracket(*grads, s0.replace(), model),
            "random_gradient": lambda: random_gradient(g, seed),
            "make_scenario": lambda: make_scenario(name, seed=seed),
        }
        row = {layer: _min_ms(fn) for layer, fn in cases.items()}
        chained = [s0]

        def chained_step():
            chained[0] = step_rk4(chained[0], model, sc.dt)

        row["step_rk4_chained"] = _min_ms(chained_step)

        plain = Grid.deriv
        counted = [0]

        def deriv(self, *args, **kwargs):
            counted[0] += 1
            return plain(self, *args, **kwargs)

        Grid.deriv = deriv
        try:
            total_rhs(s0.replace(), model)
        finally:
            Grid.deriv = plain
        row["deriv_calls_per_rhs"] = counted[0]
        table[name] = row
    return table


def main() -> int:
    spec = json.loads(sys.argv[1])
    result_path = Path(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import metriflow
    from metriflow import cli

    if Path(metriflow.__file__).resolve().parent != Path(spec["src"], "metriflow").resolve():
        raise SystemExit(f"metriflow imported from {metriflow.__file__}, "
                         f"not from {spec['src']}")
    mode = spec["mode"]
    result = {"mode": mode, "numpy": np.__version__}
    if mode == "layers":
        result["table"] = layer_table(int(spec["seed"]), result_path.parent)
        rc = 0
    else:
        argv = spec["argv"]
        tracer = ticks = None
        drifts = []
        if mode == "traced":
            tracer = Tracer()
            tracer.install()
        else:
            ticks = install_ticks(stop_at_first=(mode == "probe"))
            if mode == "run" and argv[0] == "verify":
                record_integrate_energy(drifts)
        try:
            rc = cli.main(argv)
        except SetupDone:
            rc = 0
        if ticks is not None:
            result.update(ticks=ticks.times, kinds="".join(ticks.kinds),
                          refs=ticks.refs, ref0=ticks.ref0,
                          ref0_total=ticks.ref0_total)
        if tracer is not None:
            result["trace"] = tracer.report()
        result["integrate_energy_drift"] = drifts
    result["rc"] = rc
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Two subcommands:

  run     -- integrate a named scenario, writing diagnostics.csv, periodic
             field snapshots fields_<step>.csv, and a run.json metadata file
             echoing the fully resolved configuration.
  verify  -- run the structure-verification suites and write a
             machine-readable JSON report; exit 0 iff every suite passes.

Configuration precedence: command-line flags > config file > scenario
defaults.  The config file is flat ``key = value`` text; unknown keys are
rejected with the offending line number.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dynamics import diagnostics, step_rk4
from .errors import ConfigError, IntegrationError
from .functionals import generalized_mu, thermo_point
from .scenarios import SCENARIO_NAMES, Scenario, make_scenario
from .verification import verify

# keys allowed in a config file; values are parsed with the given callables
_CONFIG_KEYS = {
    "scenario": str, "seed": int, "dim": int, "n": int, "length": float,
    "dt": float, "t_end": float, "cadence": int, "model": str,
    "eta": float, "zeta": float, "kappa": float, "dcoef": float,
    "lambda_u": float, "lambda_s": float, "gamma": str,
    "out": str, "threads": int, "t_global": float,
}

# config keys forwarded to make_scenario as overrides
_OVERRIDE_KEYS = ("dim", "n", "length", "dt", "t_end", "cadence", "model",
                  "eta", "zeta", "kappa", "dcoef", "lambda_u", "lambda_s",
                  "gamma", "t_global")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VERIFY = 4


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (what run.json echoes)."""

    scenario: str
    seed: int
    dim: int
    n: int
    length: float
    dt: float
    t_end: float
    cadence: int
    model: str
    eta: float
    zeta: float
    kappa: float
    dcoef: float
    lambda_u: float
    lambda_s: float
    gamma: str
    out: str
    threads: int
    t_global: float


def parse_config_file(path: str) -> dict:
    """Parse a flat key = value config file; rejects unknown keys."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over scenario defaults."""
    file_vals = parse_config_file(args.config) if args.config else {}
    cli_vals = {k: getattr(args, k) for k in _CONFIG_KEYS
                if getattr(args, k, None) is not None}
    merged = {**file_vals, **cli_vals}
    scenario_name = merged.get("scenario")
    if scenario_name is None:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    if scenario_name not in SCENARIO_NAMES:
        raise ConfigError(f"unknown scenario {scenario_name!r}; "
                          f"choose from {SCENARIO_NAMES}")
    seed = int(merged.get("seed", 0))
    overrides = {k: merged[k] for k in _OVERRIDE_KEYS if k in merged}
    scen = make_scenario(scenario_name, seed=seed, overrides=overrides)
    tr = scen.model.transport
    return RunConfig(
        scenario=scenario_name, seed=seed,
        dim=scen.model.grid.dim, n=scen.model.grid.n[0],
        length=scen.model.grid.length[0],
        dt=scen.dt, t_end=scen.t_end, cadence=scen.cadence,
        model=scen.model.family.lower(),
        eta=tr.eta if tr else 0.0, zeta=tr.zeta if tr else 0.0,
        kappa=float(tr.kappa) if tr else 0.0,
        dcoef=float(tr.dcoef) if tr else 0.0,
        lambda_u=scen.model.surface.lambda_u,
        lambda_s=scen.model.surface.lambda_s,
        gamma=_gamma_spec(scen.model.anisotropy),
        out=str(merged.get("out", "out")),
        threads=int(merged.get("threads", 1)),
        t_global=scen.t_global,
    )


def _gamma_spec(anis) -> str:
    if anis.kind == "iso":
        return "iso"
    if anis.kind == "fourfold":
        return f"fourfold:{anis.eps4:.17g}"
    return "user"


def scenario_from_config(cfg: RunConfig) -> Scenario:
    overrides = {k: getattr(cfg, k) for k in _OVERRIDE_KEYS}
    return make_scenario(cfg.scenario, seed=cfg.seed, overrides=overrides)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_diag_row(fh, diag) -> str:
    row = ",".join(_fmt(v) for v in diag.row())
    fh.write(row + "\n")
    return row


def _write_fields(path: Path, state, model) -> None:
    g = state.grid
    pt = thermo_point(state, model)
    T = np.asarray(pt.T) * np.ones(g.shape)
    mu_g = generalized_mu(state, model)
    # one row per cell, in C order
    coords = [np.broadcast_to(x, g.shape) for x in g.coords()]
    if g.dim == 1:
        header = "x,rho,mx,ctilde,sigma,T,mu_gamma"
        cols = [coords[0], state.rho, state.m[0], state.ctilde, state.sigma,
                T, mu_g]
    else:
        header = "x,y,rho,mx,my,ctilde,sigma,T,mu_gamma"
        cols = [coords[0], coords[1], state.rho, state.m[0], state.m[1],
                state.ctilde, state.sigma, T, mu_g]
    rows = zip(*(np.ravel(col).tolist() for col in cols))
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"  # the same digits as _fmt
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % row for row in rows)


def _set_threads(n: int) -> None:
    # best effort; numpy's BLAS pools may already be fixed at import time
    try:
        from threadpoolctl import threadpool_limits
        threadpool_limits(limits=n)
    except ImportError:
        pass


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = resolve_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _set_threads(cfg.threads)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "run.json", "w") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

    scen = scenario_from_config(cfg)
    model, state = scen.model, scen.state
    n_steps = scen.n_steps
    last_row = ""
    with open(outdir / "diagnostics.csv", "w") as diag_fh:
        diag_fh.write("t,M,Px,Py,C,H,S,S_prod,T_min\n")
        last_row = _write_diag_row(diag_fh, diagnostics(state, model, t=0.0))
        _write_fields(outdir / "fields_0.csv", state, model)
        try:
            for step in range(1, n_steps + 1):
                state = step_rk4(state, model, scen.dt, step_index=step)
                if step % scen.cadence == 0 or step == n_steps:
                    t = step * scen.dt
                    last_row = _write_diag_row(
                        diag_fh, diagnostics(state, model, t=t))
                    _write_fields(outdir / f"fields_{step}.csv", state, model)
        except IntegrationError as exc:
            print(f"integration failed at step {exc.step}: {exc}",
                  file=sys.stderr)
            print(f"last diagnostics row: {last_row}", file=sys.stderr)
            return EXIT_INTEGRATION
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _set_threads(args.threads if args.threads is not None else 1)
    try:
        report = verify(seed=args.seed if args.seed is not None else 1,
                        level=args.level)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out) if args.out else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "verify_report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, suite in report["suites"].items():
        status = "pass" if suite["passed"] else "FAIL"
        print(f"{name}: {status}")
    print(f"report written to {path}")
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metriflow",
        description="Structure-preserving two-phase compressible flow")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario")
    run_p.add_argument("--scenario", choices=SCENARIO_NAMES)
    run_p.add_argument("--config", help="flat key = value config file")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--dim", type=int, choices=(1, 2))
    run_p.add_argument("--n", type=int)
    run_p.add_argument("--length", type=float)
    run_p.add_argument("--dt", type=float)
    run_p.add_argument("--t-end", dest="t_end", type=float)
    run_p.add_argument("--model",
                       choices=("ge", "gns", "che0", "che1", "chns0", "chns1"))
    run_p.add_argument("--eta", type=float)
    run_p.add_argument("--zeta", type=float)
    run_p.add_argument("--kappa", type=float)
    run_p.add_argument("--dcoef", type=float)
    run_p.add_argument("--lambda-u", dest="lambda_u", type=float)
    run_p.add_argument("--lambda-s", dest="lambda_s", type=float)
    run_p.add_argument("--gamma", help="iso or fourfold:<eps>")
    run_p.add_argument("--out", help="output directory (default: out)")
    run_p.add_argument("--threads", type=int)
    run_p.add_argument("--cadence", type=int)
    run_p.set_defaults(func=cmd_run, t_global=None)

    ver_p = sub.add_parser("verify", help="run the verification suites")
    ver_p.add_argument("--seed", type=int, default=1)
    ver_p.add_argument("--level", choices=("fast", "full"), default="fast")
    ver_p.add_argument("--out", help="report directory (default: out)")
    ver_p.add_argument("--threads", type=int)
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

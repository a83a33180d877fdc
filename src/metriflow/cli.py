"""Command-line entry point.

Two subcommands:

  run     -- integrate a named scenario, writing diagnostics.csv, periodic
             field snapshots fields_<step>.csv, and a run.json metadata file
             echoing the fully resolved configuration; it steps through
             dynamics.integrate, so a dt above the stability estimate warns.
             The rows and snapshots come from a writer process forked at
             the start (os.fork, so POSIX only), while the stepping goes on;
             a write error stops the run at the next snapshot, exit 2.
  verify  -- run the structure-verification suites and write a
             machine-readable JSON report; exit 0 iff every suite passes.
             The suites that take no step run in a worker process forked
             at the start (os.fork, so POSIX only, as for run), beside the
             ones that step.

The run settings are the fields of one dataclass, ``RunConfig``.  Each is a
``run`` flag (``t_end`` is ``--t-end``), a config-file key and a key of
run.json, so ``run --config`` with the lines of a run.json rebuilds its run.
Precedence: command-line flags > config file > scenario defaults.  The
config file is flat ``key = value`` text; unknown keys and bad values are
rejected with the offending line number.
Exit codes: 0 ok, 2 a bad setting or unusable file, 3 a failed step, 4 a
failed verify suite.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pickle
import re
import signal
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import verification
from .dynamics import Diagnostics, diagnostics, integrate
from .errors import ConfigError, IntegrationError
from .functionals import FAMILIES, State, thermo_point
from .scenarios import (SCENARIO_NAMES, SETTING_TYPES, RunConfig, Scenario,
                        make_scenario, parse_setting)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VERIFY = 4
# glibc trim threshold for `run`: a 64x64 RK4 step raises the live heap by
# ~2 MB and frees it at the end; at the default 128 KiB glibc hands it back
# to the OS, and the next step page-faults it in again (~480 faults a step)
TRIM_THRESHOLD = 64 << 20
# glibc mmap threshold for `run`, its largest value: setting the trim
# threshold turns off glibc's sliding mmap threshold, which would otherwise
# stay where it was, so every pack-sized temporary above it (640 KB at
# 128x128) would be mapped and unmapped again at each use
MMAP_THRESHOLD = 32 << 20


# a comment starts with '#' at the start of a line or after whitespace, so
# that a value such as ``out = run#1`` keeps its '#'
_COMMENT = re.compile(r"(^|\s)#.*")


def parse_config_file(path: str) -> dict:
    """Parse a flat key = value config file; rejects unknown and repeated
    keys."""
    values, line_of = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = parse_setting(key, val)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, Scenario]:
    """Merge CLI flags over config-file values over scenario defaults, and
    build the scenario they describe."""
    settings = parse_config_file(args.config) if args.config else {}
    settings.update((k, getattr(args, k)) for k in SETTING_TYPES
                    if getattr(args, k) is not None)
    name = settings.pop("scenario", None)
    if name is None:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    seed = settings.pop("seed", 0)
    out = settings.pop("out", "out")
    scen = make_scenario(name, seed=seed, overrides=settings)
    return RunConfig(scenario=name, seed=seed, out=out, **scen.params), scen


def _write_diag_row(fh, diag) -> str:
    row = ",".join(f"{v:.17g}" for v in diag.row())
    fh.write(row + "\n")
    return row


def _write_fields(path: Path, state, model) -> None:
    # (name, column) pairs; one row per cell, in C order
    cols = [*zip("xy", np.broadcast_arrays(*state.grid.coords())),
            ("rho", state.rho), *zip(("mx", "my"), state.m), ("ctilde", state.ctilde),
            ("sigma", state.sigma), ("T", thermo_point(state, model).T),
            ("mu_gamma", state.derived(model).mu_gamma)]
    rows = zip(*(col.ravel().tolist() for _, col in cols))
    fmt = ",".join(["%.17g"] * len(cols)) + "\n"  # the digits of the diagnostics rows
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _ in cols) + "\n")
        fh.writelines(fmt % row for row in rows)


def _put(fh, obj) -> None:
    pickle.dump(obj, fh)
    fh.flush()


class Forked:
    """A process forked to run ``work(inbox, outbox)`` on two pipe ends:
    ``to`` writes to its inbox, and ``answer`` reads the next object it
    pickled to its outbox, raising it if it is an exception.  An exception
    that stops ``work`` is its last answer.  The process leaves only through
    os._exit, so it never returns into its caller or flushes the caller's
    buffers; ``files`` are the process's, closed here after the fork."""

    def __init__(self, name: str, work, *files):
        (inbox, self.to), (self.back, outbox) = (
            (open(r, "rb"), open(w, "wb")) for r, w in (os.pipe(), os.pipe()))
        try:
            self.pid = os.fork()
        except OSError:
            for fh in (inbox, self.to, self.back, outbox, *files):
                fh.close()
            raise
        if self.pid == 0:
            self.to.close()
            self.back.close()
            code = 1
            try:
                work(inbox, outbox)
                code = 0
            except BaseException as exc:
                _put(outbox, exc)
            finally:
                os._exit(code)
        for fh in (inbox, outbox, *files):
            fh.close()
        self.name = name

    def answer(self):
        try:
            answer = pickle.load(self.back)
        except EOFError:
            raise RuntimeError(f"the {self.name} stopped without an answer") from None
        if isinstance(answer, BaseException):
            raise answer
        return answer

    def reap(self, kill: bool = False) -> None:
        """Close the pipes and wait for the process, killed first if ``kill``."""
        if self.pid:
            self.to.close()
            self.back.close()
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


class SnapshotWriter(Forked):
    """A forked process that owns diagnostics.csv and the fields_<step>.csv
    files, so that their formatting and writing run beside the stepping.
    ``send`` passes it a step and the state's pack down a pipe, after
    reading its answer to the snapshot before: that row, or the exception
    that stopped it, raised here.  So a write error surfaces at the next
    snapshot, and a writer that falls behind holds the stepping there.  It
    ends at EOF, so ``reap`` waits for the snapshots it was sent."""

    def __init__(self, outdir: Path, scen: Scenario):
        diag_fh = open(outdir / "diagnostics.csv", "w")  # a bad path fails here
        super().__init__("snapshot writer",
                         lambda inbox, outbox: _serve(inbox, outbox, diag_fh, outdir, scen),
                         diag_fh)  # this process's diag_fh holds nothing
        self.last_row = ""

    def send(self, step: int, state) -> None:
        self.last_row = self.answer()
        self.to.write(step.to_bytes(8, "little") + state.packed.tobytes())
        self.to.flush()

    def close(self) -> str:
        """Wait for the writer to finish; the last row it wrote, or its error raised."""
        try:
            self.to.close()  # the end mark: the writer reads EOF
            self.last_row = self.answer()
        finally:
            self.reap()
        return self.last_row


def _serve(to_fh, back_fh, diag_fh, outdir: Path, scen: Scenario) -> None:
    """The writer: it answers "" once up, then each snapshot's row."""
    model, shape = scen.model, scen.state.packed.shape
    row = ""
    with diag_fh:
        diag_fh.write(Diagnostics.header + "\n")
        while True:
            _put(back_fh, row)
            head, packed = to_fh.read(8), np.empty(shape)
            if len(head) < 8 or to_fh.readinto(packed) < packed.nbytes:
                break  # EOF: the end mark, or the run is gone
            step = int.from_bytes(head, "little")
            state = State(model.grid, packed=packed)
            row = _write_diag_row(diag_fh, diagnostics(state, model, t=step * scen.dt))
            _write_fields(outdir / f"fields_{step}.csv", state, model)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg, scen = resolve_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "run.json", "w") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:  # glibc; -1 is M_TRIM_THRESHOLD, -3 M_MMAP_THRESHOLD
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-1, TRIM_THRESHOLD)
        mallopt(-3, MMAP_THRESHOLD)
    n_steps = scen.n_steps
    writer = SnapshotWriter(outdir, scen)

    def snapshot(step, state):
        if step % scen.cadence == 0 or step == n_steps:
            writer.send(step, state)

    try:
        snapshot(0, scen.state)
        integrate(scen.state, scen.model, scen.dt, n_steps, callback=snapshot)
        writer.close()
    except IntegrationError as exc:
        last_row = writer.close()
        print(f"integration failed at step {exc.step}: {exc}",
              file=sys.stderr)
        print(f"last diagnostics row: {last_row}", file=sys.stderr)
        return EXIT_INTEGRATION
    finally:
        writer.reap()
    return EXIT_OK


def verify(seed: int, level: str) -> dict:
    """verification.verify's report.  The suites that step run in this
    process and the others meanwhile in a forked worker (os.fork, so POSIX
    only), which sends back their report entries.  A suite's exception is
    raised here, the earlier suite's if both processes raise one."""
    beside = [name for name in verification._SUITES
              if name not in verification.STEPPING_SUITES]
    worker = Forked("verify worker", lambda inbox, outbox: _put(
        outbox, verification.run_suites(beside, seed, level)))
    try:
        try:
            entries = verification.run_suites(verification.STEPPING_SUITES, seed, level)
        except Exception:
            worker.answer()  # the worker's suites come first in _SUITES
            raise
        entries.update(worker.answer())
    finally:
        worker.reap(kill=True)  # at once on any way out: it has nothing left to write
    return verification.assemble_report(seed, level, entries)


def cmd_verify(args: argparse.Namespace) -> int:
    verification.require_suite_seed(args.seed, args.level)  # before --out is made
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the suites
    report = verify(seed=args.seed, level=args.level)
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

    run_p = sub.add_parser(
        "run", help="integrate a scenario",
        epilog=f"scenarios: {', '.join(SCENARIO_NAMES)}; models: "
               f"{', '.join(f.lower() for f in FAMILIES)}; dim: 1 or 2; "
               "gamma: iso or fourfold:<eps>; out: output directory "
               "(default: out).  Unset settings take the scenario's defaults.")
    run_p.add_argument("--config", help="flat key = value config file")
    for f in fields(RunConfig):
        run_p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=SETTING_TYPES[f.name])
    run_p.set_defaults(func=cmd_run)

    ver_p = sub.add_parser("verify", help="run the verification suites")
    ver_p.add_argument("--seed", type=int, default=1)
    ver_p.add_argument("--level", choices=("fast", "full"), default="fast")
    ver_p.add_argument("--out", default="out",
                       help="report directory (default: out)")
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # an OSError names its file
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

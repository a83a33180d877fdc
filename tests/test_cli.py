"""Command-line interface: exit codes, file outputs, determinism."""

import errno
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import metriflow.cli as cli
from metriflow import (ConfigError, IntegrationError, ParameterError, dynamics,
                       verification)
from metriflow.cli import (EXIT_CONFIG, EXIT_INTEGRATION, EXIT_OK,
                           EXIT_VERIFY, RunConfig, build_parser, main,
                           parse_config_file, resolve_config)
from metriflow.dynamics import integrate
from metriflow.scenarios import make_scenario


def run_cli(*argv):
    return main(list(argv))


def cli_subprocess(*argv, timeout=120):
    """Run the CLI in a fresh interpreter, as a user does: warnings reach
    its stderr unrecorded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, "-m", "metriflow.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def reference_run(out, *argv):
    """The run's outputs from the in-process body that preceded the snapshot
    writer: integrate with a callback that writes each diagnostics row and
    snapshot itself, in order."""
    cfg, scen = resolve_config(build_parser().parse_args(["run", *argv]))
    out.mkdir(parents=True)
    with open(out / "diagnostics.csv", "w") as fh:
        fh.write("t,M,Px,Py,C,H,S,S_prod,T_min\n")

        def snapshot(step, state):
            if step % scen.cadence == 0 or step == scen.n_steps:
                cli._write_diag_row(fh, cli.diagnostics(state, scen.model, t=step * scen.dt))
                cli._write_fields(out / f"fields_{step}.csv", state, scen.model)

        snapshot(0, scen.state)
        integrate(scen.state, scen.model, scen.dt, scen.n_steps, callback=snapshot)


def output_bytes(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.json"}


def assert_no_child_left():
    """run reaps its snapshot writer, and verify its worker, on every path
    out of main."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Stop(Exception):
    pass


def raises(exc):
    """A function that raises exc, whatever it is called with."""
    def raiser(*args, **kwargs):
        raise exc
    return raiser


def read_csv_column(path, name):
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(name)
    return np.array([float(row.split(",")[idx]) for row in lines[1:]])


def test_run_heat_relax_ok(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--scenario", "heat_relax", "--n", "64",
                   "--t-end", "0.1", "--out", str(out))
    assert code == EXIT_OK
    assert (out / "run.json").exists()
    assert (out / "diagnostics.csv").exists()
    assert (out / "fields_0.csv").exists()
    S = read_csv_column(out / "diagnostics.csv", "S")
    assert np.all(np.diff(S) >= 0.0)


def test_run_negative_dt_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--scenario", "spinodal1d", "--dt", "-1",
                   "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_run_bad_gamma_spec_is_config_error(tmp_path):
    code = run_cli("run", "--scenario", "heat_relax",
                   "--gamma", "sixfold:0.1", "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG


def test_run_without_scenario_is_config_error(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert "scenario" in capsys.readouterr().err


def test_reruns_are_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli("run", "--scenario", "heat_relax", "--t-end", "0.05",
                       "--seed", "3", "--out", str(out)) == EXIT_OK
        outs.append((out / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_integration_failure_reports_step(tmp_path):
    proc = cli_subprocess("run", "--scenario", "heat_relax", "--dt", "5.0",
                          "--t-end", "10.0", "--out", str(tmp_path / "o"))
    assert proc.returncode == EXIT_INTEGRATION
    assert "exceeds the estimated stability limit" in proc.stderr
    assert "integration failed at step 1" in proc.stderr
    row = proc.stderr.partition("last diagnostics row: ")[2]
    assert row == (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()[-1] + "\n"


@pytest.mark.parametrize("argv", [
    ("--scenario", "spinodal1d", "--cadence", "5", "--t-end", "0.003"),
    ("--scenario", "spinodal2d", "--n", "8"),
], ids=["spinodal1d", "spinodal2d"])
def test_run_writes_the_bytes_of_the_in_process_body(tmp_path, argv):
    reference_run(tmp_path / "ref", *argv)
    assert run_cli("run", *argv, "--out", str(tmp_path / "o")) == EXIT_OK
    assert_no_child_left()
    expected = output_bytes(tmp_path / "ref")
    assert len(expected) > 2 and output_bytes(tmp_path / "o") == expected


def test_a_snapshot_write_error_exits_2_naming_the_file(tmp_path, capsys, monkeypatch):
    steps = []
    step_rk4 = dynamics.step_rk4

    def counted(*args, **kwargs):
        steps.append(1)
        return step_rk4(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step_rk4", counted)
    out = tmp_path / "o"
    (out / "fields_100.csv").mkdir(parents=True)
    assert run_cli("run", "--scenario", "heat_relax", "--out", str(out)) == EXIT_CONFIG
    assert_no_child_left()
    assert capsys.readouterr().err == (
        f"config error: [Errno 21] Is a directory: '{out / 'fields_100.csv'}'\n")
    # the stepping stops at the next snapshot (cadence 50) at the latest,
    # with rows 0, 50 and 100 as the in-process body wrote them
    assert 100 <= len(steps) <= 150
    reference_run(tmp_path / "ref", "--scenario", "heat_relax", "--t-end", "0.1")
    assert (out / "diagnostics.csv").read_bytes() == (tmp_path / "ref" / "diagnostics.csv").read_bytes()


def test_run_sets_both_malloc_thresholds_before_the_first_step(tmp_path, monkeypatch):
    # glibc keeps its mmap threshold where it is once the trim threshold is
    # set, so run sets the mmap threshold in the same place, before any step
    events = []

    class Mallopt:
        def __call__(self, param, value):
            events.append(("mallopt", param, value))
            return 1

    class Libc:
        def __init__(self, name):
            self.mallopt = Mallopt()

    step_rk4 = dynamics.step_rk4

    def counted(*args, **kwargs):
        events.append(("step",))
        return step_rk4(*args, **kwargs)

    monkeypatch.setattr(cli.ctypes, "CDLL", Libc)
    monkeypatch.setattr(dynamics, "step_rk4", counted)
    assert run_cli("run", "--scenario", "heat_relax", "--t-end", "0.002",
                   "--out", str(tmp_path)) == EXIT_OK
    assert_no_child_left()
    assert events == [("mallopt", -1, cli.TRIM_THRESHOLD), ("mallopt", -3, cli.MMAP_THRESHOLD),
                      ("step",), ("step",)]
    assert cli.MMAP_THRESHOLD == 32 << 20  # glibc's largest on 64-bit hosts


def assert_a_failed_fork_exits_2_and_closes_its_files(tmp_path, capsys, monkeypatch, *argv):
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_CONFIG
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []
    assert capsys.readouterr().err == f"config error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"


def test_a_failed_fork_exits_2_and_closes_its_files(tmp_path, capsys, monkeypatch):
    assert_a_failed_fork_exits_2_and_closes_its_files(
        tmp_path, capsys, monkeypatch, "run", "--scenario", "heat_relax")


def test_a_failed_verify_fork_exits_2_and_closes_its_files(tmp_path, capsys, monkeypatch):
    assert_a_failed_fork_exits_2_and_closes_its_files(tmp_path, capsys, monkeypatch, "verify")


def test_a_failed_run_leaves_no_writer_behind(tmp_path, monkeypatch):
    with pytest.warns(RuntimeWarning, match="stability limit"):
        assert run_cli("run", "--scenario", "heat_relax", "--dt", "5.0", "--t-end", "10.0",
                       "--out", str(tmp_path / "a")) == EXIT_INTEGRATION
    assert_no_child_left()
    monkeypatch.setattr(dynamics, "step_rk4", raises(Stop))
    with pytest.raises(Stop):
        run_cli("run", "--scenario", "heat_relax", "--out", str(tmp_path / "b"))
    assert_no_child_left()
    monkeypatch.undo()
    reference_run(tmp_path / "ref", "--scenario", "heat_relax", "--t-end", "0.002")
    ref = output_bytes(tmp_path / "ref")
    assert output_bytes(tmp_path / "b") == {
        "diagnostics.csv": b"".join(ref["diagnostics.csv"].splitlines(keepends=True)[:2]),
        "fields_0.csv": ref["fields_0.csv"]}


def test_missing_config_file_is_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigError, match="missing.cfg"):
        parse_config_file(str(missing))
    assert run_cli("run", "--config", str(missing)) == EXIT_CONFIG
    assert f"config error: cannot read config file {missing}" in capsys.readouterr().err


def test_unwritable_run_output_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_cli("run", "--scenario", "heat_relax", "--t-end", "0.002",
                   "--out", str(blocker / "x"))
    assert code == EXIT_CONFIG
    assert str(blocker / "x") in capsys.readouterr().err


def test_unwritable_verify_output_fails_before_the_suites(tmp_path, monkeypatch,
                                                         capsys):
    def no_suites(seed, level):
        raise AssertionError("the suites ran before the output was checked")

    monkeypatch.setattr(cli, "verify", no_suites)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli("verify", "--out", str(blocker / "x")) == EXIT_CONFIG
    assert str(blocker / "x") in capsys.readouterr().err


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc heap trims")
def test_run_keeps_freed_heap_between_steps(tmp_path):
    """A 64x64 RK4 step frees ~2 MB at its end.  If glibc trims that back
    to the OS, the next step faults it in again (hundreds of minor faults a
    step); run keeps it, so extra steps cost next to no faults."""
    def faults(t_end):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        proc = cli_subprocess("run", "--scenario", "spinodal2d", "--t-end", t_end,
                              "--out", str(tmp_path / t_end))
        assert proc.returncode == EXIT_OK, proc.stderr
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    # dt = 5e-4: 20 and 60 steps
    assert (faults("0.03") - faults("0.01")) / 40 < 20


def test_fields_snapshot_layout(tmp_path):
    out = tmp_path / "o"
    run_cli("run", "--scenario", "heat_relax", "--t-end", "0.01",
            "--out", str(out))
    header = (out / "fields_0.csv").read_text().splitlines()[0]
    assert header == "x,rho,mx,ctilde,sigma,T,mu_gamma"


def test_2d_snapshot_has_one_row_per_cell(tmp_path):
    out = tmp_path / "o"
    assert run_cli("run", "--scenario", "spinodal2d", "--n", "8",
                   "--t-end", "0.0005", "--seed", "4",
                   "--out", str(out)) == EXIT_OK
    state = make_scenario("spinodal2d", seed=4, overrides={"n": 8}).state
    rows = np.loadtxt(out / "fields_0.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == state.grid.zeros().size
    x, y = (np.broadcast_to(c, state.grid.shape) for c in state.grid.coords())
    expected = np.stack([x.ravel(), y.ravel(), state.rho.ravel()], axis=1)
    assert np.array_equal(rows[:, :3], expected)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# heat relaxation\nscenario = heat_relax\nn = 48\n"
                   "kappa = 0.5  # strong conduction\n")
    vals = parse_config_file(str(cfg))
    assert vals == {"scenario": "heat_relax", "n": 48, "kappa": 0.5}


def test_config_file_unknown_key_cites_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = heat_relax\nviscosity = 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2"):
        parse_config_file(str(cfg))


def test_config_file_repeated_key_cites_both_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\nscenario = heat_relax\nn = 48\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3: key 'n' already set on line 1"):
        parse_config_file(str(cfg))


def test_config_file_bad_syntax(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(str(cfg))


def test_cli_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = heat_relax\nn = 32\nt_end = 0.01\n")
    out = tmp_path / "o"
    code = run_cli("run", "--config", str(cfg), "--n", "48", "--out", str(out))
    assert code == EXIT_OK
    meta = json.loads((out / "run.json").read_text())
    assert meta["n"] == 48
    assert meta["t_end"] == 0.01


def test_run_json_round_trips(tmp_path):
    out = tmp_path / "o"
    run_cli("run", "--scenario", "capillary_probe", "--t-end", "0.001",
            "--out", str(out))
    meta = json.loads((out / "run.json").read_text())
    cfg = RunConfig(**meta)
    overrides = {k: v for k, v in meta.items()
                 if k not in ("scenario", "seed", "out")}
    scen = make_scenario(cfg.scenario, seed=cfg.seed, overrides=overrides)
    ref = make_scenario(cfg.scenario, seed=cfg.seed, overrides=overrides)
    assert np.array_equal(scen.state.ctilde, ref.state.ctilde)
    assert scen.model.family == "CHNS1"
    assert scen.dt == meta["dt"]
    assert scen.params == overrides


@pytest.fixture
def forks(monkeypatch):
    """The list to which each os.fork of the test appends a 1."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def test_verify_fast_passes(tmp_path, capsys, forks):
    out = tmp_path / "v"
    code = run_cli("verify", "--seed", "1", "--level", "fast",
                   "--out", str(out))
    assert code == EXIT_OK
    assert forks == [1]
    assert_no_child_left()
    text = capsys.readouterr().out
    for suite in ("bracket_symmetry", "casimir_convergence", "curvature",
                  "onsager", "production_positivity", "budgets"):
        assert f"{suite}: pass" in text
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 1


@pytest.mark.parametrize("level, seed, code", [
    ("fast", 1, EXIT_OK), ("fast", 2, EXIT_OK), ("fast", 10, EXIT_OK),
    ("full", 1, EXIT_OK),
    ("fast", 9, EXIT_OK),  # an O(h^2) energy rate read order 1.71 < ORDER_MIN here
])
def test_verify_writes_the_in_process_report(tmp_path, forks, level, seed, code):
    out = tmp_path / "v"
    assert run_cli("verify", "--seed", str(seed), "--level", level, "--out", str(out)) == code
    assert forks == [1]
    assert_no_child_left()
    expected = json.dumps(verification.verify(seed, level), indent=2, sort_keys=True) + "\n"
    assert (out / "verify_report.json").read_text() == expected


@pytest.mark.parametrize("suite", ["curvature", "budgets"])  # the worker's lane, the CLI's
def test_verify_writes_the_report_of_a_failing_suite(tmp_path, monkeypatch, forks, suite):
    # the suite runs as it is but reports a failure, patched in before the fork
    plain = verification._SUITES[suite]
    monkeypatch.setitem(verification._SUITES, suite, lambda seed, level: verification.SuiteResult(
        False, plain(seed, level).details))
    out = tmp_path / "v"
    assert run_cli("verify", "--seed", "1", "--out", str(out)) == EXIT_VERIFY
    assert forks == [1]
    assert_no_child_left()
    expected = verification.verify(1, "fast")
    assert [name for name, entry in expected["suites"].items() if not entry["passed"]] == [suite]
    assert (out / "verify_report.json").read_text() == json.dumps(
        expected, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def quick_suites(monkeypatch):
    """Every verify suite replaced by one that passes at once; a test sets
    its own entries of the returned dict, verification._SUITES."""
    def passes(seed, level):
        return verification.SuiteResult(True, {"seed": seed})

    for name in verification._SUITES:
        monkeypatch.setitem(verification._SUITES, name, passes)
    return verification._SUITES


def test_verify_exits_2_and_reaps_its_worker_on_an_unwritable_report(tmp_path, capsys,
                                                                     quick_suites, forks):
    (tmp_path / "verify_report.json").mkdir()
    assert run_cli("verify", "--out", str(tmp_path)) == EXIT_CONFIG
    assert forks == [1]
    assert_no_child_left()
    assert "Is a directory" in capsys.readouterr().err


def test_a_worker_suites_error_reaches_the_caller(tmp_path, quick_suites):
    quick_suites["onsager"] = raises(ParameterError("eta", "eta must be finite"))
    with pytest.raises(ParameterError, match="eta must be finite") as caught:
        run_cli("verify", "--out", str(tmp_path))
    assert caught.value.name == "eta"
    assert_no_child_left()


def test_a_stepping_suites_error_reaches_the_caller(tmp_path, quick_suites):
    quick_suites["budgets"] = raises(IntegrationError("non-finite state", step=3))
    with pytest.raises(IntegrationError, match="non-finite state") as caught:
        run_cli("verify", "--out", str(tmp_path))
    assert caught.value.step == 3
    assert_no_child_left()


def test_the_earlier_suites_error_wins(quick_suites):
    quick_suites["curvature"] = raises(ParameterError("eta", "eta must be finite"))
    quick_suites["budgets"] = raises(Stop("budgets"))
    for verify in (verification.verify, cli.verify):  # the serial loop, then the CLI's
        with pytest.raises(ParameterError):
            verify(1, "fast")
    assert_no_child_left()


def test_a_worker_that_dies_without_an_answer_is_named(tmp_path, quick_suites):
    quick_suites["onsager"] = lambda seed, level: os._exit(0)
    with pytest.raises(RuntimeError, match="the verify worker stopped without an answer"):
        run_cli("verify", "--out", str(tmp_path))
    assert_no_child_left()


def test_an_interrupted_verify_kills_its_worker(tmp_path, quick_suites):
    quick_suites["bracket_symmetry"] = lambda seed, level: time.sleep(60)
    quick_suites["budgets"] = raises(KeyboardInterrupt)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_cli("verify", "--out", str(tmp_path))
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_negative_seed_is_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    # spinodal1d draws its noise from the seed, verify its random trials
    with pytest.raises(ConfigError, match="bad value for 'seed': seed = -1"):
        make_scenario("spinodal1d", seed=-1)

    def no_suite(seed, level):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verification, "_SUITES", dict.fromkeys(verification._SUITES, no_suite))
    out = tmp_path / "v"
    assert run_cli("verify", "--seed", "-3", "--out", str(out)) == EXIT_CONFIG
    assert "config error: bad value for 'seed': seed = -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["9223372036854775807", "18446744073709551610"])
def test_verify_rejects_a_seed_whose_suite_seeds_leave_int64(tmp_path, capsys, monkeypatch,
                                                              seed):
    # casimir_convergence draws from seed + 100 + trial; numpy takes that as an int64
    def no_suite(seed, level):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verification, "_SUITES", dict.fromkeys(verification._SUITES, no_suite))
    out = tmp_path / "v"
    assert run_cli("verify", "--seed", seed, "--out", str(out)) == EXIT_CONFIG
    assert f"config error: bad value for 'seed': seed = {seed} is too large" \
        in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


@pytest.mark.parametrize("level", ["fast", "full"])
def test_the_largest_accepted_verify_seed_draws_without_overflow(level):
    top = np.iinfo(np.int64).max - verification.CASIMIR_SEED - \
        verification._counts(level)["casimir"] + 1
    with pytest.raises(ConfigError, match="seed"):
        verification.require_suite_seed(top + 1, level)
    verification.require_suite_seed(top, level)
    # the suite that adds the largest offset, and those that add one to a state seed
    verification.run_suites(["bracket_symmetry", "casimir_convergence", "curvature"], top,
                            level)


def test_run_still_takes_a_seed_past_int64(tmp_path):
    out = tmp_path / "r"
    assert run_cli("run", "--scenario", "heat_relax", "--seed", "18446744073709551616",
                   "--t-end", "0.002", "--out", str(out)) == EXIT_OK
    assert (out / "diagnostics.csv").exists()


def test_verify_report_writes_every_passed_flag_as_a_json_boolean(tmp_path):
    out = tmp_path / "v"
    assert run_cli("verify", "--seed", "2", "--out", str(out)) == EXIT_OK
    flags = []

    def collect(obj):
        if isinstance(obj, dict):
            flags.extend(v for k, v in obj.items() if k == "passed")
            obj = list(obj.values())
        if isinstance(obj, list):
            for v in obj:
                collect(v)

    collect(json.loads((out / "verify_report.json").read_text()))
    assert len(flags) > len(verification._SUITES)
    assert all(flag is True for flag in flags)


def test_verify_reports_are_identical_for_same_seed(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli("verify", "--seed", "10", "--out", str(out)) == EXIT_OK
        blobs.append((out / "verify_report.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_tampered_conductivity_fails_onsager_suite(monkeypatch):
    # a non-symmetric kappa matrix, set past TransportCoefficients' own check
    real = verification.TransportCoefficients

    def tampered(**kwargs):
        tr = real(**kwargs)
        if np.ndim(tr.kappa) == 2:  # model_for's scalar kappa is replaced by the suite's
            object.__setattr__(tr, "kappa", tr.kappa + np.triu(np.full_like(tr.kappa, 0.3), 1))
        return tr

    monkeypatch.setattr(verification, "TransportCoefficients", tampered)
    result = verification.onsager_suite(seed=1, level="fast")
    assert result.passed is False
    assert result.details["worst_symmetry"] > 1e-13


def test_verify_exit_code_on_failure(tmp_path, monkeypatch, capsys):
    def fake_verify(seed, level):
        return {"seed": seed, "level": level, "passed": False,
                "suites": {"budgets": {"passed": False, "details": {}}}}

    monkeypatch.setattr(cli, "verify", fake_verify)
    code = run_cli("verify", "--out", str(tmp_path / "v"))
    assert code == EXIT_VERIFY
    assert "budgets: FAIL" in capsys.readouterr().out


def test_resolve_config_echoes_scenario_defaults(tmp_path):
    args = build_parser().parse_args(["run", "--scenario", "shear_decay"])
    cfg, scen = resolve_config(args)
    assert cfg.model == "gns"
    assert cfg.dim == 2
    assert cfg.eta == 0.05
    assert scen.model.transport.eta == 0.05


def _config_text(meta):
    return "".join(f"{k} = {v}\n" for k, v in meta.items())


def test_run_settings_are_one_key_set(tmp_path):
    schema = {f.name for f in fields(RunConfig)}
    dests = set(vars(build_parser().parse_args(["run"])))
    assert dests - {"command", "func", "config"} == schema

    out = tmp_path / "o"
    assert run_cli("run", "--scenario", "heat_relax", "--t-end", "0.002",
                   "--out", str(out)) == EXIT_OK
    meta = json.loads((out / "run.json").read_text())
    assert set(meta) == schema

    cfg = tmp_path / "all.cfg"
    cfg.write_text(_config_text(meta))
    assert parse_config_file(str(cfg)) == meta

    # make_scenario takes every other setting as an override, and no more
    overrides = {k: v for k, v in meta.items()
                 if k not in ("scenario", "seed", "out")}
    scen = make_scenario(meta["scenario"], seed=meta["seed"],
                         overrides=overrides)
    assert set(scen.params) | {"scenario", "seed", "out"} == schema
    for key in ("scenario", "seed", "out", "threads", "t_global"):
        with pytest.raises(ConfigError, match=key):
            make_scenario("heat_relax", overrides={key: meta.get(key, 1)})


def test_relaunch_from_run_json_is_byte_identical(tmp_path):
    cfg = tmp_path / "first.cfg"
    cfg.write_text("scenario = spinodal1d\nseed = 5\nt_end = 0.003\n"
                   "cadence = 5\nlambda_v = 0.2\nnoise_amp = 0.02\n")
    first, second = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", str(cfg), "--out", str(first)) == EXIT_OK
    meta = json.loads((first / "run.json").read_text())
    assert (meta["lambda_v"], meta["noise_amp"]) == (0.2, 0.02)
    relaunch = tmp_path / "relaunch.cfg"
    relaunch.write_text(_config_text(meta))
    assert run_cli("run", "--config", str(relaunch),
                   "--out", str(second)) == EXIT_OK
    names = sorted(p.name for p in first.iterdir() if p.name != "run.json")
    assert "fields_5.csv" in names and "diagnostics.csv" in names
    assert names == sorted(p.name for p in second.iterdir()
                           if p.name != "run.json")
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_relaunch_keeps_a_hash_in_out(tmp_path):
    out = tmp_path / "run#1"
    assert run_cli("run", "--scenario", "heat_relax", "--t-end", "0.002",
                   "--out", str(out)) == EXIT_OK
    meta = json.loads((out / "run.json").read_text())
    assert meta["out"] == str(out)
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    for p in out.iterdir():
        p.unlink()
    relaunch = tmp_path / "relaunch.cfg"
    relaunch.write_text(_config_text(meta))
    assert run_cli("run", "--config", str(relaunch)) == EXIT_OK
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_run_builds_the_scenario_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "make_scenario", counting)
    assert run_cli("run", "--scenario", "heat_relax", "--t-end", "0.002",
                   "--out", str(tmp_path / "o")) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("argv, config, named", [
    (["--dim", "3"], None, "dim must be 1 or 2, got 3"),
    (["--n", "0"], None, "got (0,)"),
    (["--gamma", "sixfold:0.1"], None, "'sixfold:0.1'"),
    (["--t-end", "0.0001"], None, "t_end = 0.0001"),
    (["--t-end", "inf"], None, "t_end = inf"),
    ([], "viscosity = 1\n", "unknown key 'viscosity'"),
    ([], "n = many\n", "bad value for 'n': 'many'"),
    (["--n", "0"], None, "bad value for 'n': "),
    (["--length", "0"], None, "bad value for 'length': "),
    (["--eta", "-1"], None, "bad value for 'eta': "),
    (["--zeta", "-1"], None, "bad value for 'zeta': "),
    (["--lambda-v", "-1"], None, "bad value for 'lambda_v': "),
    (["--gamma", "fourfold:0.5"], None, "bad value for 'gamma': "),
    ([], "kappa = -1\n", "bad value for 'kappa': "),
    (["--eta", "nan"], None, "bad value for 'eta': eta = nan"),
    (["--zeta", "inf"], None, "bad value for 'zeta': zeta = inf"),
    (["--kappa", "inf"], None, "bad value for 'kappa': kappa = inf"),
    (["--dcoef", "nan"], None, "bad value for 'dcoef': dcoef = nan"),
    (["--lambda-v", "nan"], None, "bad value for 'lambda_v': lambda_v = nan"),
    (["--lambda-u", "nan"], None, "bad value for 'lambda_u': lambda_u = nan"),
    (["--lambda-s", "inf"], None, "bad value for 'lambda_s': lambda_s = inf"),
    (["--length", "nan"], None, "bad value for 'length': length = nan"),
    (["--noise-amp", "nan"], None, "bad value for 'noise_amp': noise_amp = nan"),
    (["--dt", "nan"], None, "bad value for 'dt': dt = nan"),
    ([], "kappa = -inf\n", "bad value for 'kappa': kappa = -inf"),
    (["--gamma", "fourfold:0.05"], None, "bad value for 'gamma': fourfold is 2D only"),
    (["--dim", "2", "--gamma", "fourfold:nan"], None,
     "bad value for 'gamma': fourfold needs |eps4| < 1/15, got eps4 = nan"),
    (["--seed", "-1"], None, "bad value for 'seed': seed = -1 is negative"),
    ([], "seed = -2\n", "bad value for 'seed': seed = -2 is negative"),
    ([], "n = 32\nn = 48\n", "run.cfg:2: key 'n' already set on line 1"),
], ids=["dim", "n", "gamma", "zero_steps", "inf_steps", "unknown_key",
        "bad_value", "n_key", "length_key", "eta_key", "zeta_key",
        "lambda_v_key", "gamma_key", "kappa_key", "eta_nan", "zeta_inf",
        "kappa_inf", "dcoef_nan", "lambda_v_nan", "lambda_u_nan",
        "lambda_s_inf", "length_nan", "noise_amp_nan", "dt_nan",
        "kappa_cfg_inf", "fourfold_1d", "fourfold_nan", "seed_negative",
        "seed_cfg_negative", "repeated_key"])
def test_invalid_settings_exit_2_naming_them(tmp_path, capsys, argv, config,
                                             named):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "o"
    code = run_cli("run", "--scenario", "heat_relax", "--out", str(out), *argv)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (out / "diagnostics.csv").exists()

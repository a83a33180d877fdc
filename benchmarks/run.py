"""metriflow benchmark: timed CLI runs, the verify suites, and a traced
per-layer run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is loaded from ``src/``).
Every measured process is a fresh interpreter started by this script, one at
a time, with BLAS/OpenMP threads pinned to 1.

``--trace 0`` (end to end):
    full CLI processes for ``--seconds`` (at least one), with eight set-up
    probes, half before and half after them (a probe stops at the first
    ``step_rk4`` call, or at the first verify suite).  Prints the
    ``end_to_end`` metrics of BENCHMARK.json: ``wall_s``, the median over
    processes of spawn to exit; ``setup_s``, the median over probes and
    processes of spawn to the first step (or suite); ``steps_per_s``, RK4
    steps over the median time from the first step to the last;
    ``peak_rss_mb``, the median peak RSS.  It also prints, ungated,
    ``step_ms_p50`` and ``step_ms_p99`` over the ``step_rk4`` calls of all
    processes (see UNGATED).

    On a shared 2-vCPU host (Xeon, 2.0 GHz) the speed of the same loop
    drifts by up to 2x within seconds and by ~25% over minutes, so raw
    times of the same code spread more between runs than any bound a later
    change could be held to.  Each child therefore runs a fixed numpy
    reference kernel (``child.reference_kernel``, no metriflow code) every
    REF_EVERY_S at a timestamped program point, and every time above is the
    program's own time, without those calls, scaled interval by interval by
    REF_NOMINAL_S / (the reference call before it): it reads as on a host
    where one reference call takes REF_NOMINAL_S.  The raw (unscaled)
    medians are printed as notes.
``--trace 1`` (per layer):
    one untraced full process, one traced full process (every layer wrapped
    from outside) and the per-layer table on the five scenarios' initial
    states.  Prints the ``per_layer`` metrics of BENCHMARK.json, including
    the tracing overhead (traced wall time minus untraced wall time).

Correctness gates (a failure counts the process as failed and the benchmark
exits 1): exit code 0; the expected number of RK4 steps; mass and
concentration drift <= 1e-12 relative; S_prod >= 0 on every diagnostics row;
diagnostics.csv (or verify_report.json) byte-identical across processes of
one seed, within a run and against earlier runs of the same source recorded
in ``benchmarks/_runs/digests.json``; the verify report says passed: true.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it give
each metric with its unit, the gates, provenance and, when traced, the
per-layer tables.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Why each workload: see BENCHMARK.json.  `steps` is the number of RK4 steps
# a full process must take (verify: 6 families x 200 budget steps).
# `seeded` says whether --seed is passed to the CLI.  verify keeps its default
# seed (1): its seed only picks the random test vectors, not the amount of
# work, and `verify --level full` exits 4 for some seeds (5 and 24 of 0-39:
# casimir_convergence reaches order 1.87 and 1.82 < 1.9 for the a = 1
# entropy Casimir), a defect of the verification suite, not of the timing.
WORKLOADS = {
    "spinodal2d": dict(argv=["run", "--scenario", "spinodal2d"], steps=1500,
                       seeded=True),
    "spinodal1d_dense": dict(argv=["run", "--scenario", "spinodal1d",
                                   "--cadence", "5", "--t-end", "0.3"],
                             steps=2000, seeded=True),
    "verify_full": dict(argv=["verify", "--level", "full"], steps=1200,
                        seeded=False),
}
PROBES = 8
DEADLINE_S = 170  # the whole benchmark must exit within 180 s
DRIFT_TOL = 1e-12
# Duration of one reference-kernel call (child.reference_kernel) on the
# nominal host that timings are scaled to (see ``process_units``).
REF_NOMINAL_S = 0.002

# Printed with --trace 0 but not in BENCHMARK.json: the durations of single
# steps (1-20 ms) follow the host's millisecond stalls, which the reference
# calls, 30 ms apart, cannot see, so between runs of the same code their
# percentiles spread by up to 25% (the p99 on every workload, the p50 on
# verify_full, whose six model families cost 0.6-1.7 ms a step).
UNGATED = {"step_ms_p50": "ms", "step_ms_p99": "ms"}

# step_rk4 on each scenario's initial state, from ROADMAP.md
ROADMAP_STEP_MS = {"heat_relax": 1.6, "spinodal1d": 2.4, "shear_decay": 5.1,
                   "spinodal2d": 20.8, "capillary_probe": 3.8}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "metriflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of ROOT/.git when there is one (a plain source tree has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(sorted_vals: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work = RUNS / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.env.pop("PYTHONPATH", None)
        self.src_digest = source_digest()
        self.deadline = time.monotonic() + DEADLINE_S
        self.procs = []
        self.failures = []
        self.notes = {}
        self.digest = None
        self.table = None

    # ------------------------------------------------------------ processes

    def spawn(self, mode: str) -> dict:
        """Run one child process to completion; returns its record."""
        idx = len(self.procs)
        out = self.work / f"p{idx}"
        out.mkdir(parents=True)
        argv = self.spec["argv"] + ["--out", str(out)]
        if self.spec["seeded"]:
            argv += ["--seed", str(self.seed)]
        spec = {"src": str(SRC), "mode": mode, "argv": argv, "seed": self.seed}
        result_path = out / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec),
               str(result_path)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.deadline - t0))
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            returncode, stderr = None, exc.stderr or b""
        wall = time.monotonic() - t0
        rec = {"idx": idx, "mode": mode, "out": out, "wall_s": wall, "spawn": t0,
               "returncode": returncode, "failed": []}
        if returncode == 0 and result_path.is_file():
            rec.update(json.loads(result_path.read_text()))
        if returncode != 0 or rec.get("rc") != 0:
            self.fail(rec, f"exit code {returncode}, cli rc {rec.get('rc')}: "
                      + stderr.decode(errors="replace").strip()[-400:])
        self.procs.append(rec)
        return rec

    def fail(self, rec: dict, why: str) -> None:
        rec["failed"].append(why)
        self.failures.append(f"p{rec['idx']} {rec['mode']}: {why}")

    def probe(self) -> dict:
        rec = self.spawn("probe")
        if not rec["failed"]:
            if not rec.get("ticks"):
                self.fail(rec, "probe never reached the first step")
            else:
                rec["setup_s"] = (rec["ticks"][0] - rec["spawn"]
                                  - rec["ref0_total"])
        return rec

    # --------------------------------------------------------------- gates

    def check_full(self, rec: dict) -> None:
        """Correctness gates for one full (non-probe) process."""
        if rec["failed"]:
            return
        if rec["mode"] == "run":
            rec["setup_s"] = (rec["ticks"][0] - rec["spawn"]
                              - rec["ref0_total"])
            n_steps = rec["kinds"].count("e")
        else:
            n_steps = rec["trace"]["calls"].get("dynamics.step_rk4", 0)
        if n_steps != self.spec["steps"]:
            self.fail(rec, f"{n_steps} RK4 steps, expected {self.spec['steps']}")
        if self.spec["argv"][0] == "verify":
            report_path = rec["out"] / "verify_report.json"
            if not json.loads(report_path.read_text())["passed"]:
                self.fail(rec, "verify report says passed: false")
            rec["digest"] = sha256_file(report_path)
            drifts = rec.get("integrate_energy_drift") or []
            rec["energy_drift_rel"] = max(drifts) if drifts else None
            return
        diag_path = rec["out"] / "diagnostics.csv"
        rec["digest"] = sha256_file(diag_path)
        with open(diag_path) as fh:
            rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        first, last = rows[0], rows[-1]
        mass_drift = abs(last["M"] - first["M"]) / abs(first["M"])
        # the concentration integral of a zero-mean mixture is ~0, so its
        # drift is scaled as in the verify budgets suite
        conc_drift = abs(last["C"] - first["C"]) / max(abs(first["C"]), 1e-3)
        if mass_drift > DRIFT_TOL:
            self.fail(rec, f"mass drift {mass_drift:.3e} > {DRIFT_TOL}")
        if conc_drift > DRIFT_TOL:
            self.fail(rec, f"concentration drift {conc_drift:.3e} > {DRIFT_TOL}")
        bad = [r["t"] for r in rows if r["S_prod"] < 0]
        if bad:
            self.fail(rec, f"S_prod < 0 at t = {bad[:3]}")
        rec["energy_drift_rel"] = abs(last["H"] - first["H"]) / abs(first["H"])

    def check_determinism(self, full: list) -> None:
        """Same seed, same source: same output bytes, also across runs."""
        digests = {rec["digest"] for rec in full if "digest" in rec}
        if len(digests) > 1:
            for rec in full:
                self.fail(rec, f"output differs between processes of seed "
                          f"{self.seed}: {sorted(digests)}")
            return
        if not digests:
            return
        digest = digests.pop()
        book_path = RUNS / "digests.json"
        book = json.loads(book_path.read_text()) if book_path.is_file() else {}
        key = f"{self.src_digest[:16]}:{' '.join(self.spec['argv'])}:{self.seed}"
        if book.setdefault(key, digest) != digest:
            for rec in full:
                self.fail(rec, f"output differs from an earlier run of seed "
                          f"{self.seed}: {digest[:16]} vs {book[key][:16]}")
        tmp = book_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        tmp.replace(book_path)
        self.digest = digest

    # ------------------------------------------------------------ workloads

    def end_to_end(self) -> dict:
        # set-up probes before and after the full processes, so their median
        # spans the run rather than one moment of it
        t_start = time.monotonic()
        probes = [self.probe() for _ in range(PROBES // 2)]
        full = []
        while True:
            rec = self.spawn("run")
            self.check_full(rec)
            full.append(rec)
            elapsed = time.monotonic() - t_start
            if rec["failed"] or elapsed + rec["wall_s"] > self.seconds:
                break
        probes += [self.probe() for _ in range(PROBES - PROBES // 2)]
        self.check_determinism(full)
        good = [r for r in full if not r["failed"]]
        setups = [r["setup_s"] * REF_NOMINAL_S / r["ref0"]
                  for r in probes + good if "setup_s" in r]
        if not good or not setups:
            return {}
        if len({rec["kinds"] for rec in good}) > 1:
            for rec in good:
                self.fail(rec, "processes of one seed passed different "
                          "program points")
            return {}
        kinds = good[0]["kinds"]
        # units[i + 1] runs from tick i to tick i + 1
        step_idx = [i + 1 for i in range(len(kinds) - 1)
                    if kinds[i] == "s" and kinds[i + 1] == "e"]
        span = slice(kinds.index("s") + 1, kinds.rindex("e") + 1)
        walls, spans, steps_ms, raw_walls, raw_ms = [], [], [], [], []
        for rec in good:
            raw, scaled = process_units(rec)
            walls.append(sum(scaled))
            spans.append(sum(scaled[span]))
            steps_ms += [1e3 * scaled[i] for i in step_idx]
            raw_walls.append(sum(raw))
            raw_ms += [1e3 * raw[i] for i in step_idx]
        steps_ms.sort()
        raw_ms.sort()
        refs = [r for rec in good for r in rec["refs"] if r]
        self.notes = {
            "processes": len(good),
            "probes": len(probes),
            "step_samples": len(steps_ms),
            "samples_beyond_p99": len(steps_ms) - math.ceil(0.99 * len(steps_ms)),
            "reference_calls": len(refs),
            "reference_ms_median": 1e3 * statistics.median(refs),
            "reference_share": sum(refs) / sum(r["wall_s"] for r in good),
            "raw_wall_s_median": statistics.median(raw_walls),
            "raw_setup_s_median": statistics.median(
                r["setup_s"] for r in probes + good if "setup_s" in r),
            "raw_step_ms_p50": percentile(raw_ms, 0.50),
            "raw_step_ms_p99": percentile(raw_ms, 0.99),
            "energy_drift_rel": good[0]["energy_drift_rel"],
        }
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "steps_per_s": len(step_idx) / statistics.median(spans),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
            "step_ms_p50": percentile(steps_ms, 0.50),
            "step_ms_p99": percentile(steps_ms, 0.99),
        }

    def traced(self) -> dict:
        plain = self.spawn("run")
        self.check_full(plain)
        traced = self.spawn("traced")
        self.check_full(traced)
        self.check_determinism([plain, traced])
        layers = self.spawn("layers")
        self.notes = {"energy_drift_rel": plain.get("energy_drift_rel")}
        if plain["failed"] or traced["failed"] or layers["failed"]:
            return {}
        tr = traced["trace"]
        calls, busy, self_s = tr["calls"], tr["busy_s"], tr["self_s"]
        nested = {(a, b): n for a, b, n in tr["nested"]}
        extra = tr["extra"]
        m = {}
        for layer in calls:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.busy_s"] = busy[layer]
            m[f"{layer}.self_s"] = self_s[layer]
        rhs = calls.get("dynamics.total_rhs", 0)
        m["grid.deriv.calls_per_rhs"] = (
            nested.get(("dynamics.total_rhs", "grid.deriv"), 0) / rhs if rhs else 0.0)
        tp = calls.get("functionals.thermo_point", 0)
        via_tp = nested.get(("functionals.thermo_point", "thermo.eval_eos"), 0)
        m["functionals.thermo_point.hit_ratio"] = 1.0 - via_tp / tp if tp else 0.0
        m["cli.write_fields.bytes"] = extra.get("cli.write_fields.bytes", 0.0)
        cells = extra.get("cli.write_fields.cells", 0.0)
        m["cli.write_fields.rows_per_cell"] = (
            extra.get("cli.write_fields.rows", 0.0) / cells if cells else 0.0)
        m["dynamics.step_rk4.energy_drift_rel"] = plain["energy_drift_rel"]
        m["trace.wall_s"] = traced["wall_s"]
        # the untraced process without its reference-kernel calls
        plain_wall = sum(process_units(plain)[0])
        m["trace.overhead_s"] = traced["wall_s"] - plain_wall
        self.table = layers["table"]
        for scen, row in self.table.items():
            m[f"init.{scen}.step_rk4_ms"] = row["step_rk4"]
            m[f"init.{scen}.step_rk4_same_state_ms"] = row["step_rk4_same_state"]
        return m


def process_units(rec: dict) -> tuple:
    """Intervals of one process (spawn to the first tick, tick to tick, the
    last tick to exit) without the reference calls made in them, and the
    same intervals scaled to the nominal reference speed: each by
    REF_NOMINAL_S / (duration of the reference call made before it)."""
    stamps = [rec["spawn"], *rec["ticks"], rec["spawn"] + rec["wall_s"]]
    spent = [rec["ref0_total"], *rec["refs"]]
    speed = [rec["ref0"], *rec["refs"]]
    raw, scaled = [], []
    ref = rec["ref0"]
    for a, b, r, s in zip(stamps, stamps[1:], spent, speed):
        ref = s or ref
        raw.append(b - a - r)
        scaled.append(raw[-1] * REF_NOMINAL_S / ref)
    return raw, scaled


def print_table(table: dict) -> None:
    scens = list(table)
    print("per-layer table on each scenario's initial state, ms, min of "
          "repeats; a fresh State per call except step_rk4_chained (the state "
          "of the previous step, as in a run) and step_rk4_same_state (one "
          "State, so stage 1 reuses its memoized fields)")
    print(f"  {'layer':<22}" + "".join(f"{s:>16}" for s in scens))
    for layer in table[scens[0]]:
        print(f"  {layer:<22}" + "".join(f"{table[s][layer]:>16.4g}" for s in scens))
    print(f"  {'ROADMAP step_rk4':<22}"
          + "".join(f"{ROADMAP_STEP_MS[s]:>16.4g}" for s in scens))
    print(f"  {'step_rk4 / ROADMAP':<22}"
          + "".join(f"{table[s]['step_rk4'] / ROADMAP_STEP_MS[s]:>16.3g}"
                    for s in scens))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "metriflow" / "cli.py").is_file():
        print(f"error: no metriflow source under {SRC}", file=sys.stderr)
        return 2
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]

    bench = Bench(args.workload, args.seed, args.seconds)
    t0 = time.monotonic()
    try:
        values = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = sum(1 for rec in bench.procs if rec["failed"])
    attempted = len(bench.procs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"processes {attempted}  elapsed {time.monotonic() - t0:.1f} s")
    metrics = {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if not missing:
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<48} {values[m['name']]:<14.6g} {m['unit']}")
    if not args.trace:
        for name, unit in UNGATED.items():
            if name in values:
                print(f"  {name:<48} {values[name]:<14.6g} {unit}  (not gated)")
    drift = bench.notes.get("energy_drift_rel")
    print(f"  {'energy_drift_rel':<48} "
          f"{drift if drift is not None else float('nan'):<14.6g} 1")
    print(f"  {'failed_frac':<48} {failed / attempted:<14.6g} 1  "
          f"({failed} of {attempted} processes)")
    for key, val in bench.notes.items():
        if key != "energy_drift_rel":
            print(f"  note {key} = {val}")
    if args.trace and not missing:
        rpc = values["cli.write_fields.rows_per_cell"]
        if rpc and rpc != 1.0:
            print(f"  known defect (not a gate): cli.write_fields wrote "
                  f"{rpc:.6g} rows per grid cell; 2D snapshots ravel the "
                  f"broadcast coordinate arrays and keep row i=0 only")
        overhead, traced_wall = values["trace.overhead_s"], values["trace.wall_s"]
        print(f"  tracing overhead {overhead:.3f} s (traced {traced_wall:.3f} s, "
              f"untraced {traced_wall - overhead:.3f} s)")
        print_table(bench.table)
    for why in bench.failures:
        print(f"  GATE FAILED {why}")
    provenance = {
        "commit": git_commit(), "src_sha256": bench.src_digest,
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in bench.procs if "numpy" in r), None),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: bench.env[v] for v in THREAD_VARS},
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "output_sha256": bench.digest,
        "trace_overhead_s": values.get("trace.overhead_s"),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if missing:
        print(f"  no value for {missing}", file=sys.stderr)
    correct = failed == 0 and not missing
    RUNS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "metrics": metrics, "all": values,
              "provenance": provenance, "notes": bench.notes,
              "failures": bench.failures,
              "table": bench.table}
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

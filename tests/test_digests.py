"""The seeded outputs, pinned by their sha256 digests: diagnostics.csv and
every fields_<step>.csv of the five scenarios at --seed 3 --t-end 0.02
--cadence 10, and verify_report.json at --seed 1 at both --level fast and
--level full.

A change that alters any output bit fails here, from one commit to the
next.  A deliberate re-baseline records new digests with

    PYTHONPATH=src python tests/test_digests.py

The bits depend on numpy's floating-point kernels, so the digests are kept
per numpy version, and under a version with none recorded the tests skip.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from metriflow import SCENARIO_NAMES
from metriflow.cli import EXIT_OK, main

BOOK = Path(__file__).with_name("output_digests.json")
RUN_ARGS = ("--seed", "3", "--t-end", "0.02", "--cadence", "10")
VERIFY_LEVELS = ("fast", "full")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(scenario: str, out: Path) -> dict:
    """{file name: sha256} of the scenario's CSV outputs, diagnostics.csv first."""
    assert main(["run", "--scenario", scenario, *RUN_ARGS, "--out", str(out)]) == EXIT_OK
    steps = sorted(int(p.stem[len("fields_"):]) for p in out.glob("fields_*.csv"))
    names = ["diagnostics.csv"] + [f"fields_{step}.csv" for step in steps]
    return {name: _sha256(out / name) for name in names}


def verify_digest(level: str, out: Path) -> str:
    main(["verify", "--level", level, "--seed", "1", "--out", str(out)])
    return _sha256(out / "verify_report.json")


def _book() -> dict:
    books = json.loads(BOOK.read_text())
    if np.__version__ not in books:
        pytest.skip(f"output digests are recorded under numpy {', '.join(books)}, "
                    f"not under numpy {np.__version__}")
    return books[np.__version__]


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_run_outputs_keep_their_digests(tmp_path, scenario):
    assert run_digests(scenario, tmp_path) == _book()["run"][scenario]


def test_verify_report_keeps_its_digest(tmp_path):
    assert verify_digest("fast", tmp_path) == _book()["verify"]["fast-1"]


def test_full_verify_report_keeps_its_digest(tmp_path):
    # the full-level suites share eval_eos, Derived, the dissipative fluxes
    # and Grid with the stepping, on states and grids the scenarios never make
    assert verify_digest("full", tmp_path) == _book()["verify"]["full-1"]


def _flat(book: dict, prefix: str = "") -> dict:
    """{"run/<scenario>/<file>" or "verify/<level>-1": sha256} of a book."""
    flat = {}
    for key, value in book.items():
        flat.update(_flat(value, f"{prefix}{key}/") if isinstance(value, dict)
                    else {prefix + key: value})
    return flat


def report_changes(old: dict, new: dict) -> list[str]:
    """One line per changed, added or removed entry of two books, then the
    count of the unchanged ones."""
    old, new = _flat(old), _flat(new)
    lines = [f"changed {key}: {old[key][:12]} -> {new[key][:12]}"
             for key in new if key in old and old[key] != new[key]]
    lines += [f"added {key}: {new[key][:12]}" for key in new if key not in old]
    lines += [f"removed {key}: {old[key][:12]}" for key in old if key not in new]
    same = sum(old.get(key) == digest for key, digest in new.items())
    return lines + [f"{same} unchanged"]


def test_the_recorder_reports_each_change():
    old = {"run": {"a": {"x.csv": "1" * 64, "y.csv": "2" * 64}}, "verify": {"fast-1": "3" * 64}}
    new = {"run": {"a": {"x.csv": "1" * 64, "z.csv": "4" * 64}}, "verify": {"fast-1": "5" * 64}}
    assert report_changes(old, new) == [
        f"changed verify/fast-1: {'3' * 12} -> {'5' * 12}", f"added run/a/z.csv: {'4' * 12}",
        f"removed run/a/y.csv: {'2' * 12}", "1 unchanged"]


if __name__ == "__main__":
    # record this numpy version's digests, keeping the other versions' books,
    # and print what changed against the book recorded before
    books = json.loads(BOOK.read_text()) if BOOK.exists() else {}
    old = books.get(np.__version__, {})
    with tempfile.TemporaryDirectory() as tmp:
        books[np.__version__] = {
            "run": {name: run_digests(name, Path(tmp) / name) for name in SCENARIO_NAMES},
            "verify": {f"{level}-1": verify_digest(level, Path(tmp) / level)
                       for level in VERIFY_LEVELS}}
    BOOK.write_text(json.dumps(books, indent=1) + "\n")
    print(f"numpy {np.__version__}:", *report_changes(old, books[np.__version__]), sep="\n")
    sys.exit(0)

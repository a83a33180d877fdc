"""The seeded outputs, pinned by their sha256 digests: diagnostics.csv and
every fields_<step>.csv of the five scenarios at --seed 3 --t-end 0.02
--cadence 10, and verify_report.json at --level fast --seed 1.

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
VERIFY_ARGS = ("--level", "fast", "--seed", "1")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_digests(scenario: str, out: Path) -> dict:
    """{file name: sha256} of the scenario's CSV outputs, diagnostics.csv first."""
    assert main(["run", "--scenario", scenario, *RUN_ARGS, "--out", str(out)]) == EXIT_OK
    steps = sorted(int(p.stem[len("fields_"):]) for p in out.glob("fields_*.csv"))
    names = ["diagnostics.csv"] + [f"fields_{step}.csv" for step in steps]
    return {name: _sha256(out / name) for name in names}


def verify_digest(out: Path) -> str:
    main(["verify", *VERIFY_ARGS, "--out", str(out)])
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
    assert verify_digest(tmp_path) == _book()["verify"]["fast-1"]


if __name__ == "__main__":
    # record this numpy version's digests, keeping the other versions' books
    books = json.loads(BOOK.read_text()) if BOOK.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        books[np.__version__] = {
            "run": {name: run_digests(name, Path(tmp) / name) for name in SCENARIO_NAMES},
            "verify": {"fast-1": verify_digest(Path(tmp) / "verify")}}
    BOOK.write_text(json.dumps(books, indent=1) + "\n")
    sys.exit(0)

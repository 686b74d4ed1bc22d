"""The helper scripts run from a checkout, without an installed package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


@pytest.mark.parametrize(
    "name, args, expected",
    [
        ("run_verify.py", ("--suite", "teich", "--max-p", "5", "--max-N", "3"), "0 failing checks"),
        ("classification_table.py", ("--primes", "3", "--bound", "3"), "p=3  r=2 "),
    ],
)
def test_script_runs_from_a_checkout(tmp_path, name, args, expected):
    done = run_script(name, *args, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout


# sha256 of the stdout of `classification_table.py --primes 3 5 7 --bound 12`: it sweeps r
# for each fixed p, so most rows read a Case I order memoised by (order, p)
CLASSIFICATION_TABLE = "132b7972974f3f1887a1df4b71f0111018644d28e7b1e76bbda3374b6e5ed34c"


def test_classification_table_output_is_pinned(tmp_path):
    done = run_script("classification_table.py", "--primes", "3", "5", "7", "--bound", "12", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CLASSIFICATION_TABLE

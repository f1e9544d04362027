"""The paper reproductions in ``benchmarks/`` collect as the README says.

They are named ``bench_*.py``, which pytest's default pattern skips.
``benchmarks/pytest.ini`` makes ``pytest benchmarks/`` collect them;
this suite, run from the repository root, must not.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

REPRODUCTIONS = (
    {f"bench_table{i}.py" for i in range(1, 7)}
    | {f"bench_figure5{i}.py" for i in range(1, 4)}
    | {"bench_ablations.py"}
)


def test_pytest_benchmarks_collects_every_reproduction():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    collected = {
        pathlib.Path(line.split("::")[0]).name
        for line in out.stdout.splitlines()
        if "::" in line
    }
    assert collected == REPRODUCTIONS


def test_root_suite_collects_no_reproduction(request):
    assert not [
        item.nodeid for item in request.session.items
        if item.nodeid.startswith("benchmarks/")
    ]

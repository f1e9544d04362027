"""Public-API surface tests: imports, __all__ hygiene, version, and no
network surface."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib
import runpy
import subprocess
import sys
import types

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC_MODULES = [
    "repro",
    "repro.config",
    "repro.core",
    "repro.baselines",
    "repro.data",
    "repro.exec",
    "repro.plane",
    "repro.linalg",
    "repro.mapreduce",
    "repro.mapreduce.jobs",
    "repro.evaluation",
    "repro.evaluation.experiments",
    "repro.theory",
    "repro.utils",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_importable(self, module_name):
        importlib.import_module(module_name)

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_all_entries_exist(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


class TestTopLevelSurface:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_setup_metadata_matches_package(self, monkeypatch):
        # A stub ``setuptools`` captures the metadata, so this check runs
        # on interpreters that ship without setuptools (CPython >= 3.12).
        import repro

        captured: dict = {}
        stub = types.ModuleType("setuptools")
        stub.setup = lambda **kw: captured.update(kw)
        monkeypatch.setitem(sys.modules, "setuptools", stub)
        runpy.run_path(str(REPO_ROOT / "setup.py"))
        assert captured["name"] == "repro"
        assert captured["version"] == repro.__version__
        assert captured["install_requires"] == ["numpy"]

    @pytest.mark.skipif(importlib.util.find_spec("setuptools") is None,
                        reason="setuptools is not installed")
    def test_distribution_version_is_package_version(self):
        import repro

        out = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        )
        assert out.stdout.split()[-1] == repro.__version__

    def test_headline_classes_exported(self):
        import repro

        for name in ("KMeans", "ScalableKMeans", "KMeansPlusPlus", "RandomInit",
                     "potential", "lloyd"):
            assert name in repro.__all__

    def test_exceptions_rooted(self):
        import repro

        for name in ("ValidationError", "NotFittedError", "EmptyClusterError",
                     "InsufficientCentersError"):
            exc = getattr(repro, name)
            assert issubclass(exc, repro.ReproError)

    def test_docstring_mentions_paper(self):
        import repro

        assert "VLDB 2012" in repro.__doc__


#: Modules that open sockets or serve requests.  The package runs on one
#: machine and listens on nothing, so no module under ``src/repro``
#: imports them.
NETWORK_MODULES = frozenset(
    {"socket", "socketserver", "selectors", "http.server", "urllib.request"}
)


def _imported_modules(source: str) -> set[str]:
    """Every module an ``import`` statement in ``source`` names."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


class TestNoNetworkSurface:
    def test_no_module_imports_a_network_module(self):
        src = REPO_ROOT / "src" / "repro"
        paths = sorted(src.rglob("*.py"))
        assert len(paths) > 50
        offenders = {}
        for path in paths:
            hits = _imported_modules(path.read_text(encoding="utf-8")) & NETWORK_MODULES
            if hits:
                offenders[str(path.relative_to(src))] = sorted(hits)
        assert offenders == {}

    @pytest.mark.parametrize("line", [
        "import socket",
        "import http.server as server",
        "from http import server",
        "from urllib.request import urlopen",
        "from socketserver import TCPServer",
        "def f():\n    import selectors",
    ])
    def test_check_sees_each_spelling(self, line):
        assert _imported_modules(line) & NETWORK_MODULES

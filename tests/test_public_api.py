"""Public-API surface tests: imports, __all__ hygiene, version."""

from __future__ import annotations

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

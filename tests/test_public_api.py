"""Public-API surface tests: imports, __all__ hygiene, version."""

from __future__ import annotations

import importlib

import pytest

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

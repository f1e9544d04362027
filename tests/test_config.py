"""Tests for repro.config: the one table of ``REPRO_*`` settings.

Every kept name parses a good value, treats ``""`` as unset and rejects
a bad value with one error format that names it, through the library
and through ``repro``'s front door alike.  Guards pin the invariant
that only ``repro/config.py`` reads these names, and that the README
table, the ``--help`` epilog and the config list the same ones.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.cli import _cli_config, build_parser, main, settings_epilog
from repro.config import (
    BACKEND_NAMES,
    SETTINGS,
    Config,
    get_config,
    set_config,
    use_config,
)
from repro.exceptions import ValidationError

SRC = pathlib.Path(repro.__file__).parent
README = SRC.parent.parent / "README.md"

#: name -> (good raw value, parsed value, bad raw value or None if any
#: value is accepted).
CASES = {
    "REPRO_EXEC_BACKEND": (" Serial ", "serial", "gpu"),
    "REPRO_EXEC_WORKERS": ("3", 3, "0"),
    "REPRO_FAULTS_MAX_RETRIES": ("0", 0, "-1"),
    "REPRO_FAULTS_TASK_TIMEOUT": ("2.5", 2.5, "0"),
    "REPRO_FAULTS_CHAOS": ("on", True, "sometimes"),
}
FIELD = {s.env: s.field for s in SETTINGS}


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """No inherited setting, no installed config, fresh process objects."""
    from repro.exec import set_backend, set_worker_budget
    from repro.linalg.engine import set_engine

    for name in FIELD:
        monkeypatch.delenv(name, raising=False)
    previous = (set_config(None), set_backend(None), set_worker_budget(None),
                set_engine(None))
    yield
    set_config(previous[0])
    set_backend(previous[1])
    set_worker_budget(previous[2])
    set_engine(previous[3])


def test_every_setting_has_a_case_and_a_field():
    assert list(CASES) == [s.env for s in SETTINGS]
    assert [f.name for f in dataclasses.fields(Config)] == [s.field for s in SETTINGS]


def test_backend_names_are_the_registry():
    from repro.exec import BACKENDS

    assert BACKEND_NAMES == ("serial", "thread", "process")
    assert set(BACKEND_NAMES) == set(BACKENDS)


def test_the_removed_cluster_backend_is_refused(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "cluster")
    with pytest.raises(
        ValidationError,
        match="^REPRO_EXEC_BACKEND must be one of serial, thread, process, "
        "got 'cluster'$",
    ):
        get_config()


class TestEachSetting:
    @pytest.mark.parametrize("name", list(CASES))
    def test_good_value_parses(self, name, monkeypatch):
        good, parsed, _ = CASES[name]
        monkeypatch.setenv(name, good)
        assert getattr(get_config(), FIELD[name]) == parsed

    @pytest.mark.parametrize("name", list(CASES))
    def test_empty_counts_as_unset(self, name, monkeypatch):
        monkeypatch.setenv(name, "")
        assert getattr(get_config(), FIELD[name]) == getattr(Config(), FIELD[name])
        monkeypatch.setenv(name, "  ")
        assert get_config() == Config()

    @pytest.mark.parametrize("name", [n for n, c in CASES.items() if c[2] is not None])
    def test_bad_value_names_the_variable(self, name, monkeypatch):
        bad = CASES[name][2]
        monkeypatch.setenv(name, bad)
        with pytest.raises(ValidationError, match=f"^{name} must be .*, got {bad!r}$"):
            get_config()

    @pytest.mark.parametrize("name", [n for n, c in CASES.items() if c[2] is not None])
    def test_front_door_exits_2_on_bad_value(self, name, monkeypatch, capsys):
        monkeypatch.setenv(name, CASES[name][2])
        with pytest.raises(SystemExit) as exc:
            main(["list"])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err


class TestParsing:
    def test_kept_spellings(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_TASK_TIMEOUT", "None")
        assert get_config().faults_task_timeout is None
        for raw in ("0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_FAULTS_CHAOS", raw)
            assert get_config().faults_chaos is False

    def test_reparsed_only_when_a_value_changes(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        first = get_config()
        assert get_config() is first
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "5")
        assert get_config().exec_workers == 5

    def test_installed_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        with use_config(exec_workers=7) as config:
            assert get_config() is config
            assert config.exec_backend == "thread"
        assert get_config().exec_workers == 3

    def test_flag_beats_environment_and_is_named_in_errors(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        args = build_parser().parse_args(["--exec-workers", "6", "list"])
        assert _cli_config(args).exec_workers == 6
        args = build_parser().parse_args(["--exec-workers", "0", "list"])
        with pytest.raises(ValidationError, match="^--exec-workers must be"):
            _cli_config(args)


class TestOneWorkerKnob:
    """Budget, engine fan-out and MR fan-out all follow one knob."""

    @staticmethod
    def _three() -> tuple[int, int, int]:
        from repro.exec import get_worker_budget
        from repro.linalg.engine import get_engine
        from repro.mapreduce.runtime import LocalMapReduceRuntime

        with LocalMapReduceRuntime(np.zeros((4, 2)), n_splits=2) as rt:
            mr_workers = rt.workers
        return get_worker_budget().limit, get_engine().workers, mr_workers

    def test_unset(self):
        import os

        from repro.exec.budget import DEFAULT_BUDGET_FLOOR

        budget = max(os.cpu_count() or 1, DEFAULT_BUDGET_FLOOR)
        assert self._three() == (budget, 1, 1)

    def test_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert self._three() == (3, 3, 3)

    def test_flag(self, monkeypatch, capsys):
        from repro.evaluation.experiments import registry

        seen = []

        class _Result:
            def render(self) -> str:
                return ""

        def probe(name, **_):
            seen.append(self._three())
            return _Result()

        monkeypatch.setattr(registry, "run_experiment", probe)
        assert main(["--exec-workers", "3", "run", "table1"]) == 0
        capsys.readouterr()
        assert seen == [(3, 3, 3)]

    def test_environment_after_an_in_process_flag(self, monkeypatch, capsys):
        # main() must hand the process back: its flag gone, the
        # environment read again for every later caller.
        assert main(["--exec-workers", "5", "list"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        assert get_config().exec_workers == 3
        assert self._three() == (3, 3, 3)


def _reads_of_environ(tree: ast.AST):
    """Yield ``(lineno, key)`` for every single-name use of
    ``os.environ`` / ``os.getenv`` / ``os.putenv`` / ``os.unsetenv``;
    ``key`` is the name's string constant, or ``None`` if it is not a
    constant.  Whole-environment copies (``dict(os.environ)``,
    ``os.environ.copy()``) are not single-name uses."""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def constant(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv", "putenv", "unsetenv"):
                    yield node.lineno, None
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os"):
            continue
        parent = parents.get(node)
        if node.attr in ("getenv", "putenv", "unsetenv"):
            if isinstance(parent, ast.Call) and parent.args:
                yield node.lineno, constant(parent.args[0])
            else:
                yield node.lineno, None
        elif node.attr == "environ":
            if isinstance(parent, ast.Subscript):
                yield node.lineno, constant(parent.slice)
            elif isinstance(parent, ast.Attribute):
                if parent.attr == "copy":
                    continue
                call = parents.get(parent)
                if isinstance(call, ast.Call) and call.args:
                    yield node.lineno, constant(call.args[0])
                else:
                    yield node.lineno, None
            elif isinstance(parent, ast.Compare):
                yield node.lineno, constant(parent.left)
            elif isinstance(parent, ast.Call) and isinstance(parent.func, ast.Name) \
                    and parent.func.id == "dict":
                continue
            else:
                yield node.lineno, None


def test_only_the_config_module_reads_repro_settings():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "config.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, key in _reads_of_environ(tree):
            if key is None or key.startswith("REPRO_"):
                offenders.append(f"{path.relative_to(SRC)}:{lineno} ({key!r})")
    assert offenders == []


def test_guard_catches_a_settings_read():
    for source in ('os.environ.get("REPRO_X")', 'os.environ["REPRO_X"] = "1"',
                   'os.getenv("REPRO_X")', '"REPRO_X" in os.environ',
                   'os.environ.pop(NAME, None)'):
        reads = list(_reads_of_environ(ast.parse(source)))
        assert reads and all(k is None or k.startswith("REPRO_") for _, k in reads)
    assert list(_reads_of_environ(ast.parse("env = dict(os.environ)"))) == []


def _readme_row(setting) -> str:
    flag = f"`{setting.flag}`" if setting.flag else "—"
    return f"| `{setting.env}` | {flag} | {setting.default} | {setting.effect} |"


def test_readme_epilog_and_config_list_the_same_settings():
    readme_rows = [
        line for line in README.read_text().splitlines()
        if line.startswith("| `REPRO_")
    ]
    assert readme_rows == [_readme_row(s) for s in SETTINGS]
    epilog = settings_epilog()
    epilog_names = re.findall(r"^  (REPRO_\w+)", epilog, flags=re.M)
    assert epilog_names == [s.env for s in SETTINGS]
    for setting in SETTINGS:
        if setting.flag:
            assert f"{setting.env} [{setting.flag}]" in epilog
    assert build_parser().epilog == epilog

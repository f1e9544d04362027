"""Every ``REPRO_*`` setting, parsed in one place.

:data:`SETTINGS` is the one table: each row names an environment
variable, the :class:`Config` field it sets, the global ``repro`` flag
that overrides it (if any), its parser, its default and its effect.
The README's "Configuration" table and the ``repro --help`` epilog are
built from, and tested against, these rows.

A value resolves in this order:

1. an explicit argument to the object that uses it
   (``Engine(workers=)``, ``LocalMapReduceRuntime(workers=)``, ...);
2. a config installed with :func:`set_config` / :func:`use_config` —
   the CLI installs one built from its flags on top of the environment;
3. the environment;
4. the default.

:func:`get_config` parses the environment again only when a raw
``REPRO_*`` value changed, so ``monkeypatch.setenv`` takes effect at
the next call.  An empty value counts as unset, for every name.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from repro.exceptions import ValidationError

__all__ = [
    "BACKEND_NAMES",
    "Config",
    "SETTINGS",
    "Setting",
    "get_config",
    "load_config",
    "set_config",
    "use_config",
]

#: Values ``REPRO_EXEC_BACKEND`` and ``--backend`` accept.
BACKEND_NAMES = ("serial", "thread", "process")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _backend(raw: str) -> str:
    name = raw.lower()
    if name not in BACKEND_NAMES:
        raise ValueError(raw)
    return name


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(raw)
        return value

    return parse


def _bool(raw: str) -> bool:
    value = raw.lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(raw)


def _seconds_or_none(raw: str) -> float | None:
    if raw.lower() == "none":
        return None
    value = float(raw)
    if not value > 0:
        raise ValueError(raw)
    return value


@dataclass(frozen=True)
class Setting:
    """One row of the configuration table."""

    env: str
    field: str
    flag: str | None
    parse: Callable[[str], Any]
    #: Completes the one error format: ``"<name> must be <expects>, got <raw>"``.
    expects: str
    default: str
    effect: str


_BOOLEAN = "a boolean (1/0, true/false, yes/no, on/off)"

SETTINGS: tuple[Setting, ...] = (
    Setting(
        "REPRO_EXEC_BACKEND", "exec_backend", "--backend", _backend,
        "one of " + ", ".join(BACKEND_NAMES), "thread",
        "Where parallel regions run: serial, thread or process (MapReduce "
        "tasks in worker processes).",
    ),
    Setting(
        "REPRO_EXEC_WORKERS", "exec_workers", "--exec-workers",
        _int_at_least(1), "an integer >= 1", "unset",
        "The one worker knob: N caps the concurrency of every layer and "
        "fans kernel row blocks and MapReduce tasks out N-wide. Unset, the "
        "cap is max(cpu_count, 4), kernels run serially and MapReduce "
        "follows the kernel engine's worker count.",
    ),
    Setting(
        "REPRO_FAULTS_MAX_RETRIES", "faults_max_retries", "--max-task-retries",
        _int_at_least(0), "an integer >= 0", "2",
        "Crash-class retries per task (worker death, broken pool, timeout); "
        "crashed map tasks recompute their split state from lineage. Task "
        "exceptions are never retried.",
    ),
    Setting(
        "REPRO_FAULTS_TASK_TIMEOUT", "faults_task_timeout", "--task-timeout",
        _seconds_or_none, "a number of seconds > 0, or none", "none",
        "Wall-clock limit per task attempt on the process backend; a hung "
        "worker is killed and the task retried.",
    ),
    Setting(
        "REPRO_FAULTS_CHAOS", "faults_chaos", None, _bool, _BOOLEAN, "off",
        "Deterministic fault injection for chaos testing: kills 2% of first "
        "task attempts (seed 0). Outputs stay bit-identical.",
    ),
)

_NAMES = tuple(s.env for s in SETTINGS)


@dataclass(frozen=True)
class Config:
    """Every setting of :data:`SETTINGS`, parsed.

    ``None`` means unset where the effective value depends on the
    caller: ``exec_workers`` (see :data:`SETTINGS`) and
    ``faults_task_timeout`` (no limit).
    """

    exec_backend: str = "thread"
    exec_workers: int | None = None
    faults_max_retries: int = 2
    faults_task_timeout: float | None = None
    faults_chaos: bool = False


def load_config(flags: Mapping[str, object] | None = None) -> Config:
    """Parse the environment, with CLI ``flags`` (flag -> value) on top.

    Raises :class:`~repro.exceptions.ValidationError` naming the
    variable, or the flag, whose value does not parse.
    """
    values: dict[str, Any] = {}
    for setting in SETTINGS:
        source, raw = setting.env, os.environ.get(setting.env)
        if flags is not None and flags.get(setting.flag) is not None:
            source, raw = setting.flag, str(flags[setting.flag])
        if raw is None or not raw.strip():
            continue
        try:
            values[setting.field] = setting.parse(raw.strip())
        except (ValueError, OverflowError):
            raise ValidationError(
                f"{source} must be {setting.expects}, got {raw!r}"
            ) from None
    return Config(**values)


_lock = threading.Lock()
_installed: Config | None = None
_from_env: tuple[tuple | None, Config | None] = (None, None)

#: ``os.environ.get`` raises and catches ``KeyError`` for every unset
#: name, about twenty times the cost of a dict lookup; every parallel
#: region looks the config up, so the change check reads the raw values
#: from the mapping's backing dict.
_ENVIRON_DATA = os.environ._data
_RAW_NAMES = tuple(map(os.environ.encodekey, _NAMES))


def get_config() -> Config:
    """The installed config, else the environment's (parsed once per change)."""
    global _from_env
    installed = _installed
    if installed is not None:
        return installed
    key = tuple(map(_ENVIRON_DATA.get, _RAW_NAMES))
    cached_key, config = _from_env
    if key != cached_key:
        config = load_config()
        _from_env = (key, config)
    return config


def set_config(config: Config | None) -> Config | None:
    """Install ``config`` process-wide; returns the previous one.

    ``None`` goes back to reading the environment.
    """
    global _installed
    with _lock:
        previous, _installed = _installed, config
    return previous


@contextmanager
def use_config(config: Config | None = None, **changes: Any) -> Iterator[Config]:
    """Scoped :func:`set_config`.

    ``changes`` replace fields of ``config`` (default: the current
    config)::

        with use_config(exec_workers=4):
            ...
    """
    scoped = dataclasses.replace(
        get_config() if config is None else config, **changes
    )
    previous = set_config(scoped)
    try:
        yield scoped
    finally:
        set_config(previous)

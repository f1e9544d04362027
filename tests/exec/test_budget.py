"""Tests for repro.exec.budget: the global worker token pool."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.exec.budget import DEFAULT_BUDGET_FLOOR, WorkerBudget

ENV_EXEC_WORKERS = "REPRO_EXEC_WORKERS"


class TestDefaults:
    def test_default_limit_floor(self, monkeypatch):
        monkeypatch.delenv(ENV_EXEC_WORKERS, raising=False)
        assert WorkerBudget().limit >= DEFAULT_BUDGET_FLOOR

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_EXEC_WORKERS, "7")
        assert WorkerBudget().limit == 7

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv(ENV_EXEC_WORKERS, "many")
        with pytest.raises(ValidationError, match="integer"):
            WorkerBudget()

    def test_nonpositive_env(self, monkeypatch):
        monkeypatch.setenv(ENV_EXEC_WORKERS, "0")
        with pytest.raises(ValidationError):
            WorkerBudget()

    def test_invalid_limit(self):
        with pytest.raises(ValidationError):
            WorkerBudget(0)


class TestTokenPool:
    def test_limit_one_grants_nothing(self):
        budget = WorkerBudget(1)
        assert budget.try_acquire(5) == 0
        assert budget.in_use == 0

    def test_caller_is_the_implicit_first_worker(self):
        # limit N hands out at most N-1 tokens: the caller always runs.
        budget = WorkerBudget(4)
        assert budget.try_acquire(10) == 3
        assert budget.in_use == 3

    def test_partial_grant_never_blocks(self):
        budget = WorkerBudget(4)
        assert budget.try_acquire(2) == 2
        assert budget.try_acquire(2) == 1  # only one left
        assert budget.try_acquire(2) == 0  # exhausted: caller goes inline
        budget.release(3)
        assert budget.in_use == 0

    def test_release_caps_at_limit(self):
        budget = WorkerBudget(3)
        budget.release(100)  # over-release must not mint tokens
        assert budget.try_acquire(100) == 2

    def test_acquire_nonpositive(self):
        budget = WorkerBudget(4)
        assert budget.try_acquire(0) == 0
        assert budget.try_acquire(-3) == 0

    def test_fork_resets_accounting(self):
        # A child that inherits mid-flight accounting sees a fresh pool;
        # simulate the fork by faking the recorded pid.
        budget = WorkerBudget(4)
        assert budget.try_acquire(3) == 3
        budget._pid -= 1  # pretend we are now a different process
        assert budget.in_use == 0
        assert budget.try_acquire(3) == 3

"""Tests for the repro CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.config import get_config, set_config


@pytest.fixture(autouse=True)
def _reset_cli_state():
    """``main`` puts back what it replaced; reset anyway, so one broken
    restore cannot leak into later tests."""
    from repro.exec import set_backend, set_worker_budget
    from repro.linalg.engine import set_engine

    yield
    set_config(None)
    set_backend(None)
    set_worker_budget(None)
    set_engine(None)


@pytest.fixture
def during_run(monkeypatch):
    """``during_run(*flags)`` runs ``main([*flags, "run", "table1"])`` with
    the experiment replaced by a probe, and returns what the probe saw of
    the process-wide state while the command ran."""
    from repro.evaluation.experiments import registry

    seen = {}

    class _Result:
        def render(self) -> str:
            return "probed"

    def probe(name, *, scale, seed):
        import numpy as np

        from repro.exec import get_backend, get_worker_budget
        from repro.linalg.engine import get_engine
        from repro.mapreduce.runtime import LocalMapReduceRuntime

        with LocalMapReduceRuntime(np.zeros((4, 2)), n_splits=2) as rt:
            mr_workers = rt.workers
        seen.update(
            config=get_config(), backend=get_backend().name,
            budget=get_worker_budget().limit, engine=get_engine().workers,
            mr=mr_workers,
        )
        return _Result()

    monkeypatch.setattr(registry, "run_experiment", probe)

    def run(*flags: str) -> dict:
        seen.clear()
        assert main([*flags, "run", "table1"]) == 0
        assert seen, "the command never ran"
        return dict(seen)

    return run


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale == "scaled"
        assert args.seed == 0

    def test_run_with_options(self):
        args = build_parser().parse_args(
            ["run", "figure52", "--scale", "bench", "--seed", "9"]
        )
        assert args.scale == "bench"
        assert args.seed == 9

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table1", "--scale", "giant"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mr_defaults(self):
        args = build_parser().parse_args(
            ["mr", "--splits-from", "data.npy", "-k", "50"]
        )
        assert args.command == "mr"
        assert args.splits_from == "data.npy"
        assert args.k == 50
        assert args.method == "scalable"
        assert args.l is None
        assert args.rounds == 5
        assert args.n_splits == 8
        assert args.exec_workers is None

    def test_mr_requires_dataset_and_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mr", "-k", "5"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mr", "--splits-from", "x.npy"])


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure53" in out
        assert "ablations" in out

    def test_run_bench_table1(self, capsys):
        assert main(["run", "table1", "--scale", "bench"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_out_file_written(self, tmp_path, capsys):
        target = tmp_path / "results.txt"
        assert main(
            ["run", "table1", "--scale", "bench", "--out", str(target)]
        ) == 0
        capsys.readouterr()
        assert "Table 1" in target.read_text()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestMRCommand:
    @pytest.fixture
    def dataset_npy(self, tmp_path):
        import numpy as np

        rng = np.random.default_rng(0)
        X = np.vstack([
            c + rng.normal(0.0, 0.4, size=(80, 3))
            for c in ([0, 0, 0], [9, 0, 0], [0, 9, 0])
        ])
        path = tmp_path / "blobs.npy"
        np.save(path, X)
        return path

    def test_scalable_over_mmap_file(self, dataset_npy, capsys):
        code = main([
            "--exec-workers", "2", "mr",
            "--splits-from", str(dataset_npy),
            "-k", "3", "--rounds", "2", "--n-splits", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "k-means||" in out
        assert "workers=2" in out
        assert "lloyd" in out

    def test_random_baseline(self, dataset_npy, capsys):
        assert main([
            "mr", "--splits-from", str(dataset_npy),
            "-k", "3", "--method", "random", "--lloyd-max-iter", "3",
        ]) == 0
        assert "random:" in capsys.readouterr().out

    def test_missing_dataset_is_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mr", "--splits-from", str(tmp_path / "nope.npy"), "-k", "3"])
        assert exc.value.code == 2

    def test_bad_exec_workers_rejected(self, dataset_npy):
        with pytest.raises(SystemExit) as exc:
            main([
                "--exec-workers", "0", "mr",
                "--splits-from", str(dataset_npy), "-k", "3",
            ])
        assert exc.value.code == 2

    def test_mr_over_shard_directory(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        for i, chunk in enumerate(np.array_split(X, 4)):
            np.save(shard_dir / f"part-{i:02d}.npy", chunk)
        assert main([
            "mr", "--splits-from", str(shard_dir),
            "-k", "3", "--rounds", "2", "--n-splits", "4",
            "--lloyd-max-iter", "2",
        ]) == 0
        assert "k-means||" in capsys.readouterr().out


class TestExecFlags:
    """Global --backend / --exec-workers wiring."""

    def test_backend_flag_parsed(self):
        args = build_parser().parse_args(
            ["--backend", "process", "--exec-workers", "8", "list"]
        )
        assert args.backend == "process"
        assert args.exec_workers == 8

    def test_bad_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "gpu", "list"])

    def test_removed_cluster_backend_is_a_parser_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--backend", "cluster", "mr",
                  "--splits-from", str(tmp_path / "d.npy"), "-k", "2"])
        assert exc.value.code == 2
        assert "invalid choice: 'cluster'" in capsys.readouterr().err

    def test_removed_worker_command_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["worker", "--connect", "127.0.0.1:1"])
        assert exc.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err

    def test_removed_shared_broadcast_flag_is_a_parser_error(self, tmp_path, capsys):
        # The backend picks the transport to worker processes; no flag
        # selects it.
        with pytest.raises(SystemExit) as exc:
            main(["--no-shared-broadcast", "mr",
                  "--splits-from", str(tmp_path / "d.npy"), "-k", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-shared-broadcast" in (
            capsys.readouterr().err
        )

    def test_removed_shuffle_budget_flag_is_a_parser_error(self, tmp_path, capsys):
        # The shuffle is one fold per key on the driver; nothing spills.
        with pytest.raises(SystemExit) as exc:
            main(["--shuffle-budget-mib", "1", "mr",
                  "--splits-from", str(tmp_path / "d.npy"), "-k", "2"])
        assert exc.value.code == 2
        # argparse reads the unknown flag's value as the command.
        assert "invalid choice: '1'" in capsys.readouterr().err
        assert "--shuffle-budget-mib" not in build_parser().format_help()

    def test_backend_flag_installs_backend(self, during_run, capsys):
        assert during_run("--backend", "serial")["backend"] == "serial"
        capsys.readouterr()

    def test_exec_workers_sets_budget_and_worker_requests(self, during_run, capsys):
        # '--exec-workers 8' alone must buy real parallelism: budget 8
        # AND an 8-worker request for the engine and for MR.
        seen = during_run("--exec-workers", "8")
        assert (seen["budget"], seen["engine"], seen["mr"]) == (8, 8, 8)
        capsys.readouterr()

    def test_bad_exec_env_is_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
        with pytest.raises(SystemExit) as exc:
            main(["list"])
        assert exc.value.code == 2

    def test_mr_under_explicit_backend(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(0)
        path = tmp_path / "d.npy"
        np.save(path, rng.normal(size=(120, 3)))
        assert main([
            "--backend", "process", "--exec-workers", "3", "mr",
            "--splits-from", str(path), "-k", "3",
            "--rounds", "2", "--n-splits", "3", "--lloyd-max-iter", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=process" in out
        assert "workers=3" in out


class TestProcessStateRestored:
    """``main`` puts back the config, backend, budget and engine it replaced."""

    @staticmethod
    def _installed():
        from repro.config import Config
        from repro.exec import SerialBackend, WorkerBudget, set_backend, set_worker_budget
        from repro.linalg.engine import Engine, set_engine

        state = (Config(exec_workers=5), SerialBackend(), WorkerBudget(5), Engine(workers=5))
        set_config(state[0])
        set_backend(state[1])
        set_worker_budget(state[2])
        set_engine(state[3])
        return state

    @staticmethod
    def _current():
        from repro.exec import get_backend, get_worker_budget
        from repro.linalg.engine import get_engine

        return (get_config(), get_backend(), get_worker_budget(), get_engine())

    def test_after_a_command(self, during_run, capsys):
        state = self._installed()
        seen = during_run("--backend", "thread", "--exec-workers", "2")
        assert (seen["backend"], seen["budget"], seen["engine"]) == ("thread", 2, 2)
        after = self._current()
        assert all(a is b for a, b in zip(after, state))
        capsys.readouterr()

    def test_after_a_command_that_fails(self, tmp_path, capsys):
        state = self._installed()
        with pytest.raises(SystemExit):
            main(["--exec-workers", "2", "mr", "--splits-from",
                  str(tmp_path / "nope.npy"), "-k", "3"])
        after = self._current()
        assert all(a is b for a, b in zip(after, state))
        capsys.readouterr()

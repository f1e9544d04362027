"""The ``serve`` CLI subcommand end to end (tiny workload)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.serve import AssignmentService


def test_parser_accepts_serve_flags():
    args = build_parser().parse_args(
        ["serve", "-k", "8", "--queries", "4", "--threads", "3",
         "--refresh-every", "2"]
    )
    assert args.command == "serve"
    assert args.k == 8
    assert args.threads == 3
    assert args.refresh_every == 2


@pytest.mark.parametrize("flag", ["--max-batch", "--max-wait-us"])
def test_parser_refuses_removed_batching_flags(flag, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", flag, "50"])
    assert flag in capsys.readouterr().err


def test_serve_end_to_end_generated(capsys):
    code = main(
        ["serve", "--n", "400", "--d", "4", "-k", "8", "--R", "8",
         "--queries", "12", "--query-points", "16", "--threads", "3",
         "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "served 12 requests" in out
    assert "identical" in out


def test_serve_with_refresh_and_no_prune(capsys):
    """Refresh runs end to end; the removed ``--no-prune`` flag is refused."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--no-prune"])
    capsys.readouterr()
    code = main(
        ["serve", "--n", "300", "--d", "3", "-k", "6", "--queries", "8",
         "--query-points", "8", "--threads", "2", "--refresh-every", "2",
         "--seed", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "refresh:" in out
    # Five versions served, two retired: every response is still audited.
    assert "8/8 responses re-checked" in out
    assert "identical" in out


def test_serve_audit_catches_a_label_served_by_a_retired_version(
    monkeypatch, capsys
):
    assign = AssignmentService.assign
    corrupted = []

    def corrupting_assign(self, points):
        response = assign(self, points)
        if response.version == 1 and not corrupted:
            response.labels = response.labels.copy()
            response.labels[0] = (response.labels[0] + 1) % 6
            corrupted.append(response.version)
        return response

    monkeypatch.setattr(AssignmentService, "assign", corrupting_assign)
    code = main(
        ["serve", "--n", "300", "--d", "3", "-k", "6", "--queries", "6",
         "--query-points", "8", "--threads", "1", "--refresh-every", "1",
         "--keep-versions", "0", "--seed", "5"]
    )
    captured = capsys.readouterr()
    assert corrupted == [1]
    # v1 was retired by the first refresh, long before the audit runs.
    assert "retained [7]" in captured.out
    assert code == 1
    assert "IDENTITY CHECK FAILED under v1" in captured.err


def test_serve_from_npy(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "points.npy"
    np.save(path, rng.normal(size=(200, 3)))
    code = main(
        ["serve", "--splits-from", str(path), "-k", "5", "--queries", "6",
         "--query-points", "10", "--threads", "2"]
    )
    assert code == 0
    assert "identical" in capsys.readouterr().out


def test_serve_rejects_1d_dataset(tmp_path):
    path = tmp_path / "bad.npy"
    np.save(path, np.ones(7))
    with pytest.raises(SystemExit):
        main(["serve", "--splits-from", str(path), "-k", "3"])

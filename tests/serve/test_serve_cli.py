"""The ``serve`` CLI subcommand end to end (tiny workload)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_parser_accepts_serve_flags():
    args = build_parser().parse_args(
        ["serve", "-k", "8", "--queries", "4", "--max-wait-us", "50",
         "--refresh-every", "2"]
    )
    assert args.command == "serve"
    assert args.k == 8
    assert args.refresh_every == 2


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
    assert "identical" in out


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

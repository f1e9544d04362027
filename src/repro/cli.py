"""Command-line experiment runner.

Usage::

    python -m repro list
    python -m repro run table1 [--scale bench|scaled|paper] [--seed 0]
    python -m repro run all --scale scaled --out results.txt
    python -m repro --exec-workers 4 mr --splits-from data.npy -k 50
    python -m repro --backend process --exec-workers 8 mr --splits-from data.npy -k 50

Every global flag overrides one ``REPRO_*`` setting of
:mod:`repro.config`; the ``--help`` epilog lists them all.

``repro-experiments`` (installed by the package) is an alias of
``python -m repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
import textwrap
from typing import Sequence

from repro._version import __version__
from repro.config import BACKEND_NAMES, SETTINGS, Config, load_config, set_config
from repro.exceptions import ValidationError

__all__ = ["main", "build_parser", "settings_epilog"]


#: argparse details of the global flags of :data:`repro.config.SETTINGS`.
#: ``--task-timeout`` takes ``none`` as its variable does, so its value
#: is parsed by the setting itself (:func:`repro.config.load_config`).
_FLAG_ARGS: dict[str, dict] = {
    "--backend": {"choices": BACKEND_NAMES},
    "--exec-workers": {"type": int, "metavar": "N"},
    "--max-task-retries": {"type": int, "metavar": "N"},
    "--task-timeout": {"metavar": "SECONDS"},
}

#: Global flags that take no value.
_BARE_FLAGS = ("-h", "--help", "--version")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def settings_epilog() -> str:
    """The ``repro --help`` epilog: one entry per row of
    :data:`repro.config.SETTINGS`."""
    lines = ["configuration (environment variable [flag], default):"]
    for setting in SETTINGS:
        flag = f" [{setting.flag}]" if setting.flag else ""
        lines.append(f"  {setting.env}{flag}, default {setting.default}")
        lines.append(textwrap.fill(
            setting.effect, 76, initial_indent="      ", subsequent_indent="      "
        ))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Scalable K-Means++' (Bahmani et al., "
            "VLDB 2012): regenerate every table and figure of Section 5."
        ),
        epilog=settings_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    for setting in SETTINGS:
        if setting.flag is not None:
            parser.add_argument(
                setting.flag,
                default=None,
                help=f"overrides ${setting.env} (see below)",
                **_FLAG_ARGS[setting.flag],
            )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run_p.add_argument(
        "--scale",
        choices=("bench", "scaled", "paper"),
        default="scaled",
        help="workload scale (default: scaled; 'paper' uses the paper's sizes)",
    )
    run_p.add_argument("--seed", type=int, default=0, help="master seed")
    run_p.add_argument(
        "--out", type=str, default=None, help="also append rendered output to this file"
    )

    mr_p = sub.add_parser(
        "mr",
        help="run the k-means|| MapReduce pipeline over a dataset file",
        description=(
            "Run the full k-means|| (or the Random baseline) MapReduce "
            "pipeline over a .npy/.npz dataset (or a directory of .npy "
            "shards, or a CSR directory written by 'repro data --sparse'), "
            "memory-mapping the input so splits stream from disk — "
            "datasets larger than RAM work for both forms (driver-side "
            "scans over a float64 shard directory stream per-shard "
            "sections without materializing the concatenation; non-float64 "
            "shards fall back to one full driver-side copy when the "
            "kernels promote dtypes). A CSR directory routes every kernel "
            "through the sparse (SpMM / stored-entry) siblings."
        ),
    )
    mr_p.add_argument(
        "--splits-from",
        required=True,
        metavar="PATH",
        help=(
            "dataset to cluster: a .npy array, a save_dataset() .npz bundle, "
            "a directory of 2-d .npy shards read as one dataset, or a CSR "
            "directory (data.npy/indices.npy/indptr.npy, as written by "
            "'repro data --sparse' / save_csr_dir) clustered sparsely"
        ),
    )
    mr_p.add_argument("-k", type=int, required=True, help="number of clusters")
    mr_p.add_argument(
        "--method",
        choices=("scalable", "random"),
        default="scalable",
        help="initialization: k-means|| (default) or the uniform Random baseline",
    )
    mr_p.add_argument(
        "--l", type=float, default=None, metavar="L",
        help="oversampling per round, absolute (default: 2k)",
    )
    mr_p.add_argument(
        "--rounds", type=int, default=5, metavar="R",
        help="number of k-means|| sampling rounds (default: 5)",
    )
    mr_p.add_argument(
        "--n-splits", type=int, default=8, metavar="S",
        help="input splits / map tasks per job (default: 8)",
    )
    mr_p.add_argument(
        "--lloyd-max-iter", type=int, default=20, metavar="I",
        help="cap on MapReduce Lloyd refinement rounds (default: 20)",
    )
    mr_p.add_argument("--seed", type=int, default=0, help="master seed")

    serve_p = sub.add_parser(
        "serve",
        help="serve nearest-center queries from a trained model",
        description=(
            "Train (or load) a center set, publish it through the model "
            "registry, and drive a concurrent query stream through the "
            "assignment service, each request served on its client "
            "thread — reporting throughput and (with --refresh-every) "
            "streaming model refresh. Labels are bit-identical to "
            "assign_labels against the centers of the version that "
            "served them; this command re-checks every response on "
            "every run."
        ),
    )
    serve_p.add_argument(
        "--splits-from",
        default=None,
        metavar="PATH",
        help=(
            "dataset to serve queries from (.npy/.npz); omitted = generate "
            "a GaussMixture workload (--n/--d/-k/--R)"
        ),
    )
    serve_p.add_argument("--n", type=int, default=20000, help="generated points (default: 20000)")
    serve_p.add_argument("--d", type=int, default=16, help="generated dimensions (default: 16)")
    serve_p.add_argument("-k", type=int, default=64, help="number of clusters (default: 64)")
    serve_p.add_argument("--R", type=float, default=10.0, help="mixture spread (default: 10)")
    serve_p.add_argument(
        "--queries", type=int, default=256, metavar="Q",
        help="total query requests to issue (default: 256)",
    )
    serve_p.add_argument(
        "--query-points", type=int, default=64, metavar="P",
        help="points per query request (default: 64)",
    )
    serve_p.add_argument(
        "--threads", type=int, default=8, metavar="T",
        help="concurrent client threads (default: 8)",
    )
    serve_p.add_argument(
        "--refresh-every", type=int, default=0, metavar="B",
        help=(
            "fold every served request into a streaming refresher and "
            "publish a new model version every B requests (default: 0 = off)"
        ),
    )
    serve_p.add_argument(
        "--keep-versions", type=int, default=2, metavar="V",
        help="retired model versions retained by the registry (default: 2)",
    )
    serve_p.add_argument(
        "--sparse",
        action="store_true",
        help=(
            "issue the query stream as scipy CSR blocks, exercising the "
            "sparse serving path (labels stay bit-identical to the dense "
            "queries; requires scipy)"
        ),
    )
    serve_p.add_argument("--seed", type=int, default=0, help="master seed")

    data_p = sub.add_parser(
        "data",
        help="generate a dataset and save it for mr/serve",
        description=(
            "Generate one of the paper's datasets (or their synthetic "
            "stand-ins) and save it under --out as a save_dataset() bundle "
            "(<out>.npz + <out>.json). With --sparse the points are kept "
            "as a CSR matrix and land in an additional <out>.X.csr/ "
            "directory (data.npy/indices.npy/indptr.npy) that "
            "'repro mr --splits-from <out>.X.csr' consumes directly, "
            "streaming splits from the memory-mapped triple."
        ),
    )
    data_p.add_argument(
        "dataset",
        choices=("spam", "kddcup", "gauss"),
        help="which generator to run",
    )
    data_p.add_argument(
        "--out", required=True, metavar="PATH",
        help="output base path (suffixes .npz/.json/.X.csr are appended)",
    )
    data_p.add_argument(
        "--sparse",
        action="store_true",
        help="keep X as a CSR matrix and write the <out>.X.csr/ directory",
    )
    data_p.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="rows to generate (default: the generator's own default)",
    )
    data_p.add_argument("--d", type=int, default=16, help="gauss only: dimensions (default: 16)")
    data_p.add_argument("-k", type=int, default=64, help="gauss only: mixture components (default: 64)")
    data_p.add_argument("--R", type=float, default=10.0, help="gauss only: mixture spread (default: 10)")
    data_p.add_argument("--seed", type=int, default=0, help="master seed")
    return parser


def _cli_config(args: argparse.Namespace) -> Config:
    """The environment's config with the global flags on top."""
    flags = {s.flag: getattr(args, _dest(s.flag)) for s in SETTINGS if s.flag}
    return load_config(flags=flags)


def _run_mr(args: argparse.Namespace) -> int:
    """The ``mr`` subcommand: the pipeline over a memory-mapped dataset."""
    from repro.mapreduce.kmeans_mr import mr_random_kmeans, mr_scalable_kmeans

    if args.method == "scalable":
        l = args.l if args.l is not None else 2.0 * args.k
        report = mr_scalable_kmeans(
            args.splits_from,
            args.k,
            l=l,
            r=args.rounds,
            n_splits=args.n_splits,
            seed=args.seed,
            lloyd_max_iter=args.lloyd_max_iter,
        )
    else:
        report = mr_random_kmeans(
            args.splits_from,
            args.k,
            n_splits=args.n_splits,
            seed=args.seed,
            lloyd_max_iter=args.lloyd_max_iter,
        )
    print(report.summary())
    print(f"    backend={report.params['backend']} "
          f"workers={report.params['workers']} splits={args.n_splits} "
          f"candidates={report.n_candidates}")
    plane = report.plane
    print(f"    plane bc_published={plane['broadcast_bytes_published']}B "
          f"state_shipped={plane['state_bytes_shipped']}B "
          f"state_resident={plane['state_bytes_resident']}B")
    faults = report.faults
    if faults and any(faults.values()):
        print(f"    faults retries={faults['retries']} "
              f"crashes={faults['crashes']} timeouts={faults['timeouts']} "
              f"pool_rebuilds={faults['pool_rebuilds']} "
              f"state_recomputed={faults['state_recomputed_bytes']}B")
    for phase, minutes in report.breakdown.items():
        print(f"    {phase:<10} {minutes:10.2f} simulated min")
    return 0


def _run_data(args: argparse.Namespace) -> int:
    """The ``data`` subcommand: generate + save a dataset for mr/serve."""
    from repro.data.io import _strip_known_suffix, _with_suffix, save_dataset

    size = {} if args.n is None else {"n": args.n}
    if args.dataset == "spam":
        from repro.data.spambase import make_spambase

        ds = make_spambase(seed=args.seed, sparse=args.sparse, **size)
    elif args.dataset == "kddcup":
        from repro.data.kddcup import make_kddcup

        ds = make_kddcup(seed=args.seed, sparse=args.sparse, **size)
    else:
        from repro.data.dataset import Dataset
        from repro.data.gauss_mixture import make_gauss_mixture

        ds = make_gauss_mixture(
            seed=args.seed, d=args.d, k=args.k, R=args.R, **size
        )
        if args.sparse:
            # A Gaussian mixture has no zeros — the CSR form is legal but
            # larger than dense; honored for pipeline testing.
            from repro.linalg import sparse as _sparse

            if not _sparse.HAVE_SCIPY:
                raise ValidationError(
                    "--sparse requires scipy, which is not installed"
                )
            from scipy.sparse import csr_matrix

            ds = Dataset(
                name=ds.name,
                X=_sparse.to_csr(csr_matrix(ds.X)),
                labels=ds.labels,
                true_centers=ds.true_centers,
                metadata={**ds.metadata, "sparse": True},
            )
    npz_path = save_dataset(ds, args.out)
    print(ds.describe())
    print(f"wrote {npz_path} (+ sidecar .json)")
    if args.sparse:
        csr_dir = _with_suffix(_strip_known_suffix(args.out), ".X.csr")
        print(f"wrote {csr_dir}{os.sep} (CSR triple)")
        print(f"cluster it sparsely with: repro mr --splits-from {csr_dir} -k <K>")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: model registry + concurrent queries."""
    import threading
    import time

    import numpy as np

    from repro.core import KMeans
    from repro.linalg.distances import assign_labels
    from repro.serve import AssignmentService, ModelRegistry, StreamingRefresher

    if args.splits_from is not None:
        if str(args.splits_from).endswith(".npy"):
            X = np.load(args.splits_from)
        else:
            from repro.data.io import load_dataset

            X = load_dataset(args.splits_from).X
        if X.ndim != 2:
            raise SystemExit(f"dataset must be 2-d, got shape {X.shape}")
    else:
        from repro.data.gauss_mixture import make_gauss_mixture

        X = make_gauss_mixture(
            seed=args.seed, n=args.n, d=args.d, k=args.k, R=args.R
        ).X

    from repro.linalg import sparse as _sparse

    # The sequential trainer works on dense rows; a CSR dataset (loaded
    # from a sparse bundle) densifies once here, while the query stream
    # below stays sparse.
    X_train = _sparse.densify_rows(X) if _sparse.is_sparse(X) else X
    t0 = time.perf_counter()
    model = KMeans(
        n_clusters=args.k, init="k-means||", max_iter=20, seed=args.seed
    ).fit(X_train)
    train_s = time.perf_counter() - t0
    centers = model.cluster_centers_
    print(f"trained k={args.k} on {X.shape[0]}x{X.shape[1]} in {train_s:.2f}s "
          f"(cost {model.inertia_:.4g})")

    rng = np.random.default_rng(args.seed + 1)
    query_pool = X
    if args.sparse:
        if not _sparse.HAVE_SCIPY:
            raise ValidationError("--sparse requires scipy, which is not installed")
        if not _sparse.is_sparse(query_pool):
            from scipy.sparse import csr_matrix

            query_pool = _sparse.to_csr(csr_matrix(np.asarray(query_pool)))
    queries = [
        query_pool[rng.integers(0, X.shape[0], size=args.query_points)]
        for _ in range(args.queries)
    ]

    with ModelRegistry(keep_versions=args.keep_versions) as registry:
        # Every version's centers, recorded as it is published: the
        # registry retires old versions, and the audit below must still
        # re-check the responses they served.
        first = registry.publish(centers)
        published = {first.version: np.array(first.centers)}
        refresher = (
            StreamingRefresher(registry, publish_every=args.refresh_every)
            if args.refresh_every > 0
            else None
        )
        service = AssignmentService(registry)
        responses: list = [None] * len(queries)
        cursor = iter(range(len(queries)))
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                responses[i] = service.assign(queries[i])
                if refresher is not None:
                    model = refresher.observe(queries[i])
                    if model is not None:
                        with lock:
                            published[model.version] = np.array(model.centers)

        t0 = time.perf_counter()
        workers = [
            threading.Thread(target=client)
            for _ in range(max(1, args.threads))
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        wall = time.perf_counter() - t0
        service.close()

        stats = service.stats()
        total_points = stats.n_points
        print(f"served {stats.n_requests} requests / {total_points} points "
              f"in {wall:.3f}s  ({total_points / wall:,.0f} points/s)")
        print(f"    dist_evals={stats.n_dist_evals}")
        if refresher is not None:
            print(f"    refresh: observed={refresher.n_observed}pt "
                  f"published={refresher.n_published} versions "
                  f"(current v{registry.current().version}, "
                  f"retained {registry.versions()})")

        # Identity gate: every response must match assign_labels against
        # the centers of the version it was served under.
        for query, response in zip(queries, responses):
            if response.version not in published:
                print(f"IDENTITY CHECK FAILED: v{response.version} was "
                      f"never recorded as published", file=sys.stderr)
                return 1
            expected = assign_labels(query, published[response.version])
            if not np.array_equal(response.labels, expected):
                print(f"IDENTITY CHECK FAILED under v{response.version}",
                      file=sys.stderr)
                return 1
        print(f"    identity: {len(queries)}/{len(queries)} responses "
              f"re-checked against assign_labels — identical")
    return 0


def _check_global_flags(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Report an option before the subcommand that ``repro`` does not define.

    argparse would read the value of such a flag (one removed, say) as
    the subcommand, and report ``invalid choice`` for the value.
    """
    flags = [s.flag for s in SETTINGS if s.flag] + list(_BARE_FLAGS)
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        given = argv[i].split("=", 1)[0]
        # argparse also takes a unique prefix of a long flag.
        matches = [given] if given in flags else [
            f for f in flags if given.startswith("--") and f.startswith(given)
        ]
        if not matches:
            parser.error(f"unrecognized arguments: {given}")
        i += 1 if "=" in argv[i] or matches[0] in _BARE_FLAGS else 2


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    _check_global_flags(parser, argv)
    args = parser.parse_args(argv)
    try:
        config = _cli_config(args)
    except ValidationError as exc:
        parser.error(str(exc))
    # The CLI's config wins over the environment while the command runs;
    # the process-wide backend, budget and engine are rebuilt from it.
    # All four are put back when it returns, and the backend the command
    # built is shut down, so an in-process caller gets its process back.
    from repro.exec import set_backend, set_worker_budget
    from repro.linalg.engine import set_engine

    previous_config = set_config(config)
    previous_backend = set_backend(None)
    previous_budget = set_worker_budget(None)
    previous_engine = set_engine(None)
    try:
        return _run_command(parser, args)
    finally:
        set_config(previous_config)
        built = set_backend(previous_backend)
        set_worker_budget(previous_budget)
        set_engine(previous_engine)
        if built is not None:
            built.shutdown()


def _run_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the parsed command under the config :func:`main` installed."""
    if args.command == "mr":
        from repro.exceptions import MapReduceError

        try:
            return _run_mr(args)
        except (ValidationError, MapReduceError) as exc:
            parser.error(str(exc))
    if args.command == "serve":
        try:
            return _run_serve(args)
        except ValidationError as exc:
            parser.error(str(exc))
    if args.command == "data":
        try:
            return _run_data(args)
        except ValidationError as exc:
            parser.error(str(exc))
    # Deferred import: keep `repro --version` fast and allow `list` to work
    # even if an experiment module has issues.
    from repro.evaluation.experiments.registry import EXPERIMENTS, run_experiment

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    outputs: list[str] = []
    for name in names:
        result = run_experiment(name, scale=args.scale, seed=args.seed)
        text = result.render()
        print(text)
        print()
        outputs.append(text)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write("\n\n".join(outputs) + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

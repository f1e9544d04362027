"""The three workloads: inputs from a seed, one repetition, and its checks.

Every workload follows one protocol, driven by :mod:`perfbench.run`:

* ``setup()`` builds the inputs from the workload seed and starts what a
  standing deployment keeps running (the process pool, the served model);
* ``rep(tracer)`` runs one timed repetition and returns its record;
* ``check(record)`` returns ``(attempted, failed)`` for the record's
  operations, through :mod:`perfbench.gate`;
* ``outputs()`` returns the costs and a digest of the checked outputs,
  which every process of a run must reproduce;
* ``teardown()`` releases everything ``setup()`` started.

The program receives only generated inputs: data, request blocks, write
batches and the fit seed all derive from the workload seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from perfbench import gate

#: Full and fast (toy, for the benchmark's own tests) sizes per workload.
#: The batch workloads use the paper's R = 1 mixture: at R = 10 the 64
#: components are far apart and the final cost is set by how many of them
#: the seed merges, a small count that moved the cost 6-16% between seeds
#: (interquartile range over 10 seeds); at R = 1 it moved 1-4%.
SIZES = {
    "inmem-d128": {
        "full": dict(n=100_000, d=128, k=64, R=1.0, max_iter=10),
        "fast": dict(n=3_000, d=16, k=8, R=1.0, max_iter=10),
    },
    "mr-process": {
        "full": dict(n=200_000, d=16, k=64, R=1.0, l=128.0, r=5, n_splits=16,
                     lloyd_max_iter=10, workers=2),
        "fast": dict(n=4_000, d=8, k=8, R=1.0, l=16.0, r=3, n_splits=4,
                     lloyd_max_iter=5, workers=2),
    },
    "serve-mixed": {
        "full": dict(k=256, d=16, R=16.0, n_train=12_000, n_eval=20_000,
                     request_points=64, n_requests=256, write_points=2048,
                     write_every=25, writer_requests=500, publish_every=2,
                     clients=2, max_iter=10),
        "fast": dict(k=16, d=8, R=16.0, n_train=2_000, n_eval=1_000,
                     request_points=16, n_requests=32, write_points=256,
                     write_every=5, writer_requests=20, publish_every=2,
                     clients=2, max_iter=10),
    },
}

#: One sentence per workload: why it is in the benchmark.
WHY = {
    "inmem-d128": "it is the single-machine front door and the plain "
                  "single-threaded baseline.",
    "mr-process": "it is the paper's Section 3.5 pipeline.",
    "serve-mixed": "it puts writes beside reads on the serve layer and on the "
                   "plane's publish path, with MR and exec untouched.",
}


def seeds(seed: int, n: int) -> list[int]:
    """``n`` independent 63-bit seeds derived from the workload seed."""
    return [
        int(child.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
        for child in np.random.SeedSequence(seed).spawn(n)
    ]


def _span(tracer, name, layer):
    return tracer.span(name, layer) if tracer is not None else nullcontext()


@dataclass
class FitRecord:
    """One full seeding + Lloyd fit."""

    wall: float
    centers: np.ndarray
    seed_cost: float
    final_cost: float
    #: Per-layer facts the fit reports about itself.
    facts: dict = field(default_factory=dict)


class _BatchFit:
    """Shared protocol of the two batch workloads: one op is one fit."""

    primary = "fit"

    def __init__(self, name: str, seed: int, fast: bool, workdir: str):
        self.name = name
        self.p = SIZES[name]["fast" if fast else "full"]
        self.data_seed, self.fit_seed = seeds(seed, 2)
        self.workdir = workdir
        self.setups = 0
        self.reference: FitRecord | None = None

    def rep(self, tracer=None) -> FitRecord:
        t0 = time.perf_counter()
        with _span(tracer, "bench.fit", "bench"):
            record = self._fit()
        record.wall = time.perf_counter() - t0
        return record

    def check(self, record: FitRecord) -> tuple[int, int]:
        if self.reference is None:
            self.reference = record
        return 1, gate.check_fit(self.reference, record)

    def outputs(self) -> dict:
        """The warm-up fit's outputs; every process of a run must agree."""
        ref = self.reference
        return {
            "digest": hashlib.sha256(ref.centers.tobytes()).hexdigest(),
            "seed_cost": ref.seed_cost,
            "final_cost": ref.final_cost,
        }


class InMemoryFit(_BatchFit):
    """``KMeans(init="k-means||").fit`` on the serial backend."""

    def setup(self) -> None:
        from repro.data import make_gauss_mixture
        from repro.exec import set_backend

        set_backend("serial")
        p = self.p
        self.X = make_gauss_mixture(
            seed=self.data_seed, n=p["n"], d=p["d"], k=p["k"], R=p["R"]
        ).X

    def _fit(self) -> FitRecord:
        from repro import KMeans

        p = self.p
        model = KMeans(
            n_clusters=p["k"], init="k-means||", max_iter=p["max_iter"],
            seed=self.fit_seed,
        ).fit(self.X)
        init = model.init_result_
        return FitRecord(
            wall=0.0,
            centers=model.cluster_centers_,
            seed_cost=float(init.seed_cost),
            final_cost=float(model.inertia_),
            facts={
                "candidates": init.n_candidates,
                "rounds": init.n_rounds,
                "lloyd_iters": model.n_iter_,
            },
        )

    def teardown(self) -> None:
        from repro.exec import set_backend

        self.X = None
        set_backend(None)


class MapReduceFit(_BatchFit):
    """``mr_scalable_kmeans`` over a memory-mapped ``.npy`` on the process backend."""

    def setup(self) -> None:
        from repro.data import make_gauss_mixture
        from repro.exec import ProcessBackend, set_backend

        p = self.p
        X = make_gauss_mixture(
            seed=self.data_seed, n=p["n"], d=p["d"], k=p["k"], R=p["R"]
        ).X
        self.setups += 1
        self.path = os.path.join(self.workdir, f"mr-{self.setups}.npy")
        np.save(self.path, X)
        # One backend for the whole run: its pool starts in the warm-up
        # fit and stays up, as on a standing cluster.
        self.backend = ProcessBackend()
        set_backend(self.backend)

    def _fit(self) -> FitRecord:
        from repro.mapreduce import mr_scalable_kmeans

        p = self.p
        report = mr_scalable_kmeans(
            self.path, p["k"], l=p["l"], r=p["r"], n_splits=p["n_splits"],
            lloyd_max_iter=p["lloyd_max_iter"], workers=p["workers"],
            shared_broadcast=True, seed=self.fit_seed,
        )
        faults = report.faults
        return FitRecord(
            wall=0.0,
            centers=report.centers,
            seed_cost=float(report.seed_cost),
            final_cost=float(report.final_cost),
            facts={
                "candidates": report.n_candidates,
                "rounds": p["r"],
                "lloyd_iters": report.lloyd_iters,
                "retries": sum(
                    faults.get(key, 0) for key in ("retries", "crashes", "timeouts")
                ),
                "broadcast_bytes": report.plane.get("broadcast_bytes_published", 0),
                "state_bytes_shipped": report.plane.get("state_bytes_shipped", 0),
                "state_bytes_resident": report.plane.get("state_bytes_resident", 0),
                "spill_bytes": report.shuffle.get("spill_bytes", 0),
            },
        )

    def teardown(self) -> None:
        from repro.exec import set_backend

        set_backend(None)
        self.backend.shutdown()
        os.remove(self.path)


@dataclass
class ServeRecord:
    """One closed-loop repetition: reads from every client, one writer."""

    wall: float
    latencies: list
    responses: list
    centers_by_version: dict
    final_centers: np.ndarray | None
    n_writes: int
    write_failures: int
    request_failures: int
    stats: dict


class ServeMixed:
    """Closed-loop reads on ``AssignmentService`` beside streaming refreshes.

    A model trained in set-up is published to a shared-memory registry.
    Each repetition re-publishes it, then ``clients`` threads each send
    fixed request blocks and wait for the reply; after every
    ``write_every``-th of its own requests the writer (client 0) feeds
    the next batch of one fixed write sequence to a fresh
    ``StreamingRefresher``.  The writer sends ``writer_requests``
    requests, so every repetition makes the same writes and ends on the
    same served model; the other clients run until it finishes.
    """

    primary = "request"

    def __init__(self, name: str, seed: int, fast: bool, workdir: str):
        self.name = name
        self.p = SIZES[name]["fast" if fast else "full"]
        self.data_seed, self.fit_seed, self.order_seed = seeds(seed, 3)
        self.expected_final = None

    def setup(self) -> None:
        from repro import KMeans
        from repro.data import make_gauss_mixture
        from repro.exec import set_backend
        from repro.serve import AssignmentService, ModelRegistry

        set_backend("serial")
        p = self.p
        n_writes = p["writer_requests"] // p["write_every"]
        n_req = p["n_requests"] * p["request_points"]
        n_write = n_writes * p["write_points"]
        X = make_gauss_mixture(
            seed=self.data_seed,
            n=p["n_train"] + n_req + n_write + p["n_eval"],
            d=p["d"], k=p["k"], R=p["R"],
        ).X
        train, rest = X[:p["n_train"]], X[p["n_train"]:]
        self.requests = list(rest[:n_req].reshape(p["n_requests"], p["request_points"], p["d"]))
        rest = rest[n_req:]
        self.writes = list(rest[:n_write].reshape(n_writes, p["write_points"], p["d"]))
        self.eval_X = rest[n_write:]
        rng = np.random.default_rng(self.order_seed)
        self.orders = [rng.permutation(p["n_requests"]) for _ in range(p["clients"])]

        self.model = KMeans(
            n_clusters=p["k"], init="k-means||", max_iter=p["max_iter"],
            seed=self.fit_seed,
        ).fit(train)
        self.base_centers = self.model.cluster_centers_
        self.registry = ModelRegistry(shared=True)
        self.registry.publish(self.base_centers)
        self.service = AssignmentService(self.registry)

    def outputs(self) -> dict:
        """The trained and the final served model; every process must agree.

        The final model is the offline replay every repetition's served
        model was checked against.
        """
        from repro import potential

        return {
            "digest": hashlib.sha256(
                self.base_centers.tobytes() + self.expected_final.tobytes()
            ).hexdigest(),
            "seed_cost": float(self.model.init_result_.seed_cost),
            "final_cost": float(potential(self.eval_X, self.expected_final)),
        }

    def rep(self, tracer=None) -> ServeRecord:
        from repro.serve import StreamingRefresher

        p = self.p
        base = self.registry.publish(self.base_centers)
        centers_by_version = {base.version: np.array(base.centers)}
        refresher = StreamingRefresher(self.registry, publish_every=p["publish_every"])
        before = self.service.stats()
        clients = p["clients"]
        latencies = [[] for _ in range(clients)]
        responses = [[] for _ in range(clients)]
        request_failures = [0] * clients
        write_failures = [0]
        n_writes = [0]
        done = threading.Event()
        barrier = threading.Barrier(clients + 1)
        service, requests, writes = self.service, self.requests, self.writes

        def client(c: int) -> None:
            order, lat, out = self.orders[c], latencies[c], responses[c]
            writer = c == 0
            i = 0
            barrier.wait()
            while (i < p["writer_requests"]) if writer else not done.is_set():
                index = int(order[i % len(order)])
                t0 = time.perf_counter()
                try:
                    with _span(tracer, "serve.request", "serve"):
                        response = service.assign(requests[index])
                    lat.append(time.perf_counter() - t0)
                    out.append((index, response.version, response.labels))
                except Exception:  # noqa: BLE001 - counted, the loop goes on
                    lat.append(math.inf)
                    request_failures[c] += 1
                i += 1
                if writer and i % p["write_every"] == 0:
                    try:
                        model = refresher.observe(writes[n_writes[0]])
                        if model is not None:
                            centers_by_version[model.version] = np.array(model.centers)
                    except Exception:  # noqa: BLE001 - counted, the loop goes on
                        write_failures[0] += 1
                    n_writes[0] += 1
            if writer:
                done.set()

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        with _span(tracer, "bench.rep", "bench"):
            barrier.wait()
            t0 = time.perf_counter()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - t0
        after = self.service.stats()
        current = self.registry.current()
        return ServeRecord(
            wall=wall,
            latencies=[x for lat in latencies for x in lat],
            responses=[x for out in responses for x in out],
            centers_by_version=centers_by_version,
            final_centers=np.array(current.centers),
            n_writes=n_writes[0],
            write_failures=write_failures[0],
            request_failures=sum(request_failures),
            stats={
                key: getattr(after, key) - getattr(before, key)
                for key in ("n_requests", "n_batches", "n_points", "n_fast_path",
                            "n_dist_evals", "n_pruned")
            },
        )

    def check(self, record: ServeRecord) -> tuple[int, int]:
        """Every response, every write, and the final served model."""
        from repro.linalg.distances import assign_labels
        from repro.serve import offline_fold

        p = self.p
        if self.expected_final is None:
            self.expected_final = offline_fold(
                self.base_centers, self.writes, publish_every=p["publish_every"]
            )[-1]
        attempted = len(record.latencies) + record.n_writes + 1
        failed = (
            record.request_failures
            + record.write_failures
            + gate.check_responses(
                self.requests, record.responses, record.centers_by_version,
                assign_labels,
            )
            + gate.check_final_model(record.final_centers, self.expected_final)
        )
        return attempted, failed

    def teardown(self) -> None:
        from repro.exec import set_backend

        self.service.close()
        self.registry.close()
        set_backend(None)


WORKLOADS = {
    "inmem-d128": InMemoryFit,
    "mr-process": MapReduceFit,
    "serve-mixed": ServeMixed,
}

"""Quickstart: serve nearest-center assignments at low latency.

Walks the serving stack end to end:

1. train a model with k-means|| and publish it into a
   :class:`repro.ModelRegistry` (versioned, atomically swappable);
2. hammer the :class:`repro.AssignmentService` from a small fleet of
   threads — each request is one ``assign_labels`` call on its own
   thread, and the threads run the kernel side by side;
3. stream fresh mini-batches through a
   :class:`repro.StreamingRefresher`, which folds them into the center
   estimates and publishes new versions without ever blocking readers.

Every label returned is bit-identical to ``assign_labels`` against the
exact version that served it.

Run with::

    PYTHONPATH=src python examples/serve_quickstart.py
"""

from __future__ import annotations

import threading

import numpy as np

from repro import (
    AssignmentService,
    KMeans,
    ModelRegistry,
    StreamingRefresher,
)
from repro.data import make_gauss_mixture


def main() -> None:
    dataset = make_gauss_mixture(n=8_000, d=12, k=32, R=12.0, seed=0)
    model = KMeans(n_clusters=32, init="k-means||", seed=0).fit(dataset.X)

    rng = np.random.default_rng(1)
    queries = [
        dataset.X[rng.integers(0, dataset.X.shape[0], size=32)]
        for _ in range(200)
    ]

    with ModelRegistry(keep_versions=4) as registry:
        registry.publish(model.cluster_centers_)
        print(f"published v{registry.current().version} "
              f"(k={registry.current().k}, d={registry.current().d})")

        # -- serve from a fleet of client threads ----------------------
        with AssignmentService(registry) as service:
            cursor = iter(queries)
            lock = threading.Lock()

            def client() -> None:
                while True:
                    with lock:
                        query = next(cursor, None)
                    if query is None:
                        return
                    response = service.assign(query)
                    assert response.labels.shape == (query.shape[0],)

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            stats = service.stats()
            print(f"served {stats.n_requests} requests "
                  f"({stats.n_points:,} points) from {len(threads)} threads")
            print(f"distance evals: {stats.n_dist_evals:,} "
                  f"(points x {registry.current().k} centers)")

        # -- refresh the model from a stream ---------------------------
        refresher = StreamingRefresher(registry, publish_every=4)
        stream = make_gauss_mixture(n=8_000, d=12, k=32, R=12.0, seed=2).X
        for batch in np.array_split(stream, 12):
            refresher.observe(batch)
        refresher.flush()
        print(f"streamed {refresher.n_observed:,} points -> "
              f"{refresher.n_published} new versions "
              f"(now at v{registry.current().version}); readers never "
              f"blocked, old versions retire lazily")


if __name__ == "__main__":
    main()

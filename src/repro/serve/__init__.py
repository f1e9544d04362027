"""Low-latency serving path: registry, assignment, streaming refresh.

The training side of this repository ends with a center matrix; this
package is what happens *after* — answering nearest-center queries at
serving rates:

* :class:`~repro.serve.registry.ModelRegistry` — versioned, atomically
  swapped :class:`~repro.serve.model.ServedModel` snapshots, published
  through the data plane's broadcast machinery;
* :func:`~repro.serve.assign.assign_serve` — one
  :func:`~repro.linalg.distances.assign_labels` call against a served
  model, with that kernel's labels and distances bit for bit;
* :class:`~repro.serve.service.AssignmentService` — the thread-safe
  front end: each request is one ``assign_serve`` call on its caller's
  thread, against the version current when it arrived;
* :class:`~repro.serve.refresh.StreamingRefresher` — mini-batch folding
  of observed data into fresh model versions without blocking readers.
"""

from repro.serve.assign import AssignResult, assign_serve
from repro.serve.model import ServedModel
from repro.serve.refresh import StreamingRefresher, fold_centers, offline_fold
from repro.serve.registry import ModelRegistry
from repro.serve.service import AssignmentService, ServeStats

__all__ = [
    "AssignResult",
    "AssignmentService",
    "ModelRegistry",
    "ServeStats",
    "ServedModel",
    "StreamingRefresher",
    "assign_serve",
    "fold_centers",
    "offline_fold",
]

"""The correctness gate: every output the benchmark times is checked here.

Each check returns the number of failed operations, so a wrong output
counts toward the workload's error rate exactly like an exception does.
"""

from __future__ import annotations

import math

import numpy as np


def check_fit(reference, record) -> int:
    """0 if a fit reproduces the warm-up fit, else 1.

    A fit passes when its centers equal the warm-up fit's bit for bit,
    its costs are finite and equal to the warm-up's, and Lloyd did not
    make the seed worse (``final_cost <= seed_cost``).
    """
    ok = (
        record.centers.shape == reference.centers.shape
        and np.array_equal(record.centers, reference.centers)
        and math.isfinite(record.seed_cost)
        and math.isfinite(record.final_cost)
        and record.seed_cost == reference.seed_cost
        and record.final_cost == reference.final_cost
        and record.final_cost <= record.seed_cost
    )
    return 0 if ok else 1


def check_responses(requests, responses, centers_by_version, assign_labels) -> int:
    """Count served requests whose labels are not the reference labels.

    ``responses`` holds ``(request_index, version, labels)`` per served
    request, ``requests`` the request point blocks, and
    ``centers_by_version`` the centers each published version froze.  A
    response is correct when its labels equal ``assign_labels`` of its
    points against the centers of the exact version that served it; a
    response from an unknown version is wrong.  Requests of one version
    are checked in one kernel call.
    """
    failed = 0
    by_version: dict[int, list[tuple[int, np.ndarray]]] = {}
    for index, version, labels in responses:
        by_version.setdefault(version, []).append((index, labels))
    for version, served in by_version.items():
        centers = centers_by_version.get(version)
        if centers is None:
            failed += len(served)
            continue
        points = np.concatenate([requests[index] for index, _ in served])
        expected = assign_labels(points, centers)
        offset = 0
        for index, labels in served:
            rows = requests[index].shape[0]
            if not np.array_equal(labels, expected[offset:offset + rows]):
                failed += 1
            offset += rows
    return failed


def check_final_model(served_centers, expected_centers) -> int:
    """0 if the served model equals the offline replay bit for bit, else 1."""
    ok = (
        served_centers is not None
        and served_centers.shape == expected_centers.shape
        and np.array_equal(served_centers, expected_centers)
    )
    return 0 if ok else 1

"""Random-number-generator plumbing.

Every stochastic routine in :mod:`repro` takes a ``seed`` argument and
immediately normalizes it through :func:`ensure_generator`. Internally we
only ever use :class:`numpy.random.Generator` — never the legacy
``RandomState`` API and never the global numpy state — so results are
reproducible and independent streams can be handed to simulated parallel
workers via :func:`spawn_generators`.
"""

from __future__ import annotations

import numpy as np

from repro.types import RandomState, SeedLike

__all__ = ["ensure_generator", "spawn_generators"]


def ensure_generator(seed: SeedLike = None) -> RandomState:
    """Return a :class:`numpy.random.Generator` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a
        :class:`numpy.random.SeedSequence`, or an existing ``Generator``
        (returned unchanged, which lets callers thread one stream through
        a pipeline).

    Examples
    --------
    >>> g = ensure_generator(42)
    >>> h = ensure_generator(g)
    >>> g is h
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def spawn_generators(seed: SeedLike, n: int) -> list[RandomState]:
    """Create *n* statistically independent generators derived from *seed*.

    This is how the simulated MapReduce runtime gives every mapper its own
    stream: the sampling decisions of one split never depend on how many
    splits precede it, matching the paper's observation (Section 3.5) that
    "each mapper can sample independently".

    When *seed* is already a ``Generator`` we spawn from it (consuming
    state), otherwise we derive children from a fresh ``SeedSequence``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        return [np.random.default_rng(s) for s in seed.bit_generator.seed_seq.spawn(n)] \
            if getattr(seed.bit_generator, "seed_seq", None) is not None \
            else [np.random.default_rng(seed.integers(0, 2**63)) for _ in range(n)]
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.default_rng(s) for s in seed.spawn(n)]
    base = np.random.SeedSequence(seed) if seed is not None else np.random.SeedSequence()
    return [np.random.default_rng(s) for s in base.spawn(n)]

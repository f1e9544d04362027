"""Dataset substrates for the paper's evaluation (Section 4.1).

The paper evaluates on three datasets:

* **GaussMixture** — synthetic mixture of ``k`` spherical Gaussians
  (reproduced exactly; :func:`make_gauss_mixture`);
* **Spam** — UCI Spambase, 4601 x 58 (offline environment: reproduced by a
  schema-faithful synthetic generator; :func:`make_spambase`);
* **KDDCup1999** — 4.8M x 42 network-connection records (reproduced by a
  scale-parameterized synthetic generator with the same skew structure;
  :func:`make_kddcup`).

Every generator returns a :class:`Dataset` carrying the points plus the
ground-truth component structure where one exists, so experiments can
report costs relative to a near-optimal reference clustering.
"""

from repro.data.dataset import Dataset
from repro.data.gauss_mixture import GaussMixtureConfig, make_gauss_mixture
from repro.data.io import ensure_mmap_npy, load_dataset, save_dataset
from repro.data.kddcup import KDDCupConfig, make_kddcup
from repro.data.spambase import SpambaseConfig, make_spambase
from repro.data.splits import (
    ArraySplitSource,
    CsrSplitDescriptor,
    CsrSplitSource,
    MmapSplitSource,
    SplitSource,
    as_split_source,
    is_csr_dir,
    load_csr_dir,
    save_csr_dir,
)
from repro.data.synthetic import make_grid_clusters

__all__ = [
    "Dataset",
    "GaussMixtureConfig",
    "make_gauss_mixture",
    "SpambaseConfig",
    "make_spambase",
    "KDDCupConfig",
    "make_kddcup",
    "make_grid_clusters",
    "save_dataset",
    "load_dataset",
    "ensure_mmap_npy",
    "SplitSource",
    "ArraySplitSource",
    "MmapSplitSource",
    "CsrSplitSource",
    "CsrSplitDescriptor",
    "as_split_source",
    "save_csr_dir",
    "load_csr_dir",
    "is_csr_dir",
]

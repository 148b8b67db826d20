"""Section 9 extensions and related-work algorithms.

The paper's future-work list starts with "other variants of k-means
like spherical k-means, semi-supervised k-means++", built on the same
NUMA-optimized core; Related Work additionally analyses Yinyang
k-means (Ding et al., ICML 2015), the O(nt)-memory pruning competitor
between MTI's O(n) and Elkan's O(nk). All three are implemented here
on the library's shared kernels so they inherit the exact-numerics
guarantees:

* :func:`spherical_kmeans` -- cosine-similarity k-means on the unit
  sphere (document clustering's workhorse).
* :func:`semisupervised_kmeanspp` -- Yoder & Priebe's seeded
  k-means++: labeled points pin their clusters.
* :func:`yinyang_kmeans` / :class:`YinyangState` -- group-filtered
  triangle-inequality pruning; assignments match Lloyd's exactly, and
  the memory/pruning trade-off slots between MTI and Elkan (see the
  ablation bench).

Of the "later phases" targets, :func:`gmm_em` -- diagonal-covariance
Gaussian mixtures via EM -- is implemented too.

Each clustering variant above is implemented once, as an MM plane
algorithm (clusterNOR's generalization, see :mod:`repro.runtime.mm`):
:class:`GmmMM`, :class:`SphericalMM`, :class:`SemisupervisedMM` and
:class:`YinyangMM`, joined by the serving plane's streaming
:class:`~repro.serve.MiniBatchMM`. The entry points above build one
and run it with :func:`~repro.runtime.mm.run_mm_inmemory`; the same
classes inherit all three execution backends, faults/recovery,
checkpoints and the observer bus. :data:`MM_ALGORITHMS` /
:func:`make_mm_algorithm` / :func:`run_algorithm` dispatch by name.
"""

from repro.extensions.spherical import SphericalMM, spherical_kmeans
from repro.extensions.semisupervised import (
    SemisupervisedMM,
    semisupervised_kmeanspp,
)
from repro.extensions.yinyang import (
    YinyangMM,
    YinyangState,
    yinyang_init,
    yinyang_iteration,
    yinyang_kmeans,
)
from repro.extensions.gmm import GmmMM, GmmResult, gmm_em
from repro.extensions.registry import (
    MM_ALGORITHMS,
    make_mm_algorithm,
    run_algorithm,
)

__all__ = [
    "spherical_kmeans",
    "semisupervised_kmeanspp",
    "YinyangState",
    "yinyang_init",
    "yinyang_iteration",
    "yinyang_kmeans",
    "GmmResult",
    "gmm_em",
    "GmmMM",
    "SphericalMM",
    "SemisupervisedMM",
    "YinyangMM",
    "MM_ALGORITHMS",
    "make_mm_algorithm",
    "run_algorithm",
]

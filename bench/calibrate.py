"""Host-speed calibration: a fixed kernel timed right around each timed interval.

The benchmark runs on a few vCPUs of a shared host.  Their speed changes by
up to 1.8x from one second to the next, and by about 30% between stretches of
ten to twenty minutes, so wall times alone spread more between runs of the
same code than any useful bound.  Around each timed interval, a child
therefore times a fixed kernel that does not touch euler3d and reports the
interval in calibrated seconds:

    calibrated = wall * nominal / kernel

that is, the wall time the work would take on a host that runs the kernel in
its nominal time.  The kernel never changes, so a change to euler3d moves
calibrated time as much as it moves wall time; only the host's speed is
divided out.  Wall times and slowdown factors are reported alongside.

Four kernels, each close to the work it calibrates:

- ``calls``: small numpy calls on 3-vectors, as in the per-pair block and
  identity functions, then a gather over a complex array.  It calibrates
  the identity suite, the reduced simulation and its set-up.
- ``arrays``: one triad sum of the field operator's form on random data:
  take_along_axis gathers over a 342x342 index table, masked fills and
  products with 342x3 arrays (N=3 has 342 modes).  It calibrates the
  projected simulation.  There it followed the host's speed twice as
  closely as ``calls``, which slows down more than array code when the host
  is busy.
- ``scan``: rows of the pair table's form: a triple compared against all
  pairwise sums of 342 random triples.  It calibrates the set-ups whose
  time is mostly building the pair table: the N=3 workloads and
  ``verify-n2``.  On the N=3 set-up it cut the spread of set-up times by
  half where ``arrays`` and ``calls`` did not narrow it.
- ``lapack``: the singular values of a complex 600x600 matrix on the pinned
  BLAS threads, as in the rank job.  A two-thread kernel sees both vCPUs the
  way the job does, and its 6 MB operand sits in the shared cache the way
  the job's do; a 400x400 real SVD that fits a core's own cache did not
  follow the rank job's speed.

The kernel is timed right before and right after each job and the job's
slowdown is the median of those calls; a job of seconds spans several
changes of the host's speed, and the calls on both sides follow it better
than the calls before it alone.  A set-up is calibrated by its kernel's
calls before and after it and during the jobs of its child (``child.py``).
"""

from __future__ import annotations

import functools
import time

import numpy as np

_RNG = np.random.default_rng(0)
_U, _V = _RNG.normal(size=3), _RNG.normal(size=3)
_A = _RNG.normal(size=20000) + 1j * _RNG.normal(size=20000)
_GATHER = _RNG.integers(20000, size=20000)
# the arrays kernel's operands; a negative table entry is a missing partner
_K = _RNG.normal(size=(342, 3))
_W = _RNG.normal(size=(342, 3)) + 1j * _RNG.normal(size=(342, 3))
_TABLE = _RNG.integers(-114, 342, size=(342, 342))
_TABLE_CLIP, _TABLE_MISS = np.clip(_TABLE, 0, None), _TABLE < 0
# the scan kernel's operands
_TRIPLES = _RNG.integers(-3, 4, size=(342, 3))
_SUMS = (_TRIPLES[:, None, :] + _TRIPLES[None, :, :]).reshape(-1, 3)


def _calls() -> None:
    for _ in range(100):
        float(np.linalg.norm(np.cross(_U, _V))) + float(_U @ _V)
    for _ in range(12):
        _A[_GATHER] * _A + _A.conj()


def _arrays() -> None:
    s1 = np.take_along_axis(_K @ np.cross(_W, _K).T, _TABLE_CLIP, axis=1)
    s1[_TABLE_MISS] = 0.0
    s2 = np.take_along_axis((_W @ _K.T).T, _TABLE_CLIP, axis=1)
    s2[_TABLE_MISS] = 0.0
    s1 @ _W + s2 @ np.cross(_K, _W)


def _scan() -> None:
    for row in _TRIPLES[:3]:
        np.all(_SUMS == row, axis=1)


@functools.cache
def _matrix() -> np.ndarray:
    # made on first use, so that only the children that use it hold it
    rng = np.random.default_rng(1)
    return rng.normal(size=(600, 600)) + 1j * rng.normal(size=(600, 600))


def _lapack() -> None:
    np.linalg.svd(_matrix(), compute_uv=False)


# kernel -> (function, nominal seconds, calls on each side of a job).  The
# nominal time is about that of one call on the machine the benchmark was
# defined on, when its host ran fast (two vCPUs of an Intel Xeon host, numpy
# 2.4.6, OpenBLAS 0.3.31 with two threads).  The short calls kernel runs
# twice on each side.
KERNELS = {
    "calls": (_calls, 3.8e-3, 2),
    "arrays": (_arrays, 9.0e-3, 1),
    "scan": (_scan, 12.0e-3, 1),
    "lapack": (_lapack, 0.12, 1),
}


def warm_up(kernel: str) -> None:
    """Untimed calls, so that first-call costs stay out of the calibration."""
    KERNELS[kernel][0]()
    KERNELS[kernel][0]()


def slowdowns(kernel: str, calls: int | None = None) -> list[float]:
    """The host's slowdown now: each call's time over nominal.  ``calls``
    defaults to the kernel's calls on each side of a job."""
    fn, nominal, per_side = KERNELS[kernel]
    out = []
    for _ in range(calls or per_side):
        start = time.perf_counter()
        fn()
        out.append((time.perf_counter() - start) / nominal)
    return out

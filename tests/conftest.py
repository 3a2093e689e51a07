import os

# One BLAS thread, as the package sets it, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from mtv import hilbert, verify  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def rand_complex(rng, *shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def one(x):
    """x as a stack of one trial (a class, scheme, tangent, list of tangents
    or matrix), as the finite-difference routines take it."""
    return verify._stack([x])


def slice_conjugator(d):
    """The conjugator C with slice_embed(X) = C J(D) C^{-1} that `hilb_to_u`
    uses, X = scheme_slice_point(d) the slice point with the scheme's
    characteristic polynomial."""
    return hilbert._scheme_conjugator(d, hilbert.scheme_slice_point(d))[0]


# Five well-separated eigenvalues: enough for every Jordan type up to k = 5.
JORDAN_BASE_POINTS = (-1.1 + 0.2j, 0.9 - 0.4j, 2.2 + 0.5j, -0.3 - 1.3j, 0.4 + 1.6j)


def _partitions(m, largest=None):
    """Every partition of m into parts of at most `largest`, largest part first."""
    if m == 0:
        yield ()
    for first in range(min(m, m if largest is None else largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def jordan_configurations(k):
    """Every Jordan type of size k up to the choice of eigenvalues: a
    multiset of partitions, one per distinct eigenvalue, giving its block
    lengths (partitions of partitions, OEIS A001970: 1, 3, 6, 14, 27)."""
    parts = [p for m in range(1, k + 1) for p in _partitions(m)]

    def multisets(total, start):
        if total == 0:
            yield ()
        for i in range(start, len(parts)):
            if sum(parts[i]) <= total:
                for rest in multisets(total - sum(parts[i]), i):
                    yield (parts[i],) + rest

    return list(multisets(k, 0))


def jordan_matrix(config):
    """The Jordan matrix of a configuration, its i-th partition at the i-th
    of JORDAN_BASE_POINTS."""
    blocks = [(z, l) for z, lengths in zip(JORDAN_BASE_POINTS, config) for l in lengths]
    k = sum(l for _, l in blocks)
    j = np.zeros((k, k), dtype=complex)
    start = 0
    for z, l in blocks:
        j[start : start + l, start : start + l] = z * np.eye(l) + np.eye(l, k=1)
        start += l
    return j

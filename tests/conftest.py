import os

# One BLAS thread, as the package sets it, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

from mtv import hilbert, verify  # noqa: E402
from mtv.verify import JORDAN_BASE_POINTS  # noqa: E402


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


def jordan_matrix(config):
    """The Jordan matrix of a configuration, its i-th partition at the i-th
    of `mtv.verify.JORDAN_BASE_POINTS`."""
    blocks = [(z, l) for z, lengths in zip(JORDAN_BASE_POINTS, config) for l in lengths]
    k = sum(l for _, l in blocks)
    j = np.zeros((k, k), dtype=complex)
    start = 0
    for z, l in blocks:
        j[start : start + l, start : start + l] = z * np.eye(l) + np.eye(l, k=1)
        start += l
    return j

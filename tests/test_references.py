"""The vectorized kernels against the plain loops they replaced.

Each reference below is the earlier coding of a kernel, kept verbatim so the
rewrite is pinned to it: the two-draw disc sampler, the per-power slice
embeddings, the matmul trace pivots and the per-unit pairings of the
symmetrization oracle.
"""
import numpy as np
import pytest

from mtv.lie import pairing
from mtv.slodowy import (
    SlicePoint,
    _f_powers,
    _trace_pivots,
    principal_triple,
    slice_embed,
)
from mtv.verify import (
    _matrix_units,
    sample_disc,
    symmetrized_form_value,
    trial_rng,
)
from mtv.wspace import slice_direction


def _sample_disc_two_draws(rng, *shape, radius=1.0):
    r = radius * np.sqrt(rng.uniform(size=shape))
    phi = rng.uniform(0.0, 2 * np.pi, size=shape)
    return r * np.exp(1j * phi)


def _slice_embed_loop(s):
    fp = _f_powers(s.k)
    x = principal_triple(s.k).e.copy()
    for j, c in enumerate(s.coeffs):
        x = x + c * fp[j]
    return x


def _slice_direction_loop(x, dc):
    fp = _f_powers(x.k)
    out = np.zeros((x.k, x.k), dtype=complex)
    for j, d in enumerate(np.asarray(dc, dtype=complex)):
        out = out + d * fp[j]
    return out


def _trace_pivots_matmul(k):
    fp = _f_powers(k)
    ep = np.eye(k, dtype=complex)
    pivots = []
    for m in range(1, k + 1):
        pivots.append(float((m * np.trace(fp[m - 1] @ ep)).real))
        ep = ep @ principal_triple(k).e
    return tuple(pivots)


@pytest.mark.parametrize("shape", [(), (5,), (5, 5)])
@pytest.mark.parametrize("radius", [1.0, 0.4])
def test_one_draw_sampler_matches_two_draws(shape, radius):
    new, old = (trial_rng(11, "disc", len(shape)) for _ in range(2))
    for _ in range(200):
        np.testing.assert_array_equal(
            sample_disc(new, *shape, radius=radius),
            _sample_disc_two_draws(old, *shape, radius=radius),
        )
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("k", range(1, 7))
def test_scatter_embeddings_match_loops(k):
    rng = trial_rng(12, "embed", k)
    for _ in range(20):
        s = SlicePoint(k, sample_disc(rng, k))
        dc = sample_disc(rng, k)
        np.testing.assert_array_equal(slice_embed(s), _slice_embed_loop(s))
        np.testing.assert_array_equal(slice_direction(s, dc), _slice_direction_loop(s, dc))
    real_dc = np.arange(1.0, k + 1)
    np.testing.assert_array_equal(
        slice_direction(s, real_dc), _slice_direction_loop(s, real_dc)
    )


@pytest.mark.parametrize("k", range(1, 8))
def test_trace_pivots_match_matmul(k):
    assert _trace_pivots(k) == _trace_pivots_matmul(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stacked_oracle_matches_per_unit_calls(k):
    rng = trial_rng(13, "stack", k)
    x = sample_disc(rng, k, k)
    c = sample_disc(rng, k, k)
    units = _matrix_units(k)
    assert units.shape == (k * k, k, k)
    for m in range(1, k + 1):
        for stacked, per_unit in (
            (pairing(c, units), [pairing(c, y) for y in units]),
            (
                symmetrized_form_value(x, units, m),
                [symmetrized_form_value(x, y, m) for y in units],
            ),
        ):
            assert all(type(v) is complex for v in per_unit)
            per_unit = np.array(per_unit)
            assert np.max(np.abs(stacked - per_unit)) <= 1e-14 * np.max(np.abs(per_unit))


def test_matrix_units_row_major():
    for i, y in enumerate(_matrix_units(3)):
        assert y[divmod(i, 3)] == 1.0 and np.count_nonzero(y) == 1

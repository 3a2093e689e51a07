"""Property tests driven by `hypothesis`, derandomized so that every run
draws the same examples."""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtv.hilbert import adjoint_orbits_match
from mtv.verify import jordan_configurations

from conftest import jordan_matrix

# Jordan configurations of size 2..5 with a block of length at least 2
CHAINED = [c for k in range(2, 6) for c in jordan_configurations(k) if max(map(max, c)) >= 2]


@st.composite
def _chained_type_and_group(draw):
    j = jordan_matrix(draw(st.sampled_from(CHAINED)))
    k = len(j)
    parts = draw(arrays(float, (2, k, k), elements=st.floats(-1.0, 1.0)))
    g = np.eye(k) + 0.5 * (parts[0] + 1j * parts[1])
    assume(np.linalg.cond(g) < 100.0)
    chain = np.flatnonzero(np.diagonal(j, 1))
    return j, g, draw(st.sampled_from(list(chain)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_chained_type_and_group())
def test_orbit_test_accepts_conjugates_and_refuses_broken_chains(case):
    # zeroing a superdiagonal 1 splits a Jordan chain in two: the power
    # traces stay, the adjoint orbit changes
    j, g, a = case
    broken = j.copy()
    broken[a, a + 1] = 0.0
    conjugate = g @ j @ np.linalg.inv(g)
    got = adjoint_orbits_match(np.stack([conjugate, broken]), j)
    np.testing.assert_array_equal(got, [True, False])
    assert adjoint_orbits_match(j, conjugate)

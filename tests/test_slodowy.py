import numpy as np
import pytest

from mtv.errors import RegularityError
from mtv.hilbert import adjoint_orbits_match
from mtv.lie import commutator, is_regular, power_traces
from mtv.slodowy import (
    is_in_slice,
    principal_triple,
    slice_coefficients_from_roots,
    slice_embed,
    slice_point,
    slice_representative,
)

from conftest import rand_complex


class TestPrincipalTriple:
    def test_k1_abelian(self):
        t = principal_triple(1)
        assert np.all(t.e == 0) and np.all(t.h == 0) and np.all(t.f == 0)

    def test_k2_matrices(self):
        t = principal_triple(2)
        np.testing.assert_array_equal(t.e, np.array([[0, 0], [1, 0]]))
        np.testing.assert_array_equal(t.h, np.diag([-1.0, 1.0]))
        np.testing.assert_array_equal(t.f, np.array([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_bracket_relations_exact(self, k):
        t = principal_triple(k)
        np.testing.assert_array_equal(commutator(t.h, t.e), 2 * t.e)
        np.testing.assert_array_equal(commutator(t.h, t.f), -2 * t.f)
        np.testing.assert_array_equal(commutator(t.e, t.f), t.h)

    def test_e_is_subdiagonal_ones(self):
        t = principal_triple(4)
        expect = np.zeros((4, 4))
        for i in range(3):
            expect[i + 1, i] = 1.0
        np.testing.assert_array_equal(t.e, expect)


class TestSliceEmbed:
    def test_nilpotent_vertex(self):
        np.testing.assert_array_equal(
            slice_embed(slice_point([0.0, 0.0])), principal_triple(2).e
        )

    def test_k2_general(self):
        a, b = 1.3 - 0.2j, 0.7 + 0.5j
        x = slice_embed(slice_point([a, b]))
        np.testing.assert_allclose(x, np.array([[a, b], [1.0, a]]), atol=1e-15)

    def test_k1(self):
        np.testing.assert_array_equal(slice_embed(slice_point([2.5j])), [[2.5j]])

    def test_slice_points_regular(self, rng):
        for k in (1, 2, 3, 4, 5):
            s = slice_point(rand_complex(rng, k, scale=0.5))
            assert is_regular(slice_embed(s))


class TestSliceRepresentative:
    def test_diag_match(self):
        s = slice_representative(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(s.coeffs, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            slice_embed(s), np.array([[0, 1], [1, 0]]), atol=1e-12
        )

    def test_idempotent_on_embedded(self, rng):
        for k in (1, 2, 3, 4, 5):
            c = rand_complex(rng, k, scale=0.5)
            s = slice_representative(slice_embed(slice_point(c)))
            np.testing.assert_allclose(s.coeffs, c, atol=1e-10)

    def test_jordan_block(self):
        z = 0.3 - 0.8j
        k = 3
        j = z * np.eye(k) + np.diag([1.0, 1.0], 1)
        s = slice_representative(j)
        # characteristic polynomial must be (t - z)^k: compare power traces
        np.testing.assert_allclose(
            power_traces(slice_embed(s)), [k * z, k * z**2, k * z**3], atol=1e-10
        )

    def test_rejects_non_regular(self):
        with pytest.raises(RegularityError):
            slice_representative(np.zeros((2, 2)))

    def test_conjugate_to_input_for_regular(self, rng):
        # a regular matrix (one Jordan block per eigenvalue) is conjugate to
        # its slice representative; checked through independent Jordan data
        for jd in ([(0.4, 2), (1.5, 1)], [(0.2, 3)], [(-1.0, 1), (2.0, 1), (0.5, 1)]):
            k = sum(l for _, l in jd)
            j = np.zeros((k, k), dtype=complex)
            off = 0
            for z, l in jd:
                for a in range(l):
                    j[off + a, off + a] = z
                    if a + 1 < l:
                        j[off + a, off + a + 1] = 1.0
                off += l
            g = np.eye(k) + 0.3 * rand_complex(rng, k, k)
            x = g @ j @ np.linalg.inv(g)
            s = slice_representative(x)
            assert adjoint_orbits_match(x, slice_embed(s))


class TestIsInSlice:
    def test_nilpotent_vertex(self):
        assert is_in_slice(principal_triple(2).e)

    def test_diagonal_not_in_slice(self):
        assert not is_in_slice(np.diag([1.0, 2.0]))

    def test_round_trip(self, rng):
        for k in (1, 2, 3, 4):
            s = slice_point(rand_complex(rng, k, scale=0.5))
            assert is_in_slice(slice_embed(s))


def test_slice_coefficients_from_roots(rng):
    roots = np.array([0.5, 0.5, -1.0 + 0.2j])
    s = slice_coefficients_from_roots(roots, 3)
    t = power_traces(slice_embed(s))
    expect = [np.sum(roots**m) for m in (1, 2, 3)]
    np.testing.assert_allclose(t, expect, atol=1e-10)

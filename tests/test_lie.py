import numpy as np
import pytest

from mtv.errors import DimensionMismatchError, ValidationError
from mtv.lie import (
    AElement,
    InvariantPolynomial,
    centralizer_dimension,
    commutator,
    gradient_of_combination,
    inv_poly_eval,
    is_regular,
    pairing,
    polarized_gradient,
    power_traces,
)
from mtv.verify import symmetrized_form_value

from conftest import rand_complex


def unit(i, j, k):
    m = np.zeros((k, k), dtype=complex)
    m[i, j] = 1.0
    return m


class TestPairing:
    def test_identity(self):
        assert pairing(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_matrix_units(self):
        assert pairing(unit(1, 0, 2), unit(0, 1, 2)) == pytest.approx(1.0)

    def test_swap_matrix(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert pairing(x, x) == pytest.approx(2.0)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairing(np.eye(2), np.eye(3))

    def test_stack(self, rng):
        x = rand_complex(rng, 3, 3)
        ys = rand_complex(rng, 4, 3, 3)
        values = pairing(x, ys)
        assert values.shape == (4,)
        for value, y in zip(values, ys):
            assert value == pytest.approx(pairing(x, y), rel=1e-14)
        for bad in (np.zeros((4, 2, 2)), np.zeros((4, 3, 2))):
            with pytest.raises(DimensionMismatchError):
                pairing(x, bad)

    def test_invariance(self, rng):
        # <[Z,X],Y> + <X,[Z,Y]> = 0
        for _ in range(20):
            z, x, y = (rand_complex(rng, 3, 3) for _ in range(3))
            val = pairing(commutator(z, x), y) + pairing(x, commutator(z, y))
            assert abs(val) < 1e-10 * max(1.0, abs(pairing(x, y)))


class TestInvariantPolynomials:
    def test_trace(self):
        assert inv_poly_eval(InvariantPolynomial(1), np.diag([1.0, 2.0])) == pytest.approx(3.0)

    def test_square(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert inv_poly_eval(InvariantPolynomial(2), x) == pytest.approx(2.0)

    def test_zero_matrix(self):
        for m in (1, 2, 3):
            assert inv_poly_eval(InvariantPolynomial(m), np.zeros((3, 3))) == 0

    def test_conjugation_invariance(self, rng):
        from scipy.linalg import expm

        for _ in range(10):
            x = rand_complex(rng, 3, 3)
            g = expm(rand_complex(rng, 3, 3, scale=0.4))
            for m in (1, 2, 3):
                p = InvariantPolynomial(m)
                a = inv_poly_eval(p, x)
                b = inv_poly_eval(p, g @ x @ np.linalg.inv(g))
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_degree_validation(self):
        with pytest.raises(ValidationError):
            InvariantPolynomial(0)
        with pytest.raises(ValidationError):
            inv_poly_eval(InvariantPolynomial(4), np.eye(2))


class TestPolarizedGradient:
    def test_degree_one_is_identity(self, rng):
        x = rand_complex(rng, 3, 3)
        np.testing.assert_allclose(
            polarized_gradient(InvariantPolynomial(1), x), np.eye(3), atol=1e-14
        )

    def test_degree_two(self, rng):
        x = rand_complex(rng, 3, 3)
        np.testing.assert_allclose(
            polarized_gradient(InvariantPolynomial(2), x), 2 * x, atol=1e-14
        )

    def test_degree_three_swap(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        np.testing.assert_allclose(
            polarized_gradient(InvariantPolynomial(3), x), 3 * np.eye(2), atol=1e-14
        )

    def test_defining_identity_against_oracle(self, rng):
        # <C_P(X), Y> = deg * p(X, ..., X, Y) over a full basis of Y
        for k in (2, 3, 4):
            x = rand_complex(rng, k, k)
            for m in range(1, k + 1):
                c = polarized_gradient(InvariantPolynomial(m), x)
                for i in range(k):
                    for j in range(k):
                        y = unit(i, j, k)
                        lhs = pairing(c, y)
                        rhs = m * symmetrized_form_value(x, y, m)
                        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_gradient_in_centralizer(self, rng):
        for _ in range(10):
            x = rand_complex(rng, 4, 4)
            for m in range(1, 5):
                c = polarized_gradient(InvariantPolynomial(m), x)
                assert np.max(np.abs(commutator(c, x))) < 1e-10 * max(
                    1.0, float(np.max(np.abs(c)))
                )


class TestCentralizer:
    def test_distinct_eigenvalues(self):
        x = np.diag([1.0, 2.0])
        assert centralizer_dimension(x) == 2
        for unit_ii in (unit(0, 0, 2), unit(1, 1, 2)):
            assert not commutator(unit_ii, x).any()

    def test_jordan_block(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        assert centralizer_dimension(n) == 2

    def test_zero_matrix(self):
        assert centralizer_dimension(np.zeros((2, 2))) == 4

    def test_gradients_span_centralizer_for_regular(self, rng):
        from mtv.slodowy import slice_embed, slice_point

        x = slice_embed(slice_point(rand_complex(rng, 3, scale=0.5)))
        grads = [polarized_gradient(InvariantPolynomial(m), x) for m in (1, 2, 3)]
        stacked = np.stack([g.ravel() for g in grads])
        # k independent gradients inside Z(X), which has dimension k, span it
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == 3
        assert centralizer_dimension(x) == 3
        for g in grads:
            assert np.max(np.abs(commutator(g, x))) < 1e-10 * max(1.0, float(np.max(np.abs(g))))


class TestRegularity:
    def test_distinct_diag(self):
        assert is_regular(np.diag([1.0, 2.0]))

    def test_zero_not_regular(self):
        assert not is_regular(np.zeros((2, 2)))

    def test_nilpotent_jordan_block_regular(self):
        for k in (2, 3, 4):
            n = np.zeros((k, k), dtype=complex)
            for i in range(k - 1):
                n[i, i + 1] = 1.0
            assert centralizer_dimension(n) == k
            assert is_regular(n)


class TestAElement:
    def test_sum_zero_membership(self):
        e = AElement(
            factors=(
                (InvariantPolynomial(1, 2.0), InvariantPolynomial(2, -1.0)),
                (InvariantPolynomial(1, -2.0), InvariantPolynomial(2, 1.0)),
            )
        )
        assert e.is_sum_zero(2)

    def test_nonzero_sum(self):
        e = AElement(factors=((InvariantPolynomial(1, 1.0),), ()))
        assert not e.is_sum_zero(2)

    def test_combination_gradient(self, rng):
        x = rand_complex(rng, 3, 3)
        summands = [InvariantPolynomial(1, 0.5), InvariantPolynomial(3, 2.0)]
        expect = 0.5 * np.eye(3) + 6.0 * (x @ x)
        np.testing.assert_allclose(gradient_of_combination(summands, x), expect, atol=1e-12)


def test_power_traces(rng):
    x = rand_complex(rng, 3, 3)
    t = power_traces(x)
    for m in (1, 2, 3):
        assert t[m - 1] == pytest.approx(np.trace(np.linalg.matrix_power(x, m)))

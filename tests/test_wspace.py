from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from mtv.errors import ValidationError
from mtv.lie import InvariantPolynomial, pairing
from mtv.slodowy import is_in_slice, principal_triple, slice_embed, slice_point
from mtv.uspace import u_build, u_symplectic
from mtv.verify import (
    UChart,
    _literal_wedge,
    fd_exterior_derivative,
    fd_moment_conditions,
    sample_utangent,
    sample_wpoint,
    sample_wtangent,
    trial_rng,
)
from mtv.wspace import (
    INCOMING,
    OUTGOING,
    WPoint,
    WTangent,
    a_action,
    a_moment,
    g_act_w,
    maurer_cartan_term,
    opposite_slice_conjugator,
    phi_E,
    phi_E_inverse,
    theta,
    theta_twisted,
    w_moment,
    w_symplectic,
    w_symplectic_bracket_form,
    w_symplectic_moment_wedge,
)

from conftest import one, rand_complex


def wpoint(g, coeffs, orientation=INCOMING):
    return WPoint(g=np.asarray(g, dtype=complex), X=slice_point(coeffs), orientation=orientation)


class TestWMoment:
    def test_identity_incoming(self):
        p = wpoint(np.eye(2), [0.1, 0.4])
        np.testing.assert_allclose(w_moment(p), slice_embed(p.X), atol=1e-14)

    def test_identity_outgoing(self):
        p = wpoint(np.eye(2), [0.1, 0.4], OUTGOING)
        np.testing.assert_allclose(w_moment(p), -slice_embed(p.X), atol=1e-14)

    def test_diagonal_conjugation(self):
        p = wpoint(np.diag([2.0, 0.5]), [0.0, 1.0])
        np.testing.assert_allclose(
            w_moment(p), np.array([[0.0, 4.0], [0.25, 0.0]]), atol=1e-14
        )

    def test_equivariance_exact(self, rng):
        for orientation in (INCOMING, OUTGOING):
            p = sample_wpoint(3, orientation, rng)
            g0 = expm(rand_complex(rng, 3, 3, scale=0.4))
            lhs = w_moment(g_act_w(p, g0))
            rhs = g0 @ w_moment(p) @ np.linalg.inv(g0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestWSymplectic:
    def test_antisymmetry(self, rng):
        for orientation in (INCOMING, OUTGOING):
            p = sample_wpoint(3, orientation, rng)
            u = sample_wtangent(3, rng)
            assert abs(w_symplectic(p, u, u)) < 1e-14

    def test_pairing_block_at_identity(self, rng):
        a = rand_complex(rng, 2, 2)
        dc = rand_complex(rng, 2)
        p = wpoint(np.eye(2), [0.3, -0.2])
        u = WTangent(a=a, dc=np.zeros(2, dtype=complex))
        v = WTangent(a=np.zeros((2, 2), dtype=complex), dc=dc)
        from mtv.wspace import slice_direction

        expect = pairing(a, slice_direction(p.X, dc))
        assert w_symplectic(p, u, v) == pytest.approx(expect)

    def test_group_group_block(self):
        p = wpoint(np.eye(2), [0.0, 1.0])  # X = [[0,1],[1,0]]
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        e21 = np.array([[0, 0], [1, 0]], dtype=complex)
        u = WTangent(a=e12, dc=np.zeros(2, dtype=complex))
        v = WTangent(a=e21, dc=np.zeros(2, dtype=complex))
        assert abs(w_symplectic(p, u, v)) < 1e-14

    def test_bracket_form_coding_agrees(self, rng):
        for orientation in (INCOMING, OUTGOING):
            for _ in range(10):
                p = sample_wpoint(3, orientation, rng)
                u = sample_wtangent(3, rng)
                v = sample_wtangent(3, rng)
                a = w_symplectic(p, u, v)
                b = w_symplectic_bracket_form(p, u, v)
                assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_moment_wedge_discrepancy_is_maurer_cartan(self, rng):
        # the literal moment wedge differs from the canonical form by
        # exactly the recorded Maurer-Cartan term
        for orientation in (INCOMING, OUTGOING):
            for _ in range(10):
                p = sample_wpoint(3, orientation, rng)
                u = sample_wtangent(3, rng)
                v = sample_wtangent(3, rng)
                lhs = w_symplectic_moment_wedge(p, u, v)
                rhs = w_symplectic(p, u, v) + maurer_cartan_term(p, u, v)
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_hamiltonian_condition(self):
        rng = trial_rng(1, "w-ham", 0)
        for orientation in (INCOMING, OUTGOING):
            m = u_build([sample_wpoint(3, orientation, rng)])
            xi = rand_complex(rng, 3, 3, scale=0.7)
            v = sample_utangent(m.X.k, m.n_factors, rng)
            [(lhs, dmu)] = fd_moment_conditions(one(m), 0, one(v), xi=one(xi))
            assert abs(lhs[0] - pairing(dmu[0], xi)) < 1e-5

    def test_closedness(self):
        rng = trial_rng(2, "w-closed", 0)
        for orientation in (INCOMING, OUTGOING):
            m = u_build([sample_wpoint(3, orientation, rng)])
            tans = [sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)]
            [d_omega] = fd_exterior_derivative(u_symplectic, UChart(one(m)), *one(tans))
            assert abs(d_omega) < 1e-4

    def test_literal_wedge_not_closed(self):
        # negative control: the literal wedge fails the exterior derivative
        rng = trial_rng(3, "w-neg", 0)
        m = u_build([sample_wpoint(3, INCOMING, rng)])
        tans = [sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)]
        [d_omega] = fd_exterior_derivative(_literal_wedge, UChart(one(m)), *one(tans))
        assert abs(d_omega) > 1e-2

    @pytest.mark.parametrize("dc", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], 1.0])
    def test_slice_direction_refuses_wrong_length(self, dc):
        # a short velocity was once read as zero-padded, a long one raised
        # IndexError
        from mtv.wspace import slice_direction

        with pytest.raises(ValidationError):
            slice_direction(slice_point([0.1, 0.2, 0.3]), dc)


class TestAbelianAction:
    def test_zero_polynomial_is_identity(self, rng):
        p = sample_wpoint(3, INCOMING, rng)
        q = a_action([], p)
        np.testing.assert_allclose(q.g, p.g, atol=1e-14)

    def test_degree_one_scalar(self, rng):
        p = sample_wpoint(2, INCOMING, rng)
        t = 0.37 - 0.11j
        q = a_action([InvariantPolynomial(1, t)], p)
        np.testing.assert_allclose(q.g, p.g * np.exp(t), atol=1e-12)

    def test_outgoing_left_multiplication(self, rng):
        p = sample_wpoint(2, OUTGOING, rng)
        t = 0.2 + 0.1j
        q = a_action([InvariantPolynomial(1, t)], p)
        np.testing.assert_allclose(q.g, np.exp(t) * p.g, atol=1e-12)

    def test_preserves_moment(self, rng):
        for orientation in (INCOMING, OUTGOING):
            p = sample_wpoint(3, orientation, rng)
            q = a_action([InvariantPolynomial(2, 0.3), InvariantPolynomial(3, -0.1)], p)
            np.testing.assert_allclose(w_moment(q), w_moment(p), atol=1e-9)

    def test_commutes_with_group_action(self, rng):
        summands = [InvariantPolynomial(2, 0.2)]
        for orientation in (INCOMING, OUTGOING):
            p = sample_wpoint(3, orientation, rng)
            g0 = expm(rand_complex(rng, 3, 3, scale=0.4))
            lhs = a_action(summands, g_act_w(p, g0))
            rhs = g_act_w(a_action(summands, p), g0)
            assert np.max(np.abs(lhs.g - rhs.g)) < 1e-12

    def test_hamiltonian_for_abelian_moment(self):
        rng = trial_rng(4, "a-ham", 0)
        for orientation in (INCOMING, OUTGOING):
            m = u_build([sample_wpoint(3, orientation, rng)])
            v = sample_utangent(m.X.k, m.n_factors, rng)
            for degree in (1, 2, 3):
                [(lhs, dp)] = fd_moment_conditions(one(m), 0, one(v), degree=[degree])
                assert abs(lhs[0] - dp[0]) < 1e-5

    def test_preserves_symplectic_form(self):
        # finite-difference pullback comparison
        rng = trial_rng(5, "a-pullback", 0)
        summands = [InvariantPolynomial(2, 0.25), InvariantPolynomial(1, -0.1)]
        h = 1e-5
        for orientation in (INCOMING, OUTGOING):
            p = sample_wpoint(3, orientation, rng)
            u = sample_wtangent(3, rng)
            v = sample_wtangent(3, rng)

            def moved(t, s):  # the point at left-log coordinates s t, acted on
                q = replace(p, g=p.g @ expm(s * t.a), X=slice_point(p.X.coeffs + s * t.dc))
                return a_action(summands, q)

            def push(t):
                q = a_action(summands, p)
                dg = (moved(t, h).g - moved(t, -h).g) / (2 * h)
                return q, WTangent(a=np.linalg.inv(q.g) @ dg, dc=t.dc)

            q, pu = push(u)
            _, pv = push(v)
            assert abs(w_symplectic(q, pu, pv) - w_symplectic(p, u, v)) < 1e-4


class TestAMoment:
    def test_swap_matrix_values(self):
        p = wpoint(np.eye(2), [0.0, 1.0])
        np.testing.assert_allclose(a_moment(p), [0.0, 2.0], atol=1e-14)

    def test_nilpotent_vertex_zero(self):
        p = wpoint(np.eye(3), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(a_moment(p), np.zeros(3), atol=1e-14)

    def test_independent_of_group_part(self, rng):
        x = slice_point(rand_complex(rng, 3, scale=0.5))
        p1 = WPoint(g=np.eye(3), X=x, orientation=INCOMING)
        p2 = WPoint(g=expm(rand_complex(rng, 3, 3, scale=0.4)), X=x, orientation=INCOMING)
        np.testing.assert_allclose(a_moment(p1), a_moment(p2), atol=1e-14)


class TestTheta:
    def test_algebra_on_diagonal(self):
        np.testing.assert_array_equal(
            theta(np.diag([1.0, -1.0])), np.diag([-1.0, 1.0])
        )

    def test_involution(self, rng):
        a = rand_complex(rng, 3, 3)
        np.testing.assert_allclose(theta(theta(a)), a, atol=1e-14)
        g = expm(rand_complex(rng, 3, 3, scale=0.4))
        np.testing.assert_allclose(theta(theta(g, "group"), "group"), g, atol=1e-11)

    def test_group_automorphism(self, rng):
        g = expm(rand_complex(rng, 3, 3, scale=0.4))
        h = expm(rand_complex(rng, 3, 3, scale=0.4))
        np.testing.assert_allclose(
            theta(g @ h, "group"), theta(g, "group") @ theta(h, "group"), atol=1e-11
        )


class TestOppositeSliceConjugator:
    def test_k1(self):
        np.testing.assert_array_equal(opposite_slice_conjugator(1), [[1.0]])

    def test_k2_antidiagonal(self):
        np.testing.assert_allclose(
            opposite_slice_conjugator(2), np.array([[0, 1], [1, 0]]), atol=1e-12
        )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_maps_opposite_slice_into_slice(self, k):
        p = opposite_slice_conjugator(k)
        p_inv = np.linalg.inv(p)
        t = principal_triple(k)
        from mtv.slodowy import _f_powers

        fp = _f_powers(k)
        for j in range(k):
            candidate = p @ (t.e.T + fp[j].T) @ p_inv
            assert is_in_slice(candidate)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_intertwines_triples(self, k):
        p = opposite_slice_conjugator(k)
        t = principal_triple(k)
        for opp, std in ((t.e.T, t.e), (-t.h, t.h), (t.f.T, t.f)):
            np.testing.assert_array_equal(p @ opp, std @ p)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_is_reversal_permutation(self, k):
        np.testing.assert_array_equal(opposite_slice_conjugator(k), np.eye(k)[::-1])

    def test_rejects_k0(self):
        with pytest.raises(ValidationError):
            opposite_slice_conjugator(0)


class TestPhiE:
    def test_slice_part_fixed(self, rng):
        for k in (2, 3, 4):
            p = sample_wpoint(k, INCOMING, rng)
            q = phi_E(p)
            assert q.orientation == OUTGOING
            np.testing.assert_allclose(q.X.coeffs, p.X.coeffs, atol=1e-12)

    def test_identity_group_part(self):
        p = wpoint(np.eye(2), [0.5, -0.3])
        q = phi_E(p)
        np.testing.assert_allclose(q.g, np.eye(2), atol=1e-12)

    def test_anti_equivariance_twisted(self, rng):
        for k in (2, 3, 4):
            p = sample_wpoint(k, INCOMING, rng)
            g0 = expm(rand_complex(rng, k, k, scale=0.4))
            lhs = phi_E(g_act_w(p, g0))
            rhs = g_act_w(phi_E(p), theta_twisted(g0, "group"))
            assert np.max(np.abs(lhs.g - rhs.g)) < 1e-10
            np.testing.assert_allclose(lhs.X.coeffs, rhs.X.coeffs, atol=1e-10)

    def test_plain_theta_fails_equivariance(self, rng):
        # the conjugated involution is essential: plain theta does not work
        p = sample_wpoint(3, INCOMING, rng)
        g0 = expm(rand_complex(rng, 3, 3, scale=0.4))
        lhs = phi_E(g_act_w(p, g0))
        rhs = g_act_w(phi_E(p), theta(g0, "group"))
        assert np.max(np.abs(lhs.g - rhs.g)) > 1e-3

    def test_round_trip(self, rng):
        p = sample_wpoint(3, INCOMING, rng)
        back = phi_E_inverse(phi_E(p))
        np.testing.assert_allclose(back.g, p.g, atol=1e-12)
        np.testing.assert_allclose(back.X.coeffs, p.X.coeffs, atol=1e-12)

    def test_round_trip_exact(self, rng):
        for k in (1, 2, 3, 4, 5):
            p = sample_wpoint(k, INCOMING, rng)
            back = phi_E_inverse(phi_E(p))
            assert back.orientation == INCOMING
            np.testing.assert_array_equal(back.g, p.g)
            np.testing.assert_array_equal(back.X.coeffs, p.X.coeffs)

    def test_moment_intertwining(self, rng):
        p = sample_wpoint(3, INCOMING, rng)
        lhs = w_moment(phi_E(p))
        rhs = theta_twisted(w_moment(p), "algebra")
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_requires_incoming(self, rng):
        p = sample_wpoint(2, OUTGOING, rng)
        with pytest.raises(ValidationError):
            phi_E(p)

import numpy as np
import pytest

from mtv.errors import (
    DimensionMismatchError,
    GluingError,
    LevelSetError,
    SignatureError,
    SingularMatrixError,
    ValidationError,
)
from mtv.lie import AElement, InvariantPolynomial, commutator, is_regular, pairing
from mtv.slodowy import slice_embed, slice_point
from mtv.uspace import (
    UClass,
    UTangent,
    W00Point,
    a0_action,
    axiom_d_residual,
    g_action,
    glue,
    perm_action,
    sl_membership,
    u11_from_tstar,
    u11_to_tstar,
    u_build,
    u_equivalence_residual,
    u_equivalent,
    u_moment,
    u_symplectic,
    u_symplectic_single_slice_form,
    w00_from_glue,
)
from mtv.verify import (
    _SIGNATURES,
    UChart,
    fd_exterior_derivative,
    fd_moment_conditions,
    sample_centralizer_element,
    sample_disc,
    sample_group,
    sample_uclass,
    sample_utangent,
    sample_wpoint,
    trial_rng,
)
from mtv.wspace import INCOMING, OUTGOING, WPoint, WTangent, g_act_w, theta, w_symplectic

from conftest import one, rand_complex


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestUBuild:
    def test_single_incoming(self, rng):
        p = sample_wpoint(2, INCOMING, rng)
        m = u_build([p])
        assert (m.b, m.bprime) == (1, 0)

    def test_two_points_equal_slice(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        p1 = WPoint(g=sample_group(2, rng), X=x, orientation=INCOMING)
        p2 = WPoint(g=sample_group(2, rng), X=x, orientation=OUTGOING)
        m = u_build([p1, p2])
        assert (m.b, m.bprime) == (1, 1)

    def test_unequal_slice_points_rejected(self, rng):
        p1 = sample_wpoint(2, INCOMING, rng)
        p2 = sample_wpoint(2, OUTGOING, rng)
        with pytest.raises(LevelSetError):
            u_build([p1, p2])

    def test_ordering_enforced(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        p1 = WPoint(g=sample_group(2, rng), X=x, orientation=OUTGOING)
        p2 = WPoint(g=sample_group(2, rng), X=x, orientation=INCOMING)
        with pytest.raises(ValidationError):
            u_build([p1, p2])


class TestEquivalence:
    def test_reflexive(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        assert u_equivalent(m, m)

    def test_centralizer_pair_incoming(self, rng):
        m = sample_uclass(3, 2, 0, rng)
        x = slice_embed(m.X)
        u = sample_centralizer_element(x, rng)
        m2 = UClass(b=2, bprime=0, gs=(m.gs[0] @ u, m.gs[1] @ np.linalg.inv(u)), X=m.X)
        assert u_equivalent(m, m2)

    def test_mixed_orientations(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        x = slice_embed(m.X)
        z1 = sample_centralizer_element(x, rng)
        z2 = sample_centralizer_element(x, rng)
        z3 = np.linalg.inv(z1 @ z2)
        m2 = UClass(
            b=2, bprime=1,
            gs=(m.gs[0] @ z1, m.gs[1] @ z2, z3 @ m.gs[2]),
            X=m.X,
        )
        assert u_equivalent(m, m2)

    def test_different_slice_points(self, rng):
        m = sample_uclass(2, 1, 1, rng)
        other = UClass(
            b=1, bprime=1, gs=m.gs,
            X=slice_point(m.X.coeffs + np.array([0.3, 0.0])),
        )
        assert not u_equivalent(m, other)

    def test_unbalanced_product(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        x = slice_embed(m.X)
        u = sample_centralizer_element(x, rng)
        m2 = UClass(b=2, bprime=1, gs=(m.gs[0] @ u, m.gs[1], m.gs[2]), X=m.X)
        assert not u_equivalent(m, m2)

    def test_signature_mismatch(self, rng):
        with pytest.raises(SignatureError):
            u_equivalent(sample_uclass(2, 1, 0, rng), sample_uclass(2, 0, 1, rng))


class TestMomentsAndAxiomD:
    def test_identity_factors(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        m = UClass(b=1, bprime=1, gs=(np.eye(2), np.eye(2)), X=x)
        np.testing.assert_allclose(u_moment(m, 0), slice_embed(x), atol=1e-14)
        np.testing.assert_allclose(u_moment(m, 1), -slice_embed(x), atol=1e-14)

    def test_representative_independence(self, rng):
        m = sample_uclass(3, 1, 1, rng)
        x = slice_embed(m.X)
        z = sample_centralizer_element(x, rng)
        m2 = UClass(b=1, bprime=1, gs=(m.gs[0] @ z, np.linalg.inv(z) @ m.gs[1]), X=m.X)
        for i in range(2):
            np.testing.assert_allclose(u_moment(m, i), u_moment(m2, i), atol=1e-9)

    def test_numpy_integer_factor_index(self, rng):
        # the index check takes any integer type, as numpy loops hand them out
        m = sample_uclass(3, 1, 1, rng)
        for i in range(2):
            np.testing.assert_array_equal(u_moment(m, np.int64(i)), u_moment(m, i))

    def test_axiom_d_single_factor(self, rng):
        m = sample_uclass(3, 1, 0, rng)
        assert axiom_d_residual(m) == 0.0

    def test_axiom_d_random_classes(self, rng):
        for b, bp in [(2, 1), (1, 2), (3, 1), (2, 2)]:
            m = sample_uclass(3, b, bp, rng)
            assert axiom_d_residual(m) < 1e-10

    def test_axiom_d_detects_corruption(self, rng):
        from mtv.lie import power_traces

        m = sample_uclass(3, 2, 1, rng)
        perturbed = [
            power_traces(u_moment(m, 0) + 0.05 * np.eye(3)),
            power_traces(u_moment(m, 1)),
            power_traces(-u_moment(m, 2)),
        ]
        arr = np.array(perturbed)
        assert np.max(np.abs(arr - arr[0])) > 1e-3

    @pytest.mark.parametrize("k", range(1, 5))
    def test_moment_conditions_on_every_factor(self, k):
        # each factor's group action of xi has moment u_moment(., i) and the
        # abelian action of P_m has moment P_m(X): omega(fund, v) matches the
        # central difference of the moment to within the hamiltonian_w
        # tolerance, and the same reading with the sign flipped misses by
        # far more
        for b, bp in _SIGNATURES:
            rng = trial_rng(31, f"u-moment-{b}-{bp}", k)
            m = sample_uclass(k, b, bp, rng)
            for i in range(m.n_factors):
                xi = sample_disc(rng, k, k)
                v = sample_utangent(m.X.k, m.n_factors, rng)
                degree = int(rng.integers(1, k + 1))
                (lhs, dmu), (lhs_a, dp) = fd_moment_conditions(
                    one(m), i, one(v), xi=one(xi), degree=[degree]
                )
                for form, moment in ((lhs[0], pairing(dmu[0], xi)), (lhs_a[0], dp[0])):
                    assert abs(form - moment) < 1e-5
                    assert abs(form + moment) > 1e3 * abs(form - moment)


class TestActions:
    def test_identity_action(self, rng):
        m = sample_uclass(2, 1, 1, rng)
        m2 = g_action(m, 0, np.eye(2))
        np.testing.assert_allclose(m2.gs[0], m.gs[0], atol=1e-14)

    def test_moment_transforms_by_conjugation(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        g0 = sample_group(3, rng)
        for i in range(3):
            lhs = u_moment(g_action(m, i, g0), i)
            rhs = g0 @ u_moment(m, i) @ np.linalg.inv(g0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_other_factors_untouched(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        g0 = sample_group(3, rng)
        m2 = g_action(m, 0, g0)
        for j in (1, 2):
            np.testing.assert_allclose(u_moment(m2, j), u_moment(m, j), atol=1e-14)

    def test_perm_identity(self, rng):
        m = sample_uclass(2, 2, 1, rng)
        m2 = perm_action(m, [0, 1], [0])
        for a, b in zip(m.gs, m2.gs):
            np.testing.assert_array_equal(a, b)

    def test_perm_composition(self, rng):
        m = sample_uclass(2, 3, 0, rng)
        s1, s2 = [1, 2, 0], [2, 0, 1]
        lhs = perm_action(perm_action(m, s2, []), s1, [])
        composed = [s2[s1[i]] for i in range(3)]
        rhs = perm_action(m, composed, [])
        for a, b in zip(lhs.gs, rhs.gs):
            np.testing.assert_array_equal(a, b)

    def test_perm_moves_moments(self, rng):
        m = sample_uclass(2, 2, 1, rng)
        m2 = perm_action(m, [1, 0], [0])
        np.testing.assert_allclose(u_moment(m2, 0), u_moment(m, 1), atol=1e-14)
        np.testing.assert_allclose(u_moment(m2, 1), u_moment(m, 0), atol=1e-14)

    def test_perm_validation(self, rng):
        m = sample_uclass(2, 2, 1, rng)
        with pytest.raises(ValidationError):
            perm_action(m, [0, 0], [0])

    def test_a0_action_sum_zero_preserves_class(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        p1 = (InvariantPolynomial(1, 0.2), InvariantPolynomial(2, -0.1))
        p2 = (InvariantPolynomial(2, 0.1),)
        p3 = (InvariantPolynomial(1, -0.2),)
        elem = AElement(factors=(p1, p2, p3))
        assert elem.is_sum_zero(3)
        m2 = a0_action(elem, m)
        assert u_equivalent(m, m2)

    def test_a0_action_nonzero_sum_moves_class(self, rng):
        m = sample_uclass(3, 2, 1, rng)
        elem = AElement(
            factors=((InvariantPolynomial(2, 0.4),), (), ())
        )
        assert not elem.is_sum_zero(3)
        assert not u_equivalent(m, a0_action(elem, m))


SINGULAR = np.diag([1.0, 1e-13])


@pytest.mark.parametrize(
    "use",
    [
        lambda m, p: WPoint(g=SINGULAR, X=m.X, orientation=INCOMING),
        lambda m, p: UClass(b=1, bprime=1, gs=(m.gs[0], SINGULAR), X=m.X),
        lambda m, p: g_act_w(p, SINGULAR),
        lambda m, p: g_action(m, 1, SINGULAR),
        lambda m, p: theta(SINGULAR, "group"),
    ],
    ids=["WPoint", "UClass", "g_act_w", "g_action", "theta"],
)
def test_singular_group_element_refused(use, rng):
    m = sample_uclass(2, 1, 1, rng)
    p = sample_wpoint(2, OUTGOING, rng)
    with pytest.raises(SingularMatrixError):
        use(m, p)


@pytest.mark.parametrize(
    "use",
    [
        lambda m3, m2, p: u_equivalence_residual(m3, m2),
        lambda m3, m2, p: u_equivalent(m2, m3),
        lambda m3, m2, p: g_action(m3, 0, np.eye(2)),
        lambda m3, m2, p: g_action(m3, 1, np.eye(2)),
        lambda m3, m2, p: g_act_w(p, np.eye(2)),
        lambda m3, m2, p: W00Point(g=np.eye(2), X=slice_point([0.1, 0.2, 0.3])),
    ],
    ids=["u_equivalence_residual", "u_equivalent", "g_action_in", "g_action_out",
         "g_act_w", "W00Point"],
)
def test_size_mismatch_refused(use, rng):
    m3 = sample_uclass(3, 1, 1, rng)
    m2 = sample_uclass(2, 1, 1, rng)
    p = sample_wpoint(3, INCOMING, rng)
    with pytest.raises(DimensionMismatchError):
        use(m3, m2, p)


@pytest.mark.parametrize(
    "use",
    [
        lambda rng: glue(sample_uclass(3, 1, 1, rng), 1, sample_uclass(2, 1, 1, rng), 0),
        lambda rng: w00_from_glue(sample_uclass(3, 0, 1, rng), sample_uclass(2, 1, 0, rng)),
    ],
    ids=["glue", "w00_from_glue"],
)
def test_gluing_size_mismatch_refused(use, rng):
    # both gluings match moments through one size check
    with pytest.raises(DimensionMismatchError):
        use(rng)


class TestUSymplectic:
    def test_antisymmetry(self, rng):
        m = sample_uclass(2, 2, 1, rng)
        u = sample_utangent(m.X.k, m.n_factors, rng)
        assert abs(u_symplectic(m, u, u)) < 1e-13

    def test_single_factor_reduces_to_w(self, rng):
        m = sample_uclass(3, 1, 0, rng)
        u = sample_utangent(m.X.k, m.n_factors, rng)
        v = sample_utangent(m.X.k, m.n_factors, rng)
        p = WPoint(g=m.gs[0], X=m.X, orientation=INCOMING)
        wu = WTangent(a=u.a_list[0], dc=u.dc)
        wv = WTangent(a=v.a_list[0], dc=v.dc)
        assert u_symplectic(m, u, v) == pytest.approx(w_symplectic(p, wu, wv))

    def test_two_codings_agree(self, rng):
        for b, bp in [(2, 0), (1, 1), (2, 1), (1, 2)]:
            m = sample_uclass(3, b, bp, rng)
            u = sample_utangent(m.X.k, m.n_factors, rng)
            v = sample_utangent(m.X.k, m.n_factors, rng)
            lhs = u_symplectic(m, u, v)
            rhs = u_symplectic_single_slice_form(m, u, v)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_refuses_wrong_length_velocity(self, rng):
        m = sample_uclass(3, 1, 1, rng)
        u = sample_utangent(m.X.k, m.n_factors, rng)
        for dc in (u.dc[:2], np.append(u.dc, 0.0)):
            bad = UTangent(a_list=u.a_list, dc=dc)
            with pytest.raises(ValidationError):
                u_symplectic(m, bad, u)
            with pytest.raises(ValidationError):
                u_symplectic(m, u, bad)

    def test_takes_nested_lists(self, rng):
        # like WTangent, the directions may be given as nested lists
        for b, bp in [(1, 0), (0, 1), (1, 2)]:
            m = sample_uclass(3, b, bp, rng)
            u = sample_utangent(m.X.k, m.n_factors, rng)
            v = sample_utangent(m.X.k, m.n_factors, rng)
            listed = UTangent(a_list=tuple(a.tolist() for a in u.a_list), dc=u.dc.tolist())
            assert u_symplectic(m, listed, v) == u_symplectic(m, u, v)

    def test_closed(self, rng):
        m = sample_uclass(2, 1, 1, rng)
        tans = [sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)]
        [d_omega] = fd_exterior_derivative(u_symplectic, UChart(one(m)), *one(tans))
        assert abs(d_omega) < 1e-4

    def test_gram_rank_and_a0_kernel(self, rng):
        # rank = dim U = n k^2 + k - (n-1) k; kernel contains the abelian
        # quotient directions
        k, b, bp = 2, 2, 1
        n = b + bp
        m = sample_uclass(k, b, bp, rng)
        basis = []
        for f in range(n):
            for i in range(k):
                for j in range(k):
                    mats = [np.zeros((k, k), dtype=complex) for _ in range(n)]
                    mats[f][i, j] = 1.0
                    basis.append(
                        UTangent_like(mats, np.zeros(k, dtype=complex))
                    )
        for j in range(k):
            dc = np.zeros(k, dtype=complex)
            dc[j] = 1.0
            basis.append(
                UTangent_like([np.zeros((k, k), dtype=complex)] * n, dc)
            )
        dim = len(basis)
        gram = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(i + 1, dim):
                val = u_symplectic(m, basis[i], basis[j])
                gram[i, j] = val
                gram[j, i] = -val
        sing = np.linalg.svd(gram, compute_uv=False)
        expected_rank = n * k * k + k - (n - 1) * k
        rank = int(np.sum(sing > 1e-8 * sing[0]))
        assert rank == expected_rank
        # abelian directions: sum-zero polynomial tuple fundamental fields
        from mtv.lie import polarized_gradient

        x = slice_embed(m.X)
        c = polarized_gradient(InvariantPolynomial(2), x)
        a_list = [c, -c, np.zeros((k, k), dtype=complex)]
        a0_dir = UTangent_like(a_list, np.zeros(k, dtype=complex))
        vals = [abs(u_symplectic(m, a0_dir, bb)) for bb in basis]
        assert max(vals) < 1e-10


def UTangent_like(a_list, dc):
    return UTangent(a_list=tuple(a_list), dc=dc)


class TestGlue:
    def matched_pair(self, rng, k, sig1, sig2):
        b1, bp1 = sig1
        b2, bp2 = sig2
        m1 = sample_uclass(k, b1, bp1, rng)
        x = slice_embed(m1.X)
        p_out = b1
        z = sample_centralizer_element(x, rng)
        h_q = np.linalg.inv(m1.gs[p_out]) @ z
        gs2 = [sample_group(k, rng) for _ in range(b2 + bp2)]
        gs2[0] = h_q
        m2 = UClass(b=b2, bprime=bp2, gs=tuple(gs2), X=m1.X)
        return m1, p_out, m2, 0

    def test_signature(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 3, (1, 1), (2, 1))
        g = glue(m1, p_out, m2, q_in)
        assert (g.b, g.bprime) == (2, 1)
        assert axiom_d_residual(g) < 1e-10

    def test_receiver_independence(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 3, (2, 1), (1, 1))
        g = glue(m1, p_out, m2, q_in)
        for receiver in range(1, g.n_factors):
            alt = glue(m1, p_out, m2, q_in, receiver)
            assert u_equivalent(g, alt)

    @pytest.mark.parametrize("receiver", [-1, 3])
    def test_receiver_out_of_range(self, rng, receiver):
        m1, p_out, m2, q_in = self.matched_pair(rng, 3, (2, 1), (1, 1))
        with pytest.raises(ValidationError):
            glue(m1, p_out, m2, q_in, receiver)

    def test_gauge_independence(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 2, (1, 1), (1, 1))
        g = glue(m1, p_out, m2, q_in)
        g0 = sample_group(2, rng)
        reglued = glue(g_action(m1, p_out, g0), p_out, g_action(m2, q_in, g0), q_in)
        assert u_equivalent(g, reglued)

    def test_permutation_commutes(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 2, (1, 1), (2, 1))
        # permuting untouched incoming factors of m2 before or after gluing
        g1 = glue(m1, p_out, perm_action(m2, [0, 1], [0]), q_in)
        g2 = glue(m1, p_out, m2, q_in)
        assert u_equivalent(g1, g2)

    def test_cylinder_composition(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 3, (1, 1), (1, 0))
        g = glue(m1, p_out, m2, q_in)
        assert (g.b, g.bprime) == (1, 0)
        gg, _ = u11_to_tstar(m1)
        expected = UClass(b=1, bprime=0, gs=(gg @ m2.gs[0],), X=m1.X)
        assert u_equivalent(g, expected)

    def test_moment_mismatch_raises(self, rng):
        m1 = sample_uclass(2, 1, 1, rng)
        m2 = sample_uclass(2, 1, 1, rng)
        with pytest.raises(GluingError):
            glue(m1, 1, m2, 0)

    def test_empty_result_redirects(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 2, (0, 1), (1, 0))
        with pytest.raises(GluingError, match="w00"):
            glue(m1, p_out, m2, q_in)

    def test_index_validation(self, rng):
        m1, p_out, m2, q_in = self.matched_pair(rng, 2, (1, 1), (1, 1))
        with pytest.raises(SignatureError):
            glue(m1, 0, m2, q_in)  # 0 indexes an incoming factor of m1


class TestW00:
    def test_identity_pair(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        m_out = UClass(b=0, bprime=1, gs=(np.eye(2),), X=x)
        m_in = UClass(b=1, bprime=0, gs=(np.eye(2),), X=x)
        w = w00_from_glue(m_out, m_in)
        np.testing.assert_allclose(w.g, np.eye(2), atol=1e-14)

    def test_centralizer_element(self, rng):
        x = slice_point(rand_complex(rng, 3, scale=0.5))
        x_emb = slice_embed(x)
        u = sample_centralizer_element(x_emb, rng)
        g = sample_group(3, rng)
        m_out = UClass(b=0, bprime=1, gs=(g,), X=x)
        m_in = UClass(b=1, bprime=0, gs=(np.linalg.inv(g) @ u,), X=x)
        w = w00_from_glue(m_out, m_in)
        assert np.max(np.abs(commutator(w.g, x_emb))) < 1e-9

    def test_mismatch_raises(self, rng):
        m_out = sample_uclass(2, 0, 1, rng)
        m_in = sample_uclass(2, 1, 0, rng)
        with pytest.raises(GluingError):
            w00_from_glue(m_out, m_in)

    def test_invariant_enforced(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        with pytest.raises(ValidationError):
            W00Point(g=sample_group(2, rng), X=x)


class TestU11:
    def test_identity_representative(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        m = UClass(b=1, bprime=1, gs=(np.eye(2), np.eye(2)), X=x)
        g, y = u11_to_tstar(m)
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(y, slice_embed(x), atol=1e-14)

    def test_first_factor_conjugates(self, rng):
        x = slice_point(rand_complex(rng, 2, scale=0.5))
        g1 = sample_group(2, rng)
        m = UClass(b=1, bprime=1, gs=(g1, np.eye(2)), X=x)
        g, y = u11_to_tstar(m)
        np.testing.assert_allclose(g, g1, atol=1e-14)
        np.testing.assert_allclose(y, g1 @ slice_embed(x) @ np.linalg.inv(g1), atol=1e-12)

    def test_constant_on_classes(self, rng):
        m = sample_uclass(3, 1, 1, rng)
        z = sample_centralizer_element(slice_embed(m.X), rng)
        m2 = UClass(b=1, bprime=1, gs=(m.gs[0] @ z, np.linalg.inv(z) @ m.gs[1]), X=m.X)
        g1, y1 = u11_to_tstar(m)
        g2, y2 = u11_to_tstar(m2)
        np.testing.assert_allclose(g1, g2, atol=1e-10)
        np.testing.assert_allclose(y1, y2, atol=1e-10)

    def test_inverse_round_trip(self, rng):
        m = sample_uclass(3, 1, 1, rng)
        g, y = u11_to_tstar(m)
        assert is_regular(y)
        back = u11_from_tstar(g, y)
        assert u_equivalent(m, back)

    def test_surjectivity_on_samples(self, rng):
        g = sample_group(3, rng)
        y = slice_embed(slice_point(rand_complex(rng, 3, scale=0.5)))
        h = sample_group(3, rng)
        y = h @ y @ np.linalg.inv(h)
        m = u11_from_tstar(g, y)
        g2, y2 = u11_to_tstar(m)
        np.testing.assert_allclose(g2, g, atol=1e-10)
        np.testing.assert_allclose(y2, y, atol=1e-10)

    def test_signature_check(self, rng):
        with pytest.raises(SignatureError):
            u11_to_tstar(sample_uclass(2, 2, 0, rng))


class TestSlMembership:
    def test_identity_traceless(self):
        x = slice_point([0.0, 0.3])  # trace = 2 * c0 = 0
        m = UClass(b=1, bprime=1, gs=(np.eye(2), np.eye(2)), X=x)
        assert sl_membership(m)

    def test_nonzero_trace(self):
        x = slice_point([1.0, 0.0])
        m = UClass(b=1, bprime=0, gs=(np.eye(2),), X=x)
        assert not sl_membership(m)

    def test_scaled_factor(self):
        x = slice_point([0.0, 0.3])
        lam = 1.3
        m = UClass(b=1, bprime=1, gs=(lam * np.eye(2), np.eye(2)), X=x)
        assert not sl_membership(m)

    def test_outgoing_inverse_convention(self, rng):
        x = slice_point([0.0, 0.3])
        lam = 1.7
        # incoming det lam^2 cancels against outgoing det^{-1}
        m = UClass(b=1, bprime=1, gs=(lam * np.eye(2), lam * np.eye(2)), X=x)
        assert sl_membership(m)


class TestFibration:
    def test_single_factor_data(self, rng):
        m = sample_uclass(2, 1, 0, rng)
        np.testing.assert_allclose(
            u_moment(m, 0), m.gs[0] @ slice_embed(m.X) @ np.linalg.inv(m.gs[0]), atol=1e-12
        )

    def test_fibre_is_centralizer(self, rng):
        # equal data => per-factor centralizer ratios; same class iff their
        # product is 1
        m = sample_uclass(3, 2, 0, rng)
        x = slice_embed(m.X)
        z1 = sample_centralizer_element(x, rng)
        z2 = sample_centralizer_element(x, rng)
        m2 = UClass(b=2, bprime=0, gs=(m.gs[0] @ z1, m.gs[1] @ z2), X=m.X)
        for i in range(2):
            np.testing.assert_allclose(u_moment(m, i), u_moment(m2, i), atol=1e-9)
        # solve the ratios and verify they centralize X
        for i in range(2):
            u = np.linalg.inv(m2.gs[i]) @ m.gs[i]
            assert np.max(np.abs(commutator(u, x))) < 1e-9
        assert u_equivalent(m, m2) == bool(
            np.max(np.abs(z1 @ z2 - np.eye(3))) < 1e-9
        )


class TestPhiEClass:
    def test_signature_shift(self, rng):
        from mtv.uspace import phi_e_class

        m = sample_uclass(3, 2, 1, rng)
        q = phi_e_class(m)
        assert (q.b, q.bprime) == (1, 2)
        np.testing.assert_allclose(q.X.coeffs, m.X.coeffs, atol=1e-12)
        assert axiom_d_residual(q) < 1e-10

    def test_moved_factor_anti_equivariance(self, rng):
        from mtv.uspace import phi_e_class
        from mtv.wspace import theta_twisted

        m = sample_uclass(3, 2, 1, rng)
        g0 = sample_group(3, rng)
        lhs = phi_e_class(g_action(m, 1, g0))  # act on the factor being moved
        q = phi_e_class(m)
        rhs = g_action(q, q.n_factors - 1, theta_twisted(g0, "group"))
        for a, b in zip(lhs.gs, rhs.gs):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_untouched_factors_equivariant(self, rng):
        from mtv.uspace import phi_e_class

        m = sample_uclass(3, 2, 1, rng)
        g0 = sample_group(3, rng)
        lhs = phi_e_class(g_action(m, 0, g0))
        rhs = g_action(phi_e_class(m), 0, g0)
        for a, b in zip(lhs.gs, rhs.gs):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_moved_factor_is_a_copy(self, rng):
        from mtv.uspace import phi_e_class

        m = sample_uclass(3, 2, 1, rng)
        q = phi_e_class(m)
        assert not any(np.shares_memory(q.gs[-1], g) for g in m.gs)

    def test_needs_incoming_factor(self, rng):
        from mtv.uspace import phi_e_class

        with pytest.raises(SignatureError):
            phi_e_class(sample_uclass(2, 0, 2, rng))


class TestFreeAction:
    # h g_1 = g_1 z_1 with the other factors fixed and prod z_i = 1 leaves
    # only h = 1 when every factor is invertible; a singular g_1 would be
    # fixed by h = 1 + v w^T with w^T g_1 = 0, so a class must refuse it
    @pytest.mark.parametrize("sig", _SIGNATURES)
    def test_only_identity_stabilizer(self, sig, rng):
        for k in range(2, 6):
            m = sample_uclass(k, *sig, rng)
            g = m.gs[0] @ np.diag([1.0] * (k - 1) + [0.0])
            w = np.linalg.svd(g)[0][:, -1].conj()
            h = np.eye(k) + np.outer(rng.standard_normal(k), w)
            assert np.max(np.abs(h @ g - g)) < 1e-12
            with pytest.raises(SingularMatrixError):
                UClass(b=m.b, bprime=m.bprime, gs=(g,) + m.gs[1:], X=m.X)

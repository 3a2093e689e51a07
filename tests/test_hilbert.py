import numpy as np
import pytest

from mtv.errors import (
    ConditioningError,
    DegenerateSchemeError,
    SignatureError,
    ValidationError,
)
from mtv.hilbert import (
    FTangent,
    JetScheme,
    LocalPiece,
    act_on_scheme,
    adjoint_orbits_match,
    block_reversal,
    f_gram_matrix,
    f_kernel_dimension,
    f_moment,
    f_presymplectic,
    f_presymplectic_moment_wedge,
    g_matrix,
    hilb_to_u,
    jet_normalize,
    jet_proportional,
    jet_scalar_inverse,
    jet_scalar_multiply,
    jordan_of,
    locally_nondegenerate,
    nondegenerate,
    normalize_scheme,
    orbit_invariant,
    orbit_invariant_equal,
    u_to_hilb,
)
from mtv.lie import pairing
from mtv.slodowy import (
    slice_coefficients_from_roots,
    slice_embed,
    slice_point,
    slice_tangent_from_eigen_motion,
)
from mtv.uspace import UClass, u_equivalent, u_moment
from mtv.verify import sample_group, sample_jetscheme
from mtv.wspace import INCOMING, WPoint, WTangent, w_symplectic

from conftest import rand_complex, slice_conjugator


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def simple_scheme(k, b=1, bprime=0, zs=None, vectors=None):
    """k simple pieces; vectors default to the standard basis per factor."""
    n = b + bprime
    zs = zs if zs is not None else [complex(i) for i in range(k)]
    pieces = []
    for i, z in enumerate(zs):
        jets = []
        for _ in range(n):
            v = np.zeros((1, k), dtype=complex)
            if vectors is None:
                v[0, i] = 1.0
            else:
                v[0] = vectors[i]
            jets.append(v)
        pieces.append(LocalPiece(z=z, length=1, jets=tuple(jets)))
    return JetScheme(k=k, b=b, bprime=bprime, pieces=tuple(pieces))


class TestSchemaAndValidation:
    def test_length_mismatch(self):
        piece = LocalPiece(z=0.0, length=1, jets=(np.array([[1.0, 0.0]]),))
        with pytest.raises(ValidationError):
            JetScheme(k=3, b=1, bprime=0, pieces=(piece,))

    def test_empty_scheme_rejected(self):
        with pytest.raises(ValidationError):
            JetScheme(k=0, b=1, bprime=0, pieces=())

    def test_missing_factor_jets(self):
        piece = LocalPiece(z=0.0, length=2, jets=(np.eye(2, 2, dtype=complex),))
        with pytest.raises(ValidationError):
            JetScheme(k=2, b=1, bprime=1, pieces=(piece,))

    def test_zero_leading_vector(self):
        with pytest.raises(DegenerateSchemeError):
            LocalPiece(z=0.0, length=1, jets=(np.zeros((1, 2)),))


class TestJordan:
    def test_distinct_simple_points(self):
        d = simple_scheme(3, zs=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(jordan_of(d), np.diag([1.0, 2.0, 3.0]), atol=1e-15)

    def test_single_full_jet(self):
        z = 0.7 - 0.2j
        jets = (np.eye(3, dtype=complex),)
        d = JetScheme(k=3, b=1, bprime=0,
                      pieces=(LocalPiece(z=z, length=3, jets=jets),))
        expect = z * np.eye(3) + np.diag([1.0, 1.0], 1)
        np.testing.assert_allclose(jordan_of(d), expect, atol=1e-15)

    def test_mixed_blocks(self):
        jets2 = (np.array([[1, 0, 0], [0, 1, 0]], dtype=complex),)
        jets1 = (np.array([[0, 0, 1]], dtype=complex),)
        d = JetScheme(
            k=3, b=1, bprime=0,
            pieces=(
                LocalPiece(z=0.0, length=2, jets=jets2),
                LocalPiece(z=1.0, length=1, jets=jets1),
            ),
        )
        expect = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1.0]])
        np.testing.assert_allclose(jordan_of(d), expect, atol=1e-15)

    def test_reorder_permutes_blocks(self, rng):
        d = sample_jetscheme(3, 1, 0, rng, lengths=[2, 1])
        d_rev = JetScheme(k=3, b=1, bprime=0, pieces=d.pieces[::-1])
        assert adjoint_orbits_match(jordan_of(d), jordan_of(d_rev))

    def test_same_characteristic_polynomial_as_class_slice(self, rng):
        from mtv.lie import power_traces

        d = sample_jetscheme(3, 1, 0, rng)
        m = hilb_to_u(d)
        np.testing.assert_allclose(
            power_traces(jordan_of(d)),
            power_traces(slice_embed(m.X)),
            atol=1e-9,
        )


class TestGMatrix:
    def test_standard_basis_identity(self):
        d = simple_scheme(3)
        np.testing.assert_allclose(g_matrix(d, 0), np.eye(3), atol=1e-15)

    def test_k1(self):
        x = np.array([[2.0 + 1.0j]])
        d = JetScheme(
            k=1, b=1, bprime=0,
            pieces=(LocalPiece(z=0.5, length=1, jets=(x,)),),
        )
        np.testing.assert_allclose(g_matrix(d, 0), x.T, atol=1e-15)

    def test_columns_follow_piece_order(self, rng):
        d = sample_jetscheme(4, 1, 0, rng, lengths=[2, 2])
        g = g_matrix(d, 0)
        np.testing.assert_allclose(g[:, 0], d.pieces[0].jets[0][0], atol=1e-15)
        np.testing.assert_allclose(g[:, 2], d.pieces[1].jets[0][0], atol=1e-15)


class TestNondegeneracy:
    def test_standard_basis_nondegenerate(self):
        assert nondegenerate(simple_scheme(3))

    def test_repeated_vector_degenerate(self):
        # two pieces with the same vector: the factor matrix is singular
        d = simple_scheme(2, vectors=[np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert not nondegenerate(d)
        assert not locally_nondegenerate(d)

    def test_full_jet_standard_basis(self):
        d = JetScheme(
            k=3, b=1, bprime=0,
            pieces=(LocalPiece(z=0.0, length=3, jets=(np.eye(3, dtype=complex),)),),
        )
        assert nondegenerate(d)

    def test_zero_later_vector_breaks_rank(self):
        jets = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),)
        d = JetScheme(k=2, b=1, bprime=0,
                      pieces=(LocalPiece(z=0.0, length=2, jets=jets),))
        assert not locally_nondegenerate(d)

    def test_collision_locally_but_not_globally(self):
        # same base point, independent vectors: finite but nontrivial
        # stabilizer (swap), so locally nondegenerate and not nondegenerate
        z = 0.3 + 0.4j
        d = simple_scheme(
            2, zs=[z, z], vectors=[np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        )
        assert locally_nondegenerate(d)
        assert not nondegenerate(d)

    def test_collision_swap_blocked_by_second_factor(self, rng):
        # with two factors, a swap needs proportional jets in all factors
        # but one; independent second-factor jets block it
        z = 0.1 - 0.2j
        pieces = []
        vecs1 = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        vecs2 = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
        for i in range(2):
            pieces.append(
                LocalPiece(
                    z=z, length=1,
                    jets=(vecs1[i][None, :].astype(complex),
                          vecs2[i][None, :].astype(complex)),
                )
            )
        d = JetScheme(k=2, b=2, bprime=0, pieces=tuple(pieces))
        assert nondegenerate(d)


class TestJetNormalize:
    def test_single_factor_unchanged(self, rng):
        d = sample_jetscheme(3, 1, 0, rng, lengths=[3])
        p = d.pieces[0]
        q = jet_normalize(p)
        for a, b in zip(p.jets, q.jets):
            np.testing.assert_array_equal(a, b)

    def test_leading_entry_normalized(self):
        x = np.array([[3.0, 0.0]], dtype=complex)
        y = np.array([[2.0, 1.0]], dtype=complex)
        piece = LocalPiece(z=0.0, length=1, jets=(x, y))
        q = jet_normalize(piece)
        np.testing.assert_allclose(q.jets[0], [[1.0, 0.0]], atol=1e-14)
        # the second factor absorbs the inverse scale: the product of the
        # stored scalings is one, so the tensor is unchanged
        np.testing.assert_allclose(q.jets[1], [[6.0, 3.0]], atol=1e-14)

    def test_leading_vector_below_pivot_cutoff(self):
        # nonzero, but every entry is under the 1e-12 pivot cutoff
        piece = LocalPiece(
            z=0.0, length=1, jets=(np.array([[1e-13, 0.0]]), np.array([[1.0, 0.0]]))
        )
        with pytest.raises(DegenerateSchemeError):
            jet_normalize(piece)

    def test_idempotent(self, rng):
        d = sample_jetscheme(4, 2, 1, rng, lengths=[2, 2])
        for p in d.pieces:
            q = jet_normalize(p)
            q2 = jet_normalize(q)
            for a, b in zip(q.jets, q2.jets):
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_orbit_collapse(self, rng):
        # two jets differing by a jet-group tuple normalize identically
        d = sample_jetscheme(3, 2, 1, rng, lengths=[3])
        p = d.pieces[0]
        l, n = p.length, p.n_factors
        scalings = []
        prod = np.zeros(l, dtype=complex)
        prod[0] = 1.0
        for _ in range(n - 1):
            s = rand_complex(rng, l, scale=0.4)
            s[0] = 1.0 + 0.2 * complex(rand_complex(rng, scale=1.0))
            scalings.append(s)
            prod = jet_scalar_multiply(prod[:, None], s).ravel()
        scalings.append(jet_scalar_inverse(prod))
        jets2 = tuple(
            jet_scalar_multiply(p.jets[m], scalings[m]) for m in range(n)
        )
        p2 = LocalPiece(z=p.z, length=l, jets=jets2)
        q1 = jet_normalize(p)
        q2 = jet_normalize(p2)
        for a, b in zip(q1.jets, q2.jets):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_jet_scalar_inverse(self, rng):
        s = rand_complex(rng, 4, scale=0.5)
        s[0] = 1.0 + 0.3j
        inv = jet_scalar_inverse(s)
        prod = jet_scalar_multiply(s[:, None], inv).ravel()
        np.testing.assert_allclose(prod, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


class TestCorrespondence:
    def test_scalar_case(self):
        x = np.array([[2.0 - 1.0j]])
        z = 0.4 + 0.1j
        d = JetScheme(
            k=1, b=1, bprime=0,
            pieces=(LocalPiece(z=z, length=1, jets=(x,)),),
        )
        m = hilb_to_u(d)
        np.testing.assert_allclose(m.gs[0], x, atol=1e-14)
        np.testing.assert_allclose(m.X.coeffs, [z], atol=1e-14)

    def test_single_jet_k2(self, rng):
        z = 0.5 - 0.3j
        jets = (rand_complex(rng, 2, 2),)
        while abs(np.linalg.det(jets[0])) < 0.2:
            jets = (rand_complex(rng, 2, 2),)
        d = JetScheme(k=2, b=1, bprime=0,
                      pieces=(LocalPiece(z=z, length=2, jets=jets),))
        m = hilb_to_u(d)
        # slice part has characteristic polynomial (t - z)^2
        x = slice_embed(m.X)
        np.testing.assert_allclose(
            [np.trace(x), np.trace(x @ x)], [2 * z, 2 * z**2], atol=1e-12
        )
        # moment reproduces G J G^{-1}
        g = g_matrix(d, 0)
        np.testing.assert_allclose(
            u_moment(m, 0), g @ jordan_of(d) @ np.linalg.inv(g), atol=1e-10
        )

    def test_outgoing_moment_transposed(self, rng):
        d = sample_jetscheme(3, 0, 1, rng)
        m = hilb_to_u(d)
        g = g_matrix(d, 0)
        lhs = -u_moment(m, 0)
        rhs = (g @ jordan_of(d) @ np.linalg.inv(g)).T
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_jet_group_gives_equivalent_classes(self, rng):
        d = sample_jetscheme(3, 2, 1, rng, lengths=[2, 1])
        # scale factor jets piece-wise with unit product
        new_pieces = []
        for p in d.pieces:
            l, n = p.length, p.n_factors
            scalings = []
            prod = np.zeros(l, dtype=complex)
            prod[0] = 1.0
            for _ in range(n - 1):
                s = rand_complex(rng, l, scale=0.3)
                s[0] = 1.0 + 0.2 * complex(rand_complex(rng, scale=1.0))
                scalings.append(s)
                prod = jet_scalar_multiply(prod[:, None], s).ravel()
            scalings.append(jet_scalar_inverse(prod))
            jets = tuple(
                jet_scalar_multiply(p.jets[m], scalings[m]) for m in range(n)
            )
            new_pieces.append(LocalPiece(z=p.z, length=l, jets=jets))
        d2 = JetScheme(k=3, b=2, bprime=1, pieces=tuple(new_pieces))
        assert u_equivalent(hilb_to_u(d), hilb_to_u(d2))

    def test_u_to_hilb_scalar(self, rng):
        m = UClass(b=1, bprime=0, gs=(np.array([[1.5 + 0.5j]]),),
                   X=slice_point([0.25 - 0.75j]))
        d = u_to_hilb(m)
        assert len(d.pieces) == 1 and d.pieces[0].length == 1
        assert abs(d.pieces[0].z - (0.25 - 0.75j)) < 1e-12

    def test_distinct_eigenvalues_give_simple_pieces(self, rng):
        x = slice_coefficients_from_roots(np.array([0.0, 1.5, -1.5 + 1.0j]), 3)
        m = UClass(b=1, bprime=1, gs=(sample_group(3, rng), sample_group(3, rng)), X=x)
        d = u_to_hilb(m)
        assert sorted(p.length for p in d.pieces) == [1, 1, 1]

    @pytest.mark.parametrize("sig,lengths", [
        ((1, 0), [2, 1]), ((0, 1), [1, 1, 1]), ((1, 1), [3]), ((2, 1), [2, 2]),
    ])
    def test_round_trips(self, sig, lengths, rng):
        k = sum(lengths)
        d = sample_jetscheme(k, sig[0], sig[1], rng, lengths=lengths)
        m = hilb_to_u(d)
        d2 = u_to_hilb(m)
        dn = normalize_scheme(d)
        assert len(d2.pieces) == len(dn.pieces)
        for p1, p2 in zip(dn.pieces, d2.pieces):
            assert p1.length == p2.length
            assert abs(p1.z - p2.z) < 1e-9
            for a, b in zip(p1.jets, p2.jets):
                np.testing.assert_allclose(a, b, atol=1e-9)
        assert u_equivalent(m, hilb_to_u(d2))

    def test_equivariance_exact(self, rng):
        from mtv.uspace import g_action

        d = sample_jetscheme(3, 1, 2, rng)
        gs = [sample_group(3, rng) for _ in range(3)]
        lhs = hilb_to_u(act_on_scheme(d, gs))
        rhs = hilb_to_u(d)
        for j, g in enumerate(gs):
            rhs = g_action(rhs, j, g)
        for a, b in zip(lhs.gs, rhs.gs):
            np.testing.assert_allclose(a, b, atol=1e-11)

    def test_degenerate_scheme_rejected(self):
        d = simple_scheme(2, vectors=[np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        with pytest.raises(DegenerateSchemeError):
            hilb_to_u(d)

    def test_colliding_base_points_rejected(self):
        z = 0.2
        d = simple_scheme(2, zs=[z, z],
                          vectors=[np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        with pytest.raises(DegenerateSchemeError):
            hilb_to_u(d)

    def test_close_roots_conditioning_error(self, rng):
        # two eigenvalues separated by less than the cluster radius but by
        # more than roundoff: the reconstruction check must refuse
        x = slice_coefficients_from_roots(np.array([0.0, 1e-3, 2.0]), 3)
        m = UClass(b=1, bprime=0, gs=(sample_group(3, rng),), X=x)
        with pytest.raises(ConditioningError):
            u_to_hilb(m)

    def test_conjugator_property(self, rng):
        d = sample_jetscheme(4, 1, 0, rng, lengths=[2, 1, 1])
        c = slice_conjugator(d)
        x = slice_embed(slice_coefficients_from_roots(
            np.concatenate([[p.z] * p.length for p in d.pieces]), 4))
        np.testing.assert_allclose(
            x @ c, c @ jordan_of(d), atol=1e-9
        )


class TestFMoment:
    def test_standard_basis(self):
        d = JetScheme(
            k=3, b=1, bprime=0,
            pieces=(LocalPiece(z=0.4, length=3, jets=(np.eye(3, dtype=complex),)),),
        )
        np.testing.assert_allclose(f_moment(d), jordan_of(d), atol=1e-12)

    def test_permutation_of_diagonal(self):
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
        d = simple_scheme(3, zs=[1.0, 2.0, 3.0])
        # rows of the permutation as jet vectors
        pieces = tuple(
            LocalPiece(z=float(i + 1), length=1, jets=(perm[:, i][None, :],))
            for i in range(3)
        )
        d = JetScheme(k=3, b=1, bprime=0, pieces=pieces)
        mu = f_moment(d)
        np.testing.assert_allclose(sorted(np.diag(mu).real), [1.0, 2.0, 3.0], atol=1e-12)
        assert np.max(np.abs(mu - np.diag(np.diag(mu)))) < 1e-12

    def test_jet_group_invariance(self, rng):
        d = sample_jetscheme(3, 1, 0, rng, lengths=[3])
        p = d.pieces[0]
        s = rand_complex(rng, 3, scale=0.3)
        s[0] = 1.0  # b = 1: the jet group is trivial, but right
        # multiplication by lambda(J) with unit constant term is precisely
        # the centralizer ambiguity of G; mu must not move
        jets2 = (jet_scalar_multiply(p.jets[0], s),)
        d2 = JetScheme(k=3, b=1, bprime=0,
                       pieces=(LocalPiece(z=p.z, length=3, jets=jets2),))
        np.testing.assert_allclose(f_moment(d), f_moment(d2), atol=1e-10)

    def test_equivariance(self, rng):
        d = sample_jetscheme(3, 1, 0, rng)
        g0 = sample_group(3, rng)
        lhs = f_moment(act_on_scheme(d, [g0]))
        rhs = g0 @ f_moment(d) @ np.linalg.inv(g0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_degenerate_raises(self):
        d = simple_scheme(2, vectors=[np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        with pytest.raises(DegenerateSchemeError):
            f_moment(d)


def _gram_by_pairs(d):
    """The Gram matrix of the presymplectic form by one `f_presymplectic`
    call per pair of coordinate tangents (matrix units, then piece shifts)."""
    k, s = d.k, len(d.pieces)
    units = np.eye(k * k + s, dtype=complex)
    basis = [FTangent(rho=e[: k * k].reshape(k, k), dz=e[k * k :]) for e in units]
    gram = np.zeros((k * k + s, k * k + s), dtype=complex)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            gram[i, j] = f_presymplectic(d, basis[i], basis[j])
            gram[j, i] = -gram[i, j]
    return gram


class TestFPresymplectic:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_gram_matrix_matches_pair_loop(self, rng, k):
        collide = [0.4 - 0.2j] * 2 + [2.0 + 0.1j + 1.3 * i for i in range(k - 2)]
        schemes = [
            sample_jetscheme(k, 1, 0, rng),
            sample_jetscheme(k, 1, 0, rng),
            sample_jetscheme(k, 1, 0, rng, lengths=[k - 1, 1]),
            sample_jetscheme(k, 1, 0, rng, lengths=[k]),
            sample_jetscheme(k, 1, 0, rng, lengths=[1] * k, zs=collide),
        ]
        for d in schemes:
            ref = _gram_by_pairs(d)
            gram = f_gram_matrix(d)
            assert np.max(np.abs(gram - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_gram_matrix_refusals(self, rng):
        with pytest.raises(SignatureError):
            f_gram_matrix(sample_jetscheme(3, 1, 1, rng))
        d = simple_scheme(2, vectors=[np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        with pytest.raises(DegenerateSchemeError):
            f_gram_matrix(d)

    def test_antisymmetry(self, rng):
        d = sample_jetscheme(3, 1, 0, rng)
        s = len(d.pieces)
        u = FTangent(rho=rand_complex(rng, 3, 3), dz=rand_complex(rng, s))
        assert abs(f_presymplectic(d, u, u)) < 1e-13

    def test_pure_eigenvalue_pairs_vanish(self, rng):
        d = sample_jetscheme(3, 1, 0, rng)
        s = len(d.pieces)
        u = FTangent(rho=np.zeros((3, 3), dtype=complex), dz=rand_complex(rng, s))
        v = FTangent(rho=np.zeros((3, 3), dtype=complex), dz=rand_complex(rng, s))
        assert abs(f_presymplectic(d, u, v)) < 1e-14

    def test_signature_restriction(self, rng):
        d = sample_jetscheme(3, 1, 1, rng)
        u = FTangent(rho=np.zeros((3, 3)), dz=np.zeros(len(d.pieces)))
        with pytest.raises(SignatureError):
            f_presymplectic(d, u, u)

    def test_moment_wedge_discrepancy_identity(self, rng):
        d = sample_jetscheme(3, 1, 0, rng)
        s = len(d.pieces)
        mu = f_moment(d)
        for _ in range(5):
            u = FTangent(rho=rand_complex(rng, 3, 3), dz=rand_complex(rng, s))
            v = FTangent(rho=rand_complex(rng, 3, 3), dz=rand_complex(rng, s))
            lhs = f_presymplectic_moment_wedge(d, u, v)
            rhs = f_presymplectic(d, u, v) + pairing(
                mu, u.rho @ v.rho - v.rho @ u.rho
            )
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_agrees_with_w_form_on_group_directions(self, rng):
        # transport tangents through the correspondence; the comparison is
        # run with one purely group-directed argument, where the Jordan-to-
        # slice conjugator gauge drops out
        d = sample_jetscheme(3, 1, 0, rng, lengths=[1, 1, 1])
        m = hilb_to_u(d)
        g0, x0 = m.gs[0], m.X
        roots = np.array([p.z for p in d.pieces])
        mults = np.array([p.length for p in d.pieces])
        wp = WPoint(g=g0, X=x0, orientation=INCOMING)
        h = 1e-4

        def conj_at(dzs):
            pieces = tuple(
                LocalPiece(z=p.z + dzs[i], length=p.length, jets=p.jets)
                for i, p in enumerate(d.pieces)
            )
            return slice_conjugator(
                JetScheme(k=3, b=1, bprime=0, pieces=pieces)
            )

        c0 = conj_at(np.zeros(3))

        def conj_derivative(dz):
            # Richardson-extrapolated central difference: O(h^4)
            d1 = (conj_at(h * dz) - conj_at(-h * dz)) / (2 * h)
            d2 = (conj_at(h / 2 * dz) - conj_at(-h / 2 * dz)) / h
            return (4 * d2 - d1) / 3

        def to_w(tan):
            dc_dt = conj_derivative(tan.dz)
            delta_g = tan.rho @ g0 - g0 @ (dc_dt @ np.linalg.inv(c0))
            a = np.linalg.inv(g0) @ delta_g
            dcoef = slice_tangent_from_eigen_motion(x0, roots, mults, tan.dz)
            return WTangent(a=a, dc=dcoef)

        worst = 0.0
        for _ in range(5):
            u = FTangent(rho=rand_complex(rng, 3, 3), dz=rand_complex(rng, 3))
            v = FTangent(rho=rand_complex(rng, 3, 3), dz=np.zeros(3, dtype=complex))
            val_f = f_presymplectic(d, u, v)
            val_w = w_symplectic(wp, to_w(u), to_w(v))
            worst = max(worst, abs(val_f - val_w))
        assert worst < 1e-8

    def test_kernel_trivial_on_split_nondegenerate(self, rng):
        d = sample_jetscheme(3, 1, 0, rng, lengths=[1, 1, 1])
        assert f_kernel_dimension(d) == 0

    def test_kernel_nontrivial_on_collision(self, rng):
        z = 0.4 - 0.2j
        d = sample_jetscheme(2, 1, 0, rng, lengths=[1, 1], zs=[z, z])
        assert locally_nondegenerate(d) and not nondegenerate(d)
        assert f_kernel_dimension(d) > 0

    def test_jet_stratum_kernel_dimension(self, rng):
        # restricting the symplectic structure to a Jordan stratum with s
        # pieces leaves a kernel of dimension k - s along the nilpotent
        # centralizer directions
        d = sample_jetscheme(3, 1, 0, rng, lengths=[2, 1])
        assert f_kernel_dimension(d) == 1
        d = sample_jetscheme(3, 1, 0, rng, lengths=[3])
        assert f_kernel_dimension(d) == 2

    @pytest.mark.parametrize(
        "form", [f_presymplectic, f_presymplectic_moment_wedge],
        ids=["closed", "moment_wedge"],
    )
    @pytest.mark.parametrize(
        "case, error",
        [("signature", SignatureError), ("singular", DegenerateSchemeError),
         ("long_dz", ValidationError)],
    )
    def test_both_forms_refuse_alike(self, rng, form, case, error):
        # the literal wedge shares the closed form's refusals: a (1,1) scheme,
        # a singular factor matrix and one dz too many
        if case == "signature":
            d = sample_jetscheme(3, 1, 1, rng)
        elif case == "singular":
            d = simple_scheme(2, vectors=[np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        else:
            d = sample_jetscheme(3, 1, 0, rng)
        s = len(d.pieces) + (case == "long_dz")
        u = FTangent(rho=rand_complex(rng, d.k, d.k), dz=rand_complex(rng, s))
        with pytest.raises(error):
            form(d, u, u)


class TestOrbitInvariant:
    def test_simple_points(self):
        d = simple_scheme(3, zs=[1.0, 2.0, 3.0])
        inv = orbit_invariant(d)
        assert [l for _, l in inv] == [1, 1, 1]

    def test_full_jet(self, rng):
        d = sample_jetscheme(4, 1, 0, rng, lengths=[4])
        inv = orbit_invariant(d)
        assert len(inv) == 1 and inv[0][1] == 4

    def test_group_action_invariance(self, rng):
        d = sample_jetscheme(3, 1, 0, rng)
        g0 = sample_group(3, rng)
        assert orbit_invariant_equal(
            orbit_invariant(d), orbit_invariant(act_on_scheme(d, [g0]))
        )

    def test_orbit_bijection_at_invariant_level(self, rng):
        # conjugate moments iff equal invariants, across Jordan types
        z1, z2 = 0.5, -1.0 + 0.5j
        d_jet = sample_jetscheme(2, 1, 0, rng, lengths=[2], zs=[z1])
        d_split = sample_jetscheme(2, 1, 0, rng, lengths=[1, 1], zs=[z1, z2])
        d_coll = sample_jetscheme(2, 1, 0, rng, lengths=[1, 1], zs=[z1, z1])
        pairs = [(d_jet, d_split), (d_jet, d_coll), (d_split, d_coll)]
        for a, b in pairs:
            assert not orbit_invariant_equal(orbit_invariant(a), orbit_invariant(b))
            assert not adjoint_orbits_match(f_moment(a), f_moment(b))
        d_jet2 = sample_jetscheme(2, 1, 0, rng, lengths=[2], zs=[z1])
        assert orbit_invariant_equal(orbit_invariant(d_jet), orbit_invariant(d_jet2))
        assert adjoint_orbits_match(f_moment(d_jet), f_moment(d_jet2))


class TestJetHelpers:
    def test_proportional_witness(self, rng):
        jet = rand_complex(rng, 3, 2)
        s = rand_complex(rng, 3, scale=0.5)
        s[0] = 1.4 - 0.2j
        scaled = jet_scalar_multiply(jet, s)
        ok, c = jet_proportional(jet, scaled)
        assert ok
        np.testing.assert_allclose(c, s, atol=1e-10)

    def test_not_proportional(self, rng):
        jet = rand_complex(rng, 2, 3)
        other = rand_complex(rng, 2, 3)
        ok, _ = jet_proportional(jet, other)
        assert not ok

    def test_block_reversal_transposes_jordan(self, rng):
        d = sample_jetscheme(4, 1, 0, rng, lengths=[2, 2])
        q = block_reversal(d)
        j = jordan_of(d)
        np.testing.assert_allclose(q @ j @ q, j.T, atol=1e-14)

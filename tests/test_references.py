"""The vectorized kernels against the plain loops they replaced.

Each reference below is the earlier coding of a kernel, kept verbatim so the
rewrite is pinned to it: the two-draw disc sampler, the per-power slice
embeddings, the matmul trace pivots, the per-unit pairings of the
symmetrization oracle, the offset loops over a scheme's Jordan blocks, the
four written-out rank cutoffs, the per-candidate cyclic-frame search, the
union-find and pairwise codings of the clustering rule, the sort_pieces
piece order, the index loop of the exterior derivative and its per-point
coding, which the stacked evaluation of the six chart points replaced, the
plain-`expm` displacement of the moment conditions, which `UChart` replaced,
and the per-pair adjoint-orbit test, which the broadcast one replaced, and
the padded broadcast one, which the per-row rank profiles replaced, and the
regular-slice kernels: the two-kron ad operator, the per-vector Krylov frame
and the power-sum solve that embedded a validated slice point at each step.
The one-pass correspondence is pinned to the codings it replaced: `u_to_hilb`
through a skeleton scheme, the per-entry jet product, the per-factor jet
normalization, nondegeneracy test, `hilb_to_u` loop and class check.  The
stacked Fitting frame and the Gram matrix built from it are pinned to the
per-scheme frame and the two-einsum Gram matrix with its projector loop.
"""
import itertools
from dataclasses import replace

import numpy as np
import pytest

from scipy.linalg import expm

from conftest import jordan_matrix, one, slice_conjugator

from mtv.errors import (
    ConditioningError,
    DegenerateSchemeError,
    MtvError,
    SingularMatrixError,
    ValidationError,
)
from mtv.hilbert import (
    NONDEGENERACY_TOL,
    ROOT_CLUSTER_RADIUS,
    Z_MATCH_TOL,
    FTangent,
    JetScheme,
    LocalPiece,
    _cluster_roots,
    _clusters,
    _eigen_shift,
    _fitting_frame,
    _invertible,
    act_on_scheme,
    adjoint_orbits_match,
    block_reversal,
    f_gram_matrix,
    f_kernel_dimension,
    f_moment,
    f_presymplectic,
    g_matrix,
    has_distinct_base_points,
    hilb_to_u,
    jet_normalize,
    jet_scalar_inverse,
    jet_scalar_multiply,
    jordan_of,
    locally_nondegenerate,
    normalize_scheme,
    orbit_invariant,
    u_to_hilb,
)
from mtv.lie import (
    RANK_TOL,
    InvariantPolynomial,
    _krylov_frame,
    ad_operator,
    as_matrix,
    centralizer_basis,
    check_same_size,
    centralizer_dimension,
    inv_poly_eval,
    pairing,
    polarized_gradient,
    power_traces,
)
from mtv.slodowy import (
    SlicePoint,
    _f_powers,
    _slice_from_power_sums,
    _slice_frame,
    _trace_pivots,
    principal_triple,
    slice_coefficients_from_roots,
    slice_embed,
    slice_point,
)
from mtv.uspace import (
    UClass, UTangent, _cyclic_candidates, _cyclic_frame, u_build, u_moment, u_symplectic)
from mtv.verify import (
    FD_STEP,
    JORDAN_BASE_POINTS,
    FChart,
    UChart,
    _SIGNATURES,
    _STENCIL,
    _central_difference,
    _exp_transport,
    _literal_wedge,
    _matrix_units,
    _over_copies,
    _stack,
    fd_exterior_derivative,
    fd_moment_conditions,
    jordan_configurations,
    sample_disc,
    sample_group,
    sample_jetscheme,
    sample_slice_point,
    sample_uclass,
    sample_utangent,
    sample_wpoint,
    symmetrized_form_value,
    trial_rng,
)
from mtv.wspace import (
    DET_TOL,
    INCOMING,
    OUTGOING,
    WPoint,
    _canonical_form,
    _group_element,
    _moment,
    _slice_matrices,
    slice_direction,
)


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


def _jordan_of_loop(d):
    j = np.zeros((d.k, d.k), dtype=complex)
    offset = 0
    for p in d.pieces:
        for a in range(p.length):
            j[offset + a, offset + a] = p.z
            if a + 1 < p.length:
                j[offset + a, offset + a + 1] = 1.0
        offset += p.length
    return j


def _block_reversal_loop(d):
    q = np.zeros((d.k, d.k), dtype=complex)
    offset = 0
    for p in d.pieces:
        for a in range(p.length):
            q[offset + a, offset + p.length - 1 - a] = 1.0
        offset += p.length
    return q


def _g_matrix_loop(d, factor):
    cols = []
    for p in d.pieces:
        jet = p.jets[factor]
        for a in range(p.length):
            cols.append(jet[a])
    return np.stack(cols, axis=1)


def _eigen_shift_loop(d, dz):
    out = np.zeros((d.k, d.k), dtype=complex)
    offset = 0
    for i, p in enumerate(d.pieces):
        for a in range(p.length):
            out[offset + a, offset + a] = dz[i]
        offset += p.length
    return out


def _slice_conjugator_loop(d):
    bx = _slice_frame(_scheme_slice_point_per_point(d))
    v = np.zeros(d.k, dtype=complex)
    offset = 0
    for p in d.pieces:
        offset += p.length
        v[offset - 1] = 1.0
    bj = _krylov_frame(_jordan_of_loop(d), v)
    return bx @ np.linalg.inv(bj)


def _compositions(k):
    """Every ordered list of positive piece lengths summing to k."""
    for cuts in itertools.product((False, True), repeat=k - 1):
        lengths, run = [], 1
        for cut in cuts:
            if cut:
                lengths.append(run)
                run = 0
            run += 1
        yield lengths + [run]


def _scheme(rng, lengths, b, bprime, zs=None):
    k = sum(lengths)
    if zs is None:
        zs = 2 * sample_disc(rng, len(lengths))
    pieces = tuple(
        LocalPiece(z=z, length=l, jets=tuple(sample_disc(rng, l, k) for _ in range(b + bprime)))
        for z, l in zip(zs, lengths)
    )
    return JetScheme(k=k, b=b, bprime=bprime, pieces=pieces)


@pytest.mark.parametrize("k", range(1, 7))
def test_block_layout_matches_offset_loops(k):
    rng = trial_rng(14, "blocks", k)
    layouts = list(_compositions(k))
    assert len({tuple(c) for c in layouts}) == 2 ** (k - 1)
    for lengths in layouts:
        for _ in range(3):
            d = _scheme(rng, lengths, 1, 1)
            np.testing.assert_array_equal(jordan_of(d), _jordan_of_loop(d))
            np.testing.assert_array_equal(block_reversal(d), _block_reversal_loop(d))
            for factor in (0, 1):
                g = g_matrix(d, factor)
                assert g.flags.c_contiguous
                np.testing.assert_array_equal(g, _g_matrix_loop(d, factor))
            dz = sample_disc(rng, len(lengths))
            np.testing.assert_array_equal(_eigen_shift(lengths, dz), _eigen_shift_loop(d, dz))
            unit = np.eye(len(lengths))[-1]
            np.testing.assert_array_equal(_eigen_shift(lengths, unit), _eigen_shift_loop(d, unit))
            np.testing.assert_array_equal(slice_conjugator(d), _slice_conjugator_loop(d))


def _nullspace(a):
    _, s, vh = np.linalg.svd(a)
    if s.size == 0:
        return vh
    cutoff = RANK_TOL * max(s[0], 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj()


def _centralizer_dimension_written_out(x):
    k = x.shape[0]
    s = np.linalg.svd(ad_operator(x), compute_uv=False)
    cutoff = RANK_TOL * max(s[0], 1.0)
    return int(k * k - np.sum(s > cutoff))


def _invertible_written_out(m):
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] > NONDEGENERACY_TOL * max(s[0], 1.0))


def _f_kernel_dimension_written_out(d):
    gram = f_gram_matrix(d)
    sing = np.linalg.svd(gram, compute_uv=False)
    cutoff = 1e-8 * max(sing[0], 1.0)
    return int(np.sum(sing <= cutoff))


def _rank_test_matrices(rng, k):
    """Random, diagonal (with repeated, tiny and zero entries), Jordan and
    zero matrices."""
    yield sample_disc(rng, k, k)
    yield 1e4 * sample_disc(rng, k, k)
    yield np.diag(sample_disc(rng, k))
    yield np.diag(np.resize([0.5, 0.5j, 1e-12, 0.0], k)).astype(complex)
    # singular values of the matrix (k >= 2) and of ad_X (k >= 3) exactly
    # at the 1e-9 cutoff, where > and >= disagree
    yield np.diag(np.resize([1.0, 1e-9, 0.0], k)).astype(complex)
    yield np.diag(np.full(k, 0.3 + 0.1j))
    yield 0.7 * np.eye(k) + np.eye(k, k=1) + 0j
    yield np.eye(k, k=1) + 0j
    yield np.zeros((k, k), dtype=complex)


@pytest.mark.parametrize("k", range(1, 6))
def test_rank_cutoff_matches_written_out_rules(k):
    rng = trial_rng(15, "rank", k)
    for x in _rank_test_matrices(rng, k):
        basis = centralizer_basis(x)
        ref = [v.reshape(k, k) for v in _nullspace(ad_operator(x))]
        assert len(basis) == len(ref)
        for z, z_ref in zip(basis, ref):
            np.testing.assert_array_equal(z, z_ref)
        assert centralizer_dimension(x) == _centralizer_dimension_written_out(x)
        assert _invertible(x) == _invertible_written_out(x)


@pytest.mark.parametrize("k", range(1, 5))
def test_f_kernel_dimension_matches_written_out_rule(k):
    rng = trial_rng(16, "f-kernel", k)
    for lengths in _compositions(k):
        d = _scheme(rng, lengths, 1, 0)
        assert f_kernel_dimension(d) == _f_kernel_dimension_written_out(d)
        collided = _scheme(rng, lengths, 1, 0, zs=np.full(len(lengths), 0.4 + 0j))
        assert f_kernel_dimension(collided) == _f_kernel_dimension_written_out(collided)


def _find_cyclic_vector_loop(x):
    k = x.shape[0]
    best = None
    best_sigma = -1.0
    candidates = [np.eye(k, dtype=complex)[i] for i in range(k)]
    rng = np.random.default_rng(12345)
    for _ in range(4):
        candidates.append(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    for v in candidates:
        krylov = _krylov_frame(x, v)
        sigma = np.linalg.svd(krylov, compute_uv=False)[-1]
        if sigma > best_sigma:
            best_sigma = sigma
            best = krylov
    if best_sigma <= 1e-13:
        raise SingularMatrixError("no usable cyclic vector: matrix not regular?")
    return best


@pytest.mark.parametrize("k", range(1, 6))
def test_cyclic_frame_matches_per_candidate_loop(k):
    rng = trial_rng(17, "cyclic", k)
    for _ in range(30):
        y = sample_disc(rng, k, k)
        np.testing.assert_array_equal(_cyclic_frame(y), _find_cyclic_vector_loop(y))
    # a Jordan block: e_k alone is cyclic, so the pick is not the first candidate
    j = np.eye(k, k=1) + 0j
    np.testing.assert_array_equal(_cyclic_frame(j), _find_cyclic_vector_loop(j))


@pytest.mark.parametrize("k", range(2, 6))
def test_cyclic_frame_refuses_zero_matrix(k):
    zero = np.zeros((k, k), dtype=complex)
    for search in (_cyclic_frame, _find_cyclic_vector_loop):
        with pytest.raises(SingularMatrixError):
            search(zero)


def _ad_operator_kron(x):
    k = x.shape[0]
    eye = np.eye(k, dtype=complex)
    return np.kron(x, eye) - np.kron(eye, x.T)


def _krylov_frame_per_vector(x, v):
    k = x.shape[0]
    frame = np.empty((k, k), dtype=complex)
    w = v
    for j in range(k):
        frame[:, j] = w
        w = x @ w
    return frame


def _slice_from_power_sums_per_point(target, k):
    pivots = _trace_pivots(k)
    coeffs = np.zeros(k, dtype=complex)
    for m in range(1, k + 1):
        partial = slice_embed(SlicePoint(k, coeffs))
        t_m = np.trace(np.linalg.matrix_power(partial, m))
        coeffs[m - 1] = (target[m - 1] - t_m) / pivots[m - 1]
    return SlicePoint(k=k, coeffs=coeffs)


def _slice_kernel_matrices(rng, k):
    """The rank-test matrices, more samples, the zero matrix with negative
    zeros, and a non-regular diagonalizable matrix g diag(a, a, ...) g^-1."""
    yield from _rank_test_matrices(rng, k)
    for _ in range(20):
        yield sample_disc(rng, k, k)
    yield -np.zeros((k, k), dtype=complex)
    eig = sample_disc(rng, k)
    eig[1:2] = eig[0]
    g = sample_group(k, rng)
    yield g @ np.diag(eig) @ np.linalg.inv(g)


@pytest.mark.parametrize("k", range(1, 6))
def test_regular_slice_kernels_match_parent_codings(k):
    rng = trial_rng(23, "slice-kernels", k)
    for x in _slice_kernel_matrices(rng, k):
        assert ad_operator(x).tobytes() == _ad_operator_kron(x).tobytes()
        vs = np.concatenate([np.eye(k, dtype=complex), sample_disc(rng, 3, k), _cyclic_candidates(k)])
        frames = _krylov_frame(x, vs)
        assert frames.shape == (len(vs), k, k)
        for v, frame in zip(vs, frames):
            want = _krylov_frame_per_vector(x, v).tobytes()
            assert frame.tobytes() == want
            assert _krylov_frame(x, v).tobytes() == want
        assert _krylov_frame(x, vs.reshape(-1, 1, k))[:, 0].tobytes() == frames.tobytes()
        target = power_traces(x)
        got = _slice_from_power_sums(target, k).coeffs
        assert got.tobytes() == _slice_from_power_sums_per_point(target, k).coeffs.tobytes()


def _cluster_roots_union_find(roots, radius):
    n = roots.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    return [(complex(np.mean(g)), len(g)) for g in groups.values()]


def _has_distinct_base_points_pairwise(d):
    zs = [p.z for p in d.pieces]
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if abs(zs[i] - zs[j]) <= Z_MATCH_TOL:
                return False
    return True


def _cluster_test_points(rng, radius):
    """Chains whose ends are farther apart than the radius, points exactly
    one radius apart (dyadic, so the gaps are exact), grid points with gaps
    at the radius up to roundoff, and random scatters, each also permuted."""
    sets = [
        np.array([0.0, 0.8, 1.6]) * radius,
        np.array([0.0, 1.0, 2.0, 2.0 + 1.0j]) * radius,
        np.array([0.0, 1.0, 3.0, 4.0]) * radius,
        np.array([0.0, 1.0, 2.0]) * 0.0625,
        radius * rng.integers(0, 4, size=5) + 1j * radius * rng.integers(0, 2, size=5),
    ]
    for n in range(1, 7):
        sets.append(3 * radius * sample_disc(rng, n))
    for pts in sets:
        pts = pts.astype(complex)
        yield pts
        yield pts[rng.permutation(pts.size)]


@pytest.mark.parametrize("seed", range(4))
def test_clustering_matches_union_find(seed):
    rng = trial_rng(18, "clusters", seed)
    for radius in (ROOT_CLUSTER_RADIUS, 0.0625):
        for pts in _cluster_test_points(rng, radius):
            assert _cluster_roots(pts, radius) == _cluster_roots_union_find(pts, radius)
    chain = np.array([0.0, 0.04, 0.08, 2.0], dtype=complex)
    assert [n for _, n in _cluster_roots(chain, ROOT_CLUSTER_RADIUS)] == [3, 1]


@pytest.mark.parametrize("seed", range(4))
def test_distinct_base_points_match_pairwise_rule(seed):
    rng = trial_rng(19, "distinct", seed)
    # gaps of exactly Z_MATCH_TOL (0 and 1e-8) count as a collision
    offsets = [0.0, 1e-8, 2e-8, 5e-9, 1.0, 1.0 + 1e-8j]
    for n in range(1, 5):
        for _ in range(8):
            zs = rng.choice(offsets, size=n, replace=False) + 0j
            d = _scheme(rng, [1] * n, 1, 0, zs=zs)
            assert has_distinct_base_points(d) == _has_distinct_base_points_pairwise(d)
    assert not has_distinct_base_points(_scheme(rng, [1, 1], 1, 0, zs=[0.0, 1e-8]))


def _sort_pieces(d):
    order = sorted(
        range(len(d.pieces)),
        key=lambda i: (d.pieces[i].z.real, d.pieces[i].z.imag, d.pieces[i].length),
    )
    return JetScheme(
        k=d.k, b=d.b, bprime=d.bprime, pieces=tuple(d.pieces[i] for i in order)
    )


def _normalize_scheme_sorted(d):
    d = _sort_pieces(d)
    return JetScheme(
        k=d.k,
        b=d.b,
        bprime=d.bprime,
        pieces=tuple(jet_normalize(p) for p in d.pieces),
    )


def _orbit_invariant_sorted(d):
    data = [(complex(p.z), p.length) for p in d.pieces]
    data.sort(key=lambda t: (t[0].real, t[0].imag, t[1]))
    return tuple(data)


@pytest.mark.parametrize("k", range(1, 6))
def test_piece_order_matches_sort_pieces(k):
    rng = trial_rng(20, "order", k)
    # few base points, so pieces tie in z, and in z and length
    base = np.array([0.0, 1.0, 1.0j, -1.0 + 0.5j])
    for lengths in _compositions(k):
        for _ in range(3):
            zs = rng.choice(base, size=len(lengths))
            d = _scheme(rng, lengths, 2, 1, zs=zs)
            assert orbit_invariant(d) == _orbit_invariant_sorted(d)
            got, ref = normalize_scheme(d), _normalize_scheme_sorted(d)
            assert [(p.z, p.length) for p in got.pieces] == [
                (p.z, p.length) for p in ref.pieces
            ]
            for p, q in zip(got.pieces, ref.pieces):
                for a, b in zip(p.jets, q.jets):
                    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("k", range(1, 6))
def test_fitting_moment_is_the_moment_map(k):
    # the Fitting frame computes mu exactly as the one moment formula does
    rng = trial_rng(23, "f-moment", k)
    for lengths in _compositions(k):
        d = _scheme(rng, lengths, 1, 0)
        mu = _moment(g_matrix(d, 0), jordan_of(d), INCOMING)
        np.testing.assert_array_equal(f_moment(d), mu)


# The per-point coding of the exterior derivative that the stacked one
# replaced, kept verbatim: one block exponential, one placement and one form
# call per displaced point, each on a single (unstacked) chart point.


def _exp_transport_per_point(s, directions, left=False):
    if left:  # L(s, a) e^(-s) is the transpose of the right form at (s^T, a^T)
        es, moved = _exp_transport_per_point(s.T, tuple(a.T for a in directions))
        return es.T, [t.T for t in moved]
    k = s.shape[0]
    n = len(directions)
    block = np.zeros(((n + 1) * k, (n + 1) * k), dtype=complex)
    for i in range(n + 1):
        block[i * k:(i + 1) * k, i * k:(i + 1) * k] = s
    for i, a in enumerate(directions, 1):
        block[:k, i * k:(i + 1) * k] = a
    e = expm(block)
    es = e[:k, :k]
    moved = np.linalg.solve(es, e[:k, k:])
    return es, [moved[:, i * k:(i + 1) * k] for i in range(n)]


class _PerPointUChart(UChart):
    def frame_at(self, coords, u, v):
        s_list, dc = coords
        moved = [_exp_transport_per_point(s, (a, b))
                 for s, a, b in zip(s_list, u.a_list, v.a_list)]
        point = UClass(
            b=self.m.b,
            bprime=self.m.bprime,
            gs=tuple(g @ es for g, (es, _) in zip(self.m.gs, moved)),
            X=SlicePoint(self.k, self.m.X.coeffs + dc),
        )
        au, av = zip(*(pair for _, pair in moved))
        return point, UTangent(a_list=au, dc=u.dc), UTangent(a_list=av, dc=v.dc)


class _PerPointFChart(FChart):
    def __init__(self, d):
        self.d = d

    def frame_at(self, coords, u, v):
        s, dz = coords
        # the group displacement acts on the left
        es, (ru, rv) = _exp_transport_per_point(s, (u.rho, v.rho), left=True)
        moved = act_on_scheme(self.d, [es])
        pieces = tuple(
            LocalPiece(z=p.z + dz[i], length=p.length, jets=p.jets)
            for i, p in enumerate(moved.pieces)
        )
        point = JetScheme(k=self.d.k, b=self.d.b, bprime=self.d.bprime, pieces=pieces)
        return point, FTangent(rho=ru, dz=u.dz), FTangent(rho=rv, dz=v.dz)


_PER_POINT_CHARTS = {UChart: _PerPointUChart, FChart: _PerPointFChart}


def _central_difference_per_point(f, chart, direction, step):
    plus = f(chart.displace(direction, step))
    minus = f(chart.displace(direction, -step))
    return (plus - minus) / (2 * step)


def _fd_exterior_derivative_per_point(form, chart, u, v, w, step):
    if step <= 0 or step**2 <= np.finfo(float).eps:
        raise ValidationError("fd step underflow")

    def d_along(t, t1, t2):  # D_t omega(t1, t2)
        return _central_difference_per_point(
            lambda c: form(*chart.frame_at(c, t1, t2)), chart, t, step
        )

    return d_along(u, v, w) - d_along(v, u, w) + d_along(w, u, v)


def _fd_exterior_derivative_loop(form, chart, u, v, w, step):
    def omega_at(coords, t1, t2):
        return form(*chart.frame_at(coords, t1, t2))

    total = 0.0 + 0.0j
    dirs = (u, v, w)
    for idx, sign in ((0, 1.0), (1, -1.0), (2, 1.0)):
        rest = [dirs[i] for i in range(3) if i != idx]
        total += sign * _central_difference_per_point(
            lambda c: omega_at(c, rest[0], rest[1]), chart, dirs[idx], step
        )
    return total


def _trials(draw, n=3):
    """n trials of draw(): (point, tangents) pairs of one shape."""
    return [draw() for _ in range(n)]


def _stacked_derivative(form, chart, trials):
    """fd_exterior_derivative on the stack of the (point, tangents) trials; an
    `FChart` takes the schemes as a list."""
    points, tans = zip(*trials)
    base = list(points) if chart is FChart else _stack(list(points))
    return fd_exterior_derivative(form, chart(base), *_stack(list(tans)))


def _w_trial(k, orientation, rng):
    w = u_build([sample_wpoint(k, orientation, rng)])
    return w, [sample_utangent(w.X.k, w.n_factors, rng) for _ in range(3)]


def _u_trial(k, b, bprime, rng):
    m = sample_uclass(k, b, bprime, rng)
    return m, [sample_utangent(m.X.k, m.n_factors, rng) for _ in range(3)]


def _f_trial(k, lengths, rng):
    d = _scheme(rng, lengths, 1, 0)
    return d, [FTangent(rho=sample_disc(rng, k, k), dz=sample_disc(rng, len(lengths)))
               for _ in range(3)]


@pytest.mark.parametrize("k", range(1, 5))
def test_exterior_derivative_matches_index_loop(k):
    # stacks of three trials, each trial against its own index-loop reference
    rng = trial_rng(21, "d-omega", k)
    cases = [(u_symplectic, UChart, _trials(lambda: _w_trial(k, orientation, rng)))
             for orientation in (INCOMING, OUTGOING)]  # W as the one-factor class
    cases.append((u_symplectic, UChart, _trials(lambda: _u_trial(k, 2, 1, rng))))
    for lengths in _compositions(k):
        cases.append((f_presymplectic, FChart, _trials(lambda: _f_trial(k, lengths, rng))))
    for form, chart, trials in cases:
        got = _stacked_derivative(form, chart, trials)
        assert len(got) == len(trials)
        for value, (point, tans) in zip(got, trials):
            assert value == _fd_exterior_derivative_loop(
                form, _PER_POINT_CHARTS[chart](point), *tans, FD_STEP)


def _derivative_cases(k, rng):
    """(form, chart class, trials) for W, as the one-factor class, in both
    orientations with the canonical and the literal moment-wedge form, U at
    every signature with b + b' <= 4, and F (1,0) at every piece pattern; the
    trials are three (base point, tangents) pairs of one shape."""
    for orientation in (INCOMING, OUTGOING):
        for form in (u_symplectic, _literal_wedge):
            yield form, UChart, _trials(lambda: _w_trial(k, orientation, rng))
    for b, bprime in _SIGNATURES:
        yield u_symplectic, UChart, _trials(lambda: _u_trial(k, b, bprime, rng))
    for lengths in _compositions(k):
        yield f_presymplectic, FChart, _trials(lambda: _f_trial(k, lengths, rng))


@pytest.mark.parametrize("k", range(1, 6))
def test_stacked_exterior_derivative_matches_per_point_coding(k):
    # stacks of three trials, each trial against its own per-point reference
    rng = trial_rng(24, "d-omega-stacked", k)
    for form, chart, trials in _derivative_cases(k, rng):
        got = _stacked_derivative(form, chart, trials)
        assert len(got) == len(trials)
        for value, (point, tans) in zip(got, trials):
            per_point = _PER_POINT_CHARTS[chart](point)
            assert value == _fd_exterior_derivative_per_point(form, per_point, *tans, FD_STEP)


def _fd_moment_conditions_plain_expm(m, i, v, xi=None, degree=None):
    # the moment conditions with the factors displaced by their own plain expm
    incoming = m.orientation(i) == INCOMING  # checks i before the factor is read
    g, n = m.gs[i], len(m.X.coeffs)
    # the points displaced by each step in turn, n to a step
    steps = [p * FD_STEP for p in _STENCIL]
    coeffs = np.concatenate([m.X.coeffs + h * v.dc for h in steps])
    moved = replace(m, gs=tuple(
        _over_copies(g_j, expm(np.concatenate([h * a for h in steps])), np.matmul)
        for g_j, a in zip(m.gs, v.a_list)), X=SlicePoint(m.X.k, coeffs))
    fund, d_moments = [], []  # factor i's part of each fundamental field; the moment's quotients
    if xi is not None:
        mu = u_moment(moved, i)
        fund.append(np.linalg.inv(g) @ xi @ g if incoming else -xi)
        d_moments.append(_central_difference(mu.reshape(len(steps), n, *mu.shape[1:])))
    if degree is not None:
        polys = [InvariantPolynomial(d) for d in degree]
        c = np.array([polarized_gradient(p, x) for p, x in zip(polys, slice_embed(m.X))])
        values = [inv_poly_eval(p, x) for p, x in zip(polys * len(steps), slice_embed(moved.X))]
        fund.append(c if incoming else np.linalg.inv(g) @ c @ g)
        d_moments.append([_central_difference(values[j::n]) for j in range(n)])
    zero = np.zeros_like(g)
    omegas = [u_symplectic(m, UTangent(tuple(a if j == i else zero for j in range(m.n_factors)),
                                       np.zeros_like(m.X.coeffs)), v).tolist() for a in fund]
    return list(zip(omegas, d_moments))


@pytest.mark.parametrize("k", range(1, 6))
def test_moment_conditions_match_the_plain_expm_displacement(k):
    # UChart moves the points of the moment conditions to the same bits as
    # the plain expm it replaced, on every factor of every signature, for a
    # stack of three trials
    rng = trial_rng(27, "moment-conditions", k)
    for b, bprime in _SIGNATURES:
        m = _stack([sample_uclass(k, b, bprime, rng) for _ in range(3)])
        v = _stack([sample_utangent(k, b + bprime, rng) for _ in range(3)])
        xi = sample_disc(rng, 3, k, k)
        degree = [int(d) for d in rng.integers(1, k + 1, size=3)]
        for i in range(b + bprime):
            got = fd_moment_conditions(m, i, v, xi=xi, degree=degree)
            want = _fd_moment_conditions_plain_expm(m, i, v, xi=xi, degree=degree)
            assert len(got) == len(want) == 2
            for (omega, d_mu), (omega_ref, d_mu_ref) in zip(got, want):
                assert np.array(omega).tobytes() == np.array(omega_ref).tobytes()
                assert np.array(d_mu).tobytes() == np.array(d_mu_ref).tobytes()


@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
def test_exp_transport_of_no_direction_is_expm(left):
    rng = trial_rng(27, "transport-none", int(left))
    for k in (1, 2, 3, 5):
        for s in (sample_disc(rng, k, k), sample_disc(rng, 4, k, k)):
            es, moved = _exp_transport(s, (), left=left)
            assert es.tobytes() == expm(s).tobytes() and moved == []


@pytest.mark.parametrize("k", range(1, 6))
def test_stacked_pairing_and_canonical_form_match_per_slice_calls(k):
    rng = trial_rng(25, "stacked-forms", k)
    x, y, g, a_u, a_v = (sample_disc(rng, 6, k, k) for _ in range(5))
    coeffs, dc_u, dc_v = (sample_disc(rng, 6, k) for _ in range(3))
    got = pairing(x, y)
    assert got.shape == (6,)
    for i in range(6):
        assert got[i] == pairing(x[i], y[i])
        assert pairing(x, y[i])[i] == pairing(x[i], y[i])
    for orientation in (INCOMING, OUTGOING):
        stack = SlicePoint(k, coeffs)
        got = _canonical_form(g, orientation, _slice_matrices(stack, dc_u, dc_v), a_u, a_v)
        for i in range(6):
            point = SlicePoint(k, coeffs[i])
            mats = _slice_matrices(point, dc_u[i], dc_v[i])
            assert got[i] == _canonical_form(g[i], orientation, mats, a_u[i], a_v[i])


def test_displaced_point_below_det_tol_refused_by_both_codings():
    # det g sits 5e-5 above DET_TOL and the direction u has trace 1, so the
    # point displaced by -FD_STEP along u has det g e^(-FD_STEP) < DET_TOL
    g = np.diag([1.00005 * DET_TOL, 1.0, 1.0]).astype(complex)
    m = u_build([WPoint(g=g, X=SlicePoint(3, np.zeros(3)), orientation=INCOMING)])
    u = UTangent(a_list=(np.diag([1.0, 0.0, 0.0]).astype(complex),), dc=np.zeros(3, dtype=complex))
    rng = trial_rng(26, "det-tol", 0)
    v, w = (sample_utangent(m.X.k, m.n_factors, rng) for _ in range(2))
    v, w = (UTangent(a_list=(t.a_list[0] - np.trace(t.a_list[0]) / 3 * np.eye(3),), dc=t.dc)
            for t in (v, w))
    with pytest.raises(SingularMatrixError):
        fd_exterior_derivative(u_symplectic, UChart(one(m)), *one([u, v, w]))
    with pytest.raises(SingularMatrixError):
        _fd_exterior_derivative_per_point(u_symplectic, _PerPointUChart(m), u, v, w, FD_STEP)


@pytest.mark.parametrize(
    "s, refusal",
    [(0.03, "failed validation"), (0.07, "cluster centers too close"), (0.2, None)],
)
def test_u_to_hilb_on_close_roots(s, refusal):
    # roots {0, s, 2}: s inside the cluster radius merges a simple pair that
    # the power traces then refuse; s inside twice the radius leaves centers
    # too close to resolve; s = 0.2 resolves into three simple pieces
    x = slice_coefficients_from_roots(np.array([0.0, s, 2.0]), 3)
    m = UClass(b=1, bprime=0, gs=(sample_group(3, trial_rng(22, "roots", 0)),), X=x)
    if refusal is not None:
        with pytest.raises(ConditioningError, match=refusal):
            u_to_hilb(m)
        return
    d = u_to_hilb(m)
    assert [p.length for p in d.pieces] == [1, 1, 1]
    np.testing.assert_allclose([p.z for p in d.pieces], [0.0, s, 2.0], atol=1e-9)


def _adjoint_orbits_match_per_pair(m1, m2):
    """Independent conjugacy test: equal power traces and equal rank
    sequences of (M - z)^p for every candidate eigenvalue z."""
    m1 = as_matrix(m1)
    m2 = as_matrix(m2)
    k = m1.shape[0]
    if np.max(np.abs(power_traces(m1) - power_traces(m2))) > 1e-6:
        return False
    eigs = np.linalg.eigvals(m1)
    centers = _cluster_roots(eigs, ROOT_CLUSTER_RADIUS)
    eye = np.eye(k)
    for z, _ in centers:
        a1 = m1 - z * eye
        a2 = m2 - z * eye
        p1 = np.eye(k, dtype=complex)
        p2 = np.eye(k, dtype=complex)
        for _ in range(k):
            p1 = p1 @ a1
            p2 = p2 @ a2
            if np.linalg.matrix_rank(p1, tol=1e-7) != np.linalg.matrix_rank(
                p2, tol=1e-7
            ):
                return False
    return True


def _broken_chain(j):
    """j with its first superdiagonal 1 zeroed: one Jordan chain split in two,
    with the same eigenvalues and so the same power traces."""
    a = np.flatnonzero(np.diagonal(j, 1))[0]
    out = j.copy()
    out[a, a + 1] = 0.0
    return out


def _orbit_test_matrices(k):
    """The Jordan matrices of every configuration of size k and their
    conjugates g J g^-1; then near misses: shifts of 1e-7, 1e-3 and 0.3 along
    the identity and broken Jordan chains."""
    js = [jordan_matrix(c) for c in jordan_configurations(k)]
    g = sample_group(k, trial_rng(17, "orbits", k))
    types = np.array(js + [g @ j @ np.linalg.inv(g) for j in js])
    shifted = [j + s * np.eye(k) for j in js for s in (1e-7, 1e-3, 0.3)]
    near = np.array(shifted + [_broken_chain(j) for j in js if np.diagonal(j, 1).any()])
    return types, near


@pytest.mark.parametrize("k", range(1, 6))
def test_broadcast_orbit_test_matches_per_pair_test(k):
    types, near = _orbit_test_matrices(k)
    n = len(types) // 2
    js, conj = types[:n], types[n:]
    for m1, m2 in ((js, conj), (conj, js), (near, conj), (conj, near)):
        got = adjoint_orbits_match(m1[:, None], m2[None])
        assert got.shape == (len(m1), len(m2))
        want = [[_adjoint_orbits_match_per_pair(a, b) for b in m2] for a in m1]
        np.testing.assert_array_equal(got, want)
        if len(m1) == len(m2) == n:  # conjugate iff the same Jordan configuration
            np.testing.assert_array_equal(got, np.eye(n, dtype=bool))


def test_orbit_test_shapes():
    types, near = _orbit_test_matrices(3)
    a, b = types[:6], np.concatenate([types[6:9], near[:3]])
    assert type(adjoint_orbits_match(a[0], b[0])) is bool
    assert type(adjoint_orbits_match(a[0], b[3])) is bool
    got = adjoint_orbits_match(a, b)
    np.testing.assert_array_equal(got, [True] * 3 + [False] * 3)
    want = [_adjoint_orbits_match_per_pair(x, y) for x, y in zip(a, b)]
    np.testing.assert_array_equal(got, want)
    assert adjoint_orbits_match(a[:, None], b[None]).shape == (6, 6)
    # every pair fails the power-trace test: same answers at every shape
    shifted = a + 0.3 * np.eye(3)
    assert adjoint_orbits_match(a[0], shifted[0]) is False
    np.testing.assert_array_equal(adjoint_orbits_match(a, shifted), [False] * 6)
    got = adjoint_orbits_match(a[:, None], shifted[None])
    want = [[_adjoint_orbits_match_per_pair(x, y) for y in shifted] for x in a]
    np.testing.assert_array_equal(got, want)
    assert got.shape == (6, 6) and not got.any()


@pytest.mark.parametrize("k", range(1, 6))
def test_stacked_power_traces_match_per_slice(k):
    types, near = _orbit_test_matrices(k)
    stack = np.concatenate([types, near])
    got = power_traces(stack)
    assert got.shape == (len(stack), k)
    for i, x in enumerate(stack):
        assert np.array_equal(got[i], power_traces(x))
    assert np.array_equal(power_traces(stack.reshape(-1, 1, k, k))[:, 0], got)


def _jet_scalar_multiply_per_entry(jet, s):
    length = jet.shape[0]
    out = np.zeros_like(jet)
    for m in range(length):
        for i in range(m + 1):
            out[m] += jet[i] * s[m - i]
    return out


def _jet_normalize_per_factor(piece):
    n = piece.n_factors
    if n == 1:
        return piece
    length = piece.length
    new_jets = []
    product = np.zeros(length, dtype=complex)
    product[0] = 1.0
    for m in range(n - 1):
        jet = piece.jets[m]
        lead = jet[0]
        nz = np.nonzero(np.abs(lead) > 1e-12 * max(1.0, float(np.max(np.abs(lead)))))[0]
        if nz.size == 0:
            raise DegenerateSchemeError("leading jet vector is below the pivot cutoff")
        # the pivot: the entry of largest modulus, the first of equal ones
        s = jet_scalar_inverse(jet[:, int(np.argmax(np.abs(lead)))])
        new_jets.append(_jet_scalar_multiply_per_entry(jet, s))
        product = _jet_scalar_multiply_per_entry(product[:, None], s).ravel()
    absorber = jet_scalar_inverse(product)
    new_jets.append(_jet_scalar_multiply_per_entry(piece.jets[n - 1], absorber))
    return LocalPiece(z=piece.z, length=length, jets=tuple(new_jets))


I3 = np.eye(3, dtype=complex)


def _normalize_scheme_per_factor(d):
    d = _sort_pieces(d)
    return replace(d, pieces=tuple(_jet_normalize_per_factor(p) for p in d.pieces))


def _scheme_slice_point_per_point(d):
    roots = np.concatenate([[p.z] * p.length for p in d.pieces])
    return _slice_from_power_sums_per_point(np.array([np.sum(roots**m) for m in range(1, d.k + 1)]), d.k)


def _locally_nondegenerate_per_factor(d):
    return all(_invertible(_g_matrix_loop(d, j)) for j in range(d.n_factors))


def _uclass_factors_per_factor(b, bprime, gs, x):
    """The factors a class keeps after its per-factor check."""
    gs = tuple(_group_element(g, stacked=True) for g in gs)
    if len(gs) != b + bprime:
        raise ValidationError("factor count does not match signature")
    for g in gs:
        if g.shape[-1] != x.k:
            raise ValidationError("factor size does not match slice point")
    return gs


def _hilb_to_u_per_factor(d):
    """(factors, slice point) of the class, from the factor loop."""
    if not _locally_nondegenerate_per_factor(d):
        raise DegenerateSchemeError("correspondence requires a nondegenerate scheme")
    x = _scheme_slice_point_per_point(d)
    conj = _slice_conjugator_loop(d)
    conj_inv = np.linalg.inv(conj)
    q = _block_reversal_loop(d)
    gs = []
    for j in range(d.n_factors):
        gj = _g_matrix_loop(d, j)
        gs.append(gj @ conj_inv if d.orientation(j) == INCOMING else conj @ q @ gj.T)
    return _uclass_factors_per_factor(d.b, d.bprime, gs, x), x


def _u_to_hilb_skeleton(m):
    x_mat = slice_embed(m.X)
    k = m.X.k
    clusters = _cluster_roots(np.linalg.eigvals(x_mat), ROOT_CLUSTER_RADIUS)
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    if len(_clusters([z for z, _ in clusters], 2 * ROOT_CLUSTER_RADIUS)) < len(clusters):
        raise ConditioningError("cluster centers too close to resolve")
    centers = np.concatenate([[z] * l for z, l in clusters])
    recon = np.array([np.sum(centers**p) for p in range(1, k + 1)])
    actual = power_traces(x_mat)
    if np.max(np.abs(recon - actual)) > 3e-10 * max(1.0, float(np.max(np.abs(actual)))):
        raise ConditioningError("spectral clustering failed validation")
    n = m.n_factors
    skeleton = JetScheme(k=k, b=m.b, bprime=m.bprime, pieces=tuple(
        LocalPiece(z=z, length=l, jets=tuple(np.eye(l, k, dtype=complex) for _ in range(n)))
        for z, l in clusters))
    assert has_distinct_base_points(skeleton)
    conj = _slice_conjugator_loop(skeleton)
    conj_inv = np.linalg.inv(conj)
    q = _block_reversal_loop(skeleton)
    factor_mats = [m.gs[j] @ conj if m.orientation(j) == INCOMING else (q @ conj_inv @ m.gs[j]).T
                   for j in range(n)]
    pieces, offset = [], 0
    for z, l in clusters:
        jets = tuple(f[:, offset : offset + l].T.copy() for f in factor_mats)
        pieces.append(LocalPiece(z=z, length=l, jets=jets))
        offset += l
    return _normalize_scheme_per_factor(JetScheme(k=k, b=m.b, bprime=m.bprime, pieces=tuple(pieces)))


def _outcome(f, *args):
    """The bytes of what f returns (a scheme or class), or the type of what it raises."""
    try:
        out = f(*args)
    except MtvError as exc:
        return type(exc)
    if isinstance(out, JetScheme):
        return [(p.z, p.length, [jet.tobytes() for jet in p.jets]) for p in out.pieces]
    gs, x = (out.gs, out.X) if isinstance(out, UClass) else out
    return x.coeffs.tobytes(), [g.tobytes() for g in gs]


def _collapsed(d, factor):
    """d with the last jet vector of one factor replaced by its first: that
    factor's matrix has rank k - 1."""
    first = d.pieces[0].jets[factor][0]
    last = d.pieces[-1]
    jets = list(last.jets)
    jets[factor] = np.concatenate([jets[factor][:-1], first[None]])
    return replace(d, pieces=d.pieces[:-1] + (replace(last, jets=tuple(jets)),))


@pytest.mark.parametrize("k", range(1, 6))
def test_correspondence_matches_parent_codings(k):
    # every composition of k and every signature with up to four factors
    rng = trial_rng(27, "correspondence", k)
    for lengths in _compositions(k):
        for b, bprime in _SIGNATURES:
            d = sample_jetscheme(k, b, bprime, rng, lengths=lengths)
            assert locally_nondegenerate(d) and _locally_nondegenerate_per_factor(d)
            if k > 1:
                bad = _collapsed(d, rng.integers(b + bprime))
                assert not locally_nondegenerate(bad) and not _locally_nondegenerate_per_factor(bad)
                assert _outcome(hilb_to_u, bad) is DegenerateSchemeError
            assert _outcome(normalize_scheme, d) == _outcome(_normalize_scheme_per_factor, d)
            assert _outcome(hilb_to_u, d) == _outcome(_hilb_to_u_per_factor, d)
            m = hilb_to_u(d)
            assert _outcome(u_to_hilb, m) == _outcome(_u_to_hilb_skeleton, m)
            # a class hilb_to_u did not make: generic X, so pieces of length 1
            # or refusals of close eigenvalues
            m = sample_uclass(k, b, bprime, rng)
            assert _outcome(u_to_hilb, m) == _outcome(_u_to_hilb_skeleton, m)


@pytest.mark.parametrize("k", range(1, 6))
def test_jet_scalar_multiply_matches_per_entry_sums(k):
    rng = trial_rng(28, "jet-multiply", k)
    for length in range(1, 6):
        for _ in range(4):
            jets = sample_disc(rng, 3, length, k)
            s = sample_disc(rng, 3, length)
            want = np.array([_jet_scalar_multiply_per_entry(j, t) for j, t in zip(jets, s)])
            assert jet_scalar_multiply(jets, s).tobytes() == want.tobytes()
            for j, t, w in zip(jets, s, want):
                assert jet_scalar_multiply(j, t).tobytes() == w.tobytes()
            # the scalar product jet, as in the normalization
            prod = _jet_scalar_multiply_per_entry(s[0][:, None], s[1])
            assert jet_scalar_multiply(s[0][:, None], s[1]).tobytes() == prod.tobytes()


def _factor_stacks(rng, k):
    """Factor tuples of 1 to 4 group elements, unstacked and stacked (3, k, k)."""
    for n in range(1, 5):
        yield tuple(sample_group(k, rng) for _ in range(n))
        yield tuple(np.array([sample_group(k, rng) for _ in range(3)]) for _ in range(n))


@pytest.mark.parametrize("k", range(1, 6))
def test_uclass_check_matches_per_factor_check(k):
    rng = trial_rng(29, "uclass-check", k)
    x = sample_slice_point(k, rng)
    for gs in _factor_stacks(rng, k):
        n = len(gs)
        m = UClass(b=n, bprime=0, gs=gs, X=x)
        want = _uclass_factors_per_factor(n, 0, gs, x)
        assert [g.tobytes() for g in m.gs] == [g.tobytes() for g in want]
        assert all(g is not h and not np.shares_memory(g, h) for g, h in zip(m.gs, gs))
        singular = gs[:-1] + (gs[-1] * (np.arange(k) > 0)[:, None],)  # first row zeroed
        nan = gs[:-1] + (np.where(np.eye(k, dtype=bool), np.nan, gs[-1]),)
        for bad, b, xb in ((singular, n, x), (nan, n, x), (gs, n + 1, x),
                           (gs, n, sample_slice_point(k + 1, rng))):
            got = _outcome(lambda: UClass(b=b, bprime=0, gs=bad, X=xb))
            assert got is _outcome(lambda: (_uclass_factors_per_factor(b, 0, bad, xb), xb))


@pytest.mark.parametrize(
    "make, error",
    [
        # roots {0, s, 2}: s = 0.03 merges a simple pair that the power traces
        # refuse, s = 0.07 leaves cluster centers too close to resolve
        (lambda: UClass(b=1, bprime=1, gs=(I3, I3),
                        X=slice_coefficients_from_roots(np.array([0.0, 0.03, 2.0]), 3)),
         ConditioningError),
        (lambda: UClass(b=2, bprime=1, gs=(I3,) * 3,
                        X=slice_coefficients_from_roots(np.array([0.0, 0.07, 2.0]), 3)),
         ConditioningError),
        # at k = 1 the conjugator is 1, so the head factor's leading jet vector
        # is its 1e-12, at the pivot cutoff; |det| = 1e-12 passes DET_TOL
        (lambda: UClass(b=2, bprime=0, gs=(np.array([[1e-12]]), np.eye(1)), X=slice_point([0.5])),
         DegenerateSchemeError),
        (lambda: UClass(b=1, bprime=1, gs=(np.array([[1e-12]]), np.eye(1)), X=slice_point([0.5])),
         DegenerateSchemeError),
    ],
)
def test_u_to_hilb_refusals_match_skeleton(make, error):
    m = make()
    assert _outcome(u_to_hilb, m) is error
    assert _outcome(_u_to_hilb_skeleton, m) is error


# The codings that the per-row rank profiles and the stacked Fitting frame
# replaced, kept verbatim: the broadcast orbit test that padded each row's
# cluster centers to the widest row and ranked every pair passing the traces,
# the frame of one scheme, and the Gram matrix from two einsum calls and a
# per-piece projector loop.


def _adjoint_orbits_match_padded(m1, m2):
    """Independent conjugacy test: equal power traces and equal rank
    sequences of (M - z)^p for every candidate eigenvalue z of m1.  Either
    argument may be a stack (..., k, k); the two broadcast like numpy
    operands, giving one answer per pair (a bool for two matrices)."""
    m1, m2 = (as_matrix(m, stacked=np.ndim(m) - 2) for m in (m1, m2))
    k = check_same_size(m1, m2)
    shape = np.broadcast_shapes(m1.shape, m2.shape)[:-2]
    match = ~(np.max(np.abs(power_traces(m1) - power_traces(m2)), axis=-1) > 1e-6)
    match = np.broadcast_to(match, shape).copy()
    if not match.any():  # no pair passes the trace test: no eigenvalue or rank stage
        return bool(match) if match.ndim == 0 else match
    # the cluster centers of each matrix of m1, padded by repeating the first
    centers = [[z for z, _ in _cluster_roots(e, ROOT_CLUSTER_RADIUS)]
               for e in np.linalg.eigvals(m1).reshape(-1, k)]
    width = max(map(len, centers), default=0)
    z = np.array([c + c[:1] * (width - len(c)) for c in centers]).reshape(m1.shape[:-2] + (width,))
    z, a1, a2 = (np.broadcast_to(a, shape + a.shape[-2:])[match] for a in (z[..., None], m1, m2))
    # M - z I for both matrices of each pair still matching, at each center
    shifts = np.stack([a1, a2])[:, :, None] - z[..., None] * np.eye(k)
    powers = [np.eye(k, dtype=complex)]
    for _ in range(k):
        powers.append(powers[-1] @ shifts)
    ranks = np.linalg.matrix_rank(np.stack(powers[1:]), tol=1e-7)
    match[match] = (ranks[:, 0] == ranks[:, 1]).all(axis=(0, 2))
    return bool(match) if match.ndim == 0 else match


def _fitting_frame_per_scheme(d):
    """The first factor matrix G, its inverse and mu = G J(D) G^{-1};
    refuses a singular G."""
    g = g_matrix(d, 0)
    if not _invertible(g):
        raise DegenerateSchemeError("factor matrix is singular")
    ginv = np.linalg.inv(g)
    return g, ginv, g @ jordan_of(d) @ ginv


def _f_gram_matrix_einsum(d):
    g, ginv, mu = _fitting_frame_per_scheme(d)
    k = d.k
    s = len(d.pieces)
    eye = np.eye(k)
    rho_rho = np.einsum("bc,da->abcd", eye, mu) - np.einsum("da,bc->abcd", eye, mu)
    # column i holds (Q_i)_ba at row a k + b; P_i is the shift of piece i alone
    lengths = [p.length for p in d.pieces]
    q = [g @ _eigen_shift(lengths, e) @ ginv for e in np.eye(s)]
    rho_dz = np.stack([q_i.T.ravel() for q_i in q], axis=1)
    gram = np.zeros((k * k + s, k * k + s), dtype=complex)
    gram[: k * k, : k * k] = rho_rho.reshape(k * k, k * k)
    gram[: k * k, k * k :] = rho_dz
    gram[k * k :, : k * k] = -rho_dz.T
    return gram


def _same_orbit_answers(m1, m2):
    """The orbit test's answers, after checking them against the padded coding."""
    got, want = adjoint_orbits_match(m1, m2), _adjoint_orbits_match_padded(m1, m2)
    assert type(got) is type(want)
    np.testing.assert_array_equal(got, want)
    return got


def _type_moments(k, rng):
    """Moments of sampled (1,0) schemes, one per Jordan configuration of size k,
    in `fitting_orbits`' layout: equal types share base points."""
    return f_moment([
        sample_jetscheme(k, 1, 0, rng, lengths=[l for part in c for l in part],
                         zs=[JORDAN_BASE_POINTS[i] for i, part in enumerate(c) for _ in part])
        for c in jordan_configurations(k)
    ])


def _broken_last_chain(j):
    """j with its last superdiagonal 1 zeroed (compare `_broken_chain`)."""
    a = np.flatnonzero(np.diagonal(j, 1))[-1]
    out = j.copy()
    out[a, a + 1] = 0.0
    return out


@pytest.mark.parametrize("k", range(1, 6))
def test_orbit_test_matches_padded_coding_on_type_tables(k):
    # the fitting_orbits block at every size: each type against each type, and
    # against a second sample and its conjugate, as stacks and as single pairs
    rng = trial_rng(30, "type-tables", k)
    moments, second = _type_moments(k, rng), _type_moments(k, rng)
    g = sample_group(k, rng)
    n = len(moments)
    for m2 in (moments, second, g @ second @ np.linalg.inv(g)):
        np.testing.assert_array_equal(_same_orbit_answers(moments[:, None], m2[None]),
                                      np.eye(n, dtype=bool))
        np.testing.assert_array_equal(_same_orbit_answers(moments, m2), [True] * n)
        assert all(_same_orbit_answers(a, b) is True for a, b in zip(moments, m2))


@pytest.mark.parametrize("k", range(1, 6))
def test_orbit_test_matches_padded_coding_on_mixed_spectra(k):
    # matrices with 1..k distinct eigenvalues in one stack, so that rows have
    # different numbers of cluster centers; near misses break a Jordan chain
    # at the first or at the last eigenvalue, or shift the whole spectrum
    rng = trial_rng(31, "mixed", k)
    js = [jordan_matrix(c) for c in jordan_configurations(k)]
    g = sample_group(k, rng)
    conj = np.array([g @ j @ np.linalg.inv(g) for j in js])
    chained = [j for j in js if np.diagonal(j, 1).any()]
    near = np.array([_broken_chain(j) for j in chained] + [_broken_last_chain(j) for j in chained]
                    + [j + 1e-3 * np.eye(k) for j in js]).reshape(-1, k, k)
    assert {len(c) for c in jordan_configurations(k)} == set(range(1, k + 1))
    for m1, m2 in ((np.array(js), conj), (conj, np.array(js)), (near, conj), (conj, near)):
        _same_orbit_answers(m1[:, None], m2[None])
        for a in m1:
            _same_orbit_answers(a, m2)


@pytest.mark.parametrize("k", range(1, 6))
def test_orbit_test_matches_padded_coding_on_equal_and_partial_pairs(k):
    js = np.array([jordan_matrix(c) for c in jordan_configurations(k)])
    g = sample_group(k, trial_rng(32, "partial", k))
    conj = g @ js @ np.linalg.inv(g)
    # equal pairs match without ranks: a stack against itself, pair by pair,
    # as a table and as single matrices
    for m in (js, conj):
        np.testing.assert_array_equal(_same_orbit_answers(m, m), [True] * len(m))
        _same_orbit_answers(m[:, None], m[None])
        assert all(_same_orbit_answers(a, a) is True for a in m)
    # only some pairs reach the rank stage: every other matrix is shifted off
    # its spectrum, and half of the rest are equal to their partner
    shifted = conj.copy()
    shifted[::2] += 0.3 * np.eye(k)
    partner = np.where(np.arange(len(js))[:, None, None] % 4 == 1, js, shifted)
    for m1, m2 in ((js, shifted), (js, partner), (conj, shifted), (shifted, conj)):
        _same_orbit_answers(m1, m2)
        _same_orbit_answers(m1[:, None], m2[None])


def _unit_jet_scheme(lengths, sign):
    """A (1,0) scheme whose jets are the rows of sign * I, at base points with
    zero real or imaginary parts: its moment holds signed zeros."""
    eye = sign * np.eye(sum(lengths))
    zs = [complex(-0.5 * (i + 1), 0.0 if i % 2 else -0.5) for i in range(len(lengths))]
    pieces = tuple(LocalPiece(z=z, length=l, jets=(eye[end - l : end],))
                   for z, l, end in zip(zs, lengths, itertools.accumulate(lengths)))
    return JetScheme(k=sum(lengths), b=1, bprime=0, pieces=pieces)


def _fitting_schemes(rng, k):
    """(1,0) schemes of every composition of k: sampled jets at sampled and at
    colliding base points, and unit jets of both signs."""
    for lengths in _compositions(k):
        yield _scheme(rng, lengths, 1, 0)
        yield _scheme(rng, lengths, 1, 0, zs=[0.3 - 0.1j] * len(lengths))
        yield _unit_jet_scheme(lengths, 1.0)
        yield _unit_jet_scheme(lengths, -1.0)


@pytest.mark.parametrize("k", range(1, 6))
def test_stacked_fitting_frame_matches_per_scheme_frames(k):
    schemes = list(_fitting_schemes(trial_rng(33, "frame", k), k))
    frame = _fitting_frame(np.array([g_matrix(d, 0) for d in schemes]),
                           np.array([jordan_of(d) for d in schemes]))
    assert all(part.shape == (len(schemes), k, k) for part in frame)
    for i, d in enumerate(schemes):
        want = [part.tobytes() for part in _fitting_frame_per_scheme(d)[1:]]
        assert [part[i].tobytes() for part in frame] == want
        assert [part.tobytes() for part in _fitting_frame(g_matrix(d, 0), jordan_of(d))] == want
        assert f_moment(d).tobytes() == want[1]
    assert f_moment(schemes).tobytes() == frame[1].tobytes()
    if k > 1:  # one singular first factor refuses the whole stack
        bad = _collapsed(schemes[0], 0)
        with pytest.raises(DegenerateSchemeError, match="singular"):
            _fitting_frame_per_scheme(bad)
        with pytest.raises(DegenerateSchemeError, match="singular"):
            f_moment(schemes[1:] + [bad])


@pytest.mark.parametrize("k", range(1, 6))
def test_gram_matrix_matches_einsum_coding(k):
    # bytes, so signed zeros count: the unit-jet moments hold -0 entries at
    # k = 2, 3 and 5, which the einsum codings turned into +0
    for d in _fitting_schemes(trial_rng(34, "gram", k), k):
        assert f_gram_matrix(d).tobytes() == _f_gram_matrix_einsum(d).tobytes()

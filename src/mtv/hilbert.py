"""Transverse 0-dimensional subschemes of C x S_k^{b,b'} as per-factor jet
data, the constructive correspondence with quotient classes, and the
presymplectic structure on the Fitting-transverse locus.

A scheme D is a list of local pieces: a base point z, a length l, and for
each boundary factor an l-term jet of coefficient vectors in C^k (leading
vector nonzero).  Outgoing factors store covector coefficients; the group
acts on them by inverse transpose.

Nondegeneracy is decided by honest stabilizer computations:

* the connected stabilizer of D in one factor is trivial iff the k stacked
  coefficient vectors of that factor are linearly independent, and
* a residual finite stabilizer exists iff two pieces share (z, l) and their
  jets in all the other factors are proportional, so that a group element of
  one factor can swap them.

"Locally nondegenerate" = finite stabilizers (first condition); the
per-piece block test is necessary but not sufficient, so the direct solve
is what ships.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConditioningError,
    DegenerateSchemeError,
    SignatureError,
    ValidationError,
)
from .lie import (Matrix, _krylov_frame, _rank, as_matrix, check_same_size, commutator,
                  pairing, power_traces)
from .slodowy import (
    SlicePoint,
    _slice_frame,
    slice_coefficients_from_roots,
    slice_embed,
)
from .uspace import UClass
from .wspace import INCOMING, _group_element, _Signature

# Pieces closer than this in z are treated as sharing a base point.
Z_MATCH_TOL = 1e-8
# Clustering radius for reading pieces off spectral data; multiple
# eigenvalues scatter like eps^(1/m) in double precision, so a desk-scale
# radius far above that and far below sampled separations is used, with a
# power-trace reconstruction check as the backstop.
ROOT_CLUSTER_RADIUS = 0.05
# Relative cutoff of the nondegeneracy tests: singular-value ratios of the
# factor matrices and residuals of jet proportionality.
NONDEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class LocalPiece:
    """One transverse piece: base point, length, and per-factor jets of shape
    (length, k); a stack of n pieces of one length has z (n,), jets (n, length, k)."""

    z: complex
    length: int
    jets: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError("piece length must be >= 1")
        if not self.jets:
            raise ValidationError("a piece needs one jet per factor, got none")
        jets = []
        k = None
        for jet in self.jets:
            arr = np.asarray(jet, dtype=complex)
            if arr.ndim not in (2, 3) or arr.shape[-2] != self.length:
                raise ValidationError(
                    f"jet must have shape (length, k), got {arr.shape}"
                )
            if not np.isfinite(arr).all():
                raise ValidationError("jet entries must be finite")
            if k is None:
                k = arr.shape[-1]
            elif arr.shape[-1] != k:
                raise ValidationError("jets disagree on the ambient dimension")
            if not (arr[0].any() if arr.ndim == 2 else arr[:, 0].any(axis=-1).all()):
                raise DegenerateSchemeError("leading jet vector vanishes")
            jets.append(arr)
        z = self.z
        z = z.astype(complex) if isinstance(z, np.ndarray) and z.ndim else complex(z)
        if not (cmath.isfinite(z) if isinstance(z, complex) else np.isfinite(z).all()):
            raise ValidationError("base point must be finite")
        object.__setattr__(self, "jets", tuple(jets))
        object.__setattr__(self, "z", z)

    @property
    def k(self) -> int:
        return self.jets[0].shape[-1]

    @property
    def n_factors(self) -> int:
        return len(self.jets)


@dataclass(frozen=True)
class JetScheme(_Signature):
    """A Fitting-transverse subscheme: disjoint transverse pieces with total
    length k.  Distinct base points are required only by the transverse
    Hilbert scheme correspondence, not by the type: the larger Fitting locus
    needs several pieces over one point."""

    k: int
    b: int
    bprime: int
    pieces: tuple[LocalPiece, ...]

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        pieces = tuple(self.pieces)
        total = sum(p.length for p in pieces)
        if total != self.k:
            raise ValidationError(f"piece lengths sum to {total}, expected {self.k}")
        for p in pieces:
            if p.n_factors != self.b + self.bprime:
                raise ValidationError("piece factor count does not match signature")
            if p.k != self.k:
                raise ValidationError("jet vectors must live in C^k")
        object.__setattr__(self, "pieces", pieces)


def _clusters(points: Sequence[complex], radius: float) -> list[list[int]]:
    """Single-linkage groups of points: i and j share a group when a chain of
    points at most `radius` apart joins them.  Each group lists its indices
    in increasing order, and the groups are ordered by their first index."""
    groups: list[list[int]] = []
    for i, z in enumerate(points):
        near = [g for g in groups if any(abs(z - points[j]) <= radius for j in g)]
        groups = [g for g in groups if g not in near] + [sorted(sum(near, [i]))]
    return sorted(groups)


def has_distinct_base_points(d: JetScheme) -> bool:
    return len(_clusters([p.z for p in d.pieces], Z_MATCH_TOL)) == len(d.pieces)


def _piece_key(p: LocalPiece) -> tuple[float, float, int]:
    """Canonical piece order: lexicographic (Re z, Im z, length)."""
    return (p.z.real, p.z.imag, p.length)


def _blocks(d: JetScheme) -> list[range]:
    """Each piece's block of consecutive coordinates of C^k, in piece order."""
    blocks, start = [], 0
    for p in d.pieces:
        blocks.append(range(start, start + p.length))
        start += p.length
    return blocks


def jordan_of(d: JetScheme) -> Matrix:
    """The direct sum of Jordan blocks J_{z_i, l_i} in piece order (ones
    above the diagonal)."""
    j = _eigen_shift(d, np.array([p.z for p in d.pieces]).T)
    for blk in _blocks(d):
        for a in blk[1:]:
            j[..., a - 1, a] = 1.0
    return j


def block_reversal(d: JetScheme) -> Matrix:
    """Block-diagonal reversal permutation Q with Q J Q = J^T per block;
    symmetric involution."""
    q = np.zeros((d.k, d.k), dtype=complex)
    for blk in _blocks(d):
        for a, b in zip(blk, reversed(blk)):
            q[a, b] = 1.0
    return q


def g_matrix(d: JetScheme, factor: int) -> Matrix:
    """The k x k matrix whose columns are the factor's jet coefficient
    vectors, in piece order (consistent with `jordan_of`)."""
    return np.concatenate([p.jets[factor] for p in d.pieces], axis=-2).swapaxes(-1, -2).copy()


def _invertible(m: Matrix) -> bool:
    s = np.linalg.svd(m, compute_uv=False)
    return _rank(s, NONDEGENERACY_TOL) == s.size


def locally_nondegenerate(d: JetScheme) -> bool:
    """Finite stabilizer in each factor: the connected stabilizer of D in
    factor j is {g : g fixes all of factor j's coefficient vectors}, which is
    trivial iff the assembled matrix is invertible."""
    return all(_invertible(g_matrix(d, j)) for j in range(d.n_factors))


def jet_scalar_multiply(jet: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Multiply a vector jet by a scalar jet (truncated convolution)."""
    length = jet.shape[0]
    out = np.zeros_like(jet)
    for m in range(length):
        for i in range(m + 1):
            out[m] += jet[i] * s[m - i]
    return out


def jet_scalar_inverse(s: np.ndarray) -> np.ndarray:
    """Reciprocal of a scalar jet with nonzero constant term."""
    length = s.shape[0]
    if abs(s[0]) == 0.0:
        raise DegenerateSchemeError("scalar jet has vanishing constant term")
    inv = np.zeros(length, dtype=complex)
    inv[0] = 1.0 / s[0]
    for m in range(1, length):
        inv[m] = -inv[0] * np.sum(s[1 : m + 1] * inv[m - 1 :: -1][: m])
    return inv


def jet_proportional(
    jet_a: np.ndarray, jet_b: np.ndarray
) -> tuple[bool, np.ndarray | None]:
    """Whether jet_b(eps) = c(eps) * jet_a(eps) for a scalar jet c; returns
    the witness when it exists."""
    length = jet_a.shape[0]
    lead = jet_a[0]
    norm2 = np.vdot(lead, lead).real
    scale = max(1.0, float(np.max(np.abs(jet_a))), float(np.max(np.abs(jet_b))))
    c = np.zeros(length, dtype=complex)
    for m in range(length):
        resid = jet_b[m].astype(complex)
        for i in range(1, m + 1):
            resid = resid - c[m - i] * jet_a[i]
        c[m] = np.vdot(lead, resid) / norm2
        if np.max(np.abs(resid - c[m] * lead)) > NONDEGENERACY_TOL * scale:
            return False, None
    return True, c


def _swap_stabilizer_exists(d: JetScheme, i: int, j: int) -> bool:
    """Whether some single-factor group element can exchange pieces i and j
    (requires matching (z, l) and proportional jets in all other factors)."""
    pi, pj = d.pieces[i], d.pieces[j]
    if pi.length != pj.length or abs(pi.z - pj.z) > Z_MATCH_TOL:
        return False
    mismatched = 0
    for m in range(d.n_factors):
        ok_fwd, _ = jet_proportional(pi.jets[m], pj.jets[m])
        ok_bwd, _ = jet_proportional(pj.jets[m], pi.jets[m])
        if not (ok_fwd and ok_bwd):
            mismatched += 1
    # the swapping element lives in one factor; all others must already match
    return mismatched <= 1


def nondegenerate(d: JetScheme) -> bool:
    """Trivial stabilizer of D in each factor: finite stabilizers plus no
    piece-swapping elements."""
    if not locally_nondegenerate(d):
        return False
    n = len(d.pieces)
    for i in range(n):
        for j in range(i + 1, n):
            if _swap_stabilizer_exists(d, i, j):
                return False
    return True


def jet_normalize(piece: LocalPiece) -> LocalPiece:
    """Canonical representative modulo the jet group (scalar jets with unit
    product).  Factors before the last are scaled so the first nonzero entry
    of the leading vector is 1 and stays 0 in all higher coefficients; the
    last factor absorbs the inverse product.  A single-factor jet group is
    trivial, so (b, b') = (1, 0) pieces are returned unchanged."""
    n = piece.n_factors
    if n == 1:
        return piece
    length = piece.length
    new_jets: list[np.ndarray] = []
    product = np.zeros(length, dtype=complex)
    product[0] = 1.0
    for m in range(n - 1):
        jet = piece.jets[m]
        lead = jet[0]
        nz = np.nonzero(np.abs(lead) > 1e-12 * max(1.0, float(np.max(np.abs(lead)))))[0]
        if nz.size == 0:
            raise DegenerateSchemeError("leading jet vector is below the pivot cutoff")
        r = int(nz[0])
        # s with (jet * s)[j][r] = delta_{j,0}: the inverse of the pivot jet
        s = jet_scalar_inverse(jet[:, r])
        new_jets.append(jet_scalar_multiply(jet, s))
        product = jet_scalar_multiply(product[:, None], s).ravel()
    absorber = jet_scalar_inverse(product)
    new_jets.append(jet_scalar_multiply(piece.jets[n - 1], absorber))
    return LocalPiece(z=piece.z, length=length, jets=tuple(new_jets))


def normalize_scheme(d: JetScheme) -> JetScheme:
    """Sort pieces canonically and normalize every piece's jets."""
    pieces = sorted(d.pieces, key=_piece_key)
    return JetScheme(
        k=d.k,
        b=d.b,
        bprime=d.bprime,
        pieces=tuple(jet_normalize(p) for p in pieces),
    )


def act_on_scheme(d: JetScheme, gs: Sequence[Matrix]) -> JetScheme:
    """Boundary action on jets: incoming vectors map by g, outgoing covector
    coefficients by the inverse transpose."""
    if len(gs) != d.n_factors:
        raise ValidationError("need one group element per factor")
    mats = []
    for j, g in enumerate(gs):
        g = _group_element(g, stacked=True)
        mats.append(g if d.orientation(j) == INCOMING else np.linalg.inv(g).swapaxes(-1, -2))
    new_pieces = []
    for p in d.pieces:
        jets = tuple((mats[j] @ p.jets[j].swapaxes(-1, -2)).swapaxes(-1, -2)
                     for j in range(d.n_factors))
        new_pieces.append(LocalPiece(z=p.z, length=p.length, jets=jets))
    return JetScheme(k=d.k, b=d.b, bprime=d.bprime, pieces=tuple(new_pieces))


def slice_conjugator(d: JetScheme, x: SlicePoint | None = None) -> Matrix:
    """A deterministic invertible C with slice_embed(X) = C J(D) C^{-1},
    where X = scheme_slice_point(d), the slice point with the scheme's
    characteristic polynomial; a caller that has it passes it as x.
    Built from Krylov frames of both sides (same companion matrix)."""
    if not has_distinct_base_points(d):
        raise DegenerateSchemeError(
            "base points collide: no slice conjugator (scheme not transverse)"
        )
    # The sum of the block-end basis vectors is cyclic for J(D) when base
    # points are pairwise distinct.
    bx = _slice_frame(scheme_slice_point(d) if x is None else x)
    v = np.zeros(d.k, dtype=complex)
    v[[blk[-1] for blk in _blocks(d)]] = 1.0
    bj = _krylov_frame(jordan_of(d), v)
    return bx @ np.linalg.inv(bj)


def scheme_slice_point(d: JetScheme) -> SlicePoint:
    roots = np.concatenate([[p.z] * p.length for p in d.pieces])
    return slice_coefficients_from_roots(roots, d.k)


def hilb_to_u(d: JetScheme) -> UClass:
    """The constructive correspondence from a nondegenerate transverse scheme
    to a quotient-class representative.

    Incoming factors: g_j = G_j C^{-1}; outgoing factors: g_j = C Q G_j^T,
    with C the Jordan-to-slice conjugator and Q the per-block reversal.  With
    these choices every incoming moment is G_j J G_j^{-1}, every outgoing
    moment is -(G_j J G_j^{-1})^T, and the jet-group ambiguity lands exactly
    in the centralizer equivalence of the class.
    """
    # slice_conjugator refuses colliding base points, and between distinct
    # ones no piece swap can stabilize D, so finite stabilizers suffice
    if not locally_nondegenerate(d):
        raise DegenerateSchemeError("correspondence requires a nondegenerate scheme")
    x = scheme_slice_point(d)
    conj = slice_conjugator(d, x)
    conj_inv = np.linalg.inv(conj)
    q = block_reversal(d)
    gs = []
    for j in range(d.n_factors):
        gj = g_matrix(d, j)
        if d.orientation(j) == INCOMING:
            gs.append(gj @ conj_inv)
        else:
            gs.append(conj @ q @ gj.T)
    return UClass(b=d.b, bprime=d.bprime, gs=tuple(gs), X=x)


def _cluster_roots(
    roots: np.ndarray, radius: float
) -> list[tuple[complex, int]]:
    """Single-linkage clustering of eigenvalues; returns (center, size)."""
    return [(complex(np.mean(roots[g])), len(g)) for g in _clusters(roots, radius)]


def u_to_hilb(m: UClass) -> JetScheme:
    """Inverse correspondence: read pieces off the spectral data of X and
    jets off the factor matrices transported through the Jordan conjugation.

    Eigenvalue clusters are validated by reconstructing the power traces; a
    failed reconstruction (or colliding cluster centers) raises
    ConditioningError rather than guessing the Jordan structure.
    """
    x_mat = slice_embed(m.X)
    k = m.X.k
    roots = np.linalg.eigvals(x_mat)
    clusters = _cluster_roots(roots, ROOT_CLUSTER_RADIUS)
    clusters.sort(key=lambda t: (t[0].real, t[0].imag))
    if len(_clusters([z for z, _ in clusters], 2 * ROOT_CLUSTER_RADIUS)) < len(clusters):
        raise ConditioningError("cluster centers too close to resolve")
    centers = np.concatenate([[z] * l for z, l in clusters])
    recon = np.array([np.sum(centers**p) for p in range(1, k + 1)])
    actual = power_traces(x_mat)
    scale = max(1.0, float(np.max(np.abs(actual))))
    # exact multiplicities reconstruct to roundoff (cluster means cancel the
    # eigenvalue scatter); falsely merged roots at separation d leave a
    # residual of order d^2/4, so this cutoff refuses separations above
    # roughly 3e-5 while accepting genuinely multiple roots
    if np.max(np.abs(recon - actual)) > 3e-10 * scale:
        raise ConditioningError("spectral clustering failed validation")

    # Assemble a piece skeleton to build the Jordan data and conjugator.
    skeleton_pieces = []
    n = m.n_factors
    for z, l in clusters:
        jets = tuple(np.eye(l, k, dtype=complex) for _ in range(n))
        skeleton_pieces.append(LocalPiece(z=z, length=l, jets=jets))
    skeleton = JetScheme(k=k, b=m.b, bprime=m.bprime, pieces=tuple(skeleton_pieces))
    conj = slice_conjugator(skeleton)
    conj_inv = np.linalg.inv(conj)
    q = block_reversal(skeleton)

    factor_mats = []
    for j in range(n):
        if m.orientation(j) == INCOMING:
            factor_mats.append(m.gs[j] @ conj)
        else:
            factor_mats.append((q @ conj_inv @ m.gs[j]).T)

    pieces = tuple(
        LocalPiece(z=z, length=l, jets=tuple(f[:, blk].T.copy() for f in factor_mats))
        for (z, l), blk in zip(clusters, _blocks(skeleton))
    )
    scheme = JetScheme(k=k, b=m.b, bprime=m.bprime, pieces=pieces)
    return normalize_scheme(scheme)


@dataclass(frozen=True)
class FTangent:
    """Tangent to the Fitting locus: a fundamental-vector-field component
    rho in gl(k) and one base-point velocity per piece."""

    rho: Matrix
    dz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=complex))
        object.__setattr__(self, "dz", np.asarray(self.dz, dtype=complex))


def _fitting_frame(d: JetScheme) -> tuple[Matrix, Matrix, Matrix]:
    """The first factor matrix G, its inverse and mu = G J(D) G^{-1};
    refuses a singular G."""
    g = g_matrix(d, 0)
    if not _invertible(g):
        raise DegenerateSchemeError("factor matrix is singular")
    ginv = np.linalg.inv(g)
    return g, ginv, g @ jordan_of(d) @ ginv


def f_moment(d: JetScheme) -> Matrix:
    """mu(D) = G(D) J(D) G(D)^{-1} for the first factor."""
    return _fitting_frame(d)[2]


def _eigen_shift(d: JetScheme, dz: np.ndarray) -> Matrix:
    """dJ for base-point velocities dz (..., pieces): dz_i on block i's diagonal."""
    out = np.zeros(np.shape(dz)[:-1] + (d.k, d.k), dtype=complex)
    for i, blk in enumerate(_blocks(d)):
        for a in blk:
            out[..., a, a] = dz[..., i]
    return out


def f_presymplectic(d: JetScheme, u: FTangent, v: FTangent) -> complex:
    """The closed extension of the canonical form to the Fitting locus for
    signature (1, 0):

        omega(u, v) = <rho_u, dmu(v)> - <rho_v, dmu(u)> - <mu, [rho_u, rho_v]>

    with dmu(t) = [rho_t, mu] + G dJ_t G^{-1}.  Pure eigenvalue pairs give 0;
    the group action is Hamiltonian for mu with the same sign convention as
    the canonical form on group x slice.
    """
    mu, wedge = _f_moment_wedge(d, u, v)
    return wedge - pairing(mu, commutator(u.rho, v.rho))


def f_presymplectic_moment_wedge(d: JetScheme, u: FTangent, v: FTangent) -> complex:
    """The literal pairing-wedge <rho, dmu(v)> - <rho', dmu(u)>; differs from
    the closed form by the recorded term <mu, [rho_u, rho_v]>."""
    return _f_moment_wedge(d, u, v)[1]


def _f_moment_wedge(d: JetScheme, u: FTangent, v: FTangent) -> tuple[Matrix, complex]:
    """mu = G J G^{-1} for the first factor matrix G, and the pairing-wedge
    <rho_u, dmu(v)> - <rho_v, dmu(u)>; refuses what both forms refuse."""
    if (d.b, d.bprime) != (1, 0):
        raise SignatureError("the presymplectic form is defined for (1,0)")
    g, ginv, mu = _fitting_frame(d)
    for t in (u, v):
        if t.dz.shape[-1:] != (len(d.pieces),):
            raise ValidationError("need one dz per piece")
        check_same_size(mu, t.rho)
    dmu_u = commutator(u.rho, mu) + g @ _eigen_shift(d, u.dz) @ ginv
    dmu_v = commutator(v.rho, mu) + g @ _eigen_shift(d, v.dz) @ ginv
    return mu, pairing(u.rho, dmu_v) - pairing(v.rho, dmu_u)


def f_gram_matrix(d: JetScheme) -> np.ndarray:
    """Gram matrix of the presymplectic form on the standard coordinate
    tangents (matrix units E_ab for rho in row-major order, then one shift
    e_i per piece).  The form is bilinear, so with mu = G J G^{-1} and
    Q_i = G P_i G^{-1}, P_i the projection onto piece i, its blocks are

        omega(E_ab, E_cd) = delta_bc mu_da - delta_da mu_bc,
        omega(E_ab, e_i) = (Q_i)_ba,    omega(e_i, e_j) = 0.
    """
    if (d.b, d.bprime) != (1, 0):
        raise SignatureError("the presymplectic form is defined for (1,0)")
    g, ginv, mu = _fitting_frame(d)
    k = d.k
    s = len(d.pieces)
    eye = np.eye(k)
    rho_rho = np.einsum("bc,da->abcd", eye, mu) - np.einsum("da,bc->abcd", eye, mu)
    # column i holds (Q_i)_ba at row a k + b; P_i is the shift of piece i alone
    q = [g @ _eigen_shift(d, e) @ ginv for e in np.eye(s)]
    rho_dz = np.stack([q_i.T.ravel() for q_i in q], axis=1)
    gram = np.zeros((k * k + s, k * k + s), dtype=complex)
    gram[: k * k, : k * k] = rho_rho.reshape(k * k, k * k)
    gram[: k * k, k * k :] = rho_dz
    gram[k * k :, : k * k] = -rho_dz.T
    return gram


def f_kernel_dimension(d: JetScheme) -> int:
    """Dimension of the kernel of the presymplectic form at D on the
    (group, per-piece eigenvalue) tangent space."""
    sing = np.linalg.svd(f_gram_matrix(d), compute_uv=False)
    return sing.size - _rank(sing, 1e-8)


def orbit_invariant(d: JetScheme) -> tuple[tuple[complex, int], ...]:
    """Unordered Jordan data of J(D): the multiset of (base point, length)
    pairs, canonically sorted."""
    return tuple((p.z, p.length) for p in sorted(d.pieces, key=_piece_key))


def orbit_invariant_equal(
    inv1: tuple[tuple[complex, int], ...],
    inv2: tuple[tuple[complex, int], ...],
) -> bool:
    if len(inv1) != len(inv2):
        return False
    return all(
        abs(z1 - z2) <= Z_MATCH_TOL and l1 == l2
        for (z1, l1), (z2, l2) in zip(inv1, inv2)
    )


def adjoint_orbits_match(m1: Matrix, m2: Matrix) -> bool | np.ndarray:
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

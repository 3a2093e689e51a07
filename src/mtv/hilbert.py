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
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Sequence

import numpy as np

from .errors import (ConditioningError, DegenerateSchemeError, DimensionMismatchError,
                     SignatureError, ValidationError)
from .lie import (Matrix, _krylov_frame, _rank, as_matrix, check_same_size, commutator,
                  pairing, power_traces)
from .slodowy import (SlicePoint, _slice_frame, _slice_from_power_sums,
                      slice_coefficients_from_roots, slice_embed)
from .uspace import UClass
from .wspace import _group_element, _Signature

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
    (length, k).  A stack of schemes is a sequence of them, never one piece."""

    z: complex
    length: int
    jets: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError("piece length must be >= 1")
        if not self.jets:
            raise ValidationError("a piece needs one jet per factor, got none")
        jets = [np.asarray(jet, dtype=complex) for jet in self.jets]
        for arr in jets:  # the first jet is checked first, so the others compare with it
            if arr.ndim != 2 or arr.shape[0] != self.length:
                raise ValidationError(f"jet must have shape (length, k), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValidationError("jet entries must be finite")
            if arr.shape[1] != jets[0].shape[1]:
                raise ValidationError("jets disagree on the ambient dimension")
            if not arr[0].any():
                raise DegenerateSchemeError("leading jet vector vanishes")
        try:
            z = None if isinstance(self.z, np.ndarray) and self.z.ndim else complex(self.z)
        except (TypeError, ValueError):  # None, a list, a malformed string
            z = None
        if z is None or not cmath.isfinite(z):
            raise ValidationError(f"base point must be one finite number, got {self.z!r}")
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


@lru_cache(maxsize=None)
def _block_parts(lengths: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, Matrix]:
    """For pieces of these lengths, each a block of consecutive coordinates of
    C^k, as read-only arrays: where J has its ones (a (k, k) mask, above the
    diagonal inside each block), the sum v of the block-end basis vectors,
    which is cyclic for J at distinct base points, and the block reversal Q,
    with Q J Q = J^T per block."""
    k = sum(lengths)
    ones = np.zeros((k, k), dtype=bool)
    v = np.zeros(k, dtype=complex)
    q = np.zeros((k, k), dtype=complex)
    start = 0
    for length in lengths:
        blk = range(start, start + length)
        ones[blk[:-1], blk[1:]] = True
        v[blk[-1]] = 1.0
        q[blk, blk[::-1]] = 1.0
        start += length
    for a in (ones, v, q):
        a.flags.writeable = False
    return ones, v, q


def _jordan(roots: np.ndarray, ones: np.ndarray) -> Matrix:
    """The Jordan matrix with the diagonal roots (..., k) and ones where the
    mask `ones` (..., k, k) of `_block_parts` is set."""
    k = roots.shape[-1]
    j = np.where(ones, 1.0 + 0j, np.zeros(roots.shape + (k,), dtype=complex))
    j.reshape(j.shape[:-2] + (k * k,))[..., :: k + 1] = roots
    return j


def jordan_of(d: JetScheme) -> Matrix:
    """The direct sum of Jordan blocks J_{z_i, l_i} in piece order (ones
    above the diagonal)."""
    lengths = tuple(p.length for p in d.pieces)
    return _jordan(np.repeat([p.z for p in d.pieces], lengths), _block_parts(lengths)[0])


def g_matrices(d: JetScheme) -> Matrix:
    """The factor matrices as one stack (factors, k, k); the columns of each
    are its factor's jet coefficient vectors, in piece order (as in `jordan_of`)."""
    return np.concatenate([p.jets for p in d.pieces], axis=-2).swapaxes(-1, -2).copy()


def g_matrix(d: JetScheme, factor: int) -> Matrix:
    """The k x k matrix of one factor (see `g_matrices`)."""
    return g_matrices(d)[factor]


def _invertible(m: Matrix) -> bool:
    """Whether m, or every matrix of a stack, is numerically invertible."""
    s = np.linalg.svd(m, compute_uv=False)
    return bool(np.asarray(_rank(s, NONDEGENERACY_TOL) == s.shape[-1]).all())


def locally_nondegenerate(d: JetScheme) -> bool:
    """Finite stabilizer in each factor: the connected stabilizer of D in
    factor j is {g : g fixes all of factor j's coefficient vectors}, which is
    trivial iff the assembled matrix is invertible."""
    return _invertible(g_matrices(d))


def jet_scalar_multiply(jet: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Multiply a vector jet (..., length, k) by a scalar jet (..., length), with
    the same leading axes, by truncated convolution; each coefficient sums its
    products in order.  (A scalar jet broadcast over a stack rounds differently.)"""
    length = jet.shape[-2]
    out = np.zeros_like(jet)
    for i in range(length):
        out[..., i:, :] += jet[..., i, None, :] * s[..., : length - i, None]
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


def jet_proportional(jet_a: np.ndarray, jet_b: np.ndarray) -> tuple[bool, np.ndarray | None]:
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
    # the swapping element lives in one factor; all others must already match
    return sum(not (jet_proportional(a, b)[0] and jet_proportional(b, a)[0])
               for a, b in zip(pi.jets, pj.jets)) <= 1


def nondegenerate(d: JetScheme) -> bool:
    """Trivial stabilizer of D in each factor: finite stabilizers plus no
    piece-swapping elements."""
    pairs = combinations(range(len(d.pieces)), 2)
    return locally_nondegenerate(d) and not any(_swap_stabilizer_exists(d, *ij) for ij in pairs)


def _normal_jets(jets: np.ndarray) -> np.ndarray:
    """The jets (factors, length, k) of one piece, normalized as in `jet_normalize`."""
    if len(jets) == 1:
        return jets
    heads = jets[:-1]
    lead = np.abs(heads[:, 0])
    largest = lead.max(axis=-1)
    if not (largest > 1e-12 * np.maximum(1.0, largest)).all():
        raise DegenerateSchemeError("leading jet vector is below the pivot cutoff")
    # s with (jet * s)[j][r] = delta_{j,0}: the inverse of the pivot jet, taken
    # per factor (a stacked inverse would round differently); the pivot r is
    # the leading entry of largest modulus, so s stays as small as it can
    pivots = heads[np.arange(len(heads)), :, lead.argmax(axis=-1)]
    s = np.array([jet_scalar_inverse(p) for p in pivots])
    product = np.eye(jets.shape[1], 1, dtype=complex)
    for s_m in s:
        product = jet_scalar_multiply(product, s_m)
    absorber = jet_scalar_inverse(product[:, 0])
    return np.concatenate([jet_scalar_multiply(heads, s),
                           jet_scalar_multiply(jets[-1], absorber)[None]])


def jet_normalize(piece: LocalPiece) -> LocalPiece:
    """Canonical representative modulo the jet group (scalar jets with unit
    product).  Factors before the last are scaled so the entry of largest
    modulus of the leading vector (the first of equal ones) is 1 and stays 0
    in all higher coefficients; a leading vector whose entries are all at
    most 1e-12 (relative to 1) is refused.  The last factor absorbs the
    inverse product.  A single-factor jet group is trivial, so (b, b') =
    (1, 0) pieces are returned unchanged."""
    if piece.n_factors == 1:
        return piece
    return LocalPiece(piece.z, piece.length, tuple(_normal_jets(np.array(piece.jets))))


def normalize_scheme(d: JetScheme) -> JetScheme:
    """Sort pieces canonically and normalize every piece's jets."""
    pieces = sorted((jet_normalize(p) for p in d.pieces), key=_piece_key)
    return JetScheme(k=d.k, b=d.b, bprime=d.bprime, pieces=tuple(pieces))


def act_on_scheme(d: JetScheme, gs: Sequence[Matrix]) -> JetScheme:
    """Boundary action on jets: incoming vectors map by g, outgoing covector
    coefficients by the inverse transpose."""
    if len(gs) != d.n_factors:
        raise ValidationError("need one group element per factor")
    mats = [_group_element(g) for g in gs]
    if any(g.shape[-1] != d.k for g in mats):
        raise DimensionMismatchError(f"size mismatch: group elements of size {d.k} needed")
    mats = [g if j < d.b else np.linalg.inv(g).T for j, g in enumerate(mats)]
    return JetScheme(k=d.k, b=d.b, bprime=d.bprime, pieces=tuple(LocalPiece(
        p.z, p.length, tuple((m @ jet.T).T for m, jet in zip(mats, p.jets))) for p in d.pieces))


def _conjugator(x: SlicePoint, j: Matrix, v: np.ndarray) -> Matrix:
    """The conjugator C with slice_embed(x) = C J C^{-1} (Krylov frames of
    both sides), for J with the cyclic vector v and x with J's characteristic
    polynomial; one per trial of stacks."""
    return _slice_frame(x) @ np.linalg.inv(_krylov_frame(j, v))


def _schemes(d: JetScheme | Sequence[JetScheme]) -> list[JetScheme]:
    """One scheme, or a sequence of schemes of one size and signature, as a list."""
    ds = [d] if isinstance(d, JetScheme) else list(d)
    if not ds:
        raise ValidationError("need at least one scheme")
    if any((e.k, e.b, e.bprime) != (ds[0].k, ds[0].b, ds[0].bprime) for e in ds):
        raise ValidationError("stacked schemes must share their size and signature")
    return ds


def hilb_to_u(d: JetScheme | Sequence[JetScheme]) -> UClass:
    """The constructive correspondence from a nondegenerate transverse scheme
    to a quotient-class representative.

    Incoming factors: g_j = G_j C^{-1}; outgoing factors: g_j = C Q G_j^T,
    with C the Jordan-to-slice conjugator and Q the per-block reversal.  With
    these choices every incoming moment is G_j J G_j^{-1}, every outgoing
    moment is -(G_j J G_j^{-1})^T, and the jet-group ambiguity lands exactly
    in the centralizer equivalence of the class.

    Of a sequence of schemes of one size and signature, with any piece
    lengths, one stacked class: the factor matrices, J, Q and the block-end
    vector are built per scheme, everything else once for the stack.  A
    stack with a bad scheme is refused with the error that scheme raises
    alone.
    """
    single = isinstance(d, JetScheme)
    ds = _schemes(d)
    k, b, bprime = ds[0].k, ds[0].b, ds[0].bprime

    def join(parts, axis=0):  # the stack axis goes to `axis`
        return parts[0] if single else np.array(parts).swapaxes(0, axis)

    gs = join([g_matrices(e) for e in ds], axis=1)
    if not _invertible(gs):
        raise DegenerateSchemeError("correspondence requires a nondegenerate scheme")
    # the conjugator needs distinct base points, and between distinct ones no
    # piece swap can stabilize D, so finite stabilizers suffice
    if not all(map(has_distinct_base_points, ds)):
        raise DegenerateSchemeError(
            "base points collide: no slice conjugator (scheme not transverse)")
    roots = join([np.array([p.z for p in e.pieces for _ in range(p.length)]) for e in ds])
    ones, v, q = (join(parts) for parts in zip(*(
        _block_parts(tuple(p.length for p in e.pieces)) for e in ds)))
    x = slice_coefficients_from_roots(roots, k)
    conj = _conjugator(x, _jordan(roots, ones), v)
    gs[:b] = gs[:b] @ np.linalg.inv(conj)
    gs[b:] = conj @ q @ gs[b:].swapaxes(-1, -2)
    return UClass(b=b, bprime=bprime, gs=tuple(gs), X=x)


def _cluster_roots(roots: np.ndarray, radius: float) -> list[tuple[complex, int]]:
    """Single-linkage clustering of eigenvalues; returns (center, size)."""
    return [(complex(np.mean(roots[g])), len(g)) for g in _clusters(roots, radius)]


def u_to_hilb(m: UClass) -> JetScheme:
    """Inverse correspondence, in one pass: read pieces off the spectral data
    of X, solve for the slice point of the cluster centers, and read jets off
    the factor matrices transported through the Jordan conjugation.

    Eigenvalue clusters are validated by reconstructing the power traces; a
    failed reconstruction (or colliding cluster centers) raises
    ConditioningError rather than guessing the Jordan structure.
    """
    if m.X.coeffs.ndim > 1 or m.gs[0].ndim > 2:
        raise ValidationError("the correspondence takes one class, not a stack")
    x_mat = slice_embed(m.X)
    k = m.X.k
    clusters = sorted(_cluster_roots(np.linalg.eigvals(x_mat), ROOT_CLUSTER_RADIUS),
                      key=lambda t: (t[0].real, t[0].imag))
    if len(_clusters([z for z, _ in clusters], 2 * ROOT_CLUSTER_RADIUS)) < len(clusters):
        raise ConditioningError("cluster centers too close to resolve")
    zs, lengths = np.array([z for z, _ in clusters]), [l for _, l in clusters]
    centers = np.repeat(zs, lengths)
    recon = np.array([np.sum(centers**p) for p in range(1, k + 1)])
    actual = power_traces(x_mat)
    scale = max(1.0, float(np.max(np.abs(actual))))
    # exact multiplicities reconstruct to roundoff (cluster means cancel the
    # eigenvalue scatter); falsely merged roots at separation d leave a
    # residual of order d^2/4, so this cutoff refuses separations above
    # roughly 3e-5 while accepting genuinely multiple roots
    if np.max(np.abs(recon - actual)) > 3e-10 * scale:
        raise ConditioningError("spectral clustering failed validation")

    # centers more than 2 ROOT_CLUSTER_RADIUS apart are distinct base points
    ones, v, q = _block_parts(tuple(lengths))
    conj = _conjugator(_slice_from_power_sums(recon, k), _jordan(centers, ones), v)
    # row a of rows[j] is the jet vector a of factor j, over all pieces
    gs = np.array(m.gs)
    rows = np.empty_like(gs)
    rows[: m.b] = (gs[: m.b] @ conj).swapaxes(-1, -2)
    rows[m.b :] = q @ np.linalg.inv(conj) @ gs[m.b :]
    if not np.isfinite(rows).all():
        raise ValidationError("jet entries must be finite")
    pieces = tuple(
        LocalPiece(z=z, length=l, jets=tuple(_normal_jets(rows[:, end - l : end])))
        for z, l, end in zip(zs, lengths, accumulate(lengths))
    )
    return JetScheme(k=k, b=m.b, bprime=m.bprime, pieces=pieces)


@dataclass(frozen=True)
class FTangent:
    """Tangent to the Fitting locus: a fundamental-vector-field component
    rho in gl(k) and one base-point velocity per piece."""

    rho: Matrix
    dz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", np.asarray(self.rho, dtype=complex))
        object.__setattr__(self, "dz", np.asarray(self.dz, dtype=complex))


def _fitting_frame(g: Matrix, j: Matrix) -> tuple[Matrix, Matrix]:
    """For a stack (..., k, k) of first factor matrices G and one of Jordan
    matrices J, the inverses G^{-1} and mu = G J G^{-1}; refuses a singular G."""
    if not _invertible(g):
        raise DegenerateSchemeError("factor matrix is singular")
    ginv = np.linalg.inv(g)
    return ginv, g @ j @ ginv


def f_moment(d: JetScheme | Sequence[JetScheme]) -> Matrix:
    """mu(D) = G(D) J(D) G(D)^{-1} for the first factor; of a sequence of
    schemes of one size and signature, one moment per scheme (n, k, k)."""
    ds = _schemes(d)
    mu = _fitting_frame(np.array([g_matrix(e, 0) for e in ds]),
                        np.array([jordan_of(e) for e in ds]))[1]
    return mu[0] if isinstance(d, JetScheme) else mu


def _eigen_shift(lengths: Sequence[int], dz: np.ndarray) -> Matrix:
    """dJ for base-point velocities dz (..., pieces): dz_i on the diagonal of block i."""
    k = sum(lengths)
    out = np.zeros(np.shape(dz)[:-1] + (k * k,), dtype=complex)
    out[..., :: k + 1] = np.repeat(dz, lengths, axis=-1)  # the diagonal of each k x k
    return out.reshape(np.shape(dz)[:-1] + (k, k))


def f_point(d: JetScheme) -> tuple[Matrix, np.ndarray, tuple[int, ...]]:
    """A (1,0) scheme as the arrays that the Fitting form is coded on: its first
    factor matrix G, base points z and piece lengths."""
    if (d.b, d.bprime) != (1, 0):
        raise SignatureError("the presymplectic form is defined for (1,0)")
    return g_matrix(d, 0), np.array([p.z for p in d.pieces]), tuple(p.length for p in d.pieces)


def f_presymplectic(d: JetScheme | tuple, u: FTangent, v: FTangent) -> complex | np.ndarray:
    """The closed extension of the canonical form to the Fitting locus for
    signature (1, 0):

        omega(u, v) = <rho_u, dmu(v)> - <rho_v, dmu(u)> - <mu, [rho_u, rho_v]>

    with dmu(t) = [rho_t, mu] + G dJ_t G^{-1}.  Pure eigenvalue pairs give 0;
    the group action is Hamiltonian for mu with the same sign convention as
    the canonical form on group x slice.  D may also be `f_point`'s arrays,
    or a stack of them (G (..., k, k), z (..., pieces)): one value per point.
    """
    g, z, lengths = f_point(d) if isinstance(d, JetScheme) else d
    ginv, mu = _fitting_frame(g, _jordan(np.repeat(z, lengths, axis=-1), _block_parts(lengths)[0]))
    for t in (u, v):
        if t.dz.shape[-1:] != (len(lengths),):
            raise ValidationError("need one dz per piece")
        check_same_size(mu, t.rho)
    dmu_u, dmu_v = (commutator(t.rho, mu) + g @ _eigen_shift(lengths, t.dz) @ ginv for t in (u, v))
    return pairing(u.rho, dmu_v) - pairing(v.rho, dmu_u) - pairing(mu, commutator(u.rho, v.rho))


def f_gram_matrix(d: JetScheme) -> np.ndarray:
    """Gram matrix of the presymplectic form on the standard coordinate
    tangents (matrix units E_ab for rho in row-major order, then one shift
    e_i per piece).  The form is bilinear, so with mu = G J G^{-1} and
    Q_i = G P_i G^{-1}, P_i the projection onto piece i, its blocks are

        omega(E_ab, E_cd) = delta_bc mu_da - delta_da mu_bc,
        omega(E_ab, e_i) = (Q_i)_ba,    omega(e_i, e_j) = 0.
    """
    g, _, lengths = f_point(d)
    ginv, mu = _fitting_frame(g, jordan_of(d))
    k, s = d.k, len(lengths)
    gram = np.zeros((k * k + s, k * k + s), dtype=complex)
    # entry (a k + b, c k + d) of the rho block as rho[a, b, c, d]; adding 0.0
    # turns -0 into +0, as the zero-started sums of the einsum codings did
    rho = gram[: k * k, : k * k].reshape(k, k, k, k)
    rho[:, range(k), range(k), :] = mu.T[:, None, :] + 0.0
    rho[range(k), :, :, range(k)] -= mu
    # row i of rho_dz holds (Q_i)_ba at column a k + b
    q = g @ _eigen_shift(lengths, np.eye(s)) @ ginv
    rho_dz = q.swapaxes(-1, -2).reshape(s, k * k)
    gram[: k * k, k * k :] = rho_dz.T
    gram[k * k :, : k * k] = -rho_dz
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
    return len(inv1) == len(inv2) and all(
        abs(z1 - z2) <= Z_MATCH_TOL and l1 == l2 for (z1, l1), (z2, l2) in zip(inv1, inv2))


def adjoint_orbits_match(m1: Matrix, m2: Matrix) -> bool | np.ndarray:
    """Independent conjugacy test: equal power traces and equal rank
    sequences of (M - z)^p for every candidate eigenvalue z of m1.  Either
    argument may be a stack (..., k, k); the two broadcast like numpy
    operands, giving one answer per pair (a bool for two matrices).  Equal
    matrices match without ranks; each matrix of m1 that some pair takes to
    the rank stage gets its ranks at its own cluster centers once."""
    m1, m2 = (as_matrix(m, stacked=np.ndim(m) - 2) for m in (m1, m2))
    k = check_same_size(m1, m2)
    if any(a != b and 1 not in (a, b) for a, b in zip(m1.shape[-3::-1], m2.shape[-3::-1])):
        raise DimensionMismatchError(f"stacks do not broadcast: {m1.shape} vs {m2.shape}")
    shape = np.broadcast_shapes(m1.shape, m2.shape)[:-2]
    match = ~(np.max(np.abs(power_traces(m1) - power_traces(m2)), axis=-1) > 1e-6)
    match = np.broadcast_to(match, shape).copy()
    ranked = match & (m1 != m2).any(axis=(-2, -1))  # equal matrices need no ranks
    if ranked.any():
        # the rows of m1 that ranked pairs use, and each row's cluster centers
        pair_rows = np.broadcast_to(np.arange(m1[..., 0, 0].size).reshape(m1.shape[:-2]),
                                    shape)[ranked].tolist()
        rows = sorted(set(pair_rows))
        m1 = m1.reshape(-1, k, k)[rows]
        centers = dict(zip(rows, ([z for z, _ in _cluster_roots(e, ROOT_CLUSTER_RADIUS)]
                                  for e in np.linalg.eigvals(m1))))
        # M - z I at each center of each row, then of each pair's m2 at its row's
        z = [centers[r] for r in rows + pair_rows]
        starts = np.cumsum([0] + [len(c) for c in z])
        m = np.concatenate([m1, np.broadcast_to(m2, shape + (k, k))[ranked]])
        shifts = (np.repeat(m, np.diff(starts), axis=0)
                  - np.concatenate(z)[:, None, None] * np.eye(k))
        powers = [np.eye(k, dtype=complex)]
        for _ in range(k):
            powers.append(powers[-1] @ shifts)
        ranks = np.linalg.matrix_rank(np.stack(powers[1:]), tol=1e-7).T
        first = dict(zip(rows, starts))
        own = [first[r] + j for r in pair_rows for j in range(len(centers[r]))]
        same = (ranks[starts[len(rows)]:] == ranks[own]).all(axis=1)
        match[ranked] = np.logical_and.reduceat(same, starts[len(rows) : -1] - starts[len(rows)])
    return bool(match) if match.ndim == 0 else match

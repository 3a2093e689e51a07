"""Quotient classes U^{b,b'}: representatives, the centralizer equivalence
relation, actions, moment maps, the gluing of boundary factors, and the
special isomorphisms for signatures (1,1) and (0,0).

A class is stored as one representative tuple (g_1, ..., g_{b+b'}, X); class
equality is always decided by `u_equivalent` (for regular X the centralizer
is abelian and the relation is a cheap solve), never by canonicalization.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionMismatchError,
    GluingError,
    LevelSetError,
    SignatureError,
    SingularMatrixError,
    ValidationError,
)
from .lie import (
    Matrix,
    _krylov_frame,
    as_matrix,
    check_same_size,
    commutator,
    gradient_of_combination,
    pairing,
    power_traces,
)
from .slodowy import SlicePoint, _slice_frame, slice_embed, slice_representative
from .wspace import (
    INCOMING,
    OUTGOING,
    WPoint,
    _Signature,
    _absorb,
    _act,
    _canonical_form,
    _group_element,
    _moment,
    _reverse,
    _slice_matrices,
)

# Tolerances fixed by the module contract.
LEVEL_TOL = 1e-12       # slice-point equality on the moment level set
EQUIV_TOL = 1e-9        # centralizer membership / product-one residuals
GLUE_TOL = 1e-9         # moment matching for gluing


@dataclass(frozen=True)
class UClass(_Signature):
    b: int
    bprime: int
    gs: tuple[Matrix, ...]
    X: SlicePoint

    def __post_init__(self):
        super().__post_init__()
        try:  # one check of all factors as a stack, which the class keeps as its own copy
            gs = np.array(self.gs, dtype=complex)
        except ValueError:
            if len({np.shape(g) for g in self.gs}) > 1:
                raise ValidationError("factors differ in shape") from None
            raise
        if gs.ndim < 3:
            raise ValidationError(f"expected square factor matrices, got shape {gs.shape}")
        gs = _group_element(gs, stacked=2)
        if len(gs) != self.b + self.bprime:
            raise ValidationError("factor count does not match signature")
        if gs.shape[-1] != self.X.k:
            raise ValidationError("factor size does not match slice point")
        object.__setattr__(self, "gs", tuple(gs))


@dataclass(frozen=True)
class UTangent:
    """Left-logarithmic directions per factor plus one shared slice velocity."""

    a_list: tuple[Matrix, ...]
    dc: np.ndarray


_LAST_AXES = tuple(tuple(range(-n, 0)) for n in range(4))  # the last n axes


def _largest(a: np.ndarray, axes: int = 2) -> np.ndarray:
    """The largest |entry| over the last `axes` axes: one per matrix (or vector) of a stack."""
    return np.abs(a).max(axis=_LAST_AXES[axes])


def _at_least(v, floor: float = 1.0):
    """max(floor, v) per entry, as Python's max folds it: floor unless v > floor."""
    return np.where(v > floor, v, floor)


def _centralizer_residual(u: Matrix, x: Matrix) -> np.ndarray:
    """max |[u, X]| scaled by max(1, |X|) * max(1, |u|) (largest entries), per matrix."""
    return _largest(commutator(u, x)) / (_at_least(_largest(x)) * _at_least(_largest(u)))


@dataclass(frozen=True)
class W00Point:
    """A point of the closed-surface space: (g, X) with Ad(g) X = X."""

    g: Matrix
    X: SlicePoint

    def __post_init__(self):
        g = as_matrix(self.g)
        x = slice_embed(self.X)
        check_same_size(x, g)
        if _centralizer_residual(g, x) > 1e-10:
            raise ValidationError("group part must centralize the slice point")
        object.__setattr__(self, "g", g)


def u_build(points: Sequence[WPoint]) -> UClass:
    """Assemble a class from boundary points on the abelian moment level set:
    all slice parts must agree exactly (incoming points listed first)."""
    if not points:
        raise ValidationError("need at least one boundary point")
    b = sum(1 for p in points if p.orientation == INCOMING)
    for i, p in enumerate(points):
        expect = INCOMING if i < b else OUTGOING
        if p.orientation != expect:
            raise ValidationError("incoming points must precede outgoing ones")
    x0 = points[0].X
    for p in points[1:]:
        if p.X.k != x0.k or np.max(np.abs(p.X.coeffs - x0.coeffs)) > LEVEL_TOL:
            raise LevelSetError(
                "slice points differ: the abelian moment condition fails"
            )
    return UClass(
        b=b,
        bprime=len(points) - b,
        gs=tuple(p.g for p in points),
        X=x0,
    )


def _check_pair(m1: UClass, m2: UClass) -> None:
    """Refuse two classes of different sizes, and two stacks of different layouts."""
    if m1.X.k != m2.X.k:
        raise DimensionMismatchError(f"sizes differ: {m1.X.k} vs {m2.X.k}")
    if (m1.X.coeffs.shape, m1.gs[0].shape) != (m2.X.coeffs.shape, m2.gs[0].shape):
        raise DimensionMismatchError("the classes stack their factors or slice points differently")


def u_equivalence_residual(m1: UClass, m2: UClass) -> float:
    """Numeric violation of the equivalence relation between two
    representatives: the max of the slice-part difference, the scaled
    commutators [u_i, X], and |prod u_i - 1| scaled by prod max(1, |u_i|)
    (largest entries), where u_i = h_i^{-1} g_i for incoming factors and
    g_i h_i^{-1} for outgoing ones.  Zero (up to roundoff) iff the
    representatives define the same class.  Of two stacked classes, one
    residual per trial."""
    if (m1.b, m1.bprime) != (m2.b, m2.bprime):
        raise SignatureError("signatures differ")
    _check_pair(m1, m2)
    residual = _largest(m1.X.coeffs - m2.X.coeffs, axes=1)
    x = slice_embed(m1.X)
    x_scale = _at_least(_largest(x))
    prod = eye = np.eye(m1.X.k, dtype=complex)
    scale = 1.0
    for i in range(m1.n_factors):
        if m1.orientation(i) == INCOMING:
            u = np.linalg.inv(m2.gs[i]) @ m1.gs[i]
        else:
            u = m1.gs[i] @ np.linalg.inv(m2.gs[i])
        u_scale = _at_least(_largest(u))  # as in `_centralizer_residual`, X's scale taken once
        residual = _at_least(_largest(commutator(u, x)) / (x_scale * u_scale), residual)
        prod = prod @ u
        scale = scale * u_scale
    residual = _at_least(_largest(prod - eye) / scale, residual)
    return float(residual) if residual.ndim == 0 else residual


def u_equivalent(m1: UClass, m2: UClass) -> bool:
    """Whether two representatives define the same class.  Z(X) is abelian
    for regular X, so the product order in the relation is immaterial."""
    return u_equivalence_residual(m1, m2) <= EQUIV_TOL


def u_moment(m: UClass, i: int) -> Matrix:
    """Moment map of the i-th boundary factor; independent of the chosen
    representative."""
    orientation = m.orientation(i)  # checks i before the factor is read
    return _moment(m.gs[i], slice_embed(m.X), orientation)


def axiom_d_residual(m: UClass) -> float | np.ndarray:
    """Max spread of the invariant polynomial values over all boundary
    moments: P(mu_i) must equal P(mu_j) and P(-mu'_l) for every generator.
    Of a stacked class, one spread per trial."""
    return _invariant_spread(_signed_moments(m))


def _signed_moments(m: UClass) -> list[Matrix]:
    """mu_i for incoming factors and -mu'_l for outgoing ones."""
    mus = (u_moment(m, i) for i in range(m.n_factors))
    return [mu if m.orientation(i) == INCOMING else -mu for i, mu in enumerate(mus)]


def _invariant_spread(moments: Sequence[Matrix]) -> float | np.ndarray:
    """Largest difference of the power traces of any moment from those of
    the first; of stacked moments, one per trial."""
    arr = power_traces(np.array(moments))
    spread = np.max(np.abs(arr - arr[0]), axis=(0, -1))
    return float(spread) if spread.ndim == 0 else spread


def g_action(m: UClass, i: int, g0: Matrix) -> UClass:
    """Boundary group action on factor i; the moment map transforms by
    Ad(g0) for both orientations."""
    orientation = m.orientation(i)  # checks i before the factor is read
    gs = list(m.gs)
    gs[i] = _act(gs[i], g0, orientation)
    return replace(m, gs=tuple(gs))


def perm_action(
    m: UClass, sigma: Sequence[int], tau: Sequence[int]
) -> UClass:
    """Permute incoming factors by sigma and outgoing factors by tau;
    sigma[i] is the source index of the new i-th factor."""
    sigma = list(sigma)
    tau = list(tau)
    if sorted(sigma) != list(range(m.b)) or sorted(tau) != list(range(m.bprime)):
        raise ValidationError("invalid permutation")
    gs_in = [m.gs[sigma[i]] for i in range(m.b)]
    gs_out = [m.gs[m.b + tau[i]] for i in range(m.bprime)]
    return replace(m, gs=tuple(gs_in + gs_out))


def u_symplectic(m: UClass, u: UTangent, v: UTangent) -> complex:
    """The quotient symplectic form: per-factor canonical forms sharing the
    single slice velocity, summed factor by factor (over a stack, pointwise)."""
    if len(u.a_list) != m.n_factors or len(v.a_list) != m.n_factors:
        raise ValidationError("tangent factor count mismatch")
    slice_mats = _slice_matrices(m.X, u.dc, v.dc)
    return sum(
        _canonical_form(m.gs[i], m.orientation(i), slice_mats, u.a_list[i], v.a_list[i])
        for i in range(m.n_factors)
    )


def u_symplectic_single_slice_form(m: UClass, u: UTangent, v: UTangent) -> complex:
    """The same form coded the other way round: one dX-pairing against the
    summed logarithmic directions plus per-factor curvature terms.  Used as
    an algebraic cross-check against `u_symplectic`."""
    x, dxu, dxv = _slice_matrices(m.X, u.dc, v.dc)
    sum_in_u = np.zeros_like(x)
    sum_in_v = np.zeros_like(x)
    sum_out_u = np.zeros_like(x)
    sum_out_v = np.zeros_like(x)
    curvature = 0.0 + 0.0j
    for i in range(m.n_factors):
        if m.orientation(i) == INCOMING:
            sum_in_u = sum_in_u + u.a_list[i]
            sum_in_v = sum_in_v + v.a_list[i]
            curvature += pairing(x, commutator(u.a_list[i], v.a_list[i]))
        else:
            g = m.gs[i]
            ginv = np.linalg.inv(g)
            bu = g @ u.a_list[i] @ ginv
            bv = g @ v.a_list[i] @ ginv
            sum_out_u = sum_out_u + bu
            sum_out_v = sum_out_v + bv
            curvature -= pairing(x, commutator(bu, bv))
    term = (
        pairing(sum_in_u, dxv)
        - pairing(sum_in_v, dxu)
        + pairing(sum_out_u, dxv)
        - pairing(sum_out_v, dxu)
    )
    return term + curvature


def _match_moments(m1: UClass, p_out: int, m2: UClass, q_in: int) -> None:
    """Raise GluingError unless the moment of factor p_out of m1 is minus
    that of factor q_in of m2; of stacked classes, trial by trial, each
    against its own scale max(1, |mu1|)."""
    _check_pair(m1, m2)
    mu1 = u_moment(m1, p_out)
    mu2 = u_moment(m2, q_in)
    if np.count_nonzero(_largest(mu1 + mu2) > GLUE_TOL * _at_least(_largest(mu1))):
        raise GluingError("boundary moments do not match")


def glue(m1: UClass, p_out: int, m2: UClass, q_in: int, receiver: int = 0) -> UClass:
    """Symplectic quotient gluing: match the outgoing factor `p_out` of m1
    against the incoming factor `q_in` of m2.

    The moment condition forces the slice parts equal and
    u = g_{p'} h_q in Z(X); after gauge-fixing g_{p'} = 1 the leftover u is
    pushed through the equivalence relation into the factor `receiver` of
    the glued tuple (incoming factors absorb it on the right, outgoing ones
    on the left), and the matched factors are dropped.  The resulting class
    is independent of the receiving factor.  Of two stacked classes, one
    glued class per trial; the stack is refused if any trial is.
    """
    if not (m1.b <= p_out < m1.n_factors):
        raise SignatureError("p_out must index an outgoing factor of m1")
    if not (0 <= q_in < m2.b):
        raise SignatureError("q_in must index an incoming factor of m2")
    _match_moments(m1, p_out, m2, q_in)
    if np.count_nonzero(_largest(m1.X.coeffs - m2.X.coeffs, axes=1) > GLUE_TOL):
        raise GluingError("slice parts differ despite matched moments")
    x = slice_embed(m1.X)
    u = m1.gs[p_out] @ m2.gs[q_in]
    if np.count_nonzero(_centralizer_residual(u, x) > GLUE_TOL):
        raise GluingError("matched factors do not combine to a centralizer element")

    new_b = m1.b + m2.b - 1
    new_bprime = m1.bprime + m2.bprime - 1
    if new_b + new_bprime < 1:
        raise GluingError(
            "gluing a (0,1) against a (1,0) leaves no factors; "
            "use w00_from_glue for the closed-surface point"
        )
    if not 0 <= receiver < new_b + new_bprime:
        raise ValidationError(f"receiver {receiver} out of range")
    gs = (
        list(m1.gs[: m1.b])
        + [g for i, g in enumerate(m2.gs[: m2.b]) if i != q_in]
        + [g for i, g in enumerate(m1.gs) if i >= m1.b and i != p_out]
        + list(m2.gs[m2.b :])
    )
    gs[receiver] = _absorb(gs[receiver], u, INCOMING if receiver < new_b else OUTGOING)
    return UClass(b=new_b, bprime=new_bprime, gs=tuple(gs), X=m1.X)


def w00_from_glue(m_out: UClass, m_in: UClass) -> W00Point:
    """Glue a (0,1) class against a (1,0) class with matching moments down to
    the closed-surface point (g, X) with Ad(g) X = X."""
    if (m_out.b, m_out.bprime) != (0, 1) or (m_in.b, m_in.bprime) != (1, 0):
        raise SignatureError("need a (0,1) class and a (1,0) class")
    _match_moments(m_out, 0, m_in, 0)
    w = m_out.gs[0] @ m_in.gs[0]
    return W00Point(g=w, X=m_in.X)


def u11_to_tstar(m: UClass) -> tuple[Matrix, Matrix]:
    """The isomorphism of a (1,1) class with a cotangent-bundle point:
    (g1, g2, X) -> (g1 g2, Ad(g1) X); constant on equivalence classes."""
    if (m.b, m.bprime) != (1, 1):
        raise SignatureError("signature must be (1,1)")
    g1, g2 = m.gs
    return g1 @ g2, _moment(g1, slice_embed(m.X), INCOMING)


@lru_cache(maxsize=None)
def _cyclic_candidates(k: int) -> np.ndarray:
    """The k + 4 candidate vectors of `_cyclic_frame`: e_1..e_k, then four seeded random v."""
    rng = np.random.default_rng(12345)
    candidates = list(np.eye(k, dtype=complex))
    candidates += [rng.standard_normal(k) + 1j * rng.standard_normal(k) for _ in range(4)]
    return np.array(candidates)


def _cyclic_frame(x: Matrix) -> Matrix:
    """The Krylov frame (v, Xv, ..., X^(k-1) v) of a regular matrix with the largest smallest
    singular value over the k + 4 candidates, built as one stack (first wins ties); of a
    stack of matrices, one frame each, refused if any matrix has no usable candidate."""
    frames = _krylov_frame(x[..., None, :, :], _cyclic_candidates(x.shape[-1]))
    sigma = np.linalg.svd(frames, compute_uv=False)[..., -1]
    best = sigma.argmax(axis=-1)
    pick = (*np.indices(best.shape, sparse=True), best)  # each matrix's best candidate
    if (sigma[pick] <= 1e-13).any():
        raise SingularMatrixError("no usable cyclic vector: matrix not regular?")
    return frames[pick]


def u11_from_tstar(g: Matrix, y: Matrix) -> UClass:
    """Explicit inverse of `u11_to_tstar` on (g, regular Y); of stacks of g and
    Y, one stacked class."""
    y = as_matrix(y, stacked=1)
    g = as_matrix(g, stacked=1)
    check_same_size(g, y)
    x = slice_representative(y)
    # both frames satisfy  M b = b K  with the same companion K, so
    # g1 = b_y b_x^{-1} conjugates slice_embed(x) to y
    g1 = _cyclic_frame(y) @ np.linalg.inv(_slice_frame(x))
    g2 = np.linalg.inv(g1) @ g
    return UClass(b=1, bprime=1, gs=(g1, g2), X=x)


def sl_membership(m: UClass) -> bool:
    """Whether the class lies in the special-linear subfamily: trace-free X
    (to 1e-10) and unit determinant product (to 1e-9; outgoing factors
    contribute det^{-1})."""
    x = slice_embed(m.X)
    if abs(np.trace(x)) > 1e-10:
        return False
    prod = 1.0 + 0.0j
    for i in range(m.n_factors):
        d = np.linalg.det(m.gs[i])
        prod *= d if m.orientation(i) == INCOMING else 1.0 / d
    return abs(prod - 1.0) <= 1e-9


def phi_e_class(m: UClass) -> UClass:
    """Factor-wise orientation reversal on a class: the last incoming factor
    becomes the last outgoing one via g -> p theta(g)^{-1} p^{-1}; the slice
    part is fixed.  Anti-equivariant with the conjugated involution on the
    moved factor and plainly equivariant on the untouched ones."""
    if m.b < 1:
        raise SignatureError("need an incoming factor to move")
    gs = list(m.gs[: m.b - 1]) + list(m.gs[m.b :]) + [_reverse(m.gs[m.b - 1])]
    return UClass(b=m.b - 1, bprime=m.bprime + 1, gs=tuple(gs), X=m.X)


def a0_action(element, m: UClass) -> UClass:
    """Factor-wise abelian action on a class: factor i moves by
    exp(C_{P_i}(X)) on its action side.  For a sum-zero tuple (the diagonal
    quotient group) the result is equivalent to the input."""
    if element.n_factors != m.n_factors:
        raise ValidationError("polynomial tuple length does not match factors")
    x = slice_embed(m.X)
    gs = list(m.gs)
    for i, summands in enumerate(element.factors):
        u = expm(gradient_of_combination(summands, x))
        gs[i] = _absorb(gs[i], u, m.orientation(i))
    return replace(m, gs=tuple(gs))

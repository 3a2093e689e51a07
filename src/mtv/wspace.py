"""The building blocks W^{1,0} and W^{0,1}: group x slice with symplectic
form, group and abelian actions, moment maps, and the orientation-reversal
map phi used by the gluing axioms.

Tangent vectors are stored in left-logarithmic coordinates: a = g^{-1} dg
together with a slice-coefficient velocity dc, so slice directions stay
tangent to the slice automatically.

The symplectic form implemented here is the canonical one,

    omega(u, v) = <a_u, dX_v> - <a_v, dX_u> + <X, [a_u, a_v]>      (incoming)

(equivalently -d<X, g^{-1}dg>), for which the left action is Hamiltonian
with moment map mu(g, X) = g X g^{-1}.  The "moment wedge" variant
<dg g^{-1} ^ d(Ad(g) X)> evaluated with the naive alternating-sum wedge
differs from it by exactly the Maurer-Cartan term <X, [a_u, a_v]>; both
variants are exposed so the discrepancy can be pinned down in tests.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np
from scipy.linalg import expm

from .errors import SignatureError, SingularMatrixError, ValidationError
from .lie import (
    InvariantPolynomial,
    Matrix,
    as_matrix,
    check_same_size,
    commutator,
    gradient_of_combination,
    pairing,
    power_traces,
)
from .slodowy import SlicePoint, _add_f_powers, slice_embed

INCOMING: Literal["in"] = "in"
OUTGOING: Literal["out"] = "out"

# |det g| below this is treated as singular.
DET_TOL = 1e-12


def _group_element(g, stacked: int = 0) -> Matrix:
    """g as a matrix, or also as a stack of them along up to `stacked` leading
    axes; raises SingularMatrixError when some |det g| < DET_TOL."""
    g = as_matrix(g, stacked)
    det = abs(np.linalg.det(g))
    if (det.min() if det.ndim else det) < DET_TOL:
        raise SingularMatrixError("group element is numerically singular")
    return g


def _act(g: Matrix, h: Matrix, orientation: str) -> Matrix:
    """h acting on the factor g: h g if incoming, g h^{-1} if outgoing; a
    stack of factors g takes one h or a stack of them."""
    h = _group_element(h, stacked=g.ndim - 2)
    check_same_size(g, h)
    if orientation == INCOMING:
        return h @ g
    return g @ np.linalg.inv(h)


def _absorb(g: Matrix, u: Matrix, orientation: str) -> Matrix:
    """The factor g absorbing u: g u if incoming, u g if outgoing."""
    if orientation == INCOMING:
        return g @ u
    return u @ g


class _Signature:
    """Signature (b, b'): b incoming factors, then b' outgoing ones."""

    def __post_init__(self):
        if self.b < 0 or self.bprime < 0 or self.b + self.bprime < 1:
            raise SignatureError("need b, b' >= 0 with b + b' >= 1")

    @property
    def n_factors(self) -> int:
        return self.b + self.bprime

    def orientation(self, i: int) -> str:
        if not 0 <= i < self.n_factors:
            raise ValidationError(f"factor index {i} out of range")
        return INCOMING if i < self.b else OUTGOING


@dataclass(frozen=True)
class WPoint:
    g: Matrix
    X: SlicePoint
    orientation: str

    def __post_init__(self):
        if self.orientation not in (INCOMING, OUTGOING):
            raise ValidationError("orientation must be 'in' or 'out'")
        g = _group_element(self.g, stacked=1)
        if g.shape[-1] != self.X.k:
            raise ValidationError("group element and slice point sizes differ")
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class WTangent:
    """Left-logarithmic direction a = g^{-1} dg and slice velocity dc, or a
    stack of them: a (n, k, k) and dc (n, k)."""

    a: Matrix
    dc: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        dc = np.asarray(self.dc, dtype=complex)
        if a.ndim not in (2, 3) or dc.shape != a.shape[:-1]:
            raise ValidationError("dc must have length k")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dc", dc)


def slice_direction(x: SlicePoint, dc: np.ndarray) -> Matrix:
    """dX = sum_j dc_j f^j, the embedded slice velocity; dc is shaped like the
    coefficients of x, (k,) or (n, k) for a stack of n points."""
    dc = np.asarray(dc, dtype=complex)
    if dc.shape != x.coeffs.shape:
        raise ValidationError(f"need velocities of shape {x.coeffs.shape}, got {dc.shape}")
    return _add_f_powers(np.zeros(x.coeffs.shape[:-1] + (x.k, x.k), dtype=complex), dc)


def _slice_matrices(x: SlicePoint, dc_u, dc_v) -> tuple[Matrix, Matrix, Matrix]:
    """The slice matrix X and the two slice velocities dX_u, dX_v."""
    return slice_embed(x), slice_direction(x, dc_u), slice_direction(x, dc_v)


def _moment(g: Matrix, x: Matrix, orientation: str) -> Matrix:
    """The moment map of one boundary factor g at the matrix X:
    g X g^{-1} for incoming, -g^{-1} X g for outgoing."""
    if orientation == INCOMING:
        return g @ x @ np.linalg.inv(g)
    return -np.linalg.inv(g) @ x @ g


def w_moment(p: WPoint) -> Matrix:
    """mu(g, X) = g X g^{-1} for incoming, -g^{-1} X g for outgoing."""
    return _moment(p.g, slice_embed(p.X), p.orientation)


def _form_directions(
    g: Matrix, orientation: str, a_u: Matrix, a_v: Matrix
) -> tuple[Matrix, Matrix, int]:
    """The group directions the canonical form pairs, with the sign of its
    curvature term: (a_u, a_v, +1) on an incoming factor g.  An outgoing
    factor uses the right-logarithmic (Ad(g) a_u, Ad(g) a_v, -1), so that the
    right action g -> g g0^{-1} has moment -Ad(g^{-1}) X."""
    a_u, a_v = np.asarray(a_u, dtype=complex), np.asarray(a_v, dtype=complex)
    if orientation == INCOMING:
        return a_u, a_v, 1
    ginv = np.linalg.inv(g)
    return g @ a_u @ ginv, g @ a_v @ ginv, -1


def _canonical_form(g: Matrix, orientation: str, slice_mats, a_u: Matrix, a_v: Matrix) -> complex:
    """The canonical form on one factor g, given the logarithmic directions
    a_u, a_v and the `_slice_matrices` (X, dX_u, dX_v); pointwise on stacks."""
    x, dxu, dxv = slice_mats
    au, av, sign = _form_directions(g, orientation, a_u, a_v)
    return (
        pairing(au, dxv)
        - pairing(av, dxu)
        + sign * pairing(x, commutator(au, av))
    )


def w_symplectic(p: WPoint, u: WTangent, v: WTangent) -> complex:
    """The canonical symplectic form evaluated on two tangents at p."""
    return _canonical_form(p.g, p.orientation, _slice_matrices(p.X, u.dc, v.dc), u.a, v.a)


def w_symplectic_bracket_form(p: WPoint, u: WTangent, v: WTangent) -> complex:
    """-<dX ^ g^{-1}dg> + <X, (g^{-1}dg ^ g^{-1}dg)> with the matrix-product
    wedge (alpha ^ alpha)(u, v) = [alpha(u), alpha(v)].  Agrees with
    `w_symplectic` identically; kept as an independent coding of the same
    convention for the cross-check suite."""
    x, dxu, dxv = _slice_matrices(p.X, u.dc, v.dc)
    if p.orientation == INCOMING:
        au, av = u.a, v.a
        term_dx = pairing(dxu, av) - pairing(dxv, au)
        return -term_dx + pairing(x, commutator(au, av))
    ginv = np.linalg.inv(p.g)
    bu = p.g @ u.a @ ginv
    bv = p.g @ v.a @ ginv
    term_dx = pairing(dxu, bv) - pairing(dxv, bu)
    return -term_dx - pairing(x, commutator(bu, bv))


def w_symplectic_moment_wedge(p: WPoint, u: WTangent, v: WTangent) -> complex:
    """<dg g^{-1} ^ d mu> (incoming) / <g^{-1}dg ^ d mu'>-style (outgoing)
    taken literally with the alternating-sum wedge.  Differs from the
    canonical form by the Maurer-Cartan term; see `maurer_cartan_term`."""
    x, dxu, dxv = _slice_matrices(p.X, u.dc, v.dc)
    if p.orientation == INCOMING:
        au, av = u.a, v.a
        dmu_u = dxu + commutator(au, x)
        dmu_v = dxv + commutator(av, x)
        return pairing(au, dmu_v) - pairing(av, dmu_u)
    ginv = np.linalg.inv(p.g)
    nu = ginv @ x @ p.g
    au, av = u.a, v.a
    dnu_u = ginv @ dxu @ p.g - commutator(au, nu)
    dnu_v = ginv @ dxv @ p.g - commutator(av, nu)
    return pairing(au, dnu_v) - pairing(av, dnu_u)


def maurer_cartan_term(p: WPoint, u: WTangent, v: WTangent) -> complex:
    """The exact discrepancy w_symplectic_moment_wedge - w_symplectic."""
    x = slice_embed(p.X)
    au, av, sign = _form_directions(p.g, p.orientation, u.a, v.a)
    return sign * pairing(x, commutator(au, av))


def g_act_w(p: WPoint, g0: Matrix) -> WPoint:
    """Boundary group action: left translation on incoming, inverse right
    translation on outgoing; the moment map transforms by Ad(g0) either way."""
    return replace(p, g=_act(p.g, g0, p.orientation))


def a_action(
    summands: tuple[InvariantPolynomial, ...] | list[InvariantPolynomial],
    p: WPoint,
) -> WPoint:
    """Abelian action of a polynomial combination P: right multiplication by
    exp(C_P(X)) on incoming points, left multiplication on outgoing ones."""
    x = slice_embed(p.X)
    c = gradient_of_combination(summands, x)
    return replace(p, g=_absorb(p.g, expm(c), p.orientation))


def a_moment(p: WPoint) -> np.ndarray:
    """Abelian moment coordinates (P_1(X), ..., P_k(X)); independent of g."""
    return power_traces(slice_embed(p.X))


def theta(m: Matrix, kind: str = "algebra") -> Matrix:
    """The type-A involution for the diagonal Cartan: -A^T on the algebra,
    inverse transpose on the group; of a stack (n, k, k), one per matrix."""
    if kind == "algebra":
        return -as_matrix(m, stacked=1).swapaxes(-1, -2)
    if kind == "group":
        return np.linalg.inv(_group_element(m, stacked=1)).swapaxes(-1, -2)
    raise ValidationError("kind must be 'algebra' or 'group'")


def opposite_slice_conjugator(k: int) -> Matrix:
    """The intertwiner p with p e' p^{-1} = e, p h' p^{-1} = h, p f' p^{-1} = f,
    where (e', h', f') = (e^T, -h, f^T) is the opposite principal triple: the
    reversal permutation J, exact in integer arithmetic and its own inverse.
    It maps the opposite slice onto the slice, preserving slice coefficients."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return np.eye(k, dtype=complex)[::-1].copy()


def theta_twisted(g: Matrix, kind: str = "algebra") -> Matrix:
    """The involution Ad(p) o theta appearing in the orientation-reversal
    equivariance law; p is the opposite-slice conjugator J, so this is
    theta(g) with rows and columns reversed, per matrix of a stack."""
    return theta(g, kind)[..., ::-1, ::-1].copy()


def _reverse(a: Matrix) -> Matrix:
    """J a^T J, the flip of a about its antidiagonal, as a new array: the
    orientation reversal of a group factor, g -> p theta(g)^{-1} p^{-1}, and
    of the slice matrix, X -> -Ad(p) theta(X).  An involution that fixes
    every slice matrix exactly; per matrix of a stack."""
    return a.swapaxes(-1, -2)[..., ::-1, ::-1].copy()


def phi_E(p: WPoint) -> WPoint:
    """Orientation reversal W^{1,0} -> W^{0,1}: (g, X) -> (p theta(g)^{-1}
    p^{-1}, -Ad(p) theta(X)) = (_reverse(g), X), as `_reverse` fixes X."""
    if p.orientation != INCOMING:
        raise ValidationError("phi_E expects an incoming point")
    return WPoint(g=_reverse(p.g), X=p.X, orientation=OUTGOING)


def phi_E_inverse(p: WPoint) -> WPoint:
    """Inverse of phi_E: outgoing -> incoming.  `_reverse` is an involution,
    so this is the same map."""
    if p.orientation != OUTGOING:
        raise ValidationError("phi_E_inverse expects an outgoing point")
    return WPoint(g=_reverse(p.g), X=p.X, orientation=INCOMING)

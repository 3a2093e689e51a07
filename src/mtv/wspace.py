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

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np
from scipy.linalg import expm

from .errors import SingularMatrixError, ValidationError
from .lie import (
    InvariantPolynomial,
    Matrix,
    as_matrix,
    commutator,
    gradient_of_combination,
    nullspace,
    pairing,
    power_traces,
)
from .slodowy import (
    SlicePoint,
    _f_powers,
    principal_triple,
    slice_embed,
    slice_representative,
)

INCOMING: Literal["in"] = "in"
OUTGOING: Literal["out"] = "out"

# |det g| below this is treated as singular.
DET_TOL = 1e-12


@dataclass(frozen=True)
class WPoint:
    g: Matrix
    X: SlicePoint
    orientation: str

    def __post_init__(self):
        g = as_matrix(self.g)
        if self.orientation not in (INCOMING, OUTGOING):
            raise ValidationError("orientation must be 'in' or 'out'")
        if g.shape[0] != self.X.k:
            raise ValidationError("group element and slice point sizes differ")
        if abs(np.linalg.det(g)) < DET_TOL:
            raise SingularMatrixError("group element is numerically singular")
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class WTangent:
    """Left-logarithmic direction a = g^{-1} dg and slice velocity dc."""

    a: Matrix
    dc: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        dc = np.asarray(self.dc, dtype=complex)
        if dc.shape != (a.shape[0],):
            raise ValidationError("dc must have length k")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dc", dc)


def slice_direction(x: SlicePoint, dc: np.ndarray) -> Matrix:
    """dX = sum_j dc_j f^j, the embedded slice velocity."""
    fp = _f_powers(x.k)
    out = np.zeros((x.k, x.k), dtype=complex)
    for j, d in enumerate(np.asarray(dc, dtype=complex)):
        out = out + d * fp[j]
    return out


def _moment(g: Matrix, x: Matrix, orientation: str) -> Matrix:
    """The moment map of one boundary factor g at the matrix X:
    g X g^{-1} for incoming, -g^{-1} X g for outgoing."""
    if orientation == INCOMING:
        return g @ x @ np.linalg.inv(g)
    return -np.linalg.inv(g) @ x @ g


def w_moment(p: WPoint) -> Matrix:
    """mu(g, X) = g X g^{-1} for incoming, -g^{-1} X g for outgoing."""
    return _moment(p.g, slice_embed(p.X), p.orientation)


def w_symplectic(p: WPoint, u: WTangent, v: WTangent) -> complex:
    """The canonical symplectic form evaluated on two tangents at p."""
    x = slice_embed(p.X)
    dxu = slice_direction(p.X, u.dc)
    dxv = slice_direction(p.X, v.dc)
    if p.orientation == INCOMING:
        au, av = u.a, v.a
        return (
            pairing(au, dxv)
            - pairing(av, dxu)
            + pairing(x, commutator(au, av))
        )
    # Outgoing: right-logarithmic components b = Ad(g) a, opposite curvature
    # sign, so that the right action g -> g g0^{-1} has moment -Ad(g^{-1})X.
    ginv = np.linalg.inv(p.g)
    bu = p.g @ u.a @ ginv
    bv = p.g @ v.a @ ginv
    return (
        pairing(bu, dxv)
        - pairing(bv, dxu)
        - pairing(x, commutator(bu, bv))
    )


def w_symplectic_bracket_form(p: WPoint, u: WTangent, v: WTangent) -> complex:
    """-<dX ^ g^{-1}dg> + <X, (g^{-1}dg ^ g^{-1}dg)> with the matrix-product
    wedge (alpha ^ alpha)(u, v) = [alpha(u), alpha(v)].  Agrees with
    `w_symplectic` identically; kept as an independent coding of the same
    convention for the cross-check suite."""
    x = slice_embed(p.X)
    dxu = slice_direction(p.X, u.dc)
    dxv = slice_direction(p.X, v.dc)
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
    x = slice_embed(p.X)
    dxu = slice_direction(p.X, u.dc)
    dxv = slice_direction(p.X, v.dc)
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
    if p.orientation == INCOMING:
        return pairing(x, commutator(u.a, v.a))
    ginv = np.linalg.inv(p.g)
    bu = p.g @ u.a @ ginv
    bv = p.g @ v.a @ ginv
    return -pairing(x, commutator(bu, bv))


def g_act_w(p: WPoint, g0: Matrix) -> WPoint:
    """Boundary group action: left translation on incoming, inverse right
    translation on outgoing; the moment map transforms by Ad(g0) either way."""
    g0 = as_matrix(g0)
    if abs(np.linalg.det(g0)) < DET_TOL:
        raise SingularMatrixError("acting element is singular")
    if p.orientation == INCOMING:
        return WPoint(g=g0 @ p.g, X=p.X, orientation=p.orientation)
    return WPoint(g=p.g @ np.linalg.inv(g0), X=p.X, orientation=p.orientation)


def a_action(
    summands: tuple[InvariantPolynomial, ...] | list[InvariantPolynomial],
    p: WPoint,
) -> WPoint:
    """Abelian action of a polynomial combination P: right multiplication by
    exp(C_P(X)) on incoming points, left multiplication on outgoing ones."""
    x = slice_embed(p.X)
    c = gradient_of_combination(summands, x)
    u = expm(c)
    if p.orientation == INCOMING:
        return WPoint(g=p.g @ u, X=p.X, orientation=p.orientation)
    return WPoint(g=u @ p.g, X=p.X, orientation=p.orientation)


def a_moment(p: WPoint) -> np.ndarray:
    """Abelian moment coordinates (P_1(X), ..., P_k(X)); independent of g."""
    return power_traces(slice_embed(p.X))


def theta(m: Matrix, kind: str = "algebra") -> Matrix:
    """The type-A involution for the diagonal Cartan: -A^T on the algebra,
    inverse transpose on the group."""
    m = as_matrix(m)
    if kind == "algebra":
        return -m.T
    if kind == "group":
        if abs(np.linalg.det(m)) < DET_TOL:
            raise SingularMatrixError("group involution needs invertible input")
        return np.linalg.inv(m).T
    raise ValidationError("kind must be 'algebra' or 'group'")


@lru_cache(maxsize=None)
def opposite_slice_conjugator(k: int) -> Matrix:
    """The intertwiner p with p e' p^{-1} = e, p h' p^{-1} = h, p f' p^{-1} = f,
    where (e', h', f') = (e^T-pattern ones superdiagonal, -h, f^T) is the
    opposite principal triple.  p maps the opposite slice onto the slice,
    preserving slice coefficients; unique up to scale (Schur), normalized so
    the first column's first nonzero entry is 1.  Cached per k.
    """
    t = principal_triple(k)
    e2 = t.e.T.copy()  # ones on the superdiagonal
    f2 = t.f.T.copy()
    h2 = -t.h
    eye = np.eye(k, dtype=complex)
    rows = []
    for a, b in ((e2, t.e), (h2, t.h), (f2, t.f)):
        # p a = b p  <=>  (I (x) a^T - b (x) I) vec(p) = 0  (row-major vec)
        rows.append(np.kron(eye, a.T) - np.kron(b, eye))
    system = np.vstack(rows)
    kernel = nullspace(system)
    if kernel.shape[0] != 1:
        raise ValidationError(
            f"intertwiner space has dimension {kernel.shape[0]}, expected 1"
        )
    p = kernel[0].reshape(k, k)
    first_col = p[:, 0]
    nz = np.nonzero(np.abs(first_col) > 1e-9 * np.max(np.abs(p)))[0]
    p = p / first_col[nz[0]]
    return p


def theta_twisted(g: Matrix, kind: str = "algebra") -> Matrix:
    """The involution Ad(p) o theta appearing in the orientation-reversal
    equivariance law; p is the opposite-slice conjugator."""
    g = as_matrix(g)
    k = g.shape[0]
    p = opposite_slice_conjugator(k)
    return p @ theta(g, kind) @ np.linalg.inv(p)


def _reverse(a: Matrix) -> Matrix:
    """p a^T p^{-1} with p the opposite-slice conjugator: the orientation
    reversal of a group factor, g -> p theta(g)^{-1} p^{-1}, and of the
    slice matrix, X -> -Ad(p) theta(X)."""
    conj = opposite_slice_conjugator(a.shape[0])
    return conj @ a.T @ np.linalg.inv(conj)


# Residual bound asserted before re-reading the slice part in phi_E.
PHI_SLICE_TOL = 1e-12


def phi_E(p: WPoint) -> WPoint:
    """Orientation reversal W^{1,0} -> W^{0,1}:
    (g, X) -> (p theta(g)^{-1} p^{-1}, slice part of -Ad(p) theta(X)).

    With the intertwining conjugator the slice part equals X exactly; the
    residual is asserted below tolerance before projecting back.
    """
    if p.orientation != INCOMING:
        raise ValidationError("phi_E expects an incoming point")
    x = slice_embed(p.X)
    mapped = _reverse(x)
    scale = max(1.0, float(np.max(np.abs(mapped))))
    if float(np.max(np.abs(mapped - x))) > PHI_SLICE_TOL * scale:
        raise ValidationError("slice part drifted off the slice in phi_E")
    new_x = slice_representative(mapped, check_regular=False)
    return WPoint(g=_reverse(p.g), X=new_x, orientation=OUTGOING)


def phi_E_inverse(p: WPoint) -> WPoint:
    """Inverse of phi_E: outgoing -> incoming, by the same closed formulas."""
    if p.orientation != OUTGOING:
        raise ValidationError("phi_E_inverse expects an outgoing point")
    k = p.X.k
    conj = opposite_slice_conjugator(k)
    conj_inv = np.linalg.inv(conj)
    x = slice_embed(p.X)
    mapped = (conj_inv @ x @ conj).T
    new_x = slice_representative(mapped, check_regular=False)
    new_g = (conj_inv @ p.g @ conj).T
    return WPoint(g=new_g, X=new_x, orientation=INCOMING)

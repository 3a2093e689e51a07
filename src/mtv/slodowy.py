"""Principal sl2 triples and the Slodowy slice e + Z(f) for gl(k, C).

Conventions: negative root spaces are lower triangular, so the regular
nilpotent e has ones on the first subdiagonal; h = diag(-(k-1), ..., k-1);
f sits on the superdiagonal with entries i*(k-i) making [e, f] = h exact in
integer arithmetic.  Z(f) is spanned by the powers f^0, ..., f^(k-1), which
makes the slice coordinates global and the map to characteristic data
triangular.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RegularityError, ValidationError
from .lie import Matrix, _krylov_frame, as_matrix, is_regular, power_traces

# Entrywise tolerance for slice membership tests.
SLICE_TOL = 1e-10


@dataclass(frozen=True)
class PrincipalTriple:
    e: Matrix
    h: Matrix
    f: Matrix


@lru_cache(maxsize=None)
def principal_triple(k: int) -> PrincipalTriple:
    """The principal triple (e, h, f) with e subdiagonal; exact brackets."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    e = np.zeros((k, k), dtype=complex)
    f = np.zeros((k, k), dtype=complex)
    for i in range(1, k):
        e[i, i - 1] = 1.0
        f[i - 1, i] = i * (k - i)
    h = np.diag(np.arange(-(k - 1), k, 2).astype(complex))
    return PrincipalTriple(e=e, h=h, f=f)


@lru_cache(maxsize=None)
def _f_powers(k: int) -> tuple[Matrix, ...]:
    """(f^0, f^1, ..., f^(k-1)) for the principal f of gl(k)."""
    f = principal_triple(k).f
    powers = [np.eye(k, dtype=complex)]
    for _ in range(k - 1):
        powers.append(powers[-1] @ f)
    return tuple(powers)


@lru_cache(maxsize=None)
def _f_power_entries(k: int) -> tuple[np.ndarray, ...]:
    """Rows, columns, powers j and values of the nonzero entries of the f^j;
    f^j lives on the j-th superdiagonal, so no two supports meet."""
    rows, cols = np.triu_indices(k)
    powers = cols - rows
    return rows, cols, powers, np.array(_f_powers(k))[powers, rows, cols]


@lru_cache(maxsize=None)
def _f_power_diagonals(k: int) -> tuple[np.ndarray, ...]:
    """Per power j = 0..k-1, the k - j entries of f^j, which fill its j-th superdiagonal."""
    return tuple(np.diagonal(fj, j).copy() for j, fj in enumerate(_f_powers(k)))


@lru_cache(maxsize=None)
def _trace_pivots(k: int) -> tuple[float, ...]:
    """Pivots beta_m = m * trace(f^(m-1) e^(m-1)), the coefficient of c_(m-1) in
    trace(S(c)^m), nonzero for m <= k; e^(m-1) is the unit (m-1)-th subdiagonal."""
    return tuple(float((m * d.sum()).real) for m, d in enumerate(_f_power_diagonals(k), 1))


@dataclass(frozen=True)
class SlicePoint:
    """Coefficients (c_0, ..., c_(k-1)) of e + sum_j c_j f^j in the slice, or a stack (n, k)."""

    k: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape[-1:] != (self.k,) or c.ndim > 2:
            raise ValidationError(
                f"need {self.k} coefficients, got shape {c.shape}"
            )
        if not np.isfinite(c).all():
            raise ValidationError("slice coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def matrix(self) -> Matrix:
        return slice_embed(self)


def slice_point(coeffs) -> SlicePoint:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return SlicePoint(k=c.shape[0], coeffs=c)


def _add_f_powers(out: Matrix, coeffs) -> Matrix:
    """Add sum_j coeffs_j f^j, coeffs (..., k), to `out` (..., k, k) in place."""
    rows, cols, powers, values = _f_power_entries(out.shape[-1])
    out.T[cols, rows] += (coeffs.T[powers].T * values).T  # transposed, a stack axis trails
    return out


def slice_embed(s: SlicePoint) -> Matrix:
    """e + sum_j c_j f^j as a dense matrix, one per point of a stack."""
    out = np.empty(s.coeffs.shape[:-1] + (s.k, s.k), dtype=complex)
    out[...] = principal_triple(s.k).e
    return _add_f_powers(out, s.coeffs)


def _slice_from_power_sums(target: np.ndarray, k: int) -> SlicePoint:
    """The slice point whose power traces are `target`, (k,) or a stack (n, k).

    trace(S(c)^m) = beta_m * c_(m-1) + (terms in c_0..c_(m-2)), a triangular
    system solved by forward substitution; S gains c_j f^j once c_j is known.
    """
    pivots = _trace_pivots(k)
    partial = np.empty(target.shape[:-1] + (k, k), dtype=complex)
    partial[...] = principal_triple(k).e
    flat = partial.reshape(target.shape[:-1] + (k * k,))  # a view
    coeffs = np.zeros(target.shape, dtype=complex)
    for m, values in enumerate(_f_power_diagonals(k), 1):
        t_m = np.trace(np.linalg.matrix_power(partial, m), axis1=-2, axis2=-1)
        c = coeffs.T[m - 1] = (target.T[m - 1] - t_m) / pivots[m - 1]  # a stack axis trails
        # superdiagonal m - 1 of each partial, a view of its flat entries
        flat[..., m - 1 : k * (k - m + 1) : k + 1] += c[..., None] * values
    return SlicePoint(k=k, coeffs=coeffs)


def slice_representative(x: Matrix) -> SlicePoint:
    """The unique slice point whose embedded matrix has the characteristic
    polynomial of X; of a stack (n, k, k), one point per matrix, refused if
    any matrix is not regular.

    Works through power traces (see `_slice_from_power_sums`).
    """
    x = as_matrix(x, stacked=1)
    if not np.asarray(is_regular(x)).all():
        raise RegularityError("slice representative requires a regular matrix")
    return _slice_from_power_sums(power_traces(x), x.shape[-1])


def _slice_frame(s: SlicePoint) -> Matrix:
    """The Krylov frame (e_1, X e_1, ..., X^(k-1) e_1) of the slice matrix X,
    one per point of a stack.  X is e plus an upper triangular matrix, so the
    frame is unit upper triangular: e_1 is cyclic for every slice matrix."""
    return _krylov_frame(slice_embed(s), np.eye(s.k, dtype=complex)[0])


def slice_coefficients_from_roots(roots: np.ndarray, k: int) -> SlicePoint:
    """Slice point with characteristic polynomial prod (t - root_i).

    `roots` lists eigenvalues with multiplicity, length k, or is a stack
    (n, k) of such lists; their exact power sums go through the same solve
    as `slice_representative`, one point per list.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape[-1:] != (k,) or roots.ndim > 2:
        raise ValidationError("need k roots with multiplicity")
    sums = np.array([np.sum(roots**m, axis=-1) for m in range(1, k + 1)])
    return _slice_from_power_sums(sums.T, k)


def slice_project(x: Matrix) -> tuple[SlicePoint, float]:
    """Orthogonal coefficients of X - e against the f-power basis, plus the
    entrywise residual of the reconstruction."""
    x = as_matrix(x)
    k = x.shape[0]
    fp = _f_powers(k)
    y = x - principal_triple(k).e
    coeffs = np.empty(k, dtype=complex)
    for j in range(k):
        basis = fp[j]
        coeffs[j] = np.vdot(basis, y) / np.vdot(basis, basis)
    point = SlicePoint(k=k, coeffs=coeffs)
    residual = float(np.max(np.abs(slice_embed(point) - x)))
    return point, residual


def is_in_slice(x: Matrix) -> bool:
    """True iff X - e lies in span{f^j} entrywise up to SLICE_TOL (relative
    to max(1, largest |entry|))."""
    try:
        _, residual = slice_project(x)
    except ValidationError:
        return False
    scale = max(1.0, float(np.max(np.abs(x))))
    return residual <= SLICE_TOL * scale

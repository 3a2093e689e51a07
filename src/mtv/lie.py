"""Complex matrix Lie algebra primitives for gl(k, C) and sl(k, C).

The invariant pairing is realized as trace(XY).  On sl(k) the Killing form
is 2k * trace(XY); every identity used downstream is homogeneous in the
pairing, so the proportionality constant is irrelevant and the trace form
is the cheaper choice.

The invariant polynomial algebra of gl(k) is generated by the power traces
P_m(X) = trace(X^m), m = 1..k; these polarize in closed form, which is what
`polarized_gradient` returns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

# Relative singular-value cutoff for numerical rank/kernel decisions.
# Desk scale (k <= 6) with well-conditioned random inputs.
RANK_TOL = 1e-9

Matrix = np.ndarray


def as_matrix(entries, stacked: int = 0) -> Matrix:
    """Coerce to a square complex matrix, or also to a stack of them along up
    to `stacked` leading axes, and validate finiteness."""
    x = np.asarray(entries, dtype=complex)
    if not 2 <= x.ndim <= 2 + stacked or x.shape[-1] != x.shape[-2] or x.shape[-1] < 1:
        raise ValidationError(f"expected a square matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("matrix entries must be finite")
    return x


def check_same_size(x: Matrix, y: Matrix) -> int:
    if x.shape[-2:] != y.shape[-2:]:
        raise DimensionMismatchError(f"size mismatch: {x.shape} vs {y.shape}")
    return x.shape[-1]


def pairing(x: Matrix, y: Matrix) -> complex | np.ndarray:
    """Invariant bilinear form <X, Y> = trace(XY); symmetric and ad-invariant.
    Either may be a stack (n, k, k), giving the n values as an array."""
    check_same_size(x, y)
    values = np.trace(x @ y, axis1=-2, axis2=-1)
    return complex(values) if values.ndim == 0 else values


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return x @ y - y @ x


@dataclass(frozen=True)
class InvariantPolynomial:
    """A scalar multiple of the power trace P_m(X) = trace(X^m)."""

    degree: int
    coefficient: complex = 1.0

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("polynomial degree must be >= 1")


def inv_poly_eval(p: InvariantPolynomial, x: Matrix) -> complex:
    """Evaluate coefficient * trace(X^m); conjugation invariant."""
    x = np.asarray(x, dtype=complex)
    if p.degree > x.shape[0]:
        raise ValidationError(
            f"degree {p.degree} exceeds matrix size {x.shape[0]}"
        )
    return p.coefficient * complex(np.trace(np.linalg.matrix_power(x, p.degree)))


def polarized_gradient(p: InvariantPolynomial, x: Matrix) -> Matrix:
    """The element C_P(X) with <C_P(X), Y> = deg(P) * p(X, ..., X, Y) for all Y.

    For P = c * trace(X^m) the closed form is c * m * X^(m-1); the defining
    identity against the symmetrized multilinear form is exercised in tests.
    """
    x = np.asarray(x, dtype=complex)
    return p.coefficient * p.degree * np.linalg.matrix_power(x, p.degree - 1)


def power_traces(x: Matrix) -> np.ndarray:
    """(trace X, trace X^2, ..., trace X^k); of a stack (..., k, k), one such
    row per matrix."""
    k = x.shape[-1]
    out = np.empty(x.shape[:-2] + (k,), dtype=complex)
    acc = np.eye(k, dtype=complex)
    for m in range(k):
        acc = acc @ x
        out[..., m] = np.trace(acc, axis1=-2, axis2=-1)
    return out


def _krylov_frame(x: Matrix, v: np.ndarray) -> Matrix:
    """The k x k matrix with columns v, Xv, ..., X^(k-1) v; of broadcast stacks (..., k, k) and
    (..., k), one frame each, by one mat-vec per vector (a gemm X @ W rounds differently)."""
    k = x.shape[-1]
    frame = np.empty(np.broadcast(x[..., 0, 0], v[..., 0]).shape + (k, k), dtype=complex)
    w = v
    for j in range(k):
        frame[..., j] = w
        w = (x @ w[..., None])[..., 0]
    return frame


def ad_operator(x: Matrix) -> Matrix:
    """The k^2 x k^2 matrix kron(X, I) - kron(I, X^T) of Y -> XY - YX on row-major
    vec(Y); of a stack (..., k, k), one per matrix."""
    k = x.shape[-1]
    eye = np.eye(k, dtype=complex)
    return (x[..., :, None, :, None] * eye[None, :, None, :] - eye[:, None, :, None]
            * x.swapaxes(-1, -2)[..., None, :, None, :]).reshape(x.shape[:-2] + (k * k, k * k))


def _rank(s: np.ndarray, tol: float) -> int | np.ndarray:
    """Numerical rank: the count of singular values s above tol * max(s_0, 1);
    of a stack (..., k) of spectra, one count per spectrum."""
    ranks = (s > tol * np.maximum(s[..., :1], 1.0)).sum(axis=-1)  # s_0 is never NaN
    return int(ranks) if s.ndim == 1 else ranks


def centralizer_dimension(x: Matrix) -> int | np.ndarray:
    x = as_matrix(x, stacked=1)
    s = np.linalg.svd(ad_operator(x), compute_uv=False)
    return x.shape[-1] ** 2 - _rank(s, RANK_TOL)


def is_regular(x: Matrix) -> bool | np.ndarray:
    """True iff dim Z(X) equals k, the rank of gl(k); of a stack, one per matrix."""
    x = as_matrix(x, stacked=1)
    return centralizer_dimension(x) == x.shape[-1]


@dataclass(frozen=True)
class AElement:
    """An element of the abelian group A^(b+b'): one polynomial combination
    per boundary factor, each a tuple of InvariantPolynomial summands."""

    factors: tuple[tuple[InvariantPolynomial, ...], ...]

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def degree_profile(self, k: int) -> np.ndarray:
        """Sum of coefficients per degree (rows: factors, cols: degree 1..k)."""
        prof = np.zeros((len(self.factors), k), dtype=complex)
        for i, summands in enumerate(self.factors):
            for p in summands:
                if p.degree <= k:
                    prof[i, p.degree - 1] += p.coefficient
                else:
                    raise ValidationError("summand degree exceeds k")
        return prof

    def is_sum_zero(self, k: int) -> bool:
        """Membership test for A_0: factor-wise sums cancel degree by degree."""
        prof = self.degree_profile(k)
        return bool(np.max(np.abs(prof.sum(axis=0))) <= 1e-12)


def gradient_of_combination(
    summands: tuple[InvariantPolynomial, ...] | list[InvariantPolynomial],
    x: Matrix,
) -> Matrix:
    """C_P(X) for a sum P of scalar multiples of power traces."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    for p in summands:
        out = out + polarized_gradient(p, x)
    return out

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


def as_matrix(entries) -> Matrix:
    """Coerce to a square complex matrix and validate finiteness."""
    x = np.asarray(entries, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {x.shape}")
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise ValidationError("matrix entries must be finite")
    return x


def check_same_size(x: Matrix, y: Matrix) -> int:
    if x.shape != y.shape:
        raise DimensionMismatchError(f"size mismatch: {x.shape} vs {y.shape}")
    return x.shape[0]


def pairing(x: Matrix, y: Matrix) -> complex:
    """Invariant bilinear form <X, Y> = trace(XY); symmetric and ad-invariant."""
    check_same_size(x, y)
    return complex(np.trace(x @ y))


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


def power_traces(x: Matrix, k: int | None = None) -> np.ndarray:
    """(trace X, trace X^2, ..., trace X^k)."""
    n = x.shape[0] if k is None else k
    out = np.empty(n, dtype=complex)
    acc = np.eye(x.shape[0], dtype=complex)
    for m in range(n):
        acc = acc @ x
        out[m] = np.trace(acc)
    return out


def ad_operator(x: Matrix) -> Matrix:
    """The k^2 x k^2 matrix of Y -> XY - YX acting on row-major vec(Y)."""
    k = x.shape[0]
    eye = np.eye(k, dtype=complex)
    return np.kron(x, eye) - np.kron(eye, x.T)


def nullspace(a: Matrix, tol: float = RANK_TOL) -> Matrix:
    """Orthonormal basis (as rows) of the kernel of `a`, by SVD.  The right
    singular vectors are the conjugated rows of Vh."""
    _, s, vh = np.linalg.svd(a)
    if s.size == 0:
        return vh
    cutoff = tol * max(s[0], 1.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj()


def centralizer_basis(x: Matrix, tol: float = RANK_TOL) -> list[Matrix]:
    """Orthonormal basis of Z(X) = ker(ad_X), via a rank-revealing SVD."""
    x = as_matrix(x)
    k = x.shape[0]
    vecs = nullspace(ad_operator(x), tol)
    return [v.reshape(k, k) for v in vecs]


def centralizer_dimension(x: Matrix, tol: float = RANK_TOL) -> int:
    x = as_matrix(x)
    k = x.shape[0]
    s = np.linalg.svd(ad_operator(x), compute_uv=False)
    cutoff = tol * max(s[0], 1.0)
    return int(k * k - np.sum(s > cutoff))


def is_regular(x: Matrix, tol: float = RANK_TOL) -> bool:
    """True iff dim Z(X) equals k, the rank of gl(k)."""
    x = as_matrix(x)
    return centralizer_dimension(x, tol) == x.shape[0]


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

    def is_sum_zero(self, k: int, tol: float = 1e-12) -> bool:
        """Membership test for A_0: factor-wise sums cancel degree by degree."""
        prof = self.degree_profile(k)
        return bool(np.max(np.abs(prof.sum(axis=0))) <= tol)


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

"""Randomized verification suites for every identity and axiom, plus the
finite-difference operators and sample generators they run on.

Each suite is declared as data (`_Suite`): a check that yields named
residuals for one case, a negative control, a bound per residual and the
threshold the negative control must exceed.  One runner owns the rest:
timing, the RNG streams, the size draw, folding residuals over the cases
and the pass rule.  A case draws from an RNG stream derived from
(master seed, suite name, trial index), so identical configurations give
identical residuals; the negative control evaluates one deliberately
corrupted input from the stream "<suite>-neg", and its residual must
exceed the threshold.

The moment maps follow one fixed sign convention, that of the canonical
form -d<X, g^{-1}dg>: an incoming factor has moment g X g^{-1} (the left
action), an outgoing one -g^{-1} X g, and the scheme side G J G^{-1}.
"""
from __future__ import annotations

import operator
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import expm

from .errors import GluingError, SingularMatrixError, ValidationError
from .hilbert import (
    FTangent,
    JetScheme,
    LocalPiece,
    act_on_scheme,
    adjoint_orbits_match,
    f_kernel_dimension,
    f_moment,
    f_presymplectic,
    g_matrices,
    hilb_to_u,
    locally_nondegenerate,
    nondegenerate,
    normalize_scheme,
    orbit_invariant,
    orbit_invariant_equal,
    u_to_hilb,
)
from .lie import (
    InvariantPolynomial,
    Matrix,
    check_same_size,
    commutator,
    gradient_of_combination,
    inv_poly_eval,
    is_regular,
    pairing,
    polarized_gradient,
)
from .slodowy import (
    SlicePoint,
    _f_powers,
    is_in_slice,
    principal_triple,
    slice_embed,
)
from .uspace import (
    UClass,
    UTangent,
    g_action,
    glue,
    phi_e_class,
    u11_from_tstar,
    u11_to_tstar,
    u_equivalence_residual,
    u_symplectic,
    u_symplectic_single_slice_form,
    axiom_d_residual,
    _invariant_spread,
    _signed_moments,
)
from .wspace import (
    INCOMING,
    OUTGOING,
    WPoint,
    WTangent,
    _reverse,
    g_act_w,
    maurer_cartan_term,
    phi_E,
    phi_E_inverse,
    theta,
    theta_twisted,
    w_moment,
    w_symplectic,
    w_symplectic_bracket_form,
    w_symplectic_moment_wedge,
)

VERSION = "0.1.0"

SUITE_NAMES = (
    "polarization",
    "hamiltonian_w",
    "closedness",
    "form_identity",
    "axiom_d",
    "gluing",
    "theorem_2_4_i",
    "axiom_e",
    "hilbert_round_trip",
    "fitting_orbits",
    "free_action",
)


# Step of every finite difference the suites take.
FD_STEP = 1e-4


@dataclass(frozen=True)
class SuiteConfig:
    k: int = 3
    trials: int = 50
    seed: int = 42
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        if self.trials < 1 or self.k < 1:
            raise ValidationError("trials and k must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if not self.suites:
            raise ValidationError("empty suite list")
        for name in self.suites:
            if name not in SUITE_NAMES:
                raise ValidationError(f"unknown suite: {name}")


@dataclass
class SuiteResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    negative_residual: float
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)


@dataclass
class Report:
    version: str
    config: SuiteConfig
    suites: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)


# ----------------------------------------------------------------------
# deterministic sampling


def _draw_k(rng: np.random.Generator, k_cfg: int, cap: int) -> int:
    """Random matrix size in [2, min(k_cfg, cap)], degrading to 1 at k=1."""
    k_max = min(k_cfg, cap)
    if k_max < 2:
        return 1
    return int(rng.integers(2, k_max + 1))


def trial_rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(suite.encode()), trial])


def sample_disc(rng: np.random.Generator, *shape, radius: float = 1.0) -> np.ndarray:
    """Uniform samples from the complex disc of the given radius: one draw u of
    2 * prod(shape) doubles gives radii radius * sqrt(u[0]) and angles 2 pi u[1]."""
    u = rng.random((2,) + shape)
    return radius * np.sqrt(u[0]) * np.exp(1j * (2 * np.pi * u[1]))


def sample_slice_point(k: int, rng: np.random.Generator) -> SlicePoint:
    """Slice coefficients from the complex unit disc, scaled per basis
    element (the f-power entries grow like i(k-i) products) so the embedded
    matrix stays O(1) and absolute tolerances are meaningful."""
    fp = _f_powers(k)
    scales = np.array([1.0 / max(1.0, float(np.max(np.abs(f)))) for f in fp])
    return SlicePoint(k=k, coeffs=sample_disc(rng, k) * scales)


def sample_group(k: int, rng: np.random.Generator) -> Matrix:
    """exp of a matrix with entries in the unit disc (scaled by 0.5 / sqrt(k)
    for conditioning); always invertible."""
    a = sample_disc(rng, k, k) * 0.5 / np.sqrt(k)
    return expm(a)


def sample_wpoint(k: int, orientation: str, rng: np.random.Generator) -> WPoint:
    return WPoint(g=sample_group(k, rng), X=sample_slice_point(k, rng),
                  orientation=orientation)


def sample_wtangent(k: int, rng: np.random.Generator) -> WTangent:
    return WTangent(a=sample_disc(rng, k, k), dc=sample_disc(rng, k))


def sample_uclass(k: int, b: int, bprime: int, rng: np.random.Generator) -> UClass:
    x = sample_slice_point(k, rng)
    gs = tuple(sample_group(k, rng) for _ in range(b + bprime))
    return UClass(b=b, bprime=bprime, gs=gs, X=x)


def sample_utangent(m: UClass, rng: np.random.Generator) -> UTangent:
    k = m.X.k
    return UTangent(
        a_list=tuple(sample_disc(rng, k, k) for _ in range(m.n_factors)),
        dc=sample_disc(rng, k),
    )


def sample_centralizer_element(x_emb: Matrix, rng: np.random.Generator) -> Matrix:
    """exp of a norm-controlled random polynomial gradient (spectral norm at
    most 0.5): an invertible element of Z(X) close enough to 1 for
    well-conditioned tests."""
    k = x_emb.shape[0]
    summands = [
        InvariantPolynomial(m, complex(sample_disc(rng)))
        for m in range(1, k + 1)
    ]
    c = gradient_of_combination(summands, x_emb)
    norm = np.linalg.norm(c, 2)
    if norm > 1e-12:
        c = 0.5 * c / max(1.0, norm)
    return expm(c)


def sample_lengths(k: int, rng: np.random.Generator) -> list[int]:
    """A random composition of k (piece lengths)."""
    lengths = []
    rest = k
    while rest > 0:
        l = int(rng.integers(1, rest + 1))
        lengths.append(l)
        rest -= l
    return lengths


def _sample_jet(rng: np.random.Generator, length: int, k: int) -> np.ndarray:
    """A (length, k) jet from the unit disc, its leading vector redrawn until
    its norm is at least 0.3."""
    jet = sample_disc(rng, length, k)
    while np.linalg.norm(jet[0]) < 0.3:
        jet[0] = sample_disc(rng, k)
    return jet


def sample_jetscheme(
    k: int,
    b: int,
    bprime: int,
    rng: np.random.Generator,
    lengths: list[int] | None = None,
    zs: list[complex] | None = None,
) -> JetScheme:
    """A nondegenerate transverse scheme with well-separated base points."""
    n = b + bprime
    for _ in range(60):
        ls = lengths if lengths is not None else sample_lengths(k, rng)
        s = len(ls)
        if zs is None:
            base = np.array(
                [1.6 * i + complex(sample_disc(rng, radius=0.4)) for i in range(s)]
            )
            base = base - np.mean(base)  # keep magnitudes moderate
        else:
            base = np.asarray(zs, dtype=complex)
        pieces = []
        for z, l in zip(base, ls):
            jets = tuple(_sample_jet(rng, l, k) for _ in range(n))
            pieces.append(LocalPiece(z=complex(z), length=l, jets=jets))
        d = JetScheme(k=k, b=b, bprime=bprime, pieces=tuple(pieces))
        svs = np.linalg.svd(g_matrices(d), compute_uv=False)
        if all(sv[-1] >= 0.08 * sv[0] for sv in svs):
            return d
    raise ValidationError("failed to sample a well-conditioned scheme")


# ----------------------------------------------------------------------
# flat charts and finite-difference operators
#
# A chart turns a tangent into the coordinate displacement h * direction
# (`displace`) and maps a stack of coordinates to the stacked points there
# together with two stacked chart-constant tangents carried to the form's
# coordinates at each (`frame_at`); `WChart.point_at` gives one point alone.
# A group coordinate s enters through e^s: `_exp_transport` gives e^s and
# the carried group directions from one block-triangular exponential.


def _exp_transport(
    s: Matrix, directions: tuple[Matrix, ...], left: bool = False
) -> tuple[Matrix, list[Matrix]]:
    """e^s and the logarithmic representative, at exp displacement s, of each
    chart-constant direction a: e^(-s) L(s, a) for a right chart and
    L(s, a) e^(-s) for a left one, L the Frechet derivative of exp.  The
    first block row of exp([[s, a_1, ..., a_n], [0, s, ...], ..., [..., s]])
    is (e^s, L(s, a_1), ..., L(s, a_n)) (Van Loan 1978).  s and the a_i are
    stacks (..., k, k), one block per point."""
    if left:  # L(s, a) e^(-s) is the transpose of the right form at (s^T, a^T)
        s, *directions = (m.swapaxes(-1, -2) for m in (s, *directions))
        es, moved = _exp_transport(s, tuple(directions))
        return es.swapaxes(-1, -2), [t.swapaxes(-1, -2) for t in moved]
    k = s.shape[-1]
    n = len(directions)
    block = np.zeros(s.shape[:-2] + ((n + 1) * k, (n + 1) * k), dtype=complex)
    for i in range(n + 1):
        block[..., i * k:(i + 1) * k, i * k:(i + 1) * k] = s
    for i, a in enumerate(directions, 1):
        block[..., :k, i * k:(i + 1) * k] = a
    e = expm(block)
    es = e[..., :k, :k]
    moved = np.linalg.solve(es, e[..., :k, k:])
    return es, [moved[..., i * k:(i + 1) * k] for i in range(n)]


class WChart:
    """Left-logarithmic chart around a W point: coordinates (S, dc)."""

    def __init__(self, p: WPoint):
        self.p = p
        self.k = p.X.k

    def _place(self, es: Matrix, dc: np.ndarray) -> WPoint:
        return replace(self.p, g=self.p.g @ es, X=SlicePoint(self.k, self.p.X.coeffs + dc))

    def point_at(self, s: Matrix, dc: np.ndarray) -> WPoint:
        return self._place(expm(s), dc)

    def frame_at(self, coords, u: WTangent, v: WTangent) -> tuple[WPoint, WTangent, WTangent]:
        s, dc = coords
        es, (au, av) = _exp_transport(s, (u.a, v.a))
        return self._place(es, dc), WTangent(a=au, dc=u.dc), WTangent(a=av, dc=v.dc)

    def displace(self, direction: WTangent, h: float) -> tuple[Matrix, np.ndarray]:
        return (h * direction.a, h * direction.dc)


class UChart:
    """Product chart: one left-log coordinate per factor plus shared dc."""

    def __init__(self, m: UClass):
        self.m = m
        self.k = m.X.k

    def frame_at(self, coords, u: UTangent, v: UTangent) -> tuple[UClass, UTangent, UTangent]:
        s_list, dc = coords
        moved = [_exp_transport(s, (a, b)) for s, a, b in zip(s_list, u.a_list, v.a_list)]
        gs = tuple(g @ es for g, (es, _) in zip(self.m.gs, moved))
        point = replace(self.m, gs=gs, X=SlicePoint(self.k, self.m.X.coeffs + dc))
        au, av = zip(*(pair for _, pair in moved))
        return point, UTangent(a_list=au, dc=u.dc), UTangent(a_list=av, dc=v.dc)

    def displace(self, direction: UTangent, h: float) -> tuple[list[Matrix], np.ndarray]:
        return ([h * a for a in direction.a_list], h * direction.dc)


class FChart:
    """Chart on the Fitting locus for (1,0): left group displacement acting
    on the jets plus per-piece base point shifts."""

    def __init__(self, d: JetScheme):
        self.d = d

    def frame_at(self, coords, u: FTangent, v: FTangent) -> tuple[JetScheme, FTangent, FTangent]:
        s, dz = coords
        # the group displacement acts on the left
        es, (ru, rv) = _exp_transport(s, (u.rho, v.rho), left=True)
        moved = act_on_scheme(self.d, [es])
        pieces = tuple(replace(p, z=p.z + dz[..., i]) for i, p in enumerate(moved.pieces))
        return replace(moved, pieces=pieces), FTangent(rho=ru, dz=u.dz), FTangent(rho=rv, dz=v.dz)

    def displace(self, direction: FTangent, h: float) -> tuple[Matrix, np.ndarray]:
        return (h * direction.rho, h * direction.dz)


def _stack(items: list):
    """Same-kind arrays, tuples or lists of them, or tangents, stacked field by field."""
    first = items[0]
    if isinstance(first, np.ndarray):
        return np.stack(items)
    if isinstance(first, (tuple, list)):
        return type(first)(_stack(list(parts)) for parts in zip(*items))
    return type(first)(*(_stack([getattr(t, f.name) for t in items]) for f in fields(first)))


def _central_difference(plus, minus, step: float):
    """(plus - minus) / 2h.  Complex values must come as Python complex:
    numpy divides a complex by a real through the reciprocal, which rounds
    differently."""
    return (plus - minus) / (2 * step)


def fd_exterior_derivative(form, chart, u, v, w, step: float) -> complex:
    """d omega(u, v, w) by the three-term alternating sum with central
    differences in a flat chart; u, v, w are chart-constant tangents.  The
    six displaced points go through the chart and the form as one stack."""
    if step <= 0 or step**2 <= np.finfo(float).eps:
        raise ValidationError("fd step underflow")
    moves = [(t, h, rest) for t, rest in ((u, (v, w)), (v, (u, w)), (w, (u, v)))
             for h in (step, -step)]
    coords = _stack([chart.displace(t, h) for t, h, _ in moves])
    carried = (_stack([rest[i] for _, _, rest in moves]) for i in (0, 1))
    values = [complex(x) for x in form(*chart.frame_at(coords, *carried))]
    d_u, d_v, d_w = (_central_difference(*values[i:i + 2], step) for i in (0, 2, 4))
    return d_u - d_v + d_w


def _moment_condition(
    p: WPoint, a_fund: Matrix, observable, v: WTangent, step: float
) -> tuple[complex, object]:
    """omega(fund, v) for the fundamental field with group component a_fund,
    and the central difference of `observable` along v, on a W point."""
    chart = WChart(p)
    fund = WTangent(a=a_fund, dc=np.zeros(p.X.k, dtype=complex))
    lhs = w_symplectic(p, fund, v)
    plus, minus = (observable(chart.point_at(*chart.displace(v, h))) for h in (step, -step))
    return lhs, _central_difference(plus, minus, step)


def fd_moment_condition_w(
    p: WPoint, xi: Matrix, v: WTangent, step: float, sign_flip: bool = False
) -> float:
    """|omega(xi#, v) - <d mu(v), xi>| on a W point, d mu by central
    differences; `sign_flip` turns it into the negative control."""
    if p.orientation == INCOMING:
        a_fund = np.linalg.inv(p.g) @ xi @ p.g
    else:
        a_fund = -xi
    lhs, dmu = _moment_condition(p, a_fund, w_moment, v, step)
    rhs = pairing(dmu, xi)
    if sign_flip:
        rhs = -rhs
    return abs(lhs - rhs)


def fd_moment_condition_a(
    p: WPoint, degree: int, v: WTangent, step: float
) -> float:
    """Moment condition for the abelian action: the fundamental field of the
    degree-m generator against the finite difference of P_m(X)."""
    x = slice_embed(p.X)
    c = polarized_gradient(InvariantPolynomial(degree), x)
    if p.orientation == INCOMING:
        a_fund = c
    else:
        a_fund = np.linalg.inv(p.g) @ c @ p.g
    pm = InvariantPolynomial(degree)
    lhs, rhs = _moment_condition(
        p, a_fund, lambda q: inv_poly_eval(pm, slice_embed(q.X)), v, step
    )
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# the multilinear symmetrization oracle (independent of the closed form)


def symmetrized_form_value(x: Matrix, y: Matrix, degree: int) -> complex | np.ndarray:
    """p(X, ..., X, Y) for the invariant symmetric form p with
    p(X, ..., X) = trace(X^m): the average of trace products over all m!
    argument orders.  With one Y among m - 1 X's, the orders give only the m
    distinct words X^j Y X^(m-1-j), each (m-1)! times, so the average over
    all orders is the average of those m traces.  No cyclicity is used, so
    the oracle stays independent of the closed form m X^(m-1).  Y may be a
    stack of shape (n, k, k); the n values come back as an array."""
    powers = [np.eye(check_same_size(x, y), dtype=complex)]
    for _ in range(degree - 1):
        powers.append(powers[-1] @ x)
    words = (powers[j] @ y @ powers[degree - 1 - j] for j in range(degree))
    values = sum(np.trace(w, axis1=-2, axis2=-1) for w in words) / degree
    return complex(values) if y.ndim == 2 else values


# ----------------------------------------------------------------------
# suites
#
# A check takes (cfg, rng, k, case) and yields (part, residual) pairs; the
# part "" is the suite's unnamed residual, named parts are also reported in
# `details`.  For suites that loop over trials, `case` is the trial index.
# A negative control takes its own RNG stream and returns one residual.

_Residuals = Iterator[tuple[str, float]]

# Every (b, b') with 1 <= b + b' <= 4.
_SIGNATURES = tuple(
    (b, bp) for b in range(5) for bp in range(5 - b) if b + bp >= 1
)


@dataclass(frozen=True)
class _Suite:
    check: Callable[[SuiteConfig, np.random.Generator, int, object], _Residuals]
    negative: Callable[[np.random.Generator], float]
    tolerance: float  # reported bound of max_residual
    neg_threshold: float
    k_cap: int | None = 4  # None: the case is the matrix size, no draw
    # (part, fold, bound): "max" and "sum" parts must stay below the bound,
    # "min" parts above it; bound None means the tolerance
    parts: tuple[tuple[str, str, float | None], ...] = (("", "max", None),)
    # cfg -> [(stream, index, case)]; default one case per trial
    cases: Callable[[SuiteConfig], list] | None = None


_FOLDS = {"max": (max, 0.0), "min": (min, np.inf), "sum": (operator.add, 0)}


def _matrix_units(k: int) -> np.ndarray:
    """The k^2 matrix units E_ab, row-major in (a, b), as one (k^2, k, k) stack."""
    return np.eye(k * k, dtype=complex).reshape(k * k, k, k)


def _orientation(trial: int) -> str:
    return INCOMING if trial % 2 == 0 else OUTGOING


def _worst_incoming_k3(rng: np.random.Generator, residual) -> float:
    """The largest |residual(p, rng)| over four incoming k = 3 points p; each
    point is drawn before the inputs that `residual` draws for it."""
    return max(abs(residual(sample_wpoint(3, INCOMING, rng), rng)) for _ in range(4))


def _polarization_gap(c: Matrix, x: Matrix, m: int) -> float:
    """Largest |<c, E_ab> - m p(X, ..., X, E_ab)| over the matrix units: zero
    when c is the polarized gradient of trace(X^m)."""
    units = _matrix_units(x.shape[0])
    gaps = pairing(c, units) - m * symmetrized_form_value(x, units, m)
    return float(np.max(np.abs(gaps)))


def _check_polarization(cfg, rng, k, trial) -> _Residuals:
    x = sample_disc(rng, k, k)
    for m in range(1, k + 1):
        c = polarized_gradient(InvariantPolynomial(m), x)
        yield "identity_residual", _polarization_gap(c, x, m)
        yield "bracket_residual", float(np.max(np.abs(commutator(c, x))))


def _negative_polarization(rng) -> float:
    # a wrong gradient (coefficient off by 10%)
    x = sample_disc(rng, 3, 3)
    return _polarization_gap(1.1 * polarized_gradient(InvariantPolynomial(2), x), x, 2)


def _check_hamiltonian_w(cfg, rng, k, trial) -> _Residuals:
    p = sample_wpoint(k, _orientation(trial), rng)
    xi = sample_disc(rng, k, k)
    v = sample_wtangent(k, rng)
    yield "", fd_moment_condition_w(p, xi, v, FD_STEP)
    degree = int(rng.integers(1, k + 1))
    yield "", fd_moment_condition_a(p, degree, v, FD_STEP)


def _negative_hamiltonian_w(rng) -> float:
    def flipped(p, rng):
        xi = sample_disc(rng, 3, 3)
        v = sample_wtangent(3, rng)
        return fd_moment_condition_w(p, xi, v, FD_STEP, sign_flip=True)

    return _worst_incoming_k3(rng, flipped)


def _check_closedness(cfg, rng, k, trial) -> _Residuals:
    p = sample_wpoint(k, _orientation(trial), rng)
    tans = [sample_wtangent(k, rng) for _ in range(3)]
    yield "w", abs(fd_exterior_derivative(w_symplectic, WChart(p), *tans, FD_STEP))

    b = int(rng.integers(1, 3))
    bp = int(rng.integers(0, 2))
    m = sample_uclass(k, b, bp, rng)
    utans = [sample_utangent(m, rng) for _ in range(3)]
    yield "u", abs(fd_exterior_derivative(u_symplectic, UChart(m), *utans, FD_STEP))

    d = sample_jetscheme(k, 1, 0, rng)
    s = len(d.pieces)
    ftans = [
        FTangent(rho=sample_disc(rng, k, k), dz=sample_disc(rng, s))
        for _ in range(3)
    ]
    yield "f", abs(fd_exterior_derivative(f_presymplectic, FChart(d), *ftans, FD_STEP))


def _negative_closedness(rng) -> float:
    # the literal moment-wedge form is not closed
    def d_literal(p, rng):
        tans = [sample_wtangent(3, rng) for _ in range(3)]
        return fd_exterior_derivative(w_symplectic_moment_wedge, WChart(p), *tans, FD_STEP)

    return _worst_incoming_k3(rng, d_literal)


def _check_form_identity(cfg, rng, k, trial) -> _Residuals:
    b = int(rng.integers(1, 3))
    bp = int(rng.integers(0, 3))
    m = sample_uclass(k, b, bp, rng)
    u = sample_utangent(m, rng)
    v = sample_utangent(m, rng)
    lhs = u_symplectic(m, u, v)
    rhs = u_symplectic_single_slice_form(m, u, v)
    yield "u_two_codings", abs(lhs - rhs) / max(1.0, abs(lhs))

    p = sample_wpoint(k, _orientation(trial), rng)
    tu = sample_wtangent(k, rng)
    tv = sample_wtangent(k, rng)
    canon = w_symplectic(p, tu, tv)
    scale = max(1.0, abs(canon))
    yield "w_two_codings", abs(canon - w_symplectic_bracket_form(p, tu, tv)) / scale
    literal = w_symplectic_moment_wedge(p, tu, tv)
    mc = maurer_cartan_term(p, tu, tv)
    yield "literal_discrepancy_identity", abs(literal - canon - mc) / scale


def _negative_form_identity(rng) -> float:
    def literal_gap(p, rng):
        tu = sample_wtangent(3, rng)
        tv = sample_wtangent(3, rng)
        return w_symplectic_moment_wedge(p, tu, tv) - w_symplectic(p, tu, tv)

    return _worst_incoming_k3(rng, literal_gap)


def _check_axiom_d(cfg, rng, k, trial) -> _Residuals:
    b, bp = _SIGNATURES[trial % len(_SIGNATURES)]
    yield "", axiom_d_residual(sample_uclass(k, b, bp, rng))


def _negative_axiom_d(rng) -> float:
    # shift the moment in slot 0 only
    moments = _signed_moments(sample_uclass(3, 2, 1, rng))
    moments[0] = moments[0] + 0.1 * np.eye(3)
    return _invariant_spread(moments)


def _matched_glue_pair(
    k: int, sig1: tuple[int, int], sig2: tuple[int, int], rng: np.random.Generator
) -> tuple[UClass, int, UClass, int]:
    """Sample (m1, p_out, m2, q_in) satisfying the moment matching exactly:
    the q-th factor of m2 is g_{p'}^{-1} z with z in Z(X)."""
    b1, bp1 = sig1
    b2, bp2 = sig2
    m1 = sample_uclass(k, b1, bp1, rng)
    x = slice_embed(m1.X)
    p_out = b1 + int(rng.integers(0, bp1))
    z = sample_centralizer_element(x, rng)
    h_q = np.linalg.inv(m1.gs[p_out]) @ z
    q_in = int(rng.integers(0, b2))
    gs2 = [sample_group(k, rng) for _ in range(b2 + bp2)]
    gs2[q_in] = h_q
    m2 = UClass(b=b2, bprime=bp2, gs=tuple(gs2), X=m1.X)
    return m1, p_out, m2, q_in


_GLUE_SIGNATURE_PAIRS = (
    ((1, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((0, 1), (2, 0)),
    ((2, 1), (1, 1)),
    ((1, 2), (2, 0)),
    ((0, 2), (1, 1)),
)


def _check_gluing(cfg, rng, k, trial) -> _Residuals:
    sig1, sig2 = _GLUE_SIGNATURE_PAIRS[trial % len(_GLUE_SIGNATURE_PAIRS)]
    m1, p_out, m2, q_in = _matched_glue_pair(k, sig1, sig2, rng)
    glued = glue(m1, p_out, m2, q_in)
    expect_sig = (sig1[0] + sig2[0] - 1, sig1[1] + sig2[1] - 1)
    if (glued.b, glued.bprime) != expect_sig:
        yield "", 1.0
        return
    yield "", axiom_d_residual(glued)
    # invariance under the receiving factor
    for receiver in range(1, glued.n_factors):
        alt = glue(m1, p_out, m2, q_in, receiver)
        yield "", u_equivalence_residual(glued, alt)
    # invariance under re-gauging the matched pair
    g0 = sample_group(k, rng)
    reglued = glue(g_action(m1, p_out, g0), p_out, g_action(m2, q_in, g0), q_in)
    yield "", u_equivalence_residual(glued, reglued)
    # invariance under re-gauging a spectator factor of m1
    if m1.n_factors > 1:
        spect = 0 if p_out != 0 else 1
        g1 = sample_group(k, rng)
        glued_alt = glue(g_action(m1, spect, g1), p_out, m2, q_in)
        # undo the spectator action on the result and compare
        if spect < m1.b:
            idx = spect
        else:
            idx = m2.b - 1 + spect - (1 if spect > p_out else 0)
        undone = g_action(glued_alt, idx, np.linalg.inv(g1))
        yield "", u_equivalence_residual(glued, undone)
    # cylinder test for the (1,1) x (1,0) pair
    if sig1 == (1, 1) and sig2 == (1, 0):
        gg, _ = u11_to_tstar(m1)
        expected = UClass(b=1, bprime=0, gs=(gg @ m2.gs[0],), X=m1.X)
        yield "", u_equivalence_residual(glued, expected)


def _negative_gluing(rng) -> float:
    # mismatched moments must raise
    m1, p_out, m2, q_in = _matched_glue_pair(3, (1, 1), (1, 1), rng)
    m2_bad = UClass(
        b=m2.b,
        bprime=m2.bprime,
        gs=(m2.gs[0] @ (np.eye(3) + 0.2 * sample_disc(rng, 3, 3)),) + m2.gs[1:],
        X=m2.X,
    )
    try:
        glue(m1, p_out, m2_bad, q_in)
        return 0.0
    except GluingError:
        return 10.0


def _centralizer_twin(m: UClass, rng: np.random.Generator) -> UClass:
    """An equivalent (1,1) representative (g_1 z, z^{-1} g_2), z in Z(X)."""
    z = sample_centralizer_element(slice_embed(m.X), rng)
    return UClass(b=1, bprime=1, gs=(m.gs[0] @ z, np.linalg.inv(z) @ m.gs[1]), X=m.X)


def _check_theorem_2_4_i(cfg, rng, k, trial) -> _Residuals:
    m = sample_uclass(k, 1, 1, rng)
    m_eq = _centralizer_twin(m, rng)
    g1, y1 = u11_to_tstar(m)
    g2, y2 = u11_to_tstar(m_eq)
    yield from _gaps((g1, y1), (g2, y2))
    if not is_regular(y1):
        yield "", 1.0
    back = u11_from_tstar(g1, y1)
    yield "", u_equivalence_residual(m, back)
    # injectivity: an independent class maps to a different image
    other = sample_uclass(k, 1, 1, rng)
    go, yo = u11_to_tstar(other)
    sep = max(float(np.max(np.abs(g1 - go))), float(np.max(np.abs(y1 - yo))))
    yield "min_pair_separation", sep


def _negative_theorem_2_4_i(rng) -> float:
    # the half twin (g_1 z, g_2) lacks the compensating z^{-1}, so it is not
    # equivalent to m and its image must move
    m = sample_uclass(3, 1, 1, rng)
    z = sample_centralizer_element(slice_embed(m.X), rng)
    half = UClass(b=1, bprime=1, gs=(m.gs[0] @ z, m.gs[1]), X=m.X)
    return max(float(np.max(np.abs(a - b)))
               for a, b in zip(u11_to_tstar(m), u11_to_tstar(half)))


def _gaps(xs, ys) -> _Residuals:
    """Largest entrywise difference of each pair of arrays."""
    for a, b in zip(xs, ys):
        yield "", float(np.max(np.abs(a - b)))


def _check_axiom_e(cfg, rng, k, trial) -> _Residuals:
    p = sample_wpoint(k, INCOMING, rng)
    # phi_E keeps X as it is, which holds because the reversal fixes the
    # slice matrix (a plain transpose would not)
    x = slice_embed(p.X)
    yield "", float(np.max(np.abs(_reverse(x) - x)))
    q = phi_E(p)
    # anti-equivariance with the conjugated involution
    g0 = sample_group(k, rng)
    lhs = phi_E(g_act_w(p, g0))
    rhs = g_act_w(q, theta_twisted(g0, "group"))
    yield from _gaps((lhs.g, lhs.X.coeffs), (rhs.g, rhs.X.coeffs))
    # round trip through the inverse
    back = phi_E_inverse(q)
    yield "", float(np.max(np.abs(back.g - p.g)))
    # involution properties of theta itself
    a = sample_disc(rng, k, k)
    yield "", float(np.max(np.abs(theta(theta(a)) - a)))
    h1 = sample_group(k, rng)
    h2 = sample_group(k, rng)
    split = theta(h1, "group") @ theta(h2, "group")
    yield "", float(np.max(np.abs(theta(h1 @ h2, "group") - split)))
    # conjugator maps the opposite slice into the slice
    e = principal_triple(k).e
    for f_j in _f_powers(k):
        if not is_in_slice(_reverse(e + f_j)):
            yield "", 1.0
    # class-level reversal: signature shift, anti-equivariance on the
    # moved factor, plain equivariance on the untouched ones
    m = sample_uclass(k, 2, 1, rng)
    q_cls = phi_e_class(m)
    if (q_cls.b, q_cls.bprime) != (1, 2):
        yield "", 1.0
    yield "", axiom_d_residual(q_cls)
    g1 = sample_group(k, rng)
    lhs_cls = phi_e_class(g_action(m, 1, g1))
    rhs_cls = g_action(q_cls, q_cls.n_factors - 1, theta_twisted(g1, "group"))
    yield from _gaps(lhs_cls.gs, rhs_cls.gs)
    lhs_cls = phi_e_class(g_action(m, 0, g1))
    rhs_cls = g_action(q_cls, 0, g1)
    yield from _gaps(lhs_cls.gs, rhs_cls.gs)


def _negative_axiom_e(rng) -> float:
    # the plain transpose involution is not the equivariance law
    p = sample_wpoint(3, INCOMING, rng)
    g0 = sample_group(3, rng)
    lhs = phi_E(g_act_w(p, g0))
    rhs_plain = g_act_w(phi_E(p), theta(g0, "group"))
    return float(np.max(np.abs(lhs.g - rhs_plain.g)))


def _scheme_distance(d1: JetScheme, d2: JetScheme) -> float:
    """Largest base-point difference, and largest jet difference relative to
    max(1, largest |jet entry|): normalization can scale jets far beyond 1,
    where an absolute bound reads roundoff as failure."""
    if [p.length for p in d1.pieces] != [p.length for p in d2.pieces]:
        return 1.0
    dz = jet_err = 0.0
    scale = 1.0
    for p1, p2 in zip(d1.pieces, d2.pieces):
        dz = max(dz, abs(p1.z - p2.z))
        for j1, j2 in zip(p1.jets, p2.jets):
            jet_err = max(jet_err, float(np.max(np.abs(j1 - j2))))
            scale = max(scale, float(np.max(np.abs(j1))), float(np.max(np.abs(j2))))
    return max(dz, jet_err / scale)


_HILBERT_SIGNATURES = ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2))


def _check_hilbert_round_trip(cfg, rng, k, trial) -> _Residuals:
    b, bp = _HILBERT_SIGNATURES[trial % len(_HILBERT_SIGNATURES)]
    d = sample_jetscheme(k, b, bp, rng)
    m = hilb_to_u(d)
    d_back = u_to_hilb(m)
    yield "", _scheme_distance(normalize_scheme(d), d_back)
    m_back = hilb_to_u(d_back)
    yield "", u_equivalence_residual(m, m_back)
    # equivariance: group action on jets matches the class action
    gs = [sample_group(k, rng) for _ in range(b + bp)]
    lhs = hilb_to_u(act_on_scheme(d, gs))
    rhs = m
    for j, g in enumerate(gs):
        rhs = g_action(rhs, j, g)
    yield from _gaps((*lhs.gs, lhs.X.coeffs), (*rhs.gs, rhs.X.coeffs))


def _negative_hilbert_round_trip(rng) -> float:
    # shifted jets on one piece give an inequivalent class
    d = sample_jetscheme(3, 1, 0, rng)
    m = hilb_to_u(d)
    pieces = list(d.pieces)
    jets0 = tuple(j + 0.25 for j in pieces[0].jets)
    pieces[0] = LocalPiece(z=pieces[0].z, length=pieces[0].length, jets=jets0)
    d_bad = JetScheme(k=3, b=1, bprime=0, pieces=tuple(pieces))
    return u_equivalence_residual(m, hilb_to_u(d_bad))


# Jordan configurations per size as (base point index, block length) lists;
# equal types share base points so they collide, distinct types differ.
_JORDAN_BASE_POINTS = (complex(-1.1 + 0.2j), complex(0.9 - 0.4j), complex(2.2 + 0.5j))
_JORDAN_TYPES = {
    2: (
        ((0, 1), (1, 1)),
        ((0, 2),),
        ((0, 1), (0, 1)),
    ),
    3: (
        ((0, 1), (1, 1), (2, 1)),
        ((0, 2), (1, 1)),
        ((0, 3),),
        ((0, 1), (0, 1), (1, 1)),
        ((0, 2), (0, 1)),
        ((0, 1), (0, 1), (0, 1)),
    ),
}


def _jordan_type_schemes(k: int, rng: np.random.Generator) -> list[JetScheme]:
    """One well-conditioned (1,0) scheme per Jordan configuration of size k."""
    return [
        sample_jetscheme(k, 1, 0, rng, lengths=[l for _, l in spec],
                         zs=[_JORDAN_BASE_POINTS[z_idx] for z_idx, _ in spec])
        for spec in _JORDAN_TYPES[k]
    ]


def _check_fitting_orbits(cfg, rng, k, case) -> _Residuals:
    schemes = _jordan_type_schemes(k, rng)
    moments = np.array([f_moment(d) for d in schemes])
    invariants = [orbit_invariant(d) for d in schemes]
    same_type = [[orbit_invariant_equal(a, b) for b in invariants] for a in invariants]
    mistakes = int(np.sum(same_type != adjoint_orbits_match(moments[:, None], moments[None])))
    # a second sample of the same Jordan type must give conjugate moments
    schemes2 = _jordan_type_schemes(k, trial_rng(cfg.seed, "fitting_orbits2", k))
    mistakes += int(np.sum(~adjoint_orbits_match(moments, [f_moment(d2) for d2 in schemes2])))
    # group action fixes the invariant
    g0 = sample_group(k, rng)
    for d, inv in zip(schemes, invariants):
        acted = act_on_scheme(d, [g0])
        if not orbit_invariant_equal(inv, orbit_invariant(acted)):
            mistakes += 1
    # kernel dichotomy on constructed examples
    rng2 = trial_rng(cfg.seed, "fitting_orbits-kernel", k)
    d_split = sample_jetscheme(k, 1, 0, rng2, lengths=[1] * k)
    if f_kernel_dimension(d_split) != 0:
        mistakes += 1
    zc = complex(0.4, -0.2)
    d_coll = sample_jetscheme(
        k, 1, 0, rng2, lengths=[1] * k, zs=[zc] * 2 + [2.0 + 0.1j] * (k - 2)
    )
    if f_kernel_dimension(d_coll) == 0:
        mistakes += 1
    if not locally_nondegenerate(d_coll) or nondegenerate(d_coll):
        mistakes += 1
    yield "mispredictions", mistakes


def _negative_fitting_orbits(rng) -> float:
    # a shifted moment is not in the same adjoint orbit
    d = sample_jetscheme(3, 1, 0, rng, lengths=[1, 1, 1])
    mu = f_moment(d)
    return 0.0 if adjoint_orbits_match(mu, mu + 0.3 * np.eye(3)) else 10.0


def _accepts_first_factor(m: UClass, g: Matrix) -> float:
    """1.0 if a class takes g as its first factor, 0.0 if it refuses it."""
    try:
        UClass(b=m.b, bprime=m.bprime, gs=(g,) + m.gs[1:], X=m.X)
    except SingularMatrixError:
        return 0.0
    return 1.0


def _check_free_action(cfg, rng, k, trial) -> _Residuals:
    # The first-factor action is free by construction: h g_1 = g_1 z_1 with
    # the other factors fixed and prod z_i = 1 forces every z_i = 1, hence
    # h = 1, once each factor is invertible.  So the part that can fail is
    # the refusal of a singular factor, which every h = 1 + v w^T with
    # w^T g_1 = 0 would fix.
    b, bp = _SIGNATURES[trial % len(_SIGNATURES)]
    m = sample_uclass(k, b, bp, rng)
    yield "", _accepts_first_factor(m, m.gs[0] @ np.diag([1.0] * (k - 1) + [0.0]))


def _negative_free_action(rng) -> float:
    # a scaled first factor stays invertible, so the class must take it
    m = sample_uclass(3, 2, 1, rng)
    return _accepts_first_factor(m, 0.5 * m.gs[0])


# name -> _Suite(check, negative control, tolerance, negative threshold, ...)
_SUITES = {
    "polarization": _Suite(
        _check_polarization, _negative_polarization, 1e-9, 1e-9, k_cap=5,
        parts=(("identity_residual", "max", None), ("bracket_residual", "max", 1e-10)),
    ),
    "hamiltonian_w": _Suite(_check_hamiltonian_w, _negative_hamiltonian_w, 1e-5, 1e-2),
    "closedness": _Suite(
        _check_closedness, _negative_closedness, 1e-4, 1e-2, k_cap=3,
        parts=(("w", "max", None), ("u", "max", None), ("f", "max", None)),
    ),
    "form_identity": _Suite(
        _check_form_identity, _negative_form_identity, 1e-10, 1e-2,
        parts=(
            ("u_two_codings", "max", None),
            ("w_two_codings", "max", None),
            ("literal_discrepancy_identity", "max", None),
        ),
    ),
    "axiom_d": _Suite(_check_axiom_d, _negative_axiom_d, 1e-10, 1e-2, k_cap=5),
    "gluing": _Suite(_check_gluing, _negative_gluing, 1e-9, 1.0),
    "theorem_2_4_i": _Suite(
        _check_theorem_2_4_i, _negative_theorem_2_4_i, 1e-9, 1e-6,
        parts=(("", "max", None), ("min_pair_separation", "min", 1e-6)),
    ),
    "axiom_e": _Suite(_check_axiom_e, _negative_axiom_e, 1e-10, 1e-2),
    "hilbert_round_trip": _Suite(
        _check_hilbert_round_trip, _negative_hilbert_round_trip, 1e-9, 1e-3
    ),
    "fitting_orbits": _Suite(
        _check_fitting_orbits, _negative_fitting_orbits, 0.5, 1.0, k_cap=None,
        parts=(("mispredictions", "sum", None),),
        cases=lambda cfg: [("fitting_orbits", k, k) for k in _JORDAN_TYPES],
    ),
    # acceptances are counted 0 or 1: 0.5 separates them
    "free_action": _Suite(_check_free_action, _negative_free_action, 0.5, 0.5, k_cap=5),
}


def _run(name: str, cfg: SuiteConfig) -> SuiteResult:
    """Run one suite: fold each residual part over the cases, evaluate the
    negative control and apply the pass rule."""
    t0 = time.perf_counter()
    suite = _SUITES[name]
    cases = (
        suite.cases(cfg) if suite.cases else [(name, t, t) for t in range(cfg.trials)]
    )
    acc = {part: _FOLDS[fold][1] for part, fold, _ in suite.parts}
    folds = {part: _FOLDS[fold][0] for part, fold, _ in suite.parts}
    for stream, index, case in cases:
        rng = trial_rng(cfg.seed, stream, index)
        k = case if suite.k_cap is None else _draw_k(rng, cfg.k, suite.k_cap)
        for part, value in suite.check(cfg, rng, k, case):
            acc[part] = folds[part](acc[part], value)
    neg = suite.negative(trial_rng(cfg.seed, f"{name}-neg", 0))
    passed = True
    for part, fold, bound in suite.parts:
        bound = suite.tolerance if bound is None else bound
        passed = passed and (acc[part] > bound if fold == "min" else acc[part] < bound)
    return SuiteResult(
        name=name,
        trials=len(cases),
        max_residual=float(max(acc[part] for part, fold, _ in suite.parts if fold != "min")),
        tolerance=suite.tolerance,
        negative_residual=neg,
        passed=passed and neg > suite.neg_threshold,
        seconds=time.perf_counter() - t0,
        details={part: acc[part] for part, _, _ in suite.parts if part},
    )


def run_suite(config: SuiteConfig) -> Report:
    """Execute the configured suites and collect a report; deterministic for
    a fixed config (timing fields aside)."""
    results = [_run(name, config) for name in config.suites]
    return Report(version=VERSION, config=config, suites=results)

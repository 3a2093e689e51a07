"""Randomized verification suites for every identity and axiom, plus the
finite-difference operators and sample generators they run on.

Each suite is declared as data (`_Suite`): a check that gives named
residuals for each case of a group of one size, a negative control, a
bound per residual and the threshold the negative control must exceed.
One runner owns the rest: timing, the RNG streams, the size draw, the
groups, folding residuals over the cases in case order and the pass rule.
A case draws from an RNG stream derived from (master seed, suite name,
trial index), so identical configurations give identical residuals
whatever the groups; the negative control evaluates deliberately corrupted
input from the stream "<suite>-neg", and its residual must exceed the
threshold.

The moment maps follow one fixed sign convention, that of the canonical
form -d<X, g^{-1}dg>: an incoming factor has moment g X g^{-1} (the left
action), an outgoing one -g^{-1} X g, and the scheme side G J G^{-1}.
"""
from __future__ import annotations

import operator
import time
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import expm

from .errors import GluingError, RegularityError, SingularMatrixError, ValidationError
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
from .serialize import _int_field
from .uspace import (
    UClass,
    UTangent,
    g_action,
    glue,
    phi_e_class,
    u11_from_tstar,
    u11_to_tstar,
    u_equivalence_residual,
    u_moment,
    u_symplectic,
    u_symplectic_single_slice_form,
    axiom_d_residual,
    _invariant_spread,
    _largest,
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
    w_symplectic,
    w_symplectic_bracket_form,
    w_symplectic_moment_wedge,
)

VERSION = "0.1.0"

# Step of every finite difference the suites take, and the points of the
# difference in units of it.
FD_STEP = 1e-4
_STENCIL = (1, -1)

# Relative miss of mu(g0 . d) from g0 mu(d) g0^{-1} that `fitting_orbits` counts as wrong.
EQUIVARIANCE_TOL = 1e-9


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
    2 * prod(shape) doubles gives radii radius * sqrt(u[0]) and angles 2 pi u[1].
    Every sampler here takes one stream or a list of n streams; with a list, each
    stream draws as a one-stream call does, and the values come stacked on a
    leading axis of n with the bits of n such calls."""
    u = (np.array([r.random((2,) + shape) for r in rng]).swapaxes(0, 1) if isinstance(rng, list)
         else rng.random((2,) + shape))
    return radius * np.sqrt(u[0]) * np.exp(1j * (2 * np.pi * u[1]))


@lru_cache(maxsize=None)
def _slice_scales(k: int) -> np.ndarray:
    """1 / max(1, largest |entry of f^j|) per f-power j, as a read-only array."""
    scales = np.array([1.0 / max(1.0, float(np.max(np.abs(f)))) for f in _f_powers(k)])
    scales.flags.writeable = False
    return scales


def _slice_coefficients(k: int, rng: np.random.Generator) -> np.ndarray:
    """Slice coefficients from the complex unit disc, scaled per basis
    element (the f-power entries grow like i(k-i) products) so the embedded
    matrix stays O(1) and absolute tolerances are meaningful."""
    return sample_disc(rng, k) * _slice_scales(k)


def sample_slice_point(k: int, rng: np.random.Generator) -> SlicePoint:
    return SlicePoint(k=k, coeffs=_slice_coefficients(k, rng))


def sample_group(k: int, rng: np.random.Generator) -> Matrix:
    """exp of a matrix with entries in the unit disc (scaled by 0.5 / sqrt(k)
    for conditioning); always invertible."""
    return expm(sample_disc(rng, k, k) * 0.5 / np.sqrt(k))


def _wpoint_draws(k: int, rng: np.random.Generator) -> tuple:
    """A W point's slice coefficients and its factor, as the one-factor class's
    draws; the group element is drawn first."""
    g = sample_group(k, rng)
    return _slice_coefficients(k, rng), (g,)


def sample_wpoint(k: int, orientation: str, rng: np.random.Generator) -> WPoint:
    x, (g,) = _wpoint_draws(k, rng)
    return WPoint(g=g, X=SlicePoint(k, x), orientation=orientation)


def sample_wtangent(k: int, rng: np.random.Generator) -> WTangent:
    return WTangent(a=sample_disc(rng, k, k), dc=sample_disc(rng, k))


def _uclass_draws(k: int, n_factors: int, rng: np.random.Generator) -> tuple:
    """The slice coefficients and the factors of a class, in the order drawn."""
    return _slice_coefficients(k, rng), tuple(sample_group(k, rng) for _ in range(n_factors))


def _class(sig: tuple[int, int], x: np.ndarray, gs: tuple[Matrix, ...]) -> UClass:
    """The class of a signature on drawn slice coefficients and factors, stacks included."""
    return UClass(*sig, gs, SlicePoint(x.shape[-1], x))


def sample_uclass(k: int, b: int, bprime: int, rng: np.random.Generator) -> UClass:
    return _class((b, bprime), *_uclass_draws(k, b + bprime, rng))


def sample_utangent(k: int, n_factors: int, rng: np.random.Generator) -> UTangent:
    return UTangent(a_list=tuple(sample_disc(rng, k, k) for _ in range(n_factors)),
                    dc=sample_disc(rng, k))


def _centralizer_coefficients(k: int, rng: np.random.Generator) -> np.ndarray:
    """The k coefficients a_m of the polynomial gradient of `sample_centralizer_element`."""
    return np.array([sample_disc(rng) for _ in range(k)]).T


def _centralizer_element(x_emb: Matrix, coefficients: np.ndarray) -> Matrix:
    """exp(c) for the gradient c = sum_m a_m m X^(m-1) of sum_m a_m trace(X^m), scaled by
    0.5 / max(1, |c|_2) unless |c|_2 <= 1e-12; of stacks (n, k, k) and (n, k), one per trial."""
    c = np.zeros_like(x_emb)
    for m in range(1, x_emb.shape[-1] + 1):  # transposed, a stack axis trails
        c = c + (coefficients.T[m - 1] * m * np.linalg.matrix_power(x_emb, m - 1).T).T
    norm = np.linalg.svd(c, compute_uv=False)[..., :1, None]  # the spectral norm |c|_2
    scaled = 0.5 * c / np.where(norm > 1.0, norm, 1.0)
    return expm(np.where(norm > 1e-12, scaled, c))


def sample_centralizer_element(x_emb: Matrix, rng: np.random.Generator) -> Matrix:
    """exp of a norm-controlled random polynomial gradient (spectral norm at
    most 0.5): an invertible element of Z(X) close enough to 1 for
    well-conditioned tests."""
    return _centralizer_element(x_emb, _centralizer_coefficients(x_emb.shape[-1], rng))


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
        if zs is None:
            base = np.array(
                [1.6 * i + complex(sample_disc(rng, radius=0.4)) for i in range(len(ls))]
            )
            base = base - np.mean(base)  # keep magnitudes moderate
        else:
            base = zs
        d = JetScheme(k=k, b=b, bprime=bprime, pieces=tuple(
            LocalPiece(z=complex(z), length=l, jets=tuple(_sample_jet(rng, l, k) for _ in range(n)))
            for z, l in zip(base, ls)))
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
# coordinates at each (`frame_at`).  Its base is a stack of n >= 1 trials;
# coordinates come as whole copies of n, move by move, and the base is
# broadcast over the copies.  W is the one-factor class, so `UChart` is its
# chart too.
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


def _stack(items: list, join=np.array):
    """Same-kind items joined field by field: arrays and complex numbers by
    `join` (`np.array` adds a leading axis, `np.concatenate` extends it),
    through tuples, lists and dataclasses; any other field (a size, a
    signature, an orientation) is the first item's."""
    first = items[0]
    if isinstance(first, (np.ndarray, complex)):
        return join(items)
    if isinstance(first, (tuple, list)):
        return type(first)(_stack(list(parts), join) for parts in zip(*items))
    if not is_dataclass(first):
        return first
    return type(first)(*(_stack([getattr(t, f.name) for t in items], join) for f in fields(first)))


def _over_copies(base: np.ndarray, moved: np.ndarray, op) -> np.ndarray:
    """op(base, moved) for a base stack of n trials and whole copies of n
    stacked end to end in moved, with the base broadcast over the copies."""
    return op(base, moved.reshape((-1,) + base.shape)).reshape(moved.shape)


class UChart:
    """Product chart: one left-log coordinate per factor plus shared dc."""

    def __init__(self, m: UClass):
        self.m = m
        self.k = m.X.k

    def frame_at(self, coords, u: UTangent, v: UTangent) -> tuple[UClass, UTangent, UTangent]:
        s_list, dc = coords
        moved = [_exp_transport(s, (a, b)) for s, a, b in zip(s_list, u.a_list, v.a_list)]
        gs = tuple(_over_copies(g, es, np.matmul) for g, (es, _) in zip(self.m.gs, moved))
        x = SlicePoint(self.k, _over_copies(self.m.X.coeffs, dc, np.add))
        point = replace(self.m, gs=gs, X=x)
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
        # the group displacement acts on the left, on whole copies of the base
        es, (ru, rv) = _exp_transport(s, (u.rho, v.rho), left=True)
        copies = _stack([self.d] * (len(s) // len(self.d.pieces[0].z)), np.concatenate)
        moved = act_on_scheme(copies, [es])
        pieces = tuple(replace(p, z=p.z + dz[..., i]) for i, p in enumerate(moved.pieces))
        return replace(moved, pieces=pieces), FTangent(rho=ru, dz=u.dz), FTangent(rho=rv, dz=v.dz)

    def displace(self, direction: FTangent, h: float) -> tuple[Matrix, np.ndarray]:
        return (h * direction.rho, h * direction.dz)


def _central_difference(values):
    """The derivative at step h = FD_STEP from the values at the points
    `_STENCIL` of h: (f(h) - f(-h)) / 2h.  Complex values must come as
    Python complex: numpy divides a complex by a real through the
    reciprocal, which rounds differently."""
    plus, minus = values
    return (plus - minus) / (2 * FD_STEP)


def fd_exterior_derivative(form, chart, u, v, w) -> list[complex]:
    """d omega(u, v, w) by the three-term alternating sum with central
    differences of step FD_STEP in a flat chart; u, v, w are chart-constant
    tangents.  The chart's base and the tangents carry a leading axis of
    n >= 1 trials, and one value per trial comes back as a list.  The moves
    of all trials, one per tangent and stencil point, go through the chart
    and the form as one stack."""
    moves = [(t, p * FD_STEP, rest) for t, rest in ((u, (v, w)), (v, (u, w)), (w, (u, v)))
             for p in _STENCIL]
    coords = _stack([chart.displace(t, h) for t, h, _ in moves], np.concatenate)
    carried = (_stack([rest[i] for _, _, rest in moves], np.concatenate) for i in (0, 1))
    values = np.reshape(form(*chart.frame_at(coords, *carried)), (3, len(_STENCIL), -1)).tolist()
    d_u, d_v, d_w = ([_central_difference(at) for at in zip(*by_point)] for by_point in values)
    return [a - b + c for a, b, c in zip(d_u, d_v, d_w)]


def fd_moment_conditions(
    m: UClass, i: int, v: UTangent, xi: Matrix | None = None, degree=None,
) -> list[tuple]:
    """(omega(fund, v), central difference of the moment along v) on factor i
    of a class, for each condition asked for, in this order: the group action
    of xi (field g_i^{-1} xi g_i incoming, -xi outgoing; moment `u_moment`)
    and the abelian action of P_degree (field C = grad P(X) incoming,
    g_i^{-1} C g_i outgoing; moment P(X)).  Both read m displaced by
    p FD_STEP v for each point p of `_STENCIL`.  m, v and xi carry a leading
    axis of n >= 1 trials, with one degree per trial; a pair holds n values
    of omega in a list and n differences, stacked (group) or in a list
    (abelian)."""
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
# A check takes (k, rngs, cases): the size of a group and the RNG stream and
# the index of each of its cases (for suites that loop over trials, the
# trial index), and returns one list of (part, residual) pairs per case; the
# part "" is the suite's unnamed residual, named parts are also reported in
# `details`.  A stacked check draws step by step, each step one sampler call
# on the group's streams (per key, a signature, where the step depends on
# it), so every stream draws as one case does; each key's class or point is
# built once from the stacked arrays.  `_each` runs a check that yields the
# pairs of one case, check(k, rng, case), over its group.  A negative control
# takes its own RNG stream and returns one residual.

_Residuals = Iterator[tuple[str, float]]


def _each(check: Callable[..., _Residuals]):
    return lambda k, rngs, cases: [list(check(k, rng, case)) for rng, case in zip(rngs, cases)]


def _grouped(keys: list, evaluate: Callable[..., list], *lists) -> list:
    """evaluate(key, *lists taken at the positions of the key, in order) once
    per distinct key, with the values put back in position order."""
    groups: dict = {}
    for j, key in enumerate(keys):
        groups.setdefault(key, []).append(j)
    values = dict(pair for key, group in groups.items() for pair in zip(
        group, evaluate(key, *([seq[j] for j in group] for seq in lists))))
    return [values[j] for j in range(len(keys))]


# Every (b, b') with 1 <= b + b' <= 4.
_SIGNATURES = tuple(
    (b, bp) for b in range(5) for bp in range(5 - b) if b + bp >= 1
)


@dataclass(frozen=True)
class _Suite:
    check: Callable[[int, list, list], list]
    negative: Callable[[np.random.Generator], float]
    tolerance: float  # reported bound of max_residual
    neg_threshold: float
    k_cap: int = 4
    # (part, fold, bound): "max" and "sum" parts must stay below the bound,
    # "min" parts above it; bound None means the tolerance
    parts: tuple[tuple[str, str, float | None], ...] = (("", "max", None),)
    # a case suite: one case per matrix size, from the stream (suite, size),
    # in place of one case per trial at a drawn size
    sizes: tuple[int, ...] = ()


_FOLDS = {"max": (max, 0.0), "min": (min, np.inf), "sum": (operator.add, 0)}


def _matrix_units(k: int) -> np.ndarray:
    """The k^2 matrix units E_ab, row-major in (a, b), as one (k^2, k, k) stack."""
    return np.eye(k * k, dtype=complex).reshape(k * k, k, k)


def _w_signatures(trials: list) -> list[tuple[int, int]]:
    """The signature of each trial's W point, its draws' key: incoming at even trials."""
    return [((1, 0), (0, 1))[trial % 2] for trial in trials]


def _worst_incoming_k3(rng: np.random.Generator, draw, evaluate) -> float:
    """The largest |value| of evaluate((1, 0), *draws) on the stacked draws of four incoming
    k = 3 W points, each with the inputs draw(rng) draws after it, all from one stream."""
    drawn = _stack([(*_wpoint_draws(3, rng), *draw(rng)) for _ in range(4)])
    return max(abs(value) for value in evaluate((1, 0), *drawn))


def _polarization_gap(c: Matrix, x: Matrix, m: int) -> np.ndarray:
    """Largest |<c, E_ab> - m p(X, ..., X, E_ab)| over the matrix units, per
    matrix of a stack: zero when c is the polarized gradient of trace(X^m)."""
    units = _matrix_units(x.shape[-1])
    c, x = c[..., None, :, :], x[..., None, :, :]  # against every unit
    gaps = pairing(c, units) - m * symmetrized_form_value(x, units, m)
    return np.max(np.abs(gaps), axis=-1)


def _check_polarization(k, rngs, trials) -> list:
    x = sample_disc(rngs, k, k)
    out = [[] for _ in trials]
    for m in range(1, k + 1):
        c = polarized_gradient(InvariantPolynomial(m), x)
        brackets = np.max(np.abs(commutator(c, x)), axis=(-2, -1))
        for pairs, gap, bracket in zip(out, _polarization_gap(c, x, m).tolist(), brackets.tolist()):
            pairs += [("identity_residual", gap), ("bracket_residual", bracket)]
    return out


def _negative_polarization(rng) -> float:
    # a wrong gradient (coefficient off by 10%)
    x = sample_disc(rng, 3, 3)
    return float(_polarization_gap(1.1 * polarized_gradient(InvariantPolynomial(2), x), x, 2))


def _check_hamiltonian_w(k, rngs, trials) -> list:
    def conditions(sig, rngs):
        m = _class(sig, *_wpoint_draws(k, rngs))
        xi, v = sample_disc(rngs, k, k), sample_utangent(k, 1, rngs)
        (lhs, dmu), (lhs_a, dp) = fd_moment_conditions(
            m, 0, v, xi=xi, degree=[int(rng.integers(1, k + 1)) for rng in rngs])
        return [[("", abs(a - b)), ("", abs(c - d))]
                for a, b, c, d in zip(lhs, pairing(dmu, xi).tolist(), lhs_a, dp)]

    return _grouped(_w_signatures(trials), conditions, rngs)


def _negative_hamiltonian_w(rng) -> float:
    # the group condition with the pairing's sign flipped
    def flipped(sig, x, gs, xi, v):
        [(lhs, dmu)] = fd_moment_conditions(_class(sig, x, gs), 0, v, xi=xi)
        return [a + b for a, b in zip(lhs, pairing(dmu, xi).tolist())]

    return _worst_incoming_k3(
        rng, lambda rng: (sample_disc(rng, 3, 3), sample_utangent(3, 1, rng)), flipped)


def _d_omega(base, tans, chart=UChart, form=u_symplectic) -> list[float]:
    """|d form| at each point of a stacked base, on its three stacked tangents."""
    return [abs(d) for d in fd_exterior_derivative(form, chart(base), *tans)]


def _literal_wedge(m: UClass, u: UTangent, v: UTangent):
    """W's literal moment-wedge form read on a one-factor class, stacks included."""
    p = WPoint(g=m.gs[0], X=m.X, orientation=m.orientation(0))
    return w_symplectic_moment_wedge(p, *(WTangent(a=t.a_list[0], dc=t.dc) for t in (u, v)))


def _check_closedness(k, rngs, trials) -> list:
    w = _grouped(_w_signatures(trials), lambda sig, rs: _d_omega(
        _class(sig, *_wpoint_draws(k, rs)), [sample_utangent(k, 1, rs) for _ in range(3)]), rngs)
    sigs = [(int(rng.integers(1, 3)), int(rng.integers(0, 2))) for rng in rngs]
    u = _grouped(sigs, lambda sig, rs: _d_omega(
        sample_uclass(k, *sig, rs), [sample_utangent(k, sum(sig), rs) for _ in range(3)]), rngs)
    ds = [sample_jetscheme(k, 1, 0, rng) for rng in rngs]
    f = _grouped([tuple(p.length for p in d.pieces) for d in ds], lambda lengths, ds, rs: _d_omega(
        _stack(ds), [FTangent(rho=sample_disc(rs, k, k), dz=sample_disc(rs, len(lengths)))
                     for _ in range(3)], FChart, f_presymplectic), ds, rngs)
    return [list(zip(("w", "u", "f"), triple)) for triple in zip(w, u, f)]


def _negative_closedness(rng) -> float:
    # the literal moment-wedge form of W is not closed
    return _worst_incoming_k3(
        rng, lambda rng: [sample_utangent(3, 1, rng) for _ in range(3)],
        lambda sig, x, gs, *tans: _d_omega(_class(sig, x, gs), tans, form=_literal_wedge))


def _two_codings(m: UClass, u: UTangent, v: UTangent) -> list[float]:
    """Relative gap of `u_symplectic` and its single-slice coding, per point of a stack."""
    lhs, rhs = (f(m, u, v).tolist() for f in (u_symplectic, u_symplectic_single_slice_form))
    return [abs(a - b) / max(1.0, abs(a)) for a, b in zip(lhs, rhs)]


def _w_codings(sig, x, gs, u, v) -> list[tuple]:
    """(canonical, bracket, literal, Maurer-Cartan) values of W's forms per point,
    all read at the one W point of the drawn signature, slice coefficients and factor."""
    p = WPoint(gs[0], SlicePoint(x.shape[-1], x), INCOMING if sig == (1, 0) else OUTGOING)
    forms = w_symplectic, w_symplectic_bracket_form, w_symplectic_moment_wedge, maurer_cartan_term
    return list(zip(*(f(p, u, v).tolist() for f in forms)))


def _check_form_identity(k, rngs, trials) -> list:
    sigs = [(int(rng.integers(1, 3)), int(rng.integers(0, 3))) for rng in rngs]
    u = _grouped(sigs, lambda sig, rs: _two_codings(
        sample_uclass(k, *sig, rs), *(sample_utangent(k, sum(sig), rs) for _ in range(2))), rngs)
    w = _grouped(_w_signatures(trials), lambda sig, rs: _w_codings(
        sig, *_wpoint_draws(k, rs), sample_wtangent(k, rs), sample_wtangent(k, rs)), rngs)
    out = []
    for gap, (canon, bracket, literal, mc) in zip(u, w):
        scale = max(1.0, abs(canon))
        out.append([("u_two_codings", gap), ("w_two_codings", abs(canon - bracket) / scale),
                    ("literal_discrepancy_identity", abs(literal - canon - mc) / scale)])
    return out


def _negative_form_identity(rng) -> float:
    # the literal form differs from the canonical one by the Maurer-Cartan term
    return _worst_incoming_k3(
        rng, lambda rng: (sample_wtangent(3, rng), sample_wtangent(3, rng)),
        lambda *draws: [literal - canon for canon, _, literal, _ in _w_codings(*draws)])


def _check_axiom_d(k, rng, trial) -> _Residuals:
    b, bp = _SIGNATURES[trial % len(_SIGNATURES)]
    yield "", axiom_d_residual(sample_uclass(k, b, bp, rng))


def _negative_axiom_d(rng) -> float:
    # shift the moment in slot 0 only
    moments = _signed_moments(sample_uclass(3, 2, 1, rng))
    moments[0] = moments[0] + 0.1 * np.eye(3)
    return _invariant_spread(moments)


def _matched_glue_pairs(k: int, sig1: tuple, sig2: tuple, rngs: list) -> list[tuple]:
    """(m1, p_out, m2, q_in) per stream, satisfying the moment matching exactly:
    the q-th factor of m2 is g_{p'}^{-1} z with z in Z(X).  Each stream draws
    m1, p_out, z's coefficients, q_in and m2's factors, in this order."""
    (b1, bp1), (b2, bp2) = sig1, sig2
    x, gs1 = _uclass_draws(k, b1 + bp1, rngs)
    p_out = [b1 + int(rng.integers(0, bp1)) for rng in rngs]
    coefficients = _centralizer_coefficients(k, rngs)
    q_in = [int(rng.integers(0, b2)) for rng in rngs]
    gs2 = [sample_group(k, rngs) for _ in range(b2 + bp2)]
    pairs = []
    for j, (p, q) in enumerate(zip(p_out, q_in)):
        m1 = UClass(b=b1, bprime=bp1, gs=tuple(g[j] for g in gs1), X=SlicePoint(k, x[j]))
        h = [g[j] for g in gs2]
        h[q] = np.linalg.inv(m1.gs[p]) @ _centralizer_element(slice_embed(m1.X), coefficients[j])
        pairs.append((m1, p, UClass(b=b2, bprime=bp2, gs=tuple(h), X=m1.X), q))
    return pairs


_GLUE_SIGNATURE_PAIRS = (
    ((1, 1), (1, 0)),
    ((1, 1), (1, 1)),
    ((0, 1), (2, 0)),
    ((2, 1), (1, 1)),
    ((1, 2), (2, 0)),
    ((0, 2), (1, 1)),
)


def _check_gluing(k, rngs, trials) -> list:
    def check(sigs, rngs):  # one signature pair's draws stacked, its evaluation per case
        pairs = _matched_glue_pairs(k, *sigs, rngs)
        g0 = sample_group(k, rngs)  # re-gauges the matched pair
        # re-gauges a spectator factor of m1, drawn only when m1 has one
        g1 = sample_group(k, rngs) if sum(sigs[0]) > 1 else [None] * len(rngs)
        return [list(_glue_residuals(*sigs, *pair, *gs)) for pair, *gs in zip(pairs, g0, g1)]

    return _grouped([_GLUE_SIGNATURE_PAIRS[trial % len(_GLUE_SIGNATURE_PAIRS)] for trial in trials],
                    check, rngs)


def _glue_residuals(sig1, sig2, m1, p_out, m2, q_in, g0, g1) -> _Residuals:
    glued = glue(m1, p_out, m2, q_in)
    expect_sig = (sig1[0] + sig2[0] - 1, sig1[1] + sig2[1] - 1)
    if (glued.b, glued.bprime) != expect_sig:
        yield "", 1.0
        return
    yield "", axiom_d_residual(glued)
    # invariance under the receiving factor
    for receiver in range(1, glued.n_factors):
        yield "", u_equivalence_residual(glued, glue(m1, p_out, m2, q_in, receiver))
    # invariance under re-gauging the matched pair
    reglued = glue(g_action(m1, p_out, g0), p_out, g_action(m2, q_in, g0), q_in)
    yield "", u_equivalence_residual(glued, reglued)
    # invariance under re-gauging a spectator factor of m1
    if m1.n_factors > 1:
        spect = 0 if p_out != 0 else 1
        glued_alt = glue(g_action(m1, spect, g1), p_out, m2, q_in)
        # undo the spectator action on the result and compare
        idx = spect if spect < m1.b else m2.b - 1 + spect - (1 if spect > p_out else 0)
        undone = g_action(glued_alt, idx, np.linalg.inv(g1))
        yield "", u_equivalence_residual(glued, undone)
    # cylinder test for the (1,1) x (1,0) pair
    if sig1 == (1, 1) and sig2 == (1, 0):
        gg, _ = u11_to_tstar(m1)
        expected = UClass(b=1, bprime=0, gs=(gg @ m2.gs[0],), X=m1.X)
        yield "", u_equivalence_residual(glued, expected)


def _negative_gluing(rng) -> float:
    # mismatched moments must raise
    [(m1, p_out, m2, q_in)] = _matched_glue_pairs(3, (1, 1), (1, 1), [rng])
    m2_bad = replace(m2, gs=(m2.gs[0] @ (np.eye(3) + 0.2 * sample_disc(rng, 3, 3)),) + m2.gs[1:])
    try:
        glue(m1, p_out, m2_bad, q_in)
        return 0.0
    except GluingError:
        return 10.0


def _gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entrywise |a - b| per trial of two stacks."""
    return _largest(a - b, axes=a.ndim - 1)


def _check_theorem_2_4_i(k, rngs, trials) -> list:
    (x, gs), coefficients, (x_o, gs_o) = (
        _uclass_draws(k, 2, rngs), _centralizer_coefficients(k, rngs), _uclass_draws(k, 2, rngs))
    m = _class((1, 1), x, gs)
    g1, y1 = u11_to_tstar(m)
    z = _centralizer_element(slice_embed(m.X), coefficients)  # an equivalent (g_1 z, z^{-1} g_2)
    g2, y2 = u11_to_tstar(UClass(b=1, bprime=1, gs=(gs[0] @ z, np.linalg.inv(z) @ gs[1]), X=m.X))
    back = np.ones(len(y1))  # a case whose image the inverse refuses fails
    try:
        back[:] = u_equivalence_residual(m, u11_from_tstar(g1, y1))
    except RegularityError:  # the inverse takes regular images only: invert those alone
        ok = is_regular(y1)
        if ok.any():
            kept = _class((1, 1), x[ok], tuple(g[ok] for g in gs))
            back[ok] = u_equivalence_residual(kept, u11_from_tstar(g1[ok], y1[ok]))
    # injectivity: an independent class maps to a different image
    go, yo = u11_to_tstar(_class((1, 1), x_o, gs_o))
    sep_g, sep_y = _gap(g1, go), _gap(y1, yo)
    columns = _gap(g1, g2), _gap(y1, y2), back, np.where(sep_y > sep_g, sep_y, sep_g)
    return [[("", a), ("", b), ("", c), ("min_pair_separation", sep)]
            for a, b, c, sep in zip(*(column.tolist() for column in columns))]


def _negative_theorem_2_4_i(rng) -> float:
    # the half twin (g_1 z, g_2) lacks the compensating z^{-1}, so it is not
    # equivalent to m and its image must move
    m = sample_uclass(3, 1, 1, rng)
    z = sample_centralizer_element(slice_embed(m.X), rng)
    half = UClass(b=1, bprime=1, gs=(m.gs[0] @ z, m.gs[1]), X=m.X)
    return max(float(np.max(np.abs(a - b)))
               for a, b in zip(u11_to_tstar(m), u11_to_tstar(half)))


@lru_cache(maxsize=None)
def _slice_reversal_misses(k: int) -> int:
    """How many e + f^j `_reverse` moves off the slice (it should move none)."""
    return sum(not is_in_slice(_reverse(principal_triple(k).e + f_j)) for f_j in _f_powers(k))


def _check_axiom_e(k, rngs, trials) -> list:
    p, g0, a, h1, h2, m, g1 = (
        sample_wpoint(k, INCOMING, rngs), sample_group(k, rngs), sample_disc(rngs, k, k),
        sample_group(k, rngs), sample_group(k, rngs), sample_uclass(k, 2, 1, rngs),
        sample_group(k, rngs))
    # phi_E keeps X as it is, which holds because the reversal fixes the
    # slice matrix (a plain transpose would not)
    x = slice_embed(p.X)
    columns = [_gap(_reverse(x), x)]
    q = phi_E(p)
    # anti-equivariance with the conjugated involution
    lhs = phi_E(g_act_w(p, g0))
    rhs = g_act_w(q, theta_twisted(g0, "group"))
    columns += [_gap(lhs.g, rhs.g), _gap(lhs.X.coeffs, rhs.X.coeffs)]
    # round trip through the inverse
    columns.append(_gap(phi_E_inverse(q).g, p.g))
    # involution properties of theta itself
    columns.append(_gap(theta(theta(a)), a))
    columns.append(_gap(theta(h1 @ h2, "group"), theta(h1, "group") @ theta(h2, "group")))
    # conjugator maps the opposite slice into the slice
    failed = np.ones(len(trials))
    columns += [failed] * _slice_reversal_misses(k)
    # class-level reversal: signature shift, anti-equivariance on the
    # moved factor, plain equivariance on the untouched ones
    q_cls = phi_e_class(m)
    if (q_cls.b, q_cls.bprime) != (1, 2):
        columns.append(failed)
    columns.append(axiom_d_residual(q_cls))
    lhs_cls = phi_e_class(g_action(m, 1, g1))
    rhs_cls = g_action(q_cls, q_cls.n_factors - 1, theta_twisted(g1, "group"))
    columns += map(_gap, lhs_cls.gs, rhs_cls.gs)
    lhs_cls = phi_e_class(g_action(m, 0, g1))
    rhs_cls = g_action(q_cls, 0, g1)
    columns += map(_gap, lhs_cls.gs, rhs_cls.gs)
    return [[("", value) for value in row] for row in zip(*(c.tolist() for c in columns))]


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


def _check_hilbert_round_trip(k, rng, trial) -> _Residuals:
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
    for a, b in zip((*lhs.gs, lhs.X.coeffs), (*rhs.gs, rhs.X.coeffs)):
        yield "", float(np.max(np.abs(a - b)))


def _negative_hilbert_round_trip(rng) -> float:
    # shifted jets on one piece give an inequivalent class
    d = sample_jetscheme(3, 1, 0, rng)
    m = hilb_to_u(d)
    shifted = replace(d.pieces[0], jets=tuple(j + 0.25 for j in d.pieces[0].jets))
    d_bad = replace(d, pieces=(shifted,) + d.pieces[1:])
    return u_equivalence_residual(m, hilb_to_u(d_bad))


# Five well-separated eigenvalues: enough for every Jordan type up to k = 5.
JORDAN_BASE_POINTS = (-1.1 + 0.2j, 0.9 - 0.4j, 2.2 + 0.5j, -0.3 - 1.3j, 0.4 + 1.6j)


def _partitions(m, largest=None):
    """Every partition of m into parts of at most `largest`, largest part first."""
    if m == 0:
        yield ()
    for first in range(min(m, m if largest is None else largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def jordan_configurations(k):
    """Every Jordan type of size k up to the choice of eigenvalues: a
    multiset of partitions, one per distinct eigenvalue, giving its block
    lengths (partitions of partitions, OEIS A001970: 1, 3, 6, 14, 27)."""
    parts = [p for m in range(1, k + 1) for p in _partitions(m)]

    def multisets(total, start):
        if total == 0:
            yield ()
        for i in range(start, len(parts)):
            if sum(parts[i]) <= total:
                for rest in multisets(total - sum(parts[i]), i):
                    yield (parts[i],) + rest

    return list(multisets(k, 0))


def _jordan_type_schemes(k: int, rng: np.random.Generator) -> list[JetScheme]:
    """One well-conditioned (1,0) scheme per Jordan type of size k, the i-th
    partition's pieces at the i-th of `JORDAN_BASE_POINTS`: equal types share
    base points so they collide, distinct types differ."""
    return [
        sample_jetscheme(k, 1, 0, rng, lengths=[l for part in config for l in part],
                         zs=[JORDAN_BASE_POINTS[i] for i, part in enumerate(config) for _ in part])
        for config in jordan_configurations(k)
    ]


def _check_fitting_orbits(k, rng, case) -> _Residuals:
    schemes = _jordan_type_schemes(k, rng)
    moments = f_moment(schemes)
    invariants = [orbit_invariant(d) for d in schemes]
    same_type = [[orbit_invariant_equal(a, b) for b in invariants] for a in invariants]
    mistakes = int(np.sum(same_type != adjoint_orbits_match(moments[:, None], moments[None])))
    # the action and the moment map are equivariant, per scheme: the first
    # factor G(g0 . d) = g0 G(d), and mu(g0 . d) = g0 mu(d) g0^{-1}
    g0 = sample_group(k, rng)
    moved = [act_on_scheme(d, [g0]) for d in schemes]
    first = [np.array([g_matrices(d)[0] for d in ds]) for ds in (moved, schemes)]
    for got, expected in ((first[0], g0 @ first[1]),
                          (f_moment(moved), g0 @ moments @ np.linalg.inv(g0))):
        miss = np.abs(got - expected)
        scale = np.maximum(1.0, np.max(np.abs(expected), axis=(1, 2)))
        mistakes += int(np.sum(np.max(miss, axis=(1, 2)) / scale > EQUIVARIANCE_TOL))
    # a second sample of the same Jordan type must give conjugate moments
    schemes2 = _jordan_type_schemes(k, rng)
    mistakes += int(np.sum(~adjoint_orbits_match(moments, f_moment(schemes2))))
    # kernel dichotomy on constructed examples
    d_split = sample_jetscheme(k, 1, 0, rng, lengths=[1] * k)
    if f_kernel_dimension(d_split) != 0:
        mistakes += 1
    zc = complex(0.4, -0.2)
    d_coll = sample_jetscheme(k, 1, 0, rng, lengths=[1] * k, zs=[zc] * 2 + [2.0 + 0.1j] * (k - 2))
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


def _check_free_action(k, rng, trial) -> _Residuals:
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
    "axiom_d": _Suite(_each(_check_axiom_d), _negative_axiom_d, 1e-10, 1e-2, k_cap=5),
    "gluing": _Suite(_check_gluing, _negative_gluing, 1e-9, 1.0),
    "theorem_2_4_i": _Suite(
        _check_theorem_2_4_i, _negative_theorem_2_4_i, 1e-9, 1e-6,
        parts=(("", "max", None), ("min_pair_separation", "min", 1e-6)),
    ),
    "axiom_e": _Suite(_check_axiom_e, _negative_axiom_e, 1e-10, 1e-2),
    "hilbert_round_trip": _Suite(
        _each(_check_hilbert_round_trip), _negative_hilbert_round_trip, 1e-9, 1e-3
    ),
    "fitting_orbits": _Suite(
        _each(_check_fitting_orbits), _negative_fitting_orbits, 0.5, 1.0,
        parts=(("mispredictions", "sum", None),), sizes=(2, 3),
    ),
    # acceptances are counted 0 or 1: 0.5 separates them
    "free_action": _Suite(_each(_check_free_action), _negative_free_action, 0.5, 0.5, k_cap=5),
}

SUITE_NAMES = tuple(_SUITES)


@dataclass(frozen=True)
class SuiteConfig:
    k: int = 3
    trials: int = 50
    seed: int = 42
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        for name in ("k", "trials", "seed"):  # bools and floats are refused, not truncated
            object.__setattr__(self, name, _int_field(vars(self), name))
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


def _run(name: str, cfg: SuiteConfig) -> SuiteResult:
    """Run one suite: take each case's size (a case suite's own, or one drawn
    from the case's stream), check the cases of each size as one group, fold
    each residual part over the cases in case order, evaluate the negative
    control and apply the pass rule."""
    t0 = time.perf_counter()
    suite = _SUITES[name]
    cases = suite.sizes or range(cfg.trials)
    rngs = [trial_rng(cfg.seed, name, case) for case in cases]
    ks = suite.sizes or [_draw_k(rng, cfg.k, suite.k_cap) for rng in rngs]
    residuals = _grouped(ks, suite.check, rngs, cases)
    acc = {part: _FOLDS[fold][1] for part, fold, _ in suite.parts}
    folds = {part: _FOLDS[fold][0] for part, fold, _ in suite.parts}
    # a NaN value makes its part NaN for good, and then the max residual:
    # Python's max and min return their first argument against a NaN
    for pairs in residuals:
        for part, value in pairs:
            acc[part] = value if value != value else folds[part](acc[part], value)
    worst = [acc[part] for part, fold, _ in suite.parts if fold != "min"]
    neg = suite.negative(trial_rng(cfg.seed, f"{name}-neg", 0))
    passed = True
    for part, fold, bound in suite.parts:
        bound = suite.tolerance if bound is None else bound
        passed = passed and (acc[part] > bound if fold == "min" else acc[part] < bound)
    return SuiteResult(
        name=name,
        trials=len(cases),
        max_residual=float(np.nan if any(w != w for w in worst) else max(worst)),
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

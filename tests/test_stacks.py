"""The stack-aware class routines and samplers against one call per trial.

Each routine that takes a leading trial axis must give, for a stack of three
trials, the bytes of three calls on the single trials, and must refuse a
stack with one bad member with the typed error that member raises alone.
Each sampler that takes a list of streams must give the bytes of one call
per stream, and leave every stream where that call leaves it.
"""
import copy
import dataclasses

import numpy as np
import pytest

from mtv.errors import DegenerateSchemeError, GluingError, RegularityError, SingularMatrixError
from mtv.hilbert import LocalPiece, hilb_to_u
from mtv.lie import _krylov_frame, ad_operator, centralizer_dimension, is_regular, power_traces
from mtv.slodowy import SlicePoint, _slice_from_power_sums, slice_representative
from mtv.uspace import (
    UClass,
    _cyclic_candidates,
    _cyclic_frame,
    _invariant_spread,
    _signed_moments,
    axiom_d_residual,
    g_action,
    glue,
    phi_e_class,
    u11_from_tstar,
    u11_to_tstar,
    u_equivalence_residual,
)
from mtv.verify import (
    _SIGNATURES,
    _centralizer_coefficients,
    _centralizer_element,
    _matched_glue_pairs,
    _stack,
    _uclass_draws,
    sample_disc,
    sample_group,
    sample_jetscheme,
    sample_slice_point,
    sample_uclass,
    sample_utangent,
    sample_wpoint,
    sample_wtangent,
    trial_rng,
)
from mtv.slodowy import slice_embed
from mtv.wspace import (
    INCOMING,
    OUTGOING,
    _act,
    _reverse,
    g_act_w,
    phi_E,
    phi_E_inverse,
    theta,
    theta_twisted,
)

KS = range(1, 6)


def _same(stacked, alone):
    """stacked, an array with a leading trial axis, has the bytes of the
    per-trial values in alone."""
    alone = np.array(alone)
    assert stacked.shape == alone.shape
    assert stacked.tobytes() == alone.tobytes()


def _same_class(stacked: UClass, alone: list[UClass]):
    assert (stacked.b, stacked.bprime) == (alone[0].b, alone[0].bprime)
    _same(stacked.X.coeffs, [m.X.coeffs for m in alone])
    for i, g in enumerate(stacked.gs):
        _same(g, [m.gs[i] for m in alone])


def _members(m: UClass) -> list[UClass]:
    """The single classes of a stacked class."""
    return [UClass(m.b, m.bprime, tuple(g[j] for g in m.gs), SlicePoint(m.X.k, x))
            for j, x in enumerate(m.X.coeffs)]


def _matrices(rng, k):
    """Random matrices, a repeated-eigenvalue (non-regular) one and a Jordan
    block, in threes."""
    eig = sample_disc(rng, k)
    eig[1:2] = eig[0]
    g = sample_group(k, rng)
    xs = [sample_disc(rng, k, k) for _ in range(4)]
    xs += [g @ np.diag(eig) @ np.linalg.inv(g), np.eye(k, k=1) + 0j]
    return [xs[:3], xs[3:]]


# Each sampler that takes a list of streams, as a call (stream or streams, k).
SAMPLERS = {
    "disc": lambda rng, k: sample_disc(rng, k, k),
    "disc_scalar": lambda rng, k: sample_disc(rng),
    "disc_radius": lambda rng, k: sample_disc(rng, k, radius=0.4),
    "slice_point": lambda rng, k: sample_slice_point(k, rng),
    "group": lambda rng, k: sample_group(k, rng),
    "utangent": lambda rng, k: sample_utangent(k, 3, rng),
    "wtangent": lambda rng, k: sample_wtangent(k, rng),
    "uclass_draws": lambda rng, k: _uclass_draws(k, 2, rng),
    "centralizer_coefficients": lambda rng, k: _centralizer_coefficients(k, rng),
}


class _Stub:
    """A duck-typed stream: it has `random(shape)` only, besides the state read here."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator
        self._random = rng.random

    def random(self, shape):
        return self._random(shape)


def _arrays(draw) -> list:
    """The arrays and numbers of a draw, field by field, in order."""
    if isinstance(draw, (np.ndarray, np.generic)):
        return [draw]
    if isinstance(draw, (tuple, list)):
        return [a for part in draw for a in _arrays(part)]
    if dataclasses.is_dataclass(draw):
        return _arrays([getattr(draw, f.name) for f in dataclasses.fields(draw)])
    return []


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("stream", [lambda rng: rng, _Stub], ids=["generator", "stub"])
def test_samplers_take_a_list_of_streams(k, name, stream):
    for n in (1, 3):
        rngs = [trial_rng(35, name, n * 10 + t) for t in range(n)]
        copies = copy.deepcopy(rngs)
        stacked = SAMPLERS[name]([stream(rng) for rng in rngs], k)
        alone = [SAMPLERS[name](stream(rng), k) for rng in copies]
        parts = list(zip(*map(_arrays, alone)))
        assert len(_arrays(stacked)) == len(parts) > 0
        for got, want in zip(_arrays(stacked), parts):
            _same(got, want)
        # each stream made the draws of its one-stream call, no more
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in copies]


@pytest.mark.parametrize("k", KS)
def test_centralizer_coefficients_are_k_disc_draws(k):
    # one random((k, 2)) draw gives the bits and the stream state of k
    # shape-() disc draws, one per coefficient
    rng, twin = trial_rng(36, "coefficients", k), trial_rng(36, "coefficients", k)
    _same(_centralizer_coefficients(k, rng), [sample_disc(twin) for _ in range(k)])
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("k", KS)
def test_lie_and_slice_routines(k):
    rng = trial_rng(31, "stacked-lie", k)
    for xs in _matrices(rng, k):
        x = np.stack(xs)
        _same(ad_operator(x), [ad_operator(a) for a in xs])
        _same(centralizer_dimension(x), [centralizer_dimension(a) for a in xs])
        _same(is_regular(x), [is_regular(a) for a in xs])
        vs = sample_disc(rng, 3, k)
        _same(_krylov_frame(x, vs), [_krylov_frame(a, v) for a, v in zip(xs, vs)])
        cands = _cyclic_candidates(k)
        _same(_krylov_frame(x[:, None], cands), [_krylov_frame(a, cands) for a in xs])
        targets = power_traces(x)
        _same(_slice_from_power_sums(targets, k).coeffs,
              [_slice_from_power_sums(t, k).coeffs for t in targets])
    xs = [sample_disc(rng, k, k) for _ in range(3)]
    _same(slice_representative(np.stack(xs)).coeffs, [slice_representative(a).coeffs for a in xs])
    _same(_cyclic_frame(np.stack(xs)), [_cyclic_frame(a) for a in xs])


@pytest.mark.parametrize("k", KS)
def test_w_routines(k):
    rng = trial_rng(32, "stacked-w", k)
    gs, hs, a = ([sample_group(k, rng) for _ in range(3)] for _ in range(3))
    g, h = np.stack(gs), np.stack(hs)
    _same(_reverse(g), [_reverse(x) for x in gs])
    for kind, xs in (("algebra", a), ("group", gs)):
        _same(theta(np.stack(xs), kind), [theta(x, kind) for x in xs])
        _same(theta_twisted(np.stack(xs), kind), [theta_twisted(x, kind) for x in xs])
    for orientation in (INCOMING, OUTGOING):
        _same(_act(g, h, orientation), [_act(x, y, orientation) for x, y in zip(gs, hs)])
        # one element acting on every factor of a stack
        _same(_act(g, hs[0], orientation), [_act(x, hs[0], orientation) for x in gs])
    ps = [sample_wpoint(k, INCOMING, rng) for _ in range(3)]
    p = _stack(ps)
    _same(phi_E(p).g, [phi_E(q).g for q in ps])
    _same(phi_E_inverse(phi_E(p)).g, [phi_E_inverse(phi_E(q)).g for q in ps])
    _same(g_act_w(p, h).g, [g_act_w(q, y).g for q, y in zip(ps, hs)])


@pytest.mark.parametrize("k", KS)
def test_class_routines(k):
    rng = trial_rng(33, "stacked-u", k)
    for b, bp in _SIGNATURES:
        ms = [sample_uclass(k, b, bp, rng) for _ in range(3)]
        twins = [sample_uclass(k, b, bp, rng) for _ in range(3)]
        m = _stack(ms)
        _same(axiom_d_residual(m), [axiom_d_residual(n) for n in ms])
        _same(_invariant_spread(_signed_moments(m)),
              [_invariant_spread(_signed_moments(n)) for n in ms])
        _same(u_equivalence_residual(m, _stack(twins)),
              [u_equivalence_residual(n, t) for n, t in zip(ms, twins)])
        g0s = [sample_group(k, rng) for _ in range(3)]
        for i in range(b + bp):
            _same_class(g_action(m, i, np.stack(g0s)),
                        [g_action(n, i, g0) for n, g0 in zip(ms, g0s)])
        if b:
            _same_class(phi_e_class(m), [phi_e_class(n) for n in ms])
    ms = [sample_uclass(k, 1, 1, rng) for _ in range(3)]
    gs, ys = zip(*map(u11_to_tstar, ms))
    _same_class(u11_from_tstar(np.stack(gs), np.stack(ys)),
                [u11_from_tstar(g, y) for g, y in zip(gs, ys)])
    xs = [slice_embed(n.X) for n in ms]
    cs = [_centralizer_coefficients(k, rng) for _ in ms]
    _same(_centralizer_element(np.stack(xs), np.stack(cs)),
          [_centralizer_element(x, c) for x, c in zip(xs, cs)])


def _lengths(k: int) -> list[list[int]]:
    """Three piece patterns of size k: one piece, k pieces of length 1, and 1 + (k - 1)."""
    return [[k], [1] * k, [1, k - 1] if k > 1 else [1]]


@pytest.mark.parametrize("k", KS)
def test_hilb_to_u_of_a_sequence(k):
    # one stack per signature, its schemes with mixed piece lengths
    rng = trial_rng(37, "stacked-hilb", k)
    for b, bp in _SIGNATURES:
        ds = [sample_jetscheme(k, b, bp, rng, lengths=lengths) for lengths in _lengths(k)]
        _same_class(hilb_to_u(ds), [hilb_to_u(d) for d in ds])
        _same_class(hilb_to_u(ds[1:2]), [hilb_to_u(ds[1])])


# Signature pairs that glue, leaving 1 to 5 factors to receive the centralizer element.
_GLUED = (((1, 1), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (1, 1)), ((2, 1), (1, 1)),
          ((1, 2), (2, 0)), ((0, 2), (1, 1)), ((2, 2), (1, 2)))


@pytest.mark.parametrize("k", KS)
def test_glue_stack(k):
    # every (p_out, q_in) drawn, stacked over its streams, glued at every receiver
    for sigs in _GLUED:
        matched, pair = _matched_glue_pairs(
            k, *sigs, [trial_rng(38, f"stacked-glue-{sigs}", t) for t in range(8)])
        for pq in set(matched):
            at = [j for j, key in enumerate(matched) if key == pq]
            m1, p, m2, q = pair(pq, at)
            alone = [pair(pq, j) for j in at]
            _same_class(m2, [a[2] for a in alone])
            for receiver in range(sum(sigs[0]) + sum(sigs[1]) - 2):
                _same_class(glue(m1, p, m2, q, receiver),
                            [glue(*a, receiver) for a in alone])


@pytest.mark.parametrize("k", range(2, 6))
def test_stack_with_one_bad_member_refused_as_that_member(k):
    rng = trial_rng(34, "stacked-refusals", k)
    good = [sample_group(k, rng) for _ in range(3)]
    eig = sample_disc(rng, k)
    eig[1] = eig[0]
    non_regular = np.diag(eig)
    singular = good[0] @ np.diag([1.0] * (k - 1) + [0.0])
    cases = [
        (slice_representative, non_regular, RegularityError),
        (lambda y: u11_from_tstar(np.eye(k, dtype=complex), y), non_regular, RegularityError),
        (_cyclic_frame, np.zeros((k, k), dtype=complex), SingularMatrixError),
        (lambda g: theta(g, "group"), singular, SingularMatrixError),
        (lambda g: theta_twisted(g, "group"), singular, SingularMatrixError),
        (lambda h: _act(np.stack(good) if h.ndim == 3 else good[0], h, OUTGOING),
         singular, SingularMatrixError),
    ]
    for call, bad, error in cases:
        with pytest.raises(error) as alone:
            call(bad)
        stack = np.stack(good)
        stack[1] = bad
        with pytest.raises(error) as stacked:
            call(stack)
        assert str(stacked.value) == str(alone.value)
    # a scheme with colliding base points among transverse ones
    schemes = [sample_jetscheme(k, 1, 1, rng, lengths=[1] * k) for _ in range(3)]
    collided = dataclasses.replace(schemes[1], pieces=(
        schemes[1].pieces[0], LocalPiece(schemes[1].pieces[0].z, 1, schemes[1].pieces[1].jets),
        *schemes[1].pieces[2:]))
    # a gluing pair whose matched moments differ
    matched, pair = _matched_glue_pairs(
        k, (1, 1), (1, 1), [trial_rng(34, "stacked-glue-refusal", t) for t in range(3)])
    m1, p, m2, q = pair(matched[0], [0, 1, 2])
    bent = m2.gs[q].copy()
    bent[1] = bent[1] @ (np.eye(k) + 0.2 * sample_disc(rng, k, k))
    m2 = dataclasses.replace(m2, gs=(bent,) + m2.gs[1:])
    for call_alone, call_stack, error in (
        (lambda: hilb_to_u(collided), lambda: hilb_to_u([schemes[0], collided, schemes[2]]),
         DegenerateSchemeError),
        (lambda: glue(_members(m1)[1], p, _members(m2)[1], q), lambda: glue(m1, p, m2, q),
         GluingError),
    ):
        with pytest.raises(error) as alone:
            call_alone()
        with pytest.raises(error) as stacked:
            call_stack()
        assert str(stacked.value) == str(alone.value)


def test_glue_scales_each_trial_by_its_own_moment():
    # trial 0's moment is about 1e6, so 1e-9 of it would pass trial 1's
    # mismatch of about 1e-7; each trial must be held to its own bound
    rngs = [trial_rng(39, "glue-scale", t) for t in range(2)]
    (x, gs), g2 = _uclass_draws(3, 2, rngs), sample_group(3, rngs)
    x[0] *= 1e6
    h = np.linalg.inv(gs[1])  # matched: g_1 h = 1 lies in every centralizer
    h[1] = h[1] @ (np.eye(3) + 1e-7 * sample_disc(rngs[1], 3, 3))
    m1 = UClass(1, 1, gs, SlicePoint(3, x))
    m2 = UClass(1, 1, (h, g2), m1.X)
    (large1, small1), (large2, small2) = _members(m1), _members(m2)
    glue(large1, 1, large2, 0)
    for pair in ((small1, small2), (m1, m2)):
        with pytest.raises(GluingError, match="moments do not match"):
            glue(pair[0], 1, pair[1], 0)

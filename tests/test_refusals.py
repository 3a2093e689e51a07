"""Typed refusals that no other test, suite or benchmark op reaches: each row
is one malformed or degenerate input and the `MtvError` subclass, with a
fragment of its message, that the engine must raise for it."""
import re

import numpy as np
import pytest

from mtv.errors import (
    DegenerateSchemeError,
    DimensionMismatchError,
    GluingError,
    SignatureError,
    SingularMatrixError,
    ValidationError,
)
from mtv.hilbert import (
    FTangent,
    JetScheme,
    LocalPiece,
    act_on_scheme,
    adjoint_orbits_match,
    f_presymplectic,
    jet_normalize,
    jet_scalar_inverse,
    normalize_scheme,
    u_to_hilb,
)
from mtv.lie import AElement, InvariantPolynomial, as_matrix
from mtv.serialize import uclass_from_json, uclass_to_json, wpoint_from_json, wpoint_to_json
from mtv.slodowy import (
    SlicePoint,
    principal_triple,
    slice_coefficients_from_roots,
    slice_point,
)
from mtv.uspace import (UClass, UTangent, a0_action, g_action, glue, u_build, u_moment,
                        u_symplectic, w00_from_glue)
from mtv.verify import fd_moment_conditions, sample_jetscheme
from mtv.wspace import INCOMING, WPoint, WTangent, phi_E_inverse, theta

from conftest import one

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)
X2 = slice_point([0.3 + 0.1j, -0.2])
JET = np.array([[1.0, 0.0]])


def _scheme(b=1, bprime=0):
    piece = LocalPiece(z=0.5, length=2, jets=(np.array([[1.0, 0.0], [0.0, 1.0]]),))
    return JetScheme(k=2, b=b, bprime=bprime, pieces=(piece,))


SINGULAR2 = np.diag([1.0, 0.0])


def _stacked_scheme(n_pieces):
    """A scheme of stacked pieces (z of shape (2,), jets of shape (2, length, k)),
    a layout that LocalPiece accepts."""
    length = 2 // n_pieces
    jets = np.stack([np.eye(length, 2), np.eye(length, 2)])
    piece = LocalPiece(z=np.array([0.5, 0.6]), length=length, jets=(jets, jets))
    return JetScheme(k=2, b=1, bprime=1, pieces=(piece,) * n_pieces)


def _stacked_class(stacked_x=True):
    """A (1,0) class of two points at k = 2: factors of shape (2, k, k) and, if
    stacked_x, slice coefficients of shape (2, k), a layout that UClass accepts."""
    coeffs = np.array([[0.3, -0.2], [0.1, 0.4]]) if stacked_x else np.array([0.3, -0.2])
    return UClass(b=1, bprime=0, gs=(np.stack([I2, 2 * I2]),), X=SlicePoint(k=2, coeffs=coeffs))


def _class_with_huge_entry():
    # 1 followed by 400 zeros: a JSON integer too large for a double
    data = uclass_to_json(UClass(b=1, bprime=0, gs=(I2,), X=X2))
    data["gs"][0][0][0][0] = 10**400
    return uclass_from_json(data)


def _class(b, bprime):
    return UClass(b=b, bprime=bprime, gs=(I2,) * (b + bprime), X=X2)


def _tangent(n):
    return UTangent(a_list=(I2,) * n, dc=np.zeros(2, dtype=complex))


def _glue_scaled_moments():
    # X with entries near 100 allows a moment gap of 1e-7; the slice parts
    # differ by 1e-8, ten times the absolute slice bound
    x1 = slice_point([100.0, 100.0])
    x2 = slice_point([100.0 + 1e-8, 100.0])
    glue(UClass(b=0, bprime=1, gs=(I2,), X=x1), 0, UClass(b=1, bprime=0, gs=(I2,), X=x2), 0)


def _glue_off_centralizer():
    # g = diag(1e-4, 1) magnifies the moment, and with it the matching bound,
    # 1e4 times, while u = g h = 1 + 1e-6 E_10 misses Z(X) by about 1e-6
    g = np.diag([1e-4, 1.0]).astype(complex)
    u = I2 + 1e-6 * np.eye(2, k=-1)
    m_out = UClass(b=0, bprime=1, gs=(g,), X=X2)
    m_in = UClass(b=1, bprime=1, gs=(np.linalg.inv(g) @ u, I2), X=X2)
    glue(m_out, 0, m_in, 0)


class _ConstantRng:
    """Every draw 0.5: each sampled jet repeats one vector, so every factor
    matrix of a sampled scheme has rank one."""

    def random(self, shape):
        return np.full(shape, 0.5)


REFUSALS = [
    ("piece_length_0", lambda: LocalPiece(z=0.0, length=0, jets=()),
     ValidationError, "length must be >= 1"),
    ("jet_shape", lambda: LocalPiece(z=0.0, length=2, jets=(JET,)),
     ValidationError, "shape"),
    ("jets_disagree_on_k",
     lambda: LocalPiece(z=0.0, length=1, jets=(JET, np.ones((1, 3)))),
     ValidationError, "disagree"),
    ("z_not_finite", lambda: LocalPiece(z=complex("nan"), length=1, jets=(JET,)),
     ValidationError, "base point"),
    ("jets_not_in_C^k",
     lambda: JetScheme(k=2, b=1, bprime=0, pieces=(LocalPiece(0.0, 2, (np.ones((2, 3)),)),)),
     ValidationError, "C^k"),
    ("jet_scalar_inverse", lambda: jet_scalar_inverse(np.array([0.0, 1.0], dtype=complex)),
     DegenerateSchemeError, "constant term"),
    ("act_on_scheme_factor_count", lambda: act_on_scheme(_scheme(), [I2, I2]),
     ValidationError, "one group element per factor"),
    ("piece_without_jets", lambda: LocalPiece(z=0.0, length=1, jets=()),
     ValidationError, "one jet per factor"),
    ("act_on_scheme_singular_incoming", lambda: act_on_scheme(_scheme(), [SINGULAR2]),
     SingularMatrixError, "singular"),
    ("act_on_scheme_singular_outgoing", lambda: act_on_scheme(_scheme(0, 1), [SINGULAR2]),
     SingularMatrixError, "singular"),
    ("act_on_scheme_size", lambda: act_on_scheme(_scheme(), [I3]),
     DimensionMismatchError, "size mismatch"),
    ("act_on_scheme_size_in_stack", lambda: act_on_scheme(_scheme(), [np.stack([I3, I3])]),
     DimensionMismatchError, "size mismatch"),
    ("act_on_scheme_singular_in_stack",
     lambda: act_on_scheme(_scheme(), [np.stack([I2, SINGULAR2])]),
     SingularMatrixError, "singular"),
    ("f_tangent_size",
     lambda: f_presymplectic(_scheme(), *[FTangent(rho=I3, dz=np.zeros(1))] * 2),
     DimensionMismatchError, "size mismatch"),
    ("orbit_test_size", lambda: adjoint_orbits_match(I2, I3),
     DimensionMismatchError, "size mismatch"),
    ("as_matrix_not_finite", lambda: as_matrix([[np.inf, 0.0], [0.0, 1.0]]),
     ValidationError, "finite"),
    ("degree_exceeds_k",
     lambda: AElement(factors=((InvariantPolynomial(3),),)).degree_profile(2),
     ValidationError, "exceeds k"),
    ("json_number_too_large", _class_with_huge_entry, ValidationError, "malformed matrix"),
    ("jet_normalize_stacked_piece", lambda: jet_normalize(_stacked_scheme(1).pieces[0]),
     ValidationError, "not a stack"),
    ("normalize_scheme_stacked_pieces", lambda: normalize_scheme(_stacked_scheme(2)),
     ValidationError, "not a stack"),
    ("u_to_hilb_stacked_class", lambda: u_to_hilb(_stacked_class()),
     ValidationError, "not a stack"),
    ("u_to_hilb_stacked_factors", lambda: u_to_hilb(_stacked_class(stacked_x=False)),
     ValidationError, "not a stack"),
    ("wpoint_json_orientation",
     lambda: wpoint_from_json({**wpoint_to_json(WPoint(I2, X2, INCOMING)),
                               "orientation": "x"}),
     ValidationError, "orientation"),
    ("principal_triple_k0", lambda: principal_triple(0), ValidationError, "k must be"),
    ("slice_coefficient_count", lambda: SlicePoint(k=2, coeffs=np.zeros(3)),
     ValidationError, "coefficients"),
    ("slice_not_finite", lambda: SlicePoint(k=2, coeffs=np.array([np.nan, 0.0])),
     ValidationError, "finite"),
    ("root_count", lambda: slice_coefficients_from_roots(np.array([1.0, 2.0]), 3),
     ValidationError, "k roots"),
    ("uclass_factor_count", lambda: UClass(b=1, bprime=1, gs=(I2,), X=X2),
     ValidationError, "factor count"),
    ("uclass_factor_size", lambda: UClass(b=1, bprime=0, gs=(I3,), X=X2),
     ValidationError, "factor size"),
    ("u_build_empty", lambda: u_build([]), ValidationError, "at least one"),
    ("u_symplectic_factor_count", lambda: u_symplectic(_class(1, 1), _tangent(1), _tangent(2)),
     ValidationError, "factor count"),
    ("glue_q_in", lambda: glue(_class(1, 1), 1, _class(1, 1), 1), SignatureError, "q_in"),
    ("glue_slice_parts", _glue_scaled_moments, GluingError, "slice parts differ"),
    ("glue_centralizer", _glue_off_centralizer, GluingError, "centralizer"),
    ("w00_signatures", lambda: w00_from_glue(_class(1, 1), _class(1, 0)),
     SignatureError, "(0,1)"),
    ("a0_action_length",
     lambda: a0_action(AElement(factors=((InvariantPolynomial(1),),)), _class(1, 1)),
     ValidationError, "tuple length"),
    ("sample_jetscheme_gives_up",
     lambda: sample_jetscheme(2, 1, 0, _ConstantRng(), lengths=[1, 1], zs=[0.0, 1.0]),
     ValidationError, "well-conditioned"),
    ("signature_0_0", lambda: UClass(b=0, bprime=0, gs=(), X=X2), SignatureError, "b + b'"),
    ("factor_index", lambda: _class(1, 1).orientation(2), ValidationError, "out of range"),
    ("u_moment_factor_index", lambda: u_moment(_class(1, 1), 7), ValidationError, "out of range"),
    ("g_action_factor_index", lambda: g_action(_class(1, 1), 2, I2),
     ValidationError, "out of range"),
    ("fd_moment_conditions_factor_index",
     lambda: fd_moment_conditions(one(_class(1, 1)), 2, one(_tangent(2)), xi=one(I2)),
     ValidationError, "out of range"),
    ("wpoint_orientation", lambda: WPoint(g=I2, X=X2, orientation="x"),
     ValidationError, "orientation"),
    ("wpoint_size", lambda: WPoint(g=I3, X=X2, orientation=INCOMING),
     ValidationError, "sizes differ"),
    ("wtangent_dc", lambda: WTangent(a=I2, dc=np.zeros(3)), ValidationError, "length k"),
    ("theta_kind", lambda: theta(I2, kind="x"), ValidationError, "kind"),
    ("phi_E_inverse_incoming", lambda: phi_E_inverse(WPoint(I2, X2, INCOMING)),
     ValidationError, "outgoing"),
]


@pytest.mark.parametrize(
    "call, error, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
)
def test_typed_refusal(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()

"""JSON schemas shared across the package and the command line.

Complex scalars serialize as [re, im]; a matrix as a k x k array of pairs;
see the per-type functions for the object layouts.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError
from .hilbert import JetScheme, LocalPiece
from .lie import Matrix, as_matrix
from .slodowy import SlicePoint
from .uspace import UClass
from .wspace import INCOMING, OUTGOING, WPoint


def _parses_input(fn):
    """Report structurally wrong JSON given to a `*_from_json` reader (a
    missing key, a wrong type, an unparsable number) as ValidationError."""

    @functools.wraps(fn)
    def reader(data):
        try:
            return fn(data)
        except (TypeError, ValueError, KeyError) as exc:
            what = fn.__name__.removesuffix("_from_json")
            raise ValidationError(f"malformed {what}: {exc!r}") from exc

    return reader


def _int_field(data, key: str) -> int:
    """The integer field `key` of a JSON object; bools, floats and strings
    are refused rather than truncated."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(value)


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValidationError(f"expected [re, im], got {pair!r}")
    re, im = pair
    # float() would parse a string and read a bool as 0 or 1
    if isinstance(re, (str, bool)) or isinstance(im, (str, bool)):
        raise ValidationError(f"expected numbers [re, im], got {pair!r}")
    return complex(float(re), float(im))


def matrix_to_json(m: Matrix) -> list[list[list[float]]]:
    m = as_matrix(m)
    return [[complex_to_pair(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]


@_parses_input
def matrix_from_json(data) -> Matrix:
    rows = [[pair_to_complex(entry) for entry in row] for row in data]
    return as_matrix(np.array(rows, dtype=complex))


def vector_to_json(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v, dtype=complex)]


@_parses_input
def vector_from_json(data) -> np.ndarray:
    return np.array([pair_to_complex(p) for p in data], dtype=complex)


def slice_point_to_json(s: SlicePoint) -> dict:
    return {"k": s.k, "coeffs": vector_to_json(s.coeffs)}


@_parses_input
def slice_point_from_json(data) -> SlicePoint:
    return SlicePoint(k=_int_field(data, "k"), coeffs=vector_from_json(data["coeffs"]))


def wpoint_to_json(p: WPoint) -> dict:
    return {
        "orientation": p.orientation,
        "g": matrix_to_json(p.g),
        "X": slice_point_to_json(p.X),
    }


@_parses_input
def wpoint_from_json(data) -> WPoint:
    orientation = data["orientation"]
    if orientation not in (INCOMING, OUTGOING):
        raise ValidationError("orientation must be 'in' or 'out'")
    return WPoint(
        g=matrix_from_json(data["g"]),
        X=slice_point_from_json(data["X"]),
        orientation=orientation,
    )


def uclass_to_json(m: UClass) -> dict:
    return {
        "b": m.b,
        "bprime": m.bprime,
        "gs": [matrix_to_json(g) for g in m.gs],
        "X": slice_point_to_json(m.X),
    }


@_parses_input
def uclass_from_json(data) -> UClass:
    return UClass(
        b=_int_field(data, "b"),
        bprime=_int_field(data, "bprime"),
        gs=tuple(matrix_from_json(g) for g in data["gs"]),
        X=slice_point_from_json(data["X"]),
    )


def jetscheme_to_json(d: JetScheme) -> dict:
    return {
        "k": d.k,
        "b": d.b,
        "bprime": d.bprime,
        "pieces": [
            {
                "z": complex_to_pair(p.z),
                "len": p.length,
                "jets": [
                    [vector_to_json(p.jets[j][a]) for a in range(p.length)]
                    for j in range(p.n_factors)
                ],
            }
            for p in d.pieces
        ],
    }


@_parses_input
def jetscheme_from_json(data) -> JetScheme:
    pieces = []
    for pd in data["pieces"]:
        length = _int_field(pd, "len")
        jets = tuple(
            np.array([vector_from_json(vec) for vec in factor], dtype=complex)
            for factor in pd["jets"]
        )
        pieces.append(
            LocalPiece(z=pair_to_complex(pd["z"]), length=length, jets=jets)
        )
    return JetScheme(
        k=_int_field(data, "k"),
        b=_int_field(data, "b"),
        bprime=_int_field(data, "bprime"),
        pieces=tuple(pieces),
    )

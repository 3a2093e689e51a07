import json

import numpy as np
import pytest

from mtv.errors import ValidationError
from mtv.serialize import (
    jetscheme_from_json,
    jetscheme_to_json,
    matrix_from_json,
    matrix_to_json,
    slice_point_from_json,
    slice_point_to_json,
    uclass_from_json,
    uclass_to_json,
)
from mtv.verify import sample_jetscheme, sample_uclass, sample_wpoint, trial_rng
from mtv.wspace import INCOMING


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0.5], [-0.25j, 3.0]])
    data = matrix_to_json(m)
    assert data[0][0] == [1.0, 2.0]
    np.testing.assert_array_equal(matrix_from_json(data), m)
    # survives JSON text round trip
    np.testing.assert_array_equal(
        matrix_from_json(json.loads(json.dumps(data))), m
    )


def test_matrix_validation():
    with pytest.raises(ValidationError):
        matrix_from_json([[[1.0]]])
    with pytest.raises(ValidationError):
        matrix_from_json([[[1.0, 0.0], [0.0, 0.0]]])  # not square


def test_slice_point_round_trip():
    rng = trial_rng(1, "ser", 0)
    p = sample_wpoint(3, INCOMING, rng)
    data = slice_point_to_json(p.X)
    back = slice_point_from_json(json.loads(json.dumps(data)))
    assert back.k == p.X.k
    np.testing.assert_array_equal(back.coeffs, p.X.coeffs)


def test_uclass_round_trip():
    rng = trial_rng(3, "ser", 0)
    m = sample_uclass(3, 2, 1, rng)
    back = uclass_from_json(json.loads(json.dumps(uclass_to_json(m))))
    assert (back.b, back.bprime) == (m.b, m.bprime)
    for a, b in zip(back.gs, m.gs):
        np.testing.assert_array_equal(a, b)


def test_jetscheme_round_trip():
    rng = trial_rng(4, "ser", 0)
    d = sample_jetscheme(4, 1, 2, rng, lengths=[2, 1, 1])
    back = jetscheme_from_json(json.loads(json.dumps(jetscheme_to_json(d))))
    assert back.k == d.k and (back.b, back.bprime) == (d.b, d.bprime)
    for p1, p2 in zip(back.pieces, d.pieces):
        assert p1.length == p2.length and p1.z == p2.z
        for a, b in zip(p1.jets, p2.jets):
            np.testing.assert_array_equal(a, b)

"""The output-identity harness `tools/same_outputs.py`: its digest is
deterministic, leaves timing out, and moves when any one output field moves."""
import copy
import dataclasses
import importlib.util
import math
import os
import sys

import numpy as np

from mtv.errors import ConditioningError, ValidationError
from mtv.verify import SuiteConfig, run_suite

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL = os.path.join(_ROOT, "tools", "same_outputs.py")
sys.path.insert(0, os.path.join(_ROOT, "perfbench"))  # the tool reads reports through workloads
_spec = importlib.util.spec_from_file_location("same_outputs", _TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _reports():
    config = SuiteConfig(k=2, trials=1, seed=3, suites=("fitting_orbits", "axiom_e"))
    return run_suite(config), run_suite(dataclasses.replace(config, seed=4))


def _as_lists(node):
    """A copy with every tuple a list (the canonical form does not tell them apart)."""
    if isinstance(node, dict):
        return {key: _as_lists(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_as_lists(value) for value in node]
    return node


def _leaves(node, path=()):
    """The path of every scalar in a nest of dicts and lists."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _moved(value):
    """The value changed as little as its type allows."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):  # +0.0 becomes -0.0, anything else the next double up
        if value == 0.0 and math.copysign(1.0, value) > 0:
            return -0.0
        return math.nextafter(value, math.inf)
    if isinstance(value, int):
        return value + 1
    return value + "x"


def test_digest_is_deterministic_and_leaves_timing_out():
    first, second = _reports()
    outputs = [same_outputs.report_output(r) for r in (first, second)]
    again = [same_outputs.report_output(r) for r in _reports()]
    assert same_outputs.digest(outputs) == same_outputs.digest(again)
    for suite in first.suites:
        suite.seconds += 1.0
    assert same_outputs.digest([same_outputs.report_output(first), outputs[1]]) == (
        same_outputs.digest(outputs))


def test_digest_moves_with_every_report_field():
    outputs = [same_outputs.report_output(r) for r in _reports()]
    base = same_outputs.digest(outputs)
    outputs = _as_lists(outputs)
    assert same_outputs.digest(outputs) == base
    paths = list(_leaves(outputs))
    assert len(paths) >= 40
    for path in paths:
        changed = copy.deepcopy(outputs)
        node = changed
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _moved(node[path[-1]])
        assert same_outputs.digest(changed) != base, path


def test_digest_keeps_array_bits_and_refusals():
    a = np.array([[1.0, 0.0], [0.5, -2.0]], dtype=complex)
    b = a.copy()
    b.imag[0, 1] = -0.0
    digest = same_outputs.digest
    assert digest([a]) == digest([a.copy()]) and digest([a]) != digest([b])
    assert digest([a]) != digest([a.real]) and digest([a]) != digest([a.T.copy()])
    assert digest([ValidationError("x")]) == digest([ValidationError("x")])
    assert digest([ValidationError("x")]) != digest([ConditioningError("x")])
    assert digest([ValidationError("x")]) != digest([ValidationError("y")])
    assert digest([[a], [b]]) != digest([[a, b]])

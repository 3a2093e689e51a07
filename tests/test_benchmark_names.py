"""Every name that the per-layer metrics of `BENCHMARK.json` read from the
package still resolves.  `perfbench/run.py --trace 1` stops with an error
when a declared metric has no traced function behind it, so a rename or a
deletion in `mtv` would otherwise surface only in the traced benchmark run.

The metric forms are `<layer>.<stat>` (a layer total), `<layer>.<function>.<stat>`,
`<layer>.<Class>.init.<stat>` and `verify.suite.<name>.s`."""
import importlib
import json
import os
import sys

from mtv.verify import SUITE_NAMES

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "perfbench"))  # the tracer decides what is traced
import tracer  # noqa: E402

with open(os.path.join(_ROOT, "BENCHMARK.json")) as _f:
    _METRICS = [m["name"] for m in json.load(_f)["per_layer"]]

# computed by the runner itself, not read from a package name
_RUNNER_METRICS = {"trace.overhead_ratio"}


def _traced_function(layer: str, name: str) -> bool:
    """Whether the tracer wraps `mtv.<layer>.<name>`: a public function
    defined in that module, or a declared foreign one looked up there."""
    obj = getattr(importlib.import_module(f"mtv.{layer}"), name, None)
    if (layer, name) in tracer.FOREIGN:
        return callable(obj)
    return (
        not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == f"mtv.{layer}"
    )


def _traced_constructor(layer: str, name: str) -> bool:
    cls = getattr(importlib.import_module(f"mtv.{layer}"), name, None)
    return (layer, name) in tracer.CLASSES and isinstance(cls, type) and "__init__" in vars(cls)


def _resolves(metric: str) -> bool:
    if metric in _RUNNER_METRICS:
        return True
    layer, *rest = metric.split(".")
    if layer not in tracer.LAYERS:
        return False
    if len(rest) == 1:  # a layer total
        return True
    if rest[0] == "suite":
        return len(rest) == 3 and rest[1] in SUITE_NAMES
    if len(rest) == 3 and rest[1] == "init":
        return _traced_constructor(layer, rest[0])
    return len(rest) == 2 and _traced_function(layer, rest[0])


def test_every_per_layer_metric_resolves():
    assert _METRICS, "BENCHMARK.json declares no per-layer metrics"
    assert [m for m in _METRICS if not _resolves(m)] == []


def test_the_check_refuses_missing_names():
    assert not _resolves("wspace.no_such_function.calls")
    assert not _resolves("wspace._group_element.calls")  # private: never traced
    assert not _resolves("wspace.WTangent.init.calls")  # not a traced constructor
    assert not _resolves("verify.suite.no_such_suite.s")
    assert not _resolves("nolayer.calls")

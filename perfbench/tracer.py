"""In-memory span tracer for the mtv layers, installed from outside the package.

Every public function of a traced module is replaced, in every `mtv` module
namespace that holds it, by a wrapper that records one span: name, parent
span, start, end, whether it raised and, for the kernels in `SIZED`, the
matrix size it was called at.
Modules import each other's functions by name (`from .hilbert import
hilb_to_u`), so `mtv.verify.hilb_to_u` is patched as well as
`mtv.hilbert.hilb_to_u`.  Tiny hot primitives are only counted, which keeps
the overhead low; their time lands in the calling span's self time.

Spans are timed in thread CPU time, like the ops that contain them.  A
span's self time is its duration minus the durations of its direct
children.  `uninstall` restores every patched attribute.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS = ("lie", "slodowy", "wspace", "uspace", "hilbert", "verify", "serialize")

# Called tens of thousands of times per op at a few microseconds each:
# counted, not timed.
COUNT_ONLY = frozenset(
    {
        "lie.as_matrix",
        "lie.check_same_size",
        "lie.pairing",
        "lie.commutator",
        "slodowy.principal_triple",
        "verify.sample_disc",
        "serialize.complex_to_pair",
        "serialize.pair_to_complex",
    }
)

# Constructors whose validation cost is traced as `<layer>.<Class>.init`.
CLASSES = (
    ("slodowy", "SlicePoint"),
    ("wspace", "WPoint"),
    ("uspace", "UClass"),
    ("hilbert", "JetScheme"),
)

# Spans that also record the matrix size they ran at, for per-k kernel times.
SIZED = frozenset(
    {
        "hilbert.f_gram_matrix", "verify.symmetrized_form_value",
        "verify.fd_exterior_derivative", "hilbert.u_to_hilb", "hilbert.hilb_to_u",
        "uspace.u_symplectic", "slodowy.slice_representative", "uspace.glue",
        "wspace.w_symplectic", "uspace.UClass.init", "lie.is_regular",
        "slodowy.slice_embed", "verify.expm",
    }
)

# Foreign functions traced where a layer looks them up.
FOREIGN = (("verify", "expm"),)


def size_of(args, kwargs) -> int:
    """Matrix size k of a call, read from its first sized argument."""
    for a in (*args, *kwargs.values()):
        if isinstance(a, np.ndarray):
            if a.ndim == 2:
                return a.shape[0]
            continue
        k = getattr(a, "k", None)
        if isinstance(k, int):
            return k
        x = getattr(a, "X", None)
        if x is not None and isinstance(getattr(x, "k", None), int):
            return x.k
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.count_names: list[str] = []
        self.counts: list[int] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("b")
        self.raised = bytearray()
        self.current = [-1]  # id of the open span, or -1
        self._targets: list[tuple[object, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, skip_self: bool = False):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        size, raised, current = self.size, self.raised, self.current
        sized = name in SIZED
        clock = time.thread_time  # the clock run.py times ops with

        def wrapper(*args, **kwargs):
            sid = len(start)
            span_name.append(nid)
            parent.append(current[0])
            size.append(size_of(args[1:] if skip_self else args, kwargs) if sized else 0)
            raised.append(0)
            end.append(0.0)
            current[0] = sid
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[sid] = clock()
                raised[sid] = 1
                current[0] = parent[sid]
                raise
            end[sid] = clock()
            current[0] = parent[sid]
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        cid = len(self.count_names)
        self.count_names.append(name)
        self.counts.append(0)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[cid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch the wrappers in; they are built on the first call and
        reused, so spans and counts accumulate across installs."""
        if not self._targets:
            self._targets = self._wrap_all()
        for owner, attr, wrapper in self._targets:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_all(self) -> list[tuple[object, str, object]]:
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "mtv" or n.startswith("mtv.")) and m is not None]
        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"mtv.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        for layer, attr in FOREIGN:
            obj = getattr(sys.modules[f"mtv.{layer}"], attr, None)
            if obj is not None:
                targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {}
        for key, (obj, name) in targets.items():
            if name in COUNT_ONLY:
                wrappers[key] = self._count_wrapper(obj, name)
            else:
                wrappers[key] = self._span_wrapper(obj, name)
        patches = []
        for mod in mods:
            for attr, obj in vars(mod).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    patches.append((mod, attr, wrapper))
        for layer, cls_name in CLASSES:
            cls = getattr(sys.modules[f"mtv.{layer}"], cls_name)
            init = cls.__dict__["__init__"]
            patches.append((cls, "__init__", self._span_wrapper(
                init, f"{layer}.{cls_name}.init", skip_self=True)))
        return patches

    # -- aggregation ------------------------------------------------------

    def aggregate(self):
        """Per-name [calls, errors, self seconds]; per-(name, k) [calls, self
        seconds, inclusive seconds]."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name: dict[str, list] = {name: [0, 0, 0.0] for name in self.names}
        per_size: dict[tuple[str, int], list] = {}
        names, sizes, raised = self.names, self.size, self.raised
        for i in range(n):
            name = names[self.span_name[i]]
            self_s = dur[i] - child[i]
            row = per_name[name]
            row[0] += 1
            row[1] += raised[i]
            row[2] += self_s
            cell = per_size.setdefault((name, sizes[i]), [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += self_s
            cell[2] += dur[i]
        for name, count in zip(self.count_names, self.counts):
            per_name[name] = [count, 0, 0.0]
        return per_name, per_size

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans whose direct parent is a
        `parent_name` span."""
        try:
            pid = self.names.index(parent_name)
            cid = self.names.index(child_name)
        except ValueError:
            return 0
        parent, span_name = self.parent, self.span_name
        return sum(
            1
            for i in range(len(self.start))
            if span_name[i] == cid and parent[i] >= 0 and span_name[parent[i]] == pid
        )

"""Every public top-level function or class in `src/mtv` has a caller in the
package or in the benchmark, so code that only tests call does not pile up.

A definition counts as used when some other top-level statement of a `src/mtv`
module, `__init__`'s re-exports left out, names it, or a `perfbench/*.py`
module does.  The benchmark also names functions in strings such as
"wspace.w_symplectic", so there a dotted-name string counts too.  Each known
exception is listed with the reason it stays."""
import ast
import re
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "mtv"
_BENCH = _ROOT / "perfbench"

# name -> why it stays without a caller
ALLOWED = {
    "AElement": "the abelian actions wait for a check of their flow (ROADMAP item 7)",
    "a0_action": "the abelian actions wait for a check of their flow (ROADMAP item 7)",
    "a_action": "the abelian actions wait for a check of their flow (ROADMAP item 7)",
    "a_moment": "the abelian actions wait for a check of their flow (ROADMAP item 7)",
    "sl_membership": "waits for a check of the SL subfamily (ROADMAP item 7)",
    "u_build": "goes with the W API (ROADMAP item 14)",
    "w_moment": "goes with the W API (ROADMAP item 14)",
    "perm_action": "waits for the category-law checks (ROADMAP item 4)",
    "w00_from_glue": "waits for the symplectic-reduction check (ROADMAP item 12)",
    "u_equivalent": "the class-equality predicate of the module contract",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _names(node, strings: bool = False) -> set[str]:
    """The identifiers that `node` reads: names, attributes and, if `strings`,
    the parts of dotted-name string constants."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            if _DOTTED.fullmatch(n.value):
                out.update(n.value.split("."))
    return out


def _parse(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def _unused() -> set[str]:
    """Public top-level definitions of `src/mtv` that nothing else names."""
    modules = _parse(_SRC)
    modules.pop("__init__")
    statements = [(stmt, _names(stmt)) for tree in modules.values() for stmt in tree.body]
    readers = Counter(name for _, names in statements for name in names)
    bench = set().union(*(_names(t, strings=True) for t in _parse(_BENCH).values()))
    return {
        stmt.name
        for stmt, names in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
        # a recursive definition names itself, which does not count
        and readers[stmt.name] == (stmt.name in names) and stmt.name not in bench
    }


def test_every_public_definition_has_a_caller():
    assert sorted(_unused() - ALLOWED.keys()) == []


def test_every_allowed_name_is_still_unused():
    # a name that gains a caller, or goes, leaves the list
    assert sorted(ALLOWED.keys() - _unused()) == []

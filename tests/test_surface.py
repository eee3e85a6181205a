"""The package exports only names that something uses, and defaults that something sets.

A name that ``qdiscord/__init__.py`` imports needs a use in the library's
code other than its own ``def`` or ``class`` (comments and strings do not
count), a use in a ``perfbench/*.py`` file, or a mention in the README's
inline code or code blocks.  A defaulted parameter of an exported function
needs a call in the library, a ``perfbench/*.py`` file or the README's python
code that passes it, by keyword or by position; the settable defaults
that remain are pinned by name and value.
"""

import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

import pytest

import qdiscord as qd

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdiscord"
# perfbench/spans.py passes refine_starts=0 through inspect.signature(fn).bind(...), which
# a scan of call sites cannot see: the traced grid-only call of classical_correlation_qa
SET_THROUGH_BIND = {("classical_correlation_qa", "refine_starts")}


def _code_names(path):
    """Every name token of a module's code, except the name a def or class defines."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    names = [t.string for t in tokens if t.type == tokenize.NAME]
    return {name for before, name in zip([""] + names, names) if before not in ("def", "class")}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]


def test_every_export_has_a_use():
    exports = _exports()
    library = set().union(*(_code_names(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
    perfbench = "\n".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    readme_code = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S))
    unused = [
        name for name in exports
        if name not in library
        and not re.search(rf"\b{name}\b", perfbench)
        and not re.search(rf"\b{name}\b", readme_code)
    ]
    assert len(exports) > 40
    assert unused == []


class _Passes(ast.NodeVisitor):
    """(callee, parameter, source) for each argument of a call to an exported function;
    source is (enclosing def, name) when the argument is a bare name, else None."""

    def __init__(self, signatures):
        self.signatures, self.scope, self.passes = signatures, None, []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        if callee in self.signatures:
            args = list(zip(self.signatures[callee], node.args))
            args += [(k.arg, k.value) for k in node.keywords if k.arg]
            for param, value in args:
                source = (self.scope, value.id) if isinstance(value, ast.Name) else None
                self.passes.append((callee, param, source))
        self.generic_visit(node)


def test_every_default_is_set_by_a_caller():
    functions = {name: getattr(qd, name) for name in _exports()}
    signatures = {
        name: list(inspect.signature(f).parameters.values())
        for name, f in functions.items() if inspect.isfunction(f)
    }
    knobs = {(f, p.name) for f, params in signatures.items() for p in params if p.default is not p.empty}
    sources = [p.read_text() for p in PACKAGE.glob("*.py")]
    sources += [p.read_text() for p in (ROOT / "perfbench").glob("*.py")]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    visitor = _Passes({f: [p.name for p in params] for f, params in signatures.items()})
    for text in sources:
        visitor.visit(ast.parse(text))
    # a default that an exported function forwards from a default of its own is set only
    # when a caller sets that one
    set_ = set()
    while True:
        found = {
            (callee, param) for callee, param, source in visitor.passes
            if source not in knobs or source in set_
        }
        if found <= set_:
            break
        set_ |= found
    assert "refine_starts=0" in (ROOT / "perfbench" / "spans.py").read_text()
    assert len(knobs) > 5
    assert sorted(knobs - set_ - SET_THROUGH_BIND) == []


# the settable defaults of the exported API, and functions whose tolerances and step caps
# are named module constants
SETTABLE = {
    "classical_correlation_qa": {
        "grid_points": qd.entropic.GRID_POINTS,
        "refine_iters": qd.entropic.REFINE_ITERS,
        "refine_starts": qd.entropic.REFINE_STARTS,
    },
    "correlation_matrix": {"rtol": qd.correlation.RANK_RTOL},
    "zero_discord_test": {"tol": qd.correlation.COMMUTATOR_TOL, "rank_rtol": qd.correlation.RANK_RTOL},
    "geometric_discord_oracle": {"restarts": 32, "seed": 0},
    "partial_rows_witness": {},
    "dqc1_classicality_check": {},
    "tetrahedron_contains": {},
    "octahedron_contains": {},
    "entropic_discord": {},
}


def _defaults(name):
    params = inspect.signature(getattr(qd, name)).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


@pytest.mark.parametrize("name", SETTABLE)
def test_settable_defaults(name):
    assert _defaults(name) == SETTABLE[name]


def test_no_other_export_has_a_default():
    functions = [name for name in _exports() if inspect.isfunction(getattr(qd, name))]
    others = {name: _defaults(name) for name in functions if name not in SETTABLE}
    assert {name: d for name, d in others.items() if d} == {}
    assert sum(len(d) for d in SETTABLE.values()) == 8

"""The package exports only names that something uses.

A name that ``qdiscord/__init__.py`` imports needs a use in the library's
code other than its own ``def`` or ``class`` (comments and strings do not
count), a use in a ``perfbench/*.py`` file, or a mention in the README's
inline code or code blocks.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qdiscord"


def _code_names(path):
    """Every name token of a module's code, except the name a def or class defines."""
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    names = [t.string for t in tokens if t.type == tokenize.NAME]
    return {name for before, name in zip([""] + names, names) if before not in ("def", "class")}


def test_every_export_has_a_use():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    library = set().union(*(_code_names(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
    perfbench = "\n".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    readme_code = "\n".join(re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S))
    unused = [
        name for name in exports
        if name not in library
        and not re.search(rf"\b{name}\b", perfbench)
        and not re.search(rf"\b{name}\b", readme_code)
    ]
    assert len(exports) > 50
    assert unused == []

"""Every name the package defines is used by the program.

A module-level function, class or assigned name, or a non-dunder method,
defined under src/openbisim/ must appear as a whole word in src/ (outside
the `__all__` lists) or in perfbench/ at least once more than it is
defined.  A use in tests/ alone does not count: a name only tests call is
code the tool does not run.  Dunder names are called by Python itself and
are exempt, and so are the few names in ENTRY_POINTS.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "openbisim"
TREES = ("src", "perfbench")

# Names kept for the tests and the README, though the program does not call
# them: the oracles that tests compare the checker's own walks against
# (barbs, alpha_equiv, formula_alpha_equiv) and the bundled-theory loaders
# of the README's library example (dy_asym, dy_blind).
ENTRY_POINTS = frozenset({"barbs", "alpha_equiv", "formula_alpha_equiv",
                          "dy_asym", "dy_blind"})


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, line) of the module's top-level definitions and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name):
                    yield leaf.id, node.lineno


def _without_all(text: str) -> str:
    """A module's text with its `__all__` assignments cut out."""
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def _texts():
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue
            yield _without_all(text) if path.suffix == ".py" else text


def test_every_defined_name_is_used():
    defined: Counter = Counter()
    where: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _definitions(tree):
            if _is_dunder(name) or name in ENTRY_POINTS:
                continue
            defined[name] += 1
            where.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{line} {name}")
    words = Counter(
        w for text in _texts() for w in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)
    )
    unused = sorted(
        site for name, count in defined.items() if words[name] <= count
        for site in where[name]
    )
    assert not unused, "defined but never used: " + ", ".join(unused)

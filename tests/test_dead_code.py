"""Every name the package defines is used somewhere.

A module-level function, class or assigned name, or a non-dunder method,
defined under src/openbisim/ must appear as a whole word in src/, tests/ or
perfbench/ at least once more than it is defined.  Dunder names are called
by Python itself and are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "openbisim"
TREES = ("src", "tests", "perfbench")


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


def _texts():
    me = Path(__file__).resolve()
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts or path == me:
                continue
            try:
                yield path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue


def test_every_defined_name_is_used():
    defined: Counter = Counter()
    where: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in _definitions(tree):
            if _is_dunder(name):
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

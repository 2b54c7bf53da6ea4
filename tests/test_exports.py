"""`asymreg/__init__.py` exports only what the package, a demo or the
README uses: a name that only tests call belongs in a test helper."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asymreg"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _defines(node, name: str) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == name for target in node.targets)


def _referenced(tree: ast.AST) -> set[str]:
    """Every name tree reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_every_export_has_a_user_outside_the_tests():
    exported = [alias.asname or alias.name for node in _parse(PACKAGE / "__init__.py").body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    # the package's top-level statements, each with the names it reads
    statements = [(node, _referenced(node)) for path in PACKAGE.glob("*.py")
                  if path.name != "__init__.py" for node in _parse(path).body]
    demos = set().union(*(_referenced(_parse(path)) for path in (ROOT / "demos").glob("*.py")))
    readme = (ROOT / "README.md").read_text()

    def used(name: str) -> bool:
        return (any(name in refs and not _defines(node, name) for node, refs in statements)
                or name in demos or re.search(rf"\b{re.escape(name)}\b", readme) is not None)

    assert len(exported) > 50
    assert [name for name in exported if not used(name)] == []

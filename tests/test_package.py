"""The package's public surface: every exported name is used by the package."""

import ast
from pathlib import Path

import biphoton_shaper

PACKAGE = Path(biphoton_shaper.__file__).parent

# time_bins is exported for the time-bin Bell test that ROADMAP item 4 puts
# into a run; no module calls it yet.
UNUSED_ALLOWED = {"time_bins"}


def _referenced_names(path: Path) -> set:
    """Identifiers a module reads: Name ids and Attribute attrs (not docstrings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_referenced_by_another_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    referenced = set().union(*(_referenced_names(path) for path in PACKAGE.glob("*.py")
                               if path.name != "__init__.py"))
    unused = [name for name in exported
              if name not in referenced and name not in UNUSED_ALLOWED]
    assert exported and unused == []

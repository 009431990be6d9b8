"""The package's public surface: every exported name and every public
module-level function and class is used by the package."""

import ast
from pathlib import Path

import biphoton_shaper

PACKAGE = Path(biphoton_shaper.__file__).parent

# (module, name) of the public definitions that no code of the package reads:
# time_bins is exported for the time-bin Bell test that ROADMAP item 4 puts
# into a run, and config.default_config builds the default config tree for
# library use (README).
UNUSED_ALLOWED = {("bases", "time_bins"), ("config", "default_config")}


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
    allowed = {name for _, name in UNUSED_ALLOWED}
    unused = [name for name in exported if name not in referenced and name not in allowed]
    assert exported and unused == []


def test_every_public_definition_is_referenced():
    # a definition counts as used when any module, its own included, reads it;
    # the set equality also keeps the allow-list from outliving its entries
    referenced = set().union(*(_referenced_names(path) for path in PACKAGE.glob("*.py")))
    definitions = [(path.stem, node.name) for path in sorted(PACKAGE.glob("*.py"))
                   for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")]
    unused = {(module, name) for module, name in definitions if name not in referenced}
    assert definitions and unused == UNUSED_ALLOWED

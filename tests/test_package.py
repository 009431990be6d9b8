"""The package's public surface: every exported name and every public
module-level function and class is used by the package, and every function
the benchmark reads by name exists."""

import ast
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import biphoton_shaper

PACKAGE = Path(biphoton_shaper.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# The spans perfbench/run.py reads for its end-to-end metrics: setup_s from
# the config loads, compute_s from the scenario run.
PERFBENCH_SPANS = {"config.load_config", "config.validate_config",
                   "scenarios.run_scenario_experiments"}

# (module.function) names of BENCHMARK.json per-layer metrics that the
# package no longer defines (ROADMAP item 9(b)); each reads 0.
BENCHMARK_DEAD_NAMES = {"metrics.fit_cos4", "scenarios.run_bell_i2_sweep"}

# (module, name) of the public definitions that no code of the package reads:
# time_bins is exported for the time-bin runs of ROADMAP items 4 and 15, and
# config.default_config builds the default config tree for library use
# (README).
UNUSED_ALLOWED = {("bases", "time_bins"), ("config", "default_config")}

# (module, name) of the module-level constants that no code of the package reads.
UNREAD_CONSTANTS_ALLOWED = set()


def _referenced_names(path: Path) -> set:
    """Identifiers a module reads: Name ids not assigned to and Attribute
    attrs (not docstrings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def test_every_constant_is_read():
    # a module-level UPPER_CASE name, private or public, counts as read when
    # any module, its own included, loads it; as above, the set equality keeps
    # the allow-list from outliving its entries
    referenced = set().union(*(_referenced_names(path) for path in PACKAGE.glob("*.py")))
    constants = [(path.stem, target.id) for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)]
    unread = {(module, name) for module, name in constants if name not in referenced}
    assert constants and unread == UNREAD_CONSTANTS_ALLOWED


def test_readme_library_use_runs_as_written(capsys):
    # the block shows the public API; its last line prints the route gap
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out.split()[-1]) < 1e-12


def test_only_metrics_imports_scipy():
    # the fits' least_squares is the package's one scipy dependency
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "scipy" for module in modules):
                importers.add(path.stem)
    assert importers == {"metrics"}


def test_every_name_perfbench_reads_is_a_public_function():
    # perfbench finds its spans by name, so a renamed or deleted function
    # makes its metric read 0 without an error; the set equality keeps the
    # dead-name list from outliving its entries
    run_source = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    assert all(f'"{name}"' in run_source for name in PERFBENCH_SPANS)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    # a per-layer metric is module.function.statistic
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    layered = {metric["name"].rsplit(".", 1)[0] for metric in per_layer}
    names = PERFBENCH_SPANS | set(tracer.PROBES) | {
        name for name in layered if "." in name and name.split(".")[0] in modules}

    def is_public_function(name):
        module_name, attr = name.split(".")
        module = importlib.import_module(f"biphoton_shaper.{module_name}")
        value = getattr(module, attr, None)
        return (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == module.__name__)

    assert {name for name in names if not is_public_function(name)} == BENCHMARK_DEAD_NAMES

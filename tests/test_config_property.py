"""Property tests: a config with one leaf replaced keeps the CLI contract.

Any value at any leaf of the default tree, or of a Sellmeier variant of it,
must leave ``validate`` with exit 0 or a one-line config error (exit 2),
never an exception.  ``run`` on a 129-point default tree with one
non-integer leaf replaced must exit 0, 1, 2 or 3, never with a traceback.
"""

import contextlib
import copy
import io
import math

import pytest
import yaml

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from biphoton_shaper.cli import main  # noqa: E402
from biphoton_shaper.config import default_config, validate_config  # noqa: E402

SELLMEIER_INDEX = {"a": 3.2, "terms": [[0.8, 0.05]], "d": 0.01, "validity_um": [0.4, 2.0]}


def _variants():
    sellmeier = default_config()
    sellmeier["dispersion"] = {"model": "sellmeier",
                               **{side: copy.deepcopy(SELLMEIER_INDEX)
                                  for side in ("pump", "idler", "signal")}}
    return {"default": default_config(), "sellmeier": sellmeier}


def _run_tree():
    """The default tree on a 129-point grid, every experiment parameter spelled out."""
    tree = default_config()
    tree["grid"]["n_points"] = 129
    tree["experiments"] = [{"id": req.id, **req.params}
                           for req in validate_config(tree).experiments]
    return tree


def _node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _replaced(tree, path, value):
    tree = copy.deepcopy(tree)
    _node(tree, path[:-1])[path[-1]] = value
    return tree


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaf_paths(child, path + (key,))]


VARIANTS = _variants()
LEAVES = [(name, path) for name, tree in VARIANTS.items() for path in _leaf_paths(tree)]
RUN_TREE = _run_tree()
# Integer leaves set grid sizes and loop counts; they keep their defaults so
# that no example asks for a huge grid or loop.
RUN_LEAVES = [path for path in _leaf_paths(RUN_TREE) if type(_node(RUN_TREE, path)) is not int]
VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.text(max_size=8),
    st.lists(st.floats() | st.integers(), max_size=3),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "scenario.yaml"


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(leaf=st.sampled_from(LEAVES), value=VALUES)
def test_replaced_leaf_validates_or_exits_2(config_path, leaf, value):
    variant, path = leaf
    config_path.write_text(yaml.safe_dump(_replaced(VARIANTS[variant], path, value)),
                           encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["validate", str(config_path)])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error: ")


@hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
@hypothesis.given(path=st.sampled_from(RUN_LEAVES), value=VALUES)
def test_replaced_leaf_runs_within_the_exit_contract(tmp_path_factory, path, value):
    work = tmp_path_factory.mktemp("run")
    config = work / "scenario.yaml"
    config.write_text(yaml.safe_dump(_replaced(RUN_TREE, path, value)), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", str(config), "--out", str(work / "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()

"""The package's public names: ``__all__`` lists exactly the public names
``__init__`` imports, each one resolves, and a name removed from the
package stays removed.  README ("Removed from the package") gives each
removed name's replacement."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import aspecteval

MODULES = [
    importlib.import_module(f"aspecteval.{info.name}")
    for info in pkgutil.iter_modules(aspecteval.__path__)
]

# a bare name is gone from the package and every module in it; "Class.attr"
# is gone from that class
REMOVED = (
    "DistanceClass",
    "apply_rules",
    "discriminative_power",
    "estimate_upper_bound",
    "generate_ideal_rankings",
    "ground_truth_from",
    "pareto_dominates",
    "render_order_dump",
    "satisfies_rules",
    "DistanceOrder.classes",
    "Metric.parse",
    "RunFile.ranking",
    "ScoreMatrix.build",
    "ScoreMatrix.topic_scores",
    "WeightAssignment.of",
    "WeightAssignment.policy",
)


def test_all_lists_what_init_imports_and_each_name_resolves():
    tree = ast.parse(Path(aspecteval.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(set(aspecteval.__all__)) == len(aspecteval.__all__)
    assert set(aspecteval.__all__) == public | {"__version__"}
    for name in aspecteval.__all__:
        assert getattr(aspecteval, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_stay_removed(name):
    owner, _, attr = name.rpartition(".")
    if owner:
        assert not hasattr(getattr(aspecteval, owner), attr)
        return
    with pytest.raises(ImportError):
        exec(f"from aspecteval import {name}", {})
    assert [m.__name__ for m in MODULES if hasattr(m, name)] == []

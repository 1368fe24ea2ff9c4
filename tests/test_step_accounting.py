"""Steps are charged their evaluations in one place, `EstimatorTrace.record`.

In the estimator modules only `EstimatorTrace` and `run_sequence` read a
model's `counter`, and in the whole package only `EstimatorTrace` sets a
step's `n_evals`, so a step function cannot charge a step by hand.
"""

import ast
from pathlib import Path

import pytest

import rareevent

PACKAGE = Path(rareevent.__file__).parent
ESTIMATORS = ("sis.py", "mlsis.py", "subset.py")


def _nodes_outside(path: Path, owners: set[str]):
    """Every AST node of `path` that no top-level definition named in `owners` holds."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if getattr(node, "name", None) not in owners:
            yield from ast.walk(node)


@pytest.mark.parametrize("name", ESTIMATORS)
def test_only_the_trace_and_the_loop_read_the_counter(name):
    lines = [node.lineno
             for node in _nodes_outside(PACKAGE / name, {"EstimatorTrace", "run_sequence"})
             if isinstance(node, ast.Attribute) and node.attr == "counter"]
    assert lines == [], f"{name}: model counter read on lines {lines}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_trace_sets_n_evals(path):
    lines = [node.lineno for node in _nodes_outside(path, {"EstimatorTrace"})
             if (isinstance(node, ast.keyword) and node.arg == "n_evals")
             or (isinstance(node, ast.Attribute) and node.attr == "n_evals"
                 and isinstance(node.ctx, ast.Store))]
    assert lines == [], f"{path.name}: n_evals set on lines {lines}"

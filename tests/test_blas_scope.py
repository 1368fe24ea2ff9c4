"""scipy's BLAS and LAPACK wrappers run only inside `single_blas_thread()`.

scipy bundles an OpenBLAS of its own beside numpy's.  A call into it outside
that scope wakes its thread pool next to numpy's: on a 2-vCPU host, a vMFN
sampler that built its outer products with `scipy.linalg.blas.dger` ran the
`diffusion1d-mlsis` configuration (L = 8, N = 2000) at 1.2-1.8 s per
repetition and twice the CPU time, against 0.54-0.88 s with numpy alone
(4 repetitions each, two alternating runs).  So in the package
a name bound from `scipy.linalg.blas` or `scipy.linalg.lapack` may be used
only in the body of a `with single_blas_thread():` block.
"""

import ast
from pathlib import Path

import pytest

import rareevent

SOURCES = sorted(Path(rareevent.__file__).parent.glob("*.py"))
MODULES = ("scipy.linalg.blas", "scipy.linalg.lapack")


def _wrapper_names(tree: ast.AST) -> set[str]:
    """Names bound to a BLAS/LAPACK wrapper, or to one of the two modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in MODULES:
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
            names.update(alias.asname or alias.name for alias in node.names
                         if f"scipy.linalg.{alias.name}" in MODULES
                         or alias.name in ("get_blas_funcs", "get_lapack_funcs"))
        elif isinstance(node, ast.Import):
            names.update(alias.asname for alias in node.names
                         if alias.name in MODULES and alias.asname)
    return names


def _single_thread_scope(node: ast.AST) -> bool:
    if not isinstance(node, ast.With):
        return False
    for item in node.items:
        call = item.context_expr
        func = call.func if isinstance(call, ast.Call) else None
        if (isinstance(func, ast.Name) and func.id == "single_blas_thread"
                or isinstance(func, ast.Attribute) and func.attr == "single_blas_thread"):
            return True
    return False


def unscoped_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) of every wrapper use outside a `single_blas_thread()` body."""
    tree = ast.parse(source)
    names = _wrapper_names(tree)
    found = []

    def visit(node: ast.AST, scoped: bool) -> None:
        if (not scoped and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in names):
            found.append((node.id, node.lineno))
        if _single_thread_scope(node):
            for item in node.items:
                visit(item, scoped)
            for stmt in node.body:
                visit(stmt, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, scoped)

    visit(tree, False)
    return found


def test_sources_found():
    assert len(SOURCES) > 10


def test_the_flow_cell_solve_is_scoped():
    # the guard sees the package's one LAPACK call
    fem2d = next(p for p in SOURCES if p.name == "fem2d.py")
    assert "dpbsv" in _wrapper_names(ast.parse(fem2d.read_text(encoding="utf-8")))


@pytest.mark.parametrize("source, expected", [
    ("from scipy.linalg.blas import dger\ndger(1.0, x, y)\n", [("dger", 2)]),
    ("from scipy.linalg.lapack import dpbsv as solve\nf = solve\n", [("solve", 2)]),
    ("from scipy.linalg import blas\nblas.ddot(x, y)\n", [("blas", 2)]),
    ("import scipy.linalg.blas as b\nb.dger(1.0, x, y)\n", [("b", 2)]),
    ("from scipy.linalg import get_blas_funcs\nget_blas_funcs('ger')\n",
     [("get_blas_funcs", 2)]),
    ("from scipy.linalg.blas import dger\nwith single_blas_thread():\n    dger(1.0, x, y)\n", []),
    ("from scipy.linalg.blas import dger\nwith _blas.single_blas_thread(), open(p):\n"
     "    for i in r:\n        dger(1.0, x, y)\ndger(1.0, x, y)\n", [("dger", 5)]),
    ("from scipy.linalg import solve\nsolve(a, b)\n", []),
])
def test_guard_finds_unscoped_uses(source, expected):
    assert unscoped_uses(source) == expected


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_blas_wrappers_run_on_one_thread(path):
    uses = unscoped_uses(path.read_text(encoding="utf-8"))
    assert uses == [], f"{path.name}: scipy BLAS/LAPACK used outside single_blas_thread(): {uses}"

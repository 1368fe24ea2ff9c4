"""Every function, class and method in the package has a reader outside the unit tests.

A definition is read when its name appears as a loaded name, an attribute or a
string (perfbench patches by string) in the package itself, not counting the
`__init__` re-exports, in the acceptance suite or in the benchmark scripts.  A
name that only unit tests read belongs in the tests.
"""

import ast
from pathlib import Path

import rareevent

PACKAGE = Path(rareevent.__file__).parent
ROOT = PACKAGE.parents[1]
SOURCES = sorted(PACKAGE.glob("*.py"))
READERS = ([p for p in SOURCES if p.name != "__init__.py"]
           + [ROOT / "tests" / "test_acceptance.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))

EXEMPT = {
    # the closed-form nodal solution that tests/test_fem1d.py checks the
    # production GEMV of v(1) against; production needs only v(1)
    "solve_diffusion_1d",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined():
    """{name: 'module.py:line'} of every def and class, dunders aside."""
    found = {}
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
    return found


def _read():
    names = set()
    for path in READERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_readers_found():
    assert len(SOURCES) > 10 and len(READERS) > len(SOURCES)


def test_every_definition_has_a_reader():
    read = _read()
    unread = sorted(f"{where} {name}" for name, where in _defined().items()
                    if name not in read and name not in EXEMPT)
    assert unread == [], "read only by unit tests: " + ", ".join(unread)


def test_exemptions_are_still_needed():
    defined, read = _defined(), _read()
    assert EXEMPT <= defined.keys()
    assert not EXEMPT & read

"""Every definition, field and defaulted parameter of the package is used outside the unit tests.

The readers are the package itself, not counting the `__init__` re-exports,
the acceptance suite and the benchmark scripts.  Three rules hold over them:

- a function, class or method is read when its name appears as a loaded
  name, an attribute or a string (perfbench patches by string);
- a field, that is a dataclass field or an attribute that a method stores on
  `self`, is read when it is loaded as an attribute or named as a string;
- a defaulted parameter of a function, or of a class through its
  `__init__`, is passed when some call of that name passes it by position or
  by keyword; a call with `*` or `**` arguments passes all of them.  A
  dataclass field with a default is a field, checked by the second rule.

A name that only unit tests read or pass belongs in the tests.  A name that
must stay anyway goes into the rule's exemption set with a comment that says
why; `test_exemptions_are_still_needed` fails once the exemption is no longer
needed.
"""

import ast
from functools import lru_cache
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

FIELD_EXEMPT = {
    # the realised COV and the subset boundary of a step: the planned
    # per-repetition run trace reports them, and tests/data/methods_golden.json
    # pins them step by step until then
    "TraceStep.delta",
    "TraceStep.boundary",
}

PARAMETER_EXEMPT = {
    # the step cap is a safety check; a smaller cap is the only way a test
    # reaches it at a chosen count
    "trace_particle(max_steps)",
}


@lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _classes():
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                yield path, node


def _defined():
    """{name: 'module.py:line'} of every def and class, dunders aside."""
    found = {}
    for path in SOURCES:
        for node in ast.walk(_parse(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                found.setdefault(node.name, f"{path.name}:{node.lineno}")
    return found


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _fields():
    """{'Class.field': 'module.py:line'} of every dataclass field and every
    attribute a method stores on `self`."""
    found = {}
    for path, cls in _classes():
        if _is_dataclass(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    found.setdefault(f"{cls.name}.{node.target.id}", f"{path.name}:{node.lineno}")
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                found.setdefault(f"{cls.name}.{node.attr}", f"{path.name}:{node.lineno}")
    return found


def _parameters():
    """{'callee(parameter)': (callee, parameter, position, 'module.py:line')} of
    every defaulted parameter.  The callee of an `__init__` is its class; the
    position counts the arguments a call writes, so a method's skips `self`,
    and is None for a keyword-only parameter."""
    found = {}

    def add(path, callee, func, skip):
        args = func.args
        positional = args.posonlyargs + args.args
        defaulted = [(i - skip, arg) for i, arg in enumerate(positional)
                     if i >= len(positional) - len(args.defaults)]
        defaulted += [(None, arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        for position, arg in defaulted:
            found.setdefault(f"{callee}({arg.arg})",
                             (callee, arg.arg, position, f"{path.name}:{arg.lineno}"))

    methods = set()
    for path, cls in _classes():
        for func in cls.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(func)
                static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
                add(path, cls.name if func.name == "__init__" else func.name, func, not static)
    for path in SOURCES:
        for func in ast.walk(_parse(path)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func not in methods:
                add(path, func.name, func, 0)
    return found


def _read(loaded_names=True):
    """Attributes loaded and strings named by the readers, and with
    `loaded_names` the names they load."""
    names = set()
    for path in READERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and loaded_names:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _passed():
    """{callee: (positional arguments of its widest call, keywords passed)};
    a call with `*` or `**` arguments passes every position and the keyword '*'."""
    passed = {}
    for path in READERS:
        for node in ast.walk(_parse(path)):
            callee = (getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                      if isinstance(node, ast.Call) else None)
            if callee is None:
                continue
            n_positional, keywords = passed.get(callee, (0, set()))
            n_positional = max(n_positional, len(node.args))
            keywords = keywords | {k.arg for k in node.keywords if k.arg is not None}
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                n_positional, keywords = float("inf"), keywords | {"*"}
            passed[callee] = (n_positional, keywords)
    return passed


def _unread_fields():
    read = _read(loaded_names=False)
    return {name: where for name, where in _fields().items()
            if name.split(".")[1] not in read}


def _unpassed_parameters():
    passed = _passed()
    unpassed = {}
    for name, (callee, parameter, position, where) in _parameters().items():
        n_positional, keywords = passed.get(callee, (0, set()))
        if not {parameter, "*"} & keywords and (position is None or n_positional <= position):
            unpassed[name] = where
    return unpassed


def test_readers_found():
    assert len(SOURCES) > 10 and len(READERS) > len(SOURCES)


def test_rules_find_what_they_check():
    fields, parameters = _fields(), _parameters()
    assert {"DiscreteVelocity.psi", "AcsKernel._lambda"} <= fields.keys()
    assert {"FlowCellModel(tau0)", "sis_estimate(burn_in)"} <= parameters.keys()


def test_every_definition_has_a_reader():
    read = _read()
    unread = sorted(f"{where} {name}" for name, where in _defined().items()
                    if name not in read and name not in EXEMPT)
    assert unread == [], "read only by unit tests: " + ", ".join(unread)


def test_every_field_has_a_reader():
    unread = sorted(f"{where} {name}" for name, where in _unread_fields().items()
                    if name not in FIELD_EXEMPT)
    assert unread == [], "fields read only by unit tests: " + ", ".join(unread)


def test_every_defaulted_parameter_is_passed():
    unpassed = sorted(f"{where} {name}" for name, where in _unpassed_parameters().items()
                      if name not in PARAMETER_EXEMPT)
    assert unpassed == [], "parameters passed only by unit tests: " + ", ".join(unpassed)


def test_exemptions_are_still_needed():
    unread = _defined().keys() - _read()
    stale = ((EXEMPT - unread) | (FIELD_EXEMPT - _unread_fields().keys())
             | (PARAMETER_EXEMPT - _unpassed_parameters().keys()))
    assert not stale, "exempt but no longer flagged: " + ", ".join(sorted(stale))

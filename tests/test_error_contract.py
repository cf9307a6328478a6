"""Every error the library raises is a SolocpError, so the CLI reports it
with its error[...] prefix: a static check over the raise statements of
src/solocp, and == and hash of every exported dataclass."""
import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import solocp
from solocp import errors

LIBRARY_ERRORS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and obj.__module__ == errors.__name__
}
# Python's own protocols, as (module file, function, class): a module
# __getattr__ reports a missing name with AttributeError, and _lapack's
# fallback catches the ImportError of its loader.
ALLOWED = {
    ("__init__.py", "__getattr__", "AttributeError"),
    ("_lapack.py", "_load_flapack", "ImportError"),
}


def _raises(node, scope="<module>"):
    """(enclosing function, raised class name, line) for each raise under node;
    a bare re-raise names no class and is reported as "<re-raise>"."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if exc is None:
                name = "<re-raise>"
            elif isinstance(exc, ast.Attribute):
                name = exc.attr
            else:
                name = getattr(exc, "id", ast.unparse(exc))
            yield scope, name, child.lineno
        yield from _raises(child, scope)


def test_src_raises_only_library_errors():
    found = []
    for path in sorted(Path(solocp.__file__).parent.glob("*.py")):
        for scope, name, line in _raises(ast.parse(path.read_text(encoding="utf-8"))):
            if name not in LIBRARY_ERRORS and (path.name, scope, name) not in ALLOWED:
                found.append(f"{path.name}:{line} {scope} raises {name}")
    assert found == []


def test_the_check_sees_every_raise():
    # the walk finds raises at module level, in methods and in nested functions
    tree = ast.parse(
        "raise ValueError\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            raise errors.ParseError('x')\n"
        "        raise\n"
    )
    assert list(_raises(tree)) == [
        ("<module>", "ValueError", 1), ("inner", "ParseError", 5), ("m", "<re-raise>", 6)
    ]


_SERIES = np.array([0.0, 0.1, -0.2, 0.1, 3.0, 3.2, 2.9, 3.1])
# a fresh instance of each exported dataclass, equal in value on every call
_INSTANCES = {
    "BinnedSeries": lambda: solocp.BinnedSeries(_SERIES, 0.5, counts=[2, 2, 2, 2]),
    "ChangePointSet": lambda: solocp.ChangePointSet((5,)),
    "DetectionResult": lambda: solocp.detect(
        solocp.TimeSeries(_SERIES, 0.5), solocp.Hyperparameters.solo_defaults(8)
    ),
    "EvalReport": lambda: solocp.evaluate_sets([2], [3], 4),
    "GibbsConfig": lambda: solocp.GibbsConfig(200, 50, 1),
    "Hyperparameters": lambda: solocp.Hyperparameters.solo_defaults(8),
    "NoiseSpec": lambda: solocp.NoiseSpec.gaussian(1.0),
    "SignalSpec": lambda: solocp.SignalSpec(8, (5,), (0.0, 3.0)),
    "SingleChangePoint": lambda: solocp.SingleChangePoint(5, 3.0, False),
    "TimeSeries": lambda: solocp.TimeSeries(_SERIES, 0.5),
}
# the ones holding arrays compare by identity; the rest by value
_BY_IDENTITY = {"BinnedSeries", "DetectionResult", "EvalReport", "TimeSeries"}


def test_every_exported_dataclass_has_an_instance_here():
    exported = {name for name in solocp.__all__ if dataclasses.is_dataclass(getattr(solocp, name))}
    assert exported == set(_INSTANCES)


@pytest.mark.parametrize("name", sorted(_INSTANCES))
def test_equality_and_hash_never_raise(name):
    x, y = _INSTANCES[name](), _INSTANCES[name]()
    assert type(x) is getattr(solocp, name)
    assert x == x and not x != x
    same = x == y  # a generated __eq__ over ndarray fields raises a bare ValueError
    assert hash(x) == hash(x)
    assert same is (name not in _BY_IDENTITY)
    if same:
        assert hash(x) == hash(y)

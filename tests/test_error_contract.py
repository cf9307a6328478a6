"""Every error the library raises is a SolocpError, so the CLI reports it
with its error[...] prefix: a static check over the raise statements of
src/solocp, a table of public calls on malformed input, and == and hash of
every exported dataclass."""
import ast
import dataclasses
import functools
import warnings
from pathlib import Path

import numpy as np
import pytest

import solocp
from solocp import (
    BinnedSeries, Hyperparameters, TimeSeries, errors, evaluate_sets, oracle_joint_marginal,
    oracle_site_posterior, select_changepoints,
)
from solocp.oracle import enumerate_inclusion_probabilities, exact_z_posterior
from solocp.signals import NoiseSpec, SignalSpec, builtin_signal, simulate, simulate_binned

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


_TEETH, _GAUSS = builtin_signal("TEETH"), NoiseSpec.gaussian(1.0)
_HUGE_STEP = SignalSpec(10, (5,), (0.0, 1.7e308))
_CONFIG, _OVERFLOW, _NONFINITE = (
    errors.InvalidConfigError, errors.NumericOverflowError, errors.NonFiniteValueError
)
# public calls on malformed input, each with the library error it raises; the
# suite turns any RuntimeWarning into a failure, so none may warn on the way
_MALFORMED_CALLS = {
    # integer ranges, owned by types.checked_integer and checked_size
    "simulate_seed_negative": (lambda: simulate(_TEETH, _GAUSS, -1), _CONFIG),
    "simulate_seed_fraction": (lambda: simulate(_TEETH, _GAUSS, 1.5), _CONFIG),
    "simulate_seed_bool": (lambda: simulate(_TEETH, _GAUSS, True), _CONFIG),
    "simulate_binned_seed_negative": (lambda: simulate_binned(_TEETH, _GAUSS, 100, 20, -1),
                                      _CONFIG),
    "solo_defaults_fraction": (lambda: Hyperparameters.solo_defaults(2.7), _CONFIG),
    "solo_defaults_string": (lambda: Hyperparameters.solo_defaults("x"), _CONFIG),
    "solo_defaults_zero": (lambda: Hyperparameters.solo_defaults(0), _CONFIG),
    "basad_defaults_one": (lambda: Hyperparameters.basad_defaults(1), _CONFIG),
    "evaluate_sets_domain_negative": (lambda: evaluate_sets([], [3], -5), _CONFIG),
    "evaluate_sets_domain_string": (lambda: evaluate_sets([], [3], "x"), _CONFIG),
    # sums and simulated draws past the float range
    "group_sums_overflow": (
        lambda: BinnedSeries(np.array([1.7e308, 1.7e308, 0, 1.0]), 1.0, counts=[2, 2]), _OVERFLOW
    ),
    "student_t_scale_overflow": (lambda: simulate(_TEETH, NoiseSpec.student_t(3, 1e308), 0),
                                 _NONFINITE),
    "mixture_sd_overflow": (lambda: simulate(_TEETH, NoiseSpec.mixture([1.0], [1e308]), 0),
                            _NONFINITE),
    "mixture_second_sd_overflow": (
        lambda: simulate(_TEETH, NoiseSpec.mixture([0.5, 0.5], [1.0, 1e308]), 0), _NONFINITE
    ),
    "level_plus_noise_overflow": (
        lambda: simulate(_HUGE_STEP, NoiseSpec.gaussian(1e308), 0), _NONFINITE
    ),
    "binned_level_plus_noise_overflow": (
        lambda: simulate_binned(_HUGE_STEP, NoiseSpec.gaussian(1e308), 100, 10, 0), _NONFINITE
    ),
    # series inputs, signal names and selection inputs
    "series_values_strings": (lambda: TimeSeries(["a", "b"], 1.0), _CONFIG),
    "series_noise_sd_string": (lambda: TimeSeries([1.0, 2.0], "1"), _CONFIG),
    "series_noise_sd_bool": (lambda: TimeSeries([1.0, 2.0], True), _CONFIG),
    "binned_group_strings": (lambda: BinnedSeries([[1.0], ["a"]], 1.0), _CONFIG),
    "binned_flat_strings": (lambda: BinnedSeries(["a", "b"], 1.0, counts=[1, 1]), _CONFIG),
    "binned_noise_sd_bool": (lambda: BinnedSeries([[1.0], [2.0]], True), _CONFIG),
    "builtin_signal_not_a_string": (lambda: builtin_signal(3), errors.UnknownSignalError),
    "select_changepoints_strings": (
        lambda: select_changepoints(["a"], ["b"], Hyperparameters.solo_defaults(8)), _CONFIG
    ),
}


_VALUES = {
    "string": "a", "fraction": 2.5, "bool": True, "negative": -1, "none": None,
    "nan": float("nan"), "nested": [[1]], "object": object(), "huge": 10**30,
}
_CAPS = {name: v for name, v in _VALUES.items() if name != "huge"}  # 10**30 is a valid cap
_SMALL, _H_SMALL = TimeSeries([0.1, -0.2, 1.9, 2.2], 1.0), Hyperparameters.solo_defaults(4)
# arguments owned by types.checked_integer (site, caps) and checked_float_array
# (group sizes, positions), each with the malformed values it takes; before
# those owners, a bool site was taken as site 1, a nan cap disabled the cap
# and the rest raised NumPy's or Python's own errors
_MALFORMED_ARGUMENTS = {
    "oracle_site": (lambda v: oracle_site_posterior(_SMALL, v, _H_SMALL), _VALUES),
    "oracle_site_max_size": (
        lambda v: oracle_site_posterior(_SMALL, 2, _H_SMALL, max_size=v), _CAPS
    ),
    "oracle_joint_max_size": (
        lambda v: oracle_joint_marginal(_SMALL, [0, 1, 0, 0], _H_SMALL, max_size=v), _CAPS
    ),
    "enumerate_max_sites": (
        lambda v: enumerate_inclusion_probabilities(_SMALL, _H_SMALL, max_sites=v), _CAPS
    ),
    "exact_z_max_sites": (lambda v: exact_z_posterior(_SMALL, _H_SMALL, max_sites=v), _CAPS),
    "binned_group_sizes": (lambda v: BinnedSeries([1.0, 2.0, 3.0], 1.0, counts=v),
                           {"strings": ["a", "b"], "object": object()}),
    "signal_positions": (_TEETH.value_at_fraction, {"strings": ["a"], "object": object()}),
}
_MALFORMED_CALLS.update(
    (f"{arg}_{name}", (functools.partial(call, value), _CONFIG))
    for arg, (call, values) in _MALFORMED_ARGUMENTS.items() for name, value in values.items()
)


@pytest.mark.parametrize("case", _MALFORMED_CALLS)
def test_malformed_public_calls_raise_library_errors(case):
    # the dynamic side of test_src_raises_only_library_errors, which sees
    # only raise statements, not what numpy or Python raise or warn
    call, error = _MALFORMED_CALLS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()



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

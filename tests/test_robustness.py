import ast
import importlib
import pathlib
import pkgutil
import sys

import numpy as np
import pytest

import aoii_jam
from aoii_jam.core import (SubsystemParams, ThresholdPolicy, eaoii_ladder, intersection_lambda,
                           optimal_threshold)
from aoii_jam.oracle import OracleConfig, brute_force_threshold, relative_value_iteration
from aoii_jam.sim import WhittleJam, simulate_multi_batch, simulate_single
from aoii_jam.whittle import (FleetConfig, indexability_check, whittle_index_iterative,
                              whittle_table_closed)

REF = SubsystemParams(p=0.9, q=0.9, r=0.1)

COST_TAKERS = {
    "optimal_threshold": lambda lam: optimal_threshold(REF, lam),
    "brute_force_threshold": lambda lam: brute_force_threshold(REF, lam, 400),
    "relative_value_iteration": lambda lam: relative_value_iteration(REF, lam, OracleConfig()),
    "simulate_single": lambda lam: simulate_single(REF, ThresholdPolicy(2), lam, 100, 0),
}


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", list(COST_TAKERS))
def test_non_finite_cost_rejected(name, lam):
    with pytest.raises(ValueError, match="lam must be finite and >= 0"):
        COST_TAKERS[name](lam)


def run_single(horizon, seed):
    return simulate_single(REF, ThresholdPolicy(2), 0.0, horizon, seed)


def run_fleet(horizon, seed):
    return simulate_multi_batch(FleetConfig((REF, REF), 1), WhittleJam(), horizon, [seed])


# Every integer argument of the public API: (its name, a call passing it, a valid value).
INTEGER_TAKERS = {
    "whittle_table_closed": ("n_max", lambda n: whittle_table_closed(REF, n), 3),
    "whittle_index_iterative": ("n_max", lambda n: whittle_index_iterative(REF, n), 3),
    "indexability_check": ("n_max", lambda n: indexability_check(REF, n), 3),
    "brute_force_threshold": ("n_max", lambda n: brute_force_threshold(REF, 0.1, n), 3),
    "eaoii_ladder": ("size", lambda n: eaoii_ladder(REF, n), 3),
    "FleetConfig": ("budget", lambda n: FleetConfig((REF,) * 4, n), 3),
    "FleetConfig.from_classes": ("n_total", lambda n: FleetConfig.from_classes([(REF, 1)], n, 0), 3),
    "simulate_single horizon": ("horizon", lambda n: run_single(n, 0), 3),
    "simulate_multi_batch horizon": ("horizon", lambda n: run_fleet(n, 0), 3),
    "simulate_single seed": ("seed", lambda n: run_single(10, n), 3),
    "simulate_multi_batch seed": ("seed", lambda n: run_fleet(10, n), 3),
    "OracleConfig": ("state_cap", lambda n: OracleConfig(state_cap=n), 10),
    "intersection_lambda": ("threshold", lambda n: intersection_lambda(REF, 0, n), 3),
    "intersection_lambda m": ("threshold", lambda n: intersection_lambda(REF, n, 10), 3),
}

# The rows whose argument may also be an integer array; every other one is one number.
ARRAY_TAKERS = {"intersection_lambda"}


@pytest.mark.parametrize("value", [2.5, True, np.True_, "3", -1])
@pytest.mark.parametrize("name", list(INTEGER_TAKERS))
def test_integer_argument_takes_naturals_only(name, value):
    # A fraction, a bool or a string is not an integer, and none is truncated or coerced.
    what, call, _ = INTEGER_TAKERS[name]
    rule = "must be >= 0, got -1$" if value == -1 else "must be an integer"
    with pytest.raises(ValueError, match=f"^{what} {rule}"):
        call(value)


@pytest.mark.parametrize("name", list(INTEGER_TAKERS))
def test_integer_argument_takes_numpy_integers(name):
    _, call, valid = INTEGER_TAKERS[name]
    call(np.int64(valid))


@pytest.mark.parametrize("name", [name for name in INTEGER_TAKERS if name not in ARRAY_TAKERS])
def test_scalar_argument_refuses_arrays(name):
    # A one-element integer array is not one number: refused by name, not by a numpy error.
    what, call, valid = INTEGER_TAKERS[name]
    with pytest.raises(ValueError, match=rf"^{what} must be an integer, got array\(\[{valid}\]\)$"):
        call(np.array([valid]))


def test_package_has_no_assert_statements():
    # Invariants must hold under ``python -O``, which strips assert statements.
    # Every module under the package is parsed, subpackages included.
    found, root = [], pathlib.Path(aoii_jam.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_numpy_and_the_standard_library_only():
    # numpy is the one declared dependency. Other scientific packages may be
    # installed where the tests run, so importing one would pass every other test.
    allowed = set(sys.stdlib_module_names) | {"numpy", "aoii_jam"}
    imported, root = set(), pathlib.Path(aoii_jam.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert sorted(imported - allowed) == []


def test_public_names_exist_and_star_import():
    # Every name a module lists in __all__ is defined, and a star import
    # brings in exactly those names.
    listed = []
    for info in pkgutil.iter_modules(aoii_jam.__path__):
        module = importlib.import_module(f"aoii_jam.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        listed.append(info.name)
        namespace = {}
        exec(f"from aoii_jam.{info.name} import *", namespace)
        assert len(set(module.__all__)) == len(module.__all__)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(module.__all__)
    assert listed == ["core", "oracle", "sim", "whittle"]

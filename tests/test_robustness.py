import ast
import importlib
import pathlib
import pkgutil

import pytest

import aoii_jam
from aoii_jam.core import SubsystemParams, ThresholdPolicy, optimal_threshold
from aoii_jam.oracle import OracleConfig, brute_force_threshold, relative_value_iteration
from aoii_jam.sim import simulate_single

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


def test_package_has_no_assert_statements():
    # Invariants must hold under ``python -O``, which strips assert statements.
    # Every module under the package is parsed, subpackages included.
    found, root = [], pathlib.Path(aoii_jam.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(root)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


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

"""Package surface: exported names resolve, traced methods stay put."""

import importlib
import pkgutil

import pytest

import subsetlab
from subsetlab import schemes, tomography

MODULES = ["subsetlab"] + [
    f"subsetlab.{info.name}" for info in pkgutil.iter_modules(subsetlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_traced_methods_are_defined_on_their_own_classes():
    # perfbench/tracer.py wraps these through ``owner.__dict__[attr]``, so
    # they must not be inherited or assigned elsewhere.
    for owner, attr in (
        (schemes.MoneyScheme, "mint_state"),
        (schemes.MoneyScheme, "exact_verify_prob"),
        (schemes.OwsgCandidate, "exact_verify_prob"),
        (tomography.CircuitAcceptProcedure, "accept_probability"),
    ):
        assert attr in vars(owner), (owner.__name__, attr)

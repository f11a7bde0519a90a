"""The package namespace is exactly the concatenation of its modules' lists."""

import importlib

import pytest

import catvis

MODULES = ("fock", "operators", "phase_space", "heisenberg", "experiment")


@pytest.mark.parametrize("name", MODULES)
def test_reexported_names_are_in_their_module_list(name):
    module = importlib.import_module(f"catvis.{name}")
    reexported = {
        attr
        for attr, value in vars(catvis).items()
        if not attr.startswith("_")
        and getattr(value, "__module__", None) == module.__name__
    }
    assert reexported, f"catvis re-exports nothing from catvis.{name}"
    assert reexported <= set(module.__all__)


def test_package_list_resolves_once_and_is_public():
    names = catvis.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        assert hasattr(catvis, name)

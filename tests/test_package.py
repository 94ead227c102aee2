"""The package's public names: every exported name exists, once."""

import importlib
import pkgutil

import pytest

import escbo

MODULES = sorted(m.name for m in pkgutil.iter_modules(escbo.__path__))


def test_seven_modules():
    assert MODULES == ["benchmarks", "cli", "harness", "neural", "objective",
                       "swarm", "theory"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_resolve(name):
    module = importlib.import_module(f"escbo.{name}")
    exported = getattr(module, "__all__", None)
    if exported is not None:
        assert len(set(exported)) == len(exported)
        for attr in exported:
            assert hasattr(module, attr), f"escbo.{name}.{attr}"
    namespace: dict = {}
    exec(f"from escbo.{name} import *", namespace)
    if exported is not None:
        assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_no_object_is_exported_under_two_names(name):
    module = importlib.import_module(f"escbo.{name}")
    names_of: dict[int, list[str]] = {}
    for attr in getattr(module, "__all__", ()):
        names_of.setdefault(id(getattr(module, attr)), []).append(attr)
    assert [names for names in names_of.values() if len(names) > 1] == []

"""Every exported name resolves, so a deleted entry point cannot leave a
dangling export behind."""

import importlib
import pkgutil

import pytest

import projlim

MODULES = sorted(f"projlim.{info.name}" for info in pkgutil.iter_modules(projlim.__path__))


@pytest.mark.parametrize("name", ["projlim"] + MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"


def test_the_package_exports_are_checked():
    assert "FactoredSequence" in projlim.__all__
    assert {"projlim.young", "projlim.correlator", "projlim.geometry", "projlim.cli"} <= set(MODULES)

"""Package re-exports are lazy but keep the eager-import surface.

Every ``repro`` package ``__init__`` re-exports its submodules' public
names on first access (:mod:`repro._lazy`).  These tests pin that the
surface is what the old eager ``from ... import`` lines produced: each
``__all__`` name resolves to its defining module's object, ``dir()``
lists it, and an export named like its own submodule (``repro.stats``'s
``nkld``) stays the export whichever is imported first.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import repro


def _walk():
    """Every ``repro`` module, imported (``__main__`` runs the CLI)."""
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]
    return [importlib.import_module(name) for name in names]


MODULES = _walk()
PACKAGES = [m for m in MODULES if hasattr(m, "__path__")]


def test_every_package_is_walked():
    names = {p.__name__ for p in PACKAGES}
    assert {"repro", "repro.stats", "repro.serve", "repro.core"} <= names


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_all_names_resolve_to_their_defining_object(package):
    tree = [
        m for m in MODULES
        if m is package or m.__name__.startswith(package.__name__ + ".")
    ]
    listed = dir(package)
    for name in package.__all__:
        obj = getattr(package, name)
        assert not inspect.ismodule(obj), f"{package.__name__}.{name}"
        assert name in listed, f"dir({package.__name__}) lacks {name}"
        defined = inspect.isclass(obj) or inspect.isfunction(obj)
        if defined and obj.__module__.startswith("repro."):
            home = sys.modules[obj.__module__]
            assert getattr(home, name) is obj, f"{package.__name__}.{name}"
        # Every module in the package that binds the name binds the same
        # object -- a submodule bound over an export would differ here.
        for module in tree:
            if name in vars(module):
                assert vars(module)[name] is obj, (
                    f"{module.__name__}.{name} is not {package.__name__}.{name}"
                )


@pytest.mark.parametrize("script", [
    # The import system binds the submodule onto the package first.
    "import repro.stats.nkld\nfrom repro.stats import nkld\n",
    # The lazy lookup first, then an explicit submodule import.
    "from repro.stats import nkld\nimport repro.stats.nkld\n"
    "from repro.stats import nkld as again\nassert again is nkld\n",
], ids=["submodule-first", "export-first"])
def test_export_shadowing_its_submodule_stays_the_export(script):
    check = (
        "import inspect, sys\n"
        "mod = sys.modules['repro.stats.nkld']\n"
        "assert inspect.isfunction(nkld), nkld\n"
        "assert nkld is mod.nkld is repro.stats.nkld\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script + check],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    import repro.stats

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.stats.no_such_name  # noqa: B018
    assert not hasattr(repro.stats, "no_such_name")

"""Lazy re-exports for the package ``__init__`` modules.

Python runs every parent package's ``__init__`` before it imports a
submodule, so a package that re-exported its submodules eagerly made
``import repro.serve.server`` load numpy, the radio model and the
simulator along the way.  A package built with :func:`lazy_exports`
keeps its ``__all__`` and its public names, but imports the submodule
that defines a name only when that name is first read (the PEP 562
``__getattr__``/``__dir__`` protocol, implemented on the module's type).

The type also keeps one eager-import guarantee the hooks alone cannot:
an export that shares its defining submodule's name, such as
``repro.stats.nkld`` (module) and ``nkld`` (function).  The import
system binds the submodule onto the package after importing it, which
would shadow the export; :class:`LazyPackage` binds the export instead,
as the old ``from repro.stats.nkld import nkld`` line did.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Dict, Iterable, Mapping


class LazyPackage(types.ModuleType):
    """A package module whose re-exports resolve on first access."""

    #: Export name -> dotted name of the submodule that defines it.
    _lazy_sources: Dict[str, str]

    def __getattr__(self, name: str):
        source = self._lazy_sources.get(name)
        if source is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(source), name)
        # Cache it, so later reads are plain attribute lookups.
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value) -> None:
        if (
            isinstance(value, types.ModuleType)
            and self._lazy_sources.get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)

    def __dir__(self):
        return sorted(set(super().__dir__()) | set(self._lazy_sources))


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> None:
    """Make ``package`` re-export ``exports`` lazily.

    ``exports`` maps a submodule name, relative to ``package``, to the
    names it defines that the package re-exports.  Call it from the
    package's ``__init__`` as ``lazy_exports(__name__, {...})``.
    """
    module = sys.modules[package]
    module._lazy_sources = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }
    module.__class__ = LazyPackage

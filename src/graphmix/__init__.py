"""Sparse/dense mixture graph sequences and sparse-part estimation.

The package generates growing graph sequences that overlay a dense
exchangeable part (sampled from a kernel on [0,1]^2) with a sparse
star-forest part (the inverse line graph of a disjoint-clique graph
driven by a mass partition), joins them with a controlled number of
cross edges, and recovers the mass partition from the observed degree
spectrum of the blend.

Each module declares its public names in its own __all__; the package
re-exports them all.  Names load on first use (PEP 562): importing the
package imports none of its modules.  Reading a module's name imports that
module (and what it imports); reading a public name imports the modules
of _MODULES in order up to the first one that lists it, so ``from graphmix
import Graph`` loads ``graphmix.graph`` alone, while ``parse_edge_events``
loads every module but ``experiments``.  Every read takes the name from
its module, so the package keeps no copy of it.
"""

import importlib

__version__ = "0.1.0"

# import-dependency order: a name is read from the first module listing it
_MODULES = (
    "graph",
    "masspartition",
    "graphon",
    "linegraph",
    "mixture",
    "estimators",
    "temporal",
    "experiments",
)


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        return sorted(n for m in _MODULES for n in _module(m).__all__)
    if not name.startswith("__"):  # no module exports a dunder
        for m in _MODULES:
            module = _module(m)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})

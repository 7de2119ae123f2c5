"""Sparse/dense mixture graph sequences and sparse-part estimation.

The package generates growing graph sequences that overlay a dense
exchangeable part (sampled from a kernel on [0,1]^2) with a sparse
star-forest part (the inverse line graph of a disjoint-clique graph
driven by a mass partition), joins them with a controlled number of
cross edges, and recovers the mass partition from the observed degree
spectrum of the blend.

Each module declares its public names in its own __all__; the package
re-exports them all.
"""

from . import estimators, experiments, graph, graphon, linegraph, masspartition, mixture, temporal
from .estimators import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .graphon import *  # noqa: F401,F403
from .linegraph import *  # noqa: F401,F403
from .masspartition import *  # noqa: F401,F403
from .mixture import *  # noqa: F401,F403
from .temporal import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (estimators, experiments, graph, graphon, linegraph, masspartition, mixture, temporal)
__all__ = sorted(name for module in _MODULES for name in module.__all__)

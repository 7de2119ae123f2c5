"""The package's public surface: one declaration per name."""

import itertools

import graphmix

MODULES = (
    graphmix.estimators,
    graphmix.experiments,
    graphmix.graph,
    graphmix.graphon,
    graphmix.linegraph,
    graphmix.masspartition,
    graphmix.mixture,
    graphmix.temporal,
)


def test_no_name_in_two_module_all_lists():
    # star re-exports would let a later module shadow an earlier one
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_package_exports_every_module_name():
    names = [n for m in MODULES for n in m.__all__]
    assert graphmix.__all__ == sorted(names)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(graphmix, name) is getattr(m, name)

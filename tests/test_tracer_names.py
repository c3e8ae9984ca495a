"""The benchmark tracer's names are a contract with the package.

``bench/tracer.py`` wraps each ``TARGETS`` entry by looking its attribute
path up on the imported module, and reads each ``CACHES`` entry's
``cache_info()``.  A name that moves, is renamed or loses its cache would
make the traced layer read 0 calls without any error, so these tests pin
every name the tracer resolves.
"""

import importlib
from functools import reduce

import pytest

from _oracles import bench_module

TRACER = bench_module("tracer")


def resolve(module: str, path: str):
    return reduce(getattr, path.split("."), importlib.import_module(module))


@pytest.mark.parametrize("name", sorted(TRACER.TARGETS))
def test_target_resolves_to_a_callable(name):
    module, path = TRACER.TARGETS[name]
    assert callable(resolve(module, path)), name


@pytest.mark.parametrize("name", sorted(TRACER.CACHES))
def test_cache_has_cache_info(name):
    module, path = TRACER.CACHES[name]
    assert callable(getattr(resolve(module, path), "cache_info", None)), name

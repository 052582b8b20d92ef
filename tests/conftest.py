"""Shared test setup: every test starts with the package's caches empty.

The ``lru_cache`` layers (regions, staircases, per-degree Smith factors, bad
primes) would otherwise carry results from one test into the next, so a test
that counts kernel calls would see only the misses its predecessors left.
"""

from __future__ import annotations

import sys

import pytest

import lefschetz_lab  # noqa: F401  (loads every submodule that holds a cache)


def _package_caches() -> list:
    """Every attribute of a ``lefschetz_lab`` module that has ``cache_clear``
    (a function re-exported by the package appears twice)."""
    modules = [m for name, m in list(sys.modules.items()) if name.partition(".")[0] == "lefschetz_lab"]
    return [obj for m in modules for obj in vars(m).values() if callable(getattr(obj, "cache_clear", None))]


@pytest.fixture(autouse=True)
def _clear_package_caches():
    for cache in _package_caches():
        cache.cache_clear()

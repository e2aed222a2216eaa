"""Every memo cache in hspeed is bounded: a long enumeration must not grow
one without limit."""

import importlib
import inspect
import pkgutil

import hspeed


def _lru_caches():
    """(qualified name, cache) for every functools.lru_cache bound in an
    hspeed module or in a class it defines."""
    for info in pkgutil.walk_packages(hspeed.__path__, prefix="hspeed."):
        module = importlib.import_module(info.name)
        owners = [(info.name, vars(module))]
        owners += [
            (f"{info.name}.{name}", vars(cls))
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == info.name
        ]
        for owner, namespace in owners:
            for name, value in namespace.items():
                func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                if hasattr(func, "cache_parameters"):
                    yield f"{owner}.{name}", func


def test_finds_the_known_caches():
    names = {name for name, _ in _lru_caches()}
    assert {"hspeed.canon.canonical_data", "hspeed.canon._readers", "hspeed.cli.build_parser"} <= names


def test_every_lru_cache_is_bounded():
    unbounded = [name for name, cache in _lru_caches() if cache.cache_parameters()["maxsize"] is None]
    assert unbounded == []

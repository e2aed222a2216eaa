"""Every memo cache in hspeed is bounded: a long enumeration must not grow
one without limit.  And no search leaves a reference cycle behind."""

import gc
import importlib
import itertools
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


def test_searches_leave_no_reference_cycles():
    """A search whose closure calls itself is deleted before its function
    returns, so no call leaves garbage for the cycle collector."""
    from hspeed.arrays import supports_m_array, type_space
    from hspeed.canon import canonical_data
    from hspeed.corpus import cycle, matching, symmetric_bipartite_template, tight_cycle
    from hspeed.oscillate import max_subgraph_density
    from hspeed.property import PropertySpec, speed
    from hspeed.structures import Language, graph, make_structure, uniform_language
    from hspeed.template import enumerate_compatible, in_age, instantiate, is_compatible

    template = symmetric_bipartite_template()
    k33 = instantiate(template, (frozenset({1, 3, 5}), frozenset({2, 4, 6})), 6)
    tp = type_space(matching(3), "E", [1], [])[0]
    triples = make_structure(uniform_language(3), 6, {"R": [p for e in ((1, 2, 3), (3, 4, 5), (5, 6, 1))
                                                          for p in itertools.permutations(e)]})
    named = make_structure(Language((("E", 2),), ("a", "b")), 5, {"E": [(1, 2), (2, 3), (4, 5)]}, {"a": 1, "b": 3})
    calls = [
        lambda: supports_m_array(tp, 2),
        lambda: enumerate_compatible(template, 5),
        lambda: in_age(matching(2), template),
        lambda: is_compatible(k33, template),  # stops at the first partition, a witness
        lambda: is_compatible(cycle(6), template),  # runs the search to the end, no witness
        lambda: max_subgraph_density(tight_cycle(3, 16)),
        lambda: canonical_data.__wrapped__(cycle(8)),  # the mask path
        lambda: canonical_data.__wrapped__(graph(6, itertools.combinations(range(1, 7), 2))),  # twin cells: K6's root
        lambda: canonical_data.__wrapped__(cycle(4)),  # twin cells below C4's root
        lambda: canonical_data.__wrapped__(triples),  # the signature path
        lambda: canonical_data.__wrapped__(named),  # the signature path, seeded by constants
        lambda: speed(PropertySpec(uniform_language(3), "uniform"), 5),  # the group extension search
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()

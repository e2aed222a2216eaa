"""Deterministic built-in families for tests, docs, and the CLI: graphs,
hypergraphs, templates and hereditary properties.  ``bipartite`` forbids
the odd cycles, because a shortest odd cycle has no chord."""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable

from .errors import UnknownKind, UsageError
from .oscillate import Hypergraph, _decode_ranks, _skip_ranks, hypergraph
from .property import BASE_GRAPH, PropertySpec, forbid
from .structures import GRAPH, Structure, graph
from .template import INF, Template, make_template


def matching(m: int) -> Structure:
    """Perfect matching M_m on 2m vertices."""
    if m < 0:
        raise ValueError(f"a matching needs m >= 0, not m={m}")
    return graph(2 * m, [(2 * i - 1, 2 * i) for i in range(1, m + 1)])


def clique(n: int) -> Structure:
    if n < 0:
        raise ValueError(f"a clique needs n >= 0, not n={n}")
    return graph(n, itertools.combinations(range(1, n + 1), 2))


def path(n: int) -> Structure:
    if n < 0:
        raise ValueError(f"a path needs n >= 0, not n={n}")
    return graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Structure:
    if n < 3:
        raise ValueError(f"a cycle needs n >= 3, not n={n}")
    return graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_bipartite(a: int, b: int) -> Structure:
    if a < 0 or b < 0:
        raise ValueError(f"a complete bipartite graph needs a, b >= 0, not a={a}, b={b}")
    return graph(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def disjoint_triangles(m: int) -> Structure:
    if m < 0:
        raise ValueError(f"disjoint triangles need m >= 0, not m={m}")
    edges = []
    for i in range(m):
        base = 3 * i
        edges += [(base + 1, base + 2), (base + 2, base + 3), (base + 1, base + 3)]
    return graph(3 * m, edges)


def halfgraph_blowup(m: int) -> Structure:
    """Blown-up half graph: a_1..a_m plus m copies of each b_j; a_i ~ b_j-copy iff i <= j.

    Elements 1..m are the a_i; element m + (j-1)*m + t is the t-th copy of b_j.
    """
    if m < 0:
        raise ValueError(f"a half-graph blow-up needs m >= 0, not m={m}")
    n = m + m * m
    edges = []
    for j in range(1, m + 1):
        for t in range(1, m + 1):
            b = m + (j - 1) * m + t
            for i in range(1, j + 1):
                edges.append((i, b))
    return graph(n, edges)


def tight_cycle(r: int, v: int) -> Hypergraph:
    """Edges {i, i+1, ..., i+r-1} modulo v."""
    if v < r + 1:
        raise ValueError("tight cycle needs v > r")
    edges = [tuple((i + j) % v + 1 for j in range(r)) for i in range(v)]
    return hypergraph(r, v, edges)


def random_hypergraph(r: int, v: int, p: float, seed: int) -> Hypergraph:
    """G^(r)(v, p), drawn by the sampler's geometric skips over r-set ranks."""
    if r < 2 or v < 0 or not 0 <= p <= 1:
        raise ValueError(f"a random hypergraph needs r >= 2, v >= 0 and 0 <= p <= 1, not r={r}, v={v}, p={p}")
    ranks = _skip_ranks(random.Random(seed), math.comb(v, r), p)
    return hypergraph(r, v, _decode_ranks(ranks, v, r))


# built-in templates ----------------------------------------------------------


def inf_clique_template() -> Template:
    return make_template(GRAPH, [INF], {"E(x1,x2)": [(1, 1)]})


def inf_empty_template() -> Template:
    return make_template(GRAPH, [INF], {})


def symmetric_bipartite_template() -> Template:
    return make_template(GRAPH, [INF, INF], {"E(x1,x2)": [(1, 2), (2, 1)]})


def clique_plus_singleton_template() -> Template:
    return make_template(GRAPH, [1, INF], {"E(x1,x2)": [(2, 2)]})


def asymmetric_two_class_template() -> Template:
    """One clique class and one independent class, no cross edges."""
    return make_template(GRAPH, [INF, INF], {"E(x1,x2)": [(1, 1)]})


BUILTIN_TEMPLATES = {
    "inf-clique": inf_clique_template,
    "inf-empty": inf_empty_template,
    "symmetric-bipartite": symmetric_bipartite_template,
    "clique-plus-singleton": clique_plus_singleton_template,
    "asymmetric-two-class": asymmetric_two_class_template,
}


# built-in properties ---------------------------------------------------------


def matching_property() -> PropertySpec:
    """Disjoint unions of edges: forbid induced P3 and K3."""
    return forbid([path(3), clique(3)])


def edgeless_property() -> PropertySpec:
    return forbid([clique(2)])


def all_graphs_property() -> PropertySpec:
    return PropertySpec(language=GRAPH, base=BASE_GRAPH)


def _odd_cycles(m: int) -> tuple[Structure, ...]:
    """The odd cycle on m vertices when m >= 3 is odd, else nothing."""
    return (cycle(m),) if m % 2 and m >= 3 else ()


def bipartite_property() -> PropertySpec:
    """Bipartite graphs: forbid every induced odd cycle.  A non-bipartite
    graph has one, since its shortest odd cycle has no chord."""
    return PropertySpec(language=GRAPH, base=BASE_GRAPH, forbidden=_odd_cycles)


def complete_bipartite_property() -> PropertySpec:
    """Complete bipartite graphs, edgeless ones included: forbid induced K1+K2 and K3."""
    return forbid([graph(3, [(1, 2)]), clique(3)])


BUILTIN_PROPERTIES: dict[str, Callable[[], PropertySpec]] = {
    "matching": matching_property,
    "edgeless": edgeless_property,
    "all-graphs": all_graphs_property,
    "bipartite": bipartite_property,
    "complete-bipartite": complete_bipartite_property,
}


def corpus_generate(kind: str, params: dict, seed: int = 0):
    """Named family instance: a Structure, Template, or Hypergraph.  Each
    kind takes only its own parameters, each value read as the type of its
    default."""
    families = {  # kind -> (builder, its parameters with their defaults)
        "matching": (matching, {"m": 4}),
        "clique": (clique, {"n": 4}),
        "path": (path, {"n": 4}),
        "cycle": (cycle, {"n": 5}),
        "complete-bipartite": (complete_bipartite, {"a": 3, "b": 3}),
        "triangles": (disjoint_triangles, {"m": 2}),
        "halfgraph-blowup": (halfgraph_blowup, {"m": 4}),
        "tight-cycle": (tight_cycle, {"r": 3, "v": 5}),
        "random-hypergraph": (lambda r, v, p: random_hypergraph(r, v, p, seed), {"r": 2, "v": 8, "p": 0.3}),
    }
    families.update((name, (build, {})) for name, build in BUILTIN_TEMPLATES.items())
    if kind not in families:
        raise UnknownKind(f"unknown corpus kind {kind!r}")
    build, defaults = families[kind]
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        takes = f"the parameters {', '.join(defaults)}" if defaults else "no parameters"
        raise UsageError(f"corpus kind {kind!r} takes {takes}, not {', '.join(unknown)}")
    return build(*(type(default)(params.get(key, default)) for key, default in defaults.items()))

"""Deterministic built-in families for tests, docs, and the CLI."""

from __future__ import annotations

import itertools
import math
import random

from .errors import UnknownKind
from .oscillate import Hypergraph, _decode_ranks, _skip_ranks, hypergraph
from .structures import GRAPH, Structure, graph
from .template import INF, Template, make_template


def matching(m: int) -> Structure:
    """Perfect matching M_m on 2m vertices."""
    return graph(2 * m, [(2 * i - 1, 2 * i) for i in range(1, m + 1)])


def clique(n: int) -> Structure:
    return graph(n, itertools.combinations(range(1, n + 1), 2))


def path(n: int) -> Structure:
    return graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Structure:
    return graph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete_bipartite(a: int, b: int) -> Structure:
    return graph(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def disjoint_triangles(m: int) -> Structure:
    edges = []
    for i in range(m):
        base = 3 * i
        edges += [(base + 1, base + 2), (base + 2, base + 3), (base + 1, base + 3)]
    return graph(3 * m, edges)


def halfgraph_blowup(m: int) -> Structure:
    """Blown-up half graph: a_1..a_m plus m copies of each b_j; a_i ~ b_j-copy iff i <= j.

    Elements 1..m are the a_i; element m + (j-1)*m + t is the t-th copy of b_j.
    """
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


def corpus_generate(kind: str, params: dict, seed: int = 0):
    """Named family instance: a Structure, Template, or Hypergraph."""
    if kind == "matching":
        return matching(int(params.get("m", 4)))
    if kind == "clique":
        return clique(int(params.get("n", 4)))
    if kind == "path":
        return path(int(params.get("n", 4)))
    if kind == "cycle":
        return cycle(int(params.get("n", 5)))
    if kind == "complete-bipartite":
        return complete_bipartite(int(params.get("a", 3)), int(params.get("b", 3)))
    if kind == "triangles":
        return disjoint_triangles(int(params.get("m", 2)))
    if kind == "halfgraph-blowup":
        return halfgraph_blowup(int(params.get("m", 4)))
    if kind == "tight-cycle":
        return tight_cycle(int(params.get("r", 3)), int(params.get("v", 5)))
    if kind == "random-hypergraph":
        return random_hypergraph(
            int(params.get("r", 2)), int(params.get("v", 8)), float(params.get("p", 0.3)), seed
        )
    if kind in BUILTIN_TEMPLATES:
        return BUILTIN_TEMPLATES[kind]()
    raise UnknownKind(f"unknown corpus kind {kind!r}")

"""Golden canonical labeling: one digest over a fixed, seeded corpus.

Any change to refinement, search order, pruning or leaf encoding that
moves a relabeling, a generator, a group order or a form changes the
digest.  The corpus covers graphs, a mixed-arity language with constants
and 3-uniform hypergraphs.
"""

import hashlib
import itertools
import json
import random

from conftest import all_graphs
from hspeed.canon import (
    _general_steps,
    _graph_masks,
    _individualize,
    _mask_individualize,
    _mask_round,
    _mask_steps,
    _mask_unit_round,
    _search,
    canonical_data,
)
from hspeed.structures import GRAPH, Language, graph, make_structure, structure_to_json, uniform_language

MIXED = Language(relations=(("U", 1), ("E", 2), ("T", 3)), constants=("a", "b"))

GOLDEN_SIZE = 4600
GOLDEN_DIGEST = "d07d13f7e1dab3bf4804533f0a5d4f3bcf610b77bee237f3fd3ab9d3b251a6d2"


def _random_graph(rng: random.Random, n: int):
    p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
    return graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])


def _random_mixed(rng: random.Random):
    n = rng.randint(1, 6)
    p = rng.choice((0.1, 0.3, 0.5))
    elems = range(1, n + 1)
    tuples = {
        name: [t for t in itertools.product(elems, repeat=arity) if rng.random() < p / arity]
        for name, arity in MIXED.relations
    }
    return make_structure(MIXED, n, tuples, {"a": rng.randint(1, n), "b": rng.randint(1, n)})


def _random_uniform3(rng: random.Random):
    n = rng.randint(0, 8)
    p = rng.choice((0.15, 0.3, 0.5, 0.7))
    edges = [e for e in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]
    return make_structure(
        uniform_language(3), n, {"R": [q for e in edges for q in itertools.permutations(e)]}
    )


def golden_corpus():
    """Every labeled graph on n <= 5, 300 random graphs at each n = 6..10,
    1,500 structures over U/1, E/2, T/3 with two constants and 500
    3-uniform structures on n <= 8, all from fixed seeds."""
    for n in range(6):
        yield from all_graphs(n)
    rng = random.Random(20181)
    for n in range(6, 11):
        for _ in range(300):
            yield _random_graph(rng, n)
    rng = random.Random(20182)
    for _ in range(1500):
        yield _random_mixed(rng)
    rng = random.Random(20183)
    for _ in range(500):
        yield _random_uniform3(rng)


def _record(struct) -> str:
    data = canonical_data(struct)
    return json.dumps(
        [
            sorted(data.relabel.items()),
            [list(g) for g in data.aut_generators],
            data.aut_order,
            structure_to_json(data.form),
        ],
        sort_keys=True,
    )


def test_golden_digest():
    h = hashlib.sha256()
    size = 0
    for struct in golden_corpus():
        h.update(_record(struct).encode())
        h.update(b"\n")
        size += 1
    assert size == GOLDEN_SIZE
    assert h.hexdigest() == GOLDEN_DIGEST


def _seeded_graphs(seed: int, count: int, sizes):
    """Random graphs over a wide density range, so isolated vertices, regular
    pieces and dense complements all occur, plus circulants for symmetry."""
    rng = random.Random(seed)
    for i in range(count):
        n = sizes[i % len(sizes)]
        if i % 10 == 9:
            jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, 2))
            yield graph(n, [(x, (x + j - 1) % n + 1) for x in range(1, n + 1) for j in jumps
                            if x != (x + j - 1) % n + 1])
            continue
        p = rng.choice((0.05, 0.15, 0.3, 0.5, 0.7, 0.9))
        yield graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])


def test_mask_path_matches_signature_path():
    """The adjacency-mask refinement gives the general signature search's
    relabeling, generators, group order and form on 500 seeded graphs."""
    for g in _seeded_graphs(20241, 500, range(7, 13)):
        assert _graph_masks(g) is not None
        fast = _search(g)
        general = _search(g, _general_steps)
        assert fast == general, sorted(g.rel_tuples[0])
        assert repr(fast[1]) == repr(general[1])


def test_only_graphs_take_the_mask_path():
    assert _graph_masks(graph(3, [(1, 2)])) is not None
    assert _graph_masks(graph(0, [])) is not None
    assert _graph_masks(make_structure(GRAPH, 2, {"E": [(1, 1)]})) is None  # a loop
    assert _graph_masks(make_structure(GRAPH, 2, {"E": [(1, 2)]})) is None  # one orientation
    assert _graph_masks(make_structure(MIXED, 2, {"E": [(1, 2), (2, 1)]}, {"a": 1, "b": 2})) is None
    assert _graph_masks(make_structure(uniform_language(2), 2, {"R": [(1, 2), (2, 1)]})) is not None


def test_form_repr_does_not_depend_on_insertion_order():
    """A form's frozensets are filled in sorted order, so the same structure
    given in two tuple orders has one form repr, on both refinement paths.
    The two inputs are equal, so each is canonized past the cache."""
    uncached = canonical_data.__wrapped__
    rng = random.Random(20242)
    inputs_differ = 0
    for _ in range(200):
        n = rng.randint(4, 9)
        edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        forward = graph(n, edges)
        backward = graph(n, edges[::-1])
        inputs_differ += repr(forward) != repr(backward)
        assert repr(uncached(forward).form) == repr(uncached(backward).form) == repr(canonical_data(backward).form)
        s = _random_mixed(rng)
        shuffled = make_structure(
            MIXED, s.n,
            {name: sorted(ts, reverse=True) for (name, _), ts in zip(MIXED.relations, s.rel_tuples)},
            dict(zip(MIXED.constants, s.const_vals)),
        )
        inputs_differ += repr(s) != repr(shuffled)
        assert repr(uncached(s).form) == repr(uncached(shuffled).form)
    assert inputs_differ > 20  # many inputs iterate in different orders


def _split_test_graphs(seed: int):
    """Twenty seeded graphs at each n = 2..12: random ones of several
    densities, and from n = 4 on circulants, whose regularity keeps the
    cells large."""
    rng = random.Random(seed)
    for n in range(2, 13):
        for i in range(20):
            if i % 5 == 4 and n >= 4:
                jumps = rng.sample(range(1, n // 2 + 1), rng.randint(1, min(2, n // 2)))
                yield graph(n, [(x, (x + j - 1) % n + 1) for x in range(1, n + 1) for j in jumps])
                continue
            p = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
            yield graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])


def test_first_round_split_is_one_full_round():
    """Individualizing v in an equitable partition and splitting every cell
    into v's non-neighbours, then its neighbours, gives exactly one full
    ``_mask_round``, for every vertex of every non-singleton cell of the
    equitable partitions at the root and one and two levels below it; the
    degree ranking is the full round from the unit partition."""
    checked = 0
    for g in _split_test_graphs(20251):
        n = g.n
        adj = _graph_masks(g)
        refine, descend, _, _ = _mask_steps(g, adj)
        unit = [-1] + [0] * n
        assert _mask_unit_round(adj) == _mask_round(adj, unit, 1), sorted(g.rel_tuples[0])
        level = [refine(unit, 1)]
        for depth in range(3):
            below = []
            for col, ncells in level:
                assert _mask_round(adj, col, ncells) == (col, ncells)  # equitable
                for v in range(1, n + 1):
                    if col.count(col[v]) == 1:
                        continue
                    individualized = _individualize(col, v)
                    split = _mask_individualize(adj, col, ncells, v)
                    assert split == _mask_round(adj, individualized, ncells + 1), (sorted(g.rel_tuples[0]), col, v)
                    child = descend(col, ncells, v)
                    assert child == refine(individualized, ncells + 1)
                    below.append(child)
                    checked += 1
            level = below
    assert checked > 17000

"""Golden canonical labeling: one digest over a fixed, seeded corpus.

Any change to refinement, search order, pruning or leaf encoding that
moves a relabeling, a generator, a group order or a form changes the
digest.  The corpus covers graphs, a mixed-arity language with constants
and 3-uniform hypergraphs.
"""

import hashlib
import itertools
import json
import math
import random

import pytest
from conftest import all_graphs
from hspeed import canon
from hspeed.canon import (
    _bits,
    _graph_masks,
    _mask_individualize,
    _mask_round,
    _mask_steps,
    _mask_unit_round,
    _search,
    _signature_steps,
    canonical_data,
)
from hspeed.corpus import all_graphs_property
from hspeed.property import PropertySpec, generate_levels
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
        general = _search(g, _signature_steps)
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


def _individualized(cells: list[int], v: int) -> list[int]:
    """``cells`` with v split off its cell and placed alone just after it."""
    i = next(i for i, m in enumerate(cells) if m >> v & 1)
    return cells[:i] + [cells[i] ^ 1 << v, 1 << v] + cells[i + 1:]


def _refined(adj: list[int], cells: list[int]) -> list[int]:
    """Full mask rounds until no cell splits."""
    while True:
        split = _mask_round(adj, cells)
        if split == cells:
            return cells
        cells = split


def test_first_round_split_is_one_full_round():
    """Individualizing v in an equitable partition and splitting every cell
    into v's non-neighbours, then its neighbours, gives exactly one full
    ``_mask_round``, for every vertex of every non-singleton cell of the
    equitable partitions at the root and one and two levels below it; the
    degree ranking is the full round from the unit partition, and the root
    has the signature refinement's ranks."""
    checked = 0
    for g in _split_test_graphs(20251):
        n = g.n
        adj = _graph_masks(g)
        root, descend, *_ = _mask_steps(g, adj)
        unit = [(1 << n + 1) - 2]
        by_degree: dict[int, int] = {}
        for x in range(1, n + 1):
            d = bin(adj[x]).count("1")
            by_degree[d] = by_degree.get(d, 0) | 1 << x
        # no neighbours first, then decreasing degree
        ranking = [by_degree[d] for d in sorted(by_degree, key=lambda d: (d > 0, -d))]
        assert _mask_unit_round(adj) == _mask_round(adj, unit) == ranking, sorted(g.rel_tuples[0])
        assert root == _refined(adj, unit) == _signature_steps(g)[0]
        level = [root]
        for depth in range(3):
            below = []
            for cells in level:
                assert _mask_round(adj, cells) == cells  # equitable
                col = [-1] * (n + 1)
                for c, m in enumerate(cells):
                    for x in _bits(m):
                        col[x] = c
                for v in range(1, n + 1):
                    if col.count(col[v]) == 1:
                        continue
                    individualized = _individualized(cells, v)
                    split = _mask_individualize(adj, cells, v)
                    assert split == _mask_round(adj, individualized), (sorted(g.rel_tuples[0]), cells, v)
                    child = descend(cells, v)
                    assert child == _refined(adj, individualized)
                    below.append(child)
                    checked += 1
            level = below
    assert checked > 17000


def _relabeled(g, seed: int):
    """``g`` under a seeded random permutation of its elements."""
    perm = list(range(1, g.n + 1))
    random.Random(seed).shuffle(perm)
    return graph(g.n, [(perm[a - 1], perm[b - 1]) for a, b in g.rel_tuples[0] if a < b])


def _paley(q: int):
    squares = {x * x % q for x in range(1, q)}
    return graph(q, [(a + 1, b + 1) for a, b in itertools.combinations(range(q), 2) if (b - a) % q in squares])


def _circulant(n: int, jumps):
    return graph(n, [(x + 1, (x + j) % n + 1) for x in range(n) for j in jumps])


def _multipartite(*sizes: int):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return graph(n, [(a + 1, b + 1) for a, b in itertools.combinations(range(n), 2) if part[a] != part[b]])


def _complement(g):
    edges = g.rel_tuples[0]
    return graph(g.n, [e for e in itertools.combinations(range(1, g.n + 1), 2) if e not in edges])


def _symmetric_graphs():
    """Named graphs with large automorphism groups on 10..17 vertices, with
    |Aut| where it is known in closed form (None otherwise)."""
    f = math.factorial
    kneser = list(itertools.combinations(range(5), 2))
    yield "Petersen", graph(10, [(a + 1, b + 1) for a, b in itertools.combinations(range(10), 2)
                                 if not set(kneser[a]) & set(kneser[b])]), 120
    yield "Paley(13)", _paley(13), 13 * 6
    yield "Paley(17)", _paley(17), 17 * 8
    yield "Q4", graph(16, [(a + 1, b + 1) for a, b in itertools.combinations(range(16), 2)
                           if bin(a ^ b).count("1") == 1]), 2 ** 4 * f(4)
    yield "C16", _circulant(16, [1]), 32
    yield "C16(1,4)", _circulant(16, [1, 4]), None
    yield "4K4", _complement(_multipartite(4, 4, 4, 4)), f(4) ** 4 * f(4)
    yield "5K3", _complement(_multipartite(3, 3, 3, 3, 3)), f(3) ** 5 * f(5)
    yield "K(2,2,2,2,2)", _multipartite(2, 2, 2, 2, 2), 2 ** 5 * f(5)
    yield "K(3,3,3,3)", _multipartite(3, 3, 3, 3), f(3) ** 4 * f(4)
    yield "K(5,5,5)", _multipartite(5, 5, 5), f(5) ** 3 * f(3)
    yield "K(2,3,4,5)", _multipartite(2, 3, 4, 5), f(2) * f(3) * f(4) * f(5)


def test_mask_path_matches_signature_path_on_symmetric_graphs():
    """Deep searches: the mask path and the signature path give the same
    relabeling, generators, group order and form on named symmetric graphs
    and their complements, each also under seeded relabelings; every copy
    has one form and the known |Aut|."""
    for name, g, aut in _symmetric_graphs():
        for h, label in ((g, name), (_complement(g), f"complement of {name}")):
            forms = set()
            for seed in (None, 1, 2, 3):
                copy = h if seed is None else _relabeled(h, seed)
                assert _graph_masks(copy) is not None
                fast = _search(copy)
                general = _search(copy, _signature_steps)
                assert fast == general, (label, seed)
                assert repr(fast[1]) == repr(general[1]), (label, seed)
                if aut is not None:
                    assert fast[3] == aut, (label, seed)
                forms.add(fast[1])
            assert len(forms) == 1, label


def _threshold(rng: random.Random, n: int):
    """A seeded threshold graph: each new vertex comes isolated or dominating."""
    edges = []
    for v in range(2, n + 1):
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(1, v)]
    return graph(n, edges)


def _blow_up(base_n: int, base_edges, sizes, cliques):
    """The graph with base vertex i replaced by ``sizes[i]`` twins, a clique
    where ``cliques[i]`` holds and an independent set otherwise."""
    blob = [i for i, size in enumerate(sizes) for _ in range(size)]
    linked = {frozenset((a - 1, b - 1)) for a, b in base_edges}
    n = len(blob)
    return graph(n, [(a + 1, b + 1) for a, b in itertools.combinations(range(n), 2)
                     if (blob[a] == blob[b] and cliques[blob[a]])
                     or frozenset((blob[a], blob[b])) in linked])


def _twin_rich_graphs():
    """Graphs on up to 12 vertices made of twins: complete and empty graphs,
    stars, complete multipartite graphs (their complements are disjoint
    unions of cliques), seeded threshold graphs, and blow-ups of small
    graphs with each vertex replaced by a clique or an independent set;
    those of P5 and C6 have independent cells that are not twin classes."""
    for n in (1, 2, 3, 6, 12):
        yield f"K{n}", _complement(graph(n, []))
    for n in (3, 5, 12):
        yield f"K1,{n - 1}", graph(n, [(1, v) for v in range(2, n + 1)])
    for sizes in ((2, 2), (1, 1, 2), (2, 3), (3, 3, 3), (1, 2, 3, 4), (2, 2, 2, 2, 2, 2), (4, 4, 4), (1, 3, 3, 5)):
        yield f"K{sizes}", _multipartite(*sizes)
    rng = random.Random(20261)
    for n in (4, 6, 8, 10, 12):
        yield f"threshold {n}", _threshold(rng, n)
    bases = [
        ("P3", 3, [(1, 2), (2, 3)]),
        ("P4", 4, [(1, 2), (2, 3), (3, 4)]),
        ("C4", 4, [(1, 2), (2, 3), (3, 4), (4, 1)]),
        ("C5", 5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
        ("P5", 5, [(1, 2), (2, 3), (3, 4), (4, 5)]),
        ("C6", 6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]),
        ("paw", 4, [(1, 2), (2, 3), (3, 1), (3, 4)]),
        ("K1,3", 4, [(1, 2), (1, 3), (1, 4)]),
    ]
    for name, base_n, base_edges in bases:
        for equal in (True, False):
            for _ in range(2):
                sizes = [2] * base_n if equal else [rng.randint(1, 12 // base_n) for _ in range(base_n)]
                cliques = [rng.random() < 0.5 for _ in range(base_n)]
                yield f"{name}{sizes}{cliques}", _blow_up(base_n, base_edges, sizes, cliques)


def test_twin_cells_emulate_the_search(monkeypatch):
    """The search with the twin-cell shortcut gives the walk's relabeling,
    generators in order, group order and form on twin-rich graphs and their
    complements, each also under seeded relabelings; some take the shortcut
    at the root and some only below it."""
    calls: list[bool] = []
    twin_cells = canon._twin_cells

    def logged(adj, cells):
        calls.append(twin_cells(adj, cells))
        return calls[-1]

    at_root = below_root = 0
    for name, g in _twin_rich_graphs():
        for h, label in ((g, name), (_complement(g), f"complement of {name}")):
            for seed in (None, 1, 2, 3):
                copy = h if seed is None else _relabeled(h, seed)
                calls.clear()
                monkeypatch.setattr(canon, "_twin_cells", logged)
                fast = _search(copy)
                monkeypatch.setattr(canon, "_twin_cells", lambda adj, cells: False)
                walked = _search(copy)
                assert fast == walked, (label, seed)
                assert repr(fast[1]) == repr(walked[1]), (label, seed)
                if calls[:1] == [True]:
                    at_root += 1
                elif True in calls:
                    below_root += 1
    assert at_root > 50 and below_root > 50, (at_root, below_root)


def _search_tree(monkeypatch, steps_name: str, spec, n_max: int):
    """The levels of ``generate_levels(spec, n_max)``, which canonizes every
    kept child, with generation canonizing past the cache and the step set
    ``canon.<steps_name>`` counted: its initial refinements,
    individualize-and-refine steps and leaves, and the generators found."""
    counts = dict(refinements=0, descents=0, leaves=0, generators=0)
    steps = getattr(canon, steps_name)

    def counted_steps(*args):
        counts["refinements"] += 1
        root, descend, encode, relabel, twins = steps(*args)

        def counted_descend(cells, v):
            counts["descents"] += 1
            return descend(cells, v)

        def counted_encode(col):
            counts["leaves"] += 1
            return encode(col)

        return root, counted_descend, counted_encode, relabel, twins

    def uncached(struct):
        data = canonical_data.__wrapped__(struct)
        counts["generators"] += len(data.aut_generators)
        return data

    monkeypatch.setattr(canon, steps_name, counted_steps)
    monkeypatch.setattr("hspeed.property.canonical_data", uncached)
    return list(generate_levels(spec, n_max)), counts


def test_search_tree_of_all_graphs_at_seven(monkeypatch):
    """The canonizations of all graphs to n=7 run 1,300 initial refinements,
    1,375 individualize-and-refine steps and 1,942 leaves, and find 2,253
    generators: a pruning change shows as a count.  A subtree below twin
    cells counts one leaf and no step."""
    levels, counts = _search_tree(monkeypatch, "_mask_steps", all_graphs_property(), 7)
    assert sum(math.factorial(7) // aut for _, aut in levels[-1]) == 2 ** 21
    assert counts == dict(refinements=1300, descents=1375, leaves=1942, generators=2253)


@pytest.mark.parametrize(
    "spec, n_max, classes, tree",
    [
        (PropertySpec(uniform_language(3), "uniform"), 6, [1, 1, 2, 5, 34, 2136], (2884, 4968, 5024, 1993)),
        (PropertySpec(Language((("U", 1), ("R", 2)))), 3, [4, 36, 752], (798, 304, 946, 148)),
    ],
    ids=["3-graphs", "unary-binary"],
)
def test_search_tree_of_the_signature_path(monkeypatch, spec, n_max, classes, tree):
    """The signature path's search tree, counted as the graph pin counts the
    mask path's: all 3-graphs to n=6 and the structures over U/1 + R/2
    (base none) to n=3, none of which is a graph."""
    levels, counts = _search_tree(monkeypatch, "_signature_steps", spec, n_max)
    assert [len(level) for level in levels] == classes
    assert counts == dict(zip(("refinements", "descents", "leaves", "generators"), tree))

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
from hspeed.canon import canonical_data
from hspeed.structures import Language, graph, make_structure, structure_to_json, uniform_language

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

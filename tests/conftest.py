"""Shared brute-force oracles and corpora for the test suite.

Oracles here stay independent of the code paths they check: isomorphism
by permutation scan, densities by subset loops, counts by enumeration.
"""

import itertools
import random

import pytest

from hspeed.structures import Structure, apply_bijection, graph, make_structure


def brute_isomorphic(a: Structure, b: Structure) -> bool:
    """Isomorphism by scanning all bijections and comparing images directly."""
    if a.n != b.n:
        return False
    for perm in itertools.permutations(range(1, a.n + 1)):
        if apply_bijection(a, dict(zip(range(1, a.n + 1), perm))) == b:
            return True
    return False


def brute_automorphism_count(struct: Structure) -> int:
    count = 0
    for perm in itertools.permutations(range(1, struct.n + 1)):
        if apply_bijection(struct, dict(zip(range(1, struct.n + 1), perm))) == struct:
            count += 1
    return count


def brute_group_order(generators, n: int) -> int:
    """Order of the group the permutations generate, by breadth-first closure."""
    identity = tuple(range(1, n + 1))
    seen = {identity}
    queue = [identity]
    for p in queue:
        for g in generators:
            q = tuple(g[x - 1] for x in p)
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return len(seen)


def brute_codes(slots, structures) -> set[int]:
    """The codes over ``slots`` (see ``hspeed.property._slots``) of every
    labeled copy of ``structures``, read off all m! orderings of each."""
    return {
        sum(bit for ri, read, bit in slots if read(xs) in f.rel_tuples[ri])
        for f in structures
        for xs in itertools.permutations(f.elements())
    }


def all_graphs(n: int):
    """Every labeled simple graph on [n]."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        yield graph(n, [p for p, b in zip(pairs, bits) if b])


def degree_sequence(struct: Structure) -> list[int]:
    degs = {e: 0 for e in struct.elements()}
    for a, b in struct.tuples_of("E"):
        if a < b:
            degs[a] += 1
            degs[b] += 1
    return sorted(degs.values())


def random_structure(seed: int, n: int, arity: int = 2, p: float = 0.4) -> Structure:
    from hspeed.structures import uniform_language

    rng = random.Random(seed)
    lang = uniform_language(arity)
    tuples = [
        t for t in itertools.product(range(1, n + 1), repeat=arity) if rng.random() < p
    ]
    return make_structure(lang, n, {"R": tuples})


@pytest.fixture
def structured_graphs():
    """Small named graphs exercised across the suite."""
    from hspeed.corpus import clique, complete_bipartite, cycle, matching, path

    return {
        "K3": clique(3),
        "K4": clique(4),
        "C4": cycle(4),
        "C5": cycle(5),
        "C6": cycle(6),
        "P4": path(4),
        "M3": matching(3),
        "M4": matching(4),
        "K33": complete_bipartite(3, 3),
        "K13": graph(4, [(1, 2), (1, 3), (1, 4)]),
        "star5": graph(6, [(1, i) for i in range(2, 7)]),
    }

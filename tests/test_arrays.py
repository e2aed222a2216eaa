import itertools

import pytest

from conftest import all_graphs
from hspeed.arrays import (
    bounded_array_probe,
    is_k_mutually_algebraic,
    n_array_count,
    supports_m_array,
    type_space,
)
from hspeed.corpus import (
    all_graphs_property,
    bipartite_property,
    complete_bipartite,
    edgeless_property,
    halfgraph_blowup,
    matching,
    matching_property,
)
from hspeed.errors import BadSplit
from hspeed.property import generate_levels, generate_members
from hspeed.structures import Structure, graph, make_structure, uniform_language


def direct_completion_counts(struct: Structure, rel: str, k: int) -> bool:
    """Oracle for mutual algebraicity: scan every split and assignment."""
    arity = struct.language.rel_arity(rel)
    tuples = struct.tuples_of(rel)
    for size in range(1, arity):
        for xs in itertools.combinations(range(arity), size):
            ys = tuple(p for p in range(arity) if p not in xs)
            for assignment in itertools.product(struct.elements(), repeat=size):
                count = 0
                for completion in itertools.product(struct.elements(), repeat=len(ys)):
                    slot = [0] * arity
                    for p, v in zip(xs, assignment):
                        slot[p] = v
                    for p, v in zip(ys, completion):
                        slot[p] = v
                    if tuple(slot) in tuples:
                        count += 1
                if count >= k:
                    return False
    return True


class TestTypeSpace:
    def test_edgeless_two_types(self):
        types = type_space(graph(4, []), "E", [0], [1])
        assert len(types) == 2  # x = 1 versus x != 1, both all-negative

    def test_star_leaf_type(self):
        star = graph(4, [(1, 2), (1, 3), (1, 4)])
        types = type_space(star, "E", [0], [1])
        assert sorted(len(t.realizations) for t in types) == [1, 3]
        leaf = max(types, key=lambda t: len(t.realizations))
        assert leaf.realizations == frozenset({(2,), (3,), (4,)})

    def test_empty_parameter_set(self):
        types = type_space(graph(3, []), "E", [0], [])
        assert len(types) == 1

    def test_partition_property(self):
        # realization sets partition the x-tuple space
        import random

        corpus = list(all_graphs(4)) + [matching(3), complete_bipartite(2, 3)]
        rng = random.Random(0)
        for seed in range(6):
            n = rng.choice([5, 6])
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
            corpus.append(graph(n, edges))
        for m in corpus:
            for xs in ([0], [1]):
                for size in range(0, 4):
                    for A in itertools.combinations(m.elements(), min(size, m.n)):
                        types = type_space(m, "E", xs, A)
                        seen: set = set()
                        for tp in types:
                            assert not (seen & tp.realizations)
                            seen |= tp.realizations
                        assert len(seen) == m.n

    def test_bad_split(self):
        with pytest.raises(BadSplit):
            type_space(graph(3, []), "E", [0, 1], [1])
        with pytest.raises(BadSplit):
            type_space(graph(3, []), "E", [], [1])


class TestArraySupport:
    def test_star_leaf_arrays(self):
        star = graph(4, [(1, 2), (1, 3), (1, 4)])
        leaf = max(type_space(star, "E", [0], [1]), key=lambda t: len(t.realizations))
        assert supports_m_array(leaf, 3)[0]
        assert not supports_m_array(leaf, 4)[0]
        assert supports_m_array(leaf, 1)[0]

    def test_monotone_in_m(self):
        star = graph(5, [(1, i) for i in range(2, 6)])
        for tp in type_space(star, "E", [0], [1, 2]):
            supported = [m for m in range(1, 6) if supports_m_array(tp, m)[0]]
            assert supported == list(range(1, len(supported) + 1))

    def test_witness_disjoint(self):
        b3 = halfgraph_blowup(3)
        for tp in type_space(b3, "E", [0], [1, 2, 3]):
            ok, witness = supports_m_array(tp, 3)
            if ok:
                used: set = set()
                for t in witness:
                    assert not (used & set(t))
                    used |= set(t)

    def test_overlapping_tuples_need_search(self):
        # realizations (1,2), (1,3), (2,4): taking the first blocks both
        # others, so only exact search finds the 2-array (1,3), (2,4)
        lang = uniform_language(3)
        m = make_structure(lang, 5, {"R": [(1, 2, 5), (1, 3, 5), (2, 4, 5)]})
        types = type_space(m, "R", [0, 1], [5])
        positive = max(types, key=lambda t: sum(t.r_decisions))
        assert positive.realizations == frozenset({(1, 2), (1, 3), (2, 4)})
        ok, witness = supports_m_array(positive, 2)
        assert ok
        assert set(witness) == {(1, 3), (2, 4)}
        assert not supports_m_array(positive, 3)[0]


class TestArrayCounts:
    def test_matching_all_endpoints(self):
        # every type over one-endpoint-per-edge parameters is a singleton,
        # so nothing supports a 2-array (types carry x=a decisions)
        m4 = matching(4)
        types = type_space(m4, "E", [0], [1, 3, 5, 7])
        assert all(len(t.realizations) == 1 for t in types)
        assert n_array_count(m4, "E", [0], 2, [1, 3, 5, 7]) == 0

    def test_matching_two_endpoints(self):
        # with half the edges untouched, the all-negative type has 4 realizations
        m4 = matching(4)
        assert n_array_count(m4, "E", [0], 2, [1, 3]) == 1

    def test_halfgraph_blowup(self):
        b4 = halfgraph_blowup(4)
        assert b4.n == 20
        assert n_array_count(b4, "E", [0], 4, [1, 2, 3, 4]) == 4

    def test_edgeless(self):
        assert n_array_count(graph(5, []), "E", [0], 2, [1]) == 1

    def test_restriction_surjective(self):
        # types over A restrict onto types over A' (the partition refines)
        b3 = halfgraph_blowup(3)
        A = (1, 2, 3)
        for size in (0, 1, 2):
            for Ap in itertools.combinations(A, size):
                coarse = type_space(b3, "E", [0], Ap)
                fine = type_space(b3, "E", [0], A)
                for tp in coarse:
                    cover = [f for f in fine if f.realizations <= tp.realizations]
                    assert frozenset().union(*(f.realizations for f in cover)) == tp.realizations


class TestMutualAlgebraicity:
    def test_matching(self):
        assert is_k_mutually_algebraic(matching(4), "E", 2).holds

    def test_complete_bipartite_violation(self):
        verdict = is_k_mutually_algebraic(complete_bipartite(3, 3), "E", 3)
        assert not verdict.holds
        assert verdict.violation[2] >= 3

    def test_empty_relation(self):
        assert is_k_mutually_algebraic(graph(3, []), "E", 1).holds

    def test_agrees_with_oracle_exhaustively(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                for k in range(1, 5):
                    assert is_k_mutually_algebraic(g, "E", k).holds == direct_completion_counts(
                        g, "E", k
                    )

    def test_ternary_relation(self):
        lang = uniform_language(3)
        m = make_structure(lang, 4, {"R": [(1, 2, 3), (1, 2, 4)]})
        assert is_k_mutually_algebraic(m, "R", 3).holds
        assert not is_k_mutually_algebraic(m, "R", 2).holds  # (1,2;.) has 2 completions

    def test_totally_bounded_members_are_ma(self):
        for member in generate_members(matching_property(), 6):
            assert is_k_mutually_algebraic(member, "E", 2).holds


class TestProbe:
    def test_matching_flat(self):
        table = bounded_array_probe(matching_property(), "E", [0], 2, 8, seed=11)
        values = [r.max_count for r in table.rows]
        assert values[0] == 0  # a 2-array needs two elements
        assert len(set(values[1:])) == 1  # constant afterwards

    def test_bipartite_grows(self):
        table = bounded_array_probe(bipartite_property(), "E", [0], 2, 7, seed=11)
        values = [r.max_count for r in table.rows]
        assert values[-1] > values[1]
        assert values == sorted(values)

    def test_edgeless_constant_one(self):
        table = bounded_array_probe(edgeless_property(), "E", [0], 2, 6, seed=3)
        assert [r.max_count for r in table.rows][1:] == [1] * 5

    def test_hill_climbing_reaches_the_brute_maximum(self):
        # at n = 5 no parameter set of size <= 3 reaches the maximum, so the
        # recorded witness comes from the hill climb over 4-sets
        spec = all_graphs_property()
        table = bounded_array_probe(spec, "E", [0], 1, 5, a_max=5)
        for row, level in zip(table.rows, generate_levels(spec, 5)):
            brute = max(n_array_count(rep, "E", [0], 1, A) for rep, _ in level
                        for size in range(rep.n + 1) for A in itertools.combinations(rep.elements(), size))
            assert row.max_count == brute, row.n
            assert n_array_count(row.witness, "E", [0], 1, row.witness_parameters) == brute, row.n
        assert len(table.rows) == 5 and len(table.rows[-1].witness_parameters) == 4

    def test_reproducible(self):
        a = bounded_array_probe(matching_property(), "E", [0], 2, 6, seed=5)
        b = bounded_array_probe(matching_property(), "E", [0], 2, 6, seed=5)
        assert [r.max_count for r in a.rows] == [r.max_count for r in b.rows]
        assert [r.witness_parameters for r in a.rows] == [r.witness_parameters for r in b.rows]

    # rows of the seeded probe, recorded so that a change to the probe's search
    # shows which rows it moves; its draws, and so every row, are deterministic
    MATCHING_IDS = ("534edbd1", "35e1f583", "001402d6", "a9000d39", "c41a009c", "1531b7b5", "31bb701b")

    def test_benchmark_argv_rows_are_pinned(self):
        # arrays probe --property matching --rel E --split 1 --m 2 --nmax 7
        expected = [(0, "", ())] + [(1, wid, ()) for wid in self.MATCHING_IDS[1:]]
        for seed in range(8):
            table = bounded_array_probe(matching_property(), "E", [0], 2, 7, seed=seed)
            assert [(r.max_count, r.witness_id(), r.witness_parameters) for r in table.rows] == expected, seed

    def test_hill_climb_rows_are_pinned(self):
        # at m = 1 the witness parameter sets of 4 and more come from the seeded hill climb
        climbed = {
            0: [(1, 2, 3, 4), (2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 7)],
            1: [(1, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 5, 6, 7)],
            2: [(2, 3, 4, 5), (2, 3, 4, 5, 6), (1, 3, 4, 5, 6, 7)],
            3: [(1, 3, 4, 5), (1, 2, 4, 5, 6), (1, 2, 3, 5, 6, 7)],
            4: [(1, 2, 4, 5), (1, 3, 4, 5, 6), (1, 2, 3, 5, 6, 7)],
            5: [(1, 2, 3, 5), (1, 2, 3, 5, 6), (1, 2, 3, 5, 6, 7)],
            6: [(1, 2, 4, 5), (1, 3, 4, 5, 6), (1, 3, 4, 5, 6, 7)],
            7: [(1, 3, 4, 5), (1, 2, 3, 4, 5), (1, 2, 3, 5, 6, 7)],
        }
        for seed, tail in climbed.items():
            table = bounded_array_probe(matching_property(), "E", [0], 1, 7, seed=seed)
            parameters = [(), (1,), (1, 2), (1, 2, 3)] + tail
            expected = [(n, n, wid, A) for n, wid, A in zip(range(1, 8), self.MATCHING_IDS, parameters)]
            assert [(r.n, r.max_count, r.witness_id(), r.witness_parameters) for r in table.rows] == expected, seed

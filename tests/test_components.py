import itertools
import math

import pytest

from hspeed.components import (
    component_census,
    component_lowerbound_members,
    components_of,
    neighborhood,
    partitions_into_blocks,
    stirling_chain_holds,
)
from hspeed.corpus import all_graphs_property, disjoint_triangles, edgeless_property, matching, matching_property
from hspeed.errors import InsufficientComponents, OutOfRange
from hspeed.property import generate_members
from hspeed.structures import graph, make_structure, uniform_language


def brute_block_partitions(n: int, k: int) -> int:
    """Oracle: enumerate all partitions of [k*floor(n/k)] into size-k blocks."""
    ell = n // k
    m = k * ell
    elements = list(range(1, m + 1))

    def rec(remaining: frozenset) -> int:
        if not remaining:
            return 1
        first = min(remaining)
        rest = sorted(remaining - {first})
        total = 0
        for mates in itertools.combinations(rest, k - 1):
            total += rec(remaining - {first} - set(mates))
        return total

    return rec(frozenset(elements))


class TestComponents:
    def test_two_triangles(self):
        report = components_of(disjoint_triangles(2))
        assert [sorted(c) for c in report.components] == [[1, 2, 3], [4, 5, 6]]
        assert report.size_histogram == {3: 2}

    def test_hyperedge_plus_isolated(self):
        m = make_structure(uniform_language(3), 4, {"R": [(1, 2, 3)]})
        report = components_of(m)
        assert {frozenset(c) for c in report.components} == {frozenset({1, 2, 3}), frozenset({4})}

    def test_shared_vertex(self):
        report = components_of(graph(3, [(1, 2), (2, 3)]))
        assert report.components == (frozenset({1, 2, 3}),)

    def test_connectivity_and_maximality(self):
        m = graph(7, [(1, 2), (2, 3), (5, 6)])
        report = components_of(m)
        adj = {e: set() for e in m.elements()}
        for a, b in m.tuples_of("E"):
            adj[a].add(b)
            adj[b].add(a)
        cover = set()
        for comp in report.components:
            assert not cover & comp
            cover |= comp
            # maximal: no edge leaves the component
            for a, b in m.tuples_of("E"):
                assert (a in comp) == (b in comp) or not ({a, b} & comp)
            # connected: BFS inside the component reaches every member
            start = min(comp)
            seen = {start}
            queue = [start]
            while queue:
                x = queue.pop()
                for y in adj[x] & comp:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            assert seen == set(comp)
        assert cover == set(m.elements())

    def test_repeated_entry_support(self):
        m = make_structure(uniform_language(2), 3, {"R": [(2, 2)]})
        report = components_of(m)
        assert report.size_histogram == {1: 3}


class TestNeighborhood:
    def test_triangle(self):
        assert neighborhood(graph(3, [(1, 2), (2, 3), (1, 3)]), 1) == frozenset({1, 2, 3})

    def test_isolated(self):
        assert neighborhood(graph(2, []), 1) == frozenset()

    def test_matching(self):
        assert neighborhood(graph(4, [(1, 2), (3, 4)]), 3) == frozenset({3, 4})

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            neighborhood(graph(2, []), 9)

    def test_bounded_by_arity_times_bound(self):
        # on totally-2-bounded members: |N(a)| <= r * k * |L| = 2 * 2 * 1
        for member in generate_members(matching_property(), 6):
            for a in member.elements():
                assert len(neighborhood(member, a)) <= 4


class TestCensus:
    def test_matching(self):
        census = component_census(matching_property(), 8)
        assert census.max_multiplicity == {1: 8, 2: 4}
        assert census.larger_exists == {1: True, 2: False}

    def test_edgeless(self):
        census = component_census(edgeless_property(), 8)
        assert census.max_multiplicity == {1: 8}

    def test_all_graphs_all_sizes(self):
        census = component_census(all_graphs_property(), 6)
        assert set(census.max_multiplicity) == set(range(1, 7))


class TestBlockPartitions:
    def test_examples(self):
        assert partitions_into_blocks(6, 2).count == 15 == brute_block_partitions(6, 2)
        assert partitions_into_blocks(6, 3).count == 10 == math.comb(6, 3) // 2
        assert partitions_into_blocks(5, 5).count == 1

    def test_matches_brute_force_oracle(self):
        for n in range(1, 11):
            for k in range(1, n + 1):
                assert partitions_into_blocks(n, k).count == brute_block_partitions(n, k), (n, k)

    def test_closed_form_large(self):
        for n in range(11, 41, 7):
            for k in (2, 3, 4):
                ell = n // k
                m = k * ell
                expected = math.factorial(m) // (math.factorial(k) ** ell * math.factorial(ell))
                assert partitions_into_blocks(n, k).count == expected

    def test_reference_bound_value(self):
        ref = partitions_into_blocks(6, 2).reference_lower_bound
        assert ref == math.isqrt(6 ** 6)  # floor of 6^3 exactly
        assert ref == 216

    def test_stirling_chain(self):
        for n in range(10, 41):
            for k in (2, 3, 4):
                assert stirling_chain_holds(n, k), (n, k)

    def test_precondition(self):
        with pytest.raises(OutOfRange):
            partitions_into_blocks(2, 3)


class TestLowerBoundMembers:
    def test_matchings(self):
        result = component_lowerbound_members(matching(4), 2, 6, spec=matching_property())
        assert result.count == 15
        assert len(set(result.members)) == 15
        assert result.count >= result.block_reference == 15

    def test_triangles(self):
        result = component_lowerbound_members(disjoint_triangles(3), 3, 6)
        assert result.count == 10

    def test_singletons(self):
        result = component_lowerbound_members(graph(7, []), 1, 6)
        assert result.count == 1

    def test_insufficient(self):
        with pytest.raises(InsufficientComponents):
            component_lowerbound_members(matching(3), 2, 6)

    def test_members_in_property(self):
        spec = matching_property()
        result = component_lowerbound_members(matching(4), 2, 5, spec=spec)
        for member in result.members:
            assert spec.member(member)
        assert result.count == 15  # 5!/(2!^2 * 2!) = 15 layouts of M_2 plus a point

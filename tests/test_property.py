import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import all_graphs, brute_codes, brute_group_order
from hspeed.arrays import is_totally_bounded_upto
from hspeed.canon import canonical_data, orbit
from hspeed.corpus import (
    BUILTIN_PROPERTIES,
    all_graphs_property,
    asymmetric_two_class_template,
    bipartite_property,
    clique_plus_singleton_template,
    clique,
    complete_bipartite_property,
    cycle,
    edgeless_property,
    inf_clique_template,
    matching_property,
    path,
    symmetric_bipartite_template,
)
from hspeed.errors import BudgetExceeded, TooFewRows
from hspeed.property import (
    BASE_GRAPH,
    BASE_UNIFORM,
    Consistent,
    PropertySpec,
    Refuted,
    default_budget,
    forbid,
    generate_levels,
    generate_members,
    growth_diagnostics,
    is_basic_upto,
    SpeedRow,
    SpeedTable,
    speed,
    _conjugate,
    _extensions,
    _sort_key,
)
from hspeed.structures import (
    GRAPH,
    Language,
    Structure,
    apply_bijection,
    graph,
    induced_substructure,
    make_structure,
    uniform_language,
)

P3, K3, K2 = path(3), clique(3), clique(2)


def involution_numbers(n_max: int) -> list[int]:
    """T(n) = T(n-1) + (n-1) T(n-2): partial matchings on [n]."""
    vals = [1, 1]
    for n in range(2, n_max + 1):
        vals.append(vals[n - 1] + (n - 1) * vals[n - 2])
    return vals[1:]


def brute_labeled_count(spec: PropertySpec, n: int) -> int:
    return sum(1 for g in all_graphs(n) if spec.member(g))


def incidence_invariant(struct, x: int) -> tuple[int, ...]:
    """Per (relation, position): how many tuples hold x at that position."""
    return tuple(
        sum(1 for t in tuples if t[p] == x)
        for (_, arity), tuples in zip(struct.language.relations, struct.rel_tuples)
        for p in range(arity)
    )


def refined_invariant(struct, x: int) -> tuple:
    """The deletion rule's invariant: the incidence invariant of x, then the
    sorted incidence invariants of the elements sharing a tuple with x."""
    near = {y for ts in struct.rel_tuples for t in ts if x in t for y in t} - {x}
    return incidence_invariant(struct, x), sorted(incidence_invariant(struct, y) for y in near)


def refined_invariants(struct) -> list[tuple]:
    """``refined_invariant`` of every element, from one pass over the tuples."""
    counts = {x: [] for x in struct.elements()}
    near = {x: set() for x in struct.elements()}
    for (_, arity), ts in zip(struct.language.relations, struct.rel_tuples):
        for x in counts:
            counts[x] += [0] * arity
        for t in ts:
            for p, x in enumerate(t):
                counts[x][p - arity] += 1
                near[x].update(t)
    incidence = {x: tuple(c) for x, c in counts.items()}
    return [(incidence[x], sorted(incidence[y] for y in near[x] - {x})) for x in struct.elements()]


def extension_units(lang: Language, base: str, v: int) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The units of an extension set of a parent on [v - 1] by v: the
    r-sets through v with all their orderings for the graph and uniform
    bases, single tuples through v for base none."""
    if base == "none":
        return [
            [(ri, t)]
            for ri, (_, arity) in enumerate(lang.relations)
            for t in itertools.product(range(1, v + 1), repeat=arity)
            if v in t
        ]
    arity = lang.relations[0][1]
    return [[(0, p) for p in itertools.permutations(s + (v,))] for s in itertools.combinations(range(1, v), arity - 1)]


def extend(parent: Structure, units, mask: int) -> Structure:
    """``parent`` with vertex v = n + 1 and the units whose bit is in ``mask``."""
    rel_tuples = [set(ts) for ts in parent.rel_tuples]
    for i, unit in enumerate(units):
        if mask >> i & 1:
            for ri, t in unit:
                rel_tuples[ri].add(t)
    return Structure._trusted(parent.language, parent.n + 1, tuple(frozenset(ts) for ts in rel_tuples), ())


def assert_one_child_per_orbit(spec: PropertySpec, parent: Structure):
    """Oracle: the children of ``parent`` are one per orbit, under Aut(parent)
    by permutation scan, of the extension sets (sets of ``extension_units``)
    whose new vertex v is maximal under ``refined_invariant`` (read off
    ``refined_invariants``)."""
    n, v = parent.n, parent.n + 1
    units = extension_units(spec.language, spec.base, v)
    unit_of = {rt: i for i, unit in enumerate(units) for rt in unit}
    moves = []
    for perm in itertools.permutations(range(1, n + 1)):
        if apply_bijection(parent, dict(zip(range(1, n + 1), perm))) == parent:
            image = perm + (v,)
            moves.append([unit_of[ri, tuple(image[x - 1] for x in t)] for (ri, t), *_ in units])

    orbit_of = {}
    maximal = set()
    for mask in range(1 << len(units)):
        if mask in orbit_of:
            continue
        for move in moves:
            orbit_of[sum(1 << move[i] for i in range(len(units)) if mask >> i & 1)] = mask
        invariants = refined_invariants(extend(parent, units, mask))
        if invariants[-1] == max(invariants):
            maximal.add(mask)
    children = _extensions(spec, parent, canonical_data(parent).aut_generators)
    keys = []
    for child, *_ in children:
        mask = 0
        for ri, ts in enumerate(child.rel_tuples):
            for t in ts:
                if v in t:
                    mask |= 1 << unit_of[ri, t]
        keys.append(orbit_of[mask])
    assert len(keys) == len(set(keys)) and set(keys) == maximal, parent.rel_tuples


def brute_form(struct) -> tuple:
    """Isomorphism-class key by permutation scan: the least sorted tuple
    listing over every relabeling."""
    elems = range(1, struct.n + 1)
    return min(
        tuple(tuple(sorted(ts)) for ts in apply_bijection(struct, dict(zip(elems, perm))).rel_tuples)
        for perm in itertools.permutations(elems)
    )


def all_structures(lang: Language, n: int):
    """Every structure on [n] over a constant-free language."""
    slots = [
        (ri, t)
        for ri, (_, arity) in enumerate(lang.relations)
        for t in itertools.product(range(1, n + 1), repeat=arity)
    ]
    for bits in itertools.product([0, 1], repeat=len(slots)):
        rel_tuples = [set() for _ in lang.relations]
        for (ri, t), b in zip(slots, bits):
            if b:
                rel_tuples[ri].add(t)
        yield Structure(lang, n, tuple(frozenset(ts) for ts in rel_tuples), ())


def labeled_bipartite(n_max: int) -> list[int]:
    """Labeled bipartite graphs on n = 1..n_max vertices, from the EGF B(x)
    of 2-colored graphs, b_n = sum_k C(n, k) 2^(k(n-k)): each connected
    bipartite graph has two colorings, so the bipartite graphs have EGF
    sqrt(B(x)) (Harary & Palmer, Graphical Enumeration, 1973).  The square
    root is taken term by term in exact rationals."""
    b = [Fraction(sum(math.comb(n, k) * 2 ** (k * (n - k)) for k in range(n + 1)), math.factorial(n))
         for n in range(n_max + 1)]
    a = [Fraction(1)]  # a_0 = 1 = sqrt(b_0); 2 a_0 a_n = b_n - sum_{0<i<n} a_i a_(n-i)
    for n in range(1, n_max + 1):
        a.append((b[n] - sum(a[i] * a[n - i] for i in range(1, n))) / 2)
    counts = [a[n] * math.factorial(n) for n in range(1, n_max + 1)]
    assert all(c.denominator == 1 for c in counts)
    return [int(c) for c in counts]


def euler_transform(b: list[int], n_max: int) -> list[int]:
    """a_0..a_n_max of prod_k (1 - x^k)^(-b_k), b indexed from b[1]: the
    multisets of parts counted by b, by a_n = (1/n) sum_k c_k a_(n-k) with
    c_k = sum_(d | k) d b_d."""
    c = [0] + [sum(d * b[d] for d in range(1, k + 1) if k % d == 0) for k in range(1, n_max + 1)]
    a = [1]
    for n in range(1, n_max + 1):
        total = sum(c[k] * a[n - k] for k in range(1, n + 1))
        assert total % n == 0
        a.append(total // n)
    return a


def labeled_forests(n_max: int) -> list[int]:
    """Labeled forests on n = 1..n_max vertices: Cayley's n^(n-2) trees,
    joined by the exponential formula, f_n = sum_k C(n-1, k-1) t_k f_(n-k)
    (k: the size of the tree holding vertex 1)."""
    trees = [0] + [k ** (k - 2) if k > 1 else 1 for k in range(1, n_max + 1)]
    f = [1]
    for n in range(1, n_max + 1):
        f.append(sum(math.comb(n - 1, k - 1) * trees[k] * f[n - k] for k in range(1, n + 1)))
    return f[1:]


def unlabeled_forests(n_max: int) -> list[int]:
    """Unlabeled forests on n = 1..n_max vertices: the rooted trees r_n come
    from r_(n+1) = [x^n] prod_k (1 - x^k)^(-r_k), the unrooted trees from
    Otter's formula t(x) = r(x) - (r(x)^2 - r(x^2)) / 2, and a forest is a
    multiset of trees."""
    rooted = [0, 1]
    for n in range(1, n_max):
        rooted.append(euler_transform(rooted, n)[n])
    trees = [0]
    for n in range(1, n_max + 1):
        pairs = sum(rooted[i] * rooted[n - i] for i in range(1, n))
        trees.append(rooted[n] - (pairs - (rooted[n // 2] if n % 2 == 0 else 0)) // 2)
    return euler_transform(trees, n_max)[1:]


def forests_property() -> PropertySpec:
    """Forests: forbid every induced cycle C_m, m >= 3.  A graph with a cycle
    has an induced one, its shortest cycle."""
    return PropertySpec(language=GRAPH, base=BASE_GRAPH, forbidden=lambda m: (cycle(m),) if m >= 3 else ())


# OEIS A000088 (graphs), A000595 (binary relations), A000665 (3-uniform
# hypergraphs), A000273 (loopless digraphs), A033995 / A047864 (bipartite
# graphs, unlabeled / labeled)
UNLABELED_GRAPHS = [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
UNLABELED_BINARY_RELATIONS = [2, 10, 104, 3044]
UNLABELED_3_UNIFORM = [1, 1, 2, 5, 34]
UNLABELED_DIGRAPHS = [1, 3, 16, 218]
UNLABELED_BIPARTITE = [1, 2, 3, 7, 13, 35, 88]
LABELED_BIPARTITE = [1, 2, 7, 41, 376, 5177, 103237]


class TestCanonicalAugmentation:
    """Orderly generation with the invariant-maximal deletion vertex against
    counts and representatives computed without it."""

    def test_all_graphs_oeis(self):
        table = speed(all_graphs_property(), 7)
        assert [r.unlabeled for r in table.rows] == UNLABELED_GRAPHS[:7]
        assert [r.labeled for r in table.rows] == [2 ** math.comb(n, 2) for n in range(1, 8)]

    def test_binary_relations_with_loops_oeis(self):
        spec = PropertySpec(language=uniform_language(2), base="none")
        table = speed(spec, 4, budget=4)
        assert [r.unlabeled for r in table.rows] == UNLABELED_BINARY_RELATIONS
        assert [r.labeled for r in table.rows] == [2 ** (n * n) for n in range(1, 5)]

    def test_three_uniform_oeis(self):
        spec = PropertySpec(language=uniform_language(3), base=BASE_UNIFORM)
        table = speed(spec, 5, budget=5)
        assert [r.unlabeled for r in table.rows] == UNLABELED_3_UNIFORM

    def test_unary_and_binary_relation_against_brute_force(self):
        # level 1 alone has four classes: U and the loop R(1, 1) independently
        lang = Language((("U", 1), ("R", 2)))
        spec = PropertySpec(language=lang, base="none")
        table = speed(spec, 3, budget=3)
        assert [r.labeled for r in table.rows] == [2 ** n * 2 ** (n * n) for n in range(1, 4)]
        for n in range(1, 4):
            structures = list(all_structures(lang, n))
            assert table.rows[n - 1].unlabeled == len({brute_form(s) for s in structures}), n
            forms = {canonical_data(s).form for s in structures}
            assert generate_members(spec, n, budget=3) == sorted(forms, key=_sort_key), n

    def test_loopless_binary_relations_oeis(self):
        # a forbidden structure on one element, smaller than the arity
        lang = uniform_language(2)
        loop = make_structure(lang, 1, {"R": [(1, 1)]})
        spec = PropertySpec(language=lang, base="none", forbidden=(loop,))
        table = speed(spec, 4, budget=4)
        assert [r.unlabeled for r in table.rows] == UNLABELED_DIGRAPHS
        assert [r.labeled for r in table.rows] == [2 ** (n * (n - 1)) for n in range(1, 5)]

    def test_bipartite_oeis(self):
        table = speed(bipartite_property(), 7)
        assert [r.unlabeled for r in table.rows] == UNLABELED_BIPARTITE
        assert [r.labeled for r in table.rows] == LABELED_BIPARTITE

    def test_bipartite_egf_oracle(self):
        oracle = labeled_bipartite(8)
        assert oracle[:7] == LABELED_BIPARTITE and oracle[7] == 2922446
        assert [r.labeled for r in speed(bipartite_property(), 8).rows] == oracle

    def test_bipartite_is_the_listed_odd_cycles(self):
        # the function family against the tuple path it replaces at each n
        for n in range(1, 8):
            listed = forbid([cycle(m) for m in range(3, n + 1, 2)])
            assert generate_members(bipartite_property(), n) == generate_members(listed, n), n

    def test_bipartite_egf_oracle_n9(self):
        row = speed(bipartite_property(), 9).rows[-1]
        assert (row.labeled, row.unlabeled) == (labeled_bipartite(9)[8], 1119)
        assert row.labeled == 116011231

    @pytest.mark.slow
    def test_bipartite_egf_oracle_n10(self):
        # past default_budget's cap of 9 for graphs
        row = speed(bipartite_property(), 10, budget=10).rows[-1]
        assert (row.labeled, row.unlabeled) == (labeled_bipartite(10)[9], 5479)  # A047864, A033995
        assert row.labeled == 6433447397

    def test_forests_oracle(self):
        table = speed(forests_property(), 9)
        assert [r.labeled for r in table.rows] == labeled_forests(9)
        assert [r.unlabeled for r in table.rows] == unlabeled_forests(9)
        assert (table.rows[-1].labeled, table.rows[-1].unlabeled) == (10026505, 153)

    @pytest.mark.slow
    def test_forests_oracle_n10(self):
        # past default_budget's cap of 9 for graphs; C10 is the largest split any built-in family reaches
        row = speed(forests_property(), 10, budget=10).rows[-1]
        assert (row.labeled, row.unlabeled) == (labeled_forests(10)[9], unlabeled_forests(10)[9])  # A001858, A005195
        assert (row.labeled, row.unlabeled) == (205608536, 329)

    def test_complete_bipartite_closed_form(self):
        # K_{a,n-a} for 0 <= a <= n/2; labeled: the 2^(n-1) unordered bipartitions
        table = speed(complete_bipartite_property(), 7)
        assert [r.unlabeled for r in table.rows] == [n // 2 + 1 for n in range(1, 8)]
        assert [r.labeled for r in table.rows] == [2 ** (n - 1) for n in range(1, 8)]

    @pytest.mark.parametrize("name", sorted(BUILTIN_PROPERTIES))
    def test_representatives_match_brute_force(self, name):
        spec = BUILTIN_PROPERTIES[name]()
        for n in range(1, 6):
            forms = {canonical_data(g).form for g in all_graphs(n) if spec.member(g)}
            assert generate_members(spec, n) == sorted(forms, key=_sort_key), (name, n)

    @staticmethod
    def canonized_children(monkeypatch, spec, n, run=None):
        """Every child ``run(spec, n)`` canonizes, each checked to have a new
        vertex that is maximal under the refined invariant.  Without ``run``,
        every level of ``generate_levels`` is read, which canonizes every
        kept child."""
        import hspeed.property

        canonized = []

        def recording(struct):
            canonized.append(struct)
            return canonical_data(struct)

        monkeypatch.setattr(hspeed.property, "canonical_data", recording)
        if run is None:
            for _ in generate_levels(spec, n, budget=n):
                pass
        else:
            run(spec, n)
        for child in canonized:
            invariants = [refined_invariant(child, x) for x in child.elements()]
            assert invariants[-1] == max(invariants), child.rel_tuples
        return canonized

    def test_only_invariant_maximal_children_are_canonized(self, monkeypatch):
        canonized = self.canonized_children(monkeypatch, all_graphs_property(), 7)
        # 11,290 children without the prefilter, 3,132 without one child per
        # Aut(parent) orbit, 1,640 with the incidence invariant alone
        assert len(canonized) == 1300

    def test_speed_canonizes_only_multi_candidate_children_at_the_top(self, monkeypatch):
        """``speed`` canonizes the 210 children below n=7 that
        ``generate_levels`` does, and at n=7 only the 226 children with a
        deletion candidate that is not exchangeable with the new vertex:
        none of the 670 whose new vertex is the only candidate, and none of
        the 194 whose other candidates are all its twins."""
        canonized = self.canonized_children(monkeypatch, all_graphs_property(), 7, speed)
        top = [child for child in canonized if child.n == 7]
        assert (len(canonized), len(top)) == (436, 226)  # 1,300 and 1,090 through generate_levels
        for child in top:
            invariants = [refined_invariant(child, x) for x in child.elements()]
            candidates = [x for x in child.elements() if invariants[x - 1] == invariants[-1]]
            assert len(candidates) > 1, child.rel_tuples
            assert not all(transposition_fixes(child, x, 7) for x in candidates[:-1]), child.rel_tuples

    @pytest.mark.parametrize(
        "spec, n, count",
        [
            # 46 and 808 with the incidence invariant alone
            (PropertySpec(language=uniform_language(3), base=BASE_UNIFORM), 5, 44),
            (PropertySpec(language=Language((("U", 1), ("R", 2))), base="none"), 3, 798),
        ],
        ids=["3-uniform", "unary-binary"],
    )
    def test_group_search_canonizes_only_refined_maximal_children(self, monkeypatch, spec, n, count):
        assert len(self.canonized_children(monkeypatch, spec, n)) == count

    def test_one_child_per_orbit_of_extension_sets(self):
        spec = all_graphs_property()
        # Aut(edgeless 7) = S7: the orbits of neighbourhoods of vertex 8 are their sizes
        parent = graph(7, [])
        children = _extensions(spec, parent, canonical_data(parent).aut_generators)
        assert sorted(len(child.tuples_of("E")) // 2 for child, *_ in children) == list(range(8))
        for parent in generate_members(spec, 5):
            auts = [
                perm
                for perm in itertools.permutations(range(1, 6))
                if apply_bijection(parent, dict(zip(range(1, 6), perm))) == parent
            ]

            def orbit_key(subset):
                return min(tuple(sorted(perm[x - 1] for x in subset)) for perm in auts)

            maximal = set()
            for bits in range(32):
                subset = [x for x in range(1, 6) if bits >> (x - 1) & 1]
                child = graph(6, sorted(parent.tuples_of("E")) + [(x, 6) for x in subset])
                invariants = [refined_invariant(child, x) for x in child.elements()]
                if invariants[-1] == max(invariants):
                    maximal.add(orbit_key(subset))
            children = _extensions(spec, parent, canonical_data(parent).aut_generators)
            keys = [orbit_key([a for a, b in child.tuples_of("E") if b == 6]) for child, *_ in children]
            assert len(keys) == len(set(keys)) and set(keys) == maximal, sorted(parent.tuples_of("E"))

    @pytest.mark.parametrize(
        "spec, n",
        [
            (PropertySpec(language=uniform_language(3), base=BASE_UNIFORM), 5),
            (PropertySpec(language=Language((("U", 1), ("R", 2))), base="none"), 2),
            # 181,120 orbits of extension sets to test, about 8 s
            pytest.param(
                PropertySpec(language=Language((("U", 1), ("R", 2))), base="none"), 3, marks=pytest.mark.slow
            ),
        ],
        ids=["3-uniform", "unary-binary", "unary-binary-3"],
    )
    def test_one_child_per_orbit_for_other_bases(self, spec, n):
        """Every parent on at most n elements."""
        for m in range(n + 1):
            for parent in generate_members(spec, m, budget=n):
                assert_one_child_per_orbit(spec, parent)

    def test_graph_search_matches_group_search(self, monkeypatch):
        """The mask search of the graph base gives the group search's children,
        candidates, orbit sizes, exchangeable flags and order, and leaf-tests
        the same children, on every graph with at most 5 vertices as parent."""
        import hspeed.property
        from hspeed.property import _graph_extensions, _group_extensions, _in_some_age

        c4 = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        p4_k3 = forbid([graph(4, [(1, 2), (2, 3), (3, 4)]), K3])
        specs = [all_graphs_property(), matching_property(), edgeless_property(),
                 complete_bipartite_property(), bipartite_property(), forbid([c4]), p4_k3]
        leaf_tested = []

        def recording(spec, child):
            leaf_tested.append(child)
            return _in_some_age(spec, child)

        parents = [graph(0, [])] + [p for n in range(1, 6) for p in generate_members(all_graphs_property(), n)]
        monkeypatch.setattr(hspeed.property, "_in_some_age", recording)
        assert len(parents) == 1 + 1 + 2 + 4 + 11 + 34
        kept = 0
        for spec in specs:
            for parent in parents:
                generators = canonical_data(parent).aut_generators
                fast = _graph_extensions(spec, parent, generators)
                fast_tested, leaf_tested[:] = list(leaf_tested), []
                general = _group_extensions(spec, parent, generators)
                assert fast == general, (spec.forbidden, sorted(parent.tuples_of("E")))
                assert fast_tested == leaf_tested
                leaf_tested.clear()
                kept += len(fast)
        assert kept == 500  # 548 with the incidence invariant alone

    def test_extension_marks_stay_small_for_large_groups(self):
        import tracemalloc

        parent = graph(8, [])
        generators = canonical_data(parent).aut_generators
        assert brute_group_order(generators, 8) == 40320
        tracemalloc.start()
        try:
            children = _extensions(all_graphs_property(), parent, generators)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(children) == 9
        assert peak < 1 << 20

    def test_conjugated_generators_generate_the_forms_group(self):
        for g in [graph(6, [(1, 2), (2, 3), (4, 5)]), graph(7, [(1, 2), (1, 3), (1, 4), (5, 6)])]:
            data = canonical_data(g)
            gens = [_conjugate(h, data.relabel) for h in data.aut_generators]
            for h in gens:
                assert apply_bijection(data.form, dict(zip(data.form.elements(), h))) == data.form
            assert brute_group_order(gens, g.n) == data.aut_order

    def test_conjugate_places_each_image(self):
        """``_conjugate`` against the sort-based form on seeded permutations
        and relabelings."""
        rng = random.Random(20161)
        for _ in range(500):
            n = rng.randint(0, 12)
            g = tuple(rng.sample(range(1, n + 1), n))
            relabel = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            by_sorting = tuple(y for _, y in sorted((relabel[x], relabel[gx]) for x, gx in enumerate(g, start=1)))
            assert _conjugate(g, relabel) == by_sorting

    @pytest.mark.slow
    def test_all_graphs_n8_oeis(self, monkeypatch):
        import hspeed.property

        calls = []

        def recording(struct):
            calls.append(struct)
            return canonical_data(struct)

        monkeypatch.setattr(hspeed.property, "canonical_data", recording)
        *_, level = generate_levels(all_graphs_property(), 8)
        assert (len(level), sum(math.factorial(8) // aut for _, aut in level)) == (UNLABELED_GRAPHS[7], 2 ** 28)
        assert len(calls) == 14478  # 19,912 with the incidence invariant alone
        calls.clear()
        row = speed(all_graphs_property(), 8).rows[-1]
        assert (row.unlabeled, row.labeled) == (UNLABELED_GRAPHS[7], 2 ** 28)
        assert len(calls) == 3956  # 5,390 when every child with more than one candidate is canonized

    @pytest.mark.slow
    def test_all_graphs_n9_oeis(self):
        """A000088 through n=9, and 2^C(9,2) labeled graphs."""
        table = speed(all_graphs_property(), 9)
        assert [row.unlabeled for row in table.rows] == UNLABELED_GRAPHS
        assert table.labeled(9) == 2 ** 36


def fully_canonized_table(spec: PropertySpec, n_max: int) -> SpeedTable:
    """The speed table read off ``generate_levels``, which canonizes every
    kept child: n!/|Aut| per form, and the |Aut| histogram of the forms."""
    rows = []
    for n, level in enumerate(generate_levels(spec, n_max, budget=n_max), start=1):
        labeled = sum(math.factorial(n) // aut for _, aut in level)
        aut_counts = tuple(sorted(Counter(aut for _, aut in level).items()))
        rows.append(SpeedRow(n=n, labeled=labeled, unlabeled=len(level), aut_counts=aut_counts))
    return SpeedTable(tuple(rows))


def random_forbid_family(seed: int, smallest: int = 3) -> PropertySpec:
    """One to three seeded random graphs on ``smallest`` to 5 vertices, forbidden."""
    rng = random.Random(seed)
    family = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(smallest, 5)
        family.append(graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]))
    return forbid(family)


def ages():
    return [PropertySpec(language=GRAPH, base=BASE_GRAPH, templates=(t(),))
            for t in (symmetric_bipartite_template, asymmetric_two_class_template, clique_plus_singleton_template)]


def transposition_fixes(struct: Structure, x: int, v: int) -> bool:
    """Is the transposition (x v) an automorphism of ``struct``?  By relabeling."""
    swap = {y: y for y in struct.elements()} | {x: v, v: x}
    return apply_bijection(struct, swap) == struct


class TestTopLevelByOrbitStabilizer:
    """``speed`` counts a top-level child whose new vertex is exchangeable
    with every other deletion candidate as |Aut(parent)| // |orbit of its
    extension set| * |candidates|, without canonizing it."""

    @pytest.mark.parametrize(
        "spec, n_max",
        [(BUILTIN_PROPERTIES[name](), 8) for name in sorted(BUILTIN_PROPERTIES)]
        + [
            (PropertySpec(uniform_language(3), BASE_UNIFORM), 6),
            (PropertySpec(uniform_language(4), BASE_UNIFORM), 6),
            (PropertySpec(Language((("U", 1), ("R", 2))), "none"), 3),
            (forbid([graph(1, [])]), 3),  # empty from n = 1
        ]
        + [(spec, 7) for spec in ages()]
        + [(random_forbid_family(seed), 7) for seed in range(8)],
        ids=sorted(BUILTIN_PROPERTIES)
        + ["3-graphs", "4-graphs", "unary-binary", "K1"]
        + ["age-bip", "age-asym", "age-cps"]
        + [f"forbid-{seed}" for seed in range(8)],
    )
    def test_speed_equals_fully_canonized_levels(self, spec, n_max):
        for m in sorted({0, 1, 2, n_max}):
            assert speed(spec, m, budget=n_max) == fully_canonized_table(spec, m), m

    @pytest.mark.parametrize(
        "spec, n_max, singles",
        [
            (all_graphs_property(), 7, 766),  # 670 of them at n = 7
            (bipartite_property(), 7, 80),
            (PropertySpec(uniform_language(3), BASE_UNIFORM), 5, 17),
            (PropertySpec(Language((("U", 1), ("R", 2))), "none"), 3, 706),
        ],
        ids=["all-graphs", "bipartite", "3-graphs", "unary-binary"],
    )
    def test_single_candidate_aut_is_parent_aut_over_orbit_size(self, spec, n_max, singles):
        """For every child on at most n_max elements whose new vertex is the
        only candidate, canonization finds |Aut(parent)| // its orbit size."""
        seen = 0
        for aut, child, candidates, orbit_size, _ in children_upto(spec, n_max):
            if candidates == [child.n]:
                seen += 1
                assert aut % orbit_size == 0
                assert canonical_data(child).aut_order == aut // orbit_size, child.rel_tuples
        assert seen == singles

    @pytest.mark.parametrize(
        "spec, n_max, twins",
        [
            (all_graphs_property(), 7, 258),  # 194 of them at n = 7
            (bipartite_property(), 7, 27),
            (PropertySpec(uniform_language(3), BASE_UNIFORM), 5, 19),
            (PropertySpec(Language((("U", 1), ("R", 2))), "none"), 3, 76),
        ],
        ids=["all-graphs", "bipartite", "3-graphs", "unary-binary"],
    )
    def test_exchangeable_candidates_multiply_the_aut(self, spec, n_max, twins):
        """For every child on at most n_max elements, the extension search's
        flag says whether the transposition of the new vertex v with each
        other candidate is an automorphism, by relabeling.  For the ``twins``
        children with more than one candidate where it is, the canonical keep
        test keeps the child, and canonization finds |Aut(parent)| // its
        orbit size * |candidates|."""
        seen = 0
        for aut, child, candidates, orbit_size, exchangeable in children_upto(spec, n_max):
            v = child.n
            assert exchangeable == all(transposition_fixes(child, x, v) for x in candidates[:-1]), child.rel_tuples
            if exchangeable and len(candidates) > 1:
                seen += 1
                assert aut % orbit_size == 0
                data = canonical_data(child)
                deleted = max(candidates, key=data.relabel.__getitem__)
                assert deleted in orbit([v], data.aut_generators), child.rel_tuples
                assert data.aut_order == aut // orbit_size * len(candidates), child.rel_tuples
        assert seen == twins


def children_upto(spec: PropertySpec, n_max: int):
    """(|Aut(parent)|, *result) for each extension search result of each
    parent: every member on fewer than n_max elements, the root included."""
    root = Structure(spec.language, 0, tuple(frozenset() for _ in spec.language.relations), ())
    for level in [[(root, 1)]] + list(generate_levels(spec, n_max - 1, budget=n_max)):
        for parent, aut in level:
            data = canonical_data(parent)
            assert data.aut_order == aut
            for extension in _extensions(spec, parent, data.aut_generators):
                yield (aut, *extension)


def extension_identity(spec: PropertySpec, n_max: int) -> list[int]:
    """The labeled counts for 1 <= n <= n_max by the labeled extension
    identity.  Deleting n from a labeled member on [n] leaves a labeled
    member on [n-1], and each labeled copy of a class P of level n-1 extends
    to a member by as many extension sets S as P does, so labeled_n is the
    sum over P of (n-1)!/|Aut P| * #{S : spec.member(P + S)}, S over every
    set of ``extension_units``.  No deletion rule, no orbit count and no
    pruning: every child is built and tested by ``spec.member``."""
    root = Structure(spec.language, 0, tuple(frozenset() for _ in spec.language.relations), ())
    levels = [[(root, 1)] if spec.member(root) else []] + list(generate_levels(spec, n_max - 1, budget=n_max))
    counts = []
    for n, level in enumerate(levels, start=1):
        units = extension_units(spec.language, spec.base, n)
        extensions = sum(
            math.factorial(n - 1) // aut * sum(spec.member(extend(parent, units, mask)) for mask in range(1 << len(units)))
            for parent, aut in level
        )
        counts.append(extensions)
    return counts


class TestLabeledExtensionIdentity:
    """``speed``'s labeled counts, the top level's read off the extension
    search by orbit-stabilizer, against ``extension_identity``."""

    @pytest.mark.parametrize(
        "spec, n_max",
        [(BUILTIN_PROPERTIES[name](), 7 if name == "all-graphs" else 8) for name in sorted(BUILTIN_PROPERTIES)]
        + [(PropertySpec(uniform_language(3), BASE_UNIFORM), 5)]
        + [(random_forbid_family(seed, smallest=4), 7) for seed in range(4)],
        ids=sorted(BUILTIN_PROPERTIES) + ["3-graphs"] + [f"forbid-{seed}" for seed in range(4)],
    )
    def test_speed_matches_the_identity(self, spec, n_max):
        assert [r.labeled for r in speed(spec, n_max, budget=n_max).rows] == extension_identity(spec, n_max)

    @pytest.mark.slow
    def test_all_graphs_n8(self):
        assert extension_identity(all_graphs_property(), 8)[-1] == 2 ** 28 == speed(all_graphs_property(), 8).labeled(8)


class TestSpeed:
    def test_all_graphs_n4(self):
        table = speed(all_graphs_property(), 4)
        assert table.labeled(4) == 64 == 2 ** math.comb(4, 2)

    def test_forbid_single_edge(self):
        table = speed(edgeless_property(), 8)
        assert [r.labeled for r in table.rows] == [1] * 8

    def test_matching_matches_involution_recurrence(self):
        table = speed(matching_property(), 8)
        assert [r.labeled for r in table.rows] == involution_numbers(8)
        assert [r.labeled for r in table.rows] == [1, 2, 4, 10, 26, 76, 232, 764]

    def test_labeled_unlabeled_consistency(self):
        # direct brute-force count oracle for n <= 6 on every built-in
        from hspeed.corpus import BUILTIN_PROPERTIES

        for name, factory in BUILTIN_PROPERTIES.items():
            spec = factory()
            table = speed(spec, 6)
            for n in range(1, 7):
                assert table.labeled(n) == brute_labeled_count(spec, n), (name, n)

    def test_multiplicities_sum(self):
        table = speed(matching_property(), 6)
        for row in table.rows:
            auts = [aut for aut, _ in row.aut_counts]
            assert auts == sorted(set(auts)) and all(count >= 1 for _, count in row.aut_counts)
            assert sum(math.factorial(row.n) // aut * count for aut, count in row.aut_counts) == row.labeled
            assert sum(count for _, count in row.aut_counts) == row.unlabeled

    def test_speed_monotone_under_forbidden_inclusion(self):
        bigger_forbidden = speed(forbid([P3, K3]), 7)
        smaller_forbidden = speed(forbid([P3]), 7)
        for n in range(1, 8):
            assert bigger_forbidden.labeled(n) <= smaller_forbidden.labeled(n)

    def test_heredity_of_generated_members(self):
        spec = matching_property()
        for member in generate_members(spec, 6):
            for e in member.elements():
                sub, _ = induced_substructure(member, [x for x in member.elements() if x != e])
                assert spec.member(sub)

    def test_forbid_empty_structure(self):
        # every structure contains the 0-element structure, so nothing is a member
        table = speed(forbid([graph(0, [])]), 4)
        assert [r.labeled for r in table.rows] == [0, 0, 0, 0]

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            speed(all_graphs_property(), 10)

    def test_budget_is_checked_before_any_extension(self, monkeypatch):
        """``speed`` reads its lower levels from ``generate_levels(spec, n_max - 1)``,
        which is within the budget at n_max = cap + 1, so it checks n_max itself."""
        import hspeed.property

        def refuse(*args):
            raise AssertionError("an extension search ran")

        monkeypatch.setattr(hspeed.property, "_extensions", refuse)
        with pytest.raises(BudgetExceeded, match="n_max = 10 exceeds budget 9"):
            speed(all_graphs_property(), 10)
        with pytest.raises(BudgetExceeded, match="n_max = 4 exceeds budget 3"):
            speed(all_graphs_property(), 4, budget=3)

    def test_extension_search_over_base_none(self):
        # base none: one ternary relation has 2^8 labeled structures on [2];
        # the swap of 1 and 2 pairs its 8 tuples, so Burnside gives (2^8 + 2^4) / 2
        table = speed(PropertySpec(Language((("R", 3),)), "none"), 2, budget=2)
        assert [r.labeled for r in table.rows] == [2, 2**8]
        assert [r.unlabeled for r in table.rows] == [2, 136]

    @pytest.mark.slow
    def test_quaternary_relation_at_default_budget(self):
        # default_budget is the only cap on generation: one 4-ary relation gets n = 2,
        # where 15 of its 16 tuples over [2] hold v = 2, 14 of them with support {1, 2}.
        # The swap of 1 and 2 pairs the 16 tuples, so Burnside gives (2^16 + 2^8) / 2
        lang = Language((("R", 4),))
        assert default_budget(lang, "none") == 2
        table = speed(PropertySpec(lang, "none"), 2)
        assert [r.labeled for r in table.rows] == [2, 2**16]
        assert [r.unlabeled for r in table.rows] == [2, 32_896]

    def test_budget_override(self):
        table = speed(edgeless_property(), 10, budget=10)
        assert table.labeled(10) == 1

    def test_age_of_templates_mode(self):
        spec = PropertySpec(language=GRAPH, base=BASE_GRAPH, templates=(inf_clique_template(),))
        table = speed(spec, 5)
        assert [r.labeled for r in table.rows] == [1] * 5  # only cliques

    def test_uniform_base(self):
        lang = uniform_language(3)
        spec = PropertySpec(language=lang, base=BASE_UNIFORM)
        table = speed(spec, 5, budget=5)
        for n in range(1, 6):
            assert table.labeled(n) == 2 ** math.comb(n, 3)

    def test_uniform_unlabeled_against_brute_classes(self):
        # oracle: group all 3-uniform hypergraphs on [4] by brute isomorphism
        from conftest import brute_isomorphic

        lang = uniform_language(3)
        spec = PropertySpec(language=lang, base=BASE_UNIFORM)
        triples = list(itertools.combinations(range(1, 5), 3))
        structures = []
        for bits in itertools.product([0, 1], repeat=4):
            chosen = [t for t, b in zip(triples, bits) if b]
            tuples = [p for t in chosen for p in itertools.permutations(t)]
            structures.append(make_structure(lang, 4, {"R": tuples}))
        classes: list = []
        for s in structures:
            if not any(brute_isomorphic(s, rep) for rep in classes):
                classes.append(s)
        table = speed(spec, 4, budget=4)
        assert table.rows[3].unlabeled == len(classes)

    def test_empty_level_stays_empty(self):
        # every graph on 4 vertices is forbidden: the graphs on at most 3 vertices
        spec = forbid(generate_members(all_graphs_property(), 4))
        assert [r.labeled for r in speed(spec, 5).rows] == [1, 2, 8, 0, 0]
        assert [r.labeled for r in speed(spec, 7).rows] == [1, 2, 8, 0, 0, 0, 0]

    def test_default_budget_of_three_graphs(self):
        # all 3-graphs at n=7 have 7,013,320 classes: 7 needs an explicit budget
        spec = PropertySpec(language=uniform_language(3), base=BASE_UNIFORM)
        with pytest.raises(BudgetExceeded):
            next(generate_levels(spec, 7))
        no_edge = make_structure(uniform_language(3), 3, {"R": itertools.permutations((1, 2, 3))})
        edgeless = PropertySpec(language=uniform_language(3), base=BASE_UNIFORM, forbidden=(no_edge,))
        assert [len(level) for level in generate_levels(edgeless, 7, budget=7)] == [1] * 7

    def test_default_budget_counts_the_base_blocks(self):
        # 2^B(n)/n! <= 300,000 below the cap: B(n) = C(n, 2) for graphs, C(n, 3) for
        # 3-graphs, n^3 for one ternary relation over base none
        assert default_budget(GRAPH, BASE_GRAPH) == 9
        assert default_budget(uniform_language(3), BASE_UNIFORM) == 6
        assert default_budget(uniform_language(4), BASE_UNIFORM) == 6
        assert default_budget(Language((("R", 3),)), "none") == 2
        assert default_budget(Language((("R", 2),)), "none") == 5
        assert default_budget(Language((("U", 1), ("R", 2))), "none") == 4

    def test_ternary_base_none_is_refused_at_once(self):
        # at n=3 the new vertex lies in 19 blocks: 2^19 extension sets for each of 136 parents
        spec = PropertySpec(Language((("R", 3),)), "none")
        with pytest.raises(BudgetExceeded, match="n_max = 3 exceeds budget 2"):
            speed(spec, 3)
        assert [r.unlabeled for r in speed(spec, 2).rows] == [2, 136]

    def test_directed_base_none(self):
        lang = uniform_language(2)
        spec = PropertySpec(language=lang, base="none")
        table = speed(spec, 3, budget=3)
        # all binary structures: 2^(n^2) labeled
        for n in range(1, 4):
            assert table.labeled(n) == 2 ** (n * n)


class TestProbes:
    def test_basic_refuted_for_all_graphs(self):
        verdict = is_basic_upto(all_graphs_property(), 3, 8)
        assert isinstance(verdict, Refuted)
        assert verdict.detail["classes"] > 3

    def test_basic_consistent_for_edgeless(self):
        verdict = is_basic_upto(edgeless_property(), 1, 8)
        assert isinstance(verdict, Consistent)

    def test_basic_consistent_for_complete_bipartite(self):
        verdict = is_basic_upto(complete_bipartite_property(), 2, 7)
        assert isinstance(verdict, Consistent)

    def test_tb_matching(self):
        assert isinstance(is_totally_bounded_upto(matching_property(), 2, 7), Consistent)

    def test_tb_all_graphs_star_witness(self):
        verdict = is_totally_bounded_upto(all_graphs_property(), 3, 6)
        assert isinstance(verdict, Refuted)
        assert verdict.detail["completions"] >= 3

    def test_tb_edgeless(self):
        assert isinstance(is_totally_bounded_upto(edgeless_property(), 1, 7), Consistent)


class TestGrowthDiagnostics:
    def test_flat_counts(self):
        report = growth_diagnostics(speed(edgeless_property(), 8))
        assert report.tag == "polynomial/exponential"
        assert all(r["log_ratio"] == pytest.approx(0, abs=1e-9) for r in report.rows[1:])

    def test_matching_factorial_degree_two(self):
        report = growth_diagnostics(speed(matching_property(), 8))
        assert report.tag == "factorial-degree-2"

    def test_all_graphs_penultimate(self):
        report = growth_diagnostics(speed(all_graphs_property(), 6))
        assert report.tag == "penultimate-or-above"
        assert report.rows[-1]["over_factorial"] > 1

    @pytest.mark.parametrize("forbidden", [[graph(1, [])], [K2, graph(2, [])]], ids=["K1", "K2-2K1"])
    def test_empty_from_some_n_is_polynomial(self, forbidden):
        """A property with no member at n has speed 0 from n on."""
        table = speed(forbid(forbidden), 5)
        assert table.rows[-1].labeled == 0
        assert growth_diagnostics(table).tag == "polynomial/exponential"

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            growth_diagnostics(speed(edgeless_property(), 3))


class TestBuiltinPredicates:
    def test_complete_bipartite_membership(self):
        spec = complete_bipartite_property()
        from hspeed.corpus import complete_bipartite

        assert spec.member(complete_bipartite(3, 4))
        assert spec.member(graph(3, []))
        assert spec.member(P3)  # P3 = K_{1,2}
        assert not spec.member(K3)
        assert not spec.member(graph(3, [(1, 2)]))  # edge plus isolated vertex

    def test_complete_bipartite_matches_bipartition_scan(self):
        spec = complete_bipartite_property()
        for n in range(6):
            for g in all_graphs(n):
                edges = {frozenset(t) for t in g.tuples_of("E")}
                # oracle: some side S makes the edges exactly the pairs across S
                brute = any(
                    edges == {frozenset((a, b)) for a in side for b in g.elements() if b not in side}
                    for k in range(n + 1)
                    for side in map(set, itertools.combinations(g.elements(), k))
                )
                assert spec.member(g) == brute, sorted(g.tuples_of("E"))

    def test_bipartite_membership(self):
        spec = bipartite_property()
        for n in range(3, 9):
            assert spec.member(cycle(n)) == (n % 2 == 0), n
        for n in range(1, 9):
            assert spec.member(path(n)), n
        for n in range(6):
            for g in all_graphs(n):
                assert spec.member(g) == two_colorable(g), sorted(g.tuples_of("E"))


def two_colorable(g) -> bool:
    """Oracle: a breadth-first 2-coloring of each component meets no edge
    inside one color."""
    color: dict[int, int] = {}
    adj: dict[int, set[int]] = {e: set() for e in g.elements()}
    for a, b in g.tuples_of("E"):
        adj[a].add(b)
        adj[b].add(a)
    for start in g.elements():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def has_induced_c4(g) -> bool:
    """Oracle: a 4-subset inducing a 2-regular graph is a 4-cycle."""
    edges = {frozenset(t) for t in g.tuples_of("E")}
    for xs in itertools.combinations(g.elements(), 4):
        degs = {x: 0 for x in xs}
        inner = [e for e in edges if e <= set(xs)]
        for e in inner:
            for x in e:
                degs[x] += 1
        if len(inner) == 4 and all(d == 2 for d in degs.values()):
            return True
    return False


class TestSpecFitsBase:
    def test_graph_base_needs_a_binary_relation(self):
        with pytest.raises(ValueError):
            PropertySpec(language=uniform_language(3), base=BASE_GRAPH)

    def test_forbidden_hyperedge_under_graph_base(self):
        one_edge = make_structure(uniform_language(3), 3, {"R": itertools.permutations((1, 2, 3))})
        with pytest.raises(ValueError):
            forbid([one_edge])

    def test_forbidden_loop_under_graph_base(self):
        looped = make_structure(GRAPH, 2, {"E": [(1, 1), (1, 2), (2, 1)]})
        with pytest.raises(ValueError):
            forbid([looped])

    def test_forbidden_unsymmetric_tuple_under_uniform_base(self):
        lang = uniform_language(3)
        with pytest.raises(ValueError):
            PropertySpec(language=lang, base=BASE_UNIFORM, forbidden=(make_structure(lang, 3, {"R": [(1, 2, 3)]}),))


class TestLargerForbidden:
    def test_forbid_induced_four_cycle(self):
        c4 = graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        spec = forbid([c4])
        table = speed(spec, 6)
        for n in range(1, 7):
            oracle = sum(1 for g in all_graphs(n) if not has_induced_c4(g))
            assert table.labeled(n) == oracle, n

    def test_forbid_single_hyperedge(self):
        lang = uniform_language(3)
        one_edge = make_structure(
            lang, 3, {"R": list(itertools.permutations((1, 2, 3)))}
        )
        spec = PropertySpec(language=lang, base=BASE_UNIFORM, forbidden=(one_edge,))
        table = speed(spec, 5, budget=5)
        assert [r.labeled for r in table.rows] == [1] * 5

    def test_forbid_tight_pair_of_hyperedges(self):
        # forbid two edges sharing two vertices, induced; oracle via
        # permutation-scan isomorphism on every 4-subset
        from conftest import brute_isomorphic
        from hspeed.structures import induced_substructure

        lang = uniform_language(3)
        pair = make_structure(
            lang,
            4,
            {"R": [p for t in ((1, 2, 3), (1, 2, 4)) for p in itertools.permutations(t)]},
        )
        spec = PropertySpec(language=lang, base=BASE_UNIFORM, forbidden=(pair,))
        table = speed(spec, 5, budget=5)

        def member_oracle(struct):
            for xs in itertools.combinations(struct.elements(), 4):
                sub, _ = induced_substructure(struct, xs)
                if brute_isomorphic(sub, pair):
                    return False
            return True

        triples = list(itertools.combinations(range(1, 6), 3))
        count = 0
        for bits in itertools.product([0, 1], repeat=len(triples)):
            chosen = [t for t, b in zip(triples, bits) if b]
            tuples = [p for t in chosen for p in itertools.permutations(t)]
            if member_oracle(make_structure(lang, 5, {"R": tuples})):
                count += 1
        assert table.labeled(5) == count


LOOPED = Language((("E", 2),))
UNARY_BINARY = Language((("U", 1), ("R", 2)))
TRIPLES = uniform_language(3)


def random_member_of_base(rng, lang: Language, base: str, n: int) -> Structure:
    """A random structure on [n] that satisfies ``base``, each free slot a coin."""
    if base == "none":
        rel_tuples = tuple(
            frozenset(t for t in itertools.product(range(1, n + 1), repeat=arity) if rng.random() < 0.5)
            for _, arity in lang.relations
        )
        return Structure(lang, n, rel_tuples, ())
    arity = lang.relations[0][1]
    chosen = [t for t in itertools.combinations(range(1, n + 1), arity) if rng.random() < 0.5]
    return Structure(lang, n, (frozenset(p for t in chosen for p in itertools.permutations(t)),), ())


def brute_has_copy(struct: Structure, forbidden, anchor=None) -> bool:
    """Is some forbidden structure an induced substructure of ``struct`` (through
    ``anchor`` when given)?  Tries every injection of each forbidden structure
    and compares every tuple of every relation."""
    for f in forbidden:
        for image in itertools.permutations(struct.elements(), f.n):
            if anchor is not None and anchor not in image:
                continue
            if all(
                (t in ft) == (tuple(image[x - 1] for x in t) in st)
                for (_, arity), ft, st in zip(f.language.relations, f.rel_tuples, struct.rel_tuples)
                for t in itertools.product(f.elements(), repeat=arity)
            ):
                return True
    return False


class TestForbiddenIndex:
    """The compiled forbidden check against an injection scan, and when it
    builds each size's codes."""

    CASES = [
        (GRAPH, BASE_GRAPH),
        (LOOPED, "none"),
        (UNARY_BINARY, "none"),
        (TRIPLES, BASE_UNIFORM),
    ]

    @pytest.mark.parametrize("lang, base", CASES, ids=["graph", "looped", "unary-binary", "uniform-3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_injection_scan(self, lang, base, seed):
        import random

        rng = random.Random(seed * 31 + len(base))
        for _ in range(8):
            family = tuple(
                random_member_of_base(rng, lang, base, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))
            )
            spec = PropertySpec(lang, base, forbidden=family)
            for _ in range(6):
                s = random_member_of_base(rng, lang, base, rng.randint(0, 6))
                assert spec.member(s) == (not brute_has_copy(s, family))

    @pytest.mark.parametrize("lang, base", CASES, ids=["graph", "looped", "unary-binary", "uniform-3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_search_cuts_exactly_the_anchored_copies(self, lang, base, seed):
        """For random member parents, the extension search's forbidden
        checks cut an extension set exactly when the child has a forbidden
        copy through the new vertex v, under a random order of the extension
        bits, each pair listed at the step that decides it; and the search
        keeps exactly the children of the unrestricted search with no such
        copy."""
        from hspeed.property import _forbidden_cuts

        rng = random.Random(seed * 37 + len(base))
        free = PropertySpec(lang, base)
        tested = 0
        while tested < 4:
            family = tuple(
                random_member_of_base(rng, lang, base, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))
            )
            spec = PropertySpec(lang, base, forbidden=family)
            parent = random_member_of_base(rng, lang, base, rng.randint(0, 4))
            if brute_has_copy(parent, family):
                continue
            tested += 1
            v = parent.n + 1
            units = extension_units(lang, base, v)
            rng.shuffle(units)
            bit_of = {rt: 1 << i for i, unit in enumerate(units) for rt in unit}
            cuts = _forbidden_cuts(spec, parent, bit_of, len(units))
            assert all(mask.bit_length() == k for k, pairs in enumerate(cuts) for mask, _ in pairs)
            for mask in rng.sample(range(1 << len(units)), min(24, 1 << len(units))):
                cut = any((mask & m) in patterns for pairs in cuts for m, patterns in pairs)
                assert cut == brute_has_copy(extend(parent, units, mask), family, v), (family, parent, mask)
            generators = canonical_data(parent).aut_generators
            kept = [c for c in _extensions(free, parent, generators) if not brute_has_copy(c[0], family, v)]
            assert _extensions(spec, parent, generators) == kept

    @pytest.mark.parametrize("lang, base", CASES, ids=["graph", "looped", "unary-binary", "uniform-3"])
    def test_empty_forbidden_structure(self, lang, base):
        import random

        rng = random.Random(5)
        empty = Structure(lang, 0, tuple(frozenset() for _ in lang.relations), ())
        spec = PropertySpec(lang, base, forbidden=(empty, random_member_of_base(rng, lang, base, 3)))
        for n in range(4):
            assert not spec.member(random_member_of_base(rng, lang, base, n))

    def test_slots_are_the_positions_the_base_leaves_free(self):
        from hspeed.property import _slots

        for m in range(6):
            assert len(_slots(GRAPH, BASE_GRAPH, m)) == math.comb(m, 2)
            assert len(_slots(TRIPLES, BASE_UNIFORM, m)) == math.comb(m, 3)
            assert len(_slots(LOOPED, "none", m)) == m * m
            assert len(_slots(UNARY_BINARY, "none", m)) == m + m * m

    @pytest.mark.parametrize("lang, base", CASES, ids=["graph", "looped", "unary-binary", "uniform-3"])
    def test_codes_are_the_orbit_of_one_copy(self, lang, base):
        """A size's codes, marked as orbits under S_m and stored split at the
        last position, are the codes of all m! orderings of each forbidden
        structure, each stored once."""
        from hspeed.property import _size_codes, _slots

        rng = random.Random(len(lang.relations) * 7 + len(base))
        for m in range(7):
            slots, ident = _slots(lang, base, m), tuple(range(m))
            for count in (1, 1, 1, 1, 2, 3):
                family = tuple(random_member_of_base(rng, lang, base, m) for _ in range(count))
                old, anchor, completions = _size_codes(lang, base, m, family)
                assert all(m - 1 not in read(ident) for _, read, _ in old)
                assert all(m - 1 in read(ident) for _, read, _ in anchor)
                assert sorted(bit for *_, bit in old + anchor) == [bit for *_, bit in slots]
                anchor_bits = [bit for *_, bit in anchor]
                codes = [
                    code | sum(itertools.compress(anchor_bits, flags))
                    for code, patterns in completions.items()
                    for flags in patterns
                ]
                assert all(code & sum(anchor_bits) == 0 for code in completions)
                assert sorted(codes) == sorted(brute_codes(slots, family)), (m, family)

    def test_odd_cycle_codes_are_cosets(self):
        """C_m has m!/2m labeled copies: 20,160 for C9."""
        index = bipartite_property()._forbidden_index
        for m in (3, 5, 7, 9):
            assert sum(len(patterns) for patterns in index[m][2].values()) == math.factorial(m) // (2 * m)

    def test_codes_of_a_size_are_built_on_first_probe_at_that_size(self, monkeypatch):
        import hspeed.property

        built = []
        size_codes = hspeed.property._size_codes

        def counting(language, base, m, structures):
            built.append(m)
            return size_codes(language, base, m, structures)

        monkeypatch.setattr(hspeed.property, "_size_codes", counting)
        g8 = graph(8, [(i, i + 1) for i in range(1, 8)] + [(1, 8), (1, 5)])
        spec = forbid([g8])
        assert [r.labeled for r in speed(spec, 6).rows] == [2 ** math.comb(n, 2) for n in range(1, 7)]
        assert built == []
        assert not spec.member(g8) and not spec.member(g8)
        assert built == [8]
        mixed = forbid([P3, g8])
        speed(mixed, 6)
        assert built == [8, 3]

    def test_function_family_builds_each_size_once(self, monkeypatch):
        import hspeed.property

        built = []
        size_codes = hspeed.property._size_codes

        def counting(language, base, m, structures):
            built.append((m, len(structures)))
            return size_codes(language, base, m, structures)

        monkeypatch.setattr(hspeed.property, "_size_codes", counting)
        spec = bipartite_property()
        assert spec.member(cycle(6)) and not spec.member(cycle(7))
        assert built == [(3, 1), (5, 1), (7, 1)]
        # a size with no structures stores an empty split and is never scanned
        index = spec._forbidden_index
        assert sorted(index) == list(range(8))
        assert [m for m in index if index[m][2]] == [3, 5, 7]
        coded, flagged = [], []
        code, flags = hspeed.property._code, hspeed.property._flags
        monkeypatch.setattr(hspeed.property, "_code", lambda *args: coded.append(1) or code(*args))
        monkeypatch.setattr(hspeed.property, "_flags", lambda *args: flagged.append(1) or flags(*args))
        c8 = cycle(8)
        assert spec.member(c8)
        assert index[8] == ((), (), {}) and built == [(3, 1), (5, 1), (7, 1)]
        # one old-slot read per subset, and one anchor read per subset whose
        # first m - 1 elements some ordering of C_m also has
        assert len(coded) == math.comb(8, 3) + math.comb(8, 5) + math.comb(8, 7)
        hits = 0
        for m in (3, 5, 7):
            cm = cycle(m)
            pairs = list(itertools.combinations(range(m - 1), 2))
            prefixes = {tuple((xs[i], xs[j]) in cm.rel_tuples[0] for i, j in pairs)
                        for xs in itertools.permutations(cm.elements())}
            hits += sum(tuple((ys[i], ys[j]) in c8.rel_tuples[0] for i, j in pairs) in prefixes
                        for ys in itertools.combinations(c8.elements(), m))
        assert len(flagged) == hits > 0


def test_engine_imports_no_family_or_diagnostic_module():
    """A fresh ``import hspeed.property`` loads only the layers the engine
    runs on: no family, diagnostic or CLI module."""
    import hspeed

    src = os.path.dirname(os.path.dirname(hspeed.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hspeed.property; print(' '.join(sorted(m for m in sys.modules if m.startswith('hspeed.'))))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [f"hspeed.{m}" for m in ("canon", "errors", "property", "simclass", "structures", "template")]

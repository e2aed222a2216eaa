import itertools
import math

import pytest

from conftest import all_graphs
from hspeed.canon import canonical_data
from hspeed.corpus import inf_clique_template
from hspeed.errors import BudgetExceeded, NonHereditaryPredicate, TooFewRows
from hspeed.property import (
    BASE_GRAPH,
    BASE_UNIFORM,
    BUILTIN_PROPERTIES,
    Consistent,
    K2,
    K3,
    P3,
    PropertySpec,
    Refuted,
    all_graphs_property,
    bipartite_property,
    complete_bipartite_property,
    edgeless_property,
    forbid,
    generate_members,
    growth_diagnostics,
    is_basic_upto,
    is_totally_bounded_upto,
    matching_property,
    speed,
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


# OEIS A000088 (graphs), A000595 (binary relations), A000665 (3-uniform
# hypergraphs), A000273 (loopless digraphs), A033995 / A047864 (bipartite
# graphs, unlabeled / labeled)
UNLABELED_GRAPHS = [1, 2, 4, 11, 34, 156, 1044, 12346]
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

    def test_only_invariant_maximal_children_are_canonized(self, monkeypatch):
        import hspeed.property

        canonized = []

        def recording(struct):
            canonized.append(struct)
            return canonical_data(struct)

        monkeypatch.setattr(hspeed.property, "canonical_data", recording)
        speed(all_graphs_property(), 7)
        for child in canonized:
            invariants = [incidence_invariant(child, x) for x in child.elements()]
            assert invariants[-1] == max(invariants), sorted(child.rel_tuples[0])
        assert len(canonized) < 4000  # every one of 11,290 children without the prefilter

    def test_heredity_witness_behind_non_maximal_vertex(self):
        # the edgeless graph on 3 vertices is the only non-member; each
        # 4-vertex member with it as a deletion (K2+2K1, P3+K1, K1,3) is a
        # child of a member only through a vertex of less than maximal degree
        spec = PropertySpec(
            language=GRAPH,
            base=BASE_GRAPH,
            predicate=("not-edgeless-3", lambda s: s.n != 3 or bool(s.tuples_of("E"))),
        )
        with pytest.raises(NonHereditaryPredicate):
            speed(spec, 4)

    @pytest.mark.slow
    def test_all_graphs_n8_oeis(self):
        row = speed(all_graphs_property(), 8).rows[-1]
        assert (row.unlabeled, row.labeled) == (UNLABELED_GRAPHS[7], 2 ** 28)


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
        from hspeed.property import BUILTIN_PROPERTIES

        for name, factory in BUILTIN_PROPERTIES.items():
            spec = factory()
            table = speed(spec, 6)
            for n in range(1, 7):
                assert table.labeled(n) == brute_labeled_count(spec, n), (name, n)

    def test_multiplicities_sum(self):
        table = speed(matching_property(), 6)
        for row in table.rows:
            assert sum(row.multiplicities) == row.labeled
            assert len(row.multiplicities) == row.unlabeled

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

    def test_non_hereditary_predicate_rejected(self):
        spec = PropertySpec(
            language=GRAPH,
            base=BASE_GRAPH,
            predicate=("even-edges", lambda s: len(s.tuples_of("E")) % 4 == 0),
        )
        with pytest.raises(NonHereditaryPredicate):
            speed(spec, 4)

    def test_non_hereditary_predicate_behind_empty_level(self):
        # no graph on 3 vertices is a member, so no member child reaches the
        # leaf certificate; every graph on 4 vertices satisfies the predicate
        spec = PropertySpec(GRAPH, BASE_GRAPH, predicate=("not-3", lambda s: s.n != 3))
        assert [r.labeled for r in speed(spec, 3).rows] == [1, 2, 0]
        with pytest.raises(NonHereditaryPredicate):
            speed(spec, 5)

    def test_empty_level_of_hereditary_predicate(self):
        spec = PropertySpec(GRAPH, BASE_GRAPH, predicate=("at-most-3", lambda s: s.n <= 3))
        assert [r.labeled for r in speed(spec, 5).rows] == [1, 2, 8, 0, 0]
        assert [r.labeled for r in speed(spec, 7).rows] == [1, 2, 8, 0, 0, 0, 0]

    def test_non_hereditary_predicate_behind_two_empty_levels(self):
        # levels 3 and 4 are empty; every graph on 5 and 6 vertices is a member
        spec = PropertySpec(GRAPH, BASE_GRAPH, predicate=("not-3-4", lambda s: s.n not in (3, 4)))
        assert [r.labeled for r in speed(spec, 4).rows] == [1, 2, 0, 0]
        with pytest.raises(NonHereditaryPredicate, match="members of size 5, none of size 3"):
            speed(spec, 6)

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

    def test_bipartite_membership(self):
        spec = bipartite_property()
        assert spec.member(P3)
        assert not spec.member(K3)
        table = speed(spec, 5)
        # oracle: count 2-colorable graphs directly
        assert table.labeled(5) == sum(1 for g in all_graphs(5) if spec.member(g))


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

import itertools
import random

import pytest

from conftest import all_graphs, random_structure
from hspeed.corpus import BUILTIN_TEMPLATES, halfgraph_blowup
from hspeed.errors import OutOfRange
from hspeed.simclass import (
    AtomicDiff,
    atomic_diff_from_key,
    atomic_diffs,
    class_count,
    decomposition,
    reconstruct_atom,
    sim_related,
)
from hspeed.structures import Language, Structure, apply_bijection, graph, make_structure
from hspeed.template import _partitions


def qftp_swap_oracle(struct: Structure, a: int, b: int) -> bool:
    """Literal check that every atomic fact is preserved by the a<->b swap.

    Scans, for every relation, every slot assignment over the full domain
    and compares truth before and after substituting a<->b; constants must
    stay put.
    """
    if a == b:
        return True
    swap = {e: e for e in struct.elements()}
    swap[a], swap[b] = b, a
    for val in struct.const_vals:
        if swap[val] != val:
            return False
    for (name, arity), tuples in zip(struct.language.relations, struct.rel_tuples):
        for t in itertools.product(struct.elements(), repeat=arity):
            if (tuple(swap[e] for e in t) in tuples) != (t in tuples):
                return False
    return True


class TestSimRelated:
    def test_empty_graph(self):
        m = graph(4, [])
        assert all(sim_related(m, a, b) for a in m.elements() for b in m.elements())

    def test_four_cycle_opposite(self, structured_graphs):
        c4 = structured_graphs["C4"]
        assert qftp_swap_oracle(c4, 1, 3)  # oracle first
        assert sim_related(c4, 1, 3)
        assert not sim_related(c4, 1, 2)

    def test_path_endpoints(self):
        p3 = graph(3, [(1, 2), (2, 3)])
        assert not qftp_swap_oracle(p3, 1, 2)
        assert not sim_related(p3, 1, 2)
        assert sim_related(p3, 1, 3)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sim_related(graph(2, []), 1, 5)

    def test_matches_oracle_exhaustively(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for a in g.elements():
                    for b in g.elements():
                        assert sim_related(g, a, b) == qftp_swap_oracle(g, a, b)
        # arity 3 with diagonal tuples, binary relations with loops, and a
        # constant; dense and sparse draws so that some swaps do hold
        with_constant = Language((("R", 2),), ("c",))
        for seed in range(30):
            n = 2 + seed % 4
            p = (0.1, 0.5, 0.9)[seed % 3]
            ternary = random_structure(seed, n, arity=3, p=p)
            binary = random_structure(seed, n, arity=2, p=p)
            named = make_structure(with_constant, n, {"R": binary.tuples_of("R")}, {"c": 1 + seed % n})
            for m in (ternary, binary, named):
                for a in m.elements():
                    for b in m.elements():
                        assert sim_related(m, a, b) == qftp_swap_oracle(m, a, b)

    def test_constants_break_relation(self):
        lang = Language((("E", 2),), ("c",))
        m = make_structure(lang, 3, {"E": []}, {"c": 1})
        assert not sim_related(m, 1, 2)
        assert sim_related(m, 2, 3)


class TestDecomposition:
    def test_complete_bipartite(self, structured_graphs):
        d = decomposition(structured_graphs["K33"])
        assert [len(c) for c in d.classes] == [3, 3]
        assert d.sigma_of(AtomicDiff("E", (0, 1))) == frozenset({(1, 2), (2, 1)})

    def test_five_cycle_singletons(self, structured_graphs):
        assert [len(c) for c in decomposition(structured_graphs["C5"]).classes] == [1] * 5

    def test_four_cycle(self, structured_graphs):
        d = decomposition(structured_graphs["C4"])
        assert set(d.classes) == {frozenset({1, 3}), frozenset({2, 4})}

    def test_class_count_examples(self, structured_graphs):
        assert class_count(graph(7, [])) == 1
        assert class_count(structured_graphs["M4"]) == 4
        assert class_count(structured_graphs["K33"]) == 2

    def test_sizes_nondecreasing_with_min_tiebreak(self):
        m = graph(5, [(1, 2), (1, 3), (2, 3)])  # triangle plus two isolated
        d = decomposition(m)
        assert [sorted(c) for c in d.classes] == [[4, 5], [1, 2, 3]]

    def test_equivalence_relation_exhaustive(self):
        # reflexive, symmetric, transitive on every graph with n <= 5
        for n in range(1, 6):
            for g in all_graphs(n):
                rel = {
                    (a, b): sim_related(g, a, b)
                    for a in g.elements()
                    for b in g.elements()
                }
                for a in g.elements():
                    assert rel[(a, a)]
                    for b in g.elements():
                        assert rel[(a, b)] == rel[(b, a)]
                        for c in g.elements():
                            if rel[(a, b)] and rel[(b, c)]:
                                assert rel[(a, c)]
                # the decomposition's classes are exactly the relation's classes
                classes = {frozenset(b for b in g.elements() if rel[(a, b)]) for a in g.elements()}
                assert set(decomposition(g).classes) == classes

    def test_reconstruction_exhaustive(self):
        # decomposition() verifies sigma reconstruction internally; run it on
        # every graph with n <= 5 so a violation would raise
        for n in range(1, 6):
            for g in all_graphs(n):
                decomposition(g)

    def test_diagonal_atoms(self):
        lang = Language((("R", 2),))
        m = make_structure(lang, 3, {"R": [(1, 1), (2, 2), (1, 2), (2, 1)]})
        d = decomposition(m)
        assert d.sigma_of(AtomicDiff("R", (0, 0))) == frozenset({(2,)})
        rebuilt = reconstruct_atom(d.classes, d.sigma_of(AtomicDiff("R", (0, 0))), AtomicDiff("R", (0, 0)))
        assert rebuilt == {(1, 1), (2, 2)}

    def test_isomorphism_invariance(self):
        for seed in range(6):
            m = random_structure(seed, 5)
            perm = dict(zip(range(1, 6), [3, 5, 1, 2, 4]))
            image = apply_bijection(m, perm)
            dm, di = decomposition(m), decomposition(image)
            assert sorted(len(c) for c in dm.classes) == sorted(len(c) for c in di.classes)
            # signatures agree up to a class permutation
            sizes_m = [len(c) for c in dm.classes]
            found = False
            for p in itertools.permutations(range(1, dm.k + 1)):
                if any(sizes_m[p[i] - 1] != len(di.classes[i]) for i in range(dm.k)):
                    continue
                if all(
                    frozenset(tuple(p[j - 1] for j in idx) for idx in entries) == di.sigma_of(diff)
                    for diff, entries in dm.sigma
                ):
                    found = True
                    break
            assert found

    def test_class_preserving_permutations_are_automorphisms(self, structured_graphs):
        for name in ("C4", "K33", "M3", "C6"):
            m = structured_graphs[name]
            d = decomposition(m)
            for _ in range(20):
                import random

                rng = random.Random(hash(name) & 0xFFFF)
                perm = {}
                for cls in d.classes:
                    members = sorted(cls)
                    shuffled = members[:]
                    rng.shuffle(shuffled)
                    perm.update(dict(zip(members, shuffled)))
                assert apply_bijection(m, perm) == m


def product_filter_oracle(classes, entries, diff):
    """Every value choice over the indexed classes, kept when no value repeats."""
    tuples = set()
    for idx in entries:
        for values in itertools.product(*[classes[i - 1] for i in idx]):
            if len(set(values)) == len(values):
                tuples.add(diff.expand(values))
    return tuples


class TestReconstructAtom:
    """reconstruct_atom filters repeated values only where an index repeats
    a class; over disjoint classes it equals the product-and-filter oracle."""

    def assert_matches_oracle(self, classes, sigma):
        for diff, entries in sigma:
            assert reconstruct_atom(classes, entries, diff) == product_filter_oracle(classes, entries, diff)

    def test_builtin_templates_every_partition(self):
        # asymmetric-two-class and inf-clique repeat class 1 in their signature
        assert (1, 1) in dict(BUILTIN_TEMPLATES["asymmetric-two-class"]().sigma)[AtomicDiff("E", (0, 1))]
        for make in BUILTIN_TEMPLATES.values():
            template = make()
            for n in range(9):
                for parts in _partitions(template, n, [0] * template.k):
                    self.assert_matches_oracle(tuple(frozenset(P) for P in parts), template.sigma)

    def test_halfgraph_blowup_decomposition(self):
        d = decomposition(halfgraph_blowup(8))
        self.assert_matches_oracle(d.classes, d.sigma)

    def test_random_graphs(self):
        rng = random.Random(35)
        for n in range(1, 9):
            for _ in range(6):
                pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5]
                d = decomposition(graph(n, pairs))
                self.assert_matches_oracle(d.classes, d.sigma)

    def test_random_ternary_signatures(self):
        # random disjoint classes and random index tuples, repeats included
        rng = random.Random(7)
        diffs = atomic_diffs(Language((("R", 3),)))
        for _ in range(40):
            elems = list(range(1, 10))
            rng.shuffle(elems)
            cuts = sorted(rng.sample(range(1, 9), 2))
            classes = (frozenset(elems[:cuts[0]]), frozenset(elems[cuts[0]:cuts[1]]), frozenset(elems[cuts[1]:]))
            sigma = [(diff, frozenset(tuple(rng.randint(1, 3) for _ in range(diff.num_vars))
                                      for _ in range(rng.randint(0, 5))))
                     for diff in diffs]
            self.assert_matches_oracle(classes, sigma)


class TestAtomicDiffs:
    def test_enumeration_counts(self):
        assert len(atomic_diffs(Language((("E", 2),)))) == 2  # x1 x2 and x1 x1
        assert len(atomic_diffs(Language((("R", 3),)))) == 5  # set partitions of 3 slots

    def test_key_round_trip(self):
        lang = Language((("R", 3),))
        for diff in atomic_diffs(lang):
            assert atomic_diff_from_key(lang, diff.key()) == diff

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            AtomicDiff("E", (1, 0))  # not first-occurrence numbered

import itertools
import math
from fractions import Fraction

import pytest

from conftest import all_graphs
from hspeed.corpus import (
    BUILTIN_TEMPLATES,
    asymmetric_two_class_template,
    clique,
    clique_plus_singleton_template,
    complete_bipartite,
    inf_clique_template,
    inf_empty_template,
    matching,
    symmetric_bipartite_template,
)
from hspeed.errors import (
    BudgetExceeded,
    FitFailed,
    LanguageHasConstants,
    MixedSizeCase,
)
from hspeed.simclass import decomposition
from hspeed.structures import GRAPH, Language, graph, make_structure
from hspeed.template import (
    Disjoint,
    Equivalent,
    INF,
    Template,
    aut_star,
    count_compatible,
    enumerate_compatible,
    in_age,
    instantiate,
    is_compatible,
    make_template,
    omega_count,
    speed_form,
    template_from_json,
    template_of,
    template_to_json,
    templates_equivalent_or_disjoint,
    union_speed,
)


def brute_compatible_structures(template: Template, n: int) -> set:
    """Oracle: scan every assignment [n] -> [k], keep those matching the
    partition constraints, and collect the instantiated structures."""
    k = template.k
    K = template.threshold
    out = set()
    for assignment in itertools.product(range(1, k + 1), repeat=n):
        parts = tuple(
            frozenset(e for e, c in zip(range(1, n + 1), assignment) if c == i)
            for i in range(1, k + 1)
        )
        ok = True
        for size, part in zip(template.sizes, parts):
            if size == INF:
                if len(part) <= K:
                    ok = False
                    break
            elif len(part) != size:
                ok = False
                break
        if ok:
            out.add(instantiate(template, parts, n))
    return out


def brute_age(template: Template, n: int) -> set:
    """Oracle: instantiations of every assignment [n] -> [k] whose part
    sizes stay within the finite class sizes."""
    k = template.k
    out = set()
    for assignment in itertools.product(range(1, k + 1), repeat=n):
        parts = tuple(
            frozenset(e for e, c in zip(range(1, n + 1), assignment) if c == i)
            for i in range(1, k + 1)
        )
        if all(len(part) <= size for size, part in zip(template.sizes, parts)):
            out.add(instantiate(template, parts, n))
    return out


class TestTemplateOf:
    def test_empty_graph(self):
        t = template_of(graph(5, []), {1})
        assert t.k == 1 and t.sizes == (INF,)
        assert all(not entries for _, entries in t.sigma)

    def test_complete_bipartite(self):
        t = template_of(complete_bipartite(3, 3), {1, 2})
        assert t.sizes == (INF, INF)
        assert dict(t.sigma)[[d for d, _ in t.sigma if d.key() == "E(x1,x2)"][0]] == frozenset(
            {(1, 2), (2, 1)}
        )

    def test_clique_plus_isolated(self):
        m = graph(6, itertools.combinations(range(1, 6), 2))  # K5 plus vertex 6
        d = decomposition(m)
        clique_class = next(i for i, c in enumerate(d.classes, start=1) if len(c) == 5)
        t = template_of(m, {clique_class})
        assert t.sizes == (1, INF)
        sig = {diff.key(): entries for diff, entries in t.sigma}
        assert sig["E(x1,x2)"] == frozenset({(2, 2)})

    def test_rejects_constants(self):
        lang = Language((("E", 2),), ("c",))
        m = make_structure(lang, 3, {"E": []}, {"c": 1})
        with pytest.raises(LanguageHasConstants):
            template_of(m, {1})

    def test_constant_in_marked_class(self):
        # a language with constants is refused before any class is marked
        lang = Language((("E", 2),), ("c",))
        m = make_structure(lang, 3, {"E": []}, {"c": 1})
        with pytest.raises(LanguageHasConstants):
            template_of(m, {1})


class TestCompatibility:
    def test_clique_template(self):
        assert is_compatible(clique(8), inf_clique_template()) is not None

    def test_bipartite_witness(self):
        witness = is_compatible(complete_bipartite(4, 4), symmetric_bipartite_template())
        assert witness is not None
        assert {frozenset(p) for p in witness} == {frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8})}

    def test_small_side_rejected(self):
        k26 = complete_bipartite(2, 6)
        assert is_compatible(k26, symmetric_bipartite_template()) is None
        # oracle: exhaustive partition scan finds nothing either
        assert all(
            k26 not in brute_compatible_structures(symmetric_bipartite_template(), 8)
            for _ in [0]
        )

    def test_matches_brute_force_on_all_small_graphs(self):
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            for n in range(1, 6):
                compatible = brute_compatible_structures(t, n)
                for g in all_graphs(n):
                    assert (is_compatible(g, t) is not None) == (g in compatible), (name, g)

    def test_witness_parts_are_swap_classes(self):
        for factory in BUILTIN_TEMPLATES.values():
            t = factory()
            n = t.threshold + 2 + t.finite_total + 1
            for member in enumerate_compatible(t, n):
                witness = is_compatible(member, t)
                assert witness is not None
                assert set(witness) == set(decomposition(member).classes)


class TestCounting:
    def test_omega_single_block(self):
        assert omega_count(inf_clique_template(), 8) == 1

    def test_omega_two_blocks_binomial_oracle(self):
        expected = sum(math.comb(8, i) for i in range(3, 6))
        assert expected == 182
        assert omega_count(symmetric_bipartite_template(), 8) == 182

    def test_omega_singleton_choice(self):
        assert omega_count(clique_plus_singleton_template(), 5) == 5

    def test_aut_star_orders(self):
        assert aut_star(inf_clique_template())[1] == 1
        assert aut_star(symmetric_bipartite_template())[1] == 2
        assert aut_star(asymmetric_two_class_template())[1] == 1

    def test_count_examples(self):
        assert count_compatible(inf_clique_template(), 8) == 1
        assert count_compatible(symmetric_bipartite_template(), 8) == 91
        assert count_compatible(clique_plus_singleton_template(), 5) == 5

    def test_count_matches_brute_force(self):
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            n = t.threshold + 2 + t.finite_total
            assert count_compatible(t, n) == len(brute_compatible_structures(t, n)), name

    def test_enumerate_clique(self):
        members = enumerate_compatible(inf_clique_template(), 4)
        assert members == [clique(4)]

    def test_enumerate_cross_validates_count(self):
        t = symmetric_bipartite_template()
        assert len(enumerate_compatible(t, 8)) == count_compatible(t, 8) == 91

    def test_mixed_signature_resolved_by_oracle(self):
        # clique side + independent side, complete between: both orders land in
        # distinct structures, so the count is C(7,3) + C(7,4) = 70.
        t = make_template(GRAPH, [INF, INF], {"E(x1,x2)": [(1, 2), (2, 1), (1, 1)]})
        oracle = brute_compatible_structures(t, 7)
        assert len(oracle) == 70
        assert count_compatible(t, 7) == 70
        assert len(enumerate_compatible(t, 7)) == 70

    def test_formula_vs_enumeration_window(self):
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            form = speed_form(t, (t.ell * t.threshold + t.finite_total + 1, 10))
            for n in range(t.threshold + 1, 11):  # n0 + 1 >= K + 1
                assert count_compatible(t, n) == len(enumerate_compatible(t, n)), (name, n)
                if n > form.n0:
                    assert form.evaluate(n) == count_compatible(t, n), (name, n)

    def test_enumeration_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_compatible(inf_clique_template(), 11)

    def test_aut_star_invariance_on_partitions(self):
        t = symmetric_bipartite_template()
        perms, _ = aut_star(t)
        parts = (frozenset({1, 2, 3}), frozenset({4, 5, 6, 7}))
        for p in perms:
            permuted = tuple(parts[p[i] - 1] for i in range(len(parts)))
            assert instantiate(t, permuted, 7) == instantiate(t, parts, 7)


def all_partitions_enumeration(template: Template, n: int) -> list:
    """Oracle: instantiate every ordered partition of [n] matching the sizes,
    in order of the per-part (size, sorted elements) key, keeping the first
    structure built for each member."""
    K = template.threshold
    partitions = []
    for assignment in itertools.product(range(template.k), repeat=n):
        parts = [[e for e, c in zip(range(1, n + 1), assignment) if c == i] for i in range(template.k)]
        if all(len(P) == s if s != INF else len(P) > K for P, s in zip(parts, template.sizes)):
            partitions.append(parts)
    partitions.sort(key=lambda parts: [(len(P), P) for P in parts])
    seen: dict = {}
    for parts in partitions:
        seen.setdefault(instantiate(template, tuple(frozenset(P) for P in parts), n))
    return sorted(seen, key=lambda s: sorted(sorted(t) for ts in s.rel_tuples for t in ts))


class TestEnumerateOrbits:
    """enumerate_compatible instantiates one partition per Aut* orbit."""

    def test_one_instantiation_per_member(self, monkeypatch):
        import hspeed.template

        calls = []

        def counting(template, parts, n):
            calls.append(parts)
            return instantiate(template, parts, n)

        monkeypatch.setattr(hspeed.template, "instantiate", counting)
        members = enumerate_compatible(symmetric_bipartite_template(), 10)
        assert len(calls) == len(members) == 456  # 912 partitions, |Aut*| = 2

    def test_matches_all_partitions_oracle(self):
        templates = {name: f() for name, f in BUILTIN_TEMPLATES.items()}
        # |Aut*| = 6 and 2, with three classes
        templates["complete-tripartite"] = make_template(
            GRAPH, [INF, INF, INF], {"E(x1,x2)": [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]}
        )
        templates["apex-bipartite"] = make_template(
            GRAPH, [1, INF, INF], {"E(x1,x2)": [(1, 2), (2, 1), (1, 3), (3, 1)]}
        )
        for name, t in templates.items():
            for n in range(0, 11 if t.k <= 2 else 10):  # the oracle scans k^n assignments
                members = enumerate_compatible(t, n)
                oracle = all_partitions_enumeration(t, n)
                assert members == oracle and repr(members) == repr(oracle), (name, n)
        tripartite = templates["complete-tripartite"]
        assert len(enumerate_compatible(tripartite, 9)) == count_compatible(tripartite, 9) == 280

    def test_members_equal_their_validated_rebuild(self):
        # instantiate builds through Structure._trusted, which skips validation
        for name, t in oracle_templates().items():
            for n in range(9):
                for member in enumerate_compatible(t, n):
                    rebuilt = make_structure(member.language, member.n, dict(zip(
                        (rel for rel, _ in member.language.relations), member.rel_tuples)))
                    assert member == rebuilt and hash(member) == hash(rebuilt), (name, n)

    def test_instantiate_refuses_parts_that_do_not_partition(self):
        t = symmetric_bipartite_template()
        for parts, n in (((frozenset({1, 2}), frozenset({2, 3})), 3),  # overlapping
                         ((frozenset({1}), frozenset({2})), 3),  # 3 is left out
                         ((frozenset({1, 2}), frozenset({3, 4})), 3)):  # 4 is outside [3]
            with pytest.raises(ValueError, match="partition"):
                instantiate(t, parts, n)


def three_infinite_templates() -> dict:
    """Two templates with three infinite classes and finite classes beside them."""
    return {
        # K = 3; an edge, a clique joined to a 3-set, and a complete bipartite pair: |Aut*| = 2
        "2,3,inf,inf,inf": make_template(
            GRAPH, [2, 3, INF, INF, INF], {"E(x1,x2)": [(1, 1), (3, 3), (2, 3), (3, 2), (4, 5), (5, 4)]}
        ),
        # an apex joined to three independent sets: |Aut*| = 6
        "1,inf,inf,inf": make_template(
            GRAPH, [1, INF, INF, INF], {"E(x1,x2)": [(1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)]}
        ),
    }


def oracle_templates() -> dict:
    return {**{name: f() for name, f in BUILTIN_TEMPLATES.items()}, **three_infinite_templates()}


class TestInclusionExclusion:
    """count_compatible against the composition sum omega_count."""

    def test_matches_composition_sum(self):
        # every part is non-empty, so Aut* acts freely on Omega and divides it
        for name, t in oracle_templates().items():
            _, order = aut_star(t)
            for n in range(0, 61):
                q, r = divmod(omega_count(t, n), order)
                assert r == 0 and count_compatible(t, n) == q, (name, n)

    def test_order_of_the_three_infinite_templates(self):
        orders = {name: aut_star(t)[1] for name, t in three_infinite_templates().items()}
        assert orders == {"2,3,inf,inf,inf": 2, "1,inf,inf,inf": 6}

    def test_aut_star_permutations_in_order(self):
        # enumerate_compatible reads its preimages off this tuple, so its order is pinned
        perms = {name: aut_star(t)[0] for name, t in oracle_templates().items()}
        assert perms == {
            "inf-clique": ((1,),),
            "inf-empty": ((1,),),
            "symmetric-bipartite": ((1, 2), (2, 1)),
            "clique-plus-singleton": ((1, 2),),
            "asymmetric-two-class": ((1, 2),),
            "2,3,inf,inf,inf": ((1, 2, 3, 4, 5), (1, 2, 3, 5, 4)),
            "1,inf,inf,inf": ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 2, 3), (1, 4, 3, 2)),
        }

    def test_large_n_skips_the_composition_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("composition sum on the counting path")

        monkeypatch.setattr("hspeed.template._compositions", refuse)
        n = 4500
        expected = 2 ** (n - 1) - 1 - n - math.comb(n, 2)
        assert count_compatible(symmetric_bipartite_template(), n) == expected
        assert union_speed([symmetric_bipartite_template(), inf_empty_template()], n) == expected + 1
        with pytest.raises(AssertionError):
            omega_count(symmetric_bipartite_template(), n)


class TestSpeedForm:
    def test_singleton_plus_infinite(self):
        form = speed_form(clique_plus_singleton_template(), (4, 12))
        assert form.ell == 1
        assert form.degree(1) == 1  # one element in a finite class
        for n in range(13, 17):
            assert form.evaluate(n) == count_compatible(clique_plus_singleton_template(), n)
        assert form.evaluate(9) == 9

    def test_symmetric_bipartite_closed_form(self):
        form = speed_form(symmetric_bipartite_template(), (6, 12))
        # 2^(n-1) - (n^2 + n + 2)/2
        assert form.polys[1] == (Fraction(1, 2),)
        assert form.polys[0] == (Fraction(-1), Fraction(-1, 2), Fraction(-1, 2))
        assert form.evaluate(8) == 2**7 - 37 == 91

    def test_empty_template(self):
        form = speed_form(inf_empty_template(), (4, 10))
        assert form.ell == 1 and form.degree(1) == 0
        assert form.evaluate(30) == 1

    def test_degree_equals_finite_size_for_single_base(self):
        for factory in (inf_clique_template, inf_empty_template, clique_plus_singleton_template):
            t = factory()
            if t.ell != 1:
                continue
            form = speed_form(t, (t.ell * t.threshold + t.finite_total + 1, 12))
            assert form.degree(1) == t.finite_total

    def test_verification_on_held_out_points(self):
        for factory in BUILTIN_TEMPLATES.values():
            t = factory()
            form = speed_form(t, (6, 12))
            for n in range(13, 17):
                assert form.evaluate(n) == count_compatible(t, n)

    def test_n0_is_the_last_point_off_the_form(self):
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            n0 = t.ell * t.threshold + t.finite_total
            form = speed_form(t, (n0 + 1, n0 + 1))
            assert form.n0 == n0
            assert form.evaluate(n0) != count_compatible(t, n0), name
            for n in range(n0 + 1, n0 + 16):
                assert form.evaluate(n) == count_compatible(t, n), (name, n)

    def test_window_below_n0(self):
        with pytest.raises(FitFailed, match="below the validity threshold 4"):
            speed_form(symmetric_bipartite_template(), (3, 16))

    def test_window_at_n0_is_refused(self):
        # the base-0 terms do not vanish at n0 itself, so no window may start there
        with pytest.raises(FitFailed, match="at or below the validity threshold 4; it must start above n0"):
            speed_form(symmetric_bipartite_template(), (4, 16))
        assert speed_form(symmetric_bipartite_template(), (5, 16)).n0 == 4

    def test_empty_window(self):
        with pytest.raises(FitFailed, match="empty"):
            speed_form(symmetric_bipartite_template(), (7, 6))

    def test_short_window_fits(self):
        # the derived form needs no minimum number of points
        form = speed_form(symmetric_bipartite_template(), (6, 6))
        assert form == speed_form(symmetric_bipartite_template(), (6, 16))

    def test_polys_lengths_follow_the_degree_bound(self):
        for name, t in oracle_templates().items():
            n0 = t.ell * t.threshold + t.finite_total
            form = speed_form(t, (n0 + 1, n0 + 3))
            c, K = t.finite_total, t.threshold
            assert [len(p) for p in form.polys] == [c + (t.ell - i) * K + 1 for i in range(1, t.ell + 1)], name


class TestEquivalence:
    def test_self_equivalent(self):
        t = symmetric_bipartite_template()
        res = templates_equivalent_or_disjoint(t, t)
        assert isinstance(res, Equivalent)

    def test_clique_vs_empty_disjoint(self):
        res = templates_equivalent_or_disjoint(inf_clique_template(), inf_empty_template())
        assert isinstance(res, Disjoint)

    def test_swapped_class_order(self):
        a = asymmetric_two_class_template()  # clique class listed first
        b = make_template(GRAPH, [INF, INF], {"E(x1,x2)": [(2, 2)]})  # listed second
        res = templates_equivalent_or_disjoint(a, b)
        assert isinstance(res, Equivalent)
        assert res.perm == (2, 1)
        # sigma-search oracle: both instantiate the same structure sets
        assert set(enumerate_compatible(a, 7)) == set(enumerate_compatible(b, 7))

    def test_mixed_absorption_diagnostic(self):
        two_cliques = make_template(GRAPH, [INF, INF], {"E(x1,x2)": [(1, 1), (2, 2)]})
        finite_clique = make_template(GRAPH, [5, INF], {"E(x1,x2)": [(1, 1), (2, 2)]})
        with pytest.raises(MixedSizeCase):
            templates_equivalent_or_disjoint(two_cliques, finite_clique)

    def test_unequal_finite_sizes_are_disjoint(self):
        # 2 and 3 neither match nor absorb: no size is infinite on either side
        a = make_template(GRAPH, [2, INF], {"E(x1,x2)": [(2, 2)]})
        b = make_template(GRAPH, [3, INF], {"E(x1,x2)": [(2, 2)]})
        assert isinstance(templates_equivalent_or_disjoint(a, b), Disjoint)

    def test_infinite_class_absorbing_a_finite_one_is_mixed(self):
        # b's infinite class takes a's size-3 class, since 3 > K_b = 2
        a = make_template(GRAPH, [3, INF], {"E(x1,x2)": [(1, 2), (2, 1)]})
        b = make_template(GRAPH, [INF, INF], {"E(x1,x2)": [(1, 2), (2, 1)]})
        assert b.threshold == 2
        with pytest.raises(MixedSizeCase):
            templates_equivalent_or_disjoint(a, b)

    def test_union_examples(self):
        assert union_speed([inf_clique_template(), inf_empty_template()], 6) == 2
        assert union_speed([symmetric_bipartite_template(), inf_empty_template()], 8) == 92
        assert union_speed([symmetric_bipartite_template()] * 2, 8) == 91

    def test_union_disjointness_by_enumeration(self):
        bip = set(enumerate_compatible(symmetric_bipartite_template(), 8))
        empty = set(enumerate_compatible(inf_empty_template(), 8))
        assert not (bip & empty)


class TestAge:
    def test_matches_brute_force_on_all_small_graphs(self):
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            for n in range(1, 6):
                age = brute_age(t, n)
                for g in all_graphs(n):
                    assert in_age(g, t) == (g in age), (name, g)

    def test_clique_age(self):
        t = inf_clique_template()
        assert in_age(clique(4), t)
        assert in_age(graph(1, []), t)
        assert not in_age(graph(2, []), t)

    def test_bipartite_age_allows_small_sides(self):
        t = symmetric_bipartite_template()
        assert in_age(complete_bipartite(1, 2), t)
        assert in_age(graph(3, []), t)  # all on one side
        assert not in_age(graph(3, [(1, 2), (2, 3), (1, 3)]), t)


class TestJson:
    def test_round_trip(self):
        for factory in BUILTIN_TEMPLATES.values():
            t = factory()
            assert template_from_json(template_to_json(t)) == t

    def test_round_trip_keeps_the_language_order(self):
        # U/1 before R/2: the language lists U(x1) first, though "R(x1,x1)" sorts first
        lang = Language((("U", 1), ("R", 2)))
        star = make_structure(lang, 3, {"U": [(1,)], "R": [(1, 2), (1, 3)]})
        t = template_of(star, {2})
        assert [d.key() for d, _ in t.sigma] == ["U(x1)", "R(x1,x1)", "R(x1,x2)"]
        built = make_template(lang, [1, INF], {"R(x1,x2)": [(1, 2)], "U(x1)": [(1,)]})
        assert built == t and hash(built) == hash(t)
        back = template_from_json(template_to_json(t))
        assert back == t and hash(back) == hash(t)

    def test_declared_threshold_checked(self):
        obj = template_to_json(symmetric_bipartite_template())
        obj["K"] = 7
        with pytest.raises(ValueError):
            template_from_json(obj)


class TestMixedTemplate:
    """One finite singleton plus two infinite classes: a clique component
    and a star whose center is the singleton class.

    Joining the singleton to the clique instead would merge those classes
    in every instantiation (the collapsed variant below), which is exactly
    the degenerate shape the counting formula excludes.
    """

    def make(self):
        return make_template(GRAPH, [1, INF, INF], {"E(x1,x2)": [(2, 2), (1, 3), (3, 1)]})

    def test_count_closed_form(self):
        t = self.make()
        assert (t.threshold, t.finite_total, t.ell) == (2, 1, 2)
        for n in range(8, 14):
            # n choices of apex times binomial tail over the clique size
            assert count_compatible(t, n) == n * 2 ** (n - 1) - n * (n * n - n + 2)

    def test_count_matches_enumeration(self):
        t = self.make()
        assert count_compatible(t, 8) == len(enumerate_compatible(t, 8)) == 560
        for member in enumerate_compatible(t, 8):
            assert sorted(len(c) for c in decomposition(member).classes) in ([1, 3, 4], [1, 4, 3])

    def test_collapsed_classes_break_the_formula(self):
        # apex joined to the clique: instantiations merge classes 1 and 2,
        # so enumeration falls below the partition-count formula
        bad = make_template(GRAPH, [1, INF, INF], {"E(x1,x2)": [(2, 2), (1, 2), (2, 1)]})
        assert count_compatible(bad, 8) == 560
        members = enumerate_compatible(bad, 8)
        assert len(members) == 126  # C(8,4) + C(8,5): a clique set plus isolated rest
        for member in members:
            assert len(decomposition(member).classes) == 2  # merged

    def test_speed_form_two_bases_with_finite_class(self):
        from fractions import Fraction as F

        t = self.make()
        form = speed_form(t, (6, 16))
        assert form.polys[1] == (F(0), F(1, 2))  # p_2(n) = n/2
        assert form.polys[0] == (F(0), F(-2), F(1), F(-1))  # -(n^3 - n^2 + 2n)
        for n in (17, 18):
            assert form.evaluate(n) == count_compatible(t, n)

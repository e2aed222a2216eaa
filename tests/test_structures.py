import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_graphs,
    brute_automorphism_count,
    brute_group_order,
    brute_isomorphic,
    degree_sequence,
    random_structure,
)
from hspeed.errors import LanguageMismatch, MissingConstant, NotInjective, OutOfRange
from hspeed.structures import (
    _integer_kth_root,
    And,
    Atom,
    GRAPH,
    Interpretation,
    Language,
    Not,
    Structure,
    apply_bijection,
    apply_interpretation,
    automorphisms,
    canonical_form,
    dump_structure,
    graph,
    induced_substructure,
    is_isomorphic,
    json_text,
    load_structure,
    make_structure,
    structure_from_json,
    structure_to_json,
    uniform_language,
)


def complete_graph(n):
    return graph(n, itertools.combinations(range(1, n + 1), 2))


class TestInducedSubstructure:
    def test_clique_restriction(self):
        sub, relabel = induced_substructure(complete_graph(4), {1, 2, 3})
        assert sub == complete_graph(3)
        assert relabel == {1: 1, 2: 2, 3: 3}

    def test_empty_graph(self):
        sub, relabel = induced_substructure(graph(5, []), {2, 4})
        assert sub == graph(2, [])
        assert relabel == {2: 1, 4: 2}

    def test_hyperedge_cut(self):
        # oracle: a tuple survives the restriction iff its support lies in X
        lang = uniform_language(3)
        m = make_structure(lang, 4, {"R": [(1, 2, 3)]})
        X = {1, 2, 4}
        expected = {t for t in m.tuples_of("R") if set(t) <= X}
        assert expected == set()
        sub, _ = induced_substructure(m, X)
        assert sub.tuples_of("R") == frozenset()

    def test_missing_constant(self):
        lang = Language((("E", 2),), ("c",))
        m = make_structure(lang, 3, {"E": []}, {"c": 3})
        with pytest.raises(MissingConstant):
            induced_substructure(m, {1, 2})


class TestApplyBijection:
    def test_identity(self):
        m = graph(4, [(1, 2), (3, 4)])
        assert apply_bijection(m, {1: 1, 2: 2, 3: 3, 4: 4}) == m

    def test_path_reversal(self):
        p = graph(3, [(1, 2), (2, 3)])
        assert apply_bijection(p, {1: 3, 2: 2, 3: 1}) == p

    def test_directed_edge(self):
        m = make_structure(Language((("R", 2),)), 2, {"R": [(1, 2)]})
        image = apply_bijection(m, {1: 2, 2: 1})
        assert image.tuples_of("R") == frozenset({(2, 1)})

    def test_not_injective(self):
        with pytest.raises(NotInjective):
            apply_bijection(graph(2, []), {1: 1, 2: 1})

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
    def test_round_trip(self, seed, n):
        import random

        m = random_structure(seed, n)
        perm = list(range(1, n + 1))
        random.Random(seed + 1).shuffle(perm)
        f = dict(zip(range(1, n + 1), perm))
        finv = {v: k for k, v in f.items()}
        assert apply_bijection(apply_bijection(m, f), finv) == m


class TestIsomorphism:
    def test_cycle_vs_star(self, structured_graphs):
        c4, k13 = structured_graphs["C4"], structured_graphs["K13"]
        assert degree_sequence(c4) != degree_sequence(k13)  # degree oracle
        ok, witness = is_isomorphic(c4, k13)
        assert not ok and witness is None

    def test_path_relabeling(self, structured_graphs):
        p4 = structured_graphs["P4"]
        other = graph(4, [(2, 4), (4, 1), (1, 3)])
        ok, witness = is_isomorphic(p4, other)
        assert ok
        assert apply_bijection(p4, witness) == other

    def test_single_hyperedges(self):
        lang = uniform_language(3)
        a = make_structure(lang, 4, {"R": list(itertools.permutations((1, 2, 3)))})
        b = make_structure(lang, 4, {"R": list(itertools.permutations((2, 3, 4)))})
        assert brute_isomorphic(a, b)  # oracle over all 24 bijections
        ok, witness = is_isomorphic(a, b)
        assert ok
        assert apply_bijection(a, witness) == b

    def test_language_mismatch(self):
        a = graph(2, [])
        b = make_structure(uniform_language(2), 2, {})
        with pytest.raises(LanguageMismatch):
            is_isomorphic(a, b)

    def test_equivalence_relation(self):
        corpus = [random_structure(s, 4) for s in range(8)]
        for a in corpus:
            ok, w = is_isomorphic(a, a)
            assert ok
        for a, b in itertools.combinations(corpus, 2):
            ab, _ = is_isomorphic(a, b)
            ba, _ = is_isomorphic(b, a)
            assert ab == ba == brute_isomorphic(a, b)


class TestCanonicalForm:
    def test_idempotent(self, structured_graphs):
        for m in structured_graphs.values():
            cf, _ = canonical_form(m)
            cf2, _ = canonical_form(cf)
            assert cf == cf2

    def test_all_relabelings_agree(self, structured_graphs):
        p4 = structured_graphs["P4"]
        forms = set()
        for perm in itertools.permutations(range(1, 5)):
            image = apply_bijection(p4, dict(zip(range(1, 5), perm)))
            forms.add(canonical_form(image)[0])
        assert len(forms) == 1

    def test_separates_nonisomorphic(self, structured_graphs):
        assert canonical_form(structured_graphs["C4"])[0] != canonical_form(structured_graphs["K13"])[0]

    def test_exhaustive_small_graphs(self):
        # unlabeled class counts 1, 2, 4, 11, 34 and labeled totals 2^C(n,2)
        expected_classes = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n in range(1, 6):
            forms = {}
            for g in all_graphs(n):
                forms.setdefault(canonical_form(g)[0], []).append(g)
            assert len(forms) == expected_classes[n]
            labeled = sum(math.factorial(n) // automorphisms(rep).order for rep in forms)
            assert labeled == 2 ** math.comb(n, 2)
            # within a class everything is isomorphic (oracle spot check)
            for rep, members in forms.items():
                assert brute_isomorphic(rep, members[0])


class TestAutomorphisms:
    def test_triangle(self, structured_graphs):
        assert automorphisms(structured_graphs["K3"]).order == 6

    def test_four_cycle_brute(self, structured_graphs):
        c4 = structured_graphs["C4"]
        assert brute_automorphism_count(c4) == 8  # oracle
        assert automorphisms(c4).order == 8

    def test_directed_edge(self):
        m = make_structure(Language((("R", 2),)), 2, {"R": [(1, 2)]})
        assert automorphisms(m).order == 1

    def test_orders_match_brute_force(self):
        import random

        corpus = [random_structure(seed, 5) for seed in range(10)]
        ternary = uniform_language(3)
        loops = Language((("U", 1), ("R", 2)))
        pointed = Language((("E", 2),), ("c",))
        for seed in range(12):
            rng = random.Random(seed)
            n, p = 1 + seed % 6, (0.1, 0.5, 0.9)[seed % 3]
            triples = [t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]
            corpus.append(make_structure(ternary, n, {"R": triples}))
            corpus.append(make_structure(ternary, n, {"R": [q for t in triples for q in itertools.permutations(t)]}))
            pairs = [t for t in itertools.product(range(1, n + 1), repeat=2) if rng.random() < p]
            units = [(x,) for x in range(1, n + 1) if rng.random() < 0.5]
            corpus.append(make_structure(loops, n, {"U": units, "R": pairs}))
            edges = [t for t in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
            corpus.append(make_structure(pointed, n, {"E": edges + [(b, a) for a, b in edges]}, {"c": rng.randint(1, n)}))
        for m in corpus:
            group = automorphisms(m)
            assert group.order == brute_automorphism_count(m) == brute_group_order(group.generators, m.n), m

    def test_edgeless_graph_gets_a_minimal_generating_set(self):
        for n in range(1, 9):
            group = automorphisms(graph(n, []))
            assert len(group.generators) == n - 1
            assert brute_group_order(group.generators, n) == math.factorial(n)

    def test_orbits_match_permutation_scan(self, structured_graphs):
        corpus = [random_structure(seed, 1 + seed % 6, p=(0.1, 0.5, 0.9)[seed % 3]) for seed in range(24)]
        corpus += [m for m in structured_graphs.values() if m.n <= 6]
        for m in corpus:
            images = {e: set() for e in m.elements()}
            for perm in itertools.permutations(m.elements()):
                if apply_bijection(m, dict(zip(m.elements(), perm))) == m:
                    for e, image in zip(m.elements(), perm):
                        images[e].add(image)
            brute = sorted(sorted(o) for o in {frozenset(o) for o in images.values()})
            assert sorted(sorted(o) for o in automorphisms(m).orbits()) == brute

    def test_orbit_stabilizer(self, structured_graphs):
        for name in ("M3", "C6", "star5"):
            m = structured_graphs[name]
            n = m.n
            distinct = {
                apply_bijection(m, dict(zip(range(1, n + 1), perm)))
                for perm in itertools.permutations(range(1, n + 1))
            }
            assert len(distinct) * automorphisms(m).order == math.factorial(n)

    def test_constants_pin_automorphisms(self):
        lang = Language((("E", 2),), ("c",))
        m = make_structure(lang, 3, {"E": []}, {"c": 1})
        assert automorphisms(m).order == 2  # only 2 and 3 may swap


class TestInterpretation:
    def test_identity(self, structured_graphs):
        c4 = structured_graphs["C4"]
        interp = Interpretation(GRAPH, GRAPH, (("E", Atom("E", (0, 1))),))
        assert apply_interpretation(interp, c4) == c4

    def test_complement(self, structured_graphs):
        c4 = structured_graphs["C4"]
        interp = Interpretation(GRAPH, GRAPH, (("E", Not(Atom("E", (0, 1)))),))
        image = apply_interpretation(interp, c4)
        # oracle: complement over all ordered pairs including the diagonal
        expected = {
            (a, b)
            for a in c4.elements()
            for b in c4.elements()
            if (a, b) not in c4.tuples_of("E")
        }
        assert image.tuples_of("E") == frozenset(expected)
        assert (1, 1) in image.tuples_of("E")
        assert {t for t in image.tuples_of("E") if t[0] != t[1]} == {(1, 3), (3, 1), (2, 4), (4, 2)}

    def test_symmetric_core(self):
        lang = Language((("R", 2),))
        m = make_structure(lang, 3, {"R": [(1, 2), (2, 1), (2, 3)]})
        interp = Interpretation(
            lang, lang, (("R", And((Atom("R", (0, 1)), Atom("R", (1, 0))))),)
        )
        image = apply_interpretation(interp, m)
        assert image.tuples_of("R") == frozenset({(1, 2), (2, 1)})

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
    def test_commutes_with_substructure(self, seed, n):
        import random

        m = random_structure(seed, n)
        lang = m.language
        interp = Interpretation(lang, lang, (("R", Not(Atom("R", (0, 1)))),))
        rng = random.Random(seed)
        size = rng.randint(1, n)
        X = rng.sample(range(1, n + 1), size)
        inner, _ = induced_substructure(apply_interpretation(interp, m), X)
        outer = apply_interpretation(interp, induced_substructure(m, X)[0])
        assert inner == outer


class TestIntegerRoot:
    def test_root_brackets_x_between_consecutive_powers(self):
        for k in range(1, 6):
            exact = (3 ** -(-9431 // k)) ** k  # a k-th power of 4,500 to 4,502 digits
            big = [3**9431 + 17, exact, exact - 1, exact + 1]
            assert all(10**4499 <= x < 10**4502 for x in big)
            for x in itertools.chain(range(5001), big):
                root = _integer_kth_root(x, k)
                assert root**k <= x < (root + 1) ** k, (x, k)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            _integer_kth_root(-1, 3)


class TestJson:
    def test_round_trip(self, structured_graphs):
        for m in structured_graphs.values():
            assert structure_from_json(structure_to_json(m)) == m

    def test_constants_round_trip(self):
        lang = Language((("E", 2),), ("c", "d"))
        m = make_structure(lang, 3, {"E": [(1, 2), (2, 1)]}, {"c": 1, "d": 3})
        assert structure_from_json(structure_to_json(m)) == m


def stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.sampled_from(["", "\n", "a\nb", '"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f600"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.integers(), max_size=6)
        | st.dictionaries(st.text(max_size=6), inner, max_size=5)
        | st.dictionaries(st.integers(-5, 5), inner, max_size=4)
        | st.dictionaries(st.booleans(), inner, max_size=2)
        | st.dictionaries(st.floats(allow_nan=True, allow_infinity=True), inner, max_size=3)
    ),
    max_leaves=30,
)


class TestJsonText:
    """json_text is json.dumps(value, sort_keys=True, indent=1), byte for byte."""

    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_equals_stdlib(self, value):
        assert json_text(value) == stdlib_json(value)

    def test_examples(self):
        for value in ([], {}, (), [[]], {"a": {}}, [1, True, None], [True, 2], (1, 2.5),
                      {"b": [1, [2, 3]], "a": "x\ny", "\u00e9": -(10**50)},
                      {2: [1, {"k": [3]}], 1: None}, [{1: {"z": [float("inf"), float("-inf")]}}],
                      {True: [1], False: {}}, {None: 0}, {float("nan"): 1, 2.5: [True]},
                      float("nan"), "\t\u2028", 0, -1, False):
            assert json_text(value) == stdlib_json(value), value

    def test_an_int_past_the_digit_limit_fails_as_json_does(self):
        value = {"count": [1, 10**4300]}  # 4,301 digits
        try:
            expected = stdlib_json(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                json_text(value)
            assert str(got.value) == str(exc)
        else:  # a Python without the int-to-str digit limit
            assert json_text(value) == expected

    def test_unserializable_leaf_fails_as_json_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text({"a": [object()]})

    def test_dump_structure_writes_the_stdlib_text(self, tmp_path):
        m = make_structure(Language((("E", 2), ("R", 3)), ("c",)), 3,
                           {"E": [(1, 2), (2, 1)], "R": [(1, 2, 3)]}, {"c": 2})
        path = tmp_path / "m.json"
        dump_structure(m, str(path))
        assert path.read_text() == stdlib_json(structure_to_json(m)) + "\n"
        assert load_structure(str(path)) == m


class TestLargeGroups:
    def test_edgeless_full_symmetric(self):
        g = graph(8, [])
        assert automorphisms(g).order == math.factorial(8)

    def test_complete_bipartite_group(self):
        from hspeed.corpus import complete_bipartite

        g = complete_bipartite(4, 4)
        assert automorphisms(g).order == 2 * math.factorial(4) ** 2

    def test_disjoint_cliques_wreath(self):
        g = graph(9, [(a, b) for base in (0, 3, 6) for a in range(base + 1, base + 4)
                      for b in range(a + 1, base + 4)])
        # three disjoint triangles: (3!)^3 * 3!
        assert automorphisms(g).order == 6 ** 3 * 6


MIXED = Language((("U", 1), ("E", 2), ("T", 3)), ("a", "b"))


def _random_mixed(rng, n):
    tuples = {
        name: [t for t in itertools.product(range(1, n + 1), repeat=arity) if rng.random() < 0.3 / arity]
        for name, arity in MIXED.relations
    }
    return make_structure(MIXED, n, tuples, {"a": rng.randint(1, n), "b": rng.randint(1, n)})


def _validated(struct):
    """The same fields passed through the validating constructor."""
    return Structure(struct.language, struct.n, struct.rel_tuples, struct.const_vals)


class TestTrustedConstructor:
    """Operations build their outputs without validation; those outputs must
    be exactly what the validating constructor accepts, and the operations'
    own argument checks must still fire."""

    @pytest.mark.parametrize("seed", range(40))
    def test_induced_equals_validated_rebuild(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 7)
        for m in (_random_mixed(rng, n), random_structure(seed, n, arity=3, p=0.2)):
            X = set(rng.sample(range(1, n + 1), rng.randint(0, n))) | set(m.const_vals)
            sub, relabel = induced_substructure(m, X)
            assert sub == _validated(sub) and vars(sub) == vars(_validated(sub))
            assert hash(sub) == hash(_validated(sub))
            # oracle: keep the tuples inside X, relabel them order-preservingly
            expected = tuple(
                frozenset(tuple(relabel[e] for e in t) for t in ts if set(t) <= X) for ts in m.rel_tuples
            )
            assert sub.n == len(X) and sub.rel_tuples == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_bijection_equals_validated_rebuild(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 7)
        for m in (_random_mixed(rng, n), random_structure(seed, n, arity=3, p=0.2)):
            images = rng.sample(range(1, n + 4), n)
            image = apply_bijection(m, dict(zip(m.elements(), images)))
            assert image == _validated(image) and vars(image) == vars(_validated(image))
            assert hash(image) == hash(_validated(image))
            assert image.n == max(images)

    def test_boundary_rejects_tuple_outside_domain(self, tmp_path):
        lang = Language((("E", 2),))
        with pytest.raises(ValueError, match="leaves the domain"):
            Structure(lang, 3, (frozenset({(1, 4)}),), ())
        with pytest.raises(ValueError, match="leaves the domain"):
            make_structure(lang, 3, {"E": [(0, 1)]})
        path = tmp_path / "outside.json"
        path.write_text(json.dumps({**structure_to_json(make_structure(lang, 3)), "tuples": {"E": [[1, 4]]}}))
        with pytest.raises(ValueError, match="leaves the domain"):
            load_structure(str(path))

    def test_boundary_rejects_wrong_arity(self, tmp_path):
        lang = Language((("E", 2),))
        with pytest.raises(ValueError, match="wrong length"):
            Structure(lang, 3, (frozenset({(1, 2, 3)}),), ())
        with pytest.raises(ValueError, match="wrong length"):
            make_structure(lang, 3, {"E": [(1,)]})
        path = tmp_path / "arity.json"
        path.write_text(json.dumps({**structure_to_json(make_structure(lang, 3)), "tuples": {"E": [[1, 2, 3]]}}))
        with pytest.raises(ValueError, match="wrong length"):
            load_structure(str(path))

    def test_bijection_still_checks_its_map(self):
        m = make_structure(MIXED, 3, {"E": [(1, 2)]}, {"a": 1, "b": 3})
        with pytest.raises(NotInjective):
            apply_bijection(m, {1: 2, 2: 2, 3: 1})
        with pytest.raises(OutOfRange):
            apply_bijection(m, {1: 0, 2: 1, 3: 2})
        with pytest.raises(OutOfRange, match=r"misses elements \[2\]"):
            apply_bijection(graph(2, []), {1: 1})

    def test_induced_still_checks_its_set(self):
        m = make_structure(MIXED, 3, {"E": [(1, 2)]}, {"a": 1, "b": 3})
        with pytest.raises(OutOfRange):
            induced_substructure(m, {1, 3, 4})
        with pytest.raises(OutOfRange):
            induced_substructure(m, {0, 1, 3})
        with pytest.raises(MissingConstant):
            induced_substructure(m, {1, 2})

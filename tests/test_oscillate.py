import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from hspeed.cli import main
from hspeed.corpus import random_hypergraph, tight_cycle
from hspeed.errors import (
    BudgetExceeded,
    EmptyVertexSet,
    InfeasibleDensity,
    SampleBudgetExceeded,
    TooSmall,
)
from hspeed.oscillate import (
    ESTIMATOR_ATTEMPTS,
    ESTIMATOR_CHECK_BUDGET,
    STEP_WORK_CAP,
    Hypergraph,
    OscSequence,
    _certified_bound,
    _decode_ranks,
    _draw,
    _edge_target,
    _excess_subgraph,
    _maximal_matchings,
    blowup_members,
    build_sequence,
    count_maximal_matchings,
    density,
    feasible_density,
    find_strictly_balanced,
    hypergraph,
    hypergraph_from_json,
    hypergraph_to_json,
    in_P,
    in_Q,
    in_S,
    is_strictly_balanced,
    max_subgraph_density,
    max_subgraph_density_brute,
    sample_dense_member,
)

F = Fraction


def k4():
    return hypergraph(2, 4, itertools.combinations(range(1, 5), 2))


def c5():
    return hypergraph(2, 5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


def scan_edge_count(g, vertices) -> int:
    """Oracle: test every edge against the set."""
    return sum(1 for e in g.edges if e <= vertices)


def loop_max_density(g) -> tuple[Fraction, frozenset]:
    """Oracle: plain subset loop with Fraction comparisons."""
    best = (F(0), frozenset([1]))
    for size in range(1, g.v + 1):
        for subset in itertools.combinations(range(1, g.v + 1), size):
            s = frozenset(subset)
            d = F(scan_edge_count(g, s), size)
            if d > best[0]:
                best = (d, s)
    return best


def structured_corpus():
    out = [
        k4(),
        c5(),
        tight_cycle(2, 6),
        tight_cycle(3, 5),
        hypergraph(3, 4, [(1, 2, 3)]),
        hypergraph(3, 5, [(1, 2, 3), (1, 4, 5)]),
        hypergraph(2, 6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
        hypergraph(2, 6, list(itertools.combinations(range(1, 5), 2)) + [(5, 6)]),
    ]
    return out


class TestDensity:
    def test_examples(self):
        assert density(k4()) == F(3, 2)
        assert density(hypergraph(3, 3, [(1, 2, 3)])) == F(1, 3)
        assert density(hypergraph(2, 5, [])) == 0

    def test_empty_vertex_set(self):
        with pytest.raises(ValueError):
            hypergraph(2, 0, [(1, 2)])


class TestMaxSubgraphDensity:
    def test_k4_minus_edge(self):
        g = hypergraph(2, 4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        value, witness = max_subgraph_density(g)
        assert (value, witness) == loop_max_density(g)
        assert value == F(5, 4) and witness == frozenset({1, 2, 3, 4})

    def test_k4_plus_edge(self):
        g = hypergraph(2, 6, list(itertools.combinations(range(1, 5), 2)) + [(5, 6)])
        value, witness = max_subgraph_density(g)
        assert value == F(3, 2)
        assert witness == frozenset({1, 2, 3, 4})

    def test_hyperedge_plus_isolated(self):
        g = hypergraph(3, 4, [(1, 2, 3)])
        value, witness = max_subgraph_density(g)
        assert value == F(1, 3) and witness == frozenset({1, 2, 3})

    def test_random_corpus_vs_brute(self):
        corpus = []
        for seed in range(40):
            r = 2 if seed % 2 == 0 else 3
            corpus.append(random_hypergraph(r, 6 + seed % 5, 0.35, seed))
        # a complete core planted in a sparse host: the densest set is a
        # proper subset, so the Dinkelbach loop needs at least two flows
        planted = []
        for seed in range(6):
            r = 2 + seed % 2
            v, core = 10 + seed % 5, r + 3
            host = random_hypergraph(r, v, 0.08 if r == 2 else 0.02, seed)
            planted.append(hypergraph(r, v, set(host.edges) | {
                frozenset(e) for e in itertools.combinations(range(1, core + 1), r)}))
        # K4 next to a sparser ring and two isolated vertices: the first cut
        # keeps the ring, so the loop runs three flows
        ring = [(5 + i, 5 + (i + 1) % 8) for i in range(8)] + [(5, 9), (7, 11)]
        planted.append(hypergraph(2, 14, list(itertools.combinations(range(1, 5), 2)) + ring))
        for g in corpus + planted:
            value, witness = max_subgraph_density(g)
            oracle_value, _ = loop_max_density(g)
            assert value == oracle_value
            if g.e:
                assert F(g.edge_count_within(witness), len(witness)) == value
            if g in planted:
                assert witness < frozenset(range(1, g.v + 1))

    def test_edgeless(self):
        value, witness = max_subgraph_density(hypergraph(2, 5, []))
        assert value == 0


def excess_maximizers(g, threshold, without=None) -> tuple[int, list[frozenset]]:
    """Oracle: the maximum of q*e(U) - p*|U|, threshold = p/q, over every
    vertex set U avoiding ``without`` (the empty set gives 0), and the sets
    attaining it, by a plain subset loop."""
    p, q = threshold.numerator, threshold.denominator
    vertices = [x for x in range(1, g.v + 1) if x != without]
    best, attained = 0, [frozenset()]
    for size in range(1, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            s = frozenset(subset)
            value = q * scan_edge_count(g, s) - p * size
            if value > best:
                best, attained = value, [s]
            elif value == best:
                attained.append(s)
    return best, attained


class TestExcessSubgraph:
    """One threshold min cut returns the least set of maximum excess."""

    def test_least_maximizer_matches_subset_oracle(self):
        rng = random.Random(24)
        corpus = [random_hypergraph(2 + seed % 2, 3 + seed % 8, (0.2, 0.4, 0.6)[seed % 3], seed)
                  for seed in range(32)]
        # K4 with a pendant edge and two isolated vertices: at threshold 1
        # K4 and K4 + 5 tie, and only K4 is their intersection
        corpus.append(hypergraph(2, 7, list(itertools.combinations(range(1, 5), 2)) + [(1, 5)]))
        corpus.append(hypergraph(3, 6, []))
        positive = ties = 0
        for g in corpus:
            thresholds = [F(0), F(1, 2), F(1), F(3, 2)]
            thresholds += [F(rng.randint(0, 12), rng.randint(1, 7)) for _ in range(3)]
            for c in thresholds:
                for without in (None, 1, g.v):
                    best, attained = excess_maximizers(g, c, without)
                    least = frozenset.intersection(*attained)
                    assert _excess_subgraph(g, c, without) == (least if best > 0 else None), (
                        g.r, g.v, sorted(map(sorted, g.edges)), c, without)
                    positive += best > 0
                    ties += best > 0 and len(attained) > 1
        assert positive > 200 and ties > 20


class TestStrictBalance:
    def test_cycle(self):
        assert is_strictly_balanced(c5())

    def test_k4(self):
        assert is_strictly_balanced(k4())

    def test_single_vertex(self):
        assert is_strictly_balanced(hypergraph(2, 1, []))

    def test_two_triangles(self):
        g = hypergraph(2, 6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        assert not is_strictly_balanced(g)

    def test_matches_subset_oracle(self):
        for g in structured_corpus():
            rho = density(g)
            oracle = all(
                F(scan_edge_count(g, frozenset(s)), size) < rho
                for size in range(1, g.v)
                for s in itertools.combinations(range(1, g.v + 1), size)
            )
            assert is_strictly_balanced(g) == oracle

    def test_balanced_implies_connected(self):
        from hspeed.components import components_of
        from hspeed.structures import make_structure, uniform_language

        for g in structured_corpus():
            if not is_strictly_balanced(g):
                continue
            lang = uniform_language(g.r)
            tuples = [p for e in g.edges for p in itertools.permutations(sorted(e))]
            struct = make_structure(lang, g.v, {"R": tuples})
            assert len(components_of(struct).components) == 1


class TestFindStrictlyBalanced:
    @pytest.mark.parametrize(
        "r,c",
        [(2, F(1)), (2, F(3, 2)), (3, F(1, 3)), (3, F(2, 5)), (3, F(1, 2)), (3, F(1))],
    )
    def test_feasible_pairs(self, r, c):
        g = find_strictly_balanced(r, c)
        assert density(g) == c
        assert is_strictly_balanced(g)
        assert g.r == r

    def test_infeasible(self):
        assert not feasible_density(3, F(1, 4))
        with pytest.raises(InfeasibleDensity):
            find_strictly_balanced(3, F(1, 4))

    @pytest.mark.parametrize("r", [1, 0])
    def test_uniformity_below_two(self, r):
        with pytest.raises(ValueError):
            feasible_density(r, F(1))
        with pytest.raises(ValueError):
            find_strictly_balanced(r, F(1))

    def test_zero_density_infeasible(self):
        with pytest.raises(InfeasibleDensity):
            find_strictly_balanced(3, F(0))

    def test_sunflower_family(self):
        g = find_strictly_balanced(3, F(2, 5))
        assert g.v == 5 and g.e == 2
        shared = set.intersection(*(set(e) for e in g.edges))
        assert len(shared) == 1


class TestMembership:
    def test_cycle_in_q_and_s(self):
        assert in_Q(c5(), F(1))
        assert in_S(c5(), F(1))

    def test_k4_not_in_s(self):
        assert not in_S(k4(), F(1))

    def test_in_p_three_subsets(self):
        assert not in_P(k4(), [3], F(2, 3))
        c4 = hypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert in_P(c4, [3], F(2, 3))

    def test_q_subset_of_s_and_p(self):
        for g in structured_corpus():
            for c in (F(1, 2), F(1), F(3, 2)):
                if in_Q(g, c):
                    assert in_S(g, c)
                    assert in_P(g, [2, 3, g.v], c)

    def test_p_at_listed_size_implies_s(self):
        # when n itself appears in nu, the size-n constraint is the S condition
        c = F(2, 3)
        for bits in itertools.product([0, 1], repeat=6):
            edges = [e for e, b in zip(itertools.combinations(range(1, 5), 2), bits) if b]
            g = hypergraph(2, 4, edges)
            if in_P(g, [4], c):
                assert in_S(g, c)

    def test_budget(self):
        g = hypergraph(2, 30, [(1, 2)])
        with pytest.raises(BudgetExceeded):
            in_P(g, [15], F(1, 100), subset_budget=1000)

    def test_in_p_matches_subset_scan(self):
        rng = random.Random(2024)
        violations = 0
        kinds = Counter()  # the integer bound floor(c*s) at c = 0, at c < 1 and at non-integral c
        for _ in range(1200):
            r = rng.choice((2, 3))
            v = rng.randint(1, 9)
            p = rng.random()
            g = hypergraph(r, v, [e for e in itertools.combinations(range(1, v + 1), r)
                                  if rng.random() < p])
            c = F(rng.randint(0, 12), rng.randint(1, 6))
            kinds.update(kind for kind, holds in (("zero", c == 0), ("below one", c < 1),
                                                  ("non-integral", c.denominator > 1)) if holds)
            if rng.random() < 0.5:
                nu = range(1, rng.randint(1, v + 2))  # gap-free
            else:
                nu = rng.sample(range(1, v + 3), rng.randint(0, v + 1))
            expected = brute_in_p(g, nu, c)
            violations += not expected
            assert in_P(g, nu, c) == expected, (r, v, sorted(map(sorted, g.edges)), list(nu), c)
        assert 200 < violations < 1000  # both answers are well exercised
        assert min(kinds[k] for k in ("zero", "below one", "non-integral")) > 50, kinds

    def test_connected_search_budget(self):
        # C30 with c = 1: sizes 4..19 bind, no path violates, and there are
        # 30 + 30 * 18 connected sets of size at most 19 to visit
        cycle = hypergraph(2, 30, [(i, i % 30 + 1) for i in range(1, 31)])
        assert in_P(cycle, range(1, 20), F(1), subset_budget=600)
        with pytest.raises(BudgetExceeded):
            in_P(cycle, range(1, 20), F(1), subset_budget=100)

    def test_edge_count_within_matches_edge_scan(self):
        # the count switches from an edge scan to r-subset lookups once
        # C(|S|, r) < e; both sides, the empty set and the full set are drawn
        rng = random.Random(15)
        lookups = scans = 0
        for _ in range(150):
            r = rng.choice((2, 3))
            v = rng.randint(r, 12)
            g = random_hypergraph(r, v, rng.random(), rng.randrange(10**6))
            vertices = list(range(1, v + 1))
            subsets = [frozenset(), frozenset(vertices)]
            subsets += [frozenset(rng.sample(vertices, rng.randint(0, v))) for _ in range(12)]
            for s in subsets:
                assert g.edge_count_within(s) == scan_edge_count(g, s), (r, v, sorted(s))
                if math.comb(len(s), r) < g.e:
                    lookups += 1
                else:
                    scans += 1
        assert lookups > 1000 and scans > 500

    def test_in_q_matches_max_density_beyond_crosscheck_limit(self):
        rng = random.Random(5)
        decided_by_flow = 0
        for i in range(60):
            r = 2 + i % 2
            v = rng.randint(15, 22)
            p = rng.uniform(0.05, 0.3) if r == 2 else rng.uniform(0.01, 0.06)
            g = random_hypergraph(r, v, p, rng.randrange(10**6))
            if i % 3 == 0:  # plant a complete core, so a proper subset is densest
                core = r + 3
                g = hypergraph(r, v, set(g.edges) | {
                    frozenset(e) for e in itertools.combinations(range(1, core + 1), r)})
            top = max_subgraph_density(g)[0]
            tiny = F(1, 1000 * v * v)
            cs = [top, top - tiny, top + tiny, F(g.e, v)]
            cs += [F(rng.randint(0, 40), rng.randint(1, 12)) for _ in range(4)]
            for c in cs:
                expected = top <= c
                assert in_Q(g, c) == expected, (r, v, sorted(map(sorted, g.edges)), c)
                decided_by_flow += in_S(g, c) and not expected
        assert decided_by_flow > 50  # sets denser than the whole graph are exercised

    def test_in_q_contracts(self):
        with pytest.raises(EmptyVertexSet):
            in_Q(hypergraph(2, 0, []), F(1))
        for g in structured_corpus() + [hypergraph(3, 16, []), random_hypergraph(2, 18, 0.2, 3)]:
            assert not in_Q(g, F(-1, 3))
            assert in_Q(g, max_subgraph_density(g)[0])

    def test_in_q_crosschecks_small_graphs(self, monkeypatch):
        # a min cut that misses the denser K4 inside a sparse graph is caught
        g = hypergraph(2, 10, itertools.combinations(range(1, 5), 2))
        assert in_S(g, F(1)) and not in_Q(g, F(1))
        monkeypatch.setattr("hspeed.oscillate._excess_subgraph", lambda g, c: None)
        with pytest.raises(RuntimeError):
            in_Q(g, F(1))


def reference_edge_error(r, v, edges):
    """Oracle: walk the edges one by one and name the first bad one."""
    for e in edges:
        if len(e) != r:
            return f"edge {sorted(e)} is not an {r}-set"
        if any(type(x) is not int or not 1 <= x <= v for x in e):
            return f"edge {sorted(e)} leaves [{v}]"
    return None


class TestEdgeChecks:
    CORRUPTIONS = {
        "grow": lambda e, v, rng: e + [rng.randint(1, v)],
        "shrink": lambda e, v, rng: e[1:],
        "zero": lambda e, v, rng: e[1:] + [0],
        "above": lambda e, v, rng: e[1:] + [v + 1],
        "half": lambda e, v, rng: e[1:] + [e[0] + 0.5],
        "float": lambda e, v, rng: e[1:] + [float(e[0])],
        "bool": lambda e, v, rng: [True] + [x for x in e if x != 1][: len(e) - 1],
    }

    def test_set_level_check_names_the_reference_edge(self):
        rng = random.Random(250)
        seen = Counter()
        for _ in range(600):
            r = rng.choice((2, 3))
            v = rng.randint(r + 1, 8)
            edges = [list(e) for e in itertools.combinations(range(1, v + 1), r) if rng.random() < 0.4]
            for _ in range(rng.randint(0, 2) if edges else 0):
                i = rng.randrange(len(edges))
                kind = rng.choice(sorted(self.CORRUPTIONS))
                edges[i] = self.CORRUPTIONS[kind](edges[i], v, rng)
            edge_set = frozenset(map(frozenset, edges))
            expected = reference_edge_error(r, v, edge_set)
            seen["valid" if expected is None else "size" if expected.endswith("-set") else "vertex"] += 1
            if expected is None:
                assert Hypergraph(r, v, edge_set).e == len(edge_set)
            else:
                with pytest.raises(ValueError) as info:
                    Hypergraph(r, v, edge_set)
                assert str(info.value) == expected
        assert min(seen.values()) > 100, seen

    def test_non_integer_vertices(self):
        for edges in ([[1.5, 2, 3], [1, 2, 4]], [[True, 2, 3]], [[1.0, 2, 3]]):
            with pytest.raises(ValueError, match=r"leaves \[5\]"):
                hypergraph(3, 5, edges)
        assert hypergraph(3, 5, [[1, 2, 3], [3, 4, 5]]).e == 2


class TestBlowup:
    def test_three_edge(self):
        h = hypergraph(3, 3, [(1, 2, 3)])
        result = blowup_members(h, 9)
        assert result.count == 36 == math.factorial(3) ** 2
        assert result.count >= result.guaranteed_lower_bound == 36
        assert len(result.members) == 36

    def test_graph_edge(self):
        h = hypergraph(2, 2, [(1, 2)])
        result = blowup_members(h, 8)
        assert result.count == 24 == math.factorial(4)
        assert len({m.edges for m in result.members}) == 24

    def test_members_pass_q_and_s(self):
        h = hypergraph(3, 3, [(1, 2, 3)])
        c = density(h)
        for member in blowup_members(h, 9).members:
            assert in_Q(member, c)
            assert in_S(member, c)

    def test_uneven_parts(self):
        h = hypergraph(2, 2, [(1, 2)])
        result = blowup_members(h, 7, count_only=True)
        # parts of sizes 4 and 3: maximal matchings pair all of the 3-side
        assert result.count == math.perm(4, 3) * math.perm(3, 3) // math.factorial(3)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            blowup_members(hypergraph(3, 3, [(1, 2, 3)]), 8)

    def test_two_edge_seed(self):
        h = hypergraph(3, 5, [(1, 2, 3), (1, 4, 5)])
        result = blowup_members(h, 15, count_only=True)
        assert result.count == (math.factorial(3) ** 2) ** 2
        assert result.count >= result.guaranteed_lower_bound


def brute_maximal_matchings(parts) -> set:
    """Every set of m pairwise disjoint edges meeting each part once, m the
    smallest part's size: the maximal part-transversal matchings."""
    m = min(len(p) for p in parts)
    edges = [frozenset(e) for e in itertools.product(*parts)]
    return {frozenset(c) for c in itertools.combinations(edges, m)
            if len(frozenset().union(*c)) == m * len(parts)}


class TestMaximalMatchings:
    def test_against_brute_oracle(self):
        rng = random.Random(3)
        for _ in range(60):
            sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 3))]
            labels = rng.sample(range(1, 20), sum(sizes))
            parts = [labels[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(len(sizes))]
            got = list(_maximal_matchings(parts))
            assert set(got) == brute_maximal_matchings(parts), parts
            assert len(got) == len(set(got)) == count_maximal_matchings(parts), parts

    def test_sorted_by_anchor_major_rows(self):
        # the anchor is the first smallest part; a row lists, in part order,
        # the other parts' vertices matched to one anchor vertex
        for parts in ([[3, 1, 2], [5, 4], [9, 7, 8]], [[2, 1], [4, 3], [6, 5]], [[1, 2, 3, 4], [6, 5, 7]]):
            anchor = min(range(len(parts)), key=lambda i: (len(parts[i]), i))
            rows = []
            for matching in _maximal_matchings(parts):
                by_anchor = {min(e & set(parts[anchor])): e for e in matching}
                rows.append(tuple(tuple(min(by_anchor[a] & set(p)) for j, p in enumerate(parts) if j != anchor)
                                  for a in sorted(by_anchor)))
            assert rows == sorted(rows) and len(set(rows)) == len(rows), parts


def brute_in_p(g, nu, c) -> bool:
    """Scan every vertex set of every listed size."""
    for size in {s for s in nu if 1 <= s <= g.v}:
        for subset in itertools.combinations(range(1, g.v + 1), size):
            if scan_edge_count(g, frozenset(subset)) > c * size:
                return False
    return True


def has_triangle(g) -> bool:
    for a, b, c in itertools.combinations(range(1, g.v + 1), 3):
        if (
            frozenset({a, b}) in g.edges
            and frozenset({b, c}) in g.edges
            and frozenset({a, c}) in g.edges
        ):
            return True
    return False


class TestSampler:
    def test_triangle_free_member(self):
        cert = sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42)
        g = cert.graph
        assert not has_triangle(g)  # oracle triangle scan
        # exact edge-count threshold: e >= n^(-8/5) * C(30,2) / 2
        assert (2 * cert.edge_count) ** 5 * 30**8 >= math.comb(30, 2) ** 5

    def test_reproducible_bytes(self):
        a = sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42)
        b = sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42)
        assert json.dumps(hypergraph_to_json(a.graph), sort_keys=True) == json.dumps(
            hypergraph_to_json(b.graph), sort_keys=True
        )
        assert a.attempts == b.attempts

    def test_edge_subset_closure(self):
        import random

        cert = sample_dense_member(2, 3, F(2, 3), 20, F(8, 5), seed=5)
        rng = random.Random(1)
        edges = sorted(tuple(sorted(e)) for e in cert.graph.edges)
        for _ in range(5):
            keep = [e for e in edges if rng.random() < 0.5]
            sub = hypergraph(2, 20, keep)
            assert in_P(sub, [1, 2, 3], F(2, 3))

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("delta", [F(5, 4), F(8, 5), F(2)])
    def test_draw_takes_exactly_the_threshold(self, r, delta):
        # e >= n^(-delta) * C(n, r) / 2, and e - 1 falls short of it
        a, b = delta.numerator, delta.denominator
        for n in range(r, 41):
            cert = sample_dense_member(r, 1, F(1), n, delta, seed=n)
            e = cert.edge_count
            assert cert.graph.e == e and cert.attempts == 1
            assert (2 * e) ** b * n**a >= math.comb(n, r) ** b, (r, delta, n)
            assert (2 * (e - 1)) ** b * n**a < math.comb(n, r) ** b, (r, delta, n)

    def test_sample_past_sys_maxsize_ranks_certifies_on_the_first_draw(self, capsys):
        # C(1000, 10) > sys.maxsize r-sets: ranks are drawn one at a time, and
        # the one edge the threshold needs is a member on the first draw
        argv = ["osc", "sample", "--r", "10", "--n", "1000", "--k", "1", "--c", "1", "--delta", "20"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["edges"], out["attempts"], out["verification"]) == (1, 1, "exhaustive")
        assert len(out["graph"]["edges"]) == 1

    def test_delta_precondition(self):
        with pytest.raises(ValueError):
            sample_dense_member(2, 3, F(2, 3), 30, F(3, 2), seed=0)  # delta = 1/c

    def test_kr_precondition(self):
        with pytest.raises(ValueError):
            sample_dense_member(2, 20, F(2, 3), 30, F(8, 5), seed=0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_empty_prefix_is_refused(self, k, capsys):
        # P^{(k),c}_n with k < 1 lists no size, so a draw certifies nothing about the prefix
        with pytest.raises(ValueError):
            sample_dense_member(2, k, F(2, 3), 30, F(8, 5), seed=0)
        argv = ["osc", "sample", "--k", str(k), "--n", "30", "--c", "2/3", "--delta", "8/5"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "usage"

    def test_certificate_is_exhaustive(self):
        cert = sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42)
        assert cert.verification == "exhaustive"
        assert brute_in_p(cert.graph, [1, 2, 3], F(2, 3))

    def test_unchecked_draw_is_never_certified(self, monkeypatch):
        checks = []

        def over_budget(g, nu, c):
            checks.append(g)
            raise BudgetExceeded("over budget")

        monkeypatch.setattr("hspeed.oscillate.in_P", over_budget)
        with pytest.raises(SampleBudgetExceeded):
            sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42, max_attempts=5)
        assert 1 <= len(checks) <= 5  # each rejected draw used up an attempt

    def test_hopeless_size_draws_nothing(self, monkeypatch):
        # k*r > n admits no member of P^{(k),c}_n; at r = 2, eps = 1/50 a draw at
        # n = 10 would need ceil(10^(99/50)) = 96 of the C(10, 2) = 45 pairs
        def refuse(*args, **kwargs):
            raise AssertionError("a draw was checked at an inadmissible n")

        monkeypatch.setattr("hspeed.oscillate.in_P", refuse)
        assert _certified_bound(2, 3, F(1), F(3, 2), 5, seed=0, work=7) == (None, 7 + 5)  # a skipped n costs n
        assert _edge_target(10, 2, F(1, 50)) == 96
        assert _certified_bound(2, 1, F(100), F(1, 50), 10, seed=0, work=0) == (None, 10)

    def test_failed_draws_give_no_bound(self, monkeypatch):
        # at n = 14 every estimator draw has ceil(14^(1/2)) = 4 edges; each is checked, and fails
        draws = []

        def reject(g, nu, c, subset_budget):
            assert (list(nu), c, subset_budget) == ([1, 2, 3], F(1), ESTIMATOR_CHECK_BUDGET)
            draws.append(g)
            return False

        monkeypatch.setattr("hspeed.oscillate.in_P", reject)
        assert _certified_bound(2, 3, F(1), F(3, 2), 14, seed=0, work=0) == (None, 8 * (14 + 4))  # n + M per draw
        assert len(draws) == ESTIMATOR_ATTEMPTS == 8
        assert len(set(draws)) == 8  # one fresh seed per attempt
        assert all((g.r, g.v, g.e) == (2, 14, 4) for g in draws)
        # the step may reach its cap exactly; a draw that would pass it is refused before it is made
        assert _certified_bound(2, 3, F(1), F(3, 2), 14, seed=0, work=STEP_WORK_CAP - 8 * 18) == (None, STEP_WORK_CAP)
        with pytest.raises(BudgetExceeded, match="from n = 6 .* at n = 14$"):
            _certified_bound(2, 3, F(1), F(3, 2), 14, seed=0, work=STEP_WORK_CAP - 8 * 18 + 1)
        assert len(draws) == 8 + 8 + 7

    def test_first_certifying_call_stops_the_estimator(self, monkeypatch):
        # draws 1 and 2 are not members and draw 3 is: the estimator stops there
        draws = []

        def third(g, nu, c, subset_budget):
            draws.append(g)
            return len(draws) == 3

        monkeypatch.setattr("hspeed.oscillate.in_P", third)
        cert, work = _certified_bound(2, 3, F(1), F(3, 2), 14, seed=0, work=0)
        assert len(draws) == 3 and work == 3 * (14 + 4)
        assert cert == {"n": 14, "edges": 4, "attempts": 3, "seed": 14 * 101 + 2, "verification": "exhaustive"}
        assert draws[2].e == 4

    def test_check_budget_raises(self):
        # step 2 of the r = 3, eps = 2 sequence at seed 3 starts at n = 39 with k = 13; the
        # check of its first draw (39 edges) would visit more than ESTIMATOR_CHECK_BUDGET sets
        with pytest.raises(BudgetExceeded):
            _certified_bound(3, 13, F(1), F(2), 39, seed=3, work=0)

    def test_edge_target_is_the_least_integer_at_the_threshold(self):
        # M = ceil(n^(r - eps)): M >= 1, M^b >= n^(rb - a), and M - 1 falls short unless M = 1
        epsilons = [F(1, 50), F(1, 2), F(1), F(4, 3), F(3, 2), F(8, 5), F(2), F(9, 4), F(3), F(5)]
        for r in (2, 3, 4):
            for eps in epsilons:
                a, b = eps.numerator, eps.denominator
                for n in range(1, 41):
                    power = n ** max(r * b - a, 0)
                    m = _edge_target(n, r, eps)
                    assert m >= 1 and m**b >= power, (r, eps, n)
                    assert m == 1 or (m - 1) ** b < power, (r, eps, n)
                    if eps >= r:
                        assert m == 1

    def test_rank_decoder_matches_combinations(self):
        rng = random.Random(9)
        for n in range(1, 10):
            for r in (2, 3, 4):
                order = list(itertools.combinations(range(1, n + 1), r))
                assert list(_decode_ranks(range(len(order)), n, r)) == order
                ranks = sorted(rng.sample(range(len(order)), len(order) // 3))
                assert list(_decode_ranks(ranks, n, r)) == [order[i] for i in ranks]

    def test_random_hypergraph_takes_floor_of_p_times_the_r_sets(self):
        for r in (2, 3):
            for v in range(0, 13):
                for p in (F(0), F(1, 7), F(3, 10), F(1, 2), F(2, 3), F(99, 100), F(1)):
                    g = random_hypergraph(r, v, p, v)
                    assert g.e == math.floor(p * math.comb(v, r)), (r, v, p)
                    assert random_hypergraph(r, v, str(p), v) == g  # text is read exactly

    @pytest.mark.parametrize("r", [2, 3])
    def test_skip_draw_at_probability_zero_and_one(self, r):
        for v in range(r, 9):
            for seed in range(3):
                assert random_hypergraph(r, v, 0.0, seed) == hypergraph(r, v, [])
                complete = hypergraph(r, v, itertools.combinations(range(1, v + 1), r))
                assert random_hypergraph(r, v, 1.0, seed) == complete


class TestSequence:
    def test_draw_past_sys_maxsize_ranks_is_certified(self, capsys):
        # at r = 20 the first step draws at n = 420, with C(420, 20) > sys.maxsize
        # r-sets: a range that long has no len, so its ranks are drawn one at a time
        assert main(["osc", "sequence", "--r", "20", "--c", "1", "--eps", "20", "--steps", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        (cert,) = out["certificates"]
        assert (out["nu"], cert["n"], cert["edges"]) == ([21, 421], 420, 1)
        assert math.comb(420, 20) > sys.maxsize
        g = _draw(random.Random(cert["seed"]), cert["n"], 20, cert["edges"])
        assert g.e == 1 and in_P(g, range(1, 22), F(1))

    def test_first_point_and_interleaving(self):
        seq = build_sequence(2, F(1), F(3, 2), steps=2, seed=7)
        assert seq.nu[0] == 3  # r + 1
        assert list(seq.nu) == sorted(set(seq.nu))
        for i, m in enumerate(seq.mu):
            assert m == seq.nu[i + 1] - 1
        assert len(seq.certificates) == 2
        for cert, m in zip(seq.certificates, seq.mu):
            assert cert["n"] == m
            # the certificate reaches the threshold 2^(n^(r-eps))
            assert cert["edges"] ** 2 >= m

    def test_exhaustive_certificates(self):
        seq = build_sequence(2, F(1), F(3, 2), steps=3, seed=0)
        assert seq.nu == (3, 7, 15, 31)
        assert seq.mu == (6, 14, 30)
        assert [cert["verification"] for cert in seq.certificates] == ["exhaustive"] * 3

    def test_six_steps(self):
        seq = build_sequence(2, F(1), F(3, 2), steps=6, seed=0)
        assert seq.nu == (3, 7, 15, 31, 63, 127, 255)
        assert all(cert["verification"] == "exhaustive" for cert in seq.certificates)

    def test_every_seed_certifies_each_step_at_the_first_admissible_n(self):
        # a step at nu_k admits n >= r*nu_k; every seed certifies there, exhaustively
        for seed in range(100):
            seq = build_sequence(2, F(1), F(3, 2), steps=6, seed=seed)
            assert seq.nu == (3, 7, 15, 31, 63, 127, 255), seed
            assert [cert["n"] for cert in seq.certificates] == [2 * k for k in seq.nu[:-1]]
            assert all(cert["verification"] == "exhaustive" for cert in seq.certificates)

    @pytest.mark.parametrize("seed, nu", [(31, (3, 8, 18, 38, 78, 158, 318)), (33, (3, 8, 18, 38, 78, 158, 318)),
                                          (39, (3, 8, 18, 38, 78, 158, 318))])
    def test_six_steps_past_the_first_admissible_n(self, seed, nu, monkeypatch):
        # with every draw at a step's first admissible n = r*nu_k refused, the scan goes on
        # and certifies the next n with a draw that the real in_P checks
        def refuse_first_n(g, prefix, c, **kwargs):
            return g.v != 2 * max(prefix) and in_P(g, prefix, c, **kwargs)

        monkeypatch.setattr("hspeed.oscillate.in_P", refuse_first_n)
        seq = build_sequence(2, F(1), F(3, 2), steps=6, seed=seed)
        assert seq.nu == nu
        assert [cert["n"] for cert in seq.certificates] == [2 * k + 1 for k in nu[:-1]]
        assert all(cert["verification"] == "exhaustive" for cert in seq.certificates)

    def test_reproducible(self):
        a = build_sequence(2, F(1), F(3, 2), steps=2, seed=7)
        b = build_sequence(2, F(1), F(3, 2), steps=2, seed=7)
        assert a.nu == b.nu and a.mu == b.mu

    def test_interleaving_validation(self):
        with pytest.raises(ValueError):
            OscSequence(c=F(1), eps=F(3, 2), r=2, nu=(3, 5), mu=(9,), certificates=({},))

    def test_parameter_contracts(self):
        with pytest.raises(ValueError):
            build_sequence(2, F(1), F(1), steps=1)  # eps <= 1/c
        with pytest.raises(ValueError):
            build_sequence(3, F(1, 4), F(9), steps=1)  # c < 1/(r-1)
        with pytest.raises(ValueError):
            build_sequence(1, F(1), F(2), steps=1)  # r < 2


    @pytest.mark.parametrize("eps", ["3", "5"])
    def test_eps_at_least_r_needs_one_edge(self, eps, capsys):
        # n^(r - eps) <= 1, so a single edge meets the threshold at every step
        assert main(["osc", "sequence", "--r", "2", "--c", "1", "--eps", eps, "--steps", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["nu"] == [3, 7, 15, 31, 63]
        assert [cert["edges"] for cert in out["certificates"]] == [1, 1, 1, 1]

    def test_cap_admits_the_r3_step(self):
        # r = 3, eps = 3/2: steps 1..5 start at n >= 12, 39, 120, 363, 1,092, where one draw is
        # within the cap; step 6 starts at n >= 3,279, where n + M = 3,279 + 187,764 is past it
        starts = (12, 39, 120, 363, 1092, 3279)
        assert [_edge_target(n, 3, F(3, 2)) for n in starts] == [42, 244, 1315, 6917, 36086, 187_764]
        assert 1092 + 36_086 <= STEP_WORK_CAP < 3279 + 187_764

    @pytest.mark.parametrize("r, c, eps", [(2, F(1), F(3, 2)), (3, F(1), F(3, 2)), (3, F(1), F(2)),
                                            (3, F(2, 3), F(2)), (3, F(1), F(8, 5)), (2, F(2), F(1)),
                                            (4, F(1, 2), F(5, 2)), (3, F(1, 2), F(9, 4))])
    def test_solved_start_matches_scan(self, r, c, eps, monkeypatch):
        # the pre-draw check solves each step's lowest start by top <- r*top + 1; a scan whose
        # every step certifies its first n starts exactly there, and the check refuses a
        # sequence only when one of those starts is past the cap
        def least_m(n):  # oracle: the least e >= 1 with e^b >= n^(rb - a), by bisection
            lo, hi, power = 1, max(n**r, 1), n ** max(r * eps.denominator - eps.numerator, 0)
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if mid**eps.denominator >= power else (mid + 1, hi)
            return lo

        scanned = []

        def certify_first(r, k, c, eps, n, seed, work):
            assert work == 0  # a step's first n is charged from zero
            scanned.append(n)
            return {"n": n}, work

        monkeypatch.setattr("hspeed.oscillate._certified_bound", certify_first)
        refused = 0
        for steps in range(20):
            starts, top = [], r + 1
            for _ in range(steps):
                starts.append(r * top)
                top = r * top + 1
            scanned.clear()
            if all(n + least_m(n) <= STEP_WORK_CAP for n in starts):
                assert list(build_sequence(r, c, eps, steps=steps).mu) == scanned == starts
            else:
                refused += 1
                with pytest.raises(BudgetExceeded):
                    build_sequence(r, c, eps, steps=steps)
                assert scanned == []
        assert 0 < refused < 20

    def test_cap_is_checked_before_any_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a draw was made before the cap was checked")

        monkeypatch.setattr("hspeed.oscillate._certified_bound", refuse)
        monkeypatch.setattr("hspeed.oscillate.in_P", refuse)
        # r = 3: step 6 starts at n >= 3,279, where M = 187,764; r = 2: n doubles with each step
        for r, eps, steps in [(3, F(3, 2), 6), (2, F(3, 2), 40)]:
            with pytest.raises(BudgetExceeded):
                build_sequence(r, F(1), eps, steps=steps)

    def test_step_work_charges_every_draw(self, monkeypatch):
        # every draw refused: from n = 6, each of the 8 draws at n is charged n + ceil(sqrt(n))
        # before it is made, and the step stops at the first charge past the cap
        draws = []

        def reject(g, nu, c, subset_budget):
            draws.append(g.v)
            return False

        monkeypatch.setattr("hspeed.oscillate.in_P", reject)
        work, expected = 0, []
        for n in itertools.count(6):
            cost = n + math.isqrt(n - 1) + 1
            if work + ESTIMATOR_ATTEMPTS * cost > STEP_WORK_CAP:
                break
            work += ESTIMATOR_ATTEMPTS * cost
            expected += [n] * ESTIMATOR_ATTEMPTS
        expected += [n] * ((STEP_WORK_CAP - work) // cost)
        with pytest.raises(BudgetExceeded, match=f"from n = 6 .* at n = {n}$"):
            build_sequence(2, F(1), F(3, 2), steps=1, seed=0)
        assert draws == expected

    def test_each_step_starts_from_zero_work(self, monkeypatch):
        # every draw is refused except at n = 140 and n = 290: each step's work is within the cap,
        # though the two steps' work together passes it
        def certify_at(g, nu, c, subset_budget):
            return g.v in (140, 290)

        def step_work(start, end):  # 8 draws at each n in [start, end), then one at end
            return sum(ESTIMATOR_ATTEMPTS * (n + math.isqrt(n - 1) + 1) for n in range(start, end)) + (
                end + math.isqrt(end - 1) + 1)

        monkeypatch.setattr("hspeed.oscillate.in_P", certify_at)
        assert max(step_work(6, 140), step_work(282, 290)) <= STEP_WORK_CAP < step_work(6, 140) + step_work(282, 290)
        assert build_sequence(2, F(1), F(3, 2), steps=2, seed=0).mu == (140, 290)

    def test_scan_without_draws_ends_at_the_cap(self, monkeypatch):
        # r = 2, eps = 1/50: M = ceil(n^(99/50)) exceeds C(n, 2) for every n below 2^50, so each n
        # from the start 6 is skipped and charged n, and the step ends past the cap without a draw
        def refuse(*args, **kwargs):
            raise AssertionError("a draw was made at an n with too few r-sets")

        monkeypatch.setattr("hspeed.oscillate.in_P", refuse)
        monkeypatch.setattr("hspeed.oscillate._decode_ranks", refuse)
        work, n = 6, 6
        while work <= STEP_WORK_CAP:
            n += 1
            work += n
        with pytest.raises(BudgetExceeded, match=f"from n = 6 .* at n = {n}$"):
            build_sequence(2, F(100), F(1, 50), steps=1)

    @pytest.mark.parametrize("eps", ["1", "2/3"])
    def test_r3_second_step_ends_at_the_work_cap(self, eps, capsys):
        # no desk-scale n certifies a second 3-uniform step: it ends budget-exceeded, not by scanning on
        argv = ["osc", "sequence", "--r", "3", "--c", "2", "--eps", eps, "--steps", "2"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "budget-exceeded"

    @pytest.mark.parametrize("c, eps, edges", [(F(1), F(3, 2), 42), (F(2, 3), F(2), 12), (F(1), F(8, 5), 33)])
    def test_certified_r3_step(self, c, eps, edges, capsys):
        seq = build_sequence(3, c, eps, steps=1, seed=0)
        (mu,), (cert,) = seq.mu, seq.certificates
        assert (mu, cert["n"], cert["edges"]) == (12, 12, edges)  # mu_1 = k*r, the least admissible n
        a, b = eps.numerator, eps.denominator
        assert edges**b >= mu ** (3 * b - a)  # e^b >= n^(rb - a)
        assert cert["verification"] == "exhaustive"
        # rebuild the draw from its seed, ranks read off combinations, and re-check it by brute force
        order = list(itertools.combinations(range(1, mu + 1), 3))
        ranks = sorted(random.Random(cert["seed"]).sample(range(len(order)), edges))
        assert brute_in_p(hypergraph(3, mu, [order[i] for i in ranks]), [1, 2, 3, 4], c)
        argv = ["osc", "sequence", "--r", "3", "--c", str(c), "--eps", str(eps), "--steps", "1"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["nu"], out["mu"], out["certificates"]) == (list(seq.nu), list(seq.mu), [cert])


class TestJson:
    def test_round_trip(self):
        for g in structured_corpus():
            assert hypergraph_from_json(hypergraph_to_json(g)) == g


class TestLargerInstances:
    def test_flow_beyond_crosscheck_limit(self):
        # v = 16 exceeds the internal cross-check cutoff; compare to the
        # subset oracle explicitly
        g = random_hypergraph(2, 16, 0.25, 99)
        value, witness = max_subgraph_density(g)
        assert value == max_subgraph_density_brute(g)
        if g.e:
            assert F(g.edge_count_within(witness), len(witness)) == value

    def test_balance_beyond_crosscheck_limit(self):
        # v = 16 is past the brute cross-check; each one-point deletion is one cut
        g = tight_cycle(2, 16)
        assert is_strictly_balanced(g)
        chorded = hypergraph(2, 16, list(g.edges) + [frozenset({1, 9})])
        # every proper subgraph loses at least one cycle edge, so density
        # stays below 17/16; the chorded cycle is strictly balanced
        assert is_strictly_balanced(chorded)
        two_cycles = hypergraph(
            2, 16, [(i, i % 8 + 1) for i in range(1, 9)] + [(8 + i, 8 + i % 8 + 1) for i in range(1, 9)]
        )
        # a single 8-cycle is a proper part matching the overall density 1
        assert not is_strictly_balanced(two_cycles)


def subset_balanced(g) -> bool:
    """Oracle: every proper nonempty vertex set has density below g's, its
    edge count summed over the subsets of each mask by bit."""
    full = (1 << g.v) - 1
    f = [0] * (full + 1)
    for e in g.edges:
        f[sum(1 << (x - 1) for x in e)] += 1
    for b in range(g.v):
        step = 1 << b
        for mask in range(full + 1):
            if mask & step:
                f[mask] += f[mask ^ step]
    rho = density(g)
    return all(f[mask] * rho.denominator < rho.numerator * mask.bit_count() for mask in range(1, full))


def dinkelbach_balanced(g) -> bool:
    """Reference: every one-point deletion's densest subgraph, by
    ``max_subgraph_density``, is below g's density."""
    rho = density(g)
    vertices = set(range(1, g.v + 1))
    return all(max_subgraph_density(g.induced(vertices - {x}))[0] < rho for x in vertices)


def sunflower(r: int, k: int):
    """k edges sharing exactly one vertex, 1: strictly balanced."""
    return hypergraph(r, 1 + k * (r - 1), [(1,) + tuple(range(2 + i * (r - 1), 2 + (i + 1) * (r - 1))) for i in range(k)])


def balance_cases(vs):
    """Seeded random 2- and 3-graphs on each v in ``vs``, plus edgeless,
    complete, tight-cycle, chorded and two-component graphs, and the
    sunflowers with v in the range of ``vs``."""
    cases = []
    for v in vs:
        for seed, (r, p) in enumerate([(2, 0.15), (2, 0.3), (3, 0.03), (3, 0.08)]):
            cases.append(random_hypergraph(r, v, p, 1000 * v + seed))
        cycle = tight_cycle(2, v)
        cases += [
            hypergraph(2, v, []),
            hypergraph(2, v, itertools.combinations(range(1, v + 1), 2)),
            cycle,
            tight_cycle(3, v),
            hypergraph(2, v, list(cycle.edges) + [(1, v // 2)]),
            hypergraph(2, v, [(i, i % (v // 2) + 1) for i in range(1, v // 2 + 1)]
                       + [(v // 2 + i, v // 2 + i % (v - v // 2) + 1) for i in range(1, v - v // 2 + 1)]),
        ]
    cases += [s for r in (2, 3) for k in range(1, 22) if min(vs) <= (s := sunflower(r, k)).v <= max(vs)]
    return cases


class TestStrictBalanceByCuts:
    """Strict balance is one threshold cut per one-point deletion at every v,
    checked against the subset oracle and Dinkelbach's densest subgraph."""

    def test_matches_subset_oracle(self):
        cases = balance_cases([4, 6, 9, 13, 15, 16])
        verdicts = [is_strictly_balanced(g) for g in cases]
        assert verdicts == [subset_balanced(g) for g in cases]
        assert True in verdicts and False in verdicts

    def test_matches_dinkelbach_verdict(self):
        cases = balance_cases([16, 19, 22]) + [hypergraph(3, 16, itertools.combinations(range(1, 17), 3))]
        verdicts = [is_strictly_balanced(g) for g in cases]
        assert verdicts == [dinkelbach_balanced(g) for g in cases]
        assert True in verdicts and False in verdicts

    def test_runs_no_densest_subgraph_search(self, monkeypatch):
        import hspeed.oscillate

        def refuse(g):
            raise AssertionError("max_subgraph_density called")

        monkeypatch.setattr(hspeed.oscillate, "max_subgraph_density", refuse)
        assert is_strictly_balanced(tight_cycle(3, 20))
        assert not is_strictly_balanced(hypergraph(2, 16, [(1, 2), (3, 4)]))
        assert not is_strictly_balanced(hypergraph(2, 18, []))

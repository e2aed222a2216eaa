"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (integer or rational equality); stated runtime caps
are asserted.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from conftest import all_graphs, brute_isomorphic
from hspeed.arrays import (
    bounded_array_probe,
    is_k_mutually_algebraic,
    n_array_count,
)
from hspeed.components import component_lowerbound_members, partitions_into_blocks
from hspeed.corpus import (
    BUILTIN_TEMPLATES,
    halfgraph_blowup,
    matching,
    matching_property,
    random_hypergraph,
    tight_cycle,
)
from hspeed.errors import InfeasibleDensity
from hspeed.oscillate import (
    blowup_members,
    density,
    find_strictly_balanced,
    hypergraph,
    hypergraph_to_json,
    in_Q,
    in_S,
    is_strictly_balanced,
    max_subgraph_density,
    max_subgraph_density_brute,
    sample_dense_member,
)
from hspeed.property import speed
from hspeed.simclass import decomposition, sim_related
from hspeed.structures import apply_bijection, automorphisms, canonical_form, graph
from hspeed.template import count_compatible, enumerate_compatible, speed_form

F = Fraction


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestAcceptance:
    def test_01_template_counting_formula(self):
        start = time.monotonic()
        checked = 0
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            for n in range(t.threshold + 2, 10):
                formula = count_compatible(t, n)
                enumerated = len(enumerate_compatible(t, n))
                assert formula == enumerated, (name, n, formula, enumerated)
                checked += 1
        elapsed = time.monotonic() - start
        report(
            1,
            checked >= 5 * 4 and elapsed < 60,
            f"count == |enumerate| on {checked} (template, n) pairs in {elapsed:.1f}s",
        )

    def test_02_closed_form_speeds(self):
        start = time.monotonic()
        for name, factory in BUILTIN_TEMPLATES.items():
            t = factory()
            form = speed_form(t, (6, 12))
            for n in range(13, 17):
                assert form.evaluate(n) == count_compatible(t, n), (name, n)
        bip = BUILTIN_TEMPLATES["symmetric-bipartite"]()
        form = speed_form(bip, (6, 12))
        assert form.polys[1] == (F(1, 2),)
        assert form.polys[0] == (F(-1), F(-1, 2), F(-1, 2))  # -(n^2 + n + 2)/2
        for n in range(6, 17):
            assert form.evaluate(n) == 2 ** (n - 1) - (n * n + n + 2) // 2
        assert form.evaluate(8) == 91
        elapsed = time.monotonic() - start
        report(2, True, f"closed forms verified on n in [13,16] for all built-ins in {elapsed:.1f}s")

    def test_03_matching_speed(self):
        start = time.monotonic()
        table = speed(matching_property(), 8)
        got = [row.labeled for row in table.rows]
        oracle = [1, 1]
        for n in range(2, 9):
            oracle.append(oracle[n - 1] + (n - 1) * oracle[n - 2])
        expected = oracle[1:]
        elapsed = time.monotonic() - start
        report(
            3,
            got == expected == [1, 2, 4, 10, 26, 76, 232, 764] and elapsed < 30,
            f"speed {got} matches the involution recurrence in {elapsed:.1f}s",
        )

    def test_04_block_partition_counts(self):
        def brute(n, k):
            ell = n // k
            m = k * ell

            def rec(remaining):
                if not remaining:
                    return 1
                first = min(remaining)
                rest = sorted(remaining - {first})
                return sum(
                    rec(remaining - {first} - set(mates))
                    for mates in itertools.combinations(rest, k - 1)
                )

            return rec(frozenset(range(1, m + 1)))

        for n in range(1, 11):
            for k in range(1, n + 1):
                assert partitions_into_blocks(n, k).count == brute(n, k), (n, k)
        for n in range(1, 41):
            for k in range(1, min(n, 6) + 1):
                ell = n // k
                m = k * ell
                closed = math.factorial(m) // (math.factorial(k) ** ell * math.factorial(ell))
                assert partitions_into_blocks(n, k).count == closed
        report(4, True, "block partition counts match the enumeration oracle and closed form")

    def test_05_component_lower_bound(self):
        spec = matching_property()
        result = component_lowerbound_members(matching(4), 2, 6, spec=spec)
        distinct = len(set(result.members))
        members_ok = all(spec.member(m) for m in result.members)
        report(
            5,
            result.count == 15 and distinct == 15 and members_ok,
            f"{distinct} pairwise-distinct matching members on [6], all in the property",
        )

    def test_06_array_diagnostics(self):
        # (a) flat probe on the matching corpus
        table = bounded_array_probe(matching_property(), "E", [0], 2, 8, seed=11)
        values = [row.max_count for row in table.rows]
        flat = len(set(values[1:])) == 1
        # (b) half-graph blow-ups reach their level count
        blowups_ok = True
        for m in range(2, 5):
            b = halfgraph_blowup(m)
            assert b.n <= 20
            if n_array_count(b, "E", [0], m, list(range(1, m + 1))) < m:
                blowups_ok = False
        # (c) full agreement with the direct completion-count oracle
        def oracle(g, k):
            tuples = g.tuples_of("E")
            for xs in ((0,), (1,)):
                ys = tuple(p for p in (0, 1) if p not in xs)
                for assignment in itertools.product(g.elements(), repeat=1):
                    count = 0
                    for completion in itertools.product(g.elements(), repeat=1):
                        slot = [0, 0]
                        slot[xs[0]] = assignment[0]
                        slot[ys[0]] = completion[0]
                        if tuple(slot) in tuples:
                            count += 1
                    if count >= k:
                        return False
            return True

        agree = all(
            is_k_mutually_algebraic(g, "E", k).holds == oracle(g, k)
            for n in range(1, 6)
            for g in all_graphs(n)
            for k in range(1, 5)
        )
        report(
            6,
            flat and blowups_ok and agree,
            f"probe flat {values}, blow-up counts reach m, oracle agreement on all graphs n<=5",
        )

    def test_07_flow_oracle(self):
        start = time.monotonic()
        corpus = []
        for seed in range(200):
            r = 2 if seed % 2 == 0 else 3
            v = 5 + seed % 8  # up to 12
            p = 0.25 + 0.05 * (seed % 5)
            corpus.append(random_hypergraph(r, v, p, seed))
        corpus += [
            hypergraph(2, 4, itertools.combinations(range(1, 5), 2)),
            tight_cycle(2, 6),
            tight_cycle(3, 5),
            hypergraph(3, 5, [(1, 2, 3), (1, 4, 5)]),
            hypergraph(2, 6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]),
        ]
        for g in corpus:
            flow_value, witness = max_subgraph_density(g)
            assert flow_value == max_subgraph_density_brute(g)
            if g.e:
                assert F(g.edge_count_within(witness), len(witness)) == flow_value
        elapsed = time.monotonic() - start
        report(7, elapsed < 120, f"flow == subset brute force on {len(corpus)} hypergraphs in {elapsed:.1f}s")

    def test_08_feasible_densities(self):
        pairs = [(2, F(1)), (2, F(3, 2)), (3, F(1, 3)), (3, F(2, 5)), (3, F(1, 2)), (3, F(1))]
        for r, c in pairs:
            g = find_strictly_balanced(r, c)
            assert density(g) == c
            assert is_strictly_balanced(g)  # exhaustive certificate at these sizes
        infeasible = False
        try:
            find_strictly_balanced(3, F(1, 4))
        except InfeasibleDensity:
            infeasible = True
        report(8, infeasible, f"certified witnesses for {len(pairs)} densities; (3, 1/4) infeasible")

    def test_09_blowup_counts(self):
        three_edge = blowup_members(hypergraph(3, 3, [(1, 2, 3)]), 9)
        graph_edge = blowup_members(hypergraph(2, 2, [(1, 2)]), 8)
        ok = three_edge.count == 36 and graph_edge.count == 24
        for result, h in ((three_edge, hypergraph(3, 3, [(1, 2, 3)])), (graph_edge, hypergraph(2, 2, [(1, 2)]))):
            c = density(h)
            assert len(set(result.members)) == result.count
            assert result.count >= result.guaranteed_lower_bound
            for member in result.members:
                assert in_Q(member, c) and in_S(member, c)
        report(9, ok, f"blow-up counts {three_edge.count} and {graph_edge.count} with memberships re-checked")

    def test_10_dense_sampler(self):
        start = time.monotonic()
        a = sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42)
        b = sample_dense_member(2, 3, F(2, 3), 30, F(8, 5), seed=42)
        identical = json.dumps(hypergraph_to_json(a.graph), sort_keys=True) == json.dumps(
            hypergraph_to_json(b.graph), sort_keys=True
        )
        triangle_free = not any(
            all(frozenset(q) in a.graph.edges for q in itertools.combinations(s, 2))
            for s in itertools.combinations(range(1, 31), 3)
        )
        threshold = (2 * a.edge_count) ** 5 * 30**8 >= math.comb(30, 2) ** 5
        elapsed = time.monotonic() - start
        report(
            10,
            identical and triangle_free and threshold and elapsed < 60,
            f"seeded sampler reproducible, triangle-free, {a.edge_count} edges in {elapsed:.1f}s",
        )

    def test_11_invariant_suites(self):
        start = time.monotonic()
        # swap-equivalence is an equivalence relation and signatures reconstruct
        for n in range(1, 6):
            for g in all_graphs(n):
                rel = {(a, b): sim_related(g, a, b) for a in g.elements() for b in g.elements()}
                for a in g.elements():
                    assert rel[(a, a)]
                    for b in g.elements():
                        assert rel[(a, b)] == rel[(b, a)]
                        for c in g.elements():
                            if rel[(a, b)] and rel[(b, c)]:
                                assert rel[(a, c)]
                decomposition(g)  # raises if reconstruction fails
        # canonical forms identify classes and separate non-classes
        expected_classes = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
        for n in range(1, 6):
            forms = {}
            for g in all_graphs(n):
                forms.setdefault(canonical_form(g)[0], []).append(g)
            assert len(forms) == expected_classes[n]
            labeled = sum(math.factorial(n) // automorphisms(rep).order for rep in forms)
            assert labeled == 2 ** math.comb(n, 2)
            for rep, members in forms.items():
                assert brute_isomorphic(rep, members[-1])
        # orbit-stabilizer identity on a deterministic corpus up to n = 6
        import random

        corpus = list(all_graphs(4))
        corpus += [
            graph(6, [(1, 2), (3, 4), (5, 6)]),
            graph(6, [(i, i % 6 + 1) for i in range(1, 7)]),
            graph(6, [(1, i) for i in range(2, 7)]),
            graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
        ]
        rng = random.Random(7)
        for _ in range(8):
            n = rng.choice([5, 6])
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
            corpus.append(graph(n, edges))
        for g in corpus:
            n = g.n
            distinct = {
                apply_bijection(g, dict(zip(range(1, n + 1), perm)))
                for perm in itertools.permutations(range(1, n + 1))
            }
            assert len(distinct) * automorphisms(g).order == math.factorial(n)
        elapsed = time.monotonic() - start
        report(11, elapsed < 120, f"equivalence, reconstruction, separation, orbit-stabilizer in {elapsed:.1f}s")

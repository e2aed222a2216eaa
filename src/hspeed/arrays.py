"""Finite diagnostics for relation types over parameter sets.

A split of a relation's positions into x-part and y-part induces, for
each parameter set A, a partition of the x-tuples by their full decision
vector: membership of R(x, a) for every a in A^|y|, equalities among the
x coordinates, and equalities against A.  Counting the types whose
realization set packs m pairwise-disjoint tuples is the growth quantity
probed here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BadSplit, OutOfRange
from .property import Consistent, PropertySpec, Refuted, generate_levels
from .simclass import _growth_pattern
from .structures import Structure

PROBE_RESTARTS = 4  # hill-climbing starts per member and parameter-set size above 3


@dataclass(frozen=True)
class RSplitType:
    """One realized type: the full decision vector plus its realizations."""

    rel: str
    x_positions: tuple[int, ...]  # 0-based positions of the x-part
    parameters: tuple[int, ...]  # sorted A
    r_decisions: tuple[bool, ...]  # per a-tuple in lexicographic order over A^|y|
    equality_pattern: tuple[int, ...]  # restricted-growth string over x coordinates
    parameter_links: tuple[int, ...]  # per x coordinate: index into A, or -1
    realizations: frozenset[tuple[int, ...]]


def _split_parts(arity: int, x_positions: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    xs = tuple(sorted(set(x_positions)))
    if not xs or len(xs) >= arity or any(p < 0 or p >= arity for p in xs):
        raise BadSplit(f"x-part must be a proper nonempty subset of positions 0..{arity - 1}")
    ys = tuple(p for p in range(arity) if p not in xs)
    return xs, ys


def type_space(
    struct: Structure, rel: str, x_positions: Sequence[int], parameters: Iterable[int]
) -> list[RSplitType]:
    """The partition of all x-tuples into realized types over A."""
    arity = struct.language.rel_arity(rel)
    xs, ys = _split_parts(arity, x_positions)
    A = tuple(sorted(set(parameters)))
    if any(a < 1 or a > struct.n for a in A):
        raise OutOfRange("parameters outside the domain")
    a_tuples = list(itertools.product(A, repeat=len(ys)))
    tuples = struct.tuples_of(rel)

    def full_tuple(x_vals: tuple[int, ...], a_vals: tuple[int, ...]) -> tuple[int, ...]:
        slot = [0] * arity
        for p, v in zip(xs, x_vals):
            slot[p] = v
        for p, v in zip(ys, a_vals):
            slot[p] = v
        return tuple(slot)

    a_index = {a: i for i, a in enumerate(A)}
    buckets: dict[tuple, set[tuple[int, ...]]] = {}
    for x_vals in itertools.product(struct.elements(), repeat=len(xs)):
        decisions = tuple(full_tuple(x_vals, a_vals) in tuples for a_vals in a_tuples)
        pattern, _ = _growth_pattern(x_vals)
        links = tuple(a_index.get(v, -1) for v in x_vals)
        key = (decisions, pattern, links)
        buckets.setdefault(key, set()).add(x_vals)
    out = []
    for (decisions, pattern, links), reals in sorted(buckets.items()):
        out.append(
            RSplitType(
                rel=rel,
                x_positions=xs,
                parameters=A,
                r_decisions=decisions,
                equality_pattern=pattern,
                parameter_links=links,
                realizations=frozenset(reals),
            )
        )
    return out


def supports_m_array(tp: RSplitType, m: int):
    """Exact search for m pairwise-disjoint realizations (branch and bound)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    supports = sorted((frozenset(t), t) for t in tp.realizations)
    chosen: list[tuple[int, ...]] = []
    used: set[int] = set()

    def rec(start: int) -> bool:
        if len(chosen) == m:
            return True
        if len(chosen) + (len(supports) - start) < m:
            return False  # not enough candidates left
        for i in range(start, len(supports)):
            s, t = supports[i]
            if s & used:
                continue
            chosen.append(t)
            used.update(s)
            if rec(i + 1):
                return True
            chosen.pop()
            used.difference_update(s)
        return False

    found = rec(0)
    del rec  # it reaches itself through its closure: free the search without the cycle collector
    if found:
        return True, tuple(chosen)
    return False, None


def n_array_count(
    struct: Structure,
    rel: str,
    x_positions: Sequence[int],
    m: int,
    parameters: Iterable[int],
) -> int:
    """Number of types over A supporting an m-array."""
    return sum(
        1 for tp in type_space(struct, rel, x_positions, parameters) if supports_m_array(tp, m)[0]
    )


@dataclass(frozen=True)
class MAVerdict:
    holds: bool
    bound: int
    violation: tuple[tuple[int, ...], tuple[int, ...], int] | None  # (x-positions, assignment, completions)


def is_k_mutually_algebraic(struct: Structure, rel: str, k: int) -> MAVerdict:
    """Every proper split admits fewer than k completions from any assignment."""
    if k < 1:
        raise ValueError("k must be >= 1")
    arity = struct.language.rel_arity(rel)
    tuples = struct.tuples_of(rel)
    for size in range(1, arity):
        for xs in itertools.combinations(range(arity), size):
            ys = tuple(p for p in range(arity) if p not in xs)
            completions: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
            for t in tuples:
                key = tuple(t[p] for p in xs)
                completions.setdefault(key, set()).add(tuple(t[p] for p in ys))
            for key, comps in completions.items():
                if len(comps) >= k:
                    return MAVerdict(holds=False, bound=k, violation=(xs, key, len(comps)))
    return MAVerdict(holds=True, bound=k, violation=None)


def is_totally_bounded_upto(spec: PropertySpec, k: int, n_max: int, budget: int | None = None):
    """Refuted with (member, relation, split, assignment) at >= k completions."""
    for level in generate_levels(spec, n_max, budget):
        for rep, _ in level:
            for name, _arity in spec.language.relations:
                verdict = is_k_mutually_algebraic(rep, name, k)
                if not verdict.holds:
                    return Refuted(
                        witness=rep,
                        detail={
                            "relation": name,
                            "split": verdict.violation[0],
                            "assignment": verdict.violation[1],
                            "completions": verdict.violation[2],
                        },
                    )
    return Consistent(checked_upto=n_max)


@dataclass(frozen=True)
class ProbeRow:
    n: int
    max_count: int
    witness: Structure | None
    witness_parameters: tuple[int, ...]

    def witness_id(self) -> str:
        """Short stable digest of the witness structure (empty if none)."""
        if self.witness is None:
            return ""
        # imported here, not at the top: hashlib loads OpenSSL, which adds
        # about 3.7 MB resident and 3 ms to every process that imports hspeed
        import hashlib

        payload = repr(
            (self.witness.n, tuple(tuple(sorted(ts)) for ts in self.witness.rel_tuples))
        ).encode()
        return hashlib.blake2s(payload, digest_size=4).hexdigest()


@dataclass(frozen=True)
class ProbeTable:
    rows: tuple[ProbeRow, ...]
    seed: int


def bounded_array_probe(
    spec: PropertySpec,
    rel: str,
    x_positions: Sequence[int],
    m: int,
    n_max: int,
    a_max: int = 6,
    seed: int = 0,
    budget: int | None = None,
) -> ProbeTable:
    """Per n, the max type count over generated members and parameter sets.

    Parameter sets of size <= 3 are exhausted; larger ones are searched by
    seeded hill climbing, so recorded values are certified lower bounds.
    """
    rng = random.Random(seed)
    rows = []
    for n, level in enumerate(generate_levels(spec, n_max, budget), start=1):
        best = 0
        best_struct = None
        best_A: tuple[int, ...] = ()
        for rep, _ in level:
            elems = list(rep.elements())
            for size in range(0, min(3, len(elems)) + 1):
                for A in itertools.combinations(elems, size):
                    val = n_array_count(rep, rel, x_positions, m, A)
                    if val > best:
                        best, best_struct, best_A = val, rep, A
            for size in range(4, min(a_max, len(elems)) + 1):
                for _ in range(PROBE_RESTARTS):
                    A = set(rng.sample(elems, size))
                    val = n_array_count(rep, rel, x_positions, m, A)
                    improved = True
                    while improved:
                        improved = False
                        for out_e in sorted(A):
                            for in_e in elems:
                                if in_e in A:
                                    continue
                                cand = (A - {out_e}) | {in_e}
                                cval = n_array_count(rep, rel, x_positions, m, cand)
                                if cval > val:
                                    A, val = cand, cval
                                    improved = True
                    if val > best:
                        best, best_struct, best_A = val, rep, tuple(sorted(A))
        rows.append(ProbeRow(n=n, max_count=best, witness=best_struct, witness_parameters=tuple(best_A)))
    return ProbeTable(rows=tuple(rows), seed=seed)


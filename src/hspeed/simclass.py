"""The swap-equivalence relation, canonical decompositions, and signatures.

Two elements are equivalent when transposing them (fixing everything
else) is an automorphism; an element interpreting a constant is only
equivalent to itself, since the transposition would move a named point.
The decomposition lists the classes by size and extracts, for every
atomic pattern, the set of class-index tuples on which it holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import OutOfRange
from .structures import Structure


@dataclass(frozen=True)
class AtomicDiff:
    """A relation applied to a variable pattern with distinct variable values.

    ``pattern`` assigns each slot a variable index (0-based, numbered by
    first occurrence); repeated indices encode diagonal atoms like
    R(x,x).  Distinctness is imposed across different variables only.
    """

    rel: str
    pattern: tuple[int, ...]

    def __post_init__(self):
        seen: list[int] = []
        for v in self.pattern:
            if v == len(seen):
                seen.append(v)
            elif v > len(seen):
                raise ValueError("pattern must number variables by first occurrence")

    @property
    def num_vars(self) -> int:
        return max(self.pattern) + 1

    def key(self) -> str:
        return f"{self.rel}({','.join('x%d' % (v + 1) for v in self.pattern)})"

    def expand(self, var_values: tuple[int, ...]) -> tuple[int, ...]:
        """Substitute variable values into the slot pattern."""
        return tuple(var_values[v] for v in self.pattern)


def _growth_pattern(t: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Restricted-growth pattern of a tuple plus its distinct values in order."""
    order: dict[int, int] = {}
    pattern = []
    for e in t:
        if e not in order:
            order[e] = len(order)
        pattern.append(order[e])
    return tuple(pattern), tuple(order)


def atomic_diffs(language) -> list[AtomicDiff]:
    """All variable patterns (set partitions of slot positions) per relation."""
    out = []
    for name, arity in language.relations:
        for pattern in _growth_strings(arity):
            out.append(AtomicDiff(name, pattern))
    return out


def _growth_strings(length: int) -> list[tuple[int, ...]]:
    strings = [()]
    for _ in range(length):
        nxt = []
        for s in strings:
            top = max(s, default=-1)
            for v in range(top + 2):
                nxt.append(s + (v,))
        strings = nxt
    return strings


def atomic_diff_from_key(language, key: str) -> AtomicDiff:
    rel, rest = key.split("(", 1)
    slots = rest.rstrip(")").split(",") if rest.rstrip(")") else []
    return AtomicDiff(rel, tuple(int(s.strip().lstrip("x")) - 1 for s in slots))


def realizations(struct: Structure, diff: AtomicDiff) -> set[tuple[int, ...]]:
    """Distinct-variable tuples realizing the atom in the structure."""
    out = set()
    for t in struct.tuples_of(diff.rel):
        pattern, values = _growth_pattern(t)
        if pattern == diff.pattern:
            out.add(values)
    return out


# ---------------------------------------------------------------------------


def sim_related(struct: Structure, a: int, b: int) -> bool:
    """True iff swapping a and b (fixing the rest) preserves the structure."""
    for e in (a, b):
        if e < 1 or e > struct.n:
            raise OutOfRange(f"element {e} outside [{struct.n}]")
    if a == b:
        return True
    if a in struct.constant_elements or b in struct.constant_elements:
        return False
    # the swap only moves tuples touching a or b, and it is a bijection, so
    # the relation is preserved iff each such tuple's image is in it
    swap = {a: b, b: a}
    for tuples in struct.rel_tuples:
        for t in tuples:
            if (a in t or b in t) and tuple(swap.get(e, e) for e in t) not in tuples:
                return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """Equivalence classes ordered by size with per-atom index signatures."""

    classes: tuple[frozenset[int], ...]
    sigma: tuple[tuple[AtomicDiff, frozenset[tuple[int, ...]]], ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    def sigma_of(self, diff: AtomicDiff) -> frozenset[tuple[int, ...]]:
        for d, s in self.sigma:
            if d == diff:
                return s
        raise KeyError(diff)


def decomposition(struct: Structure) -> Decomposition:
    """Canonical decomposition: classes sorted by (size, least element).

    The signature of every atomic pattern is verified by reconstruction
    against the structure before returning.
    """
    classes = _sim_classes(struct)
    index = {}
    for i, cls in enumerate(classes, start=1):
        for e in cls:
            index[e] = i
    sigma = []
    for diff in atomic_diffs(struct.language):
        realized = realizations(struct, diff)
        entries = frozenset(tuple(index[e] for e in values) for values in realized)
        sigma.append((diff, entries))
    decomp = Decomposition(tuple(classes), tuple(sigma))
    _verify_reconstruction(struct, decomp)
    return decomp


def class_count(struct: Structure) -> int:
    return len(_sim_classes(struct))


def _sim_classes(struct: Structure) -> list[frozenset[int]]:
    # one representative per class suffices: the relation is transitive,
    # since the swap (a c) is the conjugate (a b)(b c)(a b)
    classes: list[list[int]] = []
    for e in struct.elements():
        for cls in classes:
            if sim_related(struct, cls[0], e):
                cls.append(e)
                break
        else:
            classes.append([e])
    return sorted((frozenset(c) for c in classes), key=lambda c: (len(c), min(c)))


def reconstruct_atom(
    classes: tuple[frozenset[int], ...],
    entries: frozenset[tuple[int, ...]],
    diff: AtomicDiff,
) -> set[tuple[int, ...]]:
    """Expand class-index entries back into concrete structure tuples.

    The classes (or parts) are pairwise disjoint, so a choice of values
    repeats one only where its index repeats a class."""
    tuples: set[tuple[int, ...]] = set()
    for idx in entries:
        values = itertools.product(*[classes[i - 1] for i in idx])
        if len(set(idx)) < len(idx):
            values = (v for v in values if len(set(v)) == len(v))
        tuples.update(map(diff.expand, values))
    return tuples


def reconstruct_relations(language, classes, sigma) -> tuple[frozenset[tuple[int, ...]], ...]:
    """Relation tuple sets, aligned with ``language.relations``, rebuilt
    from classes (or ordered parts) and per-atom class-index signatures."""
    rebuilt: dict[str, set[tuple[int, ...]]] = {name: set() for name, _ in language.relations}
    for diff, entries in sigma:
        rebuilt[diff.rel] |= reconstruct_atom(classes, entries, diff)
    return tuple(frozenset(rebuilt[name]) for name, _ in language.relations)


def _verify_reconstruction(struct: Structure, decomp: Decomposition):
    rebuilt = reconstruct_relations(struct.language, decomp.classes, decomp.sigma)
    for (name, _), tuples, again in zip(struct.language.relations, struct.rel_tuples, rebuilt):
        if again != tuples:
            raise RuntimeError(
                f"signature reconstruction mismatch for {name}: "
                "the swap-equivalence classes do not induce full slices"
            )


def decomposition_to_json(decomp: Decomposition) -> dict:
    return {
        "classes": [sorted(cls) for cls in decomp.classes],
        "sigma": {
            diff.key(): sorted(list(t) for t in entries)
            for diff, entries in decomp.sigma
        },
    }

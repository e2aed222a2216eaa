"""Hereditary property specifications and exact speed enumeration.

Members are generated one vertex at a time as unlabeled representatives
by canonical augmentation (McKay, "Isomorph-free exhaustive generation",
1998), starting from the 0-element structure.  Each canonical parent is
extended by one admissible set of tuples touching the new vertex per orbit
of such sets under Aut(parent), whose generators each kept form carries
to the next level; so no two kept children of a parent are isomorphic,
and no set of seen forms is kept.  A child is kept exactly when the added
vertex lies in the automorphism orbit of the canonical deletion vertex,
chosen by a refined invariant.  An element's incidence invariant is, per
relation and position, the number of tuples holding it there; its
neighbour key is the sorted list of the incidence invariants of the
elements sharing a tuple with it.  Among the elements whose incidence
invariant is lexicographically maximal, the candidates are those whose
neighbour key is maximal too, and the deletion vertex is the candidate
with the largest canonical label.  A child whose new vertex is not a
candidate, or that does not represent its orbit, is dropped before it is
built, tested or canonized.  Forbidden substructures through the new
vertex are decided inside the extension search: a branch stops as soon as
the blocks decided so far complete a forbidden copy, so a representative
gets only the template check at its leaf, before it is canonized.
Labeled counts follow as n!/|Aut| per class.  At the top level, where no
form is kept, a child is not canonized when every other candidate x is
exchangeable with the new vertex v, that is, the transposition (x v) is an
automorphism of the child: the candidates are then the orbit of v, so
the child is kept, and by orbit-stabilizer |Aut(child)| is |Aut(parent)|
over the size of the orbit of v's extension set, which the extension
search marks anyway, times the number of candidates.  A child whose new
vertex is the only candidate is such a child.

For the graph base the extension sets are the masks S of the new vertex
v's neighbours, automorphisms act on them as bit permutations, and v is
invariant-maximal when |S| >= deg(u) + [u in S] for every old vertex u;
the neighbour key, needed only when some u ties with v, is the sorted
list of the neighbours' degrees in the child.  A branch stops as soon as
the vertices decided so far need more degree than v can still reach.
Every other base chooses the blocks touching v one at a time and reads
the keys off its invariant counts.  A block is the set of tuples the base
puts in or leaves out together: one tuple for base ``none``, the
reorderings of an r-set for the uniform base.  So there, too, an
extension set is a bitmask, one bit per block, automorphisms permute its
bits, and both searches mark orbits with one helper.

Forbidden induced substructures are checked through one compiled index
per spec.  For a forbidden size m, the slots are the least tuples of the
blocks of [m] (i < j for the graph base, increasing tuples for the
uniform base, all of [m]^arity per relation otherwise); the code of an
ordered subset is the int whose bit b is set when slot b's element tuple
is a tuple of the structure.  The index stores the codes of every labeled
copy of every forbidden structure of size m, the orbit of one copy's code
under the bit permutations that S_m induces on the slots, in one form: the
old slots avoid position m - 1, and each old code maps to the patterns
over the other, anchor slots that complete it to a forbidden code.  A
size's entry is built when a structure with at least m elements is first
probed, so a probe is one dict lookup per subset: no substructure is built
and nothing is canonized.  ``member`` probes every subset.  An extension
search probes none: once per parent it reads the old code of each
(m-1)-subset X of the parent, and where patterns complete it, it tests v's
blocks over X as soon as the last of them is decided.  A forbidden family
is a tuple of structures or a function from a size m to the structures of
size m, for a family of unbounded sizes.  The built-in properties are in
``corpus``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .canon import _getter, canonical_data, orbit
from .errors import BudgetExceeded, LanguageMismatch, TooFewRows
from .simclass import class_count, sim_related
from .structures import GRAPH, Language, Structure
from .template import Template, in_age

# ambient structural classes enforced on every member
BASE_NONE = "none"
BASE_GRAPH = "graph"  # single symmetric irreflexive binary relation
BASE_UNIFORM = "uniform"  # single fully symmetric relation, distinct entries


@dataclass(frozen=True)
class PropertySpec:
    """A hereditary property: the structures of an ambient base with no
    induced copy of a forbidden structure, in the age of some template when
    templates are given.

    ``forbidden`` is a tuple of structures, or a function from a size m to
    the tuple of forbidden structures of size m.  The graph base needs one
    binary relation, and every structure of a tuple must be over the
    language and satisfy the base; a function family is built in and
    trusted to do so.
    """

    language: Language
    base: str = BASE_NONE
    forbidden: tuple[Structure, ...] | Callable[[int], tuple[Structure, ...]] = ()
    templates: tuple[Template, ...] = ()

    def __post_init__(self):
        if self.base not in (BASE_NONE, BASE_GRAPH, BASE_UNIFORM):
            raise ValueError(f"unknown base {self.base}")
        if self.base != BASE_NONE and len(self.language.relations) != 1:
            raise ValueError("graph/uniform bases need a single-relation language")
        if self.base == BASE_GRAPH and self.language.relations[0][1] != 2:
            raise ValueError("the graph base needs a binary relation")
        if self.language.constants:
            raise ValueError("property generation supports constant-free languages")
        object.__setattr__(self, "_forbidden_index", _ForbiddenIndex(self))

    def member(self, struct: Structure) -> bool:
        if struct.language != self.language:
            raise LanguageMismatch("candidate over a different language")
        return self._base_ok(struct) and not _has_forbidden(self, struct) and _in_some_age(self, struct)

    def _base_ok(self, struct: Structure) -> bool:
        """Every tuple's block is non-empty and lies inside its relation."""
        return all(
            (block := _block(self.base, t)) and ts.issuperset(block) for ts in struct.rel_tuples for t in ts
        )


def _block(base: str, t: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The tuples that the base puts in or leaves out together with t: t
    alone for base ``none``; for the graph and uniform bases every
    reordering of t, or none at all when t repeats an entry."""
    if base == BASE_NONE:
        return (t,)
    if len(set(t)) < len(t):
        return ()
    return tuple(itertools.permutations(t))


def _in_some_age(spec: PropertySpec, struct: Structure) -> bool:
    """The template check of ``spec.member``, and the only check at a leaf of
    an extension search, which decides forbidden substructures on the way."""
    return not spec.templates or any(in_age(struct, t) for t in spec.templates)


def _has_forbidden(spec: PropertySpec, struct: Structure) -> bool:
    """Does some induced substructure match a forbidden structure?  Each
    subset of a forbidden size m is read, in increasing order, as a code
    over the size's old slots, and where patterns complete that code, its
    anchor flags are read too and matched against them; no substructure is
    built and nothing is canonized.  The extension searches probe no subset
    of a child: see ``_forbidden_cuts``."""
    index = spec._forbidden_index
    rels = struct.rel_tuples
    for m in range(struct.n + 1):
        old, anchor, completions = index[m]
        if not completions:
            continue
        for xs in itertools.combinations(struct.elements(), m):
            patterns = completions.get(_code(old, rels, xs))
            if patterns is not None and _flags(anchor, rels, xs) in patterns:
                return True
    return False


class _ForbiddenIndex(dict):
    """Forbidden size m -> (old slots, anchor slots, completions) of a spec
    (see ``_size_codes``), each built on its first lookup and kept, so the
    index holds at most one entry per size.

    A tuple family is checked against the spec's language and base here, at
    construction; after that both kinds of family are asked for their
    structures of each size m <= n on the first probe of an n-element
    structure.  A size with none stores ``((), (), {})`` and costs no subset
    scan.  So ``member`` on an n-element structure builds the entry of each
    odd cycle of size <= n from one orbit under S_m (20,160 = 9!/18 codes
    for C9).
    """

    def __init__(self, spec: PropertySpec):
        super().__init__()
        self.language, self.base, family = spec.language, spec.base, spec.forbidden
        if callable(family):
            self.family = family
            return
        for f in family:
            if f.language != spec.language:
                raise LanguageMismatch("forbidden structure over a different language")
            if not spec._base_ok(f):
                raise ValueError(f"a forbidden structure does not satisfy the {spec.base} base")
        self.family = lambda m: tuple(f for f in family if f.n == m)

    def __missing__(self, m: int):
        structures = self.family(m)
        self[m] = _size_codes(self.language, self.base, m, structures) if structures else ((), (), {})
        return self[m]


def _forbidden_cuts(spec: PropertySpec, parent: Structure, bit_of: dict, steps: int) -> list[list]:
    """The forbidden checks of an extension search of the member ``parent``
    by v = n + 1, whose extension sets are bitmasks of ``steps`` bits, one
    per block through v, decided lowest bit first; ``bit_of`` maps each
    tuple through v to its block's bit.  For each (m-1)-subset X of the
    parent, in increasing order, whose code over the old slots of size m
    some forbidden code completes (see ``_ForbiddenIndex``), the pair
    (mask, patterns) holds the bits of the blocks over X + (v,) and the
    restrictions of an extension set to them that complete a forbidden code.
    It is listed under the number of bits that decide it: one more than its
    highest bit, 0 when it has none.  An extension set S completes a forbidden
    copy through v exactly when S & mask is in patterns for some pair, and
    every copy in the child goes through v, as the parent is a member."""
    cuts: list[list] = [[] for _ in range(steps + 1)]
    if not spec.forbidden:
        return cuts
    index = spec._forbidden_index
    v = parent.n + 1
    rels = parent.rel_tuples
    for m in range(1, v + 1):
        old, anchor, completions = index[m]
        if not completions:
            continue
        for xs in itertools.combinations(range(1, v), m - 1):
            patterns = completions.get(_code(old, rels, xs))
            if patterns is None:
                continue
            xv = xs + (v,)
            bits = [bit_of[ri, read(xv)] for ri, read, _ in anchor]
            mask = sum(bits)
            restrictions = frozenset([sum(itertools.compress(bits, flags)) for flags in patterns])
            cuts[mask.bit_length()].append((mask, restrictions))
    return cuts


def _slots(language: Language, base: str, m: int) -> tuple[tuple[int, Callable, int], ...]:
    """(relation index, reader, bit) for each slot of size m: the least
    position tuple of each block of [m] (see ``_block``), in the order of
    ``itertools.product``, each read off an ordered subset by a precompiled
    ``itemgetter``.  So the graph base's slots are the pairs i < j, the
    uniform base's the increasing tuples, and base ``none``'s every tuple."""
    positions = _least_tuples(language, base, range(m))
    return tuple((ri, _getter(p), 1 << b) for b, (ri, p) in enumerate(positions))


def _least_tuples(language: Language, base: str, elements) -> list[tuple[int, tuple[int, ...]]]:
    """(relation index, t) for the least tuple t of each block over
    ``elements``, in the order of ``itertools.product``."""
    return [
        (ri, t)
        for ri, (_, arity) in enumerate(language.relations)
        for t in itertools.product(elements, repeat=arity)
        if t == min(_block(base, t), default=None)
    ]


def _code(slots, rel_tuples, xs: tuple[int, ...]) -> int:
    """Bit b is set when slot b's element tuple, read off ``xs``, is a tuple
    of its relation."""
    code = 0
    for ri, read, bit in slots:
        if read(xs) in rel_tuples[ri]:
            code |= bit
    return code


def _flags(slots, rel_tuples, xs: tuple[int, ...]) -> tuple[int, ...]:
    """``_code`` as a tuple of 0/1 flags, one per slot."""
    return tuple([int(read(xs) in rel_tuples[ri]) for ri, read, _ in slots])


def _size_codes(language: Language, base: str, m: int, structures: tuple[Structure, ...]):
    """(old slots, anchor slots, completions) of size m for ``structures``
    (all of size m): the old slots avoid the last position m - 1, and
    completions maps the old part of each code of a labeled copy to the
    anchor parts that complete it, as 0/1 flags, one per anchor slot.  Each
    structure's codes are its orbit under S_m, m!/|Aut| codes, marked into a
    set that is emptied into completions.  A permutation p of the positions
    moves slot b's bit to the slot whose block holds p of b's position
    tuple; the transposition (1 2) and the m-cycle generate S_m.  Equal
    anchor parts and equal lists of them are stored once."""
    slots = _slots(language, base, m)
    ident = tuple(range(m))
    bit_of = {(ri, t): bit for ri, read, bit in slots for t in _block(base, read(ident))}
    perms = [(1, 0, *ident[2:]), (*ident[1:], 0)] if m > 1 else []
    moves = [[bit_of[ri, read(p)] for ri, read, _ in slots] for p in perms]
    codes: set[int] = set()
    for f in structures:
        _mark_orbit(codes, _code(slots, f.rel_tuples, tuple(f.elements())), moves)
    anchor = tuple(slot for slot in slots if m - 1 in slot[1](ident))
    old = tuple(slot for slot in slots if slot not in anchor)
    anchor_bits = sum(bit for *_, bit in anchor)
    flags_of: dict[int, tuple[int, ...]] = {}
    shared: dict[tuple, tuple] = {}
    completions: dict[int, tuple] = {}
    while codes:
        code = codes.pop()
        part = code & anchor_bits
        if part not in flags_of:
            flags_of[part] = tuple(int(part & bit != 0) for *_, bit in anchor)
        parts = tuple(sorted(completions.get(code ^ part, ()) + (flags_of[part],)))
        completions[code ^ part] = shared.setdefault(parts, parts)
    return old, anchor, completions


def forbid(structures: Iterable[Structure]) -> PropertySpec:
    """Graphs with no induced copy of any of ``structures``."""
    structures = tuple(structures)
    lang = structures[0].language if structures else GRAPH
    return PropertySpec(language=lang, base=BASE_GRAPH, forbidden=structures)


# ---------------------------------------------------------------------------
# orderly generation


@lru_cache(maxsize=64)
def default_budget(language: Language, base: str) -> int:
    """The largest n_max generation runs without an explicit budget: the
    largest n with 2^B(n)/n! <= 300,000, at most 9 for arity <= 2 and 6
    above (all 3-graphs at n=7 have 7,013,320 classes).  B(n) is the number
    of blocks over [n] (see ``_block``), so 2^B(n) counts the labeled
    structures the base allows and 2^B(n)/n! bounds their classes from
    below; 300,000 is the scale of all graphs at n=9.  Graphs keep 9 and
    3-graphs 6; one ternary relation over base ``none`` gets 2, as its
    extension search at n=3 has 2^19 leaves for each parent.  It is the
    only cap on generation, and an explicit budget replaces it.  Computed
    once per (language, base): ``speed`` checks it twice per call."""
    cap = 9 if language.arity <= 2 else 6
    top = [0] * cap  # top[k]: the blocks whose least tuple's largest entry is k
    for _, t in _least_tuples(language, base, range(cap)):
        top[max(t)] += 1
    blocks = list(itertools.accumulate(top))  # blocks[n]: the blocks over [n + 1]
    n = 0
    while n < cap and 2 ** blocks[n] <= 300_000 * math.factorial(n + 1):
        n += 1
    return n


@dataclass(frozen=True)
class SpeedRow:
    n: int
    labeled: int
    unlabeled: int
    aut_counts: tuple[tuple[int, int], ...]  # (|Aut|, classes with it), ascending; a class has n!/|Aut| labelings


@dataclass(frozen=True)
class SpeedTable:
    rows: tuple[SpeedRow, ...]

    def labeled(self, n: int) -> int:
        for row in self.rows:
            if row.n == n:
                return row.labeled
        raise KeyError(n)

    def as_csv(self) -> str:
        lines = ["n,labeled,unlabeled"]
        lines += [f"{r.n},{r.labeled},{r.unlabeled}" for r in self.rows]
        return "\n".join(lines) + "\n"


def speed(spec: PropertySpec, n_max: int, budget: int | None = None) -> SpeedTable:
    """Exact labeled/unlabeled counts for 1 <= n <= n_max: the sum of n!/|Aut|
    over the classes of each level.  Levels below n_max come from
    ``generate_levels``; the top level's children are counted, not kept.  A
    child whose new vertex v is exchangeable with every other deletion
    candidate x, the transposition (x v) being an automorphism, is counted
    without canonization, by orbit-stabilizer.  The candidate set D is
    defined by invariants, so automorphisms map it to itself, and the
    transpositions put all of D in v's orbit: the orbit of v is D, the child
    is kept, and |Aut(child)| = |D| times the order of v's stabilizer.  That
    stabilizer is the stabilizer in Aut(parent) of v's extension set S, so
    |Aut(child)| = |Aut(parent)| / |orbit of S| * |D|, the orbit the
    extension search marks.  When v is the only candidate, |D| = 1.  Every
    other child is canonized and keep-tested as in ``generate_levels``."""
    _check_budget(spec, n_max, budget)
    rows = []
    level = _root_level(spec)
    for n, level in enumerate(generate_levels(spec, n_max - 1, budget), start=1):
        rows.append(_speed_row(n, (aut for _, aut in level)))
    if n_max >= 1:
        rows.append(_speed_row(n_max, (aut for _, aut in _kept(spec, level, n_max, counting=True))))
    return SpeedTable(tuple(rows))


def _speed_row(n: int, auts: Iterable[int]) -> SpeedRow:
    aut_counts = tuple(sorted(Counter(auts).items()))
    labeled = sum(math.factorial(n) // aut * count for aut, count in aut_counts)
    return SpeedRow(n=n, labeled=labeled, unlabeled=sum(count for _, count in aut_counts), aut_counts=aut_counts)


def generate_members(spec: PropertySpec, n: int, budget: int | None = None) -> list[Structure]:
    """Canonical unlabeled representatives of the property at size n."""
    reps: list = []
    for level in generate_levels(spec, n, budget):
        reps = level
    return [s for s, _ in reps]


def generate_levels(spec: PropertySpec, n_max: int, budget: int | None = None):
    """Yield levels 1..n_max lazily; each level lists (canonical rep, |Aut|),
    sorted by ``_sort_key``.  Generation starts from the 0-element structure."""
    _check_budget(spec, n_max, budget)
    level = _root_level(spec)
    for n in range(1, n_max + 1):
        nxt = _Level()
        for data, _ in _kept(spec, level, n):
            nxt.generators[data.form] = tuple(_conjugate(g, data.relabel) for g in data.aut_generators)
            nxt.append((data.form, data.aut_order))
        nxt.sort(key=lambda pair: _sort_key(pair[0]))
        level = nxt
        yield level


def _check_budget(spec: PropertySpec, n_max: int, budget: int | None):
    cap = default_budget(spec.language, spec.base) if budget is None else budget
    if n_max > cap:
        raise BudgetExceeded(f"n_max = {n_max} exceeds budget {cap}")


class _Level(list):
    """A level's (canonical form, |Aut|) pairs, with ``generators``: each
    form's automorphism generators, which the next level's extension search
    acts with."""

    def __init__(self):
        super().__init__()
        self.generators: dict[Structure, tuple[tuple[int, ...], ...]] = {}


def _root_level(spec: PropertySpec) -> _Level:
    root = Structure(spec.language, 0, tuple(frozenset() for _ in spec.language.relations), ())
    level = _Level()
    level.generators[root] = ()
    # the extension searches assume a member parent; only a 0-element forbidden structure rejects the root
    if not _has_forbidden(spec, root):
        level.append((root, 1))
    return level


def _kept(spec: PropertySpec, level: _Level, n: int, counting: bool = False):
    """Yield (canonical data, |Aut|) for each kept child on n elements of the
    parents in ``level``: a child is kept when its deletion vertex, the
    candidate with the largest canonical label, lies in the automorphism
    orbit of the new vertex n.  With ``counting``, a child whose every other
    candidate is exchangeable with n is kept uncanonized, as (None,
    |Aut(parent)| // the orbit size of its extension set * the number of
    candidates); see ``speed``."""
    for parent, aut in level:
        for child, candidates, orbit_size, exchangeable in _extensions(spec, parent, level.generators[parent]):
            if counting and exchangeable:
                yield None, aut // orbit_size * len(candidates)
                continue
            data = canonical_data(child)
            deleted = max(candidates, key=data.relabel.__getitem__)
            if deleted == n or deleted in orbit([n], data.aut_generators):
                yield data, data.aut_order


def _conjugate(g: tuple[int, ...], relabel: dict[int, int]) -> tuple[int, ...]:
    """The automorphism of the relabeled structure that ``g`` induces: it
    maps relabel[x] to relabel[g(x)], each image placed at its point."""
    image = [0] * len(g)
    for x, gx in enumerate(g, start=1):
        image[relabel[x] - 1] = relabel[gx]
    return tuple(image)


def _sort_key(struct: Structure):
    return tuple(tuple(sorted(ts)) for ts in struct.rel_tuples)


def _extensions(spec: PropertySpec, parent: Structure, generators):
    """The children of ``parent`` that may be kept, each with its deletion
    candidates, the size of its extension set's orbit under the parent
    automorphisms, and whether every candidate x other than the new vertex v
    is exchangeable with v, the transposition (x v) being an automorphism
    of the child: by adjacency masks for the graph base, by block masks for
    every other base."""
    search = _graph_extensions if spec.base == BASE_GRAPH else _group_extensions
    return search(spec, parent, generators)


def _group_extensions(spec: PropertySpec, parent: Structure, generators):
    """Members on [n+1] extending the parent by vertex v = n+1 whose new
    vertex is maximal under the refined invariant, one per orbit of
    extension sets under the parent automorphisms ``generators``, each with
    the elements sharing v's incidence invariant and neighbour key (the
    candidates for the canonical deletion vertex), the size of that orbit,
    and whether the transposition of v with each other candidate maps the
    child's tuples onto themselves.  An extension set is a bitmask over the
    blocks touching v (see ``_block``), sorted by support, size first; it is
    chosen one block at a time, out before in, and the invariants are
    updated as tuples are chosen, before any child is built.  A branch stops
    as soon as the blocks decided so far complete a forbidden copy (see
    ``_forbidden_cuts``).
    This is the search for every base; ``_graph_extensions`` gives the same
    children in the same order for the graph base.
    """
    lang = spec.language
    n = parent.n
    v = n + 1
    offsets = list(itertools.accumulate((arity for _, arity in lang.relations), initial=0))
    counts = [[0] * offsets[-1] for _ in range(v)]  # counts[x - 1] is the invariant of x

    def tally(ri: int, t: tuple[int, ...], step: int):
        for p, x in enumerate(t):
            counts[x - 1][offsets[ri] + p] += step

    for ri, ts in enumerate(parent.rel_tuples):
        for t in ts:
            tally(ri, t, 1)

    blocks = [
        [(ri, p) for p in _block(spec.base, t)] for ri, t in _least_tuples(lang, spec.base, range(1, v + 1)) if v in t
    ]

    def support(block) -> tuple[int, list[int]]:
        elements = set(block[0][1])
        return len(elements), sorted(elements)

    blocks.sort(key=support)
    # each generator, fixing v, maps block b's bit to the bit of its image
    bit_of = {rt: 1 << b for b, block in enumerate(blocks) for rt in block}
    moves = []
    for g in generators:
        image = g + (v,)
        moves.append([bit_of[ri, tuple(image[x - 1] for x in t)] for (ri, t), *_ in blocks])
    marked: set[int] = set()
    cuts = _forbidden_cuts(spec, parent, bit_of, len(blocks))

    parent_tuples = [set(ts) for ts in parent.rel_tuples]
    parent_near = [set() for _ in range(v + 1)]  # x and the elements sharing a parent tuple with x
    for ts in parent.rel_tuples:
        for t in ts:
            for x in t:
                parent_near[x].update(t)

    chosen: list[set[tuple[int, ...]]] = [set() for _ in lang.relations]

    def neighbour_invariants(x: int, inv: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The sorted invariants of the elements sharing a tuple with x in the child."""
        near = set(parent_near[x])
        for ts in chosen:
            for t in ts:
                if x in t:
                    near.update(t)
        near.discard(x)
        return sorted([inv[y - 1] for y in near])

    results: list[tuple[Structure, list[int], int, bool]] = []

    def rec(b: int, code: int):
        for mask, patterns in cuts[b]:
            if (code & mask) in patterns:
                return
        if b == len(blocks):
            inv = [tuple(c) for c in counts]
            # an orbit's first choice represents it; every choice of the
            # orbit gives an isomorphic child with v fixed
            if inv[n] != max(inv) or code in marked:
                return
            tied = [x for x in range(1, v) if inv[x - 1] == inv[n]]
            candidates = _deletion_candidates(tied, v, lambda x: neighbour_invariants(x, inv))
            if candidates is None:
                return
            orbit_size = _mark_orbit(marked, code, moves)
            rel_tuples = tuple(frozenset(parent_tuples[ri] | chosen[ri]) for ri in range(len(lang.relations)))
            child = Structure._trusted(lang, v, rel_tuples, ())
            if _in_some_age(spec, child):
                exchangeable = all(sim_related(child, x, v) for x in candidates[:-1])
                results.append((child, candidates, orbit_size, exchangeable))
            return
        rec(b + 1, code)
        for ri, t in blocks[b]:
            chosen[ri].add(t)
            tally(ri, t, 1)
        rec(b + 1, code | 1 << b)
        for ri, t in blocks[b]:
            chosen[ri].discard(t)
            tally(ri, t, -1)

    rec(0, 0)
    del rec  # it reaches itself through its closure: free the search without the cycle collector
    return results


def _mark_orbit(marked: set[int], code: int, moves: list[list[int]]) -> int:
    """Add the orbit of the bitmask ``code`` to ``marked`` and return how many
    codes it added: the orbit's size when no code of it was marked.  Each
    move is a bit permutation, listing the image of bit b at index b."""
    before = len(marked)
    marked.add(code)
    queue = [code]
    while queue:
        c = queue.pop()
        for move in moves:
            image, rest = 0, c
            while rest:  # the set bits of c, lowest first
                low = rest & -rest
                image |= move[low.bit_length() - 1]
                rest ^= low
            if image not in marked:
                marked.add(image)
                queue.append(image)
    return len(marked) - before


def _graph_extensions(spec: PropertySpec, parent: Structure, generators):
    """``_group_extensions`` for the graph base, over the mask S of the new
    vertex v's neighbours, bit u - 1 for u: the same int as the group
    search's code.  Leaves come in the same order (u = 1 outermost, no edge
    before edge), each automorphism acts on S as a bit permutation, and v is
    invariant-maximal when |S| >= deg(u) + [u in S] for every u; each u
    that ties is compared with v by the sorted degrees of their neighbours
    in the child.  A branch stops once the decided vertices need more
    degree than v can still reach, or complete a forbidden copy through v.
    A candidate x is exchangeable with v when x's parent neighbours are
    v's other neighbours, adj[x] == S minus x: one mask compare, where a
    relabeled tuple check would cost more than the canonization it saves
    on a warm canon cache.  The two tuples of each pair {u, v} are built
    once per parent and shared by its children."""
    n = parent.n
    v = n + 1
    tuples = parent.rel_tuples[0]
    deg = [0] * v
    for a, _ in tuples:
        deg[a] += 1
    edges = set(tuples)
    near = [[] for _ in range(v)]  # the parent's neighbours of each vertex
    adj = [0] * v  # the same, as masks
    for a, b in tuples:
        near[a].append(b)
        adj[a] |= 1 << (b - 1)

    def neighbour_degrees(x: int, code: int, size: int) -> list[int]:
        """The sorted degrees of x's neighbours in the child whose new vertex
        v has the neighbours ``code``, ``size`` of them."""
        if x == v:
            return sorted([deg[y] + 1 for y in range(1, v) if code >> (y - 1) & 1])
        degrees = [deg[y] + (code >> (y - 1) & 1) for y in near[x]]
        if code >> (x - 1) & 1:
            degrees.append(size)
        return sorted(degrees)
    pairs = [()] + [((u, v), (v, u)) for u in range(1, v)]
    moves = [[1 << (gu - 1) for gu in g] for g in generators]
    marked: set[int] = set()
    cuts = _forbidden_cuts(spec, parent, {(0, (u, v)): 1 << (u - 1) for u in range(1, v)}, n)

    chosen: set[tuple[int, int]] = set()
    results: list[tuple[Structure, list[int], int, bool]] = []

    def rec(u: int, code: int, size: int, need: int):
        # need: the largest deg(w) + [w in S] over the decided vertices w < u
        for mask, patterns in cuts[u - 1]:
            if (code & mask) in patterns:
                return
        if u == v:
            if size < need or code in marked:
                return
            tied = [x for x in range(1, v) if deg[x] + (code >> (x - 1) & 1) == size]
            candidates = _deletion_candidates(tied, v, lambda x: neighbour_degrees(x, code, size))
            if candidates is None:
                return
            orbit_size = _mark_orbit(marked, code, moves)
            # a frozenset copied from a set gets the smallest table that holds it
            child = Structure._trusted(spec.language, v, (frozenset(edges | chosen),), ())
            if _in_some_age(spec, child):
                exchangeable = all(adj[x] == code & ~(1 << (x - 1)) for x in candidates[:-1])
                results.append((child, candidates, orbit_size, exchangeable))
            return
        if need > size + v - u:
            return
        rec(u + 1, code, size, max(need, deg[u]))
        chosen.update(pairs[u])
        rec(u + 1, code | 1 << (u - 1), size + 1, max(need, deg[u] + 1))
        chosen.difference_update(pairs[u])

    rec(1, 0, 0, 0)
    del rec  # it reaches itself through its closure: free the search without the cycle collector
    return results


def _deletion_candidates(tied: list[int], v: int, key) -> list[int] | None:
    """The deletion candidates of a child whose new vertex v shares the
    maximal incidence invariant with the vertices ``tied``: those of them
    whose neighbour key equals v's, then v.  None when one of them has a
    larger key, so that v is not maximal under the refined invariant."""
    if not tied:
        return [v]
    top = key(v)
    candidates = []
    for x in tied:
        k = key(x)
        if k > top:
            return None
        if k == top:
            candidates.append(x)
    candidates.append(v)
    return candidates


# ---------------------------------------------------------------------------
# finite-scale probes


@dataclass(frozen=True)
class Refuted:
    witness: Structure
    detail: dict


@dataclass(frozen=True)
class Consistent:
    checked_upto: int
    detail: str = ""


def is_basic_upto(spec: PropertySpec, k: int, n_max: int, budget: int | None = None):
    """Refuted with a member having more than k classes, else Consistent."""
    for level in generate_levels(spec, n_max, budget):
        for rep, _ in level:
            classes = class_count(rep)
            if classes > k:
                return Refuted(witness=rep, detail={"classes": classes, "bound": k})
    return Consistent(checked_upto=n_max, detail=f"all members up to {n_max} have <= {k} classes")


# ---------------------------------------------------------------------------
# growth diagnostics


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[dict, ...]
    tag: str


def growth_diagnostics(table: SpeedTable) -> GrowthReport:
    """Finite-n trend readout with a heuristic range tag."""
    rows = table.rows
    if len(rows) < 4:
        raise TooFewRows("need at least 4 rows of counts")
    out = []
    prev_log2 = None
    for row in rows:
        log2 = math.log2(row.labeled) if row.labeled else float("-inf")
        entry = {
            "n": row.n,
            "labeled": row.labeled,
            "log2": log2,
            "log_ratio": (math.log(row.labeled) / (row.n * math.log(row.n))) if row.n > 1 and row.labeled > 0 else 0.0,
            "over_factorial": row.labeled / math.factorial(row.n),
            "diff_log2": (log2 - prev_log2) if prev_log2 is not None else None,
        }
        prev_log2 = log2
        out.append(entry)
    tag = _growth_tag(out)
    return GrowthReport(rows=tuple(out), tag=tag)


def _growth_tag(rows: list[dict]) -> str:
    last = rows[-1]
    if last["labeled"] == 0:  # a hereditary property empty at n is empty above n: the speed is 0
        return "polynomial/exponential"
    if last["labeled"] >= math.factorial(last["n"]):
        return "penultimate-or-above"
    # slope of log2-count differences against log2 n over the last rows
    pts = [(math.log2(r["n"]), r["diff_log2"]) for r in rows[-4:] if r["diff_log2"] is not None]
    if len(pts) >= 2:
        xbar = sum(x for x, _ in pts) / len(pts)
        ybar = sum(y for _, y in pts) / len(pts)
        denom = sum((x - xbar) ** 2 for x, _ in pts)
        slope = sum((x - xbar) * (y - ybar) for x, y in pts) / denom if denom else 0.0
    else:
        slope = 0.0
    if slope <= 0.3:
        return "polynomial/exponential"
    ratio = last["log_ratio"]
    if ratio >= 0.95:
        return "penultimate-or-above"
    k = max(2, round(1 / (1 - ratio)))
    return f"factorial-degree-{k}"

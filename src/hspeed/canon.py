"""Canonical labeling by partition refinement plus backtracking.

Refinement colors elements by iterated tuple-incidence signatures;
backtracking individualizes elements of the first non-singleton cell and
keeps the lexicographically minimal relabeled encoding as the canonical
form.  A leaf whose encoding equals the first leaf's yields an
automorphism, and the search backs up to where the two paths part, since
the rest of that subtree is an image of one already explored.  Pruning
skips children in the orbit of explored ones under the generators fixing
the current prefix.  The group order comes from the first path v_1..v_k:
|Aut| is the product of the orbit sizes of v_i under the generators that
fix v_1..v_{i-1} (McKay 1981).  Adequate for n <~ 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .structures import Structure


# ---------------------------------------------------------------------------
# permutations as 1-based tuples: perm[i-1] is the image of i


def orbit(points, generators) -> set[int]:
    """Closure of ``points`` under the permutations in ``generators``."""
    seen = set(points)
    queue = list(seen)
    while queue:
        p = queue.pop()
        for g in generators:
            q = g[p - 1]
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


# ---------------------------------------------------------------------------
# refinement


def _incidence(struct: "Structure") -> dict[int, list[tuple[int, tuple[int, ...]]]]:
    inc: dict[int, list] = {x: [] for x in struct.elements()}
    for ri, tuples in enumerate(struct.rel_tuples):
        for t in tuples:
            for x in set(t):
                inc[x].append((ri, t))
    return inc


def _initial_colors(struct: "Structure") -> dict[int, int]:
    # constants seed their own cells, keyed by the set of names they interpret
    named = {x: [] for x in struct.elements()}
    for cname, val in zip(struct.language.constants, struct.const_vals):
        named[val].append(cname)
    seeds = {x: tuple(sorted(named[x])) for x in struct.elements()}
    ordered = sorted(set(seeds.values()))
    index = {s: i for i, s in enumerate(ordered)}
    return {x: index[seeds[x]] for x in struct.elements()}


def _refine(struct: "Structure", colors: dict[int, int], incidence) -> dict[int, int]:
    ncolors = len(set(colors.values()))
    while True:
        sigs = {}
        for x in struct.elements():
            occ = sorted(
                (ri, tuple(colors[e] if e != x else -1 for e in t))
                for ri, t in incidence[x]
            )
            sigs[x] = (colors[x], tuple(occ))
        ordered = sorted(set(sigs.values()))
        index = {s: i for i, s in enumerate(ordered)}
        new = {x: index[sigs[x]] for x in struct.elements()}
        if len(ordered) == ncolors:
            return new
        colors, ncolors = new, len(ordered)


def _individualize(colors: dict[int, int], x: int) -> dict[int, int]:
    keyed = {y: (c, 1 if y == x else 0) for y, c in colors.items()}
    ordered = sorted(set(keyed.values()))
    index = {s: i for i, s in enumerate(ordered)}
    return {y: index[keyed[y]] for y in keyed}


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class CanonicalData:
    form: "Structure"
    relabel: dict[int, int]
    aut_generators: tuple[tuple[int, ...], ...]
    aut_order: int


def _search(struct: "Structure"):
    n = struct.n
    incidence = _incidence(struct)
    root = _refine(struct, _initial_colors(struct), incidence)

    first_enc = first_map = first_path = None
    best_enc = best_map = None
    gens: list[tuple[int, ...]] = []

    def encode(mapping: dict[int, int]):
        rels = tuple(
            tuple(sorted(tuple(mapping[e] for e in t) for t in tuples))
            for tuples in struct.rel_tuples
        )
        return (rels, tuple(mapping[v] for v in struct.const_vals))

    def fixing(prefix):
        return [g for g in gens if all(g[p - 1] == p for p in prefix)]

    def leaf(colors, path) -> int:
        nonlocal first_enc, first_map, first_path, best_enc, best_map
        mapping = {x: c + 1 for x, c in colors.items()}
        enc = encode(mapping)
        if best_enc is None or enc < best_enc:
            best_enc, best_map = enc, mapping
        if first_enc is None:
            first_enc, first_map, first_path = enc, mapping, path
        elif enc == first_enc:
            inv = {lab: e for e, lab in first_map.items()}
            gens.append(tuple(inv[mapping[e]] for e in range(1, n + 1)))
            # the generator fixes the shared prefix and moves the next point,
            # so it is new; the subtree where this path leaves the first one
            # is an image of the first one's: resume above it
            return next(i for i, (a, b) in enumerate(zip(path, first_path)) if a != b)
        return len(path)

    def rec(colors, prefix) -> int:
        """Explore below ``prefix``; return the depth to resume at."""
        by_color: dict[int, list[int]] = {}
        for x, c in colors.items():
            by_color.setdefault(c, []).append(x)
        target = None
        for c in sorted(by_color):
            if len(by_color[c]) > 1:
                target = sorted(by_color[c])
                break
        if target is None:
            return leaf(colors, prefix)
        explored: list[int] = []
        for v in target:
            if v in orbit(explored, fixing(prefix)):
                continue
            explored.append(v)
            depth = rec(_refine(struct, _individualize(colors, v), incidence), prefix + (v,))
            if depth < len(prefix):
                return depth
        return len(prefix)

    rec(root, ())
    # orbit-stabilizer along the first path: every point u of v_i's orbit
    # under Aut fixing v_1..v_{i-1} was explored or pruned, and exploring u
    # recorded a generator that fixes v_1..v_{i-1} and maps v_i to u
    order = 1
    for i, v in enumerate(first_path):
        order *= len(orbit([v], fixing(first_path[:i])))
    return best_map, tuple(gens), order


@lru_cache(maxsize=65536)
def canonical_data(struct: "Structure") -> CanonicalData:
    """Canonical form, relabeling, automorphism generators and group order."""
    from .structures import apply_bijection

    mapping, gens, order = _search(struct)
    form = apply_bijection(struct, mapping) if struct.n else struct
    return CanonicalData(form=form, relabel=mapping, aut_generators=gens, aut_order=order)

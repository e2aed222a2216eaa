"""Canonical labeling by partition refinement plus backtracking.

Refinement colors elements by iterated tuple-incidence signatures;
backtracking individualizes elements of the first non-singleton cell,
collects automorphisms from leaves with equal encodings, and keeps the
lexicographically minimal relabeled encoding as the canonical form.
Automorphism pruning uses only generators already found, so the final
generator set still generates the full group.  Adequate for n <~ 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .structures import Structure


# ---------------------------------------------------------------------------
# permutations as 1-based tuples: perm[i-1] is the image of i


def perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Composition a∘b (apply b first)."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v - 1] = i + 1
    return tuple(inv)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


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


def group_order(generators, n: int) -> int:
    """Exact order of the permutation group generated by ``generators``.

    Stabilizer chain built incrementally; every Schreier generator is
    sifted before insertion, which keeps the chain small.
    """
    identity = identity_perm(n)
    base: list[int] = []
    orbits: list[dict[int, tuple[int, ...]]] = []  # point -> coset rep
    strong: list[list[tuple[int, ...]]] = []

    def close_orbit(level: int):
        orb = orbits[level]
        queue = list(orb)
        while queue:
            p = queue.pop()
            rep = orb[p]
            for g in strong[level]:
                q = g[p - 1]
                if q not in orb:
                    orb[q] = perm_mul(g, rep)
                    queue.append(q)

    pending: list[tuple[tuple[int, ...], int]] = [(tuple(g), 0) for g in generators]
    while pending:
        g, level = pending.pop()
        # sift through the chain starting at `level`
        j = level
        while j < len(base):
            p = g[base[j] - 1]
            if p not in orbits[j]:
                break
            g = perm_mul(perm_inv(orbits[j][p]), g)
            j += 1
        if g == identity:
            continue
        if j == len(base):
            b = next(k + 1 for k in range(n) if g[k] != k + 1)
            base.append(b)
            orbits.append({b: identity})
            strong.append([])
        strong[j].append(g)
        close_orbit(j)
        for p, rep in list(orbits[j].items()):
            for h in strong[j]:
                q = h[p - 1]
                s = perm_mul(perm_inv(orbits[j][q]), perm_mul(h, rep))
                if s != identity:
                    pending.append((s, j + 1))

    order = 1
    for orb in orbits:
        order *= len(orb)
    return order


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

    first_enc = [None]
    first_map = [None]
    best_enc = [None]
    best_map = [None]
    gens: list[tuple[int, ...]] = []

    def encode(mapping: dict[int, int]):
        rels = tuple(
            tuple(sorted(tuple(mapping[e] for e in t) for t in tuples))
            for tuples in struct.rel_tuples
        )
        return (rels, tuple(mapping[v] for v in struct.const_vals))

    def record_automorphism(stored_map, mapping):
        inv = {lab: e for e, lab in stored_map.items()}
        perm = tuple(inv[mapping[e]] for e in range(1, n + 1))
        if perm != identity_perm(n) and perm not in gens:
            gens.append(perm)

    def leaf(colors):
        mapping = {x: c + 1 for x, c in colors.items()}
        enc = encode(mapping)
        if first_enc[0] is not None and enc == first_enc[0]:
            record_automorphism(first_map[0], mapping)
        if best_enc[0] is not None and enc == best_enc[0] and first_enc[0] != enc:
            record_automorphism(best_map[0], mapping)
        if first_enc[0] is None:
            first_enc[0], first_map[0] = enc, mapping
        if best_enc[0] is None or enc < best_enc[0]:
            best_enc[0], best_map[0] = enc, mapping

    def pruned(v, explored, prefix):
        fixing = [g for g in gens if all(g[p - 1] == p for p in prefix)]
        return v in orbit(explored, fixing)

    def rec(colors, prefix):
        by_color: dict[int, list[int]] = {}
        for x, c in colors.items():
            by_color.setdefault(c, []).append(x)
        target = None
        for c in sorted(by_color):
            if len(by_color[c]) > 1:
                target = sorted(by_color[c])
                break
        if target is None:
            leaf(colors)
            return
        explored: list[int] = []
        for v in target:
            if pruned(v, explored, prefix):
                continue
            explored.append(v)
            rec(_refine(struct, _individualize(colors, v), incidence), prefix + (v,))

    rec(root, ())
    return best_map[0], tuple(gens)


@lru_cache(maxsize=65536)
def canonical_data(struct: "Structure") -> CanonicalData:
    """Canonical form, relabeling, automorphism generators and group order."""
    from .structures import apply_bijection

    mapping, gens = _search(struct)
    form = apply_bijection(struct, mapping) if struct.n else struct
    return CanonicalData(
        form=form,
        relabel=mapping,
        aut_generators=gens,
        aut_order=group_order(gens, struct.n),
    )

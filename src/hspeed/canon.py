"""Canonical labeling by partition refinement plus backtracking.

Colors are a list indexed by element holding the ranks 0..k-1 of the k
cells; slot 0 holds -1.  Refinement replaces colors by the ranks of the
elements' signatures until the number of cells stops growing; a discrete
partition returns at once, since ranking it by color alone gives it
back.  Individualizing x moves every later cell up by one and gives x the
color just above its old cell.  One search runs over one of two
refinement steps, chosen from the input:

* A graph (one binary relation, no constants, symmetric and loop-free)
  refines on adjacency masks, one int per element, with each cell a mask
  too.  An element of color c keys as ``(c,)`` when it is alone in its
  cell, whose rank no signature can change; as ``(c, 0)`` when it has no
  neighbours; and otherwise as ``(c, 1, k_0, ..., k_m)``, where k_i is the
  number of its non-neighbours in cell i (``int.bit_count``), which orders
  as minus the number of its neighbours there.  This orders elements as
  the general signature does, whose tail over the sorted neighbour colors
  c_1..c_d is (-1, c_i) for each i, then (c_i, -1) for each i: more
  neighbours of the least color where two differ come first, and no
  neighbours before any.  A leaf encodes as minus the sum of one bit per
  relabeled ordered edge (i, j), at bit n(n - i) + n - j: where two sorted
  edge lists of one graph first differ, the pair of the lesser list is the
  highest bit where the sums differ, so a smaller encoding is a smaller
  sorted list.
* Any other structure refines on signatures: an element's signature is
  its color and the sorted (relation index, colors of the tuple) pairs of
  the tuples holding it, the element itself read as -1.  Each tuple is
  compiled once per structure, through a bounded cache keyed by the
  tuple, into ``operator.itemgetter`` readers: for each element x of the
  tuple, one over a template with 0 where x sits, so x's signature is read
  straight off the color list; and one over the tuple itself, through
  which the leaf encoding reads the sorted relabeled tuples.

Backtracking individualizes elements of the first non-singleton cell and
keeps the leaf with the least encoding; the canonical form holds its
relabeled tuples, each relation's frozenset filled in sorted order, so the
form's iteration order depends only on the form.  A leaf whose encoding
equals the first leaf's yields an automorphism, and the search backs up to
where the two paths part, since the rest of that subtree is an image of
one already explored.  Pruning skips children in the orbit of explored
ones under the generators fixing the current prefix.  The group order
comes from the first path v_1..v_k: |Aut| is the product of the orbit
sizes of v_i under the generators that fix v_1..v_{i-1} (McKay 1981).
Adequate for n <~ 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
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
# refinement over signatures, for any structure


def _getter(template: tuple[int, ...]):
    if len(template) == 1:
        (i,) = template
        return lambda values: (values[i],)
    return itemgetter(*template)


@lru_cache(maxsize=2048)
def _readers(t: tuple[int, ...]):
    """The reader of ``t`` and, for each element x of ``t``, the reader of
    ``t`` with x read from slot 0."""
    return _getter(t), tuple((x, _getter(tuple(0 if e == x else e for e in t))) for x in set(t))


def _compile(struct: "Structure") -> tuple[list[list], list[list]]:
    """Per element x, a (relation index, reader) pair for each tuple holding
    x; and per relation, the reader of each of its tuples."""
    incidence: list[list] = [[] for _ in range(struct.n + 1)]
    readers = []
    for ri, tuples in enumerate(struct.rel_tuples):
        own = []
        for t in tuples:
            read, by_element = _readers(t)
            own.append(read)
            for x, read_x in by_element:
                incidence[x].append((ri, read_x))
        readers.append(own)
    return incidence, readers


def _general_steps(struct: "Structure"):
    """Signature refinement and the sorted relabeled tuples as leaf encoding."""
    n = struct.n
    incidence, readers = _compile(struct)
    consts = struct.const_vals

    def refine(col: list[int], ncells: int) -> tuple[list[int], int]:
        while ncells < n:
            sigs = [
                (col[x], tuple(sorted([(ri, read(col)) for ri, read in incidence[x]])))
                for x in range(1, n + 1)
            ]
            ordered = sorted(set(sigs))
            if len(ordered) == ncells:
                break
            index = {s: i for i, s in enumerate(ordered)}
            col = [-1] + [index[s] for s in sigs]
            ncells = len(ordered)
        return col, ncells

    def encode(lab: list[int]):
        return (
            tuple(tuple(sorted([read(lab) for read in rs])) for rs in readers),
            tuple(lab[v] for v in consts),
        )

    return refine, encode


# ---------------------------------------------------------------------------
# refinement over adjacency masks, for graphs


def _graph_masks(struct: "Structure") -> list[int] | None:
    """Per element x, the mask with bit y set for each neighbour y, when
    ``struct`` is a graph: one binary relation, no constants, symmetric and
    loop-free.  None otherwise."""
    relations = struct.language.relations
    if struct.language.constants or len(relations) != 1 or relations[0][1] != 2:
        return None
    tuples = struct.rel_tuples[0]
    adj = [0] * (struct.n + 1)
    for a, b in tuples:
        if a == b or (b, a) not in tuples:
            return None
        adj[a] |= 1 << b
    return adj


def _mask_steps(struct: "Structure", adj: list[int]):
    """Mask refinement and the relabeled edge bits as leaf encoding."""
    n = struct.n
    elements = range(1, n + 1)
    bits = [1 << x for x in range(n + 1)]
    apart = [~a for a in adj]  # non-neighbours, the element itself included
    edges = list(struct.rel_tuples[0])
    top = n * n + n

    def refine(col: list[int], ncells: int) -> tuple[list[int], int]:
        while ncells < n:
            cells = [0] * ncells
            for x in elements:
                cells[col[x]] |= bits[x]
            keys = []
            for x in elements:
                c = col[x]
                if cells[c] == bits[x]:
                    keys.append((c,))
                elif adj[x]:
                    keys.append((c, 1, *map(int.bit_count, map(apart[x].__and__, cells))))
                else:
                    keys.append((c, 0))
            ordered = sorted(set(keys))
            if len(ordered) == ncells:
                break
            index = {k: i for i, k in enumerate(ordered)}
            col = [-1] + [index[k] for k in keys]
            ncells = len(ordered)
        return col, ncells

    def encode(lab: list[int]) -> int:
        return -sum([1 << (top - n * lab[a] - lab[b]) for a, b in edges])

    return refine, encode


def _steps(struct: "Structure"):
    """The refinement step and leaf encoding for ``struct``."""
    adj = _graph_masks(struct)
    return _general_steps(struct) if adj is None else _mask_steps(struct, adj)


def _initial_colors(struct: "Structure") -> tuple[list[int], int]:
    # constants seed their own cells, keyed by the set of names they interpret
    named = {x: [] for x in struct.elements()}
    for cname, val in zip(struct.language.constants, struct.const_vals):
        named[val].append(cname)
    seeds = [tuple(sorted(named[x])) for x in struct.elements()]
    ordered = sorted(set(seeds))
    index = {s: i for i, s in enumerate(ordered)}
    return [-1] + [index[s] for s in seeds], len(ordered)


def _individualize(col: list[int], x: int) -> list[int]:
    """Split x off its cell, just above it; later cells move up by one."""
    cx = col[x]
    new = [c + (c > cx) for c in col]
    new[x] = cx + 1
    return new


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class CanonicalData:
    form: "Structure"
    relabel: dict[int, int]
    aut_generators: tuple[tuple[int, ...], ...]
    aut_order: int


def _search(struct: "Structure", steps=_steps):
    n = struct.n
    elements = range(1, n + 1)
    refine, encode = steps(struct)

    first_enc = first_lab = first_path = None
    best_enc = best_lab = None
    gens: list[tuple[int, ...]] = []

    def fixing(prefix):
        return [g for g in gens if all(g[p - 1] == p for p in prefix)]

    def leaf(col, path) -> int:
        nonlocal first_enc, first_lab, first_path, best_enc, best_lab
        lab = [c + 1 for c in col]
        enc = encode(lab)
        if best_enc is None or enc < best_enc:
            best_enc, best_lab = enc, lab
        if first_enc is None:
            first_enc, first_lab, first_path = enc, lab, path
        elif enc == first_enc:
            inv = [0] * (n + 1)
            for e in elements:
                inv[first_lab[e]] = e
            gens.append(tuple(inv[lab[e]] for e in elements))
            # the generator fixes the shared prefix and moves the next point,
            # so it is new; the subtree where this path leaves the first one
            # is an image of the first one's: resume above it
            return next(i for i, (a, b) in enumerate(zip(path, first_path)) if a != b)
        return len(path)

    def rec(col, ncells, prefix) -> int:
        """Explore below ``prefix``; return the depth to resume at."""
        if ncells == n:
            return leaf(col, prefix)
        sizes = [0] * ncells
        for x in elements:
            sizes[col[x]] += 1
        cx = next(c for c, size in enumerate(sizes) if size > 1)
        explored: list[int] = []
        for v in elements:
            if col[v] != cx or v in orbit(explored, fixing(prefix)):
                continue
            explored.append(v)
            depth = rec(*refine(_individualize(col, v), ncells + 1), prefix + (v,))
            if depth < len(prefix):
                return depth
        return len(prefix)

    rec(*refine(*_initial_colors(struct)), ())
    # orbit-stabilizer along the first path: every point u of v_i's orbit
    # under Aut fixing v_1..v_{i-1} was explored or pruned, and exploring u
    # recorded a generator that fixes v_1..v_{i-1} and maps v_i to u
    order = 1
    for i, v in enumerate(first_path):
        order *= len(orbit([v], fixing(first_path[:i])))
    rel_tuples = tuple(
        frozenset(sorted([tuple([best_lab[x] for x in t]) for t in ts])) for ts in struct.rel_tuples
    )
    return dict(zip(elements, best_lab[1:])), rel_tuples, tuple(gens), order


@lru_cache(maxsize=65536)
def canonical_data(struct: "Structure") -> CanonicalData:
    """Canonical form, relabeling, automorphism generators and group order."""
    from .structures import Structure

    mapping, rel_tuples, gens, order = _search(struct)
    const_vals = tuple(mapping[v] for v in struct.const_vals)
    form = Structure._trusted(struct.language, struct.n, rel_tuples, const_vals)
    return CanonicalData(form=form, relabel=mapping, aut_generators=gens, aut_order=order)

"""Canonical labeling by partition refinement plus backtracking.

A partition is an ordered list of cell masks, one bit per element, a
cell's rank being its place in the list.  A structure with no constants
starts from the unit partition; constants split it by the names each
element interprets.  A refinement round splits each non-singleton cell by
its elements' keys, the parts in key order taking the cell's place, so no
global sort is needed; rounds run until no cell splits, which leaves an
equitable partition.  A discrete partition is a leaf, whose colors are a
list indexed by element holding the ranks 0..n-1, slot 0 holding -1.
Individualizing x splits it off its cell and places it alone just after
the rest of that cell.  One search runs over one of two step sets, chosen
from the input, which differ only in the round, the exact first rounds,
the leaf encoding, the form and the twin cells below.

* A graph (one binary relation, no constants, symmetric and loop-free)
  keys on adjacency, one mask per element: an element keys as ``()`` when
  it has no neighbours, and otherwise as ``(k_0, ..., k_m)``, where k_i
  is the number of its non-neighbours in cell i (``int.bit_count``),
  which orders as minus the number of its neighbours there.  This orders
  elements as the signature round does, whose tail over the sorted
  neighbour colors c_1..c_d is (-1, c_i) for each i, then (c_i, -1) for
  each i: more neighbours of the least color where two differ come
  first, and no neighbours before any.  Two first rounds are computed
  exactly, without keys (the first splitting step of McKay and Piperno,
  "Practical graph isomorphism II", 2014).  From the unit partition, the
  elements with no neighbours come first, then the others by decreasing
  degree.  After individualizing v in an equitable partition, every cell
  splits into v's non-neighbours, then its neighbours; when no cell
  splits, that partition is already equitable, and the round that would
  only confirm it is skipped.  A leaf encodes as minus the sum of one bit
  per relabeled ordered edge (i, j), at bit n(n - i) + n - j: where two
  sorted edge lists of one graph first differ, the pair of the lesser
  list is the highest bit where the sums differ, so a smaller encoding is
  a smaller sorted list.
* Any other structure keys on signatures: an element's key is the sorted
  (relation index, colors of the tuple) pairs of the tuples holding it,
  the element itself read as -1.  Its cell's rank leads, so the parts are
  the ranks of a global sort of (color, key) signatures.  Each tuple is
  compiled once per structure, through a bounded cache keyed by the
  tuple, into ``operator.itemgetter`` readers: for each element x of the
  tuple, one over a template with 0 where x sits, so x's key is read
  straight off the color list; and one over the tuple itself, through
  which the leaf encoding reads the sorted relabeled tuples.

Backtracking individualizes the elements of the first non-singleton cell
in ascending order and keeps the leaf with the least encoding; the
canonical form holds its relabeled tuples, each relation's frozenset
filled in sorted order, so the form's iteration order depends only on the
form.  A leaf whose encoding equals the first leaf's yields an
automorphism, and the search backs up to where the two paths part, since
the rest of that subtree is an image of one already explored.  Pruning
skips children in the orbit of explored ones under the generators fixing
the current prefix; that orbit grows by each explored child's orbit and
is recomputed only when a generator is added.  The group order comes from
the first path v_1..v_k: |Aut| is the product of the orbit sizes of v_i
under the generators that fix v_1..v_{i-1} (McKay 1981), each taken when
the search leaves v_i's node, as no later generator fixes v_1..v_i.
Adequate for n <~ 12.

On the mask path the search does not walk a node whose non-singleton
cells are all sets of twins: elements with one closed neighbourhood (a
clique) or one open neighbourhood (an independent set).  Such a partition
is equitable, each transposition inside a cell is an automorphism, and
individualizing an element splits no cell, so every leaf below it is the
same relabeled graph (nauty needs no search there either, McKay and
Piperno 2014).  The search emulates the walk exactly.  Individualizing
each cell's elements a_1 < ... < a_k in ascending order, a_1..a_{k-1},
cell by cell, it would first reach the leaf with each cell's elements in
descending order; that leaf is recorded.  Off the first path the walk
ends there: that leaf either equals the first one, yields a generator and
backs up, or does not, and neither does any other leaf below.  On the
first path, backing up from the last cell to the first, the node that
individualized a_j next explores a_{j+1}, whose first leaf gives the
transposition (a_j a_{j+1}); a_j's orbit is then a_j..a_k.  So the search
records these transpositions for j = k-1 down to 1, cells last to first,
and each cell multiplies |Aut| by k!.  A target cell of twins beside
cells that are not twin classes is walked, as its generators depend on
the walk.  The signature path has no such shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import factorial
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
# partitions as ordered lists of cell masks


def _bits(m: int) -> list[int]:
    """The elements of the mask ``m``, ascending."""
    xs = []
    while m:
        low = m & -m
        xs.append(low.bit_length() - 1)
        m ^= low
    return xs


def _split_by(elements, key) -> list[int]:
    """The masks of ``elements`` grouped by ``key``, in key order."""
    parts: dict = {}
    for x in elements:
        k = key(x)
        parts[k] = parts.get(k, 0) | 1 << x
    return [parts[k] for k in sorted(parts)]


def _refine(one_round, cells: list[int], n: int) -> list[int]:
    """Rounds of ``one_round`` until no cell splits or every cell is a singleton."""
    while len(cells) < n:
        split = one_round(cells)
        if len(split) == len(cells):
            break
        cells = split
    return cells


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


def _signature_steps(struct: "Structure"):
    """Signature rounds from the unit partition split by constant names; the
    sorted relabeled tuples and the constants' colors as leaf encoding, and
    the relabeled tuples as the form."""
    n = struct.n
    incidence, readers = _compile(struct)
    consts = struct.const_vals

    def one_round(cells: list[int]) -> list[int]:
        """Each non-singleton cell splits by its elements' keys, read off the
        cells' ranks, the parts in key order."""
        col = [-1] * (n + 1)
        for c, m in enumerate(cells):
            for x in _bits(m):
                col[x] = c

        def key(x: int):
            return tuple(sorted([(ri, read(col)) for ri, read in incidence[x]]))

        split = []
        for m in cells:
            if m & (m - 1):
                split += _split_by(_bits(m), key)
            else:
                split.append(m)
        return split

    def descend(cells: list[int], v: int) -> list[int]:
        bit = 1 << v
        i = next(i for i, m in enumerate(cells) if m & bit)
        return _refine(one_round, [*cells[:i], cells[i] ^ bit, bit, *cells[i + 1 :]], n)

    def encode(col: list[int]):
        return (
            tuple(tuple(sorted([read(col) for read in rs])) for rs in readers),
            tuple(col[v] for v in consts),
        )

    def relabel(lab: list[int]):
        return tuple(frozenset(sorted([read(lab) for read in rs])) for rs in readers)

    # constants seed cells of their own, keyed by the names each element interprets
    named: list[list[str]] = [[] for _ in range(n + 1)]
    for cname, val in zip(struct.language.constants, consts):
        named[val].append(cname)
    seeded = _split_by(range(1, n + 1), lambda x: tuple(sorted(named[x])))
    return _refine(one_round, seeded, n), descend, encode, relabel, None


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


def _mask_round(adj: list[int], cells: list[int]) -> list[int]:
    """One round of mask refinement: each non-singleton cell splits by its
    elements' keys, the parts in key order, in place of the cell."""
    split = []
    for m in cells:
        if m & (m - 1):
            parts: dict[tuple[int, ...], int] = {}
            rest = m
            while rest:
                low = rest & -rest
                rest ^= low
                a = adj[low.bit_length() - 1]
                # non-neighbours per cell, the element itself included; built
                # at its final size, since tuple(map(...)) starts at a guessed
                # size and is freed into another size's free list, which then
                # holds up to 2,000 dead keys per size
                key = (*map(int.bit_count, map((~a).__and__, cells)),) if a else ()
                parts[key] = parts.get(key, 0) | low
            if len(parts) > 1:
                split += [parts[k] for k in sorted(parts)]
                continue
        split.append(m)
    return split


def _mask_unit_round(adj: list[int]) -> list[int]:
    """The first mask refinement round from the unit partition, without keys:
    the elements with no neighbours, then the others by decreasing degree.
    With fewer than two elements, the unit partition itself."""
    n = len(adj) - 1
    parts: dict[int, int] = {}
    for x in range(1, n + 1):
        d = adj[x].bit_count()
        key = n - d if d else -1
        parts[key] = parts.get(key, 0) | 1 << x
    return [parts[k] for k in sorted(parts)]


def _mask_individualize(adj: list[int], cells: list[int], v: int) -> list[int]:
    """The first mask refinement round after individualizing v in the
    equitable partition ``cells``, without keys: every cell splits into v's
    non-neighbours, then its neighbours, and v lands alone just after the
    rest of its old cell."""
    near = adj[v]
    bit = 1 << v
    split = []
    for m in cells:
        own = m & bit
        m ^= own
        close = m & near
        if close and close != m:
            split += (m ^ close, close)
        else:
            split.append(m)
        if own:
            split.append(bit)
    return split


def _twin_cells(adj: list[int], cells: list[int]) -> bool:
    """Whether every non-singleton cell is a set of twins: its elements have
    one closed neighbourhood (a clique) or one open neighbourhood (an
    independent set), so they share their neighbours outside it."""
    for m in cells:
        if m & (m - 1):
            low = m & -m
            a = adj[low.bit_length() - 1]
            if a & m:
                a |= low
                if any(adj[x] | 1 << x != a for x in _bits(m ^ low)):
                    return False
            elif any(adj[x] != a for x in _bits(m ^ low)):
                return False
    return True


def _mask_steps(struct: "Structure", adj: list[int]):
    """Mask rounds, the exact first rounds from the unit partition and after
    individualizing, the relabeled edge bits as leaf encoding, the relabeled
    edges as the form, and the twin test."""
    n = struct.n
    edges = list(struct.rel_tuples[0])
    top = n * n - 1
    one_round = partial(_mask_round, adj)

    def descend(cells: list[int], v: int) -> list[int]:
        # when no cell splits, the individualized partition is already equitable
        split = _mask_individualize(adj, cells, v)
        return split if len(split) == len(cells) + 1 else _refine(one_round, split, n)

    def encode(col: list[int]) -> int:
        return -sum([1 << (top - n * col[a] - col[b]) for a, b in edges])

    def relabel(lab: list[int]):
        return (frozenset(sorted([(lab[a], lab[b]) for a, b in edges])),)

    # a single cell after the exact first round is already equitable
    cells = _mask_unit_round(adj)
    root = cells if len(cells) == 1 else _refine(one_round, cells, n)
    return root, descend, encode, relabel, partial(_twin_cells, adj)


def _steps(struct: "Structure"):
    """For ``struct``: the refined initial partition; the step that
    individualizes an element and refines; the encoding of a leaf's colors;
    the form's relabeled tuples; and the test of a partition whose subtree
    the search emulates, None where it walks every subtree."""
    adj = _graph_masks(struct)
    return _signature_steps(struct) if adj is None else _mask_steps(struct, adj)


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
    root, descend, encode, relabel, twins = steps(struct)

    first_enc = first_col = first_path = None
    best_enc = best_col = None
    gens: list[tuple[int, ...]] = []
    order = 1

    def fixing(prefix):
        return [g for g in gens if all(g[p - 1] == p for p in prefix)]

    def leaf(cells: list[int], path) -> int:
        nonlocal first_enc, first_col, first_path, best_enc, best_col
        col = [-1] * (n + 1)
        for c, m in enumerate(cells):
            col[m.bit_length() - 1] = c
        enc = encode(col)
        if best_enc is None or enc < best_enc:
            best_enc, best_col = enc, col
        if first_enc is None:
            first_enc, first_col, first_path = enc, col, path
        elif enc == first_enc:
            inv = [0] * n
            for e in elements:
                inv[first_col[e]] = e
            gens.append(tuple([inv[col[e]] for e in elements]))
            # the generator fixes the shared prefix and moves the next point,
            # so it is new; the subtree where this path leaves the first one
            # is an image of the first one's: resume above it
            return next(i for i, (a, b) in enumerate(zip(path, first_path)) if a != b)
        return len(path)

    def twin_leaf(cells: list[int], prefix) -> int:
        """What the search below ``prefix`` records when every non-singleton
        cell of ``cells`` is a set of twins, without walking it."""
        nonlocal order
        on_first_path = first_enc is None
        # the first leaf individualizes each cell's elements in ascending
        # order, which leaves them in descending order
        path = list(prefix)
        discrete: list[int] = []
        twins_of: list[list[int]] = []
        for m in cells:
            if m & (m - 1):
                xs = _bits(m)
                twins_of.append(xs)
                path += xs[:-1]
                discrete += [1 << x for x in reversed(xs)]
            else:
                discrete.append(m)
        depth = leaf(discrete, tuple(path))
        if on_first_path:
            # backing up from the last cell to the first, the node that
            # individualized a_j finds the transposition (a_j a_j+1), and its
            # orbit is a_j..a_k: the cell contributes k! to |Aut|
            identity = list(elements)
            for xs in reversed(twins_of):
                for j in range(len(xs) - 2, -1, -1):
                    g = identity.copy()
                    a, b = xs[j], xs[j + 1]
                    g[a - 1], g[b - 1] = b, a
                    gens.append(tuple(g))
                order *= factorial(len(xs))
        return min(depth, len(prefix))

    def rec(cells: list[int], prefix) -> int:
        """Explore below ``prefix``; return the depth to resume at."""
        nonlocal order
        if len(cells) == n:
            return leaf(cells, prefix)
        if twins is not None and twins(cells):
            return twin_leaf(cells, prefix)
        # the target cell: the first non-singleton one
        cell = _bits(next(m for m in cells if m & (m - 1)))
        on_first_path = first_enc is None
        explored: list[int] = []
        known = len(gens)
        fix = fixing(prefix)
        seen: set[int] = set()  # the orbit of the explored points under fix
        for v in cell:
            if v in seen:
                continue
            explored.append(v)
            if fix:
                seen |= orbit([v], fix)
            else:
                seen.add(v)
            depth = rec(descend(cells, v), prefix + (v,))
            if depth < len(prefix):
                return depth
            if len(gens) != known:
                known = len(gens)
                fix = fixing(prefix)
                seen = orbit(explored, fix)
        if on_first_path:
            # orbit-stabilizer along the first path v_1..v_k: |Aut| is the
            # product of the orbit sizes of v_i under the generators fixing
            # v_1..v_{i-1} (McKay 1981).  Every point of v_i's orbit was
            # explored or pruned here, and exploring it recorded a generator
            # mapping v_i to it; the generators found later move some v_j
            # with j < i, so these are final
            order *= len(orbit([explored[0]], fix))
        return len(prefix)

    rec(root, ())
    del rec  # it reaches itself through its closure: free the search without the cycle collector
    lab = [c + 1 for c in best_col]
    return dict(zip(elements, lab[1:])), relabel(lab), tuple(gens), order


@lru_cache(maxsize=65536)
def canonical_data(struct: "Structure") -> CanonicalData:
    """Canonical form, relabeling, automorphism generators and group order."""
    mapping, rel_tuples, gens, order = _search(struct)
    const_vals = tuple(mapping[v] for v in struct.const_vals)
    form = type(struct)._trusted(struct.language, struct.n, rel_tuples, const_vals)
    return CanonicalData(form=form, relabel=mapping, aut_generators=gens, aut_order=order)

"""Hereditary property specifications and exact speed enumeration.

Members are generated one vertex at a time as unlabeled representatives
by canonical augmentation (McKay, "Isomorph-free exhaustive generation",
1998), starting from the 0-element structure: each canonical parent is
extended by every admissible set of tuples touching the new vertex, and a
child is kept exactly when the added vertex lies in the automorphism orbit
of the canonical deletion vertex.  The deletion vertex is chosen among the
elements whose incidence invariant (per relation and position, the number
of tuples holding the element there) is lexicographically maximal, as the
one with the largest canonical label.  A child whose new vertex is not
invariant-maximal therefore cannot be kept and is dropped before it is
built, tested or canonized; only a predicate's heredity certificate still
checks it.  Every other child gets one leaf test, the forbidden, template
and predicate checks of the membership test with forbidden substructures
probed only through the new vertex, before it is canonized.  Labeled
counts follow as n!/|Aut| per class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .canon import canonical_data, orbit
from .errors import BudgetExceeded, LanguageMismatch, NonHereditaryPredicate, TooFewRows
from .simclass import class_count
from .structures import GRAPH, Language, Structure, graph, induced_substructure
from .template import Template, in_age

# ambient structural classes enforced on every member
BASE_NONE = "none"
BASE_GRAPH = "graph"  # single symmetric irreflexive binary relation
BASE_UNIFORM = "uniform"  # single fully symmetric relation, distinct entries


@dataclass(frozen=True)
class PropertySpec:
    """A hereditary property: ambient base plus forbidden / template / predicate mode."""

    language: Language
    base: str = BASE_NONE
    forbidden: tuple[Structure, ...] = ()
    templates: tuple[Template, ...] = ()
    predicate: tuple[str, Callable[[Structure], bool]] | None = None

    def __post_init__(self):
        if self.base not in (BASE_NONE, BASE_GRAPH, BASE_UNIFORM):
            raise ValueError(f"unknown base {self.base}")
        if self.base != BASE_NONE and len(self.language.relations) != 1:
            raise ValueError("graph/uniform bases need a single-relation language")
        if self.language.constants:
            raise ValueError("property generation supports constant-free languages")
        for f in self.forbidden:
            if f.language != self.language:
                raise LanguageMismatch("forbidden structure over a different language")

    def member(self, struct: Structure) -> bool:
        if struct.language != self.language:
            raise LanguageMismatch("candidate over a different language")
        return self._base_ok(struct) and _passes(self, struct)

    def _base_ok(self, struct: Structure) -> bool:
        if self.base == BASE_NONE:
            return True
        tuples = struct.rel_tuples[0]
        if self.base == BASE_GRAPH:
            return all(a != b and (b, a) in tuples for a, b in tuples)
        for t in tuples:
            if len(set(t)) != len(t):
                return False
            for p in itertools.permutations(t):
                if p not in tuples:
                    return False
        return True


def _tuple_counts(struct: Structure) -> tuple[int, ...]:
    return tuple(len(ts) for ts in struct.rel_tuples)


def _passes(spec: PropertySpec, struct: Structure, anchor: int | None = None) -> bool:
    """The forbidden, template and predicate checks of ``spec.member``; with
    ``anchor``, only forbidden substructures containing it are probed."""
    if spec.forbidden and _has_forbidden(spec, struct, anchor):
        return False
    if spec.templates and not any(in_age(struct, t) for t in spec.templates):
        return False
    return spec.predicate is None or bool(spec.predicate[1](struct))


def _has_forbidden(spec: PropertySpec, struct: Structure, anchor: int | None = None) -> bool:
    """Does some induced substructure, containing ``anchor`` when given,
    match a forbidden structure?  Each subset is visited once, and tuple
    counts filter the candidates before any canonical form is computed."""
    others = [e for e in struct.elements() if e != anchor]
    extra = () if anchor is None else (anchor,)
    for m in sorted({f.n for f in spec.forbidden}):
        if m > struct.n:
            break
        for xs in itertools.combinations(others, m - len(extra)):
            sub, _ = induced_substructure(struct, xs + extra)
            counts = _tuple_counts(sub)
            candidates = [f for f in spec.forbidden if f.n == m and _tuple_counts(f) == counts]
            if candidates:
                form = canonical_data(sub).form
                if any(canonical_data(f).form == form for f in candidates):
                    return True
    return False


def forbid(structures: Iterable[Structure], base: str = BASE_GRAPH) -> PropertySpec:
    structures = tuple(structures)
    lang = structures[0].language if structures else GRAPH
    return PropertySpec(language=lang, base=base, forbidden=structures)


# built-in properties ---------------------------------------------------------

P3 = graph(3, [(1, 2), (2, 3)])
K3 = graph(3, [(1, 2), (2, 3), (1, 3)])
K2 = graph(2, [(1, 2)])


def matching_property() -> PropertySpec:
    """Disjoint unions of edges: forbid induced P3 and K3."""
    return forbid([P3, K3])


def edgeless_property() -> PropertySpec:
    return forbid([K2])


def all_graphs_property() -> PropertySpec:
    return PropertySpec(language=GRAPH, base=BASE_GRAPH)


def _is_bipartite(struct: Structure) -> bool:
    color: dict[int, int] = {}
    adj: dict[int, set[int]] = {e: set() for e in struct.elements()}
    for a, b in struct.tuples_of("E"):
        adj[a].add(b)
        adj[b].add(a)
    for start in struct.elements():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _is_complete_bipartite(struct: Structure) -> bool:
    # complement must be a disjoint union of at most two cliques
    n = struct.n
    edges = {frozenset(t) for t in struct.tuples_of("E")}
    comp_adj = {
        e: {f for f in struct.elements() if f != e and frozenset((e, f)) not in edges}
        for e in struct.elements()
    }
    seen: set[int] = set()
    components = []
    for start in struct.elements():
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            for y in comp_adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        components.append(comp)
    if len(components) > 2:
        return False
    for comp in components:
        for a, b in itertools.combinations(comp, 2):
            if b not in comp_adj[a]:
                return False
    return True


def bipartite_property() -> PropertySpec:
    return PropertySpec(language=GRAPH, base=BASE_GRAPH, predicate=("bipartite", _is_bipartite))


def complete_bipartite_property() -> PropertySpec:
    return PropertySpec(
        language=GRAPH, base=BASE_GRAPH, predicate=("complete-bipartite", _is_complete_bipartite)
    )


BUILTIN_PROPERTIES: dict[str, Callable[[], PropertySpec]] = {
    "matching": matching_property,
    "edgeless": edgeless_property,
    "all-graphs": all_graphs_property,
    "bipartite": bipartite_property,
    "complete-bipartite": complete_bipartite_property,
}


# ---------------------------------------------------------------------------
# orderly generation


def default_budget(language: Language) -> int:
    if language.arity <= 2:
        return 9
    if language.arity == 3:
        return 7
    return 6


@dataclass(frozen=True)
class SpeedRow:
    n: int
    labeled: int
    unlabeled: int
    multiplicities: tuple[int, ...]  # n!/|Aut| per unlabeled class, ascending


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
    """Exact labeled/unlabeled counts for 1 <= n <= n_max."""
    rows = []
    for n, reps in enumerate(generate_levels(spec, n_max, budget), start=1):
        mult = tuple(sorted(math.factorial(n) // aut for _, aut in reps))
        rows.append(SpeedRow(n=n, labeled=sum(mult), unlabeled=len(reps), multiplicities=mult))
    return SpeedTable(tuple(rows))


def generate_members(spec: PropertySpec, n: int, budget: int | None = None) -> list[Structure]:
    """Canonical unlabeled representatives of the property at size n."""
    reps: list = []
    for level in generate_levels(spec, n, budget):
        reps = level
    return [s for s, _ in reps]


def generate_levels(spec: PropertySpec, n_max: int, budget: int | None = None):
    """Yield levels 1..n_max lazily; each level lists (canonical rep, |Aut|).

    Generation starts from the 0-element structure.  Once a predicate
    spec yields an empty level n, no child reaches the leaf certificate, so
    the base levels n+1..n_max are checked for predicate members instead:
    one base enumeration up to n_max, paid only by predicate specs with an
    empty level.
    """
    cap = default_budget(spec.language) if budget is None else budget
    if n_max > cap:
        raise BudgetExceeded(f"n_max = {n_max} exceeds budget {cap}")
    root = Structure(spec.language, 0, tuple(frozenset() for _ in spec.language.relations), ())
    # the leaf test assumes a member parent; only a 0-element forbidden structure rejects the root
    level = [] if _has_forbidden(spec, root) else [(root, 1)]
    for n in range(1, n_max + 1):
        if not level and spec.predicate is not None:
            base = PropertySpec(spec.language, spec.base)
            for m, reps in enumerate(generate_levels(base, n_max, cap), start=1):
                if m >= n and any(spec.member(s) for s, _ in reps):
                    raise NonHereditaryPredicate(
                        f"predicate {spec.predicate[0]}: members of size {m}, none of size {n - 1}"
                    )
            yield from ([] for _ in range(n, n_max + 1))
            return
        nxt = []
        for parent, _ in level:
            seen: set = set()
            for child, candidates in _extensions(spec, parent):
                data = canonical_data(child)
                if data.form in seen:
                    continue
                deleted = max(candidates, key=data.relabel.__getitem__)
                if deleted in orbit([n], data.aut_generators):
                    seen.add(data.form)
                    nxt.append((data.form, data.aut_order))
        nxt.sort(key=lambda pair: _sort_key(pair[0]))
        level = nxt
        yield level


def _sort_key(struct: Structure):
    return tuple(tuple(sorted(ts)) for ts in struct.rel_tuples)


def _extensions(spec: PropertySpec, parent: Structure):
    """Members on [n+1] extending the parent by vertex n+1 whose new vertex
    is invariant-maximal, each paired with the elements sharing that maximal
    invariant: the candidates for the canonical deletion vertex.  The
    invariants are updated as tuples are chosen, before any child is built.
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

    groups: dict[frozenset, list[tuple[int, tuple[int, ...]]]] = {}
    for ri, (name, arity) in enumerate(lang.relations):
        for t in itertools.product(range(1, v + 1), repeat=arity):
            if v in t:
                groups.setdefault(frozenset(t), []).append((ri, t))
    supports = sorted(groups, key=lambda s: (len(s), tuple(sorted(s))))
    alternatives = [_group_alternatives(spec, groups[s], s) for s in supports]

    parent_tuples = [set(ts) for ts in parent.rel_tuples]

    chosen: list[set[tuple[int, ...]]] = [set() for _ in lang.relations]

    def build_child() -> Structure:
        rel_tuples = tuple(
            frozenset(parent_tuples[ri] | chosen[ri]) for ri in range(len(lang.relations))
        )
        return Structure(lang, v, rel_tuples, ())

    results: list[tuple[Structure, list[int]]] = []

    def rec(gi: int):
        if gi == len(supports):
            inv = [tuple(c) for c in counts]
            maximal = inv[n] == max(inv)
            # a predicate's heredity certificate still sees every child: a
            # child whose new vertex is not maximal may be the only one
            # with a non-member deletion
            if not maximal and spec.predicate is None:
                return
            child = build_child()
            if _leaf_ok(spec, child, v) and maximal:
                results.append((child, [x for x in child.elements() if inv[x - 1] == inv[n]]))
            return
        for alt in alternatives[gi]:
            for ri, t in alt:
                chosen[ri].add(t)
                tally(ri, t, 1)
            rec(gi + 1)
            for ri, t in alt:
                chosen[ri].discard(t)
                tally(ri, t, -1)

    rec(0)
    return results


def _group_alternatives(spec: PropertySpec, group: list[tuple[int, tuple[int, ...]]], support: frozenset):
    arity = spec.language.relations[0][1] if spec.language.relations else 0
    if spec.base == BASE_GRAPH:
        if len(support) == 1:
            return [[]]
        return [[], list(group)]  # both orientations together
    if spec.base == BASE_UNIFORM:
        if len(support) == arity:
            full = [(ri, t) for ri, t in group if len(set(t)) == arity]
            return [[], full]
        return [[]]
    if len(group) > 12:
        raise BudgetExceeded(f"extension group of {len(group)} tuples is too large to enumerate")
    subsets = []
    for r in range(len(group) + 1):
        subsets.extend(list(c) for c in itertools.combinations(group, r))
    return subsets


def _leaf_ok(spec: PropertySpec, child: Structure, v: int) -> bool:
    # the parent is a member, so only forbidden configurations involving v need checking
    if not _passes(spec, child, v):
        return False
    if spec.predicate is not None and child.n > 1:
        # heredity certificate: every one-point deletion must stay a member;
        # the 0-element root is taken as given, so no predicate sees it
        for e in child.elements():
            sub, _ = induced_substructure(child, [x for x in child.elements() if x != e])
            if not spec.member(sub):
                raise NonHereditaryPredicate(
                    f"predicate {spec.predicate[0]} rejects a one-point deletion"
                )
    return True


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


def is_totally_bounded_upto(spec: PropertySpec, k: int, n_max: int, budget: int | None = None):
    """Refuted with (member, relation, split, assignment) at >= k completions."""
    from .arrays import is_k_mutually_algebraic

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
    if last["over_factorial"] >= 1.0:
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

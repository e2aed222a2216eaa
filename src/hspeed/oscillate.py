"""r-uniform hypergraph densities, strict balance, threshold families, the
blow-up lower-bound construction, the random dense-member sampler, and the
greedy oscillation sequence builder.

All density comparisons are exact rationals; the min-cut excess check
clears denominators so capacities stay integral.  Randomized paths
take explicit seeds and are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable

from .errors import (
    BudgetExceeded,
    EmptyVertexSet,
    InfeasibleDensity,
    SampleBudgetExceeded,
    SearchBudgetExceeded,
    TooSmall,
)
from .structures import _integer_kth_root, json_int, load_json

BRUTE_CROSSCHECK_LIMIT = 14
SUBSET_BUDGET = 2_000_000
BALANCED_V_BUDGET = 12  # find_strictly_balanced searches v <= this
BALANCED_COMBO_BUDGET = 300_000  # ... and only edge sets of at most this many combinations
MATERIALIZE_BUDGET = 5000  # most members blowup_members builds
ESTIMATOR_ATTEMPTS = 8  # draws per (nu prefix, n) in _certified_bound
ESTIMATOR_CHECK_BUDGET = 100_000  # most sets one in_P check of an estimator draw may visit
STEP_WORK_CAP = 100_000  # most work of one build_sequence step: n + edge count per draw, n per skipped n


@dataclass(frozen=True)
class Hypergraph:
    """r-uniform hypergraph on vertex set [v]."""

    r: int
    v: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        """Edge sizes and vertices are checked on whole sets: the set of edge
        sizes, the set of vertex types (int only, so no bool or float), and the
        least and largest vertex.  Only a failed check walks the edges, to name
        the first bad one."""
        if self.r < 2:
            raise ValueError("uniformity must be >= 2")
        sizes = set(map(len, self.edges))
        types = set(map(type, itertools.chain.from_iterable(self.edges)))
        vertices = frozenset().union(*self.edges)
        if sizes <= {self.r} and types <= {int} and (not vertices or 1 <= min(vertices) and max(vertices) <= self.v):
            return
        for e in self.edges:
            if len(e) != self.r:
                raise ValueError(f"edge {sorted(e)} is not an {self.r}-set")
            if not all(type(x) is int and 1 <= x <= self.v for x in e):
                raise ValueError(f"edge {sorted(e)} leaves [{self.v}]")

    @property
    def e(self) -> int:
        return len(self.edges)

    def induced(self, vertices: Iterable[int]) -> "Hypergraph":
        keep = frozenset(vertices)
        sub = frozenset(e for e in self.edges if e <= keep)
        relabel = {x: i + 1 for i, x in enumerate(sorted(keep))}
        return Hypergraph(self.r, len(keep), frozenset(frozenset(relabel[x] for x in e) for e in sub))

    def edge_count_within(self, vertices: Collection[int]) -> int:
        """e(G[vertices]) for distinct vertices: one lookup per r-subset when
        there are fewer r-subsets than edges, else one subset test per edge."""
        if math.comb(len(vertices), self.r) < len(self.edges):
            return sum(map(self.edges.__contains__, map(frozenset, itertools.combinations(vertices, self.r))))
        return sum(map(frozenset(vertices).__ge__, self.edges))


def hypergraph(r: int, v: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    return Hypergraph(r, v, frozenset(map(frozenset, edges)))


def hypergraph_to_json(g: Hypergraph) -> dict:
    return {"r": g.r, "v": g.v, "edges": sorted(sorted(e) for e in g.edges)}


def hypergraph_from_json(obj: dict) -> Hypergraph:
    return hypergraph(json_int(obj["r"], "r"), json_int(obj["v"], "v"), obj.get("edges", ()))


def load_hypergraph(path: str) -> Hypergraph:
    return load_json(path, hypergraph_from_json)


def density(g: Hypergraph) -> Fraction:
    if g.v < 1:
        raise EmptyVertexSet("density needs at least one vertex")
    return Fraction(g.e, g.v)


# ---------------------------------------------------------------------------
# densest subgraph: threshold min cuts, Dinkelbach iteration, subset brute force


def _subset_edge_counts(g: Hypergraph) -> list[int]:
    """f[mask] = number of edges inside the subset encoded by mask (vertex i -> bit i-1)."""
    f = [0] * (1 << g.v)
    for e in g.edges:
        mask = 0
        for x in e:
            mask |= 1 << (x - 1)
        f[mask] += 1
    for b in range(g.v):
        bit = 1 << b
        for mask in range(1 << g.v):
            if mask & bit:
                f[mask] += f[mask ^ bit]
    return f


def max_subgraph_density_brute(g: Hypergraph) -> Fraction:
    """Max density over nonempty subsets by subset-sum dynamic programming."""
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    f = _subset_edge_counts(g)
    best_e, best_v = 0, 1
    for mask in range(1, 1 << g.v):
        cnt = f[mask]
        size = mask.bit_count()
        if cnt * best_v > best_e * size:
            best_e, best_v = cnt, size
    return Fraction(best_e, best_v)


def _min_cut_side(nodes: int, arcs: Iterable[tuple[int, int, int]], s: int, t: int) -> set[int]:
    """The source side of the minimal minimum s-t cut over (tail, head,
    capacity) arcs: Dinic's blocking flows along BFS levels of the residual
    graph until t is out of reach, and the nodes that last BFS reached."""
    adj: list[list[int]] = [[] for _ in range(nodes)]
    to: list[int] = []
    cap: list[int] = []
    for u, v, c in arcs:
        adj[u].append(len(to))
        to.append(v)
        cap.append(c)
        adj[v].append(len(to))
        to.append(u)
        cap.append(0)
    while True:
        level = [-1] * nodes
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in adj[u]:
                if cap[a] > 0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return set(queue)
        it = [0] * nodes

        def push(u: int, pushed: int) -> int:
            if u == t:
                return pushed
            while it[u] < len(adj[u]):
                a = adj[u][it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    got = push(to[a], min(pushed, cap[a]))
                    if got:
                        cap[a] -= got
                        cap[a ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while push(s, 1 << 62):
            pass
        del push  # it reaches itself through its closure: free the search without the cycle collector


def _excess_subgraph(g: Hypergraph, threshold: Fraction, without: int | None = None) -> frozenset[int] | None:
    """The least vertex set U maximizing q*e(U) - p*|U|, threshold = p/q,
    when that maximum is positive (some U has e(U) > threshold*|U|), else
    None; ``without`` leaves out one vertex and its edges.

    Network: source -> edge node (cap q) -> its vertices (cap inf) ->
    sink (cap p).  A min cut keeps a maximizer U and its edges on the
    source side; the maximizers are closed under intersection, so the
    minimal cut's side is the least one, and it holds a vertex exactly
    when the maximum is positive.
    """
    p, q = threshold.numerator, threshold.denominator
    edges = [e for e in g.edges if without not in e]
    source, sink = 0, g.v + len(edges) + 1  # vertex x is node x, edges follow
    big = q * len(edges) + 1
    arcs = [(x, sink, p) for x in range(1, g.v + 1)]
    for node, e in enumerate(edges, g.v + 1):
        arcs.append((source, node, q))
        arcs += ((node, x, big) for x in e)
    side = _min_cut_side(sink + 1, arcs, source, sink)
    return frozenset(x for x in side if 1 <= x <= g.v) or None


def max_subgraph_density(g: Hypergraph) -> tuple[Fraction, frozenset[int]]:
    """Exact max over nonempty U of e(G[U])/|U| with the largest densest set.

    Dinkelbach iteration: from U = [v], replace U by a set with positive
    excess over the density of U until no set has any; that last min cut
    certifies optimality.  Cross-checked against the subset brute force
    whenever v <= 14.  Nothing in the package calls it: it is the reference
    that the threshold cut of ``in_Q`` and the one-point-deletion cuts of
    ``is_strictly_balanced`` are tested against, at every v.
    """
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    witness = frozenset(range(1, g.v + 1))
    value = density(g)
    while (denser := _excess_subgraph(g, value)) is not None:
        witness = denser
        value = Fraction(g.edge_count_within(witness), len(witness))
    if g.v <= BRUTE_CROSSCHECK_LIMIT:
        brute_value = max_subgraph_density_brute(g)
        if brute_value != value:
            raise RuntimeError(f"flow density {value} disagrees with brute force {brute_value}")
    return value, witness


def is_strictly_balanced(g: Hypergraph) -> bool:
    """Every proper nonempty induced subhypergraph has strictly smaller density.

    At every v, each one-point deletion H = g - x is asked by one min cut
    over the edges of g that avoid x, with no copy of H, whether some set
    beats rho - 1/(v(H) q) strictly, where rho = p/q is g's density: a set
    U of density below rho lies at least 1/(|U| q) below it, so such a set
    exists exactly when H has a subgraph of density >= rho.
    """
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    if not g.e:
        return g.v == 1  # one vertex has no proper subset; on more, a single vertex has density 0
    rho = density(g)
    sharper = rho - Fraction(1, (g.v - 1) * rho.denominator)
    return all(_excess_subgraph(g, sharper, without=x) is None for x in range(1, g.v + 1))


# ---------------------------------------------------------------------------
# feasible densities and certified search


def feasible_density(r: int, c: Fraction) -> bool:
    """Densities of strictly balanced r-uniform hypergraphs: c >= 1/(r-1) or
    c = k/(1+k(r-1)) for an integer k >= 1."""
    if r < 2:
        raise ValueError("uniformity must be >= 2")
    return c >= Fraction(1, r - 1) or _sunflower_size(r, c) is not None


def _sunflower_size(r: int, c: Fraction) -> int | None:
    """The integer k >= 1 with c = k/(1+k(r-1)), the density of a k-edge sunflower, if any."""
    denom = 1 - c * (r - 1)
    if denom <= 0:
        return None
    k = c / denom
    return int(k) if k.denominator == 1 and k >= 1 else None


def _sunflower(r: int, k: int) -> Hypergraph:
    """k edges sharing exactly one common vertex: v = 1 + k(r-1), e = k."""
    edges = []
    nxt = 2
    for _ in range(k):
        edges.append([1] + list(range(nxt, nxt + r - 1)))
        nxt += r - 1
    return hypergraph(r, 1 + k * (r - 1), edges)


def find_strictly_balanced(r: int, c: Fraction) -> Hypergraph:
    """A certified strictly balanced r-uniform hypergraph of density exactly c.

    Seeds known families first, then searches small vertex counts
    exhaustively.  A seeded family is certified by the density and balance
    checks before it is returned; a search hit has e = c*v edges and passed
    the balance check.
    """
    c = Fraction(c)
    if c < 0:
        raise InfeasibleDensity("density must be nonnegative")
    if not feasible_density(r, c):
        raise InfeasibleDensity(f"no strictly balanced {r}-uniform hypergraph has density {c}")

    def certify(g: Hypergraph) -> Hypergraph:
        if density(g) != c or not is_strictly_balanced(g):
            raise RuntimeError("candidate failed certification")
        return g

    k = _sunflower_size(r, c)
    if k is not None:
        return certify(_sunflower(r, k))
    if c == 1:
        full = hypergraph(r, r + 1, itertools.combinations(range(1, r + 2), r))
        return certify(full)
    # incremental search over v with e = c*v integral
    for v in range(r, BALANCED_V_BUDGET + 1):
        if (c * v).denominator != 1:
            continue
        e = int(c * v)
        if e < 1 or e > math.comb(v, r):
            continue
        if math.comb(math.comb(v, r), e) <= BALANCED_COMBO_BUDGET:
            all_edges = list(itertools.combinations(range(1, v + 1), r))
            for combo in itertools.combinations(all_edges, e):
                g = hypergraph(r, v, combo)
                if is_strictly_balanced(g):
                    return g
    raise SearchBudgetExceeded(
        f"no strictly balanced ({r}, {c}) hypergraph found within v <= {BALANCED_V_BUDGET}"
    )


# ---------------------------------------------------------------------------
# membership families


def in_Q(g: Hypergraph, c: Fraction) -> bool:
    """Every subgraph has e(H) <= c*v(H).

    The whole vertex set is one subgraph, so a graph outside S is outside Q
    with no flow; otherwise one min cut at threshold c decides whether any
    vertex set has positive excess.  Cross-checked against the subset brute
    force whenever v <= 14.
    """
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    c = Fraction(c)
    verdict = in_S(g, c) and _excess_subgraph(g, c) is None
    if g.v <= BRUTE_CROSSCHECK_LIMIT:
        brute_value = max_subgraph_density_brute(g)
        if (brute_value <= c) != verdict:
            raise RuntimeError(f"min-cut verdict {verdict} at c = {c} disagrees with "
                               f"brute-force density {brute_value}")
    return verdict


def in_S(g: Hypergraph, c: Fraction) -> bool:
    return g.e <= Fraction(c) * g.v


def _connected_violation(g: Hypergraph, reach: int, c: Fraction, budget: int) -> frozenset[int] | None:
    """The first set S with |S| <= reach, connected in the 2-section of g,
    and e(S) > c*|S|, or None.  ESU (Wernicke 2006) visits each connected
    set once: a set grows from its least vertex, and an added vertex brings
    in only its neighbours outside the set's closed neighbourhood.
    """
    num, den = c.numerator, c.denominator
    through: list[list[frozenset[int]]] = [[] for _ in range(g.v + 1)]
    for edge in g.edges:
        for x in edge:
            through[x].append(edge)
    nbrs = [set().union(*edges) for edges in through]  # closed neighbourhoods
    visits = 0
    for root in range(1, g.v + 1):
        # frames: (set, its edge count, its closed neighbourhood, vertices left to add)
        stack = [(frozenset(), 0, {root}, [root])]
        while stack:
            sub, count, closed, ext = stack[-1]
            if not ext:
                stack.pop()
                continue
            w = ext.pop()
            grown = sub | {w}
            count += sum(map(grown.__ge__, through[w]))
            visits += 1
            if visits > budget:
                raise BudgetExceeded(f"the connected-set search exceeds the budget of {budget} sets")
            if count * den > num * len(grown):
                return grown
            if len(grown) < reach:
                new = [u for u in nbrs[w] if u > root and u not in closed]
                stack.append((grown, count, closed | nbrs[w], ext + new))
    return None


def in_P(g: Hypergraph, nu: Iterable[int], c: Fraction, subset_budget: int = SUBSET_BUDGET) -> bool:
    """Every vertex set whose size is listed in nu spans at most c*|S| edges.

    A size s binds unless C(s, r) <= c*s or e(G) <= c*s.  Edge and vertex
    counts add over components, so below the least unlisted binding size
    (the gap) a violating set exists exactly when a connected one does.
    The connected-set search decides those sizes; each listed binding size
    above the gap is decided by scanning all its subsets in lexicographic
    order, counting each by ``edge_count_within`` (r-subset lookups while
    C(size, r) < e(G)).  Both raise
    BudgetExceeded when they would visit more than ``subset_budget`` sets.
    """
    c = Fraction(c)
    listed = {int(x) for x in nu if 1 <= int(x) <= g.v}
    binding = _binding_sizes(g.r, g.e, max(listed, default=0), c)
    gap = min((s for s in binding if s not in listed), default=math.inf)
    reach = max((s for s in binding if s < gap), default=0)
    if reach and _connected_violation(g, reach, c, subset_budget) is not None:
        return False
    for size in (s for s in binding if s > gap and s in listed):
        if math.comb(g.v, size) > subset_budget:
            raise BudgetExceeded(
                f"checking all {math.comb(g.v, size)} subsets of size {size} exceeds the budget"
            )
        bound = c.numerator * size // c.denominator
        for subset in itertools.combinations(range(1, g.v + 1), size):
            if g.edge_count_within(subset) > bound:
                return False
    return True


def _binding_sizes(r: int, e: int, top: int, c: Fraction) -> list[int]:
    """The sizes s <= top at which an r-graph with e edges could hold a set
    of s vertices spanning more than c*s edges: C(s, r) and e both exceed
    c*s.  An edge count is an integer, so it exceeds c*s exactly when it
    exceeds floor(c*s)."""
    num, den = c.numerator, c.denominator
    return [s for s in range(1, top + 1) if min(math.comb(s, r), e) > num * s // den]


# ---------------------------------------------------------------------------
# blow-up construction


def _equipartition(n: int, t: int) -> list[list[int]]:
    q, rem = divmod(n, t)
    parts = []
    start = 1
    for i in range(t):
        size = q + (1 if i < rem else 0)
        parts.append(list(range(start, start + size)))
        start += size
    return parts


def _maximal_matchings(parts: list[list[int]]):
    """All maximal part-transversal matchings inside the given parts.

    Every maximal matching saturates the smallest part (the anchor): its m
    vertices, in order, meet an m-permutation of each other part.  Matchings
    come sorted by their rows, the other parts' picks for each anchor vertex.
    """
    m = min(len(p) for p in parts)
    anchor = min(range(len(parts)), key=lambda i: (len(parts[i]), i))
    others = [itertools.permutations(sorted(p), m) for i, p in enumerate(parts) if i != anchor]
    for rows in sorted(tuple(zip(*picks)) for picks in itertools.product(*others)):
        yield frozenset(frozenset((a,) + row) for a, row in zip(sorted(parts[anchor]), rows))


def count_maximal_matchings(parts: list[list[int]]) -> int:
    m = min(len(p) for p in parts)
    total = 1
    for p in parts:
        total *= math.perm(len(p), m)
    return total // math.factorial(m)


@dataclass(frozen=True)
class BlowupResult:
    count: int
    members: tuple[Hypergraph, ...] | None
    partition: tuple[tuple[int, ...], ...]
    guaranteed_lower_bound: int  # (floor(n/t)!)^((r-1) e(H))


def blowup_members(h: Hypergraph, n: int, count_only: bool = False) -> BlowupResult:
    """Members of Q^c_n ∩ S^c_n (c = density of h) from per-edge maximal
    matchings compatible with a fixed equipartition of [n]."""
    t = h.v
    if n < t * h.r:
        raise TooSmall(f"need n >= t*r = {t * h.r}")
    parts = _equipartition(n, t)
    edge_list = sorted(sorted(e) for e in h.edges)
    per_edge_counts = [count_maximal_matchings([parts[x - 1] for x in e]) for e in edge_list]
    total = 1
    for cnt in per_edge_counts:
        total *= cnt
    lower = math.factorial(n // t) ** ((h.r - 1) * h.e)
    if count_only:
        return BlowupResult(total, None, tuple(tuple(p) for p in parts), lower)
    if total > MATERIALIZE_BUDGET:
        raise BudgetExceeded(f"materializing {total} members exceeds budget {MATERIALIZE_BUDGET}")
    per_edge_choices = [
        list(_maximal_matchings([parts[x - 1] for x in e])) for e in edge_list
    ]
    members = []
    for combo in itertools.product(*per_edge_choices):
        edges: set[frozenset[int]] = set()
        for matching in combo:
            edges |= matching
        members.append(Hypergraph(h.r, n, frozenset(edges)))
    if len({m.edges for m in members}) != total:
        raise RuntimeError("constructed members are not pairwise distinct")
    return BlowupResult(total, tuple(members), tuple(tuple(p) for p in parts), lower)


# ---------------------------------------------------------------------------
# random dense members


@dataclass(frozen=True)
class SampleCertificate:
    graph: Hypergraph
    edge_count: int  # the member certifies >= 2^edge_count members
    attempts: int
    seed: int
    verification: str = "exhaustive"  # in_P decides membership


def _edge_threshold_met(e: int, n: int, r: int, delta: Fraction) -> bool:
    """Exact check of e >= n^(-delta) * C(n, r) / 2 for rational delta."""
    a, b = delta.numerator, delta.denominator
    return (2 * e) ** b * n ** a >= math.comb(n, r) ** b


def _skip_ranks(rng: random.Random, total: int, p: float) -> list[int]:
    """The ranks in [0, total) that a draw keeping each one with probability
    p keeps, in increasing order.  Geometric skipping (Batagelj & Brandes,
    Phys. Rev. E 71, 2005): the gap to the next kept rank is
    floor(log U / log(1 - p)) for one uniform U in (0, 1], so a draw costs
    one random number per kept rank, not one per rank."""
    if p >= 1:
        return list(range(total))
    if p <= 0:
        return []
    scale = 1 / math.log1p(-p)
    rand, log = rng.random, math.log
    ranks = []
    rank = -1
    while (rank := rank + 1 + int(log(1.0 - rand()) * scale)) < total:
        ranks.append(rank)
    return ranks


def _decode_ranks(ranks: Iterable[int], n: int, r: int):
    """The r-subsets of [n] at the given increasing lexicographic ranks, as
    tuples in the order of combinations(range(1, n + 1), r).

    Rank R is read through its complement D = C(n, r) - 1 - R, which is
    sum_i C(b_i, r + 1 - i) over digits n > b_1 > ... > b_r >= 0, each the
    largest whose binomial fits in what D leaves; the r-set is {n - b_i}.
    Ranks rise, so D falls, and each rank is decoded from the one before:
    the leading digits whose binomials still fit are kept, and each later
    digit is found by bisection below the digit before it.
    """
    table = [[math.comb(b, j) for b in range(n + 1)] for j in range(r, 0, -1)]
    top = math.comb(n, r) - 1
    digits = [n] * r  # C(n, j) exceeds every complement: the first rank decodes every digit
    for rank in ranks:
        left = top - rank
        i = 0
        while i < r and table[i][digits[i]] <= left:
            left -= table[i][digits[i]]
            i += 1
        for j in range(i, r):
            col = table[j]
            b = digits[j] = bisect_right(col, left, 0, digits[j - 1] if j else n) - 1
            left -= col[b]
        yield tuple(n - b for b in digits)


def sample_dense_member(
    r: int,
    k: int,
    c: Fraction,
    n: int,
    delta: Fraction,
    seed: int,
    max_attempts: int = 2000,
) -> SampleCertificate:
    """Rejection-sample G(n, p), p = n^(-delta), until a member of P^{(k),c}_n
    with e(G) >= p*C(n,r)/2 appears.  Both conditions are decided exactly,
    membership by in_P; a draw whose membership check exceeds its budget is
    rejected and still counts as an attempt.

    A draw keeps r-sets by geometric skips over their lexicographic ranks
    and is counted before it is built."""
    c = Fraction(c)
    delta = Fraction(delta)
    if delta * c <= 1:
        raise ValueError("need delta > 1/c")
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    if not 1 <= k <= n // r:
        raise ValueError("need k >= 1 and k*r <= n")
    rng = random.Random(seed)
    p = float(n) ** (-float(delta))
    total = math.comb(n, r)
    for attempt in range(1, max_attempts + 1):
        ranks = _skip_ranks(rng, total, p)
        e = len(ranks)
        if not _edge_threshold_met(e, n, r, delta):
            continue
        g = Hypergraph(r, n, frozenset(map(frozenset, _decode_ranks(ranks, n, r))))
        try:
            member = in_P(g, range(1, k + 1), c)
        except BudgetExceeded:
            continue  # an unchecked draw is never certified
        if member:
            return SampleCertificate(graph=g, edge_count=e, attempts=attempt, seed=seed)
    raise SampleBudgetExceeded(
        f"no qualifying member of P^{{({k}),{c}}}_{n} in {max_attempts} attempts (p = {p:.3g})"
    )


# ---------------------------------------------------------------------------
# the greedy oscillation sequence


@dataclass(frozen=True)
class OscSequence:
    """Greedy (nu, mu) prefix with mu_i = nu_{i+1} - 1 and stored certificates.

    Certified lower bounds stand in for the true counts, so each mu is an
    upper bound on the minimal index satisfying the threshold.
    """

    c: Fraction
    eps: Fraction
    r: int
    nu: tuple[int, ...]
    mu: tuple[int, ...]
    certificates: tuple[dict, ...]

    def __post_init__(self):
        if list(self.nu) != sorted(set(self.nu)):
            raise ValueError("nu must be strictly increasing")
        for i, m in enumerate(self.mu):
            if m != self.nu[i + 1] - 1:
                raise ValueError("mu must interleave as nu_{i+1} - 1")


def _edge_target(n: int, r: int, eps: Fraction) -> int:
    """M = ceil(n^(r - eps)), the edges an estimator draw at n takes: the least
    e >= 1 with e^b >= n^(rb - a) for eps = a/b, by an integer b-th root, so
    M = 1 when rb <= a."""
    a, b = eps.numerator, eps.denominator
    power = n ** max(r * b - a, 0)
    root = _integer_kth_root(power, b)
    return root if root ** b == power else root + 1


def _charged(work: int, start: int, n: int) -> int:
    """The work of the step from ``start`` once n is charged; BudgetExceeded past STEP_WORK_CAP."""
    if work > STEP_WORK_CAP:
        raise BudgetExceeded(f"the sequence step from n = {start} passes its work cap {STEP_WORK_CAP} at n = {n}")
    return work


def _certified_bound(r: int, k: int, c: Fraction, eps: Fraction, n: int, seed: int,
                     work: int) -> tuple[dict | None, int]:
    """A certificate dict that log2 |P^{nu,c}_n| >= n^(r - eps), or None, and
    the step's work after n: the first of ESTIMATOR_ATTEMPTS draws, each of
    exactly M = ceil(n^(r - eps)) r-sets of [n] with its own seed, that is a
    member of P^{(k),c}_n (k = max nu prefix, so also of P^{nu,c}_n).  Every
    subgraph of a member is a member, so its M edges give 2^M members.  in_P
    decides each draw exactly, or raises BudgetExceeded past ESTIMATOR_CHECK_BUDGET sets.
    Each draw adds n + M to ``work`` before it is made, an n with k*r > n or
    M > C(n, r) adds n and draws nothing, and past STEP_WORK_CAP the step
    from r*k ends in BudgetExceeded."""
    m = _edge_target(n, r, eps)
    total = math.comb(n, r)
    if k * r > n or m > total:
        return None, _charged(work + n, r * k, n)
    for i in range(ESTIMATOR_ATTEMPTS):
        work = _charged(work + n + m, r * k, n)
        draw_seed = seed * 100003 + n * 101 + i
        ranks = sorted(random.Random(draw_seed).sample(range(total), m))
        g = Hypergraph(r, n, frozenset(map(frozenset, _decode_ranks(ranks, n, r))))
        if in_P(g, range(1, k + 1), c, subset_budget=ESTIMATOR_CHECK_BUDGET):
            return {"n": n, "edges": m, "attempts": i + 1, "seed": draw_seed, "verification": "exhaustive"}, work
    return None, work


def build_sequence(r: int, c: Fraction, eps: Fraction, steps: int, seed: int = 0) -> OscSequence:
    """Greedy sequence: nu_0 = r+1; mu_k = least n > nu_k that
    _certified_bound certifies to reach 2^(n^(r-eps)); nu_{k+1} = mu_k + 1.

    A step scans n upward from r*nu_k, the least n with k*r <= n (k = nu_k);
    each n certifies or adds at least n to the step's work, so STEP_WORK_CAP
    ends every scan.  Before the first draw, the lowest start of every step
    follows from s <- r*(s + 1), s = r*(r + 1) (max nu exceeds the n of the
    step before), and a start whose first draw alone, n + M, passes the cap
    raises BudgetExceeded."""
    c = Fraction(c)
    eps = Fraction(eps)
    if r < 2:
        raise ValueError("uniformity must be >= 2")
    if c < Fraction(1, r - 1):
        raise ValueError("need c >= 1/(r-1)")
    if eps * c <= 1:
        raise ValueError("need eps > 1/c")
    low = r * (r + 1)
    for _ in range(steps):
        _charged(low + _edge_target(low, r, eps), low, low)
        low = r * (low + 1)
    nu = [r + 1]
    mu: list[int] = []
    certificates: list[dict] = []
    for _ in range(steps):
        work = 0
        for n in itertools.count(r * nu[-1]):
            cert, work = _certified_bound(r, nu[-1], c, eps, n, seed, work)
            if cert is not None:
                break
        mu.append(n)
        certificates.append(cert)
        nu.append(n + 1)
    return OscSequence(c=c, eps=eps, r=r, nu=tuple(nu), mu=tuple(mu), certificates=tuple(certificates))

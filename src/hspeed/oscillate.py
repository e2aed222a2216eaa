"""r-uniform hypergraph densities, strict balance, threshold families, the
blow-up lower-bound construction, the random dense-member sampler, and the
greedy oscillation sequence builder.

All density comparisons are exact rationals; the min-cut excess check
clears denominators so capacities stay integral.  Randomized paths
take explicit seeds and are reproducible.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    BudgetExceeded,
    EmptyVertexSet,
    EstimatorFailed,
    InfeasibleDensity,
    SampleBudgetExceeded,
    SearchBudgetExceeded,
    TooSmall,
)

BRUTE_CROSSCHECK_LIMIT = 14
SUBSET_BUDGET = 2_000_000
BALANCED_V_BUDGET = 12  # find_strictly_balanced searches v <= this
BALANCED_COMBO_BUDGET = 300_000  # ... and only edge sets of at most this many combinations
MATERIALIZE_BUDGET = 5000  # most members blowup_members builds
ESTIMATOR_ATTEMPTS = 8  # sampler calls per (nu prefix, n) in default_estimator
SEQUENCE_SCAN_LIMIT = 600  # candidate n per build_sequence step


@dataclass(frozen=True)
class Hypergraph:
    """r-uniform hypergraph on vertex set [v]."""

    r: int
    v: int
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("uniformity must be >= 2")
        for e in self.edges:
            if len(e) != self.r:
                raise ValueError(f"edge {sorted(e)} is not an {self.r}-set")
            if any(x < 1 or x > self.v for x in e):
                raise ValueError(f"edge {sorted(e)} leaves [{self.v}]")

    @property
    def e(self) -> int:
        return len(self.edges)

    def induced(self, vertices: Iterable[int]) -> "Hypergraph":
        keep = frozenset(vertices)
        sub = frozenset(e for e in self.edges if e <= keep)
        relabel = {x: i + 1 for i, x in enumerate(sorted(keep))}
        return Hypergraph(self.r, len(keep), frozenset(frozenset(relabel[x] for x in e) for e in sub))

    def edge_count_within(self, vertices: frozenset[int]) -> int:
        return sum(1 for e in self.edges if e <= vertices)


def hypergraph(r: int, v: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    return Hypergraph(r, v, frozenset(frozenset(e) for e in edges))


def hypergraph_to_json(g: Hypergraph) -> dict:
    return {"r": g.r, "v": g.v, "edges": sorted(sorted(e) for e in g.edges)}


def hypergraph_from_json(obj: dict) -> Hypergraph:
    return hypergraph(int(obj["r"]), int(obj["v"]), obj.get("edges", ()))


def load_hypergraph(path: str) -> Hypergraph:
    with open(path) as fh:
        return hypergraph_from_json(json.load(fh))


def density(g: Hypergraph) -> Fraction:
    if g.v < 1:
        raise EmptyVertexSet("density needs at least one vertex")
    return Fraction(g.e, g.v)


# ---------------------------------------------------------------------------
# densest subgraph: subset brute force and Dinkelbach min-cut iteration


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


def max_subgraph_density_brute(g: Hypergraph) -> tuple[Fraction, frozenset[int]]:
    """Max density over nonempty subsets by subset-sum dynamic programming."""
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    f = _subset_edge_counts(g)
    best_e, best_v, best_mask = 0, 1, 1
    for mask in range(1, 1 << g.v):
        cnt = f[mask]
        size = mask.bit_count()
        if cnt * best_v > best_e * size:
            best_e, best_v, best_mask = cnt, size, mask
    witness = frozenset(i + 1 for i in range(g.v) if best_mask >> i & 1)
    return Fraction(best_e, best_v), witness


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def maxflow(self, s: int, t: int) -> int:
        flow = 0
        INFCAP = 1 << 62
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for ei in self.adj[u]:
                    if self.cap[ei] > 0 and level[self.to[ei]] < 0:
                        level[self.to[ei]] = level[u] + 1
                        queue.append(self.to[ei])
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    ei = self.adj[u][it[u]]
                    v = self.to[ei]
                    if self.cap[ei] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[ei]))
                        if got:
                            self.cap[ei] -= got
                            self.cap[ei ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, INFCAP)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        queue = [s]
        while queue:
            u = queue.pop()
            for ei in self.adj[u]:
                if self.cap[ei] > 0 and self.to[ei] not in seen:
                    seen.add(self.to[ei])
                    queue.append(self.to[ei])
        return seen


def _excess_subgraph(g: Hypergraph, threshold: Fraction) -> frozenset[int] | None:
    """A vertex set with e(U) - threshold*|U| > 0, or None if none exists.

    Network: source -> edge nodes (cap q), edge -> its vertices (cap inf),
    vertex -> sink (cap p), with threshold = p/q and capacities scaled by q.
    """
    p, q = threshold.numerator, threshold.denominator
    edges = sorted(sorted(e) for e in g.edges)
    ne = len(edges)
    source, sink = 0, 1 + ne + g.v
    net = _Dinic(sink + 1)
    big = q * max(ne, 1) + 1
    for i, e in enumerate(edges):
        net.add(source, 1 + i, q)
        for x in e:
            net.add(1 + i, 1 + ne + (x - 1), big)
    for x in range(1, g.v + 1):
        net.add(1 + ne + (x - 1), sink, p)
    flow = net.maxflow(source, sink)
    if q * ne - flow <= 0:
        return None
    side = net.source_side(source)
    return frozenset(x for x in range(1, g.v + 1) if (1 + ne + x - 1) in side)


def max_subgraph_density(g: Hypergraph) -> tuple[Fraction, frozenset[int]]:
    """Exact max over nonempty U of e(G[U])/|U| with the largest densest set.

    Dinkelbach iteration: from U = [v], replace U by a set with positive
    excess over the density of U until no set has any; that last min cut
    certifies optimality.  Cross-checked against the subset brute force
    whenever v <= 14.
    """
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    witness = frozenset(range(1, g.v + 1))
    value = density(g)
    while (denser := _excess_subgraph(g, value)) is not None:
        witness = denser
        value = Fraction(g.edge_count_within(witness), len(witness))
    if g.v <= BRUTE_CROSSCHECK_LIMIT:
        brute_value, _ = max_subgraph_density_brute(g)
        if brute_value != value:
            raise RuntimeError(f"flow density {value} disagrees with brute force {brute_value}")
    return value, witness


def is_strictly_balanced(g: Hypergraph) -> bool:
    """Every proper nonempty induced subhypergraph has strictly smaller density."""
    if g.v < 1:
        raise EmptyVertexSet("no vertices")
    if g.v == 1:
        return True
    rho = density(g)
    if g.v <= BRUTE_CROSSCHECK_LIMIT:
        f = _subset_edge_counts(g)
        full = (1 << g.v) - 1
        for mask in range(1, full):
            if f[mask] * rho.denominator >= rho.numerator * mask.bit_count():
                return False
        return True
    for x in range(1, g.v + 1):
        sub = g.induced([y for y in range(1, g.v + 1) if y != x])
        if sub.v and max_subgraph_density(sub)[0] >= rho:
            return False
    return True


# ---------------------------------------------------------------------------
# feasible densities and certified search


def feasible_density(r: int, c: Fraction) -> bool:
    """Densities of strictly balanced r-uniform hypergraphs: c >= 1/(r-1) or
    c = k/(1+k(r-1)) for an integer k >= 1."""
    if c >= Fraction(1, r - 1):
        return True
    denom = 1 - c * (r - 1)
    if denom <= 0:
        return True
    k = c / denom
    return k.denominator == 1 and k >= 1


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
    exhaustively.  The certificate is the exhaustive balance check plus a
    density check, re-run before returning.
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

    denom = 1 - c * (r - 1)
    if denom > 0:
        k = c / denom
        if k.denominator == 1 and k >= 1:
            return certify(_sunflower(r, int(k)))
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
                    return certify(g)
    raise SearchBudgetExceeded(
        f"no strictly balanced ({r}, {c}) hypergraph found within v <= {BALANCED_V_BUDGET}"
    )


# ---------------------------------------------------------------------------
# membership families


def in_Q(g: Hypergraph, c: Fraction) -> bool:
    """Every subgraph has e(H) <= c*v(H)."""
    return max_subgraph_density(g)[0] <= Fraction(c)


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
            count += sum(1 for edge in through[w] if edge <= grown)
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
    above the gap is decided by scanning all its subsets.  Both raise
    BudgetExceeded when they would visit more than ``subset_budget`` sets.
    """
    c = Fraction(c)
    listed = {int(x) for x in nu if 1 <= int(x) <= g.v}
    binding = [s for s in range(1, max(listed, default=0) + 1)
               if math.comb(s, g.r) > c * s and g.e > c * s]
    gap = min((s for s in binding if s not in listed), default=math.inf)
    reach = max((s for s in binding if s < gap), default=0)
    if reach and _connected_violation(g, reach, c, subset_budget) is not None:
        return False
    for size in (s for s in binding if s > gap and s in listed):
        if math.comb(g.v, size) > subset_budget:
            raise BudgetExceeded(
                f"checking all {math.comb(g.v, size)} subsets of size {size} exceeds the budget"
            )
        for subset in itertools.combinations(range(1, g.v + 1), size):
            if g.edge_count_within(frozenset(subset)) > c * size:
                return False
    return True


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

    Every maximal matching saturates the smallest part, so matchings are
    enumerated by pairing its vertices in order.
    """
    m = min(len(p) for p in parts)
    anchor = min(range(len(parts)), key=lambda i: (len(parts[i]), i))
    anchor_vertices = sorted(parts[anchor])[:m]
    others = [sorted(p) for i, p in enumerate(parts) if i != anchor]

    def rec(i: int, used: tuple[set, ...], acc: list[frozenset]):
        if i == m:
            yield frozenset(acc)
            return
        pools = [[x for x in p if x not in used[j]] for j, p in enumerate(others)]
        for picks in itertools.product(*pools):
            for j, x in enumerate(picks):
                used[j].add(x)
            acc.append(frozenset((anchor_vertices[i],) + picks))
            yield from rec(i + 1, used, acc)
            acc.pop()
            for j, x in enumerate(picks):
                used[j].remove(x)

    yield from rec(0, tuple(set() for _ in others), [])


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
    edge_count: int
    attempts: int
    seed: int
    sub_member_log2: int  # the member certifies >= 2^edge_count members
    verification: str = "exhaustive"  # in_P decides membership exactly


def _edge_threshold_met(e: int, n: int, r: int, delta: Fraction) -> bool:
    """Exact check of e >= n^(-delta) * C(n, r) / 2 for rational delta."""
    a, b = delta.numerator, delta.denominator
    return (2 * e) ** b * n ** a >= math.comb(n, r) ** b


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
    rejected and still counts as an attempt."""
    c = Fraction(c)
    delta = Fraction(delta)
    if delta * c <= 1:
        raise ValueError("need delta > 1/c")
    if k * r > n:
        raise ValueError("need k*r <= n")
    rng = random.Random(seed)
    p = float(n) ** (-float(delta))
    for attempt in range(1, max_attempts + 1):
        drawn = [e for e in itertools.combinations(range(1, n + 1), r) if rng.random() < p]
        g = hypergraph(r, n, drawn)
        if not _edge_threshold_met(g.e, n, r, delta):
            continue
        try:
            member = in_P(g, range(1, k + 1), c)
        except BudgetExceeded:
            continue  # an unchecked draw is never certified
        if member:
            return SampleCertificate(
                graph=g, edge_count=g.e, attempts=attempt, seed=seed, sub_member_log2=g.e
            )
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


def _threshold_met(e: int, n: int, r: int, eps: Fraction) -> bool:
    """2^e >= 2^(n^(r - eps)), i.e. e^b >= n^(rb - a) for eps = a/b."""
    a, b = eps.numerator, eps.denominator
    if e <= 0:
        return False
    return e ** b >= n ** (r * b - a)


def default_estimator(r: int, c: Fraction, eps: Fraction, seed: int):
    """Certified lower bound log2 |P^{nu,c}_n| >= e via sample_dense_member.

    The certificate graph is a member of P^{(k),c}_n with k = max(nu_prefix),
    hence of P^{nu,c}_n, and in_P decides that membership exactly.
    Returns a callable (nu_prefix, n) -> (e, certificate dict) or None.
    The sampler's preconditions (k*r <= n) and a deterministic
    hopelessness bound (expected edges far below the threshold) make it
    return None without drawing randomness.
    """
    delta = (Fraction(1, 1) / c + eps) / 2

    def estimate(nu_prefix: tuple[int, ...], n: int):
        k = max(nu_prefix)
        if k * r > n:
            return None
        p = float(n) ** (-float(delta))
        mean = p * math.comb(n, r)
        need = float(n) ** (r - float(eps))
        if mean + 6 * math.sqrt(mean) + 2 < need:
            return None  # certification out of reach at this n
        best = None
        for i in range(ESTIMATOR_ATTEMPTS):
            try:
                cert = sample_dense_member(r, k, c, n, delta, seed=seed * 100003 + n * 101 + i,
                                           max_attempts=40)
            except SampleBudgetExceeded:
                continue
            if best is None or cert.edge_count > best.edge_count:
                best = cert
        if best is None:
            return None
        return best.edge_count, {
            "n": n,
            "edges": best.edge_count,
            "attempts": best.attempts,
            "seed": best.seed,
            "verification": best.verification,
        }

    return estimate


def build_sequence(r: int, c: Fraction, eps: Fraction, steps: int, seed: int = 0) -> OscSequence:
    """Greedy sequence: nu_0 = r+1; mu_k = least n > nu_k whose certified
    lower bound reaches 2^(n^(r-eps)); nu_{k+1} = mu_k + 1."""
    c = Fraction(c)
    eps = Fraction(eps)
    if c < Fraction(1, r - 1):
        raise ValueError("need c >= 1/(r-1)")
    if eps * c <= 1:
        raise ValueError("need eps > 1/c")
    estimator = default_estimator(r, c, eps, seed)
    nu = [r + 1]
    mu: list[int] = []
    certificates: list[dict] = []
    for _ in range(steps):
        found = None
        for n in range(nu[-1] + 1, nu[-1] + 1 + SEQUENCE_SCAN_LIMIT):
            result = estimator(tuple(nu), n)
            if result is None:
                continue
            e, cert = result
            if _threshold_met(e, n, r, eps):
                found = (n, cert)
                break
        if found is None:
            raise EstimatorFailed(
                f"no certified n in ({nu[-1]}, {nu[-1] + SEQUENCE_SCAN_LIMIT}] reaches the threshold"
            )
        n, cert = found
        mu.append(n)
        certificates.append(cert)
        nu.append(n + 1)
    return OscSequence(c=c, eps=eps, r=r, nu=tuple(nu), mu=tuple(mu), certificates=tuple(certificates))

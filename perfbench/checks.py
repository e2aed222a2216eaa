"""Output checks: recorded digests, independent oracles and properties.

Every check runs after the timed region.  ``check_job`` returns None when
the output is right and a one-line reason otherwise.  The oracles are
written from the definitions, not from hspeed's code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction

# OEIS A000088: graphs on n unlabeled vertices
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
BRUTE_FORCE_NMAX = 5
CONNECTED_SET_CAP = 200_000


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_rows(stdout: str) -> list[tuple[int, int, int]]:
    lines = stdout.strip().splitlines()
    if lines[0] != "n,labeled,unlabeled":
        raise ValueError("unexpected CSV header")
    return [tuple(int(x) for x in line.split(",")) for line in lines[1:]]


def _expect(cond: bool, reason: str):
    if not cond:
        raise ValueError(reason)


# ---------------------------------------------------------------------------
# oracles


def _all_graphs(stdout, check):
    rows = _csv_rows(stdout)
    _expect([r[0] for r in rows] == list(range(1, len(rows) + 1)), "rows are not n = 1..nmax")
    for n, labeled, unlabeled in rows:
        _expect(labeled == 2 ** math.comb(n, 2), f"labeled count at n={n} is not 2^C(n,2)")
        _expect(unlabeled == A000088[n], f"unlabeled count at n={n} is not A000088")


def _matching(stdout, check):
    rows = _csv_rows(stdout)
    involutions = [1, 1]
    for n in range(2, len(rows) + 1):
        involutions.append(involutions[n - 1] + (n - 1) * involutions[n - 2])
    for n, labeled, unlabeled in rows:
        _expect(labeled == involutions[n], f"labeled count at n={n} breaks the involution recurrence")
        _expect(unlabeled == n // 2 + 1, f"unlabeled count at n={n} is not floor(n/2)+1")


def _edge_mask(pairs, index) -> int:
    mask = 0
    for a, b in pairs:
        mask |= 1 << index[frozenset((a, b))]
    return mask


def forbidden_free_count(family, n: int) -> int:
    """Labeled graphs on [n] with no induced subgraph isomorphic to a family member."""
    copies = {}  # m -> edge masks (over pairs of [m]) of every labeled copy of a member
    for m, edges in family:
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        index = {frozenset(p): i for i, p in enumerate(pairs)}
        for perm in itertools.permutations(range(1, m + 1)):
            copies.setdefault(m, set()).add(
                _edge_mask([(perm[a - 1], perm[b - 1]) for a, b in edges], index))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    count = 0
    for bits in range(1 << len(pairs)):
        present = {p for i, p in enumerate(pairs) if bits >> i & 1}
        ok = True
        for m, masks in copies.items():
            sub_pairs = list(itertools.combinations(range(1, m + 1), 2))
            for subset in itertools.combinations(range(1, n + 1), m):
                mask = 0
                for i, (a, b) in enumerate(sub_pairs):
                    if (subset[a - 1], subset[b - 1]) in present:
                        mask |= 1 << i
                if mask in masks:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def _forbid(stdout, check):
    rows = _csv_rows(stdout)
    family = [(m, [tuple(e) for e in edges]) for m, edges in check["family"]]
    for n, labeled, _ in rows:
        if n > BRUTE_FORCE_NMAX:
            break
        _expect(labeled == forbidden_free_count(family, n),
                f"labeled count at n={n} disagrees with brute force")


def bip_count(n: int) -> int:
    """Complete bipartite graphs on [n] with both sides > K = 2, sides unordered."""
    return 2 ** (n - 1) - (1 + n + math.comb(n, 2))


def _bip_count(stdout, check):
    out = json.loads(stdout)
    _expect(out["n"] == check["n"] and int(out["count"]) == bip_count(check["n"]),
            "template count disagrees with the closed form")


def _bip_enumerate(stdout, check):
    out = json.loads(stdout)
    members = {json.dumps(m, sort_keys=True) for m in out["members"]}
    _expect(int(out["count"]) == len(out["members"]) == len(members) == bip_count(check["n"]),
            "enumerated members disagree with the closed-form count")


def _blocks(stdout, check):
    out = json.loads(stdout)
    n, k = check["n"], check["k"]
    ell = n // k
    m = k * ell
    _expect(out["m"] == m and out["ell"] == ell, "m or ell is wrong")
    expected = math.factorial(m) // (math.factorial(k) ** ell * math.factorial(ell))
    _expect(int(out["count"]) == expected, "count is not m!/((k!)^ell ell!)")
    root, power = int(out["reference_lower_bound"]), n ** (n * (k - 1))
    _expect(root ** k <= power < (root + 1) ** k, "reference bound is not floor(n^(n(1-1/k)))")


def _components(stdout, check):
    with open(check["graph"]) as fh:
        graph = json.load(fh)
    parent = list(range(graph["n"] + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in graph["tuples"]["E"]:
        parent[find(a)] = find(b)
    groups = {}
    for x in range(1, graph["n"] + 1):
        groups.setdefault(find(x), []).append(x)
    expected = sorted(groups.values())
    out = json.loads(stdout)
    _expect(sorted(out["components"]) == expected, "components disagree with union-find")
    sizes = {}
    for g in expected:
        sizes[str(len(g))] = sizes.get(str(len(g)), 0) + 1
    _expect(out["size_histogram"] == sizes, "size histogram is wrong")


def _osc_q(stdout, check):
    out = json.loads(stdout)
    _expect(out["mode"] == "q" and isinstance(out["member"], bool), "malformed member output")
    if check["e"] > Fraction(check["c"]) * check["v"]:
        _expect(out["member"] is False, "the whole hypergraph is denser than c, yet member")


def violating_set(r: int, edges, c: Fraction, k: int):
    """A vertex set S with |S| <= k and e(S) > c|S|, None if there is none, or
    "unchecked" past CONNECTED_SET_CAP sets.

    Edge and vertex counts add over components, so a violating set exists
    exactly when an edge-connected one does; those are grown edge by edge.
    """
    edge_sets = [frozenset(e) for e in edges]
    touching = {}
    for e in edge_sets:
        for x in e:
            touching.setdefault(x, []).append(e)
    seen = set()
    stack = [e for e in edge_sets if len(e) <= k]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        if len(seen) > CONNECTED_SET_CAP:
            return "unchecked"
        inside = {e for x in s for e in touching[x] if e <= s}
        if len(inside) > c * len(s):
            return s
        for x in s:
            for e in touching[x]:
                grown = s | e
                if len(grown) <= k and grown not in seen:
                    stack.append(grown)
    return None


def _osc_sample(stdout, check):
    out = json.loads(stdout)
    r, k, n = check["r"], check["k"], check["n"]
    c, delta = Fraction(check["c"]), Fraction(check["delta"])
    graph = out["graph"]
    edges = graph["edges"]
    _expect(graph["r"] == r and graph["v"] == n, "graph has the wrong r or v")
    _expect(all(len(e) == r == len(set(e)) and all(1 <= x <= n for x in e) for e in edges),
            "an edge is not an r-set of [n]")
    _expect(len({frozenset(e) for e in edges}) == len(edges) == out["edges"], "edge count is wrong")
    _expect(int(out["log2_members_lower_bound"]) == out["edges"], "log2 bound is not the edge count")
    a, b = delta.numerator, delta.denominator
    _expect((2 * len(edges)) ** b * n ** a >= math.comb(n, r) ** b,
            "edge threshold e >= n^-delta C(n,r)/2 fails")
    witness = violating_set(r, edges, c, k)
    _expect(witness is None or witness == "unchecked",
            f"set {sorted(witness) if witness else ''} violates P^(k),c")
    _expect(out["verification"] == "exhaustive" or out["verification"].startswith("sampled:"),
            "unknown verification mode")


def _osc_sequence(stdout, check):
    out = json.loads(stdout)
    r, steps = check["r"], check["steps"]
    eps = Fraction(check["eps"])
    nu, mu, certs = out["nu"], out["mu"], out["certificates"]
    _expect(out["r"] == r and Fraction(out["c"]) == Fraction(check["c"])
            and Fraction(out["eps"]) == eps, "parameters are not echoed")
    _expect(len(nu) == steps + 1 and len(mu) == len(certs) == steps, "wrong number of steps")
    _expect(nu[0] == r + 1 and all(x < y for x, y in zip(nu, nu[1:])), "nu is not increasing from r+1")
    a, b = eps.numerator, eps.denominator
    for i, (m, cert) in enumerate(zip(mu, certs)):
        _expect(m == nu[i + 1] - 1 and m > nu[i], "nu and mu do not interleave")
        _expect(cert["n"] == m, "certificate is for another n")
        e = cert["edges"]
        _expect(e > 0 and e ** b >= m ** (r * b - a), "certificate misses 2^e >= 2^(n^(r-eps))")


ORACLES = {
    "all-graphs": _all_graphs,
    "matching": _matching,
    "forbid": _forbid,
    "bip-count": _bip_count,
    "bip-enumerate": _bip_enumerate,
    "blocks": _blocks,
    "components": _components,
    "osc-q": _osc_q,
    "osc-sample": _osc_sample,
    "osc-sequence": _osc_sequence,
}


def check_job(job: dict, stdout: str, digests: dict) -> str | None:
    key = job["digest"]
    if key is not None:
        if key not in digests:
            return f"no recorded digest for {key}"
        if sha256(stdout) != digests[key]:
            return "stdout differs from the recorded digest"
    if job["check"]:
        try:
            ORACLES[job["check"]["oracle"]](stdout, job["check"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{job['check']['oracle']}: {exc}"
    return None


def sampled_certificates(job: dict, stdout: str) -> int:
    """Certificates in a sample or sequence output whose verification is not exhaustive."""
    oracle = (job["check"] or {}).get("oracle")
    if oracle == "osc-sample":
        return int(json.loads(stdout)["verification"] != "exhaustive")
    if oracle == "osc-sequence":
        return sum(c["verification"] != "exhaustive" for c in json.loads(stdout)["certificates"])
    return 0

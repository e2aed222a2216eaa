"""Finitary templates for countably infinite structures with finitely many
swap-equivalence classes: exact compatible-structure counting, class-index
symmetries, closed-form speeds, and multi-template union counting.

A template records class sizes (finite or infinite), the per-atom index
signatures, and the threshold K; ordered partitions of [n] matching the
finite sizes exactly and exceeding K on the infinite classes instantiate
it as concrete structures.  Languages with constants are rejected here:
the partition machinery never places named points.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    ConstantInInfiniteClass,
    FitFailed,
    LanguageHasConstants,
    LanguageMismatch,
    MixedSizeCase,
    NonIntegralCount,
)
from .linalg import poly_eval, solve_exact
from .simclass import (
    AtomicDiff,
    atomic_diff_from_key,
    atomic_diffs,
    decomposition,
    realizations,
    reconstruct_relations,
)
from .structures import Language, Structure, language_from_json, language_to_json

INF = float("inf")

ENUMERATION_BUDGET = 10


@dataclass(frozen=True)
class Template:
    """k class sizes (finite first, then inf) with index signatures per atom."""

    language: Language
    sizes: tuple[float, ...]  # ints for finite classes, INF for infinite ones
    sigma: tuple[tuple[AtomicDiff, frozenset[tuple[int, ...]]], ...]

    def __post_init__(self):
        if self.language.constants:
            raise LanguageHasConstants("templates require constant-free languages")
        if not self.sizes or self.sizes[-1] != INF:
            raise ValueError("a template needs at least one infinite class")
        finite = [s for s in self.sizes if s != INF]
        if any(int(s) != s or s < 1 for s in finite):
            raise ValueError("finite class sizes must be positive integers")
        if list(self.sizes) != sorted(finite) + [INF] * (len(self.sizes) - len(finite)):
            raise ValueError("sizes must be nondecreasing with finite classes first")
        k = len(self.sizes)
        declared = {d for d, _ in self.sigma}
        expected = set(atomic_diffs(self.language))
        if declared != expected:
            raise ValueError("sigma must cover exactly the atomic patterns of the language")
        for diff, entries in self.sigma:
            for idx in entries:
                if len(idx) != diff.num_vars:
                    raise ValueError(f"signature entry {idx} has wrong length for {diff.key()}")
                if any(i < 1 or i > k for i in idx):
                    raise ValueError(f"signature entry {idx} outside [1..{k}]")

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def t(self) -> int:
        """Number of finite classes."""
        return sum(1 for s in self.sizes if s != INF)

    @property
    def ell(self) -> int:
        """Number of infinite classes."""
        return self.k - self.t

    @property
    def finite_sizes(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.sizes if s != INF)

    @property
    def finite_total(self) -> int:
        return sum(self.finite_sizes)

    @property
    def threshold(self) -> int:
        """K = max(arity, largest finite class size)."""
        return max([self.language.arity] + list(self.finite_sizes))

    def sigma_of(self, diff: AtomicDiff) -> frozenset[tuple[int, ...]]:
        for d, s in self.sigma:
            if d == diff:
                return s
        raise KeyError(diff)


def make_template(language: Language, sizes, sigma: dict) -> Template:
    """Build a template from a {atom-or-key: index tuples} signature dict.

    Atoms of the language missing from ``sigma`` get empty signatures.
    """
    full: dict[AtomicDiff, frozenset] = {d: frozenset() for d in atomic_diffs(language)}
    for key, entries in sigma.items():
        diff = atomic_diff_from_key(language, key) if isinstance(key, str) else key
        if diff not in full:
            raise ValueError(f"{diff.key()} is not an atomic pattern of the language")
        full[diff] = frozenset(tuple(t) for t in entries)
    norm = tuple(INF if s in (INF, None, "inf") else int(s) for s in sizes)
    return Template(language, norm, tuple(sorted(full.items(), key=lambda kv: kv[0].key())))


def template_of(struct: Structure, infinite_classes: set[int]) -> Template:
    """Template from a finite structure's decomposition with marked classes grown.

    ``infinite_classes`` holds 1-based class indices of the decomposition.
    """
    if struct.language.constants:
        raise LanguageHasConstants("templates require constant-free languages")
    decomp = decomposition(struct)
    for i in infinite_classes:
        if i < 1 or i > decomp.k:
            raise ValueError(f"class index {i} out of range")
        if decomp.classes[i - 1] & struct.constant_elements:
            raise ConstantInInfiniteClass(f"class {i} holds a constant interpretation")
    # order: finite by (size, least element), then infinite by least element
    order = sorted(
        range(1, decomp.k + 1),
        key=lambda i: (i in infinite_classes, len(decomp.classes[i - 1]), min(decomp.classes[i - 1])),
    )
    rank = {old: new for new, old in enumerate(order, start=1)}
    sizes = tuple(
        INF if old in infinite_classes else len(decomp.classes[old - 1]) for old in order
    )
    sigma = tuple(
        (diff, frozenset(tuple(rank[i] for i in idx) for idx in entries))
        for diff, entries in decomp.sigma
    )
    return Template(struct.language, sizes, sigma)


# ---------------------------------------------------------------------------
# compatibility


def instantiate(template: Template, parts: tuple[frozenset[int], ...], n: int) -> Structure:
    """Concrete structure on [n] built from an ordered partition."""
    rel_tuples = reconstruct_relations(template.language, parts, template.sigma)
    return Structure(template.language, n, rel_tuples, ())


def is_compatible(struct: Structure, template: Template):
    """Witness ordered partition instantiating the structure, or None.

    Finite classes must be matched in size exactly; parts for infinite
    classes must exceed the threshold K.
    """
    K = template.threshold
    return _assign(struct, template, [int(s) if s != INF else K + 1 for s in template.sizes])


def in_age(struct: Structure, template: Template) -> bool:
    """Membership in the template's age: embeds with part sizes at most the
    class sizes, with no minimum on parts for infinite classes."""
    return _assign(struct, template, [0] * template.k) is not None


def _assign(struct: Structure, template: Template, low: list[int]):
    """First ordered partition instantiating the structure with part i of
    size between low[i-1] and the i-th class size, or None.  Elements 1..n
    try classes 1..k in turn, pruned by the signature and the part minimums."""
    if struct.language != template.language:
        raise LanguageMismatch("structure and template over different languages")
    n, k = struct.n, template.k
    if n < sum(low):
        return None
    sigma = dict(template.sigma)
    want = {d: realizations(struct, d) for d in sigma}
    assign: dict[int, int] = {}
    counts = [0] * k

    def consistent_with(e: int) -> bool:
        # verify every atom tuple involving e against the signature, both directions
        seen = list(assign)
        for d, allowed in sigma.items():
            v = d.num_vars
            if v > len(seen):
                continue
            for values in itertools.product(seen, repeat=v):
                if e not in values or len(set(values)) != v:
                    continue
                idx = tuple(assign[x] for x in values)
                if (values in want[d]) != (idx in allowed):
                    return False
        return True

    def rec(e: int):
        if e > n:
            return tuple(frozenset(x for x, c in assign.items() if c == i) for i in range(1, k + 1))
        for i in range(k):
            if counts[i] >= template.sizes[i]:
                continue
            counts[i] += 1
            assign[e] = i + 1
            # the elements after e must still fill every part to its minimum
            deficit = sum(max(0, lo - c) for lo, c in zip(low, counts))
            if deficit <= n - e and consistent_with(e):
                res = rec(e + 1)
                if res is not None:
                    return res
            counts[i] -= 1
            del assign[e]
        return None

    return rec(1)


# ---------------------------------------------------------------------------
# counting


def omega_count(template: Template, n: int) -> int:
    """|Omega([n])|: ordered partitions matching sizes, multinomial-exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = template.finite_total
    ell = template.ell
    K = template.threshold
    if ell == 0:
        return 1 if n == c else 0
    total = 0
    for comp in _compositions(n - c, ell, K + 1):
        total += _multinomial(n, list(comp) + list(template.finite_sizes))
    return total


def _compositions(total: int, parts: int, minimum: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _multinomial(n: int, parts: list[int]) -> int:
    if sum(parts) != n:
        raise ValueError("parts must sum to n")
    out = 1
    rem = n
    for p in parts:
        out *= math.comb(rem, p)
        rem -= p
    return out


def aut_star(template: Template) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Class permutations preserving the size vector and every signature.

    Returns (permutations, order); each permutation maps 1-based class
    index i to sigma[i-1].
    """
    k = template.k
    perms = tuple(
        p
        for p in itertools.permutations(range(1, k + 1))
        if all(template.sizes[p[i] - 1] == template.sizes[i] for i in range(k))
        and _carries_signature(p, template, template)
    )
    return perms, len(perms)


def _carries_signature(p: tuple[int, ...], a: Template, b: Template) -> bool:
    """Does the class permutation p (class i to p[i-1]) carry a's signature onto b's?"""
    return all(
        frozenset(tuple(p[i - 1] for i in idx) for idx in entries) == b.sigma_of(diff)
        for diff, entries in a.sigma
    )


def count_compatible(template: Template, n: int) -> int:
    """Exact |Omega([n])| / |Aut*|; raises NonIntegralCount on inexact division."""
    omega = omega_count(template, n)
    _, order = aut_star(template)
    q, r = divmod(omega, order)
    if r:
        raise NonIntegralCount(
            f"|Omega([{n}])| = {omega} is not divisible by |Aut*| = {order}; "
            "n is below the validity threshold"
        )
    return q


def enumerate_compatible(template: Template, n: int, budget: int = ENUMERATION_BUDGET) -> list[Structure]:
    """All distinct structures on [n] compatible with the template."""
    if n > budget:
        raise BudgetExceeded(f"n = {n} exceeds enumeration budget {budget}")
    K = template.threshold
    caps = [int(s) if s != INF else None for s in template.sizes]
    seen: dict[Structure, None] = {}
    elems = list(range(1, n + 1))

    def rec(idx: int, rest: list[int], parts: list[frozenset[int]]):
        if idx == template.k:
            if not rest:
                struct = instantiate(template, tuple(parts), n)
                seen.setdefault(struct)
            return
        cap = caps[idx]
        if cap is not None:
            sizes = [cap]
        else:
            remaining_inf = sum(1 for c in caps[idx + 1:] if c is None)
            hi = len(rest) - remaining_inf * (K + 1)
            sizes = range(K + 1, hi + 1)
        for size in sizes:
            if size > len(rest):
                continue
            for chosen in itertools.combinations(rest, size):
                chosen_set = set(chosen)
                rec(idx + 1, [e for e in rest if e not in chosen_set], parts + [frozenset(chosen)])

    rec(0, elems, [])
    return sorted(seen, key=lambda s: sorted(sorted(t) for ts in s.rel_tuples for t in ts))


# ---------------------------------------------------------------------------
# closed-form speeds


@dataclass(frozen=True)
class SpeedForm:
    """Exact closed form sum_i p_i(n) * i^n valid for n >= n0."""

    polys: tuple[tuple[Fraction, ...], ...]  # polys[i-1] = coefficients of p_i, low to high
    n0: int

    @property
    def ell(self) -> int:
        return len(self.polys)

    def evaluate(self, n: int) -> int:
        total = Fraction(0)
        for i, coeffs in enumerate(self.polys, start=1):
            total += poly_eval(list(coeffs), n) * Fraction(i) ** n
        if total.denominator != 1:
            raise ArithmeticError(f"closed form not integral at n = {n}")
        return int(total)

    def degree(self, i: int) -> int:
        coeffs = self.polys[i - 1]
        for d in range(len(coeffs) - 1, -1, -1):
            if coeffs[d] != 0:
                return d
        return -1


def speed_form(template: Template, window: tuple[int, int]) -> SpeedForm:
    """Fit the exact closed form on a window of exact counts.

    The linear system is solved on all but the last two window points and
    verified on those held-out points; any mismatch raises FitFailed.
    """
    lo, hi = window
    ell = template.ell
    K = template.threshold
    c = template.finite_total
    n0 = ell * K + c
    if lo < n0:
        raise FitFailed(f"window starts below the validity threshold {n0}")
    # degree bound per base: c + (ell - i) * K
    degrees = [c + (ell - i) * K for i in range(1, ell + 1)]
    unknowns = sum(d + 1 for d in degrees)
    points = list(range(lo, hi + 1))
    if len(points) < unknowns + 2:
        raise FitFailed(f"window has {len(points)} points; need {unknowns + 2}")
    counts = {n: count_compatible(template, n) for n in points}
    fit_points = points[:-2]
    rows = []
    rhs = []
    for n in fit_points:
        row: list[Fraction] = []
        for i in range(1, ell + 1):
            power = Fraction(i) ** n
            row.extend(power * Fraction(n) ** d for d in range(degrees[i - 1] + 1))
        rows.append(row)
        rhs.append(Fraction(counts[n]))
    sol = solve_exact(rows, rhs)
    if sol is None:
        raise FitFailed("linear system inconsistent or underdetermined on the window")
    polys = []
    pos = 0
    for i in range(1, ell + 1):
        width = degrees[i - 1] + 1
        polys.append(tuple(sol[pos:pos + width]))
        pos += width
    form = SpeedForm(tuple(polys), n0)
    for n in points[-2:]:
        if form.evaluate(n) != counts[n]:
            raise FitFailed(f"fitted form fails verification at held-out n = {n}")
    return form


# ---------------------------------------------------------------------------
# equivalence and unions


@dataclass(frozen=True)
class Equivalent:
    """Class permutation carrying the first template's signature to the second."""

    perm: tuple[int, ...]


@dataclass(frozen=True)
class Disjoint:
    pass


def templates_equivalent_or_disjoint(a: Template, b: Template):
    """Equivalent(perm) when some class permutation carries one signature and
    size vector exactly onto the other, else Disjoint().

    Two templates either instantiate the same structure sets or none in
    common, so unions reduce to equivalence-class representatives.  A size
    overlap achievable only through threshold absorption (a finite class
    of one acting as an infinite part of the other) raises MixedSizeCase
    instead of guessing.
    """
    if a.language != b.language:
        raise LanguageMismatch("templates over different languages")
    if a.k != b.k:
        return Disjoint()
    k = a.k
    mixed = None
    for p in itertools.permutations(range(1, k + 1)):
        if not _carries_signature(p, a, b):
            continue
        if all(b.sizes[p[i - 1] - 1] == a.sizes[i - 1] for i in range(1, k + 1)):
            return Equivalent(p)
        if _sizes_overlap(a, b, p):
            mixed = p
    if mixed is not None:
        raise MixedSizeCase(
            f"templates overlap only through threshold absorption (perm {mixed}); "
            "normalize the pair before comparing"
        )
    return Disjoint()


def _sizes_overlap(a: Template, b: Template, p) -> bool:
    """Can one ordered partition lie in both Omega sets (b-part i as a-part p^-1)?"""
    ka, kb = a.threshold, b.threshold
    for i in range(1, a.k + 1):
        sa = a.sizes[i - 1]
        sb = b.sizes[p[i - 1] - 1]
        if sa == sb:
            continue
        if sa == INF and sb != INF and sb > ka:
            continue  # b's exact finite part is large enough for a's infinite class
        if sb == INF and sa != INF and sa > kb:
            continue
        return False
    return True


def union_speed(templates: list[Template], n: int) -> int:
    """Exact count of structures on [n] compatible with at least one template.

    Distinct templates are pairwise disjoint after conjunction collapse,
    so the inclusion-exclusion sum reduces to one term per equivalence
    class representative.
    """
    reps: list[Template] = []
    for t in templates:
        if not any(isinstance(templates_equivalent_or_disjoint(t, r), Equivalent) for r in reps):
            reps.append(t)
    return sum(count_compatible(r, n) for r in reps)


# ---------------------------------------------------------------------------
# JSON interface


def template_to_json(template: Template) -> dict:
    return {
        "language": language_to_json(template.language),
        "k": template.k,
        "sizes": ["inf" if s == INF else int(s) for s in template.sizes],
        "K": template.threshold,
        "sigma": {
            diff.key(): sorted(list(t) for t in entries)
            for diff, entries in template.sigma
            if entries
        },
    }


def template_from_json(obj: dict) -> Template:
    lang = language_from_json(obj["language"])
    template = make_template(lang, obj["sizes"], obj.get("sigma", {}))
    if "k" in obj and int(obj["k"]) != template.k:
        raise ValueError("declared k disagrees with sizes")
    if "K" in obj and int(obj["K"]) != template.threshold:
        raise ValueError("declared K disagrees with max(arity, largest finite size)")
    return template


def load_template(path: str) -> Template:
    with open(path) as fh:
        return template_from_json(json.load(fh))

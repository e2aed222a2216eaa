"""Finitary templates for countably infinite structures with finitely many
swap-equivalence classes: exact compatible-structure counting, class-index
symmetries, closed-form speeds, and multi-template union counting.

A template records class sizes (finite or infinite), the per-atom index
signatures, and the threshold K; ordered partitions of [n] matching the
finite sizes exactly and exceeding K on the infinite classes instantiate
it as concrete structures.  Languages with constants are rejected here:
the partition machinery never places named points.

Counting is by inclusion-exclusion over the infinite classes that hold K
or fewer elements: a fixed set of terms, independent of n, gives
|Omega([n])| exactly for every n >= 0, and the same terms grouped by base
give the closed form sum_i p_i(n) * i^n.  The composition sum
``omega_count`` stays as the independent oracle that ``speed_form``
checks its window against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    FitFailed,
    LanguageHasConstants,
    LanguageMismatch,
    MixedSizeCase,
)
from .simclass import (
    AtomicDiff,
    atomic_diff_from_key,
    atomic_diffs,
    decomposition,
    realizations,
    reconstruct_relations,
)
from .structures import Language, Structure, json_int, language_from_json, language_to_json, load_json

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
        if [d for d, _ in self.sigma] != atomic_diffs(self.language):
            raise ValueError("sigma must list exactly the atomic patterns of the language, in its order")
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
    norm = tuple(INF if s in (INF, "inf") else int(s) for s in sizes)
    return Template(language, norm, tuple(full.items()))


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
    """Concrete structure on [n] built from an ordered partition of [n]."""
    if sorted(itertools.chain(*parts)) != list(range(1, n + 1)):
        raise ValueError(f"parts must partition [{n}]")
    rel_tuples = reconstruct_relations(template.language, parts, template.sigma)
    return Structure._trusted(template.language, n, rel_tuples, ())


def is_compatible(struct: Structure, template: Template):
    """Witness ordered partition instantiating the structure, or None.

    Finite classes must be matched in size exactly; parts for infinite
    classes must exceed the threshold K.
    """
    return next(_partitions(template, struct.n, _exact_minimums(template), struct), None)


def in_age(struct: Structure, template: Template) -> bool:
    """Membership in the template's age: embeds with part sizes at most the
    class sizes, with no minimum on parts for infinite classes."""
    return next(_partitions(template, struct.n, [0] * template.k, struct), None) is not None


def _exact_minimums(template: Template) -> list[int]:
    """The part minimums of Omega: a finite class's size, K + 1 for an infinite class."""
    K = template.threshold
    return [int(s) if s != INF else K + 1 for s in template.sizes]


def _partitions(template: Template, n: int, low: list[int], struct: Structure | None = None):
    """Each ordered partition of [n] with part i of size between low[i-1]
    and the i-th class size, and, when a structure is given, instantiating
    it.  Elements 1..n try classes 1..k in turn, pruned by the part
    minimums and by the signature.  This is the one class-assignment search
    behind compatibility, ages and enumeration."""
    if struct is not None and struct.language != template.language:
        raise LanguageMismatch("structure and template over different languages")
    if n < sum(low):
        return
    sigma = dict(template.sigma)
    want = {d: realizations(struct, d) for d in sigma} if struct is not None else {}
    assign: dict[int, int] = {}
    parts: list[set[int]] = [set() for _ in template.sizes]

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
            # a frozenset's iteration order, and so a member's repr, follows insertion order
            yield tuple(frozenset(sorted(P)) for P in parts)
            return
        for i, part in enumerate(parts):
            if len(part) >= template.sizes[i]:
                continue
            part.add(e)
            assign[e] = i + 1
            # the elements after e must still fill every part to its minimum
            deficit = sum(max(0, lo - len(P)) for lo, P in zip(low, parts))
            if deficit <= n - e and (struct is None or consistent_with(e)):
                yield from rec(e + 1)
            part.discard(e)
            del assign[e]

    try:
        yield from rec(1)
    finally:
        del rec  # it reaches itself through its closure; a caller may stop early, so free it on close


# ---------------------------------------------------------------------------
# counting


def omega_count(template: Template, n: int) -> int:
    """|Omega([n])|: ordered partitions matching sizes, multinomial-exact."""
    if n < 0:
        raise ValueError("n must be >= 0")
    c = template.finite_total
    total = 0
    for comp in _compositions(n - c, template.ell, template.threshold + 1):
        total += _multinomial(n, list(comp) + list(template.finite_sizes))
    return total


def _compositions(total: int, parts: int, minimum: int):
    """Ordered tuples of ``parts`` >= 1 integers, each at least ``minimum``, summing to ``total``."""
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
    perms = tuple(p for p, sized in _class_maps(template, template) if sized)
    return perms, len(perms)


def _class_maps(a: Template, b: Template):
    """Each class permutation p (class i to p[i-1]) carrying a's signature onto
    b's, in lexicographic order, with whether it carries a's sizes onto b's too."""
    for p in itertools.permutations(range(1, a.k + 1)):
        if all(frozenset(tuple(p[i - 1] for i in idx) for idx in entries) == b.sigma_of(diff)
               for diff, entries in a.sigma):
            yield p, all(b.sizes[p[i] - 1] == a.sizes[i] for i in range(a.k))


def _terms(template: Template):
    """Inclusion-exclusion terms of |Omega([n])| as (base, m, weight).

    Choose j of the ell infinite classes to hold at most K elements each,
    m elements in all; the other ell - j classes take the rest freely.
    With c the finite total and N = n - c,

        |Omega([n])| = sum weight * n! / ((N - m)! * prod f! * m!) * base^(N - m)

    over the terms with m <= N (0^0 = 1), where base = ell - j and weight =
    (-1)^j C(ell, j) times the number of ways to deal m labelled elements
    into j classes of at most K, i.e. m! [x^m] (sum_{s<=K} x^s/s!)^j.  The
    base-0 terms (j = ell) are nonzero only for N <= ell*K.  The terms
    depend on the template only, never on n.
    """
    ell, K = template.ell, template.threshold
    words = [1]  # words[m]: ways to deal m labelled elements into j classes of at most K
    for j in range(ell + 1):
        sign = (-1) ** j * math.comb(ell, j)
        for m, w in enumerate(words):
            yield ell - j, m, sign * w
        # one more class takes s <= K of the m elements
        words = [
            sum(math.comb(m, s) * words[m - s] for s in range(min(K, m) + 1) if m - s < len(words))
            for m in range(len(words) + K)
        ]


def count_compatible(template: Template, n: int) -> int:
    """Exact |Omega([n])| / |Aut*|.

    |Omega([n])| comes from the inclusion-exclusion terms, exact for every
    n >= 0; ``omega_count`` is the composition-sum oracle for the same value.
    Every class of a partition in Omega([n]) is non-empty, so Aut* acts
    freely on Omega([n]) and the division is exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    c = template.finite_total
    finite = math.prod(math.factorial(f) for f in template.finite_sizes)
    omega = 0
    for base, m, weight in _terms(template):
        if c + m <= n:
            omega += weight * (math.perm(n, c + m) // (finite * math.factorial(m))) * base ** (n - c - m)
    return omega // aut_star(template)[1]


def enumerate_compatible(template: Template, n: int, budget: int = ENUMERATION_BUDGET) -> list[Structure]:
    """All distinct structures on [n] compatible with the template.

    The search of ``is_compatible`` and ``in_age`` lists the ordered
    partitions.  Aut* permutes them and keeps each one's structure, so a
    member is built only from the partition least in its Aut* orbit by the
    per-part (size, sorted elements) key, and those partitions are
    instantiated in that key's order."""
    if n > budget:
        raise BudgetExceeded(f"n = {n} exceeds enumeration budget {budget}")
    preimages = [[p.index(j) for j in range(1, template.k + 1)] for p in aut_star(template)[0]]
    least = []
    for parts in _partitions(template, n, _exact_minimums(template)):
        key = [(len(P), sorted(P)) for P in parts]
        if all(key <= [key[i] for i in pre] for pre in preimages):
            least.append((key, parts))
    least.sort(key=lambda pair: pair[0])
    seen: dict[Structure, None] = {}
    for _, parts in least:
        seen.setdefault(instantiate(template, parts, n))
    return sorted(seen, key=lambda s: sorted(sorted(t) for ts in s.rel_tuples for t in ts))


# ---------------------------------------------------------------------------
# closed-form speeds


@dataclass(frozen=True)
class SpeedForm:
    """Exact closed form sum_i p_i(n) * i^n, valid for n > n0."""

    polys: tuple[tuple[Fraction, ...], ...]  # polys[i-1] = coefficients of p_i, low to high
    n0: int

    @property
    def ell(self) -> int:
        return len(self.polys)

    def evaluate(self, n: int) -> int:
        total = self._value(n)
        if total.denominator != 1:
            raise ArithmeticError(f"closed form not integral at n = {n}")
        return int(total)

    def _value(self, n: int) -> Fraction:
        total = Fraction(0)
        for i, coeffs in enumerate(self.polys, start=1):
            p = Fraction(0)
            for coeff in reversed(coeffs):
                p = p * n + coeff
            total += p * i**n
        return total

    def degree(self, i: int) -> int:
        coeffs = self.polys[i - 1]
        for d in range(len(coeffs) - 1, -1, -1):
            if coeffs[d] != 0:
                return d
        return -1


def speed_form(template: Template, window: tuple[int, int]) -> SpeedForm:
    """The exact closed form, derived from the inclusion-exclusion terms.

    The terms of base i >= 1 make up p_i(n) * i^n; the base-0 terms vanish
    for n > n0 = ell*K + c, which is where the form holds.  p_i has length
    c + (ell - i)*K + 1.  Every window point is checked against the
    composition sum ``omega_count``; a mismatch raises FitFailed.
    """
    lo, hi = window
    ell = template.ell
    K = template.threshold
    c = template.finite_total
    n0 = ell * K + c
    if lo <= n0:
        raise FitFailed(f"window starts at or below the validity threshold {n0}; it must start above n0")
    if hi < lo:
        raise FitFailed(f"window {lo}..{hi} is empty")
    _, order = aut_star(template)
    denom = order * math.prod(math.factorial(f) for f in template.finite_sizes)
    polys = [[Fraction(0)] * (c + (ell - i) * K + 1) for i in range(1, ell + 1)]
    for base, m, weight in _terms(template):
        if base:
            scale = Fraction(weight, denom * math.factorial(m) * base ** (c + m))
            for d, coeff in enumerate(_falling_factorial(c + m)):
                polys[base - 1][d] += scale * coeff
    form = SpeedForm(tuple(tuple(p) for p in polys), n0)
    for n in range(lo, hi + 1):
        if form._value(n) != Fraction(omega_count(template, n), order):
            raise FitFailed(f"closed form disagrees with the composition sum at n = {n}")
    return form


def _falling_factorial(k: int) -> list[int]:
    """Coefficients of n (n-1) ... (n-k+1) in n, low to high."""
    coeffs = [1]
    for r in range(k):  # multiply by (n - r)
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


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
    mixed = None
    for p, sized in _class_maps(a, b):
        if sized:
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
    sizes = [s if s == "inf" else json_int(s, "a class size") for s in obj["sizes"]]
    sigma = {key: [tuple(json_int(i, "a class index") for i in t) for t in entries]
             for key, entries in obj.get("sigma", {}).items()}
    template = make_template(lang, sizes, sigma)
    if "k" in obj and json_int(obj["k"], "k") != template.k:
        raise ValueError("declared k disagrees with sizes")
    if "K" in obj and json_int(obj["K"], "K") != template.threshold:
        raise ValueError("declared K disagrees with max(arity, largest finite size)")
    return template


def load_template(path: str) -> Template:
    return load_json(path, template_from_json)

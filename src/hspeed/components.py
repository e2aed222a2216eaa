"""Connected components over tuple supports, censuses, and the partition
counting construction used for component-based lower bounds."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .canon import canonical_data, classes
from .errors import BudgetExceeded, InsufficientComponents, OutOfRange
from .property import PropertySpec, generate_levels
from .structures import Structure, _integer_kth_root, apply_bijection, induced_substructure

MATERIALIZE_LIMIT = 8  # largest n whose members component_lowerbound_members lists


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[frozenset[int], ...]
    size_histogram: dict[int, int]


def components_of(struct: Structure) -> ComponentReport:
    """Maximal connected sets of the hypergraph of tuple supports.

    Tuples with repeated entries contribute their support set; isolated
    elements are singleton components.
    """
    links = ((t[0], x) for tuples in struct.rel_tuples for t in tuples for x in t)
    comps = tuple(sorted(classes(struct.n, links), key=lambda c: (len(c), min(c))))
    hist: dict[int, int] = {}
    for c in comps:
        hist[len(c)] = hist.get(len(c), 0) + 1
    return ComponentReport(components=comps, size_histogram=hist)


def neighborhood(struct: Structure, a: int) -> frozenset[int]:
    """All elements sharing a relation tuple with a (including a itself then)."""
    if a < 1 or a > struct.n:
        raise OutOfRange(f"element {a} outside [{struct.n}]")
    out: set[int] = set()
    for tuples in struct.rel_tuples:
        for t in tuples:
            if a in t:
                out.update(t)
    return frozenset(out)


@dataclass(frozen=True)
class Census:
    """Per component size: the maximum multiplicity seen, and whether any
    member has a strictly larger component."""

    max_multiplicity: dict[int, int]
    larger_exists: dict[int, bool]
    n_max: int


def component_census(spec: PropertySpec, n_max: int, budget: int | None = None) -> Census:
    multiplicity: dict[int, int] = {}
    largest_seen = 0
    for level in generate_levels(spec, n_max, budget):
        for rep, _ in level:
            report = components_of(rep)
            largest_seen = max(largest_seen, max(report.size_histogram, default=0))
            for size, count in report.size_histogram.items():
                multiplicity[size] = max(multiplicity.get(size, 0), count)
    larger = {size: largest_seen > size for size in multiplicity}
    return Census(max_multiplicity=multiplicity, larger_exists=larger, n_max=n_max)


@dataclass(frozen=True)
class BlockCount:
    count: int
    m: int
    ell: int
    reference_lower_bound: int  # floor of n^(n(1-1/k)), for display


def partitions_into_blocks(n: int, k: int) -> BlockCount:
    """Number of partitions of [k*floor(n/k)] into floor(n/k) blocks of size k.

    Closed form m!/((k!)^ell * ell!) with m = k*floor(n/k), ell = floor(n/k).
    """
    if not (n >= k >= 1):
        raise OutOfRange("need n >= k >= 1")
    ell = n // k
    m = k * ell
    count = math.factorial(m) // (math.factorial(k) ** ell * math.factorial(ell))
    # n^(n(1-1/k)) = (n^(n(k-1)))^(1/k), floored via integer k-th root
    power = n ** (n * (k - 1))
    root = _integer_kth_root(power, k)
    return BlockCount(count=count, m=m, ell=ell, reference_lower_bound=root)


def stirling_chain_holds(n: int, k: int) -> bool:
    """Exact check of count >= sqrt(2*pi) * m^(m+1/2) e^(-m) / ((k!)^ell (n/k)^(n/k+1/2) e^(1-n/k)).

    Both sides are raised to the (2k)-th power so every exponent is an
    integer, and e, pi are replaced by directional rational bounds.
    """
    ell = n // k
    m = k * ell
    count = partitions_into_blocks(n, k).count
    # B^(2k) = (2 pi)^k * m^(2km+k) * (k/n)^(2n+k) * e^(2n-2km-2k) / (k!)^(2k*ell)
    e_lo = Fraction(271828182845904523536028747135266249775724709369995, 10**50)
    e_hi = e_lo + Fraction(1, 10**45)
    pi_lo = Fraction(314159265358979323846264338327950288419716939937510, 10**50)
    pi_hi = pi_lo + Fraction(1, 10**45)
    exp_e = 2 * n - 2 * k * m - 2 * k
    e_part = (e_hi if exp_e > 0 else e_lo) ** exp_e
    bound_upper = (
        (2 * pi_hi) ** k
        * Fraction(m) ** (2 * k * m + k)
        * Fraction(k, n) ** (2 * n + k)
        * e_part
        / Fraction(math.factorial(k)) ** (2 * k * ell)
    )
    return Fraction(count) ** (2 * k) >= bound_upper


@dataclass(frozen=True)
class LowerBoundMembers:
    members: tuple[Structure, ...]
    count: int
    block_reference: int  # partitions_into_blocks of the residual domain


def component_lowerbound_members(
    source: Structure,
    k: int,
    n: int,
    spec: PropertySpec | None = None,
) -> LowerBoundMembers:
    """Distinct labeled members built by distributing size-k components over [n].

    Picks floor((n-|D|)/k) disjoint size-k components of the source (D =
    constant interpretations) plus a partial block, then counts the
    distinct images over all bijections onto [n].  Requires at least
    floor(n/k)+1 disjoint size-k components.
    """
    report = components_of(source)
    d_elems = set(source.const_vals)
    free = [c for c in report.components if len(c) == k and not (c & d_elems)]
    needed = n // k + 1
    if len(free) < needed:
        raise InsufficientComponents(
            f"need {needed} disjoint size-{k} components, found {len(free)}"
        )
    ell = (n - len(d_elems)) // k
    leftover = n - len(d_elems) - k * ell
    chosen: list[int] = sorted(d_elems)
    for c in free[:ell]:
        chosen.extend(sorted(c))
    if leftover:
        chosen.extend(sorted(free[ell])[:leftover])
    base, _ = induced_substructure(source, chosen)

    aut = canonical_data(base).aut_order
    count = math.factorial(n) // aut
    if n > MATERIALIZE_LIMIT:
        raise BudgetExceeded(
            f"n = {n} exceeds materialize limit {MATERIALIZE_LIMIT} (count would be {count})"
        )
    seen: set[Structure] = set()
    for perm in itertools.permutations(range(1, n + 1)):
        seen.add(apply_bijection(base, dict(zip(range(1, n + 1), perm))))
    members = tuple(sorted(seen, key=lambda s: sorted(sorted(t) for ts in s.rel_tuples for t in ts)))
    if len(members) != count:
        raise RuntimeError("distinct relabeling count disagrees with n!/|Aut|")
    if spec is not None:
        for member in members:
            if not spec.member(member):
                raise RuntimeError("constructed member fails property membership")
    residual = n - len(d_elems) - leftover
    block_ref = partitions_into_blocks(residual, k).count if residual >= k else 1
    return LowerBoundMembers(members=members, count=count, block_reference=block_ref)

"""Finite relational structures over a fixed domain [n] = {1, ..., n}.

Structures are immutable and hashable; relations are arbitrary sets of
ordered tuples (repeats allowed), constants are named elements.  All
operations are pure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping, Sequence

from .canon import canonical_data, classes
from .errors import (
    ArityMismatch,
    InterpretationIncomplete,
    LanguageMismatch,
    MissingConstant,
    NotInjective,
    OutOfRange,
)


@dataclass(frozen=True)
class Language:
    """Relation symbols with arities plus constant symbols."""

    relations: tuple[tuple[str, int], ...]
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names")
        if len(set(self.constants)) != len(self.constants):
            raise ValueError("duplicate constant names")
        for name, arity in self.relations:
            if arity < 1:
                raise ValueError(f"relation {name} must have arity >= 1")

    @property
    def arity(self) -> int:
        """Maximum declared relation arity (0 for constants-only languages)."""
        return max((a for _, a in self.relations), default=0)

    def rel_arity(self, name: str) -> int:
        for rname, arity in self.relations:
            if rname == name:
                return arity
        raise KeyError(name)


GRAPH = Language(relations=(("E", 2),))


def uniform_language(r: int) -> Language:
    """Language of a single r-ary relation."""
    return Language(relations=(("R", r),))


@dataclass(frozen=True)
class Structure:
    """A finite relational structure with domain [n].

    ``rel_tuples`` is aligned with ``language.relations`` and
    ``const_vals`` with ``language.constants``.  Use :func:`make_structure`
    to build one from dicts.  Validation runs at the boundary: the
    constructor, ``make_structure`` and the JSON loaders check every tuple
    and constant, while operations whose output is valid by construction
    check their own arguments and build through ``Structure._trusted``.
    """

    language: Language
    n: int
    rel_tuples: tuple[frozenset[tuple[int, ...]], ...]
    const_vals: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("domain size must be >= 0")
        if len(self.rel_tuples) != len(self.language.relations):
            raise ValueError("rel_tuples misaligned with language")
        if len(self.const_vals) != len(self.language.constants):
            raise ValueError("const_vals misaligned with language")
        for (name, arity), tuples in zip(self.language.relations, self.rel_tuples):
            for t in tuples:
                if len(t) != arity:
                    raise ValueError(f"tuple {t} has wrong length for {name}")
                if any(e < 1 or e > self.n for e in t):
                    raise ValueError(f"tuple {t} leaves the domain [{self.n}]")
        for cname, val in zip(self.language.constants, self.const_vals):
            if val < 1 or val > self.n:
                raise ValueError(f"constant {cname} assigned outside [{self.n}]")

    @classmethod
    def _trusted(cls, language, n, rel_tuples, const_vals) -> "Structure":
        """A Structure built without the ``__post_init__`` scan, for internal
        operations whose output is valid by construction."""
        struct = object.__new__(cls)
        # attribute by attribute, as the dataclass __init__ does: touching
        # __dict__ would give each instance its own dict, twice the memory
        setattr = object.__setattr__
        setattr(struct, "language", language)
        setattr(struct, "n", n)
        setattr(struct, "rel_tuples", rel_tuples)
        setattr(struct, "const_vals", const_vals)
        return struct

    def tuples_of(self, name: str) -> frozenset[tuple[int, ...]]:
        for (rname, _), tuples in zip(self.language.relations, self.rel_tuples):
            if rname == name:
                return tuples
        raise KeyError(name)

    @property
    def constant_elements(self) -> frozenset[int]:
        return frozenset(self.const_vals)

    def elements(self) -> range:
        return range(1, self.n + 1)


def make_structure(
    language: Language,
    n: int,
    tuples: Mapping[str, Iterable[Sequence[int]]] | None = None,
    constants: Mapping[str, int] | None = None,
) -> Structure:
    """Build a Structure from name-keyed dicts, validating against the language."""
    tuples = dict(tuples or {})
    constants = dict(constants or {})
    rel_names = {name for name, _ in language.relations}
    for name in tuples:
        if name not in rel_names:
            raise KeyError(f"unknown relation {name}")
    for name in constants:
        if name not in language.constants:
            raise KeyError(f"unknown constant {name}")
    rel_tuples = tuple(
        frozenset(tuple(t) for t in tuples.get(name, ()))
        for name, _ in language.relations
    )
    try:
        const_vals = tuple(constants[name] for name in language.constants)
    except KeyError as exc:
        raise MissingConstant(f"constant {exc.args[0]} unassigned") from None
    return Structure(language, n, rel_tuples, const_vals)


def graph(n: int, edges: Iterable[tuple[int, int]]) -> Structure:
    """Undirected simple graph as a symmetric irreflexive binary structure."""
    sym = set()
    for a, b in edges:
        if a == b:
            raise ValueError("loops not allowed in graph()")
        sym.add((a, b))
        sym.add((b, a))
    return make_structure(GRAPH, n, {"E": sym})


# ---------------------------------------------------------------------------
# core operations


def induced_substructure(struct: Structure, elements: Iterable[int]) -> tuple[Structure, dict[int, int]]:
    """M[X] relabeled to [|X|] by the order-preserving map.

    Returns the relabeled structure together with the old->new map.
    Raises MissingConstant when X misses some constant interpretation.
    """
    xs = sorted(set(elements))
    if any(e < 1 or e > struct.n for e in xs):
        raise OutOfRange(f"elements outside [{struct.n}]")
    missing = struct.constant_elements - set(xs)
    if missing:
        raise MissingConstant(f"X misses constant elements {sorted(missing)}")
    relabel = {old: new for new, old in enumerate(xs, start=1)}
    keep = set(xs)
    rel_tuples = tuple(
        frozenset(tuple(relabel[e] for e in t) for t in tuples if set(t) <= keep)
        for tuples in struct.rel_tuples
    )
    const_vals = tuple(relabel[v] for v in struct.const_vals)
    return Structure._trusted(struct.language, len(xs), rel_tuples, const_vals), relabel


def apply_bijection(struct: Structure, f: Mapping[int, int]) -> Structure:
    """Image structure f(M) for an injection f of [n] into the positive integers.

    The image's domain is [m] for the largest image value m; elements of
    [m] not hit by f are isolated.  Raises OutOfRange, naming the
    elements f misses, and NotInjective.
    """
    try:
        fmap = {e: f[e] for e in struct.elements()}
    except KeyError:
        missing = [e for e in struct.elements() if e not in f]
        raise OutOfRange(f"f misses elements {missing}") from None
    if len(set(fmap.values())) != struct.n:
        raise NotInjective("f is not injective on [n]")
    if any(v < 1 for v in fmap.values()):
        raise OutOfRange("image leaves the positive integers")
    rel_tuples = tuple(
        frozenset(tuple(fmap[e] for e in t) for t in tuples)
        for tuples in struct.rel_tuples
    )
    const_vals = tuple(fmap[v] for v in struct.const_vals)
    return Structure._trusted(struct.language, max(fmap.values(), default=0), rel_tuples, const_vals)


def is_isomorphic(a: Structure, b: Structure) -> tuple[bool, dict[int, int] | None]:
    """Isomorphism test with a witness bijection when one exists."""
    if a.language != b.language:
        raise LanguageMismatch("structures over different languages")
    if a.n != b.n or sorted(map(len, a.rel_tuples)) != sorted(map(len, b.rel_tuples)):
        return False, None
    ca = canonical_data(a)
    cb = canonical_data(b)
    if ca.form != cb.form:
        return False, None
    inv_b = {lab: e for e, lab in cb.relabel.items()}
    witness = {e: inv_b[ca.relabel[e]] for e in a.elements()}
    return True, witness


def canonical_form(struct: Structure) -> tuple[Structure, dict[int, int]]:
    """Deterministic canonical representative plus the canonical relabeling."""
    data = canonical_data(struct)
    return data.form, dict(data.relabel)


def automorphisms(struct: Structure) -> "AutomorphismGroup":
    """Generators and exact order of Aut(M)."""
    data = canonical_data(struct)
    return AutomorphismGroup(generators=data.aut_generators, order=data.aut_order, n=struct.n)


@dataclass(frozen=True)
class AutomorphismGroup:
    """Automorphisms as 1-based permutation tuples (index i-1 holds image of i)."""

    generators: tuple[tuple[int, ...], ...]
    order: int
    n: int

    def orbits(self) -> list[frozenset[int]]:
        """Orbits on [n], ordered by least element."""
        return classes(self.n, ((x, g[x - 1]) for g in self.generators for x in range(1, self.n + 1)))


# ---------------------------------------------------------------------------
# relational interpretations (Boolean combinations of target relations)


@dataclass(frozen=True)
class Atom:
    """target_relation(x_{vars[0]}, ..., x_{vars[s-1]}), 0-based variable indices."""

    rel: str
    vars: tuple[int, ...]


@dataclass(frozen=True)
class Not:
    arg: "Formula"


@dataclass(frozen=True)
class And:
    args: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Formula", ...]


Formula = Atom | Not | And | Or


def _eval_formula(formula: Formula, struct: Structure, assignment: tuple[int, ...]) -> bool:
    if isinstance(formula, Atom):
        t = tuple(assignment[i] for i in formula.vars)
        return t in struct.tuples_of(formula.rel)
    if isinstance(formula, Not):
        return not _eval_formula(formula.arg, struct, assignment)
    if isinstance(formula, And):
        return all(_eval_formula(f, struct, assignment) for f in formula.args)
    if isinstance(formula, Or):
        return any(_eval_formula(f, struct, assignment) for f in formula.args)
    raise TypeError(f"not a formula: {formula!r}")


@dataclass(frozen=True)
class Interpretation:
    """Map from relations of ``source`` to Boolean combinations over ``target``.

    Negation ranges over all of [n]^arity, including non-distinct tuples.
    """

    source: Language
    target: Language
    defs: tuple[tuple[str, Formula], ...]

    def formula_for(self, rel: str) -> Formula:
        for name, f in self.defs:
            if name == rel:
                return f
        raise InterpretationIncomplete(f"no definition for relation {rel}")

    def _check(self):
        defined = {name for name, _ in self.defs}
        for name, _ in self.source.relations:
            if name not in defined:
                raise InterpretationIncomplete(f"no definition for relation {name}")
        if self.source.constants:
            raise LanguageMismatch("interpretation source must be constant-free")
        for name, formula in self.defs:
            arity = self.source.rel_arity(name)
            _check_formula_arity(formula, arity, self.target)


def _check_formula_arity(formula: Formula, arity: int, target: Language):
    if isinstance(formula, Atom):
        if len(formula.vars) != target.rel_arity(formula.rel):
            raise ArityMismatch(f"atom {formula.rel} expects {target.rel_arity(formula.rel)} variables")
        if any(v < 0 or v >= arity for v in formula.vars):
            raise ArityMismatch(f"atom variables out of range for arity {arity}")
    elif isinstance(formula, Not):
        _check_formula_arity(formula.arg, arity, target)
    elif isinstance(formula, (And, Or)):
        for f in formula.args:
            _check_formula_arity(f, arity, target)
    else:
        raise TypeError(f"not a formula: {formula!r}")


def apply_interpretation(interp: Interpretation, struct: Structure) -> Structure:
    """Evaluate the interpretation tuple-wise on a target-language structure."""
    if struct.language.relations != interp.target.relations:
        raise LanguageMismatch("structure is not over the interpretation's target language")
    interp._check()
    rel_tuples = []
    for name, arity in interp.source.relations:
        formula = interp.formula_for(name)
        hits = frozenset(
            t
            for t in itertools.product(struct.elements(), repeat=arity)
            if _eval_formula(formula, struct, t)
        )
        rel_tuples.append(hits)
    return Structure._trusted(interp.source, struct.n, tuple(rel_tuples), ())


# ---------------------------------------------------------------------------
# exact integer roots


def _integer_kth_root(x: int, k: int) -> int:
    """The integer k-th root of x >= 0: the r with r^k <= x < (r + 1)^k.

    Newton's iteration starts above the root and falls strictly while it is
    above the floor; by AM-GM no iterate falls below the floor, so the first
    that does not fall is the floor."""
    if x < 0:
        raise ValueError("negative radicand")
    if x < 2 or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


# ---------------------------------------------------------------------------
# JSON interface


def language_to_json(lang: Language) -> dict:
    return {
        "relations": [{"name": n, "arity": a} for n, a in lang.relations],
        "constants": list(lang.constants),
    }


def json_int(value, what: str) -> int:
    """A number read from a JSON file: an int, never a bool or a float."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def language_from_json(obj: dict) -> Language:
    return Language(
        relations=tuple((r["name"], json_int(r["arity"], "arity")) for r in obj.get("relations", ())),
        constants=tuple(obj.get("constants", ())),
    )


def structure_to_json(struct: Structure) -> dict:
    return {
        "language": language_to_json(struct.language),
        "n": struct.n,
        "tuples": {
            name: sorted(list(t) for t in tuples)
            for (name, _), tuples in zip(struct.language.relations, struct.rel_tuples)
        },
        "constants": {
            name: val for name, val in zip(struct.language.constants, struct.const_vals)
        },
    }


def structure_from_json(obj: dict) -> Structure:
    lang = language_from_json(obj["language"])
    return make_structure(
        lang,
        json_int(obj["n"], "n"),
        {name: [tuple(json_int(x, "a tuple entry") for x in t) for t in ts]
         for name, ts in obj.get("tuples", {}).items()},
        {name: json_int(v, "a constant") for name, v in obj.get("constants", {}).items()},
    )


class _JSONObject(dict):
    """A JSON object read by ``load_json``: asking it for a key it lacks
    raises KeyError saying that the key is missing."""

    def __missing__(self, key):
        raise KeyError(f"missing key {key!r}")


def load_json(path: str, decode):
    """``decode`` applied to the JSON in ``path``; a file of a shape it cannot
    read, or lacking a key it reads, raises ValueError naming the path."""
    with open(path) as fh:
        try:
            return decode(json.load(fh, object_hook=_JSONObject))
        except KeyError as exc:
            raise ValueError(f"{path}: {exc.args[0]}") from None
        except (TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_structure(path: str) -> Structure:
    return load_json(path, structure_from_json)


def dump_structure(struct: Structure, path: str):
    with open(path, "w") as fh:
        fh.write(json_text(structure_to_json(struct)) + "\n")


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)``, byte for byte.

    The stdlib encoder runs in pure Python whenever ``indent`` is set; this
    one joins each container's items with ``str.join``, encodes strings
    with the C ``encode_basestring_ascii`` and exact ints with
    ``int.__repr__``, and hands every other leaf (bool, None, float) and
    every dict with a key that is not a string to ``json.dumps`` itself.
    An int too long for ``int.__repr__`` raises the ``ValueError`` that
    ``json`` raises."""
    return _json_text(value, "\n")


def _json_text(value, newline: str) -> str:
    # newline: a line break followed by the indentation of value's own line
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + " "
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        inner = newline + " "
        items = [encode_basestring_ascii(key) + ": " + _json_text(item, inner)
                 for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # no JSON text holds a raw line break, so re-indenting every one is exact
    return json.dumps(value, sort_keys=True, indent=1).replace("\n", newline)


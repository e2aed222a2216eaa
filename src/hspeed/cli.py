"""Unified command-line front end: the ``hspeed`` command.

Every subcommand, and each action of ``template``, ``arrays`` and
``osc``, accepts only the options it reads, so the argparse grammar
enforces the whole CLI.  ``--format`` and ``--out`` are the only options
every command takes; ``csv`` is a format only of ``speed`` (its default)
and ``arrays probe``.  ``--seed`` exists only where randomness is drawn
(``arrays probe``, ``osc sample``, ``osc sequence``, ``corpus``) and
``--budget`` only where a budget is read (``speed``, ``probe``,
``census``, ``arrays probe``, ``template enumerate``).

Exit codes: 0 success, 2 contract/usage errors, grammar errors included
(machine-readable JSON on stderr), 1 internal failure.  Counts are
serialized as decimal strings and rationals as "p/q" so nothing is lost
crossing tool boundaries.  Identical argv and seed produce
byte-identical primary output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

from . import arrays as arrays_mod
from . import components as components_mod
from . import corpus as corpus_mod
from . import oscillate as osc_mod
from . import property as property_mod
from . import simclass as simclass_mod
from . import template as template_mod
from .errors import ContractError, UsageError
from .structures import load_structure, structure_to_json


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"{text} has a zero denominator") from None


def _at_least(low: int):
    """The type of an integer option whose values below ``low`` are grammar errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return value

    return parse


_positive = _at_least(1)  # the sizes n and bounds k of the property commands


def _frac_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _emit(payload, args, csv_text: str | None = None) -> None:
    if "seed" not in payload:
        payload = dict(payload, seed=getattr(args, "seed", 0))
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            fh.write(csv_text)
        elif args.format == "pretty":
            fh.write(_pretty(payload) + "\n")
        else:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _pretty(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        return "\n".join(f"{pad}{k}: " + _pretty(v, indent + 1).lstrip() if not isinstance(v, (dict, list))
                         else f"{pad}{k}:\n" + _pretty(v, indent + 1)
                         for k, v in payload.items())
    if isinstance(payload, list):
        return "\n".join(f"{pad}- " + _pretty(v, indent + 1).lstrip() for v in payload)
    return f"{pad}{payload}"


def _load_property(args) -> property_mod.PropertySpec:
    if args.property is not None:
        return property_mod.BUILTIN_PROPERTIES[args.property]()
    return property_mod.forbid([load_structure(p) for p in args.forbid.split(",")])


# ---------------------------------------------------------------------------
# handlers, one per (subcommand, action); each emits its payload


def _cmd_decompose(args):
    struct = load_structure(args.structure)
    decomp = simclass_mod.decomposition(struct)
    _emit(simclass_mod.decomposition_to_json(decomp), args)


def _cmd_speed(args):
    if args.diagnostics and args.format == "csv":
        raise UsageError("speed --diagnostics adds a growth tag, which the CSV table has no column for; "
                         "use --format json or --format pretty")
    spec = _load_property(args)
    table = property_mod.speed(spec, args.nmax, budget=args.budget)
    payload = {
        "rows": [
            {"n": r.n, "labeled": str(r.labeled), "unlabeled": str(r.unlabeled)}
            for r in table.rows
        ]
    }
    if args.diagnostics:
        report = property_mod.growth_diagnostics(table)
        payload["tag"] = report.tag
    _emit(payload, args, csv_text=table.as_csv())


def _cmd_probe(args):
    spec = _load_property(args)
    if args.which == "basic":
        verdict = property_mod.is_basic_upto(spec, args.k, args.nmax, budget=args.budget)
    else:
        verdict = property_mod.is_totally_bounded_upto(spec, args.k, args.nmax, budget=args.budget)
    if isinstance(verdict, property_mod.Refuted):
        payload = {
            "verdict": "refuted",
            "witness": structure_to_json(verdict.witness),
            "detail": {k: _detail_value(k, v) for k, v in verdict.detail.items()},
        }
    else:
        payload = {"verdict": "consistent", "checked_upto": verdict.checked_upto}
    _emit(payload, args)


def _detail_value(key: str, value):
    """A refuted probe's split as 1-based positions, as ``--split`` reads
    them, its assignment as a list, and every other detail as a string."""
    if key == "split":
        return [p + 1 for p in value]
    if key == "assignment":
        return list(value)
    return str(value)


def _cmd_template_count(args):
    template = template_mod.load_template(args.template)
    _emit({"n": args.n, "count": str(template_mod.count_compatible(template, args.n))}, args)


def _cmd_template_enumerate(args):
    template = template_mod.load_template(args.template)
    members = template_mod.enumerate_compatible(template, args.n, budget=args.budget)
    _emit({"n": args.n, "count": str(len(members)),
           "members": [structure_to_json(m) for m in members]}, args)


def _cmd_template_fit(args):
    template = template_mod.load_template(args.template)
    lo, hi = (int(x) for x in args.window.split(".."))
    form = template_mod.speed_form(template, (lo, hi))
    _emit({"n0": form.n0, "polys": [[_frac_str(c) for c in poly] for poly in form.polys]}, args)


def _cmd_template_union(args):
    templates = [template_mod.load_template(p) for p in args.template.split(",")]
    _emit({"n": args.n, "count": str(template_mod.union_speed(templates, args.n))}, args)


def _cmd_components(args):
    struct = load_structure(args.structure)
    report = components_mod.components_of(struct)
    payload = {
        "components": [sorted(c) for c in report.components],
        "size_histogram": {str(k): v for k, v in sorted(report.size_histogram.items())},
    }
    _emit(payload, args)


def _cmd_census(args):
    spec = _load_property(args)
    census = components_mod.component_census(spec, args.nmax, budget=args.budget)
    payload = {
        "n_max": census.n_max,
        "max_multiplicity": {str(k): v for k, v in sorted(census.max_multiplicity.items())},
        "larger_exists": {str(k): v for k, v in sorted(census.larger_exists.items())},
    }
    _emit(payload, args)


def _cmd_blocks(args):
    result = components_mod.partitions_into_blocks(args.n, args.k)
    payload = {
        "n": args.n,
        "k": args.k,
        "count": str(result.count),
        "m": result.m,
        "ell": result.ell,
        "reference_lower_bound": str(result.reference_lower_bound),
    }
    _emit(payload, args)


def _parse_positions(text: str) -> list[int]:
    return [int(x) - 1 for x in text.split(",")]


def _parse_elements(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _cmd_arrays_probe(args):
    spec = _load_property(args)
    table = arrays_mod.bounded_array_probe(
        spec, args.rel, _parse_positions(args.split), args.m, args.nmax,
        a_max=args.amax, seed=args.seed, budget=args.budget,
    )
    csv_text = "n,maxN,witness_id\n" + "\n".join(
        f"{r.n},{r.max_count},{r.witness_id()}" for r in table.rows
    ) + "\n"
    payload = {"seed": table.seed, "rows": [
        {"n": r.n, "maxN": r.max_count, "witness_id": r.witness_id(),
         "parameters": list(r.witness_parameters)}
        for r in table.rows
    ]}
    _emit(payload, args, csv_text=csv_text)


def _cmd_arrays_types(args):
    struct = load_structure(args.structure)
    types = arrays_mod.type_space(struct, args.rel, _parse_positions(args.split), _parse_elements(args.A))
    payload = {
        "count": len(types),
        "types": [
            {
                "realizations": sorted(sorted(t) for t in tp.realizations),
                "positive_decisions": sum(tp.r_decisions),
            }
            for tp in types
        ],
    }
    _emit(payload, args)


def _cmd_arrays_count(args):
    struct = load_structure(args.structure)
    count = arrays_mod.n_array_count(
        struct, args.rel, _parse_positions(args.split), args.m, _parse_elements(args.A)
    )
    _emit({"m": args.m, "count": count}, args)


def _cmd_osc_balanced(args):
    g = osc_mod.find_strictly_balanced(args.r, _frac(args.c))
    payload = {
        "hypergraph": osc_mod.hypergraph_to_json(g),
        "density": _frac_str(osc_mod.density(g)),
        "strictly_balanced": True,
    }
    _emit(payload, args)


def _cmd_osc_member(args):
    if args.mode != "p" and args.nu:
        raise UsageError("osc member reads --nu only with --mode p")
    g = osc_mod.load_hypergraph(args.hypergraph)
    c = _frac(args.c)
    if args.mode == "q":
        value = osc_mod.in_Q(g, c)
    elif args.mode == "s":
        value = osc_mod.in_S(g, c)
    else:
        value = osc_mod.in_P(g, _parse_elements(args.nu), c)
    _emit({"mode": args.mode, "c": _frac_str(c), "member": value}, args)


def _cmd_osc_blowup(args):
    h = osc_mod.load_hypergraph(args.hypergraph)
    result = osc_mod.blowup_members(h, args.n, count_only=not args.materialize)
    payload = {
        "n": args.n,
        "count": str(result.count),
        "guaranteed_lower_bound": str(result.guaranteed_lower_bound),
    }
    if result.members is not None:
        payload["members"] = [osc_mod.hypergraph_to_json(m) for m in result.members]
    _emit(payload, args)


def _cmd_osc_sample(args):
    cert = osc_mod.sample_dense_member(
        args.r, args.k, _frac(args.c), args.n, _frac(args.delta), seed=args.seed
    )
    payload = {
        "graph": osc_mod.hypergraph_to_json(cert.graph),
        "edges": cert.edge_count,
        "attempts": cert.attempts,
        "seed": cert.seed,
        "verification": cert.verification,
        "log2_members_lower_bound": str(cert.edge_count),
    }
    _emit(payload, args)


def _cmd_osc_sequence(args):
    seq = osc_mod.build_sequence(
        args.r, _frac(args.c), _frac(args.eps), steps=args.steps, seed=args.seed
    )
    payload = {
        "r": seq.r,
        "c": _frac_str(seq.c),
        "eps": _frac_str(seq.eps),
        "nu": list(seq.nu),
        "mu": list(seq.mu),
        "certificates": list(seq.certificates),
        "note": "mu values are certified upper bounds on the minimal indices",
    }
    _emit(payload, args)


def _cmd_corpus(args):
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        params[key] = value
    obj = corpus_mod.corpus_generate(args.kind, params, seed=args.seed)
    if isinstance(obj, osc_mod.Hypergraph):
        payload = osc_mod.hypergraph_to_json(obj)
    elif isinstance(obj, template_mod.Template):
        payload = template_mod.template_to_json(obj)
    else:
        payload = structure_to_json(obj)
    _emit(payload, args)


# ---------------------------------------------------------------------------
# grammar


class _Parser(argparse.ArgumentParser):
    """A grammar error raises UsageError, so it leaves main as JSON on stderr with exit 2.
    Every option has one spelling: no parser, subparsers included, takes a prefix of it."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _command(sub, name, handler, help=None, *, csv=False, seed=False, budget=False):
    """A leaf parser: the output options, plus --seed/--budget only where the handler reads them."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    p.add_argument("--format", choices=["json", "csv", "pretty"] if csv else ["json", "pretty"],
                   default="json")
    p.add_argument("--out", default=None)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if budget:
        p.add_argument("--budget", type=int, default=None)
    return p


def _actions(sub, name, help):
    return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)


def _property_options(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forbid", help="comma-separated forbidden structure files")
    group.add_argument("--property", choices=sorted(property_mod.BUILTIN_PROPERTIES),
                       help="built-in property name")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The whole grammar, built once per process; callers share it and must not change it."""
    parser = _Parser(prog="hspeed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "decompose", _cmd_decompose, "swap-equivalence decomposition of a structure")
    p.add_argument("structure")

    p = _command(sub, "speed", _cmd_speed, "exact labeled/unlabeled counts of a property",
                 csv=True, budget=True)
    _property_options(p)
    p.add_argument("--nmax", type=_positive, required=True)
    p.add_argument("--diagnostics", action="store_true", help="add the growth tag (json/pretty only)")
    p.set_defaults(format="csv")

    p = _command(sub, "probe", _cmd_probe, "finite-scale basic/totally-bounded verdicts", budget=True)
    p.add_argument("which", choices=["basic", "tb"])
    _property_options(p)
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("--nmax", type=_positive, required=True)

    actions = _actions(sub, "template", "template counting and closed forms")
    count = _command(actions, "count", _cmd_template_count)
    enumerate_ = _command(actions, "enumerate", _cmd_template_enumerate, budget=True)
    enumerate_.set_defaults(budget=template_mod.ENUMERATION_BUDGET)
    fit = _command(actions, "fit", _cmd_template_fit)
    union = _command(actions, "union", _cmd_template_union)
    for p in (count, enumerate_, fit):
        p.add_argument("--template", required=True, help="template file")
    union.add_argument("--template", required=True, help="template files, comma-separated")
    for p in (count, enumerate_, union):
        p.add_argument("--n", type=int, required=True)
    fit.add_argument("--window", required=True, help="a..b")

    p = _command(sub, "components", _cmd_components, "connected components of a structure")
    p.add_argument("structure")

    p = _command(sub, "census", _cmd_census, "component-size census over a property", budget=True)
    _property_options(p)
    p.add_argument("--nmax", type=_positive, required=True)

    p = _command(sub, "blocks", _cmd_blocks, "partitions into size-k blocks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    actions = _actions(sub, "arrays", "type spaces and array diagnostics")
    types = _command(actions, "types", _cmd_arrays_types)
    count = _command(actions, "count", _cmd_arrays_count)
    probe = _command(actions, "probe", _cmd_arrays_probe, csv=True, seed=True, budget=True)
    for p in (types, count):
        p.add_argument("--structure", required=True)
        p.add_argument("--A", default="", help="parameter elements, comma-separated")
    for p in (types, count, probe):
        p.add_argument("--rel", default="E")
        p.add_argument("--split", default="1", help="1-based x positions, comma-separated")
    for p in (count, probe):
        p.add_argument("--m", type=int, default=1)
    _property_options(probe)
    probe.add_argument("--nmax", type=_positive, default=6)
    # parameter sets of size <= 3 are always exhausted, so a smaller bound cannot hold
    probe.add_argument("--amax", type=_at_least(3), default=6)

    actions = _actions(sub, "osc", "hypergraph density families and constructions")
    balanced = _command(actions, "balanced", _cmd_osc_balanced)
    member = _command(actions, "member", _cmd_osc_member)
    blowup = _command(actions, "blowup", _cmd_osc_blowup)
    sample = _command(actions, "sample", _cmd_osc_sample, seed=True)
    sequence = _command(actions, "sequence", _cmd_osc_sequence, seed=True)
    for p in (balanced, sample, sequence):
        p.add_argument("--r", type=int, default=2)
    for p in (balanced, member, sample, sequence):
        p.add_argument("--c", default="1")
    for p in (member, blowup):
        p.add_argument("--hypergraph", required=True)
    for p in (blowup, sample):
        p.add_argument("--n", type=int, required=True)
    member.add_argument("--mode", choices=["q", "s", "p"], default="q")
    member.add_argument("--nu", default="", help="sizes, comma-separated (--mode p)")
    blowup.add_argument("--materialize", action="store_true")
    sample.add_argument("--k", type=int, default=3)
    sample.add_argument("--delta", default="2")
    sequence.add_argument("--eps", default="2")
    sequence.add_argument("--steps", type=_at_least(0), default=1)

    p = _command(sub, "corpus", _cmd_corpus, "generate built-in family files", seed=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--param", action="append", help="key=value", default=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.handler(args)
    except SystemExit:  # --help, the grammar's only exit
        return 0
    except ContractError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return 2
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}, sort_keys=True) + "\n")
        return 2
    except Exception as exc:  # internal failure
        sys.stderr.write(json.dumps({"error": "internal", "message": str(exc)}, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

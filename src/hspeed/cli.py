"""Unified command-line front end.

Exit codes: 0 success, 2 contract/usage errors (machine-readable JSON on
stderr), 1 internal failure.  Counts are serialized as decimal strings
and rationals as "p/q" so nothing is lost crossing tool boundaries.
Identical argv and seed produce byte-identical primary output.
"""

from __future__ import annotations

import argparse
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
    return Fraction(text)


def _frac_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _emit(payload, args, csv_text: str | None = None) -> None:
    fmt = getattr(args, "format", "json")
    if isinstance(payload, dict) and "seed" not in payload:
        payload = dict(payload, seed=getattr(args, "seed", 0))
    if fmt == "csv":
        if csv_text is None:
            raise UsageError("this subcommand has no CSV form")
        text = csv_text
    elif fmt == "pretty":
        text = _pretty(payload) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pretty(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        return "\n".join(f"{pad}{k}: " + _pretty(v, indent + 1).lstrip() if not isinstance(v, (dict, list))
                         else f"{pad}{k}:\n" + _pretty(v, indent + 1)
                         for k, v in payload.items())
    if isinstance(payload, list):
        return "\n".join(f"{pad}- " + _pretty(v, indent + 1).lstrip() for v in payload)
    return f"{pad}{payload}"


def _require(args, *names) -> None:
    """Usage error when a per-action argument was not given."""
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"{args.command} {args.action} needs --{name}")


def _load_property(args) -> property_mod.PropertySpec:
    if getattr(args, "property", None):
        name = args.property
        if name not in property_mod.BUILTIN_PROPERTIES:
            raise UsageError(
                f"unknown property {name!r}; built-ins: {sorted(property_mod.BUILTIN_PROPERTIES)}"
            )
        return property_mod.BUILTIN_PROPERTIES[name]()
    if getattr(args, "forbid", None):
        structures = [load_structure(p) for p in args.forbid.split(",")]
        return property_mod.forbid(structures)
    raise UsageError("supply --property <name> or --forbid <file,...>")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_decompose(args):
    struct = load_structure(args.structure)
    decomp = simclass_mod.decomposition(struct)
    _emit(simclass_mod.decomposition_to_json(decomp), args)
    return 0


def _cmd_speed(args):
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
    return 0


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
            "detail": {k: str(v) for k, v in verdict.detail.items()},
        }
    else:
        payload = {"verdict": "consistent", "checked_upto": verdict.checked_upto}
    _emit(payload, args)
    return 0


def _cmd_template(args):
    _require(args, "window" if args.action == "fit" else "n")
    paths = args.template.split(",")
    templates = [template_mod.load_template(p) for p in paths]
    if args.action == "count":
        payload = {"n": args.n, "count": str(template_mod.count_compatible(templates[0], args.n))}
    elif args.action == "enumerate":
        members = template_mod.enumerate_compatible(templates[0], args.n, budget=args.budget)
        payload = {"n": args.n, "count": str(len(members)),
                   "members": [structure_to_json(m) for m in members]}
    elif args.action == "fit":
        lo, hi = (int(x) for x in args.window.split(".."))
        form = template_mod.speed_form(templates[0], (lo, hi))
        payload = {
            "n0": form.n0,
            "polys": [[_frac_str(c) for c in poly] for poly in form.polys],
        }
    elif args.action == "union":
        payload = {"n": args.n, "count": str(template_mod.union_speed(templates, args.n))}
    else:
        raise UsageError(f"unknown template action {args.action!r}")
    _emit(payload, args)
    return 0


def _cmd_components(args):
    struct = load_structure(args.structure)
    report = components_mod.components_of(struct)
    payload = {
        "components": [sorted(c) for c in report.components],
        "size_histogram": {str(k): v for k, v in sorted(report.size_histogram.items())},
    }
    _emit(payload, args)
    return 0


def _cmd_census(args):
    spec = _load_property(args)
    census = components_mod.component_census(spec, args.nmax, budget=args.budget)
    payload = {
        "n_max": census.n_max,
        "max_multiplicity": {str(k): v for k, v in sorted(census.max_multiplicity.items())},
        "larger_exists": {str(k): v for k, v in sorted(census.larger_exists.items())},
    }
    _emit(payload, args)
    return 0


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
    return 0


def _parse_positions(text: str) -> list[int]:
    return [int(x) - 1 for x in text.split(",")]


def _parse_elements(text: str) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _cmd_arrays(args):
    if args.action == "probe":
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
        return 0
    _require(args, "structure")
    struct = load_structure(args.structure)
    positions = _parse_positions(args.split)
    params = _parse_elements(args.A)
    if args.action == "types":
        types = arrays_mod.type_space(struct, args.rel, positions, params)
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
    elif args.action == "count":
        payload = {
            "m": args.m,
            "count": arrays_mod.n_array_count(struct, args.rel, positions, args.m, params),
        }
    else:
        raise UsageError(f"unknown arrays action {args.action!r}")
    _emit(payload, args)
    return 0


def _cmd_osc(args):
    if args.action == "balanced":
        g = osc_mod.find_strictly_balanced(args.r, _frac(args.c))
        payload = {
            "hypergraph": osc_mod.hypergraph_to_json(g),
            "density": _frac_str(osc_mod.density(g)),
            "strictly_balanced": True,
        }
    elif args.action == "member":
        _require(args, "hypergraph")
        g = osc_mod.load_hypergraph(args.hypergraph)
        c = _frac(args.c)
        if args.mode == "q":
            value = osc_mod.in_Q(g, c)
        elif args.mode == "s":
            value = osc_mod.in_S(g, c)
        else:
            nu = _parse_elements(args.nu)
            value = osc_mod.in_P(g, nu, c)
        payload = {"mode": args.mode, "c": _frac_str(c), "member": value}
    elif args.action == "blowup":
        _require(args, "hypergraph", "n")
        h = osc_mod.load_hypergraph(args.hypergraph)
        result = osc_mod.blowup_members(h, args.n, count_only=not args.materialize)
        payload = {
            "n": args.n,
            "count": str(result.count),
            "guaranteed_lower_bound": str(result.guaranteed_lower_bound),
        }
        if result.members is not None:
            payload["members"] = [osc_mod.hypergraph_to_json(m) for m in result.members]
    elif args.action == "sample":
        _require(args, "n")
        cert = osc_mod.sample_dense_member(
            args.r, args.k, _frac(args.c), args.n, _frac(args.delta), seed=args.seed
        )
        payload = {
            "graph": osc_mod.hypergraph_to_json(cert.graph),
            "edges": cert.edge_count,
            "attempts": cert.attempts,
            "seed": cert.seed,
            "verification": cert.verification,
            "log2_members_lower_bound": str(cert.sub_member_log2),
        }
    elif args.action == "sequence":
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
    else:
        raise UsageError(f"unknown osc action {args.action!r}")
    _emit(payload, args)
    return 0


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
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hspeed", description=__doc__)
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("decompose", help="swap-equivalence decomposition of a structure")
    p.add_argument("structure")
    common(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("speed", help="exact labeled/unlabeled counts of a property")
    p.add_argument("--forbid", default=None, help="comma-separated forbidden structure files")
    p.add_argument("--property", "--spec", dest="property", default=None, help="built-in property name")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--diagnostics", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_speed, format="csv")

    p = sub.add_parser("probe", help="finite-scale basic/totally-bounded verdicts")
    p.add_argument("which", choices=["basic", "tb"])
    p.add_argument("--forbid", default=None)
    p.add_argument("--property", "--spec", dest="property", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("template", help="template counting and closed forms")
    p.add_argument("action", choices=["count", "enumerate", "fit", "union"])
    p.add_argument("--template", required=True, help="template file(s), comma-separated")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--window", default=None, help="a..b")
    common(p)
    p.set_defaults(handler=_cmd_template, budget=template_mod.ENUMERATION_BUDGET)

    p = sub.add_parser("components", help="connected components of a structure")
    p.add_argument("structure")
    common(p)
    p.set_defaults(handler=_cmd_components)

    p = sub.add_parser("census", help="component-size census over a property")
    p.add_argument("--forbid", default=None)
    p.add_argument("--property", "--spec", dest="property", default=None)
    p.add_argument("--nmax", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("blocks", help="partitions into size-k blocks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)
    p.set_defaults(handler=_cmd_blocks)

    p = sub.add_parser("arrays", help="type spaces and array diagnostics")
    p.add_argument("action", choices=["types", "count", "probe"])
    p.add_argument("--structure", default=None)
    p.add_argument("--rel", default="E")
    p.add_argument("--split", default="1", help="1-based x positions, comma-separated")
    p.add_argument("--A", default="", help="parameter elements, comma-separated")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--forbid", default=None)
    p.add_argument("--property", "--spec", dest="property", default=None)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--amax", type=int, default=6)
    common(p)
    p.set_defaults(handler=_cmd_arrays)

    p = sub.add_parser("osc", help="hypergraph density families and constructions")
    p.add_argument("action", choices=["balanced", "member", "blowup", "sample", "sequence"])
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--c", default="1")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nu", default="", help="sizes, comma-separated")
    p.add_argument("--mode", choices=["q", "s", "p"], default="q")
    p.add_argument("--hypergraph", "--h", dest="hypergraph", default=None)
    p.add_argument("--delta", default="2")
    p.add_argument("--eps", default="2")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--materialize", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_osc)

    p = sub.add_parser("corpus", help="generate built-in family files")
    p.add_argument("--kind", required=True)
    p.add_argument("--param", action="append", help="key=value", default=None)
    common(p)
    p.set_defaults(handler=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ContractError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return 2
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": "usage", "message": str(exc)}, sort_keys=True) + "\n")
        return 2
    except Exception as exc:  # internal failure
        sys.stderr.write(json.dumps({"error": "internal", "message": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""CLI fuzz: argv drawn from every leaf of the grammar over small files.

Every argv must exit 0 or 2, an exit 2 must leave JSON on stderr, and a
second run of the same argv must print the same bytes.
"""

import argparse
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hspeed.cli import build_parser, main
from hspeed.corpus import BUILTIN_TEMPLATES, matching, symmetric_bipartite_template
from hspeed.structures import GRAPH, dump_structure, graph, make_structure, structure_to_json, uniform_language
from hspeed.template import template_to_json

# integer options, always given and bounded, so no example runs at a costly default size
# (each osc sequence step is bounded by one work cap, so r = 3 with 2 steps is drawn too)
INTS = {
    "nmax": st.integers(-1, 5),
    "n": st.integers(-2, 12),
    "k": st.integers(-1, 4),
    "r": st.integers(-1, 3),
    "m": st.integers(-1, 3),
    "amax": st.integers(-1, 4),
    "steps": st.integers(-1, 2),
    "seed": st.integers(-1, 3),
    "budget": st.integers(-1, 6),
}
RATIONALS = st.sampled_from(["0", "1", "2", "3/2", "2/3", "1/3", "8/5", "-1", "1/0", "0/0", "x", "1.5"])
LISTS = st.sampled_from(["", "1", "2", "1,2", "0", "3,1", "a", "1,,2"])
TEXTS = {
    "rel": st.sampled_from(["E", "R", "Q"]),
    "window": st.sampled_from(["2..6", "0..3", "5..4", "3", "a..b", "1..1"]),
    "kind": st.sampled_from(sorted(BUILTIN_TEMPLATES) + [
        "matching", "clique", "path", "cycle", "complete-bipartite", "triangles",
        "halfgraph-blowup", "tight-cycle", "random-hypergraph", "no-such-kind"]),
    "param": st.sampled_from(["n=4", "m=2", "a=2", "b=3", "r=3", "v=6", "p=0.5", "n=-1", "n=x", "v",
                              "v=-2", "p=nan", "p=1.5", "q=1", "a=-1", "m=-1", "n=2"]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {name: d / f"{name}.json" for name in
             ("graph", "hyperedge", "loop", "template", "h3", "triangle", "float", "truncated", "list",
              "missing", "float_tuple", "float_rv", "float_size")}
    dump_structure(matching(2), str(paths["graph"]))
    dump_structure(make_structure(uniform_language(3), 3, {"R": itertools.permutations((1, 2, 3))}),
                   str(paths["hyperedge"]))
    dump_structure(make_structure(GRAPH, 2, {"E": [(1, 1), (1, 2), (2, 1)]}), str(paths["loop"]))
    paths["template"].write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
    paths["h3"].write_text(json.dumps({"r": 3, "v": 4, "edges": [[1, 2, 3], [2, 3, 4]]}))
    paths["triangle"].write_text(json.dumps({"r": 2, "v": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    paths["float"].write_text(json.dumps({"r": 3, "v": 5, "edges": [[1.5, 2, 3], [1, 2, 4]]}))
    paths["float_tuple"].write_text(json.dumps({**structure_to_json(graph(2, [])),
                                                "tuples": {"E": [[1.5, 2], [2, 1.5]]}}))
    paths["float_rv"].write_text(json.dumps({"r": 2.5, "v": 4.9, "edges": [[1, 2]]}))
    paths["float_size"].write_text(json.dumps({**template_to_json(symmetric_bipartite_template()),
                                               "sizes": [2.5, "inf"], "k": 2, "K": 2}))
    paths["truncated"].write_text('{"r": 2')
    paths["list"].write_text("[1]")  # missing.json is never written
    return sorted(str(p) for p in paths.values())


def _leaves(parser, prefix=()):
    """(argv prefix, leaf parser) for every command and action."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, prefix + (name,))
            return
    yield prefix, parser


LEAVES = sorted(_leaves(build_parser()))


def _value(action, files):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.dest in INTS:
        return INTS[action.dest].map(str)
    if action.dest in ("c", "delta", "eps"):
        return RATIONALS
    if action.dest in ("split", "A", "nu"):
        return LISTS
    if action.dest in TEXTS:
        return TEXTS[action.dest]
    if action.dest in ("forbid", "template"):
        return st.lists(st.sampled_from(files), min_size=1, max_size=2).map(",".join)
    return st.sampled_from(files)  # structure, hypergraph


@st.composite
def argvs(draw, files, out):
    prefix, leaf = draw(st.sampled_from(LEAVES))
    argv = list(prefix)
    for action in leaf._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            argv.append(draw(_value(action, files)))
        elif action.required or action.dest in INTS or draw(st.booleans()):
            flag = draw(st.sampled_from(action.option_strings))
            if action.nargs == 0:
                argv.append(flag)
            elif action.dest == "out":
                argv += [flag, out]
            else:
                argv += [flag, draw(_value(action, files))]
    return argv


def _run(argv, capsys, out):
    code = main(argv)
    captured = capsys.readouterr()
    written = open(out, "rb").read() if "--out" in argv and code == 0 else b""
    return code, captured.out, captured.err, written


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_exits_0_or_2_and_repeats(data, files, capsys, tmp_path_factory):
    out = str(tmp_path_factory.getbasetemp() / "fuzz-out.txt")
    argv = data.draw(argvs(files, out), label="argv")
    first = _run(argv, capsys, out)
    code, stdout, stderr, _ = first
    assert code in (0, 2), (argv, stderr)
    if code == 2:
        assert stdout == ""
        json.loads(stderr)
    assert _run(argv, capsys, out) == first

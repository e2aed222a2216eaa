import itertools
import json
import shlex
import sys
import time
from pathlib import Path

import pytest

from hspeed.cli import build_parser, main
from hspeed.corpus import clique, path
from hspeed.structures import GRAPH, dump_structure, graph, make_structure, structure_to_json, uniform_language

P3, K3 = path(3), clique(3)


@pytest.fixture
def forbidden_files(tmp_path):
    p3 = tmp_path / "p3.json"
    k3 = tmp_path / "k3.json"
    dump_structure(P3, str(p3))
    dump_structure(K3, str(k3))
    return f"{p3},{k3}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatch:
    def test_speed_csv(self, capsys, forbidden_files):
        code, out, _ = run(capsys, "speed", "--forbid", forbidden_files, "--nmax", "8", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,labeled,unlabeled"
        assert out.splitlines()[8].startswith("8,764,")

    def test_template_count(self, capsys, tmp_path):
        from hspeed.corpus import symmetric_bipartite_template
        from hspeed.template import template_to_json

        path = tmp_path / "bip.json"
        path.write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
        code, out, _ = run(capsys, "template", "count", "--template", str(path), "--n", "8")
        assert code == 0
        assert json.loads(out)["count"] == "91"

    def test_template_count_large_n(self, capsys, tmp_path, monkeypatch):
        from hspeed.corpus import symmetric_bipartite_template
        from hspeed.template import template_to_json

        def refuse(*args):
            raise AssertionError("composition sum on the counting path")

        monkeypatch.setattr("hspeed.template._compositions", refuse)
        path = tmp_path / "bip.json"
        path.write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
        code, out, _ = run(capsys, "template", "count", "--template", str(path), "--n", "4500")
        assert code == 0
        n = 4500
        assert json.loads(out)["count"] == str(2 ** (n - 1) - 1 - n - n * (n - 1) // 2)

    def test_template_fit_errors(self, capsys, tmp_path):
        from hspeed.corpus import symmetric_bipartite_template
        from hspeed.template import template_to_json

        path = tmp_path / "bip.json"
        path.write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
        code, out, err = run(capsys, "template", "fit", "--template", str(path), "--window", "4..16")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "fit-failed"
        for argv in (["fit", "--window", "6..x"], ["count", "--n", "-1"]):
            code, out, err = run(capsys, "template", argv[0], "--template", str(path), *argv[1:])
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == "usage"
        code, out, _ = run(capsys, "template", "fit", "--template", str(path), "--window", "6..6")
        assert code == 0
        assert json.loads(out)["polys"] == [["-1", "-1/2", "-1/2"], ["1/2"]]

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_contract_error_json(self, capsys):
        code, _, err = run(capsys, "blocks", "--n", "2", "--k", "5")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "out-of-range"

    def test_speed_diagnostics_needs_a_tagged_format(self, capsys):
        code, out, err = run(capsys, "speed", "--property", "matching", "--nmax", "4", "--diagnostics")
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert "--format json" in payload["message"]
        code, out, _ = run(capsys, "speed", "--property", "matching", "--nmax", "4", "--diagnostics",
                           "--format", "json")
        assert code == 0
        assert "tag" in json.loads(out)

    def test_usage_error_json(self, capsys):
        code, _, err = run(capsys, "speed", "--nmax", "4")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    def test_decompose(self, capsys, tmp_path):
        from hspeed.corpus import matching

        path = tmp_path / "m2.json"
        dump_structure(matching(2), str(path))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == [[1, 2], [3, 4]]
        assert payload["sigma"]["E(x1,x2)"] == [[1, 1], [2, 2]]

    def test_probe(self, capsys, forbidden_files):
        code, out, _ = run(capsys, "probe", "tb", "--forbid", forbidden_files, "--k", "2", "--nmax", "6")
        assert code == 0
        assert json.loads(out)["verdict"] == "consistent"

    def test_components(self, capsys, tmp_path):
        from hspeed.components import components_of

        struct = graph(7, [(1, 2), (2, 3), (5, 6)])
        path = tmp_path / "g.json"
        dump_structure(struct, str(path))
        code, out, _ = run(capsys, "components", str(path))
        assert code == 0
        payload = json.loads(out)
        report = components_of(struct)
        assert payload["components"] == [sorted(c) for c in report.components]
        assert payload["size_histogram"] == {str(k): v for k, v in report.size_histogram.items()}
        assert report.components == (frozenset({4}), frozenset({7}), frozenset({5, 6}), frozenset({1, 2, 3}))

    def test_blocks(self, capsys):
        code, out, _ = run(capsys, "blocks", "--n", "6", "--k", "2")
        assert code == 0
        assert json.loads(out)["count"] == "15"

    def test_blocks_past_the_int_digit_limit_exits_2(self, capsys):
        # its count has more digits than Python converts to str, a known defect kept as it is
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int-to-str digit limit")
        with pytest.raises(ValueError) as limit:
            str(10**4300)
        code, out, err = run(capsys, "blocks", "--n", "3000", "--k", "2")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": str(limit.value)}

    def test_json_result_is_one_write(self, capsys, monkeypatch, tmp_path):
        from hspeed.corpus import symmetric_bipartite_template
        from hspeed.template import template_to_json

        path = tmp_path / "t.json"
        path.write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["template", "enumerate", "--template", str(path), "--n", "6"]) == 0
        assert len(writes) == 1 and writes[0].endswith("}\n")
        assert json.loads(writes[0])["count"] == "10"  # C(6, 3) / 2: both sides exceed K = 2

    def test_osc_balanced(self, capsys):
        code, out, _ = run(capsys, "osc", "balanced", "--r", "3", "--c", "2/5")
        assert code == 0
        payload = json.loads(out)
        assert payload["density"] == "2/5"

    def test_osc_blowup(self, capsys, tmp_path):
        path = tmp_path / "edge3.json"
        path.write_text(json.dumps({"r": 3, "v": 3, "edges": [[1, 2, 3]]}))
        code, out, _ = run(capsys, "osc", "blowup", "--hypergraph", str(path), "--n", "9")
        assert code == 0
        assert json.loads(out)["count"] == "36"

    def test_corpus_kinds(self, capsys):
        for kind in ("matching", "halfgraph-blowup", "tight-cycle", "symmetric-bipartite"):
            code, out, _ = run(capsys, "corpus", "--kind", kind)
            assert code == 0
            json.loads(out)

    def test_unknown_corpus_kind(self, capsys):
        code, _, err = run(capsys, "corpus", "--kind", "nonsense")
        assert code == 2
        assert json.loads(err)["error"] == "unknown-kind"

    @pytest.mark.parametrize("kind, param, named", [
        # a kind takes only its own parameters
        ("matching", "n=3", "takes the parameters m, not n"),
        ("inf-clique", "n=9", "takes no parameters, not n"),
        ("random-hypergraph", "q=1", "takes the parameters r, v, p, not q"),
        # a random hypergraph needs r >= 2, v >= 0 and 0 <= p <= 1
        ("random-hypergraph", "v=-2", "v=-2"),
        ("random-hypergraph", "r=-1", "r=-1"),
        ("random-hypergraph", "p=nan", "p=nan"),
        ("random-hypergraph", "p=1.5", "p=1.5"),
        ("random-hypergraph", "p=-0.5", "p=-0.5"),
        # a size that names no graph of the family
        ("complete-bipartite", "a=-1", "a=-1"),
        ("complete-bipartite", "b=-2", "b=-2"),
        ("halfgraph-blowup", "m=-1", "m=-1"),
        ("cycle", "n=2", "n=2"),
        ("clique", "n=-1", "a clique needs n >= 0, not n=-1"),
        ("path", "n=-1", "a path needs n >= 0, not n=-1"),
        ("matching", "m=-1", "a matching needs m >= 0, not m=-1"),
        ("triangles", "m=-1", "disjoint triangles need m >= 0, not m=-1"),
    ])
    def test_bad_corpus_parameter_is_a_named_usage_error(self, capsys, kind, param, named):
        code, out, err = run(capsys, "corpus", "--kind", kind, "--param", param)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"
        assert named in json.loads(err)["message"]


class TestRefutedProbesUnionAndMembership:
    """The refuted probe payloads, ``template union`` and the S and P modes of ``osc member``."""

    def test_refuted_probe_basic_witness_loads_back(self, capsys, tmp_path):
        from hspeed.simclass import class_count
        from hspeed.structures import load_structure

        code, out, _ = run(capsys, "probe", "basic", "--property", "matching", "--k", "1", "--nmax", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "refuted"
        assert payload["detail"] == {"bound": "1", "classes": "2"}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(payload["witness"]))
        assert class_count(load_structure(str(path))) == 2

    def test_refuted_probe_tb_detail_is_json(self, capsys, tmp_path):
        from hspeed.structures import load_structure

        code, out, _ = run(capsys, "probe", "tb", "--property", "all-graphs", "--k", "2", "--nmax", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "refuted"
        # split holds 1-based positions, as --split reads them; counts stay decimal strings
        assert payload["detail"] == {"relation": "E", "split": [1], "assignment": [1], "completions": "2"}
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(payload["witness"]))
        witness = load_structure(str(path))
        split, assignment = payload["detail"]["split"], payload["detail"]["assignment"]
        completions = {t for t in witness.tuples_of("E") if [t[p - 1] for p in split] == assignment}
        assert len(completions) == int(payload["detail"]["completions"])

    def test_template_union_equals_union_speed(self, capsys, tmp_path):
        from hspeed.corpus import inf_empty_template, symmetric_bipartite_template
        from hspeed.template import template_to_json, union_speed

        templates = [symmetric_bipartite_template(), inf_empty_template(), symmetric_bipartite_template()]
        paths = []
        for i, t in enumerate(templates):
            paths.append(tmp_path / f"t{i}.json")
            paths[-1].write_text(json.dumps(template_to_json(t)))
        for n in (1, 5, 8):
            code, out, _ = run(capsys, "template", "union", "--template", ",".join(map(str, paths)), "--n", str(n))
            assert code == 0
            assert json.loads(out) == {"n": n, "count": str(union_speed(templates, n)), "seed": 0}

    @pytest.mark.parametrize("c", ["1", "9/10", "1/2", "2/5"])
    def test_osc_member_s_and_p_modes(self, capsys, tmp_path, c):
        from fractions import Fraction

        from hspeed.oscillate import in_P, in_S, load_hypergraph

        path = tmp_path / "tight.json"
        code, out, _ = run(capsys, "corpus", "--kind", "tight-cycle", "--param", "r=3", "--param", "v=8")
        assert code == 0
        path.write_text(out)
        g = load_hypergraph(str(path))
        code, out, _ = run(capsys, "osc", "member", "--hypergraph", str(path), "--mode", "s", "--c", c)
        assert code == 0
        assert json.loads(out) == {"mode": "s", "c": c, "member": in_S(g, Fraction(c)), "seed": 0}
        for nu in ("4", "4,5,6", "3,5"):
            argv = ["osc", "member", "--hypergraph", str(path), "--mode", "p", "--nu", nu, "--c", c]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            expected = in_P(g, [int(x) for x in nu.split(",")], Fraction(c))
            assert json.loads(out) == {"mode": "p", "c": c, "member": expected, "seed": 0}


class TestReproducibility:
    def test_sampler_byte_identical(self, capsys, tmp_path):
        args = [
            "osc", "sample", "--r", "2", "--c", "2/3", "--k", "3", "--n", "30",
            "--delta", "1.6", "--seed", "42",
        ]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["log2_members_lower_bound"] == str(payload["edges"])

    def test_speed_byte_identical(self, capsys, forbidden_files, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["speed", "--forbid", forbidden_files, "--nmax", "6", "--format", "csv"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_arrays_probe_csv(self, capsys, forbidden_files):
        code, out, _ = run(
            capsys, "arrays", "probe", "--forbid", forbidden_files, "--rel", "E",
            "--split", "1", "--m", "2", "--nmax", "6", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,maxN,witness_id"
        assert out.splitlines()[2].split(",")[2]  # witness digest present

    def test_speed_defaults_to_csv(self, capsys, forbidden_files):
        code, out, _ = run(capsys, "speed", "--forbid", forbidden_files, "--nmax", "8")
        assert code == 0
        assert out.splitlines()[0] == "n,labeled,unlabeled"
        assert out.splitlines()[8] == "8,764,5"


@pytest.mark.parametrize(
    "argv",
    [
        ["template", "count", "--template", "{template}"],
        ["template", "enumerate", "--template", "{template}"],
        ["template", "union", "--template", "{template}"],
        ["template", "fit", "--template", "{template}"],
        ["osc", "member"],
        ["osc", "blowup", "--n", "9"],
        ["osc", "sample"],
        ["osc", "blowup", "--hypergraph", "{hypergraph}"],
        ["arrays", "types"],
        ["arrays", "count"],
        [],
        ["speed", "--property", "matching"],
        ["speed", "--property", "matching", "--forbid", "{structure}", "--nmax", "4"],
        ["speed", "--property", "no-such-property", "--nmax", "4"],
        ["speed", "--property", "matching", "--nmax", "4", "--seed", "3"],
        # one spelling per option: --property and --hypergraph have no aliases
        ["speed", "--spec", "matching", "--nmax", "4"],
        ["osc", "member", "--h", "{hypergraph}"],
        # ... and no prefix of an option is taken for it
        ["speed", "--prop", "matching", "--nmax", "3"],
        ["speed", "--property", "matching", "--nm", "3"],
        ["speed", "--forb", "{structure}", "--nmax", "3"],
        ["osc", "balanced", "--steps", "2"],
        ["osc", "balanced", "--steps", "9", "--materialize"],
        ["osc", "member", "--hypergraph", "{hypergraph}", "--mode", "q", "--nu", "3"],
        ["template", "count", "--template", "{template}", "--n", "5", "--window", "6..8"],
        ["template", "count", "--template", "{template},{template}", "--n", "5"],
        ["template", "--template", "{template}", "count", "--n", "5"],
        ["decompose", "{structure}", "--seed", "1"],
        ["blocks", "--n", "6", "--k", "2", "--format", "csv"],
        ["osc", "balanced", "--r", "1", "--c", "1"],
        ["osc", "sequence", "--r", "1", "--c", "1", "--eps", "2"],
        ["osc", "balanced", "--r", "3", "--c", "1/0"],
        ["osc", "member", "--hypergraph", "{hypergraph}", "--mode", "s", "--c", "1/0"],
        ["speed", "--forbid", "{uniform}", "--nmax", "4"],
        ["speed", "--forbid", "{loop}", "--nmax", "4"],
        # the speed of a property is defined for n >= 1, and a class bound k for k >= 1
        ["speed", "--property", "all-graphs", "--nmax", "-2"],
        ["speed", "--property", "all-graphs", "--nmax", "0"],
        ["probe", "basic", "--property", "matching", "--k", "-1", "--nmax", "4"],
        ["probe", "basic", "--property", "matching", "--k", "0", "--nmax", "4"],
        ["probe", "tb", "--property", "matching", "--k", "2", "--nmax", "0"],
        ["census", "--property", "matching", "--nmax", "0"],
        ["arrays", "probe", "--property", "matching", "--nmax", "-1"],
        # a sequence has no negative length, and parameter sets of size <= 3 are always exhausted
        ["osc", "sequence", "--steps", "-1"],
        ["arrays", "probe", "--property", "matching", "--nmax", "3", "--amax", "-1"],
        ["arrays", "probe", "--property", "matching", "--nmax", "3", "--amax", "2"],
        # a vertex is an int in [v]: no float and no bool, in every mode
        ["osc", "member", "--hypergraph", "{float}", "--mode", "q"],
        ["osc", "member", "--hypergraph", "{float}", "--mode", "p", "--nu", "4"],
        ["osc", "member", "--hypergraph", "{float}", "--mode", "s"],
        ["osc", "member", "--hypergraph", "{bool}", "--mode", "q"],
        # ... and every number in an input file is an int: a tuple entry, r and v, a class size
        ["components", "{float_tuple}"],
        ["speed", "--forbid", "{float_tuple}", "--nmax", "3"],
        ["osc", "member", "--hypergraph", "{float_rv}", "--mode", "q"],
        ["template", "count", "--template", "{float_size}", "--n", "4"],
    ],
)
def test_missing_action_argument_is_usage_error(capsys, tmp_path, argv):
    from hspeed.corpus import matching, symmetric_bipartite_template
    from hspeed.template import template_to_json

    files = {"template": tmp_path / "bip.json", "hypergraph": tmp_path / "edge3.json",
             "structure": tmp_path / "m2.json", "uniform": tmp_path / "e3.json",
             "loop": tmp_path / "loop.json", "float": tmp_path / "float.json", "bool": tmp_path / "bool.json",
             "float_tuple": tmp_path / "float_tuple.json", "float_rv": tmp_path / "float_rv.json",
             "float_size": tmp_path / "float_size.json"}
    files["template"].write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
    files["float_size"].write_text(json.dumps({**template_to_json(symmetric_bipartite_template()),
                                               "sizes": [2.5, "inf"], "k": 2, "K": 2}))
    files["float_rv"].write_text(json.dumps({"r": 2.5, "v": 4.9, "edges": [[1, 2]]}))
    files["hypergraph"].write_text(json.dumps({"r": 3, "v": 3, "edges": [[1, 2, 3]]}))
    files["float"].write_text(json.dumps({"r": 3, "v": 5, "edges": [[1.5, 2, 3], [1, 2, 4]]}))
    files["bool"].write_text(json.dumps({"r": 3, "v": 5, "edges": [[True, 2, 3]]}))
    dump_structure(matching(2), str(files["structure"]))
    # a 3-uniform edge and a looped graph: neither fits the graph base of --forbid
    dump_structure(make_structure(uniform_language(3), 3, {"R": itertools.permutations((1, 2, 3))}),
                   str(files["uniform"]))
    dump_structure(make_structure(GRAPH, 2, {"E": [(1, 1), (1, 2), (2, 1)]}), str(files["loop"]))
    files["float_tuple"].write_text(json.dumps({**structure_to_json(graph(2, [])),
                                                "tuples": {"E": [[1.5, 2], [2, 1.5]]}}))
    argv = [a.format(**files) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "usage"


def test_option_prefix_is_unrecognized(capsys):
    code, out, err = run(capsys, "speed", "--property", "matching", "--nmax", "3", "--form", "json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "message": "hspeed: unrecognized arguments: --form json"}


def test_malformed_structure_file_is_named(capsys, tmp_path):
    """A hypergraph file given as a forbidden structure lacks the key
    'language', and a structure file may name a relation its language
    lacks: each usage error names the file and the key."""
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, "corpus", "--kind", "tight-cycle", "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "speed", "--forbid", str(path), "--nmax", "3")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "message": f"{path}: missing key 'language'"}
    other = tmp_path / "f.json"
    obj = structure_to_json(P3)
    obj["tuples"] = {"F": obj["tuples"]["E"]}
    other.write_text(json.dumps(obj))
    code, out, err = run(capsys, "speed", "--forbid", str(other), "--nmax", "3")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "message": f"{other}: unknown relation F"}


@pytest.mark.parametrize("convert", [float, str, bool])
@pytest.mark.parametrize("kind, keys", [
    ("structure", ["n"]), ("structure", ["language", "relations", 0, "arity"]),
    ("structure", ["tuples", "E", 0, 0]), ("structure", ["constants", "a"]),
    ("hypergraph", ["r"]), ("hypergraph", ["v"]),
    ("template", ["sizes", 0]), ("template", ["k"]), ("template", ["K"]),
    ("template", ["sigma", "E(x1,x2)", 0, 0]),
])
def test_non_integer_number_in_file_is_named(capsys, tmp_path, kind, keys, convert):
    """Every number a file decoder reads is a JSON integer: a float, a
    string or a bool in its place is a usage error naming the file."""
    from hspeed.corpus import clique_plus_singleton_template
    from hspeed.structures import Language
    from hspeed.template import template_to_json

    obj, argv = {
        "structure": (structure_to_json(make_structure(Language((("E", 2),), ("a",)), 2,
                                                       {"E": [(1, 2), (2, 1)]}, {"a": 1})), ["components"]),
        "hypergraph": ({"r": 2, "v": 3, "edges": [[1, 2]]}, ["osc", "member", "--mode", "q", "--hypergraph"]),
        "template": (template_to_json(clique_plus_singleton_template()),
                     ["template", "count", "--n", "4", "--template"]),
    }[kind]
    *outer, last = keys
    holder = obj
    for key in outer:
        holder = holder[key]
    holder[last] = bad = convert(holder[last])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    message = json.loads(err)["message"]
    assert message.startswith(f"{path}: ") and message.endswith(f"must be an integer, not {json.dumps(bad)}")


def test_non_integer_vertex_is_named(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"r": 3, "v": 5, "edges": [[1.5, 2, 3], [1, 2, 4]]}))
    for mode in ("q", "p", "s"):
        code, out, err = run(capsys, "osc", "member", "--hypergraph", str(path), "--mode", mode)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "message": f"{path}: edge [1.5, 2, 3] leaves [5]"}


def test_runaway_sequence_exits_within_a_second(capsys):
    # step 2 of this r = 3 sequence needs a connected-set search past the estimator's check budget
    start = time.process_time()
    code, out, err = run(capsys, "osc", "sequence", "--r", "3", "--steps", "2", "--seed", "3")
    assert time.process_time() - start < 1.0
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "budget-exceeded"


def test_range_floors_are_accepted(capsys):
    code, out, _ = run(capsys, "osc", "sequence", "--steps", "0")
    assert code == 0 and json.loads(out)["mu"] == []
    code, out, _ = run(capsys, "arrays", "probe", "--property", "matching", "--nmax", "3", "--amax", "3")
    assert code == 0 and len(json.loads(out)["rows"]) == 3


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("hspeed ")]
    assert len(lines) >= 10
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])  # a grammar error raises UsageError


class TestRemainingPaths:
    """Commands and exits that the tests above do not reach, each against its library oracle."""

    def test_template_enumerate(self, capsys, tmp_path):
        from hspeed.corpus import symmetric_bipartite_template
        from hspeed.structures import structure_from_json
        from hspeed.template import count_compatible, is_compatible, template_to_json

        template = symmetric_bipartite_template()
        path = tmp_path / "bip.json"
        path.write_text(json.dumps(template_to_json(template)))
        code, out, _ = run(capsys, "template", "enumerate", "--template", str(path), "--n", "6")
        assert code == 0
        payload = json.loads(out)
        members = [structure_from_json(m) for m in payload["members"]]
        assert int(payload["count"]) == len(members) == count_compatible(template, 6) > 0
        assert len(set(members)) == len(members)
        assert all(is_compatible(m, template) is not None for m in members)

    def test_arrays_count(self, capsys, tmp_path):
        from hspeed.arrays import n_array_count
        from hspeed.corpus import halfgraph_blowup

        struct = halfgraph_blowup(3)
        path = tmp_path / "half.json"
        dump_structure(struct, str(path))
        for m, A in ((1, ""), (2, "1,2"), (2, "1,5,9")):
            code, out, _ = run(capsys, "arrays", "count", "--structure", str(path), "--m", str(m), "--A", A)
            assert code == 0
            expected = n_array_count(struct, "E", [0], m, [int(x) for x in A.split(",")] if A else [])
            assert json.loads(out) == {"m": m, "count": expected, "seed": 0}

    def test_arrays_types(self, capsys, tmp_path):
        from hspeed.corpus import matching

        path = tmp_path / "m2.json"
        dump_structure(matching(2), str(path))
        code, out, _ = run(capsys, "arrays", "types", "--structure", str(path), "--A", "1")
        assert code == 0
        # over A = {1}: the other edge's ends 3 and 4, the parameter 1, and its partner 2
        assert json.loads(out) == {"count": 3, "seed": 0, "types": [
            {"realizations": [[3], [4]], "positive_decisions": 0},
            {"realizations": [[1]], "positive_decisions": 0},
            {"realizations": [[2]], "positive_decisions": 1},
        ]}

    @pytest.mark.parametrize("c", ["1", "9/10", "1/2", "2/5"])
    def test_osc_member_q_mode(self, capsys, tmp_path, c):
        from fractions import Fraction

        from hspeed.oscillate import in_Q, load_hypergraph

        path = tmp_path / "tight.json"
        code, out, _ = run(capsys, "corpus", "--kind", "tight-cycle", "--param", "r=3", "--param", "v=8")
        assert code == 0
        path.write_text(out)
        code, out, _ = run(capsys, "osc", "member", "--hypergraph", str(path), "--mode", "q", "--c", c)
        assert code == 0
        expected = in_Q(load_hypergraph(str(path)), Fraction(c))
        assert json.loads(out) == {"mode": "q", "c": c, "member": expected, "seed": 0}

    def test_osc_blowup_materialize(self, capsys, tmp_path):
        path = tmp_path / "path2.json"
        path.write_text(json.dumps({"r": 2, "v": 3, "edges": [[1, 2], [2, 3]]}))
        code, out, _ = run(capsys, "osc", "blowup", "--hypergraph", str(path), "--n", "8", "--materialize")
        assert code == 0
        payload = json.loads(out)
        edge_sets = {frozenset(map(tuple, m["edges"])) for m in payload["members"]}
        assert int(payload["count"]) == len(payload["members"]) == len(edge_sets) == 36

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and out.startswith("usage: hspeed") and err == ""

    def test_internal_failure_exits_one(self, capsys, monkeypatch):
        def fail(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr("hspeed.components.partitions_into_blocks", fail)
        code, out, err = run(capsys, "blocks", "--n", "6", "--k", "2")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "internal", "message": "boom"}

    def test_non_integer_option_is_usage_error(self, capsys):
        code, out, err = run(capsys, "speed", "--property", "matching", "--nmax", "x")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "usage"
        assert "invalid int value: 'x'" in json.loads(err)["message"]

    @pytest.mark.parametrize("text", [json.dumps({**structure_to_json(P3), "n": "x"}), "not json"])
    def test_unreadable_structure_file_is_named(self, capsys, tmp_path, text):
        """A size that is not an integer, and a file that is not JSON."""
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "components", str(path))
        assert (code, out) == (2, "")
        payload = json.loads(err)
        assert payload["error"] == "usage" and payload["message"].startswith(f"{path}: ")

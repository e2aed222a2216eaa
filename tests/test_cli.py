import itertools
import json
import shlex
from pathlib import Path

import pytest

from hspeed.cli import build_parser, main
from hspeed.property import K3, P3
from hspeed.structures import GRAPH, dump_structure, make_structure, structure_to_json, uniform_language


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

    def test_blocks(self, capsys):
        code, out, _ = run(capsys, "blocks", "--n", "6", "--k", "2")
        assert code == 0
        assert json.loads(out)["count"] == "15"

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
    ],
)
def test_missing_action_argument_is_usage_error(capsys, tmp_path, argv):
    from hspeed.corpus import matching, symmetric_bipartite_template
    from hspeed.template import template_to_json

    files = {"template": tmp_path / "bip.json", "hypergraph": tmp_path / "edge3.json",
             "structure": tmp_path / "m2.json", "uniform": tmp_path / "e3.json",
             "loop": tmp_path / "loop.json"}
    files["template"].write_text(json.dumps(template_to_json(symmetric_bipartite_template())))
    files["hypergraph"].write_text(json.dumps({"r": 3, "v": 3, "edges": [[1, 2, 3]]}))
    dump_structure(matching(2), str(files["structure"]))
    # a 3-uniform edge and a looped graph: neither fits the graph base of --forbid
    dump_structure(make_structure(uniform_language(3), 3, {"R": itertools.permutations((1, 2, 3))}),
                   str(files["uniform"]))
    dump_structure(make_structure(GRAPH, 2, {"E": [(1, 1), (1, 2), (2, 1)]}), str(files["loop"]))
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

"""The decstruct command line tool, run in-process."""

import glob
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decstruct
from decstruct import (DecisionStructure, Leaf, Op, construct_kbt, decompose,
                       format_structure, load_structure, parse_structure,
                       structurally_equivalent)
from decstruct import verifier
from decstruct.cli import _json_chunks, main
from conftest import CORPUS, corpus_path, structure
from oracles import OraclePremiseAutomaton


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", corpus_path("z1.ds"))
    assert code == 0
    assert "11 nodes" in out


def test_validate_json(capsys):
    code, out, _ = run(capsys, "--format", "json",
                       "validate", corpus_path("z2.ds"))
    assert code == 0
    data = json.loads(out)
    assert data == {"ok": True, "nodes": 14, "arcs": 22,
                    "source": "b0", "labels": ["f", "m", "s"]}


def test_format_flag_after_subcommand(capsys):
    code, out, _ = run(capsys, "validate", corpus_path("z2.ds"),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["nodes"] == 14


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.ds"
    bad.write_text("decstruct v1\nnode a x\nnode b y\narc a b s\narc a b f\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "error:" in err


def test_validate_of_a_structure_with_no_nodes(tmp_path, capsys):
    empty = tmp_path / "empty.ds"
    empty.write_text("decstruct v1\n")
    for fmt in ("text", "json"):
        assert run(capsys, "--format", fmt, "validate", str(empty)) == (
            1, "", "error: structure has no nodes\n")


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/z.ds")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


COMMANDS = ("validate", "construct", "extract", "modules", "decompose",
            "complexity", "classify", "contract", "expand", "verify",
            "check-replace", "export-dot", "export-fsm", "export-obligation")


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # the parser is built at the first main() call, and after other runs
    # and errors every --help reads as from a parser never used
    import decstruct.cli as cli
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "--format", "json", "classify",
                   corpus_path("q.ds"))[0] == 0
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        for argv in [[]] + [[c] for c in COMMANDS]:
            with pytest.raises(SystemExit):
                main(argv + ["--help"])
            reused = capsys.readouterr()
            with pytest.raises(SystemExit):
                real().parse_args(argv + ["--help"])
            assert reused == capsys.readouterr(), argv
            assert reused.out.startswith("usage: decstruct")
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_construct_and_extract_roundtrip(tmp_path, capsys):
    term = tmp_path / "t.arch"
    term.write_text("(fb (seq a b c) (seq (fb d e) f g) h)\n")
    code, out, _ = run(capsys, "construct", str(term))
    assert code == 0
    z = parse_structure(out)
    assert structurally_equivalent(z, structure("bt_example"))

    built = tmp_path / "built.ds"
    built.write_text(out)
    code, out, _ = run(capsys, "extract", str(built))
    assert code == 0
    assert out.strip() == "(fb (seq a b c) (seq (fb d e) f g) h)"


def test_construct_tr_and_dt(tmp_path, capsys):
    term = tmp_path / "t.arch"
    term.write_text("(tr watch steer brake)")
    code, out, _ = run(capsys, "construct", str(term))
    assert code == 0
    assert "arc watch steer d" in out

    term.write_text("(dt wet walk (dt cold coat tee))")
    code, out, _ = run(capsys, "construct", str(term))
    assert code == 0
    assert "arc wet walk top" in out


def test_construct_empty_operator_is_an_error(tmp_path, capsys):
    term = tmp_path / "t.arch"
    for text in ("(seq (fb) a)", "(seq a (fb))", "(seq)",
                 "(fb a (seq b (op m)))"):
        term.write_text(text)
        code, out, err = run(capsys, "construct", str(term))
        assert (code, out, err) == \
            (1, "", "error: operator with no children\n"), text


def test_extract_prime_fails(capsys):
    code, out, _ = run(capsys, "extract", corpus_path("not_bt.ds"))
    assert code == 1
    assert "no operator tree" in out


def test_modules_listing(capsys):
    code, out, _ = run(capsys, "modules", corpus_path("not_bt.ds"))
    assert code == 0
    assert out.strip() == "{a,b,c,d}"
    code, out, _ = run(capsys, "--format", "json",
                       "modules", corpus_path("btswitch.ds"))
    mods = json.loads(out)["modules"]
    assert ["a", "b"] in mods and len(mods) == 8


def test_modules_trivial_includes_singletons(capsys):
    code, out, _ = run(capsys, "modules", corpus_path("not_bt.ds"),
                       "--trivial")
    lines = out.strip().split("\n")
    # 5 singletons + {a,b,c,d} + the full set
    assert len(lines) == 7


def test_decompose_text_and_json(capsys):
    code, out, _ = run(capsys, "decompose", corpus_path("bt_example.ds"))
    assert code == 0
    assert out.startswith("path[f] {")
    code, out, _ = run(capsys, "--format", "json",
                       "decompose", corpus_path("bt_example.ds"))
    tree = json.loads(out)
    assert tree["kind"] == "path" and tree["label"] == "f"


def test_complexity_output(capsys):
    code, out, _ = run(capsys, "complexity", corpus_path("z2.ds"))
    assert code == 0
    assert "cyclomatic 10" in out and "essential  2" in out
    assert "witness" in out


def test_classify_text_output(capsys):
    code, out, _ = run(capsys, "classify", corpus_path("btswitch.ds"))
    assert code == 0
    assert "bt          yes" in out


def test_classify_all_labelings(capsys):
    code, out, _ = run(capsys, "classify", corpus_path("not_bt.ds"),
                       "--all-labelings")
    assert code == 0
    assert "labelings 16, expressible as bt: 0" in out


def test_classify_all_labelings_json_sorts_its_keys(capsys):
    code, out, _ = run(capsys, "--format", "json", "classify",
                       corpus_path("not_bt.ds"), "--all-labelings")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["rows", "summary"]
    assert list(payload["summary"].items()) == [("bt", 0), ("labelings", 16)]
    assert len(payload["rows"]) == 16
    assert all(list(r) == ["arcs", "essential", "is_bt"] and not r["is_bt"]
               for r in payload["rows"])
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_classify_all_labelings_is_bounded(tmp_path):
    # 2**39 labelings: counted up front, never enumerated; the child
    # process keeps an unbounded sweep from stalling the suite
    term = Leaf("a39")
    for i in range(38, -1, -1):
        term = Op("sf"[i % 2], [Leaf("a%d" % i), term])
    path = tmp_path / "deep.ds"
    path.write_text(format_structure(construct_kbt(term)))
    code = textwrap.dedent("""
        import sys, time
        from decstruct.cli import main
        t0 = time.process_time()
        code = main(["classify", sys.argv[1], "--all-labelings"])
        print(code, time.process_time() - t0)
    """)
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=20)
    exit_code, seconds = run.stdout.split()
    assert exit_code == "1" and float(seconds) < 0.5
    assert run.stderr == ("error: 549755813888 labelings; limit for "
                          "exhaustive enumeration is 65536\n")


def test_classify_all_labelings_says_why_there_is_none(capsys):
    code, out, err = run(capsys, "classify", corpus_path("z3.ds"),
                         "--all-labelings")
    assert code == 1 and out == ""
    assert "no labeling: node 'Battery' has 3 out-arcs but there are only " \
        "2 labels {s,f}" in err


def test_contract_expand_cycle(tmp_path, capsys):
    code, out, _ = run(capsys, "contract", corpus_path("z2.ds"),
                       "--module", "b0,bLow,calm,bHigh,bright,Avoid,Land")
    assert code == 0
    small = parse_structure(out)
    assert len(small.nodes) == 8

    contracted = tmp_path / "small.ds"
    contracted.write_text(out)
    code, out, _ = run(capsys, "expand", str(contracted),
                       "--node", "mod(Avoid,Land,b0,bHigh,bLow,bright,calm)",
                       "--with", corpus_path("k.ds"))
    assert code == 0
    assert len(parse_structure(out).nodes) == 14


def test_verify_holds(capsys):
    code, out, _ = run(capsys, "verify", corpus_path("z2.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"),
                       "--spec", corpus_path("spec.ltl"))
    assert code == 0
    assert "holds" in out


def test_verify_fails_with_trace(capsys):
    code, out, _ = run(capsys, "verify", corpus_path("z1.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"),
                       "--spec", corpus_path("spec.ltl"))
    assert code == 1
    assert "fails" in out and "loop:" in out


def test_premise_counterexamples_match_whole_searches(tmp_path, capsys,
                                                      monkeypatch):
    """verify's counterexamples to F p, which the corpus spec never shows,
    and to G p on every drone structure equal those of searches over all
    of the premise automaton; the JSON output holds the stats and every
    state of the lasso."""
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    commands = []
    for i, (name, text) in enumerate(
            [("z2", "F landed"), ("z2", "F storm")]
            + [(z, "G !b0") for z in ("z1", "z2", "z3", "z4")]):
        spec = tmp_path / ("spec%d.ltl" % i)
        spec.write_text(text + "\n")
        commands.append(["--format", "json", "verify",
                         corpus_path(name + ".ds"),
                         "--world", corpus_path("drone.wld"),
                         "--actions", corpus_path("drone.act"),
                         "--spec", str(spec)])
    got = [run(capsys, *argv) for argv in commands]
    assert all(code == 1 for code, _, _ in got)

    def refute(premise_auto, op, m):
        lasso = OraclePremiseAutomaton(premise_auto.world,
                                       premise_auto.auto).refute(op, m)
        return lasso and verifier.LassoTrace(*lasso)

    monkeypatch.setattr(verifier._PremiseAutomaton, "refute", refute)
    assert [run(capsys, *argv) for argv in commands] == got


def test_verify_bounded_note(capsys):
    code, out, _ = run(capsys, "verify", corpus_path("z1.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"),
                       "--spec", corpus_path("spec.ltl"),
                       "--bound", "0")
    assert code == 0
    assert "within bound only" in out


def test_verify_refuses_a_negative_bound(capsys, monkeypatch):
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    code, out, err = run(capsys, "verify", corpus_path("z1.ds"),
                         "--world", corpus_path("drone.wld"),
                         "--actions", corpus_path("drone.act"),
                         "--spec", corpus_path("spec.ltl"),
                         "--bound", "-1")
    assert (code, out, err) == (
        1, "", "error: bound must be 0 or more, got -1\n")


def test_verify_and_check_replace_refuse_a_negative_limit(capsys,
                                                          monkeypatch):
    # a negative limit ran out at the first step, as "exploration budget
    # exceeded (-5)"
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    w = ["--world", corpus_path("drone.wld"),
         "--actions", corpus_path("drone.act")]
    refused = (1, "", "error: limit must be 0 or more, got -5\n")
    assert run(capsys, "verify", corpus_path("z1.ds"), *w,
               "--spec", corpus_path("spec.ltl"), "--limit", "-5") == refused
    assert run(capsys, "check-replace", corpus_path("z2.ds"),
               "--module", "b0,bLow,calm,bHigh,bright,Avoid,Land",
               "--with", corpus_path("q.ds"), *w, "--limit", "-5") == refused
    assert run(capsys, "check-replace", "--action", "Descend",
               "--with-action", "Land", *w, "--limit", "-5") == refused


def test_verify_budget_error_names_the_conjunct(capsys):
    code, _, err = run(capsys, "verify", corpus_path("z1.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"),
                       "--spec", corpus_path("spec.ltl"),
                       "--limit", "3")
    assert code == 1
    assert err.startswith("error: exploration budget exceeded (3) on "
                          "conjunct 1 of 2: G ((b0 -> landed)")


def test_check_replace_module(capsys):
    code, out, _ = run(capsys, "check-replace", corpus_path("z2.ds"),
                       "--module", "b0,bLow,calm,bHigh,bright,Avoid,Land",
                       "--with", corpus_path("q.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"))
    assert code == 0
    assert "replaceable" in out
    assert "behavior: entailed" in out


def test_check_replace_action_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "check-replace",
                       "--action", "Ascend", "--with-action", "Ascend",
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["behavior_holds"]


def test_check_replace_needs_arguments(capsys):
    code, _, err = run(capsys, "check-replace",
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"))
    assert code == 1
    assert "error:" in err


def test_check_replace_module_needs_a_structure(capsys, monkeypatch):
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    assert run(capsys, "check-replace", "--module", "b0,bLow",
               "--with", corpus_path("q.ds"),
               "--world", corpus_path("drone.wld"),
               "--actions", corpus_path("drone.act")) == (
        1, "", "error: need --action/--with-action, or a structure with "
        "--module/--with\n")


def test_check_replace_refuses_both_modes_at_once(capsys, monkeypatch):
    # --action/--with-action ignored the structure, --module and --with:
    # the first command printed "replaceable" without looking for nosuch
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    w = ["--world", corpus_path("drone.wld"),
         "--actions", corpus_path("drone.act")]
    refused = (1, "", "error: --action/--with-action cannot be combined "
               "with a structure, --module or --with\n")
    assert run(capsys, "check-replace", corpus_path("z2.ds"),
               "--module", "nosuch", "--with", corpus_path("q.ds"),
               "--action", "Ascend", "--with-action", "Ascend", *w) == refused
    assert run(capsys, "check-replace", corpus_path("z2.ds"),
               "--with-action", "Land", *w) == refused
    assert run(capsys, "check-replace", "--module", "b0",
               "--action", "Ascend", "--with-action", "Ascend", *w) == refused


def test_input_errors_exit_1_with_their_messages(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    files = {"tail.ds": "decstruct v1\nnode a x\nnode c y\narc b c s\n",
             "empty.ds": "",
             "one.ds": "decstruct v1\nnode A A\n",
             "twice.wld": "var m {a b}\nvar n {b c}\n",
             "one.act": "action A {\n  model: true;\n}\n",
             "true.ltl": "true\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    f = {name: str(tmp_path / name) for name in files}
    w = ["--world", corpus_path("drone.wld"),
         "--actions", corpus_path("drone.act")]
    cases = [
        (["contract", corpus_path("z2.ds"), "--module", ","],
         "--module needs a comma-separated node list"),
        (["check-replace", "--action", "Ascend", *w],
         "--action needs --with-action"),
        (["expand", corpus_path("z2.ds"), "--node", "nosuch",
          "--with", corpus_path("q.ds")], "unknown node 'nosuch'"),
        (["validate", f["tail.ds"]], "arc tail 'b' is not a node"),
        (["validate", f["empty.ds"]], "missing header 'decstruct v1'"),
        (["verify", f["one.ds"], "--world", f["twice.wld"],
          "--actions", f["one.act"], "--spec", f["true.ltl"]],
         "atom 'b' declared twice"),
    ]
    for argv, message in cases:
        assert run(capsys, *argv) == (1, "", "error: %s\n" % message), argv


def test_check_replace_text_prints_the_counterexample(capsys, monkeypatch):
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    code, out, _ = run(capsys, "check-replace", "--action", "Descend",
                       "--with-action", "Land",
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"))
    assert code == 1
    assert out.splitlines() == [
        "action Descend -> Land: not replaceable",
        "  returns s: low  [differs]",
        "  behavior: not entailed",
        "   0  b0 & windy & landed & bright & at & goal & photo",
        "   1  b0 & calm & landed & bright & at & goal & photo",
        "  loop:",
        "   2  bMid & calm & landed & bright & at & goal & photo",
        "   3  bMid & calm & landed & bright & at & goal & photo"]



def test_each_format_builds_only_its_own_output(capsys, monkeypatch):
    # the builders of the format not chosen raise, and every output reads
    # as from a run with nothing patched
    import decstruct.cli as cli
    from decstruct.logic import World
    from decstruct.modules import DecompositionNode
    from decstruct.verifier import LassoTrace

    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    w = ["--world", corpus_path("drone.wld"),
         "--actions", corpus_path("drone.act")]
    commands = [[cmd, corpus_path("z3.ds")]
                for cmd in ("decompose", "classify", "modules")]
    commands += [["verify", corpus_path("z1.ds"), "--spec",
                  corpus_path("spec.ltl")] + w,
                 ["check-replace", "--action", "Descend",
                  "--with-action", "Land"] + w]

    def outputs(fmt):
        return [run(capsys, "--format", fmt, *argv) for argv in commands]

    def refuse(*_):
        raise AssertionError("built for the format not chosen")

    text, json_out = outputs("text"), outputs("json")
    assert [code for code, _, _ in text] == [0, 0, 0, 1, 1]
    with monkeypatch.context() as m:
        for owner, name in ((cli, "_decomp_text"), (cli, "classify_text"),
                            (cli, "_fmt_modules"), (LassoTrace, "render")):
            m.setattr(owner, name, refuse)
        assert outputs("json") == json_out
    described = []
    real = World.describe_mask
    with monkeypatch.context() as m:
        for owner, name in ((cli, "_json_chunks"),
                            (cli, "_jsonable_classification"),
                            (DecompositionNode, "to_dict"),
                            (LassoTrace, "to_dict")):
            m.setattr(owner, name, refuse)
        m.setattr(World, "describe_mask",
                  lambda self, mask: described.append(mask) or real(self,
                                                                   mask))
        assert outputs("text") == text
    assert len(described) == 1  # the one return's old mask, for its line

def test_check_replace_text_prints_its_notes(capsys, monkeypatch):
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    members = ",".join(structure("k2").node_ids())
    code, out, _ = run(capsys, "check-replace", corpus_path("z3.ds"),
                       "--module", members, "--with", corpus_path("q2.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"))
    assert code == 0
    assert out.splitlines() == [
        "module {Ascend,Circle,Descend,GoTo,Photograph,at,goal}: "
        "replaceable",
        "  note: module has no outgoing arcs; return conditions are "
        "invisible and were not compared",
        "  behavior: entailed"]


def test_input_that_is_not_utf8_is_a_clean_error(tmp_path, capsys,
                                                   monkeypatch):
    # every reader decodes UTF-8; any other input is one error line
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("decstruct v1\nnode caf\xe9 a\n".encode("latin-1"))
    refused = (1, "", "error: input is not UTF-8 text (invalid continuation "
               "byte)\n")
    assert run(capsys, "validate", str(bad)) == refused
    assert run(capsys, "verify", corpus_path("z1.ds"),
               "--world", corpus_path("drone.wld"),
               "--actions", corpus_path("drone.act"),
               "--spec", str(bad)) == refused


def test_inputs_read_the_same_with_a_byte_order_mark(tmp_path, capsys,
                                                     monkeypatch):
    # a UTF-8 file may start with a byte-order mark; every reader drops it
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    term = tmp_path / "term.arch"
    term.write_text("(seq a (fb b c))\n")
    plain = {"structure": corpus_path("q.ds"),
             "world": corpus_path("drone.wld"),
             "actions": corpus_path("drone.act"),
             "spec": corpus_path("spec.ltl"), "term": str(term)}

    def runs(paths):
        return [run(capsys, "validate", paths["structure"]),
                run(capsys, "verify", paths["structure"],
                    "--world", paths["world"], "--actions", paths["actions"],
                    "--spec", paths["spec"]),
                run(capsys, "construct", paths["term"])]

    expected = runs(plain)
    assert [code for code, _, _ in expected] == [0, 1, 0]
    for kind, path in plain.items():
        marked = tmp_path / ("bom-" + os.path.basename(path))
        with open(path, "rb") as fh:
            marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert runs({**plain, kind: str(marked)}) == expected, kind


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", corpus_path("bt_example.ds"))
    assert code == 0
    assert out.startswith("digraph decstruct {")
    assert "peripheries=2" in out
    assert "subgraph" not in out


def test_export_dot_with_clusters(capsys):
    code, out, _ = run(capsys, "export-dot", corpus_path("bt_example.ds"),
                       "--decomposition")
    assert code == 0
    assert "subgraph cluster_1 {" in out
    assert 'label="path[f]"' in out


DOT_STRING = r'"(?:[^"\\]|\\.)*"'
DOT_LINE = re.compile(r"\s*(?:(?P<node>{q}) \[label=(?P<action>{q})"
                      r"(?: peripheries=2)?\];|(?P<tail>{q}) -> (?P<head>{q})"
                      r" \[label=(?P<label>{q})\];|label=(?P<tag>{q});|"
                      r"subgraph cluster_\d+ \{{|\}}|digraph decstruct \{{|"
                      r"rankdir=TB;)".format(q=DOT_STRING))


def dot_unquote(text):
    return re.sub(r"\\(.)", r"\1", text[1:-1])


def preorder(tree):
    stack = [tree]
    while stack:
        d = stack.pop()
        yield d
        if not d.is_leaf():
            stack.extend(reversed(d.children))


def test_export_dot_quotes_every_field(tmp_path, capsys):
    # each id, action and label is one DOT string whose escapes give back
    # the original, with and without clusters
    path = tmp_path / "odd.ds"
    path.write_text('decstruct v1\nnode a"b \\A"\nnode c\\ C\nnode d" D\\\n'
                    'arc a"b c\\ "s\\\narc a"b d" f\\"\narc c\\ d" s\\\n')
    z = load_structure(str(path))
    for flag in ([], ["--decomposition"]):
        code, out, _ = run(capsys, "export-dot", str(path), *flag)
        assert code == 0
        nodes, arcs, tags = [], [], []
        for line in out.splitlines():
            got = DOT_LINE.fullmatch(line)
            assert got, line
            field = {k: dot_unquote(v)
                     for k, v in got.groupdict().items() if v}
            if "node" in field:
                nodes.append((field["node"], field["action"]))
            elif "tail" in field:
                arcs.append((field["tail"], field["head"], field["label"]))
            elif "tag" in field:
                tags.append(field["tag"])
        assert sorted(nodes) == sorted(z.nodes)
        assert arcs == list(z.arcs)
        if flag:
            assert tags and tags == [
                d.tag for d in preorder(decompose(z)) if not d.is_leaf()]
        else:
            assert not tags


def test_export_fsm(capsys):
    code, out, _ = run(capsys, "export-fsm", corpus_path("z1.ds"))
    assert code == 0
    assert out.startswith("fsm v1\n")
    assert out.count("trans ") == 11 + 11


def test_export_obligation(capsys):
    code, out, _ = run(capsys, "export-obligation", corpus_path("z1.ds"),
                       "--world", corpus_path("drone.wld"),
                       "--actions", corpus_path("drone.act"),
                       "--spec", corpus_path("spec.ltl"))
    assert code == 0
    assert out.startswith("obligation v1\n")
    assert "premise always (step):" in out


def test_color_env(capsys, monkeypatch):
    def verify(name):
        return run(capsys, "verify", corpus_path(name),
                   "--world", corpus_path("drone.wld"),
                   "--actions", corpus_path("drone.act"),
                   "--spec", corpus_path("spec.ltl"))

    monkeypatch.setenv("DECSTRUCT_COLOR", "1")
    code, out, err = verify("z1.ds")
    assert (code, err) == (1, "")
    assert out.startswith("\x1b[31mfails\x1b[0m: ")
    assert verify("z2.ds") == (0, "\x1b[32mholds\x1b[0m\n", "")
    code, out, err = run(capsys, "validate", "/nonexistent/z.ds")
    assert (code, out) == (1, "")
    assert err.startswith("\x1b[31merror: ") and err.endswith("\x1b[0m\n")
    monkeypatch.delenv("DECSTRUCT_COLOR")
    outputs = [verify("z1.ds"), verify("z2.ds"),
               run(capsys, "validate", "/nonexistent/z.ds")]
    assert [code for code, _, _ in outputs] == [1, 0, 1]
    assert not any("\x1b" in out + err for _, out, err in outputs)


def test_construct_reads_a_deep_term(tmp_path, capsys):
    text, term = "a1200", Leaf("a1200")
    for i in reversed(range(1200)):
        text = "(%s a%d %s)" % ("seq" if i % 2 == 0 else "fb", i, text)
        term = Op("sf"[i % 2], [Leaf("a%d" % i), term])
    path = tmp_path / "deep.arch"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "construct", str(path))
    assert (code, out, err) == (0, format_structure(construct_kbt(term)), "")


def test_verify_reads_a_deep_spec(tmp_path, capsys):
    def verify(text, *options):
        spec = tmp_path / "spec.ltl"
        spec.write_text(text + "\n")
        return run(capsys, "verify", corpus_path("z1.ds"),
                   "--world", corpus_path("drone.wld"),
                   "--actions", corpus_path("drone.act"),
                   "--spec", str(spec), *options)

    assert verify("(" * 400 + "landed" + ")" * 400) == verify("landed")
    # the tableau's obligation keys are built without recursion, so a
    # deep X reaches the exploration, which the budget then bounds
    deep = "X " * 1200 + "landed"
    assert verify(deep, "--limit", "20000") == (
        1, "", "error: exploration budget exceeded (20000) on conjunct 1 "
        "of 1: %s\n" % deep)
    # both chains meet in one obligation set, and comparing the two
    # obligations there still recurses; cli.main reports that cleanly
    chains = "(%sat) | (%sgoal)" % ("X " * 1200, "X " * 1200)
    assert verify(chains) == (1, "", "error: input nested too deeply\n")


def small_world(tmp_path, n_bools):
    """World, actions and structure files for a world of n_bools bools
    a1..an whose one rule is G F a1, and a structure of one action that
    constrains nothing; returns the verify arguments before --spec."""
    world, actions, z = (tmp_path / n for n in ("w.wld", "a.act", "z.ds"))
    world.write_text("".join("bool a%d\n" % i for i in range(1, n_bools + 1))
                     + "rule fair: G F a1\n")
    actions.write_text("action Stay {\n  model: true;\n}\n")
    z.write_text("decstruct v1\nnode Stay Stay\n")
    return ["verify", str(z), "--world", str(world), "--actions", str(actions)]


def verify_spec(capsys, tmp_path, args, text):
    spec = tmp_path / "spec.ltl"
    spec.write_text(text + "\n")
    return run(capsys, *args, "--spec", str(spec))


def test_a_spec_comment_ends_at_any_line_break(tmp_path, capsys):
    # spec files end a line, and so a `#` comment, where str.splitlines
    # does, as the structure, world and action formats do: at \f and
    # \u2028 as well as at \n
    args = small_world(tmp_path, 1)
    spec = tmp_path / "spec.ltl"
    results = []
    for brk in ("\n", "\f", "\u2028"):
        spec.write_bytes(("(a1 | !a1) # c%s& X false\n" % brk).encode())
        results.append(run(capsys, *args, "--spec", str(spec)))
    assert results[0][0] == 1
    assert results == [results[0]] * 3


def test_verify_decides_a_deep_next_chain(tmp_path, capsys):
    args = small_world(tmp_path, 1)
    assert verify_spec(capsys, tmp_path, args, "X " * 1200 + "(a1 | !a1)") \
        == (0, "holds\n", "")
    code, out, err = verify_spec(capsys, tmp_path, args, "X " * 1200 + "a1")
    assert (code, err) == (1, "")
    assert "\n1200  !a1\n" in out


def test_verify_on_a_world_of_16384_states(tmp_path, capsys):
    # a state mask here has 4,933 digits, over the int-string limit that
    # repr of a formula with such a mask would meet
    args = small_world(tmp_path, 14)
    assert verify_spec(capsys, tmp_path, args, "G F a1") == (0, "holds\n", "")
    code, out, err = run(capsys, "--format", "json", *args, "--spec",
                         str(tmp_path / "spec.ltl"))
    assert (code, json.loads(out)["holds"], err) == (0, True, "")
    code, out, err = verify_spec(capsys, tmp_path, args, "G a1")
    assert (code, err) == (1, "")
    assert out.startswith("fails: G a1\n   0  !a1 & a2 & ")


JSON_CHARS = st.sampled_from('ab"\\/\n\t\x00\x7f\xe9\u2028\U0001f600')
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet=JSON_CHARS),
    lambda sub: st.lists(sub, max_size=4)
    | st.dictionaries(st.text(alphabet=JSON_CHARS, max_size=3), sub,
                      max_size=4),
    max_leaves=20)


def json_text(value):
    return "".join(_json_chunks(value))


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_the_stdlib(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_writer_edge_cases():
    for value in ([], {}, [[]], {"a": {}}, [{}, []], ["", "\u00e9\"\\"],
                  {"x": [1, 2.5, None, True, "s"]}, float("nan"), -0.0,
                  (1, ("a",)), {"k": ()}, 10 ** 30):
        assert json_text(value) == json.dumps(value, indent=2,
                                              sort_keys=True)
    with pytest.raises(TypeError):
        json_text({"a": {1: "x"}})
    with pytest.raises(TypeError):
        json_text([object()])


def test_json_output_is_written_as_it_is_produced(tmp_path, monkeypatch):
    # a 101-node alternating chain prints ~1.1 MB of indented JSON; no
    # single write may hold more than 5% of it
    n = 101
    z = DecisionStructure(
        [("a%d" % i, "x%d" % i) for i in range(n)],
        [("a%d" % i, "a%d" % (i + 1), "sf"[i % 2]) for i in range(n - 1)])
    path = tmp_path / "deep.ds"
    path.write_text(format_structure(z))
    sizes, parts = [], []

    class Sink:
        def write(self, text):
            sizes.append(len(text))
            parts.append(text)

        def writelines(self, chunks):
            for text in chunks:
                self.write(text)

    monkeypatch.setattr(sys, "stdout", Sink())
    assert main(["--format", "json", "decompose", str(path)]) == 0
    monkeypatch.undo()
    assert json.loads("".join(parts)) == decompose(z).to_dict()
    assert max(sizes) < sum(sizes) // 20


def corpus_json_commands():
    """82 --format json commands over the corpus: the structure commands on
    every .ds file, verify on z1-z4 and one module replacement."""
    commands = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.ds"))):
        for argv in (["validate"], ["modules"], ["modules", "--trivial"],
                     ["decompose"], ["complexity"], ["classify"],
                     ["extract"]):
            commands.append(argv + [path])
    w = ["--world", corpus_path("drone.wld"),
         "--actions", corpus_path("drone.act")]
    for name in ("z1", "z2", "z3", "z4"):
        commands.append(["verify", corpus_path(name + ".ds"), "--spec",
                         corpus_path("spec.ltl")] + w)
    commands.append(["check-replace", corpus_path("z2.ds"),
                     "--module", "b0,bLow,calm,bHigh,bright,Avoid,Land",
                     "--with", corpus_path("q.ds")] + w)
    return commands


def test_corpus_json_outputs_are_pinned(capsys, monkeypatch):
    # the sha256 of every command's exit code, stdout and stderr, in
    # order, first computed with json.dumps before the CLI had its own
    # JSON writer; only verify's stats have moved since: the four
    # budget_used values when the tableau began to drop dominated covers,
    # all four stats when verify began to decide both spec conjuncts on one
    # automaton of the premises, and the four budget_used values when
    # obligation sets began to drop every member another member implies
    monkeypatch.delenv("DECSTRUCT_COLOR", raising=False)
    digest = hashlib.sha256()
    commands = corpus_json_commands()
    for argv in commands:
        code, out, err = run(capsys, "--format", "json", *argv)
        digest.update(("%d\0%s\0%s\0" % (code, out, err)).encode())
    assert len(commands) == 82
    assert digest.hexdigest() == \
        "d4de14a170b5fb85d290d7fbf58875d7731e14e06878931f92b0b149d8e2edaa"

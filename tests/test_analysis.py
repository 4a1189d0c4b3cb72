"""Complexity numbers, architecture classification, FSM export."""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import decstruct
from decstruct import (
    ArchError,
    DecisionStructure,
    Leaf,
    Op,
    Pred,
    StructureError,
    classify,
    complexity_report,
    compress,
    construct_bt,
    construct_dt,
    construct_kbt,
    cyclomatic,
    decompose,
    essential,
    export_fsm,
    extract_dt,
    extract_kbt,
    format_arch,
    format_structure,
    parse_arch,
    relabelings,
)
import decstruct.analysis as analysis
import decstruct.modules as modules
from decstruct.analysis import classify_text
from conftest import structure
from oracles import (rand_arch_text, rand_pred_term, rand_structure,
                     rand_term, seeded)

# name -> (nodes, arcs, cyclomatic, essential)
COMPLEXITY = {
    "z1": (11, 11, 6, 2),
    "z2": (14, 22, 10, 2),
    "k": (7, 8, 4, 2),
    "q": (7, 12, 7, 1),
    "k2": (7, 10, 5, 2),
    "q2": (9, 14, 7, 1),
    "z3": (14, 25, 13, 2),
    "z4": (16, 29, 15, 1),
    "bt_example": (8, 12, 6, 1),
    "btswitch": (9, 12, 5, 1),
    "not_bt": (5, 6, 3, 2),
}


@pytest.mark.parametrize("name", sorted(COMPLEXITY))
def test_complexity_table(name):
    z = structure(name)
    n, a, cyc, ess = COMPLEXITY[name]
    assert (len(z.nodes), len(z.arcs)) == (n, a)
    assert cyclomatic(z) == cyc
    assert essential(z) == ess


def test_single_node_scores_one():
    z = DecisionStructure([("x", "act")], [])
    assert cyclomatic(z) == 1
    assert essential(z) == 1


def test_witnesses():
    rep = complexity_report(structure("not_bt"))
    assert rep["witness"] == ["a", "b", "c", "d"]
    rep = complexity_report(structure("z2"))
    assert rep["essential"] == 2
    # the irreducible part of z2 contains the battery/weather dispatch
    assert "calm" in rep["witness"] and "Avoid" in rep["witness"]


def test_classify_flags():
    c = classify(structure("btswitch"))
    assert c["is_kbt"] and c["is_bt"] and not c["is_tr"] and not c["is_dt"]
    c = classify(structure("z4"))
    assert c["is_kbt"] and not c["is_bt"]  # three labels in play
    assert c["k"] == 3
    c = classify(structure("not_bt"))
    assert not c["is_kbt"] and not c["is_bt"] and c["kbt"] is None


def test_classify_tr_chain():
    z = DecisionStructure(
        [("watch", "watch"), ("steer", "steer"), ("brake", "brake")],
        [("watch", "steer", "d"), ("steer", "brake", "d")])
    c = classify(z)
    assert c["is_tr"] and c["is_bt"] and c["is_kbt"]
    assert c["tr"] == ["watch", "steer", "brake"]


def test_classify_dt():
    z = DecisionStructure(
        [("wet", "wet"), ("walk", "walk"), ("cold", "cold"),
         ("coat", "coat"), ("tee", "tee")],
        [("wet", "walk", "top"), ("wet", "cold", "bot"),
         ("cold", "coat", "top"), ("cold", "tee", "bot")])
    c = classify(z)
    assert c["is_dt"]
    assert format_arch(c["dt"]) == "(dt wet walk (dt cold coat tee))"
    assert not classify(structure("bt_example"))["is_dt"]


def test_extract_dt_requires_binary_tree_shape():
    assert extract_dt(structure("btswitch")) is None
    single = DecisionStructure([("x", "act")], [])
    assert format_arch(extract_dt(single)) == "act"


def test_classify_text_mentions_witness():
    text = classify_text(classify(structure("not_bt")))
    assert "essential   2" in text
    assert "witness     {a,b,c,d}" in text
    assert "kbt         no" in text


def test_relabelings_of_not_bt_never_give_a_bt():
    z = structure("not_bt")
    count = 0
    for variant in relabelings(z, ("s", "f")):
        count += 1
        assert not classify(variant)["is_bt"]
    assert count == 16


def test_relabelings_can_recover_a_bt():
    z = construct_bt(construct_term())
    hits = sum(classify(v)["is_bt"] for v in relabelings(z, ("s", "f")))
    assert hits >= 1


def construct_term():
    from decstruct import Leaf, Op
    return Op("f", [Op("s", [Leaf("a"), Leaf("b")]), Leaf("c")])


def test_export_fsm_frozen():
    z = DecisionStructure(
        [("a", "check"), ("b", "stop")], [("a", "b", "s")])
    assert export_fsm(z) == (
        "fsm v1\n"
        "init a\n"
        "state a check\n"
        "state b stop\n"
        "trans a b s\n"
        "trans a a update\n"
        "trans b a update\n")


def test_export_fsm_counts():
    for name in ("z1", "z4"):
        z = structure(name)
        lines = export_fsm(z).strip().split("\n")
        assert len(lines) == 2 + 2 * len(z.nodes) + len(z.arcs)


def test_classify_invariant_survives_optimized_python(monkeypatch):
    # a broken invariant raises StructureError, not an assert that -O strips
    monkeypatch.setattr(analysis, "_kbt_term", lambda tree: None)
    with pytest.raises(StructureError, match="essential complexity is 1"):
        classify(structure("btswitch"))


def deep_alternating(n):
    """(seq a0 (fb a1 (seq a2 ... a<n-1>)))"""
    term = Leaf("a%d" % (n - 1))
    for i in range(n - 2, -1, -1):
        term = Op("sf"[i % 2], [Leaf("a%d" % i), term])
    return construct_kbt(term)


@pytest.mark.parametrize("z", [structure("btswitch"), deep_alternating(20)],
                         ids=["btswitch", "deep_alternating"])
def test_modules_and_decomposition_are_computed_once(monkeypatch, z):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("_sweeps", "find_modules", "is_module"):
        monkeypatch.setattr(modules, name,
                            counted(name, getattr(modules, name)))
    # levels are read off z itself: no sub-structure is built
    monkeypatch.setattr(DecisionStructure, "induced",
                        counted("induced", DecisionStructure.induced))
    monkeypatch.setattr(analysis, "decompose",
                        counted("decompose", analysis.decompose))
    modules.decompose(z)
    assert calls == ["_sweeps"]
    calls.clear()
    classify(z)
    assert calls == ["decompose", "_sweeps"]


def comb(n):
    """An n-level decision-tree comb: a top spine s0 ... s<n-1> with a bot
    leaf l<i> at each level but the last."""
    nodes = [("s%d" % i, "s%d" % i) for i in range(n)]
    nodes += [("l%d" % i, "l%d" % i) for i in range(n - 1)]
    arcs = [a for i in range(n - 1) for a in (
        ("s%d" % i, "s%d" % (i + 1), "top"), ("s%d" % i, "l%d" % i, "bot"))]
    return DecisionStructure(nodes, arcs)


def test_extract_dt_of_small_combs_and_random_trees():
    assert format_arch(extract_dt(comb(3))) == "(dt s0 (dt s1 s2 l1) l0)"
    assert classify_text(classify(comb(4))).splitlines()[-2:] == [
        "dt          yes", "    (dt s0 (dt s1 (dt s2 s3 l2) l1) l0)"]
    rng = seeded(31)
    for _ in range(200):
        term = rand_pred_term(rng, max_depth=5)
        assert extract_dt(construct_dt(term)) == term


def test_classify_deep_comb_without_recursion():
    # 250 levels at a recursion limit of 120; decompose grows faster than
    # linearly on combs, so a deeper one would take seconds. The extracted
    # term is rebuilt and compared as a structure, as == would recurse
    code = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, %r)
        from decstruct import (classify, construct_dt, extract_dt,
                               structurally_equivalent)
        from test_analysis import comb
        z = comb(250)
        sys.setrecursionlimit(120)
        c = classify(z)
        back = construct_dt(extract_dt(z))
        out = [c["is_dt"], len(back.nodes),
               structurally_equivalent(back, z) is not None]
        sys.setrecursionlimit(1000)
        print(json.dumps(out))
    """ % os.path.dirname(__file__))
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [True, 499, True]


def _text_or_error(fn, term):
    """fn(term), or its error's type and message."""
    try:
        return fn(term)
    except (ArchError, AttributeError) as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def test_tree_passes_are_pinned_on_random_inputs():
    # the sha256 of every output below, in order, first computed before
    # the tree passes became rules over logic.fold: the decomposition of
    # random structures and k-BT structures (repr, to_dict JSON with its
    # key order, extracted operator tree); every random term read over
    # every head, printed, compressed and built as a BT, errors included;
    # and predicate trees extracted under three label pairs
    rng = seeded(1515)
    digest = hashlib.sha256()

    def pin(text):
        digest.update(text.encode() + b"\0")

    for i in range(1000):
        if i % 2:
            z = construct_kbt(rand_term(rng, labels=("s", "f", "m"),
                                        max_leaves=rng.randint(1, 14)))
        else:
            z = rand_structure(rng, rng.randint(1, 12))
        d = decompose(z)
        pin(repr(d))
        pin(json.dumps(d.to_dict()))
        kbt = extract_kbt(z)
        pin("-" if kbt is None else format_arch(kbt))
    terms = 0
    for _ in range(3000):
        try:
            term = parse_arch(rand_arch_text(rng, rng.randint(0, 4)))
        except ArchError:
            continue
        terms += 1
        pin(format_arch(term))
        pin(_text_or_error(lambda t: format_arch(compress(t)), term))
        pin(_text_or_error(lambda t: format_structure(construct_bt(t)), term))
    assert terms > 2000
    for _ in range(300):
        z = construct_dt(rand_pred_term(rng, max_depth=5))
        for yes, no in (("top", "bot"), ("y", "n"), ("bot", "x")):
            arcs = [(t, h, yes if r == "top" else no) for t, h, r in z.arcs]
            pin(format_arch(extract_dt(DecisionStructure(z.nodes, arcs))))
    assert digest.hexdigest() == \
        "ec1800e50e23524b19a6c555ae2abb21780fcce8abe8ae1530508b0726b13551"

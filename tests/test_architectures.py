"""Construction maps (operator trees, action lists, predicate trees) and
extraction back out of the graph form."""

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
    compress,
    construct_bt,
    construct_dt,
    construct_kbt,
    construct_tr,
    derived_return,
    extract_kbt,
    format_arch,
    parse_arch,
    structurally_equivalent,
)
from conftest import structure
from oracles import (ARCH_TOKENS, all_states, oracle_compress,
                     oracle_construct_kbt, oracle_parse_arch, rand_arch_text,
                     rand_term, rand_tokens, seeded, tick_term)


def test_construct_kbt_single_leaf():
    z = construct_kbt(Leaf("ping"))
    assert z.nodes == [("ping", "ping")]
    assert z.arcs == []


def test_construct_bt_frozen_arcs():
    # (fb (seq a b) c): a --s--> b; a,b --f--> c
    z = construct_bt(Op("f", [Op("s", [Leaf("a"), Leaf("b")]), Leaf("c")]))
    assert sorted(z.arcs) == [("a", "b", "s"), ("a", "c", "f"),
                              ("b", "c", "f")]
    assert z.source == "a"


def test_construct_kbt_three_labels():
    term = Op("m", [Op("s", [Leaf("a"), Leaf("b")]), Leaf("c")])
    z = construct_kbt(term)
    # m climbs to the root operator, s stays inside the inner one
    assert sorted(z.arcs) == [("a", "b", "s"), ("a", "c", "m"),
                              ("b", "c", "m")]


def test_construct_kbt_repeated_actions_get_fresh_ids():
    z = construct_kbt(Op("s", [Leaf("go"), Leaf("go"), Leaf("go")]))
    assert z.node_ids() == ["go", "go2", "go3"]
    assert [z.action_of[v] for v in z.node_ids()] == ["go", "go", "go"]


def test_construct_bt_rejects_other_labels():
    with pytest.raises(ArchError):
        construct_bt(Op("m", [Leaf("a"), Leaf("b")]))


def test_construct_tr_chain():
    z = construct_tr([Leaf("watch"), Leaf("steer"), Leaf("brake")])
    assert z.arcs == [("watch", "steer", "d"), ("steer", "brake", "d")]
    # a teleo-reactive program is the one-label k-BT over its actions
    y = construct_kbt(Op("d", [Leaf("watch"), Leaf("steer"), Leaf("brake")]))
    assert (y.nodes, y.arcs) == (z.nodes, z.arcs)
    assert construct_tr(["go", "go"]).nodes == [("go", "go"), ("go2", "go")]
    with pytest.raises(ArchError):
        construct_tr([])


def test_construct_kbt_and_bt_follow_the_climbing_rule():
    # repeated actions, and "a2" next to a repeated "a", exercise both
    # ways of naming nodes; nodes and arcs must match in order
    rng = seeded(1010)
    for _ in range(600):
        labels = tuple(rng.sample(("s", "f", "m"), rng.randint(1, 3)))
        term = rand_term(rng, labels=labels, max_leaves=rng.randint(1, 12),
                         actions=["a", "a2", "b", "go"])
        want = oracle_construct_kbt(term)
        z = construct_kbt(term)
        assert (z.nodes, z.arcs) == want, term
        if "(op m " in format_arch(term):
            with pytest.raises(ArchError):
                construct_bt(term)
        else:
            z = construct_bt(term)
            assert (z.nodes, z.arcs) == want, term


def test_construct_deep_term_without_recursion():
    # a 1,200-deep alternating s/f term and a 1,200-deep seq chain, read,
    # built, compressed and written back at a low recursion limit; the
    # terms are compared as text, since == on nested terms recurses too
    code = textwrap.dedent("""
        import json, sys
        from decstruct import (compress, construct_bt, construct_kbt,
                               format_arch, parse_arch)
        n = 1201
        text = chain = "a%d" % (n - 1)
        for i in reversed(range(n - 1)):
            text = "(%s a%d %s)" % ("seq" if i % 2 == 0 else "fb", i, text)
            chain = "(seq a%d %s)" % (i, chain)
        sys.setrecursionlimit(120)
        term = parse_arch(text)
        out = [[z.nodes, z.arcs]
               for z in (construct_kbt(term), construct_bt(term))]
        out += [format_arch(term) == text,
                format_arch(compress(term)) == text,
                format_arch(compress(parse_arch(chain)))]
        sys.setrecursionlimit(1000)
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=120)
    assert run.returncode == 0, run.stderr
    n = 1201
    want = [[["a%d" % i] * 2 for i in range(n)],
            [["a%d" % i, "a%d" % (i + 1), "sf"[i % 2]] for i in range(n - 1)]]
    flat = "(seq %s)" % " ".join("a%d" % i for i in range(n))
    assert json.loads(run.stdout) == [want, want, True, True, flat]


def test_construct_dt_shape():
    term = Pred("wet", Leaf("walk"), Pred("cold", Leaf("coat"), Leaf("tee")))
    z = construct_dt(term)
    assert sorted(z.arcs) == [
        ("cold", "coat", "top"), ("cold", "tee", "bot"),
        ("wet", "cold", "bot"), ("wet", "walk", "top")]


def test_compress_flattens_and_drops_unary():
    term = Op("s", [Op("s", [Leaf("a"), Leaf("b")]), Op("f", [Leaf("c")])])
    assert compress(term) == Op("s", [Leaf("a"), Leaf("b"), Leaf("c")])
    assert compress(Op("s", [Leaf("a")])) == Leaf("a")


def test_extract_kbt_frozen_corpus_trees():
    assert format_arch(extract_kbt(structure("bt_example"))) == \
        "(fb (seq a b c) (seq (fb d e) f g) h)"
    assert format_arch(extract_kbt(structure("btswitch"))) == \
        "(fb (seq a b) (seq c (fb (seq (fb d e f) g) (seq h i))))"


def test_extract_kbt_none_for_prime_structures():
    assert extract_kbt(structure("not_bt")) is None
    assert extract_kbt(structure("z1")) is None


def test_extract_construct_roundtrip_on_corpus():
    for name in ("bt_example", "btswitch", "z4", "q", "q2"):
        z = structure(name)
        term = extract_kbt(z)
        assert term is not None, name
        assert structurally_equivalent(construct_kbt(term), z), name


def test_parse_format_roundtrip():
    text = "(fb (seq a b c) (seq (fb d e) f g) h)"
    assert format_arch(parse_arch(text)) == text
    term = parse_arch("(op m a (op s b c))")
    assert term == Op("m", [Leaf("a"), Op("s", [Leaf("b"), Leaf("c")])])
    assert parse_arch("(tr a b)") == [Leaf("a"), Leaf("b")]
    assert parse_arch("(dt p a b)") == Pred("p", Leaf("a"), Leaf("b"))
    assert parse_arch("solo") == Leaf("solo")


def test_parse_arch_rejects_malformed_terms():
    for bad in ("(seq a", "(seq a))", "(wat a b)", "(dt p a)", "(op)", ")"):
        with pytest.raises(ArchError):
            parse_arch(bad)


def _outcome(fn, x):
    """fn(x), or the error's type and message (terms are tuples too)."""
    try:
        return fn(x), None
    except (ArchError, AttributeError) as exc:
        return None, "%s: %s" % (type(exc).__name__, exc)


def test_parse_arch_and_compress_match_the_recursive_oracles():
    # random terms over every head, some with the wrong arguments, and
    # random token strings, against the recursive reader; every term read
    # is compressed too, against the recursive compress (a (tr ...) list
    # has no children to compress, and both say so)
    rng = seeded(1313)
    texts = [rand_arch_text(rng, rng.randint(0, 4)) for _ in range(40000)]
    texts += [rand_tokens(rng, ARCH_TOKENS, 12) for _ in range(30000)]
    terms, errors = [], set()
    for text in texts:
        term, error = _outcome(parse_arch, text)
        assert (term, error) == _outcome(oracle_parse_arch, text), text
        if error:
            errors.add(error.split(" ")[1])
        else:
            terms.append(term)
    assert 30000 < len(terms) < 40000
    assert errors == {"unexpected", "missing", "trailing", "(op", "(tr",
                      "(dt", "unknown"}
    for term in terms:
        assert _outcome(compress, term) == _outcome(oracle_compress, term), \
            term


def test_tick_matches_derived_return_small():
    term = parse_arch("(fb (seq a b) (seq c d))")
    z = construct_bt(term)
    for state in all_states(["a", "b", "c", "d"], ("s", "f", "x")):
        assert derived_return(z, state) == tick_term(term, state), state


def test_tick_matches_derived_return_dt():
    term = parse_arch("(dt wet walk (dt cold coat tee))")
    z = construct_dt(term)
    for state in all_states(["wet", "cold", "walk", "coat", "tee"],
                            ("top", "bot")):
        assert derived_return(z, state) == tick_term(term, state)

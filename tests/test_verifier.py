"""Tableau verifier: entailment, lasso counterexamples, replacement checks."""

import hashlib
import itertools

import pytest

from decstruct import (
    DecisionStructure,
    MissingSpec,
    NotAModule,
    ResourceLimit,
    check_action_replacement,
    check_module_replacement,
    entails,
    export_obligation,
    parse_actions,
    parse_ltl,
    parse_world,
    verify,
)
from decstruct.verifier import compile_nnf
from oracles import (all_lassos, holds_on_lasso, rand_entailment,
                     replay_world, seeded)


def w2():
    return parse_world("bool p\nbool q\n")


def test_entails_propositional():
    w = w2()
    assert entails(w, [parse_ltl("p")], parse_ltl("p | q")).holds
    v = entails(w, [parse_ltl("p")], parse_ltl("q"))
    assert not v.holds
    assert not v  # Verdict is falsy on failure
    assert v.counterexample is not None


def test_entails_temporal():
    w = w2()
    assert entails(w, [parse_ltl("G p")], parse_ltl("X X p")).holds
    assert entails(w, [parse_ltl("p & G (p -> X p)")],
                   parse_ltl("G p")).holds
    assert entails(w, [parse_ltl("F p"), parse_ltl("G (p -> q)")],
                   parse_ltl("F q")).holds
    assert entails(w, [parse_ltl("p U q")], parse_ltl("F q")).holds
    assert not entails(w, [parse_ltl("F p")], parse_ltl("X p")).holds
    assert not entails(w, [], parse_ltl("G (p | !p) & F q | G !q")).holds is False


def test_entails_vacuous_premises():
    w = w2()
    # contradictory premises entail anything
    assert entails(w, [parse_ltl("p & !p")], parse_ltl("q")).holds
    assert entails(w, [parse_ltl("p"), parse_ltl("!p")],
                   parse_ltl("G q")).holds


def test_counterexample_is_a_real_lasso():
    w = w2()
    premises = [parse_ltl("p"), parse_ltl("G (p -> X q)")]
    conclusion = parse_ltl("G q")
    v = entails(w, premises, conclusion)
    assert not v.holds
    tr = v.counterexample
    assert len(tr.cycle) >= 1
    for f in premises:
        assert holds_on_lasso(w, f, tr.prefix, tr.cycle)
    assert not holds_on_lasso(w, conclusion, tr.prefix, tr.cycle)
    # pairs() walks consecutive steps including the wrap-around
    pairs = tr.pairs()
    assert len(pairs) == len(tr.prefix) + len(tr.cycle)
    states = tr.states()
    assert states == tr.prefix + tr.cycle
    assert "loop" in tr.render(w)


def test_counterexample_to_dict():
    w = w2()
    v = entails(w, [], parse_ltl("F p"))
    d = v.counterexample.to_dict(w)
    assert set(d) == {"prefix", "cycle"}


def test_entails_budget():
    w = w2()
    with pytest.raises(ResourceLimit):
        entails(w, [parse_ltl("G (p -> X q) & G (q -> X p)")],
                parse_ltl("G F (p & q)"), limit=3)


def test_verify_budget_names_the_conjunct():
    w = parse_world("bool p\nbool q\ninit: p\n")
    z = DecisionStructure([("a", "A")], [])
    specs = parse_actions("action A { model: X p; }")
    with pytest.raises(ResourceLimit) as exc:
        verify(z, w, specs, parse_ltl("G p & F q"), limit=3)
    assert exc.value.limit == 3
    assert exc.value.conjunct == (1, 2, parse_ltl("G p"))
    assert "on conjunct 1 of 2: G p" in str(exc.value)


def test_valid_propositional_phi_keeps_its_init_state():
    # premises & !conclusion compiles to the full mask: the init state
    # still steps to the empty state instead of being it
    v = entails(w2(), [], parse_ltl("p & !p"))
    assert v.stats["automaton_states"] == 2
    assert (v.counterexample.prefix, v.counterexample.cycle) == \
        ([(0, 0)], [(0, 0)])


# sha256 over the first 300 seed-606 entailment questions on the 12-state
# world of the lasso checks: each verdict, automaton size, budget used and
# counterexample, one repr per line.
REPLAY_DIGEST = \
    "091572809be00b6cce84d0ce1ae253b9082824528850b48e0636045c97cecda7"


def test_entails_observables_are_pinned():
    rng = seeded(606)
    w, atoms = replay_world()
    rows = []
    for _ in range(300):
        v = entails(w, *rand_entailment(rng, atoms))
        tr = v.counterexample
        rows.append(repr((v.holds, v.stats["automaton_states"],
                          v.stats["budget_used"], tr and tr.prefix,
                          tr and tr.cycle)))
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == REPLAY_DIGEST


def test_proved_entailments_survive_every_short_lasso():
    """No lasso of up to three states that satisfies the premises refutes
    a conclusion entails() proves."""
    rng = seeded(606)
    w, atoms = replay_world()
    states = list(itertools.product(
        *[range(len(values)) for _, values, _ in w.variables]))
    lassos = list(all_lassos(states, 3))
    proved = 0
    for _ in range(300):
        premises, conclusion = rand_entailment(rng, atoms)
        if not entails(w, premises, conclusion).holds:
            continue
        proved += 1
        for prefix, cycle in lassos:
            if all(holds_on_lasso(w, f, prefix, cycle) for f in premises):
                assert holds_on_lasso(w, conclusion, prefix, cycle), \
                    (premises, conclusion, prefix, cycle)
    assert proved >= 30


def test_entails_bound_reports_non_exhaustive():
    w = w2()
    v = entails(w, [parse_ltl("p")], parse_ltl("q"), bound=0)
    assert v.holds  # nothing explored within the bound...
    assert v.stats["bounded"]
    assert not v.stats["exhausted"]  # ...so the pass is inconclusive
    full = entails(w, [parse_ltl("p")], parse_ltl("q"))
    assert not full.holds
    assert full.stats["exhausted"]


def test_compile_nnf_masks_propositional_subformulas():
    w = w2()
    f = compile_nnf(w, parse_ltl("p & (q | !p)"))
    assert f[0] == "mask"
    g = compile_nnf(w, parse_ltl("!(F p)"))
    assert g[0] == "release"
    h = compile_nnf(w, parse_ltl("!(p U q)"))
    assert h[0] == "release"
    x = compile_nnf(w, parse_ltl("!X p"))
    assert x == ("next", compile_nnf(w, parse_ltl("!p")))


def aspec():
    return parse_actions("""
        action Old { model: G (p -> X p); returns s: p; returns f: !p; }
        action New { model: G (p -> X p) & F q; returns s: p; returns f: !p; }
        action Shifted { model: G (p -> X p); returns s: q; returns f: !q; }
        action Weak { model: F p; returns s: p; returns f: !p; }
    """)


def test_action_replacement_accepts_stronger_model():
    w = w2()
    rep = check_action_replacement(w, aspec(), "Old", "New")
    assert rep.ok and bool(rep)
    assert rep.returns["s"]["equal"] and rep.returns["f"]["equal"]
    assert rep.behavior.holds


def test_action_replacement_rejects_shifted_returns():
    w = w2()
    rep = check_action_replacement(w, aspec(), "Old", "Shifted")
    assert not rep.ok
    assert not rep.returns["s"]["equal"]


def test_action_replacement_rejects_weaker_model():
    w = w2()
    rep = check_action_replacement(w, aspec(), "Old", "Weak")
    assert not rep.ok
    assert rep.returns["s"]["equal"]
    assert not rep.behavior.holds
    assert rep.behavior.counterexample is not None


def test_action_replacement_unknown_action():
    with pytest.raises(MissingSpec):
        check_action_replacement(w2(), aspec(), "Old", "Nope")


def module_fixture():
    z = DecisionStructure(
        [("a", "A"), ("b", "B"), ("c", "C"), ("d", "D")],
        [("a", "b", "s"), ("b", "c", "s"), ("a", "c", "f"),
         ("c", "d", "s")])
    specs = parse_actions("""
        action A { returns s: p; returns f: !p; }
        action B { returns s: q; }
        action C { returns s: p | q; }
        action D { }
        action E { returns s: q; }
    """)
    return z, specs


def test_module_replacement_equal_stand_in():
    z, specs = module_fixture()
    w = w2()
    q = DecisionStructure([("e", "E")], [("e", "c", "s")][:0])
    # a lone node returning s under q, just like module {b}
    rep = check_module_replacement(z, {"b"}, q, w, specs)
    assert rep.ok
    assert rep.returns["s"]["equal"]


def test_module_replacement_rejects_new_visible_return():
    z, specs = module_fixture()
    w = w2()
    stand_in = DecisionStructure([("e", "A")], [])
    # A can return f, which the module {b} never emits toward c
    rep = check_module_replacement(z, {"b"}, stand_in, w, specs)
    assert not rep.ok
    assert rep.returns["f"]["required_zero"]
    assert rep.returns["f"]["new"] != 0


def test_module_replacement_requires_a_module():
    z, specs = module_fixture()
    with pytest.raises(NotAModule):
        check_module_replacement(z, {"a", "c"},
                                 DecisionStructure([("e", "E")], []),
                                 w2(), specs)


def test_module_replacement_sink_mode():
    z, specs = module_fixture()
    w = w2()
    stand_in = DecisionStructure([("e", "E")], [])
    rep = check_module_replacement(z, {"d"}, stand_in, w, specs)
    assert rep.notes and "invisible" in rep.notes[0]
    assert rep.returns == {}


def test_verify_small_world_end_to_end():
    w = parse_world("bool p\nbool q\ninit: p\n")
    z = DecisionStructure([("a", "A"), ("b", "B")], [("a", "b", "s")])
    specs = parse_actions("""
        action A { model: X p; returns s: p; returns f: !p; }
        action B { model: X p & (q -> X q); }
    """)
    v = verify(z, w, specs, parse_ltl("G p"))
    assert v.holds
    v2 = verify(z, w, specs, parse_ltl("G p & F !p"))
    assert not v2.holds
    assert v2.conclusion == parse_ltl("F !p")
    assert v2.stats["conjuncts"] == 2


def test_export_obligation_text(world, specs, spec_formula):
    from conftest import structure
    text = export_obligation(structure("z1"), world, specs, spec_formula)
    lines = text.strip().split("\n")
    assert lines[0] == "obligation v1"
    assert lines[1].startswith("premise init: ")
    assert sum(1 for l in lines if l.startswith("premise always (")) == 4
    assert sum(1 for l in lines if l.startswith("conclude: ")) == 2
    assert "premise always (step): " in text

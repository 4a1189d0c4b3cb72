"""Tableau verifier: entailment, lasso counterexamples, replacement checks."""

import hashlib
import itertools
import time

import pytest

from decstruct import (
    DecisionStructure,
    LogicError,
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
from decstruct import logic, verifier
from decstruct.logic import f_and, f_not
from decstruct.verifier import (Budget, _accepting_sccs, _Automaton,
                                _bfs_edges, _build, _extract_lasso, _group,
                                _premises, _sccs, compile_nnf)
from conftest import structure
from oracles import (all_lassos, bfs_order, concrete_edges, flat_merge,
                     flat_product, holds_on_lasso, kosaraju_sccs,
                     oracle_accepting_sccs, oracle_lasso, oracle_undominated,
                     rand_entailment, replay_world, seeded,
                     unfiltered_merge, unfiltered_product)


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


def automaton(world, premises, conclusion, bound=None):
    phi = compile_nnf(world, f_and(list(premises) + [f_not(conclusion)]))
    return _build(world, phi, Budget(5_000_000), bound=bound)


def parsed_automaton(world, premises, conclusion):
    return automaton(world, [parse_ltl(f) for f in premises],
                     parse_ltl(conclusion))


def check_automaton(world, auto):
    """Compare the successor lists, the state order, the SCC search,
    acceptance and the lasso with independent checks on the spelled-out
    edges; return (edges, distinct (state, successor) pairs)."""
    edges = concrete_edges(auto)
    assert list(auto.succs) == bfs_order(edges, auto.init)
    graph = {st: {succ for _, succ, _ in out} for st, out in edges.items()}
    for st, succs in graph.items():
        got = [g[0] for g in auto.succs[st]]
        assert len(got) == len(succs) and set(got) == succs, st
    comps = kosaraju_sccs(graph)
    assert {frozenset(c) for c in _sccs(auto)} == set(comps)
    accepting = _accepting_sccs(auto)
    want = oracle_accepting_sccs(edges, comps, auto.all_bits)
    assert {frozenset(c) for c in accepting} == set(want)
    if accepting:
        tr = _extract_lasso(world, auto, accepting)
        assert (tr.prefix, tr.cycle) == oracle_lasso(
            world, auto.init, edges, want, len(auto.conditions))
    return (sum(len(out) for out in edges.values()),
            sum(len(g) for g in auto.succs.values()))


# (concrete edges, distinct (state, successor) pairs) of the automaton of
# each conjunct of the corpus spec, by structure and conjunct index.
CONJUNCT_EDGES = {
    ("z1", 0): (250984, 250984), ("z1", 1): (80212, 80212),
    ("z2", 0): (105824, 105824), ("z2", 1): (63453, 63453),
    ("z3", 0): (70445, 70445), ("z3", 1): (40398, 40398),
    ("z4", 0): (63245, 63245), ("z4", 1): (40398, 40398),
}


# Questions on the 12-state world whose automata have a state that meets
# a successor first through a later cover than the one that opens its
# group, so that the groups and the concrete edges list successors in
# different orders. The first two hold; the others fail.
REORDERED = [
    (["(q | X X p) & (m0 & F (m1 U m2))", "!X (q & m2)"],
     "F (X G m1 | (m0 & m0) U X m2)"),
    (["F G (m0 & m0)", "G X F m2"],
     "(F m0 | !X q) & (X m2 & m1 | F m0 & !m1)"),
    (["X F m0 U ((q U m1) U (p | p) | F (m0 | m0))", "!X m0 U X p"],
     "!(q U (m1 | p))"),
    (["(q | m1) U G q & F (m1 | m2)",
      "(m0 | X G m1) U X F m0 U (m1 | m1) U F m2"], "X m0"),
    (["(X m1 U p U q) U X !p", "X F m0 U (F m1 & (m1 | m2))"],
     "F (q U p)"),
]


# A failing question whose lasso starts with the first edge, in cover
# order, into an accepting SCC, which is not the first such edge of the
# successor groups taken in group order.
FIRST_GOAL_EDGE = (["X !m1", "G X F F m1", "m0"], "p")


# A question whose automaton has an SCC that the accept unions of its
# successor groups would call accepting, though the edges of its states
# never discharge every condition: the entailment holds.
UNION_OVERSTATES = (["G X q", "X X m1 | X !!p"],
                    "(F (q & m1) & G G m1) U X X G q")


def test_automaton_matches_checks_on_spelled_out_edges():
    rng = seeded(606)
    w, atoms = replay_world()
    for _ in range(300):
        premises, conclusion = rand_entailment(rng, atoms)
        for bound in (None, 2):
            check_automaton(w, automaton(w, premises, conclusion, bound))
    for premises, conclusion in REORDERED:
        auto = parsed_automaton(w, premises, conclusion)
        check_automaton(w, auto)
        assert any([g[0] for g in auto.succs[st]] !=
                   list(dict.fromkeys(succ for _, succ, _ in out))
                   for st, out in concrete_edges(auto).items())
    check_automaton(w, parsed_automaton(w, *FIRST_GOAL_EDGE))
    auto = parsed_automaton(w, *UNION_OVERSTATES)
    check_automaton(w, auto)
    unions = []
    for comp in _sccs(auto):
        union = 0
        for st in comp:
            for succ, _, acc, _ in auto.succs[st]:
                if succ in comp:
                    union |= acc
        unions.append(union)
    assert auto.all_bits in unions and not _accepting_sccs(auto)


def keeping_every_cover(monkeypatch, *question):
    """automaton(*question) built with no cover dropped as dominated."""
    with monkeypatch.context() as patch:
        patch.setattr(verifier._Tableau, "product", unfiltered_product)
        patch.setattr(verifier._Tableau, "merge", unfiltered_merge)
        return automaton(*question)


def observables(world, auto):
    """What an automaton shows, each state named by its (obligation bits,
    mask) rather than its id: the verdict, the states in queue order (so
    also their count), each state's successor set, the SCCs, the
    accepting SCCs and the lasso."""
    name = auto.states.__getitem__
    accepting = _accepting_sccs(auto)
    tr = accepting and _extract_lasso(world, auto, accepting)
    return (not accepting, [name(st) for st in auto.succs],
            {name(st): {name(g[0]) for g in out}
             for st, out in auto.succs.items()},
            {frozenset(map(name, c)) for c in _sccs(auto)},
            {frozenset(map(name, c)) for c in accepting},
            tr and (tr.prefix, tr.cycle))


def checking_products(monkeypatch):
    """Make every _Tableau.product and merge assert that its covers equal
    the flat dict's filtered by oracle_undominated, order included; return
    the counts [calls, calls where some (next bits, next mask) repeats]."""
    calls = [0, 0]
    real_product = verifier._Tableau.product
    real_merge = verifier._Tableau.merge

    def check(covers, flat):
        assert covers == oracle_undominated(flat)
        calls[0] += 1
        calls[1] += len({(b, n) for b, n, _ in flat}) < len(flat)
        return covers

    def product(tableau, left, right):
        return check(real_product(tableau, left, right),
                     flat_product(tableau, left, right))

    def merge(tableau, covers):
        return check(real_merge(tableau, covers), flat_merge(tableau, covers))

    monkeypatch.setattr(verifier._Tableau, "product", product)
    monkeypatch.setattr(verifier._Tableau, "merge", merge)
    return calls


def test_corpus_automata_match_checks_on_spelled_out_edges(
        monkeypatch, world, specs, spec_formula):
    """Each conjunct's automaton passes the spelled-out checks, and shows
    the same observables as the one built keeping dominated covers. Every
    product and merge of its build matches the flat filter."""
    assert spec_formula[0] == "and"
    for (name, i), counts in CONJUNCT_EDGES.items():
        question = (world, _premises(structure(name), world, specs),
                    spec_formula[1][i])
        with monkeypatch.context() as patch:
            calls = checking_products(patch)
            auto = automaton(*question)
        assert calls[1] > 0, (name, i)
        assert check_automaton(world, auto) == counts, (name, i)
        assert observables(world, auto) == observables(
            world, keeping_every_cover(monkeypatch, *question)), (name, i)


def test_products_match_the_flat_filter_call_by_call(monkeypatch):
    """product and merge drop dominated covers as they gather them; each
    result equals the flat dict filtered in a second pass, list order
    included, on random questions and on hand-built groups that take the
    general path."""
    calls = checking_products(monkeypatch)
    w, atoms = replay_world()
    rng = seeded(606)
    for _ in range(300):
        automaton(w, *rand_entailment(rng, atoms))
    rng = seeded(606)
    for _ in range(200):
        automaton(w, *rand_entailment(rng, atoms, depth=5))
    assert calls[0] > 15_000 and calls[1] > 500
    general = []
    real = verifier._undominated
    monkeypatch.setattr(verifier, "_undominated",
                        lambda covers: general.append(covers) or real(covers))
    tableau = verifier._Tableau(w, Budget(10 ** 6), ("mask", w.full_mask))
    full = w.full_mask
    groups = [
        # neither cover dominates the other: both stay in their slots
        [(0b011, 1, full, 0b01), (0b110, 1, full, 0b10)],
        # three covers share one (next bits, next mask) once the fourth
        # merges into the third: the third and the last each dominate the
        # first, and both move up before the cover of another pair
        [(0b001, 1, full, 0b11), (0b100, 2, full, 0), (0b010, 1, full, 0b01),
         (0b101, 1, full, 0b01), (0b011, 1, full, 0)],
        # the first cover dominates the second, and the third neither
        [(0b01, 1, 5, 0b01), (0b01, 1, 5, 0b11), (0b10, 1, 5, 0b10)],
    ]
    assert tableau.merge(groups[0]) == groups[0]
    assert tableau.merge(groups[1]) == [
        (0b111, 1, full, 0b01), (0b011, 1, full, 0), (0b100, 2, full, 0)]
    assert tableau.merge(groups[2]) == [groups[2][0], groups[2][2]]
    assert len(general) == 3
    rng = seeded(14)
    for _ in range(3000):
        groups.append([(rng.randrange(1, 8), rng.randrange(2),
                        rng.choice((full, 5)), rng.randrange(4))
                       for _ in range(rng.randrange(1, 7))])
    for covers in groups:
        tableau.merge(covers)
        tableau.product(covers, [(full, 0, full, 0)])
        tableau.product([(0b101, 4, full, 1)], covers)
    assert len(general) > 2000


# Questions on the 12-state world whose states are queued in another
# order if a dominating cover keeps its own slot, rather than taking the
# earliest slot of the covers it dominates.
SLOT_MOVES = [
    (["F F (!F m1 & (m0 | m1) U (m1 & p))",
      "G G (F p U m0 U m1) & (F q & ((G m1 | q) | X X q))"], "m1"),
    (["F G F (m1 U m2) U !G ((m1 & q) & q)",
      "m0 U (!(q | p) U p) U (m0 | G m1 & m0)"], "G m1"),
]


def test_dropping_dominated_covers_changes_no_observable(monkeypatch):
    """Random questions show the same automaton observables with and
    without the dominance filter of _Tableau.product and merge. The
    corpus conjuncts are compared in the test above, which builds them
    anyway."""
    real = verifier._covers
    drops = [0]

    def counting(out, side):
        gathered = len(out) + len(side)
        covers = real(out, side)
        drops[0] += len(covers) < gathered
        return covers

    monkeypatch.setattr(verifier, "_covers", counting)

    def same(*question):
        before = drops[0]
        auto = automaton(*question)
        fired = drops[0] > before
        assert observables(question[0], auto) == observables(
            question[0], keeping_every_cover(monkeypatch, *question)), \
            question
        return fired

    w, atoms = replay_world()
    rng = seeded(606)
    for _ in range(300):
        premises, conclusion = rand_entailment(rng, atoms)
        for bound in (None, 2):
            same(w, premises, conclusion, bound)
    # Depth-5 questions are where the filter drops covers.
    rng = seeded(606)
    fired = sum(same(w, *rand_entailment(rng, atoms, depth=5))
                for _ in range(200))
    assert fired >= 10
    for premises, conclusion in SLOT_MOVES:
        assert same(w, [parse_ltl(f) for f in premises],
                    parse_ltl(conclusion))


# verify() of z1 and z2 against the corpus spec with a bound: verdict,
# stats and counterexample (prefix, cycle). Unexpanded states take their
# own path through the build, the SCC search and the lasso search.
BOUNDED_RUNS = {
    ("z1", 1): (True, 130, 1819, None),
    ("z1", 2): (True, 778, 89999, None),
    ("z1", 3): (False, 2210, 225015,
                ([(3, 1, 1, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)],
                 [(2, 0, 0, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)])),
    ("z1", 5): (False, 3314, 312169,
                ([(3, 1, 1, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)],
                 [(2, 0, 0, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)])),
    ("z2", 1): (True, 114, 1791, None),
    ("z2", 2): (True, 658, 91275, None),
    ("z2", 3): (True, 1538, 180087, None),
    ("z2", 5): (True, 2306, 223769, None),
}


def test_bounded_verify_is_pinned(world, specs, spec_formula):
    for (name, bound), (holds, states, used, lasso) in BOUNDED_RUNS.items():
        v = verify(structure(name), world, specs, spec_formula, bound=bound)
        tr = v.counterexample
        assert v.holds == holds, (name, bound)
        assert v.stats == {"automaton_states": states, "budget_used": used,
                           "bounded": True, "exhausted": False,
                           "conjuncts": 2}, (name, bound)
        assert (tr and (tr.prefix, tr.cycle)) == lasso, (name, bound)


def test_bfs_edges_takes_new_states_in_cover_order():
    # State 0 allows only world state 1. Its covers meet successor 1
    # first (cover 0), but cover 0 misses state 0's mask, so its first
    # edge goes to successor 2 (cover 1). Both successors step to 3, so
    # the path to 3 depends on which of them the search queues first.
    w = w2()
    states = [(1, 0b10), (2, 0b11), (4, 0b11), (8, 0b11)]
    steps = {1: [(0b01, 1, 0), (0b10, 2, 0), (0b10, 1, 0)],
             2: [(0b11, 3, 0)], 4: [(0b11, 3, 0)], 8: [(0b11, 3, 1)]}
    succs = {}
    for st in (0, 2, 1, 3):
        bits, now = states[st]
        succs[st] = [g for g in _group(steps[bits]) if g[1] & now]
    assert [g[0] for g in succs[0]] == [1, 2]
    auto = _Automaton(states, succs, steps, ["c"], set())
    assert _bfs_edges(auto, 0, lambda succ, acc: succ == 3) == \
        [(0b10, 2, 0), (0b11, 3, 0)]
    check_automaton(w, auto)


def test_obligation_keys_sort_as_the_reprs(monkeypatch):
    """The tableau orders obligations and conditions by keys built over
    one walk; they sort as the reprs of their subformulas do."""
    tableaux = []

    class Recorded(verifier._Tableau):
        def __init__(self, world, budget, phi):
            super().__init__(world, budget, phi)
            tableaux.append((self, phi))

    monkeypatch.setattr(verifier, "_Tableau", Recorded)
    rng = seeded(606)
    w, atoms = replay_world()
    for depth in (None, 5):
        for _ in range(200):
            automaton(w, *rand_entailment(rng, atoms, depth=depth))
    pairs = 0
    for tableau, phi in tableaux:
        subformulas, stack = [], [phi]
        while stack:
            subformulas.append(stack.pop())
            stack += logic._parts(subformulas[-1])
        ordered = sorted(subformulas, key=lambda g: tableau.key[id(g)])
        for g, h in zip(ordered, ordered[1:]):
            assert repr(g) <= repr(h)
            assert (repr(g) == repr(h)) == (
                tableau.key[id(g)] == tableau.key[id(h)])
            pairs += 1
        assert tableau.conditions == sorted(tableau.conditions, key=repr)
        assert tableau.keys == [tableau.key[id(f)] for f in tableau.formulas]
    assert pairs > 4000


def test_mask_digits_have_no_length_limit():
    for n in (0, 1, 9, 10, 12345, 1 << 64, (1 << 864) - 1, 10 ** 1300):
        assert verifier._digits(n) == repr(n)
    rng = seeded(14)
    for bits in (4096, 4097, 16384, 100_003):
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        text = verifier._digits(n)
        assert text.isdigit() and text[0] != "0"
        back = 0
        for i in range(0, len(text), 1000):  # under the int-string limit
            back = back * 10 ** len(text[i:i + 1000]) + int(text[i:i + 1000])
        assert back == n


def test_norm_memo_matches_the_final_targets(monkeypatch):
    tableaux = []

    class Recorded(verifier._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            tableaux.append(self)

    monkeypatch.setattr(verifier, "_Tableau", Recorded)
    rng = seeded(606)
    w, atoms = replay_world()
    for _ in range(300):
        premises, conclusion = rand_entailment(rng, atoms)
        for bound in (None, 2):
            automaton(w, premises, conclusion, bound)
    assert len(tableaux) == 600
    for tableau in tableaux:
        for bits, normed in tableau.normed.items():
            assert tableau.norm(bits) == normed
    assert any(bits != normed for tableau in tableaux
               for bits, normed in tableau.normed.items())


def test_entails_bound_reports_non_exhaustive():
    w = w2()
    v = entails(w, [parse_ltl("p")], parse_ltl("q"), bound=0)
    assert v.holds  # nothing explored within the bound...
    assert v.stats["bounded"]
    assert not v.stats["exhausted"]  # ...so the pass is inconclusive
    full = entails(w, [parse_ltl("p")], parse_ltl("q"))
    assert not full.holds
    assert full.stats["exhausted"]


def test_entails_and_verify_refuse_a_negative_bound(world, specs,
                                                    spec_formula):
    # a negative bound explored nothing and passed as "holds"
    with pytest.raises(LogicError, match=r"^bound must be 0 or more, got -1$"):
        entails(w2(), [parse_ltl("p")], parse_ltl("q"), bound=-1)
    with pytest.raises(LogicError, match="got -3"):
        verify(structure("z1"), world, specs, spec_formula, bound=-3)


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


def test_compile_nnf_masks_only_the_leaves(monkeypatch):
    # leaves take their masks from the world directly: the compile calls
    # neither World.mask, which is itself the compile, nor the
    # propositional test
    w = w2()

    def refuse(self, f):
        raise AssertionError("compile called World.mask or "
                             "is_propositional on %r" % (f,))

    monkeypatch.setattr(type(w), "mask", refuse)
    monkeypatch.setattr(type(w), "is_propositional", refuse)
    f = compile_nnf(w, parse_ltl("G ((p & !(q | p)) -> X (p | q U !p))"))
    assert f[0] == "release"


def diamonds(k):
    """A chain of k diamonds: a_i branches to b_i and c_i, which rejoin
    at a_(i+1). The selection conditions share each a_i's among all
    later nodes, so a formula walk that does not memoize takes 2^k."""
    nodes, arcs = [("a0", "A")], []
    for i in range(k):
        a, b, c, d = "a%d" % i, "b%d" % i, "c%d" % i, "a%d" % (i + 1)
        nodes += [(b, "B"), (c, "C"), (d, "A")]
        arcs += [(a, b, "s"), (a, c, "f"), (b, d, "s"), (c, d, "s")]
    return DecisionStructure(nodes, arcs)


def test_diamond_chains_cost_linear_formula_walks():
    z = diamonds(40)
    w = w2()
    specs = parse_actions("""
        action A { model: G (p -> X p); returns s: p; returns f: !p; }
        action B { returns s: q; }
        action C { returns s: !q; }
    """)
    start = time.process_time()
    v = verify(z, w, specs, parse_ltl("G (p -> X p) | F q"))
    assert time.process_time() - start < 1.0
    assert not v.holds
    assert v.stats["automaton_states"] == 7
    members = {n for n, _ in z.nodes} - {"a40"}
    start = time.process_time()
    rep = check_module_replacement(z, members, z.induced(members), w, specs)
    assert time.process_time() - start < 1.0
    assert rep.ok
    assert sorted(rep.returns) == ["f", "s"]


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


# sha256 over check_action_replacement of every ordered pair of corpus
# actions, one repr per line: the verdict, each return value's masks,
# the behavioral verdict, its stats and its counterexample.
ACTION_PAIRS_DIGEST = \
    "6d79c6accd0c9f3676bf96c284d32a7efe0eafa8a7739071a199165eeb577214"


def test_action_replacement_observables_are_pinned(world, specs):
    rows = []
    for old, new in itertools.product(sorted(specs), repeat=2):
        rep = check_action_replacement(world, specs, old, new)
        tr = rep.behavior.counterexample
        rows.append(repr((old, new, rep.ok, sorted(rep.returns.items()),
                          rep.behavior.holds,
                          sorted(rep.behavior.stats.items()),
                          tr and tr.prefix, tr and tr.cycle)))
    assert len(rows) == 289
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == ACTION_PAIRS_DIGEST


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


def test_module_replacement_selects_once_per_structure(monkeypatch):
    calls = []
    real = logic.selection_conditions

    def counting(z):
        calls.append(z)
        return real(z)

    monkeypatch.setattr(logic, "selection_conditions", counting)
    monkeypatch.setattr(verifier, "selection_conditions", counting)
    z, specs = module_fixture()
    stand_in = DecisionStructure([("e", "A")], [])
    rep = check_module_replacement(z, {"b"}, stand_in, w2(), specs)
    assert sorted(rep.returns) == ["f", "s"]
    assert len(calls) == 2


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
    text = export_obligation(structure("z1"), world, specs, spec_formula)
    lines = text.strip().split("\n")
    assert lines[0] == "obligation v1"
    assert lines[1].startswith("premise init: ")
    assert sum(1 for l in lines if l.startswith("premise always (")) == 4
    assert sum(1 for l in lines if l.startswith("conclude: ")) == 2
    assert "premise always (step): " in text

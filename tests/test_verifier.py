"""Tableau verifier: entailment, lasso counterexamples, replacement checks."""

import gc
import hashlib
import itertools
import time
import weakref

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
                                _bfs_edges, _build, _check_conjuncts,
                                _extract_lasso, _premises, _sccs, compile_nnf)
from conftest import structure
from oracles import (OraclePremiseAutomaton, all_lassos, bfs_order,
                     concrete_edges, flat_merge, flat_product,
                     holds_on_lasso, kosaraju_sccs, oracle_accepting_sccs,
                     oracle_lasso, oracle_norm, oracle_set_covers,
                     oracle_undominated, oracle_verify, rand_entailment,
                     rand_formula, replay_world, seeded, unfiltered_merge,
                     unfiltered_product)


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
    "e0df385e9f02a06d6b9acf77a1d3b3b87ca83285231ed188c8e647ae16a488ae"


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
    """Compare the edge lists, the state order and its breadth-first tree,
    the SCC search, acceptance and the lasso with independent checks on
    the spelled-out edges; return (edges, distinct (state, successor)
    pairs)."""
    edges = concrete_edges(auto)
    order, ends = bfs_order(edges, auto.init)
    assert list(auto.succs) == order
    # a build numbers states in that order; one made by hand has no ends
    assert auto.ends is None or auto.ends == ends
    for st, out in edges.items():
        now = auto.states[st][1]
        assert [(mask & now, succ, acc)
                for mask, succ, acc in auto.succs[st]] == out, st
    graph = {st: {succ for _, succ, _ in out} for st, out in edges.items()}
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
            sum(len(succs) for succs in graph.values()))


# (concrete edges, distinct (state, successor) pairs) of the automaton of
# each conjunct of the corpus spec, by structure and conjunct index.
CONJUNCT_EDGES = {
    ("z1", 0): (250984, 250984), ("z1", 1): (80212, 80212),
    ("z2", 0): (105824, 105824), ("z2", 1): (63453, 63453),
    ("z3", 0): (70445, 70445), ("z3", 1): (40398, 40398),
    ("z4", 0): (63245, 63245), ("z4", 1): (40398, 40398),
}


# Questions on the 12-state world whose automata have a state whose
# covers meet a successor first through a cover that misses the state's
# mask, ahead of its edge to another successor, so that its covers and
# its edges list successors in different orders. The first two hold; the
# others fail.
REORDERED = [
    (["G (F (m1 & q) & (q & q) U !p)", "(m0 | !!m2) & q"],
     "p | F (G m1 U X m1)"),
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
# order, into an accepting SCC, which is not the first such edge when a
# state's edges are taken successor by successor, each successor where
# the state's covers first meet it.
FIRST_GOAL_EDGE = (["X !m1", "G X F F m1", "m0"], "p")


# A question whose automaton has an SCC that would be accepting if the
# covers of its states that miss their masks counted as edges, though the
# edges of its states never discharge every condition: the entailment
# holds.
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
        assert any(first_met(auto, st) !=
                   list(dict.fromkeys(succ for _, succ, _ in out))
                   for st, out in concrete_edges(auto).items())
    auto = parsed_automaton(w, *FIRST_GOAL_EDGE)
    check_automaton(w, auto)
    inside = verifier._inside(_accepting_sccs(auto))
    assert auto.init not in inside
    goal = lambda succ, acc: succ in inside  # noqa: E731
    assert _bfs_edges(auto, auto.init, goal) != \
        _bfs_edges(by_successor(auto), auto.init, goal)
    auto = parsed_automaton(w, *UNION_OVERSTATES)
    check_automaton(w, auto)
    unions = []
    for comp in _sccs(auto):
        union = 0
        for st in comp:
            for _, succ, acc in auto.steps[auto.states[st][0]]:
                if succ in comp:
                    union |= acc
        unions.append(union)
    assert auto.all_bits in unions and not _accepting_sccs(auto)


def first_met(auto, st):
    """The successors of state st in the order its covers first meet
    them, masks aside."""
    bits, now = auto.states[st]
    reached = {succ for mask, succ, _ in auto.steps[bits] if mask & now}
    return [succ for succ in dict.fromkeys(c[1] for c in auto.steps[bits])
            if succ in reached]


def by_successor(auto):
    """auto with each state's edges taken successor by successor, each
    successor where the state's covers first meet it."""
    succs = {}
    for st, out in auto.succs.items():
        order = first_met(auto, st)
        succs[st] = sorted(out, key=lambda edge: order.index(edge[1]))
    return _Automaton(auto.states, succs, auto.steps, auto.conditions,
                      auto.truncated)


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
            {name(st): {name(succ) for _, succ, _ in out}
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


def key_order_heads(tableau, bits):
    """The bits of each key-order prefix of the members of `bits`,
    shortest first."""
    heads, head = [], 0
    for i in sorted((i for i in range(bits.bit_length()) if bits >> i & 1),
                    key=tableau.keys.__getitem__):
        head |= 1 << i
        heads.append(head)
    return heads


def checking_set_covers(monkeypatch):
    """Make every _Tableau.set_covers assert that its covers equal the flat
    fold of oracle_set_covers, order included, and that it spends what
    the fold's products take; return the counts [calls, calls that start
    from a kept prefix]."""
    calls = [0, 0]
    real = verifier._Tableau.set_covers

    def set_covers(tableau, bits):
        # The fold runs first, so that it gets each member's covers, and
        # pays for them, where the call itself would; the call then pays
        # for its products alone.
        want, charge = oracle_set_covers(tableau, bits)
        hit = any(head in tableau.prefixes
                  for head in key_order_heads(tableau, bits))
        used = tableau.budget.used
        covers = real(tableau, bits)
        assert covers == want
        assert tableau.budget.used - used == charge
        calls[0] += 1
        calls[1] += hit
        return covers

    monkeypatch.setattr(verifier._Tableau, "set_covers", set_covers)
    return calls


def test_corpus_automata_match_checks_on_spelled_out_edges(
        monkeypatch, world, specs, spec_formula):
    """Each conjunct's automaton passes the spelled-out checks, and shows
    the same observables as the one built keeping dominated covers. Every
    product and merge of its build matches the flat filter, and every
    obligation set's covers the flat fold."""
    assert spec_formula[0] == "and"
    for (name, i), counts in CONJUNCT_EDGES.items():
        question = (world, _premises(structure(name), world, specs),
                    spec_formula[1][i])
        with monkeypatch.context() as patch:
            calls = checking_products(patch)
            sets = checking_set_covers(patch)
            auto = automaton(*question)
        assert calls[1] > 0 and sets[1] > 0, (name, i)
        assert check_automaton(world, auto) == counts, (name, i)
        assert observables(world, auto) == observables(
            world, keeping_every_cover(monkeypatch, *question)), (name, i)


def test_products_match_the_flat_filter_call_by_call(monkeypatch):
    """product and merge drop dominated covers as they gather them; each
    result equals the flat dict filtered in a second pass, list order
    included, on random questions and on hand-built groups that take the
    general path. On the random questions each obligation set's covers,
    kept prefix or not, also equal the flat fold."""
    calls = checking_products(monkeypatch)
    sets = checking_set_covers(monkeypatch)
    w, atoms = replay_world()
    rng = seeded(606)
    for _ in range(300):
        automaton(w, *rand_entailment(rng, atoms))
    rng = seeded(606)
    for _ in range(600):
        automaton(w, *rand_entailment(rng, atoms, depth=5))
    assert calls[0] > 15_000 and calls[1] > 500
    assert sets[0] > 7_000 and sets[1] > 4_000
    general = []
    real = verifier._undominated
    monkeypatch.setattr(verifier, "_undominated",
                        lambda covers: general.append(covers) or real(covers))
    # the covers below name bits 0 to 2, which norm reads: they are the
    # first three formulas interned here, none of which implies another
    phi = compile_nnf(w, parse_ltl("X p & X X q"))
    tableau = verifier._Tableau(w, Budget(10 ** 6), phi)
    tableau.intern(phi)
    assert tableau.implied[:3] == [1, 2, 4]
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
    # a merge is the product with the unit cover, and charges nothing
    for covers in groups:
        used = tableau.budget.used
        merged = tableau.merge(covers)
        assert tableau.budget.used == used
        assert merged == tableau.product(covers, [(full, 0, full, 0)])
        assert tableau.budget.used == used + len(covers)
        tableau.product([(0b101, 4, full, 1)], covers)
    assert len(general) > 2000


def test_set_covers_keeps_every_prefix_it_multiplies(monkeypatch):
    """After each set_covers call, every key-order prefix of its members
    that the call multiplied on is kept, up to the first empty product,
    with the covers and the budget of the flat fold of that prefix."""
    real = verifier._Tableau.set_covers
    counts = [0, 0]  # prefixes checked, calls that start from a kept one

    def set_covers(tableau, bits):
        heads = key_order_heads(tableau, bits)
        start = max((j + 1 for j, head in enumerate(heads)
                     if head in tableau.prefixes), default=0)
        covers = real(tableau, bits)
        if start and not tableau.prefixes[heads[start - 1]][0]:
            return covers  # it starts from an empty product
        counts[1] += start > 0
        for head in heads[start:]:
            assert tableau.prefixes.get(head) == oracle_set_covers(tableau,
                                                                   head)
            counts[0] += 1
            if not tableau.prefixes[head][0]:
                break
        return covers

    monkeypatch.setattr(verifier._Tableau, "set_covers", set_covers)
    w, atoms = replay_world()
    rng = seeded(606)
    for _ in range(200):
        automaton(w, *rand_entailment(rng, atoms, depth=5))
    assert counts[0] > 2000 and counts[1] > 1000


def test_a_limit_inside_a_kept_prefix_runs_out_there(monkeypatch):
    """A set that starts from a kept prefix spends the prefix's budget at
    once, so a limit that falls inside it runs out in that call."""
    real = verifier._Tableau.set_covers
    calls = []  # (budget used before each call, budget of its kept prefix)

    def recording(tableau, bits):
        kept = [tableau.prefixes[head][1]
                for head in key_order_heads(tableau, bits)
                if head in tableau.prefixes]
        calls.append((tableau.budget.used, kept[-1] if kept else 0))
        return real(tableau, bits)

    w, atoms = replay_world()
    rng = seeded(606)
    with monkeypatch.context() as patch:
        patch.setattr(verifier._Tableau, "set_covers", recording)
        for _ in range(200):
            calls.clear()
            question = rand_entailment(rng, atoms, depth=5)
            total = entails(w, *question).stats["budget_used"]
            if any(charge > 1 for _, charge in calls):
                break
    hits = [c for c in calls if c[1] > 1]
    assert hits
    used, charge = hits[0]
    assert entails(w, *question, limit=total).stats["budget_used"] == total
    raised = []

    def watching(tableau, bits):
        before = tableau.budget.used
        try:
            return real(tableau, bits)
        except ResourceLimit:
            raised.append((before, tableau.budget.used))
            raise

    monkeypatch.setattr(verifier._Tableau, "set_covers", watching)
    with pytest.raises(ResourceLimit):
        entails(w, *question, limit=used + charge - 1)
    assert raised == [(used, used + charge)]


def test_no_prefix_memo_outlives_its_tableau(monkeypatch):
    refs, sizes = [], []

    class Recorded(verifier._Tableau):
        def __init__(self, *args):
            super().__init__(*args)
            assert not self.prefixes
            refs.append(weakref.ref(self))

        def set_covers(self, bits):
            covers = super().set_covers(bits)
            sizes.append(len(self.prefixes))
            return covers

    monkeypatch.setattr(verifier, "_Tableau", Recorded)
    w, atoms = replay_world()
    rng = seeded(606)
    for _ in range(20):
        entails(w, *rand_entailment(rng, atoms, depth=5))
        gc.collect()
        assert all(ref() is None for ref in refs)
    assert len(refs) == 20 and max(sizes) > 0


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
    real = verifier._undominated
    drops = [0]

    def counting(covers):
        kept = real(covers)
        drops[0] += len(kept) < len(covers)
        return kept

    monkeypatch.setattr(verifier, "_undominated", counting)

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
    ("z1", 2): (True, 778, 48377, None),
    ("z1", 3): (False, 2210, 121947,
                ([(3, 1, 1, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)],
                 [(2, 0, 0, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)])),
    ("z1", 5): (False, 3314, 166297,
                ([(3, 1, 1, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)],
                 [(2, 0, 0, 2, 1, 0, 1), (2, 0, 0, 2, 1, 0, 1)])),
    ("z2", 1): (True, 114, 1791, None),
    ("z2", 2): (True, 658, 50053, None),
    ("z2", 3): (True, 1538, 93329, None),
    ("z2", 5): (True, 2306, 120813, None),
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


def test_build_numbers_only_the_states_it_reaches(world, specs,
                                                 spec_formula):
    # z2's first conjunct: the init state and the successors its covers
    # name are 1,793 states, of which the states' edges reach 1,169; only
    # those have an id
    autos = {}
    for name in ("z1", "z2"):
        premises = _premises(structure(name), world, specs)
        for k, c in enumerate(spec_formula[1]):
            auto = autos[name, k] = automaton(world, premises, c)
            assert len(auto.states) == len(auto.succs)
            assert list(auto.succs) == list(range(len(auto.states)))
    auto = autos["z2", 0]
    named = {succ for covers in auto.steps.values() for _, succ, _ in covers}
    assert (len(auto.states), len(named | {auto.init})) == (1169, 1793)
    assert named - set(auto.succs) == {
        succ for succ in named if isinstance(succ, tuple)}


def test_edge_cut_past_a_byte_of_mask_ids():
    # 512 distinct cover masks, so mask ids do not fit a byte, and state
    # masks recur, so the cut reads kept rows. Under X a every cover meets
    # every state's mask; under X !a most miss it, so the rows hold zeros
    # as well as ones.
    w = parse_world("".join("bool a%d\n" % i for i in range(9)))
    for nxt in ("X a", "X !a"):
        ring = " & ".join("(a%d | %s%d)" % (i, nxt, (i + 1) % 9)
                          for i in range(9))
        phi = compile_nnf(w, parse_ltl("G (%s) & F (a0 & X a1)" % ring))
        auto = _build(w, phi, Budget(5_000_000))
        masks = {c[0] for covers in auto.steps.values() for c in covers}
        seen = [now for _, now in auto.states]
        assert len(masks) > 256 and len(set(seen)) < len(seen), nxt
        edges = concrete_edges(auto)
        kept = sum(map(len, edges.values()))
        tested = sum(len(auto.steps[bits]) for bits, _ in auto.states)
        assert kept == tested if nxt == "X a" else kept < tested // 10
        for st, out in edges.items():
            now = auto.states[st][1]
            assert [(mask & now, succ, acc)
                    for mask, succ, acc in auto.succs[st]] == out, (nxt, st)


def rand_prop(rng, atoms, depth):
    """A random propositional formula: atoms, now and then true or false,
    under not, and, or."""
    pick = rng.random()
    if depth <= 0 or pick < 0.3:
        return ("atom", rng.choice(atoms)) if rng.random() < 0.9 else \
            (rng.choice(("true", "false")),)
    if pick < 0.45:
        return ("not", rand_prop(rng, atoms, depth - 1))
    return (rng.choice(("and", "or")), (rand_prop(rng, atoms, depth - 1),
                                        rand_prop(rng, atoms, depth - 1)))


def rand_g_or_f(rng, atoms, depth):
    """G p or F p for a random propositional p; one in five is spelled
    !F !p or !G !p."""
    p = rand_prop(rng, atoms, depth)
    op = rng.choice(("always", "eventually"))
    if rng.random() < 0.2:
        dual = "eventually" if op == "always" else "always"
        return ("not", (dual, ("not", p)))
    return (op, p)


def world_atoms(world):
    return [name if is_bool else v for name, values, is_bool in world.variables
            for v in ([name] if is_bool else values)]


def lasso(trace):
    return trace and (trace.prefix, trace.cycle)


def refutes_as_the_oracle(world, premise_auto, *phis):
    """Each conjunct of the phis, all G p or F p, gets from the premise
    automaton the lasso, or the None, that the searches over all of it
    give (OraclePremiseAutomaton); returns how many fail."""
    oracle = OraclePremiseAutomaton(world, premise_auto.auto)
    assert premise_auto.auto.ends == bfs_order(
        oracle.edges, premise_auto.auto.init)[1]
    fails = 0
    for c in [c for phi in phis
              for c in (phi[1] if phi[0] == "and" else [phi])]:
        question = verifier._premise_question(world, c)
        got = lasso(premise_auto.refute(*question))
        assert got == oracle.refute(*question), c
        fails += got is not None
    return fails


def same_as_the_oracle(world, premises, phi, alone=None):
    """_check_conjuncts against oracle_verify on an unbounded question
    whose conjuncts are all G p or F p; returns (whether it fails, whether
    its trace is the oracle's). The stats count one automaton of the
    premises alone: the one entails builds for a conclusion that never
    holds, whose stats `alone` gives when known."""
    v = _check_conjuncts(world, premises, phi, None, 5_000_000)
    want = oracle_verify(world, premises, phi)
    assert v.holds == want.holds, (premises, phi)
    alone = alone or entails(world, premises, ("false",)).stats
    assert v.stats == dict(want.stats, automaton_states=alone[
        "automaton_states"], budget_used=alone["budget_used"])
    if v.holds:
        return False, False
    assert v.conclusion == want.conclusion
    tr = v.counterexample
    for f in premises:
        assert holds_on_lasso(world, f, tr.prefix, tr.cycle), (premises, phi)
    assert not holds_on_lasso(world, v.conclusion, tr.prefix, tr.cycle)
    return True, lasso(tr) == lasso(want.counterexample)


# Questions whose only edge into a state outside p leads to a fair SCC
# through two SCCs that are not fair.
FAR_FROM_FAIR = [(["m1 & X !m1 & X X !m1 & X X X G m0"], "G !m1"),
                 (["m1 & X (!m1 & X (!m1 & X (!m1 & X G m0)))"], "G !m1")]

# A question on a one-bool world whose fair SCC holds edges cut to !p that
# no edge cut to !p reaches from init, where p holds: F p holds.
UNREACHED_CUT = (["p & X G !p"], "F p")


def test_premise_questions_are_read_off_the_compiled_negation():
    w, _ = replay_world()
    p, full = w.mask(parse_ltl("p")), w.full_mask
    for text, want in [("G p", ("G", full ^ p)), ("!F !p", ("G", full ^ p)),
                       ("F p", ("F", full ^ p)), ("!G !p", ("F", full ^ p)),
                       ("true U p", ("F", full ^ p)), ("G true", ("G", 0)),
                       ("F false", ("F", full)), ("G (p & !p)", ("G", full)),
                       ("!(q U p)", None), ("p U q", None), ("G X p", None),
                       ("F G p", None), ("G (p U q)", None), ("X G p", None),
                       ("p", None)]:
        assert verifier._premise_question(w, parse_ltl(text)) == want, text


def test_g_and_f_conjuncts_match_one_entailment_each(world, specs,
                                                    spec_formula):
    """G p and F p conjuncts, decided on one automaton of the premises,
    get the verdicts and the failing conjunct of one entailment per
    conjunct, and counterexamples that satisfy the premises and refute
    the conjunct. Counts are (questions, failures, traces equal to the
    entailment's, conjuncts that fail on the premise automaton). Every
    conjunct, and each corpus spec conjunct, gets the lasso or the None of
    searches over all of the premise automaton."""
    rng = seeded(606)
    w, atoms = replay_world()
    counts = [0, 0, 0, 0]
    for _ in range(400):
        premises = [rand_formula(rng, atoms, rng.randint(1, 3))
                    for _ in range(rng.randint(0, 2))]
        phi = f_and([rand_g_or_f(rng, atoms, rng.randint(0, 2))
                     for _ in range(rng.randint(1, 3))])
        fails, same = same_as_the_oracle(w, premises, phi)
        counts[0] += 1
        counts[1] += fails
        counts[2] += same
        counts[3] += refutes_as_the_oracle(
            w, verifier._PremiseAutomaton(w, premises, 5_000_000), phi)
    assert counts == [400, 348, 280, 614]
    for premises, conclusion in FAR_FROM_FAIR:
        assert same_as_the_oracle(w, [parse_ltl(f) for f in premises],
                                  parse_ltl(conclusion)) == (True, True)
    w1 = parse_world("bool p\n")
    premises = [parse_ltl(f) for f in UNREACHED_CUT[0]]
    conclusion = parse_ltl(UNREACHED_CUT[1])
    assert same_as_the_oracle(w1, premises, conclusion) == (False, False)
    assert refutes_as_the_oracle(w1, verifier._PremiseAutomaton(
        w1, premises, 5_000_000), conclusion) == 0
    drone = world_atoms(world)
    counts = [0, 0, 0, 0]
    for name in ("z1", "z2", "z3", "z4"):
        premises = _premises(structure(name), world, specs)
        alone = entails(world, premises, ("false",)).stats
        phis = [spec_formula]
        for _ in range(2):
            phis.append(f_and([rand_g_or_f(rng, drone, 2) for _ in range(2)]))
            fails, same = same_as_the_oracle(world, premises, phis[-1], alone)
            counts[0] += 1
            counts[1] += fails
            counts[2] += same
        counts[3] += refutes_as_the_oracle(world, verifier._PremiseAutomaton(
            world, premises, 5_000_000), *phis)
    assert counts == [8, 7, 7, 12]


def test_a_failing_f_p_takes_one_scc_walk(world, specs, monkeypatch):
    """F storm fails on z2's premise automaton. Its refutation walks the
    SCCs of one graph, the cut edges inside the fair SCCs, and gets the
    lasso that the searches over the whole cut graph give."""
    premise_auto = verifier._PremiseAutomaton(
        world, _premises(structure("z2"), world, specs), 5_000_000)
    question = verifier._premise_question(world, parse_ltl("F storm"))
    calls = {"sccs": 0, "automata": 0}
    walk = verifier._sccs

    def counted_sccs(auto):
        calls["sccs"] += 1
        return walk(auto)

    class Counted(_Automaton):
        def __init__(self, *args, **kwargs):
            calls["automata"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verifier, "_sccs", counted_sccs)
    monkeypatch.setattr(verifier, "_Automaton", Counted)
    got = lasso(premise_auto.refute(*question))
    assert calls == {"sccs": 1, "automata": 1}
    assert got is not None
    assert got == OraclePremiseAutomaton(world, premise_auto.auto).refute(
        *question)


def test_the_first_failing_conjunct_in_spec_order_is_reported():
    """G p, p U q and F p conjuncts that all fail, with conjuncts that
    hold among them, in every order: the first failing conjunct is the one
    reported, with its own counterexample."""
    w = w2()
    failing = [parse_ltl("G p"), parse_ltl("p U q"), parse_ltl("F p")]
    holding = [parse_ltl("G (p | !p)"), parse_ltl("X (q | !q)")]
    premises = [parse_ltl("G (p -> X !p)")]
    for order in itertools.permutations(failing):
        for spec in (list(order), holding[:1] + list(order[:2]) +
                     holding[1:] + list(order[2:])):
            v = _check_conjuncts(w, premises, f_and(spec), None, 5_000_000)
            assert v.conclusion == order[0], spec
            want = oracle_verify(w, premises, f_and(spec))
            assert v.conclusion == want.conclusion
            tr = v.counterexample
            assert holds_on_lasso(w, premises[0], tr.prefix, tr.cycle)
            assert not holds_on_lasso(w, order[0], tr.prefix, tr.cycle)
            if order[0][0] == "until":
                alone = entails(w, premises, order[0]).counterexample
                assert (tr.prefix, tr.cycle) == (alone.prefix, alone.cycle)


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
        succs[st] = [c for c in steps[bits] if c[0] & now]
    auto = _Automaton(states, succs, steps, ["c"], set())
    assert first_met(auto, 0) == [1, 2]
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


def test_norm_memo_matches_the_final_implications(monkeypatch):
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


def test_norm_drops_each_member_another_member_implies():
    w = w2()

    def kept(*texts):
        """The members of the set of the compiled texts that norm keeps, on
        a tableau over their conjunction, whose parts it interns in order."""
        parts = [compile_nnf(w, parse_ltl(text)) for text in texts]
        phi = ("and", tuple(parts))
        tableau = verifier._Tableau(w, Budget(0), phi)
        tableau.intern(phi)
        bits = [1 << tableau.index[f] for f in parts]
        normed = tableau.norm(sum(bits))
        return [text for text, bit in zip(texts, bits) if normed & bit]

    u = "X p"
    for whole in ("G (q & X p)", "(q & X p) | (!q & X p)",
                  "(q & X p) U (X q & X p)"):
        assert kept(whole, u) == [whole]
    assert kept("q U X p", u) == [u]
    # a U t with a implying t is t: the until goes, and t stays
    assert kept("(X p & X q) U X p", u) == [u]
    for other in ("X X p", "(q & X p) | X q", "X p U q"):
        assert kept(other, u) == [other, u]
    # G (q & X p) implies X p, which implies q U X p, whichever of the
    # two members is interned first
    assert kept("G (q & X p)", "q U X p") == ["G (q & X p)"]
    assert kept("q U X p", "G (q & X p)") == ["G (q & X p)"]


def test_equal_formulas_share_one_bit():
    """The tableau looks a subformula object up by its id first, and by
    the formula only once per object, so two equal objects share a bit."""
    w = w2()
    parts = tuple(compile_nnf(w, parse_ltl("G p")) for _ in range(2))
    assert parts[0] == parts[1] and parts[0] is not parts[1]
    phi = ("and", parts)
    tableau = verifier._Tableau(w, Budget(0), phi)
    whole = tableau.intern(phi)
    assert tableau.intern(parts[0]) == tableau.intern(parts[1])
    # the conjunction, G p and G p's two masks
    assert len(tableau.formulas) == 4 and tableau.formulas[whole] is phi


def building_with_the_until_target_rule(monkeypatch, build, *args):
    """build(*args), with obligation sets that drop only the untils whose
    targets they hold (oracle_norm)."""
    with monkeypatch.context() as patch:
        patch.setattr(verifier._Tableau, "norm", oracle_norm)
        return build(*args)


def test_dropping_implied_members_keeps_every_verdict(monkeypatch):
    """Random questions get the verdicts of obligation sets that drop only
    the untils whose targets they hold, with automata of no more states,
    and counterexamples that satisfy the premises and refute the
    conclusion. Counts are (questions, failures, smaller automata,
    counterexamples that moved)."""
    w, atoms = replay_world()
    counts = [0, 0, 0, 0]
    for depth, n in ((None, 300), (5, 400)):
        rng = seeded(606)
        for _ in range(n):
            premises, conclusion = rand_entailment(rng, atoms, depth=depth)
            v = entails(w, premises, conclusion)
            want = building_with_the_until_target_rule(
                monkeypatch, entails, w, premises, conclusion)
            assert v.holds == want.holds, (premises, conclusion)
            states = v.stats["automaton_states"]
            assert states <= want.stats["automaton_states"]
            counts[0] += 1
            counts[2] += states < want.stats["automaton_states"]
            if v.holds:
                continue
            tr, old = v.counterexample, want.counterexample
            for f in premises:
                assert holds_on_lasso(w, f, tr.prefix, tr.cycle)
            assert not holds_on_lasso(w, conclusion, tr.prefix, tr.cycle)
            counts[1] += 1
            counts[3] += (tr.prefix, tr.cycle) != (old.prefix, old.cycle)
    assert counts == [700, 607, 140, 23]


def shape(auto):
    """An automaton with its obligation bits left out: each state's mask
    in queue order, and each state's (mask, successor id, accept) edges."""
    return ([auto.states[st][1] for st in auto.succs],
            list(auto.succs.values()))


def test_corpus_automata_equal_the_until_target_rule_builds(
        monkeypatch, world, specs, spec_formula):
    """On the corpus, dropping every member another member implies builds
    the automata that dropping only untils with their targets builds, up
    to the bits that name obligations: the premise automaton of z1-z4,
    each spec conjunct's automaton, and the behavioral automaton of each
    check-replace question of the drone benchmark."""
    questions = []
    real = verifier.entails

    def recording(world, premises, conclusion, **options):
        questions.append((premises, conclusion))
        return real(world, premises, conclusion, **options)

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "entails", recording)
        check_module_replacement(
            structure("z2"), "b0 bLow calm bHigh bright Avoid Land".split(),
            structure("q"), world, specs)
        check_module_replacement(
            structure("z3"),
            "goal at Photograph Descend Ascend GoTo Circle".split(),
            structure("q2"), world, specs)
        check_action_replacement(world, specs, "Descend", "Land")
    assert len(questions) == 3
    builds = [(automaton, world, *question) for question in questions]
    for name in ("z1", "z2", "z3", "z4"):
        premises = _premises(structure(name), world, specs)
        builds.append((_build, world, compile_nnf(world, f_and(premises)),
                       Budget(5_000_000)))
        builds += [(automaton, world, premises, c) for c in spec_formula[1]]
    for build, *args in builds:
        assert shape(build(*args)) == shape(building_with_the_until_target_rule(
            monkeypatch, build, *args))


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


def test_entails_refuses_a_negative_limit():
    # a negative limit ran out at the first step, as a budget error
    with pytest.raises(LogicError, match=r"^limit must be 0 or more, got -5$"):
        entails(w2(), [parse_ltl("p")], parse_ltl("q"), limit=-5)
    # a limit of 0 is a budget that runs out at the first step
    with pytest.raises(ResourceLimit, match=r"^exploration budget exceeded "
                       r"\(0\)$"):
        entails(w2(), [parse_ltl("p")], parse_ltl("q"), limit=0)


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
    "9a0b753bcfd71dad580a28493f74101122702061ba5e87505cdff9e3a42e5b7c"


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

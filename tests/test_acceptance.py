"""Acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one PASSED/FAILED line
per criterion (add ``-s`` to see the explicit CRITERION lines too).
"""

import time

import pytest

from decstruct import (
    check_module_replacement,
    classify,
    construct_kbt,
    contract,
    cyclomatic,
    decompose,
    derived_return,
    entails,
    essential,
    expand,
    extract_kbt,
    find_modules,
    format_arch,
    nontrivial_modules,
    parse_ltl,
    quotient,
    relabelings,
    structurally_equivalent,
    verify,
)
from decstruct.modules import block_id
from conftest import structure
from oracles import (
    all_states,
    hierarchical_select,
    holds_on_lasso,
    oracle_modules,
    rand_entailment,
    rand_pred_term,
    rand_structure,
    rand_term,
    replay_world,
    seeded,
    term_actions,
    tick_term,
)


def done(n):
    print("CRITERION %d: PASS" % n)


def test_criterion_1_complexity_values():
    expected = {"z2": (10, 2), "bt_example": (6, 1), "btswitch": (5, 1)}
    for name, (cyc, ess) in expected.items():
        z = structure(name)
        t0 = time.monotonic()
        assert cyclomatic(z) == cyc, name
        assert essential(z) == ess, name
        assert time.monotonic() - t0 < 1.0, name
    t0 = time.monotonic()
    assert essential(structure("z4")) == 1
    assert time.monotonic() - t0 < 1.0
    done(1)


def test_criterion_2_module_inventories():
    got = {tuple(sorted(m)) for m in nontrivial_modules(structure("btswitch"))}
    assert got == {
        ("a", "b"), ("d", "e"), ("e", "f"), ("h", "i"),
        ("d", "e", "f"), ("d", "e", "f", "g"),
        ("d", "e", "f", "g", "h", "i"),
        ("c", "d", "e", "f", "g", "h", "i"),
    }
    only = nontrivial_modules(structure("not_bt"))
    assert [sorted(m) for m in only] == [["a", "b", "c", "d"]]
    done(2)


def test_criterion_3_architecture_classification():
    t0 = time.monotonic()

    tree = extract_kbt(structure("btswitch"))
    assert format_arch(tree) == \
        "(fb (seq a b) (seq c (fb (seq (fb d e f) g) (seq h i))))"
    assert classify(structure("btswitch"))["is_bt"]

    z = structure("not_bt")
    assert not classify(z)["is_bt"]
    variants = list(relabelings(z, ("s", "f")))
    assert len(variants) == 16
    assert not any(classify(v)["is_bt"] for v in variants)

    z4 = structure("z4")
    res = classify(z4)
    assert res["is_kbt"] and res["k"] == 3 and not res["is_bt"]
    t_z4 = ("(seq (op m (fb (op m Battery Light) Land) Land)"
            " (op m (fb Weather Land) Avoid)"
            " (fb (seq goal (fb (seq at (fb (op m (seq Photograph Circle)"
            " Descend) Circle)) (seq Ascend GoTo))) Circle))")
    assert format_arch(res["kbt"]) == t_z4
    assert structurally_equivalent(construct_kbt(res["kbt"]), z4)

    assert time.monotonic() - t0 < 5.0
    done(3)


BUDGET = 5_000_000

# (automaton states, budget used) of verifying each structure against the
# corpus spec, and z1's counterexample: any change to the tableau that
# moves these changes what the verifier explores or reports. Both spec
# conjuncts are decided on one automaton of the premises, so these are
# that automaton's alone.
CORPUS_STATS = {"z1": (1105, 51433), "z2": (1169, 50541),
                "z3": (945, 45455), "z4": (945, 44231)}
Z1_PREFIX = [(3, 1, 1, 0, 1, 0, 0), (2, 1, 0, 0, 1, 0, 0),
             (1, 1, 0, 2, 1, 0, 0), (0, 1, 2, 2, 1, 0, 0),
             (2, 0, 0, 2, 1, 0, 0)]
Z1_CYCLE = [(2, 0, 0, 2, 0, 0, 1), (2, 0, 1, 2, 0, 0, 0)]


@pytest.fixture(scope="module")
def corpus_verdicts(world, specs, spec_formula):
    return {name: verify(structure(name), world, specs, spec_formula,
                         limit=BUDGET)
            for name in CORPUS_STATS}


def test_criterion_4_verification(world, corpus_verdicts):
    for name, (states, used) in CORPUS_STATS.items():
        v = corpus_verdicts[name]
        assert v.holds == (name != "z1"), name
        assert (v.stats["automaton_states"], v.stats["budget_used"]) == \
            (states, used), name
        assert v.stats["budget_used"] <= BUDGET
    v1 = corpus_verdicts["z1"]
    trace = v1.counterexample
    assert (trace.prefix, trace.cycle) == (Z1_PREFIX, Z1_CYCLE)
    found = False
    for a, b in trace.pairs():
        da, db = world.state_dict(a), world.state_dict(b)
        if (da["Weather"] == "windy" and da["Battery"] == "bLow"
                and db["Altitude"] == "high" and db["Battery"] == "b0"):
            found = True
    assert found, "expected a windy,bLow -> high,b0 step in the trace"
    done(4)


def test_criterion_5_replacement(world, specs, corpus_verdicts):
    z2 = structure("z2")
    h = {"b0", "bLow", "calm", "bHigh", "bright", "Avoid", "Land"}
    rep = check_module_replacement(z2, h, structure("q"), world, specs,
                                   limit=BUDGET)
    assert rep.ok
    want = world.mask(parse_ltl("calm & (bHigh | (bMid & bright))"))
    assert rep.returns["s"]["old"] == want
    assert rep.returns["s"]["new"] == want
    for v, info in rep.returns.items():
        if v != "s":
            assert info["old"] == 0 and info["new"] == 0, v
    assert rep.behavior.holds

    z3 = structure("z3")
    h2 = set(structure("k2").node_ids())
    rep2 = check_module_replacement(z3, h2, structure("q2"), world, specs,
                                    limit=BUDGET)
    assert rep2.ok
    assert rep2.returns == {}
    assert any("invisible" in note for note in rep2.notes)
    assert rep2.behavior.holds

    assert corpus_verdicts["z3"].holds
    assert corpus_verdicts["z4"].holds
    done(5)


def test_criterion_6_property_suites():
    t0 = time.monotonic()
    suite_module_search()
    suite_decomposition()
    suite_construction_maps()
    suite_contraction()
    suite_expressibility()
    suite_lasso_replay()
    assert time.monotonic() - t0 < 60.0
    done(6)


def suite_module_search():
    """find_modules against subset enumeration."""
    rng = seeded(101)
    for _ in range(210):
        z = rand_structure(rng, rng.randint(2, 8))
        assert find_modules(z) == oracle_modules(z)


def suite_decomposition():
    """The decomposition partitions at every level and folds back to z."""
    rng = seeded(202)

    def refold(d):
        if d.is_leaf():
            from decstruct import DecisionStructure
            return DecisionStructure([(d.node, d.action)], [])
        cur = d.quotient
        for c in d.children:
            if len(c.members) > 1:
                cur = expand(cur, block_id(c.members), refold(c))
        return cur

    for _ in range(210):
        z = rand_structure(rng, rng.randint(1, 10))
        tree = decompose(z)
        for node in tree.walk():
            if node.is_leaf():
                assert len(node.members) == 1
                continue
            union = set()
            for c in node.children:
                assert not union & c.members
                union |= c.members
            assert union == node.members
            assert node.kind in ("path", "prime")
            if node.kind == "path":
                labels = {r for _, _, r in node.quotient.arcs}
                assert labels == {node.label}
        assert refold(tree) == z


def suite_construction_maps():
    """construct_* agree with direct term interpreters on every state."""
    rng = seeded(303)

    def small_term(labels):
        while True:
            term = rand_term(rng, labels=labels, max_leaves=4)
            if len(term_actions(term)) <= 5:
                return term

    for i in range(210):
        style = i % 5
        if style < 3:
            labels = ("s", "f") if style < 2 else ("s", "f", "m")
            term = small_term(labels)
            z = construct_kbt(term)
            values = labels + ("z",)
        elif style == 3:
            term = small_term(("d",))
            z = construct_kbt(term)
            values = ("d", "z")
        else:
            term = rand_pred_term(rng, max_depth=2)
            while len(term_actions(term)) > 5:
                term = rand_pred_term(rng, max_depth=2)
            from decstruct import construct_dt
            z = construct_dt(term)
            values = ("top", "bot", "z")
        for state in all_states(term_actions(term), values):
            assert derived_return(z, state) == tick_term(term, state)


def suite_contraction():
    """Selection through a contracted module matches direct selection."""
    rng = seeded(404)
    checked = 0
    while checked < 210:
        z = rand_structure(rng, rng.randint(3, 9))
        mods = nontrivial_modules(z)
        if not mods:
            continue
        members = mods[rng.randrange(len(mods))]
        actions = sorted(set(z.action_of.values()))
        values = z.labels() + ["z", None]
        for _ in range(4):
            state = {a: rng.choice(values) for a in actions}
            state = {a: v for a, v in state.items() if v is not None}
            assert (hierarchical_select(z, members, state)
                    == derived_return(z, state))
        checked += 1


def suite_expressibility():
    """essential == 1 exactly when an operator tree exists, and the tree
    rebuilds the structure."""
    rng = seeded(505)
    for i in range(210):
        if i % 2:
            z = rand_structure(rng, rng.randint(1, 9))
        else:
            z = construct_kbt(rand_term(rng, labels=("s", "f", "m"),
                                        max_leaves=6))
        tree = extract_kbt(z)
        assert (tree is not None) == (essential(z) == 1)
        if tree is not None:
            assert structurally_equivalent(construct_kbt(tree), z)


def suite_lasso_replay():
    """Counterexample lassos really satisfy the premises and refute the
    conclusion."""
    rng = seeded(606)
    w, atoms = replay_world()
    failures = 0
    attempts = 0
    while failures < 200 and attempts < 3000:
        attempts += 1
        premises, conclusion = rand_entailment(rng, atoms)
        verdict = entails(w, premises, conclusion, limit=BUDGET)
        if verdict.holds:
            continue
        failures += 1
        tr = verdict.counterexample
        assert tr.cycle, "a lasso needs a cycle"
        for f in premises:
            assert holds_on_lasso(w, f, tr.prefix, tr.cycle), (f, premises)
        assert not holds_on_lasso(w, conclusion, tr.prefix, tr.cycle), \
            conclusion
    assert failures >= 200, "not enough failing cases (%d)" % failures


def test_criterion_7_module_search_scales():
    rng = seeded(707)
    z = rand_structure(rng, 1000, labels=("s", "f", "m"))
    assert len(z.nodes) == 1000
    t0 = time.monotonic()
    mods = find_modules(z)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, "find_modules took %.1fs" % elapsed
    assert frozenset(z.node_ids()) in mods
    done(7)

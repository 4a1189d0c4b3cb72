"""LTL syntax, worlds as bitmask frames, action specs, derived conditions."""

import itertools
import json
import os
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decstruct
from decstruct import (
    DecisionStructure,
    FormatError,
    LogicError,
    MissingSpec,
    OverlappingReturns,
    UnknownAtom,
    World,
    build_psi,
    format_formula,
    load_actions,
    parse_actions,
    parse_ltl,
    parse_world,
    return_condition,
    selection_condition,
    selection_conditions,
    validate_actions,
)
from decstruct.logic import (FALSE, TRUE, compile_nnf, f_and, f_not, f_or,
                             fold, ground)
from oracles import (LTL_TOKENS, holds_on_lasso, oracle_compile_nnf,
                     oracle_describe_mask, oracle_format_formula,
                     oracle_parse_ltl, rand_any_formula, rand_ltl_text,
                     rand_tokens, replay_world, seeded)


def test_parse_ltl_precedence():
    assert parse_ltl("a -> b -> c") == \
        ("implies", ("atom", "a"), ("implies", ("atom", "b"), ("atom", "c")))
    assert parse_ltl("a | b & c") == \
        ("or", (("atom", "a"), ("and", (("atom", "b"), ("atom", "c")))))
    assert parse_ltl("!a & b") == \
        ("and", (("not", ("atom", "a")), ("atom", "b")))
    assert parse_ltl("a U b U c") == \
        ("until", ("atom", "a"), ("until", ("atom", "b"), ("atom", "c")))
    assert parse_ltl("X a & b") == \
        ("and", (("next", ("atom", "a")), ("atom", "b")))
    assert parse_ltl("G (a -> F b)") == \
        ("always", ("implies", ("atom", "a"), ("eventually", ("atom", "b"))))


def test_parse_ltl_rejects_garbage():
    for bad in ("", "a &", "( a", "a b", "&", "a ->", "a @ b"):
        with pytest.raises(FormatError):
            parse_ltl(bad)


def _read(parse, text):
    try:
        return parse(text), None
    except FormatError as exc:
        return None, str(exc)


def test_parse_ltl_matches_the_recursive_oracle():
    # well-formed texts mixing every operator, prefixes and parentheses,
    # then random token strings, most of them rejected
    rng = seeded(1414)
    texts = [rand_ltl_text(rng, rng.randint(0, 4)) for _ in range(20000)]
    texts += [rand_tokens(rng, LTL_TOKENS, 12) for _ in range(20000)]
    kinds = ("expected a formula, ", "expected ), ", "trailing tokens ")
    rejected, errors = 0, set()
    for text in texts:
        f, error = _read(parse_ltl, text)
        assert (f, error) == _read(oracle_parse_ltl, text), text
        if error:
            rejected += 1
            errors |= {k for k in kinds if error.startswith(k)}
    assert 19000 < rejected < 20000
    assert errors == set(kinds)


def test_format_formula_minimal_parens():
    f = parse_ltl("a & (b | c) -> X !d")
    assert format_formula(f) == "a & (b | c) -> X !d"
    assert parse_ltl(format_formula(f)) == f


ATOMS = st.sampled_from(["p", "q", "r"])


def formulas(depth=3):
    base = st.one_of(ATOMS.map(lambda a: ("atom", a)),
                     st.just(TRUE), st.just(FALSE))
    return st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(lambda f: ("not", f)),
            st.tuples(sub, sub).map(lambda fg: ("and", fg)),
            st.tuples(sub, sub).map(lambda fg: ("or", fg)),
            st.tuples(sub, sub).map(lambda fg: ("implies",) + fg),
            sub.map(lambda f: ("next", f)),
            st.tuples(sub, sub).map(lambda fg: ("until",) + fg),
            sub.map(lambda f: ("eventually", f)),
            sub.map(lambda f: ("always", f))),
        max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_format_parse_roundtrip(f):
    assert parse_ltl(format_formula(f)) == f


def small_world():
    return parse_world("\n".join([
        "var Mode { idle busy broken }",
        "bool hot",
        "rule cools: G (hot -> X !hot)",
        "init: idle & !hot",
    ]))


def test_world_states_and_masks():
    w = small_world()
    assert w.n_states == 6
    assert bin(w.mask(parse_ltl("hot"))).count("1") == 3
    assert bin(w.mask(parse_ltl("idle"))).count("1") == 2
    assert w.mask(parse_ltl("idle & busy")) == 0
    assert w.mask(parse_ltl("idle | !idle")) == w.full_mask
    assert w.mask(parse_ltl("hot -> hot")) == w.full_mask
    with pytest.raises(UnknownAtom):
        w.mask(parse_ltl("cold"))


def test_world_atom_masks_match_each_state():
    sizes = [2, 3, 1, 2, 4, 2, 3, 2, 1, 2, 2, 3]
    variables = []
    for i, size in enumerate(sizes):
        if size == 2 and i % 2:
            variables.append(("b%d" % i, ("b%d" % i, "!b%d" % i), True))
        else:
            variables.append(("v%d" % i, ["v%d_%d" % (i, k)
                                          for k in range(size)], False))
    w = World(variables)
    states = [w.state(i) for i in range(w.n_states)]
    assert w.n_states == len(states) == 6912
    assert states == list(itertools.product(*map(range, sizes)))
    for vi, (name, values, is_bool) in enumerate(variables):
        for k, value in enumerate(values[:1] if is_bool else values):
            bits = format(w.atom_mask(value), "0%db" % w.n_states)[::-1]
            assert bits == "".join("1" if st[vi] == k else "0"
                                   for st in states), value


def test_world_state_count_is_guarded():
    start = time.process_time()
    with pytest.raises(FormatError, match="1099511627776 states"):
        World([("b%d" % i, ("b%d" % i, "!b%d" % i), True)
               for i in range(40)])
    assert time.process_time() - start < 0.5


def test_world_rejects_duplicate_atoms():
    with pytest.raises(FormatError):
        parse_world("var A { x y }\nbool x\n")


def test_parse_world_errors():
    with pytest.raises(FormatError):
        parse_world("var A { solo }\n")
    with pytest.raises(FormatError):
        parse_world("nonsense\n")
    with pytest.raises(FormatError):
        parse_world("bool p\ninit: p\ninit: !p\n")
    with pytest.raises(FormatError):
        parse_world("")


def test_state_rendering():
    w = small_world()
    st0 = w.min_state(w.mask(parse_ltl("busy & hot")))
    assert w.render_state(st0) == "busy & hot"
    assert w.state_dict(st0) == {"Mode": "busy", "hot": "true"}


def test_describe_mask():
    w = small_world()
    assert w.describe_mask(0) == "false"
    assert w.describe_mask(w.full_mask) == "true"
    m = w.mask(parse_ltl("idle & hot"))
    assert w.mask(parse_ltl(w.describe_mask(m))) == m
    # round-trips for arbitrary masks too
    for probe in (0b101010, 0b000111, 0b110001):
        assert w.mask(parse_ltl(w.describe_mask(probe))) == probe


def random_world(rng):
    """One to five variables, each a bool or a var of two to four values."""
    variables = []
    for vi in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            name = "b%d" % vi
            variables.append((name, (name, "!" + name), True))
        else:
            values = ["v%d_%d" % (vi, k) for k in range(rng.randint(2, 4))]
            variables.append(("V%d" % vi, values, False))
    return World(variables)


def test_describe_mask_matches_the_branching_oracle():
    rng = seeded(2210)
    for _ in range(500):
        w = random_world(rng)
        atoms = [w.atom_mask(token) for name, values, is_bool in w.variables
                 for token in ([name] if is_bool else values)]
        for _ in range(6):
            if rng.random() < 0.5:
                mask = rng.getrandbits(w.n_states)
            else:  # a union of conjunctions of atoms and their negations
                mask = 0
                for _ in range(rng.randint(1, 3)):
                    term = w.full_mask
                    for a in rng.sample(atoms, rng.randint(1, len(atoms))):
                        term &= a if rng.random() < 0.5 else w.full_mask ^ a
                    mask |= term
            assert w.describe_mask(mask) == oracle_describe_mask(w, mask)


def test_describe_mask_skips_the_variables_a_mask_ignores():
    # the branching oracle takes minutes here: it splits on all 20 bools
    w = World([("b%d" % i, ("b%d" % i, "!b%d" % i), True) for i in range(20)])
    start = time.process_time()
    assert w.describe_mask(w.atom_mask("b19")) == "b19"
    assert w.describe_mask(w.full_mask ^ w.atom_mask("b19")) == "!b19"
    mask = w.mask(parse_ltl("b0 & !b19 | b7 & b18"))
    assert w.mask(parse_ltl(w.describe_mask(mask))) == mask
    assert time.process_time() - start < 1.0


def test_parse_actions():
    specs = parse_actions("""
        # a tiny pair of specifications
        action Work {
            model: busy -> X (busy | idle);
            returns s: idle;
            returns f: broken;
        }
        action Probe { returns s: hot; returns f: !hot; }
    """)
    assert sorted(specs) == ["Probe", "Work"]
    assert specs["Work"].returns["s"] == ("atom", "idle")
    assert specs["Probe"].model == TRUE


def test_parse_actions_errors():
    with pytest.raises(FormatError):
        parse_actions("action A { returns s: p; } junk")
    with pytest.raises(FormatError):
        parse_actions("action A { wat: p; }")
    with pytest.raises(FormatError):
        parse_actions("action A { returns s: p; } action A { }")
    with pytest.raises(FormatError):
        parse_actions("action A { returns s: p; returns s: q; }")


def test_load_actions_reads_a_large_file_in_linear_time(tmp_path):
    # testing the rest of the text for blank by copying it once per block
    # made this file cost seconds of CPU
    n = 32000
    path = tmp_path / "many.act"
    path.write_text("".join(
        "action A%d { model: p%d; returns s: q; }  # block %d\n" % (i, i, i)
        for i in range(n)) + "\n  \n")
    start = time.process_time()
    specs = load_actions(str(path))
    elapsed = time.process_time() - start
    assert list(specs) == ["A%d" % i for i in range(n)]
    assert specs["A31999"].model == ("atom", "p31999")
    assert specs["A0"].returns == {"s": ("atom", "q")}
    assert elapsed < 2.0
    with pytest.raises(FormatError) as err:
        parse_actions(path.read_text() + "  junk }")
    assert str(err.value) == "cannot parse action block near 'junk }'"


def test_validate_actions_overlap():
    w = small_world()
    specs = parse_actions(
        "action A { returns s: hot; returns f: busy; }")
    with pytest.raises(OverlappingReturns):
        validate_actions(w, specs)
    ok = parse_actions(
        "action A { returns s: hot; returns f: !hot; }")
    validate_actions(w, ok)


def test_validate_actions_requires_propositional_returns():
    w = small_world()
    specs = parse_actions("action A { returns s: X hot; }")
    with pytest.raises(Exception):
        validate_actions(w, specs)


def tiny_structure():
    return DecisionStructure(
        [("a", "A"), ("b", "B"), ("c", "C")],
        [("a", "b", "s"), ("a", "c", "f"), ("b", "c", "s")])


def test_selection_conditions_by_hand():
    z = tiny_structure()
    sel = selection_conditions(z)
    assert sel["a"] == f_and([f_not(("ret", "A", "f")),
                              f_not(("ret", "A", "s"))])
    assert sel["b"] == f_and([("ret", "A", "s"), f_not(("ret", "B", "s"))])
    # c is reached either directly or through b
    assert sel["c"] == f_or([("ret", "A", "f"),
                             f_and([("ret", "A", "s"), ("ret", "B", "s")])])
    assert selection_condition(z, "b") == sel["b"]


def test_selection_conditions_are_exhaustive_and_disjoint():
    w = small_world()
    z = tiny_structure()
    specs = parse_actions("""
        action A { returns s: idle; returns f: busy; }
        action B { returns s: hot; }
        action C { returns s: broken; }
    """)
    grounded = {v: w.mask(ground(f, specs))
                for v, f in selection_conditions(z).items()}
    union = 0
    for v, m in grounded.items():
        for u, m2 in grounded.items():
            if u < v:
                assert not (m & m2), (u, v)
        union |= m
    assert union == w.full_mask


def test_return_condition():
    w = small_world()
    z = tiny_structure()
    specs = parse_actions("""
        action A { returns s: idle; returns f: busy; }
        action B { returns s: hot; }
        action C { returns s: !hot; }
    """)
    got = w.mask(ground(return_condition(z, "s"), specs))
    # only c can derive s: the walk reaches it via A=f or A=s,B=s, and the
    # selection through b demands !B=s, squashing that branch
    want = w.mask(parse_ltl("(busy | idle & hot) & !hot"))
    assert got == want
    assert got == w.mask(parse_ltl("busy & !hot"))


def test_build_psi_missing_spec():
    z = tiny_structure()
    with pytest.raises(MissingSpec):
        build_psi(z, {})


def test_ground_replaces_return_atoms():
    specs = parse_actions("action A { returns s: hot; }")
    f = ground(("and", (("ret", "A", "s"), ("ret", "A", "zz"))), specs)
    assert f == ("and", (("atom", "hot"), FALSE))
    with pytest.raises(MissingSpec):
        ground(("ret", "Nope", "s"), specs)


def test_corpus_world_shape(world, specs, spec_formula):
    assert world.n_states == 864
    assert len(world.rules) == 3
    assert [name for name, _ in world.rules] == \
        ["progression", "fairness", "coupling"]
    validate_actions(world, specs)
    assert spec_formula[0] == "and"
    assert world.mask(parse_ltl("b0 & bLow")) == 0


# -- the one formula walk ----------------------------------------------------


def test_fold_calls_the_rule_once_per_distinct_object():
    p, q = ("atom", "p"), ("atom", "q")
    f, size = p, 1
    for _ in range(60):  # a DAG of 242 objects whose tree has 2^61+ nodes
        f = ("or", (("and", (f, q)), ("and", (f, ("not", q)))))
        size = 1 + (2 + size) + (3 + size)
    calls = []

    def counting(g, parts):
        calls.append(id(g))
        return 1 + sum(parts)

    assert fold(f, counting) == size
    assert len(calls) == len(set(calls)) == 2 + 60 * 4
    # memoized by object, not by value: an equal copy is its own call
    calls.clear()
    fold(("and", (p, tuple(list(p)))), counting)
    assert len(calls) == 3


def test_compile_format_and_mask_match_the_recursive_oracles():
    world, atoms = replay_world()
    rng = seeded(1212)
    seen, lassoed = set(), 0
    for _ in range(20_000):
        f = rand_any_formula(rng, atoms, rng.randint(0, 5), world.full_mask)
        ops = set()
        fold(f, lambda g, _: ops.add(g[0]))
        seen |= ops
        assert compile_nnf(world, f) == oracle_compile_nnf(world, f), f
        assert compile_nnf(world, ("not", f)) == \
            oracle_compile_nnf(world, f, True), f
        assert format_formula(f) == oracle_format_formula(f), f
        if ops & {"next", "until", "eventually", "always"}:
            with pytest.raises(LogicError, match="not a propositional"):
                world.mask(f)
            continue
        m = world.mask(f)
        assert m == oracle_compile_nnf(world, f)[1], f
        if lassoed < 1000 and "mask" not in ops:
            lassoed += 1
            for i in range(world.n_states):
                assert (m >> i & 1) == holds_on_lasso(
                    world, f, [], [world.state(i)]), (f, i)
    assert seen == {"true", "false", "mask", "atom", "not", "and", "or",
                    "implies", "next", "until", "eventually", "always"}
    assert lassoed == 1000


def test_world_mask_refuses_any_temporal_operator():
    w = small_world()
    # a false or true part must not hide a temporal one, in either order
    for text in ("false & X hot", "X hot & false", "G hot | true",
                 "true | G hot", "!(F hot)", "idle -> X hot",
                 "busy & (hot U idle)"):
        with pytest.raises(LogicError, match="not a propositional formula"):
            w.mask(parse_ltl(text))
    ret = ("ret", "A", "s")
    for f in (ret, ("and", (("atom", "hot"), ret))):
        with pytest.raises(LogicError, match="ungrounded return atom"):
            w.mask(f)


def test_validate_actions_masks_each_return_once(monkeypatch):
    w = small_world()
    masked = []
    real = World.mask

    def counting(self, f):
        masked.append(f)
        return real(self, f)

    monkeypatch.setattr(World, "mask", counting)
    specs = parse_actions("action A { returns s: hot & idle; "
                          "returns f: !hot; returns r: hot & busy; }")
    validate_actions(w, specs)
    assert sorted(masked) == sorted(specs["A"].returns.values())


def test_formula_walks_take_deep_formulas_without_recursion():
    # a 5,000-deep X/U ladder over a return atom, built in code: the walks
    # run at a recursion limit of 120, and the results are read back
    # down their spines, as == and repr would recurse
    code = textwrap.dedent("""
        import json, sys
        from decstruct import ActionSpec, World, format_formula
        from decstruct.logic import compile_nnf, ground
        w = World([("p", ["p", "!p"], True), ("q", ["q", "!q"], True)])
        specs = {"A": ActionSpec("A", returns={"s": ("atom", "p")})}
        f = ("ret", "A", "s")
        for i in range(5000):
            f = ("next", f) if i % 2 else ("until", ("atom", "q"), f)

        def spine(g):
            out = []
            while g[0] != "mask" and g[0] != "atom":
                out.append(g[0])
                g = g[-1]
            return out + [g[1]]

        sys.setrecursionlimit(120)
        g = ground(f, specs)
        w.check_atoms(g)
        out = [spine(g), spine(compile_nnf(w, g)),
               spine(compile_nnf(w, ("not", g))), format_formula(f)]
        try:
            w.check_atoms(ground(f, {"A": ActionSpec(
                "A", returns={"s": ("atom", "r")})}))
        except Exception as exc:
            out.append(type(exc).__name__)
        sys.setrecursionlimit(1000)
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=120)
    assert run.returncode == 0, run.stderr
    ladder = ["next", "until"] * 2500
    w = World([("p", ["p", "!p"], True), ("q", ["q", "!q"], True)])
    p = w.mask(parse_ltl("p"))
    text = "ret(A, s)"
    for i in range(5000):
        text = "X (%s)" % text if i % 2 else "q U " + text
    assert json.loads(run.stdout) == [
        ladder + ["p"], ladder + [p],
        [op.replace("until", "release") for op in ladder] + [w.full_mask ^ p],
        text, "UnknownAtom"]


def test_parse_ltl_reads_deep_formulas_without_recursion():
    # 1,200 parentheses, prefixes, right-grouping operators and
    # conjunctions nested through parentheses, read at a recursion limit
    # of 120 and compared as text, as == on the trees would recurse
    n = 1200
    nested = "a%d & a%d" % (n - 2, n - 1)
    for i in reversed(range(n - 2)):
        nested = "a%d & (%s)" % (i, nested)
    texts = ["(" * n + "a" + ")" * n, "!(" * n + "a" + ")" * n,
             "G " * n + "a", " -> ".join("a%d" % i for i in range(n)), nested]
    code = textwrap.dedent("""
        import json, sys
        from decstruct import format_formula, parse_ltl
        texts = json.load(sys.stdin)
        sys.setrecursionlimit(120)
        out = [format_formula(parse_ltl(text)) for text in texts]
        sys.setrecursionlimit(1000)
        print(json.dumps(out))
    """)
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         input=json.dumps(texts), text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["a", "!" * n + "a"] + texts[2:]

"""Module detection, quotients, contraction/expansion, decomposition."""

import glob
import hashlib
import itertools
import json
import os
import subprocess
import sys
import textwrap

import pytest

import decstruct
import decstruct.modules as modules
from decstruct import (
    DecisionStructure,
    ElementNotAModule,
    NotAModule,
    NotAPartition,
    SizeLimitExceeded,
    StructureError,
    block_id,
    classify,
    construct_kbt,
    construct_tr,
    contract,
    decompose,
    derived_return,
    enumerate_modular_partitions,
    expand,
    extract_kbt,
    find_modules,
    format_structure,
    is_module,
    load_structure,
    nontrivial_modules,
    quotient,
    structurally_equivalent,
)
from conftest import CORPUS, structure
from oracles import (comb, oracle_decompose, oracle_is_module,
                     oracle_modules, oracle_sweep, rand_structure, rand_term,
                     seeded)


def chain(n, label="d"):
    nodes = [("n%d" % i, "act%d" % i) for i in range(n)]
    arcs = [("n%d" % i, "n%d" % (i + 1), label) for i in range(n - 1)]
    return DecisionStructure(nodes, arcs)


def test_is_module_basics():
    z = structure("bt_example")
    for v in z.node_ids():
        assert is_module(z, {v})
    assert is_module(z, set(z.node_ids()))
    assert not is_module(z, set())
    with pytest.raises(StructureError):
        is_module(z, {"a", "nope"})


def test_is_module_requires_shared_exit_labels():
    # d exits with f but e lacks an f arc, so {d, e} cannot stand alone
    z = DecisionStructure(
        [("a", "w"), ("d", "x"), ("e", "y"), ("f", "z"), ("g", "z")],
        [("a", "d", "s"), ("d", "e", "s"), ("d", "f", "f"),
         ("e", "g", "s")])
    assert not is_module(z, {"d", "e"})
    assert oracle_is_module(z, {"d", "e"}) is False
    # giving e its own f arc to the same head repairs it
    z2 = DecisionStructure(
        z.nodes, z.arcs + [("e", "f", "f")])
    assert is_module(z2, {"d", "e"})
    assert oracle_is_module(z2, {"d", "e"})


def test_is_module_requires_single_external_head_per_label():
    z = DecisionStructure(
        [("a", "w"), ("b", "x"), ("c", "x"), ("d", "y"), ("e", "y")],
        [("a", "b", "s"), ("b", "c", "s"), ("b", "d", "f"),
         ("c", "e", "f")])
    # b and c both leave with f but toward different heads
    assert not is_module(z, {"b", "c"})
    assert oracle_is_module(z, {"b", "c"}) is False


def test_is_module_requires_entries_through_one_node():
    z = DecisionStructure(
        [("a", "w"), ("b", "x"), ("c", "y"), ("d", "z")],
        [("a", "b", "s"), ("a", "c", "f"), ("b", "d", "s"),
         ("c", "d", "s"), ("b", "c", "m")])
    # c and d are entered from outside {c, d} at two different nodes
    assert not is_module(z, {"c", "d"})
    assert oracle_is_module(z, {"c", "d"}) is False


def test_is_module_matches_oracle_on_every_subset():
    # node and arc lists shuffled, so z.nodes is not in topological order
    rng = seeded(808)
    for _ in range(400):
        z = rand_structure(rng, rng.randint(1, 8))
        nodes, arcs = list(z.nodes), list(z.arcs)
        rng.shuffle(nodes)
        rng.shuffle(arcs)
        z = DecisionStructure(nodes, arcs)
        ids = z.node_ids()
        for k in range(1, len(ids) + 1):
            for members in itertools.combinations(ids, k):
                assert is_module(z, members) == \
                    oracle_is_module(z, members), (z.nodes, z.arcs, members)


def test_is_module_builds_no_structure(monkeypatch):
    z = structure("z2")
    sets = find_modules(z) + [{"b0", "calm"}]
    built = []
    real = DecisionStructure.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(DecisionStructure, "__init__", counting)
    found = [is_module(z, m) for m in sets]
    assert found == [True] * (len(sets) - 1) + [False]
    assert built == []


def test_every_chain_segment_is_a_module():
    z = chain(4)
    segments = [frozenset("n%d" % i for i in range(lo, hi + 1))
                for lo in range(4) for hi in range(lo + 1, 4)]
    assert sorted(find_modules(z), key=sorted) == sorted(segments, key=sorted)
    for seg in segments:
        assert is_module(z, seg)


def test_find_modules_on_btswitch_frozen():
    z = structure("btswitch")
    got = {tuple(sorted(m)) for m in nontrivial_modules(z)}
    assert got == {
        ("a", "b"),
        ("d", "e"),
        ("e", "f"),
        ("h", "i"),
        ("d", "e", "f"),
        ("d", "e", "f", "g"),
        ("d", "e", "f", "g", "h", "i"),
        ("c", "d", "e", "f", "g", "h", "i"),
    }


def test_find_modules_on_not_bt_frozen():
    z = structure("not_bt")
    assert [sorted(m) for m in nontrivial_modules(z)] == [["a", "b", "c", "d"]]


def test_find_modules_includes_the_whole_node_set():
    z = structure("bt_example")
    assert frozenset(z.node_ids()) in find_modules(z)


def test_find_modules_matches_oracle_on_corpus():
    for name in ("z1", "k", "q", "bt_example", "not_bt"):
        z = structure(name)
        if len(z.nodes) > 9:
            continue
        assert find_modules(z) == oracle_modules(z), name


def test_block_id():
    assert block_id(frozenset(["x"])) == "x"
    assert block_id(frozenset(["b", "a"])) == "mod(a,b)"


def test_quotient_and_contract_z2():
    z = structure("z2")
    h = {"b0", "bLow", "calm", "bHigh", "bright", "Avoid", "Land"}
    small = contract(z, h)
    assert len(small.nodes) == 8
    assert len(small.arcs) == 11
    assert small.source == "mod(Avoid,Land,b0,bHigh,bLow,bright,calm)"
    # singletons keep their identity and action
    for v in set(z.node_ids()) - h:
        assert small.action_of[v] == z.action_of[v]


def test_contract_checks_the_module_once(monkeypatch):
    import decstruct.modules as modules
    checked = []

    def counted(z, members):
        checked.append(members)
        return is_module(z, members)

    monkeypatch.setattr(modules, "is_module", counted)
    z = structure("z2")
    contract(z, {"b0", "bLow", "calm", "bHigh", "bright", "Avoid", "Land"})
    assert len(checked) == 1


def test_quotient_checks_every_block_against_one_sweep_context(monkeypatch):
    # the O(n) tables of a sweep context are built once per quotient, not
    # once per block, so a partition into singletons costs O(n), not Θ(n²)
    calls = []
    real = DecisionStructure.topological_order

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(DecisionStructure, "topological_order", counted)
    counts = []
    for n in (10, 300):
        z = rand_structure(seeded(n), n)
        calls.clear()
        q = quotient(z, [[v] for v in reversed(z.node_ids())])
        assert sorted(q.nodes) == sorted(z.nodes)
        assert sorted(q.arcs) == sorted(z.arcs)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_quotient_validates_partitions():
    z = structure("bt_example")
    ids = z.node_ids()
    with pytest.raises(NotAPartition):
        quotient(z, [frozenset(ids[:2]), frozenset(ids[1:])])
    with pytest.raises(NotAPartition):
        quotient(z, [frozenset(ids[:2])])
    with pytest.raises(NotAPartition) as err:
        quotient(z, [[v] for v in ids] + [["x2", "x1"]])
    assert str(err.value) == "not a partition: unknown nodes: {x1, x2}"
    with pytest.raises(NotAModule):
        contract(z, {"a", "h"})
    with pytest.raises(ElementNotAModule):
        singles = [frozenset([v]) for v in ids if v not in ("a", "h")]
        quotient(z, [frozenset(["a", "h"])] + singles)


def test_expand_inverts_contract_on_z2():
    z = structure("z2")
    h = frozenset({"b0", "bLow", "calm", "bHigh", "bright", "Avoid", "Land"})
    small = contract(z, h)
    inner = z.induced(h)
    back = expand(small, block_id(h), inner)
    assert structurally_equivalent(back, z)


def test_expand_renames_colliding_ids():
    z = DecisionStructure(
        [("a", "go"), ("b", "stop")], [("a", "b", "s")])
    q = DecisionStructure(
        [("a", "ping"), ("c", "pong")], [("a", "c", "s")])
    big = expand(z, "b", q)
    # q's node "a" collides with the host's "a" and is renamed
    assert len(big.nodes) == 3
    assert sorted(big.action_of.values()) == ["go", "ping", "pong"]
    assert "a" in big.action_of and "c" in big.action_of


def test_expand_renames_chained_collisions():
    # a new id skips every id taken so far, the host's and q's alike:
    # q's a skips the host's a_2 and the a_3 q kept
    z = DecisionStructure(
        [("a", "go"), ("a_2", "go"), ("v", "stop")],
        [("a", "a_2", "s"), ("a_2", "v", "s")])
    q = DecisionStructure(
        [("a_3", "ping"), ("a", "pong"), ("a_2", "pang")],
        [("a_3", "a", "s"), ("a", "a_2", "s")])
    big = expand(z, "v", q)
    assert big.nodes == [("a", "go"), ("a_2", "go"), ("a_3", "ping"),
                         ("a_4", "pong"), ("a_2_2", "pang")]
    assert big.arcs == [("a", "a_2", "s"), ("a_2", "a_3", "s"),
                        ("a_3", "a_4", "s"), ("a_4", "a_2_2", "s")]


def test_expand_routes_replaced_out_arcs_to_all_new_sinks():
    z = DecisionStructure(
        [("a", "go"), ("b", "stop"), ("c", "end")],
        [("a", "b", "s"), ("b", "c", "f")])
    q = DecisionStructure(
        [("p", "ping"), ("r", "pong")], [("p", "r", "s")])
    big = expand(z, "b", q)
    # every node of q that lacks an f arc inherits b's f arc to c
    assert big.out["p"]["f"] == "c"
    assert big.out["r"]["f"] == "c"


def test_decompose_single_node():
    z = DecisionStructure([("only", "act")], [])
    d = decompose(z)
    assert d.kind == "leaf" and d.node == "only" and d.action == "act"


def test_decompose_chain_is_a_uniform_path():
    d = decompose(chain(4))
    assert d.kind == "path"
    assert d.label == "d"
    assert [c.kind for c in d.children] == ["leaf"] * 4
    assert [c.node for c in d.children] == ["n0", "n1", "n2", "n3"]


def test_decompose_members_partition_at_every_level():
    for name in ("z1", "z2", "btswitch", "not_bt", "z4"):
        z = structure(name)
        for node in decompose(z).walk():
            if node.is_leaf():
                continue
            union = set()
            for c in node.children:
                assert not (union & c.members)
                union |= c.members
            assert union == node.members
            assert node.quotient is not None
            assert len(node.quotient.nodes) == len(node.children)


def test_decompose_not_bt_shape():
    d = decompose(structure("not_bt"))
    assert d.kind == "path"
    kinds = sorted(c.kind for c in d.children)
    assert kinds == ["leaf", "prime"]
    prime = next(c for c in d.children if c.kind == "prime")
    assert sorted(prime.members) == ["a", "b", "c", "d"]


def test_enumerate_modular_partitions_chain():
    parts = enumerate_modular_partitions(chain(3))
    # {n0|n1|n2}, {n0, n1|n2}, {n0|n1, n2}, {n0 n1 n2}
    assert [sorted(sorted(b) for b in p) for p in parts] == [
        [["n0", "n1", "n2"]],
        [["n0"], ["n1", "n2"]],
        [["n0", "n1"], ["n2"]],
        [["n0"], ["n1"], ["n2"]],
    ]
    with pytest.raises(SizeLimitExceeded):
        enumerate_modular_partitions(chain(9))


def test_find_modules_matches_oracle_randomized():
    rng = seeded(20260815)
    for _ in range(60):
        z = rand_structure(rng, rng.randint(2, 8))
        assert find_modules(z) == oracle_modules(z), format(z)


def test_quotient_of_modular_partition_validates():
    rng = seeded(7)
    for _ in range(40):
        z = rand_structure(rng, rng.randint(3, 8))
        for part in enumerate_modular_partitions(z)[:6]:
            q = quotient(z, part)
            assert len(q.nodes) == len(part)


def test_decompose_invariant_survives_optimized_python(monkeypatch):
    # a broken invariant raises StructureError, not an assert that -O
    # strips. Each level is cut into its first two nodes and single nodes
    # after them, which is no path at the top: in the chain a0 -s-> a1
    # -f-> a2 -s-> a3, a2 is entered with f and a3 with s; in skips, v is
    # entered from u and from p, two blocks before it, with one label s
    def cut(z, pos, members, sizes):
        k = 2 if len(members) > 2 else 1  # no block is the whole level
        return [members[:k]] + [[v] for v in members[k:]]

    monkeypatch.setattr(modules, "_path_blocks", cut)
    skips = DecisionStructure(
        [("p", "p"), ("t", "t"), ("u", "u"), ("v", "v")],
        [("p", "t", "f"), ("t", "u", "s"), ("u", "v", "s"), ("p", "v", "s")])
    for z in (alternating_chain(4), skips):
        with pytest.raises(StructureError, match="not a uniform path"):
            decompose(z)


def random_structures():
    rng = seeded(202)  # the structures of suite_decomposition
    return [rand_structure(rng, rng.randint(1, 10)) for _ in range(210)]


def kbt_structures():
    rng = seeded(2020)
    return [construct_kbt(rand_term(rng, labels=("s", "f", "m"),
                                    max_leaves=12))
            for _ in range(150)]


def corpus_structures():
    return [load_structure(p) for p in sorted(glob.glob(CORPUS + "/*.ds"))]


def large_kbt_structures():
    rng = seeded(2030)
    return [construct_kbt(rand_term(rng, labels=("s", "f", "m"),
                                    max_leaves=30))
            for _ in range(40)]


def nested_structures():
    """Random structures with random structures and operator terms
    expanded into their nodes, which gives prime levels whose children
    are themselves decomposed."""
    rng = seeded(2040)
    out = []
    for _ in range(60):
        z = rand_structure(rng, rng.randint(2, 8))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                q = rand_structure(rng, rng.randint(2, 7))
            else:
                q = construct_kbt(rand_term(rng, max_leaves=8))
            z = expand(z, rng.choice(z.node_ids()), q)
        out.append(z)
    return out


def module_leaving_a_prime_level():
    """{s, a, v} is a prime level of the tree, while the module {v, w}
    starts inside it and leaves it, so v's block must stop before w."""
    return DecisionStructure(
        [("s", "s"), ("a", "a"), ("v", "v"), ("w", "w"), ("h", "h")],
        [("s", "a", "s"), ("s", "v", "f"), ("a", "v", "s"), ("a", "h", "f"),
         ("v", "h", "f"), ("v", "w", "s"), ("w", "h", "f")])


def test_decompose_matches_a_fresh_module_search_per_level():
    inputs = (random_structures() + kbt_structures() + corpus_structures()
              + large_kbt_structures() + nested_structures()
              + [module_leaving_a_prime_level()])
    for z in inputs:
        got, want = decompose(z), oracle_decompose(z)
        assert got.to_dict() == want.to_dict(), format(z)
        pos = modules._sweeps(z).pos
        for g, w in zip(got.walk(), want.walk()):
            if not g.is_leaf():
                # a level lists its blocks by their sources' places in the
                # sweeps' order, the first of each block's members there
                start = {block_id(c.members): min(map(pos.get, c.members))
                         for c in w.children}
                assert g.quotient.nodes == sorted(
                    w.quotient.nodes, key=lambda node: start[node[0]])
                assert g.quotient.arcs == w.quotient.arcs
                assert g.quotient == w.quotient
                assert (g.quotient.topological_order()
                        == w.quotient.topological_order())


def count_sweeps(monkeypatch):
    """The table reads each context really runs, as (context, seed, stop)."""
    swept = []
    real = modules._sweeps.sizes

    def counted(self, a, stop):
        swept.append((self, self.order[a], stop))
        return real(self, a, stop)

    monkeypatch.setattr(modules._sweeps, "sizes", counted)
    return swept


def alternating_chain(n):
    """a0 -s-> a1 -f-> a2 -s-> ... a<n-1>: n - 1 nested two-block paths."""
    return DecisionStructure(
        [("a%d" % i, "x%d" % i) for i in range(n)],
        [("a%d" % i, "a%d" % (i + 1), "sf"[i % 2]) for i in range(n - 1)])


def test_decompose_sweeps_only_the_source_of_a_chain(monkeypatch):
    # every prefix of a tr chain is a module, so sweeping each node to the
    # chain's end would cost Θ(n²); decompose builds one table and reads
    # each level off its own source alone. An alternating chain nests a
    # path per node, so its 300 levels read a0's 301 nodes, a1's 300, ...
    tables, sweeps = [], []
    real_init, real_sizes = modules._sweeps.__init__, modules._sweeps.sizes

    def init(self, z):
        tables.append(z)
        real_init(self, z)

    def sizes(self, a, stop):
        sweeps.append((self.order[a], stop))
        return real_sizes(self, a, stop)

    monkeypatch.setattr(modules._sweeps, "__init__", init)
    monkeypatch.setattr(modules._sweeps, "sizes", sizes)
    for z, children, levels in (
            (construct_tr(["a%d" % i for i in range(120)]), 120, 1),
            (alternating_chain(301), 2, 300)):
        tables.clear()
        sweeps.clear()
        d = decompose(z)
        assert d.kind == "path" and len(d.children) == children
        assert tables == [z]
        n = len(z.nodes)
        assert sweeps == [("a%d" % i, n - i) for i in range(levels)]


def dominated(z, v):
    """The nodes v dominates, by brute force: v, and those z's source no
    longer reaches once v is gone."""
    seen = {z.source} if v != z.source else set()
    stack = list(seen)
    while stack:
        for h in z.out[stack.pop()].values():
            if h != v and h not in seen:
                seen.add(h)
                stack.append(h)
    return set(z.action_of) - seen


def test_sweeps_are_runs_of_a_dominator_tree_preorder():
    # the sweeps' order is topological, the nodes each v dominates are one
    # run of it from v, and v's sweep, full or cut short, has the module
    # prefixes of the heap sweep by topological order
    rng = seeded(2121)
    inputs = kbt_structures() + large_kbt_structures() + nested_structures()
    inputs += [alternating_chain(40), comb(30)]
    for i in range(2000):
        # the larger ones hold many open heads per label at once
        z = rand_structure(rng, rng.randint(13, 60) if i % 20 < 2 else
                           rng.randint(1, 12))
        if i % 2:
            nodes, arcs = list(z.nodes), list(z.arcs)
            rng.shuffle(nodes)
            rng.shuffle(arcs)
            z = DecisionStructure(nodes, arcs)
        inputs.append(z)
    for z in inputs:
        sweeps = modules._sweeps(z)
        order, pos = sweeps.order, sweeps.pos
        assert sorted(order) == sorted(z.action_of)
        assert pos == {v: i for i, v in enumerate(order)}
        assert all(pos[t] < pos[h] for t, h, _ in z.arcs), format(z)
        for v in z.action_of:
            run = order[pos[v]:pos[v] + sweeps.span[v]]
            assert set(run) == dominated(z, v), (format(z), v)
            got, sizes = sweeps(v)
            want, want_sizes = oracle_sweep(z, v)
            assert sizes == want_sizes and got == run[:sizes[-1]]
            assert all(set(got[:k]) == set(want[:k]) for k in sizes)
            stop = rng.randint(1, len(run))
            cut, cut_sizes = modules._sweeps(z)(v, stop)
            assert cut_sizes == [k for k in sizes if k <= stop] == \
                oracle_sweep(z, v, stop)[1]
            assert cut == got[:cut_sizes[-1]]


def test_sweeps_run_once_per_seed_and_match_the_oracles(monkeypatch):
    swept = count_sweeps(monkeypatch)
    rng = seeded(909)
    inputs = corpus_structures()
    for _ in range(400):
        z = rand_structure(rng, rng.randint(1, 8))
        nodes, arcs = list(z.nodes), list(z.arcs)
        rng.shuffle(nodes)
        rng.shuffle(arcs)
        inputs.append(DecisionStructure(nodes, arcs))
    for z in inputs:
        swept.clear()
        got = decompose(z)
        # one read per non-leaf level, of its source up to its size
        pos = modules._sweeps(z).pos
        levels = [(min(d.members, key=pos.get), len(d.members))
                  for d in got.walk() if not d.is_leaf()]
        reads = [(seed, stop) for _, seed, stop in swept]
        assert sorted(reads) == sorted(levels), format(z)
        assert got.to_dict() == oracle_decompose(z).to_dict()
        ids = z.node_ids()
        if len(ids) <= 8:
            assert find_modules(z) == oracle_modules(z)
            subsets = [m for k in range(1, len(ids) + 1)
                       for m in itertools.combinations(ids, k)]
        else:
            subsets = [rng.sample(ids, rng.randint(1, len(ids)))
                       for _ in range(200)]
        # one context answers them all in random order, so a check may
        # read the prefix of an earlier, longer sweep of its first node
        rng.shuffle(subsets)
        sweeps = modules._sweeps(z)
        for m in subsets:
            assert sweeps.is_module(set(m)) == oracle_is_module(z, m), \
                (format(z), m)


# sha256 over decompose (the tree and every quotient's nodes and arcs),
# classify, extract_kbt and find_modules of 5,000 seeded random structures
# and k-BT terms, half with shuffled node and arc orders; first computed
# before module prefixes were read off one interval table per structure
MODULES_DIGEST = \
    "7eeff4f91618717b755d3667f57c56f670c9302d639ca3ed267ded5cfffcf16c"


def test_module_outputs_are_pinned_on_random_inputs():
    rng = seeded(2727)
    digest = hashlib.sha256()
    for i in range(5000):
        if i % 4 < 2:
            z = rand_structure(rng, rng.randint(1, 16))
        else:
            z = construct_kbt(rand_term(rng, labels=("s", "f", "m"),
                                        max_leaves=rng.randint(1, 20)))
        if i % 2:
            nodes, arcs = list(z.nodes), list(z.arcs)
            rng.shuffle(nodes)
            rng.shuffle(arcs)
            z = DecisionStructure(nodes, arcs)
        d = decompose(z)
        rows = [json.dumps(d.to_dict())]
        rows += [repr((level.quotient.nodes, level.quotient.arcs))
                 for level in d.walk() if not level.is_leaf()]
        rows += [repr(classify(z)), repr(extract_kbt(z)),
                 repr([sorted(m) for m in find_modules(z)])]
        digest.update("\n".join(rows).encode() + b"\0")
    assert digest.hexdigest() == MODULES_DIGEST


def test_modules_of_a_module_are_the_modules_of_z_inside_it():
    rng = seeded(20261018)
    randoms = [rand_structure(rng, rng.randint(2, 12)) for _ in range(150)]
    for z in randoms + kbt_structures():
        mods = find_modules(z)
        for m in mods:
            assert find_modules(z.induced(m)) == [o for o in mods if o <= m]


def test_deep_trees_are_built_and_read_without_recursion(tmp_path):
    # a 301-node alternating s/f chain nests 300 paths, far past the
    # lowered recursion limit, for the library and the CLI alike
    n = 301
    z = alternating_chain(n)
    path = tmp_path / "deep.ds"
    path.write_text(format_structure(z))
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        from decstruct import decompose, load_structure
        from decstruct.cli import main
        z = load_structure(sys.argv[1])
        sys.setrecursionlimit(120)
        outputs = [decompose(z).to_dict(), repr(decompose(z))]
        for argv in (["decompose"], ["complexity"],
                     ["--format", "json", "complexity"], ["classify"],
                     ["--format", "json", "classify"], ["extract"],
                     ["export-dot", "--decomposition"],
                     ["--format", "json", "decompose"]):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv + [sys.argv[1]]) == 0, argv
            outputs.append(buf.getvalue())
        # the stdlib reader and writer nest frames per level; the tree's
        # ~22 MB of indented JSON goes back parsed
        sys.setrecursionlimit(1000)
        outputs[-1] = json.loads(outputs[-1])
        print(json.dumps(outputs))
    """)
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code, str(path)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert run.returncode == 0, run.stderr
    (tree, tree_repr, text, report, report_json, kind, kind_json, term,
     dot, tree_json) = json.loads(run.stdout)
    assert tree_json == tree
    depth = 0
    while tree["kind"] != "leaf":
        assert tree["kind"] == "path" and len(tree["children"]) == 2
        tree, depth = tree["children"][1], depth + 1
    assert depth == n - 1
    lines = text.splitlines()
    assert len(lines) == 2 * n - 1
    assert lines[-1] == " " * 2 * (n - 1) + "leaf a%d (x%d)" % (n - 1, n - 1)
    assert report == "cyclomatic 1\nessential  1\n"
    assert json.loads(report_json)["essential"] == 1
    want = "x%d" % (n - 1)
    for i in reversed(range(n - 1)):
        want = "(%s x%d %s)" % (("seq", "fb")[i % 2], i, want)
    assert term == want + "\n"
    assert "kbt         yes\n    %s\n" % want in kind
    assert json.loads(kind_json)["kbt"] == want
    want = "Leaf(a%d)" % (n - 1)
    for i in reversed(range(n - 1)):
        want = "path[%s](Leaf(a%d), %s)" % ("sf"[i % 2], i, want)
    assert tree_repr == want
    lines = dot.splitlines()
    assert dot.count("subgraph cluster_") == n - 1
    assert lines[2:4] == ["  subgraph cluster_1 {", '    label="path[s]";']
    indent = "  " * n
    assert lines[3 * n - 1] == indent + '"a%d" [label="x%d"];' % (n - 1, n - 1)
    assert lines[3 * n:4 * n - 1] == ["  " * i + "}"
                                      for i in range(n - 1, 0, -1)]


def test_decompose_keeps_one_frame_per_tree_level():
    # an alternating s/f chain of 990 nodes decomposes into 989 nested
    # paths; under the default recursion limit of 1000 that fits only with
    # one frame per level, so it runs in a fresh process
    code = textwrap.dedent("""
        from decstruct import DecisionStructure, decompose
        n = 990
        z = DecisionStructure(
            [("a%d" % i, "x%d" % i) for i in range(n)],
            [("a%d" % i, "a%d" % (i + 1), "sf"[i % 2]) for i in range(n - 1)])
        d, depth = decompose(z), 0
        while not d.is_leaf():
            assert d.kind == "path" and len(d.children) == 2
            d, depth = d.children[1], depth + 1
        print(depth)
    """)
    src = os.path.dirname(os.path.dirname(decstruct.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["989"]

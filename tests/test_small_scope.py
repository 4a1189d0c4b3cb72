"""Every small structure, checked against the oracles and the paper's claim.

The enumeration takes every decision structure whose node ids n0, n1, ...
are in topological order and whose actions a0, a1, ... are distinct: up
to 5 nodes over the labels {s, f} and up to 4 over {s, f, m}. The terms
are every compressed operator term over the leaves a0 .. a(k-1), in every
leaf order, for the same bounds. A structure is a k-BT exactly when one
of those terms builds it, and its extracted term must rebuild it. It is
a TR program exactly when a one-label term builds it, and its action list
is then that term's leaves in order. A structure over {s, f} is a DT
exactly when a predicate tree of up to 5 nodes, over the actions in any
order, builds it with top read as f and bot as s, and its extracted tree
must rebuild it so. Contracting each nontrivial module of a structure
and expanding it back gives the structure again, and the contracted
structure fed the module's own derived return selects as it did.
"""

import itertools

from decstruct import (DecisionStructure, Leaf, Op, Pred, block_id,
                       classify, construct_dt, construct_kbt, contract,
                       decompose, derived_return, expand, find_modules,
                       nontrivial_modules, structurally_equivalent)
from oracles import oracle_decompose, oracle_modules

BOUNDS = (("sf", 5), ("sfm", 4))  # (labels, most nodes)
DT_AS_SF = {"top": "f", "bot": "s"}


def out_choices(i, n, labels):
    """Every out-arc set of node i of n: distinct labels, distinct heads,
    each head after i."""
    heads = range(i + 1, n)
    return [list(zip(chosen, hs))
            for k in range(min(len(labels), len(heads)) + 1)
            for chosen in itertools.combinations(labels, k)
            for hs in itertools.permutations(heads, k)]


def small_structures(labels, n):
    """Every structure on n0 .. n(n-1) in topological order: each node
    after the first has an in-arc, so n0 is the one source and reaches
    every node."""
    nodes = [("n%d" % i, "a%d" % i) for i in range(n)]
    for outs in itertools.product(*(out_choices(i, n, labels)
                                    for i in range(n))):
        arcs = [("n%d" % i, "n%d" % h, r)
                for i, out in enumerate(outs) for r, h in out]
        if len({h for _, h, _ in arcs}) == n - 1:
            yield DecisionStructure(nodes, arcs)


def compressed_terms(leaves, labels, parent=None):
    """Every compressed term over leaves in this order: each operator has
    two or more children and none with its own label."""
    if len(leaves) == 1:
        yield Leaf(leaves[0])
        return
    n = len(leaves)
    for label in labels:
        if label == parent:
            continue
        for k in range(1, n):
            for cuts in itertools.combinations(range(1, n), k):
                bounds = (0,) + cuts + (n,)
                parts = [compressed_terms(leaves[a:b], labels, label)
                         for a, b in zip(bounds, bounds[1:])]
                for children in itertools.product(*map(list, parts)):
                    yield Op(label, list(children))


def predicate_trees(actions):
    """Every predicate tree whose preorder is these actions."""
    if len(actions) == 1:
        yield Leaf(actions[0])
        return
    for k in range(1, len(actions) - 1, 2):  # a full binary tree is odd
        for yes in predicate_trees(actions[1:k + 1]):
            for no in predicate_trees(actions[k + 1:]):
                yield Pred(actions[0], yes, no)


def as_sf(dt):
    """A structure built from a predicate tree, top read as f, bot as s."""
    return DecisionStructure(list(dt.nodes), [(t, h, DT_AS_SF[r])
                                              for t, h, r in dt.arcs])


def shape(z):
    """z up to its node ids, which distinct actions make a full key."""
    return (len(z.nodes),
            frozenset((z.action_of[t], z.action_of[h], r)
                      for t, h, r in z.arcs))


def term_labels(term):
    """The labels of the operators in term."""
    if isinstance(term, Leaf):
        return set()
    return {term.label}.union(*(term_labels(c) for c in term.children))


def test_small_structures_match_the_oracles_and_the_kbt_claim():
    terms, built, inputs = 0, set(), []
    chains = {}  # shape built by a one-label term -> its leaves in order
    for labels, most in BOUNDS:
        for n in range(1, most + 1):
            for leaves in itertools.permutations("a%d" % i for i in range(n)):
                for term in compressed_terms(leaves, labels):
                    terms += 1
                    built.add(shape(construct_kbt(term)))
                    if len(term_labels(term)) <= 1:
                        chains[shape(construct_kbt(term))] = list(leaves)
            inputs.extend(small_structures(labels, n))
    # the sizes of the enumeration at these bounds; the {s, f} terms of up
    # to 4 leaves are counted twice and build the same structures
    assert (len(inputs), terms, len(built)) == (1045 + 952, 11369 + 2329,
                                                13129)
    dts = {shape(as_sf(construct_dt(tree)))
           for n in range(1, BOUNDS[0][1] + 1)
           for leaves in itertools.permutations("a%d" % i for i in range(n))
           for tree in predicate_trees(leaves)}
    kbts = trs = dt_count = 0
    for z in inputs:
        assert find_modules(z) == oracle_modules(z), z.arcs
        assert decompose(z).to_dict() == oracle_decompose(z).to_dict(), \
            z.arcs
        result = classify(z)
        assert result["is_kbt"] == (shape(z) in built), z.arcs
        # a TR program is a one-label term, and its list is the chain
        assert result["is_tr"] == (shape(z) in chains), z.arcs
        assert result["tr"] == chains.get(shape(z)), z.arcs
        trs += result["is_tr"]
        if set(z.labels()) <= {"s", "f"}:
            assert result["is_dt"] == (shape(z) in dts), z.arcs
            dt_count += result["is_dt"]
            if result["is_dt"]:
                assert structurally_equivalent(
                    as_sf(construct_dt(result["dt"])), z), z.arcs
        if result["is_kbt"]:
            kbts += 1
            assert structurally_equivalent(construct_kbt(result["kbt"]), z)
    assert 0 < kbts < len(inputs)
    # the one-node structure, and for 2 to 5 nodes over {s, f} and 2 to 4
    # over {s, f, m} one chain per label
    assert trs == (1 + 4 * 2) + (1 + 3 * 3)
    # the predicate trees of 1, 3 and 5 nodes over every action order; the
    # DTs among the inputs: the one-node structure and the two 3-node trees
    # rooted at n0, met in both enumerations, and 2 * 8 5-node trees, one
    # per tree shape and topological order of its nodes
    assert (len(dts), dt_count) == (1 + 6 + 2 * 120, 2 * (1 + 2) + 2 * 8)


def test_contract_and_expand_keep_every_small_structure():
    """For each nontrivial module M of each input z, expanding the module
    node of contract(z, M) by z.induced(M) gives z back, and under every
    state, each action taking one of the labels or no value, the
    contracted structure fed the induced part's derived return gives z's:
    oracles.hierarchical_select, with both parts built once per (z, M)."""
    pairs = states = 0
    for labels, most in BOUNDS:
        for n in range(2, most + 1):
            actions = ["a%d" % i for i in range(n)]
            every_state = [
                {a: r for a, r in zip(actions, values) if r is not None}
                for values in itertools.product((None, *labels), repeat=n)]
            for z in small_structures(labels, n):
                for members in nontrivial_modules(z):
                    small, inner = contract(z, members), z.induced(members)
                    node = block_id(members)
                    assert structurally_equivalent(
                        expand(small, node, inner), z), (z.arcs, members)
                    module = small.action_of[node]
                    for state in every_state:
                        fed = dict(state)
                        fed[module] = derived_return(inner, state)
                        assert derived_return(small, fed) == derived_return(
                            z, state), (z.arcs, members, state)
                    pairs += 1
                    states += len(every_state)
    assert (pairs, states) == (2023, 476460)

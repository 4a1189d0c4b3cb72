"""Core graph type: validation, selection walks, equivalence, file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decstruct import (
    CycleFound,
    DecisionStructure,
    DuplicateArcLabel,
    FormatError,
    MultipleSources,
    NoSource,
    ParallelArcs,
    StructureError,
    derived_return,
    format_structure,
    load_actions,
    load_structure,
    load_world,
    parse_structure,
    select,
    structurally_equivalent,
    validate,
)
from oracles import rand_structure, seeded


def small():
    return DecisionStructure(
        [("a", "check"), ("b", "move"), ("c", "retry"), ("d", "stop")],
        [("a", "b", "s"), ("a", "c", "f"), ("b", "d", "s"), ("c", "b", "s")])


def test_basic_queries():
    z = small()
    assert z.source == "a"
    assert z.node_ids() == ["a", "b", "c", "d"]
    assert z.sinks() == ["d"]
    assert z.labels() == ["f", "s"]
    order = z.topological_order()
    assert order[0] == "a"
    assert order.index("b") > order.index("c")
    assert set(order) == {"a", "b", "c", "d"}


def test_validate_rejects_cycle():
    with pytest.raises(CycleFound) as err:
        validate([("a", "x"), ("b", "y"), ("c", "z")],
                 [("a", "b", "s"), ("b", "c", "s"), ("c", "b", "f")])
    assert "b" in err.value.path


def test_validate_rejects_cycle_off_the_main_trunk():
    # the cycle is not reachable from the source but must still be caught
    with pytest.raises(StructureError):
        validate([("a", "x"), ("b", "y"), ("c", "y"), ("d", "y")],
                 [("a", "b", "s"), ("c", "d", "s"), ("d", "c", "s")])


def test_every_node_is_reachable_once_one_source_and_no_cycle_hold():
    # a part the source cannot reach either has a node with no in-arc, a
    # second source, or, walked back along in-arcs, closes a cycle
    rng = seeded(31)
    for _ in range(300):
        z = rand_structure(rng, rng.randint(1, 12))
        seen, stack = {z.source}, [z.source]
        while stack:
            for h in z.out[stack.pop()].values():
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        assert seen == set(z.action_of)
        nodes, arcs = list(z.nodes), list(z.arcs)
        k = rng.randint(1, 3)
        extra = [("u%d" % i, "y") for i in range(k)]
        chain = [("u%d" % i, "u%d" % (i + 1), "s") for i in range(k - 1)]
        inner = [v for v in z.node_ids() if v != z.source]
        if rng.random() < 0.5:
            # a second source heading a chain, which may feed into z
            if inner and rng.random() < 0.5:
                chain.append(("u%d" % (k - 1), rng.choice(inner), "s"))
            with pytest.raises(MultipleSources) as err:
                DecisionStructure(nodes + extra, arcs + chain)
            assert str(err.value) == "multiple sources: " + ", ".join(
                sorted([z.source, "u0"]))
        else:
            # a cycle no arc enters from z, with arcs out into z
            cycle = chain + [("u%d" % (k - 1), "u0", "f")]
            out = [("u%d" % i, rng.choice(inner), "m") for i in range(k)
                   if inner and rng.random() < 0.5]
            with pytest.raises(CycleFound) as err:
                DecisionStructure(extra + nodes, cycle + out + arcs)
            assert str(err.value) == "cycle: " + " -> ".join(
                ["u%d" % i for i in range(k)] + ["u0"])


def test_validate_rejects_parallel_arcs():
    with pytest.raises(ParallelArcs):
        validate([("a", "x"), ("b", "y")],
                 [("a", "b", "s"), ("a", "b", "f")])


def test_validate_rejects_duplicate_out_label():
    with pytest.raises(DuplicateArcLabel) as err:
        validate([("a", "x"), ("b", "y"), ("c", "z")],
                 [("a", "b", "s"), ("a", "c", "s")])
    assert err.value.node == "a"
    assert err.value.label == "s"


def test_validate_rejects_multiple_sources():
    with pytest.raises(MultipleSources):
        validate([("a", "x"), ("b", "y"), ("c", "z")],
                 [("a", "c", "s"), ("b", "c", "s")])


def test_validate_rejects_no_source():
    with pytest.raises((NoSource, CycleFound)):
        validate([("a", "x"), ("b", "y")],
                 [("a", "b", "s"), ("b", "a", "f")])


def test_validate_rejects_a_structure_with_no_nodes():
    for build in (lambda: validate([], []),
                  lambda: DecisionStructure([], []),
                  lambda: parse_structure("decstruct v1\n")):
        with pytest.raises(StructureError) as err:
            build()
        assert str(err.value) == "structure has no nodes"


def test_validate_rejects_unknown_endpoints_and_duplicate_ids():
    with pytest.raises(StructureError):
        validate([("a", "x")], [("a", "zz", "s")])
    with pytest.raises(StructureError):
        validate([("a", "x"), ("a", "y")], [])


def test_select_walks_matching_arcs():
    z = small()
    assert select(z, {"check": "s", "move": "s", "stop": "f"}) == "d"
    assert derived_return(z, {"check": "s", "move": "s", "stop": "f"}) == "f"
    # unmatched value stops the walk mid-way
    assert select(z, {"check": "f", "retry": "f"}) == "c"
    assert derived_return(z, {"check": "f", "retry": "f"}) == "f"
    # a missing action stops the walk and derives nothing
    assert select(z, {"check": "s"}) == "b"
    assert derived_return(z, {"check": "s"}) is None


def test_select_reads_shared_actions_consistently():
    z = DecisionStructure(
        [("n1", "ping"), ("n2", "ping"), ("n3", "done")],
        [("n1", "n2", "s"), ("n2", "n3", "s")])
    assert select(z, {"ping": "s", "done": "x"}) == "n3"
    assert select(z, {"ping": "f"}) == "n1"


def test_structural_equivalence_maps_ids():
    z1 = small()
    z2 = DecisionStructure(
        [("p", "check"), ("q", "move"), ("r", "retry"), ("s", "stop")],
        [("p", "q", "s"), ("p", "r", "f"), ("q", "s", "s"), ("r", "q", "s")])
    mapping = structurally_equivalent(z1, z2)
    assert mapping == {"a": "p", "b": "q", "c": "r", "d": "s"}


def test_structural_equivalence_requires_matching_actions():
    z1 = small()
    nodes = [("a", "check"), ("b", "move"), ("c", "OTHER"), ("d", "stop")]
    z2 = DecisionStructure(nodes, z1.arcs)
    assert structurally_equivalent(z1, z2) is None


def test_structural_equivalence_requires_matching_labels():
    z1 = small()
    arcs = [("a", "b", "s"), ("a", "c", "m"), ("b", "d", "s"), ("c", "b", "s")]
    z2 = DecisionStructure(z1.nodes, arcs)
    assert structurally_equivalent(z1, z2) is None


def test_equality_and_hash_ignore_ordering():
    z1 = small()
    z2 = DecisionStructure(reversed(z1.nodes), reversed(z1.arcs))
    assert z1 == z2
    assert hash(z1) == hash(z2)


def test_induced_subgraph():
    z = small()
    sub = z.induced({"b", "d"})
    assert sub.source == "b"
    assert sub.arcs == [("b", "d", "s")]
    with pytest.raises(StructureError):
        z.induced({"b", "nope"})


def test_parse_structure_requires_header():
    with pytest.raises(FormatError):
        parse_structure("node a x\n")


def test_parse_structure_rejects_junk():
    with pytest.raises(FormatError):
        parse_structure("decstruct v1\nfrobnicate a b\n")
    with pytest.raises(FormatError):
        parse_structure("decstruct v1\nnode a\n")


def test_parse_format_roundtrip_with_comments():
    text = "\n".join([
        "decstruct v1",
        "# a comment",
        "node a check",
        "node b stop  # trailing comment",
        "arc a b s",
        "",
    ])
    z = parse_structure(text)
    assert z.action_of == {"a": "check", "b": "stop"}
    assert parse_structure(format_structure(z)) == z


def test_loaders_refuse_text_that_is_not_utf8(tmp_path):
    # they raised UnicodeDecodeError, which no caller expects
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("decstruct v1\nnode caf\xe9 a\n".encode("latin-1"))
    for load in (load_structure, load_world, load_actions):
        with pytest.raises(FormatError, match=r"^input is not UTF-8 text "
                           r"\(invalid continuation byte\)$"):
            load(str(bad))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 12))
def test_format_roundtrip_random(seed, n):
    z = rand_structure(seeded(seed), n)
    again = parse_structure(format_structure(z))
    assert again == z
    assert structurally_equivalent(z, again)

"""Complexity measures and architecture classification for decision structures."""

import itertools
import math

from .architectures import DT_LABELS, Leaf, Op, Pred, _kbt_term, format_arch
from .logic import fold
from .modules import decompose
from .structures import DecisionStructure, StructureError

# relabelings enumerates no more structures than this; z2 has 8,192
_MAX_LABELINGS = 1 << 16


def cyclomatic(z):
    """Arcs plus exits minus nodes plus one; 1 for a single node."""
    return len(z.arcs) + len(z.sinks()) - len(z.nodes) + 1


def essential(z):
    """The cyclomatic complexity left after modular decomposition.

    Maximum cyclomatic complexity over all quotient graphs in the
    decomposition; a lone node scores 1.
    """
    return complexity_report(z)["essential"]


def complexity_report(z):
    return _complexity(z, decompose(z))


def _complexity(z, tree):
    best, witness = 1, None
    for d in tree.walk():
        if d.is_leaf():
            continue
        c = cyclomatic(d.quotient)
        if c > best or witness is None:
            best, witness = max(best, c), sorted(d.members)
    return {"cyclomatic": cyclomatic(z), "essential": best, "witness": witness}


def _dt_shape(z):
    if len(z.nodes) == 1:
        return True
    if len(z.labels()) != 2:
        return False
    for v in z.action_of:
        if len(z.preds[v]) > 1 or len(z.out[v]) not in (0, 2):
            return False
    return True


def extract_dt(z):
    """The predicate tree of a tree-shaped binary structure, or None."""
    if not _dt_shape(z):
        return None
    # the yes branch first: top when it is a label, else the first label
    labels = sorted(z.labels(), key=lambda r: r != DT_LABELS[0])

    def rule(v, parts):
        return Pred(z.action_of[v], *parts) if parts else Leaf(z.action_of[v])

    return fold(z.source, rule,
                lambda v: [z.out[v][r] for r in labels] if z.out[v] else ())


def classify(z):
    """Which architectures can express this structure, with witnesses."""
    tree = decompose(z)
    report = _complexity(z, tree)
    k = len(z.labels())
    kbt = _kbt_term(tree)
    is_kbt = kbt is not None
    if is_kbt != (report["essential"] == 1):
        raise StructureError("operator tree found is %s, but essential "
                             "complexity is %d" % (is_kbt, report["essential"]))
    dt = extract_dt(z)
    result = {
        "nodes": len(z.nodes),
        "arcs": len(z.arcs),
        "labels": z.labels(),
        "k": k,
        "cyclomatic": report["cyclomatic"],
        "essential": report["essential"],
        "witness": report["witness"],
        "is_kbt": is_kbt,
        "is_bt": is_kbt and k <= 2,
        "is_tr": is_kbt and k <= 1,
        "is_dt": dt is not None,
        "kbt": kbt,
        "dt": dt,
        "tr": None,
    }
    if result["is_tr"]:
        leaves = kbt.children if isinstance(kbt, Op) else [kbt]
        result["tr"] = [leaf.action for leaf in leaves]
    return result


def classify_text(result):
    lines = [
        "nodes       %d" % result["nodes"],
        "arcs        %d" % result["arcs"],
        "labels      %s" % (",".join(result["labels"]) or "-"),
        "cyclomatic  %d" % result["cyclomatic"],
        "essential   %d" % result["essential"],
    ]
    if result["witness"] and result["essential"] > 1:
        lines.append("witness     {%s}" % ",".join(result["witness"]))
    for flag, key in (("kbt", "kbt"), ("bt", None), ("tr", "tr"), ("dt", "dt")):
        name = "is_" + flag
        mark = "yes" if result[name] else "no"
        lines.append("%-11s %s" % (flag, mark))
        if result[name] and key and result[key] is not None:
            term = result[key]
            text = format_arch(term if key != "tr" else [Leaf(a) for a in term])
            lines.append("    %s" % text)
    return "\n".join(lines)


def export_fsm(z):
    """Finite state machine view: one state per node, arc transitions plus
    an `update` transition from every state back to the source."""
    lines = ["fsm v1", "init %s" % z.source]
    for i, a in z.nodes:
        lines.append("state %s %s" % (i, a))
    for t, h, r in z.arcs:
        lines.append("trans %s %s %s" % (t, h, r))
    for i, _ in z.nodes:
        lines.append("trans %s %s update" % (i, z.source))
    return "\n".join(lines) + "\n"


def relabelings(z, labels=("s", "f")):
    """Every relabeling of the arcs keeping per-node labels distinct.

    Raises StructureError before yielding any when a node has more
    out-arcs than there are labels, or when the relabelings, counted from
    each node's choices, number more than _MAX_LABELINGS.
    """
    order = [v for v, _ in z.nodes if z.out[v]]
    for v in order:
        if len(z.out[v]) > len(labels):
            raise StructureError(
                "no labeling: node %r has %d out-arcs but there are only %d "
                "labels {%s}" % (v, len(z.out[v]), len(labels),
                                 ",".join(labels)))
    count = math.prod(math.perm(len(labels), len(z.out[v])) for v in order)
    if count > _MAX_LABELINGS:
        raise StructureError("%d labelings; limit for exhaustive enumeration "
                             "is %d" % (count, _MAX_LABELINGS))
    arcs_of = {v: sorted((h for h in z.out[v].values())) for v in order}
    pools = [list(itertools.permutations(labels, len(arcs_of[v]))) for v in order]
    for combo in itertools.product(*pools):
        arcs = []
        for v, chosen in zip(order, combo):
            arcs.extend((v, h, r) for h, r in zip(arcs_of[v], chosen))
        yield DecisionStructure(list(z.nodes), arcs)

"""Modules of decision structures: detection, quotients, decomposition.

A module is a node subset X such that (a) the induced sub-structure Z[X]
is itself a decision structure, (b) every arc entering X from outside
lands on Z[X]'s source, and (c) for every return value r with at least
one arc leaving X, all such arcs share a single head and every member of
X has an out-arc labeled r (internal or external). Contracting a module
to one node then preserves selection semantics.

Modules are read off one table per structure (see _sweeps). In one
preorder of z's dominator tree, the nodes v dominates form one run from
v, every arc runs forward, and every module with source v is a prefix of
v's run. Which prefixes are modules is one interval condition on the
heads of the arcs leaving them, so one pass per label gives, for every
end b of a run, the least start from which the run up to b is a module.
is_module is a test of that table plus the member check, find_modules
lists the module ends from each position off it, and quotient checks
every block against one table.

decompose reads one table and builds no sub-structure, and it copies
no member list: each tree level X is two positions, order[lo:end], a
prefix of its source's run, and its blocks are cuts [lo, ..., end]
between them. X is cut into path blocks where a module prefix leaves
only into the next node, or else prime: from lo, the node at each cut
takes its largest module inside X, read off the table up to end, and
the next cut is where that one ends (see _path_blocks and
_prime_blocks). Either way the blocks are runs of X in order, the
quotient lists them so, and its arcs are the in-arcs of the blocks'
sources but the first (_level_arcs). The block arcs give a prime
level's child order and the level's cyclomatic number; its members and
quotient are sliced out of the order only when read. A work list takes
the levels in turn, so neither the build nor the tree's readers recurse
per level.
"""

from bisect import bisect
from functools import cached_property

from .logic import fold
from .structures import DecisionStructure, StructureError, _toposort


class NotAModule(StructureError):
    def __init__(self, members):
        self.members = sorted(members)
        super().__init__("not a module: {%s}" % ", ".join(self.members))


class NotAPartition(StructureError):
    def __init__(self, reason):
        super().__init__("not a partition: " + reason)


class ElementNotAModule(StructureError):
    def __init__(self, members):
        self.members = sorted(members)
        super().__init__("partition element is not a module: {%s}"
                         % ", ".join(self.members))


class SizeLimitExceeded(StructureError):
    def __init__(self, n, limit):
        super().__init__("structure has %d nodes; limit for exhaustive "
                         "enumeration is %d" % (n, limit))


def is_module(z, members):
    """Check the module conditions (empty sets are not modules)."""
    members = set(str(m) for m in members)
    if not members:
        return False
    for m in members:
        if m not in z.action_of:
            raise StructureError("unknown node %r" % m)
    return _sweeps(z).is_module(members)


class _sweeps:
    """The module table of z's dominator-tree preorder `order`: ends(a,
    end) lists each b <= end such that the run order[a:b] is a module,
    and is_module tests a node set against it.

    The nodes v dominates are those every path from z's source to them
    passes. In the preorder `order` of z's dominator tree, children in z's
    topological order, they form one run from v of length span[v]. That
    preorder is topological, so every arc runs forward in it, and every
    module with source v is a prefix of v's run.

    Which prefixes are modules is one interval fact. Take positions in
    order, n in all, and let h_r(i) be the position of order[i]'s r-head,
    or n, r's sink, if it has no r-arc. Let X = order[a:b] with b - a <=
    span[order[a]]. Each member but order[a] has in-arcs, all from nodes
    order[a] dominates (a path to a tail that avoids order[a] would reach
    the head too), which come before it, so from X: (a) and (b) hold.
    Since arcs run forward, an arc from X leaves it exactly when its head
    is at b or later, and a member without an r-arc leaves toward r's
    sink, so the heads leaving X by r are exactly the h_r(i) >= b with
    a <= i < b, and (c) asks that each r have at most one of them.
    Raising a only drops values, so for each end b that holds exactly
    when a >= start[b], the least such a: X is a module exactly when
    b - a <= span[order[a]] and start[b] <= a.

    start takes one left-to-right pass per label. At end b, each value
    h >= b met so far has a latest tail i < b, and order[a:b] meets two
    values exactly when a is at most the second-latest of those tails, so
    start_r[b] is one more than that tail, or 0, and start[b] is the
    largest start_r[b]. live holds the tails oldest first; one is stale
    once its value is below b or has a newer tail, and stale tails are
    dropped off the top, so each is pushed and popped at most once.
    """

    def __init__(self, z):
        topo = z.topological_order()
        self.topo_pos = topo_pos = {v: i for i, v in enumerate(topo)}
        # u's immediate dominator is the nearest common dominator of its
        # in-arcs' tails (Cooper, Harvey & Kennedy, 2001)
        idom, kids = {}, {v: [] for v in topo}
        for u in topo[1:]:
            preds = z.preds[u]
            d = preds[0][0]
            for t, _ in preds:
                while t != d:
                    if topo_pos[t] > topo_pos[d]:
                        t = idom[t]
                    else:
                        d = idom[d]
            idom[u] = d
            kids[d].append(u)
        self.order = order = []
        stack = [z.source]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(kids[v]))
        self.pos = pos = {v: i for i, v in enumerate(order)}
        self.span = span = dict.fromkeys(order, 1)
        for v in order[:0:-1]:
            span[idom[v]] += span[v]
        n = len(order)
        self.start = start = [0] * (n + 1)
        for r in z.labels():
            # n, the sink, for a node without an r-arc
            heads = [pos.get(z.out[v].get(r), n) for v in order]
            last, live = [0] * (n + 1), []
            for t, h in enumerate(heads):
                last[t] = -1  # value t is below the next end, t + 1
                last[h] = t
                while live and last[heads[live[-1]]] != live[-1]:
                    live.pop()
                if live and live[-1] >= start[t + 1]:
                    start[t + 1] = live[-1] + 1
                live.append(t)

    def ends(self, a, end):
        """The ends b <= end of the modules order[a:b]."""
        start = self.start
        return [b for b in range(a + 1, min(end, a + self.span[
            self.order[a]]) + 1) if start[b] <= a]

    def is_module(self, members):
        """members, a non-empty set of z's nodes, is a module exactly when
        it is the run of the order from its first node there, and that run
        is a module."""
        a = min(map(self.pos.__getitem__, members))
        b = a + len(members)
        return (b - a <= self.span[self.order[a]] and self.start[b] <= a
                and set(self.order[a:b]) == members)


def find_modules(z):
    """All modules with at least two nodes, including the full node set."""
    sweeps, n = _sweeps(z), len(z.nodes)
    found = [frozenset(sweeps.order[a:b]) for a in range(n)
             for b in sweeps.ends(a, n)[1:]]
    return sorted(found, key=lambda m: (len(m), sorted(m)))


def nontrivial_modules(z):
    """find_modules without the full node set, which always comes last."""
    return find_modules(z)[:-1]


def block_id(block):
    ids = sorted(block)
    if len(ids) == 1:
        return ids[0]
    return "mod(%s)" % ",".join(ids)


def quotient(z, blocks):
    """Contract every block of a modular partition to a single node."""
    blocks = [frozenset(str(m) for m in b) for b in blocks]
    seen = set()
    for b in blocks:
        if not b:
            raise NotAPartition("empty block")
        if b & seen:
            raise NotAPartition("blocks overlap on {%s}"
                                % ", ".join(sorted(b & seen)))
        seen |= b
    if seen != set(z.action_of):
        missing = set(z.action_of) - seen
        extra = seen - set(z.action_of)
        if missing:
            raise NotAPartition("nodes not covered: {%s}"
                                % ", ".join(sorted(missing)))
        raise NotAPartition("unknown nodes: {%s}" % ", ".join(sorted(extra)))
    sweeps = _sweeps(z)
    for b in blocks:
        if not sweeps.is_module(b):
            raise ElementNotAModule(b)
    blocks.sort(key=lambda b: min(map(sweeps.topo_pos.__getitem__, b)))
    home = {m: j for j, b in enumerate(blocks) for m in b}
    return _quotient(z, blocks, [(home[t], home[h], r) for t, h, r in z.arcs])


def _quotient(z, blocks, arcs):
    """quotient, unchecked: blocks are modules of z with their sources in
    a topological order, and arcs, in order, the arcs among them as
    (tail block, head block, label), block indexes into blocks. A block
    id that a node or an earlier block has gets a suffix, as in expand."""
    taken = set(z.action_of)
    ids = [block_id(b) if len(b) == 1 else _fresh(block_id(b), taken)
           for b in blocks]
    qnodes = [(bid, z.action_of[next(iter(b))] if len(b) == 1 else bid)
              for bid, b in zip(ids, blocks)]
    qarcs = dict.fromkeys((ids[i], ids[j], r) for i, j, r in arcs if i != j)
    return DecisionStructure(qnodes, qarcs)


def contract(z, members):
    """Quotient that collapses one module and leaves the rest alone."""
    members = frozenset(str(m) for m in members)
    if not is_module(z, members):
        raise NotAModule(members)
    return quotient(z, [members] + [[v] for v in z.action_of
                                    if v not in members])


def expand(z, v, q):
    """Replace node v by the structure q (inverse of contract up to ids).

    Arcs into v are redirected to q's source. For each arc v -> h labeled
    r, every q-node without its own r-arc gets an arc to h labeled r, so
    the freshly inserted node set is a module returning r exactly where v
    did. Colliding q node ids get a numeric suffix.
    """
    v = str(v)
    if v not in z.action_of:
        raise StructureError("unknown node %r" % v)
    taken = set(z.action_of) - {v}
    rename = {u: _fresh(u, taken) for u, _ in q.nodes}
    nodes = [(i, a) for i, a in z.nodes if i != v]
    nodes += [(rename[u], a) for u, a in q.nodes]
    arcs = [(t, h, r) for t, h, r in z.arcs if t != v and h != v]
    arcs += [(t, rename[q.source], r) for t, h, r in z.arcs if h == v]
    arcs += [(rename[t], rename[h], r) for t, h, r in q.arcs]
    for t, h, r in z.arcs:
        if t == v:
            for u, _ in q.nodes:
                if r not in q.out[u]:
                    arcs.append((rename[u], h, r))
    return DecisionStructure(nodes, arcs)


def _fresh(u, taken):
    """u, else u_2, u_3, ...: the first id not in taken, now added to it."""
    v, k = u, 2
    while v in taken:
        v, k = "%s_%d" % (u, k), k + 1
    taken.add(v)
    return v


# -- modular decomposition -------------------------------------------------


class DecompositionNode:
    """One level of the recursive modular decomposition.

    kind is "leaf" for a single node, otherwise "path" when the quotient
    graph is a directed path whose arcs all carry one label, or "prime".

    decompose keeps a non-leaf level as _level = (z, order, cuts, arcs):
    the level is order[cuts[0]:cuts[-1]] of the module table's preorder,
    its blocks the runs between consecutive cuts, and arcs the quotient's
    block arcs. members and quotient, unless given, are sliced out of
    order on first read and kept, so every reader sees the same ones.
    decompose also counts the quotient's cyclomatic number, _cyclomatic.
    """

    def __init__(self, kind, members, label=None, node=None, action=None,
                 children=None, quotient=None):
        self.kind = kind
        self.label = label
        self.node = node
        self.action = action
        self.children = children or []
        if members is not None:
            self.members = frozenset(members)
        if quotient is not None:
            self.quotient = quotient

    @cached_property
    def members(self):
        _, order, cuts, _ = self._level
        return frozenset(order[cuts[0]:cuts[-1]])

    @cached_property
    def quotient(self):
        if self.is_leaf():
            return None
        z, order, cuts, arcs = self._level
        return _quotient(z, [order[a:b] for a, b in zip(cuts, cuts[1:])],
                         arcs)

    def is_leaf(self):
        return self.kind == "leaf"

    def walk(self):
        """The tree's nodes in preorder, without recursion."""
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack.extend(reversed(d.children))

    def to_dict(self):
        def rule(node, parts):
            d = {"kind": node.kind, "members": sorted(node.members)}
            if node.kind == "leaf":
                d["node"] = node.node
                d["action"] = node.action
            else:
                if node.kind == "path":
                    d["label"] = node.label
                d["children"] = parts
            return d

        return fold(self, rule, _children)

    @property
    def tag(self):
        """The kind, with the label for a path: "path[s]", "prime", "leaf"."""
        return "path[%s]" % self.label if self.kind == "path" else self.kind

    def __repr__(self):
        return fold(self, lambda d, parts: "Leaf(%s)" % d.node if d.is_leaf()
                    else "%s(%s)" % (d.tag, ", ".join(parts)), _children)


def _children(d):
    return d.children


def decompose(z):
    """Modular decomposition of a decision structure, built from z and its
    module table alone (see the module docstring)."""
    sweeps = _sweeps(z)
    order = sweeps.order
    arc_pos = {(t, r): i for i, (t, _, r) in enumerate(z.arcs)}
    root = [None]
    todo = [(0, len(order), root, 0)]  # level order[lo:end], and its slot
    while todo:
        lo, end, slots, i = todo.pop()
        if end - lo == 1:
            v = order[lo]
            slots[i] = DecompositionNode("leaf", [v], node=v,
                                         action=z.action_of[v])
            continue
        cuts = _path_blocks(z, sweeps, lo, end)
        kind = "path" if cuts else "prime"
        cuts = cuts or _prime_blocks(sweeps, lo, end)
        arcs = _level_arcs(z, sweeps, arc_pos, cuts)
        label = arcs[0][2] if kind == "path" else None
        if kind == "path" and any(t != h - 1 or r != label
                                  for t, h, r in arcs):
            raise StructureError("chain quotient is not a uniform path")
        # the quotient's out-arcs: parallel block arcs are one arc
        out = [{} for _ in cuts[1:]]
        for t, h, r in arcs:
            out[t][r] = h
        d = slots[i] = DecompositionNode(kind, None, label=label,
                                         children=[None] * len(out))
        # its arcs, plus an exit per sink, minus its nodes, plus one
        d._cyclomatic = sum(len(o) or 1 for o in out) - len(out) + 1
        d._level = z, order, cuts, arcs
        blocks = range(len(out))
        if kind == "prime":  # children in the quotient's topological order
            blocks = _toposort(blocks, out)
        todo.extend((cuts[j], cuts[j + 1], d.children, c)
                    for c, j in enumerate(blocks))
    return root[0]


def _path_blocks(z, sweeps, lo, end):
    """The cuts [lo, ..., end] of the level order[lo:end] as a path, or
    None. It cuts at b when order[lo:b] is a module and no arc jumps from
    before b to past it: order[lo:b] then leaves only into order[b], so
    the runs between cuts are modules. Arcs run forward in the order and
    leave the level past its end, so positions tell how far an arc jumps;
    only members up to the last proper module are read. The level is a
    module, so its last module end is end itself."""
    order, pos = sweeps.order, sweeps.pos
    cuts, reach, a = [lo], -1, lo
    for b in sweeps.ends(lo, end)[:-1]:
        for v in order[a:b]:
            for h in z.out[v].values():
                at = pos[h]
                if reach < at < end:
                    reach = at
        a = b
        if reach <= b:
            cuts.append(b)
    if len(cuts) == 1:
        return None
    cuts.append(end)
    return cuts


def _level_arcs(z, sweeps, arc_pos, cuts):
    """The quotient arcs of a level cut into blocks, order[a:b] for each
    two cuts a, b in turn, as (tail block, head block, label) in the order
    of their arcs in z.arcs. Arcs entering a module land on its source, so
    the in-arcs of each block's source but the first's are the arcs
    between blocks; a tail's block is the last to start at or before it."""
    order, pos = sweeps.order, sweeps.pos
    arcs = sorted((arc_pos[t, r], bisect(cuts, pos[t]) - 1, j, r)
                  for j in range(1, len(cuts) - 1)
                  for t, r in z.preds[order[cuts[j]]])
    return [arc[1:] for arc in arcs]


def _prime_blocks(sweeps, lo, end):
    """The cuts [lo, ..., end] of the level order[lo:end], which is no
    path, into its maximal proper modules and a singleton for each node in
    none. They are disjoint, and each is a prefix of its source's run, so
    they tile the level: from each cut a, order[a] takes the largest
    module of its run that is short of the whole level and ends by the
    level's end, and the next cut is where it ends."""
    order, start, span = sweeps.order, sweeps.start, sweeps.span
    cuts = [lo]
    while cuts[-1] < end:
        a = cuts[-1]
        b = min(a + span[order[a]], end if a > lo else end - 1)
        while start[b] > a:
            b -= 1
        cuts.append(b)
    return cuts


def enumerate_modular_partitions(z, limit=8):
    """Every partition of the node set into modules (small structures only)."""
    n = len(z.nodes)
    if n > limit:
        raise SizeLimitExceeded(n, limit)
    mods = set(find_modules(z))
    mods.update(frozenset([v]) for v in z.action_of)
    order = sorted(z.action_of)
    results = []

    def go(remaining, acc):
        if not remaining:
            results.append(sorted(acc, key=sorted))
            return
        first = min(remaining, key=order.index)
        for m in mods:
            if first in m and m <= remaining:
                go(remaining - m, acc + [m])

    go(frozenset(z.action_of), [])
    results.sort(key=lambda p: (len(p), [sorted(b) for b in p]))
    return results

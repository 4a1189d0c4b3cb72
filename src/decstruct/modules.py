"""Modules of decision structures: detection, quotients, decomposition.

A module is a node subset X such that (a) the induced sub-structure Z[X]
is itself a decision structure, (b) every arc entering X from outside
lands on Z[X]'s source, and (c) for every return value r with at least
one arc leaving X, all such arcs share a single head and every member of
X has an out-arc labeled r (internal or external). Contracting a module
to one node then preserves selection semantics.

Modules are read off one absorption sweep per node (see _sweeps): those
with source v are prefixes of v's sweep. Sweeps run on demand: a sweep
context runs a node's sweep when first asked, only up to the requested
length, and keeps it for later requests that are no longer. is_module
runs the one sweep from a set's first node, up to the set's size, and
quotient checks every block against one context.

decompose reads one context and builds no sub-structure. Each tree level
X is the prefix of its source's sweep of length |X|, with the out-arcs
of z cut to X. It is cut into path blocks where a module prefix leaves
only into the next node, or else prime: in topological order, each node
not yet covered takes its largest module inside X, read off its sweep up
to |X| - 1 nodes (see _path_blocks and _prime_blocks). A node's requests
only shrink down the tree, so no sweep runs twice. A work list takes the
levels in turn, so neither the build nor the tree's readers recurse per
level; the one structure built per level is its quotient.
"""

import heapq

from .logic import fold
from .structures import DecisionStructure, StructureError, _toposort


class NotAModule(StructureError):
    def __init__(self, members, reason=""):
        self.members = sorted(members)
        msg = "not a module: {%s}" % ", ".join(self.members)
        if reason:
            msg += " (" + reason + ")"
        super().__init__(msg)


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
    """The absorption sweeps of z, each run when first asked for and only
    as far as asked: sweeps(seed, stop) -> (order, sizes).

    Grow M from the seed by adding the topologically first node whose
    every in-arc comes from M, tracking for each label the distinct heads
    of arcs leaving M (a node missing a label leaves toward a per-label
    virtual sink). M is a module exactly when no label sees two heads;
    sizes lists those |M|, from 1, and order the nodes up to the last.
    Every module with source v is such a prefix of v's sweep, as no node
    outside it gets ready before all of it is in.

    A sweep runs to `stop` nodes (to its end when stop is None) and is
    kept: a later call with no larger stop gets it back, so callers read
    only the prefix up to their stop (the sizes up to it, and order up to
    the largest of those).
    """

    def __init__(self, z):
        self.z = z
        self.labels = z.labels()
        # never collides with node ids
        self.aux = {r: ("\x00sink", r) for r in self.labels}
        self.topo_pos = {v: i for i, v in enumerate(z.topological_order())}
        self.swept = {}  # seed -> (stop, order, sizes)

    def __call__(self, seed, stop=None):
        if stop is None:
            stop = len(self.z.nodes)
        reach, order, sizes = self.swept.get(seed, (0, None, None))
        if reach < stop:
            order, sizes = self.sweep(seed, stop)
            self.swept[seed] = (stop, order, sizes)
        return order, sizes

    def sweep(self, seed, stop):
        z, labels, aux, topo_pos = self.z, self.labels, self.aux, self.topo_pos
        order, members, sizes = [], set(), []
        # heads[r] maps each outside head of an r-arc from M to its arc
        # count; crowded counts the labels currently seeing 2+ heads.
        heads = {r: {} for r in labels}
        crowded = 0
        cnt = {}
        ready = [(topo_pos[seed], seed)]
        while ready and len(order) != stop:
            _, u = heapq.heappop(ready)
            order.append(u)
            members.add(u)
            # the seed's in-arcs come from outside M, all others' from M
            for _, r in z.preds[u] if u != seed else ():
                bucket = heads[r]
                bucket[u] -= 1
                if not bucket[u]:
                    del bucket[u]
                    if len(bucket) == 1:
                        crowded -= 1
            out = z.out[u]
            for r in labels:
                h = out.get(r, aux[r])
                if h not in members:
                    bucket = heads[r]
                    bucket[h] = bucket.get(h, 0) + 1
                    if bucket[h] == 1 and len(bucket) == 2:
                        crowded += 1
            for r, h in out.items():
                if h in members:
                    continue
                cnt[h] = cnt.get(h, 0) + 1
                if cnt[h] == len(z.preds[h]):
                    heapq.heappush(ready, (topo_pos[h], h))
            if not crowded:
                sizes.append(len(order))
        del order[sizes[-1]:]
        return order, sizes

    def is_module(self, members):
        """members, a non-empty set of z's nodes, is a module exactly when
        it is a module prefix of the sweep from its topologically first
        node."""
        k = len(members)
        order, sizes = self(min(members, key=self.topo_pos.__getitem__), k)
        return k in sizes and set(order[:k]) == members


def find_modules(z):
    """All modules with at least two nodes, including the full node set."""
    sweeps = _sweeps(z)
    found = [frozenset(order[:k])
             for order, sizes in map(sweeps, z.action_of) for k in sizes[1:]]
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
    return _quotient(z, blocks, z.arcs)


def _quotient(z, blocks, arcs):
    """quotient, unchecked: blocks are modules of z ordered by their
    sources' topological order, and arcs, in order, the arcs among them."""
    home = {m: b for b in blocks for m in b}
    qnodes = []
    for b in blocks:
        bid = block_id(b)
        action = z.action_of[next(iter(b))] if len(b) == 1 else bid
        qnodes.append((bid, action))
    qarcs = []
    emitted = set()
    for t, h, r in arcs:
        bt, bh = home[t], home[h]
        if bt is bh:
            continue
        key = (block_id(bt), block_id(bh), r)
        if key not in emitted:
            emitted.add(key)
            qarcs.append(key)
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
    rename = {}
    for u, _ in q.nodes:
        if u not in taken:
            rename[u] = u
        else:
            k = 2
            while "%s_%d" % (u, k) in taken or "%s_%d" % (u, k) in rename.values():
                k += 1
            rename[u] = "%s_%d" % (u, k)
        taken.add(rename[u])
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


# -- modular decomposition -------------------------------------------------


class DecompositionNode:
    """One level of the recursive modular decomposition.

    kind is "leaf" for a single node, otherwise "path" when the quotient
    graph is a directed path whose arcs all carry one label, or "prime".
    """

    def __init__(self, kind, members, label=None, node=None, action=None,
                 children=None, quotient=None):
        self.kind = kind
        self.members = frozenset(members)
        self.label = label
        self.node = node
        self.action = action
        self.children = children or []
        self.quotient = quotient

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


def _uniform_path(q):
    """The shared arc label if q is a uniformly-labeled directed path."""
    labels = {r for _, _, r in q.arcs}
    if len(labels) != 1 or len(q.arcs) != len(q.nodes) - 1:
        return None
    if len(q.sinks()) != 1:
        return None
    if any(len(q.out[v]) > 1 for v in q.action_of):
        return None
    return labels.pop()


def decompose(z):
    """Modular decomposition of a decision structure, built from z and its
    sweeps alone (see the module docstring)."""
    sweeps = _sweeps(z)
    node_pos = {v: i for i, v in enumerate(z.action_of)}
    arc_pos = {(t, r): i for i, (t, _, r) in enumerate(z.arcs)}
    root = [None]
    todo = [(z.source, len(z.nodes), root, 0)]  # level, and its slot
    while todo:
        source, n, slots, i = todo.pop()
        if n == 1:
            slots[i] = DecompositionNode("leaf", [source], node=source,
                                         action=z.action_of[source])
            continue
        order, sizes = sweeps(source, n)
        members = order[:n]
        inside = set(members)
        out = {v: {r: h for r, h in z.out[v].items() if h in inside}
               for v in members}
        chain = _path_blocks(members, out, sizes)
        # a prime quotient's nodes follow the level's toposort as z's own
        # would run it, from the level's first node in z.nodes
        blocks = chain or _prime_blocks(
            _toposort(sorted(members, key=node_pos.get), out), sweeps)
        q = _quotient(z, blocks, [z.arcs[k] for k in sorted(
            arc_pos[t, r] for t in members for r in out[t])])
        label = _uniform_path(q)
        if chain and label is None:
            raise StructureError("chain quotient is not a uniform path")
        kind = "path" if label is not None else "prime"
        d = slots[i] = DecompositionNode(kind, members, label=label,
                                         children=[None] * len(blocks),
                                         quotient=q)
        by_id = {block_id(b): b for b in blocks}
        todo.extend((by_id[qid][0], len(by_id[qid]), d.children, j)
                    for j, qid in enumerate(q.topological_order()))
    return root[0]


def _path_blocks(members, out, sizes):
    """A level's blocks as a path, or None. members, a topological order
    of the level, splits at k when members[:k] is a module and no arc
    jumps from before k to past it: members[:k] then leaves only into
    members[k], so the slices between split points are modules."""
    pos = {v: i for i, v in enumerate(members)}
    cuts, reach, sizes = [0], 0, set(sizes)
    for k, v in enumerate(members[:-1], 1):
        for h in out[v].values():
            reach = max(reach, pos[h])
        if reach <= k and k in sizes:
            cuts.append(k)
    if len(cuts) == 1:
        return None
    cuts.append(len(members))
    return [members[a:b] for a, b in zip(cuts, cuts[1:])]


def _prime_blocks(topo, sweeps):
    """The maximal proper modules of the level topo (a topological order
    of it), disjoint when it is no path, and a singleton for each node in
    none, each a sweep prefix: in topo order, each node not yet covered
    takes the largest module of its sweep that is short of the whole
    level and ends before the sweep first leaves it."""
    n, inside = len(topo), set(topo)
    covered, blocks = set(), []
    for v in topo:
        if v in covered:
            continue
        order, sizes = sweeps(v, n - 1)
        limit = next((i for i, u in enumerate(order[:n - 1])
                      if u not in inside), n - 1)
        k = max(size for size in sizes if size <= limit)
        blocks.append(order[:k])
        covered.update(blocks[-1])
    return blocks


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

"""Modules of decision structures: detection, quotients, decomposition.

A module is a node subset X such that (a) the induced sub-structure Z[X]
is itself a decision structure, (b) every arc entering X from outside
lands on Z[X]'s source, and (c) for every return value r with at least
one arc leaving X, all such arcs share a single head and every member of
X has an out-arc labeled r (internal or external). Contracting a module
to one node then preserves selection semantics.

Modules are read off one absorption sweep per node (see _sweeps): those
with source v are prefixes of v's sweep, which is the run of the nodes v
dominates in one preorder of z's dominator tree. Sweeps run on demand:
a sweep context reads a node's sweep when first asked, only up to the
requested length, and keeps it for later requests that are no longer.
is_module reads the one sweep from a set's first node, up to the set's
size, and quotient checks every block against one context.

decompose reads one context and builds no sub-structure. Each tree level
X is the prefix of its source's sweep of length |X|, a run of the order.
It is cut into path blocks where a module prefix leaves only into the
next node, or else prime: from the start of X's run, the node there takes
its largest module inside X, read off its sweep up to the end of X's run,
and the next block starts where that one ends (see _path_blocks and
_prime_blocks). Either way the blocks are runs of X's run, the quotient
lists them in that order, and its arcs are the in-arcs of the blocks'
sources but the first (_level_arcs). A node's requests only shrink down
the tree, so no sweep is read twice. A work list takes the levels in
turn, so neither the build nor the tree's readers recurse per level; the
one structure built per level is its quotient.
"""

from bisect import bisect

from .logic import fold
from .structures import DecisionStructure, StructureError


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
    """The absorption sweeps of z: sweeps(seed, stop) -> (order, sizes).

    v's sweep grows M from v by nodes whose every in-arc comes from M,
    tracking for each label the distinct heads of arcs leaving M (a node
    missing a label leaves toward a per-label virtual sink). M is a module
    exactly when no label sees two heads; sizes lists those |M|, from 1,
    and order the nodes up to the last.

    The nodes v's sweep can take are those v dominates: every path from
    z's source to them passes v. In the preorder of z's dominator tree,
    children in z's topological order, they form one run from v, of
    length span[v]; that preorder is itself topological, and every module
    with source v is a prefix of v's run. So a sweep is a slice of the one
    order, read to `stop` nodes (to its end when stop is None) and kept: a
    later call with no larger stop gets it back, so callers read only the
    prefix up to their stop (the sizes up to it, and order up to the
    largest of those).
    """

    def __init__(self, z):
        self.z = z
        self.labels = z.labels()
        # never collides with node ids
        self.aux = {r: ("\x00sink", r) for r in self.labels}
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
        self.pos = {v: i for i, v in enumerate(order)}
        self.span = span = dict.fromkeys(order, 1)
        for v in order[:0:-1]:
            span[idom[v]] += span[v]
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
        i = self.pos[seed]
        order = self.order[i:i + min(stop, self.span[seed])]
        sizes = self._sizes(seed, order)
        del order[sizes[-1]:]
        return order, sizes

    def _sizes(self, seed, nodes):
        """The sizes of the module prefixes of nodes, a run of the order
        from seed: each node's in-arcs but the seed's come from before it
        in the run, and no head of an arc from a taken node is taken yet."""
        preds, outs = self.z.preds, self.z.out
        # heads[r] maps each outside head of an r-arc from M to its arc
        # count; crowded counts the labels currently seeing 2+ heads.
        heads = {r: {} for r in self.labels}
        exits = [(r, heads[r], self.aux[r]) for r in self.labels]
        crowded, sizes = 0, []
        for k, u in enumerate(nodes, 1):
            # the seed's in-arcs come from outside M, all others' from M
            for _, r in preds[u] if u != seed else ():
                bucket = heads[r]
                count = bucket[u] - 1
                if count:
                    bucket[u] = count
                else:
                    del bucket[u]
                    if len(bucket) == 1:
                        crowded -= 1
            out = outs[u]
            for r, bucket, sink in exits:
                h = out.get(r, sink)
                count = bucket.get(h, 0)
                bucket[h] = count + 1
                if not count and len(bucket) == 2:
                    crowded += 1
            if not crowded:
                sizes.append(k)
        return sizes

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
    home = {m: j for j, b in enumerate(blocks) for m in b}
    return _quotient(z, blocks, [(home[t], home[h], r) for t, h, r in z.arcs])


def _quotient(z, blocks, arcs):
    """quotient, unchecked: blocks are modules of z with their sources in
    a topological order, and arcs, in order, the arcs among them as
    (tail block, head block, label), block indexes into blocks."""
    ids = [block_id(b) for b in blocks]
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
    rename = {}
    for u, _ in q.nodes:
        if u not in taken:
            rename[u] = u
        else:
            k = 2
            while "%s_%d" % (u, k) in taken:
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


def decompose(z):
    """Modular decomposition of a decision structure, built from z and its
    sweeps alone (see the module docstring)."""
    sweeps = _sweeps(z)
    pos = sweeps.pos
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
        blocks = _path_blocks(z, pos, members, sizes)
        kind = "path" if blocks else "prime"
        blocks = blocks or _prime_blocks(members, sweeps)
        arcs = _level_arcs(z, pos, arc_pos, blocks)
        label = arcs[0][2] if kind == "path" else None
        if kind == "path" and any(t != h - 1 or r != label
                                  for t, h, r in arcs):
            raise StructureError("chain quotient is not a uniform path")
        q = _quotient(z, blocks, arcs)
        if kind == "prime":
            at = {qid: j for j, (qid, _) in enumerate(q.nodes)}
            blocks = [blocks[at[qid]] for qid in q.topological_order()]
        d = slots[i] = DecompositionNode(kind, members, label=label,
                                         children=[None] * len(blocks),
                                         quotient=q)
        todo.extend((b[0], len(b), d.children, j)
                    for j, b in enumerate(blocks))
    return root[0]


def _path_blocks(z, pos, members, sizes):
    """A level's blocks as a path, or None. members, the level as a run of
    the sweeps' order, splits at k when members[:k] is a module and no arc
    jumps from before k to past it: members[:k] then leaves only into
    members[k], so the slices between split points are modules. Arcs run
    forward in the order and leave the level past its end, so positions
    tell how far an arc jumps; only members up to the last proper module
    are read."""
    lo = pos[members[0]]
    end = lo + len(members)
    cuts, reach, start = [0], -1, 0
    for k in sizes:
        if k >= len(members):
            break
        for v in members[start:k]:
            for h in z.out[v].values():
                at = pos[h]
                if reach < at < end:
                    reach = at
        start = k
        if reach <= lo + k:
            cuts.append(k)
    if len(cuts) == 1:
        return None
    cuts.append(len(members))
    return [members[a:b] for a, b in zip(cuts, cuts[1:])]


def _level_arcs(z, pos, arc_pos, blocks):
    """The quotient arcs of a level cut into blocks, runs of the sweeps'
    order in order, as (tail block, head block, label) in the order of
    their arcs in z.arcs. Arcs entering a module land on its source, so
    the in-arcs of each block's source but the first's are the arcs
    between blocks; a tail's block is the last to start at or before it."""
    starts = [pos[b[0]] for b in blocks]
    arcs = sorted((arc_pos[t, r], bisect(starts, pos[t]) - 1, j, r)
                  for j in range(1, len(blocks))
                  for t, r in z.preds[blocks[j][0]])
    return [arc[1:] for arc in arcs]


def _prime_blocks(members, sweeps):
    """The maximal proper modules of the level members, a run of the
    sweeps' order that is no path, and a singleton for each node in none.
    They are disjoint, and each is a prefix of its source's run, so they
    tile the level: from each block's start, the node there takes the
    largest module of its sweep that is short of the whole level and ends
    by the level's end, and the next block starts where it ends."""
    n, j, blocks = len(members), 0, []
    while j < n:
        stop = min(n - 1, n - j)
        _, sizes = sweeps(members[j], stop)
        k = max(size for size in sizes if size <= stop)
        blocks.append(members[j:j + k])
        j += k
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

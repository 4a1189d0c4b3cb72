"""Modules of decision structures: detection, quotients, decomposition.

A module is a node subset X such that (a) the induced sub-structure Z[X]
is itself a decision structure, (b) every arc entering X from outside
lands on Z[X]'s source, and (c) for every return value r with at least
one arc leaving X, all such arcs share a single head and every member of
X has an out-arc labeled r (internal or external). Contracting a module
to one node then preserves selection semantics.
"""

import heapq

from .structures import DecisionStructure, StructureError


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
    """Check the module conditions directly (empty sets are not modules)."""
    members = set(str(m) for m in members)
    if not members:
        return False
    for m in members:
        if m not in z.action_of:
            raise StructureError("unknown node %r" % m)
    try:
        sub = z.induced(members)
    except StructureError:
        return False
    for t, h, r in z.arcs:
        if t not in members and h in members and h != sub.source:
            return False
    ext_heads = {}  # label -> set of external heads
    for t, h, r in z.arcs:
        if t in members and h not in members:
            ext_heads.setdefault(r, set()).add(h)
    for r, heads in ext_heads.items():
        if len(heads) > 1:
            return False
        if any(r not in z.out[m] for m in members):
            return False
    return True


def find_modules(z):
    """All modules with at least two nodes, including the full node set.

    One absorption sweep per candidate source: grow M from a seed v by
    repeatedly adding nodes whose every in-arc comes from M, tracking for
    each label the distinct heads of arcs leaving M (nodes missing a
    label count as leaving toward a per-label virtual sink). M is a
    module exactly when each label sees at most one distinct head. Every
    module whose induced source is v shows up during the sweep no matter
    the absorption order, so a single deterministic order suffices.
    """
    labels = z.labels()
    aux = {r: ("\x00sink", r) for r in labels}  # never collides with node ids
    padded = {}
    for v, _ in z.nodes:
        padded[v] = {r: z.out[v].get(r, aux[r]) for r in labels}
    indeg = {v: len(z.preds[v]) for v, _ in z.nodes}
    topo_pos = {v: i for i, v in enumerate(z.topological_order())}

    found = []
    for seed, _ in z.nodes:
        members = {seed}
        # heads[r] maps each outside head of an r-arc from M to its arc
        # count; crowded counts the labels currently seeing 2+ heads.
        heads = {r: {} for r in labels}
        crowded = 0
        for r in labels:
            heads[r][padded[seed][r]] = 1
        cnt = {}
        ready = []
        for r, h in z.out[seed].items():
            cnt[h] = cnt.get(h, 0) + 1
            if cnt[h] == indeg[h]:
                heapq.heappush(ready, (topo_pos[h], h))
        while ready:
            _, u = heapq.heappop(ready)
            members.add(u)
            for t, r in z.preds[u]:
                bucket = heads[r]
                bucket[u] -= 1
                if not bucket[u]:
                    del bucket[u]
                    if len(bucket) == 1:
                        crowded -= 1
            for r in labels:
                h = padded[u][r]
                if h not in members:
                    bucket = heads[r]
                    bucket[h] = bucket.get(h, 0) + 1
                    if bucket[h] == 1 and len(bucket) == 2:
                        crowded += 1
            for r, h in z.out[u].items():
                if h in members:
                    continue
                cnt[h] = cnt.get(h, 0) + 1
                if cnt[h] == indeg[h]:
                    heapq.heappush(ready, (topo_pos[h], h))
            if not crowded:
                found.append(frozenset(members))
    return sorted(set(found), key=lambda m: (len(m), sorted(m)))


def nontrivial_modules(z):
    """find_modules without the full node set."""
    everything = frozenset(z.action_of)
    return [m for m in find_modules(z) if m != everything]


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
    for b in blocks:
        if not is_module(z, b):
            raise ElementNotAModule(b)

    home = {}
    for b in blocks:
        for m in b:
            home[m] = b
    topo_pos = {v: i for i, v in enumerate(z.topological_order())}
    ordered = sorted(blocks, key=lambda b: min(topo_pos[m] for m in b))
    qnodes = []
    for b in ordered:
        bid = block_id(b)
        action = z.action_of[next(iter(b))] if len(b) == 1 else bid
        qnodes.append((bid, action))
    qarcs = []
    emitted = set()
    for t, h, r in z.arcs:
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
    blocks = [members] + [frozenset([v]) for v in z.action_of if v not in members]
    return quotient(z, blocks)


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
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self):
        d = {"kind": self.kind, "members": sorted(self.members)}
        if self.kind == "leaf":
            d["node"] = self.node
            d["action"] = self.action
        else:
            if self.kind == "path":
                d["label"] = self.label
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @property
    def tag(self):
        """The kind, with the label for a path: "path[s]", "prime", "leaf"."""
        return "path[%s]" % self.label if self.kind == "path" else self.kind

    def __repr__(self):
        if self.kind == "leaf":
            return "Leaf(%s)" % self.node
        return "%s(%s)" % (self.tag, ", ".join(repr(c) for c in self.children))


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


def _single_exit_class(z, members):
    """The (label, head) pair shared by all arcs leaving `members`, if any."""
    classes = {(r, h) for t, h, r in z.arcs
               if t in members and h not in members}
    if len(classes) == 1:
        return classes.pop()
    return None


def _chain_blocks(z, mods):
    """Overlapping maximal modules: cut along the longest uniform path.

    The cut points are the source-containing proper modules whose exits
    all agree on one (label, head) class; they are totally ordered by
    inclusion and the consecutive differences are the path's blocks.
    """
    everything = frozenset(z.action_of)
    prefixes = []
    for p in [frozenset([z.source])] + mods:
        if z.source in p and p != everything and _single_exit_class(z, p):
            prefixes.append(p)
    prefixes = sorted(set(prefixes), key=len)
    if not prefixes:
        raise StructureError("overlapping modules but no path prefix found")
    for a, b in zip(prefixes, prefixes[1:]):
        if not a < b:
            raise StructureError("path prefixes are not a chain")
    blocks = [prefixes[0]]
    for a, b in zip(prefixes, prefixes[1:]):
        blocks.append(b - a)
    blocks.append(everything - prefixes[-1])
    for b in blocks:
        if not is_module(z, b):
            raise StructureError("path block is not a module")
    return blocks


def decompose(z):
    """Recursive modular decomposition of a decision structure.

    Modules are searched for once: for a module M of z, the modules of
    z.induced(M) are exactly the modules of z inside M.
    """
    if len(z.nodes) == 1:
        return _leaf(z, z.source)
    return _decompose(z, nontrivial_modules(z))


def _leaf(z, v):
    return DecompositionNode("leaf", [v], node=v, action=z.action_of[v])


def _decompose(z, mods):
    """decompose for 2+ nodes, given z's modules but its full node set."""
    everything = frozenset(z.action_of)
    # mods ascend by size, so a superset of m is found soonest from the end
    maximal = [m for m in mods if not any(m < o for o in reversed(mods))]
    overlap = any(a & b for i, a in enumerate(maximal) for b in maximal[i + 1:])
    if overlap:
        blocks = _chain_blocks(z, mods)
    else:
        covered = set().union(*maximal)
        blocks = maximal + [frozenset([v]) for v in everything - covered]
    q = quotient(z, blocks)
    label = _uniform_path(q)
    if overlap and label is None:
        raise StructureError("chain quotient is not a uniform path")
    by_id = {block_id(b): b for b in blocks}
    children = []
    for qid in q.topological_order():
        b = by_id[qid]
        if len(b) == 1:
            children.append(_leaf(z, qid))
        else:
            inner = [m for m in mods if m < b]
            children.append(_decompose(z.induced(b), inner))
    kind = "path" if label is not None else "prime"
    return DecompositionNode(kind, everything, label=label,
                             children=children, quotient=q)


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

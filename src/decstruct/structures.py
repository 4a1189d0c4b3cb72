"""Core decision structures: labeled single-source DAGs and their semantics.

A decision structure is a finite DAG with exactly one source, no parallel
arcs, all nodes reachable from the source, and the out-arcs of every node
carrying pairwise distinct labels. Nodes name actions (several nodes may
share an action); arcs are labeled by return values.
"""


class StructureError(ValueError):
    """Base class for structural validation failures."""


class CycleFound(StructureError):
    def __init__(self, path):
        self.path = list(path)
        super().__init__("cycle: " + " -> ".join(self.path))


class MultipleSources(StructureError):
    def __init__(self, ids):
        self.ids = sorted(ids)
        super().__init__("multiple sources: " + ", ".join(self.ids))


class NoSource(StructureError):
    def __init__(self):
        super().__init__("no source node (every node has an in-arc)")


class DuplicateArcLabel(StructureError):
    def __init__(self, node, label):
        self.node = node
        self.label = label
        super().__init__("node %r has two out-arcs labeled %r" % (node, label))


class UnreachableNode(StructureError):
    def __init__(self, node):
        self.node = node
        super().__init__("node %r is unreachable from the source" % node)


class ParallelArcs(StructureError):
    def __init__(self, tail, head):
        self.tail = tail
        self.head = head
        super().__init__("parallel arcs from %r to %r" % (tail, head))


class FormatError(ValueError):
    """Malformed input file."""


def read_text(path):
    """The text of the file at path: UTF-8, with or without a leading
    byte-order mark. Any other encoding raises FormatError."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError("input is not UTF-8 text (%s)" % exc.reason)


def text_lines(text):
    """(number from 1, line, line before its first `#`) for each line of
    text: the comment rule of the structure, world, action and spec
    formats."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        yield lineno, raw, raw.split("#", 1)[0]


def _toposort(nodes, out):
    """Depth-first topological order of out (node -> {label: head}), from
    each unvisited node of nodes in turn; raises CycleFound on a cycle."""
    order, state = [], {}  # state: 1 = on stack, 2 = done
    for start in nodes:
        if state.get(start):
            continue
        stack = [(start, iter(sorted(out[start].items())))]
        state[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for _, head in it:
                if state.get(head) == 1:
                    cyc = path[path.index(head):] + [head]
                    raise CycleFound(cyc)
                if not state.get(head):
                    state[head] = 1
                    path.append(head)
                    stack.append((head, iter(sorted(out[head].items()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()
                path.pop()
    order.reverse()
    return order


class DecisionStructure:
    """Immutable-ish labeled DAG. Construct via validate() or the parser."""

    def __init__(self, nodes, arcs):
        # nodes: iterable of (id, action); arcs: iterable of (tail, head, label)
        self.nodes = [(str(i), str(a)) for i, a in nodes]
        self.arcs = [(str(t), str(h), str(r)) for t, h, r in arcs]
        self.action_of = {}
        for i, a in self.nodes:
            if i in self.action_of:
                raise StructureError("duplicate node id %r" % i)
            self.action_of[i] = a
        self.out = {i: {} for i, _ in self.nodes}   # id -> {label: head}
        self.preds = {i: [] for i, _ in self.nodes}  # id -> [(tail, label)]
        seen_pairs = set()
        for t, h, r in self.arcs:
            if t not in self.action_of:
                raise StructureError("arc tail %r is not a node" % t)
            if h not in self.action_of:
                raise StructureError("arc head %r is not a node" % h)
            if (t, h) in seen_pairs:
                raise ParallelArcs(t, h)
            seen_pairs.add((t, h))
            if r in self.out[t]:
                raise DuplicateArcLabel(t, r)
            self.out[t][r] = h
            self.preds[h].append((t, r))
        self.source = self._find_source()
        self._topo = _toposort(self.action_of, self.out)
        self._check_reachability()

    # -- validation ------------------------------------------------------

    def _find_source(self):
        roots = [i for i, _ in self.nodes if not self.preds[i]]
        if not roots:
            raise NoSource()
        if len(roots) > 1:
            raise MultipleSources(roots)
        return roots[0]

    def _check_reachability(self):
        seen = {self.source}
        frontier = [self.source]
        while frontier:
            n = frontier.pop()
            for h in self.out[n].values():
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        for i, _ in self.nodes:
            if i not in seen:
                raise UnreachableNode(i)

    # -- basic queries ---------------------------------------------------

    def node_ids(self):
        return [i for i, _ in self.nodes]

    def topological_order(self):
        return list(self._topo)

    def sinks(self):
        return [i for i, _ in self.nodes if not self.out[i]]

    def labels(self):
        return sorted({r for _, _, r in self.arcs})

    def induced(self, members):
        """The sub-structure on a node subset (must itself validate)."""
        members = set(members)
        for m in members:
            if m not in self.action_of:
                raise StructureError("unknown node %r" % m)
        nodes = [(i, a) for i, a in self.nodes if i in members]
        arcs = [(t, h, r) for t, h, r in self.arcs
                if t in members and h in members]
        return DecisionStructure(nodes, arcs)

    def __eq__(self, other):
        if not isinstance(other, DecisionStructure):
            return NotImplemented
        return (sorted(self.nodes) == sorted(other.nodes)
                and sorted(self.arcs) == sorted(other.arcs))

    def __hash__(self):
        return hash((tuple(sorted(self.nodes)), tuple(sorted(self.arcs))))

    def __repr__(self):
        return "DecisionStructure(%d nodes, %d arcs, source=%r)" % (
            len(self.nodes), len(self.arcs), self.source)


def validate(nodes, arcs):
    """Build a decision structure, raising a StructureError on any violation."""
    return DecisionStructure(nodes, arcs)


def select(z, state):
    """Walk from the source following arcs that match each action's return.

    state maps action names to return values; missing actions (or values
    with no matching out-arc) stop the walk. Returns the id of the node
    where the walk stops.
    """
    node = z.source
    while True:
        value = state.get(z.action_of[node])
        if value is None:
            return node
        head = z.out[node].get(value)
        if head is None:
            return node
        node = head


def derived_return(z, state):
    """The return value of the structure as a whole: the selected node's
    value, or None when that node returns nothing under `state`."""
    return state.get(z.action_of[select(z, state)])


def structurally_equivalent(z1, z2):
    """Isomorphism check for labeled graphs (arc labels and node actions).

    Returns the node-id mapping z1 -> z2, or None. Since both graphs have a
    single source and per-node distinct arc labels, any isomorphism is
    forced by propagation from the source.
    """
    if len(z1.nodes) != len(z2.nodes) or len(z1.arcs) != len(z2.arcs):
        return None
    mapping = {z1.source: z2.source}
    queue = [z1.source]
    while queue:
        u = queue.pop()
        v = mapping[u]
        if z1.action_of[u] != z2.action_of[v]:
            return None
        if set(z1.out[u]) != set(z2.out[v]):
            return None
        for r, h1 in z1.out[u].items():
            h2 = z2.out[v][r]
            if h1 in mapping:
                if mapping[h1] != h2:
                    return None
            else:
                mapping[h1] = h2
                queue.append(h1)
    if len(set(mapping.values())) != len(mapping) or len(mapping) != len(z1.nodes):
        return None
    return mapping


# -- file format ---------------------------------------------------------

HEADER = "decstruct v1"


def parse_structure(text):
    """Parse the `decstruct v1` structure format.

    Lines: header, then `node <id> <action>` and `arc <tail> <head> <label>`;
    `#` comments and blank lines ignored.
    """
    nodes, arcs = [], []
    saw_header = False
    for lineno, raw, line in text_lines(text):
        line = line.strip()
        if not line:
            continue
        if not saw_header:
            if line != HEADER:
                raise FormatError("line %d: expected header %r" % (lineno, HEADER))
            saw_header = True
            continue
        parts = line.split()
        if parts[0] == "node" and len(parts) == 3:
            nodes.append((parts[1], parts[2]))
        elif parts[0] == "arc" and len(parts) == 4:
            arcs.append((parts[1], parts[2], parts[3]))
        else:
            raise FormatError("line %d: cannot parse %r" % (lineno, raw))
    if not saw_header:
        raise FormatError("missing header %r" % HEADER)
    return validate(nodes, arcs)


def format_structure(z):
    out = [HEADER]
    for i, a in z.nodes:
        out.append("node %s %s" % (i, a))
    for t, h, r in z.arcs:
        out.append("arc %s %s %s" % (t, h, r))
    return "\n".join(out) + "\n"


def load_structure(path):
    return parse_structure(read_text(path))

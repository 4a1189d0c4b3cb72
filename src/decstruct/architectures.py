"""Tree-shaped control architectures and their maps into decision structures.

Three tree languages share one graph target:

* k-ary behavior trees: operators ``*_c`` over return value c; a node
  ticks its children left to right and moves on while each returns c.
  Classic behavior trees are the two-operator case (sequence = ``*_s``,
  fallback = ``*_f``).
* teleo-reactive programs: an ordered action list; the first item not
  returning the idle value d is in charge. This is the one-label
  operator tree ``*_d``, and it is built as one.
* decision trees: full binary trees of predicates with top/bot branches.
"""

from collections import namedtuple

from .modules import decompose
from .structures import DecisionStructure, StructureError

Leaf = namedtuple("Leaf", ["action"])
Op = namedtuple("Op", ["label", "children"])
Pred = namedtuple("Pred", ["action", "when_true", "when_false"])

TR_LABEL = "d"
DT_LABELS = ("top", "bot")


class ArchError(StructureError):
    """Malformed architecture term."""


def _fresh_ids(actions):
    """One node id per leaf: the action name, suffixed on repeats."""
    ids, used = [], {}
    for a in actions:
        used[a] = used.get(a, 0) + 1
        ids.append(a if used[a] == 1 else "%s%d" % (a, used[a]))
    if len(set(ids)) != len(ids):  # e.g. actions literally named "Land2"
        ids = ["n%d_%s" % (i + 1, a) for i, a in enumerate(actions)]
    return ids


def construct_kbt(tree):
    """Map an operator tree to its decision structure.

    Leaves become nodes in left-to-right order. When a leaf returns r,
    control climbs the tree: at an ancestor ``*_r`` that has a next
    sibling, it jumps to that sibling's leftmost leaf (one arc labeled
    r); anywhere else it keeps climbing, and at the root the value is
    returned, so no arc is drawn.

    One pass reads the leaves right to left, each with its continuation:
    the map from each label r to the leaf an r-return jumps to. A child
    with a next sibling under ``*_r`` maps r to the last leaf read, the
    leftmost leaf of that sibling; a last child keeps its parent's map.
    A teleo-reactive program is the one-label case (``construct_tr``).
    """
    actions, conts = [], []  # the leaves read so far, right to left
    stack = [(tree, {}, None)]
    while stack:
        t, cont, jump = stack.pop()
        if jump is not None:  # t has a next sibling under *_jump
            cont = dict(cont)
            cont[jump] = len(actions) - 1
        if isinstance(t, Leaf):
            actions.append(t.action)
            conts.append(cont)
        elif not isinstance(t, Op):
            raise ArchError("not an operator tree: %r" % (t,))
        elif not t.children:
            raise ArchError("operator with no children")
        else:
            last = len(t.children) - 1
            stack.extend((c, cont, t.label if i < last else None)
                         for i, c in enumerate(t.children))
    n = len(actions)
    actions.reverse()
    conts.reverse()
    ids = _fresh_ids(actions)
    arcs = [(ids[i], ids[n - 1 - cont[r]], r)
            for i, cont in enumerate(conts) for r in sorted(cont)]
    return DecisionStructure(list(zip(ids, actions)), arcs)


def construct_bt(tree):
    """construct_kbt restricted to the two classic operators."""
    labels, stack = set(), [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, Op):
            labels.add(t.label)
            stack.extend(t.children)
    bad = labels - {"s", "f"}
    if bad:
        raise ArchError("behavior trees only use labels s and f, got %s"
                        % ", ".join(sorted(bad)))
    return construct_kbt(tree)


def construct_tr(actions):
    """An action list is the one-label k-BT ``*_d`` over its actions: a
    chain of arcs labeled with the idle value."""
    leaves = [a if isinstance(a, Leaf) else Leaf(str(a)) for a in actions]
    if not leaves:
        raise ArchError("empty program")
    return construct_kbt(Op(TR_LABEL, leaves))


def construct_dt(tree):
    """A predicate tree becomes its own shape with top/bot arc labels.
    Nodes are numbered in preorder and arcs listed in postorder; the stack
    holds (t, None) for a term to number and (t, me) for a predicate
    numbered me whose subtrees' roots are the last two in `roots`."""
    actions, spans, roots = [], [], []
    stack = [(tree, None)]
    while stack:
        t, me = stack.pop()
        if me is not None:
            no, yes = roots.pop(), roots.pop()
            spans.append((me, yes, no))
            roots.append(me)
            continue
        if not isinstance(t, (Leaf, Pred)):
            raise ArchError("not a predicate tree: %r" % (t,))
        actions.append(t.action)
        me = len(actions) - 1
        if isinstance(t, Leaf):
            roots.append(me)
        else:
            stack += [(t, me), (t.when_false, None), (t.when_true, None)]
    ids = _fresh_ids(actions)
    arcs = []
    for me, yes, no in spans:
        arcs.append((ids[me], ids[yes], DT_LABELS[0]))
        arcs.append((ids[me], ids[no], DT_LABELS[1]))
    return DecisionStructure(list(zip(ids, actions)), arcs)


def compress(tree):
    """Normal form: no single-child operators, no same-label nesting.
    Terms are listed in preorder, then rebuilt in reverse, each after its
    parts."""
    order, stack = [], [tree]
    while stack:
        t = stack.pop()
        order.append(t)
        if isinstance(t, Pred):
            stack += (t.when_false, t.when_true)
        elif not isinstance(t, Leaf):
            stack += reversed(t.children)
    done = {}
    for t in reversed(order):
        if isinstance(t, Pred):
            new = Pred(t.action, done[id(t.when_true)], done[id(t.when_false)])
        elif isinstance(t, Op):
            children = []
            for c in t.children:
                c = done[id(c)]
                if isinstance(c, Op) and c.label == t.label:
                    children.extend(c.children)
                else:
                    children.append(c)
            new = children[0] if len(children) == 1 else Op(t.label, children)
        else:
            new = t
        done[id(t)] = new
    return done[id(tree)]


def extract_kbt(z):
    """Recover an operator tree from a structure, or None if there is none."""
    return _kbt_term(decompose(z))


def _kbt_term(d):
    """The operator tree of decomposition d, or None if a level is prime.
    A path has 2+ children and none of its label, so it is compressed.
    Levels are taken in reverse preorder, each after its children."""
    terms = {}
    for n in reversed(list(d.walk())):
        if n.kind == "prime":
            return None
        terms[n] = Leaf(n.action) if n.is_leaf() else Op(
            n.label, [terms.pop(c) for c in n.children])
    return terms[d]


# -- term syntax -----------------------------------------------------------


# The classic operators are written by name: (seq ...) and (fb ...).
_NAMES = {"s": "seq", "f": "fb"}
_LABELS = {name: label for label, name in _NAMES.items()}


def parse_arch(text):
    """Parse architecture terms written as s-expressions.

    ``(seq a (fb b c))`` and ``(fb ...)`` are the classic operators,
    ``(op <label> ...)`` the general one, ``(tr a b c)`` an action list,
    ``(dt pred yes no)`` a predicate node. Bare words are actions.
    The stack holds [head, args] for each open term.
    """
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())
    stack = []
    for tok in tokens:
        if tok == "(":
            head = next(tokens, None)
            if head is None:
                raise ArchError("unexpected end of input")
            stack.append([head, []])
            continue
        if tok != ")":
            term = Leaf(tok)
        elif stack:
            term = _close_term(*stack.pop())
        else:
            raise ArchError("unexpected ')'")
        if stack:
            stack[-1][1].append(term)
        elif next(tokens, None) is not None:
            raise ArchError("trailing input after term")
        else:
            return term
    raise ArchError("missing ')'" if stack else "unexpected end of input")


def _close_term(head, args):
    """The term (head args...) of parse_arch."""
    if head in _LABELS:
        return Op(_LABELS[head], args)
    if head == "op":
        if not args or not isinstance(args[0], Leaf):
            raise ArchError("(op <label> ...) needs a label")
        return Op(args[0].action, args[1:])
    if head == "tr":
        if not all(isinstance(a, Leaf) for a in args):
            raise ArchError("(tr ...) takes plain actions")
        return args
    if head == "dt":
        if len(args) != 3 or not isinstance(args[0], Leaf):
            raise ArchError("(dt <pred> <yes> <no>) is ternary")
        return Pred(args[0].action, args[1], args[2])
    raise ArchError("unknown operator %r" % head)


def format_arch(term):
    """The s-expression of a term, written without recursion: the stack
    holds (text, None) for text to emit and (None, t) for a term."""
    out, stack = [], [(None, term)]
    while stack:
        text, t = stack.pop()
        if isinstance(t, Leaf):
            text = t.action
        if text is not None:
            out.append(text)
            continue
        if isinstance(t, Op):
            head = _NAMES.get(t.label, "op %s" % t.label)
            parts = t.children
        elif isinstance(t, Pred):
            head, parts = "dt " + t.action, [t.when_true, t.when_false]
        elif isinstance(t, list):
            head, parts = "tr", t
        else:
            raise ArchError("not an architecture term: %r" % (t,))
        stack.append((")", None))
        for i in reversed(range(len(parts))):
            stack.append((None, parts[i]))
            if i:
                stack.append((" ", None))
        stack.append(("(%s " % head, None))
    return "".join(out)

"""Independent reference implementations used to cross-check the library.

Everything here is written directly from the definitions, trading speed
for obviousness: module membership is tested clause by clause, modules are
found by enumerating subsets, operator terms are run by a recursive
interpreter, temporal formulas are evaluated on lasso words position by
position, formulas are compiled and printed by plain recursion, formulas
and terms are read by recursive descent, tableau products are gathered in
one flat dict and filtered in a second pass, an obligation set's covers
are folded from its first member every time, obligation sets drop only
the untils whose targets they hold, and automaton emptiness is
decided on spelled-out edges, each conjunct a structure is verified
against gets an entailment of its own, and the premise automaton's G p
and F p conjuncts are decided by searches over all of it.
"""

import heapq
import itertools
import random

from decstruct import (ArchError, DecisionStructure, FormatError, Leaf, Op,
                       Pred, ResourceLimit, entails)
from decstruct.logic import World, tokenize_ltl
from decstruct.verifier import Verdict


# -- modules, straight from the definition ----------------------------------


def oracle_is_module(z, members):
    members = set(members)
    ids = set(z.node_ids())
    if not members or not members <= ids:
        return False
    inside = [(t, h, r) for t, h, r in z.arcs
              if t in members and h in members]

    heads_in = {h for _, h, _ in inside}
    roots = [v for v in sorted(members) if v not in heads_in]
    if len(roots) != 1:
        return False
    root = roots[0]

    adj = {}
    for t, h, _ in inside:
        adj.setdefault(t, set()).add(h)
    seen, stack = {root}, [root]
    while stack:
        for h in adj.get(stack.pop(), ()):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    if seen != members:
        return False

    for t, h, _ in z.arcs:
        if t not in members and h in members and h != root:
            return False

    leaving = {}
    for t, h, r in z.arcs:
        if t in members and h not in members:
            leaving.setdefault(r, set()).add(h)
    for r, heads in leaving.items():
        if len(heads) != 1:
            return False
        if any(r not in z.out[v] for v in members):
            return False
    return True


def oracle_modules(z):
    """Every module of size >= 2, by subset enumeration. Small inputs only."""
    ids = sorted(z.node_ids())
    found = []
    for k in range(2, len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            if oracle_is_module(z, combo):
                found.append(frozenset(combo))
    return sorted(found, key=lambda m: (len(m), sorted(m)))



def oracle_sweep(z, seed, stop=None):
    """seed's absorption sweep, up to stop nodes, by a heap: grow M from
    seed by the topologically first node whose every in-arc comes from M.
    Returns (order, sizes), sizes listing each |M| at which every label
    sees at most one head of the arcs leaving M, a node missing the label
    leaving toward the label's own sink."""
    topo_pos = {v: i for i, v in enumerate(z.topological_order())}
    stop = len(z.nodes) if stop is None else stop
    order, cnt, ready = [], {}, [(topo_pos[seed], seed)]
    while ready and len(order) < stop:
        u = heapq.heappop(ready)[1]
        order.append(u)
        for h in z.out[u].values():
            cnt[h] = cnt.get(h, 0) + 1
            if cnt[h] == len(z.preds[h]):
                heapq.heappush(ready, (topo_pos[h], h))
    sizes = []
    for k in range(1, len(order) + 1):
        taken = set(order[:k])
        heads = {(r, z.out[v].get(r, ("sink", r))) for v in taken
                 for r in z.labels()}
        leaving = [r for r, h in heads if h not in taken]
        if len(leaving) == len(set(leaving)):
            sizes.append(k)
    return order, sizes

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


def oracle_decompose(z):
    """Modular decomposition that searches every induced child for its own
    modules, keeps the maximal ones by a full scan and cuts paths by its
    own rule, so it does not rest on the restriction lemma or on the
    sweep reading that decompose uses."""
    from decstruct.modules import (DecompositionNode, block_id,
                                   find_modules, quotient)
    if len(z.nodes) == 1:
        v = z.source
        return DecompositionNode("leaf", [v], node=v, action=z.action_of[v])
    everything = frozenset(z.action_of)
    mods = [m for m in find_modules(z) if m != everything]
    maximal = [m for m in mods if not any(m < o for o in mods)]
    overlap = any(a & b for i, a in enumerate(maximal)
                  for b in maximal[i + 1:])
    if overlap:
        # overlapping maximal modules: the cut points of the path are the
        # proper modules holding the source whose arcs out all share one
        # (label, head) pair; by size, each holds the one before
        def exits(p):
            return {(r, h) for t, h, r in z.arcs if t in p and h not in p}
        cuts = sorted((p for p in [frozenset([z.source])] + mods
                       if z.source in p and len(exits(p)) == 1), key=len)
        blocks = [b - a for a, b in zip([frozenset()] + cuts,
                                        cuts + [everything])]
    else:
        covered = set().union(*maximal)
        blocks = maximal + [frozenset([v]) for v in everything - covered]
    q = quotient(z, blocks)
    label = _uniform_path(q)
    by_id = {block_id(b): b for b in blocks}
    children = [oracle_decompose(z.induced(by_id[qid]))
                for qid in q.topological_order()]
    kind = "path" if label is not None else "prime"
    return DecompositionNode(kind, everything, label=label,
                             children=children, quotient=q)


def check_levels(z):
    """decompose(z) against the quotients it builds when read and against
    oracle_decompose: at every non-leaf level, the cyclomatic number that
    analysis reads off the level is that of its quotient, the children
    come in the quotient's topological order, and the members are the
    oracle's. Returns the number of non-leaf levels."""
    from decstruct.analysis import _complexity, cyclomatic
    from decstruct.modules import block_id, decompose
    got, want = decompose(z), oracle_decompose(z)
    assert got.to_dict() == want.to_dict()
    best, levels = 1, 0
    for d, w in zip(got.walk(), want.walk()):
        assert d.members == w.members
        if d.is_leaf():
            continue
        levels += 1
        q = d.quotient
        assert d._cyclomatic == cyclomatic(q)
        assert [block_id(c.members) for c in d.children] == \
            q.topological_order()
        best = max(best, cyclomatic(q))
    assert _complexity(z, got)["essential"] == best
    return levels


# -- operator trees, by the climbing rule -------------------------------------


def oracle_construct_kbt(term):
    """(nodes, arcs) of an operator term without empty operators, read
    straight off the climbing rule: when leaf i returns r, scan its
    ancestors from the nearest up; at the first ``*_r`` whose child on the
    way has a next sibling, draw an r-arc to that sibling's leftmost leaf.
    Arcs come in leaf order, each leaf's sorted by label."""
    found = []  # (leaf, [(op, child position)] root first), left to right

    def collect(t, ancestors):
        if isinstance(t, Leaf):
            found.append((t, ancestors))
            return
        for pos, c in enumerate(t.children):
            collect(c, ancestors + [(t, pos)])

    collect(term, [])
    actions = [leaf.action for leaf, _ in found]
    ids, seen = [], {}
    for a in actions:
        seen[a] = seen.get(a, 0) + 1
        ids.append(a if seen[a] == 1 else "%s%d" % (a, seen[a]))
    if len(set(ids)) < len(ids):
        ids = ["n%d_%s" % (i + 1, a) for i, a in enumerate(actions)]
    labels = sorted({op.label for _, anc in found for op, _ in anc})
    arcs = []
    for i, (_, ancestors) in enumerate(found):
        for r in labels:
            for op, pos in reversed(ancestors):
                if op.label == r and pos + 1 < len(op.children):
                    target = op.children[pos + 1]
                    while isinstance(target, Op):
                        target = target.children[0]
                    j = next(j for j, (leaf, _) in enumerate(found)
                             if leaf is target)
                    arcs.append((ids[i], ids[j], r))
                    break
    return list(zip(ids, actions)), arcs


# -- interpreters for operator terms -----------------------------------------


def tick_term(term, state):
    """Run an operator term against one abstract state (action -> value)."""
    if isinstance(term, Leaf):
        return state[term.action]
    if isinstance(term, Pred):
        v = state[term.action]
        if v == "top":
            return tick_term(term.when_true, state)
        if v == "bot":
            return tick_term(term.when_false, state)
        return v
    for child in term.children:
        v = tick_term(child, state)
        if v != term.label:
            return v
    return term.label


def term_actions(term):
    if isinstance(term, Leaf):
        return [term.action]
    if isinstance(term, Pred):
        return ([term.action] + term_actions(term.when_true)
                + term_actions(term.when_false))
    out = []
    for child in term.children:
        out.extend(term_actions(child))
    return out


def all_states(actions, values):
    """Every total assignment of the given return values to the actions."""
    actions = sorted(set(actions))
    for combo in itertools.product(values, repeat=len(actions)):
        yield dict(zip(actions, combo))


def hierarchical_select(z, members, state):
    """Derived return of z computed through a module: run the induced part
    on its own, hand its outcome to the contracted structure."""
    from decstruct import contract, derived_return
    inner = z.induced(members)
    small = contract(z, members)
    mod_id = next(v for v in small.node_ids()
                  if v not in set(z.node_ids()))
    sub_state = dict(state)
    sub_state[small.action_of[mod_id]] = derived_return(inner, state)
    return derived_return(small, sub_state)


# -- random generators --------------------------------------------------------


ACTION_POOL = "abcdefgh"


def rand_structure(rng, n, labels=("s", "f", "m"), extra=0.6):
    """A random decision structure: single source, connected, acyclic,
    no parallel arcs, distinct out-labels per node."""
    nodes = [("n%d" % i, rng.choice(ACTION_POOL)) for i in range(n)]
    arcs = []
    used = [set() for _ in range(n)]   # labels already leaving node i
    hit = [set() for _ in range(n)]    # heads already reached from node i
    for i in range(1, n):
        while True:
            j = rng.randrange(i)
            free = [r for r in labels if r not in used[j]]
            if free:
                break
        r = rng.choice(free)
        arcs.append(("n%d" % j, "n%d" % i, r))
        used[j].add(r)
        hit[j].add(i)
    for j in range(n):
        for i in range(j + 1, n):
            if i in hit[j] or rng.random() > extra / n:
                continue
            free = [r for r in labels if r not in used[j]]
            if not free:
                break
            r = rng.choice(free)
            arcs.append(("n%d" % j, "n%d" % i, r))
            used[j].add(r)
            hit[j].add(i)
    return DecisionStructure(nodes, arcs)


def comb(n):
    """An n-level decision-tree comb: a top spine s0 ... s<n-1> with a bot
    leaf l<i> at each level but the last."""
    nodes = [("s%d" % i, "s%d" % i) for i in range(n)]
    nodes += [("l%d" % i, "l%d" % i) for i in range(n - 1)]
    arcs = [a for i in range(n - 1) for a in (
        ("s%d" % i, "s%d" % (i + 1), "top"), ("s%d" % i, "l%d" % i, "bot"))]
    return DecisionStructure(nodes, arcs)


def rand_term(rng, labels=("s", "f"), max_leaves=6, canonical=False,
              actions=None):
    """A random operator term. With canonical=True the result is stable
    under compression: ops keep >= 2 children and never repeat the label
    of a direct child op. Leaves are a0, a1, ... or, given a list of
    actions, drawn from it with repeats."""
    counter = itertools.count()

    def leaf():
        if actions:
            return Leaf(rng.choice(actions))
        return Leaf("a%d" % next(counter))

    def go(budget, parent_label):
        if budget <= 1 or rng.random() < 0.3:
            return leaf(), 1
        pool = [r for r in labels if not canonical or r != parent_label]
        label = rng.choice(pool or list(labels))
        width = rng.randint(2, 3)
        children, total = [], 0
        for _ in range(width):
            child, size = go((budget - total) // 2 + 1, label)
            children.append(child)
            total += size
            if total >= budget - 1:
                break
        if canonical and len(children) < 2:
            children.append(leaf())
            total += 1
        return Op(label, children), total

    term, _ = go(max_leaves, None)
    if isinstance(term, Leaf) and canonical:
        return term
    return term


def rand_pred_term(rng, max_depth=3):
    counter = itertools.count()

    def go(depth):
        if depth <= 0 or rng.random() < 0.35:
            return Leaf("a%d" % next(counter))
        return Pred("a%d" % next(counter), go(depth - 1), go(depth - 1))

    return go(max_depth)


def replay_world():
    """The 12-state world of the lasso checks, and its atoms."""
    world = World([("M", ["m0", "m1", "m2"], False),
                   ("p", ["p", "!p"], True),
                   ("q", ["q", "!q"], True)])
    return world, ["m0", "m1", "m2", "p", "q"]


def rand_entailment(rng, atoms, depth=None):
    """A random entailment question: up to two premises, one conclusion,
    each of the given depth or, by default, of a random depth up to 3."""
    def formula():
        return rand_formula(rng, atoms, depth or rng.randint(1, 3))

    premises = [formula() for _ in range(rng.randint(0, 2))]
    return premises, formula()


def rand_formula(rng, atoms, depth):
    if depth <= 0:
        return ("atom", rng.choice(atoms))
    pick = rng.random()
    if pick < 0.20:
        return ("atom", rng.choice(atoms))
    if pick < 0.32:
        return ("not", rand_formula(rng, atoms, depth - 1))
    if pick < 0.47:
        return ("and", (rand_formula(rng, atoms, depth - 1),
                        rand_formula(rng, atoms, depth - 1)))
    if pick < 0.62:
        return ("or", (rand_formula(rng, atoms, depth - 1),
                       rand_formula(rng, atoms, depth - 1)))
    if pick < 0.72:
        return ("next", rand_formula(rng, atoms, depth - 1))
    if pick < 0.82:
        return ("until", rand_formula(rng, atoms, depth - 1),
                rand_formula(rng, atoms, depth - 1))
    if pick < 0.91:
        return ("eventually", rand_formula(rng, atoms, depth - 1))
    return ("always", rand_formula(rng, atoms, depth - 1))


def rand_any_formula(rng, atoms, depth, full_mask):
    """A random formula of at most the given depth over every operator
    the library reads, mask leaves included. About one part in ten is an
    earlier subformula object again, so the formula is a DAG."""
    built = []

    def go(depth):
        if built and rng.random() < 0.1:
            return rng.choice(built)
        pick = rng.random() if depth > 0 else rng.random() * 0.25
        if pick < 0.03:
            f = ("true",)
        elif pick < 0.06:
            f = ("false",)
        elif pick < 0.09:
            f = ("mask", rng.randint(0, full_mask))
        elif pick < 0.25:
            f = ("atom", rng.choice(atoms))
        elif pick < 0.35:
            f = ("not", go(depth - 1))
        elif pick < 0.47:
            f = (rng.choice(("and", "or")),
                 tuple(go(depth - 1) for _ in range(rng.randint(2, 3))))
        elif pick < 0.55:
            f = ("implies", go(depth - 1), go(depth - 1))
        elif pick < 0.65:
            f = ("until", go(depth - 1), go(depth - 1))
        else:
            f = (rng.choice(("next", "eventually", "always")), go(depth - 1))
        built.append(f)
        return f

    return go(depth)


LTL_TOKENS = ("a", "b", "true", "false", "!", "X", "F", "G", "&", "|",
              "->", "U", "(", ")")
ARCH_TOKENS = ("(", ")", "seq", "fb", "op", "tr", "dt", "a", "b", "m")


def rand_ltl_text(rng, depth):
    """A random well-formed LTL text: operands joined by infix operators
    of every binding strength, under random prefixes and parentheses."""
    def operand(depth):
        pick = rng.random() if depth > 0 else 0
        if pick < 0.4:
            return rng.choice(("a", "b", "c", "true", "false"))
        if pick < 0.65:
            return rng.choice(("!", "X ", "F ", "G ")) + operand(depth - 1)
        return "(" + expression(depth - 1) + ")"

    def expression(depth):
        parts = [operand(depth)]
        for _ in range(rng.randint(0, 3)):
            parts += [rng.choice(("&", "|", "->", "U")), operand(depth)]
        return " ".join(parts)

    return expression(depth)


def rand_arch_text(rng, depth):
    """A random architecture term text over every head, now and then
    with the wrong arguments for its head."""
    def term(depth):
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice(("a", "b", "c"))
        head = rng.choice(("seq", "fb", "op m", "op", "tr", "dt a", "dt"))
        if head == "tr" and rng.random() < 0.8:
            args = [rng.choice(("a", "b")) for _ in range(rng.randint(0, 3))]
        elif head.startswith("dt") and rng.random() < 0.8:
            args = [term(depth - 1), term(depth - 1)]
        else:
            args = [term(depth - 1) for _ in range(rng.randint(0, 3))]
        return "(%s)" % " ".join([head] + args)

    return term(depth)


def rand_tokens(rng, tokens, max_len):
    """Up to max_len tokens drawn at random, space-separated."""
    return " ".join(rng.choice(tokens) for _ in range(rng.randint(0, max_len)))


# -- formulas, by plain recursion ---------------------------------------------


def _oracle_junction(world, op, parts):
    full = world.full_mask
    unit, zero = (full, 0) if op == "and" else (0, full)
    merged = unit
    rest = []
    for p in parts:
        if p[0] == "mask":
            merged = (merged & p[1]) if op == "and" else (merged | p[1])
        else:
            rest.append(p)
    if merged == zero or not rest:
        return ("mask", merged)
    if merged != unit:
        rest = [("mask", merged)] + rest
    return rest[0] if len(rest) == 1 else (op, tuple(rest))


def oracle_compile_nnf(world, f, neg=False):
    """Negation normal form with propositional parts collapsed to masks,
    one recursive call per occurrence of a subformula."""
    op = f[0]
    if op in ("true", "false", "atom", "mask"):
        m = {"true": world.full_mask, "false": 0}.get(op)
        if m is None:
            m = world.atom_mask(f[1]) if op == "atom" else f[1]
        return ("mask", (world.full_mask ^ m) if neg else m)
    if op == "not":
        return oracle_compile_nnf(world, f[1], not neg)
    if op in ("and", "or"):
        out = ("or" if (op == "and") == neg else "and")
        return _oracle_junction(world, out, [oracle_compile_nnf(world, p, neg)
                                             for p in f[1]])
    if op == "implies":
        return oracle_compile_nnf(world, ("or", (("not", f[1]), f[2])), neg)
    if op == "next":
        return ("next", oracle_compile_nnf(world, f[1], neg))
    if op == "until":
        a = oracle_compile_nnf(world, f[1], neg)
        b = oracle_compile_nnf(world, f[2], neg)
        return ("release" if neg else "until", a, b)
    if op == "eventually":
        return oracle_compile_nnf(world, ("until", ("true",), f[1]), neg)
    if op == "always":
        sub = oracle_compile_nnf(world, f[1], neg)
        if neg:
            return ("until", ("mask", world.full_mask), sub)
        return ("release", ("mask", 0), sub)
    raise ValueError("cannot compile %r" % (f,))


def oracle_describe_mask(world, mask):
    """World.describe_mask by a branch on every variable in turn, each on
    the mask of the states its branch keeps, with no memo."""
    if mask == world.full_mask:
        return "true"
    if mask == 0:
        return "false"

    def go(vi, dom):
        if not (dom & ~mask):
            return "true"
        if not (dom & mask):
            return "false"
        name, values, is_bool = world.variables[vi]
        branches = []
        for k, val in enumerate(values):
            sub_dom = dom & world._atom_masks[(vi, k)]
            if not sub_dom:
                continue
            atom = (name if k == 0 else "!" + name) if is_bool else val
            branches.append((atom, go(vi + 1, sub_dom)))
        texts = {b for _, b in branches}
        if len(texts) == 1:
            return texts.pop()
        terms = []
        for atom, sub in branches:
            if sub == "false":
                continue
            if sub == "true":
                terms.append(atom)
            elif " | " in sub:
                terms.append("%s & (%s)" % (atom, sub))
            else:
                terms.append("%s & %s" % (atom, sub))
        return " | ".join(terms)

    return go(0, world.full_mask)


_ORACLE_PREC = {"implies": 20, "or": 30, "and": 40, "until": 50}


def oracle_format_formula(f, parent=0):
    """A formula's text with minimal parentheses, recursively."""
    op = f[0]
    if op in ("true", "false"):
        return op
    if op == "atom":
        return f[1]
    if op == "ret":
        return "ret(%s, %s)" % (f[1], f[2])
    if op == "mask":
        return "<%d states>" % bin(f[1]).count("1")
    if op in ("not", "next", "eventually", "always"):
        sym = {"not": "!", "next": "X ", "eventually": "F ",
               "always": "G "}[op]
        return sym + oracle_format_formula(f[1], 90)
    if op == "until":
        text = "%s U %s" % (oracle_format_formula(f[1], 51),
                            oracle_format_formula(f[2], 50))
    elif op == "and":
        text = " & ".join(oracle_format_formula(p, 41) for p in f[1])
    elif op == "or":
        text = " | ".join(oracle_format_formula(p, 31) for p in f[1])
    elif op == "implies":
        text = "%s -> %s" % (oracle_format_formula(f[1], 21),
                             oracle_format_formula(f[2], 20))
    else:
        raise ValueError("cannot format %r" % (f,))
    if parent > _ORACLE_PREC[op]:
        return "(" + text + ")"
    return text


# -- readers, by recursive descent --------------------------------------------


def oracle_parse_ltl(text):
    """An LTL formula read by one recursive production per binding level."""
    tokens = tokenize_ltl(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expect=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expect is not None and tok != expect):
            raise FormatError("expected %s, found %r"
                              % (expect or "a formula", tok))
        pos += 1
        return tok

    def p_implies():
        left = p_or()
        if peek() == "->":
            take()
            return ("implies", left, p_implies())
        return left

    def p_or():
        parts = [p_and()]
        while peek() == "|":
            take()
            parts.append(p_and())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def p_and():
        parts = [p_until()]
        while peek() == "&":
            take()
            parts.append(p_until())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def p_until():
        left = p_unary()
        if peek() == "U":
            take()
            return ("until", left, p_until())
        return left

    def p_unary():
        unary = {"!": "not", "X": "next", "F": "eventually", "G": "always"}
        tok = peek()
        if tok in unary:
            take()
            return (unary[tok], p_unary())
        if tok == "(":
            take()
            inner = p_implies()
            take(")")
            return inner
        if tok in ("true", "false"):
            take()
            return (tok,)
        if tok is None or tok in ("&", "|", "->", ")", "U"):
            raise FormatError("expected a formula, found %r" % tok)
        take()
        return ("atom", tok)

    result = p_implies()
    if pos != len(tokens):
        raise FormatError("trailing tokens after formula: %r" % tokens[pos:])
    return result


def oracle_parse_arch(text):
    """An architecture term read by a recursive term reader."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def next_token():
        nonlocal pos
        if pos >= len(tokens):
            raise ArchError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_term():
        tok = next_token()
        if tok == ")":
            raise ArchError("unexpected ')'")
        if tok != "(":
            return Leaf(tok)
        head = next_token()
        args = []
        while True:
            if pos >= len(tokens):
                raise ArchError("missing ')'")
            if tokens[pos] == ")":
                next_token()
                break
            args.append(parse_term())
        if head == "seq":
            return Op("s", args)
        if head == "fb":
            return Op("f", args)
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

    term = parse_term()
    if pos != len(tokens):
        raise ArchError("trailing input after term")
    return term


def oracle_compress(tree):
    """Normal form of an operator term, recursively: no single-child
    operators, no same-label nesting."""
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, Pred):
        return Pred(tree.action, oracle_compress(tree.when_true),
                    oracle_compress(tree.when_false))
    children = []
    for c in tree.children:
        c = oracle_compress(c)
        if isinstance(c, Op) and c.label == tree.label:
            children.extend(c.children)
        else:
            children.append(c)
    if len(children) == 1:
        return children[0]
    return Op(tree.label, children)


# -- tableau products, in one flat dict --------------------------------------


def flat_product(tableau, left, right):
    """The covers of left x right as one dict (next bits, next mask,
    pending) -> state mask, in order of first appearance, with nothing
    dropped. Charges no budget."""
    out = {}
    for m1, b1, n1, p1 in left:
        for m2, b2, n2, p2 in right:
            m, nmask = m1 & m2, n1 & n2
            if m and nmask:
                key = (tableau.norm(b1 | b2), nmask, p1 | p2)
                out[key] = out.get(key, 0) | m
    return out


def flat_merge(tableau, covers):
    """As flat_product, for the union of `covers`."""
    out = {}
    for m, b, nmask, p in covers:
        if nmask:
            key = (tableau.norm(b), nmask, p)
            out[key] = out.get(key, 0) | m
    return out


def every_cover(out):
    """Every cover of a flat dict, in its order."""
    return [(m, b, n, p) for (b, n, p), m in out.items()]


def unfiltered_product(tableau, left, right):
    """_Tableau.product keeping dominated covers, charged as product."""
    tableau.budget.spend(len(left) * len(right) if left and right else 1)
    return every_cover(flat_product(tableau, left, right))


def unfiltered_merge(tableau, covers):
    """_Tableau.merge keeping dominated covers."""
    return every_cover(flat_merge(tableau, covers))


def oracle_undominated(out):
    """The covers of a flat dict less the dominated ones, each cover that
    stays in the earliest slot among its own and those it dominates: the
    filter as a second pass over the flat dict."""
    covers = every_cover(out)
    if len({b for b, _, _ in out}) == len(covers):
        return covers
    groups = {}
    for i, (b, n, _) in enumerate(out):
        groups.setdefault((b, n), []).append(i)
    if len(groups) == len(covers):
        return covers
    slot = list(range(len(covers)))
    dropped = set()
    for group in groups.values():
        if len(group) < 2:
            continue
        for i in group:
            m2, _, _, p2 = covers[i]
            for j in group:
                m1, _, _, p1 = covers[j]
                if j != i and not p1 & ~p2 and not m2 & ~m1:
                    dropped.add(i)
                    slot[j] = min(slot[j], i)
    if not dropped:
        return covers
    kept = [j for j in range(len(covers)) if j not in dropped]
    if any(slot[j] < j for j in kept):
        kept.sort(key=slot.__getitem__)
    return [covers[j] for j in kept]


def oracle_norm(tableau, bits):
    """_Tableau.norm as it was before it dropped every member another
    member implies: it drops only each until whose target is itself a
    member, a mask target never being one."""
    drop = 0
    for i, f in enumerate(tableau.formulas):
        if bits >> i & 1 and f[0] == "until" and f[2][0] != "mask":
            target = tableau.index.get(f[2])
            if target is not None and bits >> target & 1:
                drop |= 1 << i
    return bits & ~drop


def oracle_set_covers(tableau, bits):
    """_Tableau.set_covers as a flat left fold: the members' covers
    multiplied in key order from the first member on, each product the
    flat dict less its dominated covers, with no prefix kept. Returns the
    covers and the budget their products take, charged as _Tableau.product
    charges; the members' own covers come from the tableau."""
    members = sorted((i for i in range(bits.bit_length()) if bits >> i & 1),
                     key=tableau.keys.__getitem__)
    covers, charge = [(tableau.full, 0, tableau.full, 0)], 0
    for i in members:
        right = tableau.bit_covers(i)
        charge += len(covers) * len(right) if covers and right else 1
        covers = oracle_undominated(flat_product(tableau, covers, right))
        if not covers:
            break
    return covers, charge


# -- automaton emptiness ------------------------------------------------------


def concrete_edges(auto):
    """Every state's (mask, succ, accept) edges, spelled out: the covers of
    its obligation bits cut to its mask, in cover order. States left
    unexpanded by a bound have none."""
    edges = {}
    for st in auto.succs:
        bits, now = auto.states[st]
        edges[st] = [] if st in auto.truncated else [
            (mask & now, succ, acc) for mask, succ, acc in auto.steps[bits]
            if mask & now]
    return edges


def kosaraju_sccs(graph):
    """Strongly connected components of a graph (node -> successors) by
    Kosaraju's two passes: finishing order on the graph, then search of
    the reversed graph in reverse finishing order."""
    order, seen = [], set()
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph[root]))]
        while stack:
            node, it = stack[-1]
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(graph[succ])))
                    break
            else:
                stack.pop()
                order.append(node)
    back = {node: [] for node in graph}
    for node, succs in graph.items():
        for succ in succs:
            back[succ].append(node)
    comps, placed = [], set()
    for root in reversed(order):
        if root in placed:
            continue
        placed.add(root)
        comp, todo = {root}, [root]
        while todo:
            for prev in back[todo.pop()]:
                if prev not in placed:
                    placed.add(prev)
                    comp.add(prev)
                    todo.append(prev)
        comps.append(frozenset(comp))
    return comps


def oracle_accepting_sccs(edges, comps, all_bits):
    """The components with an edge inside them, whose inside edges
    together discharge every condition (OR of the per-edge accept bits)."""
    good = []
    for comp in comps:
        inner = [acc for st in comp for _, succ, acc in edges[st]
                 if succ in comp]
        seen = 0
        for acc in inner:
            seen |= acc
        if inner and seen == all_bits:
            good.append(comp)
    return good


def bfs_order(edges, init):
    """States in the order a breadth-first walk from init meets them,
    taking each state's edges in order, and how many it has met once it
    has taken each state's edges, in that order."""
    order, seen, ends = [init], {init}, []
    for st in order:
        for _, succ, _ in edges[st]:
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
        ends.append(len(order))
    return order, ends


def _edge_path(edges, start, goal, allowed=None):
    """Shortest path of edges from start to the first edge with goal(edge),
    breadth first and each state's edges in order, passing only through
    states in `allowed` when given."""
    parent = {start: None}
    queue = [start]
    for st in queue:
        for edge in edges[st]:
            if goal(edge):
                path = [edge]
                while parent[st] is not None:
                    st, prev = parent[st]
                    path.append(prev)
                return path[::-1]
            succ = edge[1]
            if (allowed is None or succ in allowed) and succ not in parent:
                parent[succ] = (st, edge)
                queue.append(succ)
    return None


def oracle_lasso(world, init, edges, accepting, n_conditions, prefix=None):
    """The lasso the verifier reports, built on spelled-out edges: the
    shortest path into an accepting SCC, or the edges `prefix` when given,
    then, inside it, the shortest path to an edge discharging each
    condition not yet discharged, then back to the entry state. Returns
    (prefix, cycle) as world states."""
    inside = {st: comp for comp in accepting for st in comp}
    if prefix is None:
        prefix = [] if init in inside else \
            _edge_path(edges, init, lambda e: e[1] in inside)
    entry = prefix[-1][1] if prefix else init
    comp = inside[entry]
    cycle, cur = [], entry
    for k in range(n_conditions):
        if any(e[2] >> k & 1 for e in cycle):
            continue
        cycle += _edge_path(edges, cur,
                            lambda e: e[1] in comp and e[2] >> k & 1, comp)
        cur = cycle[-1][1]
    if cur != entry or not cycle:
        cycle += _edge_path(edges, cur, lambda e: e[1] == entry, comp)
    return ([world.min_state(e[0]) for e in prefix],
            [world.min_state(e[0]) for e in cycle])


def oracle_verify(world, premises, phi, bound=None, limit=5_000_000):
    """verify() of the premises as one entailment per conjunct: each
    top-level conjunct of phi in order gets its own automaton of the
    premises and its negation, and the first that fails gives the
    counterexample. The stats sum those automata."""
    conjuncts = list(phi[1]) if phi[0] == "and" else [phi]
    total = {"automaton_states": 0, "budget_used": 0,
             "bounded": bound is not None, "exhausted": True,
             "conjuncts": len(conjuncts)}
    for i, c in enumerate(conjuncts, 1):
        try:
            v = entails(world, premises, c, bound=bound, limit=limit)
        except ResourceLimit as exc:
            raise ResourceLimit(limit, (i, len(conjuncts), c)) from exc
        total["automaton_states"] += v.stats["automaton_states"]
        total["budget_used"] += v.stats["budget_used"]
        total["exhausted"] &= v.stats["exhausted"]
        if not v.holds:
            return Verdict(False, counterexample=v.counterexample,
                           conclusion=c, stats=total)
    return Verdict(True, stats=total)


class OraclePremiseAutomaton:
    """_PremiseAutomaton.refute on the premise automaton `auto`, by walks
    over all of it. Its fair SCCs come from Kosaraju's passes and a second
    pass over their edges. G p fails when an edge from a state that meets
    m leads to a state that reaches a fair SCC; its prefix is then the
    breadth-first search over (state, m taken) that scans every edge
    (oracle_bad_prefix). F p fails when the edges cut to m that init
    reaches hold an accepting SCC, found on that whole cut graph."""

    def __init__(self, world, auto):
        self.world, self.auto = world, auto
        self.edges = concrete_edges(auto)
        graph = {st: [succ for _, succ, _ in out]
                 for st, out in self.edges.items()}
        comps = kosaraju_sccs(graph)
        self.accepting = oracle_accepting_sccs(self.edges, comps,
                                               auto.all_bits)
        self.inside = {st: comp for comp in self.accepting for st in comp}
        # Kosaraju lists each SCC before every SCC it reaches
        self.live = set(self.inside)
        for comp in reversed(comps):
            if any(succ in self.live for st in comp for succ in graph[st]):
                self.live |= comp

    def refute(self, op, m):
        """(prefix, cycle) of the counterexample to G p or F p, where m is
        the mask of not p, or None when the conjunct holds."""
        auto, n = self.auto, len(self.auto.conditions)
        if op == "G":
            if not any(mask & m and succ in self.live
                       for out in self.edges.values()
                       for mask, succ, _ in out):
                return None
            return oracle_lasso(self.world, auto.init, self.edges,
                                self.accepting, n,
                                oracle_bad_prefix(auto, m, self.inside))
        reach, queue, cut = {auto.init}, [auto.init], {}
        for st in queue:
            cut[st] = [(mask & m, succ, acc)
                       for mask, succ, acc in self.edges[st] if mask & m]
            for _, succ, _ in cut[st]:
                if succ not in reach:
                    reach.add(succ)
                    queue.append(succ)
        accepting = oracle_accepting_sccs(cut, kosaraju_sccs(
            {st: [succ for _, succ, _ in out] for st, out in cut.items()}),
            auto.all_bits)
        if not accepting:
            return None
        return oracle_lasso(self.world, auto.init, cut, accepting, n)


def oracle_bad_prefix(auto, m, inside):
    """The edges of a shortest path from init that takes a world state in
    m and then ends on an edge into `inside`: a breadth-first search over
    (state, whether m was taken), numbered 2 * state + taken, that takes
    each state's edges in cover order and, until m is taken, each edge cut
    to m before the whole edge, and keeps every node's parent."""
    states, succs = auto.states, auto.succs
    start = 2 * auto.init
    parent = {start: None}  # node -> (node before, edge mask, edge)
    queue = [start]
    for node in queue:
        taken = node & 1
        now = states[node >> 1][1]
        for edge in succs[node >> 1]:
            mask, succ = edge[0] & now, edge[1]
            if not taken:
                bad = mask & m
                if bad:
                    if succ in inside:
                        return _parent_path(parent, node, bad, edge)
                    if 2 * succ + 1 not in parent:
                        parent[2 * succ + 1] = node, bad, edge
                        queue.append(2 * succ + 1)
                nxt = 2 * succ
            elif succ in inside:
                return _parent_path(parent, node, mask, edge)
            else:
                nxt = 2 * succ + 1
            if nxt not in parent:
                parent[nxt] = node, mask, edge
                queue.append(nxt)
    return None


def _parent_path(parent, node, mask, edge):
    """The edges from the search's start to `node`, then `edge` cut to
    `mask`."""
    path = [(mask, edge[1], edge[2])]
    while parent[node] is not None:
        node, mask, edge = parent[node]
        path.append((mask, edge[1], edge[2]))
    return path[::-1]


# -- lasso evaluation ---------------------------------------------------------


def holds_on_lasso(world, f, prefix, cycle, pos=0):
    """Evaluate a temporal formula on the infinite word prefix + cycle^w."""
    states = list(prefix) + list(cycle)
    total = len(states)
    loop = len(prefix)
    horizon = total + len(cycle)

    def nxt(i):
        return i + 1 if i + 1 < total else loop

    def ev(f, i):
        op = f[0]
        if op == "true":
            return True
        if op == "false":
            return False
        if op == "atom":
            vi, k = world.resolve(f[1])
            return states[i][vi] == k
        if op == "not":
            return not ev(f[1], i)
        if op == "and":
            return all(ev(p, i) for p in f[1])
        if op == "or":
            return any(ev(p, i) for p in f[1])
        if op == "implies":
            return not ev(f[1], i) or ev(f[2], i)
        if op == "next":
            return ev(f[1], nxt(i))
        if op == "until":
            j = i
            for _ in range(horizon + 1):
                if ev(f[2], j):
                    return True
                if not ev(f[1], j):
                    return False
                j = nxt(j)
            return False
        if op == "eventually":
            return ev(("until", ("true",), f[1]), i)
        if op == "always":
            j = i
            for _ in range(horizon + 1):
                if not ev(f[1], j):
                    return False
                j = nxt(j)
            return True
        raise ValueError("cannot evaluate %r" % (f,))

    return ev(f, pos)


def all_lassos(states, max_len):
    """Every (prefix, cycle) over the given states with a non-empty cycle
    and at most max_len states in all."""
    for total in range(1, max_len + 1):
        for word in itertools.product(states, repeat=total):
            for split in range(total):
                yield list(word[:split]), list(word[split:])


def seeded(seed):
    return random.Random(seed)

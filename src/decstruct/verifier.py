"""LTL entailment over finite-domain worlds, and the checks built on it.

The checker compiles `premises and not conclusion` to negation normal
form, collapses every maximal propositional subformula into a bitmask
over world states, and unrolls the rest into a tableau. Each remaining
obligation is interned to a bit, so an automaton state is a pair of ints:
the bits of its outstanding obligations and the mask of states it allows.
Edges carry a state mask plus bits for the until-formulas whose discharge
was postponed. A counterexample is then a lasso through an SCC that
postpones no until forever.

The build numbers each state with a small int when it first meets it,
and the SCC, acceptance and lasso searches work on those ids alone.
Many edges of a state share a successor, so the automaton keeps each
state's distinct successors, with the union of their edges' masks and
accept bits, and the positions of their covers in cover order. The SCC
search needs only those, and acceptance reads a group's own edges only
when its union could add bits. Concrete edges are cut from the covers
on demand, where the lasso search needs them, and ordered by position.
Each distinct obligation set is normalized once per tableau.

Every product and merge of covers drops each cover that another one
dominates: one with the same successor, a state mask that holds its
own and no more postponed untils (see _Tableau). It does so in the dict
that gathers the product, with no second pass over the covers. The
automaton keeps its language, states and SCCs, and in every case tested
its state order and lassos; the corpus products take half the cover
pairs they took.
"""

from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext

from .logic import (LogicError, MissingSpec, _build_psi, _return_condition,
                    build_psi, compile_nnf, f_and, f_not, fold, format_formula,
                    ground, selection_conditions, validate_actions)
from .modules import NotAModule, is_module
from .structures import DecisionStructure

# the exploration budget of entails and the checks built on it
DEFAULT_LIMIT = 5_000_000


class ResourceLimit(RuntimeError):
    """The exploration budget ran out. `conjunct` is (index from 1, count,
    formula) when verify() was checking one conjunct of a specification."""

    def __init__(self, limit, conjunct=None):
        self.limit = limit
        self.conjunct = conjunct
        text = "exploration budget exceeded (%d)" % limit
        if conjunct is not None:
            i, n, f = conjunct
            text += " on conjunct %d of %d: %s" % (i, n, format_formula(f))
        super().__init__(text)


class Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise ResourceLimit(self.limit)


class LassoTrace:
    """World states along a counterexample: a finite prefix, then a cycle
    repeated forever."""

    def __init__(self, prefix, cycle):
        self.prefix = list(prefix)
        self.cycle = list(cycle)

    def states(self):
        return self.prefix + self.cycle

    def pairs(self):
        """All adjacent state pairs, including the wrap around the cycle."""
        seq = self.states()
        out = list(zip(seq, seq[1:]))
        if self.cycle:
            out.append((self.cycle[-1], self.cycle[0]))
        return out

    def render(self, world):
        lines = []
        for i, st in enumerate(self.prefix):
            lines.append("%4d  %s" % (i, world.render_state(st)))
        lines.append("  loop:")
        for j, st in enumerate(self.cycle):
            lines.append("%4d  %s" % (len(self.prefix) + j,
                                      world.render_state(st)))
        return "\n".join(lines)

    def to_dict(self, world):
        return {"prefix": [world.state_dict(s) for s in self.prefix],
                "cycle": [world.state_dict(s) for s in self.cycle]}


class Verdict:
    def __init__(self, holds, counterexample=None, conclusion=None,
                 stats=None):
        self.holds = holds
        self.counterexample = counterexample
        self.conclusion = conclusion
        self.stats = stats or {}

    def __bool__(self):
        return self.holds

    def __repr__(self):
        return "Verdict(holds=%r)" % self.holds


# -- tableau automaton -------------------------------------------------------


def _digits(n):
    """repr(n) of an int of any size: the int-string limit of Python stops
    repr above 4,300 digits, a mask of about 14,300 world states."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        return str(Decimal(n))


def _key(g, parts):
    """A fold rule: the key of g from the keys of its parts. Keys sort as
    the reprs do, and share their parts' keys, so they take memory linear
    in the formula where reprs take quadratic on a deep one. Reprs with
    different operators compare as the names do, as no name is a prefix
    of another; reprs with one operator compare as their parts do, left
    to right, as no repr is a prefix of another; and masks compare as
    their digits do. Junctions have two parts or more."""
    op = g[0]
    if op == "mask":
        return op, _digits(g[1])
    if op == "and" or op == "or":
        return op, tuple(parts)
    return (op, *parts)


def _covers(out, side):
    """The covers that product or merge gathered, less the dominated ones
    (see _Tableau). `out` maps (next bits, next mask) to [state mask,
    pending] of the first cover with that pair, and `side` maps (next
    bits, next mask, pending) to [state mask, slot] of each later one,
    in order of slot."""
    settled = not side or _settle(out, side)
    covers = [(m, b, n, p) for (b, n), (m, p) in out.items()]
    if settled:
        return covers
    for (b, n, p), (m, pos) in side.items():
        covers.insert(pos, (m, b, n, p))
    return _undominated(covers)


def _settle(out, side):
    """The common case: each (next bits, next mask) has at most one later
    cover, and one cover of each such pair dominates the other. The
    dominating cover then stays in `out`, in the first one's slot, and
    this returns True. Otherwise it changes nothing and returns False."""
    if len({(b, n) for b, n, _ in side}) < len(side):
        return False
    wins = []
    for (b, n, p2), (m2, _) in side.items():
        first = out[b, n]
        m1, p1 = first
        if p2 & ~p1 or m1 & ~m2:  # the later cover does not dominate
            if p1 & ~p2 or m2 & ~m1:  # nor does the first
                return False
        else:
            wins.append((first, m2, p2))
    for first, m2, p2 in wins:
        first[:] = m2, p2
    return True


def _undominated(covers):
    """`covers` less the dominated ones (see _Tableau), in their order;
    but a cover that stays takes the earliest slot among its own and
    those of the covers it dominates."""
    groups = {}
    for i, (_, b, n, _) in enumerate(covers):
        groups.setdefault((b, n), []).append(i)
    slot = list(range(len(covers)))
    dropped = set()
    for group in groups.values():
        for i in group:
            m2, _, _, p2 = covers[i]
            for j in group:
                m1, _, _, p1 = covers[j]
                if j != i and not p1 & ~p2 and not m2 & ~m1:
                    dropped.add(i)
                    slot[j] = min(slot[j], i)
    kept = [j for j in range(len(covers)) if j not in dropped]
    return [covers[j] for j in sorted(kept, key=slot.__getitem__)]


class _Tableau:
    """Turns obligation sets into covers.

    Every obligation is interned to a bit index, so a set of them is an
    int; masks get an index only so that their covers are memoized. A
    cover is (state mask, next bits, next mask, pending): the states it
    allows now, the obligations and the mask it leaves for the next step,
    and the untils whose discharge it postpones, as bits over
    `conditions`. A next mask equal to the full mask stands for no mask
    obligation. Covers are memoized per formula; an obligation set's
    covers are the pruned product of its members' in repr order, and the
    untils are numbered in repr order. One walk over phi gives every
    subformula a key that sorts as its repr (_key), with mask digits
    beyond Python's int-string limit.

    Pruning drops dominated covers in every product and merge: c2 =
    (m2, b, n, p2) goes when some c1 = (m1, b, n, p1) has m2 within m1
    and p1 within p2. Wherever c2 is an edge, c1 is one to the same
    successor that discharges at least as much, so the successors, the
    accepting SCCs and the language stay; and c1 x d dominates c2 x d
    for any factor d, so partial products may be pruned too. c1 moves up
    to the earliest slot of the covers it dominates. With that, states
    are queued and lasso edges found as without pruning on the corpus and
    on every random question tried, where keeping c1 in its own slot
    moved the state order of a few; the test suite compares both builds.
    No single order can promise it for every state mask.

    The dict that gathers a product holds the first cover of each (next
    bits, next mask), and sets each later one with other pending bits
    aside with its slot, the number of distinct covers before it. Mostly
    a pair has at most one later cover and one of the two dominates the
    other: the one that stays then takes the first's slot (_settle), and
    no cover is looked at again. Otherwise the covers are laid out in
    their slots and filtered by _undominated."""

    def __init__(self, world, budget, phi):
        self.full = world.full_mask
        self.budget = budget
        # id of each subformula object of phi -> its _key; phi keeps them
        # alive, and every formula interned is one of them
        self.key = {}
        untils = set()

        def rule(g, parts):
            if g[0] == "until":
                untils.add(g)
            key = self.key[id(g)] = _key(g, parts)
            return key

        fold(phi, rule)
        self.conditions = sorted(untils, key=lambda g: self.key[id(g)])
        self.cond_bit = {c: 1 << i for i, c in enumerate(self.conditions)}
        self.index = {}      # formula -> bit index
        self.formulas = []   # bit index -> formula
        self.keys = []       # bit index -> _key, the order of set_covers
        self.memo = []       # bit index -> covers, once computed
        self.targets = []    # (until bit, target bit), non-mask targets
        # bits -> norm(bits). intern() adds an until's pair to `targets`
        # when it creates the until's bit, so no bits value met before
        # then holds that bit, and no entry ever goes stale.
        self.normed = {}

    def intern(self, f):
        i = self.index.get(f)
        if i is None:
            i = self.index[f] = len(self.formulas)
            self.formulas.append(f)
            self.keys.append(self.key[id(f)])
            self.memo.append(None)
            if f[0] == "until" and f[2][0] != "mask":
                self.targets.append((1 << i, 1 << self.intern(f[2])))
        return i

    def norm(self, bits):
        """Drop any until whose target is itself an obligation in the set,
        since the target already entails the until one step from now."""
        drop = 0
        for u, t in self.targets:
            if bits & u and bits & t:
                drop |= u
        return bits & ~drop

    def merge(self, covers):
        normed = self.normed
        out, side = {}, {}
        for mask, bits, nmask, pending in covers:
            if nmask:
                nb = normed.get(bits)
                if nb is None:
                    nb = normed[bits] = self.norm(bits)
                key = (nb, nmask)
                got = out.get(key)
                if got is None:
                    out[key] = [mask, pending]
                elif got[1] == pending:
                    got[0] |= mask
                else:
                    key += (pending,)
                    got = side.get(key)
                    if got is None:
                        side[key] = [mask, len(out) + len(side)]
                    else:
                        got[0] |= mask
        return _covers(out, side)

    def product(self, left, right):
        self.budget.spend(len(left) * len(right) if left and right else 1)
        normed, norm = self.normed, self.norm
        out, side = {}, {}
        get = out.get
        for m1, b1, n1, p1 in left:
            for m2, b2, n2, p2 in right:
                m = m1 & m2
                nmask = n1 & n2
                if m and nmask:
                    bits = b1 | b2
                    nb = normed.get(bits)
                    if nb is None:
                        nb = normed[bits] = norm(bits)
                    key = (nb, nmask)
                    p = p1 | p2
                    got = get(key)
                    if got is None:
                        out[key] = [m, p]
                    elif got[1] == p:
                        got[0] |= m
                    else:
                        key += (p,)
                        got = side.get(key)
                        if got is None:
                            side[key] = [m, len(out) + len(side)]
                        else:
                            got[0] |= m
        return _covers(out, side)

    def formula_covers(self, f):
        return self.bit_covers(self.intern(f))

    def bit_covers(self, i):
        got = self.memo[i]
        if got is not None:
            return got
        self.budget.spend()
        full = self.full
        f = self.formulas[i]
        op = f[0]
        if op == "mask":
            covers = [(f[1], 0, full, 0)] if f[1] else []
        elif op == "and":
            covers = [(full, 0, full, 0)]
            for p in f[1]:
                covers = self.product(covers, self.formula_covers(p))
        elif op == "or":
            covers = []
            for p in f[1]:
                covers.extend(self.formula_covers(p))
            covers = self.merge(covers)
        elif op == "next":
            # An absurd next mask is dropped by merge or product, which
            # also charge the budget for it.
            g = f[1]
            if g[0] == "mask":
                covers = [(full, 0, g[1], 0)]
            else:
                covers = [(full, 1 << self.intern(g), full, 0)]
        elif op == "until":
            covers = list(self.formula_covers(f[2]))
            bit, cond = 1 << i, self.cond_bit[f]
            covers.extend((m, b | bit, n, p | cond)
                          for m, b, n, p in self.formula_covers(f[1]))
            covers = self.merge(covers)
        elif op == "release":
            now = self.product(self.formula_covers(f[2]),
                               self.formula_covers(f[1]))
            bit = 1 << i
            later = [(m, b | bit, n, p)
                     for m, b, n, p in self.formula_covers(f[2])]
            covers = self.merge(now + later)
        else:
            raise LogicError("unexpected obligation %r" % (f,))
        self.memo[i] = covers
        return covers

    def set_covers(self, bits):
        """Covers of a conjunction of non-mask obligations."""
        members = [i for i in range(bits.bit_length()) if bits >> i & 1]
        covers = [(self.full, 0, self.full, 0)]
        for i in sorted(members, key=self.keys.__getitem__):
            covers = self.product(covers, self.bit_covers(i))
            if not covers:
                break
        return covers


class _Automaton:
    def __init__(self, states, succs, steps, conditions, truncated):
        # State ids are small ints, given in the order _build first meets
        # each state; states[id] is (obligation bits, mask) as in _Tableau.
        # The init state is id 0.
        self.init = 0
        self.states = states
        # obligation bits -> covers (mask, succ id, accept-bitmask) in
        # cover order. Once expanded, a state's edges are the covers of
        # its bits cut to its mask, in the same order. Bit i of the accept
        # bitmask is set when the cover discharges conditions[i], i.e. the
        # until was not postponed across this step.
        self.steps = steps
        # id of each reached state, in queue order -> its distinct
        # successors: the groups of steps[bits], (succ id, mask union,
        # accept union, positions of the group's covers in steps[bits]),
        # whose mask union meets the state's mask. Concrete edges are cut
        # from a group's covers only where acceptance or the lasso needs
        # them, and a cover's position is its place in cover order.
        self.succs = succs
        self.conditions = conditions
        self.all_bits = (1 << len(conditions)) - 1
        self.truncated = truncated  # ids seen but not expanded (bound)


def _group(covers):
    """Covers grouped by successor in first-appearance order, as (succ,
    mask union, accept union, the positions of the group's covers)."""
    by_succ = {}
    for pos, (mask, succ, acc) in enumerate(covers):
        g = by_succ.get(succ)
        if g is None:
            by_succ[succ] = [mask, acc, [pos]]
        else:
            g[0] |= mask
            g[1] |= acc
            g[2].append(pos)
    return [(succ, m, a, p) for succ, (m, a, p) in by_succ.items()]


def _build(world, phi, budget, bound=None):
    tableau = _Tableau(world, budget, phi)
    conditions = tableau.conditions
    if phi[0] != "mask":
        init = (1 << tableau.intern(phi), world.full_mask)
    else:
        # -1 filters nothing, like the full mask, but keeps the init state
        # of a valid phi apart from the empty state it steps to.
        init = (0, -1 if phi[1] == world.full_mask else phi[1])
    all_bits = (1 << len(conditions)) - 1
    states = [init]  # id -> (obligation bits, mask)
    ids = {init: 0}
    steps = {}    # obligation bits -> covers before the state's mask filter
    grouped = {}  # obligation bits -> _group(steps[bits])
    succs = {}
    depth = {0: 0}
    queue = [0]
    truncated = set()
    qi = 0
    while qi < len(queue):
        state = queue[qi]
        qi += 1
        if bound is not None and depth[state] >= bound:
            truncated.add(state)
            succs[state] = []
            continue
        budget.spend()
        bits, now = states[state]
        covers = steps.get(bits)
        if covers is None:
            covers = steps[bits] = []
            for m, b, n, p in tableau.set_covers(bits):
                succ = ids.get((b, n))
                if succ is None:
                    succ = ids[b, n] = len(states)
                    states.append((b, n))
                covers.append((m, succ, all_bits ^ p))
            grouped[bits] = _group(covers)
        outs = succs[state] = [g for g in grouped[bits] if g[1] & now]
        # Queue new states in the order of their first edges, as a walk
        # over the edges does: the queue order fixes the order in which
        # obligations are interned, and so the bits that name each state.
        fresh = sorted(next(i for i in pos if covers[i][0] & now)
                       for succ, _, _, pos in outs if succ not in depth)
        d = depth[state] + 1
        for i in fresh:
            succ = covers[i][1]
            depth[succ] = d
            queue.append(succ)
    return _Automaton(states, succs, steps, conditions, truncated)


def _sccs(auto):
    """Iterative Tarjan over the successor lists; returns a list of state
    id sets."""
    succs = auto.succs
    n = len(auto.states)
    index, low, on = [-1] * n, [0] * n, [False] * n
    stack, out = [], []
    counter = 0
    for root in succs:
        if index[root] >= 0:
            continue
        work = [(root, iter(succs[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for succ, _, _, _ in it:
                if index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on[succ] = True
                    work.append((succ, iter(succs[succ])))
                    advanced = True
                    break
                if on[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                comp = set()
                while True:
                    s = stack.pop()
                    on[s] = False
                    comp.add(s)
                    if s == node:
                        break
                out.append(comp)
    return out


def _accepting_sccs(auto):
    """SCCs with an internal edge that discharge every condition. A
    group's covers are read only when its accept union could add bits."""
    good = []
    all_bits = auto.all_bits
    states, steps, succs = auto.states, auto.steps, auto.succs
    for comp in _sccs(auto):
        seen = 0
        internal = False
        for st in comp:
            for succ, _, acc, pos in succs[st]:
                if succ in comp:
                    internal = True
                    if acc & ~seen:
                        bits, now = states[st]
                        covers = steps[bits]
                        for i in pos:
                            mask, _, a = covers[i]
                            if mask & now:
                                seen |= a
            if internal and seen == all_bits:
                break
        if internal and seen == all_bits:
            good.append(comp)
    return good


def _bfs_edges(auto, start, goal, allowed=None):
    """Shortest edge path from `start` to the first edge (mask, succ,
    accept) with goal(succ, accept), taking states breadth first and each
    state's edges in cover order, and passing only through states in
    `allowed` when given; returns the path as a list of edges or None.

    The search walks successor groups, so goal(succ, accept union) must
    hold for every group that has a goal edge. Edges are cut from a
    group's covers only for goal candidates and new states, and are
    ordered by cover position."""
    states, steps, succs = auto.states, auto.steps, auto.succs
    parent = {start: None}
    queue = [start]
    qi = 0
    while qi < len(queue):
        st = queue[qi]
        qi += 1
        outs = succs[st]
        if not outs:
            continue
        bits, now = states[st]
        covers = steps[bits]
        hits, fresh = [], []
        for succ, _, acc, pos in outs:
            if goal(succ, acc):
                for i in pos:
                    if covers[i][0] & now and goal(succ, covers[i][2]):
                        hits.append(i)
                        break
            if succ not in parent and (allowed is None or succ in allowed):
                fresh.append(next(i for i in pos if covers[i][0] & now))
        if hits:
            mask, succ, acc = covers[min(hits)]
            path = [(mask & now, succ, acc)]
            back = st
            while parent[back] is not None:
                back, edge = parent[back]
                path.append(edge)
            return path[::-1]
        fresh.sort()
        for i in fresh:
            mask, succ, acc = covers[i]
            parent[succ] = (st, (mask & now, succ, acc))
            queue.append(succ)
    return None


def _extract_lasso(world, auto, sccs):
    inside = {}
    for comp in sccs:
        for st in comp:
            inside[st] = comp

    if auto.init in inside:
        prefix_edges = []
        entry = auto.init
    else:
        prefix_edges = _bfs_edges(auto, auto.init,
                                  lambda succ, acc: succ in inside)
        entry = prefix_edges[-1][1]
    comp = inside[entry]

    cycle_edges = []
    cur = entry
    for k in range(len(auto.conditions)):
        bit = 1 << k
        if any(e[2] & bit for e in cycle_edges):
            continue
        seg = _bfs_edges(auto, cur,
                         lambda succ, acc: succ in comp and acc & bit,
                         allowed=comp)
        cycle_edges.extend(seg)
        cur = seg[-1][1]
    if cur != entry or not cycle_edges:
        seg = _bfs_edges(auto, cur, lambda succ, acc: succ == entry,
                         allowed=comp)
        cycle_edges.extend(seg)

    prefix = [world.min_state(e[0]) for e in prefix_edges]
    cycle = [world.min_state(e[0]) for e in cycle_edges]
    return LassoTrace(prefix, cycle)


def entails(world, premises, conclusion, bound=None, limit=DEFAULT_LIMIT):
    """Does every world run satisfying the premises satisfy the conclusion?

    Failure comes with a lasso counterexample. With `bound` set, only
    obligation states within that many steps are explored; a pass is then
    conclusive only when the stats report the exploration as exhausted.
    """
    if bound is not None and bound < 0:
        raise LogicError("bound must be 0 or more, got %r" % (bound,))
    phi = f_and(list(premises) + [f_not(conclusion)])
    budget = Budget(limit)
    compiled = compile_nnf(world, phi)
    auto = _build(world, compiled, budget, bound=bound)
    sccs = _accepting_sccs(auto)
    stats = {
        "automaton_states": len(auto.succs),
        "budget_used": budget.used,
        "bounded": bound is not None,
        "exhausted": not auto.truncated,
    }
    if not sccs:
        return Verdict(True, conclusion=conclusion, stats=stats)
    trace = _extract_lasso(world, auto, sccs)
    return Verdict(False, counterexample=trace, conclusion=conclusion,
                   stats=stats)


# -- structure-level checks ---------------------------------------------------


def _premises(z, world, specs):
    rules = f_and([f for _, f in world.rules])
    psi = ground(build_psi(z, specs), specs)
    return [world.init, ("always", rules), ("always", psi)]


def verify(z, world, specs, phi, bound=None, limit=DEFAULT_LIMIT):
    """Check that every run of the structure in the world satisfies phi.

    A top-level conjunction is checked one conjunct at a time, in order,
    and the first failing conjunct provides the counterexample.
    """
    validate_actions(world, specs)
    premises = _premises(z, world, specs)
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


class ReplacementReport:
    def __init__(self, ok, returns, behavior, notes=()):
        self.ok = ok
        self.returns = returns  # value -> dict(old, new, equal, required_zero)
        self.behavior = behavior
        self.notes = list(notes)

    def __bool__(self):
        return self.ok


def check_action_replacement(world, specs, old, new, limit=DEFAULT_LIMIT):
    """May `new` stand in for `old`? This is the module check of one node
    for another, with every value either action returns visible: same
    return conditions value by value, and the new model must guarantee
    the old one under the world rules."""
    validate_actions(world, specs)
    for name in (old, new):
        if name not in specs:
            raise MissingSpec(name)
    visible = set(specs[old].returns) | set(specs[new].returns)
    return _check_replacement(DecisionStructure([(old, old)], []),
                              DecisionStructure([(new, new)], []),
                              visible, world, specs, limit)


def check_module_replacement(z, members, q, world, specs, limit=DEFAULT_LIMIT):
    """May the structure q stand in for the module `members` of z?

    The module and its stand-in must return every value leaving the
    module under equal conditions and nothing else, and one tick of q
    must guarantee one tick of the module under the world rules. When
    the module has no outgoing arcs its returns are invisible to z, so
    only the behavioral check applies.
    """
    validate_actions(world, specs)
    members = frozenset(str(m) for m in members)
    if not is_module(z, members):
        raise NotAModule(members)
    visible = {r for t, h, r in z.arcs if t in members and h not in members}
    report = _check_replacement(z.induced(members), q, visible, world, specs,
                                limit)
    if not visible:
        report.notes.append("module has no outgoing arcs; return conditions "
                            "are invisible and were not compared")
    return report


def _check_replacement(k, q, visible, world, specs, limit):
    """May q stand in for k, whose return values in `visible` are seen?
    See check_module_replacement, which this is with k a module of z."""
    sel_k, sel_q = selection_conditions(k), selection_conditions(q)
    returns = {}
    ok = True
    if visible:
        candidates = visible | set(k.labels()) | set(q.labels())
        for part in (k, q):
            for _, a in part.nodes:
                if a in specs:
                    candidates |= set(specs[a].returns)
        for v in sorted(candidates):
            mo = world.mask(ground(_return_condition(k, sel_k, v), specs))
            mn = world.mask(ground(_return_condition(q, sel_q, v), specs))
            hidden = v not in visible
            returns[v] = {"old": mo, "new": mn, "equal": mo == mn,
                          "required_zero": hidden}
            ok &= (mo == mn == 0) if hidden else (mo == mn)
    rules = f_and([f for _, f in world.rules])
    psi_k = ground(_build_psi(k, sel_k, specs), specs)
    psi_q = ground(_build_psi(q, sel_q, specs), specs)
    behavior = entails(world, [("always", rules), psi_q], psi_k, limit=limit)
    ok &= behavior.holds
    return ReplacementReport(ok, returns, behavior)


def export_obligation(z, world, specs, phi):
    """The proof obligation verify() discharges, as readable text."""
    validate_actions(world, specs)
    psi = ground(build_psi(z, specs), specs)
    rules = [(name, f) for name, f in world.rules]
    lines = ["obligation v1"]
    lines.append("premise init: %s" % format_formula(world.init))
    for name, f in rules:
        lines.append("premise always (%s): %s" % (name, format_formula(f)))
    lines.append("premise always (step): %s" % format_formula(psi))
    conjuncts = list(phi[1]) if phi[0] == "and" else [phi]
    for c in conjuncts:
        lines.append("conclude: %s" % format_formula(c))
    return "\n".join(lines) + "\n"

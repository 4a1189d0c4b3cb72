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
and the SCC, acceptance and lasso searches work on those ids alone. A
state's edges are the covers of its obligation set, in cover order, as
(mask, successor id, accept bits), less those whose mask misses the
state's own; they are the very tuples the obligation set keeps, so a
state costs one list. Each distinct obligation set is normalized once,
and gets its covers once, per tableau. Normalizing drops each member
that another member implies, by a syntactic relation built once per
formula (see _Tableau; Somenzi & Bloem, CAV 2000). A set is the
conjunction of its members, so it stays the same formula: the verdicts
stay, and on the corpus the automata too; only fewer products run. The
covers of a set are the product of its members' covers in key order, and
the tableau keeps the product of every member prefix that a second set
asks for, so the sets that share that prefix start from it.

Products and unions of covers share one gathering loop, a union being
the product with the unit cover, and it drops each cover that another
dominates: one with the same successor, a state mask that holds its own
and no more postponed untils (see _Tableau). It does so in the dict that
gathers the covers, with no second pass over them. The automaton keeps
its language, states and SCCs, and in every case tested its state order
and lassos; the corpus products take half the cover pairs they took.

verify() builds one automaton P of a structure's premises, at its first
conjunct G p or F p with p propositional, and decides every such conjunct
on P's fair SCCs; the SCC walk finds which SCCs are fair as it goes, with
no second pass over their edges (_sccs). G p fails when a path of P takes
a world state outside p and then enters a fair SCC: a bad prefix of a
safety property (Kupferman & Vardi, FMSD 2001). The build meets states
breadth first, so the children of each state in that search's tree are a
run of ids, and the search for a bad prefix queues them whole at a state
that allows no world state outside p, looking at none of its edges
(_bad_prefix). F p fails when P's edges cut to the states outside p hold
a fair SCC that they reach from init (fair-cycle detection, Emerson &
Lei, LICS 1986). Such an SCC lies in a fair SCC of P, so the cut edges
inside P's fair SCCs are searched first: when they hold no accepting SCC,
F p holds and nothing else is walked. Any other conjunct, and every
conjunct under a bound, gets the automaton of the premises and its
negation (entails). The stats count each automaton built once, so P
counts once for all the conjuncts it decides.
"""

from bisect import bisect_right
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from itertools import compress, islice, repeat
from operator import and_, itemgetter

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


def _members(bits):
    """The indices of the set bits of `bits`, lowest first. Each step
    takes the lowest set bit, so a set costs its members, not its
    highest index."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _covers(out, side):
    """The covers that _Tableau.gather collected, less the dominated ones
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
    int; masks get an index only so that their covers are memoized and
    their rows of `implied` (below) are built. A
    cover is (state mask, next bits, next mask, pending): the states it
    allows now, the obligations and the mask it leaves for the next step,
    and the untils whose discharge it postpones, as bits over
    `conditions`. A next mask equal to the full mask stands for no mask
    obligation. Covers are memoized per formula; an obligation set's
    covers are the pruned product of its members' in repr order, and the
    untils are numbered in repr order. One walk over phi gives every
    subformula a key that sorts as its repr (_key), with mask digits
    beyond Python's int-string limit.

    norm drops each member of a set that another member implies. Row i
    of `implied` holds the bits of the formulas that hold wherever
    formula i holds, its own bit too: a conjunction implies what its
    parts imply; a disjunction what every disjunct implies; a U t what
    both a and t imply, since t holds now or a does; a R t what t
    implies, since t holds now; and t, with all that implies t, implies
    a U t. The relation is transitive, and it has no cycle: a U t leaves
    its own target out of its row, for when a implies t the until is t
    itself, and it is the until that goes. So the members that no member
    implies stay, and they imply the rest, which leaves the set the same
    formula.

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

    One loop, gather, collects the covers of every product and merge; a
    merge is the product with the unit cover, and spends no budget. Its
    dict holds the first cover of each (next bits, next mask), and sets
    each later one with other pending bits aside with its slot, the number
    of distinct covers before it. Mostly a pair has at most one later
    cover and one of the two dominates the other: the one that stays then
    takes the first's slot (_settle), and no cover is looked at again.
    Otherwise the covers are laid out in their slots and filtered by
    _undominated.

    set_covers multiplies a set's members in key order, so sets share the
    partial products of their common key-order prefixes. `prefixes` maps
    the bits of a member prefix to its product and the budget that product
    took from the first member on; a set starts from its longest prefix
    there and spends that budget again, so the budget reads as if every
    product ran. A prefix is kept the second time a set asks for it, so a
    prefix that one set alone has costs no memory."""

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
        # id of a subformula object of phi -> its bit index, so that a
        # formula's tuple, which Python hashes anew each time, is hashed
        # once per object; `index` gives equal objects one bit
        self.by_id = {}
        self.formulas = []   # bit index -> formula
        self.keys = []       # bit index -> _key, the order of set_covers
        self.memo = []       # bit index -> covers, once computed
        # bit index -> the bits of the formulas it implies, its own too
        self.implied = []
        # bits -> norm(bits). A row of `implied` only ever gains the bit of
        # a formula interned then, which no bits value met before holds,
        # so no entry ever goes stale.
        self.normed = {}
        self.prefixes = {}   # prefix bits -> (covers, budget it took)
        self.asked = set()   # prefix bits asked for once, not yet kept

    def intern(self, f):
        """The bit index of f. Each subformula of f without one is interned
        first, parts before wholes, so that its row of `implied` is built
        from its parts' rows."""
        i = self.by_id.get(id(f))
        if i is None:
            i = fold(f, self._add)
        return i

    def _add(self, f, parts):
        """Intern f, whose parts have the bit indices `parts`, and set its
        row of `implied`; an until also joins the row of every formula
        that implies its target."""
        i = self.by_id.get(id(f))
        if i is not None:
            return i
        i = self.by_id[id(f)] = self.index.setdefault(f, len(self.formulas))
        if i < len(self.formulas):  # an equal formula has its bit
            return i
        self.formulas.append(f)
        self.keys.append(self.key[id(f)])
        self.memo.append(None)
        implied, bit, op = self.implied, 1 << i, f[0]
        row = bit
        if op == "and":
            for p in parts:
                row |= implied[p]
        elif op == "or":
            both = implied[parts[0]]
            for p in parts[1:]:
                both &= implied[p]
            row |= both
        elif op == "release":
            row |= implied[parts[1]]
        elif op == "until":
            # t implies a U t, and so does all that implies t. When a
            # implies t, a U t is t, and it is the until that goes.
            a, t = parts
            target = 1 << t
            row |= implied[a] & implied[t] & ~target
            for j, got in enumerate(implied):
                if got & target:
                    implied[j] = got | bit
        implied.append(row)
        return i

    def norm(self, bits):
        """Drop each member that another member implies (see _Tableau):
        the set is the conjunction of its members, and what is dropped is
        implied by a member that stays, so it stays the same formula."""
        implied = self.implied
        drop = 0
        for i in _members(bits):
            drop |= implied[i] ^ 1 << i
        return bits & ~drop

    def merge(self, covers):
        return self.gather(covers, [(self.full, 0, self.full, 0)])

    def product(self, left, right):
        self.budget.spend(len(left) * len(right) if left and right else 1)
        return self.gather(left, right)

    def gather(self, left, right):
        """The product of `left` and `right`, charging nothing."""
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
            # An absurd next mask is dropped by the merge or product that
            # takes this cover; a product charges the budget for it, and
            # a merge does not.
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
        """Covers of a conjunction of non-mask obligations, multiplied on
        from the longest kept prefix of its members in key order."""
        members = sorted(_members(bits), key=self.keys.__getitem__)
        heads, head = [], 0  # heads[j]: the bits of members[:j + 1]
        for i in members:
            head |= 1 << i
            heads.append(head)
        budget, kept, asked = self.budget, self.prefixes, self.asked
        covers, spent, start = [(self.full, 0, self.full, 0)], 0, 0
        for j in range(len(members), 0, -1):
            if heads[j - 1] in kept:
                covers, spent = kept[heads[j - 1]]
                budget.spend(spent)
                start = j
                break
        for j in range(start, len(members)):
            if not covers:
                break
            right = self.bit_covers(members[j])
            used = budget.used
            covers = self.product(covers, right)
            spent += budget.used - used
            if heads[j] in asked:
                kept[heads[j]] = covers, spent
            asked.add(heads[j])
        return covers


class _Automaton:
    def __init__(self, states, succs, steps, conditions, truncated,
                 ends=None):
        # State ids are small ints, given in the order _build queues each
        # state, so only reached states have one; states[id] is
        # (obligation bits, mask) as in _Tableau. The init state is id 0.
        self.init = 0
        self.states = states
        # obligation bits -> covers (mask, succ id, accept-bitmask) in
        # cover order; a successor that no edge reached is named by its
        # (obligation bits, mask) instead of an id. Once expanded, a
        # state's edges are the covers of its bits cut to its mask, in the
        # same order. Bit i of the accept bitmask is set when the cover
        # discharges conditions[i], i.e. the until was not postponed
        # across this step.
        self.steps = steps
        # id of each reached state, in queue order -> its edges: the covers
        # of steps[bits] whose mask meets the state's mask, in cover order,
        # selected through the state mask's row of mask ids (see _build).
        # A successor reached through covers with different accept bits
        # has one edge for each. An edge's mask is its cover's, not yet
        # cut to the state's mask.
        self.succs = succs
        self.conditions = conditions
        self.all_bits = (1 << len(conditions)) - 1
        self.truncated = truncated  # ids seen but not expanded (bound)
        # id -> the number of ids given once _build expanded it; None for a
        # graph derived from a build. Ids are the breadth-first order of
        # succs from init, so the children of state u in that search's tree
        # are the ids from ends[u - 1] (1 for init) to ends[u] - 1.
        self.ends = ends


def _build(world, phi, budget, bound=None):
    """The automaton of phi, its states numbered breadth first from init.

    A state's edges are the covers of its set whose mask meets its own, in
    cover order. Each distinct cover mask gets an id; a set asked for again
    keeps its covers' ids (an itemgetter), and a state mask met again a row
    of bytes, 1 at each id whose mask meets it, so each (state mask, cover
    mask) pair is tested once. A cover keeps its mask when an edge names
    its successor, so compress() by the row at the covers' ids keeps just
    the covers the per-cover test keeps, in order. A set or mask met the
    first time takes that test and pays for no pick or row: like _Tableau's
    kept prefixes, they are kept at the second ask."""
    tableau = _Tableau(world, budget, phi)
    conditions = tableau.conditions
    if phi[0] != "mask":
        init = (1 << tableau.intern(phi), world.full_mask)
    else:
        # -1 filters nothing, like the full mask, but keeps the init state
        # of a valid phi apart from the empty state it steps to.
        init = (0, -1 if phi[1] == world.full_mask else phi[1])
    all_bits = (1 << len(conditions)) - 1
    states = [init]  # id -> (obligation bits, mask); ids in queue order
    ids = {init: 0}
    depth = [0]
    ends = []
    steps = {}  # obligation bits -> covers before the state's mask filter
    # obligation bits -> (the union of the masks, the slots) of its covers
    # that no edge has taken yet
    untaken = {}
    succs = {}
    mask_ids = {0: 0}  # cover mask -> its id; 0, which meets nothing, first
    picks = {}  # obligation bits -> itemgetter of its covers' mask ids
    rows = {}  # state mask -> bytes, 1 at each mask id that meets it
    truncated = set()
    state = 0
    while state < len(states):
        bits, now = states[state]
        if bound is not None and depth[state] >= bound:
            truncated.add(state)
            succs[state] = []
            ends.append(len(states))
            state += 1
            continue
        budget.spend()
        covers = steps.get(bits)
        pick = picks.get(bits)
        if covers is None:
            covers = steps[bits] = [(m, (b, n), all_bits ^ p)
                                    for m, b, n, p in tableau.set_covers(bits)]
            untaken[bits] = (-1, range(len(covers)))
        elif pick is None:  # two spare ids 0 make every pick a tuple
            pick = picks[bits] = itemgetter(*[mask_ids.setdefault(
                m, len(mask_ids)) for m, _, _ in covers], 0, 0)
        reach, slots = untaken[bits]
        if reach & now:
            # A cover names its successor by (bits, mask) until an edge
            # takes it. A successor gets its id, and its place in the
            # queue, at the first edge that meets it; the queue order
            # fixes the order in which obligations are interned, and so
            # the bits that name each state.
            reach, left = 0, []
            for j in slots:
                m, succ, acc = covers[j]
                if m & now:
                    got = ids.get(succ)
                    if got is None:
                        got = ids[succ] = len(states)
                        states.append(succ)
                        depth.append(depth[state] + 1)
                    covers[j] = (m, got, acc)
                else:
                    reach |= m
                    left.append(j)
            untaken[bits] = reach, left
        row = rows.get(now)
        if row is None or pick is None:
            rows.setdefault(now, b"")
            succs[state] = [c for c in covers if c[0] & now]
        else:
            if len(row) < len(mask_ids):
                row = rows[now] = row + bytes(map(bool, map(
                    and_, repeat(now), islice(mask_ids, len(row), None))))
            succs[state] = list(compress(covers, pick(row)))
        ends.append(len(states))
        state += 1
    for bits, (_, slots) in untaken.items():  # successors met elsewhere
        covers = steps[bits]
        for j in slots:
            m, succ, acc = covers[j]
            covers[j] = (m, ids.get(succ, succ), acc)
    return _Automaton(states, succs, steps, conditions, truncated, ends)


def _sccs(auto):
    """Iterative Tarjan over the successor lists. Returns a dict from each
    SCC, a frozenset of state ids, to the accept bits of its internal
    edges together, with the bit above every condition set when it has an
    internal edge; an SCC comes after every SCC it reaches. The one walk
    finds the internal edges (Tarjan, SIAM J. Comput. 1972): an edge into
    a state still on the stack, and a tree edge whose child is still on
    the stack when the child finishes. The root of the SCC of such an
    edge's target is then the edge's source or an ancestor of it: the
    target reaches that root, which reaches the source down the tree."""
    succs = auto.succs
    n = len(auto.states)
    marked = auto.all_bits + 1
    index, low, on = [-1] * n, [0] * n, [False] * n
    inner = [0] * n  # state -> accept bits of its internal edges | marked
    stack, out = [], {}
    counter = 0
    for root in succs:
        if index[root] >= 0:
            continue
        # (state, its edges not yet taken, accept bits of its tree edge)
        work = [(root, iter(succs[root]), 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on[root] = True
        while work:
            node, it, _ = work[-1]
            advanced = False
            for _, succ, acc in it:
                if index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on[succ] = True
                    work.append((succ, iter(succs[succ]), acc))
                    advanced = True
                    break
                if on[succ]:
                    inner[node] |= acc | marked
                    if index[succ] < low[node]:
                        low[node] = index[succ]
            if advanced:
                continue
            acc = work.pop()[2]
            if low[node] < index[node]:  # node stays, in its parent's SCC
                parent = work[-1][0]
                inner[parent] |= acc | marked
                if low[node] < low[parent]:
                    low[parent] = low[node]
                continue
            comp, seen = [], 0
            while True:
                s = stack.pop()
                on[s] = False
                comp.append(s)
                seen |= inner[s]
                if s == node:
                    break
            out[frozenset(comp)] = seen
    return out


def _accepting_sccs(auto):
    """The SCCs with an internal edge, whose internal edges together
    discharge every condition (see _sccs)."""
    good = 2 * auto.all_bits + 1
    return [comp for comp, seen in _sccs(auto).items() if seen == good]


def _bfs_edges(auto, start, goal, allowed=None):
    """Shortest edge path from `start` to the first edge (mask, succ,
    accept) with goal(succ, accept), taking states breadth first and each
    state's edges in cover order, and passing only through states in
    `allowed` when given; returns the path as a list of edges, each mask
    cut to its state's, or None. A new state is queued at the first edge
    that meets it."""
    states, succs = auto.states, auto.succs
    parent = {start: None}
    queue = [start]
    qi = 0
    while qi < len(queue):
        st = queue[qi]
        qi += 1
        now = states[st][1]
        for mask, succ, acc in succs[st]:
            if goal(succ, acc):
                path = [(mask & now, succ, acc)]
                while parent[st] is not None:
                    st, edge = parent[st]
                    path.append(edge)
                return path[::-1]
            if succ not in parent and (allowed is None or succ in allowed):
                parent[succ] = (st, (mask & now, succ, acc))
                queue.append(succ)
    return None


def _inside(sccs):
    """state id -> the SCC of `sccs` that holds it"""
    return {st: comp for comp in sccs for st in comp}


def _extract_lasso(world, auto, sccs):
    inside = _inside(sccs)
    if auto.init in inside:
        prefix_edges = []
    else:
        prefix_edges = _bfs_edges(auto, auto.init,
                                  lambda succ, acc: succ in inside)
    return _lasso(world, auto, prefix_edges, inside)


def _lasso(world, auto, prefix_edges, inside):
    """The lasso that takes `prefix_edges` from init into an accepting SCC
    and then cycles there: from the entry state, the shortest path to an
    edge that discharges each condition in turn that the cycle has not
    yet discharged, then back to the entry."""
    entry = prefix_edges[-1][1] if prefix_edges else auto.init
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


def _check_options(bound, limit):
    if bound is not None and bound < 0:
        raise LogicError("bound must be 0 or more, got %r" % (bound,))
    if limit < 0:
        raise LogicError("limit must be 0 or more, got %r" % (limit,))


def entails(world, premises, conclusion, bound=None, limit=DEFAULT_LIMIT):
    """Does every world run satisfying the premises satisfy the conclusion?

    Failure comes with a lasso counterexample. With `bound` set, only
    obligation states within that many steps are explored; a pass is then
    conclusive only when the stats report the exploration as exhausted.
    """
    _check_options(bound, limit)
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


def _premise_question(world, c):
    """("G", m) when c is G p and ("F", m) when c is F p, for a
    propositional p whose negation has the mask m; None for any other
    conjunct. The shape is read off the compiled negation of c."""
    neg = compile_nnf(world, f_not(c))
    if neg[0] == "until" and neg[1] == ("mask", world.full_mask):
        op = "G"
    elif neg[0] == "release" and neg[1] == ("mask", 0):
        op = "F"
    else:
        return None
    return (op, neg[2][1]) if neg[2][0] == "mask" else None


class _PremiseAutomaton:
    """The automaton P of a structure's premises in a world, which decides
    every conjunct G p and F p with p propositional. A run of P is a run
    of the premises when it ends in a fair SCC: one whose internal edges
    discharge every condition (_accepting_sccs, found in the SCC walk).
    Neither search walks all of P when it need not: G p's follows P's
    breadth-first tree past the states outside m (_bad_prefix), and F p's
    looks at the edges inside P's fair SCCs first."""

    def __init__(self, world, premises, limit):
        budget = Budget(limit)
        self.world = world
        self.auto = _build(world, compile_nnf(world, f_and(premises)), budget)
        self.budget_used = budget.used
        self.inside = _inside(_accepting_sccs(self.auto))

    def refute(self, op, m):
        """A counterexample to G p or F p (op "G" or "F"), where m is the
        mask of not p, or None when the conjunct holds."""
        return self.always(m) if op == "G" else self.eventually(m)

    def always(self, m):
        """G p fails when a path of P from init takes a world state in m
        and then enters a fair SCC. The lasso is the one the automaton of
        the premises and F m would give: _bad_prefix, then the cycle."""
        prefix = _bad_prefix(self.auto, m, self.inside)
        if prefix is None:
            return None
        return _lasso(self.world, self.auto, prefix, self.inside)

    def eventually(self, m):
        """F p fails when P's edges cut to m hold a fair SCC that they
        reach from init; the lasso is that graph's (_cut). Such an SCC lies
        in a fair SCC of P, so it lies in an accepting SCC of the cut edges
        between the states of P's fair SCCs. When those edges hold none, F
        p holds, and the cut graph is never built."""
        auto, inside = self.auto, self.inside
        states, succs = auto.states, auto.succs
        inner = {st: [e for e in succs[st]
                      if e[0] & states[st][1] & m and e[1] in inside]
                 for st in inside}
        if not _accepting_sccs(_Automaton(states, inner, None,
                                          auto.conditions, set())):
            return None
        cut = _cut(auto, m)
        sccs = _accepting_sccs(cut)
        return _extract_lasso(self.world, cut, sccs) if sccs else None


def _cut(auto, m):
    """auto with its edges cut to the world states in m, empty ones
    dropped, and only the states those edges reach from init."""
    states, succs = auto.states, auto.succs
    cut = {auto.init: None}
    queue = [auto.init]
    for st in queue:
        now = states[st][1] & m
        cut[st] = out = [(mask & m, succ, acc)
                         for mask, succ, acc in succs[st] if mask & now]
        for _, succ, _ in out:
            if succ not in cut:
                cut[succ] = None
                queue.append(succ)
    return _Automaton(states, cut, auto.steps, auto.conditions, set())


def _bad_prefix(auto, m, inside):
    """The edges of a shortest path from init that takes a world state in
    m and then ends on an edge into `inside`, or None. The search runs
    breadth first over (state, whether m was taken), numbered 2 * state +
    taken; it takes each state's edges in cover order and, until m is
    taken, each edge cut to m before the whole edge. The automaton of the
    premises and F m is explored in this order.

    Until m is taken, the search is _build's own breadth-first search, so
    it meets states in id order, each from its parent in that search's
    tree (see _Automaton.ends). A state whose mask misses m has no edge
    cut to m, so its node queues its tree children's nodes in one step.
    Edges are scanned only at states whose mask meets m, where the next
    tree child is the next id met, and at taken nodes. Only taken nodes
    keep their parents; _path finds the others in the tree."""
    states, succs, ends = auto.states, auto.succs, auto.ends
    parent = {}  # taken node -> (node before, edge)
    queue = [2 * auto.init]
    for node in queue:
        st = node >> 1
        now = states[st][1]
        if node & 1:
            cut, fresh = -1, -1  # every edge is taken whole, to taken nodes
        else:
            cut, fresh = m, ends[st - 1] if st else 1  # fresh: next child
            if not now & m:
                queue.extend(range(2 * fresh, 2 * ends[st], 2))
                continue
        for edge in succs[st]:
            succ = edge[1]
            if edge[0] & now & cut:
                if succ in inside:
                    return _path(auto, m, parent, node, edge)
                if 2 * succ + 1 not in parent:
                    parent[2 * succ + 1] = node, edge
                    queue.append(2 * succ + 1)
            if succ == fresh:
                queue.append(2 * succ)
                fresh += 1
    return None


def _path(auto, m, parent, node, edge):
    """The edges of _bad_prefix's path to `node`, then `edge`, each cut to
    its state's mask, and the edge that takes m cut to m too. A node that
    has not taken m comes from its state's tree parent, through the first
    edge there into its state."""
    states, succs, ends = auto.states, auto.succs, auto.ends
    path, taken = [], 1  # whether the node that `edge` leads to took m
    while True:
        mask = edge[0] & states[node >> 1][1]
        if taken > node & 1:
            mask &= m
        path.append((mask, edge[1], edge[2]))
        if node == 2 * auto.init:
            return path[::-1]
        taken = node & 1
        if taken:
            node, edge = parent[node]
        else:
            st = node >> 1
            node = 2 * bisect_right(ends, st)
            edge = next(e for e in succs[node >> 1] if e[1] == st)


def verify(z, world, specs, phi, bound=None, limit=DEFAULT_LIMIT):
    """Check that every run of the structure in the world satisfies phi.

    A top-level conjunction is checked one conjunct at a time, in order,
    and the first failing conjunct provides the counterexample (see
    _check_conjuncts).
    """
    validate_actions(world, specs)
    return _check_conjuncts(world, _premises(z, world, specs), phi, bound,
                            limit)


def _check_conjuncts(world, premises, phi, bound, limit):
    """verify() of the premises: does every run that satisfies them
    satisfy each top-level conjunct of phi, taken in order?

    Without a bound, a conjunct G p or F p with p propositional is decided
    on one automaton of the premises (_PremiseAutomaton), built at the
    first such conjunct. Any other conjunct, and every conjunct under a
    bound, gets its own automaton of the premises and its negation
    (entails). The stats count each automaton built once.
    """
    _check_options(bound, limit)
    conjuncts = list(phi[1]) if phi[0] == "and" else [phi]
    total = {"automaton_states": 0, "budget_used": 0,
             "bounded": bound is not None, "exhausted": True,
             "conjuncts": len(conjuncts)}
    premise_auto = None
    for i, c in enumerate(conjuncts, 1):
        try:
            question = None if bound is not None else \
                _premise_question(world, c)
            if question is None:
                v = entails(world, premises, c, bound=bound, limit=limit)
                total["automaton_states"] += v.stats["automaton_states"]
                total["budget_used"] += v.stats["budget_used"]
                total["exhausted"] &= v.stats["exhausted"]
                trace = v.counterexample
            else:
                if premise_auto is None:
                    premise_auto = _PremiseAutomaton(world, premises, limit)
                    total["automaton_states"] += len(premise_auto.auto.succs)
                    total["budget_used"] += premise_auto.budget_used
                trace = premise_auto.refute(*question)
        except ResourceLimit as exc:
            raise ResourceLimit(limit, (i, len(conjuncts), c)) from exc
        if trace is not None:
            return Verdict(False, counterexample=trace, conclusion=c,
                           stats=total)
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

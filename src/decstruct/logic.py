"""Worlds, action specifications and the logic shared by the verifier.

Formulas are nested tuples:

    ("true",) ("false",) ("atom", name) ("ret", action, value)
    ("not", f) ("and", (f, ...)) ("or", (f, ...)) ("implies", f, g)
    ("next", f) ("until", f, g) ("eventually", f) ("always", f)

A world is a finite-domain variable frame: its states are one value per
variable, and propositional formulas evaluate to bitmasks over the state
list. ``("ret", a, v)`` atoms stand for "action a returns v" and are
grounded through action specifications before evaluation.

Every pass over a formula is a rule over one walk, ``fold``, which visits
the formula as a DAG without recursion and calls the rule once per
distinct subformula object: a subformula shared by many parents, as in
the selection conditions of a structure with joins, costs once. Atom
checks, grounding, formatting and the NNF compile are such rules, and
``World.mask`` is the compile of a propositional formula. ``fold`` walks
any tree, given a function that lists a node's parts, so the passes over
architecture terms and decomposition trees are rules over it too. The
parser reads from the operator tables that formatting prints with, on an
explicit stack.
"""

import functools
import math
import re

from .structures import FormatError, read_text, text_lines


class LogicError(ValueError):
    pass


class UnknownAtom(LogicError):
    def __init__(self, token):
        self.token = token
        super().__init__("unknown atom %r" % token)


class MissingSpec(LogicError):
    def __init__(self, action):
        self.action = action
        super().__init__("no specification for action %r" % action)


class OverlappingReturns(LogicError):
    def __init__(self, action, v1, v2):
        self.action = action
        self.values = (v1, v2)
        super().__init__("action %r: return conditions for %r and %r overlap"
                         % (action, v1, v2))


TRUE = ("true",)
FALSE = ("false",)


def f_not(f):
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "not":
        return f[1]
    return ("not", f)


def _junction(op, unit, zero, parts):
    """The flattened junction op of parts: unit parts drop out, and a
    zero part makes the whole zero."""
    flat = []
    for p in parts:
        if p == unit:
            continue
        if p == zero:
            return zero
        if p[0] == op:
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return (op, tuple(flat))


def f_and(parts):
    return _junction("and", TRUE, FALSE, parts)


def f_or(parts):
    return _junction("or", FALSE, TRUE, parts)


# -- the one walk ----------------------------------------------------------

_BRANCHES = frozenset(("not", "next", "eventually", "always", "implies",
                       "until", "release"))


def _parts(f):
    """The subformulas of f; leaves and unknown operators have none."""
    op = f[0]
    if op == "and" or op == "or":
        return f[1]
    return f[1:] if op in _BRANCHES else ()


def fold(f, rule, parts_of=_parts):
    """rule(g, [results of g's parts]) for each distinct object g of the
    tree f, after g's parts, left to right; returns f's result. parts_of(g)
    lists g's parts, by default the subformulas of a formula; nodes are
    expanded in preorder. Results are memoized by id, so a shared part
    costs once, and parts must be objects that the tree itself holds. The
    stack holds (g, None) for a g to expand and (g, parts) for a g whose
    parts are done once it comes back to the top; a g with no parts is
    done as soon as it is expanded."""
    done = {}
    stack = [(f, None)]
    while stack:
        g, parts = stack.pop()
        if parts is not None:
            done[id(g)] = rule(g, [done[id(p)] for p in parts])
        elif id(g) not in done:
            parts = parts_of(g)
            if parts:
                stack.append((g, parts))
                stack += [(p, None) for p in reversed(parts)]
            else:
                done[id(g)] = rule(g, [])
    return done[id(f)]


# -- parsing and printing ----------------------------------------------------

# The infix operators: symbol, binding strength, and whether the operator
# is binary and groups to the right (the others are n-ary). Leaves and
# prefix operators bind tightest and are never parenthesized.
_INFIX = {"implies": ("->", 20, True), "or": ("|", 30, False),
          "and": ("&", 40, False), "until": ("U", 50, True)}
_TIGHT = 100
_SYMBOL = {"not": "!", "next": "X ", "eventually": "F ", "always": "G "}
# The same tables read backwards, and how tightly each stacked operator of
# parse_ltl binds: an open parenthesis binds nothing.
_PREFIX = {sym.strip(): op for op, sym in _SYMBOL.items()}
_READ_INFIX = {sym: op for op, (sym, _, _) in _INFIX.items()}
_BINDS = {"(": 0, **dict.fromkeys(_SYMBOL, _TIGHT),
          **{op: prec for op, (_, prec, _) in _INFIX.items()}}

_TOKEN = re.compile(r"\s*(->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")


def tokenize_ltl(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or not m.group(1):
            rest = text[pos:].strip()
            if not rest:
                break
            raise FormatError("cannot tokenize %r" % rest[:20])
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_ltl(text):
    """Parse an LTL formula by precedence climbing over the tables that
    format_formula prints with: the prefix operators of ``_SYMBOL`` bind
    tightest, then the infix operators of ``_INFIX`` by binding strength,
    U, &, | and finally ->. & and | are n-ary within one level, not across
    parentheses, and -> and U group to the right.

    The stack holds [op, parts...] for each operator whose last operand
    is still to come, and ["("] for an open parenthesis. Each operand read
    reduces the operators that bind tighter than the operator after it.
    """
    tokens = tokenize_ltl(text) + [None]
    stack, pos = [], 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok in _PREFIX or tok == "(":
            stack.append([_PREFIX.get(tok, tok)])
            continue
        if tok is None or tok == ")" or tok in _READ_INFIX:
            raise FormatError("expected a formula, found %r" % tok)
        f = TRUE if tok == "true" else FALSE if tok == "false" \
            else ("atom", tok)
        while True:  # f is a whole operand: read the operator after it
            tok = tokens[pos]
            pos += 1
            op = _READ_INFIX.get(tok)
            binds = _BINDS.get(op, 0)
            while stack and _BINDS[stack[-1][0]] > binds:
                g, *parts = stack.pop()
                f = (g, *parts, f) if g in _SYMBOL or _INFIX[g][2] \
                    else (g, (*parts, f))
            if op:
                break
            if tok == ")" and stack:
                stack.pop()
            elif stack:
                raise FormatError("expected ), found %r" % tok)
            elif tok is not None:
                raise FormatError("trailing tokens after formula: %r"
                                  % tokens[pos - 1:-1])
            else:
                return f
        if stack and stack[-1][0] == op and not _INFIX[op][2]:
            stack[-1].append(f)
        else:
            stack.append([op, f])


def format_formula(f):
    """Render a formula with minimal parentheses: each subformula folds
    to (text, precedence), and a part is parenthesized where its place
    needs a higher precedence than its own."""

    def rule(g, parts):
        def at(i, need):
            text, prec = parts[i]
            return "(" + text + ")" if need > prec else text

        op = g[0]
        if op in ("true", "false", "atom"):
            return g[-1], _TIGHT
        if op == "ret":
            return "ret(%s, %s)" % g[1:], _TIGHT
        if op == "mask":
            return "<%d states>" % bin(g[1]).count("1"), _TIGHT
        if op in _SYMBOL:
            return _SYMBOL[op] + at(0, 90), _TIGHT
        if op not in _INFIX:
            raise LogicError("cannot format %r" % (g,))
        sym, prec, right = _INFIX[op]
        # parts bind tighter, but a right-grouping operator's right part
        # may be the operator again
        texts = [at(i, prec + 1) for i in range(len(parts))]
        if right:
            texts[1] = at(1, prec)
        return (" %s " % sym).join(texts), prec

    return fold(f, rule)[0]


# -- negation normal form ----------------------------------------------------


def _mk_junction(world, op, parts):
    """The junction op of parts with their masks merged into one, first."""
    unit, zero = (world.full_mask, 0) if op == "and" else (0, world.full_mask)
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


def compile_nnf(world, f):
    """Negation normal form of f, with propositional parts collapsed to
    masks: leaves become masks, and each junction merges its parts'
    masks. Each subformula folds to the pair (positive, negative)."""
    full = world.full_mask
    top, bot = ("mask", full), ("mask", 0)

    def rule(g, parts):
        op = g[0]
        if op == "atom" or op == "mask":
            m = world.atom_mask(g[1]) if op == "atom" else g[1]
            return ("mask", m), ("mask", full ^ m)
        if op == "true" or op == "false":
            return (top, bot) if op == "true" else (bot, top)
        if op in _SYMBOL:  # F g is true U g, and G g is false R g
            p, n = parts[0]
            if op == "not":
                return n, p
            if op == "next":
                return ("next", p), ("next", n)
            if op == "eventually":
                return ("until", top, p), ("release", bot, n)
            return ("release", bot, p), ("until", top, n)
        if op == "and" or op == "or":
            dual = "or" if op == "and" else "and"
            return (_mk_junction(world, op, [p for p, _ in parts]),
                    _mk_junction(world, dual, [n for _, n in parts]))
        if op == "implies" or op == "until":
            (a, na), (b, nb) = parts
            if op == "until":
                return ("until", a, b), ("release", na, nb)
            return (_mk_junction(world, "or", [na, b]),
                    _mk_junction(world, "and", [a, nb]))
        if op == "ret":
            raise LogicError("ungrounded return atom ret(%s, %s)" % g[1:])
        raise LogicError("cannot compile %r" % (g,))

    return fold(f, rule)[0]


# -- worlds ----------------------------------------------------------------


_MAX_STATES = 1 << 20
_PROPOSITIONAL = frozenset(("true", "false", "atom", "ret", "mask", "not",
                            "and", "or", "implies"))


class World:
    """A finite variable frame plus its temporal rules and initial condition."""

    def __init__(self, variables, rules=(), init=TRUE):
        # variables: list of (name, values, is_bool); bool values are (name, "!"+name)
        self.variables = []
        self.rules = list(rules)
        self.init = init
        self._atoms = {}
        for vi, (name, values, is_bool) in enumerate(variables):
            values = list(values)
            self.variables.append((name, values, is_bool))
            if is_bool:
                if name in self._atoms:
                    raise FormatError("atom %r declared twice" % name)
                self._atoms[name] = (vi, 0)
            else:
                for k, val in enumerate(values):
                    if val in self._atoms:
                        raise FormatError("atom %r declared twice" % val)
                    self._atoms[val] = (vi, k)
        sizes = [len(vals) for _, vals, _ in self.variables]
        n_states = math.prod(sizes)
        if n_states > _MAX_STATES:
            raise FormatError("world has %d states, more than %d"
                              % (n_states, _MAX_STATES))
        self.n_states = n_states
        self.full_mask = (1 << n_states) - 1
        # State i has value k of variable v when (i // block) % size == k,
        # where block is the number of states the later variables span:
        # each mask is one period of bits, high bit first, repeated. A
        # variable with no values leaves no states and no masks.
        self._atom_masks = {}
        block = 1
        for vi in reversed(range(len(sizes)) if n_states else ()):
            size = sizes[vi]
            for k in range(size):
                period = ("0" * (size - 1 - k) * block + "1" * block
                          + "0" * k * block)
                self._atom_masks[(vi, k)] = int(
                    period * (n_states // (size * block)), 2)
            block *= size
        self.check_atoms(self.init)
        for _, f in self.rules:
            self.check_atoms(f)

    def resolve(self, token):
        try:
            return self._atoms[token]
        except KeyError:
            raise UnknownAtom(token) from None

    def atom_mask(self, token):
        return self._atom_masks.get(self.resolve(token), 0)

    def check_atoms(self, f):
        """Verify every atom of a (possibly temporal) formula is declared."""
        fold(f, lambda g, _: g[0] == "atom" and self.resolve(g[1]))

    def mask(self, f):
        """A propositional formula's bitmask over the states: its compile."""
        if not self.is_propositional(f):
            raise LogicError("not a propositional formula: %s"
                             % format_formula(f))
        return compile_nnf(self, f)[1]

    def is_propositional(self, f):
        """No temporal operator anywhere in f. A return atom counts as
        propositional: grounded, it is a state condition."""
        return fold(f, lambda g, parts: g[0] in _PROPOSITIONAL and all(parts))

    def state_dict(self, st):
        out = {}
        for vi, (name, values, is_bool) in enumerate(self.variables):
            out[name] = ("true" if st[vi] == 0 else "false") if is_bool \
                else values[st[vi]]
        return out

    def state(self, i):
        """State i as a tuple of value indices, one per variable: i read in
        mixed radix over the domain sizes, the last variable fastest."""
        out = []
        for _, values, _ in reversed(self.variables):
            i, k = divmod(i, len(values))
            out.append(k)
        return tuple(reversed(out))

    def render_state(self, st):
        parts = []
        for vi, (name, values, is_bool) in enumerate(self.variables):
            parts.append(values[st[vi]] if not is_bool
                         else (name if st[vi] == 0 else "!" + name))
        return " & ".join(parts)

    def min_state(self, mask):
        """The state with the smallest index inside a nonempty mask."""
        if not mask:
            raise LogicError("empty mask has no states")
        return self.state((mask & -mask).bit_length() - 1)

    def describe_mask(self, mask):
        """A readable propositional formula equivalent to the mask."""
        if mask == self.full_mask:
            return "true"
        if mask == 0:
            return "false"
        # The states that agree on the first vi variables are one block of
        # spans[vi] bits, as the last variable runs fastest; its text
        # depends only on vi and the mask's bits there, shifted down.
        spans = [self.n_states]
        for _, values, _ in self.variables:
            spans.append(spans[-1] // len(values))

        @functools.cache
        def go(vi, bits):
            if bits == (1 << spans[vi]) - 1:
                return "true"
            if not bits:
                return "false"
            name, values, is_bool = self.variables[vi]
            span = spans[vi + 1]
            low = (1 << span) - 1
            branches = []
            for k, val in enumerate(values):
                atom = (name if k == 0 else "!" + name) if is_bool else val
                branches.append((atom, go(vi + 1, bits >> (k * span) & low)))
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

        return go(0, mask)


def parse_world(text):
    variables, rules, init = [], [], None
    for lineno, raw, line in text_lines(text):
        line = line.strip()
        if not line:
            continue
        m = re.fullmatch(r"var\s+(\w+)\s*\{([^}]*)\}", line)
        if m:
            values = m.group(2).split()
            if len(values) < 2:
                raise FormatError("line %d: variable %r needs at least two "
                                  "values" % (lineno, m.group(1)))
            variables.append((m.group(1), values, False))
            continue
        m = re.fullmatch(r"bool\s+(\w+)", line)
        if m:
            name = m.group(1)
            variables.append((name, [name, "!" + name], True))
            continue
        m = re.fullmatch(r"rule\s+(\w+)\s*:\s*(.*)", line)
        if m:
            rules.append((m.group(1), parse_ltl(m.group(2))))
            continue
        m = re.fullmatch(r"init\s*:\s*(.*)", line)
        if m:
            if init is not None:
                raise FormatError("line %d: second init clause" % lineno)
            init = parse_ltl(m.group(1))
            continue
        raise FormatError("line %d: cannot parse %r" % (lineno, raw))
    if not variables:
        raise FormatError("world declares no variables")
    return World(variables, rules, init if init is not None else TRUE)


def load_world(path):
    return parse_world(read_text(path))


# -- action specifications ---------------------------------------------------


class ActionSpec:
    def __init__(self, name, model=TRUE, returns=None):
        self.name = name
        self.model = model
        self.returns = dict(returns or {})

    def __repr__(self):
        return "ActionSpec(%r, returns=%s)" % (self.name,
                                               sorted(self.returns))


def parse_actions(text):
    text = "\n".join(code for _, _, code in text_lines(text))
    specs = {}
    pos = 0
    block = re.compile(r"\s*action\s+(\w+)\s*\{([^}]*)\}", re.S)
    blank = re.compile(r"\s*\Z")
    while not blank.match(text, pos):
        m = block.match(text, pos)
        if not m:
            raise FormatError("cannot parse action block near %r"
                              % text[pos:pos + 40].strip())
        name, body = m.group(1), m.group(2)
        if name in specs:
            raise FormatError("action %r declared twice" % name)
        model, returns = TRUE, {}
        for stmt in body.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            sm = re.fullmatch(r"model\s*:\s*(.*)", stmt, re.S)
            if sm:
                model = parse_ltl(sm.group(1))
                continue
            sm = re.fullmatch(r"returns\s+(\w+)\s*:\s*(.*)", stmt, re.S)
            if sm:
                if sm.group(1) in returns:
                    raise FormatError("action %r: return value %r declared "
                                      "twice" % (name, sm.group(1)))
                returns[sm.group(1)] = parse_ltl(sm.group(2))
                continue
            raise FormatError("action %r: cannot parse %r" % (name, stmt))
        specs[name] = ActionSpec(name, model, returns)
        pos = m.end()
    return specs


def load_actions(path):
    return parse_actions(read_text(path))


def validate_actions(world, specs):
    """Check atoms and pairwise disjointness of each action's returns."""
    for spec in specs.values():
        world.check_atoms(spec.model)
        masks = []
        for v, f in spec.returns.items():
            world.check_atoms(f)
            if not world.is_propositional(f):
                raise LogicError("action %r: return condition for %r is not "
                                 "propositional" % (spec.name, v))
            masks.append((v, world.mask(f)))
        for i, (v1, m1) in enumerate(masks):
            for v2, m2 in masks[i + 1:]:
                if m1 & m2:
                    raise OverlappingReturns(spec.name, v1, v2)


# -- conditions derived from a structure -------------------------------------


def _ret(action, value):
    return ("ret", action, value)


def selection_conditions(z):
    """For each node, the condition that the walk stops exactly there.

    Conditions use ("ret", action, value) atoms: ground them with action
    specifications before evaluating. The formulas for all nodes of a
    structure are exhaustive (the walk always stops somewhere).
    """
    reach = {}
    for v in z.topological_order():
        if v == z.source:
            reach[v] = TRUE
        else:
            reach[v] = f_or([f_and([reach[t], _ret(z.action_of[t], r)])
                             for t, r in z.preds[v]])
    sel = {}
    for v, _ in z.nodes:
        stay = [f_not(_ret(z.action_of[v], r)) for r in sorted(z.out[v])]
        sel[v] = f_and([reach[v]] + stay)
    return sel


def selection_condition(z, v):
    return selection_conditions(z)[str(v)]


def return_condition(z, value):
    """The condition under which the whole structure returns `value`."""
    return _return_condition(z, selection_conditions(z), value)


def _return_condition(z, sel, value):
    """return_condition, given z's selection_conditions."""
    parts = [f_and([sel[v], _ret(z.action_of[v], value)])
             for v, _ in z.nodes]
    return f_or(parts)


def build_psi(z, specs):
    """One tick of the structure: the selected node's action behaves as
    modeled. Disjunction over distinct actions of (selected ∧ model)."""
    return _build_psi(z, selection_conditions(z), specs)


def _build_psi(z, sel, specs):
    """build_psi, given z's selection_conditions."""
    by_action = {}
    for v, a in z.nodes:
        by_action.setdefault(a, []).append(sel[v])
    parts = []
    for a in sorted(by_action):
        if a not in specs:
            raise MissingSpec(a)
        parts.append(f_and([f_or(by_action[a]), specs[a].model]))
    return f_or(parts)


def ground(f, specs):
    """Replace return atoms by the action's return condition (false when
    the action never returns that value)."""

    def rule(g, parts):
        op = g[0]
        if op == "ret":
            if g[1] not in specs:
                raise MissingSpec(g[1])
            return specs[g[1]].returns.get(g[2], FALSE)
        if not parts:
            return g
        return (op, tuple(parts)) if op in ("and", "or") else (op, *parts)

    return fold(f, rule)

"""Worlds, action specifications and the logic shared by the verifier.

Formulas are nested tuples:

    ("true",) ("false",) ("atom", name) ("ret", action, value)
    ("not", f) ("and", (f, ...)) ("or", (f, ...)) ("implies", f, g)
    ("next", f) ("until", f, g) ("eventually", f) ("always", f)

A world is a finite-domain variable frame: its states are one value per
variable, and propositional formulas evaluate to bitmasks over the state
list. ``("ret", a, v)`` atoms stand for "action a returns v" and are
grounded through action specifications before evaluation.
"""

import math
import re

from .structures import FormatError


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


# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[!&|()]|[A-Za-z_][A-Za-z0-9_]*)")
_UNARY = {"!": "not", "X": "next", "F": "eventually", "G": "always"}


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
    """Parse an LTL formula.

    Unary operators bind tightest, then U (right-associative), & , | and
    finally -> (right-associative).
    """
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
        tok = peek()
        if tok in _UNARY:
            take()
            return (_UNARY[tok], p_unary())
        if tok == "(":
            take()
            inner = p_implies()
            take(")")
            return inner
        if tok == "true":
            take()
            return TRUE
        if tok == "false":
            take()
            return FALSE
        if tok is None or tok in ("&", "|", "->", ")", "U"):
            raise FormatError("expected a formula, found %r" % tok)
        take()
        return ("atom", tok)

    result = p_implies()
    if pos != len(tokens):
        raise FormatError("trailing tokens after formula: %r" % tokens[pos:])
    return result


_PREC = {"implies": 20, "or": 30, "and": 40, "until": 50}


def format_formula(f):
    """Render a formula with minimal parentheses."""

    def go(f, parent):
        op = f[0]
        if op == "true":
            return "true"
        if op == "false":
            return "false"
        if op == "atom":
            return f[1]
        if op == "ret":
            return "ret(%s, %s)" % (f[1], f[2])
        if op == "mask":
            return "<%d states>" % bin(f[1]).count("1")
        if op in ("not", "next", "eventually", "always"):
            sym = {"not": "!", "next": "X ", "eventually": "F ",
                   "always": "G "}[op]
            return sym + go(f[1], 90)
        if op == "until":
            text = "%s U %s" % (go(f[1], 51), go(f[2], 50))
        elif op == "and":
            text = " & ".join(go(p, 41) for p in f[1])
        elif op == "or":
            text = " | ".join(go(p, 31) for p in f[1])
        elif op == "implies":
            text = "%s -> %s" % (go(f[1], 21), go(f[2], 20))
        else:
            raise LogicError("cannot format %r" % (f,))
        if parent > _PREC[op]:
            return "(" + text + ")"
        return text

    return go(f, 0)


# -- worlds ----------------------------------------------------------------


_MAX_STATES = 1 << 20


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
        op = f[0]
        if op == "atom":
            self.resolve(f[1])
        elif op in ("and", "or"):
            for p in f[1]:
                self.check_atoms(p)
        elif op in ("not", "next", "eventually", "always"):
            self.check_atoms(f[1])
        elif op in ("implies", "until"):
            self.check_atoms(f[1])
            self.check_atoms(f[2])

    def mask(self, f):
        """Evaluate a propositional formula to a bitmask over the states."""
        op = f[0]
        if op == "true":
            return self.full_mask
        if op == "false":
            return 0
        if op == "atom":
            return self.atom_mask(f[1])
        if op == "mask":
            return f[1]
        if op == "not":
            return self.full_mask ^ self.mask(f[1])
        if op == "and":
            m = self.full_mask
            for p in f[1]:
                m &= self.mask(p)
                if not m:
                    return 0
            return m
        if op == "or":
            m = 0
            for p in f[1]:
                m |= self.mask(p)
            return m
        if op == "implies":
            return (self.full_mask ^ self.mask(f[1])) | self.mask(f[2])
        if op == "ret":
            raise LogicError("ungrounded return atom ret(%s, %s)" % f[1:])
        raise LogicError("not a propositional formula: %s" % format_formula(f))

    def is_propositional(self, f):
        op = f[0]
        if op in ("true", "false", "atom", "mask"):
            return True
        if op == "not":
            return self.is_propositional(f[1])
        if op in ("and", "or"):
            return all(self.is_propositional(p) for p in f[1])
        if op == "implies":
            return all(self.is_propositional(p) for p in f[1:])
        return False

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
        if isinstance(st, int):
            st = self.state(st)
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

        def go(vi, mask, dom):
            if not (dom & ~mask):
                return "true"
            if not (dom & mask):
                return "false"
            name, values, is_bool = self.variables[vi]
            branches = []
            for k, val in enumerate(values):
                sub_dom = dom & self._atom_masks[(vi, k)]
                if not sub_dom:
                    continue
                atom = (name if k == 0 else "!" + name) if is_bool else val
                branches.append((atom, go(vi + 1, mask, sub_dom)))
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

        return go(0, mask, self.full_mask)


def parse_world(text):
    variables, rules, init = [], [], None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_world(fh.read())


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
    clean = []
    for raw in text.splitlines():
        clean.append(raw.split("#", 1)[0])
    text = "\n".join(clean)
    specs = {}
    pos = 0
    block = re.compile(r"\s*action\s+(\w+)\s*\{([^}]*)\}", re.S)
    while pos < len(text):
        if not text[pos:].strip():
            break
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_actions(fh.read())


def validate_actions(world, specs):
    """Check atoms and pairwise disjointness of each action's returns."""
    for spec in specs.values():
        world.check_atoms(spec.model)
        items = list(spec.returns.items())
        for v, f in items:
            world.check_atoms(f)
            if not world.is_propositional(f):
                raise LogicError("action %r: return condition for %r is not "
                                 "propositional" % (spec.name, v))
        for i, (v1, f1) in enumerate(items):
            for v2, f2 in items[i + 1:]:
                if world.mask(f1) & world.mask(f2):
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
    op = f[0]
    if op == "ret":
        _, action, value = f
        if action not in specs:
            raise MissingSpec(action)
        return specs[action].returns.get(value, FALSE)
    if op in ("and", "or"):
        return (op, tuple(ground(p, specs) for p in f[1]))
    if op in ("not", "next", "eventually", "always"):
        return (op, ground(f[1], specs))
    if op in ("implies", "until"):
        return (op, ground(f[1], specs), ground(f[2], specs))
    return f

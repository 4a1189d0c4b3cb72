"""The three benchmark workloads: their inputs, commands and references.

Every workload is a closed loop with one caller: a pass runs its commands
one after another through ``decstruct.cli.main``, each with
``--format json``. The generators and every correctness reference live
here, written from the definitions, so that neither an edit to the tests
nor a change to the code under test can move what counts as correct.
"""

import os
import random
import re

# -- generators ---------------------------------------------------------------


def action_names(rng, n):
    """n distinct action names in a seeded order."""
    names = ["x%03d" % i for i in range(n)]
    rng.shuffle(names)
    return names


def deep_term(rng, n):
    """A right-deep alternating term (seq a0 (fb a1 (seq a2 ...))) as
    nested ("op", label, children) / ("leaf", action) tuples."""
    names = action_names(rng, n)
    labels = ["s", "f"]
    rng.shuffle(labels)
    term = ("leaf", names[-1])
    for i in range(n - 2, -1, -1):
        term = ("op", labels[i % 2], [("leaf", names[i]), term])
    return term


def random_dag(rng, n, labels=("s", "f", "m"), extra=0.6, pool="abcdefgh"):
    """A random single-source DAG: every node below the first hangs off an
    earlier node through a free label, then about `extra` arcs per node
    are added between random ordered pairs. Returns (nodes, arcs)."""
    nodes = [("n%d" % i, rng.choice(pool)) for i in range(n)]
    used = [set() for _ in range(n)]
    arcs = set()

    def add(j, i):
        free = [r for r in labels if r not in used[j]]
        if not free or (j, i) in arcs:
            return False
        r = rng.choice(free)
        used[j].add(r)
        arcs.add((j, i))
        out.append(("n%d" % j, "n%d" % i, r))
        return True

    out = []
    for i in range(1, n):
        while not add(rng.randrange(i), i):
            pass
    for _ in range(round(extra * n)):
        j = rng.randrange(n - 1)
        add(j, rng.randrange(j + 1, n))
    return nodes, out


# -- term helpers, independent of decstruct.architectures ---------------------


def term_leaves(term):
    if term[0] == "leaf":
        return [term[1]]
    out = []
    for c in term[2]:
        out.extend(term_leaves(c))
    return out


def compress(term):
    """Normal form: no single-child operators, no same-label nesting."""
    if term[0] == "leaf":
        return term
    children = []
    for c in term[2]:
        c = compress(c)
        if c[0] == "op" and c[1] == term[1]:
            children.extend(c[2])
        else:
            children.append(c)
    if len(children) == 1:
        return children[0]
    return ("op", term[1], children)


def term_text(term):
    if term[0] == "leaf":
        return term[1]
    inner = " ".join(term_text(c) for c in term[2])
    head = {"s": "seq", "f": "fb"}.get(term[1], "op %s" % term[1])
    return "(%s %s)" % (head, inner)


def to_library_term(ds, term):
    if term[0] == "leaf":
        return ds.Leaf(term[1])
    return ds.Op(term[1], [to_library_term(ds, c) for c in term[2]])


def expected_tree(term):
    """The decomposition tree of a compressed term's structure, in the
    JSON shape `decstruct decompose` prints: one path node per operator,
    children in order, node ids equal to the (distinct) action names."""
    if term[0] == "leaf":
        return {"kind": "leaf", "members": [term[1]], "node": term[1],
                "action": term[1]}
    return {"kind": "path", "label": term[1],
            "members": sorted(term_leaves(term)),
            "children": [expected_tree(c) for c in term[2]]}


# -- module definition, independent of decstruct.modules ----------------------


class Graph:
    """Adjacency of a generated structure, for reference checks."""

    def __init__(self, nodes, arcs):
        self.nodes = [v for v, _ in nodes]
        self.arcs = list(arcs)
        self.out = {v: {} for v in self.nodes}
        self.preds = {v: [] for v in self.nodes}
        for t, h, r in self.arcs:
            self.out[t][r] = h
            self.preds[h].append(t)

    def cyclomatic(self):
        sinks = sum(1 for v in self.nodes if not self.out[v])
        return len(self.arcs) + sinks - len(self.nodes) + 1

    def is_module(self, members):
        """X is a module when Z[X] has one source reaching all of X, every
        arc entering X lands on that source, and each label leaving X
        leaves toward one head and is carried by every member of X."""
        members = set(members)
        if not members or not members <= self.out.keys():
            return False
        roots = [v for v in members
                 if not any(t in members for t in self.preds[v])]
        if len(roots) != 1:
            return False
        root = roots[0]
        seen, stack = {root}, [root]
        while stack:
            for h in self.out[stack.pop()].values():
                if h in members and h not in seen:
                    seen.add(h)
                    stack.append(h)
        if seen != members:
            return False
        for v in members:
            if v != root and any(t not in members for t in self.preds[v]):
                return False
        leaving = {}
        for v in members:
            for r, h in self.out[v].items():
                if h not in members:
                    leaving.setdefault(r, set()).add(h)
        for r, heads in leaving.items():
            if len(heads) != 1 or any(r not in self.out[v] for v in members):
                return False
        return True


def check_tree(graph, tree):
    """Every node of a decomposition tree is a module of the input and its
    children partition it; the root covers every node."""
    if sorted(tree["members"]) != sorted(graph.nodes):
        return "decomposition root does not cover the node set"
    stack = [tree]
    while stack:
        d = stack.pop()
        if d["kind"] == "leaf":
            if d["members"] != [d["node"]]:
                return "leaf %r has members %r" % (d["node"], d["members"])
            continue
        if d["kind"] not in ("path", "prime"):
            return "unknown node kind %r" % d["kind"]
        if d["kind"] == "path" and not d.get("label"):
            return "path node without a label"
        union = []
        for c in d["children"]:
            union.extend(c["members"])
        if sorted(union) != d["members"]:
            return "children do not partition {%s}" % ",".join(d["members"])
        if not graph.is_module(d["members"]):
            return "decomposition node is not a module: {%s}" % (
                ",".join(d["members"]))
        stack.extend(d["children"])
    return None


# -- the drone world, read directly from its file -----------------------------


def world_states(path):
    """Every state of a world file as the set of atoms true in it."""
    domains = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split("#", 1)[0].split()
            if parts[:1] == ["var"]:
                domains.append(re.findall(r"\w+", " ".join(parts[2:])))
            elif parts[:1] == ["bool"]:
                domains.append([parts[1], "!" + parts[1]])
    states = [set()]
    for values in domains:
        states = [s | {v} for s in states for v in values]
    return states


_FORMULA_TOKEN = re.compile(r"\s*(!?\w+|[&|()])")


def holds(text, state):
    """Evaluate a propositional formula over &, |, ! and parentheses."""
    tokens = _FORMULA_TOKEN.findall(text)
    if "".join(tokens) != text.replace(" ", ""):
        raise ValueError("cannot read formula %r" % text)
    python = []
    for tok in tokens:
        if tok in "&|()":
            python.append({"&": "and", "|": "or"}.get(tok, tok))
        elif tok in ("true", "false"):
            python.append(str(tok == "true"))
        else:
            python.append(str(tok in state))
    return eval(" ".join(python), {"__builtins__": {}})


# -- workloads ----------------------------------------------------------------


class Command:
    """One CLI invocation with its expected exit code and output check.

    check(payload) returns None when the output is right, otherwise a
    message saying what is wrong."""

    def __init__(self, label, argv, rc, check):
        self.label = label
        self.argv = list(argv) + ["--format", "json"]
        self.rc = rc
        self.check = check


class DroneVerify:
    name = "drone_verify"
    groups = {"verify_refute": ["verify_refute"],
              "verify_prove": ["verify_prove"],
              "replace": ["replace_z2", "replace_z3", "replace_action"]}

    def prepare(self, ds, root, seed, workdir):
        # The corpus is fixed; the seed does not change these inputs.
        self.corpus = os.path.join(root, "corpus")
        self.states = world_states(self.path("drone.wld"))
        self.k2 = ds.load_structure(self.path("k2.ds")).node_ids()
        return [self.path(n) for n in sorted(os.listdir(self.corpus))]

    def path(self, name):
        return os.path.join(self.corpus, name)

    def commands(self):
        w = ["--world", self.path("drone.wld"),
             "--actions", self.path("drone.act")]
        spec = ["--spec", self.path("spec.ltl")]
        head = "b0,bLow,calm,bHigh,bright,Avoid,Land"
        return [
            Command("verify_refute", ["verify", self.path("z1.ds")] + w + spec,
                    1, self.check_refute),
            Command("verify_prove", ["verify", self.path("z2.ds")] + w + spec,
                    0, self.check_prove),
            Command("replace_z2", ["check-replace", self.path("z2.ds"),
                                   "--module", head,
                                   "--with", self.path("q.ds")] + w,
                    0, self.check_replace_z2),
            Command("replace_z3", ["check-replace", self.path("z3.ds"),
                                   "--module", ",".join(self.k2),
                                   "--with", self.path("q2.ds")] + w,
                    0, self.check_replace_z3),
            Command("replace_action", ["check-replace", "--action", "Descend",
                                       "--with-action", "Land"] + w,
                    1, self.check_replace_action),
        ]

    @staticmethod
    def check_refute(p):
        if p.get("holds") is not False:
            return "z1 should fail"
        failed = p.get("failed", "")
        if not ("b0" in failed and "storm" in failed
                and "photo" not in failed):
            return "z1 should fail on the safety conjunct, not %r" % failed
        seq = p["counterexample"]["prefix"] + p["counterexample"]["cycle"]
        steps = list(zip(seq, seq[1:])) + [(p["counterexample"]["cycle"][-1],
                                           p["counterexample"]["cycle"][0])]
        for a, b in steps:
            if (a["Weather"] == "windy" and a["Battery"] == "bLow"
                    and b["Altitude"] == "high" and b["Battery"] == "b0"):
                return None
        return "z1 trace has no windy,bLow -> high,b0 step"

    @staticmethod
    def check_prove(p):
        if p.get("holds") is not True or p.get("conclusive") is False:
            return "z2 should hold"
        return None

    def check_replace_z2(self, p):
        if not (p.get("ok") and p.get("behavior_holds")):
            return "z2 head -> q should be replaceable"
        want = [holds("calm & (bHigh | bMid & bright)", s)
                for s in self.states]
        for v, d in p["returns"].items():
            for side in ("old", "new"):
                got = [holds(d[side], s) for s in self.states]
                if got != (want if v == "s" else [False] * len(want)):
                    return "return %s (%s) is %r" % (v, side, d[side])
        if "s" not in p["returns"]:
            return "no s return reported"
        return None

    @staticmethod
    def check_replace_z3(p):
        if not (p.get("ok") and p.get("behavior_holds")) or p["returns"]:
            return "z3 k2 -> q2 should be replaceable with no visible returns"
        if not any("invisible" in n for n in p.get("notes", [])):
            return "z3 k2 -> q2 should note that its returns are invisible"
        return None

    @staticmethod
    def check_replace_action(p):
        if p.get("ok") is not False:
            return "Descend -> Land should be refused"
        return None


class KbtFamilies:
    name = "kbt_families"
    size = 120
    groups = {name: [name] for name in ("decompose_deep", "classify_deep",
                                        "decompose_flat", "classify_flat")}

    def prepare(self, ds, root, seed, workdir):
        rng = random.Random(seed)
        self.terms = {"deep": deep_term(rng, self.size),
                      "flat": ("op", "d", [("leaf", a) for a in
                                           action_names(rng, self.size)])}
        self.files = {}
        for shape, term in self.terms.items():
            if shape == "deep":
                z = ds.construct_kbt(to_library_term(ds, term))
            else:
                z = ds.construct_tr(term_leaves(term))
            self.files[shape] = os.path.join(workdir, shape + ".ds")
            with open(self.files[shape], "w", encoding="utf-8") as fh:
                fh.write(ds.format_structure(z))
        return sorted(self.files.values())

    def commands(self):
        out = []
        for shape in ("deep", "flat"):
            term = compress(self.terms[shape])
            out.append(Command("decompose_" + shape,
                               ["decompose", self.files[shape]], 0,
                               self.tree_check(term)))
            out.append(Command("classify_" + shape,
                               ["classify", self.files[shape]], 0,
                               self.classify_check(term)))
        return out

    @staticmethod
    def tree_check(term):
        want = expected_tree(term)

        def check(p):
            return None if p == want else "decomposition tree differs"
        return check

    @staticmethod
    def classify_check(term):
        text = term_text(term)
        k = len({t[1] for t in _ops(term)})

        def check(p):
            if p.get("essential") != 1 or not p.get("is_kbt"):
                return "essential should be 1"
            if p.get("kbt") != text:
                return "kbt term %r is not %r" % (p.get("kbt"), text)
            if p.get("k") != k or p.get("is_bt") != (k <= 2):
                return "wrong label count or bt flag"
            if k == 1 and p.get("tr") != term_leaves(term):
                return "tr program is not the chain order"
            return None
        return check


def _ops(term):
    if term[0] == "op":
        yield term
        for c in term[2]:
            yield from _ops(c)


class RandomDags:
    name = "random_dags"
    sizes = (1000, 2000)
    groups = {"decompose_random": ["decompose_%d" % n for n in sizes],
              "classify_random": ["classify_%d" % n for n in sizes]}

    def prepare(self, ds, root, seed, workdir):
        rng = random.Random(seed)
        self.graphs, self.files = {}, {}
        for n in self.sizes:
            nodes, arcs = random_dag(rng, n)
            self.graphs[n] = Graph(nodes, arcs)
            self.files[n] = os.path.join(workdir, "random%d.ds" % n)
            with open(self.files[n], "w", encoding="utf-8") as fh:
                fh.write(ds.format_structure(ds.validate(nodes, arcs)))
        self.ds = ds
        return [self.files[n] for n in self.sizes]

    def commands(self):
        out = []
        for n in self.sizes:
            g, path = self.graphs[n], self.files[n]
            out.append(Command("modules_%d" % n, ["modules", path], 0,
                               self.modules_check(g)))
            out.append(Command("decompose_%d" % n, ["decompose", path], 0,
                               lambda p, g=g: check_tree(g, p)))
            out.append(Command("classify_%d" % n, ["classify", path], 0,
                               self.classify_check(g, path)))
        return out

    @staticmethod
    def modules_check(g):
        def check(p):
            for m in p["modules"]:
                if not g.is_module(m):
                    return "reported module is not a module: {%s}" % (
                        ",".join(m))
            return None
        return check

    def classify_check(self, g, path):
        ds = self.ds

        def check(p):
            if (p.get("nodes"), p.get("arcs")) != (len(g.nodes), len(g.arcs)):
                return "wrong node or arc count"
            if p.get("cyclomatic") != g.cyclomatic():
                return "cyclomatic %r, expected %d" % (p.get("cyclomatic"),
                                                       g.cyclomatic())
            if p.get("is_kbt") != (p.get("essential") == 1):
                return "is_kbt disagrees with essential"
            if p.get("essential", 0) > 1 and not g.is_module(p["witness"]):
                return "witness is not a module"
            if p.get("kbt") is not None:
                rebuilt = ds.construct_kbt(ds.parse_arch(p["kbt"]))
                if ds.structurally_equivalent(rebuilt,
                                              ds.load_structure(path)) is None:
                    return "kbt term does not rebuild the input"
            return None
        return check


WORKLOADS = {w.name: w for w in (DroneVerify, KbtFamilies, RandomDags)}

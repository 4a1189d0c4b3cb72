"""Spans around the public functions of each decstruct layer.

The tracer replaces a function at every place it is looked up: module
globals bound at import (``cli`` imports its library functions by name,
``analysis`` imports ``decompose``, ``verifier`` imports ``is_module``,
``ground`` and ``build_psi``), the defining module's own global (which
also catches recursive calls and the call-time import in
``architectures.extract_kbt``), and class attributes for methods. Each
span records its name, start, end, parent span and the command it belongs
to; spans stay in memory until the run writes them out.
"""

import functools
import statistics
import sys
import time

# layer (the decstruct module of that name) -> its traced functions
LAYERS = {
    "cli": ["main"],
    "structures": ["load_structure", "DecisionStructure.induced"],
    "modules": ["find_modules", "decompose", "quotient", "is_module"],
    "architectures": ["extract_kbt", "compress"],
    "analysis": ["classify", "complexity_report"],
    "logic": ["load_world", "load_actions", "parse_ltl", "build_psi",
              "ground", "selection_conditions", "World.mask"],
    "verifier": ["verify", "check_module_replacement",
                 "check_action_replacement", "entails", "compile_nnf"],
}

NAME, START, END, PARENT, COMMAND, OUTER, INFO = range(7)


def _span_info(name, result):
    """Sizes a span reports from its result, for the count metrics."""
    if name == "modules.find_modules":
        return len(result)
    if name == "verifier.entails":
        return (result.stats["automaton_states"], result.stats["budget_used"])
    if name == "verifier.verify" and not result.holds:
        return (len(result.counterexample.prefix),
                len(result.counterexample.cycle))
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.depth = {}
        self.command = None
        self.patched = []

    def wrap(self, name, fn):
        spans, stack, depth = self.spans, self.stack, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.command, not depth.get(name), None]
            stack.append(len(spans))
            spans.append(span)
            depth[name] = depth.get(name, 0) + 1
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                depth[name] -= 1
                stack.pop()
            span[INFO] = _span_info(name, result)
            return result
        return traced

    def install(self, package="decstruct"):
        mods = [m for n, m in list(sys.modules.items())
                if n == package or n.startswith(package + ".")]
        for layer, targets in LAYERS.items():
            home = sys.modules["%s.%s" % (package, layer)]
            for target in targets:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                orig = getattr(owner, attr)
                wrapper = self.wrap("%s.%s" % (layer, attr), orig)
                sites = [(owner, attr)] if owner_name else [
                    (m, k) for m in mods
                    for k, v in vars(m).items() if v is orig]
                for obj, key in sites:
                    setattr(obj, key, wrapper)
                    self.patched.append((obj, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self.patched):
            setattr(obj, key, orig)
        self.patched = []

    def dump(self):
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "command": s[COMMAND]}
                for s in self.spans]


# -- per-layer metrics --------------------------------------------------------

# Counts that must repeat exactly from run to run on the same inputs.
COUNTS = [
    "structures.induced_calls", "modules.find_modules_calls",
    "modules.modules_found", "modules.decompose_calls",
    "modules.quotient_calls", "modules.is_module_calls",
    "analysis.decompose_per_classify", "logic.selection_conditions_calls",
    "logic.mask_calls", "verifier.entails_calls",
    "verifier.automaton_states", "verifier.budget_used",
    "verifier.lasso_prefix_len", "verifier.lasso_cycle_len",
]

UNITS = {name: "count" for name in COUNTS}
UNITS.update({"verifier.states_per_s": "1/s", "trace.overhead_frac": "frac"})


def _self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def self_time_by_command(spans):
    """For each command, the self time of each traced function, largest
    first."""
    out = {}
    for s, own in zip(spans, _self_times(spans)):
        per = out.setdefault(s[COMMAND], {})
        per[s[NAME]] = per.get(s[NAME], 0.0) + own
    return {c: dict(sorted(p.items(), key=lambda kv: -kv[1]))
            for c, p in out.items()}


def layer_metrics(spans):
    """Per-layer metrics of one pass, from the spans it recorded."""
    own = _self_times(spans)

    calls, total, self_time = {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        if s[OUTER]:
            total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + own[i]
        layer_self[name.split(".")[0]] += own[i]

    def infos(name):
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO]]

    def inside(i, name):
        while i is not None:
            if spans[i][NAME] == name:
                return True
            i = spans[i][PARENT]
        return False

    entails = infos("verifier.entails")
    lassos = infos("verifier.verify")
    classify = calls.get("analysis.classify", 0)
    decompose_in_classify = sum(
        1 for s in spans if s[NAME] == "modules.decompose" and s[OUTER]
        and inside(s[PARENT], "analysis.classify"))
    entails_self = self_time.get("verifier.entails", 0.0)
    states = sum(e[0] for e in entails)
    m = {
        "structures.load_s": total.get("structures.load_structure", 0.0),
        "structures.induced_calls": calls.get("structures.induced", 0),
        "structures.induced_s": total.get("structures.induced", 0.0),
        "modules.find_modules_calls": calls.get("modules.find_modules", 0),
        "modules.find_modules_s": total.get("modules.find_modules", 0.0),
        "modules.modules_found": sum(infos("modules.find_modules")),
        "modules.decompose_calls": calls.get("modules.decompose", 0),
        "modules.decompose_self_s": self_time.get("modules.decompose", 0.0),
        "modules.quotient_calls": calls.get("modules.quotient", 0),
        "modules.quotient_self_s": self_time.get("modules.quotient", 0.0),
        "modules.is_module_calls": calls.get("modules.is_module", 0),
        "modules.is_module_s": total.get("modules.is_module", 0.0),
        "architectures.extract_kbt_self_s":
            self_time.get("architectures.extract_kbt", 0.0),
        "architectures.compress_s": total.get("architectures.compress", 0.0),
        "analysis.complexity_report_self_s":
            self_time.get("analysis.complexity_report", 0.0),
        "analysis.decompose_per_classify":
            decompose_in_classify / classify if classify else 0,
        "logic.load_s": sum(total.get("logic." + f, 0.0) for f in
                            ("load_world", "load_actions", "parse_ltl")),
        "logic.build_psi_s": total.get("logic.build_psi", 0.0),
        "logic.ground_s": total.get("logic.ground", 0.0),
        "logic.selection_conditions_calls":
            calls.get("logic.selection_conditions", 0),
        "logic.mask_calls": calls.get("logic.mask", 0),
        "logic.mask_s": total.get("logic.mask", 0.0),
        "verifier.entails_calls": len(entails),
        "verifier.entails_s": total.get("verifier.entails", 0.0),
        "verifier.entails_max_s": max(
            [s[END] - s[START] for s in spans
             if s[NAME] == "verifier.entails"], default=0.0),
        "verifier.compile_nnf_s": total.get("verifier.compile_nnf", 0.0),
        "verifier.entails_self_s": entails_self,
        "verifier.automaton_states": states,
        "verifier.budget_used": sum(e[1] for e in entails),
        "verifier.states_per_s":
            states / entails_self if entails_self else 0.0,
        "verifier.lasso_prefix_len": sum(t[0] for t in lassos),
        "verifier.lasso_cycle_len": sum(t[1] for t in lassos),
    }
    for layer, value in layer_self.items():
        m[layer + ".self_s"] = value
    return m


def median_metrics(per_pass):
    """Median of each metric over the traced passes; a count keeps the
    value of one pass, so it stays a whole number."""
    return {k: (statistics.median_low if k in COUNTS else statistics.median)(
        p[k] for p in per_pass) for k in per_pass[0]}


def unit(name):
    return UNITS.get(name, "s")

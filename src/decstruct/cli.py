"""Command line interface for decision-structure tooling."""

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .analysis import (classify, classify_text, complexity_report, export_fsm,
                       relabelings)
from .architectures import (ArchError, Leaf, Op, Pred, construct_dt,
                            construct_kbt, construct_tr, extract_kbt,
                            format_arch, parse_arch)
from .logic import (LogicError, format_formula, load_actions, load_world,
                    parse_ltl)
from .modules import (decompose, expand, contract, find_modules,
                      nontrivial_modules)
from .structures import (StructureError, FormatError, format_structure,
                         load_structure, read_text, text_lines)
from .verifier import (DEFAULT_LIMIT, ResourceLimit, check_action_replacement,
                       check_module_replacement, export_obligation, verify)


def _color_enabled():
    return os.environ.get("DECSTRUCT_COLOR", "0") == "1"


def _paint(text, code):
    if _color_enabled():
        return "\x1b[%sm%s\x1b[0m" % (code, text)
    return text


def _good(text):
    return _paint(text, "32")


def _bad(text):
    return _paint(text, "31")


def _json_chunks(obj):
    """json.dumps(obj, indent=2, sort_keys=True) for str-keyed payloads,
    yielded chunk by chunk and without a frame per nesting level: todo is
    a stack of text chunks and (value, depth) pairs. Strings go through
    the C string encoder, a list of strings in one join, and other
    scalars and empty containers through json.dumps itself. A non-str key
    raises TypeError."""
    todo = [(obj, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            yield item
            continue
        value, depth = item
        if isinstance(value, str):
            yield _encode_str(value)
            continue
        if not value or not isinstance(value, (dict, list, tuple)):
            yield json.dumps(value)
            continue
        inner = "\n" + "  " * (depth + 1)
        end = "\n" + "  " * depth
        if isinstance(value, dict):
            keys = sorted(value)
            for k in keys:
                if not isinstance(k, str):
                    raise TypeError("JSON keys must be str, not %r" % (k,))
            todo.append(end + "}")
            for i in range(len(keys) - 1, -1, -1):
                todo.append((value[keys[i]], depth + 1))
                todo.append(("," if i else "{") + inner
                            + _encode_str(keys[i]) + ": ")
        elif all(isinstance(x, str) for x in value):
            items = ("," + inner).join(map(_encode_str, value))
            yield "[" + inner + items + end + "]"
        else:
            todo.append(end + "]")
            for i in range(len(value) - 1, -1, -1):
                todo.append((value[i], depth + 1))
                todo.append(("," if i else "[") + inner)


def _emit(args, payload, text):
    if args.format == "json":
        sys.stdout.writelines(_json_chunks(payload))
        sys.stdout.write("\n")
    else:
        print(text)


def _module_set(raw):
    members = [m.strip() for m in raw.split(",") if m.strip()]
    if not members:
        raise FormatError("--module needs a comma-separated node list")
    return members


def _fmt_modules(mods):
    return ["{%s}" % ",".join(sorted(m)) for m in mods]


def _dot_string(text):
    """text as a DOT quoted string, with backslash and double quote
    escaped by a backslash."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(z, decomposition=None):
    lines = ["digraph decstruct {", "  rankdir=TB;"]
    q = _dot_string

    def node_line(v, indent="  "):
        shape = ' peripheries=2' if v == z.source else ""
        return '%s%s [label=%s%s];' % (indent, q(v), q(z.action_of[v]), shape)

    if decomposition is None:
        for v, _ in z.nodes:
            lines.append(node_line(v))
    else:
        # clusters in preorder; None closes the cluster opened at its indent
        clusters, stack = 0, [(decomposition, "  ")]
        while stack:
            d, indent = stack.pop()
            if d is None:
                lines.append('%s}' % indent)
            elif d.is_leaf():
                lines.append(node_line(d.node, indent))
            else:
                clusters += 1
                lines.append('%ssubgraph cluster_%d {' % (indent, clusters))
                lines.append('%s  label=%s;' % (indent, q(d.tag)))
                stack.append((None, indent))
                stack.extend((c, indent + "  ") for c in reversed(d.children))
    for t, h, r in z.arcs:
        lines.append('  %s -> %s [label=%s];' % (q(t), q(h), q(r)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _decomp_text(tree):
    lines, stack = [], [(tree, "")]
    while stack:
        d, indent = stack.pop()
        if d.is_leaf():
            lines.append("%sleaf %s (%s)" % (indent, d.node, d.action))
            continue
        lines.append("%s%s {%s}"
                     % (indent, d.tag, ",".join(sorted(d.members))))
        stack.extend((c, indent + "  ") for c in reversed(d.children))
    return lines


def _load_ltl_file(path):
    text = read_text(path)
    return parse_ltl("\n".join(code for _, _, code in text_lines(text)))


# -- subcommands -------------------------------------------------------------


def cmd_validate(args):
    z = load_structure(args.structure)
    payload = {"ok": True, "nodes": len(z.nodes), "arcs": len(z.arcs),
               "source": z.source, "labels": z.labels()}
    _emit(args, payload, "ok: %d nodes, %d arcs, source %s, labels {%s}"
          % (len(z.nodes), len(z.arcs), z.source, ",".join(z.labels())))
    return 0


def cmd_construct(args):
    term = parse_arch(read_text(args.term))
    if isinstance(term, list):
        z = construct_tr(term)
    elif isinstance(term, Pred):
        z = construct_dt(term)
    elif isinstance(term, (Op, Leaf)):
        z = construct_kbt(term)
    else:
        raise ArchError("unsupported term")
    sys.stdout.write(format_structure(z))
    return 0


def cmd_extract(args):
    z = load_structure(args.structure)
    tree = extract_kbt(z)
    if tree is None:
        _emit(args, {"ok": False},
              _bad("no operator tree expresses this structure"))
        return 1
    _emit(args, {"ok": True, "term": format_arch(tree)}, format_arch(tree))
    return 0


def cmd_modules(args):
    z = load_structure(args.structure)
    mods = find_modules(z) if args.trivial else nontrivial_modules(z)
    if args.trivial:
        mods = sorted(set(mods) | {frozenset([v]) for v in z.action_of},
                      key=lambda m: (len(m), sorted(m)))
    payload = {"modules": [sorted(m) for m in mods]}
    _emit(args, payload, "\n".join(_fmt_modules(mods)) or "(none)")
    return 0


def cmd_decompose(args):
    z = load_structure(args.structure)
    d = decompose(z)
    _emit(args, d.to_dict(), "\n".join(_decomp_text(d)))
    return 0


def cmd_complexity(args):
    z = load_structure(args.structure)
    rep = complexity_report(z)
    text = "cyclomatic %d\nessential  %d" % (rep["cyclomatic"],
                                             rep["essential"])
    if rep["witness"] and rep["essential"] > 1:
        text += "\nwitness    {%s}" % ",".join(rep["witness"])
    _emit(args, rep, text)
    return 0


def _jsonable_classification(res):
    out = dict(res)
    for key in ("kbt", "dt"):
        out[key] = format_arch(res[key]) if res[key] is not None else None
    return out


def cmd_classify(args):
    z = load_structure(args.structure)
    if not args.all_labelings:
        res = classify(z)
        _emit(args, _jsonable_classification(res), classify_text(res))
        return 0
    rows = []
    for zi in relabelings(z):
        res = classify(zi)
        rows.append({
            "arcs": ["%s->%s:%s" % (t, h, r) for t, h, r in zi.arcs],
            "essential": res["essential"],
            "is_bt": res["is_bt"],
        })
    summary = {"labelings": len(rows),
               "bt": sum(1 for r in rows if r["is_bt"])}
    lines = []
    for r in rows:
        flag = "bt" if r["is_bt"] else "not-bt(essential %d)" % r["essential"]
        lines.append("%-24s %s" % (flag, " ".join(r["arcs"])))
    lines.append("labelings %d, expressible as bt: %d"
                 % (summary["labelings"], summary["bt"]))
    _emit(args, {"summary": summary, "rows": rows}, "\n".join(lines))
    return 0


def cmd_contract(args):
    z = load_structure(args.structure)
    q = contract(z, _module_set(args.module))
    sys.stdout.write(format_structure(q))
    return 0


def cmd_expand(args):
    z = load_structure(args.structure)
    inner = load_structure(args.with_structure)
    out = expand(z, args.node, inner)
    sys.stdout.write(format_structure(out))
    return 0


def cmd_verify(args):
    z = load_structure(args.structure)
    world = load_world(args.world)
    specs = load_actions(args.actions)
    phi = _load_ltl_file(args.spec)
    verdict = verify(z, world, specs, phi, bound=args.bound,
                     limit=args.limit)
    payload = {"holds": verdict.holds, "stats": verdict.stats}
    if verdict.holds:
        note = ""
        if verdict.stats.get("bounded") and not verdict.stats.get("exhausted"):
            note = " (within bound only)"
            payload["conclusive"] = False
        _emit(args, payload, _good("holds") + note)
        return 0
    payload["failed"] = format_formula(verdict.conclusion)
    payload["counterexample"] = verdict.counterexample.to_dict(world)
    text = "%s: %s\n%s" % (_bad("fails"), payload["failed"],
                           verdict.counterexample.render(world))
    _emit(args, payload, text)
    return 1


def cmd_check_replace(args):
    world = load_world(args.world)
    specs = load_actions(args.actions)
    if (args.action or args.with_action) and (
            args.structure or args.module or args.with_structure):
        raise FormatError("--action/--with-action cannot be combined with "
                          "a structure, --module or --with")
    if args.action:
        if not args.with_action:
            raise FormatError("--action needs --with-action")
        report = check_action_replacement(world, specs, args.action,
                                          args.with_action, limit=args.limit)
        subject = "action %s -> %s" % (args.action, args.with_action)
    else:
        if not (args.structure and args.module and args.with_structure):
            raise FormatError("need --action/--with-action, or a structure "
                              "with --module/--with")
        z = load_structure(args.structure)
        q = load_structure(args.with_structure)
        members = _module_set(args.module)
        report = check_module_replacement(z, members, q, world, specs,
                                          limit=args.limit)
        subject = "module {%s}" % ",".join(sorted(members))
    payload = {
        "ok": report.ok,
        "behavior_holds": report.behavior.holds,
        "returns": {v: {"equal": d["equal"],
                        "required_zero": d["required_zero"],
                        "old": world.describe_mask(d["old"]),
                        "new": world.describe_mask(d["new"])}
                    for v, d in report.returns.items()},
        "notes": report.notes,
    }
    lines = ["%s: %s" % (subject,
                         _good("replaceable") if report.ok
                         else _bad("not replaceable"))]
    for v, d in sorted(report.returns.items()):
        status = "=" if d["equal"] else "differs"
        lines.append("  returns %s: %s  [%s]"
                     % (v, world.describe_mask(d["old"]), status))
    for n in report.notes:
        lines.append("  note: %s" % n)
    lines.append("  behavior: %s"
                 % ("entailed" if report.behavior.holds else "not entailed"))
    if not report.behavior.holds and report.behavior.counterexample:
        lines.append(report.behavior.counterexample.render(world))
    _emit(args, payload, "\n".join(lines))
    return 0 if report.ok else 1


def cmd_export_dot(args):
    z = load_structure(args.structure)
    d = decompose(z) if args.decomposition else None
    sys.stdout.write(export_dot(z, d))
    return 0


def cmd_export_fsm(args):
    z = load_structure(args.structure)
    sys.stdout.write(export_fsm(z))
    return 0


def cmd_export_obligation(args):
    z = load_structure(args.structure)
    world = load_world(args.world)
    specs = load_actions(args.actions)
    phi = _load_ltl_file(args.spec)
    sys.stdout.write(export_obligation(z, world, specs, phi))
    return 0


def build_parser():
    top = argparse.ArgumentParser(
        prog="decstruct",
        description="Inspect, transform and verify decision structures.")
    top.add_argument("--format", choices=("text", "json"), default="text")
    sub = top.add_subparsers(dest="command", required=True)

    # The global options are accepted after the subcommand as well; the
    # SUPPRESS default keeps the subparser from clobbering a value that was
    # already parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)

    verifying = argparse.ArgumentParser(add_help=False, parents=[common])
    verifying.add_argument("--world", required=True)
    verifying.add_argument("--actions", required=True)

    def add(name, fn, **kwargs):
        kwargs.setdefault("parents", [common])
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if name != "construct":  # the one subcommand without a structure
            p.add_argument("structure",
                           nargs="?" if name == "check-replace" else None)
        return p

    add("validate", cmd_validate, help="check a structure file")

    p = add("construct", cmd_construct,
            help="build the structure of an architecture term")
    p.add_argument("term")

    add("extract", cmd_extract,
        help="recover an operator tree from a structure")

    p = add("modules", cmd_modules, help="list modules")
    p.add_argument("--trivial", action="store_true",
                   help="include singletons and the full node set")

    add("decompose", cmd_decompose, help="modular decomposition tree")

    add("complexity", cmd_complexity,
        help="cyclomatic and essential complexity")

    p = add("classify", cmd_classify,
            help="which architectures express the structure")
    p.add_argument("--all-labelings", action="store_true",
                   help="sweep every s/f arc labeling")

    p = add("contract", cmd_contract, help="collapse a module to one node")
    p.add_argument("--module", required=True,
                   help="comma-separated node ids")

    p = add("expand", cmd_expand, help="replace a node by a structure")
    p.add_argument("--node", required=True)
    p.add_argument("--with", dest="with_structure", required=True,
                   metavar="STRUCTURE")

    p = add("verify", cmd_verify, parents=[verifying],
            help="model-check a structure in a world")
    p.add_argument("--spec", required=True)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    p = add("check-replace", cmd_check_replace, parents=[verifying],
            help="check an action or module replacement")
    p.add_argument("--action")
    p.add_argument("--with-action", dest="with_action")
    p.add_argument("--module")
    p.add_argument("--with", dest="with_structure", metavar="STRUCTURE")
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)

    p = add("export-dot", cmd_export_dot, help="graphviz view")
    p.add_argument("--decomposition", action="store_true",
                   help="nest nodes into decomposition clusters")

    add("export-fsm", cmd_export_fsm, help="finite state machine view")

    p = add("export-obligation", cmd_export_obligation, parents=[verifying],
            help="print the verification proof obligation")
    p.add_argument("--spec", required=True)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StructureError, LogicError, FormatError, ResourceLimit,
            OSError) as exc:
        print(_bad("error: %s" % exc), file=sys.stderr)
        return 1
    except RecursionError:
        print(_bad("error: input nested too deeply"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""decstruct benchmark: end-to-end times of the CLI, and a traced run
that splits them by layer.

    python3 perfbench/run.py --workload drone_verify --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout. Each workload is a closed loop with
one caller: one process, one thread, calling ``decstruct.cli.main`` in
process and starting each command only after the previous one returned.
Set-up (import, loading the corpus, generating and writing the inputs) is
repeated and timed on its own. Passes then run until ``--seconds`` is
used up; every output is checked against references in ``workloads.py``.

Between commands, and before each set-up, the run times a fixed
reference loop (``reference.py``). Dividing by its time takes the drift
in the machine's speed out of the timings; multiplying by its nominal
time, ``reference.UNIT_S``, reads the result in seconds again. These are
the reference seconds of the metrics named ``*_ref_s`` and of
``setup_s``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
timed in reference seconds; the report also gives wall and CPU seconds.
With ``--trace 1`` passes alternate untraced and traced, and the last
line holds the per-layer metrics. The lines before it are a readable
report. Reports, spans and the count records go to ``.perfbench/``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

import reference
import tracing
from reference import cpu_seconds
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 21


def fresh_import():
    """Import decstruct from this checkout, dropping any earlier import so
    that each set-up pays the module execution again."""
    for name in [n for n in sys.modules
                 if n == "decstruct" or n.startswith("decstruct.")]:
        del sys.modules[name]
    ds = importlib.import_module("decstruct")
    importlib.import_module("decstruct.cli")
    return ds


def load_corpus(ds):
    corpus = os.path.join(ROOT, "corpus")
    ds.load_world(os.path.join(corpus, "drone.wld"))
    ds.load_actions(os.path.join(corpus, "drone.act"))
    with open(os.path.join(corpus, "spec.ltl"), encoding="utf-8") as fh:
        ds.parse_ltl(" ".join(line.split("#", 1)[0] for line in fh))
    for name in sorted(os.listdir(corpus)):
        if name.endswith(".ds"):
            ds.load_structure(os.path.join(corpus, name))


def set_up(workload, seed, workdir):
    """Time SETUP_REPEATS full set-ups, each after a reference unit.
    Return the set-up CPU seconds, the units' CPU seconds and the input
    files of the last set-up."""
    times, units = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        units.append(reference.unit())
        t0 = cpu_seconds()
        ds = fresh_import()
        load_corpus(ds)
        inputs = workload.prepare(ds, ROOT, seed, workdir)
        times.append(cpu_seconds() - t0)
    return times, units, inputs


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    """Runs passes of one workload and keeps what they measured."""

    def __init__(self, workload):
        self.cli = sys.modules["decstruct.cli"]
        self.commands = workload.commands()
        self.first = {}        # label -> stdout of its first run
        # label -> (wall, cpu, ref) seconds of each untraced pass
        self.times = {c.label: [] for c in self.commands}
        self.units = []        # CPU seconds of the reference units, by pass
        self.attempted = 0
        self.errors = []

    def run_command(self, cmd):
        """Run one command; return its wall and CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(cmd.argv)
        except Exception as exc:  # a crash is a failed command, not a stop
            rc = "%s: %s" % (type(exc).__name__, exc)
        spent = (time.perf_counter() - t0, cpu_seconds() - c0)
        self.attempted += 1
        problem = self.judge(cmd, rc, out.getvalue(), err.getvalue())
        if problem:
            self.errors.append("%s: %s" % (cmd.label, problem))
        return spent

    def judge(self, cmd, rc, stdout, stderr):
        if rc != cmd.rc:
            return "exit %r, expected %d %s" % (rc, cmd.rc, stderr.strip())
        if cmd.label in self.first:
            if stdout != self.first[cmd.label]:
                return "output differs from the first pass"
            return None
        self.first[cmd.label] = stdout
        try:
            return cmd.check(json.loads(stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return "unreadable output: %s: %s" % (type(exc).__name__, exc)

    def run_pass(self, tracer=None):
        """One pass; return the wall, CPU and reference seconds its
        commands took. After each command, reference units run, one per
        started CPU second of the command. Reference seconds are CPU
        seconds divided by the mean unit of the pass, times UNIT_S.
        Command times are kept only when untraced."""
        spent, units = [], []
        for i, cmd in enumerate(self.commands):
            if tracer:
                tracer.command = i
            spent.append(self.run_command(cmd))
            for _ in range(max(1, math.ceil(spent[-1][1]))):
                units.append(reference.unit())
        self.units.append(units)
        scale = reference.UNIT_S / statistics.fmean(units)
        spent = [(wall, cpu, cpu * scale) for wall, cpu in spent]
        if not tracer:
            for cmd, s in zip(self.commands, spent):
                self.times[cmd.label].append(s)
        return tuple(sum(s[k] for s in spent) for k in range(3))


def timed_pass(runner, lengths, tracer=None):
    """run_pass, adding its wall seconds with the units to `lengths`."""
    t0 = time.perf_counter()
    result = runner.run_pass(tracer)
    lengths.append(time.perf_counter() - t0)
    return result


def measure(runner, seconds):
    """Untraced passes until the next one would overrun `seconds`."""
    start, passes, lengths = time.perf_counter(), [], []
    while True:
        passes.append(timed_pass(runner, lengths))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) > seconds:
            return passes


def measure_traced(runner, seconds):
    """Alternate untraced and traced passes until the next pair would
    overrun `seconds`; return both pass times and the traced passes'
    tracers."""
    start, plain, traced, tracers = time.perf_counter(), [], [], []
    lengths = []
    while True:
        plain.append(timed_pass(runner, lengths))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(timed_pass(runner, lengths, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + 2 * statistics.median(lengths) > seconds:
            return plain, traced, tracers


def check_counts(workload, inputs, layers):
    """The count metrics must repeat exactly: across the traced passes of
    this run, and across runs on the same inputs and program source."""
    counts = [{k: p[k] for k in tracing.COUNTS} for p in layers]
    problems = ["%s differs between traced passes" % k
                for k in tracing.COUNTS
                if len({c[k] for c in counts}) > 1]
    source = sorted(os.path.join(SRC, "decstruct", f)
                    for f in os.listdir(os.path.join(SRC, "decstruct"))
                    if f.endswith(".py"))
    key = "%s-%s-%s" % (workload.name, digest(inputs), digest(source))
    path = os.path.join(OUT, "counts", key + ".json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        problems += ["%s was %r in an earlier run, now %r"
                     % (k, before[k], counts[0][k])
                     for k in tracing.COUNTS if before.get(k) != counts[0][k]]
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(counts[0], fh, indent=1, sort_keys=True)
    return problems


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def setup_metrics(times, units):
    """Set-up time as the median of SETUP_REPEATS set-ups, in reference
    seconds (`setup_s`: each set-up's CPU seconds over the reference unit
    run just before it, times UNIT_S) and in CPU seconds."""
    n = len(times)
    return {
        "setup_s": metric(statistics.median(
            t / u for t, u in zip(times, units)) * reference.UNIT_S, "s", n),
        "setup_cpu_s": metric(statistics.median(times), "s", n)}


def end_to_end(workload, setup, passes, runner):
    """Each timing three times: as wall seconds (`*_s`), as CPU seconds
    (`*_cpu_s`), which leave out the time the process was waiting for a
    processor, and as reference seconds (`*_ref_s`), which also take out
    the drift in the machine's speed."""
    m = setup_metrics(*setup)
    for k, suffix in ((0, "_s"), (1, "_cpu_s"), (2, "_ref_s")):
        n = len(passes)
        m["pass" + suffix] = metric(statistics.median(p[k] for p in passes),
                                    "s", n)
        per_cmd = [statistics.median(t[k] for t in times)
                   for times in runner.times.values()]
        m["cmd_geomean" + suffix] = metric(
            math.exp(statistics.fmean(math.log(t) for t in per_cmd)), "s", n)
        for name, labels in workload.groups.items():
            sums = [sum(runner.times[label][i][k] for label in labels)
                    for i in range(n)]
            m[name + suffix] = metric(statistics.median(sums), "s", n)
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    m["failed_frac"] = metric(len(runner.errors) / runner.attempted, "frac",
                              runner.attempted)
    units = [u for per_pass in runner.units for u in per_pass]
    m["reference_unit_cpu_s"] = metric(statistics.median(units), "s",
                                       len(units))
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join(SRC, "decstruct", "cli.py"),
                 os.path.join(ROOT, "corpus", "drone.wld")):
        if not os.path.exists(need):
            print("perfbench: %s is missing; run from a decstruct checkout"
                  % os.path.relpath(need, ROOT), file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    if hasattr(os, "sched_setaffinity"):
        # Keep the one caller on one processor: moving between processors
        # costs it warm caches, and pass times spread more without this.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-%d-%d" % (workload.name, args.seed,
                                                   os.getpid()))
    os.makedirs(workdir)
    try:
        *setup, inputs = set_up(workload, args.seed, workdir)
        runner = Runner(workload)
        if args.trace:
            plain, traced, tracers = measure_traced(runner, args.seconds)
            layers = [tracing.layer_metrics(t.spans) for t in tracers]
            spans = [t.dump() for t in tracers]
            by_command = {
                runner.commands[i].label: per for i, per in
                tracing.self_time_by_command(tracers[-1].spans).items()}
            problems = check_counts(workload, inputs, layers)
            report = tracing.median_metrics(layers)
            plain_ref = statistics.median(p[2] for p in plain)
            traced_ref = statistics.median(p[2] for p in traced)
            report["trace.overhead_frac"] = traced_ref / plain_ref - 1
            report = {k: metric(v, tracing.unit(k), len(layers))
                      for k, v in sorted(report.items())}
            report["pass_ref_s"] = metric(plain_ref, "s", len(plain))
            report["traced_pass_ref_s"] = metric(traced_ref, "s", len(traced))
        else:
            passes = measure(runner, args.seconds)
            problems, by_command = [], {}
            report = end_to_end(workload, setup, passes, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = runner.errors + problems
    tag = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    with open(os.path.join(OUT, "report-%s.json" % tag), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "problems": problems, "metrics": report,
                   "command_times": runner.times,
                   "reference_units": runner.units,
                   "self_time_by_command": by_command}, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT, "spans-%s.json" % tag), "w",
                  encoding="utf-8") as fh:
            json.dump({"commands": [c.label for c in runner.commands],
                       "passes": spans}, fh)

    print("workload %s, seed %d, %d commands attempted, %d failed"
          % (workload.name, args.seed, runner.attempted, len(runner.errors)))
    for name, m in report.items():
        print("  %-40s %14.6g %-6s n=%d" % (name, m["value"], m["unit"],
                                             m["samples"]))
    for label, per in by_command.items():
        print("  %s, largest self times: %s" % (label, ", ".join(
            "%s %.4g s" % kv for kv in list(per.items())[:3])))
    for p in problems:
        print("  problem: %s" % p)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        wanted = [m["name"] for m in
                  json.load(fh)["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {k: {"value": report[k]["value"], "unit": report[k]["unit"]}
                    for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

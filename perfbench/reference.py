"""A fixed reference loop that measures how fast the machine runs right now.

On a shared virtual machine the same work takes a different number of CPU
seconds from one minute to the next: the other tenants of the host share
its caches, memory bandwidth and cores. The benchmark runs this loop
between the commands it times and divides by its time, so that a drift
in the machine's speed cancels out while a change in the program does not.

The loop is pure Python and does the kinds of work decstruct's hot paths
do: proper-subset tests between frozensets of node ids (the ``maximal``
filter of ``decompose``), a dict and set walk over a graph (the module
searches), and a product of covers that ANDs wide integer state masks and
keys a dict by pairs of frozensets (the tableau build of the verifier).
Its data are built once, from a fixed seed, and do not depend on
decstruct, so no change to the program can move it.
"""

import random
import resource

# A reference unit takes about this many CPU seconds on one core of a
# two-core 2.1 GHz Intel Xeon virtual machine. Timings divided by a unit's
# measured time are multiplied by it, to read in seconds again.
UNIT_S = 0.07

_rng = random.Random(20081215)
_ids = ["p%03d" % i for i in range(80)]
_rng.shuffle(_ids)
# Every run of two or more consecutive ids: the modules of a chain.
_SETS = sorted({frozenset(_ids[i:j]) for i in range(len(_ids))
                for j in range(i + 2, len(_ids) + 1)},
               key=lambda m: (len(m), sorted(m)))
_PROBED = _SETS[::7] + _SETS[-1:]
_GRAPH = [[_rng.randrange(10000) for _ in range(3)] for _ in range(10000)]
# Covers over an 864-state world: (state mask, next set, pending set).
_COVERS = [(_rng.getrandbits(864), frozenset([("x", _rng.randrange(12))]),
            frozenset([("u", _rng.randrange(3))])) for _ in range(150)]


def cpu_seconds():
    """CPU seconds used so far by this process and its finished children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def unit():
    """Run one reference unit; return the CPU seconds it took."""
    c0 = cpu_seconds()
    maximal = [m for m in _PROBED if not any(m < o for o in _SETS)]
    reached = 0
    for start in (0, 5000):
        seen, stack = {start}, [start]
        while stack:
            for h in _GRAPH[stack.pop()]:
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        reached += len(seen)
    product = {}
    for m1, n1, p1 in _COVERS:
        for m2, n2, p2 in _COVERS:
            m = m1 & m2
            if m:
                key = (n1 | n2, p1 | p2)
                product[key] = product.get(key, 0) | m
    spent = cpu_seconds() - c0
    if len(maximal) != 1 or not reached or not product:
        raise AssertionError("reference loop computed a wrong result")
    return spent

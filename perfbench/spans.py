"""Spans recorded from the benchmark's side.  The traced run wraps sclab's
functions in place, in the module namespaces the workload's own calls go
through, and adds up, per span name, the inclusive time, the self time (the
span minus its child spans), the calls and a count taken from each call.
Nothing inside sclab is changed."""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass


def _states(args, result) -> int:
    return result.dfa.state_count


# (submodule, attribute, span name, count taken from the call's arguments and
# result).  Each function is wrapped where its callers look it up:
# ``state_complexity`` reaches ``combined`` and ``minimize`` through
# ``minimization``, ``combined`` reaches ``first_component`` and ``product``
# through ``constructions``, and ``search_max`` reaches its helpers through
# ``oracle``.
POINTS = (
    ("", "witness_pair", "witnesses.witness_pair", None),
    ("", "state_complexity", "minimization.state_complexity", None),
    ("oracle", "state_complexity", "minimization.state_complexity", None),
    ("minimization", "combined", "constructions.combined", None),
    ("constructions", "first_component", "constructions.first_component", _states),
    ("oracle", "first_component", "constructions.first_component", _states),
    ("constructions", "product", "constructions.product", _states),
    ("minimization", "minimize", "minimization.minimize", lambda a, d: d.state_count),
    # Partition refinement; the count is the states refined.
    ("minimization", "_refine", "minimization.refine", lambda a, r: a[0]),
    ("oracle", "_refine", "minimization.refine", lambda a, r: a[0]),
    ("", "search_max", "oracle.search_max", lambda a, r: r.machines_examined),
    ("oracle", "enumerate_dfas", "oracle.enumerate_dfas", lambda a, n: n),
    ("oracle", "random_dfa", "oracle.random_dfa", None),
    # The search's per-pair kernel: pair machine and refinement; the count is
    # the pair's minimal size.
    ("oracle", "_measured_size", "oracle.measured_size", lambda a, size: size),
)


@dataclass
class Totals:
    """One span name's sums over the recorded spans."""

    inclusive: float = 0.0
    self_time: float = 0.0
    calls: int = 0
    count: int = 0


class Tracer:
    """While active, adds every wrapped call to ``totals``."""

    def __init__(self, lib):
        self.lib = lib
        self.totals: defaultdict[str, Totals] = defaultdict(Totals)
        # Time covered by child spans, one entry per open span.
        self._children: list[float] = []

    def _wrap(self, name, fn, count):
        totals, children = self.totals, self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                t = totals[name]
                t.inclusive += elapsed
                t.self_time += elapsed - inner
                t.calls += 1
            if count is not None:
                t.count += count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Clear the totals, wrap every point, and restore the originals on
        exit.  A point the program does not have is left out and reads 0."""
        self.totals.clear()
        saved = []
        try:
            for sub, attr, name, count in POINTS:
                module = getattr(self.lib, sub) if sub else self.lib
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

"""The reference task: a fixed piece of pure-Python work, independent of
sclab, that the runner times between the workload's ops.

The host this benchmark was written on changes speed by 1.3-1.5x for stretches
of seconds to minutes, whatever runs on it.  A pass timed next to the
reference task and divided by it reads the same in a fast stretch and in a
slow one, so the end-to-end times are reported in reference-task durations
(unit ``ref``) as well as in seconds.  The task does the kind of work sclab's
inner loops do: a reachable-product search over tuple states interned in a
dict, then Moore refinement by signature tuples.  It never changes with the
program, so a program that gets faster reads fewer ``ref``.
"""

from __future__ import annotations

import random
import time

SIGMA = 3


def _machine(states: int, seed: int) -> tuple[list[tuple[int, ...]], list[bool]]:
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(states) for _ in range(SIGMA)) for _ in range(states)]
    finals = [rng.random() < 0.5 for _ in range(states)]
    return rows, finals


LEFT = _machine(40, 1)
RIGHT = _machine(50, 2)


def task() -> tuple[int, int]:
    """Product states reached and minimal states of the symmetric difference
    of the two fixed machines."""
    (rows1, fin1), (rows2, fin2) = LEFT, RIGHT
    index = {(0, 0): 0}
    order = [(0, 0)]
    rows: list[tuple[int, ...]] = []
    i = 0
    while i < len(order):
        p, q = order[i]
        i += 1
        row = []
        for a in range(SIGMA):
            t = (rows1[p][a], rows2[q][a])
            j = index.get(t)
            if j is None:
                j = index[t] = len(order)
                order.append(t)
            row.append(j)
        rows.append(tuple(row))
    block = [int(fin1[p] != fin2[q]) for p, q in order]
    count = len(set(block))
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        block = [
            signatures.setdefault((block[q], *(block[t] for t in row)), len(signatures))
            for q, row in enumerate(rows)
        ]
        if len(signatures) == count:
            return len(order), count
        count = len(signatures)


EXPECTED = task()


def timed() -> float:
    """Run the task once and return its wall time; raises if its result
    ever changes."""
    start = time.perf_counter()
    result = task()
    elapsed = time.perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"reference task gave {result}, expected {EXPECTED}")
    return elapsed


"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
from typing import Iterator

from sclab import Alphabet, Dfa, Word

AB = Alphabet(("a", "b"))


def mkdfa(
    alphabet: Alphabet,
    rows: list[tuple[int, ...]],
    finals: set[int],
    start: int = 0,
) -> Dfa:
    return Dfa(alphabet, len(rows), start, frozenset(finals), tuple(rows))


def rebuilt(d: Dfa) -> Dfa:
    """``d`` built again through the checked constructor."""
    return Dfa(d.alphabet, d.state_count, d.start, d.finals, d.delta)


def words_upto(sigma: int, maxlen: int) -> Iterator[Word]:
    """Every word over symbol indices 0..sigma-1 of length at most maxlen."""
    for length in range(maxlen + 1):
        yield from itertools.product(range(sigma), repeat=length)


def simulated(d: Dfa, start, step) -> list:
    """Walk ``d`` from its start alongside a simulation that begins at
    ``start`` and moves by ``step(value, symbol)``, and give each state the
    value its incoming edges lead to; ``None`` for unreachable states.
    Asserts that every reachable state gets exactly one value."""
    values = [None] * d.state_count
    values[d.start] = start
    queue = [d.start]
    for q in queue:
        for a, t in enumerate(d.delta[q]):
            value = step(values[q], a)
            if values[t] is None:
                values[t] = value
                queue.append(t)
            else:
                assert values[t] == value, (d, t, values[t], value)
    return values


def reversal_simulation(d: Dfa):
    """The subsets a reversed run of ``d`` holds: it starts at the finals,
    and a step on ``a`` keeps the states ``a`` sends into the subset."""

    def step(subset, a):
        return frozenset(p for p, row in enumerate(d.delta) if row[a] in subset)

    return frozenset(d.finals), step


# The star machine's added start, which steps like ``{start}``.
FRESH_START = "FRESH_START"


def star_simulation(d: Dfa):
    """The subsets a star run of ``d`` holds: from ``FRESH_START`` every
    token moves on each symbol, and the start is added back whenever the
    image meets the finals."""

    def step(subset, a):
        if subset == FRESH_START:
            subset = (d.start,)
        image = frozenset(d.delta[q][a] for q in subset)
        return image | {d.start} if image & d.finals else image

    return FRESH_START, step


def first_simulation(d: Dfa, op):
    """The simulation of ``op``'s first component on ``d``."""
    return star_simulation(d) if op.uses_star else reversal_simulation(d)


def paired_simulation(simulation, dN: Dfa):
    """A first simulation run side by side with ``dN``'s state."""
    start, step = simulation

    def paired_step(value, a):
        first, j = value
        return step(first, a), dN.delta[j][a]

    return (start, dN.start), paired_step

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

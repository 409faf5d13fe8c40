"""Machines for star and reversal, pair machines for union and intersection,
and the four pipelines combining them.

Each construction returns its state count and a transition table built on
first read.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Literal

from .core import Alphabet, Dfa, require_same_alphabet

BooleanMode = Literal["union", "intersection"]


class CombinedOp(Enum):
    """The four measured pipelines; values double as their command names."""

    STAR_UNION = "star-union"
    STAR_INTERSECTION = "star-intersection"
    REVERSAL_UNION = "reversal-union"
    REVERSAL_INTERSECTION = "reversal-intersection"

    @property
    def uses_star(self) -> bool:
        return self in (CombinedOp.STAR_UNION, CombinedOp.STAR_INTERSECTION)

    @property
    def boolean_mode(self) -> BooleanMode:
        if self in (CombinedOp.STAR_UNION, CombinedOp.REVERSAL_UNION):
            return "union"
        return "intersection"


def _check_op(op: object) -> None:
    """Refuse anything but a ``CombinedOp``, such as its command name,
    which would otherwise be read as some other op or fail deep inside."""
    if not isinstance(op, CombinedOp):
        raise ValueError(f"need a CombinedOp, got {op!r}")


class SubsetDfa:
    """A constructed machine: ``state_count`` is known as soon as the
    machine is, and ``dfa`` calls ``build`` for the transition table on first
    read, so a caller that only wants the size never pays for the table."""

    __slots__ = ("state_count", "_dfa", "_build")

    def __init__(self, state_count: int, build: Callable[[], Dfa]):
        self.state_count = state_count
        self._dfa: Dfa | None = None
        self._build: Callable[[], Dfa] | None = build

    @property
    def dfa(self) -> Dfa:
        if self._dfa is None:
            self._dfa, self._build = self._build(), None
        return self._dfa


def _mask(states: Iterable[int]) -> int:
    """Bit-set of the given state indices."""
    bits = 0
    for q in states:
        bits |= 1 << q
    return bits


def _image(mask: int, column: list[int]) -> int:
    """Union of ``column[q]``, a bit-set per state, over the states in
    ``mask``: the subset reached from ``mask`` on one symbol."""
    image = 0
    while mask:
        low = mask & -mask
        image |= column[low.bit_length() - 1]
        mask ^= low
    return image


def _subset_walk(
    alphabet: Alphabet, columns: list[list[int]], start: int, final_mask: int
) -> SubsetDfa:
    """The subset construction behind the star and reversal components:
    reachable subsets from the bit-set ``start``, where ``columns[a][q]`` is
    the bit-set of successors of ``q`` on ``a``, final iff they meet
    ``final_mask``.

    The walk numbers the subsets in discovery order and records the target
    of every (subset, letter) in one flat list, so its size is known when it
    returns.  The transition table is cut from that list when ``dfa`` is
    first read.
    """
    index = {start: 0}
    order = [start]
    targets = []
    for subset in order:
        for column in columns:
            image = 0
            mask = subset
            while mask:
                low = mask & -mask
                image |= column[low.bit_length() - 1]
                mask ^= low
            t = index.get(image)
            if t is None:
                t = index[image] = len(order)
                order.append(image)
            targets.append(t)

    def build() -> Dfa:
        rows = tuple(zip(*[iter(targets)] * len(columns)))
        finals = frozenset(i for i, subset in enumerate(order) if subset & final_mask)
        return Dfa._trusted(alphabet, len(order), 0, finals, rows)

    return SubsetDfa(len(order), build)


def _reversal(d: Dfa) -> SubsetDfa:
    """The reachable reversed machine: a subset walk over the predecessor
    bit-sets of ``d``, from the set of finals; a subset is final iff it
    holds the start."""
    columns = [[0] * d.state_count for _ in range(d.sigma)]
    for p, row in enumerate(d.delta):
        bit = 1 << p
        for column, q in zip(columns, row):
            column[q] |= bit
    return _subset_walk(d.alphabet, columns, _mask(d.finals), 1 << d.start)


def _star(d: Dfa) -> SubsetDfa:
    """The reachable star machine: a subset walk from a fresh start bit
    ``m`` that steps like ``d.start``.  Every token moves on each symbol, and
    a token landing on a final state adds a restart at ``d.start``; a subset
    is final iff it meets the finals, and the fresh start accepts the empty
    word.  Works for any machine."""
    m, start_bit = d.state_count, 1 << d.start
    columns = [
        [1 << t | start_bit if t in d.finals else 1 << t for t in column]
        for column in zip(*d.delta)
    ]
    for column in columns:
        column.append(column[d.start])
    return _subset_walk(d.alphabet, columns, 1 << m, _mask(d.finals) | 1 << m)


def star_explicit(d: Dfa) -> SubsetDfa:
    """Subset-based star machine with an injected start state.

    Writing F0 for the finals other than the start (k = |F0|), the states
    are: the injected start; every non-empty subset disjoint from F0; and
    every subset containing the start and meeting F0.  A transition takes
    the elementwise image and re-adds the start whenever the image meets
    F0, modelling a restart after a completed factor; the injected start
    behaves like the singleton {start} under this rule.  Finals are the
    injected start and every subset meeting ``d.finals``.  The injected
    start is state 0, then the subsets follow in increasing bit-set order.

    The result accepts the star of ``d``'s language and has exactly
    ``2**(m-1) + 2**(m-k-1)`` states, counting unreachable ones.
    """
    f0_mask = _mask(d.finals - {d.start})
    start_bit = 1 << d.start

    index: dict[int, int] = {}
    members: list[int] = []
    for mask in range(1, 1 << d.state_count):
        if (mask & f0_mask) == 0 or (mask & start_bit and mask & f0_mask):
            index[mask] = len(members) + 1
            members.append(mask)

    columns = [[1 << row[a] for row in d.delta] for a in range(d.sigma)]
    rows = []
    for mask in (start_bit, *members):
        row = []
        for column in columns:
            image = _image(mask, column)
            row.append(index[image | start_bit if image & f0_mask else image])
        rows.append(tuple(row))
    final_mask = _mask(d.finals)
    finals = frozenset({0}) | frozenset(
        index[mask] for mask in members if mask & final_mask
    )
    dfa = Dfa._trusted(d.alphabet, 1 + len(members), 0, finals, tuple(rows))
    return SubsetDfa(dfa.state_count, lambda: dfa)


def pair_rows(
    d1: Dfa, d2: Dfa
) -> tuple[list[tuple[int, int]], list[tuple[int, ...]]]:
    """Reachable pairs of the componentwise pair machine in breadth-first
    discovery order from the start pair, with each pair's transition row as
    positions in that order.  The machines must share an alphabet."""
    delta1, delta2 = d1.delta, d2.delta
    start = (d1.start, d2.start)
    index = {start: 0}
    pairs = [start]
    rows = []
    for i, j in pairs:
        row = []
        for key in zip(delta1[i], delta2[j]):
            t = index.get(key)
            if t is None:
                t = index[key] = len(pairs)
                pairs.append(key)
            row.append(t)
        rows.append(tuple(row))
    return pairs, rows


def pair_finals(
    pairs: list[tuple[int, int]], d1: Dfa, d2: Dfa, mode: BooleanMode
) -> list[bool]:
    """Per ``(i, j)`` pair: either side final (union) or both (intersection)."""
    f1, f2 = d1.finals, d2.finals
    if mode == "union":
        return [i in f1 or j in f2 for i, j in pairs]
    return [i in f1 and j in f2 for i, j in pairs]


def product(d1: Dfa, d2: Dfa, mode: BooleanMode) -> SubsetDfa:
    """Reachable pair machine with componentwise transitions and finals from
    ``pair_finals``, its pairs numbered in ``pair_rows`` order."""
    require_same_alphabet(d1, d2)
    if mode not in ("union", "intersection"):
        raise ValueError(f"unknown mode: {mode!r}")
    pairs, rows = pair_rows(d1, d2)
    finals = frozenset(t for t, f in enumerate(pair_finals(pairs, d1, d2, mode)) if f)
    dfa = Dfa._trusted(d1.alphabet, len(pairs), 0, finals, tuple(rows))
    return SubsetDfa(dfa.state_count, lambda: dfa)


def first_component(d: Dfa, op: CombinedOp) -> SubsetDfa:
    """The star or reversal half of a combined pipeline: the reachable
    subset walk of the star machine or of the reversed machine."""
    _check_op(op)
    return _star(d) if op.uses_star else _reversal(d)


def first_component_cap(op: CombinedOp, m: int, finals: frozenset[int]) -> int:
    """The most states ``first_component`` can reach on an ``m``-state
    machine that starts at 0 and has these finals.  With k finals other than
    the start, the star walk reaches at most ``2**(m-1) + 2**(m-k-1)`` subsets
    for k >= 1, and only singletons after the fresh start for k = 0.  The
    reversal walk stays on its start subset when that is empty or whole."""
    if op.uses_star:
        k = len(finals - {0})
        return m + 1 if k == 0 else 2 ** (m - 1) + 2 ** (m - k - 1)
    return 1 if len(finals) in (0, m) else 2**m


def combined(dM: Dfa, dN: Dfa, op: CombinedOp) -> SubsetDfa:
    """Full pipeline: star or reversal of ``dM``, then union or intersection
    with ``dN``.

    The result is the reachable product of the first component with ``dN``,
    not minimised.
    """
    require_same_alphabet(dM, dN)
    return product(first_component(dM, op).dfa, dN, op.boolean_mode)

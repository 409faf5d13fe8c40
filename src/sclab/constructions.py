"""Machines for star and reversal, pair machines for union and intersection,
and the four pipelines combining them.

Subset-valued states carry labels describing what they denote: a frozenset
of source-machine states, the ``NEW_START`` marker for the injected start of
the star machine, or a ``(first, j)`` pair after a product.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Literal

from .core import Alphabet, Dfa, Nfa, require_same_alphabet


class _NewStart:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NEW_START"


NEW_START = _NewStart()

Label = object

BooleanMode = Literal["union", "intersection"]


class StarPrecondition(ValueError):
    """The explicit star machine needs a final state other than the start."""


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


class SubsetDfa:
    """A DFA plus one label per state recording what the state denotes.

    ``state_count`` is known as soon as the machine is.  The subset
    constructions record the walk rather than its table: ``dfa`` builds the
    transition table on first read, and ``labels`` decodes the bit-set of
    every state on first read, so a caller that only wants the size pays for
    neither.
    """

    __slots__ = ("state_count", "_dfa", "_build", "_labels", "_decode")

    def __init__(self, dfa: Dfa, labels: Iterable[Label]):
        self.state_count = dfa.state_count
        self._dfa: Dfa | None = dfa
        self._build: Callable[[], Dfa] | None = None
        self._labels: tuple[Label, ...] | None = tuple(labels)
        self._decode: Callable[[], Iterable[Label]] | None = None
        if len(self._labels) != dfa.state_count:
            raise ValueError("need exactly one label per state")

    @classmethod
    def _deferred(
        cls,
        state_count: int,
        build: Callable[[], Dfa],
        decode: Callable[[], Iterable[Label]],
    ) -> SubsetDfa:
        """A machine of ``state_count`` states whose table ``build`` returns
        and whose labels ``decode`` yields, one per state, each when first
        read."""
        sub = cls.__new__(cls)
        sub.state_count = state_count
        sub._dfa, sub._build = None, build
        sub._labels, sub._decode = None, decode
        return sub

    @property
    def dfa(self) -> Dfa:
        if self._dfa is None:
            self._dfa, self._build = self._build(), None
        return self._dfa

    @property
    def labels(self) -> tuple[Label, ...]:
        if self._labels is None:
            self._labels = tuple(self._decode())
            self._decode = None
        return self._labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubsetDfa):
            return NotImplemented
        return self.dfa == other.dfa and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.dfa, self.labels))

    def __repr__(self) -> str:
        return f"SubsetDfa(dfa={self.dfa!r}, labels={self.labels!r})"


def _mask(states: Iterable[int]) -> int:
    """Bit-set of the given state indices."""
    bits = 0
    for q in states:
        bits |= 1 << q
    return bits


def _mask_to_frozenset(mask: int) -> frozenset[int]:
    return frozenset(q for q in range(mask.bit_length()) if mask >> q & 1)


def _image(mask: int, column: list[int]) -> int:
    """Union of ``column[q]``, a bit-set per state, over the states in
    ``mask``: the subset reached from ``mask`` on one symbol."""
    image = 0
    while mask:
        low = mask & -mask
        image |= column[low.bit_length() - 1]
        mask ^= low
    return image


def reverse_to_nfa(d: Dfa) -> Nfa:
    """Reverse every edge and swap the roles of start and finals.

    The result accepts exactly the reversals of the words ``d`` accepts.  A
    machine with no final states reverses to an NFA with no start states.
    """
    sigma = d.sigma
    cells: list[list[set[int]]] = [
        [set() for _ in range(sigma)] for _ in range(d.state_count)
    ]
    for q in range(d.state_count):
        row = d.delta[q]
        for a in range(sigma):
            cells[row[a]][a].add(q)
    delta = tuple(tuple(frozenset(cell) for cell in row) for row in cells)
    return Nfa(d.alphabet, d.state_count, d.finals, frozenset({d.start}), delta)


def _subset_walk(
    alphabet: Alphabet, columns: list[list[int]], start: int, final_mask: int
) -> SubsetDfa:
    """The subset construction behind ``determinize`` and the star and
    reversal components: reachable subsets from the bit-set ``start``, where
    ``columns[a][q]`` is the bit-set of successors of ``q`` on ``a``, final
    iff they meet ``final_mask``.

    The walk numbers the subsets in discovery order and records the target
    of every (subset, letter) in one flat list, so its size is known when it
    returns.  The transition table is cut from that list when ``dfa`` is
    first read, and the labels decode to the subsets as frozensets when
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

    return SubsetDfa._deferred(
        len(order), build, lambda: map(_mask_to_frozenset, order)
    )


def determinize(nf: Nfa) -> SubsetDfa:
    """Subset construction from the set of start states.

    The result is complete: an empty transition image leads to the empty
    subset, which is a non-final sink.  A subset state is final iff it meets
    ``nf.finals``.  Labels record the subsets, and states are numbered in
    breadth-first discovery order, so the output is already in canonical
    form.
    """
    columns = [[_mask(row[a]) for row in nf.delta] for a in range(nf.sigma)]
    return _subset_walk(nf.alphabet, columns, _mask(nf.starts), _mask(nf.finals))


def _reversal(d: Dfa) -> SubsetDfa:
    """``determinize(reverse_to_nfa(d))`` built straight from the
    predecessor bit-sets of ``d``: the walk starts at the finals, and a
    subset is final iff it holds the start."""
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
    word.  Works for any machine.  The fresh start is labelled
    ``NEW_START``, every other state its subset as a frozenset."""
    m, start_bit = d.state_count, 1 << d.start
    columns = [
        [1 << t | start_bit if t in d.finals else 1 << t for t in column]
        for column in zip(*d.delta)
    ]
    for column in columns:
        column.append(column[d.start])
    walk = _subset_walk(d.alphabet, columns, 1 << m, _mask(d.finals) | 1 << m)
    return SubsetDfa._deferred(
        walk.state_count, lambda: walk.dfa, lambda: (NEW_START, *walk.labels[1:])
    )


def star_explicit(d: Dfa) -> SubsetDfa:
    """Subset-based star machine with an injected start state.

    Writing F0 for the finals other than the start (k = |F0|, required
    non-empty), the states are: the injected start; every non-empty subset
    disjoint from F0; and every subset containing the start and meeting F0.
    A transition takes the elementwise image and re-adds the start whenever
    the image meets F0, modelling a restart after a completed factor; the
    injected start behaves like the singleton {start} under this rule.
    Finals are the injected start and every subset meeting ``d.finals``.

    The result accepts the star of ``d``'s language and has exactly
    ``2**(m-1) + 2**(m-k-1)`` states, counting unreachable ones.
    """
    restart_finals = d.finals - {d.start}
    if not restart_finals:
        raise StarPrecondition(
            "the explicit star machine needs a final state other than the "
            "start; with none, the language is already its own star (start "
            "final) or the star is just the empty word (no finals)"
        )
    f0_mask = _mask(restart_finals)
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
    return SubsetDfa._deferred(
        dfa.state_count,
        lambda: dfa,
        lambda: (NEW_START, *map(_mask_to_frozenset, members)),
    )


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
    """Reachable pair machine with componentwise transitions, finals from
    ``pair_finals``, and the ``(i, j)`` pairs as labels in breadth-first
    discovery order."""
    require_same_alphabet(d1, d2)
    if mode not in ("union", "intersection"):
        raise ValueError(f"unknown mode: {mode!r}")
    pairs, rows = pair_rows(d1, d2)
    finals = frozenset(t for t, f in enumerate(pair_finals(pairs, d1, d2, mode)) if f)
    dfa = Dfa._trusted(d1.alphabet, len(pairs), 0, finals, tuple(rows))
    return SubsetDfa(dfa, tuple(pairs))


def first_component(d: Dfa, op: CombinedOp) -> SubsetDfa:
    """The star or reversal half of a combined pipeline: the reachable
    subset walk of the star machine or of the reversed machine."""
    return _star(d) if op.uses_star else _reversal(d)


def first_component_cap(
    op: CombinedOp, m: int, start: int, finals: frozenset[int]
) -> int:
    """The most states ``first_component`` can reach on an ``m``-state
    machine with this start and these finals.  With k finals other than the
    start, the star walk reaches at most ``2**(m-1) + 2**(m-k-1)`` subsets
    for k >= 1, and only singletons after the fresh start for k = 0.  The
    reversal walk stays on its start subset when that is empty or whole."""
    if op.uses_star:
        k = len(finals - {start})
        return m + 1 if k == 0 else 2 ** (m - 1) + 2 ** (m - k - 1)
    return 1 if len(finals) in (0, m) else 2**m


def combined(dM: Dfa, dN: Dfa, op: CombinedOp) -> SubsetDfa:
    """Full pipeline: star or reversal of ``dM``, then union or intersection
    with ``dN``.

    The result is reachable but not minimised; labels pair the first
    component's label with the second machine's state index.
    """
    require_same_alphabet(dM, dN)
    first = first_component(dM, op)
    prod = product(first.dfa, dN, op.boolean_mode)
    return SubsetDfa._deferred(
        prod.state_count,
        lambda: prod.dfa,
        lambda: ((first.labels[i], j) for i, j in prod.labels),
    )

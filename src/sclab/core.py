"""Finite automata as immutable values.

States are dense 0-based indices and symbols are addressed by their index in
the alphabet; subset states in the construction modules are bit-sets over
these indices.  Constructors normalise their fields, so structural equality
(``==``) is meaningful and canonical forms can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Word = tuple[int, ...]


class AlphabetMismatch(ValueError):
    """Raised by binary operations when the two machines' alphabets differ."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol names; the index of a name is the symbol's identity."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must have at least one symbol")
        seen: set[str] = set()
        for name in self.symbols:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"bad symbol name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol: {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self.symbols.index(name)
        except ValueError:
            raise ValueError(f"unknown symbol: {name!r}") from None

    def word(self, text: str) -> Word:
        """Build a word from single-character symbol names, e.g. ``"abca"``."""
        return tuple(self.index(ch) for ch in text)


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton.

    ``delta[state][symbol]`` is the target state.  A ``None`` entry (or a
    short row) marks a missing transition and is only meaningful as input to
    ``validate_dfa`` and ``complete_dfa``; everything else expects complete
    machines.  State numbers carry no meaning beyond identity.
    """

    alphabet: Alphabet
    state_count: int
    start: int
    finals: frozenset[int]
    delta: tuple[tuple[int | None, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))

    @property
    def sigma(self) -> int:
        return len(self.alphabet.symbols)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton with a set of initial states and no
    epsilon transitions; ``delta[state][symbol]`` is a possibly empty set of
    targets.  ``starts`` may be empty, in which case nothing is accepted.
    """

    alphabet: Alphabet
    state_count: int
    starts: frozenset[int]
    finals: frozenset[int]
    delta: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", frozenset(self.starts))
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(
            self,
            "delta",
            tuple(tuple(frozenset(cell) for cell in row) for row in self.delta),
        )

    @property
    def sigma(self) -> int:
        return len(self.alphabet.symbols)


def validate_dfa(d: Dfa) -> list[str]:
    """Diagnostics for every violated invariant; an empty list means valid."""
    out: list[str] = []
    m = d.state_count
    if m < 1:
        out.append(f"state count must be positive, got {m}")
        return out
    names = d.alphabet.symbols
    sigma = len(names)
    if not 0 <= d.start < m:
        out.append(f"start state {d.start} out of range for {m} states")
    for q in sorted(d.finals):
        if not 0 <= q < m:
            out.append(f"final state {q} out of range for {m} states")
    if len(d.delta) != m:
        out.append(f"transition table has {len(d.delta)} rows for {m} states")
    for q, row in enumerate(d.delta[:m]):
        if len(row) > sigma:
            out.append(f"state {q} has {len(row)} transitions for {sigma} symbols")
        for a in range(sigma):
            t = row[a] if a < len(row) else None
            if t is None:
                out.append(f"missing transition from state {q} on symbol {names[a]!r}")
            elif not 0 <= t < m:
                out.append(
                    f"transition from state {q} on symbol {names[a]!r} "
                    f"targets {t}, out of range for {m} states"
                )
    return out


def complete_dfa(d: Dfa) -> Dfa:
    """Complete ``d`` by routing every missing transition to a fresh sink.

    The sink is non-final and added only when some transition is actually
    missing, so the accepted language is unchanged and an already complete
    machine is returned as is.  All present indices must be valid.
    """
    m, sigma = d.state_count, d.sigma
    if m < 1:
        raise ValueError(f"state count must be positive, got {m}")
    if not 0 <= d.start < m or any(not 0 <= q < m for q in d.finals):
        raise ValueError("start or final state out of range")
    if len(d.delta) != m:
        raise ValueError(f"transition table has {len(d.delta)} rows for {m} states")
    missing = False
    for row in d.delta:
        if len(row) > sigma:
            raise ValueError("transition row longer than the alphabet")
        if any(t is not None and not 0 <= t < m for t in row):
            raise ValueError("transition target out of range")
        if len(row) < sigma or any(t is None for t in row):
            missing = True
    if not missing:
        return d
    sink = m
    rows = [
        tuple(
            row[a] if a < len(row) and row[a] is not None else sink
            for a in range(sigma)
        )
        for row in d.delta
    ]
    rows.append((sink,) * sigma)
    return Dfa(d.alphabet, m + 1, d.start, d.finals, tuple(rows))


def dfa_accepts(d: Dfa, word: Sequence[int]) -> bool:
    """Run ``d`` on the word; true iff the run ends in a final state."""
    sigma = d.sigma
    delta = d.delta
    q = d.start
    for s in word:
        if not 0 <= s < sigma:
            raise ValueError(
                f"symbol index {s} out of range for alphabet of size {sigma}"
            )
        q = delta[q][s]
    return q in d.finals


def nfa_accepts(nf: Nfa, word: Sequence[int]) -> bool:
    """Forward set simulation; true iff some run ends in a final state."""
    sigma = nf.sigma
    current = set(nf.starts)
    for s in word:
        if not 0 <= s < sigma:
            raise ValueError(
                f"symbol index {s} out of range for alphabet of size {sigma}"
            )
        nxt: set[int] = set()
        for q in current:
            nxt.update(nf.delta[q][s])
        current = nxt
    return not current.isdisjoint(nf.finals)


def reachable(d: Dfa) -> tuple[list[int], list[tuple[int, ...]], list[bool]]:
    """Reachable states in breadth-first discovery order from the start,
    exploring symbols in alphabet order, with transition rows renumbered to
    positions in that order and one finality flag per position."""
    index = [-1] * d.state_count
    index[d.start] = 0
    order = [d.start]
    for q in order:
        for t in d.delta[q]:
            if index[t] < 0:
                index[t] = len(order)
                order.append(t)
    rows = [tuple([index[t] for t in d.delta[q]]) for q in order]
    finals = [q in d.finals for q in order]
    return order, rows, finals


def relabel_canonical(d: Dfa) -> Dfa:
    """Renumber states in breadth-first discovery order from the start,
    exploring symbols in alphabet order; unreachable states are dropped.

    Reachable-trim DFAs are isomorphic exactly when their canonical forms
    are equal, so this is also the isomorphism check used by the tests.
    """
    order, rows, finals = reachable(d)
    flagged = frozenset(pos for pos, final in enumerate(finals) if final)
    return Dfa(d.alphabet, len(order), 0, flagged, tuple(rows))


def require_same_alphabet(d1: Dfa | Nfa, d2: Dfa | Nfa) -> None:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch(
            f"alphabets differ: {d1.alphabet.symbols} vs {d2.alphabet.symbols}"
        )

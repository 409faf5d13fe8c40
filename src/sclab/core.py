"""Complete DFAs as immutable values, word acceptance and the reachable
walk.

States are dense 0-based indices and symbols are addressed by their index in
the alphabet; subset states in the construction modules are bit-sets over
these indices.  Constructors normalise and check their fields, so structural
equality (``==``) is meaningful and canonical forms can be compared directly.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

Word = tuple[int, ...]

_T = TypeVar("_T")


class AlphabetMismatch(ValueError):
    """Raised by binary operations when the two machines' alphabets differ."""


class InvalidDfa(ValueError):
    """A ``Dfa``'s fields do not make a complete DFA; the message names why."""


def _shaped(
    build: Callable[[object], _T], value: object, error: type[ValueError], what: str
) -> _T:
    """``build(value)``, or ``error`` saying ``what`` when ``value`` has a
    shape ``build`` cannot take, such as an int where a set belongs."""
    try:
        return build(value)
    except TypeError:
        raise error(f"{what}, got {reprlib.repr(value)}") from None


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool``, which would pass for 0 or 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol names; the index of a name is the symbol's identity."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        symbols = _shaped(
            tuple, self.symbols, ValueError, "symbols must be a sequence of names"
        )
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ValueError("alphabet must have at least one symbol")
        seen: set[str] = set()
        for name in symbols:
            if not isinstance(name, str) or not name or any(map(str.isspace, name)):
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

    ``delta[state][symbol]`` is the target state; state numbers carry no
    meaning beyond identity.  Construction checks that the alphabet is an
    ``Alphabet``, the finals are a set and the table is rows, that the state
    count, start, finals and targets are integers, that there is a state,
    that the start, finals and targets are states and that each state has
    one transition per symbol, and raises ``InvalidDfa`` on the first
    failure.
    """

    alphabet: Alphabet
    state_count: int
    start: int
    finals: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        finals = _shaped(
            frozenset, self.finals, InvalidDfa, "finals must be a set of states"
        )
        delta = _shaped(
            lambda table: tuple(tuple(row) for row in table),
            self.delta,
            InvalidDfa,
            "transition table must be rows of targets",
        )
        object.__setattr__(self, "finals", finals)
        object.__setattr__(self, "delta", delta)
        problem = self._first_problem()
        if problem is not None:
            raise InvalidDfa(problem)

    def _first_problem(self) -> str | None:
        if not isinstance(self.alphabet, Alphabet):
            return f"alphabet must be an Alphabet, got {reprlib.repr(self.alphabet)}"
        m = self.state_count
        if not _is_int(m):
            return f"state count must be an integer, got {m!r}"
        if m < 1:
            return f"state count must be positive, got {m}"
        if not _is_int(self.start):
            return f"start state must be an integer, got {self.start!r}"
        if not 0 <= self.start < m:
            return f"start state {self.start} out of range for {m} states"
        odd = sorted(repr(q) for q in self.finals if not _is_int(q))
        if odd:
            return f"final state must be an integer, got {odd[0]}"
        for q in sorted(self.finals):
            if not 0 <= q < m:
                return f"final state {q} out of range for {m} states"
        if len(self.delta) != m:
            return f"transition table has {len(self.delta)} rows for {m} states"
        names = self.alphabet.symbols
        for q, row in enumerate(self.delta):
            if len(row) > len(names):
                return f"state {q} has {len(row)} transitions for {len(names)} symbols"
            for a, name in enumerate(names):
                t = row[a] if a < len(row) else None
                if t is None:
                    return f"missing transition from state {q} on symbol {name!r}"
                if not _is_int(t):
                    return (
                        f"transition from state {q} on symbol {name!r} "
                        f"targets {t!r}, not an integer"
                    )
                if not 0 <= t < m:
                    return (
                        f"transition from state {q} on symbol {name!r} "
                        f"targets {t}, out of range for {m} states"
                    )
        return None

    @classmethod
    def _trusted(
        cls,
        alphabet: Alphabet,
        state_count: int,
        start: int,
        finals: frozenset[int],
        delta: tuple[tuple[int, ...], ...],
    ) -> Dfa:
        """A machine from fields that are already normalised and valid, set
        without copying or checking: for builders whose output is a complete
        DFA by construction."""
        d = cls.__new__(cls)
        d.__dict__.update(
            alphabet=alphabet,
            state_count=state_count,
            start=start,
            finals=finals,
            delta=delta,
        )
        return d

    @property
    def sigma(self) -> int:
        return len(self.alphabet.symbols)


def _check_word(sigma: int, word: Iterable[int]) -> Word:
    """``word`` as a tuple, read once, so an iterator or a generator runs
    like the sequence it yields.  Raise ``ValueError`` on the first symbol
    that is not an integer index into the alphabet; a ``bool`` does not
    count as one."""
    word = tuple(word)
    for s in word:
        if not (_is_int(s) and 0 <= s < sigma):
            raise ValueError(
                f"symbol {s!r} is not an index into an alphabet of size {sigma}"
            )
    return word


def dfa_accepts(d: Dfa, word: Iterable[int]) -> bool:
    """Run ``d`` on the word; true iff the run ends in a final state."""
    delta = d.delta
    q = d.start
    for s in _check_word(d.sigma, word):
        q = delta[q][s]
    return q in d.finals


def reachable(d: Dfa) -> tuple[list[int], list[tuple[int, ...]], list[bool]]:
    """Reachable states in breadth-first discovery order from the start,
    exploring symbols in alphabet order, with transition rows renumbered to
    positions in that order and one finality flag per position.

    A machine already in that order, as every product and subset walk is
    built, keeps its own rows: each position is its state, so ``delta`` is
    copied rather than renumbered."""
    index = [-1] * d.state_count
    index[d.start] = 0
    order = [d.start]
    for q in order:
        for t in d.delta[q]:
            if index[t] < 0:
                index[t] = len(order)
                order.append(t)
    if order == list(range(d.state_count)):
        rows = list(d.delta)
    else:
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
    return Dfa._trusted(d.alphabet, len(order), 0, flagged, tuple(rows))


def require_same_alphabet(d1: Dfa, d2: Dfa) -> None:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatch(
            f"alphabets differ: {d1.alphabet.symbols} vs {d2.alphabet.symbols}"
        )

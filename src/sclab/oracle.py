"""Independent ground truth for the rest of the package: a second minimiser,
bounded word-level language comparison, star and reversal membership by
definition, and exhaustive or sampled searches over small DFA pairs."""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .core import (
    Alphabet,
    Dfa,
    _check_word,
    _is_int,
    dfa_accepts,
    reachable,
    relabel_canonical,
    require_same_alphabet,
)
from .constructions import (
    BooleanMode,
    CombinedOp,
    _check_op,
    first_component,
    first_component_cap,
    pair_finals,
    pair_rows,
)
from .minimization import _refine, minimize, state_complexity
from .witnesses import tight_bound

DEFAULT_PAIR_BUDGET = 1 << 21
DEFAULT_MACHINE_BUDGET = 1 << 21

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64's output for the state ``z``."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class BudgetExceeded(ValueError):
    """A search would enumerate more machines, or build more pair machines,
    than its budget allows."""

    def __init__(self, needed: int, budget: int, what: str = "machines"):
        # Python will not write an integer of over 4,300 digits in decimal.
        bits = needed.bit_length()
        shown = needed if bits <= 64 else f"at least 2**{bits - 1}"
        super().__init__(f"would examine {shown} {what}, over the budget of {budget}")
        self.needed = needed
        self.budget = budget


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not an integer; splitmix64 keeps the low 64
    bits of any integer."""
    if not _is_int(seed):
        raise ValueError(f"need an integer seed, got {seed!r}")


class SplitMix64:
    """splitmix64: the state advances by 0x9E3779B97F4A7C15 per draw and the
    output is a bit-mixed copy of the state (xor-shifts by 30, 27, 31 with
    multipliers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).  Fixed here so
    that seeds reproduce identically in any implementation of the same
    recurrence."""

    def __init__(self, seed: int):
        _check_seed(seed)
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        if not _is_int(bound) or bound < 1:
            raise ValueError(f"need a positive bound, got {bound!r}")
        return self.next_uint64() % bound


def table_filling_minimize(d: Dfa) -> Dfa:
    """Minimal DFA via pairwise marking, independent of the partition
    refinement minimiser.

    Trims to the reachable states, marks every pair with differing
    finality, propagates marks backwards over the transition relation to a
    fixed point, merges the unmarked pairs, and renumbers canonically.  The
    output is structurally equal to ``minimize``'s on every machine.
    """
    sigma = d.sigma
    order, rows, fin = reachable(d)
    n = len(order)
    marked = [[False] * n for _ in range(n)]
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(sigma)]
    for q in range(n):
        for a in range(sigma):
            pre[a][rows[q][a]].append(q)
    queue: deque[tuple[int, int]] = deque()
    for p in range(n):
        for q in range(p + 1, n):
            if fin[p] != fin[q]:
                marked[p][q] = marked[q][p] = True
                queue.append((p, q))
    while queue:
        p, q = queue.popleft()
        for a in range(sigma):
            for x in pre[a][p]:
                mx = marked[x]
                for y in pre[a][q]:
                    if x != y and not mx[y]:
                        mx[y] = marked[y][x] = True
                        queue.append((x, y))
    rep = list(range(n))
    for p in range(n):
        if rep[p] != p:
            continue
        mp = marked[p]
        for q in range(p + 1, n):
            if rep[q] == q and not mp[q]:
                rep[q] = p
    reps = sorted(set(rep))
    rid = {r: i for i, r in enumerate(reps)}
    delta = tuple(
        tuple(rid[rep[rows[r][a]]] for a in range(sigma)) for r in reps
    )
    finals = frozenset(rid[r] for r in reps if fin[r])
    quotient = Dfa(d.alphabet, len(reps), rid[rep[0]], finals, delta)
    return relabel_canonical(quotient)


def bounded_language_equal(d1: Dfa, d2: Dfa, maxlen: int) -> bool:
    """True iff the machines agree on every word of length at most
    ``maxlen``; breadth-first walk of the pair graph, no words
    materialised."""
    if not _is_int(maxlen) or maxlen < 0:
        raise ValueError(f"need a length bound >= 0, got {maxlen!r}")
    require_same_alphabet(d1, d2)
    sigma = d1.sigma
    f1, f2 = d1.finals, d2.finals
    start = (d1.start, d2.start)
    if (start[0] in f1) != (start[1] in f2):
        return False
    frontier = [start]
    seen = {start}
    for _ in range(maxlen):
        nxt: list[tuple[int, int]] = []
        for p, q in frontier:
            row1 = d1.delta[p]
            row2 = d2.delta[q]
            for a in range(sigma):
                pair = (row1[a], row2[a])
                if pair not in seen:
                    if (pair[0] in f1) != (pair[1] in f2):
                        return False
                    seen.add(pair)
                    nxt.append(pair)
        if not nxt:
            break
        frontier = nxt
    return True


def star_membership_oracle(d: Dfa, word: Iterable[int]) -> bool:
    """Star membership by definition: true iff the word is empty or splits
    into non-empty factors each accepted by ``d``.

    Dynamic programming over factor boundaries, independent of any star
    construction: a position is a boundary if some earlier boundary reaches
    it through one accepted factor.
    """
    word = _check_word(d.sigma, word)
    length = len(word)
    boundary = [False] * (length + 1)
    boundary[0] = True
    finals = d.finals
    delta = d.delta
    for j in range(length):
        if not boundary[j]:
            continue
        q = d.start
        for i in range(j, length):
            q = delta[q][word[i]]
            if q in finals:
                boundary[i + 1] = True
    return boundary[length]


def reverse_membership_oracle(d: Dfa, word: Iterable[int]) -> bool:
    """Membership in the reversal of ``d``'s language: run ``d`` on the
    reversed word."""
    return dfa_accepts(d, _check_word(d.sigma, word)[::-1])


def _check_alphabet(alphabet: Alphabet) -> None:
    """Refuse an alphabet that is not an ``Alphabet``, such as a tuple of
    names, which would otherwise end up inside the machines built."""
    if not isinstance(alphabet, Alphabet):
        raise ValueError(f"need an Alphabet, got {alphabet!r}")


def dfa_space_size(states: int, alphabet: Alphabet) -> int:
    """Number of complete DFAs on ``states`` states with the start fixed at
    0: every transition table crossed with every final set."""
    if not _is_int(states) or states < 1:
        raise ValueError(f"need at least one state, got {states!r}")
    _check_alphabet(alphabet)
    sigma = len(alphabet)
    return states ** (states * sigma) * 2**states


def _side_size(states: int, alphabet: Alphabet) -> int:
    """``dfa_space_size``, refused over ``DEFAULT_MACHINE_BUDGET``.  From 64
    states on, the ``2**states`` final sets alone are refused: the full count
    is not formed, as it can run to millions of digits."""
    if _is_int(states) and states >= 64:
        raise BudgetExceeded(1 << states, DEFAULT_MACHINE_BUDGET)
    total = dfa_space_size(states, alphabet)
    if total > DEFAULT_MACHINE_BUDGET:
        raise BudgetExceeded(total, DEFAULT_MACHINE_BUDGET)
    return total


def enumerate_dfas(
    states: int, alphabet: Alphabet, consumer: Callable[[Dfa], None]
) -> int:
    """Feed every complete DFA with the start fixed at 0 to ``consumer``.

    Fixing the start loses no languages, since any DFA can be relabeled to
    start at 0.  Returns the number of machines emitted; refuses up front,
    reporting the count, when it exceeds ``DEFAULT_MACHINE_BUDGET``.
    """
    total = _side_size(states, alphabet)
    sigma = len(alphabet)
    final_sets = [
        frozenset(q for q in range(states) if mask >> q & 1)
        for mask in range(1 << states)
    ]
    for flat in itertools.product(range(states), repeat=states * sigma):
        rows = tuple(flat[q * sigma : (q + 1) * sigma] for q in range(states))
        for finals in final_sets:
            consumer(Dfa._trusted(alphabet, states, 0, finals, rows))
    return total


def random_dfa(states: int, alphabet: Alphabet, seed: int) -> Dfa:
    """Uniform random transitions and a fair coin per state for finality,
    drawn from the documented splitmix64 stream: transitions first in
    row-major order, then one finality draw per state.  Start fixed at 0.
    Each transition is ``SplitMix64(seed).below(states)`` in turn and each
    finality draw is ``next_uint64() & 1``."""
    if not _is_int(states) or states < 1:
        raise ValueError(f"need at least one state, got {states!r}")
    _check_alphabet(alphabet)
    _check_seed(seed)
    sigma = len(alphabet)
    finals = _random_finals(states, sigma, seed)
    return Dfa._trusted(alphabet, states, 0, finals, _random_rows(states, sigma, seed))


def _random_rows(states: int, sigma: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """The transitions ``random_dfa`` draws on ``sigma`` letters, row by
    row: the stream's first ``states * sigma`` draws."""
    z = seed & _MASK64
    targets = []
    for _ in range(states * sigma):
        z = (z + _GAMMA) & _MASK64
        targets.append(_mix(z) % states)
    return tuple(zip(*[iter(targets)] * sigma))


def _random_finals(states: int, sigma: int, seed: int) -> frozenset[int]:
    """The finals ``random_dfa`` draws on ``sigma`` letters, read without
    the transitions: after i draws the stream's state is seed + i * gamma."""
    z = (seed + states * sigma * _GAMMA) & _MASK64
    finals = []
    for q in range(states):
        z = (z + _GAMMA) & _MASK64
        if _mix(z) & 1:
            finals.append(q)
    return frozenset(finals)


@dataclass(frozen=True)
class SearchMode:
    """Exhaustive over the whole pair space, or a seeded random sample."""

    kind: str
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown search mode: {self.kind!r}")
        if self.kind == "exhaustive" and any(
            not _is_int(v) or v for v in (self.samples, self.seed)
        ):
            raise ValueError("exhaustive mode takes no sample count or seed")
        if self.kind == "sampled":
            if not _is_int(self.samples) or self.samples < 1:
                raise ValueError(f"need a positive sample count, got {self.samples}")
            # splitmix64 keeps the low 64 bits of a seed, so any other value
            # would repeat a search in range while reporting a different seed.
            if not _is_int(self.seed) or not 0 <= self.seed <= _MASK64:
                raise ValueError(f"need 0 <= seed < 2**64, got {self.seed}")

    @staticmethod
    def exhaustive() -> "SearchMode":
        return SearchMode("exhaustive")

    @staticmethod
    def sampled(samples: int, seed: int) -> "SearchMode":
        return SearchMode("sampled", samples, seed)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one worst-case search.  ``achieving_pair`` is the earliest
    pair reaching ``observed_max``, in enumeration order or in the sample
    stream.  ``machines_examined`` counts the (M, N) pairs the search
    covers; ``pairs_measured`` counts the pairs it measured: in exhaustive
    mode one per cell of classes, where cells whose keys have the same
    transition tables share one pair walk, and in sampled mode one per
    sample whose pair machine it built."""

    op: CombinedOp
    m: int
    n: int
    sigma: int
    mode: SearchMode
    observed_max: int
    achieving_pair: tuple[Dfa, Dfa]
    machines_examined: int
    predicted_bound: int
    pairs_measured: int


# ``pair_rows``' output: the reachable pairs and their transition rows.
PairWalk = tuple[list[tuple[int, int]], list[tuple[int, ...]]]


def _sinks(d: Dfa, mode: BooleanMode) -> set[int]:
    """The states of ``d`` that loop on every letter and whose language is
    absorbing for ``mode``: final for union, non-final for intersection."""
    final = mode == "union"
    finals = d.finals
    return {
        q
        for q, row in enumerate(d.delta)
        if (q in finals) == final and row.count(q) == len(row)
    }


def _measured_size(
    d1: Dfa,
    dN: Dfa,
    mode: BooleanMode,
    best: int,
    walks: dict[int, PairWalk] | None = None,
    key: int = 0,
) -> int:
    """Minimal-DFA size of the pair machine of ``d1`` (a first component)
    and ``dN``, skipping object construction.

    The pair walk depends only on the two transition tables.  A caller
    measuring many pairs over few tables passes ``walks``, in which ``key``
    names this pair of tables: the walk is made on the first call with that
    key and read from ``walks`` after.  Without ``walks`` it is made afresh
    and not kept.  The pair machine is reachable by construction, so the
    refined block count equals the minimised state count.  A machine that
    cannot beat ``best`` is not refined; an upper bound of its size is
    returned instead, and ``best = -1`` always refines.  Two bounds are
    tried, the pair count and then the sink bound.  An absorbing sink of
    either machine for ``mode``, a final state looping on every letter for
    union or a non-final one for intersection, fixes the language of every
    pair on it: every word for union, none for intersection.  So the u
    reachable pairs with a sink on either side are one state of the minimal
    DFA, which has at most ``len(pairs) - u + 1`` states.  This is the
    collapse behind the paper's reversal bound: a full reversal walk holds
    the whole state set, a final sink, and the empty set, a non-final one,
    so of its ``2**m * n`` pairs the n on the op's sink make one state,
    ``2**m * n - (n - 1)``.  A machine that is not minimal, as a sampled
    first component or N may be, can have several sinks.
    """
    if walks is None:
        pairs, rows = pair_rows(d1, dN)
    else:
        walk = walks.get(key)
        if walk is None:
            walk = walks[key] = pair_rows(d1, dN)
        pairs, rows = walk
    if len(pairs) <= best:
        return len(pairs)
    sinks1 = _sinks(d1, mode)
    sinksN = _sinks(dN, mode)
    if sinks1 or sinksN:
        bound = len(pairs) + 1 - sum(i in sinks1 or j in sinksN for i, j in pairs)
        if bound <= best:
            return bound
    finals = pair_finals(pairs, d1, dN, mode)
    _, count = _refine(len(pairs), rows, finals)
    return count


def _words(states: int, sigma: int) -> list[tuple[int, ...]]:
    """Every word of length at most ``2 * states - 2`` in length-lex order:
    two machines of ``states`` states with different languages disagree on
    one of them (Moore, 1956)."""
    return [
        w
        for length in range(2 * states - 1)
        for w in itertools.product(range(sigma), repeat=length)
    ]


def _trace(delta: tuple[tuple[int, ...], ...], sigma: int, depth: int) -> bytes:
    """The state reached from 0 by every word of length at most ``depth``
    in length-lex order, one byte each.  Word ``j`` of one length followed
    by letter ``a`` is word ``j * sigma + a`` of the next, so each length
    is the last one read through every letter's column, interleaved."""
    pad = bytes(256 - len(delta))
    columns = [bytes(column) + pad for column in zip(*delta)]
    level = bytearray(1)
    levels = [level]
    for _ in range(depth):
        nxt = bytearray(len(level) * sigma)
        for a, column in enumerate(columns):
            nxt[a::sigma] = level.translate(column)
        level = nxt
        levels.append(level)
    return b"".join(levels)


def _classes(
    states: int, alphabet: Alphabet
) -> tuple[list[Dfa], list[Dfa], dict[bytes, int]]:
    """Enumerate the machines on ``states`` states and group them by
    language as they stream past, numbering the classes by first appearance.

    A machine's signature is its acceptance of every word from ``_words``,
    one byte each: the trace of its table, made once per table, read
    through its finals.  Equal signatures mean equal languages, so only the
    first machine of each class is kept and minimised.  Returns the minimal
    DFAs of the classes in class order, their first machines, so a lower
    class number means an earlier first machine, and the class of each
    signature.
    """
    sigma = len(alphabet)
    depth = 2 * states - 2
    number: dict[bytes, int] = {}
    keys: list[Dfa] = []
    first: list[Dfa] = []
    finality: dict[frozenset[int], bytes] = {}
    table: tuple[tuple[int, ...], ...] | None = None
    trace = b""

    def consume(d: Dfa) -> None:
        nonlocal table, trace
        if d.delta is not table:
            table = d.delta
            trace = _trace(table, sigma, depth)
        accept = finality.get(d.finals)
        if accept is None:
            accept = finality[d.finals] = bytes(q in d.finals for q in range(256))
        signature = trace.translate(accept)
        if signature not in number:
            number[signature] = len(keys)
            keys.append(minimize(d))
            first.append(d)

    enumerate_dfas(states, alphabet, consume)
    return keys, first, number


def _letter_swaps(number: dict[bytes, int], states: int, sigma: int) -> list[list[int]]:
    """The class each class moves to when letters ``a`` and ``a + 1`` trade
    places, one map per ``a``; together they generate every renaming.

    ``number`` is ``_classes``' class of each signature.  The renamed
    language accepts a word iff the language accepts the word renamed, so
    its signature is the class's own with each word's byte read at the
    renamed word.  Both enumerations are closed under renaming letters, so
    a signature that is not found means the classes were built wrong.
    """
    words = _words(states, sigma)
    at = {w: i for i, w in enumerate(words)}
    maps = []
    for a in range(sigma - 1):
        trade = {a: a + 1, a + 1: a}
        moved = [at[tuple(trade.get(x, x) for x in w)] for w in words]
        image = []
        for signature in number:
            c = number.get(bytes([signature[i] for i in moved]))
            if c is None:
                raise AssertionError(
                    f"swapping letters {a} and {a + 1} leaves the enumerated classes"
                )
            image.append(c)
        maps.append(image)
    return maps


def _size_groups(keys: list[Dfa]) -> dict[int, list[int]]:
    """The classes of each key size, in ascending class order."""
    sized: dict[int, list[int]] = {}
    for c, k in enumerate(keys):
        sized.setdefault(k.state_count, []).append(c)
    return sized


def _table_numbers(keys: list[Dfa]) -> list[int]:
    """A number per key, equal for keys with equal transition tables."""
    number: dict[tuple[tuple[int, ...], ...], int] = {}
    return [number.setdefault(k.delta, len(number)) for k in keys]


def _op_classes(
    lang_keys: list[Dfa], lang_first: list[Dfa], op: CombinedOp
) -> tuple[
    list[Dfa],
    list[Dfa],
    dict[int, list[int]],
    Callable[[list[list[int]]], list[list[int]]],
]:
    """Class machines by the minimal DFA of ``op``'s first component, given
    their language classes from ``_classes``.

    ``op(L(M))`` depends only on ``L(M)``, so each language class is keyed
    once, through its own key, and the op classes are numbered by the first
    language class to reach them.  That class holds the key's earliest
    machine, so the keys, first machines and size groups are those of
    ``_classes`` keyed per machine, without a second enumeration.  Also
    returns a function taking the language classes' letter swaps to the op
    classes': renaming letters commutes with star and reversal, so an op
    class moves where its first language class moves.  A key has no
    unreachable state, so its reversal walk is minimal and canonical already
    (Brzozowski's lemma); only star keys are minimised.
    """
    number: dict[Dfa, int] = {}
    op_class: list[int] = []
    rep: list[int] = []
    for c, key in enumerate(lang_keys):
        walk = first_component(key, op).dfa
        k = number.setdefault(minimize(walk) if op.uses_star else walk, len(number))
        if k == len(rep):
            rep.append(c)
        op_class.append(k)
    keys = list(number)
    return (
        keys,
        [lang_first[c] for c in rep],
        _size_groups(keys),
        lambda lang_swaps: [[op_class[ls[c]] for c in rep] for ls in lang_swaps],
    )


def _exhaustive_walk(
    op: CombinedOp, m: int, n: int, alphabet: Alphabet, pair_budget: int
) -> tuple[int, tuple[Dfa, Dfa], int, int]:
    """Every pair of machines on ``m`` and ``n`` states, walked by classes:
    the best size, the earliest pair reaching it, the pairs covered and the
    cells measured."""
    n_total = _side_size(n, alphabet)
    m_total = _side_size(m, alphabet)
    sigma = len(alphabet)
    n_keys, n_first, n_number = _classes(n, alphabet)
    if m == n:
        m_lang, m_lang_first, m_number = n_keys, n_first, n_number
    else:
        m_lang, m_lang_first, m_number = _classes(m, alphabet)
    m_keys, m_first, m_sized, op_swaps = _op_classes(m_lang, m_lang_first, op)
    # Only the op classes read M's language keys; at m != n they go now, and
    # the signatures go once the swap maps exist.
    del m_lang, m_lang_first
    cells = len(m_keys) * len(n_keys)
    if cells > pair_budget:
        raise BudgetExceeded(cells, pair_budget, "class pairs")
    n_swaps = _letter_swaps(n_number, n, sigma)
    m_swaps = op_swaps(n_swaps if m == n else _letter_swaps(m_number, m, sigma))
    del n_number, m_number
    swaps = list(zip(m_swaps, n_swaps))
    n_sized = _size_groups(n_keys)
    m_table = _table_numbers(m_keys)
    n_table = _table_numbers(n_keys)
    walks: dict[int, dict[int, PairWalk]] = {}
    # The measured size depends only on the languages op(L(M)) and L(N),
    # so N is classed by its minimal DFA and M by the minimal DFA of its
    # first component, which is found once per language class of M; at
    # m = n both sides share one enumeration.  Cell cm * width + cn holds
    # the pairs in classes (cm, cn).
    # Renaming letters commutes with star, reversal and the products, so
    # an orbit of cells under the letter swaps has one size.  A pair
    # machine of two keys has at most |key M| * |key N| states, so cells
    # are walked in groups of equal key sizes, largest product first,
    # until a group's bound falls below the running maximum.  Each orbit
    # is measured at the first cell reached and marked seen; that cell
    # has the orbit's earliest pair, since an orbit lies in one group, a
    # group is walked in ascending cell order, and classes are numbered
    # by first appearance.  A cell before the running winner gets the
    # running maximum minus one, so a tie there is exact and takes the
    # win; a cell after it cannot win a tie and gets the maximum itself.
    # The kernel refines only a cell that can pass its bar: its pair count
    # and its sink bound (the pairs on an absorbing sink are one state)
    # both stand in for the size at or below the bar.  A size above the
    # bar is exact, so the lowest measured cell of the largest size holds
    # the earliest pair reaching it.
    # Keys that differ only in their finals share a transition table, and
    # so a pair walk: the kernel keeps one walk per pair of tables, filed
    # under M's table.  Keys of one table have one size, so each walk is
    # read in one group only, and the walks of an M table go after the
    # group's last class of that table.
    boolean = op.boolean_mode
    width = len(n_keys)
    seen = bytearray(cells)
    best = winner = -1
    measured = 0
    groups = sorted(itertools.product(m_sized, n_sized), key=lambda g: -g[0] * g[1])
    for size_m, size_n in groups:
        if size_m * size_n < best:
            break
        m_group = m_sized[size_m]
        last = {m_table[cm]: cm for cm in m_group}
        for cm in m_group:
            key_m = m_keys[cm]
            table = m_table[cm]
            shared = walks.setdefault(table, {})
            for cn in n_sized[size_n]:
                cell = cm * width + cn
                if seen[cell]:
                    continue
                bar = best if cell > winner else best - 1
                size = _measured_size(
                    key_m, n_keys[cn], boolean, bar, shared, n_table[cn]
                )
                measured += 1
                if size > best or (size == best and cell < winner):
                    best, winner = size, cell
                seen[cell] = 1
                orbit = [cell]
                for x in orbit:
                    xm, xn = divmod(x, width)
                    for to_m, to_n in swaps:
                        y = to_m[xm] * width + to_n[xn]
                        if not seen[y]:
                            seen[y] = 1
                            orbit.append(y)
            if last[table] == cm:
                del walks[table]
    cm, cn = divmod(winner, width)
    return best, (m_first[cm], n_first[cn]), m_total * n_total, measured


def _sampled_walk(
    op: CombinedOp, m: int, n: int, alphabet: Alphabet, mode: SearchMode
) -> tuple[int, tuple[Dfa, Dfa], int, int]:
    """``mode.samples`` seeded random pairs: the best size, the earliest
    sample reaching it, the pairs covered and the pair machines built."""
    boolean = op.boolean_mode
    rng = SplitMix64(mode.seed)
    sigma = len(alphabet)
    best = -1
    measured = 0
    # The first sample passes every bound below, so it sets the pair.
    pair: tuple[Dfa, Dfa]
    for _ in range(mode.samples):
        m_seed = rng.next_uint64()
        n_seed = rng.next_uint64()
        # The pair machine has at most |first| * n states, and |first| is
        # at most the cap of M's finals, which are read before M is built,
        # and is known from the walk before its table is.  A pair whose
        # bound cannot pass the running maximum is built no further.  Both
        # seeds are drawn either way, so the sample stream and the
        # achieving pair do not depend on this pruning.
        finals = _random_finals(m, sigma, m_seed)
        if first_component_cap(op, m, finals) * n <= best:
            continue
        dM = Dfa._trusted(alphabet, m, 0, finals, _random_rows(m, sigma, m_seed))
        walk = first_component(dM, op)
        if walk.state_count * n > best:
            dN = random_dfa(n, alphabet, n_seed)
            size = _measured_size(walk.dfa, dN, boolean, best)
            measured += 1
            if size > best:
                best = size
                pair = (dM, dN)
    return best, pair, mode.samples, measured


def search_max(
    op: CombinedOp,
    m: int,
    n: int,
    alphabet: Alphabet,
    mode: SearchMode,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> SearchReport:
    """Maximise the measured minimal size of ``op`` over pairs of DFAs.

    Exhaustive mode covers every pair of complete machines with starts
    fixed at 0; sampled mode draws ``mode.samples`` seeded random pairs.
    ``pair_budget`` bounds the pair machines a search could build: one per
    pair of classes in exhaustive mode, one per sample in sampled mode.
    Exhaustive mode refuses either side over ``DEFAULT_MACHINE_BUDGET``
    machines first, enumerates each side size once, classes it by language,
    classes M's language classes by ``op``, and checks the budget before it
    builds any letter-swap map.  Over a budget, ``BudgetExceeded`` is raised.
    Sampled mode measures a pair only if a bound on its size, from M's
    finals and then from M's first component, can pass the running maximum.
    Deterministic for fixed arguments; ties go to the earliest pair, and the
    winner is re-measured through the public pipeline before reporting.
    Arguments of the wrong type or range raise ``ValueError``.
    """
    _check_op(op)
    if not (_is_int(m) and _is_int(n)) or m < 2 or n < 2:
        raise ValueError(f"need m, n >= 2, got m={m}, n={n}")
    _check_alphabet(alphabet)
    if not isinstance(mode, SearchMode):
        raise ValueError(f"need a SearchMode, got {mode!r}")
    if not _is_int(pair_budget) or pair_budget < 1:
        raise ValueError(f"need a positive pair budget, got {pair_budget!r}")
    # An exhaustive mode has no samples, so this refuses sampled ones only.
    if mode.samples > pair_budget:
        raise BudgetExceeded(mode.samples, pair_budget, "pairs")
    predicted = tight_bound(op, m, n)
    if mode.kind == "exhaustive":
        walk = _exhaustive_walk(op, m, n, alphabet, pair_budget)
    else:
        walk = _sampled_walk(op, m, n, alphabet, mode)
    best, pair, examined, measured = walk
    recheck = state_complexity(pair[0], pair[1], op)
    if recheck != best:
        raise AssertionError(
            f"fast measurement {best} disagrees with the pipeline's {recheck}"
        )
    return SearchReport(
        op, m, n, len(alphabet), mode, best, pair, examined, predicted, measured
    )

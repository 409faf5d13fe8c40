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
        super().__init__(
            f"would examine {needed} {what}, over the budget of {budget}"
        )
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


def enumerate_dfas(
    states: int, alphabet: Alphabet, consumer: Callable[[Dfa], None]
) -> int:
    """Feed every complete DFA with the start fixed at 0 to ``consumer``.

    Fixing the start loses no languages, since any DFA can be relabeled to
    start at 0.  Returns the number of machines emitted; refuses up front,
    reporting the computed count, when it exceeds ``DEFAULT_MACHINE_BUDGET``.
    """
    total = dfa_space_size(states, alphabet)
    if total > DEFAULT_MACHINE_BUDGET:
        raise BudgetExceeded(total, DEFAULT_MACHINE_BUDGET)
    sigma = len(alphabet)
    final_sets = [
        frozenset(q for q in range(states) if mask >> q & 1)
        for mask in range(1 << states)
    ]
    count = 0
    for flat in itertools.product(range(states), repeat=states * sigma):
        rows = tuple(flat[q * sigma : (q + 1) * sigma] for q in range(states))
        for finals in final_sets:
            consumer(Dfa._trusted(alphabet, states, 0, finals, rows))
            count += 1
    return count


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
    covers; ``pairs_measured`` counts the pairs whose pair machine it
    built."""

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


def _measured_size(d1: Dfa, dN: Dfa, mode: BooleanMode, best: int = -1) -> int:
    """Minimal-DFA size of the pair machine of ``d1`` (a first component)
    and ``dN``, skipping object construction.

    The pair machine is reachable by construction, so the refined block
    count equals the minimised state count.  A pair machine of at most
    ``best`` states cannot beat ``best``, so its state count, an upper bound
    of the size, is returned without refining.
    """
    pairs, rows = pair_rows(d1, dN)
    if len(pairs) <= best:
        return len(pairs)
    finals = pair_finals(pairs, d1, dN, mode)
    _, count = _refine(len(pairs), rows, finals)
    return count


def _classes(
    states: int, alphabet: Alphabet, key: Callable[[Dfa], Dfa]
) -> tuple[int, list[Dfa], list[Dfa], dict[int, list[int]]]:
    """Enumerate the machines on ``states`` states and group them by key as
    they stream past, numbering the classes by first appearance.

    Only the first machine of each class is kept.  Returns the number of
    machines enumerated, the distinct keys in class order, the first machine
    of each class (so a lower class number means an earlier first machine),
    and the classes of each key size in ascending class order.
    """
    first: dict[Dfa, Dfa] = {}
    count = enumerate_dfas(states, alphabet, lambda d: first.setdefault(key(d), d))
    keys = list(first)
    return count, keys, list(first.values()), _size_groups(keys)


def _size_groups(keys: list[Dfa]) -> dict[int, list[int]]:
    """The classes of each key size, in ascending class order."""
    sized: dict[int, list[int]] = {}
    for c, k in enumerate(keys):
        sized.setdefault(k.state_count, []).append(c)
    return sized


def _op_classes(
    lang_keys: list[Dfa], lang_first: list[Dfa], op: CombinedOp
) -> tuple[
    list[Dfa],
    list[Dfa],
    dict[int, list[int]],
    Callable[[list[list[int]]], list[list[int]]],
]:
    """Class machines by the minimal DFA of ``op``'s first component, given
    their language classes from ``_classes(..., minimize)``.

    ``op(L(M))`` depends only on ``L(M)``, so each language class is keyed
    once, through its own key, and the op classes are numbered by the first
    language class to reach them.  That class holds the key's earliest
    machine, so the keys, first machines and size groups are those of
    ``_classes`` keyed per machine, without a second enumeration.  Also
    returns a function taking the language classes' letter swaps to the op
    classes': renaming letters commutes with star and reversal, so an op
    class moves where its first language class moves.
    """
    number: dict[Dfa, int] = {}
    op_class: list[int] = []
    rep: list[int] = []
    for c, key in enumerate(lang_keys):
        k = number.setdefault(minimize(first_component(key, op).dfa), len(number))
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


def _letter_swaps(distinct: list[Dfa]) -> list[list[int]]:
    """The class each class moves to when letters ``a`` and ``a + 1`` trade
    places, one map per ``a``; together they generate every renaming.

    A key is a minimal DFA, and swapping two of its columns keeps it
    minimal, so renumbering it canonically gives the key of the renamed
    language.  Both enumerations are closed under renaming letters, so a
    key that is not found means the classes were built wrong.
    """
    number = {key: c for c, key in enumerate(distinct)}
    maps = []
    for a in range(distinct[0].sigma - 1):
        image = []
        for key in distinct:
            rows = tuple(
                row[:a] + (row[a + 1], row[a]) + row[a + 2 :] for row in key.delta
            )
            renamed = relabel_canonical(
                Dfa._trusted(key.alphabet, key.state_count, key.start, key.finals, rows)
            )
            c = number.get(renamed)
            if c is None:
                raise AssertionError(
                    f"swapping letters {a} and {a + 1} leaves the enumerated classes"
                )
            image.append(c)
        maps.append(image)
    return maps


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
    Exhaustive mode enumerates each side size once (each refused over
    ``DEFAULT_MACHINE_BUDGET`` machines), classes it by language, classes
    M's language classes by ``op``, and checks the budget before it builds
    any letter-swap map.  Over a budget, ``BudgetExceeded`` is raised.
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
    boolean = op.boolean_mode
    predicted = tight_bound(op, m, n)
    best = -1
    best_pair: tuple[Dfa, Dfa] | None = None
    examined = 0
    measured = 0
    if mode.kind == "exhaustive":
        n_side = _classes(n, alphabet, minimize)
        n_count, n_keys, n_first, n_sized = n_side
        m_side = n_side if m == n else _classes(m, alphabet, minimize)
        m_count, m_lang, m_lang_first, _ = m_side
        m_keys, m_first, m_sized, op_swaps = _op_classes(m_lang, m_lang_first, op)
        cells = len(m_keys) * len(n_keys)
        if cells > pair_budget:
            raise BudgetExceeded(cells, pair_budget, "class pairs")
        n_swaps = _letter_swaps(n_keys)
        m_swaps = op_swaps(n_swaps if m == n else _letter_swaps(m_lang))
        swaps = list(zip(m_swaps, n_swaps))
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
        # by first appearance.  The kernel gets the running maximum minus
        # one, so a size reaching it is exact and any other stays below it;
        # so the lowest measured cell of the largest size holds the earliest
        # pair reaching the maximum.
        width = len(n_keys)
        seen = bytearray(cells)
        winner = -1
        groups = sorted(
            itertools.product(m_sized, n_sized), key=lambda g: -g[0] * g[1]
        )
        for size_m, size_n in groups:
            if size_m * size_n < best:
                break
            for cm in m_sized[size_m]:
                for cn in n_sized[size_n]:
                    cell = cm * width + cn
                    if seen[cell]:
                        continue
                    size = _measured_size(m_keys[cm], n_keys[cn], boolean, best - 1)
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
        examined = m_count * n_count
        cm, cn = divmod(winner, width)
        best_pair = (m_first[cm], n_first[cn])
    else:
        if mode.samples > pair_budget:
            raise BudgetExceeded(mode.samples, pair_budget, "pairs")
        rng = SplitMix64(mode.seed)
        sigma = len(alphabet)
        for _ in range(mode.samples):
            m_seed = rng.next_uint64()
            n_seed = rng.next_uint64()
            # The pair machine has at most |first| * n states, and |first| is
            # at most the cap of M's finals, which are read before M is
            # built, and is known from the walk before its table is.  A pair
            # whose bound cannot pass the running maximum is built no
            # further.  Both seeds are drawn either way, so the sample stream
            # and the achieving pair do not depend on this pruning.
            finals = _random_finals(m, sigma, m_seed)
            if first_component_cap(op, m, 0, finals) * n <= best:
                continue
            dM = Dfa._trusted(alphabet, m, 0, finals, _random_rows(m, sigma, m_seed))
            walk = first_component(dM, op)
            if walk.state_count * n > best:
                dN = random_dfa(n, alphabet, n_seed)
                size = _measured_size(walk.dfa, dN, boolean, best)
                measured += 1
                if size > best:
                    best = size
                    best_pair = (dM, dN)
        examined = mode.samples
    assert best_pair is not None
    recheck = state_complexity(best_pair[0], best_pair[1], op)
    if recheck != best:
        raise AssertionError(
            f"fast measurement {best} disagrees with the pipeline's {recheck}"
        )
    return SearchReport(
        op, m, n, len(alphabet), mode, best, best_pair, examined, predicted, measured
    )

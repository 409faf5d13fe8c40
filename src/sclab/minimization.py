"""Minimal DFAs via Hopcroft partition refinement, language equivalence via
product reachability, and shortest distinguishing words."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Dfa, Word, _is_int, reachable, require_same_alphabet
from .constructions import CombinedOp, combined, pair_rows


@dataclass(frozen=True)
class Partition:
    """Equivalence blocks over the reachable states, numbered by first
    appearance in breadth-first order; unreachable states get ``None``.
    Finals and non-finals never share a block."""

    block_of: tuple[int | None, ...]
    block_count: int


def _refine(
    n: int, rows: list[tuple[int, ...]], finals: list[bool]
) -> tuple[list[int], int]:
    """Hopcroft refinement over a flat refinable partition of a complete
    DFA; the callers pass trimmed ones, so the blocks are the minimal states.

    ``rows[q][a]`` is the target of state ``q`` on symbol ``a``.  Returns a
    block id per state and the block count; ids are dense, ``0..count-1``,
    in no meaningful order.

    The predecessors of ``t`` on symbol ``a`` are a linked list in two flat
    lists per symbol, built in one pass over the column: ``head[t]`` is the
    first of them and ``nxt[p]`` the one after ``p``, with ``-1`` ending the
    list.  Each state has one successor per symbol, so it sits on exactly
    one list per symbol and one ``nxt`` slot serves it; no list is made per
    state.

    ``elems`` holds the states grouped by block, ``loc[q]`` is the position
    of ``q`` in it, and block ``b`` is the segment ``first[b]:end[b]``.
    Starting from the finals / non-finals split, a splitter block is taken
    from the worklist and, for every symbol, the predecessors of its states
    are marked: ``mark[b]`` counts the marked members of ``b``, which are
    swapped to the front of its segment.  A block with some but not all
    members marked splits, and the smaller half becomes the new block and
    always joins the worklist (a split block that was pending stays
    pending), which keeps Hopcroft's n log n bound.  Under one symbol a state
    has one successor, so it is a predecessor of at most one splitter state
    and is marked at most once; singleton blocks cannot split and are never
    marked.  Two states of different finality are two singleton blocks from
    the start, so they return at once, with the ids the loop would give them.
    """
    nf = sum(finals)
    if nf == 0 or nf == n:
        return [0] * n, 1
    if n == 2:
        return [0 if f else 1 for f in finals], 2
    links: list[tuple[list[int], list[int]]] = []
    for column in zip(*rows):
        head = [-1] * n
        nxt = [-1] * n
        for q, t in enumerate(column):
            nxt[q] = head[t]
            head[t] = q
        links.append((head, nxt))
    elems = [q for q in range(n) if finals[q]] + [q for q in range(n) if not finals[q]]
    loc = [0] * n
    for i, q in enumerate(elems):
        loc[q] = i
    block_of = [0 if f else 1 for f in finals]
    first = [0, nf]
    end = [nf, n]
    mark = [0, 0]
    worklist = [0 if nf <= n - nf else 1]
    while worklist:
        b = worklist.pop()
        splitter = elems[first[b] : end[b]]
        for head, nxt in links:
            touched = []
            for t in splitter:
                p = head[t]
                while p >= 0:
                    y = block_of[p]
                    f = first[y]
                    if end[y] - f > 1:
                        k = mark[y]
                        if k == 0:
                            touched.append(y)
                        mark[y] = k + 1
                        i = f + k
                        j = loc[p]
                        q = elems[i]
                        elems[i] = p
                        loc[p] = i
                        elems[j] = q
                        loc[q] = j
                    p = nxt[p]
            for y in touched:
                k = mark[y]
                mark[y] = 0
                f = first[y]
                e = end[y]
                if k == e - f:
                    continue
                new_id = len(first)
                if k <= e - f - k:
                    first.append(f)
                    end.append(f + k)
                    first[y] = f + k
                else:
                    first.append(f + k)
                    end.append(e)
                    end[y] = f + k
                mark.append(0)
                for p in elems[first[new_id] : end[new_id]]:
                    block_of[p] = new_id
                worklist.append(new_id)
    return block_of, len(first)


def _first_appearance(block_of: list[int], count: int) -> tuple[list[int], list[int]]:
    """Renumber blocks by the first position holding them: the new number
    of every block, and the first position of every new number.

    Over breadth-first positions this is the quotient's own breadth-first
    order (the first state of a block is entered by the quotient's first
    edge into it), so the numbering is canonical.
    """
    number = [-1] * count
    first: list[int] = []
    for pos, b in enumerate(block_of):
        if number[b] < 0:
            number[b] = len(first)
            first.append(pos)
    return number, first


def equivalence_partition(d: Dfa) -> Partition:
    """Group the reachable states of ``d`` into language-equivalence blocks."""
    order, rows, finals = reachable(d)
    block_of, count = _refine(len(order), rows, finals)
    number, _ = _first_appearance(block_of, count)
    out: list[int | None] = [None] * d.state_count
    for pos, q in enumerate(order):
        out[q] = number[block_of[pos]]
    return Partition(tuple(out), count)


def minimize(d: Dfa) -> Dfa:
    """Reachable-trim quotient by state equivalence, canonically relabeled.

    The result is complete, accepts the same language as ``d``, has no pair
    of equivalent states, and is a fixed point of this function; a machine
    that is already its own canonical quotient is returned as it is.
    """
    order, rows, finals = reachable(d)
    block_of, count = _refine(len(order), rows, finals)
    if count == d.state_count and order == list(range(count)):
        return d
    number, reps = _first_appearance(block_of, count)
    cls = [number[b] for b in block_of]
    delta = tuple([tuple([cls[t] for t in rows[r]]) for r in reps])
    qfinals = frozenset(i for i, r in enumerate(reps) if finals[r])
    return Dfa._trusted(d.alphabet, count, 0, qfinals, delta)


def _shortest_difference(d1: Dfa, d2: Dfa) -> Word | None:
    """Shortest word accepted by exactly one of the machines, breaking length
    ties toward smaller symbol indices; ``None`` iff they are equivalent.

    The first pair in ``pair_rows`` order whose sides differ in finality is a
    nearest one; each pair is discovered on the first edge into it in row
    order, and following those edges back to the start pair spells the word.
    One pass over the rows records every pair's first edge, so the word costs
    no more than the pair machine.
    """
    pairs, rows = pair_rows(d1, d2)
    f1, f2 = d1.finals, d2.finals
    u = next((u for u, (i, j) in enumerate(pairs) if (i in f1) != (j in f2)), None)
    if u is None:
        return None
    sigma = d1.sigma
    entry = [-1] * len(pairs)
    for t, row in enumerate(rows):
        for a, v in enumerate(row):
            if entry[v] < 0:
                entry[v] = t * sigma + a
    word: list[int] = []
    while u:
        u, a = divmod(entry[u], sigma)
        word.append(a)
    return tuple(reversed(word))


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff the machines accept the same language: no word tells them
    apart in their reachable pair machine."""
    require_same_alphabet(d1, d2)
    return _shortest_difference(d1, d2) is None


def distinguishing_word(d: Dfa, p: int, q: int) -> Word | None:
    """Shortest word accepted from exactly one of ``p`` and ``q``, breaking
    length ties toward smaller symbol indices; ``None`` iff none exists."""
    m = d.state_count
    if not (_is_int(p) and _is_int(q)):
        raise ValueError(f"state indices must be integers, got ({p!r}, {q!r})")
    if not 0 <= p < m or not 0 <= q < m:
        raise ValueError(f"state index out of range for {m} states: ({p}, {q})")
    dp, dq = (Dfa._trusted(d.alphabet, m, s, d.finals, d.delta) for s in (p, q))
    return _shortest_difference(dp, dq)


def state_complexity(dM: Dfa, dN: Dfa, op: CombinedOp) -> int:
    """Size of the minimal DFA for the combined operation on the pair."""
    return minimize(combined(dM, dN, op).dfa).state_count

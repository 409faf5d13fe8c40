"""Minimal DFAs via worklist partition refinement, language equivalence via
product reachability, and shortest distinguishing words."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Dfa, Word, reachable, require_same_alphabet
from .constructions import CombinedOp, combined, pair_rows


@dataclass(frozen=True)
class Partition:
    """Equivalence blocks over the reachable states, numbered by first
    appearance in breadth-first order; unreachable states get ``None``.
    Finals and non-finals never share a block."""

    block_of: tuple[int | None, ...]
    block_count: int


def _refine(
    n: int, sigma: int, rows: list[tuple[int, ...]], finals: list[bool]
) -> tuple[list[int], int]:
    """Worklist partition refinement over a trimmed complete DFA.

    ``rows[q][a]`` is the target of state ``q`` on symbol ``a``.  Returns a
    block id per state and the block count.  Starting from the finals /
    non-finals split, repeatedly pick a pending block, compute its preimage
    under each symbol, and split every block that straddles the preimage;
    the smaller half of a split joins the pending set, or both halves when
    the split block was itself pending.
    """
    fin = [q for q in range(n) if finals[q]]
    non = [q for q in range(n) if not finals[q]]
    if not fin or not non:
        return [0] * n, 1
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(sigma)]
    for q in range(n):
        row = rows[q]
        for a in range(sigma):
            pre[a][row[a]].append(q)
    blocks: list[set[int]] = [set(fin), set(non)]
    block_of = [1] * n
    for q in fin:
        block_of[q] = 0
    queued = [False, False]
    small = 0 if len(fin) <= len(non) else 1
    worklist: deque[int] = deque([small])
    queued[small] = True
    while worklist:
        b = worklist.popleft()
        queued[b] = False
        splitter = tuple(blocks[b])
        for a in range(sigma):
            prea = pre[a]
            hits: dict[int, list[int]] = {}
            for t in splitter:
                for p in prea[t]:
                    y = block_of[p]
                    if y in hits:
                        hits[y].append(p)
                    else:
                        hits[y] = [p]
            for y, moved in hits.items():
                target = blocks[y]
                if len(moved) == len(target):
                    continue
                new_id = len(blocks)
                moved_set = set(moved)
                target -= moved_set
                blocks.append(moved_set)
                queued.append(False)
                for p in moved:
                    block_of[p] = new_id
                if queued[y]:
                    worklist.append(new_id)
                    queued[new_id] = True
                elif len(moved_set) <= len(target):
                    worklist.append(new_id)
                    queued[new_id] = True
                else:
                    worklist.append(y)
                    queued[y] = True
    return block_of, len(blocks)


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
    block_of, count = _refine(len(order), d.sigma, rows, finals)
    number, _ = _first_appearance(block_of, count)
    out: list[int | None] = [None] * d.state_count
    for pos, q in enumerate(order):
        out[q] = number[block_of[pos]]
    return Partition(tuple(out), count)


def minimize(d: Dfa) -> Dfa:
    """Reachable-trim quotient by state equivalence, canonically relabeled.

    The result is complete, accepts the same language as ``d``, has no pair
    of equivalent states, and is a fixed point of this function.
    """
    order, rows, finals = reachable(d)
    block_of, count = _refine(len(order), d.sigma, rows, finals)
    number, reps = _first_appearance(block_of, count)
    delta = tuple([tuple([number[block_of[t]] for t in rows[r]]) for r in reps])
    qfinals = frozenset(i for i, r in enumerate(reps) if finals[r])
    return Dfa(d.alphabet, count, 0, qfinals, delta)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """True iff the machines accept the same language: their symmetric
    difference is empty, decided by walking the reachable product."""
    require_same_alphabet(d1, d2)
    pairs, _ = pair_rows(d1, d2)
    f1, f2 = d1.finals, d2.finals
    return all((i in f1) == (j in f2) for i, j in pairs)


def distinguishing_word(d: Dfa, p: int, q: int) -> Word | None:
    """Shortest word accepted from exactly one of ``p`` and ``q``, breaking
    length ties toward smaller symbol indices; ``None`` iff none exists."""
    m = d.state_count
    if not 0 <= p < m or not 0 <= q < m:
        raise ValueError(f"state index out of range for {m} states: ({p}, {q})")
    finals = d.finals
    if (p in finals) != (q in finals):
        return ()
    if p == q:
        return None
    sigma = d.sigma
    parents: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {
        (p, q): None
    }
    queue = deque([(p, q)])
    while queue:
        pair = queue.popleft()
        rowx = d.delta[pair[0]]
        rowy = d.delta[pair[1]]
        for a in range(sigma):
            nxt = (rowx[a], rowy[a])
            if nxt in parents:
                continue
            parents[nxt] = (pair, a)
            if (nxt[0] in finals) != (nxt[1] in finals):
                word: list[int] = []
                node = nxt
                while True:
                    link = parents[node]
                    if link is None:
                        break
                    node, sym = link
                    word.append(sym)
                return tuple(reversed(word))
            if nxt[0] != nxt[1]:
                queue.append(nxt)
    return None


def state_complexity(dM: Dfa, dN: Dfa, op: CombinedOp) -> int:
    """Size of the minimal DFA for the combined operation on the pair."""
    return minimize(combined(dM, dN, op).dfa).state_count

"""Worst-case DFA families for the star and reversal pipelines, and the
closed-form worst-case sizes they achieve.

Both members of a pair share one alphabet: the star families use {a, b, c},
the reversal families {a, b, c, d}.  In each pair the second machine only
reacts to the last symbol, which the first machine ignores, so the two
halves of a pipeline can be driven independently.
"""

from __future__ import annotations

from enum import Enum

from .core import Alphabet, Dfa, _is_int
from .constructions import CombinedOp, _check_op

STAR_ALPHABET = Alphabet(("a", "b", "c"))
REVERSAL_ALPHABET = Alphabet(("a", "b", "c", "d"))


def star_witness_m(m: int) -> Dfa:
    """First star-family machine: ``a`` steps around an m-cycle, ``b`` does
    too except for a self-loop at 0, ``c`` is the identity; the single final
    state is m-1.  Its star needs ``3 * 2**(m-2)`` states."""
    if not _is_int(m) or m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    rows = tuple(
        ((i + 1) % m, (i + 1) % m if i else 0, i)
        for i in range(m)
    )
    return Dfa(STAR_ALPHABET, m, 0, frozenset({m - 1}), rows)


def _c_cycle(n: int, final: int) -> Dfa:
    """The star family's n-cycle on ``c``, with one final state ``final``."""
    if not _is_int(n) or n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rows = tuple((i, i, (i + 1) % n) for i in range(n))
    return Dfa(STAR_ALPHABET, n, 0, frozenset({final}), rows)


def star_witness_n(n: int) -> Dfa:
    """Second star-family machine: ``c`` steps around an n-cycle, ``a`` and
    ``b`` are the identity; the single final state is n-1."""
    return _c_cycle(n, n - 1)


def star_witness_n_intersection(n: int) -> Dfa:
    """Second star-family machine for the intersection pipeline: the same
    n-cycle on ``c`` as ``star_witness_n``, but the single final state is 0.

    The star of the first machine carries an injected start state whose
    outgoing rows coincide with those of the one-element start subset; the
    two states differ only by finality.  In a product they stay distinct only
    if the pair they form differs by finality as well: under union that
    needs a non-final partner state (``star_witness_n``), under intersection
    a final one, hence this variant.  With the n-1 final, intersection
    collapses that pair and every grid cell measures one below the closed
    form.
    """
    return _c_cycle(n, 0)


def reversal_witness_m(m: int) -> Dfa:
    """First reversal-family machine: ``a`` steps the m-cycle downwards,
    ``b`` moves 0 to 1 and fixes the rest, ``c`` swaps 0 and 1, ``d`` is the
    identity; state 0 is both start and final.  Its reversal needs ``2**m``
    states."""
    if not _is_int(m) or m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    rows = tuple(
        (
            m - 1 if i == 0 else i - 1,
            1 if i == 0 else i,
            1 if i == 0 else (0 if i == 1 else i),
            i,
        )
        for i in range(m)
    )
    return Dfa(REVERSAL_ALPHABET, m, 0, frozenset({0}), rows)


def reversal_witness_n(n: int) -> Dfa:
    """Second reversal-family machine: ``d`` steps around an n-cycle, the
    other symbols are the identity; state 0 is both start and final."""
    if not _is_int(n) or n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rows = tuple((i, i, i, (i + 1) % n) for i in range(n))
    return Dfa(REVERSAL_ALPHABET, n, 0, frozenset({0}), rows)


def witness_pair(op: CombinedOp, m: int, n: int) -> tuple[Dfa, Dfa]:
    """The worst-case machine pair for ``op`` at sizes (m, n)."""
    _check_op(op)
    if op is CombinedOp.STAR_UNION:
        return star_witness_m(m), star_witness_n(n)
    if op is CombinedOp.STAR_INTERSECTION:
        return star_witness_m(m), star_witness_n_intersection(n)
    return reversal_witness_m(m), reversal_witness_n(n)


class BoundKind(Enum):
    """The closed-form sizes evaluated by ``bound_value``."""

    STAR_COMBINED_TIGHT = "star-combined-tight"
    STAR_COMBINED_UPPER_K = "star-combined-upper-k"
    REVERSAL_COMBINED_TIGHT = "reversal-combined-tight"
    INDIVIDUAL_STAR = "individual-star"
    INDIVIDUAL_REVERSAL = "individual-reversal"
    INDIVIDUAL_BOOLEAN = "individual-boolean"


def bound_value(
    kind: BoundKind, m: int, n: int | None = None, k: int | None = None
) -> int:
    """Exact value of the closed form for the given parameters.

    ``n`` is ignored by the individual star and reversal kinds and required
    otherwise: at least 2 for the tight combined kinds, at least 1 for the
    rest.  ``k``, the number of finals other than the start, is used only by
    the k-aware star kind and must lie in ``1..m-1``.
    """
    if not isinstance(kind, BoundKind):
        raise ValueError(f"need a BoundKind, got {kind!r}")
    if not _is_int(m) or m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if kind is BoundKind.INDIVIDUAL_STAR:
        return 3 * 2 ** (m - 2)
    if kind is BoundKind.INDIVIDUAL_REVERSAL:
        return 2**m
    if n is None:
        raise ValueError(f"{kind.value} needs n")
    if kind is BoundKind.INDIVIDUAL_BOOLEAN:
        if not _is_int(n) or n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return m * n
    if kind is BoundKind.STAR_COMBINED_UPPER_K:
        if not _is_int(n) or n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not _is_int(k) or not 1 <= k <= m - 1:
            raise ValueError(f"need 1 <= k <= m - 1, got k={k} for m={m}")
        return pipeline_bound(CombinedOp.STAR_UNION, m, n, k)
    if not _is_int(n) or n < 2:
        raise ValueError(f"{kind.value} needs n >= 2, got {n}")
    if kind is BoundKind.STAR_COMBINED_TIGHT:
        return pipeline_bound(CombinedOp.STAR_UNION, m, n, 1)
    return pipeline_bound(CombinedOp.REVERSAL_UNION, m, n, 0)


def tight_bound(op: CombinedOp, m: int, n: int) -> int:
    """The closed form ``op``'s witness pair attains at sizes (m, n)."""
    _check_op(op)
    kind = (
        BoundKind.STAR_COMBINED_TIGHT
        if op.uses_star
        else BoundKind.REVERSAL_COMBINED_TIGHT
    )
    return bound_value(kind, m, n)


def pipeline_bound(op: CombinedOp, m: int, n: int, k: int) -> int:
    """Worst-case minimal size for ``op`` on an m-state machine with ``k``
    finals other than the start and an n-state machine.

    Sound for every input pair, not only worst-case witnesses.  With
    ``k == 0`` a star op's first language needs at most m states (L* = L
    when the start is the only final, L* = {empty word} with no finals), so
    ``m * n`` holds; reversal ops use ``2**m * n - n + 1`` for any
    ``m >= 1``.
    """
    _check_op(op)
    if not _is_int(n) or n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if op.uses_star:
        if not _is_int(m) or m < 2:
            raise ValueError(f"star bounds need m >= 2, got {m}")
        if not _is_int(k) or not 0 <= k <= m - 1:
            raise ValueError(f"need 0 <= k <= m - 1, got k={k} for m={m}")
        if k == 0:
            return m * n
        return (2 ** (m - 1) + 2 ** (m - k - 1)) * n - n + 1
    if not _is_int(m) or m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return 2**m * n - n + 1

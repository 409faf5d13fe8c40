"""Acceptance checklist: eleven checks, one printed PASS/FAIL line each.

The grids mirror the experiment scripts: star ops on (m, n) in [2,8]^2,
reversal ops on [2,10]x[2,6], individual anchors, random upper-bound
sampling, exhaustive two-state maxima, minimiser cross-validation, word
oracles, the structural merging/unreachability facts, and the exhaustive
maxima on two letters.  Each check also asserts its own runtime budget.
"""

import time

from sclab import (
    Alphabet,
    CombinedOp,
    SplitMix64,
    bound_value,
    combined,
    dfa_accepts,
    enumerate_dfas,
    equivalence_partition,
    first_component,
    minimize,
    pipeline_bound,
    random_dfa,
    reverse_membership_oracle,
    search_max,
    star_explicit,
    star_membership_oracle,
    state_complexity,
    table_filling_minimize,
    SearchMode,
)
from sclab.witnesses import (
    BoundKind,
    REVERSAL_ALPHABET,
    STAR_ALPHABET,
    reversal_witness_m,
    reversal_witness_n,
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
    tight_bound,
    witness_pair,
)

from conftest import (
    FRESH_START,
    first_simulation,
    paired_simulation,
    simulated,
    words_upto,
)

STAR_GRID = [(m, n) for m in range(2, 9) for n in range(2, 9)]
REVERSAL_GRID = [(m, n) for m in range(2, 11) for n in range(2, 7)]

# cells computed by the grid checks and reused by the structure check;
# combined machine plus its equivalence partition, keyed by (op, m, n)
_CELLS: dict = {}


def _grid_cells(op: CombinedOp):
    grid = STAR_GRID if op.uses_star else REVERSAL_GRID
    for m, n in grid:
        key = (op, m, n)
        if key not in _CELLS:
            sub = combined(*witness_pair(op, m, n), op)
            _CELLS[key] = (sub, equivalence_partition(sub.dfa))
        yield key, _CELLS[key]


def _pair_values(sub, op: CombinedOp, m: int, n: int) -> list:
    """Per state of the pipeline machine ``sub`` for ``op``'s witness pair:
    the first component's subset (or ``FRESH_START``) and N's state."""
    dM, dN = witness_pair(op, m, n)
    return simulated(sub.dfa, *paired_simulation(first_simulation(dM, op), dN))


def _report(capsys, number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    line = f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)"
    if detail and not ok:
        line += f" {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _tight_grid_check(capsys, number: int, name: str, op: CombinedOp, budget: float):
    if op.uses_star:
        kind, first = BoundKind.STAR_COMBINED_TIGHT, BoundKind.INDIVIDUAL_STAR
    else:
        kind, first = BoundKind.REVERSAL_COMBINED_TIGHT, BoundKind.INDIVIDUAL_REVERSAL

    def check(m, n, got):
        # the tight form, and the paper's claim that the combined operation
        # costs n - 1 states less than composing its parts' worst cases
        want = bound_value(kind, m, n)
        composed = bound_value(BoundKind.INDIVIDUAL_BOOLEAN, bound_value(first, m), n)
        if got != want or composed - got != n - 1:
            bad.append((m, n, got, want, composed))

    t0 = time.perf_counter()
    bad = []
    for (op_, m, n), (sub, part) in _grid_cells(op):
        check(m, n, part.block_count)
    # bind a few cells to the public measurement as well
    for m, n in ((2, 2), (3, 4), (5, 2)):
        check(m, n, state_complexity(*witness_pair(op, m, n), op))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < budget
    _report(capsys, number, name, ok, elapsed, f"mismatches={bad[:4]}")


def test_01_star_union_tightness(capsys):
    _tight_grid_check(capsys, 1, "star-union tightness [2,8]^2", CombinedOp.STAR_UNION, 5.0)


def test_02_star_intersection_tightness(capsys):
    _tight_grid_check(
        capsys, 2, "star-intersection tightness [2,8]^2", CombinedOp.STAR_INTERSECTION, 5.0
    )


def test_03_reversal_union_tightness(capsys):
    _tight_grid_check(
        capsys, 3, "reversal-union tightness [2,10]x[2,6]", CombinedOp.REVERSAL_UNION, 30.0
    )


def test_04_reversal_intersection_tightness(capsys):
    _tight_grid_check(
        capsys,
        4,
        "reversal-intersection tightness [2,10]x[2,6]",
        CombinedOp.REVERSAL_INTERSECTION,
        30.0,
    )


def test_05_individual_operation_anchors(capsys):
    t0 = time.perf_counter()
    bad = []
    for m in range(2, 9):
        got = minimize(star_explicit(star_witness_m(m)).dfa).state_count
        if got != bound_value(BoundKind.INDIVIDUAL_STAR, m):
            bad.append(("star", m, got))
    for m in range(2, 11):
        reversed_m = first_component(reversal_witness_m(m), CombinedOp.REVERSAL_UNION)
        got = minimize(reversed_m.dfa).state_count
        if got != bound_value(BoundKind.INDIVIDUAL_REVERSAL, m):
            bad.append(("reversal", m, got))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10.0
    _report(capsys, 5, "individual star/reversal anchors", ok, elapsed, str(bad[:4]))


def test_06_upper_bound_on_random_pairs(capsys):
    t0 = time.perf_counter()
    violations = []
    rng = SplitMix64(0xACCE)
    for op in CombinedOp:
        alphabet = STAR_ALPHABET if op.uses_star else REVERSAL_ALPHABET
        for _ in range(1000):
            m = 2 + rng.below(4)
            n = 2 + rng.below(4)
            dM = random_dfa(m, alphabet, rng.next_uint64())
            dN = random_dfa(n, alphabet, rng.next_uint64())
            k = len(dM.finals - {dM.start})
            measured = state_complexity(dM, dN, op)
            limit = pipeline_bound(op, m, n, k)
            if measured > limit:
                violations.append((op.value, m, n, k, measured, limit))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    _report(
        capsys, 6, "upper bound on 1000 random pairs per op", ok, elapsed,
        f"violations={violations[:3]}",
    )


def test_07_exhaustive_two_state_maxima(capsys):
    t0 = time.perf_counter()
    bad = []
    for op in (CombinedOp.STAR_UNION, CombinedOp.STAR_INTERSECTION):
        report = search_max(op, 2, 2, STAR_ALPHABET, SearchMode.exhaustive())
        if report.observed_max != 5 or report.observed_max > report.predicted_bound:
            bad.append((op.value, report.observed_max))
    for op in (CombinedOp.REVERSAL_UNION, CombinedOp.REVERSAL_INTERSECTION):
        report = search_max(op, 2, 2, REVERSAL_ALPHABET, SearchMode.exhaustive())
        if report.observed_max != 7 or report.observed_max > report.predicted_bound:
            bad.append((op.value, report.observed_max))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 600.0
    _report(capsys, 7, "exhaustive m=n=2 maxima (5 star, 7 reversal)", ok, elapsed, str(bad))


def test_08_minimiser_oracle_agreement(capsys):
    t0 = time.perf_counter()
    disagreements = []

    def check(d):
        if table_filling_minimize(d) != minimize(d):
            disagreements.append(d)

    count = enumerate_dfas(2, Alphabet(("a", "b")), check)
    machines = [star_witness_m(m) for m in range(2, 9)]
    machines += [star_witness_n(n) for n in range(2, 9)]
    machines += [star_witness_n_intersection(n) for n in range(2, 9)]
    machines += [reversal_witness_m(m) for m in range(2, 11)]
    machines += [reversal_witness_n(n) for n in range(2, 7)]
    for op in CombinedOp:
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                machines.append(combined(*witness_pair(op, m, n), op).dfa)
    rng = SplitMix64(0xACC8)
    for op in CombinedOp:
        alphabet = STAR_ALPHABET if op.uses_star else REVERSAL_ALPHABET
        for _ in range(50):
            dM = random_dfa(2 + rng.below(3), alphabet, rng.next_uint64())
            dN = random_dfa(2 + rng.below(3), alphabet, rng.next_uint64())
            machines.append(dM)
            machines.append(combined(dM, dN, op).dfa)
    for d in machines:
        check(d)
    elapsed = time.perf_counter() - t0
    ok = count == 64 and not disagreements and elapsed < 60.0
    _report(
        capsys, 8, "partition-refinement vs table-filling identity", ok, elapsed,
        f"disagreements={len(disagreements)}",
    )


def test_09_semantic_cross_checks(capsys):
    t0 = time.perf_counter()
    disagreements = []
    for op in CombinedOp:
        sigma = 3 if op.uses_star else 4
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                dM, dN = witness_pair(op, m, n)
                pipe = combined(dM, dN, op).dfa
                for w in words_upto(sigma, 6):
                    left = (
                        star_membership_oracle(dM, w)
                        if op.uses_star
                        else reverse_membership_oracle(dM, w)
                    )
                    right = dfa_accepts(dN, w)
                    expect = (
                        (left or right)
                        if op.boolean_mode == "union"
                        else (left and right)
                    )
                    if dfa_accepts(pipe, w) != expect:
                        disagreements.append((op.value, m, n, w))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 60.0
    _report(
        capsys, 9, "pipeline acceptance vs membership oracles", ok, elapsed,
        f"disagreements={disagreements[:3]}",
    )


def test_10_merging_and_unreachability_structure(capsys):
    t0 = time.perf_counter()
    problems = []
    for (_op, m, n), (sub, part) in _grid_cells(CombinedOp.REVERSAL_UNION):
        full = frozenset(range(m))
        blocks = {
            part.block_of[i]
            for i, (first, j) in enumerate(_pair_values(sub, _op, m, n))
            if first == full
        }
        if len(blocks) != 1:
            problems.append(("reversal-union", m, n, len(blocks)))
    for (_op, m, n), (sub, part) in _grid_cells(CombinedOp.REVERSAL_INTERSECTION):
        empty = frozenset()
        blocks = {
            part.block_of[i]
            for i, (first, j) in enumerate(_pair_values(sub, _op, m, n))
            if first == empty
        }
        if len(blocks) != 1:
            problems.append(("reversal-intersection", m, n, len(blocks)))
    for star_op in (CombinedOp.STAR_UNION, CombinedOp.STAR_INTERSECTION):
        for (op, m, n), (sub, part) in _grid_cells(star_op):
            strays = [
                (first, j)
                for first, j in _pair_values(sub, op, m, n)
                if first == FRESH_START and j != 0
            ]
            if strays:
                problems.append((op.value, m, n, strays[:2]))
    elapsed = time.perf_counter() - t0
    ok = not problems
    _report(
        capsys, 10, "merging and unreachability structure", ok, elapsed,
        f"problems={problems[:4]}",
    )


# exhaustive maxima on two letters, per (m, n), for star-union,
# star-intersection, reversal-union and reversal-intersection
BINARY_FRONTIER = {
    (2, 2): (4, 5, 6, 6),
    (2, 3): (6, 7, 10, 10),
    (3, 2): (11, 11, 15, 15),
    (3, 3): (16, 16, 22, 22),
}
# each maximum's distance from tight_bound: at m = 2, binary star-union is
# one short, and binary reversal is one short at even n
BINARY_GAP = {
    (2, 2): (-1, 0, -1, -1),
    (2, 3): (-1, 0, 0, 0),
    (3, 2): (0, 0, 0, 0),
    (3, 3): (0, 0, 0, 0),
}


def test_11_binary_frontier(capsys):
    t0 = time.perf_counter()
    bad = []
    ops = (
        CombinedOp.STAR_UNION,
        CombinedOp.STAR_INTERSECTION,
        CombinedOp.REVERSAL_UNION,
        CombinedOp.REVERSAL_INTERSECTION,
    )
    alphabet = Alphabet(("a", "b"))
    for (m, n), maxima in BINARY_FRONTIER.items():
        for op, want, gap in zip(ops, maxima, BINARY_GAP[m, n]):
            got = search_max(op, m, n, alphabet, SearchMode.exhaustive()).observed_max
            if got != want or got - tight_bound(op, m, n) != gap:
                bad.append((op.value, m, n, got, tight_bound(op, m, n)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report(
        capsys, 11, "exhaustive maxima on two letters, m, n in {2, 3}", ok, elapsed,
        str(bad),
    )

import itertools
import random
import time

import pytest

from sclab import (
    Alphabet,
    CombinedOp,
    Dfa,
    bounded_language_equal,
    combined,
    distinguishing_word,
    enumerate_dfas,
    equivalence_partition,
    equivalent,
    first_component,
    minimize,
    random_dfa,
    relabel_canonical,
    star_explicit,
    state_complexity,
    table_filling_minimize,
)
from sclab.minimization import _refine
from sclab.witnesses import (
    STAR_ALPHABET,
    reversal_witness_m,
    reversal_witness_n,
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
    witness_pair,
)

from conftest import AB, mkdfa, reversal_simulation, simulated

A1 = Alphabet(("a",))


def chain(n: int, finals: set[int]) -> Dfa:
    # one letter, 0 -> 1 -> ... -> n-1, with n-1 looping on itself
    return mkdfa(A1, [(min(q + 1, n - 1),) for q in range(n)], finals)


def cycle(n: int, finals: set[int]) -> Dfa:
    return mkdfa(A1, [((q + 1) % n,) for q in range(n)], finals)


def test_witnesses_are_already_minimal():
    assert minimize(star_witness_n(4)).state_count == 4
    assert minimize(star_witness_m(5)).state_count == 5
    assert minimize(reversal_witness_m(6)).state_count == 6


def test_minimize_returns_a_canonical_minimal_machine_itself():
    # a machine that is already its own quotient, numbered in breadth-first
    # order, comes back as it is rather than as a copy
    for d in (
        star_witness_m(5),
        star_witness_n(4),
        star_witness_n_intersection(4),
        reversal_witness_m(2),
        reversal_witness_n(5),
    ):
        assert minimize(d) is d
    for d in (
        reversal_witness_m(6),
        combined(star_witness_m(3), star_witness_n(3), CombinedOp.STAR_UNION).dfa,
        random_dfa(6, AB, 17),
    ):
        small = relabel_canonical(minimize(d))
        assert minimize(small) is small


def test_minimize_renumbers_a_minimal_machine_out_of_canonical_order():
    # reversal_witness_m is minimal but not numbered breadth-first, and a
    # renumbered copy of a canonical minimal machine is no longer canonical:
    # both get a new machine, equal to the canonical one
    d = reversal_witness_m(6)
    small = minimize(d)
    assert small is not d
    assert small == relabel_canonical(d) and small.state_count == 6
    x = star_witness_m(5)
    last = x.state_count - 1
    shuffled = Dfa(
        x.alphabet,
        x.state_count,
        last - x.start,
        frozenset(last - q for q in x.finals),
        tuple(tuple(last - t for t in x.delta[last - q]) for q in range(last + 1)),
    )
    assert shuffled != x
    small = minimize(shuffled)
    assert small is not shuffled and small == x


def test_minimize_merges_duplicate_states():
    # states 1 and 2 behave identically; 3 is unreachable
    d = Dfa(
        AB,
        4,
        0,
        frozenset({1, 2}),
        ((1, 2), (0, 1), (0, 2), (3, 3)),
    )
    small = minimize(d)
    assert small.state_count == 2
    assert equivalent(small, d)


def test_minimize_is_idempotent_structurally():
    for d in (
        star_witness_m(4),
        combined(star_witness_m(3), star_witness_n(3), CombinedOp.STAR_UNION).dfa,
        first_component(reversal_witness_m(4), CombinedOp.REVERSAL_UNION).dfa,
    ):
        once = minimize(d)
        assert minimize(once) is once


def test_minimize_all_finals_collapses_to_one_state():
    d = mkdfa(AB, [(1, 1), (0, 0)], {0, 1})
    assert minimize(d).state_count == 1
    assert minimize(d).finals == frozenset({0})


def test_minimize_known_combined_cell():
    d = combined(
        reversal_witness_m(3), reversal_witness_n(2), CombinedOp.REVERSAL_UNION
    ).dfa
    assert minimize(d).state_count == 15


def test_minimize_never_beats_an_equivalent_machine():
    for m in (2, 3, 4, 5):
        d = star_witness_m(m)
        explicit = star_explicit(d).dfa
        walk = first_component(d, CombinedOp.STAR_UNION).dfa
        least = minimize(explicit).state_count
        assert least == minimize(walk).state_count
        assert least <= walk.state_count
        assert least <= explicit.state_count


def test_equivalence_partition_shape():
    d = Dfa(
        AB,
        4,
        0,
        frozenset({1, 2}),
        ((1, 2), (0, 1), (0, 2), (3, 3)),
    )
    part = equivalence_partition(d)
    assert part.block_count == 2
    assert part.block_of[3] is None
    assert part.block_of[0] == 0
    assert part.block_of[1] == part.block_of[2] == 1
    assert part.block_count == minimize(d).state_count


def test_equivalence_partition_separates_finals_from_nonfinals():
    for d in (star_witness_m(4), reversal_witness_m(5)):
        part = equivalence_partition(d)
        blocks_with_final = {part.block_of[q] for q in d.finals}
        blocks_without = {
            part.block_of[q]
            for q in range(d.state_count)
            if q not in d.finals and part.block_of[q] is not None
        }
        assert blocks_with_final.isdisjoint(blocks_without)


def test_equivalent_under_relabeling_and_not_across_cycles():
    d = star_witness_m(3)
    assert equivalent(d, relabel_canonical(d))
    assert not equivalent(star_witness_n(2), star_witness_n(3))
    assert not bounded_language_equal(star_witness_n(2), star_witness_n(3), 1)


def test_equivalent_matches_bounded_comparison_at_product_depth():
    pairs = [
        (star_witness_n(2), star_witness_n(3)),
        (star_witness_m(3), relabel_canonical(star_witness_m(3))),
        (
            first_component(star_witness_m(3), CombinedOp.STAR_UNION).dfa,
            star_explicit(star_witness_m(3)).dfa,
        ),
    ]
    for d1, d2 in pairs:
        depth = d1.state_count * d2.state_count
        assert equivalent(d1, d2) == bounded_language_equal(d1, d2, depth)


def test_distinguishing_word_basics():
    d = star_witness_n(3)
    assert distinguishing_word(d, 0, 0) is None
    # differing finality is settled by the empty word
    assert distinguishing_word(d, 0, 2) == ()
    # both non-final; one c moves state 1 onto the final state but not state 0
    assert distinguishing_word(d, 0, 1) == (2,)
    with pytest.raises(ValueError):
        distinguishing_word(d, 0, 5)


def test_distinguishing_word_absent_iff_states_equivalent():
    d = Dfa(
        AB,
        3,
        0,
        frozenset({1, 2}),
        ((1, 2), (0, 1), (0, 2)),
    )
    assert distinguishing_word(d, 1, 2) is None
    assert distinguishing_word(d, 0, 1) is not None


def test_distinguishing_word_on_reversal_subsets_is_short():
    # a drops every subset element by one and refills from the top, so two
    # subset states differing at x can be told apart within m - x letters
    m = 3
    d = reversal_witness_m(m)
    sub = first_component(d, CombinedOp.REVERSAL_UNION)
    values = simulated(sub.dfa, *reversal_simulation(d))
    by_subset = {subset: i for i, subset in enumerate(values)}
    for subset_i, i in by_subset.items():
        for subset_j, j in by_subset.items():
            if not (subset_i > subset_j):
                continue
            x = max(subset_i - subset_j)
            word = distinguishing_word(sub.dfa, i, j)
            assert word is not None
            assert len(word) <= m - x


def test_state_complexity_known_values():
    assert state_complexity(star_witness_m(2), star_witness_n(2), CombinedOp.STAR_UNION) == 5
    assert (
        state_complexity(
            star_witness_m(4),
            star_witness_n_intersection(3),
            CombinedOp.STAR_INTERSECTION,
        )
        == 34
    )
    assert (
        state_complexity(
            reversal_witness_m(4), reversal_witness_n(3), CombinedOp.REVERSAL_UNION
        )
        == 46
    )


def test_star_intersection_partner_needs_a_final_start():
    # the star side's injected start and its one-element start subset share
    # rows and differ only by finality; intersection keeps them apart only
    # when the partner's start is final, so the n-1-final partner loses one
    # state on every cell
    for m, n in ((2, 2), (4, 3)):
        with_final_start = state_complexity(
            star_witness_m(m),
            star_witness_n_intersection(n),
            CombinedOp.STAR_INTERSECTION,
        )
        without = state_complexity(
            star_witness_m(m), star_witness_n(n), CombinedOp.STAR_INTERSECTION
        )
        assert with_final_start == 3 * 2 ** (m - 2) * n - n + 1
        assert without == with_final_start - 1
    # and the mirrored defect: union with a final-start partner drops one
    assert (
        state_complexity(
            star_witness_m(2), star_witness_n_intersection(2), CombinedOp.STAR_UNION
        )
        == 4
    )


def test_witness_pair_measures_the_closed_form_per_op():
    cases = [
        (CombinedOp.STAR_UNION, 3, 2, 11),
        (CombinedOp.STAR_INTERSECTION, 3, 2, 11),
        (CombinedOp.REVERSAL_UNION, 2, 3, 10),
        (CombinedOp.REVERSAL_INTERSECTION, 2, 3, 10),
    ]
    for op, m, n, want in cases:
        dM, dN = witness_pair(op, m, n)
        assert state_complexity(dM, dN, op) == want


def test_minimize_matches_table_filling_on_witness_products():
    for op in CombinedOp:
        for m in range(3, 7):
            for n in range(2, 5):
                d = combined(*witness_pair(op, m, n), op).dfa
                assert minimize(d) == table_filling_minimize(d), (op, m, n)


def test_minimize_matches_table_filling_on_one_letter_chains_and_cycles():
    # a chain whose only final state is n-2 needs words of length about n to
    # tell its states apart; cycles with periodic finals fold onto the period
    machines = []
    for n in (1, 2, 3, 7, 30):
        machines += [chain(n, {max(n - 2, 0)}), chain(n, {0}), cycle(n, {0})]
    for n, period in ((6, 3), (12, 4), (30, 5)):
        machines.append(cycle(n, set(range(0, n, period))))
    for d in machines:
        small = minimize(d)
        assert small == table_filling_minimize(d)
        assert equivalent(small, d)
    assert minimize(chain(30, {28})).state_count == 30
    assert minimize(cycle(30, set(range(0, 30, 5)))).state_count == 5


def test_minimize_degenerate_machines():
    for alphabet in (A1, AB):
        sigma = len(alphabet)
        for n in (1, 4):
            rows = [tuple((q + a + 1) % n for a in range(sigma)) for q in range(n)]
            for finals in (set(), set(range(n))):
                d = mkdfa(alphabet, rows, finals)
                small = minimize(d)
                assert small.state_count == 1
                assert small.finals == frozenset(finals and {0})
                assert small == table_filling_minimize(d)


def test_minimize_matches_table_filling_on_random_machines():
    for sigma, alphabet in ((1, A1), (2, AB), (3, STAR_ALPHABET)):
        for states in (1, 2, 5, 9, 14):
            for seed in range(12):
                d = random_dfa(states, alphabet, seed * 31 + states * sigma)
                assert minimize(d) == table_filling_minimize(d), (sigma, states, seed)


def assert_refine_matches_table_filling(d: Dfa) -> None:
    # _refine over every state, reachable or not, against the table-filling
    # minimiser's language of each state: blocks and languages must be the
    # same partition up to renaming, with dense block ids
    n = d.state_count
    block_of, count = _refine(n, list(d.delta), [q in d.finals for q in range(n)])
    languages = [
        table_filling_minimize(Dfa(d.alphabet, n, q, d.finals, d.delta))
        for q in range(n)
    ]
    assert set(block_of) == set(range(count)), d
    assert len(set(languages)) == count, d
    assert len(set(zip(block_of, languages))) == count, d


def test_refine_matches_table_filling_on_every_small_binary_machine():
    for n in (1, 2, 3):
        for flat in itertools.product(range(n), repeat=2 * n):
            rows = [flat[2 * q : 2 * q + 2] for q in range(n)]
            for mask in range(1 << n):
                finals = {q for q in range(n) if mask >> q & 1}
                assert_refine_matches_table_filling(mkdfa(AB, rows, finals))


def test_refine_matches_table_filling_on_link_stressing_shapes():
    # a sink that every state enters on a (one predecessor list holding all
    # n states, every other list on a empty), one-letter cycles, a cycle on
    # a with a self-loop on b, and one-letter chains
    rng = random.Random(19)
    machines = []
    for n in (2, 5, 17, 40):
        for sink in (0, n - 1):
            b_column = [rng.randrange(n) for _ in range(n)]
            rows = [(sink, b) for b in b_column]
            odd = {q for q in range(n) if q % 2}
            for finals in ({sink}, set(range(0, n, 3)), odd):
                machines.append(mkdfa(AB, rows, finals))
            machines.append(mkdfa(AB, [(sink, (q + 1) % n) for q in range(n)], {1}))
        for period in (1, 2, 5):
            machines.append(cycle(n, set(range(0, n, period))))
            rows = [((q + 1) % n, q) for q in range(n)]
            machines.append(mkdfa(AB, rows, set(range(0, n, period))))
        machines += [chain(n, {max(n - 2, 0)}), chain(n, {n - 1})]
    for d in machines:
        assert_refine_matches_table_filling(d)


@pytest.mark.parametrize("sigma", [1, 2, 3])
def test_refine_returns_two_singletons_at_once_on_two_states(sigma):
    # two states of different finality are two singleton blocks, which
    # cannot split: the early return gives the ids the Hopcroft loop would
    # give, finals 0 and non-finals 1, whether or not state 1 is reachable
    for flat in itertools.product(range(2), repeat=2 * sigma):
        rows = [flat[:sigma], flat[sigma:]]
        for finals in ([True, False], [False, True]):
            assert _refine(2, rows, finals) == ([0 if f else 1 for f in finals], 2)


def test_minimize_matches_table_filling_on_every_machine_of_at_most_two_states():
    for sigma in (1, 2, 3):
        alphabet = Alphabet(("a", "b", "c")[:sigma])
        for states in (1, 2):
            machines = []
            enumerate_dfas(states, alphabet, machines.append)
            for d in machines:
                assert minimize(d) == table_filling_minimize(d), d


def test_equivalence_partition_ids_are_dense():
    machines = [chain(9, {7}), cycle(12, {0, 4, 8}), star_witness_m(5)]
    machines += [random_dfa(8, AB, seed) for seed in range(20)]
    for d in machines:
        part = equivalence_partition(d)
        ids = {b for b in part.block_of if b is not None}
        assert ids == set(range(part.block_count))
        assert part.block_count == minimize(d).state_count


def test_refinement_is_not_quadratic_on_a_long_chain():
    # Hopcroft splits this chain in linear time (about 0.05 s); a refiner
    # that spends a round per distinguishing depth is quadratic here and
    # already takes seconds at a few thousand states
    d = chain(20_000, {19_998})
    start = time.perf_counter()
    small = minimize(d)
    elapsed = time.perf_counter() - start
    assert small.state_count == 20_000
    assert elapsed < 5.0


def test_distinguishing_word_is_linear_on_a_long_chain():
    # states 0 and 1 first differ when 1 reaches the final state 19,998: a
    # word of 19,997 letters, recovered in one pass over the pair machine; a
    # rescan of the earlier rows per letter takes about 40 s per call here
    d = chain(20_000, {19_998})
    from_one = Dfa(A1, d.state_count, 1, d.finals, d.delta)
    start = time.perf_counter()
    word = distinguishing_word(d, 0, 1)
    same = equivalent(d, from_one)
    elapsed = time.perf_counter() - start
    assert word == (0,) * 19_997
    assert not same
    assert elapsed < 5.0

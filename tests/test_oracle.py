import gc
import itertools
import time
import weakref

import pytest

from sclab import (
    Alphabet,
    BudgetExceeded,
    DEFAULT_MACHINE_BUDGET,
    CombinedOp,
    Dfa,
    InvalidDfa,
    SearchMode,
    SplitMix64,
    bounded_language_equal,
    combined,
    dfa_accepts,
    dfa_space_size,
    distinguishing_word,
    enumerate_dfas,
    equivalent,
    first_component,
    minimize,
    product,
    random_dfa,
    relabel_canonical,
    reverse_membership_oracle,
    search_max,
    star_explicit,
    star_membership_oracle,
    state_complexity,
    table_filling_minimize,
)
from sclab import oracle
from sclab.constructions import pair_rows
from sclab.core import reachable
from sclab.minimization import _refine
from sclab.oracle import _measured_size, _random_finals, _random_rows
from sclab.witnesses import (
    STAR_ALPHABET,
    reversal_witness_m,
    star_witness_m,
    star_witness_n,
)

from conftest import AB, mkdfa, rebuilt, words_upto

A1 = Alphabet(("a",))


def test_splitmix64_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_uint64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_splitmix64_seed_masking_and_below():
    assert SplitMix64(1 << 64).next_uint64() == SplitMix64(0).next_uint64()
    rng = SplitMix64(42)
    draws = [rng.below(10) for _ in range(50)]
    assert all(0 <= d < 10 for d in draws)
    rng2 = SplitMix64(42)
    assert draws == [rng2.below(10) for _ in range(50)]


def test_table_filling_agrees_on_every_two_state_machine():
    mismatches = []

    def compare(d):
        if table_filling_minimize(d) != minimize(d):
            mismatches.append(d)

    count = enumerate_dfas(2, AB, compare)
    assert count == 64
    assert mismatches == []


def test_table_filling_handles_unreachable_and_merged_states():
    d = mkdfa(AB, [(1, 1), (0, 1), (1, 0)], {1}, start=0)
    assert table_filling_minimize(d) == minimize(d)


def test_bounded_language_equal_detects_finite_differences():
    assert bounded_language_equal(star_witness_n(2), star_witness_n(2), 10)
    assert not bounded_language_equal(star_witness_n(2), star_witness_n(3), 2)
    # too shallow to see any difference
    assert bounded_language_equal(star_witness_n(2), star_witness_n(3), 0)


def test_star_membership_oracle_on_a_parity_language():
    # the 2-cycle on c accepts exactly odd c-counts, so its star holds the
    # empty word and every word with at least one c
    d = star_witness_n(2)
    for w in words_upto(3, 4):
        expect = len(w) == 0 or any(s == 2 for s in w)
        assert star_membership_oracle(d, w) == expect


def test_star_membership_oracle_checks_symbols():
    with pytest.raises(ValueError):
        star_membership_oracle(star_witness_n(2), (9,))


def test_reverse_membership_oracle():
    d = reversal_witness_m(3)
    for w in words_upto(4, 4):
        assert reverse_membership_oracle(d, w) == dfa_accepts(d, tuple(reversed(w)))


def test_dfa_space_sizes():
    assert dfa_space_size(2, AB) == 64
    assert dfa_space_size(2, Alphabet(("a", "b", "c", "d"))) == 1024
    assert dfa_space_size(2, STAR_ALPHABET) == 256
    assert dfa_space_size(1, A1) == 2


def test_enumerate_dfas_counts_and_budget():
    seen = []
    assert enumerate_dfas(2, AB, seen.append) == 64
    assert len(set(seen)) == 64
    assert all(d.start == 0 for d in seen)
    seen.clear()
    with pytest.raises(BudgetExceeded) as err:
        enumerate_dfas(5, AB, seen.append)
    assert err.value.needed == 312_500_000
    assert err.value.budget == DEFAULT_MACHINE_BUDGET
    assert seen == []
    with pytest.raises(ValueError):
        enumerate_dfas(0, AB, seen.append)


def test_random_dfa_is_seed_deterministic():
    d1 = random_dfa(4, STAR_ALPHABET, 7)
    d2 = random_dfa(4, STAR_ALPHABET, 7)
    d3 = random_dfa(4, STAR_ALPHABET, 8)
    assert d1 == d2
    assert d1 != d3
    assert d1.start == 0
    assert d1.state_count == 4


def reference_random_dfa(states, alphabet, seed):
    """``random_dfa`` as its docstring states it, one generator draw at a
    time."""
    sigma = len(alphabet)
    rng = SplitMix64(seed)
    rows = tuple(
        tuple(rng.below(states) for _ in range(sigma)) for _ in range(states)
    )
    finals = frozenset(q for q in range(states) if rng.next_uint64() & 1)
    return Dfa(alphabet, states, 0, finals, rows)


def test_random_dfa_is_the_documented_stream():
    for sigma in (1, 2, 3, 4):
        alphabet = Alphabet(("a", "b", "c", "d")[:sigma])
        for m in range(1, 7):
            for seed in (0, 7, (1 << 64) - 1, (1 << 64) + 5):
                expected = reference_random_dfa(m, alphabet, seed)
                assert random_dfa(m, alphabet, seed) == expected, (m, sigma, seed)
                assert _random_finals(m, sigma, seed) == expected.finals
                assert _random_rows(m, sigma, seed) == expected.delta


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: random_dfa(True, AB, 3), "need at least one state, got True"),
        (lambda: random_dfa(2.5, AB, 3), "need at least one state, got 2.5"),
        (lambda: random_dfa("3", AB, 3), "need at least one state, got '3'"),
        (lambda: random_dfa(0, AB, 3), "need at least one state, got 0"),
        (
            lambda: enumerate_dfas(True, AB, lambda d: None),
            "need at least one state, got True",
        ),
        (lambda: SplitMix64(1).below(0), "need a positive bound, got 0"),
        (lambda: SplitMix64(1).below(-3), "need a positive bound, got -3"),
    ],
)
def test_random_builders_reject_a_bad_count(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


TWO = mkdfa(AB, [(1, 0), (1, 1)], {1})


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: distinguishing_word(TWO, 0.5, 1),
            "state indices must be integers, got (0.5, 1)",
        ),
        (
            lambda: distinguishing_word(TWO, True, 1),
            "state indices must be integers, got (True, 1)",
        ),
        (
            lambda: distinguishing_word(TWO, 0, "1"),
            "state indices must be integers, got (0, '1')",
        ),
        (
            lambda: bounded_language_equal(TWO, TWO, -3),
            "need a length bound >= 0, got -3",
        ),
        (
            lambda: bounded_language_equal(TWO, TWO, 1.5),
            "need a length bound >= 0, got 1.5",
        ),
        (
            lambda: bounded_language_equal(TWO, TWO, True),
            "need a length bound >= 0, got True",
        ),
        (lambda: dfa_space_size(2.5, AB), "need at least one state, got 2.5"),
        (lambda: dfa_space_size(0, AB), "need at least one state, got 0"),
        (lambda: random_dfa(3, AB, 1.5), "need an integer seed, got 1.5"),
        (lambda: random_dfa(3, AB, True), "need an integer seed, got True"),
        (lambda: random_dfa(3, AB, "7"), "need an integer seed, got '7'"),
        (lambda: SplitMix64(1.5), "need an integer seed, got 1.5"),
        (lambda: SplitMix64(None), "need an integer seed, got None"),
    ],
)
def test_integer_arguments_are_checked_where_they_enter(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _search(op=CombinedOp.STAR_UNION, alphabet=AB, mode=None, **kw):
    return search_max(op, 2, 2, alphabet, mode or SearchMode.exhaustive(), **kw)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: _search(pair_budget=-1),
            ValueError,
            "need a positive pair budget, got -1",
        ),
        (
            lambda: _search(pair_budget=0),
            ValueError,
            "need a positive pair budget, got 0",
        ),
        (
            lambda: _search(pair_budget=True),
            ValueError,
            "need a positive pair budget, got True",
        ),
        (
            lambda: _search(pair_budget=1.5e9),
            ValueError,
            "need a positive pair budget, got 1500000000.0",
        ),
        (
            lambda: _search(pair_budget="9"),
            ValueError,
            "need a positive pair budget, got '9'",
        ),
        (
            lambda: _search(pair_budget=None),
            ValueError,
            "need a positive pair budget, got None",
        ),
        (
            lambda: _search(op="star-union"),
            ValueError,
            "need a CombinedOp, got 'star-union'",
        ),
        (
            lambda: _search(mode="exhaustive"),
            ValueError,
            "need a SearchMode, got 'exhaustive'",
        ),
        (
            lambda: _search(alphabet=("a", "b")),
            ValueError,
            "need an Alphabet, got ('a', 'b')",
        ),
        (
            lambda: _search(alphabet=("a", "b"), mode=SearchMode.sampled(5, 1)),
            ValueError,
            "need an Alphabet, got ('a', 'b')",
        ),
        (
            lambda: Dfa(("a",), 1, 0, set(), ((0,),)),
            InvalidDfa,
            "alphabet must be an Alphabet, got ('a',)",
        ),
        (
            lambda: random_dfa(2, ("a",), 1),
            ValueError,
            "need an Alphabet, got ('a',)",
        ),
        (
            lambda: enumerate_dfas(2, ("a",), lambda d: None),
            ValueError,
            "need an Alphabet, got ('a',)",
        ),
    ],
)
def test_search_entry_points_raise_one_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_integer_arguments_in_range_still_work():
    assert distinguishing_word(TWO, 0, 1) == ()
    assert bounded_language_equal(TWO, TWO, 0)
    assert dfa_space_size(1, AB) == 2
    assert random_dfa(3, AB, -1) == random_dfa(3, AB, (1 << 64) - 1)


def assert_rebuilds(d):
    """``d`` equals, and hashes like, its rebuild through the checked
    constructor: a trusted builder that left a list or a set in a field, or
    an invalid field, fails here."""
    again = rebuilt(d)
    assert again == d and hash(again) == hash(d), d


def test_trusted_builders_match_the_checked_constructor():
    machines = []
    for alphabet in (A1, AB):
        for m in (1, 2):
            enumerate_dfas(m, alphabet, machines.append)
    assert len(machines) == 2 + 16 + 2 + 64
    for seed in range(40):
        m = 1 + seed % 5
        d = random_dfa(m, STAR_ALPHABET, seed)
        machines.append(d)
        machines.append(Dfa(d.alphabet, m, seed // 5 % m, d.finals, d.delta))
    for d in machines:
        assert_rebuilds(d)
        assert_rebuilds(minimize(d))
        assert_rebuilds(relabel_canonical(d))
        for op in (CombinedOp.STAR_UNION, CombinedOp.REVERSAL_UNION):
            assert_rebuilds(first_component(d, op).dfa)
        assert_rebuilds(star_explicit(d).dfa)
    for d1, d2 in zip(machines, machines[1:]):
        if d1.alphabet == d2.alphabet:
            for mode in ("union", "intersection"):
                assert_rebuilds(product(d1, d2, mode).dfa)


def test_search_modes():
    assert SearchMode.exhaustive().kind == "exhaustive"
    sampled = SearchMode.sampled(10, 3)
    assert (sampled.samples, sampled.seed) == (10, 3)


def test_search_mode_validates_itself():
    with pytest.raises(ValueError, match="seed"):
        search_max(CombinedOp.STAR_UNION, 2, 2, AB, SearchMode.sampled(20, -1))
    with pytest.raises(ValueError, match="seed"):
        SearchMode("sampled", 5, 1 << 64)
    with pytest.raises(ValueError, match="sample count"):
        SearchMode.sampled(0, 0)
    with pytest.raises(ValueError, match="unknown search mode"):
        SearchMode("bogus")
    for samples, seed in ((5, 0), (0, 3)):
        with pytest.raises(ValueError, match="exhaustive mode takes no"):
            SearchMode("exhaustive", samples, seed)
    assert SearchMode.sampled(1, (1 << 64) - 1).seed == (1 << 64) - 1
    # a bool is not a count or a seed, though it compares like 0 or 1
    with pytest.raises(ValueError, match="sample count"):
        SearchMode.sampled(True, 0)
    with pytest.raises(ValueError, match="seed"):
        SearchMode.sampled(1, False)
    with pytest.raises(ValueError, match="exhaustive mode takes no"):
        SearchMode("exhaustive", False)


def test_search_max_small_exhaustive_star():
    report = search_max(
        CombinedOp.STAR_UNION, 2, 2, AB, SearchMode.exhaustive()
    )
    assert report.machines_examined == 64 * 64
    assert report.observed_max == 4
    assert report.observed_max <= report.predicted_bound == 5
    dM, dN = report.achieving_pair
    assert minimize(combined(dM, dN, CombinedOp.STAR_UNION).dfa).state_count == 4


def test_search_max_single_letter_reversal():
    report = search_max(
        CombinedOp.REVERSAL_INTERSECTION, 2, 2, A1, SearchMode.exhaustive()
    )
    assert report.machines_examined == 256
    assert report.observed_max == 3
    assert report.predicted_bound == 7


def test_search_max_sampled_is_deterministic():
    mode = SearchMode.sampled(60, 11)
    r1 = search_max(CombinedOp.STAR_INTERSECTION, 3, 3, STAR_ALPHABET, mode)
    r2 = search_max(CombinedOp.STAR_INTERSECTION, 3, 3, STAR_ALPHABET, mode)
    assert r1 == r2
    assert r1.machines_examined == 60
    assert r1.observed_max <= r1.predicted_bound


def test_search_max_budget_and_domain_errors():
    with pytest.raises(BudgetExceeded, match="pairs"):
        search_max(
            CombinedOp.STAR_UNION, 2, 2, AB, SearchMode.exhaustive(), pair_budget=10
        )
    with pytest.raises(BudgetExceeded):
        search_max(
            CombinedOp.STAR_UNION, 2, 2, AB, SearchMode.sampled(50, 0), pair_budget=10
        )
    with pytest.raises(ValueError):
        search_max(CombinedOp.STAR_UNION, 1, 2, AB, SearchMode.exhaustive())
    with pytest.raises(ValueError):
        search_max(CombinedOp.STAR_UNION, 2, 2, AB, SearchMode.sampled(0, 0))
    with pytest.raises(ValueError):
        search_max(CombinedOp.STAR_UNION, 2, 2, AB, SearchMode("bogus"))


def test_a_raised_pair_budget_keeps_the_machine_budget():
    # 10**20 pairs allows 5x2-state pairs on two letters, but enumerating
    # the 312,500,000 five-state machines is refused before any is built
    with pytest.raises(BudgetExceeded) as err:
        search_max(
            CombinedOp.STAR_UNION, 5, 2, AB, SearchMode.exhaustive(), pair_budget=10**20
        )
    assert err.value.needed == 312_500_000
    assert err.value.budget == DEFAULT_MACHINE_BUDGET
    assert "312500000 machines" in str(err.value)


def test_a_side_of_thousands_of_states_is_refused_on_its_final_sets():
    # its full count has over 20,000 digits, which Python will not write in
    # decimal; 2**2000 final sets alone are over the budget
    mode = SearchMode.exhaustive()
    start = time.perf_counter()
    for refused in (
        lambda: search_max(CombinedOp.STAR_UNION, 2000, 2, STAR_ALPHABET, mode),
        lambda: enumerate_dfas(2000, STAR_ALPHABET, lambda d: None),
    ):
        with pytest.raises(BudgetExceeded) as err:
            refused()
        assert err.value.needed == 1 << 2000
        assert err.value.budget == DEFAULT_MACHINE_BUDGET
        assert "at least 2**2000 machines" in str(err.value)
    assert time.perf_counter() - start < 1


def test_an_oversized_side_is_refused_before_either_side_is_enumerated(monkeypatch):
    # classing N's 157,464 three-state machines on three letters takes
    # seconds, and the four-state M side is over the budget, so no machine
    # of either side is fed
    fed = [0]
    real = oracle.enumerate_dfas

    def counting(states, alphabet, consumer):
        def feed(d):
            fed[0] += 1
            consumer(d)

        return real(states, alphabet, feed)

    monkeypatch.setattr(oracle, "enumerate_dfas", counting)
    with pytest.raises(BudgetExceeded) as err:
        search_max(CombinedOp.STAR_UNION, 4, 3, STAR_ALPHABET, SearchMode.exhaustive())
    assert err.value.needed == 268_435_456
    assert fed[0] == 0


def test_exhaustive_budget_counts_class_pairs_not_pairs_covered():
    # 2x2-state machines on three letters: 65,536 pairs covered, but the
    # class table the search builds has 69 M classes x 114 N classes
    alphabet = Alphabet(("a", "b", "c"))
    mode = SearchMode.exhaustive()
    report = search_max(CombinedOp.STAR_UNION, 2, 2, alphabet, mode, pair_budget=7_866)
    assert report.machines_examined == 65_536
    with pytest.raises(BudgetExceeded, match="class pairs") as err:
        search_max(CombinedOp.STAR_UNION, 2, 2, alphabet, mode, pair_budget=7_865)
    assert err.value.needed == 69 * 114 == 7_866
    assert err.value.budget == 7_865


def test_search_max_ties_go_to_the_earliest_pair():
    mode = SearchMode.exhaustive()
    r1 = search_max(CombinedOp.REVERSAL_UNION, 2, 2, A1, mode)
    r2 = search_max(CombinedOp.REVERSAL_UNION, 2, 2, A1, mode)
    assert r1.achieving_pair == r2.achieving_pair


# ids name the alphabet size, after the side with three states if any
@pytest.mark.parametrize(
    "m, n, sigma",
    [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)],
    ids=["1", "2", "m3-1", "n3-1"],
)
@pytest.mark.parametrize("op", list(CombinedOp))
def test_search_max_matches_brute_force(op, m, n, sigma):
    # brute force over every pair is the oracle for the orbit search
    alphabet = Alphabet(("a", "b")[:sigma])
    ms, ns = [], []
    enumerate_dfas(m, alphabet, ms.append)
    enumerate_dfas(n, alphabet, ns.append)
    best, best_pair, examined = -1, None, 0
    for dM in ms:
        for dN in ns:
            size = state_complexity(dM, dN, op)
            examined += 1
            if size > best:
                best, best_pair = size, (dM, dN)
    report = search_max(op, m, n, alphabet, SearchMode.exhaustive())
    assert report.observed_max == best
    assert report.achieving_pair == best_pair
    assert report.machines_examined == examined


@pytest.mark.parametrize(
    "op, measured",
    [
        (CombinedOp.STAR_UNION, 248),
        (CombinedOp.STAR_INTERSECTION, 248),
        (CombinedOp.REVERSAL_UNION, 1216),
        (CombinedOp.REVERSAL_INTERSECTION, 1216),
    ],
)
def test_exhaustive_search_measures_one_pair_per_orbit(op, measured):
    # one pair per orbit, and only the orbits whose key sizes can still
    # reach the maximum: of 1,512 orbits per star op and 2,516 per reversal op
    report = search_max(op, 2, 2, STAR_ALPHABET, SearchMode.exhaustive())
    assert report.machines_examined == 65536
    assert report.pairs_measured == measured


def renamed(d, perm):
    """``d`` with letter ``perm[a]``'s transitions moved to letter ``a``,
    renumbered canonically."""
    rows = tuple(tuple(row[a] for a in perm) for row in d.delta)
    return relabel_canonical(Dfa(d.alphabet, d.state_count, d.start, d.finals, rows))


def unpruned_class_table(op, m, n, alphabet):
    """The exhaustive search without orbits or pruning: every cell of the
    (M key, N key) table is measured, and the earliest pair in enumeration
    order reaching the maximum wins.  Returns the maximum, that pair, the
    pairs covered, and the number of orbits of cells under every renaming
    of the letters."""
    ms, ns = [], []
    enumerate_dfas(m, alphabet, ms.append)
    enumerate_dfas(n, alphabet, ns.append)
    m_keys = [minimize(first_component(dM, op).dfa) for dM in ms]
    n_keys = [minimize(dN) for dN in ns]
    size = {
        (km, kn): _measured_size(km, kn, op.boolean_mode, -1)
        for km in set(m_keys)
        for kn in set(n_keys)
    }
    best = max(size.values())
    best_pair = next(
        (dM, dN)
        for dM, km in zip(ms, m_keys)
        for dN, kn in zip(ns, n_keys)
        if size[km, kn] == best
    )
    perms = list(itertools.permutations(range(len(alphabet))))
    images = {k: [renamed(k, p) for p in perms] for k in {*m_keys, *n_keys}}
    orbits = {frozenset(zip(images[km], images[kn])) for km, kn in size}
    return best, best_pair, len(ms) * len(ns), len(orbits)


@pytest.fixture(scope="module")
def unpruned():
    """``unpruned(op, sigma)``: the unpruned class table at m=n=2 over the
    first ``sigma`` of a, b, c, built once per module."""
    tables = {}

    def table(op, sigma):
        if (op, sigma) not in tables:
            alphabet = Alphabet(("a", "b", "c")[:sigma])
            tables[op, sigma] = unpruned_class_table(op, 2, 2, alphabet)
        return tables[op, sigma]

    return table


# At three letters one star op is enough to keep the suite fast; both
# reversal tables are built there anyway for the complement check below.
@pytest.mark.parametrize(
    "op, sigma",
    [(op, sigma) for sigma in (1, 2) for op in CombinedOp]
    + [
        (CombinedOp.STAR_UNION, 3),
        (CombinedOp.REVERSAL_UNION, 3),
        (CombinedOp.REVERSAL_INTERSECTION, 3),
    ],
)
def test_pruned_search_matches_the_unpruned_class_table(unpruned, op, sigma):
    best, best_pair, examined, orbits = unpruned(op, sigma)
    alphabet = Alphabet(("a", "b", "c")[:sigma])
    report = search_max(op, 2, 2, alphabet, SearchMode.exhaustive())
    assert report.observed_max == best
    assert report.achieving_pair == best_pair
    assert report.machines_examined == examined
    assert report.pairs_measured <= orbits


def complement(d):
    return Dfa(
        d.alphabet, d.state_count, d.start, set(range(d.state_count)) - d.finals, d.delta
    )


def test_reversal_intersection_is_reversal_union_of_the_complements():
    # reversal commutes with complement, so by De Morgan the pair machines
    # of (M, N) under intersection and (M^c, N^c) under union accept
    # complementary languages and have the same minimal size
    machines = []
    enumerate_dfas(2, AB, machines.append)
    flipped = [complement(d) for d in machines]
    for dM, cM in zip(machines, flipped):
        for dN, cN in zip(machines, flipped):
            assert state_complexity(dM, dN, CombinedOp.REVERSAL_INTERSECTION) == (
                state_complexity(cM, cN, CombinedOp.REVERSAL_UNION)
            ), (dM, dN)


@pytest.mark.parametrize("sigma", [1, 2, 3])
def test_reversal_maxima_agree_under_complement(unpruned, sigma):
    # complementing both machines maps each enumeration onto itself
    assert unpruned(CombinedOp.REVERSAL_INTERSECTION, sigma)[0] == (
        unpruned(CombinedOp.REVERSAL_UNION, sigma)[0]
    )


@pytest.mark.parametrize("op", [CombinedOp.STAR_UNION, CombinedOp.REVERSAL_UNION])
def test_exhaustive_sizes_that_reach_the_maximum_are_exact(monkeypatch, op):
    # a size above the kernel's bar is exact, and a pair count standing in
    # for a size stays at or below the bar, so the search cannot keep a
    # pair that only seems to win
    calls = []

    def recording(d1, dN, mode, best, *walk):
        size = _measured_size(d1, dN, mode, best, *walk)
        calls.append((d1, dN, best, size))
        return size

    monkeypatch.setattr(oracle, "_measured_size", recording)
    report = search_max(op, 2, 2, STAR_ALPHABET, SearchMode.exhaustive())
    assert len(calls) == report.pairs_measured
    for d1, dN, best, size in calls:
        exact = _measured_size(d1, dN, op.boolean_mode, -1)
        if size > best:
            assert size == exact, (d1, dN, best)
        else:
            assert exact <= size <= best, (d1, dN, best)


@pytest.mark.parametrize(
    "op, measured, walked",
    [
        (CombinedOp.STAR_UNION, 248, 124),
        (CombinedOp.STAR_INTERSECTION, 248, 124),
        (CombinedOp.REVERSAL_UNION, 1216, 304),
        (CombinedOp.REVERSAL_INTERSECTION, 1216, 304),
    ],
)
def test_exhaustive_kernel_walks_each_pair_of_key_tables_once(
    monkeypatch, op, measured, walked
):
    # keys that differ only in their finals share a transition table, so
    # the cells measured share fewer pair walks, each made once per search
    tables = []

    def counting(d1, d2):
        tables.append((d1.delta, d2.delta))
        return pair_rows(d1, d2)

    monkeypatch.setattr(oracle, "pair_rows", counting)
    report = search_max(op, 2, 2, STAR_ALPHABET, SearchMode.exhaustive())
    assert report.pairs_measured == measured
    assert len(tables) == len(set(tables)) == walked


@pytest.mark.parametrize(
    "op, m, sigma, refined",
    [
        (CombinedOp.STAR_UNION, 2, 3, 8),
        (CombinedOp.STAR_INTERSECTION, 2, 3, 2),
        (CombinedOp.REVERSAL_UNION, 2, 3, 17),
        (CombinedOp.REVERSAL_INTERSECTION, 2, 3, 3),
        (CombinedOp.REVERSAL_UNION, 3, 2, 11),
        (CombinedOp.REVERSAL_INTERSECTION, 3, 2, 11),
    ],
)
def test_exhaustive_kernel_refines_only_cells_that_can_win(
    monkeypatch, op, m, sigma, refined
):
    # a cell after the running winner cannot win on a tie, so only a pair
    # machine whose pair count and sink bound both exceed the maximum is
    # refined there
    calls = []

    def counting(n, rows, finals):
        calls.append(n)
        return _refine(n, rows, finals)

    monkeypatch.setattr(oracle, "_refine", counting)
    alphabet = Alphabet(("a", "b", "c")[:sigma])
    search_max(op, m, m, alphabet, SearchMode.exhaustive())
    assert len(calls) == refined


@pytest.mark.parametrize(
    "op, m, sigma",
    [
        (CombinedOp.STAR_UNION, 2, 2),
        (CombinedOp.STAR_UNION, 3, 1),
        (CombinedOp.STAR_INTERSECTION, 3, 1),
    ],
)
def test_exhaustive_kernel_bar_admits_ties_only_before_the_winner(
    monkeypatch, op, m, sigma
):
    # a cell before the running winner may take the win on a tie, so the
    # kernel gets the maximum minus one there; after the winner it gets the
    # maximum.  Cells are ordered by the first machine of their keys, as the
    # classes are numbered by first appearance.  These searches measure
    # cells before the winner; the one at (2,2,3) measures none.
    alphabet = Alphabet(("a", "b")[:sigma])
    machines = []
    enumerate_dfas(m, alphabet, machines.append)
    first_m, first_n = {}, {}
    for i, d in enumerate(machines):
        first_m.setdefault(minimize(first_component(d, op).dfa), i)
        first_n.setdefault(minimize(d), i)
    calls = []

    def recording(d1, dN, mode, best, *walk):
        size = _measured_size(d1, dN, mode, best, *walk)
        calls.append(((first_m[d1], first_n[dN]), best, size))
        return size

    monkeypatch.setattr(oracle, "_measured_size", recording)
    report = search_max(op, m, m, alphabet, SearchMode.exhaustive())
    best, winner, before = -1, (-1, -1), 0
    for at, bar, size in calls:
        if at < winner:
            before += 1
            assert bar == best - 1, at
        else:
            assert bar == best, at
        if size > best or (size == best and at < winner):
            best, winner = size, at
    assert before > 0
    assert best == report.observed_max
    assert winner == tuple(machines.index(d) for d in report.achieving_pair)


@pytest.mark.parametrize(
    "op", [CombinedOp.STAR_UNION, CombinedOp.REVERSAL_INTERSECTION]
)
def test_each_orbit_is_measured_at_its_earliest_pair(monkeypatch, op):
    # the search keeps the earliest pair reaching the maximum among the
    # pairs it measures, so each orbit must be measured where its first
    # pair in enumeration order lies: no renaming of the letters may take
    # the measured keys to classes that appear earlier
    machines = []
    enumerate_dfas(2, STAR_ALPHABET, machines.append)
    first_m, first_n = {}, {}
    for i, d in enumerate(machines):
        first_m.setdefault(minimize(first_component(d, op).dfa), i)
        first_n.setdefault(minimize(d), i)
    calls = []

    def recording(d1, dN, mode, best, *walk):
        calls.append((d1, dN))
        return _measured_size(d1, dN, mode, best, *walk)

    monkeypatch.setattr(oracle, "_measured_size", recording)
    report = search_max(op, 2, 2, STAR_ALPHABET, SearchMode.exhaustive())
    assert len(calls) == report.pairs_measured
    perms = list(itertools.permutations(range(len(STAR_ALPHABET))))
    for km, kn in calls:
        at = (first_m[km], first_n[kn])
        for perm in perms:
            moved = (first_m[renamed(km, perm)], first_n[renamed(kn, perm)])
            assert at <= moved, (km, kn, perm)


def _alive_at_first_kernel_call(monkeypatch, op, m, n, alphabet):
    """The search's report, every machine it was fed, and the fed machines
    still alive when the kernel is first called."""
    fed = []

    def tracking(states, alphabet, consumer):
        def feed(d):
            fed.append(weakref.ref(d))
            consumer(d)

        return enumerate_dfas(states, alphabet, feed)

    alive = []

    def counting(d1, dN, mode, best, *walk):
        if not alive:
            gc.collect()
            alive.append([ref() for ref in fed if ref() is not None])
        return _measured_size(d1, dN, mode, best, *walk)

    monkeypatch.setattr(oracle, "enumerate_dfas", tracking)
    monkeypatch.setattr(oracle, "_measured_size", counting)
    report = search_max(op, m, n, alphabet, SearchMode.exhaustive())
    return report, fed, alive[0]


def _language_firsts(states, alphabet):
    """The first machine of each language class, in class order."""
    first = {}
    enumerate_dfas(states, alphabet, lambda d: first.setdefault(minimize(d), d))
    return list(first.values())


def test_exhaustive_search_keeps_only_the_first_machine_of_each_class(monkeypatch):
    # at m = n one enumeration feeds both sides, and once the class table is
    # walked the only enumerated machines alive are the first machines of
    # the language classes, not the whole space
    report, fed, alive = _alive_at_first_kernel_call(
        monkeypatch, CombinedOp.STAR_UNION, 2, 2, AB
    )
    assert len(fed) == 64 and report.machines_examined == 64 * 64
    assert alive == _language_firsts(2, AB)


def test_exhaustive_search_at_m_not_n_keeps_each_sides_language_firsts(monkeypatch):
    report, fed, alive = _alive_at_first_kernel_call(
        monkeypatch, CombinedOp.REVERSAL_UNION, 3, 2, AB
    )
    assert len(fed) == 5_832 + 64 and report.machines_examined == 5_832 * 64
    assert len(alive) <= len(_language_firsts(3, AB)) + len(_language_firsts(2, AB))


def swaps_by_relabeling(keys):
    """The letter-swap maps of ``oracle._letter_swaps``, found from the keys
    instead of the signatures: swapping two columns of a minimal DFA keeps it
    minimal, so renumbering it canonically gives the renamed language's
    key."""
    number = {key: c for c, key in enumerate(keys)}
    sigma = keys[0].sigma
    trade = [list(range(sigma)) for _ in range(sigma - 1)]
    for a, perm in enumerate(trade):
        perm[a], perm[a + 1] = a + 1, a
    return [[number[renamed(key, perm)] for key in keys] for perm in trade]


def classes_by_minimize(states, alphabet):
    """``oracle._classes``' keys and first machines, found by minimising
    every enumerated machine."""
    first = {}
    enumerate_dfas(states, alphabet, lambda d: first.setdefault(minimize(d), d))
    return list(first), list(first.values())


SMALL_SPACES = [(m, sigma) for m in (1, 2, 3) for sigma in (1, 2)] + [(1, 3), (2, 3)]


@pytest.mark.parametrize("m, sigma", SMALL_SPACES)
def test_signature_classes_match_classing_every_machine_by_minimize(m, sigma):
    # words of length at most 2m - 2 tell apart any two m-state machines
    # with different languages, so equal signatures mean one class: the
    # same partition, numbering, first machines and keys as minimising
    # every machine
    alphabet = Alphabet(("a", "b", "c")[:sigma])
    keys, firsts, number = oracle._classes(m, alphabet)
    assert (keys, firsts) == classes_by_minimize(m, alphabet)
    assert list(number.values()) == list(range(len(keys)))
    words = oracle._words(m, sigma)
    for signature, first in zip(number, firsts):
        assert signature == bytes(dfa_accepts(first, w) for w in words)
    assert oracle._letter_swaps(number, m, sigma) == swaps_by_relabeling(keys)


def signature(d, depth):
    """``d``'s acceptance of every word of length at most ``depth``, as
    ``oracle._classes`` reads it at depth 2m - 2."""
    accept = bytes(q in d.finals for q in range(256))
    return oracle._trace(d.delta, d.sigma, depth).translate(accept)


def test_signatures_one_letter_shorter_merge_two_languages():
    # at m = 2 on one letter, 0 -> 1 -> 1 and 0 -> 1 -> 0 with finals {1}
    # accept a+ and the odd lengths; they agree on every word of length at
    # most 2m - 3 = 1 and first differ on aa
    plus = Dfa(A1, 2, 0, {1}, ((1,), (1,)))
    odd = Dfa(A1, 2, 0, {1}, ((1,), (0,)))
    assert signature(plus, 1) == signature(odd, 1) == bytes([0, 1])
    assert signature(plus, 2) != signature(odd, 2)
    assert dfa_accepts(plus, (0, 0)) and not dfa_accepts(odd, (0, 0))
    # over the whole space, depth 1 has fewer classes than the languages
    machines = []
    enumerate_dfas(2, A1, machines.append)
    languages = len(classes_by_minimize(2, A1)[0])
    assert len({signature(d, 2) for d in machines}) == languages
    assert len({signature(d, 1) for d in machines}) < languages


@pytest.mark.parametrize("op", list(CombinedOp))
@pytest.mark.parametrize("m, sigma", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_op_classes_match_classing_each_machine_by_op(op, m, sigma):
    # the M sides of the searches at (2,2,σ=1-3), (3,2,2), (2,3,2) and
    # (3,3,2): classing language classes by op equals classing every
    # machine by the minimal DFA of its first component, built here
    # straight from the enumeration
    alphabet = Alphabet(("a", "b", "c")[:sigma])
    first = {}
    count = enumerate_dfas(
        m, alphabet, lambda d: first.setdefault(minimize(first_component(d, op).dfa), d)
    )
    keys = list(first)
    sized = {}
    for c, key in enumerate(keys):
        sized.setdefault(key.state_count, []).append(c)
    lang_keys, lang_first, number = oracle._classes(m, alphabet)
    op_keys, op_first, op_sized, op_swaps = oracle._op_classes(lang_keys, lang_first, op)
    assert count == dfa_space_size(m, alphabet)
    assert op_keys == keys
    assert op_first == list(first.values())
    assert op_sized == sized
    lang_swaps = oracle._letter_swaps(number, m, sigma)
    assert op_swaps(lang_swaps) == swaps_by_relabeling(keys)


REVERSAL_OPS = [CombinedOp.REVERSAL_UNION, CombinedOp.REVERSAL_INTERSECTION]


@pytest.mark.parametrize(
    "m, sigma", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (2, 3)]
)
def test_reversal_walks_of_language_keys_are_minimal(m, sigma):
    # Brzozowski's lemma: the subset walk of the reverse of an accessible
    # DFA is minimal.  Language keys have no unreachable state, so
    # _op_classes takes their reversal walks as op keys without minimising
    alphabet = Alphabet(("a", "b", "c")[:sigma])
    keys, _, _ = oracle._classes(m, alphabet)
    for key in keys:
        for op in REVERSAL_OPS:
            walk = first_component(key, op).dfa
            assert minimize(walk) == walk, (key, op)


def test_reversal_walks_need_not_be_minimal_with_unreachable_states():
    # the lemma needs an accessible machine: of the 5,832 three-state binary
    # machines, 1,382 have a reversal walk that is not minimal, and each of
    # them has an unreachable state
    machines = []
    enumerate_dfas(3, AB, machines.append)
    for op in REVERSAL_OPS:
        loose = [
            d for d in machines if minimize(w := first_component(d, op).dfa) != w
        ]
        assert (len(machines), len(loose)) == (5_832, 1_382)
        assert all(len(reachable(d)[0]) < d.state_count for d in loose)


def test_exhaustive_budget_is_checked_before_any_swap_map(monkeypatch):
    def refused(*args):
        raise AssertionError("built a swap map")

    monkeypatch.setattr(oracle, "_letter_swaps", refused)
    alphabet = Alphabet(("a", "b", "c"))
    mode = SearchMode.exhaustive()
    with pytest.raises(BudgetExceeded, match="class pairs") as err:
        search_max(CombinedOp.STAR_UNION, 2, 2, alphabet, mode, pair_budget=7_865)
    assert err.value.needed == 7_866
    # one more cell of budget reaches the swap maps
    with pytest.raises(AssertionError, match="built a swap map"):
        search_max(CombinedOp.STAR_UNION, 2, 2, alphabet, mode, pair_budget=7_866)


@pytest.mark.parametrize("op", list(CombinedOp))
def test_search_kernel_agrees_with_both_minimisers(op):
    # the search's per-pair kernel against the public pipeline and the
    # table-filling oracle, on seeded random pairs
    rng = SplitMix64(0x5C1AB)
    for sigma in (1, 2, 3):
        alphabet = Alphabet(("a", "b", "c")[:sigma])
        for m in (2, 3, 4):
            for n in (2, 3):
                for _ in range(4):
                    dM = random_dfa(m, alphabet, rng.next_uint64())
                    dN = random_dfa(n, alphabet, rng.next_uint64())
                    first = first_component(dM, op).dfa
                    kernel = _measured_size(first, dN, op.boolean_mode, -1)
                    pipeline = state_complexity(dM, dN, op)
                    oracle = table_filling_minimize(combined(dM, dN, op).dfa)
                    assert kernel == pipeline == oracle.state_count, (dM, dN)


def unpruned_search(op, m, n, alphabet, samples, seed):
    """The sampled search without any pruning: every pair of the stream is
    measured through the public pipeline, and the first strict maximum
    wins.  Also counts the pairs the documented rule measures: those whose
    first component times ``n`` passes the running maximum."""
    rng = SplitMix64(seed)
    best, best_pair, measured = -1, None, 0
    for _ in range(samples):
        dM = random_dfa(m, alphabet, rng.next_uint64())
        dN = random_dfa(n, alphabet, rng.next_uint64())
        if first_component(dM, op).dfa.state_count * n > best:
            measured += 1
        size = state_complexity(dM, dN, op)
        if size > best:
            best, best_pair = size, (dM, dN)
    return best, best_pair, samples, measured


@pytest.mark.parametrize("sigma", [1, 2, 3])
@pytest.mark.parametrize("op", list(CombinedOp))
def test_sampled_search_matches_the_unpruned_loop(op, sigma):
    alphabet = Alphabet(("a", "b", "c")[:sigma])
    for m, n in ((2, 2), (3, 2), (4, 3), (5, 3)):
        for seed in (0, 7, 0xFFFF_FFFF_FFFF_FFFF):
            mode = SearchMode.sampled(60, seed)
            report = search_max(op, m, n, alphabet, mode)
            best, best_pair, examined, measured = unpruned_search(
                op, m, n, alphabet, 60, seed
            )
            assert report.observed_max == best
            assert report.achieving_pair == best_pair
            assert report.machines_examined == examined
            assert report.pairs_measured == measured


@pytest.mark.parametrize("op", list(CombinedOp))
def test_measured_size_is_exact_above_best_and_bounded_below(op):
    rng = SplitMix64(0xB0B)
    for sigma in (1, 2, 3):
        alphabet = Alphabet(("a", "b", "c")[:sigma])
        for m, n in ((2, 2), (3, 3), (4, 3)):
            for _ in range(4):
                dM = random_dfa(m, alphabet, rng.next_uint64())
                dN = random_dfa(n, alphabet, rng.next_uint64())
                first = first_component(dM, op).dfa
                exact = state_complexity(dM, dN, op)
                reachable = combined(dM, dN, op).dfa.state_count
                for best in {-1, 0, exact - 1, exact, exact + 1, reachable - 1, reachable}:
                    size = _measured_size(first, dN, op.boolean_mode, best)
                    if exact > best:
                        assert size == exact, (dM, dN, best)
                    else:
                        assert size <= best, (dM, dN, best)


def two_sinks(rows, loops, absorbing, mode, finals):
    """A machine on AB whose states ``loops`` loop on both letters and are
    final iff they absorb for ``mode`` (``absorbing``) or, as decoys, iff
    they do not; ``finals`` are its other finals."""
    final = (mode == "union") == absorbing
    rows = rows + [(q, q) for q in loops]
    return mkdfa(AB, rows, set(finals) | (set(loops) if final else set()))


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("sides", ["M", "N", "MN"])
@pytest.mark.parametrize("mode", ["union", "intersection"])
def test_sink_bound_stands_in_for_refining(monkeypatch, mode, sides, shared):
    # several sinks per machine, as a non-minimal first component or a
    # random N machine has: every reachable pair with a sink on either side
    # accepts one language, so the kernel may return the bound
    # len(pairs) - u + 1 in place of refining, and must when it is <= best;
    # the same with the walk kept, as exhaustive mode calls the kernel, and
    # made afresh, as sampled mode does
    absorbing_m, absorbing_n = "M" in sides, "N" in sides
    d1 = two_sinks([(4, 1), (2, 0), (3, 4)], (3, 4), absorbing_m, mode, {1})
    dN = two_sinks([(3, 1), (2, 0)], (2, 3), absorbing_n, mode, {1})
    sinks1 = {3, 4} if absorbing_m else set()
    sinksN = {2, 3} if absorbing_n else set()
    pairs, _ = pair_rows(d1, dN)
    u = sum(i in sinks1 or j in sinksN for i, j in pairs)
    bound = len(pairs) - u + 1
    exact = table_filling_minimize(product(d1, dN, mode).dfa).state_count
    assert {3, 4} <= {i for i, _ in pairs} and {2, 3} <= {j for _, j in pairs}
    assert u >= 2 and exact <= bound < len(pairs)
    calls = []

    def counting(n, rows, finals):
        calls.append(n)
        return _refine(n, rows, finals)

    monkeypatch.setattr(oracle, "_refine", counting)
    walks = ({},) if shared else ()
    for best in (-1, exact - 1, exact, bound):
        calls.clear()
        size = _measured_size(d1, dN, mode, best, *walks)
        if exact > best:
            assert size == exact, best
        else:
            assert exact <= size <= best, best
        assert bool(calls) == (bound > best), best


@pytest.mark.parametrize("op", list(CombinedOp))
def test_sampled_search_tables_only_the_pairs_it_measures(monkeypatch, op):
    walks = []

    def keep(d, op):
        walk = first_component(d, op)
        walks.append(walk)
        return walk

    monkeypatch.setattr(oracle, "first_component", keep)
    report = search_max(op, 4, 3, STAR_ALPHABET, SearchMode.sampled(2000, 11))
    tabled = sum(walk._dfa is not None for walk in walks)
    assert tabled == report.pairs_measured
    assert len(walks) > tabled


@pytest.mark.parametrize("op", list(CombinedOp))
def test_reading_the_state_count_does_not_build_the_table(op):
    for seed in range(20):
        walk = first_component(random_dfa(4, STAR_ALPHABET, seed), op)
        assert walk.state_count >= 1
        assert walk._dfa is None
        assert walk.dfa.state_count == walk.state_count

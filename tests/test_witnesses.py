import pytest

from sclab import (
    CombinedOp,
    SearchMode,
    combined,
    first_component,
    minimize,
    search_max,
    state_complexity,
)
from sclab.oracle import table_filling_minimize
from sclab.witnesses import (
    BoundKind,
    REVERSAL_ALPHABET,
    STAR_ALPHABET,
    bound_value,
    pipeline_bound,
    reversal_witness_m,
    reversal_witness_n,
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
    tight_bound,
    witness_pair,
)

ALL_FACTORIES = [
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
    reversal_witness_m,
    reversal_witness_n,
]


def test_star_m_structure_at_two_states():
    d = star_witness_m(2)
    assert d.alphabet == STAR_ALPHABET
    assert d.start == 0
    assert d.finals == frozenset({1})
    # a swaps, b collapses to the self-loop at 0 from above, c holds still
    assert d.delta == ((1, 0, 0), (0, 0, 1))


def test_star_m_structure_at_four_states():
    d = star_witness_m(4)
    assert d.delta[0] == (1, 0, 0)
    assert d.delta[1] == (2, 2, 1)
    assert d.delta[3] == (0, 0, 3)
    assert d.finals == frozenset({3})


def test_star_n_families_differ_only_in_the_final_state():
    plain = star_witness_n(4)
    variant = star_witness_n_intersection(4)
    assert plain.delta == variant.delta
    assert plain.start == variant.start == 0
    assert plain.finals == frozenset({3})
    assert variant.finals == frozenset({0})
    assert plain.delta == ((0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0))


def test_reversal_m_structure_at_two_states():
    d = reversal_witness_m(2)
    assert d.alphabet == REVERSAL_ALPHABET
    assert d.finals == frozenset({0})
    assert d.delta == ((1, 1, 1, 0), (0, 1, 0, 1))


def test_reversal_m_structure_at_four_states():
    d = reversal_witness_m(4)
    assert d.delta[0] == (3, 1, 1, 0)
    assert d.delta[1] == (0, 1, 0, 1)
    assert d.delta[2] == (1, 2, 2, 2)
    assert d.delta[3] == (2, 3, 3, 3)


def test_reversal_n_structure():
    d = reversal_witness_n(2)
    assert d.delta == ((0, 0, 0, 1), (1, 1, 1, 0))
    assert d.finals == frozenset({0})


def test_factories_reject_sizes_below_two():
    for factory in ALL_FACTORIES:
        with pytest.raises(ValueError):
            factory(1)
        with pytest.raises(ValueError):
            factory(0)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: search_max(
                CombinedOp.STAR_UNION, 3.0, 3, STAR_ALPHABET, SearchMode.sampled(5, 1)
            ),
            "need m, n >= 2, got m=3.0, n=3",
        ),
        (
            lambda: search_max(
                CombinedOp.STAR_UNION, 2, True, STAR_ALPHABET, SearchMode.exhaustive()
            ),
            "need m, n >= 2, got m=2, n=True",
        ),
        (
            lambda: pipeline_bound(CombinedOp.STAR_UNION, 3.0, 2, 1),
            "star bounds need m >= 2, got 3.0",
        ),
        (
            lambda: pipeline_bound(CombinedOp.STAR_UNION, 3, 2, 1.0),
            "need 0 <= k <= m - 1, got k=1.0 for m=3",
        ),
        (
            lambda: pipeline_bound(CombinedOp.REVERSAL_UNION, 2.0, 2, 0),
            "need m >= 1, got 2.0",
        ),
        (
            lambda: pipeline_bound(CombinedOp.REVERSAL_UNION, 2, True, 0),
            "need n >= 1, got True",
        ),
        (
            lambda: tight_bound(CombinedOp.STAR_UNION, 3, 2.5),
            "star-combined-tight needs n >= 2, got 2.5",
        ),
        (lambda: bound_value(BoundKind.INDIVIDUAL_STAR, 3.5), "need m >= 2, got 3.5"),
        (
            lambda: bound_value(BoundKind.INDIVIDUAL_BOOLEAN, 2, 1.5),
            "need n >= 1, got 1.5",
        ),
        (lambda: star_witness_m(3.0), "need m >= 2, got 3.0"),
        (lambda: star_witness_n(2.0), "need n >= 2, got 2.0"),
        (lambda: star_witness_n_intersection(2.0), "need n >= 2, got 2.0"),
        (lambda: reversal_witness_m(4.0), "need m >= 2, got 4.0"),
        (lambda: reversal_witness_n(2.0), "need n >= 2, got 2.0"),
        (
            lambda: witness_pair(CombinedOp.REVERSAL_UNION, 3, 2.0),
            "need n >= 2, got 2.0",
        ),
    ],
)
def test_sizes_must_be_integers(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_witnesses_are_minimal_by_both_minimisers():
    for factory in ALL_FACTORIES:
        for size in (2, 3, 5):
            d = factory(size)
            assert minimize(d).state_count == size
            assert table_filling_minimize(d).state_count == size


def test_witness_pair_selects_by_op():
    dM, dN = witness_pair(CombinedOp.STAR_UNION, 3, 4)
    assert dN.finals == frozenset({3})
    dM2, dN2 = witness_pair(CombinedOp.STAR_INTERSECTION, 3, 4)
    assert dM2 == dM
    assert dN2.finals == frozenset({0})
    for op in (CombinedOp.REVERSAL_UNION, CombinedOp.REVERSAL_INTERSECTION):
        rM, rN = witness_pair(op, 3, 4)
        assert rM == reversal_witness_m(3)
        assert rN == reversal_witness_n(4)


def test_bound_value_known_points():
    assert bound_value(BoundKind.STAR_COMBINED_TIGHT, 4, 3) == 34
    assert bound_value(BoundKind.REVERSAL_COMBINED_TIGHT, 2, 2) == 7
    assert bound_value(BoundKind.INDIVIDUAL_STAR, 5) == 24
    assert bound_value(BoundKind.INDIVIDUAL_REVERSAL, 6) == 64
    assert bound_value(BoundKind.INDIVIDUAL_BOOLEAN, 4, 7) == 28


def test_bound_value_domain_errors():
    with pytest.raises(ValueError):
        bound_value(BoundKind.STAR_COMBINED_TIGHT, 1, 2)
    with pytest.raises(ValueError):
        bound_value(BoundKind.STAR_COMBINED_TIGHT, 3)
    with pytest.raises(ValueError):
        bound_value(BoundKind.STAR_COMBINED_TIGHT, 3, 1)
    with pytest.raises(ValueError):
        bound_value(BoundKind.INDIVIDUAL_BOOLEAN, 2, 0)


def test_bounds_grow_with_m():
    for kind in BoundKind:
        previous = None
        for m in range(2, 10):
            value = bound_value(kind, m, 3)
            if previous is not None:
                assert value > previous
            previous = value


def test_plain_pairing_stays_below_the_star_form():
    # m*n never reaches the star pipeline's worst case, including at n=1
    # where the tight form is expressed through the pipeline bound at k=1
    for m in range(2, 13):
        assert m * 1 < pipeline_bound(CombinedOp.STAR_UNION, m, 1, 1)
        for n in range(2, 9):
            assert m * n < bound_value(BoundKind.STAR_COMBINED_TIGHT, m, n)


def test_star_pipeline_bound_peaks_at_one_final():
    # one final besides the start is the worst case: the bound falls as k
    # grows, and k = 0 (L* needs at most m states) is below k = 1
    for m in range(2, 13):
        for n in range(1, 9):
            values = [
                pipeline_bound(CombinedOp.STAR_UNION, m, n, k) for k in range(m)
            ]
            assert values[0] < values[1], (m, n)
            assert all(a >= b for a, b in zip(values[1:], values[2:])), (m, n)
            if n >= 2:
                assert values[1] == bound_value(BoundKind.STAR_COMBINED_TIGHT, m, n)


def test_pipeline_bound_star_cases():
    assert pipeline_bound(CombinedOp.STAR_UNION, 4, 3, k=0) == 12
    assert pipeline_bound(CombinedOp.STAR_UNION, 3, 2, k=2) == 9
    assert pipeline_bound(CombinedOp.STAR_INTERSECTION, 4, 3, k=1) == 34
    assert pipeline_bound(CombinedOp.STAR_UNION, 4, 3, k=3) == (8 + 1) * 3 - 3 + 1
    with pytest.raises(ValueError):
        pipeline_bound(CombinedOp.STAR_UNION, 1, 3, k=0)
    with pytest.raises(ValueError):
        pipeline_bound(CombinedOp.STAR_UNION, 4, 3, k=4)
    with pytest.raises(ValueError):
        pipeline_bound(CombinedOp.STAR_UNION, 4, 0, k=1)


def test_pipeline_bound_reversal_allows_one_state_machines():
    assert pipeline_bound(CombinedOp.REVERSAL_UNION, 1, 5, k=0) == 2 * 5 - 5 + 1
    assert pipeline_bound(CombinedOp.REVERSAL_INTERSECTION, 4, 3, k=2) == 46
    with pytest.raises(ValueError):
        pipeline_bound(CombinedOp.REVERSAL_UNION, 0, 3, k=0)


def test_tight_bound_picks_the_op_family():
    for op in CombinedOp:
        kind = (
            BoundKind.STAR_COMBINED_TIGHT
            if op.uses_star
            else BoundKind.REVERSAL_COMBINED_TIGHT
        )
        for m in (2, 3, 5):
            for n in (2, 4):
                assert tight_bound(op, m, n) == bound_value(kind, m, n)
    assert tight_bound(CombinedOp.STAR_INTERSECTION, 4, 3) == 34
    assert tight_bound(CombinedOp.REVERSAL_UNION, 2, 2) == 7


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: witness_pair("star-union", 3, 2), "need a CombinedOp, got 'star-union'"),
        (lambda: tight_bound("star-union", 3, 2), "need a CombinedOp, got 'star-union'"),
        (
            lambda: pipeline_bound("reversal-union", 3, 2, 0),
            "need a CombinedOp, got 'reversal-union'",
        ),
        (
            lambda: first_component(star_witness_m(3), "star-union"),
            "need a CombinedOp, got 'star-union'",
        ),
        (
            lambda: combined(star_witness_m(3), star_witness_n(2), "star-union"),
            "need a CombinedOp, got 'star-union'",
        ),
        (
            lambda: state_complexity(star_witness_m(3), star_witness_n(2), "star-union"),
            "need a CombinedOp, got 'star-union'",
        ),
        (
            lambda: bound_value("star-combined-tight", 3, 2),
            "need a BoundKind, got 'star-combined-tight'",
        ),
    ],
)
def test_op_and_bound_kind_are_checked_where_they_enter(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message

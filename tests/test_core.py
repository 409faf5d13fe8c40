import random

import pytest

from sclab import (
    Alphabet,
    AlphabetMismatch,
    Dfa,
    InvalidDfa,
    dfa_accepts,
    random_dfa,
    relabel_canonical,
    require_same_alphabet,
    reverse_membership_oracle,
    star_membership_oracle,
)
from sclab.core import reachable
from sclab.witnesses import (
    REVERSAL_ALPHABET,
    STAR_ALPHABET,
    reversal_witness_m,
    star_witness_n,
)

from conftest import AB, mkdfa, rebuilt, words_upto


def test_alphabet_index_and_word():
    assert STAR_ALPHABET.index("c") == 2
    assert STAR_ALPHABET.word("abca") == (0, 1, 2, 0)
    assert len(STAR_ALPHABET) == 3
    assert list(STAR_ALPHABET) == ["a", "b", "c"]


def test_alphabet_rejects_bad_symbol_sets():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "b c"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))
    with pytest.raises(ValueError, match="bad symbol name: 1"):
        Alphabet(("a", 1))
    with pytest.raises(ValueError, match="bad symbol name: None"):
        Alphabet((None,))
    with pytest.raises(ValueError, match="symbols must be a sequence of names"):
        Alphabet(5)
    with pytest.raises(ValueError):
        STAR_ALPHABET.index("z")


def test_dfa_normalises_fields():
    d = Dfa(AB, 2, 0, {1}, [[1, 0], [0, 1]])
    assert isinstance(d.finals, frozenset)
    assert d.delta == ((1, 0), (0, 1))
    assert d.sigma == 2


def test_validate_accepts_witnesses():
    for d in (star_witness_n(3), reversal_witness_m(4)):
        assert rebuilt(d) == d


def check_message(fields, expected):
    with pytest.raises(InvalidDfa) as err:
        Dfa(*fields)
    assert str(err.value) == expected


def test_validate_names_missing_transition():
    check_message(
        (AB, 2, 0, frozenset(), ((1, None), (0, 0))),
        "missing transition from state 0 on symbol 'b'",
    )
    check_message(
        (AB, 2, 0, frozenset(), ((1, 0), (0,))),
        "missing transition from state 1 on symbol 'b'",
    )


def test_validate_reports_out_of_range_pieces():
    check_message(
        (AB, 2, 5, frozenset(), ((1, 0), (0, 0))),
        "start state 5 out of range for 2 states",
    )
    check_message(
        (AB, 2, 0, frozenset({3}), ((1, 0), (0, 0))),
        "final state 3 out of range for 2 states",
    )
    check_message(
        (AB, 2, 0, frozenset(), ((1, 9), (0, 0))),
        "transition from state 0 on symbol 'b' targets 9, out of range for 2 states",
    )
    check_message(
        (AB, 2, 0, frozenset(), ((1, 0), (0, 0, 1))),
        "state 1 has 3 transitions for 2 symbols",
    )
    check_message((AB, 0, 0, frozenset(), ()), "state count must be positive, got 0")
    # the first problem in checking order is the one reported
    check_message(
        (AB, 2, 5, frozenset({3}), ((1, 9), (0, 0))),
        "start state 5 out of range for 2 states",
    )


def test_validate_reports_row_count():
    check_message(
        (AB, 2, 0, frozenset(), ((0, 0),)), "transition table has 1 rows for 2 states"
    )


def test_broken_machines_fail_at_construction():
    # each of these once gave a wrong state complexity or a deep IndexError
    # or TypeError; now construction refuses it and names the problem
    rows = ((1, 0), (0, 1))
    broken = {
        "final state 5 out of range": (AB, 2, 0, {5}, rows),
        "targets -1, out of range": (AB, 2, 0, {1}, ((1, -1), (0, 1))),
        "start state 9 out of range": (AB, 2, 9, {1}, rows),
        "transition table has 2 rows for 3 states": (AB, 3, 0, {1}, rows),
        "missing transition from state 1 on symbol 'a'": (
            AB, 2, 0, {1}, ((1, 0), (None, 1))
        ),
        "finals must be a set of states, got 1": (AB, 2, 0, 1, rows),
        r"transition table must be rows of targets, got \(1, 0\)": (
            AB, 2, 0, {1}, (1, 0)
        ),
    }
    for problem, fields in broken.items():
        with pytest.raises(InvalidDfa, match=problem):
            Dfa(*fields)
    assert issubclass(InvalidDfa, ValueError)


def test_non_integer_state_count_is_invalid():
    check_message(
        (AB, 2.0, 0, frozenset(), ((1, 0), (0, 1))),
        "state count must be an integer, got 2.0",
    )
    check_message(
        (AB, True, 0, frozenset(), ((0, 0),)),
        "state count must be an integer, got True",
    )


def test_non_integer_start_is_invalid():
    check_message(
        (AB, 2, 1.0, frozenset(), ((1, 0), (0, 1))),
        "start state must be an integer, got 1.0",
    )
    check_message(
        (AB, 2, False, frozenset(), ((1, 0), (0, 1))),
        "start state must be an integer, got False",
    )


def test_non_integer_final_is_invalid():
    rows = ((1, 0), (0, 1))
    check_message((AB, 2, 0, {1.0}, rows), "final state must be an integer, got 1.0")
    # a name among integer finals cannot even be ordered against them
    check_message((AB, 2, 0, {0, "1"}, rows), "final state must be an integer, got '1'")
    check_message((AB, 2, 0, {True}, rows), "final state must be an integer, got True")


def test_non_integer_target_is_invalid():
    check_message(
        (AB, 2, 0, frozenset({1}), ((1.0, 0), (0, 1))),
        "transition from state 0 on symbol 'a' targets 1.0, not an integer",
    )
    check_message(
        (AB, 2, 0, frozenset({1}), ((True, 0), (0, 1))),
        "transition from state 0 on symbol 'a' targets True, not an integer",
    )


def test_dfa_accepts_star_n_cycle():
    d = star_witness_n(3)
    # two c steps land on the final state 2; a third wraps back to 0
    assert dfa_accepts(d, d.alphabet.word("cc"))
    assert not dfa_accepts(d, d.alphabet.word("ccc"))
    assert not dfa_accepts(d, ())


def test_dfa_accepts_checks_symbol_range():
    d = star_witness_n(2)
    # a bool or a float would pass for an index, or fail with a TypeError
    for word in ((7,), (-1,), (0, 3), (True,), (0, False), (0.0,), ("a",), "ab"):
        with pytest.raises(ValueError):
            dfa_accepts(d, word)
    with pytest.raises(ValueError):
        star_membership_oracle(d, (0.0,))


@pytest.mark.parametrize(
    "word, symbol",
    [
        ((3,), 3),
        ((-1,), -1),
        ((0, 1, 7), 7),
        ((True,), True),
        ((0, False), False),
        ((0.0,), 0.0),
        (("a",), "a"),
        ("ab", "a"),
    ],
    ids=[
        "too-large", "negative", "late", "bool", "late-bool", "float", "name", "string"
    ],
)
def test_every_word_reader_refuses_a_bad_symbol(word, symbol):
    d = star_witness_n(2)
    expected = f"symbol {symbol!r} is not an index into an alphabet of size 3"
    for accepts in (dfa_accepts, star_membership_oracle, reverse_membership_oracle):
        with pytest.raises(ValueError) as err:
            accepts(d, word)
        assert str(err.value) == expected, accepts


@pytest.mark.parametrize(
    "accepts",
    [dfa_accepts, star_membership_oracle, reverse_membership_oracle],
    ids=["dfa_accepts", "star_membership_oracle", "reverse_membership_oracle"],
)
def test_words_are_read_once_so_iterators_give_the_tuple_answer(accepts):
    assert accepts(star_witness_n(2), iter((2,)))
    for d in (star_witness_n(2), reversal_witness_m(3)):
        for w in words_upto(d.sigma, 3):
            expected = accepts(d, w)
            assert accepts(d, iter(w)) == expected, (d, w)
            assert accepts(d, (s for s in w)) == expected, (d, w)
        # a string is an iterable of names, not of symbol indices
        with pytest.raises(ValueError):
            accepts(d, "ab")


def test_reversal_witness_rejects_single_a():
    d = reversal_witness_m(2)
    assert not dfa_accepts(d, d.alphabet.word("a"))
    assert dfa_accepts(d, ())


def test_relabel_canonical_renumbers_by_discovery():
    # start at 2; reachable order is 2, 0, 1 and state 3 is dropped
    d = Dfa(
        AB,
        4,
        2,
        frozenset({0, 3}),
        ((1, 1), (0, 0), (0, 1), (3, 3)),
    )
    canon = relabel_canonical(d)
    assert canon.state_count == 3
    assert canon.start == 0
    assert canon.finals == frozenset({1})
    assert canon.delta == ((1, 2), (2, 2), (1, 1))


def test_reachable_keeps_the_rows_of_a_canonical_machine():
    # a canonical machine is already in discovery order, so its own table
    # comes back as the rows; every renumbering of it canonicalises back to it
    rng = random.Random(11)
    for d in (reversal_witness_m(4), star_witness_n(5), random_dfa(12, AB, 3)):
        canon = relabel_canonical(d)
        n = canon.state_count
        order, rows, finals = reachable(canon)
        assert order == list(range(n))
        assert rows == list(canon.delta)
        assert finals == [q in canon.finals for q in range(n)]
        for _ in range(5):
            new = list(range(n))
            rng.shuffle(new)
            delta: list[tuple[int, ...]] = [()] * n
            for q, row in enumerate(canon.delta):
                delta[new[q]] = tuple(new[t] for t in row)
            finals_set = {new[q] for q in canon.finals}
            shuffled = mkdfa(canon.alphabet, delta, finals_set, new[canon.start])
            assert relabel_canonical(shuffled) == canon


def test_relabel_canonical_is_idempotent():
    d = relabel_canonical(reversal_witness_m(3))
    assert relabel_canonical(d) == d


def test_require_same_alphabet():
    require_same_alphabet(star_witness_n(2), star_witness_n(3))
    with pytest.raises(AlphabetMismatch):
        require_same_alphabet(star_witness_n(2), reversal_witness_m(2))
    assert STAR_ALPHABET != REVERSAL_ALPHABET

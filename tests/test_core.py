import pytest

from sclab import (
    Alphabet,
    AlphabetMismatch,
    Dfa,
    InvalidDfa,
    Nfa,
    complete_dfa,
    dfa_accepts,
    nfa_accepts,
    relabel_canonical,
    require_same_alphabet,
)
from sclab.witnesses import (
    REVERSAL_ALPHABET,
    STAR_ALPHABET,
    reversal_witness_m,
    star_witness_n,
)

from conftest import AB, mkdfa, rebuilt


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


def test_nfa_normalises_fields_and_allows_empty_starts():
    nf = Nfa(AB, 2, set(), {0}, [[{1}, set()], [set(), {0}]])
    assert nf.starts == frozenset()
    assert nf.delta[0][0] == frozenset({1})
    assert not nfa_accepts(nf, ())
    assert not nfa_accepts(nf, (0, 1))


NFA_ROWS = (({1}, {0}), ({0}, {1}))


@pytest.mark.parametrize(
    "fields, message",
    [
        ((AB, 2.0, {0}, {1}, NFA_ROWS), "state count must be an integer, got 2.0"),
        ((AB, 0, set(), set(), ()), "state count must be positive, got 0"),
        ((AB, 2, {5}, {1}, NFA_ROWS), "start state 5 is not one of the 2 states"),
        ((AB, 2, {0}, {9}, NFA_ROWS), "final state 9 is not one of the 2 states"),
        ((AB, 2, {0}, {"1"}, NFA_ROWS), "final state '1' is not one of the 2 states"),
        ((AB, 2, {False}, {1}, NFA_ROWS), "start state False is not one of the 2 states"),
        ((AB, 2, {0}, {1}, NFA_ROWS[:1]), "transition table has 1 rows for 2 states"),
        ((AB, 2, {0}, {1}, (({1},), ({0}, {1}))), "state 0 has 1 cells for 2 symbols"),
        (
            (AB, 2, {0}, {1}, (({1}, {0}), ({0}, {7}))),
            "transition from state 1 on symbol 'b' targets 7, not one of the 2 states",
        ),
        (
            (AB, 2, {0}, {1}, (({None}, {0}), ({0}, {1}))),
            "transition from state 0 on symbol 'a' targets None, not one of the 2 states",
        ),
        ((AB, 2, 0, {1}, NFA_ROWS), "starts must be a set of states, got 0"),
        (
            (AB, 2, {0}, {1}, ((1, 0), (0, 1))),
            "transition table must be rows of target sets, got ((1, 0), (0, 1))",
        ),
    ],
    ids=[
        "count-type",
        "count-zero",
        "start",
        "final",
        "final-type",
        "start-bool",
        "rows",
        "short-row",
        "target",
        "target-type",
        "starts-shape",
        "rows-shape",
    ],
)
def test_nfa_rejects_broken_fields(fields, message):
    with pytest.raises(ValueError) as err:
        Nfa(*fields)
    assert str(err.value) == message


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


def test_complete_returns_complete_machine_unchanged():
    full = complete_dfa(AB, 2, 0, {1}, [(1, 0), [0, 1]])
    assert full == Dfa(AB, 2, 0, frozenset({1}), ((1, 0), (0, 1)))


def test_complete_adds_single_nonfinal_sink():
    full = complete_dfa(AB, 2, 0, {1}, ((1, None), (None, 1)))
    assert rebuilt(full) == full
    assert full.state_count == 3
    assert 2 not in full.finals
    assert full.delta[0] == (1, 2)
    assert full.delta[1] == (2, 1)
    assert full.delta[2] == (2, 2)
    # the sink traps, so old behaviour is preserved on defined paths
    assert dfa_accepts(full, (0,))
    assert not dfa_accepts(full, (1,))
    # a short row is missing its last transitions, and gets the same sink
    assert complete_dfa(AB, 2, 0, {1}, ((1,), (None, 1))) == full


def test_complete_rejects_broken_machines():
    with pytest.raises(InvalidDfa, match="targets 5"):
        complete_dfa(AB, 2, 0, (), ((5, 0), (0, 0)))
    with pytest.raises(InvalidDfa, match="start state 3"):
        complete_dfa(AB, 2, 3, (), ((0, 0), (0, 0)))
    with pytest.raises(InvalidDfa, match="start state 2 out of range for 2 states"):
        complete_dfa(AB, 2, 2, (), ((0, None), (0, 0)))
    with pytest.raises(InvalidDfa, match="state 0 has 3 transitions for 2 symbols"):
        complete_dfa(AB, 2, 0, (), ((0, None, 1), (0, 0)))
    # a present target cannot name the sink that completion would add
    with pytest.raises(InvalidDfa, match="targets 2, out of range for 2 states"):
        complete_dfa(AB, 2, 0, (), ((2, None), (0, 0)))
    with pytest.raises(InvalidDfa, match="must be rows of targets, got"):
        complete_dfa(AB, 2, 0, (), (1, 0))


def test_dfa_accepts_star_n_cycle():
    d = star_witness_n(3)
    # two c steps land on the final state 2; a third wraps back to 0
    assert dfa_accepts(d, d.alphabet.word("cc"))
    assert not dfa_accepts(d, d.alphabet.word("ccc"))
    assert not dfa_accepts(d, ())


def test_dfa_accepts_checks_symbol_range():
    with pytest.raises(ValueError):
        dfa_accepts(star_witness_n(2), (7,))


def test_reversal_witness_rejects_single_a():
    d = reversal_witness_m(2)
    assert not dfa_accepts(d, d.alphabet.word("a"))
    assert dfa_accepts(d, ())


def test_nfa_accepts_checks_symbol_range():
    nf = Nfa(AB, 1, {0}, {0}, (((frozenset({0}), frozenset({0})),)))
    with pytest.raises(ValueError):
        nfa_accepts(nf, (3,))


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


def test_relabel_canonical_is_idempotent():
    d = relabel_canonical(reversal_witness_m(3))
    assert relabel_canonical(d) == d


def test_require_same_alphabet():
    require_same_alphabet(star_witness_n(2), star_witness_n(3))
    with pytest.raises(AlphabetMismatch):
        require_same_alphabet(star_witness_n(2), reversal_witness_m(2))
    assert STAR_ALPHABET != REVERSAL_ALPHABET

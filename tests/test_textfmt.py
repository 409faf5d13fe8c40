import tracemalloc

import pytest

from sclab import Dfa, ParseError, format_dfa, format_dot, parse_dfa
from sclab.witnesses import (
    reversal_witness_m,
    reversal_witness_n,
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
)

from conftest import AB, mkdfa

SAMPLE = """\
dfa
alphabet a b
states 2
start 0
final 1
0 a 1
0 b 0
1 a 1
1 b 0
"""


def test_parse_sample():
    d = parse_dfa(SAMPLE)
    assert d.state_count == 2
    assert d.start == 0
    assert d.finals == frozenset({1})
    assert d.delta == ((1, 0), (1, 0))
    assert d.alphabet.symbols == ("a", "b")


def test_format_is_inverse_of_parse():
    assert format_dfa(parse_dfa(SAMPLE)) == SAMPLE


def test_round_trip_on_all_witness_families():
    machines = [
        star_witness_m(4),
        star_witness_n(3),
        star_witness_n_intersection(3),
        reversal_witness_m(5),
        reversal_witness_n(2),
    ]
    for d in machines:
        assert parse_dfa(format_dfa(d)) == d


def test_parse_skips_blanks_and_comments():
    noisy = "# header comment\n\ndfa\n\nalphabet a b\n# mid\nstates 1\nstart 0\nfinal\n0 a 0\n\n0 b 0\n# tail\n"
    d = parse_dfa(noisy)
    assert d.state_count == 1
    assert d.finals == frozenset()


def test_format_empty_finals_is_bare_line():
    d = mkdfa(AB, [(0, 0)], set())
    assert "\nfinal\n" in format_dfa(d)
    assert parse_dfa(format_dfa(d)) == d


def test_format_sorts_finals_and_transitions():
    d = Dfa(AB, 3, 1, frozenset({2, 0}), ((2, 1), (0, 2), (1, 0)))
    text = format_dfa(d)
    assert "final 0 2" in text
    lines = text.splitlines()
    transitions = lines[5:]
    assert transitions == sorted(
        transitions, key=lambda ln: (int(ln.split()[0]), ln.split()[1])
    )


def _line_of(text: str) -> int:
    with pytest.raises(ParseError) as err:
        parse_dfa(text)
    return err.value.line


def test_parse_error_missing_header():
    assert _line_of("alphabet a\nstates 1\nstart 0\nfinal\n0 a 0\n") == 1


def test_parse_error_alphabet_duplicate():
    assert _line_of("dfa\nalphabet a a\nstates 1\nstart 0\nfinal\n0 a 0\n") == 2


def test_parse_error_nonpositive_state_count():
    assert _line_of("dfa\nalphabet a\nstates 0\nstart 0\nfinal\n") == 3


def test_parse_error_start_out_of_range():
    assert _line_of("dfa\nalphabet a\nstates 1\nstart 4\nfinal\n0 a 0\n") == 4


def test_parse_error_duplicate_final():
    assert _line_of("dfa\nalphabet a\nstates 1\nstart 0\nfinal 0 0\n0 a 0\n") == 5


def test_parse_error_transition_arity():
    assert _line_of("dfa\nalphabet a\nstates 1\nstart 0\nfinal\n0 a\n") == 6


def test_parse_error_unknown_symbol():
    text = "dfa\nalphabet a\nstates 1\nstart 0\nfinal\n0 z 0\n"
    with pytest.raises(ParseError, match="unknown symbol: 'z'"):
        parse_dfa(text)


def test_parse_error_duplicate_transition():
    text = "dfa\nalphabet a\nstates 2\nstart 0\nfinal\n0 a 0\n0 a 1\n1 a 1\n"
    with pytest.raises(ParseError, match="duplicate transition"):
        parse_dfa(text)


def test_parse_error_target_out_of_range():
    with pytest.raises(ParseError, match="target state 7"):
        parse_dfa("dfa\nalphabet a\nstates 1\nstart 0\nfinal\n0 a 7\n")


def test_parse_error_truncated_table_points_past_end():
    text = "dfa\nalphabet a b\nstates 1\nstart 0\nfinal\n0 a 0\n"
    assert _line_of(text) == 7


def test_parse_error_trailing_content():
    text = SAMPLE + "1 b 0\n"
    with pytest.raises(ParseError, match="unexpected trailing content"):
        parse_dfa(text)


def test_parse_error_non_integer_token():
    with pytest.raises(ParseError, match="expected an integer"):
        parse_dfa("dfa\nalphabet a\nstates x\nstart 0\nfinal\n0 a 0\n")


def test_a_claimed_state_count_allocates_nothing_before_the_transitions():
    text = "dfa\nalphabet a\nstates 1000000\nstart 0\nfinal\n0 a 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_dfa(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "line 7: unexpected end of input, expected a transition line"
    )
    assert peak < 1 << 20


HEADER = "dfa\nalphabet a\nstates 1\nstart 0\nfinal\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("dfa\nalphabet\n", 2, "expected 'alphabet' followed by at least one symbol"),
        ("dfa\nalphabet a\nstates 1 2\n", 3, "expected 'states' followed by a count"),
        (
            "dfa\nalphabet a\nstates 1\nbegin 0\n",
            4,
            "expected 'start' followed by a state",
        ),
        (
            "dfa\nalphabet a\nstates 1\nstart 0\nfinals 0\n",
            5,
            "expected 'final' followed by zero or more states",
        ),
        (
            "dfa\nalphabet a\nstates 1\nstart 0\nfinal 3\n",
            5,
            "final state 3 out of range for 1 states",
        ),
        (HEADER + "5 a 0\n", 6, "source state 5 out of range for 1 states"),
    ],
)
def test_parse_error_messages_name_their_line(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_dfa(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_dot_output_shape():
    d = star_witness_n(2)
    dot = format_dot(d)
    assert dot.startswith("digraph dfa {")
    assert "rankdir=LR;" in dot
    assert "__start -> 0;" in dot
    assert "1 [shape=doublecircle];" in dot
    assert "0 [shape=circle];" in dot
    assert '0 -> 1 [label="c"];' in dot
    assert '1 -> 0 [label="c"];' in dot
    assert dot.count("[label=") == d.state_count * d.sigma
    assert dot.rstrip().endswith("}")


def test_dot_escapes_quotes_and_backslashes_in_labels():
    d = parse_dfa('dfa\nalphabet " \\\nstates 1\nstart 0\nfinal 0\n0 " 0\n0 \\ 0\n')
    dot = format_dot(d)
    assert r'0 -> 0 [label="\""];' in dot
    assert r'0 -> 0 [label="\\"];' in dot

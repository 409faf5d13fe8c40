"""Property-based invariants over randomly built machines."""

import subprocess
import sys
import textwrap
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sclab import (
    Alphabet,
    CombinedOp,
    Dfa,
    bounded_language_equal,
    combined,
    dfa_accepts,
    distinguishing_word,
    equivalent,
    first_component,
    minimize,
    pipeline_bound,
    product,
    relabel_canonical,
    reverse_membership_oracle,
    star_explicit,
    star_membership_oracle,
    state_complexity,
    table_filling_minimize,
)
from sclab.oracle import SplitMix64, random_dfa

ALPHABETS = {
    1: Alphabet(("a",)),
    2: Alphabet(("a", "b")),
    3: Alphabet(("a", "b", "c")),
}


@st.composite
def dfas(draw, max_states: int = 5, sigma: int | None = None):
    states = draw(st.integers(1, max_states))
    if sigma is None:
        sigma = draw(st.integers(1, 3))
    alphabet = ALPHABETS[sigma]
    delta = tuple(
        tuple(draw(st.integers(0, states - 1)) for _ in range(sigma))
        for _ in range(states)
    )
    finals = frozenset(
        q for q in range(states) if draw(st.booleans())
    )
    return Dfa(alphabet, states, 0, finals, delta)


@st.composite
def dfa_pairs(draw, max_states: int = 4):
    sigma = draw(st.integers(1, 3))
    d1 = draw(dfas(max_states=max_states, sigma=sigma))
    d2 = draw(dfas(max_states=max_states, sigma=sigma))
    return d1, d2


def word_for(d: Dfa, draw, maxlen: int = 5):
    length = draw(st.integers(0, maxlen))
    return tuple(draw(st.integers(0, d.sigma - 1)) for _ in range(length))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_minimize_preserves_the_language(data):
    d = data.draw(dfas())
    small = minimize(d)
    assert equivalent(d, small)
    assert small.state_count <= d.state_count


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_minimize_leaves_no_equivalent_pair(data):
    d = data.draw(dfas())
    small = minimize(d)
    for p in range(small.state_count):
        for q in range(p + 1, small.state_count):
            assert distinguishing_word(small, p, q) is not None


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_minimize_is_canonical_and_idempotent(data):
    d = data.draw(dfas())
    small = minimize(d)
    assert minimize(small) is small
    assert relabel_canonical(small) == small


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_both_minimisers_agree_structurally(data):
    d = data.draw(dfas())
    assert table_filling_minimize(d) == minimize(d)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_equivalence_matches_bounded_comparison(data):
    d1, d2 = data.draw(dfa_pairs())
    depth = d1.state_count * d2.state_count
    assert equivalent(d1, d2) == bounded_language_equal(d1, d2, depth)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_relabeling_preserves_acceptance(data):
    d = data.draw(dfas())
    canon = relabel_canonical(d)
    assert equivalent(d, canon)
    w = word_for(d, data.draw)
    assert dfa_accepts(d, w) == dfa_accepts(canon, w)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_star_explicit_acceptance_is_star_membership(data):
    d = data.draw(dfas(max_states=4))
    sub = star_explicit(d)
    w = word_for(d, data.draw, maxlen=6)
    assert dfa_accepts(sub.dfa, w) == star_membership_oracle(d, w)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_star_walk_acceptance_is_star_membership(data):
    d = data.draw(dfas(max_states=4))
    star = first_component(d, CombinedOp.STAR_UNION).dfa
    w = word_for(d, data.draw, maxlen=6)
    assert dfa_accepts(star, w) == star_membership_oracle(d, w)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_determinized_reversal_accepts_reversed_words(data):
    d = data.draw(dfas(max_states=4))
    sub = first_component(d, CombinedOp.REVERSAL_UNION)
    w = word_for(d, data.draw, maxlen=6)
    assert dfa_accepts(sub.dfa, w) == reverse_membership_oracle(d, w)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_product_acceptance_is_the_boolean_combination(data):
    d1, d2 = data.draw(dfa_pairs())
    union = product(d1, d2, "union").dfa
    inter = product(d1, d2, "intersection").dfa
    w = word_for(d1, data.draw)
    in1 = dfa_accepts(d1, w)
    in2 = dfa_accepts(d2, w)
    assert dfa_accepts(union, w) == (in1 or in2)
    assert dfa_accepts(inter, w) == (in1 and in2)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_measured_size_never_beats_the_pipeline_bound(data):
    d1, d2 = data.draw(dfa_pairs(max_states=4))
    op = data.draw(st.sampled_from(list(CombinedOp)))
    if op.uses_star and d1.state_count < 2:
        return
    k = len(d1.finals - {d1.start})
    measured = state_complexity(d1, d2, op)
    assert measured <= pipeline_bound(op, d1.state_count, d2.state_count, k)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_combined_acceptance_matches_the_oracles(data):
    d1, d2 = data.draw(dfa_pairs(max_states=3))
    op = data.draw(st.sampled_from(list(CombinedOp)))
    if op.uses_star and d1.state_count < 2:
        return
    pipe = combined(d1, d2, op).dfa
    w = word_for(d1, data.draw, maxlen=5)
    left = (
        star_membership_oracle(d1, w)
        if op.uses_star
        else reverse_membership_oracle(d1, w)
    )
    right = dfa_accepts(d2, w)
    expect = (left or right) if op.boolean_mode == "union" else (left and right)
    assert dfa_accepts(pipe, w) == expect


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**64 - 1))
def test_random_dfa_matches_its_seeded_stream(seed):
    d = random_dfa(3, ALPHABETS[2], seed)
    rng = SplitMix64(seed)
    expect_rows = tuple(
        tuple(rng.below(3) for _ in range(2)) for _ in range(3)
    )
    expect_finals = frozenset(q for q in range(3) if rng.next_uint64() & 1)
    assert d.delta == expect_rows
    assert d.finals == expect_finals


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_first_component_star_cases_accept_the_star(data):
    d = data.draw(dfas(max_states=4))
    if d.state_count < 2:
        return
    sub = first_component(d, CombinedOp.STAR_UNION)
    w = word_for(d, data.draw, maxlen=5)
    assert dfa_accepts(sub.dfa, w) == star_membership_oracle(d, w)


def test_a_failing_property_is_reported_under_the_suite_warning_filters(tmp_path):
    # The suite turns warnings into errors.  Hypothesis's report hook for a
    # failing test raised a deprecation warning of its own, which pytest
    # turned into INTERNALERROR, ending the run before the remaining tests.
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
        filters = tomllib.load(f)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    lines = "".join(f"    {rule}\n" for rule in filters)
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings =\n{lines}")
    (tmp_path / "test_one_property.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st


            @given(st.integers())
            def test_fails(x):
                assert x < 0


            def test_passes():
                pass
            """
        )
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out

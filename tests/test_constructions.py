import pytest

from sclab import (
    Alphabet,
    AlphabetMismatch,
    CombinedOp,
    Dfa,
    combined,
    dfa_accepts,
    enumerate_dfas,
    first_component,
    minimize,
    product,
    relabel_canonical,
    star_explicit,
    equivalent,
)
from sclab.constructions import first_component_cap
from sclab.oracle import (
    random_dfa,
    reverse_membership_oracle,
    star_membership_oracle,
    table_filling_minimize,
)
from sclab.witnesses import (
    REVERSAL_ALPHABET,
    STAR_ALPHABET,
    reversal_witness_m,
    star_witness_m,
    star_witness_n,
)

from conftest import (
    AB,
    FRESH_START,
    first_simulation,
    mkdfa,
    paired_simulation,
    reference_walk,
    reversal_simulation,
    simulated,
    star_simulation,
    words_upto,
)


def test_combined_op_properties():
    assert CombinedOp.STAR_UNION.uses_star
    assert CombinedOp.STAR_INTERSECTION.uses_star
    assert not CombinedOp.REVERSAL_UNION.uses_star
    assert CombinedOp.STAR_UNION.boolean_mode == "union"
    assert CombinedOp.REVERSAL_INTERSECTION.boolean_mode == "intersection"
    assert CombinedOp("star-union") is CombinedOp.STAR_UNION


def test_reversed_machine_accepts_reversed_words():
    for m in (2, 3, 4):
        d = reversal_witness_m(m)
        sub = first_component(d, CombinedOp.REVERSAL_UNION)
        for w in words_upto(d.sigma, 4):
            assert dfa_accepts(sub.dfa, w) == dfa_accepts(d, tuple(reversed(w)))


def test_determinize_reversal_witness_is_full_power_set():
    sub = first_component(reversal_witness_m(2), CombinedOp.REVERSAL_UNION)
    assert sub.dfa.state_count == 4
    sub3 = first_component(reversal_witness_m(3), CombinedOp.REVERSAL_UNION)
    assert sub3.dfa.state_count == 8
    assert minimize(sub3.dfa).state_count == 8


def test_determinize_output_is_canonical_and_complete():
    sub = first_component(reversal_witness_m(3), CombinedOp.REVERSAL_UNION)
    assert relabel_canonical(sub.dfa) == sub.dfa


def test_determinize_empty_subset_is_nonfinal_sink():
    d = mkdfa(AB, [(0, 1), (1, 0)], set())
    sub = first_component(d, CombinedOp.REVERSAL_UNION)
    assert sub.dfa.finals == frozenset()
    assert sub.dfa.delta == ((0, 0),)


def test_star_explicit_smallest_witness_structure():
    sub = star_explicit(star_witness_m(2))
    assert sub.dfa.start == 0
    assert sub.dfa.finals == frozenset({0, 2})
    # the injected start mirrors the {0} row
    assert sub.dfa.delta[0] == sub.dfa.delta[1]


def test_star_explicit_state_count_formula():
    for m in range(2, 7):
        sub = star_explicit(star_witness_m(m))
        assert sub.dfa.state_count == 2 ** (m - 1) + 2 ** (m - 2)
    # two finals away from the start: k = 2
    d = Dfa(STAR_ALPHABET, 4, 0, frozenset({2, 3}), (
        (1, 1, 0), (2, 2, 1), (3, 3, 2), (0, 0, 3),
    ))
    sub = star_explicit(d)
    assert sub.dfa.state_count == 2 ** 3 + 2 ** 1


def test_star_explicit_without_a_final_besides_the_start():
    # k = 0: every non-empty subset plus the injected start, 2**m states;
    # the star is the language itself (start final) or {empty word}
    for finals in ({0}, set()):
        d = mkdfa(AB, [(0, 1), (1, 0)], finals)
        sub = star_explicit(d)
        assert sub.state_count == sub.dfa.state_count == 2**2
        for w in words_upto(2, 6):
            expected = dfa_accepts(d, w) if finals else not w
            assert dfa_accepts(sub.dfa, w) == expected, (finals, w)
            assert star_membership_oracle(d, w) == expected, (finals, w)


def test_star_explicit_matches_membership_oracle():
    machines = [star_witness_m(m) for m in (2, 3, 4)]
    machines += [random_dfa(3, AB, seed) for seed in range(200)]
    for d in machines:
        sub = star_explicit(d)
        for w in words_upto(d.sigma, 6):
            assert dfa_accepts(sub.dfa, w) == star_membership_oracle(d, w)


def test_product_union_and_intersection_finals():
    d1 = star_witness_n(2)
    d2 = star_witness_n(3)
    union = product(d1, d2, "union")
    inter = product(d1, d2, "intersection")
    assert union.dfa.state_count == inter.dfa.state_count == 6
    # c^j lands on the pair (j mod 2, j mod 3)
    for j in range(13):
        w = (2,) * j
        assert dfa_accepts(union.dfa, w) == (j % 2 == 1 or j % 3 == 2)
        assert dfa_accepts(inter.dfa, w) == (j % 2 == 1 and j % 3 == 2)
    # a and b leave both machines in place, so they never change membership
    assert dfa_accepts(inter.dfa, (0, 2, 1, 2, 0, 2, 2, 2)) == dfa_accepts(
        inter.dfa, (2,) * 5
    )


def test_product_rejects_bad_inputs():
    with pytest.raises(ValueError):
        product(star_witness_n(2), star_witness_n(2), "xor")
    with pytest.raises(AlphabetMismatch):
        product(star_witness_n(2), reversal_witness_m(2), "union")


def test_first_component_dispatch():
    assert first_component(star_witness_m(3), CombinedOp.STAR_UNION).state_count == 6
    rev = first_component(reversal_witness_m(3), CombinedOp.REVERSAL_UNION)
    assert rev.state_count == 8

    # a machine with no final besides the start takes the same star walk
    start_final = mkdfa(STAR_ALPHABET, [(0, 0, 1), (1, 1, 0)], {0})
    no_finals = mkdfa(STAR_ALPHABET, [(0, 0, 1), (1, 1, 0)], set())
    for d in (start_final, no_finals):
        sub = first_component(d, CombinedOp.STAR_INTERSECTION)
        for w in words_upto(3, 5):
            assert dfa_accepts(sub.dfa, w) == star_membership_oracle(d, w), (d, w)


def test_combined_pairs_labels_and_counts():
    sub = combined(star_witness_m(2), star_witness_n(2), CombinedOp.STAR_UNION)
    # reachable pairs only; this smallest union cell happens to be minimal
    assert sub.dfa.state_count == 5
    assert minimize(sub.dfa).state_count == 5


def test_combined_requires_matching_alphabets():
    with pytest.raises(AlphabetMismatch):
        combined(star_witness_m(2), reversal_witness_m(2), CombinedOp.STAR_UNION)


def test_combined_small_cells_hit_known_sizes():
    d = combined(star_witness_m(3), star_witness_n(2), CombinedOp.STAR_UNION)
    assert minimize(d.dfa).state_count == 11
    r = combined(
        reversal_witness_m(2),
        mkdfa(REVERSAL_ALPHABET, [(0, 0, 0, 1), (1, 1, 1, 0)], {0}),
        CombinedOp.REVERSAL_INTERSECTION,
    )
    assert minimize(r.dfa).state_count == 7


def test_combined_reversal_acceptance_matches_oracles():
    dM = reversal_witness_m(3)
    dN = mkdfa(REVERSAL_ALPHABET, [(0, 0, 0, 1), (1, 1, 1, 0)], {0})
    union = combined(dM, dN, CombinedOp.REVERSAL_UNION)
    for w in words_upto(4, 5):
        expect = reverse_membership_oracle(dM, w) or dfa_accepts(dN, w)
        assert dfa_accepts(union.dfa, w) == expect


ALPHABETS = [Alphabet(("a", "b", "c")[:sigma]) for sigma in (1, 2, 3)]


def random_machines(sizes, per_size=6):
    """Seeded random machines of every given size over 1 to 3 letters,
    their starts spread over the states."""
    for alphabet in ALPHABETS:
        for m in sizes:
            for seed in range(per_size):
                d = random_dfa(m, alphabet, seed * 131 + m)
                yield Dfa(alphabet, m, seed % m, d.finals, d.delta)


def star_final(d):
    return lambda v: v == FRESH_START or bool(v & d.finals)


def first_final(d, op):
    return star_final(d) if op.uses_star else lambda v: d.start in v


def reference_first(d, op):
    """``op``'s first component on ``d``, walked over frozensets."""
    return reference_walk(d.alphabet, first_simulation(d, op), first_final(d, op))


@pytest.mark.parametrize(
    "witness, op, m, states",
    [(reversal_witness_m, CombinedOp.REVERSAL_UNION, m, 2**m) for m in (2, 3, 4, 5)]
    + [
        (star_witness_m, CombinedOp.STAR_UNION, m, 2 ** (m - 1) + 2 ** (m - 2))
        for m in (2, 3, 4, 5)
    ],
    ids=[f"reversal-m{m}" for m in (2, 3, 4, 5)] + [f"star-m{m}" for m in (2, 3, 4, 5)],
)
def test_reference_walk_reaches_the_paper_counts(witness, op, m, states):
    # the reference on its own, with no library walk: the witness's first
    # component has the paper's count of states, all of them distinct
    reference = reference_first(witness(m), op)
    assert reference.state_count == states
    assert table_filling_minimize(reference).state_count == states


def test_reversal_first_component_is_the_reference_subset_construction():
    for d in random_machines(range(1, 6)):
        for op in (CombinedOp.REVERSAL_UNION, CombinedOp.REVERSAL_INTERSECTION):
            built = first_component(d, op)
            assert built.dfa == reference_first(d, op), d


def assert_one_to_one(sub, values, final):
    """Distinct reachable states of ``sub`` hold distinct values, and a
    state is final iff ``final`` holds for its value."""
    reached = [(q, v) for q, v in enumerate(values) if v is not None]
    assert len({v for _, v in reached}) == len(reached), sub.dfa
    for q, v in reached:
        assert (q in sub.dfa.finals) == final(v), (sub.dfa, q, v)


def test_determinize_labels_are_the_simulated_subsets():
    op = CombinedOp.REVERSAL_INTERSECTION
    for d in random_machines(range(1, 6)):
        sub = first_component(d, op)
        values = simulated(sub.dfa, *reversal_simulation(d))
        assert None not in values, d
        assert_one_to_one(sub, values, first_final(d, op))


def test_star_explicit_labels_are_the_simulated_subsets():
    for d in random_machines(range(2, 6)):
        sub = star_explicit(d)
        values = simulated(sub.dfa, *star_simulation(d))
        assert_one_to_one(sub, values, star_final(d))


def test_combined_labels_pair_the_states_a_word_reaches():
    machines = list(random_machines(range(2, 5), per_size=3))
    for op in CombinedOp:
        for dM, dN in zip(machines, machines[1:]):
            if dM.alphabet != dN.alphabet:
                continue
            sub = combined(dM, dN, op)
            pairs = paired_simulation(first_simulation(dM, op), dN)
            values = simulated(sub.dfa, *pairs)
            assert None not in values, (dM, dN)
            left = first_final(dM, op)
            if op.boolean_mode == "union":
                final = lambda v: left(v[0]) or v[1] in dN.finals
            else:
                final = lambda v: left(v[0]) and v[1] in dN.finals
            assert_one_to_one(sub, values, final)


def star_machines():
    """Every 1- to 3-state DFA on two letters, then seeded random machines
    of 1 to 5 states on three letters with their starts spread over the
    states."""
    for m in (1, 2, 3):
        machines = []
        enumerate_dfas(m, AB, machines.append)
        yield from machines
    abc = Alphabet(("a", "b", "c"))
    for seed in range(100):
        m = 1 + seed % 5
        d = random_dfa(m, abc, seed)
        yield Dfa(abc, m, seed // 5 % m, d.finals, d.delta)


def test_star_walk_accepts_the_star_within_the_explicit_count():
    words = {sigma: list(words_upto(sigma, 6)) for sigma in (2, 3)}
    # the star depends only on the language, so the oracle runs once per
    # minimal DFA; the walk is built and run for every machine
    stars = {}
    for d in star_machines():
        key = minimize(d)
        if key not in stars:
            stars[key] = [star_membership_oracle(d, w) for w in words[d.sigma]]
        sub = first_component(d, CombinedOp.STAR_UNION)
        accepted = [dfa_accepts(sub.dfa, w) for w in words[d.sigma]]
        assert accepted == stars[key], d
        m, k = d.state_count, len(d.finals - {d.start})
        assert minimize(sub.dfa) == minimize(star_explicit(d).dfa), d
        assert sub.dfa.state_count <= 2 ** (m - 1) + 2 ** (m - k - 1), d


def test_star_walk_reaches_the_explicit_count_on_the_witnesses():
    for m in range(2, 11):
        d = star_witness_m(m)
        k = len(d.finals - {d.start})
        sub = first_component(d, CombinedOp.STAR_UNION)
        assert sub.dfa.state_count == 2 ** (m - 1) + 2 ** (m - k - 1), m
        assert equivalent(sub.dfa, star_explicit(d).dfa), m


def start_at_zero(d):
    """``d`` with its start and state 0 trading numbers."""
    s = d.start
    swap = {0: s, s: 0}
    rows = [None] * d.state_count
    for q, row in enumerate(d.delta):
        rows[swap.get(q, q)] = tuple(swap.get(t, t) for t in row)
    finals = frozenset(swap.get(q, q) for q in d.finals)
    return Dfa(d.alphabet, d.state_count, 0, finals, tuple(rows))


def test_first_component_stays_within_its_cap():
    machines = []
    for alphabet in (Alphabet(("a",)), AB):
        for m in (1, 2, 3):
            enumerate_dfas(m, alphabet, machines.append)
    abc = Alphabet(("a", "b", "c"))
    for seed in range(200):
        m = 1 + seed % 6
        d = random_dfa(m, abc, seed)
        machines.append(start_at_zero(Dfa(abc, m, seed // 6 % m, d.finals, d.delta)))
    for op in CombinedOp:
        # the largest first component per finals set, over the enumerated
        # binary machines
        reached = {}
        for d in machines:
            m = d.state_count
            size = first_component(d, op).dfa.state_count
            assert size <= first_component_cap(op, m, d.finals), (op, d)
            if d.alphabet == AB:
                key = m, d.finals
                reached[key] = max(reached.get(key, 0), size)
        # binary machines reach the cap for every finals set at m <= 3,
        # k = 0 included
        assert len(reached) == 2 + 4 + 8
        for (m, finals), size in reached.items():
            assert size == first_component_cap(op, m, finals), (op, m, finals)
        for m in range(2, 9):
            d = star_witness_m(m) if op.uses_star else reversal_witness_m(m)
            cap = first_component_cap(op, m, d.finals)
            assert first_component(d, op).dfa.state_count == cap, (op, m)


def test_star_walk_labels_are_the_simulated_subsets():
    for d in star_machines():
        sub = first_component(d, CombinedOp.STAR_INTERSECTION)
        values = simulated(sub.dfa, *star_simulation(d))
        assert None not in values, d
        assert_one_to_one(sub, values, star_final(d))


def test_star_explicit_reachable_part_is_the_star_walk():
    for d in star_machines():
        walk = first_component(d, CombinedOp.STAR_UNION).dfa
        assert relabel_canonical(star_explicit(d).dfa) == walk, d


def test_state_count_agrees_with_the_table():
    machines = []
    for m in (1, 2, 3):
        enumerate_dfas(m, AB, machines.append)
    abc = Alphabet(("a", "b", "c"))
    for seed in range(200):
        m = 1 + seed % 6
        d = random_dfa(m, abc, seed)
        machines.append(Dfa(abc, m, seed // 6 % m, d.finals, d.delta))
    for d, dN in zip(machines, machines[1:] + machines[:1]):
        reversal = reference_first(d, CombinedOp.REVERSAL_UNION)
        star = reference_first(d, CombinedOp.STAR_UNION)
        expected = [
            (first_component(d, CombinedOp.REVERSAL_UNION), reversal),
            (first_component(d, CombinedOp.STAR_UNION), star),
        ]
        if d.alphabet == dN.alphabet:
            for op in CombinedOp:
                first = star if op.uses_star else reversal
                prod = product(first, dN, op.boolean_mode)
                expected.append((combined(d, dN, op), prod.dfa))
                expected.append((prod, prod.dfa))
        for sub, table in expected:
            assert sub.state_count == table.state_count, d
            assert sub.dfa == table, d
            assert sub.state_count == sub.dfa.state_count, d
        m, k = d.state_count, len(d.finals - {d.start})
        sub = star_explicit(d)
        assert sub.state_count == sub.dfa.state_count, d
        assert sub.state_count == 2 ** (m - 1) + 2 ** (m - k - 1), d

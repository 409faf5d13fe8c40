import pytest

from sclab import (
    Alphabet,
    AlphabetMismatch,
    CombinedOp,
    Dfa,
    Nfa,
    StarPrecondition,
    combined,
    determinize,
    dfa_accepts,
    enumerate_dfas,
    first_component,
    minimize,
    nfa_accepts,
    product,
    relabel_canonical,
    reverse_to_nfa,
    star_explicit,
    equivalent,
)
from sclab.constructions import first_component_cap
from sclab.oracle import random_dfa, reverse_membership_oracle, star_membership_oracle
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


def test_reverse_to_nfa_transposes_the_witness():
    d = reversal_witness_m(2)
    nf = reverse_to_nfa(d)
    assert nf.starts == frozenset({0})
    assert nf.finals == frozenset({0})
    # a sends 0->1 and 1->0 in the witness, so the transpose keeps both
    assert nf.delta[0][0] == frozenset({1})
    assert nf.delta[1][0] == frozenset({0})
    # b sends both states to 1, so reversed b fans 1 out to {0, 1}
    assert nf.delta[1][1] == frozenset({0, 1})
    assert nf.delta[0][1] == frozenset()


def test_reverse_to_nfa_of_finalless_machine_has_no_starts():
    d = mkdfa(AB, [(0, 1), (1, 0)], set())
    nf = reverse_to_nfa(d)
    assert nf.starts == frozenset()
    assert not nfa_accepts(nf, ())


def test_reverse_nfa_accepts_reversed_words():
    for m in (2, 3, 4):
        d = reversal_witness_m(m)
        nf = reverse_to_nfa(d)
        for w in words_upto(d.sigma, 4):
            assert nfa_accepts(nf, w) == dfa_accepts(d, tuple(reversed(w)))


def test_determinize_reversal_witness_is_full_power_set():
    sub = determinize(reverse_to_nfa(reversal_witness_m(2)))
    assert sub.dfa.state_count == 4
    sub3 = determinize(reverse_to_nfa(reversal_witness_m(3)))
    assert sub3.dfa.state_count == 8
    assert minimize(sub3.dfa).state_count == 8


def test_determinize_output_is_canonical_and_complete():
    sub = determinize(reverse_to_nfa(reversal_witness_m(3)))
    assert relabel_canonical(sub.dfa) == sub.dfa


def test_determinize_empty_subset_is_nonfinal_sink():
    d = mkdfa(AB, [(0, 1), (1, 0)], set())
    sub = determinize(reverse_to_nfa(d))
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


def test_star_explicit_needs_a_final_besides_the_start():
    with pytest.raises(StarPrecondition):
        star_explicit(mkdfa(AB, [(0, 1), (1, 0)], {0}))
    with pytest.raises(StarPrecondition):
        star_explicit(mkdfa(AB, [(0, 1), (1, 0)], set()))


def test_star_explicit_matches_membership_oracle():
    machines = [star_witness_m(m) for m in (2, 3, 4)]
    machines += [random_dfa(3, AB, seed) for seed in range(200)]
    for d in machines:
        if not d.finals - {d.start}:
            continue
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


def test_reversal_first_component_is_the_reference_subset_construction():
    for d in random_machines(range(1, 6)):
        for op in (CombinedOp.REVERSAL_UNION, CombinedOp.REVERSAL_INTERSECTION):
            built = first_component(d, op)
            reference = determinize(reverse_to_nfa(d))
            assert built.dfa == reference.dfa, d


def assert_one_to_one(sub, values, final):
    """Distinct reachable states of ``sub`` hold distinct values, and a
    state is final iff ``final`` holds for its value."""
    reached = [(q, v) for q, v in enumerate(values) if v is not None]
    assert len({v for _, v in reached}) == len(reached), sub.dfa
    for q, v in reached:
        assert (q in sub.dfa.finals) == final(v), (sub.dfa, q, v)


def nfa_simulation(nf):
    """The subsets a set simulation of ``nf`` holds."""

    def step(subset, a):
        return frozenset(t for q in subset for t in nf.delta[q][a])

    return frozenset(nf.starts), step


def star_final(d):
    return lambda v: v == FRESH_START or bool(v & d.finals)


def first_final(d, op):
    return star_final(d) if op.uses_star else lambda v: d.start in v


def test_determinize_labels_are_the_simulated_subsets():
    for d in random_machines(range(1, 6)):
        nf = reverse_to_nfa(d)
        sub = determinize(nf)
        values = simulated(sub.dfa, *nfa_simulation(nf))
        assert None not in values, d
        assert_one_to_one(sub, values, lambda v: bool(v & nf.finals))


def test_star_explicit_labels_are_the_simulated_subsets():
    for d in random_machines(range(2, 6)):
        if not d.finals - {d.start}:
            continue
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
        if k:
            assert minimize(sub.dfa) == minimize(star_explicit(d).dfa), d
            assert sub.dfa.state_count <= 2 ** (m - 1) + 2 ** (m - k - 1), d


def test_star_walk_reaches_the_explicit_count_on_the_witnesses():
    for m in range(2, 11):
        d = star_witness_m(m)
        k = len(d.finals - {d.start})
        sub = first_component(d, CombinedOp.STAR_UNION)
        assert sub.dfa.state_count == 2 ** (m - 1) + 2 ** (m - k - 1), m
        assert equivalent(sub.dfa, star_explicit(d).dfa), m


def test_first_component_stays_within_its_cap():
    machines = []
    for alphabet in (Alphabet(("a",)), AB):
        for m in (1, 2, 3):
            enumerate_dfas(m, alphabet, machines.append)
    abc = Alphabet(("a", "b", "c"))
    for seed in range(200):
        m = 1 + seed % 6
        d = random_dfa(m, abc, seed)
        machines.append(Dfa(abc, m, seed // 6 % m, d.finals, d.delta))
    for op in CombinedOp:
        # the largest first component per start and finals, over the
        # enumerated binary machines
        reached = {}
        for d in machines:
            m = d.state_count
            size = first_component(d, op).dfa.state_count
            assert size <= first_component_cap(op, m, d.start, d.finals), (op, d)
            if d.alphabet == AB:
                key = m, d.start, d.finals
                reached[key] = max(reached.get(key, 0), size)
        # binary machines reach the cap for every finals set at m <= 3,
        # k = 0 included
        assert len(reached) == 2 + 4 + 8
        for (m, start, finals), size in reached.items():
            assert size == first_component_cap(op, m, start, finals), (op, m, finals)
        for m in range(2, 9):
            d = star_witness_m(m) if op.uses_star else reversal_witness_m(m)
            cap = first_component_cap(op, m, d.start, d.finals)
            assert first_component(d, op).dfa.state_count == cap, (op, m)


def test_star_walk_labels_are_the_simulated_subsets():
    for d in star_machines():
        sub = first_component(d, CombinedOp.STAR_INTERSECTION)
        values = simulated(sub.dfa, *star_simulation(d))
        assert None not in values, d
        assert_one_to_one(sub, values, star_final(d))


def test_star_explicit_reachable_part_is_the_star_walk():
    for d in star_machines():
        if d.finals - {d.start}:
            walk = first_component(d, CombinedOp.STAR_UNION).dfa
            assert relabel_canonical(star_explicit(d).dfa) == walk, d


def reference_determinize(nf):
    """The subset construction over frozensets: subsets numbered in
    breadth-first discovery order from the start set, one row per subset
    with the letters in order, final iff the subset meets the finals."""
    start = frozenset(nf.starts)
    index = {start: 0}
    order = [start]
    rows = []
    for subset in order:
        row = []
        for a in range(nf.sigma):
            image = frozenset(t for q in subset for t in nf.delta[q][a])
            if image not in index:
                index[image] = len(order)
                order.append(image)
            row.append(index[image])
        rows.append(tuple(row))
    finals = frozenset(i for i, subset in enumerate(order) if subset & nf.finals)
    return Dfa(nf.alphabet, len(order), 0, finals, tuple(rows))


def star_nfa(d):
    """The machine the star walk determinizes: a fresh start ``m`` that
    steps like ``d.start``, and every move into a final state also restarts
    at ``d.start``; final are the fresh start and ``d``'s finals."""
    m = d.state_count

    def step(q, a):
        t = d.delta[q][a]
        return frozenset({t, d.start} if t in d.finals else {t})

    delta = tuple(
        tuple(step(q, a) for a in range(d.sigma)) for q in (*range(m), d.start)
    )
    return Nfa(d.alphabet, m + 1, frozenset({m}), d.finals | {m}, delta)


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
        reversal = reference_determinize(reverse_to_nfa(d))
        star = reference_determinize(star_nfa(d))
        expected = [
            (determinize(reverse_to_nfa(d)), reversal),
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
        if k:
            sub = star_explicit(d)
            assert sub.state_count == sub.dfa.state_count, d
            assert sub.state_count == 2 ** (m - 1) + 2 ** (m - k - 1), d

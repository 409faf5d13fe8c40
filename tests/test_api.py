import sclab

# The public API.  A name leaves it only with an edit here and a recorded
# decision in CHANGES.md.
PUBLIC = [
    "Alphabet",
    "AlphabetMismatch",
    "BoundKind",
    "BudgetExceeded",
    "CombinedOp",
    "DEFAULT_MACHINE_BUDGET",
    "DEFAULT_PAIR_BUDGET",
    "Dfa",
    "InvalidDfa",
    "ParseError",
    "Partition",
    "REVERSAL_ALPHABET",
    "STAR_ALPHABET",
    "SearchMode",
    "SearchReport",
    "SplitMix64",
    "SubsetDfa",
    "Word",
    "bound_value",
    "bounded_language_equal",
    "combined",
    "dfa_accepts",
    "dfa_space_size",
    "distinguishing_word",
    "enumerate_dfas",
    "equivalence_partition",
    "equivalent",
    "first_component",
    "format_dfa",
    "format_dot",
    "minimize",
    "parse_dfa",
    "pipeline_bound",
    "product",
    "random_dfa",
    "relabel_canonical",
    "require_same_alphabet",
    "reversal_witness_m",
    "reversal_witness_n",
    "reverse_membership_oracle",
    "search_max",
    "star_explicit",
    "star_membership_oracle",
    "star_witness_m",
    "star_witness_n",
    "star_witness_n_intersection",
    "state_complexity",
    "table_filling_minimize",
    "tight_bound",
    "witness_pair",
]


def test_public_api_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert len(set(PUBLIC)) == len(PUBLIC)
    assert sclab.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(sclab, name)

"""The benchmark's workloads: the ops one pass runs, built from a seed, and
the check that each op's result is correct.

Every op holds the ``sclab`` module it was built from and looks its
functions up at call time, so a traced run can wrap them in place.
"""

from __future__ import annotations

import random
import string

WITNESS_M = (8, 10, 12)
WITNESS_N = 8
EXHAUSTIVE_SIZE = 2
EXHAUSTIVE_SIGMA = 3
SAMPLED_M, SAMPLED_N, SAMPLED_SIGMA = 4, 3, 3
SAMPLES = 5000

WORKLOADS = ("witness-grid", "exhaustive-search", "sampled-search")


def tight_kind(lib, op):
    if op.uses_star:
        return lib.BoundKind.STAR_COMBINED_TIGHT
    return lib.BoundKind.REVERSAL_COMBINED_TIGHT


def decomposed_problem(lib, dM, dN, op, size: int) -> str | None:
    """Measure the pair again through the pipeline's public stages, one call
    each, and compare with ``size``."""
    first = lib.first_component(dM, op)
    prod = lib.product(first.dfa, dN, op.boolean_mode)
    blocks = lib.equivalence_partition(prod.dfa).block_count
    states = lib.minimize(prod.dfa).state_count
    if not blocks == states == size:
        return f"decomposed pipeline measures {blocks} blocks, {states} states; expected {size}"
    return None


def relabeled(lib, d, rng: random.Random):
    """An isomorphic copy of ``d`` with its states renumbered at random."""
    perm = list(range(d.state_count))
    rng.shuffle(perm)
    rows = [None] * d.state_count
    for q, row in enumerate(d.delta):
        rows[perm[q]] = tuple(perm[t] for t in row)
    finals = frozenset(perm[q] for q in d.finals)
    return lib.Dfa(d.alphabet, d.state_count, perm[d.start], finals, tuple(rows))


class WitnessCell:
    """``state_complexity`` of one witness pair, renumbered by the seed;
    correct when it equals the tight closed form."""

    def __init__(self, lib, op, m: int, n: int, rng: random.Random):
        self.lib, self.op, self.m, self.n = lib, op, m, n
        dM, dN = lib.witness_pair(op, m, n)
        self.dM, self.dN = relabeled(lib, dM, rng), relabeled(lib, dN, rng)
        self.expected = lib.bound_value(tight_kind(lib, op), m, n)

    def __str__(self) -> str:
        return f"{self.op.value} {self.m}x{self.n}"

    def run(self) -> int:
        return self.lib.state_complexity(self.dM, self.dN, self.op)

    def problem(self, size: int) -> str | None:
        if size != self.expected:
            return f"measured {size}, closed form {self.expected}"
        return None

    def minimal_states(self, size: int) -> int:
        return size

    def pairs_covered(self, size: int) -> int:
        return 1

    def decomposed_problem(self, size: int) -> str | None:
        return decomposed_problem(self.lib, self.dM, self.dN, self.op, size)


class Search:
    """One ``search_max`` call.  Exhaustive searches must reach the tight
    closed form over the whole space; sampled ones must stay within
    ``pipeline_bound`` for the achieving machine's final count.  Both must
    cover the pairs asked for, and the achieving pair must measure the
    reported maximum through ``state_complexity``."""

    def __init__(self, lib, op, m: int, n: int, alphabet, mode):
        self.lib, self.op, self.m, self.n = lib, op, m, n
        self.alphabet, self.mode = alphabet, mode
        if mode.kind == "exhaustive":
            self.expected_pairs = lib.dfa_space_size(m, alphabet) * lib.dfa_space_size(
                n, alphabet
            )
            self.expected_max = lib.bound_value(tight_kind(lib, op), m, n)
        else:
            self.expected_pairs = mode.samples
            self.expected_max = None

    def __str__(self) -> str:
        return f"{self.op.value} {self.mode.kind} {self.m}x{self.n}"

    def run(self):
        return self.lib.search_max(self.op, self.m, self.n, self.alphabet, self.mode)

    def problem(self, report) -> str | None:
        if report.machines_examined != self.expected_pairs:
            return f"covered {report.machines_examined} pairs, asked for {self.expected_pairs}"
        best = report.observed_max
        dM, dN = report.achieving_pair
        if self.expected_max is not None and best != self.expected_max:
            return f"maximum {best}, closed form {self.expected_max}"
        k = len(dM.finals - {dM.start})
        bound = self.lib.pipeline_bound(self.op, self.m, self.n, k)
        if best > bound:
            return f"maximum {best} over pipeline_bound {bound} (k={k})"
        remeasured = self.lib.state_complexity(dM, dN, self.op)
        if remeasured != best:
            return f"maximum {best}, but its pair measures {remeasured}"
        return None

    def minimal_states(self, report) -> int:
        return report.observed_max

    def pairs_covered(self, report) -> int:
        return report.machines_examined

    def decomposed_problem(self, report) -> str | None:
        dM, dN = report.achieving_pair
        return decomposed_problem(self.lib, dM, dN, self.op, report.observed_max)


def build(name: str, lib, seed: int) -> list:
    """The ops of one pass of workload ``name``; the same seed gives the
    same inputs."""
    rng = random.Random(seed)
    ops = list(lib.CombinedOp)
    if name == "witness-grid":
        # The seed renumbers the states of every witness machine; sizes and
        # closed forms do not depend on state numbers.
        return [WitnessCell(lib, op, m, WITNESS_N, rng) for op in ops for m in WITNESS_M]
    if name == "exhaustive-search":
        # The space is fixed by (m, n, sigma); the seed only names the letters.
        letters = rng.sample(string.ascii_lowercase, EXHAUSTIVE_SIGMA)
        alphabet = lib.Alphabet(tuple(letters))
        mode = lib.SearchMode.exhaustive()
        return [
            Search(lib, op, EXHAUSTIVE_SIZE, EXHAUSTIVE_SIZE, alphabet, mode)
            for op in ops
        ]
    if name == "sampled-search":
        alphabet = lib.Alphabet(tuple(string.ascii_lowercase[:SAMPLED_SIGMA]))
        return [
            Search(
                lib,
                op,
                SAMPLED_M,
                SAMPLED_N,
                alphabet,
                lib.SearchMode.sampled(SAMPLES, rng.getrandbits(64)),
            )
            for op in ops
        ]
    raise ValueError(f"unknown workload: {name!r}")

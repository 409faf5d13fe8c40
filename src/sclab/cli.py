"""Command-line front end.

``sc`` measures one witness cell against its closed-form size, ``witness``
emits a witness machine as text or DOT, ``verify`` checks two user machines
against the applicable upper bound, ``sweep`` runs (m, n) grids for one or
more ops as one table (checking the caps before measuring anything),
and ``search`` hunts for worst cases over exhaustive or sampled DFA pairs.

The library checks sizes, machines, search modes and budgets; this module
checks only what the command line alone knows (flags, ranges, files, caps).
Exit status: 0 on success (bound matched or held), 1 on a mismatch or bound
violation, 2 when ``main`` catches a ``ValueError`` (the library's domain
checks, ``InvalidDfa``, ``AlphabetMismatch``, ``ParseError``,
``BudgetExceeded``, ``UsageError``), and 141, the shell's status for
SIGPIPE, when stdout is closed before the output is written (as by
``| head``).  Nothing else maps an error to a status, so an internal fault
propagates with its traceback.
Output is deterministic for fixed arguments except for ``elapsed_ms``.
"""

from __future__ import annotations

import argparse
import json
import os
import string
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from typing import Sequence

from .constructions import CombinedOp
from .core import Dfa, Alphabet
from .minimization import state_complexity
from .oracle import (
    DEFAULT_MACHINE_BUDGET,
    DEFAULT_PAIR_BUDGET,
    SearchMode,
    SearchReport,
    search_max,
)
from .textfmt import ParseError, format_dfa, format_dot, parse_dfa
from .witnesses import (
    pipeline_bound,
    reversal_witness_m,
    reversal_witness_n,
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
    tight_bound,
    witness_pair,
)

BUDGET_ENV_VAR = "SCLAB_PAIR_BUDGET"
BROKEN_PIPE_STATUS = 141
SWEEP_MAX_M = 12
SWEEP_MAX_N = 8

_FAMILIES = {
    "star-m": (star_witness_m, "m"),
    "star-n": (star_witness_n, "n"),
    "star-n-intersection": (star_witness_n_intersection, "n"),
    "reversal-m": (reversal_witness_m, "m"),
    "reversal-n": (reversal_witness_n, "n"),
}


class UsageError(ValueError):
    """Bad argument values that only the command line can detect."""


@dataclass(frozen=True)
class SweepRecord:
    """One measured grid cell; ``elapsed_ms`` covers the measurement only."""

    op: str
    m: int
    n: int
    k: int
    measured: int
    predicted: int
    match: bool
    elapsed_ms: int


def measure_cell(op: CombinedOp, m: int, n: int) -> SweepRecord:
    """Measure one witness cell and compare it to the closed form."""
    dM, dN = witness_pair(op, m, n)
    predicted = tight_bound(op, m, n)
    t0 = time.perf_counter()
    measured = state_complexity(dM, dN, op)
    elapsed = round((time.perf_counter() - t0) * 1000)
    k = len(dM.finals - {dM.start})
    return SweepRecord(
        op.value, m, n, k, measured, predicted, measured == predicted, elapsed
    )


def sweep_records(
    op: CombinedOp, m_range: tuple[int, int], n_range: tuple[int, int]
) -> list[SweepRecord]:
    return [
        measure_cell(op, m, n)
        for m in range(m_range[0], m_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
    ]


def _text(value: object) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _record_line(r: SweepRecord) -> str:
    return " ".join(f"{name}={_text(v)}" for name, v in asdict(r).items())


def _record_csv(r: SweepRecord) -> str:
    return ",".join(_text(v) for v in astuple(r))


CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclab",
        description="State-complexity measurements for star and reversal "
        "combined with union and intersection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    op_names = [op.value for op in CombinedOp]

    p_sc = sub.add_parser(
        "sc", help="measure one witness cell against its closed-form size"
    )
    p_sc.add_argument("op", choices=op_names)
    p_sc.add_argument("--m", type=int, required=True)
    p_sc.add_argument("--n", type=int, required=True)

    p_wit = sub.add_parser("witness", help="emit a witness machine")
    p_wit.add_argument("family", choices=sorted(_FAMILIES))
    p_wit.add_argument("--m", type=int)
    p_wit.add_argument("--n", type=int)
    p_wit.add_argument("--dot", action="store_true", help="emit DOT instead of text")

    p_verify = sub.add_parser(
        "verify", help="check two machines from files against the applicable bound"
    )
    p_verify.add_argument("op", choices=op_names)
    p_verify.add_argument("fileM")
    p_verify.add_argument("fileN")

    p_sweep = sub.add_parser(
        "sweep", help="measure a grid of witness cells for one or more ops"
    )
    p_sweep.add_argument(
        "ops", nargs="+", choices=op_names, metavar="op", help=", ".join(op_names)
    )
    p_sweep.add_argument("--m", required=True, help="range like 2..8, or one value")
    p_sweep.add_argument("--n", required=True, help="range like 2..6, or one value")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")

    p_search = sub.add_parser(
        "search",
        help="search DFA pairs for the worst measured size",
        epilog=f"{BUDGET_ENV_VAR} (default {DEFAULT_PAIR_BUDGET}) caps the pair "
        "machines a search may build: one per pair of language classes with "
        "--exhaustive, one per sample with --samples. Each side of an "
        f"exhaustive search is also capped at {DEFAULT_MACHINE_BUDGET} machines.",
    )
    p_search.add_argument("op", choices=op_names)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--sigma", type=int, required=True)
    mode = p_search.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int)
    p_search.add_argument("--seed", type=int)
    p_search.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def _parse_range(text: str, what: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(
            f"bad {what} range {text!r}: expected N or LO..HI"
        ) from None
    if lo > hi:
        raise UsageError(f"bad {what} range {text!r}: {lo} > {hi}")
    return lo, hi


def _check_caps(m_range: tuple[int, int], n_range: tuple[int, int]) -> None:
    """Refuse witness sizes outside 2..cap before building anything."""
    for what, (lo, hi), cap in (("m", m_range, SWEEP_MAX_M), ("n", n_range, SWEEP_MAX_N)):
        if lo < 2 or hi > cap:
            raise UsageError(f"{what} range {lo}..{hi} outside 2..{cap}")


def _cmd_sc(args: argparse.Namespace) -> int:
    op = CombinedOp(args.op)
    _check_caps((args.m, args.m), (args.n, args.n))
    record = measure_cell(op, args.m, args.n)
    print(_record_line(record))
    return 0 if record.match else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    factory, needed = _FAMILIES[args.family]
    size = getattr(args, needed)
    other = "n" if needed == "m" else "m"
    if size is None:
        raise UsageError(f"family {args.family} needs --{needed}")
    if getattr(args, other) is not None:
        raise UsageError(f"family {args.family} does not take --{other}")
    d = factory(size)
    sys.stdout.write(format_dot(d) if args.dot else format_dfa(d))
    return 0


def _load_dfa(path: str) -> Dfa:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return parse_dfa(text)
    except ParseError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    op = CombinedOp(args.op)
    dM = _load_dfa(args.fileM)
    dN = _load_dfa(args.fileN)
    if dM.alphabet != dN.alphabet:
        raise UsageError(
            f"alphabets differ: {args.fileM} has {dM.alphabet.symbols}, "
            f"{args.fileN} has {dN.alphabet.symbols}"
        )
    m, n = dM.state_count, dN.state_count
    k = len(dM.finals - {dM.start})
    bound = pipeline_bound(op, m, n, k)
    measured = state_complexity(dM, dN, op)
    holds = measured <= bound
    print(f"m={m} n={n} k={k} measured={measured} bound={bound} holds={_text(holds)}")
    return 0 if holds else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    ops = [CombinedOp(name) for name in args.ops]
    m_range = _parse_range(args.m, "m")
    n_range = _parse_range(args.n, "n")
    _check_caps(m_range, n_range)
    records = [r for op in ops for r in sweep_records(op, m_range, n_range)]
    if args.format == "csv":
        print(CSV_HEADER)
        for r in records:
            print(_record_csv(r))
    else:
        print(json.dumps([asdict(r) for r in records], indent=2))
    return 0 if all(r.match for r in records) else 1


def _pair_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_PAIR_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise UsageError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


def _print_search_report(report: SearchReport, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "op": report.op.value,
            "m": report.m,
            "n": report.n,
            "sigma": report.sigma,
            "mode": asdict(report.mode),
            "observed_max": report.observed_max,
            "achieving_pair": [
                format_dfa(report.achieving_pair[0]),
                format_dfa(report.achieving_pair[1]),
            ],
            "machines_examined": report.machines_examined,
            "pairs_measured": report.pairs_measured,
            "predicted_bound": report.predicted_bound,
        }
        print(json.dumps(payload, indent=2))
        return
    mode = report.mode
    mode_text = (
        "exhaustive"
        if mode.kind == "exhaustive"
        else f"sampled samples={mode.samples} seed={mode.seed}"
    )
    print(
        f"op={report.op.value} m={report.m} n={report.n} "
        f"sigma={report.sigma} mode={mode_text}"
    )
    print(
        f"machines_examined={report.machines_examined} "
        f"observed_max={report.observed_max} "
        f"predicted_bound={report.predicted_bound}"
    )
    print("achieving M:")
    sys.stdout.write(format_dfa(report.achieving_pair[0]))
    print("achieving N:")
    sys.stdout.write(format_dfa(report.achieving_pair[1]))


def _cmd_search(args: argparse.Namespace) -> int:
    op = CombinedOp(args.op)
    if not 1 <= args.sigma <= 26:
        raise UsageError(f"need 1 <= sigma <= 26, got {args.sigma}")
    if args.exhaustive and args.seed is not None:
        raise UsageError("--seed needs --samples")
    alphabet = Alphabet(tuple(string.ascii_lowercase[: args.sigma]))
    mode = (
        SearchMode.exhaustive()
        if args.exhaustive
        else SearchMode.sampled(args.samples, args.seed or 0)
    )
    report = search_max(op, args.m, args.n, alphabet, mode, pair_budget=_pair_budget())
    _print_search_report(report, args.format)
    return 0 if report.observed_max <= report.predicted_bound else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "sc": _cmd_sc,
        "witness": _cmd_witness,
        "verify": _cmd_verify,
        "sweep": _cmd_sweep,
        "search": _cmd_search,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone.  Stdout now writes to the null device, so
        # that the flush at exit does not raise again.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return BROKEN_PIPE_STATUS


if __name__ == "__main__":
    sys.exit(main())

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sclab import cli, format_dfa, parse_dfa
from sclab.cli import (
    BUDGET_ENV_VAR,
    CSV_HEADER,
    SweepRecord,
    build_parser,
    main,
    measure_cell,
    sweep_records,
)
from sclab.constructions import CombinedOp
from sclab.witnesses import (
    reversal_witness_n,
    star_witness_m,
    star_witness_n,
    star_witness_n_intersection,
    witness_pair,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sc_reports_a_matching_cell(capsys):
    code, out, err = run(capsys, "sc", "star-union", "--m", "3", "--n", "2")
    assert code == 0
    assert err == ""
    assert re.fullmatch(
        r"op=star-union m=3 n=2 k=1 measured=11 predicted=11 "
        r"match=true elapsed_ms=\d+\n",
        out,
    )


def test_sc_covers_all_four_operations(capsys):
    for op, m, n, value in (
        ("star-intersection", 4, 3, 34),
        ("reversal-union", 3, 2, 15),
        ("reversal-intersection", 2, 3, 10),
    ):
        code, out, _ = run(capsys, "sc", op, "--m", str(m), "--n", str(n))
        assert code == 0
        assert f"measured={value} predicted={value} match=true" in out


def test_sc_rejects_small_sizes(capsys):
    code, out, err = run(capsys, "sc", "star-union", "--m", "1", "--n", "2")
    assert code == 2
    assert out == ""
    assert "m range 1..1 outside 2..12" in err


def test_sc_has_the_sweep_caps(capsys, monkeypatch):
    def measure(*args):
        raise AssertionError("a cell was measured past the cap")

    monkeypatch.setattr(cli, "measure_cell", measure)
    for op in CombinedOp:
        for m, n, problem in (("13", "2", "m range 13.."), ("2", "9", "n range 9..")):
            code, out, err = run(capsys, "sc", op.value, "--m", m, "--n", n)
            assert code == 2
            assert out == ""
            assert problem in err
    monkeypatch.undo()
    code, out, _ = run(capsys, "sc", "reversal-union", "--m", "12", "--n", "2")
    assert code == 0
    assert "measured=8191 predicted=8191 match=true" in out


def test_witness_emits_parseable_text(capsys):
    code, out, _ = run(capsys, "witness", "star-m", "--m", "2")
    assert code == 0
    assert out == format_dfa(star_witness_m(2))
    assert "alphabet a b c" in out
    assert parse_dfa(out) == star_witness_m(2)


def test_witness_family_selection(capsys):
    code, out, _ = run(capsys, "witness", "star-n-intersection", "--n", "3")
    assert code == 0
    assert parse_dfa(out) == star_witness_n_intersection(3)
    code, out, _ = run(capsys, "witness", "reversal-n", "--n", "2")
    assert parse_dfa(out) == reversal_witness_n(2)


def test_witness_dot_output(capsys):
    code, out, _ = run(capsys, "witness", "reversal-n", "--n", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph dfa {")
    assert '0 -> 1 [label="d"];' in out
    assert '1 -> 0 [label="d"];' in out


def test_witness_flag_validation(capsys):
    code, _, err = run(capsys, "witness", "star-m", "--n", "3")
    assert code == 2
    assert "needs --m" in err
    code, _, err = run(capsys, "witness", "star-m", "--m", "3", "--n", "2")
    assert code == 2
    assert "does not take --n" in err
    code, _, err = run(capsys, "witness", "star-m", "--m", "1")
    assert code == 2
    assert ">= 2" in err
    code, _, err = run(capsys, "witness", "no-such-family", "--m", "2")
    assert code == 2


def _write(path, d):
    path.write_text(format_dfa(d), encoding="utf-8")
    return str(path)


def test_verify_witness_pair_holds(tmp_path, capsys):
    dM, dN = witness_pair(CombinedOp.STAR_UNION, 3, 2)
    fM = _write(tmp_path / "m.dfa", dM)
    fN = _write(tmp_path / "n.dfa", dN)
    code, out, _ = run(capsys, "verify", "star-union", fM, fN)
    assert code == 0
    assert out == "m=3 n=2 k=1 measured=11 bound=11 holds=true\n"


def test_verify_start_final_machine_gets_the_plain_bound(tmp_path, capsys):
    dM = star_witness_n_intersection(2)  # final state 0 = start, so k = 0
    dN = star_witness_n(3)
    fM = _write(tmp_path / "m.dfa", dM)
    fN = _write(tmp_path / "n.dfa", dN)
    code, out, _ = run(capsys, "verify", "star-union", fM, fN)
    assert code == 0
    assert "k=0" in out
    assert "bound=6" in out
    assert "holds=true" in out


def test_verify_parse_error_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.dfa"
    bad.write_text("dfa\nalphabet a\nstates 1\nstart 9\nfinal\n0 a 0\n")
    good = _write(tmp_path / "n.dfa", star_witness_n(2))
    code, _, err = run(capsys, "verify", "star-union", str(bad), good)
    assert code == 2
    assert "bad.dfa" in err
    assert "line 4" in err


def test_verify_missing_file(tmp_path, capsys):
    good = _write(tmp_path / "n.dfa", star_witness_n(2))
    code, _, err = run(capsys, "verify", "star-union", str(tmp_path / "nope"), good)
    assert code == 2
    assert "cannot read" in err


def test_verify_alphabet_mismatch(tmp_path, capsys):
    fM = _write(tmp_path / "m.dfa", star_witness_m(2))
    fN = _write(tmp_path / "n.dfa", reversal_witness_n(2))
    code, _, err = run(capsys, "verify", "star-union", fM, fN)
    assert code == 2
    assert "alphabets differ" in err


def test_verify_star_needs_two_states(tmp_path, capsys):
    one = parse_dfa("dfa\nalphabet a b c\nstates 1\nstart 0\nfinal 0\n0 a 0\n0 b 0\n0 c 0\n")
    fM = _write(tmp_path / "m.dfa", one)
    fN = _write(tmp_path / "n.dfa", star_witness_n(2))
    code, _, err = run(capsys, "verify", "star-union", fM, fN)
    assert code == 2
    assert "star bounds need m >= 2" in err
    # reversal accepts the same machine
    fN4 = _write(tmp_path / "n4.dfa", reversal_witness_n(2))
    one4 = parse_dfa(
        "dfa\nalphabet a b c d\nstates 1\nstart 0\nfinal 0\n0 a 0\n0 b 0\n0 c 0\n0 d 0\n"
    )
    fM4 = _write(tmp_path / "m4.dfa", one4)
    code, out, _ = run(capsys, "verify", "reversal-union", fM4, fN4)
    assert code == 0
    assert "holds=true" in out


def test_sweep_csv_grid(capsys):
    code, out, _ = run(
        capsys, "sweep", "star-union", "--m", "2..5", "--n", "2..5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 16
    assert lines[1].startswith("star-union,2,2,1,5,5,true,")
    # m outer, n inner
    cells = [tuple(ln.split(",")[1:3]) for ln in lines[1:]]
    assert cells == [(str(m), str(n)) for m in range(2, 6) for n in range(2, 6)]
    assert all(ln.split(",")[6] == "true" for ln in lines[1:])


def test_sweep_json_mirrors_record_fields(capsys):
    code, out, _ = run(
        capsys, "sweep", "reversal-union", "--m", "2..3", "--n", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert set(rows[0]) == {
        "op", "m", "n", "k", "measured", "predicted", "match", "elapsed_ms",
    }
    assert rows[0]["op"] == "reversal-union"
    assert rows[0]["measured"] == rows[0]["predicted"] == 7
    assert rows[1]["measured"] == 15
    assert all(r["match"] is True for r in rows)


def test_sweep_single_value_ranges(capsys):
    code, out, _ = run(capsys, "sweep", "star-intersection", "--m", "3", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("star-intersection,3,4,1,21,21,true,")


def test_sweep_range_validation(capsys):
    code, _, err = run(capsys, "sweep", "star-union", "--m", "5..3", "--n", "2")
    assert code == 2
    assert "5 > 3" in err
    code, _, err = run(capsys, "sweep", "star-union", "--m", "x", "--n", "2")
    assert code == 2
    assert "expected N or LO..HI" in err
    code, _, err = run(capsys, "sweep", "reversal-union", "--m", "2..13", "--n", "2")
    assert code == 2
    assert "outside 2..12" in err


def test_sweep_caps_have_no_override_flag(capsys):
    # the caps are fixed: there is no flag to override them
    for flag in ("--max-m", "--max-n"):
        code, out, err = run(
            capsys, "sweep", "reversal-union", "--m", "11", "--n", "2", flag, "11"
        )
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} 11" in err


def test_sweep_several_ops_make_one_table(capsys):
    argv = ("sweep", "star-union", "reversal-union", "--m", "2..3", "--n", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines.count(CSV_HEADER) == 1
    assert [tuple(ln.split(",")[:3]) for ln in lines[1:]] == [
        ("star-union", "2", "2"),
        ("star-union", "3", "2"),
        ("reversal-union", "2", "2"),
        ("reversal-union", "3", "2"),
    ]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["op"], r["m"]) for r in rows] == [
        ("star-union", 2),
        ("star-union", 3),
        ("reversal-union", 2),
        ("reversal-union", 3),
    ]


def test_sweep_checks_every_op_cap_before_measuring(capsys, monkeypatch):
    def measure(*args):
        raise AssertionError("a cell was measured past the cap")

    monkeypatch.setattr(cli, "sweep_records", measure)
    ops = [op.value for op in CombinedOp]
    code, out, err = run(capsys, "sweep", *ops, "--m", "2..13", "--n", "2")
    assert code == 2
    assert out == ""
    assert "outside 2..12" in err


def test_sweep_cap_is_twelve_for_every_op(capsys, monkeypatch):
    code, out, _ = run(capsys, "sweep", "reversal-union", "--m", "12", "--n", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("reversal-union,12,2,")

    calls = []

    def measure(op, m_range, n_range):
        calls.append((op, m_range))
        return []

    monkeypatch.setattr(cli, "sweep_records", measure)
    for op in CombinedOp:
        code, out, err = run(capsys, "sweep", op.value, "--m", "2..13", "--n", "2")
        assert code == 2
        assert out == ""
        assert "outside 2..12" in err
        code, _, _ = run(capsys, "sweep", op.value, "--m", "12", "--n", "2")
        assert code == 0
    assert calls == [(op, (12, 12)) for op in CombinedOp]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_command_lines_parse():
    # every `sclab ...` line in the README's sh blocks is accepted by the
    # parser; nothing is run
    readme = README.read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, flags=re.S)
    lines = [
        ln.strip()
        for block in blocks
        for ln in block.splitlines()
        if ln.strip().startswith("sclab ")
    ]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        command = re.split(r"[|>]", line)[0]
        argv = shlex.split(command)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_readme_prose_names_only_cli_options():
    # every --flag the README's prose names is an option of some subcommand
    readme = README.read_text()
    parser = build_parser()
    (subcommands,) = [
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        flag for sub in subcommands.values() for flag in sub._option_string_actions
    }
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", prose))
    assert {"--exhaustive", "--samples", "--seed"} <= named
    assert named <= options, named - options


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}
    argv = [sys.executable, "-m", "sclab", "sc", "star-union", "--m", "3", "--n", "2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("op=star-union m=3 n=2 k=1 measured=11 predicted=11")
    bad = subprocess.run(
        argv[:4] + ["--m", "1"], env=env, capture_output=True, text=True, timeout=60
    )
    assert bad.returncode == 2


class ClosedPipe:
    """A stdout whose reader has gone: ``write`` or ``flush`` raises, as a
    pipe does once ``head`` has exited, on the file descriptor ``fd``."""

    def __init__(self, fd, raises):
        self.fd = fd
        self.raises = raises

    def write(self, text):
        if self.raises == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.raises == "flush":
            raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("raises", ["write", "flush"])
@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "star-union", "--m", "2..3", "--n", "2"),
        ("search", "star-union", "--m", "2", "--n", "2", "--sigma", "1", "--exhaustive"),
    ],
)
def test_a_closed_stdout_exits_141_and_writes_nowhere_after(
    tmp_path, monkeypatch, capsys, argv, raises
):
    # exit 1 means the measurement disagrees, so a reader that stops early
    # gets the shell's SIGPIPE status instead, and stdout is pointed at the
    # null device so that the flush at exit cannot raise again
    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(out.fileno(), raises))
        assert main(list(argv)) == cli.BROKEN_PIPE_STATUS == 141
        assert os.path.samestat(os.fstat(out.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_a_pipe_closed_before_the_output_ends_quietly():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "sclab", "sweep", "star-union", "--m", "2..3", "--n", "2"]
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            argv, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60
        )
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""


def test_sweep_determinism_modulo_timing(capsys):
    argv = ("sweep", "star-union", "--m", "2..4", "--n", "2..3")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    strip = lambda text: re.sub(r",\d+$", ",T", text, flags=re.M)
    assert strip(out1) == strip(out2)


def test_search_text_output(capsys):
    code, out, _ = run(
        capsys,
        "search", "star-union", "--m", "2", "--n", "2", "--sigma", "2",
        "--exhaustive",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "op=star-union m=2 n=2 sigma=2 mode=exhaustive"
    assert lines[1] == (
        "machines_examined=4096 observed_max=4 predicted_bound=5"
    )
    assert "achieving M:" in out
    assert "achieving N:" in out


def test_search_json_output(capsys):
    code, out, _ = run(
        capsys,
        "search", "reversal-union", "--m", "2", "--n", "2", "--sigma", "1",
        "--exhaustive", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["observed_max"] == 3
    assert payload["machines_examined"] == 256
    assert payload["mode"] == {"kind": "exhaustive", "samples": 0, "seed": 0}
    parsed = parse_dfa(payload["achieving_pair"][0])
    assert parsed.state_count == 2


def test_search_sampled_runs_are_byte_identical(capsys):
    argv = (
        "search", "star-intersection", "--m", "3", "--n", "3", "--sigma", "3",
        "--samples", "40", "--seed", "5",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "mode=sampled samples=40 seed=5" in out1


def test_search_argument_validation(capsys):
    code, _, err = run(
        capsys, "search", "star-union", "--m", "1", "--n", "2", "--sigma", "2",
        "--exhaustive",
    )
    assert code == 2
    assert "need m, n >= 2" in err
    code, _, err = run(
        capsys, "search", "star-union", "--m", "2", "--n", "2", "--sigma", "0",
        "--exhaustive",
    )
    assert code == 2
    code, _, err = run(
        capsys, "search", "star-union", "--m", "2", "--n", "2", "--sigma", "2",
        "--samples", "0",
    )
    assert code == 2


def test_search_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    code, _, err = run(
        capsys, "search", "star-union", "--m", "2", "--n", "2", "--sigma", "2",
        "--exhaustive",
    )
    assert code == 2
    assert "over the budget of 10" in err
    monkeypatch.setenv(BUDGET_ENV_VAR, "not-a-number")
    code, _, err = run(
        capsys, "search", "star-union", "--m", "2", "--n", "2", "--sigma", "2",
        "--exhaustive",
    )
    assert code == 2
    assert BUDGET_ENV_VAR in err
    monkeypatch.setenv(BUDGET_ENV_VAR, "0")
    code, out, err = run(
        capsys, "search", "star-union", "--m", "2", "--n", "2", "--sigma", "2",
        "--exhaustive",
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {BUDGET_ENV_VAR} must be positive, got 0\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("sc star-union --m 1 --n 2", "m range 1..1 outside 2..12"),
        ("sc star-union --m 2 --n 9", "n range 9..9 outside 2..8"),
        ("witness star-m --m 1", "need m >= 2, got 1"),
        ("witness reversal-n --n 0", "need n >= 2, got 0"),
        ("witness star-m --n 3", "family star-m needs --m"),
        ("verify star-union {one} {n}", "star bounds need m >= 2, got 1"),
        (
            "verify star-union {m} {n4}",
            "alphabets differ: {m} has ('a', 'b', 'c'), {n4} has ('a', 'b', 'c', 'd')",
        ),
        (
            "verify star-union {bad} {n}",
            "{bad}: line 4: start state 9 out of range for 1 states",
        ),
        (
            "search star-union --m 1 --n 2 --sigma 2 --exhaustive",
            "need m, n >= 2, got m=1, n=2",
        ),
        (
            "search star-union --m 2 --n 2 --sigma 0 --exhaustive",
            "need 1 <= sigma <= 26, got 0",
        ),
        (
            "search star-union --m 2 --n 2 --sigma 2 --samples 0",
            "need a positive sample count, got 0",
        ),
        (
            "search star-union --m 2 --n 2 --sigma 2 --samples 3 --seed -1",
            "need 0 <= seed < 2**64, got -1",
        ),
        (
            "search star-union --m 2 --n 2 --sigma 1 --exhaustive --seed -7",
            "--seed needs --samples",
        ),
        (
            "search star-union --m 2 --n 5 --sigma 2 --exhaustive",
            "would examine 312500000 machines, over the budget of 2097152",
        ),
        (
            "search star-union --m 1000000 --n 2 --sigma 3 --exhaustive",
            "would examine at least 2**1000000 machines, over the budget of 2097152",
        ),
        ("sweep star-union --m 5..3 --n 2", "bad m range '5..3': 5 > 3"),
        ("sweep star-union --m 2 --n 2..9", "n range 2..9 outside 2..8"),
    ],
)
def test_bad_input_is_one_error_line_and_exit_2(tmp_path, capsys, argv, message):
    texts = {
        "one": "dfa\nalphabet a b c\nstates 1\nstart 0\nfinal 0\n0 a 0\n0 b 0\n0 c 0\n",
        "m": format_dfa(star_witness_m(2)),
        "n": format_dfa(star_witness_n(2)),
        "n4": format_dfa(reversal_witness_n(2)),
        "bad": "dfa\nalphabet a\nstates 1\nstart 9\nfinal\n0 a 0\n",
    }
    names = {}
    for key, text in texts.items():
        names[key] = str(tmp_path / f"{key}.dfa")
        Path(names[key]).write_text(text, encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(**names) for arg in argv.split()))
    assert code == 2
    assert out == ""
    assert err == f"error: {message.format(**names)}\n"


def test_parser_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["sc", "star-union", "--m", "2"]) == 2
    capsys.readouterr()


def test_measure_cell_and_records_api():
    record = measure_cell(CombinedOp.REVERSAL_UNION, 2, 2)
    assert isinstance(record, SweepRecord)
    assert record.measured == record.predicted == 7
    assert record.match is True
    assert record.k == 0
    rows = sweep_records(CombinedOp.STAR_UNION, (2, 3), (2, 2))
    assert [(r.m, r.n) for r in rows] == [(2, 2), (3, 2)]
    assert all(r.measured <= r.predicted for r in rows)


def test_search_json_counts_pairs_measured(capsys):
    argv = ("search", "star-union", "--m", "2", "--n", "2", "--sigma", "3")
    code, out, _ = run(capsys, *argv, "--exhaustive", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["machines_examined"] == 65536
    assert payload["pairs_measured"] == 248
    code, out, _ = run(capsys, *argv, "--samples", "25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["machines_examined"] == 25
    assert payload["pairs_measured"] == 25
    # Under reversal most pairs cannot beat the running maximum, so their
    # pair machines are never built.
    argv = ("search", "reversal-union", "--m", "2", "--n", "2", "--sigma", "3")
    code, out, _ = run(capsys, *argv, "--samples", "25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["machines_examined"] == 25
    assert payload["pairs_measured"] == 10


def test_search_rejects_seeds_outside_64_bits(capsys):
    argv = ("search", "star-union", "--m", "2", "--n", "2", "--sigma", "2", "--samples", "3")
    for seed in ("-1", str(1 << 64)):
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == 2
        assert out == ""
        assert "seed" in err
    code, out, _ = run(capsys, *argv, "--seed", str((1 << 64) - 1))
    assert code == 0
    assert f"seed={(1 << 64) - 1}" in out


SEARCH_REPORTS = Path(__file__).resolve().parent / "data" / "search_reports.json"


def test_search_reports_match_the_recorded_ones(capsys):
    # JSON reports of the exhaustive searches at m = n = 2 on one to three
    # letters, at (3,2,2) and (2,3,2), where M and N are enumerated and
    # classed apart, and at (3,3,2) and (2,2,4), where many cells share a
    # pair of key tables, and of sampled searches at (4,3,3), 1,000 samples,
    # seeds 0-2, all four ops: the output must stay the same byte for byte.
    # The (3,3,2) maxima 16, 16, 22, 22 are the σ=2 frontier at m = n = 3.
    cases = json.loads(SEARCH_REPORTS.read_text())
    assert len(cases) == 40
    for case in cases:
        code, out, err = run(capsys, *case["command"].split())
        assert (code, err) == (case["exit"], ""), case["command"]
        assert out == json.dumps(case["report"], indent=2) + "\n", case["command"]

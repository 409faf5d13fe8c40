"""Plain-text and Graphviz serialisation of DFAs.

Text layout, one section per line; blank lines and lines starting with ``#``
are ignored::

    dfa
    alphabet a b c
    states 2
    start 0
    final 1
    0 a 1
    ...

After the header there are exactly ``states * symbols`` transition lines,
one per (state, symbol) pair.  ``format_dfa`` emits transitions sorted by
state then symbol index and finals in ascending order, so emitting and
re-parsing a machine round-trips byte-exactly.
"""

from __future__ import annotations

from .core import Alphabet, Dfa


class ParseError(ValueError):
    """Malformed text input; the message names the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int(token: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"expected an integer {what}, got {token!r}") from None


def parse_dfa(text: str) -> Dfa:
    """Parse the text format; raises ``ParseError`` naming the bad line."""
    rows: list[tuple[int, list[str]]] = []
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        total = lineno
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split()))
    pos = 0

    def take(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(rows):
            raise ParseError(total + 1, f"unexpected end of input, expected {what}")
        entry = rows[pos]
        pos += 1
        return entry

    line, tokens = take("the 'dfa' header")
    if tokens != ["dfa"]:
        raise ParseError(line, f"expected the 'dfa' header, got {' '.join(tokens)!r}")

    line, tokens = take("an 'alphabet' line")
    if tokens[0] != "alphabet" or len(tokens) < 2:
        raise ParseError(line, "expected 'alphabet' followed by at least one symbol")
    try:
        alphabet = Alphabet(tuple(tokens[1:]))
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None

    line, tokens = take("a 'states' line")
    if tokens[0] != "states" or len(tokens) != 2:
        raise ParseError(line, "expected 'states' followed by a count")
    state_count = _int(tokens[1], line, "state count")
    if state_count < 1:
        raise ParseError(line, f"state count must be positive, got {state_count}")

    line, tokens = take("a 'start' line")
    if tokens[0] != "start" or len(tokens) != 2:
        raise ParseError(line, "expected 'start' followed by a state")
    start = _int(tokens[1], line, "start state")
    if not 0 <= start < state_count:
        raise ParseError(line, f"start state {start} out of range for {state_count} states")

    line, tokens = take("a 'final' line")
    if tokens[0] != "final":
        raise ParseError(line, "expected 'final' followed by zero or more states")
    finals: set[int] = set()
    for token in tokens[1:]:
        q = _int(token, line, "final state")
        if not 0 <= q < state_count:
            raise ParseError(line, f"final state {q} out of range for {state_count} states")
        if q in finals:
            raise ParseError(line, f"final state {q} listed twice")
        finals.add(q)

    # Keyed by (state, symbol), so a claimed state count allocates nothing
    # before its lines are read; states * sigma distinct keys fill each row.
    sigma = len(alphabet)
    targets: dict[tuple[int, int], int] = {}
    for _ in range(state_count * sigma):
        line, tokens = take("a transition line")
        if len(tokens) != 3:
            raise ParseError(line, "expected a transition: <state> <symbol> <target>")
        q = _int(tokens[0], line, "source state")
        if not 0 <= q < state_count:
            raise ParseError(line, f"source state {q} out of range for {state_count} states")
        try:
            a = alphabet.index(tokens[1])
        except ValueError as exc:
            raise ParseError(line, str(exc)) from None
        t = _int(tokens[2], line, "target state")
        if not 0 <= t < state_count:
            raise ParseError(line, f"target state {t} out of range for {state_count} states")
        if (q, a) in targets:
            raise ParseError(
                line, f"duplicate transition from state {q} on symbol {tokens[1]!r}"
            )
        targets[q, a] = t

    if pos < len(rows):
        line, tokens = rows[pos]
        raise ParseError(line, f"unexpected trailing content: {' '.join(tokens)!r}")
    table = [[targets[q, a] for a in range(sigma)] for q in range(state_count)]
    return Dfa(alphabet, state_count, start, finals, table)


def format_dfa(d: Dfa) -> str:
    """Emit the text format; byte-stable for a given machine."""
    names = d.alphabet.symbols
    lines = [
        "dfa",
        "alphabet " + " ".join(names),
        f"states {d.state_count}",
        f"start {d.start}",
        ("final " + " ".join(str(q) for q in sorted(d.finals))).rstrip(),
    ]
    for q in range(d.state_count):
        row = d.delta[q]
        for a, name in enumerate(names):
            lines.append(f"{q} {name} {row[a]}")
    return "\n".join(lines) + "\n"


def format_dot(d: Dfa) -> str:
    """Graphviz rendering: double circles for finals, an entry arrow for the
    start, and one labelled edge per (state, symbol)."""
    names = [name.replace("\\", "\\\\").replace('"', '\\"') for name in d.alphabet]
    lines = [
        "digraph dfa {",
        "  rankdir=LR;",
        '  __start [shape=none, label=""];',
        f"  __start -> {d.start};",
    ]
    for q in range(d.state_count):
        shape = "doublecircle" if q in d.finals else "circle"
        lines.append(f"  {q} [shape={shape}];")
    for q in range(d.state_count):
        row = d.delta[q]
        for a, name in enumerate(names):
            lines.append(f'  {q} -> {row[a]} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

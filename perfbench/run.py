"""sclab benchmark runner.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see ``workloads.py``) single-threaded against the
checkout's ``src/sclab`` and prints one line per metric, then one JSON
object as the last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
pass times in durations of the reference task (``reference.py``) that runs
between the ops; with ``--trace 1`` a separate traced run gives the
per-layer ones.  ``--workload all`` runs every workload in a child process
of its own, so set-up time and peak memory belong to that workload alone.
The exit status is 0 when every result checks out, 1 when one does not, and
2 when sclab cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# From here on every import compiles its module from source and writes no
# bytecode: the prefix names a directory that is never created.  Set-up then
# measures the same work whether or not the checkout or the environment holds
# cached bytecode, and a run writes nothing into the source tree.
sys.dont_write_bytecode = True
sys.pycache_prefix = str(HERE / ".no-bytecode")
BYTECODE = "compiled from source on every import, no bytecode read or written"

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# A set-up takes a few hundredths of a second, so it is repeated before the
# first pass and again after every pass, and the median of all of them is
# reported.  The set-ups then sample the machine's speed over the whole run,
# as the passes do, rather than in one short window.
SETUP_REPEATS = 3

# The reference task (``reference.py``) runs this many times before every op
# of a pass and after its last; each op's time is divided by the mean of the
# runs on either side of it.
REF_CALLS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "states_per_ref": "1/ref",
    "pairs_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "constructions.first_component_s": "s",
    "constructions.first_component_states": "count",
    "constructions.product_s": "s",
    "constructions.product_states": "count",
    "minimization.partition_s": "s",
    "minimization.states_per_s": "1/s",
    "minimization.quotient_s": "s",
    "minimization.blocks": "count",
    "minimization.state_complexity_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.machines_enumerated": "count",
    "oracle.random_dfa_s": "s",
    "oracle.random_dfas": "count",
    "oracle.search_s": "s",
    "oracle.search_kernel_s": "s",
    "oracle.pairs_covered": "count",
    "oracle.kernel_pairs_per_s": "1/s",
    "witnesses.witness_pair_s": "s",
    "trace.overhead": "ratio",
}


class SclabNotFound(RuntimeError):
    """The checkout has no ``src/sclab`` to measure."""


def load_sclab():
    """Import sclab afresh from the checkout's ``src``, never an installed
    copy; repeated calls each pay the full import."""
    if not (SRC / "sclab" / "__init__.py").is_file():
        raise SclabNotFound(f"no sclab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "sclab" or n.startswith("sclab.")]:
        del sys.modules[name]
    lib = importlib.import_module("sclab")
    if Path(lib.__file__).resolve().parent != SRC / "sclab":
        raise SclabNotFound(f"imported sclab from {lib.__file__}, not {SRC}")
    return lib


@dataclass
class Result:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.problems.append(f"{op}: {problem}")

    def record(self, units: dict[str, str]) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": len(self.problems),
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]}
                for name in units
            },
        }


def set_up(name: str, seed: int, load):
    """Import sclab afresh and build the inputs ``SETUP_REPEATS`` times;
    returns the last import, its ops and every set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = load()
        ops = workloads.build(name, lib, seed)
        times.append(time.perf_counter() - start)
        # Free the imports this repeat replaced, so they do not count in
        # peak_rss_mb.
        gc.collect()
    return lib, ops, times


def reference_gap() -> float:
    """Mean wall time of ``REF_CALLS`` runs of the reference task."""
    return statistics.fmean(reference.timed() for _ in range(REF_CALLS))


@dataclass
class Pass:
    seconds: float  # wall time of the ops, reference runs left out
    refs: float  # the same time in reference-task durations
    outputs: list


def run_pass(ops, result: Result, first: list | None) -> Pass:
    """Time one pass over ``ops``, op by op, with the reference task run
    before every op and after the last; then check every output, including
    that it repeats the first pass's size."""
    seconds = refs = 0.0
    outputs = []
    before = reference_gap()
    for op in ops:
        start = time.perf_counter()
        outputs.append(op.run())
        elapsed = time.perf_counter() - start
        after = reference_gap()
        seconds += elapsed
        refs += elapsed / ((before + after) / 2)
        before = after
    for i, (op, out) in enumerate(zip(ops, outputs)):
        problem = op.problem(out)
        if problem is None and first is not None:
            was, now = op.minimal_states(first[i]), op.minimal_states(out)
            if was != now:
                problem = f"size {now}, first pass measured {was}"
        result.check(op, problem)
    return Pass(seconds, refs, outputs)


def time_for_another(lap_start: float, deadline: float) -> bool:
    """Whether a lap as long as the one begun at ``lap_start`` still ends by
    the deadline, so that a run never measures past ``--seconds``."""
    now = time.perf_counter()
    return now + (now - lap_start) <= deadline


def quartile_line(name: str, values: list[float], unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return (
        f"{name} {q2:.6g} {unit}  (median of {len(values)}; "
        f"q1 {q1:.6g}, q3 {q3:.6g}, min {min(values):.6g}, max {max(values):.6g})"
    )


def measure_end_to_end(name: str, seed: int, seconds: float, load) -> Result:
    result = Result()
    _, ops, setup_times = set_up(name, seed, load)
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(run_pass(ops, result, passes[0].outputs if passes else None))
        setup_times += set_up(name, seed, load)[2]
        if not time_for_another(start, deadline):
            break
    first = passes[0].outputs
    states = sum(op.minimal_states(out) for op, out in zip(ops, first))
    pairs = sum(op.pairs_covered(out) for op, out in zip(ops, first))
    wall_s = statistics.median(p.seconds for p in passes)
    wall_ref = statistics.median(p.refs for p in passes)
    result.metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_ref": wall_ref,
        "states_per_ref": states / wall_ref,
        "pairs_per_ref": pairs / wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    result.lines = [
        f"workload {name} seed {seed}: {len(ops)} ops per pass, {len(passes)} passes, "
        f"{states} minimal states and {pairs} pairs per pass",
        quartile_line("setup_s", setup_times, "s"),
        quartile_line("wall_s", [p.seconds for p in passes], "s"),
        quartile_line("wall_ref", [p.refs for p in passes], "ref"),
        f"states_per_s {states / wall_s:.6g} 1/s",
        f"pairs_per_s {pairs / wall_s:.6g} 1/s",
        *(
            f"{metric} {result.metrics[metric]:.6g} {END_TO_END_UNITS[metric]}"
            for metric in ("states_per_ref", "pairs_per_ref", "peak_rss_mb")
        ),
    ]
    return result


def layer_metrics(t) -> dict[str, float]:
    """Per-layer figures of one traced pass from its span totals."""

    def per_s(count: int, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    fc = t["constructions.first_component"]
    prod = t["constructions.product"]
    refine = t["minimization.refine"]
    mini = t["minimization.minimize"]
    enum = t["oracle.enumerate_dfas"]
    rand = t["oracle.random_dfa"]
    search = t["oracle.search_max"]
    kernel = t["oracle.measured_size"]
    return {
        "constructions.first_component_s": fc.inclusive,
        "constructions.first_component_states": fc.count,
        "constructions.product_s": prod.inclusive,
        "constructions.product_states": prod.count,
        "minimization.partition_s": refine.inclusive,
        "minimization.states_per_s": per_s(refine.count, refine.inclusive),
        # minimize's own time: trimming before refinement, quotient after.
        "minimization.quotient_s": mini.self_time,
        "minimization.blocks": mini.count + kernel.count,
        "minimization.state_complexity_s": t["minimization.state_complexity"].inclusive,
        "oracle.enumerate_s": enum.inclusive,
        "oracle.machines_enumerated": enum.count,
        "oracle.random_dfa_s": rand.inclusive,
        "oracle.random_dfas": rand.calls,
        "oracle.search_s": search.inclusive,
        "oracle.search_kernel_s": kernel.inclusive,
        "oracle.pairs_covered": search.count,
        "oracle.kernel_pairs_per_s": per_s(kernel.calls, kernel.inclusive),
        "witnesses.witness_pair_s": t["witnesses.witness_pair"].inclusive,
    }


def measure_layers(name: str, seed: int, seconds: float, load) -> Result:
    """Alternate an untraced pass with a traced one.  The traced pass builds
    the inputs again and runs the workload's ops under spans; then every
    result is measured again through the pipeline's stages, one call at a
    time, as a check that the spans time the same program."""
    result = Result()
    lib, ops, _ = set_up(name, seed, load)
    tracer = spans.Tracer(lib)
    untraced, traced, per_pass = [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while True:
        lap = time.perf_counter()
        plain = run_pass(ops, result, first)
        first = first or plain.outputs
        untraced.append(plain.seconds)
        with tracer.active():
            workloads.build(name, lib, seed)
            start = time.perf_counter()
            outputs = [op.run() for op in ops]
            traced.append(time.perf_counter() - start)
        per_pass.append(layer_metrics(tracer.totals))
        for op, out in zip(ops, outputs):
            result.check(op, op.problem(out))
            result.check(op, op.decomposed_problem(out))
        if not time_for_another(lap, deadline):
            break
    result.metrics = {
        metric: statistics.median(p[metric] for p in per_pass) for metric in per_pass[0]
    }
    result.metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    result.lines = [
        f"workload {name} seed {seed} traced: {len(per_pass)} traced and untraced passes",
        quartile_line("untraced pass", untraced, "s"),
        quartile_line("traced pass", traced, "s"),
        *(f"{m} {result.metrics[m]:.6g} {PER_LAYER_UNITS[m]}" for m in PER_LAYER_UNITS),
    ]
    return result


def run_one(args, load=load_sclab) -> int:
    measure, units = (
        (measure_layers, PER_LAYER_UNITS) if args.trace else (measure_end_to_end, END_TO_END_UNITS)
    )
    try:
        result = measure(args.workload, args.seed, args.seconds, load)
    except SclabNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    print(f"fail_rate {len(result.problems) / result.attempted:.6g} ratio "
          f"({len(result.problems)} of {result.attempted} ops wrong)")
    for problem in result.problems[:20]:
        print(f"FAIL {problem}")
    print(json.dumps(result.record(units)), flush=True)
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Each workload in a child process of its own, one after another."""
    status = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        status = max(status, child.returncode)
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"[{name}] no result (exit status {child.returncode})")
            total["correct"] = False
            continue
        total["correct"] = total["correct"] and record["correct"]
        total["attempted"] += record["attempted"]
        total["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

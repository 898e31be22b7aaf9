"""causalground benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload line6-naturality --seed 1 --seconds 10 --trace 0

The run writes its inputs from the seed under ``.bench_work/<workload>``,
times the set-up several times, then repeats the workload's round of
queries until ``--seconds`` have passed (at least one round).  Reported
times are wall times rescaled to a fixed CPU speed (see ``calibrate``);
the raw wall times are printed beside them.  Every output is re-checked
afterwards by an oracle that does not use the library.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MAX_TABLE_ENV = "CAUSAL_GROUND_MAX_TABLE"
SEP = "|"

# An untraced run sets up at least SETUPS times, and more while the
# set-ups have taken under SETUP_SECONDS; setup_s is their median.
SETUPS = 3
SETUP_SECONDS = 3.0

# CPU and memory speed on a shared virtual machine drift by about 20 %
# within seconds, more than the end-to-end bounds.  So a fixed kernel runs
# between every two operations, and each operation's wall time is also
# reported rescaled: multiplied by REF_SECONDS / r, where r is the mean
# kernel time just before and just after it.
CAL_DOCUMENT = json.dumps(
    [{"id": str(i), "values": [str(i % 7), "a|b", "c"]} for i in range(10_000)]
)
CAL_ITERATIONS = 15_000
REF_SECONDS = 0.02


def calibrate() -> float:
    """Time a fixed kernel: parse JSON, then dict and string work."""
    started = perf_counter()
    rows = json.loads(CAL_DOCUMENT)
    table: dict[str, str] = {}
    for i in range(CAL_ITERATIONS):
        key = rows[i % len(rows)]["id"]
        table[key] = table.get(key, "")[:3] + SEP
        SEP.join((key, key))
    return perf_counter() - started


@dataclass
class Op:
    """One attempted operation: a set-up or a query."""

    key: str
    wall_s: float
    scaled_s: float
    outcome: Any  # plain output; None when the call raised


class Run:
    """Operations attempted in one run, with their timings and outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.setups: list[Op] = []
        self.rounds: list[list[Op]] = []
        self.kernels: list[float] = []
        self.errors: list[str] = []

    def _kernel(self) -> float:
        # The kernel leaves no cyclic garbage, so after it the next
        # operation too starts from a collected heap.
        gc.collect()
        self.kernels.append(calibrate())
        return self.kernels[-1]

    def _op(self, key: str, call: Callable[[], Any], plain: Callable[[Any], Any]) -> Op:
        before = self.kernels[-1] if self.kernels else self._kernel()
        started = perf_counter()
        try:
            raw = call()
        except Exception:
            raw = None
            self.errors.append(traceback.format_exc())
        wall = perf_counter() - started
        scaled = wall * 2 * REF_SECONDS / (before + self._kernel())
        return Op(key, wall, scaled, None if raw is None else plain(raw))

    def setup(self) -> None:
        self.setups.append(self._op("setup", self.workload.setup, vars))

    def round(self) -> list[Op]:
        return [
            self._op(key, call, lambda raw, key=key: self.workload.plain(key, raw))
            for key, call in self.workload.queries()
        ]

    def timed_rounds(self, seconds: float) -> None:
        started = perf_counter()
        while not self.rounds or perf_counter() - started < seconds:
            self.rounds.append(self.round())

    def operations(self) -> list[Op]:
        return self.setups + [op for rnd in self.rounds for op in rnd]


def verify(workload, operations: list[Op]) -> tuple[int, list[str]]:
    """Failed operations; each distinct output goes to the oracle once."""
    verdicts: dict[str, list[str]] = {}
    failed, problems = 0, []
    for op in operations:
        key, outcome = op.key, op.outcome
        if outcome is None:
            failed += 1
            continue
        digest = key + "\0" + json.dumps(outcome, sort_keys=True)
        if digest not in verdicts:
            try:
                if key == "setup":
                    verdicts[digest] = workload.check_setup(outcome)
                else:
                    verdicts[digest] = workload.check(key, outcome)
            except Exception:
                verdicts[digest] = [traceback.format_exc()]
            problems += [f"{key}: {p}" for p in verdicts[digest]]
        failed += bool(verdicts[digest])
    return failed, problems


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, workload) -> tuple[dict, list[str]]:
    """End-to-end metrics in rescaled seconds, with the wall times beside."""
    def times(field):
        get = attrgetter(field)
        return {
            "setup_s": statistics.median(map(get, run.setups)),
            "check_s": statistics.median(sum(map(get, rnd)) for rnd in run.rounds),
            "verdict_p50_s": statistics.median(get(op) for rnd in run.rounds for op in rnd),
        }

    scaled, wall = times("scaled_s"), times("wall_s")
    queries = sorted(op.scaled_s for rnd in run.rounds for op in rnd)
    artifact = sum(os.path.getsize(p) for p in workload.artifacts() if os.path.exists(p))
    metrics = {name: metric(value, "s") for name, value in scaled.items()}
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    metrics["artifact_mb"] = metric(artifact / 1e6, "MB")
    notes = {
        "setup_s": f"median of {len(run.setups)} set-ups",
        "check_s": f"median of {len(run.rounds)} rounds of {len(run.rounds[0])} queries",
        "verdict_p50_s": f"n={len(queries)} queries",
    }
    lines = [f"calibration kernel median {statistics.median(run.kernels) * 1000:.4g} ms "
             f"over {len(run.kernels)} runs (reference {REF_SECONDS * 1000:g} ms)"]
    for name, m in metrics.items():
        line = f"metric {name} {m['value']:.6g} {m['unit']}"
        if name in notes:
            line += f" ({notes[name]}; wall {wall[name]:.6g} s)"
        lines.append(line)
    if len(queries) >= 100:
        p90 = statistics.quantiles(queries, n=10)[-1]
        lines.append(f"metric verdict_p90_s {p90:.6g} s (n={len(queries)} queries, "
                     f"{sum(s > p90 for s in queries)} beyond it)")
    return metrics, lines


def traced(run: Run, workload, seconds: float) -> tuple[dict, list[str]]:
    """Untraced rounds for the baseline, then one traced set-up and round."""
    import tracing

    run.timed_rounds(seconds / 2)
    untraced = statistics.median(sum(op.wall_s for op in rnd) for rnd in run.rounds)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.setup()
        traced_round = run.round()
    finally:
        tracer.uninstall()
    tracer.write(workload.path("spans.json"))
    run.rounds.append(traced_round)
    traced_s = sum(op.wall_s for op in traced_round)
    metrics = tracer.metrics(run.setups[-1].wall_s + traced_s, traced_s / untraced)
    lines = [f"layer {name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append("note abstraction.squares is computed as states x (generators + 1)")
    if tracer.not_measured():
        lines.append("not measured (hook target missing): "
                     + ", ".join(tracer.not_measured()))
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, size: str = "full") -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable lines."""
    from causalground.core import max_table_entries

    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.WORKLOADS[name](workdir, seed, size)
    workload.generate()
    run = Run(workload)
    run.setup()
    while not trace and (len(run.setups) < SETUPS or
                         sum(op.wall_s for op in run.setups) < SETUP_SECONDS):
        run.setup()
    workload.after_setup()
    lines = [
        f"run workload={name} seed={seed} trace={int(trace)} commit={git_commit()} "
        f"python={platform.python_version()} cpus={os.cpu_count()} "
        f"max_table={max_table_entries()}"
    ]
    if trace:
        metrics, metric_lines = traced(run, workload, seconds)
    else:
        run.timed_rounds(seconds)
        metrics, metric_lines = end_to_end(run, workload)
    operations = run.operations()
    failed, problems = verify(workload, operations)
    lines += metric_lines
    lines.append(f"metric fail_ratio {failed / len(operations):.6g} "
                 f"({failed} failed of {len(operations)} attempted)")
    lines += [f"error {text.strip()}" for text in run.errors]
    lines += [f"problem {p}" for p in problems]
    result = {
        "correct": failed == 0,
        "attempted": len(operations),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "causalground", "__init__.py")):
        print(f"error: no causalground sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Run at the default enumeration limit, so a regression shows as failures.
    os.environ.pop(MAX_TABLE_ENV, None)

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

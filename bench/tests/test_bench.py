"""Smoke and sabotage tests for the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from causalground import abstraction, checkers, cli, core, scm  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def tiny(tmp_path, name, trace=False):
    return run.run_workload(name, 5, 0.2, trace, str(tmp_path / name), size="tiny")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, name, trace):
    result, lines = tiny(tmp_path, name, trace)
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        with open(tmp_path / name / "spans.json", encoding="utf-8") as fh:
            spans = json.load(fh)
        assert spans and all(s["end"] >= s["start"] for s in spans)


def test_workload_names_match_the_spec():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


def flip(field):
    def wrap(fn):
        def sabotaged(*args, **kwargs):
            result = fn(*args, **kwargs)
            return dataclasses.replace(result, **{field: not getattr(result, field)})
        return sabotaged
    return wrap


def test_corrupted_cli_verdict_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "check_naturality", flip("natural")(cli.check_naturality))
    result, lines = tiny(tmp_path, "line6-naturality")
    assert not result["correct"]
    assert result["failed"] >= 2
    assert any("natural=" in line for line in lines)


def test_corrupted_in_memory_verdict_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(checkers, "check_invariance", flip("holds")(checkers.check_invariance))
    result, _ = tiny(tmp_path, "invariance-batch")
    assert not result["correct"] and result["failed"] > 0


def test_hooks_patch_every_binding_and_restore_them():
    originals = (core.outcome_map, core.compose, checkers.probe_record, cli.run)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert checkers.outcome_map is cli.outcome_map is core.outcome_map
        assert core.outcome_map is not originals[0]
        assert abstraction.compose is core.compose is not originals[1]
        assert scm.probe_record is checkers.probe_record is not originals[2]
        assert cli.run is not originals[3]
    finally:
        tracer.uninstall()
    assert (core.outcome_map, core.compose, checkers.probe_record, cli.run) == originals
    assert checkers.outcome_map is originals[0] and abstraction.compose is originals[1]


def test_missing_hook_target_is_reported_not_measured(monkeypatch):
    monkeypatch.delattr(checkers, "probe_record")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "causalground.checkers.probe_record" in tracer.missing
    assert {"checkers.probe_s", "checkers.probe_calls"} <= set(tracer.not_measured())
    assert "checkers.probe_s" not in tracer.metrics(1.0, 1.0)


def test_untraced_run_never_loads_hooks(tmp_path):
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import run\n"
        "run.run_workload('scm-mechanisms', 1, 0.1, False, %r, size='tiny')\n"
        "print('tracing' in sys.modules)\n"
    ) % (BENCH, os.path.join(ROOT, "src"), str(tmp_path / "w"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "scm-mechanisms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

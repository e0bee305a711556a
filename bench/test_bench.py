"""Tests of the benchmark itself: seeded inputs, repeatable exact counts, and
refusal to run without the program. Run from the repository root with

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import run
import tracing
import workloads


def traced_pass(workload, seed, point_dir):
    """Set up afresh and run one traced pass: (argv list, counts, calls)."""
    pos, ops, _ = run.setup(workload, seed, str(point_dir))
    tracer = tracing.Tracer()
    tally = run.Tally()
    tracer.install(vars(pos))
    try:
        run.run_pass(pos, ops, tally, perf_counter() + 600, tracer)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.reasons
    calls = {name: total["calls"]
             for name, total in tracer.layer_totals().items()}
    return [op.argv for op in ops], tracer.take_counts(), calls


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_counts(workload, tmp_path):
    first = traced_pass(workload, 11, tmp_path)
    second = traced_pass(workload, 11, tmp_path)
    assert first == second
    argv, counts, calls = first
    assert calls["cli"] == len(argv)


def test_seed_changes_inputs(tmp_path):
    pos = run.import_positroid()
    for workload in workloads.WORKLOADS:
        lists = [[op.argv for op in workloads.build(workload, seed, pos,
                                                     str(tmp_path))]
                 for seed in (1, 2, 3)]
        assert lists[0] != lists[1] or lists[0] != lists[2], workload


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the run exits
    nonzero and prints no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "krull-dim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

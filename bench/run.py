"""Benchmark of the positroid CLI verbs, run in one process.

From the root of a checkout:

    python3 bench/run.py --workload flatness-sweep --seed 1 --seconds 15 \
        --trace 0

An operation is one CLI invocation, `positroid.cli.main(argv,
standalone_mode=False)`, with its `--json` report captured and checked and
`SystemExit` read as the exit code. Exit 0 and 1 are results; exit 2, any
other exception, a resource cap, the per-op time limit or a failed check
are failures. Workloads and checks are in `workloads.py`.

`--trace 0` cycles through the workload's op list until `--seconds` have
passed, at least one whole pass, and reports the end-to-end metrics:

  setup_s      median of SETUP_REPEATS set-ups (fresh import of the package,
               op list, point files)
  wall_s       time of one pass over the op list: the sum over its ops of
               each op's median latency
  op_p50_s     median over the op list of each op's median latency
  peak_rss_mb  peak resident set size of the process through set-up and
               the first pass
  ops_ok_frac  1 - failed ops / attempted ops

The table also shows the sample counts, op_p90_s (same basis as op_p50_s)
when the op list has at least 100 ops, ops_failed_frac and
cli.verify_fail_cases (ops of one pass that exit 1).

`--trace 1` runs pairs of an untraced and a traced whole pass, as many as
fit in `--seconds` and at least one, and reports per-layer calls, self time
and exact work counts per pass (see `tracing.py`), plus the tracing
overhead: median traced minus median untraced pass time. Its spans go to
`bench/out/spans-<workload>-<seed>.jsonl`.

Tables and a `# run` header (Python version, nproc, CPU, commit, seed) go
to stdout; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import tracing  # noqa: E402  (sibling module; bench/ is sys.path[0])
import workloads  # noqa: E402

# setup_s is the median of this many set-ups: each imports the package
# afresh, builds the op list and writes the point files.
SETUP_REPEATS = 5
# No operation may run longer than this; one that does counts as failed.
OP_LIMIT_S = 60.0
# Ops of the first pass not started this long after `--seconds` have
# passed count as failed, so a run always ends.
DEADLINE_GRACE_S = 100.0

MODULES = ("cli", "patterns", "ideals", "groebner", "hilbert", "poly",
           "linalg", "fibers", "k1basis")


class OpTimeout(Exception):
    """An operation reached OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout


def import_positroid() -> SimpleNamespace:
    """Import the package from this checkout's src/, afresh."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "positroid" or m.startswith("positroid.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"positroid.{name}")
            for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"positroid imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int, point_dir: str):
    timings = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pos = import_positroid()
        ops = workloads.build(workload, seed, pos, point_dir)
        timings.append(perf_counter() - start)
    return pos, ops, statistics.median(timings)


def run_op(pos, op, limit_s: float):
    """Run one operation: (latency_s, exit code, failure reason or None)."""
    out = io.StringIO()
    code, reason = None, None
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        try:
            with contextlib.redirect_stdout(out):
                pos.cli.main(op.argv, standalone_mode=False)
            code = 0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SystemExit as exc:
        code = exc.code
    except OpTimeout:
        reason = f"time limit {limit_s:.0f} s"
    except pos.cli.click.ClickException as exc:
        reason = f"exit {exc.exit_code}: {exc.format_message()}"
    except Exception as exc:  # any exception is a failed op, not a crash
        reason = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if reason is None:
        try:
            ok = workloads.check(op, code, json.loads(out.getvalue()))
        except (ValueError, KeyError, TypeError) as exc:
            ok, reason = False, f"bad report: {exc!r}"
        if not ok and reason is None:
            reason = f"check failed (exit {code})"
    return latency, code, reason


class Tally:
    """Attempts, failures and the first few failure reasons of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, op, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{' '.join(op.argv)}: {reason}")


def run_pass(pos, ops, tally, deadline, tracer=None):
    """One pass over the op list: (latencies, exit-1 count)."""
    latencies, exit1 = [], 0
    for op in ops:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            tally.add(op, "run deadline")
            continue
        span = tracer.begin_op(tally.attempted) if tracer else None
        latency, code, reason = run_op(pos, op, min(OP_LIMIT_S, remaining))
        if tracer:
            tracer.end_op(span)
        tally.add(op, reason)
        latencies.append(latency)
        exit1 += code == 1
    return latencies, exit1


def measure(pos, ops, seconds, tally):
    """Untraced: cycle through the ops for `seconds`, at least one whole
    pass. Returns per-op latency samples, the first pass's exit-1 count and
    the peak RSS after that pass."""
    start = perf_counter()
    deadline = start + seconds + DEADLINE_GRACE_S
    first, exit1 = run_pass(pos, ops, tally, deadline)
    # Peak memory through set-up and one whole pass: the same work in every
    # run, however many more ops fit in `seconds`.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [[x] for x in first]
    i = 0
    while perf_counter() - start < seconds and len(first) == len(ops):
        latency, code, reason = run_op(pos, ops[i], OP_LIMIT_S)
        tally.add(ops[i], reason)
        samples[i].append(latency)
        i = (i + 1) % len(ops)
    return samples, exit1, rss_mb


def measure_traced(pos, ops, seconds, tally):
    """Pairs of an untraced and a traced whole pass, as many as fit in
    `seconds` and at least one. Returns the tracer, the untraced and traced
    pass times, per-pass layer totals and counts, and the first pass's
    exit-1 count."""
    tracer = tracing.Tracer()
    modules = vars(pos)
    start = perf_counter()
    deadline = start + seconds + DEADLINE_GRACE_S
    plain, traced, totals, counts = [], [], [], []
    pair_s = 0.0
    while not traced or perf_counter() - start + pair_s <= seconds:
        pair_start = perf_counter()
        latencies, n1 = run_pass(pos, ops, tally, deadline)
        if not plain:
            exit1 = n1
        plain.append(sum(latencies))
        lo = len(tracer.spans)
        tracer.install(modules)
        try:
            latencies, _ = run_pass(pos, ops, tally, deadline, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        totals.append(tracer.layer_totals(lo))
        counts.append(tracer.take_counts())
        pair_s = perf_counter() - pair_start
    return tracer, plain, traced, totals, counts, exit1


# -- run header ---------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(args) -> dict:
    return {"python": f"Python {sys.version.split()[0]}",
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "commit": _git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# -- metrics ------------------------------------------------------------------

def end_to_end(samples, setup_s, rss_mb, tally):
    # Each op of the list counts once, at its median latency, so a run that
    # ends part-way through a pass weights no op more than another.
    per_op = [statistics.median(xs) for xs in samples]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ops_ok_frac": (1 - tally.failed / tally.attempted, "ratio"),
    }
    notes = {"ops per pass": (len(samples), "count"),
             "op samples": (sum(len(xs) for xs in samples), "count"),
             "ops_failed_frac": (tally.failed / tally.attempted, "ratio")}
    # op_p90_s needs at least ten ops beyond it.
    if len(per_op) >= 100:
        notes["op_p90_s"] = (statistics.quantiles(per_op, n=10)[8], "s")
    return metrics, notes


def per_layer(plain, traced, totals, counts, exit1):
    passes = len(totals)
    metrics = {}
    for layer in totals[0]:
        metrics[f"{layer}.calls"] = (totals[0][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (
            sum(t[layer]["self_s"] for t in totals) / passes, "s")
    for name, value in counts[0].items():
        metrics[name] = (value, "count")
    metrics["cli.verify_fail_cases"] = (exit1, "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def print_split(workload, totals):
    """Each layer's share of traced op time, and whether the workload's
    expected split holds."""
    self_s = {name: sum(t[name]["self_s"] for t in totals)
              for name in totals[0]}
    total = sum(self_s.values())
    print("# layer split, share of traced op time")
    for name in sorted(self_s, key=self_s.get, reverse=True)[:6]:
        print(f"  {name:<34}  {self_s[name] / total:6.1%}")
    lead, absent = workloads.EXPECTED_SPLIT[workload]
    top = max(self_s, key=self_s.get)
    ran = [name for name in absent if totals[0][name]["calls"]]
    if top in lead and not ran:
        print(f"# split holds: {top} leads; {', '.join(absent)} did not run")
    else:
        print(f"# split DIFFERS: {top} leads (expected {' or '.join(lead)});"
              f" ran though expected absent: {', '.join(ran) or 'none'}")


def print_table(title, metrics):
    print(f"# {title}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    point_dir = tempfile.mkdtemp(prefix="points-", dir=OUT_DIR)
    try:
        run_header = header(args)
        print(f"# run {json.dumps(run_header)}")
        try:
            pos, ops, setup_s = setup(args.workload, args.seed, point_dir)
        except ImportError as exc:
            print(f"cannot import positroid from {SRC}: {exc}",
                  file=sys.stderr)
            return 2
        tally = Tally()
        counts_repeat = True
        if args.trace:
            tracer, plain, traced, totals, counts, exit1 = measure_traced(
                pos, ops, args.seconds, tally)
            tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl",
                         run_header)
            metrics = per_layer(plain, traced, totals, counts, exit1)
            counts_repeat = all(c == counts[0] for c in counts) and all(
                t[name]["calls"] == totals[0][name]["calls"]
                for t in totals for name in t)
            print_table(f"per layer, mean of {len(totals)} traced passes "
                        f"of {len(ops)} ops", metrics)
            print_table("pass time, median", {
                "untraced": (statistics.median(plain), "s"),
                "traced": (statistics.median(traced), "s")})
            print_split(args.workload, totals)
            if not counts_repeat:
                tally.reasons.append("exact counts differ between passes")
        else:
            samples, exit1, rss_mb = measure(pos, ops, args.seconds, tally)
            metrics, notes = end_to_end(samples, setup_s, rss_mb, tally)
            notes["cli.verify_fail_cases"] = (exit1, "count")
            print_table("end to end", metrics)
            print_table("details", notes)
    finally:
        shutil.rmtree(point_dir, ignore_errors=True)
    for reason in tally.reasons:
        print(f"# FAILED {reason}")
    result = {
        "correct": tally.failed == 0 and counts_repeat,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

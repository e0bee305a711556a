"""Command-line front end: pattern enumeration, ideal export, Hilbert and
flatness sweeps, component counts, dimension, basis and membership checks.

Exit codes: 0 on pass, 1 on verification failure, 2 on invalid input.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction
from math import comb

import click

from . import groebner, k1basis
from .fibers import FiberError, FiberPoint, in_positroid_fiber
from .groebner import ResourceCapExceeded
from .hilbert import graded_component_dim
from .ideals import global_positroid_ideal
from .patterns import (PatternError, components_of_special_fiber,
                       enumerate_patterns, parse_pattern)
from .poly import (parse_natural, parse_rational, poly_to_json,
                   polys_to_text)
from .reports import SCHEMA, VerificationReport

# Every fiber at eps != 0 is isomorphic to the one at eps = 1, because the
# generators are homogeneous for the loop-rotation grading
# (test_generators_are_loop_rotation_homogeneous); 0 and 1 cover them all.
DEFAULT_EPSILONS = "0,1"


class _Natural(click.ParamType):
    """A natural number in ASCII digits, read by `parse_natural`; Click's
    `int` would also read "+1", "1_0" and any Unicode decimal digit."""

    name = "natural"

    def convert(self, value, param, ctx):
        try:
            return parse_natural(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


_NATURAL = _Natural()


def _parse_fraction(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise click.UsageError(f"bad rational number: {exc}")


def _parse_epsilons(text: str) -> list[Fraction]:
    # Every item is a rational; an empty one is an error, not skipped, and
    # so is a repeat, which the reports keyed by epsilon would merge.
    epsilons = [_parse_fraction(x.strip()) for x in text.split(",")]
    if len(set(epsilons)) != len(epsilons):
        raise click.UsageError(f"repeated epsilon in {text!r}")
    return epsilons


def _parse_multidegree(text: str, n: int) -> tuple[int, ...]:
    try:
        m = tuple(parse_natural(x.strip()) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad multidegree {text!r}: {exc}")
    if len(m) != n:
        raise click.UsageError(
            f"multidegree must be {n} nonnegative integers, got {text!r}")
    return m


def _multidegrees_up_to(n: int, bound: int):
    """All multidegrees of n entries with |m| <= bound."""
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _multidegrees_up_to(n - 1, bound - first):
            yield (first,) + rest


def _write(text: str, out) -> None:
    """Write `text` to the file `out`, or echo it when `out` is None. A file
    that cannot be written (a missing directory, a directory) is a usage
    error."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write {out!r}: {exc.strerror}")
    else:
        click.echo(text)


def _reported(verb):
    """Give a report verb `--json`, `--out` and `--timings`. The verb returns
    its VerificationReport; this writes it and exits 0 if it passed, else 1.
    `--timings` adds the wall time of the whole verb to the report."""

    @click.option("--json", "as_json", is_flag=True)
    @click.option("--out", type=click.Path(), default=None)
    @click.option("--timings", is_flag=True)
    @functools.wraps(verb)
    def run(as_json, out, timings, **params):
        start = time.monotonic()
        report = verb(**params)
        elapsed = time.monotonic() - start if timings else None
        _write(report.to_json(elapsed) if as_json
               else report.to_text(elapsed), out)
        sys.exit(0 if report.passed else 1)

    return run


def _pattern_report(task: str, J, **parameters) -> VerificationReport:
    """An empty report on the pattern J, with `parameters` beside J, k, n."""
    return VerificationReport(
        task, {"pattern": str(J), "k": J.k, "n": J.n, **parameters})


class _Main(click.Group):
    """The verb group. A bad pattern or fiber point and a resource limit hit
    by any verb are reported here as a usage error: exit 2 and one `Error:`
    line, no traceback. `flatness` records its cap hits as failed cases
    before they reach this point."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FiberError, PatternError, ResourceCapExceeded) as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Exact computations on global positroid varieties."""


@main.command("patterns")
@click.argument("k", type=_NATURAL)
@click.argument("n", type=_NATURAL)
@_reported
def cmd_patterns(k, n):
    """Enumerate all (k, n) juggling patterns."""
    pats = enumerate_patterns(k, n)
    report = VerificationReport("patterns", {"k": k, "n": n})
    report.add_case("count", True, count=len(pats),
                    patterns=[str(p) for p in pats])
    return report


@main.command("ideal")
@click.argument("pattern")
@click.option("--epsilon", default=None, help="Specialize epsilon to p/q.")
@click.option("--json", "as_json", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_ideal(pattern, epsilon, as_json, out):
    """Print the generators of the global positroid ideal."""
    J = parse_pattern(pattern)
    eps = None if epsilon is None else _parse_fraction(epsilon)
    ideal = global_positroid_ideal(J, eps)
    if as_json:
        payload = {
            "schema": SCHEMA,
            "task": "ideal",
            "parameters": {"pattern": str(J), "k": J.k, "n": J.n,
                           "epsilon": None if eps is None else str(eps)},
            "generators": [poly_to_json(g) for g in ideal.generators],
        }
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = polys_to_text(ideal.generators)
    _write(text, out)


@main.command("hilbert")
@click.argument("pattern")
@click.option("--multidegree", required=True,
              help="Comma list, e.g. 1,1,0.")
@click.option("--epsilon-list", default=DEFAULT_EPSILONS, show_default=True)
@_reported
def cmd_hilbert(pattern, multidegree, epsilon_list):
    """Graded component dimensions of the quotient at each epsilon."""
    J = parse_pattern(pattern)
    m = _parse_multidegree(multidegree, J.n)
    epsilons = _parse_epsilons(epsilon_list)
    report = _pattern_report("hilbert", J, multidegree=list(m),
                             epsilons=[str(e) for e in epsilons])
    dims = {str(eps): graded_component_dim(global_positroid_ideal(J, eps), m)
            for eps in epsilons}
    report.add_case("dims", len(set(dims.values())) == 1, dims=dims)
    return report


@main.command("flatness")
@click.argument("k", type=_NATURAL)
@click.argument("n", type=_NATURAL)
@click.argument("pattern", required=False)
@click.option("--all", "sweep_all", is_flag=True,
              help="Sweep every (k, n) pattern.")
@click.option("--max-degree", type=_NATURAL, default="2",
              show_default=True, help="Bound on |m|.")
@click.option("--epsilon-list", default=DEFAULT_EPSILONS, show_default=True)
@_reported
def cmd_flatness(k, n, pattern, sweep_all, max_degree, epsilon_list):
    """Check graded dimensions are constant in epsilon (and match the
    admissible count for k=1)."""
    epsilons = _parse_epsilons(epsilon_list)
    if len(epsilons) < 2:
        raise click.UsageError(
            f"flatness needs at least two epsilons, got {epsilon_list!r}")
    if bool(pattern) == sweep_all:
        raise click.UsageError("give exactly one of PATTERN and --all")
    patterns = ([parse_pattern(pattern)] if pattern
                else enumerate_patterns(k, n))
    cases = len(patterns) * comb(max_degree + n, n)
    if cases > groebner.MAX_FLATNESS_CASES:
        raise ResourceCapExceeded(
            f"{cases} flatness cases exceed cap {groebner.MAX_FLATNESS_CASES}")
    report = VerificationReport(
        "flatness", {"k": k, "n": n, "max_degree": max_degree,
                     "epsilons": [str(e) for e in epsilons],
                     "patterns": [str(p) for p in patterns]})
    for J in patterns:
        if (J.k, J.n) != (k, n):
            raise click.UsageError(f"pattern {J} is not a ({k},{n}) pattern")
        specialized = {eps: global_positroid_ideal(J, eps)
                       for eps in epsilons}
        for m in _multidegrees_up_to(n, max_degree):
            key = f"{J}|m={','.join(map(str, m))}"
            try:
                dims = {str(eps): graded_component_dim(spec, m)
                        for eps, spec in specialized.items()}
            except ResourceCapExceeded as exc:
                report.add_case(key, False, error=str(exc))
                continue
            # Passes when the dimensions (and the k = 1 count) all agree.
            payload = {"dims": dims}
            values = set(dims.values())
            if k == 1:
                payload["count_admissible"] = k1basis.count_admissible(J, m)
                values.add(payload["count_admissible"])
            report.add_case(key, len(values) == 1, **payload)
    return report


@main.command("components")
@click.argument("pattern")
@_reported
def cmd_components(pattern):
    """Irreducible components of the special fiber, by anchor sets."""
    J = parse_pattern(pattern)
    comps = components_of_special_fiber(J)
    report = _pattern_report("components", J)
    report.add_case("components", True, count=len(comps),
                    anchors=[list(S.elements) for S in comps])
    return report


@main.command("dim")
@click.argument("pattern")
@click.option("--epsilon", default="1", show_default=True)
@_reported
def cmd_dimension(pattern, epsilon):
    """Projective dimension of the fiber at epsilon (Krull minus n)."""
    J = parse_pattern(pattern)
    eps = _parse_fraction(epsilon)
    krull = global_positroid_ideal(J, eps).groebner().krull_dimension()
    report = _pattern_report("dim", J, epsilon=str(eps))
    report.add_case("dimension", True, krull=krull,
                    projective_dimension=krull - J.n)
    return report


@main.command("basis")
@click.option("--pattern", required=True)
@click.option("--multidegree", required=True)
@click.option("--epsilon-list", default=DEFAULT_EPSILONS, show_default=True)
@_reported
def cmd_basis(pattern, multidegree, epsilon_list):
    """Admissible monomials, counts, dimension table and basis check."""
    J = parse_pattern(pattern)
    if J.k != 1:
        raise click.UsageError("the basis machinery requires k = 1")
    m = _parse_multidegree(multidegree, J.n)
    epsilons = _parse_epsilons(epsilon_list)
    passed, case = k1basis.verify_basis(J, m, epsilons=tuple(epsilons))
    report = _pattern_report("basis", J, multidegree=list(m),
                             epsilons=[str(e) for e in epsilons])
    report.add_case("basis", passed, **case)
    return report


@main.command("membership")
@click.option("--point", "point_file", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--pattern", required=True)
@click.option("--epsilon", default=None,
              help="Override the epsilon stored in the point file.")
@_reported
def cmd_membership(point_file, pattern, epsilon):
    """Check a fiber point (JSON file) for positroid-fiber membership."""
    J = parse_pattern(pattern)
    try:
        with open(point_file) as fh:
            point = FiberPoint.from_json(json.load(fh))
    except (RecursionError, ValueError) as exc:
        # json.load raises RecursionError on arrays or objects nested
        # deeper than the interpreter's recursion limit.
        raise click.UsageError(f"bad point file: {exc}")
    if epsilon is not None:
        point = FiberPoint(_parse_fraction(epsilon), point.spaces)
    member = in_positroid_fiber(point, J)
    report = _pattern_report("membership", J, epsilon=str(point.epsilon))
    report.add_case("membership", member, member=member)
    return report


if __name__ == "__main__":
    main()

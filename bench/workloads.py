"""The benchmark's workloads: seeded operation lists and their checks.

An operation is one CLI invocation, given as its argument list. Each
workload builds its list from the seed with the positroid library itself,
writes any point files it needs, and records what a correct result looks
like; the CLI only ever receives the generated strings and files.

Why these workloads (the layer that dominates each at the seed commit):

- flatness-sweep: many small graded components and no Groebner basis;
  ideal construction, epsilon-specialization and Hilbert row building lead
  and `linalg.rank` is small. The bypass side for any Groebner change.
- krull-dim: nearly all time in `groebner.buchberger`.
- hilbert-deep: a few large graded components; `linalg.rank` dominates.
- fiber-points: thousands of membership checks on small dense matrices
  (`fibers.plucker_vector`, `linalg.det`), against hilbert-deep's wide
  sparse rank; non-members exit early. The CLI's own per-op work (argument
  parsing, reading the point file) takes the largest share here.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

# Nonzero epsilon values the seed picks from. After clearing denominators
# all four give coefficients of the same size, so the seed changes the
# inputs but not the amount of work.
NONZERO_EPSILONS = ("2", "-2", "1/2", "-1/2")
# Torus fixed points are members at every epsilon, 0 included.
POINT_EPSILONS = ("0", "1", "-1") + NONZERO_EPSILONS

FLATNESS_SHAPES = ((1, 5), (2, 4))
FLATNESS_MAX_DEGREE = 2

# krull-dim: (epsilon, pool) pairs; each pass takes one pattern from every
# pool. The patterns of a pool have Groebner bases that take the same
# number of Python calls at the seed commit, so any pick costs the same.
# Together they keep both epsilon values, a large basis (ell = 3, 37
# elements) and a small one (ell = 1, 26 elements).
KRULL_POOLS = (
    ("1", ("1,1,1,1",)),
    ("1", ("1,1,1,2", "1,1,2,1")),
    ("0", ("1,1,3,2", "1,2,1,2", "1,3,2,1")),
    ("0", ("1,4,3,2", "2,1,4,3", "3,2,1,4", "4,3,2,1")),
)

# Large graded components: rank of a wide sparse matrix dominates each.
HILBERT_COMPONENTS = (("1,1,2", "3,3,2"), ("12|12|12", "3,3,2"),
                      ("12|13|23", "3,2,2"), ("1,2,1,2", "1,1,1,1"))

FIBER_MAX_N = 5
BASIS_MULTIDEGREE = "1,1,1"
K1_LAMBDAS = (-9, -7, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 7, 9)

WORKLOADS = ("flatness-sweep", "krull-dim", "hilbert-deep", "fiber-points")

# The layer split each workload is built for: the layer with the most self
# time in a traced run should be one of the first group, and the layers of
# the second group should not run at all. A traced run reports whether the
# split holds.
EXPECTED_SPLIT = {
    "flatness-sweep": (("ideals.global_positroid_ideal",
                        "poly.Polynomial.__mul__",
                        "hilbert.graded_component_dim"),
                       ("groebner.buchberger",)),
    "krull-dim": (("groebner.buchberger",), ("linalg.rank",)),
    "hilbert-deep": (("linalg.rank",), ("groebner.buchberger",)),
    "fiber-points": (("fibers.plucker_vector", "linalg.det"),
                     ("groebner.buchberger",)),
}


@dataclass
class Op:
    """One CLI invocation and what a correct result must satisfy."""

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)


def build(name: str, seed: int, pos, point_dir: str) -> list[Op]:
    """The op list of workload `name` for `seed`, in seeded order. `pos`
    holds the imported positroid modules; point files go to `point_dir`."""
    rng = random.Random(f"{name}:{seed}")
    ops = OP_LISTS[name](rng, pos, point_dir)
    rng.shuffle(ops)
    return ops


def _multidegrees(n: int, bound: int):
    """All multidegrees of n entries with total degree at most `bound`."""
    if n == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _multidegrees(n - 1, bound - first):
            yield (first,) + rest


def _md(m) -> str:
    return ",".join(map(str, m))


def _flatness(rng, pos, point_dir):
    eps = rng.choice(NONZERO_EPSILONS)
    ops = []
    for k, n in FLATNESS_SHAPES:
        mds = list(_multidegrees(n, FLATNESS_MAX_DEGREE))
        for J in pos.patterns.enumerate_patterns(k, n):
            counts = None
            if k == 1:
                counts = {_md(m): pos.k1basis.count_admissible(J, m)
                          for m in mds}
            ops.append(Op(["flatness", str(k), str(n), str(J),
                           "--max-degree", str(FLATNESS_MAX_DEGREE),
                           "--epsilon-list", f"0,1,{eps}", "--json"],
                          "flatness",
                          {"k": k, "cases": len(mds), "counts": counts}))
    return ops


def _krull(rng, pos, point_dir):
    ops = []
    for eps, pool in KRULL_POOLS:
        J = pos.patterns.parse_pattern(rng.choice(pool))
        ops.append(Op(["dim", str(J), "--epsilon", eps, "--json"], "dim",
                      {"n": J.n, "ell": J.ell}))
    return ops


def _hilbert(rng, pos, point_dir):
    eps = rng.choice(NONZERO_EPSILONS)
    ops = []
    for text, m in HILBERT_COMPONENTS:
        J = pos.patterns.parse_pattern(text)
        count = None
        if J.k == 1:
            count = pos.k1basis.count_admissible(
                J, tuple(int(x) for x in m.split(",")))
        ops.append(Op(["hilbert", text, "--multidegree", m,
                       "--epsilon-list", f"0,{eps}", "--json"], "hilbert",
                      {"count": count}))
    return ops


def _write_point(point, path) -> str:
    with open(path, "w") as fh:
        json.dump(point.to_json(), fh)
    return path


def _fibers(rng, pos, point_dir):
    P = pos.patterns
    ops = []
    for n in range(2, FIBER_MAX_N + 1):
        for k in range(1, n):
            patterns = P.enumerate_patterns(k, n)
            for elems in combinations(range(n), k):
                S = P.AnchorSet(n, elems)
                JS = P.pattern_from_anchor(S)
                eps = Fraction(rng.choice(POINT_EPSILONS))
                path = _write_point(
                    pos.fibers.torus_fixed_point(S, eps),
                    os.path.join(point_dir, f"p-{n}-{k}-{len(ops)}.json"))
                for J in patterns:
                    ops.append(Op(["membership", "--point", path,
                                   "--pattern", str(J), "--json"],
                                  "membership", {"member": J.leq(JS)}))
    for n in range(2, FIBER_MAX_N + 1):
        for J in P.enumerate_patterns(1, n):
            lam = {b: rng.choice(K1_LAMBDAS) for b in sorted(J.ones_locus)}
            eps = Fraction(rng.choice(NONZERO_EPSILONS))
            path = _write_point(
                pos.fibers.k1_point(J, lam, eps),
                os.path.join(point_dir, f"k1-{n}-{len(ops)}.json"))
            ops.append(Op(["membership", "--point", path,
                           "--pattern", str(J), "--json"],
                          "membership", {"member": True}))
    eps = rng.choice(NONZERO_EPSILONS)
    for J in P.enumerate_patterns(1, 3):
        ops.append(Op(["basis", "--pattern", str(J),
                       "--multidegree", BASIS_MULTIDEGREE,
                       "--epsilon-list", f"0,{eps}", "--json"], "basis"))
    return ops


OP_LISTS = {"flatness-sweep": _flatness, "krull-dim": _krull,
            "hilbert-deep": _hilbert, "fiber-points": _fibers}


# -- checks ------------------------------------------------------------------

def check(op: Op, code: int, report: dict) -> bool:
    """Whether exit code and report are correct for `op`. Exit 1 (a
    verification failed) is a result, checked like exit 0."""
    if code not in (0, 1) or (code == 0) != report["pass"]:
        return False
    return CHECKS[op.kind](op.expect, code, report["cases"])


def _check_flatness(expect, code, cases):
    if len(cases) != expect["cases"]:
        return False
    for case in cases:
        dims = list(case["dims"].values())
        if len(set(dims)) != 1:
            return False
        if expect["k"] == 1:
            m = case["case"].rsplit("|m=", 1)[1]
            count = expect["counts"][m]
            if case["count_admissible"] != count or dims[0] < count:
                return False
        elif not case["pass"]:
            return False
    return True


def _check_dim(expect, code, cases):
    (case,) = cases
    return (code == 0
            and case["projective_dimension"] == expect["ell"] - 1
            and case["krull"] == case["projective_dimension"] + expect["n"])


def _check_hilbert(expect, code, cases):
    (case,) = cases
    dims = set(case["dims"].values())
    if len(dims) != 1 or code != 0:
        return False
    return expect["count"] is None or dims == {expect["count"]}


def _check_membership(expect, code, cases):
    (case,) = cases
    return (case["member"] is expect["member"]
            and code == (0 if expect["member"] else 1))


def _check_basis(expect, code, cases):
    return code == 0


CHECKS = {"flatness": _check_flatness, "dim": _check_dim,
          "hilbert": _check_hilbert, "membership": _check_membership,
          "basis": _check_basis}

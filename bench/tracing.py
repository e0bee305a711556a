"""Spans and exact work counts recorded from outside the program.

The tracer rebinds module and class attributes of the positroid package to
wrappers, so no file under src/ changes. Every binding of a function is
wrapped, including names imported by value into another module
(`positroid.cli.graded_component_dim` and the like), because the caller
looks the name up in its own module.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from time import perf_counter

# Layer name -> (module, attribute path) bindings to wrap. The first binding
# is the definition; the others are copies imported by value. Names follow
# `<module>.<function>` or `<module>.<Class>.<method>`.
LAYERS = {
    "patterns.parse_pattern": [("patterns", "parse_pattern"),
                               ("cli", "parse_pattern")],
    "ideals.global_positroid_ideal": [("ideals", "global_positroid_ideal"),
                                      ("cli", "global_positroid_ideal")],
    "groebner.Ideal.specialize": [("groebner", "Ideal.specialize")],
    "groebner.buchberger": [("groebner", "buchberger")],
    # `dim` calls the method; the module function of this name delegates
    # to it, so the method is the one boundary both paths cross.
    "groebner.krull_dimension": [("groebner",
                                  "GroebnerBasis.krull_dimension")],
    "hilbert.graded_component_dim": [("hilbert", "graded_component_dim"),
                                     ("cli", "graded_component_dim")],
    "hilbert.monomials_of_multidegree": [("hilbert",
                                          "monomials_of_multidegree")],
    "poly.Polynomial.__mul__": [("poly", "Polynomial.__mul__")],
    "linalg.rank": [("linalg", "rank")],
    "linalg.det": [("linalg", "det")],
    "fibers.plucker_vector": [("fibers", "plucker_vector")],
    "fibers.in_positroid_fiber": [("fibers", "in_positroid_fiber"),
                                  ("cli", "in_positroid_fiber")],
    "fibers.FiberPoint.from_json": [("fibers", "FiberPoint.from_json")],
    "k1basis.count_admissible": [("k1basis", "count_admissible")],
    "k1basis.verify_basis": [("k1basis", "verify_basis")],
}

# The span that encloses one CLI operation; its self time is the CLI's own.
OP_LAYER = "cli"

# Exact work counts, from call arguments and return values: sums over the
# calls, except linalg.rank.max_entry_bits, the largest input entry.
COUNTS = ("ideals.generators", "groebner.basis_size",
          "hilbert.component_monomials", "linalg.rank.entries",
          "linalg.rank.max_entry_bits", "fibers.members")


def _entry_bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _count_generators(counts, args, result):
    counts["ideals.generators"] += len(result.generators)


def _count_basis(counts, args, result):
    counts["groebner.basis_size"] += len(result.leading_monomials())


def _count_component(counts, args, result):
    ideal, m = args
    nvars = math.comb(ideal.n, ideal.k)
    counts["hilbert.component_monomials"] += math.prod(
        math.comb(nvars + mb - 1, mb) for mb in m)


def _count_rank(counts, args, result):
    rows = args[0]
    if rows:
        counts["linalg.rank.entries"] += len(rows) * len(rows[0])
        bits = max((_entry_bits(x) for row in rows for x in row if x),
                   default=0)
        if bits > counts["linalg.rank.max_entry_bits"]:
            counts["linalg.rank.max_entry_bits"] = bits


def _count_member(counts, args, result):
    if result:
        counts["fibers.members"] += 1


COUNTERS = {
    "ideals.global_positroid_ideal": _count_generators,
    "groebner.buchberger": _count_basis,
    "hilbert.graded_component_dim": _count_component,
    "linalg.rank": _count_rank,
    "fibers.in_positroid_fiber": _count_member,
}


class Tracer:
    """Records one span per call of each wrapped layer, and the counts.

    A span is `[layer, start, end, parent, op]`: `parent` is the index of
    the enclosing span (None for an operation's own span) and `op` the
    operation id that all spans of one CLI invocation share. Spans stay in
    memory until `write`.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []
        self._op = None
        self._bindings: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Rebind every binding in LAYERS; `modules` maps short module names
        to the imported positroid modules."""
        wrappers = {}
        for layer, bindings in LAYERS.items():
            for module_name, path in bindings:
                owner = modules[module_name]
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                # Keep the raw attribute, so a classmethod is restored as one.
                raw = vars(owner)[attr]
                self._bindings.append((owner, attr, raw))
                if id(raw) not in wrappers:
                    wrappers[id(raw)] = self._wrap(layer, getattr(owner, attr))
                setattr(owner, attr, wrappers[id(raw)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _wrap(self, layer, original):
        count = COUNTERS.get(layer)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, layer) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, 0.0, 0.0, parent, self._op])
        self._stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def _close(self, index) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id) -> int:
        self._op = op_id
        return self._open(OP_LAYER)

    def end_op(self, index) -> None:
        self._close(index)
        del self._stack[:]
        self._op = None

    # -- results ----------------------------------------------------------

    def take_counts(self) -> dict:
        """The exact work counts since the last call, then reset them."""
        counts, self.counts = self.counts, dict.fromkeys(COUNTS, 0)
        return counts

    def layer_totals(self, lo: int = 0) -> dict:
        """Calls and self time per layer over the whole operations in
        spans[lo:]; self time is a span's duration minus the durations of
        its direct children."""
        spans = self.spans[lo:]
        child = [0.0] * len(spans)
        for layer, start, end, parent, op in spans:
            if parent is not None:
                child[parent - lo] += end - start
        out = {name: {"calls": 0, "self_s": 0.0}
               for name in (OP_LAYER, *LAYERS)}
        for i, (layer, start, end, parent, op) in enumerate(spans):
            out[layer]["calls"] += 1
            out[layer]["self_s"] += end - start - child[i]
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line for the header, then one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

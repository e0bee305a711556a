"""Tests for the command-line interface: verbs, formats, exit codes."""

import json
import time
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from positroid import cli, groebner, hilbert, k1basis
from positroid.cli import main
from positroid.fibers import torus_fixed_point
from positroid.groebner import GroebnerBasis
from positroid.ideals import global_positroid_ideal
from positroid.patterns import AnchorSet, enumerate_patterns
from positroid.poly import Polynomial
from positroid.reports import VerificationReport
from support import parse_polynomials, poly_from_json


def run(*args):
    return CliRunner().invoke(main, list(args))


GOOD_POINT = torus_fixed_point(AnchorSet(3, (0,)), 1).to_json()

# Point files that `membership` must reject, by name.
BAD_POINTS = {
    "vertex-count": torus_fixed_point(AnchorSet(4, (0,)), 1).to_json(),
    "no-spaces": {"epsilon": "1", "spaces": []},
    "space-without-rows": {**GOOD_POINT,
                           "spaces": [[["1", "0", "0"]], [],
                                      [["0", "0", "1"]]]},
    "top-level-list": [GOOD_POINT],
    "epsilon-1/0": {**GOOD_POINT, "epsilon": "1/0"},
    "unequal-lengths": {**GOOD_POINT,
                        "spaces": [[["0", "0", "1"]], [["0", "1"]],
                                   [["1", "0", "0"]]]},
    "epsilon-json-float": {**GOOD_POINT, "epsilon": 0.1},
    "entry-json-true": {**GOOD_POINT,
                        "spaces": [[["0", "0", True]], [["0", "1", "0"]],
                                   [["1", "0", "0"]]]},
    "row-as-string": {**GOOD_POINT,
                      "spaces": [[["0", "0", "1"]], ["010"],
                                 [["1", "0", "0"]]]},
    # Entries that are no string; a list or object cannot key the parsed
    # entries, so its lookup raises TypeError.
    "entry-json-list": {**GOOD_POINT,
                        "spaces": [[["0", "0", ["1"]]], [["0", "1", "0"]],
                                   [["1", "0", "0"]]]},
    "entry-json-object": {**GOOD_POINT,
                          "spaces": [[["0", "0", {"1": "1"}]],
                                     [["0", "1", "0"]], [["1", "0", "0"]]]},
    # One bad string in every entry: parsed once, still rejected.
    "every-entry-1.5": {**GOOD_POINT,
                        "spaces": [[["1.5"] * 3]] * 3},
    # Fraction reads these, but `to_json` writes only "p/q".
    "epsilon-1e0": {**GOOD_POINT, "epsilon": "1e0"},
    **{f"entry-{x.strip()}": {**GOOD_POINT,
                              "spaces": [[["0", "0", x]], [["0", "1", "0"]],
                                         [["1", "0", "0"]]]}
       for x in (" 0.5e1 ", "1.5", "1e1")},
}


class TestPatterns:
    def test_count_and_listing(self):
        res = run("patterns", "1", "3", "--json")
        assert res.exit_code == 0
        blob = json.loads(res.output)
        case = blob["cases"][0]
        assert case["count"] == 7
        assert "1,1,1" in case["patterns"]

    def test_invalid_k_gives_usage_error(self):
        res = run("patterns", "0", "3")
        assert res.exit_code == 2

    def test_bound_respected(self):
        res = run("patterns", "1", "9")
        assert res.exit_code == 2
        assert "enumeration bound 8" in res.output


class TestIdeal:
    def test_text_generators_parse_back(self):
        res = run("ideal", "1,1,1")
        assert res.exit_code == 0
        gens = parse_polynomials(res.output)
        assert len(gens) == 9

    def test_json_generators(self):
        res = run("ideal", "1,1,1", "--json")
        blob = json.loads(res.output)
        assert blob["task"] == "ideal"
        polys = [poly_from_json(g) for g in blob["generators"]]
        assert len(polys) == 9

    def test_epsilon_specialization(self):
        res = run("ideal", "1,1,1", "--epsilon", "0")
        assert "e" not in res.output.replace("D", "")

    def test_bad_pattern_exits_2(self):
        assert run("ideal", "3,1,1").exit_code == 2


class TestHilbert:
    def test_reports_dims_per_epsilon(self):
        res = run("hilbert", "1,1,1", "--multidegree", "1,1,0",
                  "--epsilon-list", "0,1,2,-1", "--json")
        assert res.exit_code == 0
        blob = json.loads(res.output)
        dims = blob["cases"][0]["dims"]
        assert set(dims.values()) == {6}
        assert set(dims) == {"0", "1", "2", "-1"}

    def test_default_epsilons_are_zero_and_one(self):
        res = run("hilbert", "1,1,1", "--multidegree", "1,1,0", "--json")
        assert res.exit_code == 0
        blob = json.loads(res.output)
        assert blob["parameters"]["epsilons"] == ["0", "1"]
        assert list(blob["cases"][0]["dims"]) == ["0", "1"]

    def test_bad_multidegree_exits_2(self):
        assert run("hilbert", "1,1,1",
                   "--multidegree", "1,1").exit_code == 2


class TestFlatness:
    def test_single_pattern_pass(self):
        res = run("flatness", "1", "3", "1,1,1", "--max-degree", "2")
        assert res.exit_code == 0
        assert "[FAIL]" not in res.output

    def test_all_patterns_json(self):
        res = run("flatness", "1", "2", "--all", "--max-degree", "1",
                  "--json")
        blob = json.loads(res.output)
        assert blob["task"] == "flatness"
        assert len(blob["cases"]) >= 3

    def test_count_mismatch_reported_as_failure(self, monkeypatch):
        # The graded dimensions equal the admissible count for every k=1
        # pattern, so a count one too large stands in for a mismatch; the
        # verifier must say so and exit 1.
        count = k1basis.count_admissible
        monkeypatch.setattr(k1basis, "count_admissible",
                            lambda J, m: count(J, m) + 1)
        res = run("flatness", "1", "3", "3,2,1", "--max-degree", "1")
        assert res.exit_code == 1
        assert "[FAIL]" in res.output

    def test_requires_pattern_or_all(self):
        assert run("flatness", "1", "3").exit_code == 2

    def test_k2_n4_sweep_to_degree_three_passes(self):
        # Without the transported quadrics, eps = 0 has the larger
        # dimension in 76 of the 1155 cases.
        res = run("flatness", "2", "4", "--all", "--max-degree", "3")
        failed = [line for line in res.output.splitlines() if "[FAIL]" in line]
        assert res.exit_code == 0 and not failed, failed[:5]

    def test_multidegrees_found_once_per_ideal(self, monkeypatch):
        # Each generator's multidegree is found once per specialized ideal,
        # not once per graded component: an exact count, no timing.
        bound = sum(len(global_positroid_ideal(J).specialize(eps).generators)
                    for J in enumerate_patterns(1, 4) for eps in (0, 1))
        calls = []
        multidegree = Polynomial.multidegree
        monkeypatch.setattr(Polynomial, "multidegree",
                            lambda p, n: calls.append(p) or multidegree(p, n))
        res = run("flatness", "1", "4", "--all", "--max-degree", "2")
        assert res.exit_code == 0, res.output
        assert 0 < len(calls) <= bound


class TestComponents:
    def test_anchor_listing(self):
        res = run("components", "1,1,2", "--json")
        blob = json.loads(res.output)
        case = blob["cases"][0]
        assert case["count"] == 2
        assert case["anchors"] == [[1], [2]]


class TestDim:
    def test_projective_dimension(self):
        res = run("dim", "1,1,2", "--epsilon", "0", "--json")
        blob = json.loads(res.output)
        assert blob["cases"][0]["projective_dimension"] == 1

    def test_matches_at_generic_epsilon(self):
        for eps in ("0", "1"):
            res = run("dim", "1,1,1", "--epsilon", eps, "--json")
            blob = json.loads(res.output)
            assert blob["cases"][0]["projective_dimension"] == 2


class TestBasis:
    def test_constant_pattern_basis(self):
        res = run("basis", "--pattern", "1,1,1",
                  "--multidegree", "1,1,0", "--json")
        assert res.exit_code == 0
        case = json.loads(res.output)["cases"][0]
        assert case["count"] == 6
        assert "D0_1*D1_1" in case["admissible"]

    def test_dims_keyed_like_epsilons(self):
        res = run("basis", "--pattern", "1,1,1", "--multidegree", "1,1,0",
                  "--epsilon-list", "0,2,-1/2", "--json")
        blob = json.loads(res.output)
        assert (sorted(blob["cases"][0]["dims"])
                == sorted(blob["parameters"]["epsilons"]))

    def test_k2_rejected(self):
        res = run("basis", "--pattern", "12|12|12|12",
                  "--multidegree", "1,0,0,0")
        assert res.exit_code == 2


class TestMembership:
    def test_member_and_nonmember(self, tmp_path):
        pt = torus_fixed_point(AnchorSet(3, (0,)), 1)
        path = tmp_path / "point.json"
        path.write_text(json.dumps(pt.to_json()))
        assert run("membership", "--point", str(path),
                   "--pattern", "3,2,1").exit_code == 0
        assert run("membership", "--point", str(path),
                   "--pattern", "1,1,1").exit_code == 0
        other = torus_fixed_point(AnchorSet(3, (1,)), 1)
        path.write_text(json.dumps(other.to_json()))
        assert run("membership", "--point", str(path),
                   "--pattern", "3,2,1").exit_code == 1

    def test_epsilon_override(self, tmp_path):
        pt = torus_fixed_point(AnchorSet(3, (0,)), 1)
        path = tmp_path / "point.json"
        path.write_text(json.dumps(pt.to_json()))
        res = run("membership", "--point", str(path),
                  "--pattern", "3,2,1", "--epsilon", "1/2", "--json")
        blob = json.loads(res.output)
        assert blob["parameters"]["epsilon"] == "1/2"

    def test_deeply_nested_point_file_exits_2(self, tmp_path):
        # json.dumps cannot write this; json.load raises RecursionError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        res = run("membership", "--point", str(path), "--pattern", "1,2")
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Error: bad point file" in res.output

    def test_garbage_point_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"nope\": 1}")
        assert run("membership", "--point", str(path),
                   "--pattern", "1,1,1").exit_code == 2
        assert run("membership", "--point", str(tmp_path),
                   "--pattern", "1,1,1").exit_code == 2


class TestInvalidInput:
    @pytest.mark.parametrize("args", [
        ("ideal", "1,2", "--epsilon", "abc"),
        ("ideal", "1,2", "--epsilon", "1/0"),
        ("dim", "1,2", "--epsilon", "x"),
        ("membership", "--point", "POINT", "--pattern", "1,1,1",
         "--epsilon", "1/0"),
        ("hilbert", "1,2", "--multidegree", "1,1", "--epsilon-list", "0,1/0"),
        ("hilbert", "1,2", "--multidegree", "1,1", "--epsilon-list", ","),
        ("flatness", "1", "2", "1,2", "--epsilon-list", "0,x"),
        ("basis", "--pattern", "1,2", "--multidegree", "1,1",
         "--epsilon-list", "1/0"),
        # Fraction reads these, but a rational is "p/q" or "p" everywhere.
        ("ideal", "1,2", "--epsilon", "1e0"),
        ("dim", "1,2", "--epsilon", "0.5"),
        ("hilbert", "1,2", "--multidegree", "1,1", "--epsilon-list", "0,+1"),
        ("flatness", "1", "9", "--all"),
        ("flatness", "0", "3", "--all"),
        ("flatness", "1", "3", "--all", "--max-degree", "-1"),
        ("flatness", "1", "3", "1,1,2", "--all"),
        ("hilbert", "1,1,2", "--multidegree", "20,20,20"),
        ("basis", "--pattern", "1,1,2", "--multidegree", "20,20,20"),
        *(("membership", "--point", f"POINT:{name}", "--pattern", "1,1,1")
          for name in BAD_POINTS),
        # int() reads any Unicode decimal digit; the grammars are ASCII.
        ("ideal", "\u0661,1,2"),
        ("ideal", "\u0661\u0662|12|12|12"),
        ("hilbert", "1,1,2", "--multidegree", "\u0661,1,0"),
        ("patterns", "\u0661", "3"),
        ("flatness", "1", "3", "--all", "--max-degree", "\u0662"),
        # An empty item of an epsilon list is an error, not skipped.
        ("hilbert", "1,1,2", "--multidegree", "1,1,0",
         "--epsilon-list", ",,0,,1"),
        # Items equal as rationals would be merged in the reports.
        ("hilbert", "1,2", "--multidegree", "1,1", "--epsilon-list", "0,1,1"),
        ("flatness", "1", "2", "1,2", "--epsilon-list", "1,1/1"),
        # About 1.7e14 cases: refused before any is computed.
        ("flatness", "1", "3", "1,1,1", "--max-degree", "100000"),
        # An --out file in a missing directory, or a directory itself.
        ("patterns", "1", "3", "--out", "MISSING"),
        ("ideal", "1,1,2", "--out", "MISSING"),
        ("patterns", "1", "3", "--out", "DIR"),
        ("flatness", "1", "3", "1,1,1", "--out", "DIR"),
        # 126 anchor sets, but n = 9 is over the enumeration bound.
        ("components", "|".join(["1234"] * 9)),
        # About 12M monomials in the full ring, refused before any is built.
        ("basis", "--pattern", "1,1,1", "--multidegree", "20,20,20"),
        # A pattern of another shape than K N.
        ("flatness", "2", "3", "1,1,2"),
        # One eps compares no fibers.
        ("flatness", "2", "4", "12|12|12|12", "--epsilon-list", "5"),
    ])
    def test_usage_error_without_traceback(self, args, tmp_path):
        # "POINT" stands for a file holding GOOD_POINT, "POINT:name" for one
        # holding BAD_POINTS[name], "DIR" for a directory and "MISSING" for
        # a file in a directory that does not exist.
        def arg(a):
            if a == "DIR":
                return str(tmp_path)
            if a == "MISSING":
                return str(tmp_path / "missing" / "out.txt")
            if not a.startswith("POINT"):
                return a
            path = tmp_path / "point.json"
            _, _, name = a.partition(":")
            path.write_text(json.dumps(BAD_POINTS[name] if name
                                       else GOOD_POINT))
            return str(path)

        res = run(*map(arg, args))
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "Error: " in res.output
        # No message may advise a parameter the verb lacks (`flatness` has
        # no --max-n).
        assert "max_n" not in res.output

    def test_bad_pattern_message_names_the_input(self):
        res = run("ideal", "1,x")
        assert res.exit_code == 2, res.output
        assert "bad pattern '1,x'" in res.output

    def test_flatness_case_cap(self, monkeypatch):
        # One (1,3) pattern has C(|m| + 3, 3) cases at |m| <= max degree:
        # 4 at degree 1 and 10 at degree 2.
        monkeypatch.setattr(groebner, "MAX_FLATNESS_CASES", 9)
        assert run("flatness", "1", "3", "1,1,1", "--max-degree",
                   "1").exit_code == 0
        res = run("flatness", "1", "3", "1,1,1", "--max-degree", "2")
        assert res.exit_code == 2, res.output
        assert "Error: 10 flatness cases exceed cap 9" in res.output

    def test_flatness_records_component_cap_hits(self, monkeypatch):
        # Each m = e_a + e_b, a != b, has 3 * 3 = 9 monomials in the full
        # ring, over a cap of 8; the seven other cases of |m| <= 2 pass.
        hilbert.component_monomials.cache_clear()
        monkeypatch.setattr(groebner, "MAX_COMPONENT_MONOMIALS", 8)
        res = run("flatness", "1", "3", "1,1,1", "--max-degree", "2",
                  "--json")
        assert res.exit_code == 1, res.output
        cases = json.loads(res.output)["cases"]
        failed = {c["case"]: c["error"] for c in cases if not c["pass"]}
        assert failed == {
            f"1,1,1|m={m}": f"multidegree ({m.replace(',', ', ')}) has more "
                            "than 8 monomials"
            for m in ("0,1,1", "1,0,1", "1,1,0")}
        assert sum(c["pass"] for c in cases) == 7

    def test_largest_documented_sweep_is_under_the_case_cap(self):
        # README's `flatness 3 6 --all --max-degree 2`.
        assert len(enumerate_patterns(3, 6)) * 28 == 24724
        assert 24724 <= groebner.MAX_FLATNESS_CASES

    @pytest.mark.parametrize("verb", ["ideal", "dim"])
    def test_generator_budget_stops_constant_4_9_at_once(self, verb):
        # 9^2 * 5 * C(9,4)^2 = 6,429,780 pattern-free generator readings.
        start = time.monotonic()
        res = run(verb, "|".join(["1234"] * 9))
        assert time.monotonic() - start < 2
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert [line for line in res.output.splitlines()
                if line.startswith("Error:")] == [
            "Error: (4,9) has 6429780 generator readings, over cap 500000"]

    def test_groebner_cap_hit_is_usage_error(self, monkeypatch):
        monkeypatch.setattr(groebner, "MAX_TERMS", 1)
        res = run("dim", "1,1,1")
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "Error: " in res.output


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self):
        cmds = [
            ("patterns", "1", "4", "--json"),
            ("flatness", "1", "3", "1,1,1", "--max-degree", "2", "--json"),
            ("basis", "--pattern", "1,1,1", "--multidegree", "1,1,0",
             "--json"),
        ]
        for cmd in cmds:
            assert run(*cmd).output == run(*cmd).output

    def test_timings_excluded_by_default(self):
        res = run("hilbert", "1,1,1", "--multidegree", "1,0,0", "--json")
        assert "seconds" not in res.output

    def test_timings_flag_adds_them(self):
        res = run("hilbert", "1,1,1", "--multidegree", "1,0,0", "--json",
                  "--timings")
        blob = json.loads(res.output)
        assert "elapsed_seconds" in blob

    def test_timings_flag_adds_them_to_text(self, monkeypatch):
        # The text report gains one last line; the rest stays as it is.
        plain = run("dim", "1,1,2").output
        ticks = iter([100.0, 102.5])
        monkeypatch.setattr(cli, "time", SimpleNamespace(
            monotonic=lambda: next(ticks)))
        timed = run("dim", "1,1,2", "--timings")
        assert timed.exit_code == 0
        assert timed.output == plain + "elapsed_seconds: 2.5\n"

    @pytest.mark.parametrize("args, owner, work", [
        (("basis", "--pattern", "1,1,1", "--multidegree", "1,1,0"),
         k1basis, "verify_basis"),
        (("dim", "12|12|12|13"), GroebnerBasis, "krull_dimension"),
    ], ids=["basis", "dim"])
    def test_timings_cover_the_work(self, monkeypatch, args, owner, work):
        # On a clock that only the verb's work advances, the elapsed time is
        # that advance, so the clock must run around the work.
        now = [100.0]
        done = getattr(owner, work)

        def slow(*a, **kw):
            now[0] += 2.5
            return done(*a, **kw)

        monkeypatch.setattr(cli, "time", SimpleNamespace(
            monotonic=lambda: now[0]))
        monkeypatch.setattr(owner, work, slow)
        res = run(*args, "--json", "--timings")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["elapsed_seconds"] == 2.5

    def test_out_writes_file(self, tmp_path):
        path = tmp_path / "report.json"
        res = run("components", "1,1,1", "--json", "--out", str(path))
        assert res.exit_code == 0
        blob = json.loads(path.read_text())
        assert blob["task"] == "components"


class TestReportObject:
    def test_text_lines(self):
        rep = VerificationReport("demo", {"x": 1})
        rep.add_case("a", True, value=3)
        rep.add_case("b", False, value=4)
        text = rep.to_text()
        assert "[pass] a" in text
        assert "[FAIL] b" in text
        assert not rep.passed

    def test_json_sorted_cases(self):
        rep = VerificationReport("demo", {})
        rep.add_case("z", True)
        rep.add_case("a", True)
        blob = json.loads(rep.to_json())
        assert [c["case"] for c in blob["cases"]] == ["a", "z"]

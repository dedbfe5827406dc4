"""Command-line contract: commands, formats, exit codes, determinism."""

import argparse
import csv
import errno
import io
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import qsym.cli as cli
import qsym.jpoly as jpoly
import qsym.qstirling as qstirling
import qsym.symfunc as symfunc
from qsym.exactpoly import (EnumerationCapExceeded, InexactDivisionError,
                            JTableShapeError, UniPoly, bracket_mul, csv_cell,
                            json_coeff_list, zero)
from qsym.report import CheckReport, forest_oracle_check, run_batteries

from polytext import parse_poly_text


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def process_env() -> dict:
    """The environment of a `python -m qsym.cli` process on these sources,
    its output buffered until exit."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    return env


TABLE1 = {
    (1, 1): "1",
    (2, 1): "1", (2, 2): "1",
    (3, 1): "2+q", (3, 2): "1+q", (3, 3): "1",
    (4, 1): "6+6q+3q^2+q^3", (4, 2): "2+3q+2q^2+q^3", (4, 3): "1+q+q^2",
    (4, 4): "1",
    (5, 1): "24+36q+30q^2+20q^3+10q^4+4q^5+q^6",
    (5, 2): "6+12q+12q^2+10q^3+6q^4+3q^5+q^6",
    (5, 3): "2+3q+4q^2+3q^3+2q^4+q^5",
    (5, 4): "1+q+q^2+q^3", (5, 5): "1",
}


def test_jtable_plain_reproduces_the_published_triangle():
    code, text = run("jtable", "--n-max", "5")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 5
    for n, line in enumerate(lines, start=1):
        label, _, body = line.partition(": ")
        assert label == f"n={n}"
        cells = [c.strip() for c in body.split("|")]
        assert len(cells) == n
        for r, cell in enumerate(cells, start=1):
            assert cell == TABLE1[(n, r)], (n, r)


def test_jtable_single_entry():
    code, text = run("jtable", "--n-max", "1")
    assert code == 0
    assert text == "n=1: 1\n"


def test_jtable_csv_contains_worked_row():
    code, text = run("jtable", "--n-max", "6", "--format", "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n,r,degree,coeffs"
    assert '6,2,10,"[24,60,78,80,68,52,35,20,10,4,1]"' in lines


def test_jtable_reciprocal_and_json():
    code, text = run("jtable", "--n-max", "3", "--reciprocal")
    assert code == 0
    assert "n=3: 1+2q | 1+q | 1" in text
    code, text = run("jtable", "--n-max", "2", "--format", "json")
    records = json.loads(text)
    assert records[0] == {"n": 1, "r": 1, "degree": 0,
                          "poly": {"var": "q", "coeffs": ["1"]}}


def test_jtable_latex():
    code, text = run("jtable", "--n-max", "3", "--format", "latex")
    assert code == 0
    assert text.startswith("\\begin{tabular}")
    assert "$2+q$" in text


def test_query_jpoly():
    code, text = run("query", "jpoly", "--n", "5", "--r", "3")
    assert code == 0 and text == "2+3q+4q^2+3q^3+2q^4+q^5\n"
    code, text = run("query", "jpoly", "--n", "5", "--r", "3", "--no-ascii")
    assert code == 0 and text == "2+3q+4q²+3q³+2q⁴+q⁵\n"
    code, text = run("query", "jpoly", "--n", "4", "--r", "2",
                     "--variant", "reciprocal")
    assert code == 0 and text == "1+2q+3q^2+2q^3\n"


def test_query_jpoly_is_the_table_entry():
    # query jpoly takes the specialization, the table the row recurrence:
    # two routes, one answer, in JSON to 25 and in every format to 8
    table = jpoly.build_jtable(25)
    for n in range(1, 26):
        for r in range(1, n + 1):
            for variant, expected in [
                    ("standard", table.entry(n, r)),
                    ("reciprocal", jpoly.reciprocal(n, r, table))]:
                for fmt in cli.ALL_FORMATS if n <= 8 else ["json"]:
                    code, text = run("query", "jpoly", "--n", str(n), "--r",
                                     str(r), "--variant", variant, "--format", fmt)
                    rendered = cli._render_poly(
                        expected, argparse.Namespace(format=fmt, ascii=True))
                    assert code == 0 and text == rendered + "\n", \
                        (n, r, variant, fmt)


def test_query_qbinomial_and_stirling():
    code, text = run("query", "qbinomial", "--n", "2", "--k", "3")
    assert code == 0 and text == "0\n"
    code, text = run("query", "qstirling2", "--n", "4", "--k", "2")
    assert code == 0 and text == "3+3q+q^2\n"
    code, text = run("query", "qstirling1", "--n", "3", "--k", "2")
    assert code == 0 and text == "-2-q\n"


@pytest.mark.parametrize("kind", ["qstirling1", "qstirling2"])
def test_query_stirling_at_n_zero(kind):
    # both kinds answer n = 0 alike: s[0,0] = S[0,0] = 1, 0 off the triangle
    assert run("query", kind, "--n", "0", "--k", "0") == (0, "1\n")
    assert run("query", kind, "--n", "0", "--k", "1") == (0, "0\n")
    assert run("query", kind, "--n", "3", "--k", "0") == (0, "0\n")


@pytest.mark.parametrize("kind, degree, value_at_one", [
    ("qbinomial", 3 * 497, 500 * 499 * 498 // 6),
    # S(n, 3) = (3^n - 3 * 2^n + 3) / 3!
    ("qstirling2", 2 * 497, (3 ** 500 - 3 * 2 ** 500 + 3) // 6),
], ids=["qbinomial", "qstirling2"])
def test_query_far_down_the_triangle(kind, degree, value_at_one):
    code, text = run("query", kind, "--n", "500", "--k", "3")
    assert code == 0
    poly = parse_poly_text(text)
    assert poly.degree() == degree
    assert poly.evaluate(1) == value_at_one


@pytest.mark.parametrize("kind, sign", [("qstirling1", -1), ("qstirling2", 1)])
def test_query_next_to_the_diagonal(kind, sign):
    # s[n,n-1] = -S[n,n-1] = -([1] + ... + [n-1]), whose coefficient of q^j
    # is -(n-1-j): one diagonal step over n columns, not rows 0..n
    code, text = run("query", kind, "--n", "200", "--k", "199", "--format", "csv")
    coeffs = ",".join(str(sign * (199 - j)) for j in range(199))
    assert (code, text) == (0, f"198,[{coeffs}]\n")


def test_query_qbinomial_large_n_small_k():
    code, text = run("query", "qbinomial", "--n", "3000", "--k", "2")
    assert code == 0
    poly = parse_poly_text(text)
    assert poly.degree() == 2 * 2998 and poly.evaluate(1) == 3000 * 2999 // 2


def test_query_parking():
    code, text = run("query", "parking", "--m", "2", "--r", "1")
    assert code == 0 and text == "1+2q\n"


def test_query_forest_stat():
    code, text = run("query", "forest-stat", "--n", "3", "--roots", "1")
    assert code == 0 and text == "2+q\n"
    code, text = run("query", "forest-stat", "--n", "4", "--r", "2",
                     "--ranking", "seeded", "--seed", "5")
    assert code == 0 and text == "2+3q+2q^2+q^3\n"


def test_query_forest_stat_dump():
    code, text = run("query", "forest-stat", "--n", "3", "--roots", "1",
                     "--dump-forests")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[-1] == "2+q"
    forests = [json.loads(l) for l in lines[:-1]]
    assert len(forests) == 3
    assert all({"parent", "levels", "stat"} <= set(f) for f in forests)
    total = UniPoly()
    for f in forests:
        total = total + UniPoly.monomial(f["stat"])
    assert total == parse_poly_text("2+q")


def test_query_json_format():
    code, text = run("query", "jpoly", "--n", "3", "--r", "1",
                     "--format", "json")
    assert code == 0
    assert json.loads(text) == {"var": "q", "coeffs": ["2", "1"]}


def test_query_missing_parameter_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run("query", "jpoly", "--n", "5")
    assert exc.value.code == 2


def test_query_range_violation_is_usage_error():
    code, _ = run("query", "jpoly", "--n", "2", "--r", "5")
    assert code == 2


def test_forest_stat_r_zero_reports_the_empty_root_set(capsys):
    # --r 0 is given, so the complaint is about the roots, not a missing flag
    code, text = run("query", "forest-stat", "--n", "2", "--r", "0")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: roots must be a nonempty subset of {1..n}\n"


def test_cap_exit_code():
    code, _ = run("query", "forest-stat", "--n", "12", "--roots", "1")
    assert code == 3
    code, _ = run("query", "parking", "--m", "10", "--r", "2", "--cap", "100")
    assert code == 3


# (6, 1) has 1,296 forests among 7,776 raw parent maps, and (m, r) = (5, 1)
# 1,296 parking functions among 3,125 raw value tuples: the cap counts the
# forests and the parking functions, so a cap between them and the raw space
# runs, and one below them exits 3.
@pytest.mark.parametrize("argv, same_as", [
    (("forest-stat", "--n", "6", "--r", "1"), ("jpoly", "--n", "6", "--r", "1")),
    (("parking", "--m", "5", "--r", "1"),
     ("jpoly", "--n", "6", "--r", "1", "--variant", "reciprocal")),
], ids=["forest", "parking"])
def test_cap_counts_what_is_enumerated(argv, same_as):
    expected = run("query", *same_as)
    assert expected[0] == 0
    for cap in ("1296", "2000", "3125"):
        assert run("query", *argv, "--cap", cap) == expected
    assert run("query", *argv, "--cap", "1295")[0] == 3


def test_default_cap_admits_forest_9_1_and_parking_8_1():
    from qsym.oracles import _capped_roots, parking_candidates
    assert _capped_roots(9, (1,), 10_000_000) == (1,)     # 9^7 = 4,782,969
    assert parking_candidates(8, 1) == 9 ** 7 <= 10_000_000
    with pytest.raises(EnumerationCapExceeded):
        _capped_roots(9, (1,), 9 ** 7 - 1)


def test_cap_zero_enumerates_nothing():
    code, text = run("verify", "oracles", "--n-max", "3", "--cap", "0")
    assert code == 0
    assert "skip forest-oracle-skipped-by-cap (0/3 instances)" in text.splitlines()
    assert run("query", "parking", "--m", "1", "--r", "1", "--cap", "0")[0] == 3


def test_verify_small_suites():
    code, text = run("verify", "qstirling", "--n-max", "1")
    assert code == 0
    assert all(line.startswith("ok") for line in text.strip().splitlines())
    code, _ = run("verify", "jpoly", "--n-max", "4")
    assert code == 0
    code, _ = run("verify", "symfunc", "--n-max", "3")
    assert code == 0
    code, _ = run("verify", "oracles", "--n-max", "4", "--seed", "42")
    assert code == 0


@pytest.mark.parametrize("suite", ["jpoly", "oracles", "all"])
def test_verify_accepts_n_max_one(suite):
    # the documented minimum; batteries whose instances start at n = 2 are
    # empty there, and report nothing they were not asked for
    code, text = run("verify", suite, "--n-max", "1", "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert records and all(r["status"] == "pass" for r in records)
    assert not [r for r in records
                if r["identity"].startswith(("reciprocal-", "forest-"))]
    if suite == "oracles":
        assert [r["identity"] for r in records] == ["ranking-seeds",
                                                    "parking-sum-enumerator"]


def test_verify_n_max_one_reports_nothing_larger():
    code, text = run("verify", "all", "--n-max", "1", "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert records
    assert [r for r in records if r.get("n", 0) > 1 or r.get("r", 0) > 1] == []


def test_verify_all_is_its_suites_in_order_at_their_caps():
    # symfunc stops at 6 and, under all, the oracle battery at 7: at 8 both
    # caps take effect
    def records(*argv):
        code, text = run("verify", *argv, "--format", "json")
        assert code == 0
        return json.loads(text)

    assert records("all", "--n-max", "8", "--seed", "3") == (
        records("qstirling", "--n-max", "8") + records("symfunc", "--n-max", "6")
        + records("jpoly", "--n-max", "8")
        + records("oracles", "--n-max", "7", "--seed", "3"))


def test_verify_symfunc_coverage():
    # three alphabets at each n <= 6, the r = 1 determinants with them and
    # the (p, q) battery to n = 4
    code, text = run("verify", "symfunc", "--n-max", "6", "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert all(r["status"] == "pass" for r in records)
    assert Counter(r["identity"] for r in records) == {
        "transfer-second-kind": 63, "transfer-first-kind": 63,
        "transfer-double-sum": 63, "determinant-vs-convolution": 63,
        "transfer-r1": 18,
        "p-bracket-determinant": 63, "e-factorial-determinant": 63,
        "e-p-linear-system": 63,
        "pq-double-sum-vs-determinant": 10, "pq-degenerates-to-q": 10}


def test_verify_jpoly_coverage():
    # the composition formula, the three recurrences and the bracket shift
    # at each 1 <= r < n, the specialization at each 1 <= r <= n
    code, text = run("verify", "jpoly", "--n-max", "9", "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert all(r["status"] == "pass" for r in records)
    assert Counter(r["identity"] for r in records) == {
        "table-vs-specialization": 45, "table-vs-composition-formula": 36,
        "reciprocal-row-recurrence": 36, "reciprocal-column-recurrence": 36,
        "extended-row-recurrence": 36, "specialization-bracket-shift": 36}


def test_verify_oracles_lists_seeds():
    code, text = run("verify", "oracles", "--n-max", "3", "--seed", "42",
                     "--format", "json")
    assert code == 0
    records = json.loads(text)
    seed_rec = next(r for r in records if r["identity"] == "ranking-seeds")
    assert seed_rec["seeds"] == "42,43,44"


def test_verify_json_schema():
    code, text = run("verify", "qstirling", "--n-max", "2", "--format", "json")
    assert code == 0
    records = json.loads(text)
    assert all(r["status"] == "pass" for r in records)
    assert {"identity", "status"} <= set(records[0])


def test_verify_failure_exits_one_with_counterexample(monkeypatch):
    broken = CheckReport()
    broken.add_pass("fine", n=1)
    broken.add_fail("broken-identity", detail="lhs=0 rhs=1", n=3, r=2)

    monkeypatch.setattr("qsym.report.verify_suite", lambda *a, **k: broken)
    code, text = run("verify", "jpoly", "--n-max", "3")
    assert code == 1
    assert "FAIL broken-identity" in text
    assert "first counterexample" in text and "lhs=0 rhs=1" in text

    code, text = run("verify", "jpoly", "--n-max", "3", "--format", "json")
    assert code == 1
    records = json.loads(text)
    assert any(r["status"] == "fail" for r in records)


def test_verify_symfunc_reads_q_binomials_from_rows(monkeypatch):
    # every check reads [l k] from rows built once per call, the r = 1
    # determinants and the (p, q) slice included (one call per term made
    # 1007 calls for 21 values)
    calls = []
    qbinomial = symfunc.qbinomial

    def counted(n, k):
        calls.append((n, k))
        return qbinomial(n, k)

    monkeypatch.setattr(symfunc, "qbinomial", counted)
    code, _ = run("verify", "symfunc", "--n-max", "6")
    assert code == 0 and calls == []


# -- verify runs one battery of a suite in a child process -----------------------

@pytest.fixture
def forks(monkeypatch):
    """Make verify start its child whatever this host's CPU count, and list
    the pids of the children it starts."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1},
                        raising=False)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


FORKING_SUITES = {"qstirling": ("verify", "qstirling", "--n-max", "12"),
                  "jpoly": ("verify", "jpoly", "--n-max", "9"),
                  "oracles": ("verify", "oracles", "--n-max", "6", "--seed", "17"),
                  "all": ("verify", "all", "--n-max", "5", "--seed", "3"),
                  "all-7": ("verify", "all", "--n-max", "7")}


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("suite", FORKING_SUITES)
def test_verify_is_the_same_with_and_without_the_child(monkeypatch, forks,
                                                       suite, fmt):
    argv = FORKING_SUITES[suite] + ("--format", fmt)
    with_child = run(*argv)
    assert len(forks) == 1
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert run(*argv) == with_child
    assert with_child[0] == 0 and with_child[1]


# symfunc is one battery and forks nothing; the oracle battery is cut at its
# largest forest shape, whose walk is the one child
@pytest.mark.parametrize("suite", ["symfunc", "oracles"])
def test_one_battery_suites_fork_nothing(forks, suite):
    code, text = run("verify", suite, "--n-max", "5")
    assert code == 0 and text and len(forks) == (suite == "oracles")


@pytest.mark.parametrize("suite", ["oracles", "all"])
def test_an_oracle_battery_without_a_forest_is_not_cut(forks, suite):
    code, text = run("verify", suite, "--n-max", "1", "--format", "json")
    assert code == 0 and len(forks) == (suite == "all")
    assert [r["identity"] for r in json.loads(text)
            if r["identity"] in ("ranking-seeds", "parking-sum-enumerator")] \
        == ["ranking-seeds", "parking-sum-enumerator"]


def labelled(label):
    """A battery of two records that name it and the process it ran in."""
    def battery():
        report = CheckReport()
        for i in range(2):
            report.add_pass(label, i=i, pid=os.getpid())
        return report
    return battery


@pytest.mark.parametrize("forked", [0, 2, 4, -1])
def test_the_forked_battery_merges_in_plan_order(forks, forked):
    batteries = [labelled(f"battery-{i}") for i in range(5)]
    report = run_batteries(batteries, forked)
    assert len(forks) == 1
    assert_no_child_left()
    assert ([(r.identity, r.params["i"]) for r in report.records]
            == [(f"battery-{i}", j) for i in range(5) for j in range(2)])
    # the forked battery's records, and only they, come from the child
    child = [r.params["pid"] == forks[0] for r in report.records]
    assert child == [i == forked % 5 for i in range(5) for _ in range(2)]


@pytest.mark.parametrize("suite", ["qstirling", "symfunc", "jpoly", "oracles",
                                   "all"])
def test_one_cpu_forks_nothing(monkeypatch, forks, suite):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
    code, text = run("verify", suite, "--n-max", "4")
    assert code == 0 and text and forks == []


def broken_battery(*args, **kwargs):
    raise TypeError("a fault in the child")


def failing_battery(*args, **kwargs):
    report = CheckReport()
    report.add_fail("child-identity", detail="lhs=0 rhs=1", n=3, r=1)
    return report


def at_the_largest_shape(monkeypatch, battery):
    """Patch the forest oracle so that battery replaces the walk of the
    largest shape (n, 1), n = table.n_max, and of that shape only."""
    def patched(table, shapes, *args):
        if shapes == [(table.n_max, 1)]:
            return battery(table, shapes, *args)
        return forest_oracle_check(table, shapes, *args)
    monkeypatch.setattr("qsym.report.forest_oracle_check", patched)


def assert_child_fault_exits_four(argv, forks, capfd):
    code, text = run(*argv)
    assert code == cli.EXIT_INTERNAL and text == "" and len(forks) == 1
    err = capfd.readouterr().err
    assert "TypeError: a fault in the child\n" in err
    assert err.rstrip().endswith("exited with status 1")
    assert_no_child_left()


def assert_child_failure_exits_one(argv, forks):
    code, text = run(*argv)
    assert code == 1 and len(forks) == 1
    assert text.splitlines()[-1] == (
        'first counterexample: {"identity":"child-identity","n":3,"r":1,'
        '"status":"fail","detail":"lhs=0 rhs=1"}')


def test_fault_in_the_child_exits_four(monkeypatch, forks, capfd):
    at_the_largest_shape(monkeypatch, broken_battery)
    assert_child_fault_exits_four(("verify", "all", "--n-max", "4"), forks, capfd)


def test_failed_identity_in_the_child_exits_one(monkeypatch, forks):
    at_the_largest_shape(monkeypatch, failing_battery)
    assert_child_failure_exits_one(("verify", "all", "--n-max", "4"), forks)


def test_the_child_runs_the_largest_walk_alone(monkeypatch, forks, capfd):
    # every forest walk outside the parent, and the (7, 1) walk anywhere
    # else than in a child, raises; verify all caps the oracle table at 7
    parent = os.getpid()

    def checked(table, shapes, *args):
        if (shapes == [(7, 1)]) == (os.getpid() == parent):
            raise TypeError(f"{shapes} in the wrong process")
        return forest_oracle_check(table, shapes, *args)
    monkeypatch.setattr("qsym.report.forest_oracle_check", checked)
    code, text = run("verify", "all", "--n-max", "8", "--format", "json")
    assert (code, capfd.readouterr().err) == (0, "") and len(forks) == 1
    assert_no_child_left()


def test_fault_in_the_jpoly_child_exits_four(monkeypatch, forks, capfd):
    monkeypatch.setattr("qsym.report.extended_recurrence_check", broken_battery)
    assert_child_fault_exits_four(("verify", "jpoly", "--n-max", "4"), forks,
                                  capfd)


def test_failed_identity_in_the_jpoly_child_exits_one(monkeypatch, forks):
    monkeypatch.setattr("qsym.report.extended_recurrence_check", failing_battery)
    assert_child_failure_exits_one(("verify", "jpoly", "--n-max", "4"), forks)


def test_fault_before_the_child_is_done_kills_and_reaps_it(monkeypatch, forks,
                                                           capsys):
    def broken(table):
        raise TypeError("a fault in the parent")

    # a child left to finish would keep this test waiting for a minute
    at_the_largest_shape(monkeypatch, lambda *args: time.sleep(60))
    monkeypatch.setattr("qsym.report.cross_formula_check", broken)
    started = time.monotonic()
    code, text = run("verify", "all", "--n-max", "4")
    assert code == cli.EXIT_INTERNAL and text == "" and len(forks) == 1
    assert time.monotonic() - started < 30
    assert capsys.readouterr().err.endswith("TypeError: a fault in the parent\n")
    assert_no_child_left()


def test_verify_all_in_a_process_prints_one_line():
    argv = ("verify", "all", "--n-max", "4", "--format", "json")
    proc = subprocess.run([sys.executable, "-m", "qsym.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=process_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("\n") == 1
    assert proc.stdout == run(*argv)[1]


def test_export_stirling_csv(tmp_path):
    target = tmp_path / "triangle.csv"
    code, _ = run("export", "stirling", "--kind", "first", "--n-max", "3",
                  "-o", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "n,k,coeffs"
    assert "2,1,[-1]" in lines
    assert '3,2,"[-2,-1]"' in lines


def test_export_jtable_stdout():
    code, text = run("export", "jtable", "--n-max", "4")
    assert code == 0
    assert text.splitlines()[0] == "n,r,degree,coeffs"
    code, tex = run("export", "jtable", "--n-max", "3", "--format", "latex")
    assert code == 0 and tex.startswith("\\begin{tabular}")


def test_output_is_byte_deterministic():
    for argv in (("jtable", "--n-max", "5", "--format", "csv"),
                 ("verify", "qstirling", "--n-max", "4", "--format", "json"),
                 ("query", "forest-stat", "--n", "4", "--roots", "2",
                  "--ranking", "seeded", "--seed", "9")):
        first = run(*argv)
        second = run(*argv)
        assert first == second


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, says", [(argv, "") for argv in [
    ("export", "jtable", "--n-max", "3", "-o", "{tmp}/missing/x.csv"),
    ("export", "stirling", "--n-max", "3", "-o", "{tmp}/missing/x.csv"),
    ("export", "jtable", "--n-max", "3", "-o", "{tmp}"),      # a directory
    ("query", "jpoly", "--n", "2", "--r", "5"),
    ("jtable", "--n-max", "0"),
    ("verify", "jpoly", "--n-max", "0"),
    # options a command does not read are rejected, not ignored
    ("export", "stirling", "--n-max", "3", "--format", "latex"),
    ("export", "jtable", "--n-max", "3", "--format", "plain"),
    ("export", "jtable", "--n-max", "3", "--format", "json"),
    ("export", "jtable", "--n-max", "3", "--seed", "5"),
    ("export", "jtable", "--n-max", "3", "--no-ascii"),
    ("verify", "qstirling", "--n-max", "2", "--format", "latex"),
    ("verify", "qstirling", "--n-max", "2", "--format", "csv"),
    ("verify", "qstirling", "--n-max", "2", "--no-ascii"),
    ("jtable", "--n-max", "3", "--seed", "5"),
    ("jtable", "--n-max", "3", "--cap", "1"),
    ("verify", "oracles", "--n-max", "3", "--cap", "-1"),
    ("query", "parking", "--m", "2", "--r", "1", "--cap", "-1"),
    ("query", "forest-stat", "--n", "3", "--r", "1", "--cap", "-1"),
]] + [      # rows whose error line must say what is wrong
    (("query", "forest-stat", "--n", "3", "--roots", ""),
     "error: roots must be a nonempty subset of {1..n}"),
    (("query", "forest-stat", "--n", "3", "--roots", ","),
     "error: --roots takes comma-separated integer labels, not ','"),
    (("query", "forest-stat", "--n", "3", "--roots", "1,x"),
     "error: --roots takes comma-separated integer labels, not '1,x'"),
    (("query", "forest-stat", "--n", "4", "--roots", "1,1"),
     "error: --roots repeats a label: '1,1'"),
    (("query", "forest-stat", "--n", "4", "--roots", "1,2", "--r", "3"),
     "error: --r 3 is not the number of --roots labels: '1,2'"),
    (("query", "qbinomial", "--n", "-1", "--k", "0"), "error: --n must be >= 0"),
    (("query", "qbinomial", "--n", "3", "--k", "-1"), "error: --k must be >= 0"),
    (("query", "qstirling2", "--n", "-2", "--k", "-1"),
     "error: --n must be >= 0"),
    (("query", "parking", "--m", "-1", "--r", "1"), "error: --m must be >= 0"),
    (("query", "forest-stat", "--n", "3", "--r", "-1"),
     "error: --r must be >= 0"),
    (("query", "forest-stat", "--n", "3", "--r", "1", "--ranking", "plus"),
     "argument --ranking: invalid choice: 'plus'"),
    (("query", "--n", "3", "jpoly", "--r", "1"), "invalid choice: '3'"),
], ids=["missing-dir", "missing-dir-stirling", "is-a-directory",
        "range-violation", "jtable-n-max", "verify-n-max",
        "export-stirling-latex", "export-plain", "export-json", "export-seed",
        "export-ascii", "verify-latex", "verify-csv", "verify-ascii",
        "jtable-seed", "jtable-cap", "verify-negative-cap",
        "parking-negative-cap", "forest-negative-cap", "forest-empty-roots",
        "forest-empty-labels", "forest-non-integer-label",
        "forest-repeated-label", "forest-r-is-not-the-root-count",
        "qbinomial-negative-n", "qbinomial-negative-k",
        "qstirling2-negative-n", "parking-negative-m", "forest-negative-r",
        "ranking-alias", "kind-after-an-option"])
def test_usage_faults_exit_two(argv, says, tmp_path, capsys):
    try:
        code, text = run(*(a.format(tmp=tmp_path) for a in argv))
    except SystemExit as exc:           # argparse rejected the option itself
        code, text = exc.code, ""
    assert code == 2 and text == ""
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(("error: ", f"qsym {argv[0]}: error: ", "qsym: error: "))
    assert says in last


# The options each command and kind reads: the only ones it accepts, and all
# of them.  -o is --output, and --no-ascii the negation of --ascii.
READS = {
    ("jtable",): "--n-max --reciprocal --format --ascii --no-ascii",
    ("verify", "qstirling"): "--n-max --format",
    ("verify", "symfunc"): "--n-max --format",
    ("verify", "jpoly"): "--n-max --format",
    ("verify", "oracles"): "--n-max --format --seed --cap",
    ("verify", "all"): "--n-max --format --seed --cap",
    ("query", "jpoly"): "--n --r --variant --format --ascii --no-ascii",
    ("query", "qstirling2"): "--n --k --format --ascii --no-ascii",
    ("query", "qstirling1"): "--n --k --format --ascii --no-ascii",
    ("query", "qbinomial"): "--n --k --format --ascii --no-ascii",
    ("query", "parking"): "--m --r --cap --format --ascii --no-ascii",
    ("query", "forest-stat"): "--n --r --roots --ranking --variant "
                              "--dump-forests --seed --cap --format --ascii "
                              "--no-ascii",
    ("export", "jtable"): "--n-max -o --output --reciprocal --format",
    ("export", "stirling"): "--n-max -o --output --kind --format",
}
# A value of each option that takes one, valid wherever the option is read.
VALUES = {"--n-max": "2", "--n": "3", "--r": "1", "--k": "1", "--m": "1",
          "--roots": "1", "--ranking": "seeded", "--variant": "reciprocal",
          "--seed": "5", "--cap": "100", "--kind": "first", "-o": "-",
          "--output": "-"}
FORMATS = {"jtable": "csv", "verify": "json", "query": "csv", "export": "csv"}


def with_values(command, options) -> list:
    argv = []
    for option in options:
        value = FORMATS[command] if option == "--format" else VALUES.get(option)
        argv += [option] if value is None else [option, value]
    return argv


@pytest.mark.parametrize("kind", READS, ids=" ".join)
def test_each_kind_accepts_exactly_the_options_it_reads(kind, capsys):
    reads = READS[kind].split()
    line = [*kind, *with_values(kind[0], reads)]
    assert run(*line)[0] == 0
    others = {option for (command, *_), options in READS.items()
              if command == kind[0] for option in options.split()}
    for option in sorted(others - set(reads)):
        for extra in ([option], with_values(kind[0], [option])):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run(*line, *extra)
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == \
                "qsym: error: unrecognized arguments: " + " ".join(extra)


def readme_cli_lines() -> list:
    """The argv of every qsym line in the README's CLI block."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    lines = (shlex.split(line, comments=True) for line in block.splitlines())
    return [words[1:] for words in lines if words[:1] == ["qsym"]]


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=" ".join)
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)        # -o files land here
    assert run(*argv)[0] == 0


class ClosedPipe:
    """An output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["jtable", "--n-max", "3"],
    # the reader leaves in the middle of the forest walk
    ["query", "forest-stat", "--n", "6", "--r", "1", "--dump-forests"],
    ["export", "jtable", "--n-max", "3"],
], ids=["jtable", "dump-forests", "export-jtable"])
def test_closed_stdout_exits_141(capsys, argv):
    assert cli.main(argv, out=ClosedPipe()) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_exits_141_in_a_process():
    proc = subprocess.Popen([sys.executable, "-m", "qsym.cli", "jtable", "--n-max", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=process_env())
    proc.stdout.close()                 # no reader is left before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141 and err == b""


class LeavingReader:
    """An output whose reader takes the first `takes` writes, then goes."""

    def __init__(self, takes):
        self.takes = takes

    def write(self, text):
        if not self.takes:
            raise BrokenPipeError(32, "Broken pipe")
        self.takes -= 1


def rows_drawn(monkeypatch, most: int) -> list:
    """Wrap triangle_rows where qstirling reads it: the returned list holds
    the rows drawn, and drawing one more than `most` raises."""
    drawn = []
    triangle_rows = qstirling.triangle_rows

    def counted(weight):
        for row in triangle_rows(weight):
            if len(drawn) == most:
                raise AssertionError(f"row {most} drawn")
            drawn.append(row)
            yield row

    monkeypatch.setattr(qstirling, "triangle_rows", counted)
    return drawn


def test_a_reader_that_leaves_stops_the_stirling_export(monkeypatch, capsys):
    # the header is written before any row is drawn, and each row before
    # the next is drawn
    rows_drawn(monkeypatch, 2)
    assert cli.main(["export", "stirling", "--n-max", "400"],
                    out=ClosedPipe()) == 141
    drawn = rows_drawn(monkeypatch, 2)
    assert cli.main(["export", "stirling", "--n-max", "400"],
                    out=LeavingReader(1)) == 141
    assert len(drawn) == 2 and capsys.readouterr().err == ""


def test_an_unwritable_stirling_file_fails_before_any_row(monkeypatch,
                                                          tmp_path, capsys):
    rows_drawn(monkeypatch, 0)
    target = tmp_path / "missing" / "x.csv"
    assert run("export", "stirling", "--n-max", "400", "-o", str(target)) \
        == (2, "")
    assert capsys.readouterr().err == \
        f"error: cannot write {target}: No such file or directory\n"


def test_a_failed_jtable_identity_writes_no_file(monkeypatch, tmp_path, capsys):
    def refuse(n, r, poly):
        raise JTableShapeError(f"J({n},{r}) refused")

    monkeypatch.setattr(jpoly, "_validate_entry", refuse)
    target = tmp_path / "jtable.csv"
    assert run("export", "jtable", "--n-max", "4", "-o", str(target)) == (1, "")
    assert capsys.readouterr().err == "error: J(2,1) refused\n"
    assert not target.exists()


def csv_writer_text(header, rows) -> str:
    """The reference rendering: what csv.writer writes for the rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("text", ["[1]", "[1,2]", "[-2,-1]", "[]", "",
                                  '["1/2",3]', '[1,"-3/4"]', 'a"b'])
def test_the_csv_cell_is_the_csv_writer_field(text):
    assert csv_writer_text(["n", "coeffs"], [[1, text]]) == \
        f"n,coeffs\n1,{csv_cell(text)}\n"


def test_a_fraction_cell_doubles_its_quotes():
    cell = csv_cell(json_coeff_list(UniPoly((Fraction(1, 2), 3))))
    assert cell == '"[""1/2"",3]"'
    assert next(csv.reader([f"1,{cell}"]))[1] == '["1/2",3]'


@pytest.mark.parametrize("kind", ["first", "second"])
def test_the_stirling_export_is_the_csv_writer_text(kind):
    triangle = (qstirling.qstirling1_triangle(30) if kind == "first"
                else qstirling.qstirling2_triangle(30))
    rows = list(triangle.csv_rows())
    assert (1, 1, "[1]") in rows          # one coefficient: not quoted
    for n_max in range(1, 31):
        expected = csv_writer_text(["n", "k", "coeffs"],
                                   [row for row in rows if row[0] <= n_max])
        argv = ("export", "stirling", "--kind", kind, "--n-max", str(n_max))
        assert run(*argv) == (0, expected)
    assert "\n1,1,[1]\n" in expected


@pytest.mark.parametrize("reciprocal", [False, True])
def test_the_jtable_export_is_the_csv_writer_text(reciprocal):
    table = jpoly.build_jtable(20)
    expected = csv_writer_text(["n", "r", "degree", "coeffs"],
                               jpoly.jtable_csv_rows(table, reciprocal))
    assert "".join(jpoly.export_chunks(table, "csv", reciprocal)) == expected
    flag = ("--reciprocal",) if reciprocal else ()
    assert run("export", "jtable", "--n-max", "20", *flag) == (0, expected)
    assert run("jtable", "--n-max", "20", "--format", "csv", *flag) \
        == (0, expected)


# The probe reports its own peak resident set.  It is started from a small
# process, because Linux counts the memory of the process that starts a
# child in the child's peak, and this test process may be larger than the
# bound.
PEAK_PROBE = ("import resource, sys\n"
              "from qsym.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
SPAWN = "import subprocess, sys\nsubprocess.run(sys.argv[1:], check=True)\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is read in KB as Linux reports it")
def test_the_stirling_export_holds_one_row(tmp_path):
    # the whole second-kind triangle to 60 and its text peak at about 86 MB
    target = tmp_path / "second-60.csv"
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN, sys.executable, "-c", PEAK_PROBE,
         "export", "stirling", "--kind", "second", "--n-max", "60",
         "-o", str(target)],
        env=process_env(), capture_output=True, text=True, timeout=120)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0 and target.read_text().count("\n") == 1 + 60 * 61 // 2
    assert peak_kb < 48 * 1024


class FullDisk:
    """An output on a full disk: each write, or only the flush, fails."""

    def __init__(self, at="write"):
        self.at = at

    def write(self, text):
        if self.at == "write":
            raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("at", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["query", "qbinomial", "--n", "5", "--k", "2"],
    ["jtable", "--n-max", "4"],
    ["export", "stirling", "--n-max", "3"],
    ["export", "jtable", "--n-max", "3", "--format", "latex"],
    ["verify", "qstirling", "--n-max", "3"],
], ids=["query", "jtable", "export-stirling", "export-jtable", "verify"])
def test_a_write_error_on_the_output_exits_two(capsys, argv, at):
    assert cli.main(argv, out=FullDisk(at)) == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: cannot write stdout: No space left on device\n"


def test_an_os_error_off_the_output_stays_a_fault(monkeypatch, forks, capsys):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run("verify", "qstirling", "--n-max", "3") == (cli.EXIT_INTERNAL, "")
    assert capsys.readouterr().err.endswith(
        "BlockingIOError: [Errno 11] Resource temporarily unavailable\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_failed_fork_leaks_no_descriptor(monkeypatch, forks):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    before = len(os.listdir("/proc/self/fd"))
    assert run("verify", "qstirling", "--n-max", "3") == (cli.EXIT_INTERNAL, "")
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_help_on_a_full_stdout_exits_two_in_a_process():
    # argparse drops a write error of its own help; the CLI reports it
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qsym.cli", "query",
                               "jpoly", "--help"], stdout=full,
                              stderr=subprocess.PIPE, text=True,
                              env=process_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_two_in_a_process():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qsym.cli", "export",
                               "stirling", "--n-max", "3"], stdout=full,
                              stderr=subprocess.PIPE, text=True,
                              env=process_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


def test_inexact_division_is_a_fail_record(monkeypatch):
    def inexact(c, n, r):
        raise InexactDivisionError(f"J({n}, {r}) left a remainder")

    monkeypatch.setattr("qsym.jpoly.j_from_scaled_p", inexact)
    code, text = run("verify", "jpoly", "--n-max", "3")
    assert code == 1
    lines = text.splitlines()
    assert "FAIL table-vs-specialization (0/6 instances)" in lines
    assert lines[-1] == ('first counterexample: {"identity":"table-vs-specialization",'
                         '"n":1,"r":1,"status":"fail","detail":"J(1, 1) left a remainder"}')


def test_an_inexact_division_in_a_query_is_a_failed_identity(monkeypatch,
                                                            capsys):
    # the division is the paper's divisibility claim: exit 1, one error line
    def inexact(c, n, r):
        raise InexactDivisionError(f"J({n}, {r}) left a remainder")

    monkeypatch.setattr("qsym.jpoly.j_from_scaled_p", inexact)
    assert run("query", "jpoly", "--n", "6", "--r", "2") == (1, "")
    assert capsys.readouterr().err == "error: J(6, 2) left a remainder\n"

    def no_quotient(c, a=1):
        raise InexactDivisionError(f"1 - q^{a} leaves a remainder")

    monkeypatch.setattr("qsym.qcalc.one_minus_q_div", no_quotient)
    assert run("query", "qbinomial", "--n", "6", "--k", "2") == (1, "")
    assert capsys.readouterr().err == "error: 1 - q^1 leaves a remainder\n"


def test_query_jpoly_checks_the_shape_invariants(monkeypatch, capsys):
    # a specialization that loses the top coefficient of J(5, 3)
    monkeypatch.setattr("qsym.jpoly.j_from_scaled_p",
                        lambda c, n, r: UniPoly((2, 3, 4, 3, 2)))
    assert run("query", "jpoly", "--n", "5", "--r", "3") == (1, "")
    assert capsys.readouterr().err == "error: J(5,3) degree 4 != 5\n"


def test_failed_composition_formula_shows_both_sides(monkeypatch):
    monkeypatch.setattr("qsym.jpoly.j_explicit_composition",
                        lambda n, r: zero)
    code, text = run("verify", "jpoly", "--n-max", "3", "--format", "json")
    assert code == 1
    first = next(r for r in json.loads(text)
                 if r["identity"] == "table-vs-composition-formula")
    assert first == {"identity": "table-vs-composition-formula", "n": 2,
                     "r": 1, "status": "fail", "detail": "lhs=0 rhs=1"}


def test_jtable_shape_failure_is_an_error_line(monkeypatch, capsys):
    def long_bracket_mul(c, a, *args, **kwargs):    # [a] one term too long
        return bracket_mul(c, a + 1, *args, **kwargs)

    monkeypatch.setattr(jpoly, "bracket_mul", long_bracket_mul)
    code, text = run("jtable", "--n-max", "4")
    assert code == 1 and text == ""
    assert capsys.readouterr().err == "error: J(2,1) degree 1 != 0\n"


def test_unexpected_exception_exits_four_with_traceback(monkeypatch, capsys):
    # a fault of the program is neither a failed identity (1) nor a usage
    # error (2): it exits 4 and leaves its traceback on stderr
    def broken(args, out):
        raise TypeError("a fault of the program")

    monkeypatch.setitem(cli.COMMANDS, "jtable", broken)
    code, text = run("jtable", "--n-max", "3")
    assert code == cli.EXIT_INTERNAL == 4 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("TypeError: a fault of the program\n")


def test_capped_checks_are_skips_not_passes():
    argv = ("verify", "oracles", "--n-max", "5", "--cap", "100")
    code, text = run(*argv)
    assert code == 0
    lines = text.splitlines()
    assert "skip forest-oracle-skipped-by-cap (0/1 instances)" in lines
    assert "skip parking-oracle-skipped-by-cap (0/1 instances)" in lines
    assert not any(l.startswith("ok") and "skipped" in l for l in lines)
    code, text = run(*argv, "--format", "json")
    assert code == 0
    records = json.loads(text)
    skipped = [r for r in records if r["identity"].endswith("-skipped-by-cap")]
    assert skipped and all(r["status"] == "skip" for r in skipped)
    assert {r["status"] for r in records} == {"pass", "skip"}


def test_a_failed_check_renders_both_sides():
    report = CheckReport()
    report.check("x", UniPoly([1, 2]), UniPoly([1]), n=3)
    assert report.records[0].to_json_dict() == {
        "identity": "x", "n": 3, "status": "fail", "detail": "lhs=1+2q rhs=1"}


class Unrenderable:
    """A value compared and truth-tested as its payload; rendering one
    raises."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Unrenderable) and self.value == other.value

    def __bool__(self):
        return bool(self.value)

    def __str__(self):
        raise AssertionError("a passing check rendered its sides")

    def __format__(self, spec):
        raise AssertionError("a passing check rendered its sides")


def test_a_passing_check_renders_nothing():
    # equal sides pass whatever their truth value, zero included
    report = CheckReport()
    for i, value in enumerate((0, 5)):
        report.check("x", Unrenderable(value), Unrenderable(value), n=i)
    assert [r.to_json_dict() for r in report.records] == [
        {"identity": "x", "n": 0, "status": "pass"},
        {"identity": "x", "n": 1, "status": "pass"}]


def test_skips_do_not_decide_the_verdict():
    report = CheckReport()
    report.add_skip("skipped", n=1)
    report.add_pass("fine", n=1)
    assert report.passed and report.first_failure is None
    report.add_fail("broken", n=2)
    assert not report.passed and report.first_failure.identity == "broken"
    assert report.summary_lines() == ["skip skipped (0/1 instances)",
                                      "ok   fine (1/1 instances)",
                                      "FAIL broken (0/1 instances)"]


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 200])
def test_report_json_is_one_compact_array(size):
    # encoded a chunk of records at a time, it reads as json.dumps of all
    report = CheckReport()
    for i in range(size):
        if i % 5 != 4:
            report.add_pass(f"identity-{i % 3}", n=i, r="x")
        else:
            report.add_fail(f"identity-{i % 3}", detail='lhs="1/2" ≠ rhs',
                            n=i, r="x")
    assert report.to_json() == json.dumps(
        [r.to_json_dict() for r in report.records], separators=(",", ":"))

"""Command-line contract: commands, formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsym.cli as cli
import qsym.jpoly as jpoly
from qsym.exactpoly import InexactDivisionError, UniPoly, parse_poly_text
from qsym.report import CheckReport


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


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


def test_query_qbinomial_and_stirling():
    code, text = run("query", "qbinomial", "--n", "2", "--k", "3")
    assert code == 0 and text == "0\n"
    code, text = run("query", "qstirling2", "--n", "4", "--k", "2")
    assert code == 0 and text == "3+3q+q^2\n"
    code, text = run("query", "qstirling1", "--n", "3", "--k", "2")
    assert code == 0 and text == "-2-q\n"


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
    code, _ = run("query", "jpoly", "--n", "5")
    assert code == 2


def test_query_range_violation_is_usage_error():
    code, _ = run("query", "jpoly", "--n", "2", "--r", "5")
    assert code == 2


def test_cap_exit_code():
    code, _ = run("query", "forest-stat", "--n", "12", "--roots", "1")
    assert code == 3
    code, _ = run("query", "parking", "--m", "10", "--r", "2", "--cap", "100")
    assert code == 3


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

    monkeypatch.setattr(cli, "_verify_report", lambda *a, **k: broken)
    code, text = run("verify", "jpoly", "--n-max", "3")
    assert code == 1
    assert "FAIL broken-identity" in text
    assert "first counterexample" in text and "lhs=0 rhs=1" in text

    code, text = run("verify", "jpoly", "--n-max", "3", "--format", "json")
    assert code == 1
    records = json.loads(text)
    assert any(r["status"] == "fail" for r in records)


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


@pytest.mark.parametrize("argv", [
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
], ids=["missing-dir", "missing-dir-stirling", "is-a-directory",
        "range-violation", "jtable-n-max", "verify-n-max",
        "export-stirling-latex", "export-plain", "export-json", "export-seed",
        "export-ascii", "verify-latex", "verify-csv", "verify-ascii",
        "jtable-seed", "jtable-cap"])
def test_usage_faults_exit_two(argv, tmp_path, capsys):
    try:
        code, text = run(*(a.format(tmp=tmp_path) for a in argv))
    except SystemExit as exc:           # argparse rejected the option itself
        code, text = exc.code, ""
    assert code == 2 and text == ""
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(("error: ", f"qsym {argv[0]}: error: ", "qsym: error: "))


class ClosedPipe:
    """An output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141(capsys):
    assert cli.main(["jtable", "--n-max", "3"], out=ClosedPipe()) == 141
    assert capsys.readouterr().err == ""


def test_closed_stdout_exits_141_in_a_process():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)   # keep output buffered until exit
    proc = subprocess.Popen([sys.executable, "-m", "qsym.cli", "jtable", "--n-max", "5"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()                 # no reader is left before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141 and err == b""


def test_inexact_division_is_a_fail_record(monkeypatch):
    def inexact(n, r):
        raise InexactDivisionError(f"J({n}, {r}) left a remainder")

    monkeypatch.setattr(jpoly, "j_from_specialized_symfunc", inexact)
    code, text = run("verify", "jpoly", "--n-max", "3")
    assert code == 1
    lines = text.splitlines()
    assert "FAIL table-vs-specialization (0/6 instances)" in lines
    assert lines[-1] == ('first counterexample: {"identity":"table-vs-specialization",'
                         '"n":1,"r":1,"status":"fail","detail":"J(1, 1) left a remainder"}')


def test_capped_checks_are_skips_not_passes():
    argv = ("verify", "oracles", "--n-max", "5", "--cap", "100")
    code, text = run(*argv)
    assert code == 0
    lines = text.splitlines()
    assert "skip forest-oracle-skipped-by-cap (0/2 instances)" in lines
    assert "skip parking-oracle-skipped-by-cap (0/1 instances)" in lines
    assert not any(l.startswith("ok") and "skipped" in l for l in lines)
    code, text = run(*argv, "--format", "json")
    assert code == 0
    records = json.loads(text)
    skipped = [r for r in records if r["identity"].endswith("-skipped-by-cap")]
    assert skipped and all(r["status"] == "skip" for r in skipped)
    assert {r["status"] for r in records} == {"pass", "skip"}


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

"""Start-up footprint and the lazily loaded public API.

Each command imports only the modules it uses, no module imports
``dataclasses`` (and with it ``inspect``), a command whose output holds no
JSON does not load ``json``, no command loads ``fractions`` or
``signal``, and ``import qsym`` still offers every public name of the
package, resolved on first access.  Run as a program, the CLI freezes the
collector's objects as it ends, so the collection at interpreter exit
passes them by.  A command line that succeeds is read without argparse,
which only help and usage errors load.
"""

import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsym
from qsym.oracles import Forest
from qsym.qstirling import StirlingTriangle
from qsym.report import CheckRecord
from qsym.symfunc import SymAlphabet, SymSeriesBundle

SRC = str(Path(qsym.__file__).resolve().parent.parent)

# Run one command through cli.main, then print the names of the modules it
# loaded; json is imported only after they are listed.
PROBE = ("import io, sys\n"
         "from qsym.cli import main\n"
         "main(sys.argv[1:], out=io.StringIO())\n"
         "loaded = sorted(sys.modules)\n"
         "import json\n"
         "print(json.dumps(loaded))\n")

BASE = {"qsym", "qsym.cli", "qsym.exactpoly"}
STIRLING = BASE | {"qsym.qcalc", "qsym.qstirling"}
JTABLE = BASE | {"qsym.jpoly"}
ORACLES = BASE | {"qsym.oracles"}
SYMFUNC = STIRLING | {"qsym.report", "qsym.symfunc", "qsym.pqalgebra"}
ARGPARSE = {"argparse", "gettext", "locale"}


def src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def loaded_modules(*argv) -> set:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return set(json.loads(proc.stdout))


# writes_json: the output holds JSON, so the command may load json; plain
# output and CSV exports (their cells are compact JSON arrays, written
# without the json module) must not.  No query, export or jtable loads the
# batteries (qsym.report) or the verification algebra (qsym.pqalgebra);
# verify loads what its battery needs.  No command loads fractions or
# decimal: every battery runs on int rows and integer alphabets, and a unit
# is its own inverse; nor signal, which only a fault in the parent beside a
# forked battery needs; nor argparse, gettext or locale.
@pytest.mark.parametrize("argv, expected, writes_json", [
    (("query", "qbinomial", "--n", "5", "--k", "2"), BASE | {"qsym.qcalc"},
     False),
    (("query", "qstirling2", "--n", "6", "--k", "3"), STIRLING, False),
    (("query", "qstirling1", "--n", "6", "--k", "3"), STIRLING, False),
    (("query", "jpoly", "--n", "6", "--r", "2"), JTABLE, False),
    (("query", "parking", "--m", "3", "--r", "2"), ORACLES, False),
    (("query", "forest-stat", "--n", "4", "--r", "2"), ORACLES, False),
    (("export", "stirling", "--n-max", "5"), STIRLING, False),
    (("export", "jtable", "--n-max", "5"), JTABLE, False),
    (("jtable", "--n-max", "5"), JTABLE, False),
    (("verify", "qstirling", "--n-max", "3"), STIRLING | {"qsym.report"},
     False),
    (("verify", "jpoly", "--n-max", "3"), JTABLE | {"qsym.qcalc", "qsym.report"},
     False),
    (("verify", "oracles", "--n-max", "3"),
     JTABLE | ORACLES | {"qsym.qcalc", "qsym.report"}, False),
    (("verify", "symfunc", "--n-max", "6"), SYMFUNC, False),
    (("verify", "all", "--n-max", "7"), SYMFUNC | JTABLE | ORACLES, False),
], ids=["query-qbinomial", "query-qstirling2", "query-qstirling1",
        "query-jpoly", "query-parking", "query-forest-stat", "export-stirling",
        "export-jtable", "jtable", "verify-qstirling", "verify-jpoly",
        "verify-oracles", "verify-symfunc", "verify-all"])
def test_each_command_loads_only_its_modules(argv, expected, writes_json):
    modules = loaded_modules(*argv)
    assert "dataclasses" not in modules and "inspect" not in modules
    assert {m for m in modules if m.split(".")[0] == "qsym"} == expected
    if not writes_json:
        assert "json" not in modules
    assert "fractions" not in modules and "decimal" not in modules
    assert "signal" not in modules
    assert not modules & ARGPARSE


# Only help and usage errors, which argparse writes, load argparse and the
# translation machinery it loads for its messages.
FALLBACK_PROBE = ("import sys\n"
                  "from qsym.cli import main\n"
                  "try:\n"
                  "    main(sys.argv[1:])\n"
                  "finally:\n"
                  "    import json\n"
                  "    print(json.dumps(sorted(sys.modules)))\n")


@pytest.mark.parametrize("argv, code", [
    (("query", "qbinomial", "--help"), 0),
    (("query", "qbinomial", "--n", "5", "--k", "x"), 2),
], ids=["help", "usage-error"])
def test_help_and_usage_errors_load_argparse(argv, code):
    proc = subprocess.run([sys.executable, "-c", FALLBACK_PROBE, *argv],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert ARGPARSE <= set(json.loads(proc.stdout.splitlines()[-1]))


# Run main() as the program does, on argv[1:], and at exit print the
# collector's freeze count from before main and from after it to stderr.
EXIT_PROBE = ("import atexit, gc, sys\n"
              "from qsym.cli import main\n"
              "before = gc.get_freeze_count()\n"
              "atexit.register(lambda: print('freeze', before,\n"
              "                              gc.get_freeze_count(), file=sys.stderr))\n"
              "sys.exit(main())\n")


@pytest.mark.parametrize("argv, code", [
    (("query", "qbinomial", "--n", "5", "--k", "2"), 0),
    (("export", "jtable", "--n-max", "4"), 0),
    (("export", "jtable", "--n-max", "0"), 2),
    (("query", "no-such-kind"), 2),
], ids=["query", "export", "usage-error", "argparse-usage-error"])
def test_the_program_freezes_the_collector_as_it_ends(argv, code):
    proc = subprocess.run([sys.executable, "-c", EXIT_PROBE, *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    label, before, after = proc.stderr.splitlines()[-1].split()
    assert label == "freeze" and int(before) == 0 and int(after) > 0


@pytest.mark.parametrize("argv", [
    ("query", "jpoly", "--n", "6", "--r", "2"),
    ("export", "stirling", "--n-max", "5"),
    ("jtable", "--n-max", "5"),
], ids=["query", "export", "jtable"])
def test_callers_with_argv_keep_their_collector(argv):
    from qsym.cli import main
    before = gc.get_freeze_count()
    assert main(list(argv), out=io.StringIO()) == 0
    assert gc.get_freeze_count() == before


# The public names of the package, by defining module.
PUBLIC = {
    "exactpoly": ["InexactDivisionError", "UniPoly", "poly_text"],
    "pqalgebra": ["BiPoly", "TruncSeries", "det_hessenberg", "pq_binomial"],
    "qcalc": ["qbinomial", "qbracket", "qbracket_power_base", "qfactorial"],
    "qstirling": ["StirlingTriangle", "qstirling1", "qstirling1_triangle",
                  "qstirling2", "qstirling2_triangle"],
    "symfunc": ["SymAlphabet", "SymSeriesBundle",
                "complete_from_elementary", "elementary_sequence",
                "qp_nr_determinant", "qp_nr_direct", "transfer_theorem_check"],
    "jpoly": ["JTable", "build_jtable", "exp_rows", "j_explicit_composition",
              "j_from_scaled_p", "reciprocal", "scaled_p_nr"],
    "report": ["kung_yan_check", "reciprocal_recurrence_check",
               "verify_carlitz_identities"],
    "oracles": ["DecreasingRanking", "EnumerationCapExceeded", "Forest",
                "IncreasingRanking", "Ranking", "SeededRanking",
                "enumerate_forests", "forest_enumerator_poly", "level_statistic",
                "parking_enumerator_poly", "sigma_statistic"],
}
PUBLIC_NAMES = [name for names in PUBLIC.values() for name in names]


def test_public_names_are_the_module_objects():
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"qsym.{module}")
        for name in names:
            assert getattr(qsym, name) is getattr(mod, name), name


def test_public_names_are_listed_and_star_importable():
    assert sorted(qsym.__all__) == sorted(PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(qsym))
    namespace = {}
    exec("from qsym import *", namespace)
    assert all(namespace[name] is getattr(qsym, name) for name in PUBLIC_NAMES)
    assert qsym.__version__ == "0.1.0"


def test_no_module_keeps_a_memo_table():
    # Batteries get the tables and bundles they check from their caller, so
    # no function result or ranking is cached for the life of the process.
    import pkgutil
    for info in pkgutil.iter_modules(qsym.__path__):
        module = importlib.import_module(f"qsym.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            assert not hasattr(obj, "cache_info"), f"{info.name}.{name}"
            if isinstance(obj, type):
                for attr, fn in vars(obj).items():
                    code = getattr(fn, "__code__", None)
                    assert code is None or "_memo" not in code.co_names, \
                        f"{info.name}.{name}.{attr}"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsym.no_such_name
    with pytest.raises(ImportError):
        exec("from qsym import no_such_name", {})


def test_moved_errors_keep_their_old_names():
    import qsym.exactpoly as exactpoly
    import qsym.jpoly as jpoly
    import qsym.oracles as oracles
    assert jpoly.JTableShapeError is exactpoly.JTableShapeError
    assert oracles.EnumerationCapExceeded is exactpoly.EnumerationCapExceeded
    assert oracles.DEFAULT_CAP == exactpoly.DEFAULT_CAP == 10_000_000


def test_verification_algebra_keeps_its_exactpoly_names():
    import qsym.exactpoly as exactpoly
    import qsym.pqalgebra as pqalgebra
    for name in ("BiPoly", "TruncSeries", "det_hessenberg"):
        assert getattr(exactpoly, name) is getattr(pqalgebra, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        exactpoly.no_such_name


def test_value_classes_compare_and_hash_by_fields():
    alphabet = SymAlphabet.integers(3)
    assert alphabet == SymAlphabet.integers(3) != SymAlphabet.primes(3)
    assert alphabet != alphabet.values
    assert hash(alphabet) == hash(SymAlphabet.integers(3))
    assert len({alphabet, SymAlphabet.integers(3), SymAlphabet.primes(3)}) == 2
    bundle = SymSeriesBundle.from_alphabet(alphabet, 3)
    assert bundle == SymSeriesBundle.from_alphabet(alphabet, 3)
    assert hash(bundle) == hash(SymSeriesBundle.from_alphabet(alphabet, 3))
    triangle = StirlingTriangle("second", 1, ((1,),))
    assert triangle == StirlingTriangle("second", 1, ((1,),))
    assert triangle != StirlingTriangle("first", 1, ((1,),))
    assert hash(triangle) == hash(StirlingTriangle("second", 1, ((1,),)))
    # dict fields: equal by value, and unhashable as the dict is
    record = CheckRecord("x", "pass")
    assert record.params == {} and record.detail == ""
    assert record == CheckRecord("x", "pass", {}, "")
    assert record != CheckRecord("x", "pass", {"n": 1})
    assert CheckRecord("x", "pass").params is not record.params
    forest = Forest(2, (1,), {2: 1}, ((1,), (2,)))
    assert forest == Forest(2, (1,), {2: 1}, ((1,), (2,)))
    for unhashable in (record, forest):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_value_classes_validate_and_refuse_assignment():
    with pytest.raises(ValueError, match="at least one variable"):
        SymAlphabet(())
    values = [(SymAlphabet.primes(2), "values"),
              (StirlingTriangle("second", 1, ((1,),)), "entries"),
              (CheckRecord("x", "pass"), "status"),
              (Forest(1, (1,), {}, ((1,),)), "parent")]
    for value, field in values:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert (repr(CheckRecord("x", "pass", {"n": 1}))
            == "CheckRecord(identity='x', status='pass', params={'n': 1}, detail='')")

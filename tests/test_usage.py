"""Usage output of the command line, byte for byte.

build_parser fills in only the subparser of the command being run, so the
top-level help, the usage errors and each command's own help must read as
they did when every subparser was built on every call.  usage_golden.json
holds stdout, stderr and the exit code of each case below, captured from
the parser that built all four subparsers (Python 3.11, 80 columns); the
verify and query help were captured again when the --cap help changed to
name what the cap counts.  The cases whose usage text lists the options of
verify, query or export were captured again, and the help of one kind of
each added, when each kind came to take only the options it reads.  The
help of query forest-stat was captured again when --ranking came to list
its choices.  The six cases whose usage names a kind were captured again
when that usage came to put the kind right after the command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsym

SRC = str(Path(qsym.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "usage_golden.json"

CASES = [
    (),
    ("--help",),
    ("bogus",),
    ("--bogus",),
    ("jtable", "--help"),
    ("verify", "--help"),
    ("query", "--help"),
    ("export", "--help"),
    ("jtable", "--n-max", "3", "--bogus"),
    ("verify", "qstirling", "--bogus"),
    ("query", "qbinomial", "--n", "3", "--k", "1", "--bogus"),
    ("export", "stirling", "--n-max", "3", "--bogus"),
    ("jtable",),
    ("verify", "bogus"),
    ("query",),
    ("export", "jtable", "--format", "plain"),
    ("query", "jpoly", "--n", "x"),
    ("query", "jpoly", "--help"),
    ("query", "forest-stat", "--help"),
    ("export", "stirling", "--help"),
    ("verify", "oracles", "--help"),
    ("query", "qbinomial", "--n", "3", "--k", "1", "--r", "4"),
]


def run_usage(argv) -> dict:
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    env.pop("LINES", None)
    proc = subprocess.run([sys.executable, "-m", "qsym.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return {"argv": list(argv), "stdout": proc.stdout, "stderr": proc.stderr,
            "code": proc.returncode}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse wording differs between Python versions")
@pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a) or "no-args")
def test_usage_is_byte_identical(argv):
    golden = {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text())}
    assert run_usage(argv) == golden[argv]

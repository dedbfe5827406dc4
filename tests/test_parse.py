"""The command line read from cli.OPTIONS, against argparse.

cli._well_formed reads a well-formed command line without argparse and
returns None for anything else, which argparse then parses.  Whenever it
returns a namespace, argparse must accept the same argv and give the same
attributes; and each (command, kind), given its required options, must be
read without argparse.  The calls are drawn by a seeded stdlib generator
over OPTIONS, with junk values and words mixed in.
"""

import random

import pytest

import qsym.cli as cli

KINDS = sorted(cli.OPTIONS, key=str)
JUNK = ["x", "-", "-1", "-12", "-0", "-x", "-1.5", " 4", "1_0", "3.5", "+2",
        "007", "", "--n", "jpoly"]
ODD = ["--no-ascii", "-h", "--help", "--n=3", "--", "--bogus", "-o", "--k",
       "--ascii", "--reciprocal", "jtable", "x"]


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None if it exits."""
    try:
        return vars(cli.build_parser(argv).parse_args(argv))
    except SystemExit:
        return None


def _value(rng, kwargs) -> str:
    if rng.random() < 0.25:
        return rng.choice(JUNK)
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"])
    if "type" in kwargs:
        return str(rng.randint(-3, 12))
    return rng.choice(["1,3", "2", "out.csv"])        # --roots, --output


def random_argv(rng) -> list:
    """A command, its kind, then flags of OPTIONS with values, each part
    now and then replaced, left out or mixed with a word from ODD."""
    command, kind = rng.choice(KINDS)
    options = cli.OPTIONS[(command, kind)]
    words = []
    for names, kwargs in options * rng.choice([1, 1, 2]):    # twice: repeats
        if not (kwargs.get("required") and rng.random() < 0.9
                or rng.random() < 0.3):
            continue
        flag = rng.choice(names)
        if kwargs.get("action") == "boolean_optional" and rng.random() < 0.5:
            flag = "--no-" + flag[2:]
        part = [flag] if "action" in kwargs else [flag, _value(rng, kwargs)]
        if len(part) == 2 and rng.random() < 0.03:
            part.pop()                                   # a value left out
        words.append(part)
    rng.shuffle(words)
    argv = [command] + ([kind] if kind else []) + [w for part in words for w in part]
    if rng.random() < 0.15:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(ODD))
    if rng.random() < 0.05 and kind:
        argv[1] = rng.choice(KINDS)[1] or "jtable"
    return argv


def test_the_two_parsers_agree(capsys):
    rng = random.Random(34)
    taken = 0
    for _ in range(3000):
        argv = random_argv(rng)
        ours = cli._well_formed(argv)
        if ours is not None:
            taken += 1
            assert vars(ours) == argparse_vars(argv), argv
    capsys.readouterr()                       # argparse's usage and help
    assert 1000 < taken < 2800                # both paths well exercised


def required_argv(command, kind) -> list:
    argv = [command] + ([kind] if kind else [])
    for names, kwargs in cli.OPTIONS[(command, kind)]:
        if kwargs.get("required"):
            argv += [names[-1], "3"]
    return argv


@pytest.mark.parametrize("command, kind", KINDS,
                         ids=[f"{c}-{k}" if k else c for c, k in KINDS])
def test_every_kind_is_read_without_argparse(command, kind):
    argv = required_argv(command, kind)
    ours = cli._well_formed(argv)
    assert ours is not None and vars(ours) == argparse_vars(argv)


@pytest.mark.parametrize("argv, expected", [
    (["query", "jpoly", "--n", "5", "--r", "3", "--n", "-6", "--no-ascii"],
     {"n": -6, "r": 3, "ascii": False}),
    (["query", "forest-stat", "--n", "4", "--roots", "", "--dump-forests"],
     {"roots": "", "r": None, "dump_forests": True, "ranking": "increasing"}),
    (["verify", "jpoly"], {"suite": "jpoly", "n_max": 7, "seed": 0,
                           "cap": cli.DEFAULT_CAP}),
    (["export", "stirling", "--n-max", " 4", "-o", "t.csv", "--output", "u"],
     {"what": "stirling", "n_max": 4, "output": "u", "kind": "second"}),
])
def test_what_the_new_path_reads(argv, expected):
    args = vars(cli._well_formed(argv))
    assert args.items() >= expected.items() and args == argparse_vars(argv)


@pytest.mark.parametrize("argv", [
    ["query", "jpoly", "--n", "5", "--r", "3", "--help"],
    ["query", "jpoly", "--n=5", "--r", "3"],
    ["query", "jpoly", "--n", "5", "--r", "-x"],
    ["query", "jpoly", "--n", "5", "--r", "3.5"],
    ["query", "jpoly", "--n", "5"],
    ["query", "jpoly", "--n", "5", "--r", "3", "--k", "1"],
    ["query", "jpoly", "--n", "5", "--r", "3", "--format", "xml"],
    ["query", "jpoly", "--n", "5", "--r", "3", "--"],
    ["query", "jpoly", "--n", "5", "--r"],
    ["query", "--n", "5", "--r", "3", "jpoly"],
    ["export", "stirling", "--n-max", "3", "-o", "-"],
    ["jtable", "--n-max", "3", "x"],
    ["bogus"],
    [],
])
def test_the_rest_goes_to_argparse(argv):
    assert cli._well_formed(argv) is None

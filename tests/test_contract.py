"""The exit-code contract over generated command lines.

test_parse.random_argv draws command lines over cli.OPTIONS, junk values
and stray words among them, from a fixed seed; every size is cut to 6 so
each call stays small.  Whatever the line, the exit code is 0, 2 or 3, a
usage error prints exactly one error line, nothing prints a traceback, and
no call that succeeds read a size below its range.
Where a query succeeds, its route agrees with another command's: query
parking with the reciprocal J entry, query forest-stat with the J entry.
"""

import io
import random

import qsym.cli as cli

from test_parse import random_argv

SIZES = {"--n", "--r", "--k", "--m", "--n-max"}
LOWEST = {"n": 0, "r": 0, "k": 0, "m": 0, "n_max": 1, "cap": 0}
CALLS = 500


def capped(argv) -> list:
    """argv with every size that int() reads as above 6 cut to 6."""
    argv = list(argv)
    for i in range(1, len(argv)):
        try:
            if argv[i - 1] in SIZES and int(argv[i]) > 6:
                argv[i] = "6"
        except ValueError:
            pass
    return argv


def call(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call; argparse's own
    exits, help and usage errors, leave as SystemExit."""
    out = io.StringIO()
    try:
        code = cli.main(argv, out=out)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, out.getvalue() + captured.out, captured.err


def parsed(argv):
    """The namespace main ran argv with, or None for help."""
    try:
        return cli._well_formed(argv) or cli.build_parser(argv).parse_args(argv)
    except SystemExit:
        return None


def test_generated_calls_keep_the_exit_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)                 # where -o writes
    rng = random.Random(35)
    compared = 0
    for _ in range(CALLS):
        argv = capped(random_argv(rng))
        code, out, err = call(argv, capsys)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, \
                (argv, err)
        args = parsed(argv) if code == 0 else None
        if args is None:                        # help, or no success
            continue
        for name, low in LOWEST.items():        # a size out of range exits 2
            value = getattr(args, name, None)
            assert value is None or value >= low, argv
        if args.command != "query":
            continue
        if args.kind == "parking":
            other = ["query", "jpoly", "--n", str(args.m + args.r), "--r",
                     str(args.r), "--variant", "reciprocal"]
        elif args.kind == "forest-stat":
            r = len(args.roots.split(",")) if args.roots else args.r or 0
            other = ["query", "jpoly", "--n", str(args.n), "--r", str(r),
                     "--variant", args.variant]
            out = out.splitlines(keepends=True)[-1]     # after any forests
        else:
            continue
        other += ["--format", args.format,
                  "--ascii" if args.ascii else "--no-ascii"]
        assert call(other, capsys) == (0, out, ""), argv
        compared += 1
    assert compared >= 5

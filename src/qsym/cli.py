"""Command-line front end.

Commands: jtable (print the triangle), verify (run an identity battery),
query (one exact object), export (CSV / LaTeX dumps).  Each command accepts
only the options it reads.  Exit codes are a stable contract: 0 success, 1 a
mathematical identity failed, 2 usage error (a bad argument, or an output
file that cannot be written), 3 enumeration cap exceeded, 4 an internal
error (any other exception, also one in the forked child of verify, which
runs a battery of the suite as report.verify_suite says; its traceback goes
to stderr), 141 the reader closed stdout early (128 + SIGPIPE, what a shell
reports for other writers cut off the same way, as in ``qsym jtable
--n-max 14 | head -1``).  Output is byte-deterministic for fixed flags and
seed.  Each command imports only the modules it uses, inside its handler,
and the parser is filled in for that one command, so a small query starts
fast.

When main runs the process's own command line (called with no argv, as
``python -m qsym.cli`` and the ``qsym`` script call it), its last step on
every exit path, a usage error from argparse included, is gc.freeze().
The collection at interpreter exit then passes over every object tracked
so far, the forked verify parent's among them, whose pages the fork left
shared: it would reclaim only cyclic garbage, which the process's end
frees anyway.  Frozen objects are still freed by reference counting as
the modules are torn down.  The README (Start-up and the module map)
gives the time this saves.  Callers that pass argv keep their collector.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from itertools import groupby
from operator import itemgetter

from .exactpoly import (DEFAULT_CAP, EnumerationCapExceeded, JTableShapeError,
                        UniPoly, json_coeff_list, latex_poly, poly_text)

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

ALL_FORMATS = ["plain", "json", "csv", "latex"]


def _add_ascii(parser):
    parser.add_argument("--ascii", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="render powers as q^2; --no-ascii uses superscripts")


def _add_enumeration(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="cap on the forests or parking functions enumerated")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: every command is registered, but only the one
    argv names gets its arguments.  That is its first word not starting with
    "-", since the top level takes no option with a value."""
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Exact q-analog toolkit: q-Stirling triangles, q-analogs "
                    "of symmetric power-type sums, and tree-inversion / "
                    "parking-function enumerator polynomials with brute-force "
                    "combinatorial certifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_jtable = sub.add_parser("jtable", help="print the J triangle")
    p_verify = sub.add_parser("verify", help="run an identity battery")
    p_query = sub.add_parser("query", help="print one exact object")
    p_export = sub.add_parser("export", help="dump tables to CSV or LaTeX")
    command = next((a for a in argv if not a.startswith("-")), None)
    if command == "jtable":
        p_jtable.add_argument("--n-max", type=int, required=True)
        p_jtable.add_argument("--reciprocal", action="store_true")
        p_jtable.add_argument("--format", choices=ALL_FORMATS, default="plain")
        _add_ascii(p_jtable)
    elif command == "verify":
        p_verify.add_argument("suite", choices=["qstirling", "symfunc", "jpoly",
                                                "oracles", "all"])
        p_verify.add_argument("--n-max", type=int, default=7)
        p_verify.add_argument("--format", choices=["plain", "json"], default="plain")
        _add_enumeration(p_verify)
    elif command == "query":
        p_query.add_argument("kind",
                             choices=["jpoly", "qstirling2", "qstirling1",
                                      "qbinomial", "parking", "forest-stat"])
        p_query.add_argument("--n", type=int)
        p_query.add_argument("--r", type=int)
        p_query.add_argument("--k", type=int)
        p_query.add_argument("--m", type=int)
        p_query.add_argument("--roots", type=str,
                             help="comma-separated root labels, e.g. 1,3")
        p_query.add_argument("--ranking", default="increasing",
                             help="increasing, decreasing, or seeded")
        p_query.add_argument("--variant", choices=["standard", "reciprocal"],
                             default="standard")
        p_query.add_argument("--dump-forests", action="store_true",
                             help="stream accepted forests as JSON lines")
        p_query.add_argument("--format", choices=ALL_FORMATS, default="plain")
        _add_enumeration(p_query)
        _add_ascii(p_query)
    elif command == "export":
        p_export.add_argument("what", choices=["jtable", "stirling"])
        p_export.add_argument("--n-max", type=int, required=True)
        p_export.add_argument("--kind", choices=["first", "second"],
                              default="second", help="stirling triangle kind")
        p_export.add_argument("--reciprocal", action="store_true")
        p_export.add_argument("-o", "--output", default="-",
                              help="output file, - for stdout")
        p_export.add_argument("--format", choices=["csv", "latex"], default="csv")
    return parser


def _render_poly(poly: UniPoly, args) -> str:
    if args.format == "json":
        return poly.to_json()
    if args.format == "latex":
        return f"${latex_poly(poly)}$"
    if args.format == "csv":
        d = poly.degree()
        return f"{d if d is not None else ''},{json_coeff_list(poly)}"
    return poly_text(poly, superscripts=not args.ascii)


def _write_jtable_export(table, args, out):
    """The LaTeX triangle for --format latex, else CSV rows n,r,degree,coeffs."""
    import csv
    from .jpoly import jtable_csv_rows, jtable_latex
    if args.format == "latex":
        out.write(jtable_latex(table, use_reciprocal=args.reciprocal) + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "r", "degree", "coeffs"])
    writer.writerows(jtable_csv_rows(table, use_reciprocal=args.reciprocal))


def _cmd_jtable(args, out) -> int:
    from .jpoly import build_jtable
    table = build_jtable(args.n_max)
    if args.format in ("csv", "latex"):
        _write_jtable_export(table, args, out)
    elif args.format == "json":
        import json
        records = [{"n": n, "r": r, "degree": table.degree(n, r),
                    "poly": poly.to_json_dict()}
                   for n, r, poly in table.entries(args.reciprocal)]
        out.write(json.dumps(records, separators=(",", ":")) + "\n")
    else:
        for n, row in groupby(table.entries(args.reciprocal), key=itemgetter(0)):
            cells = [poly_text(poly, superscripts=not args.ascii)
                     for _n, _r, poly in row]
            out.write(f"n={n}: " + " | ".join(cells) + "\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .report import verify_suite
    report = verify_suite(args.suite, args.n_max, args.seed, args.cap)
    if args.format == "json":
        out.write(report.to_json() + "\n")
    else:
        for line in report.summary_lines():
            out.write(line + "\n")
        if not report.passed:
            import json
            bad = report.first_failure
            out.write("first counterexample: "
                      + json.dumps(bad.to_json_dict(), separators=(",", ":"))
                      + "\n")
    return EXIT_OK if report.passed else EXIT_IDENTITY_FAILURE


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"query requires --{name}")


def _cmd_query(args, out) -> int:
    kind = args.kind
    if kind == "jpoly":
        _require(args, "n", "r")
        from .jpoly import j_degree, j_entry
        poly = j_entry(args.n, args.r)
        if args.variant == "reciprocal":
            poly = poly.reversed_to(j_degree(args.n, args.r))
    elif kind == "qstirling2":
        _require(args, "n", "k")
        from .qstirling import qstirling2
        poly = qstirling2(args.n, args.k)
    elif kind == "qstirling1":
        _require(args, "n", "k")
        from .qstirling import qstirling1
        poly = qstirling1(args.n, args.k)
    elif kind == "qbinomial":
        _require(args, "n", "k")
        from .qcalc import qbinomial
        poly = qbinomial(args.n, args.k)
    elif kind == "parking":
        _require(args, "m", "r")
        from .oracles import parking_enumerator_poly
        poly = parking_enumerator_poly(args.m, args.r, cap=args.cap)
    else:  # forest-stat
        _require(args, "n")
        from .oracles import (_poly_from_counts, forest_enumerator_poly,
                              forest_records, make_ranking)
        if args.roots is not None:
            try:
                roots = tuple(map(int, args.roots.split(",") if args.roots else ()))
            except ValueError:
                raise ValueError("--roots takes comma-separated integer "
                                 f"labels, not {args.roots!r}") from None
            if len(set(roots)) < len(roots):
                raise ValueError(f"--roots repeats a label: {args.roots!r}")
            if args.r not in (None, len(roots)):
                raise ValueError(f"--r {args.r} is not the number of --roots "
                                 f"labels: {args.roots!r}")
        elif args.r is not None:
            roots = tuple(range(1, args.r + 1))
        else:
            raise ValueError("forest-stat requires --roots or --r")
        ranking = make_ranking(args.ranking, seed=args.seed)
        if args.dump_forests:
            counts = {}
            for stat, line in forest_records(args.n, roots, ranking,
                                             variant=args.variant, cap=args.cap):
                out.write(line + "\n")
                counts[stat] = counts.get(stat, 0) + 1
            poly = _poly_from_counts(counts)
        else:
            poly = forest_enumerator_poly(args.n, roots, ranking,
                                          variant=args.variant, cap=args.cap)
    out.write(_render_poly(poly, args) + "\n")
    return EXIT_OK


def _cmd_export(args, out) -> int:
    buf = io.StringIO()
    if args.what == "jtable":
        from .jpoly import build_jtable
        _write_jtable_export(build_jtable(args.n_max), args, buf)
    elif args.format != "csv":
        raise ValueError("export stirling writes CSV only")
    else:
        import csv
        from .qstirling import qstirling1_triangle, qstirling2_triangle
        triangle = (qstirling2_triangle(args.n_max) if args.kind == "second"
                    else qstirling1_triangle(args.n_max))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "coeffs"])
        writer.writerows(triangle.csv_rows())
    if args.output == "-":
        out.write(buf.getvalue())
    else:
        try:
            with open(args.output, "w") as fh:
                fh.write(buf.getvalue())
        except OSError as exc:            # a usage fault, not a failed identity
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from exc
    return EXIT_OK


COMMANDS = {"jtable": _cmd_jtable, "verify": _cmd_verify, "query": _cmd_query,
            "export": _cmd_export}


def main(argv=None, out=None) -> int:
    """Run one command and return its exit code.  With no argv this is the
    process's own command line, and the collector's objects are frozen on
    the way out, whatever the exit (see the module docstring)."""
    if argv is not None:
        return _run(list(argv), out or sys.stdout)
    try:
        return _run(sys.argv[1:], out or sys.stdout)
    finally:
        gc.freeze()


def _run(argv, out) -> int:
    args = build_parser(argv).parse_args(argv)
    try:
        if getattr(args, "n_max", 1) < 1:      # jtable, verify and export
            raise ValueError("--n-max must be >= 1")
        if getattr(args, "cap", 0) < 0:        # verify and query
            raise ValueError("--cap must be >= 0")
        code = COMMANDS[args.command](args, out)
        out.flush()          # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        if out is sys.stdout:
            # Send what is still buffered to devnull, so the flush at
            # interpreter exit does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_BROKEN_PIPE
    except JTableShapeError as exc:       # a failed identity of the triangle
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENTITY_FAILURE
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:                # a fault of the program, not its input
        import traceback
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

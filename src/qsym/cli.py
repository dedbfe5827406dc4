"""Command-line front end.

Commands: jtable (print the triangle), verify (run an identity battery),
query (one exact object), export (CSV / LaTeX dumps).  Each command accepts
only the options it reads.  Exit codes are a stable contract: 0 success, 1 a
mathematical identity failed, 2 usage error (a bad argument, or an output
file that cannot be written), 3 enumeration cap exceeded, 141 the reader
closed stdout early (128 + SIGPIPE, what a shell reports for other writers
cut off the same way, as in ``qsym jtable --n-max 14 | head -1``).  Output
is byte-deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import groupby
from operator import itemgetter

from .exactpoly import UniPoly, json_coeff_list, latex_poly, poly_text
from .qcalc import qbinomial
from .qstirling import (qstirling1, qstirling1_triangle, qstirling2,
                        qstirling2_triangle, stirling_suite_report)
from .symfunc import symfunc_suite_report
from .jpoly import (build_jtable, jpoly_suite_report, jtable_csv_rows,
                    jtable_latex, reciprocal)
from .oracles import (DEFAULT_CAP, EnumerationCapExceeded, _poly_from_counts,
                      forest_enumerator_poly, forest_records, make_ranking,
                      oracle_suite_report, parking_enumerator_poly)

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BROKEN_PIPE = 141

ALL_FORMATS = ["plain", "json", "csv", "latex"]


def _add_ascii(parser):
    parser.add_argument("--ascii", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="render powers as q^2; --no-ascii uses superscripts")


def _add_enumeration(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="enumeration candidate cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsym",
        description="Exact q-analog toolkit: q-Stirling triangles, q-analogs "
                    "of symmetric power-type sums, and tree-inversion / "
                    "parking-function enumerator polynomials with brute-force "
                    "combinatorial certifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_jtable = sub.add_parser("jtable", help="print the J triangle")
    p_jtable.add_argument("--n-max", type=int, required=True)
    p_jtable.add_argument("--reciprocal", action="store_true")
    p_jtable.add_argument("--format", choices=ALL_FORMATS, default="plain")
    _add_ascii(p_jtable)

    p_verify = sub.add_parser("verify", help="run an identity battery")
    p_verify.add_argument("suite",
                          choices=["qstirling", "symfunc", "jpoly", "oracles", "all"])
    p_verify.add_argument("--n-max", type=int, default=7)
    p_verify.add_argument("--format", choices=["plain", "json"], default="plain")
    _add_enumeration(p_verify)

    p_query = sub.add_parser("query", help="print one exact object")
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

    p_export = sub.add_parser("export", help="dump tables to CSV or LaTeX")
    p_export.add_argument("what", choices=["jtable", "stirling"])
    p_export.add_argument("--n-max", type=int, required=True)
    p_export.add_argument("--kind", choices=["first", "second"], default="second",
                          help="stirling triangle kind")
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
    if args.format == "latex":
        out.write(jtable_latex(table, use_reciprocal=args.reciprocal) + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["n", "r", "degree", "coeffs"])
    writer.writerows(jtable_csv_rows(table, use_reciprocal=args.reciprocal))


def _cmd_jtable(args, out) -> int:
    table = build_jtable(args.n_max)
    if args.format in ("csv", "latex"):
        _write_jtable_export(table, args, out)
    elif args.format == "json":
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


def _verify_report(suite: str, n_max: int, seed: int, cap: int):
    if suite == "qstirling":
        return stirling_suite_report(n_max)
    if suite == "symfunc":
        return symfunc_suite_report(min(n_max, 6))
    if suite == "jpoly":
        return jpoly_suite_report(n_max)
    if suite == "oracles":
        return oracle_suite_report(n_max, seed=seed, cap=cap)
    report = stirling_suite_report(n_max)
    report.merge(symfunc_suite_report(min(n_max, 6)))
    report.merge(jpoly_suite_report(n_max))
    report.merge(oracle_suite_report(min(n_max, 7), seed=seed, cap=cap))
    return report


def _cmd_verify(args, out) -> int:
    report = _verify_report(args.suite, args.n_max, args.seed, args.cap)
    if args.format == "json":
        out.write(report.to_json() + "\n")
    else:
        for line in report.summary_lines():
            out.write(line + "\n")
        if not report.passed:
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
        if not (args.n >= args.r >= 1):
            raise ValueError("need n >= r >= 1")
        table = build_jtable(args.n)
        poly = (reciprocal(args.n, args.r, table) if args.variant == "reciprocal"
                else table.entry(args.n, args.r))
    elif kind == "qstirling2":
        _require(args, "n", "k")
        poly = qstirling2(args.n, args.k)
    elif kind == "qstirling1":
        _require(args, "n", "k")
        if args.n < 1:
            raise ValueError("need n >= 1")
        poly = qstirling1(args.n, args.k)
    elif kind == "qbinomial":
        _require(args, "n", "k")
        poly = qbinomial(args.n, args.k)
    elif kind == "parking":
        _require(args, "m", "r")
        poly = parking_enumerator_poly(args.m, args.r, cap=args.cap)
    else:  # forest-stat
        _require(args, "n")
        if args.roots:
            roots = tuple(int(v) for v in args.roots.split(","))
        elif args.r:
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
        _write_jtable_export(build_jtable(args.n_max), args, buf)
    elif args.format != "csv":
        raise ValueError("export stirling writes CSV only")
    else:
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
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n_max", 1) < 1:      # jtable, verify and export
            raise ValueError("--n-max must be >= 1")
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
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Commands: jtable (print the triangle), verify (run an identity battery),
query (one exact object), export (CSV / LaTeX dumps).  Each command, and each
kind of verify, query and export, accepts only the options it reads.  Exit
codes are a stable contract: 0 success, 1 a mathematical identity failed, 2
usage error (a bad argument, or an output file or stdout that cannot be
written), 3 enumeration cap exceeded, 4 an internal error (any other
exception, an OSError not from the output included; its traceback goes
to stderr), 141 the reader closed stdout early (128 + SIGPIPE, what a
shell reports for other writers cut off the same way, as in
``qsym jtable --n-max 14 | head -1``).  Output is byte-deterministic for
fixed flags and seed.  jtable and export jtable write the J triangle row
by row as jpoly.table_chunks computes it by the specialization, so a
failed identity past row 2 exits 1 after the rows before it; export
opens -o only once the first chunk (rows 1 and 2) is made.  Each command
imports only the modules it uses, inside its handler.  A well-formed
command line is read straight from OPTIONS (_well_formed), so a call that
succeeds loads no argparse, and with it no gettext or locale; help and
every usage error go to argparse, whose parser is filled in for the one
command and kind argv names.

When main runs the process's own command line (called with no argv, as
``python -m qsym.cli`` and the ``qsym`` script call it), its last step on
every exit path, a usage error from argparse included, is gc.freeze().
The collection at interpreter exit then passes over every object tracked
so far: it would reclaim only cyclic garbage, which the process's end
frees anyway.  Frozen objects are still freed by reference counting as
the modules are torn down.  The README (Start-up and the module map)
gives the time this saves.  Callers that pass argv keep their collector.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace

from .exactpoly import (DEFAULT_CAP, EnumerationCapExceeded, InexactDivisionError,
                        JTableShapeError, UniPoly, json_coeff_list, latex_poly, poly_text)

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

ALL_FORMATS = ["plain", "json", "csv", "latex"]


def _arg(*flags, **kwargs):
    return flags, kwargs


_N, _R, _K, _M = (_arg(f"--{size}", type=int, required=True) for size in "nrkm")
_N_MAX = _arg("--n-max", type=int, required=True)
_FORMAT = _arg("--format", choices=ALL_FORMATS, default="plain")
_ASCII = _arg("--ascii", action="boolean_optional", default=True,
              help="render powers as q^2; --no-ascii uses superscripts")
_SEED = _arg("--seed", type=int, default=0)
_CAP = _arg("--cap", type=int, default=DEFAULT_CAP,
            help="cap on the forests or parking functions enumerated")
_VARIANT = _arg("--variant", choices=["standard", "reciprocal"],
                default="standard")
_RECIPROCAL = _arg("--reciprocal", action="store_true")
_VERIFY = [_arg("--n-max", type=int, default=7),
           _arg("--format", choices=["plain", "json"], default="plain")]
_EXPORT = [_N_MAX, _arg("-o", "--output", default="-",
                        help="output file, - for stdout")]

# The options each (command, kind) reads, and no others.  The kind is the
# verify suite, the query kind or the export kind; jtable has none.
OPTIONS = {
    ("jtable", None): [_N_MAX, _RECIPROCAL, _FORMAT, _ASCII],
    ("verify", "qstirling"): _VERIFY,
    ("verify", "symfunc"): _VERIFY,
    ("verify", "jpoly"): _VERIFY,
    ("verify", "oracles"): [*_VERIFY, _SEED, _CAP],
    ("verify", "all"): [*_VERIFY, _SEED, _CAP],
    ("query", "jpoly"): [_N, _R, _VARIANT, _FORMAT, _ASCII],
    ("query", "qstirling2"): [_N, _K, _FORMAT, _ASCII],
    ("query", "qstirling1"): [_N, _K, _FORMAT, _ASCII],
    ("query", "qbinomial"): [_N, _K, _FORMAT, _ASCII],
    ("query", "parking"): [_M, _R, _CAP, _FORMAT, _ASCII],
    ("query", "forest-stat"): [
        _N, _arg("--r", type=int),
        _arg("--roots", help="comma-separated root labels, e.g. 1,3"),
        _arg("--ranking", choices=["increasing", "decreasing", "seeded"],
             default="increasing"),
        _VARIANT, _arg("--dump-forests", action="store_true",
                       help="stream accepted forests as JSON lines"),
        _SEED, _CAP, _FORMAT, _ASCII],
    ("export", "jtable"): [
        *_EXPORT, _RECIPROCAL,
        _arg("--format", choices=["csv", "latex"], default="csv")],
    ("export", "stirling"): [
        *_EXPORT, _arg("--kind", choices=["first", "second"], default="second",
                       help="stirling triangle kind"),
        _arg("--format", choices=["csv"], default="csv")],
}
KIND_DEST = {"verify": "suite", "query": "kind", "export": "what"}
# verify_suite takes a seed and a cap for every suite, read or not
VERIFY_DEFAULTS = {"seed": 0, "cap": DEFAULT_CAP}


def _well_formed(argv):
    """The namespace build_parser(argv).parse_args(argv) returns, read
    without argparse when argv is a command, its kind if it has one, then
    only exact flags of OPTIONS[(command, kind)]: each valued flag followed
    by one value that passes its type and choices and does not start with
    "-" unless it is a negative integer, the last of a repeated flag kept,
    and every required option given.  Anything else, help and every usage
    error among it, gives None, and argparse parses argv."""
    command = argv[0] if argv else None
    kind = argv[1] if command in KIND_DEST and len(argv) > 1 else None
    options = OPTIONS.get((command, kind))
    if options is None:
        return None
    args = {"command": command}
    if kind:
        args[KIND_DEST[command]] = kind
    if command == "verify":
        args.update(VERIFY_DEFAULTS)
    flags, required = {}, set()
    for names, kwargs in options:
        dest = names[-1][2:].replace("-", "_")      # the long flag names it
        action = kwargs.get("action")
        args[dest] = kwargs.get("default", False if action == "store_true" else None)
        for name in names:
            flags[name] = dest, kwargs
        if action == "boolean_optional":
            flags["--no-" + names[0][2:]] = dest, kwargs
        if kwargs.get("required"):
            required.add(dest)
    words = iter(argv[2 if kind else 1:])
    for word in words:
        if word not in flags:
            return None
        dest, kwargs = flags[word]
        if "action" in kwargs:          # a switch: it takes no value
            args[dest] = not word.startswith("--no-")
            continue
        value = next(words, "-")        # a missing value fails as "-" does
        if value.startswith("-") and not (value[1:].isascii() and value[1:].isdigit()):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if value not in kwargs.get("choices", [value]):
            return None
        args[dest] = value
        required.discard(dest)
    return None if required else SimpleNamespace(**args)


def build_parser(argv):
    """The argparse parser for argv: every command is registered, but only
    the one argv names gets arguments, and of verify, query and export only
    those its kind reads.  Command and kind are argv's first two words not
    starting with "-", so the kind comes before any option with a value."""
    import argparse

    class KindFirst(argparse.HelpFormatter):
        """Usage as "prog command kind [options]": the kind is in prog, so
        only the options are listed after it."""

        def add_usage(self, usage, actions, groups, prefix=None):
            super().add_usage(usage, [a for a in actions if a.option_strings],
                              groups, prefix)

    class Parser(argparse.ArgumentParser):
        """Help and usage written to stdout go through _Output, as a
        command's output does, so a write error there exits 2 too; argparse
        drops it."""

        def _print_message(self, message, file=None):
            if file is not sys.stdout:
                return super()._print_message(message, file)
            with _Output(file, "stdout"):
                file.write(message)
                file.flush()

    parser = Parser(
        prog="qsym",
        description="Exact q-analog toolkit: q-Stirling triangles, q-analogs "
                    "of symmetric power-type sums, and tree-inversion / "
                    "parking-function enumerator polynomials with brute-force "
                    "combinatorial certifiers.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text, allow_abbrev=False)
                for name, text in [("jtable", "print the J triangle"),
                                   ("verify", "run an identity battery"),
                                   ("query", "print one exact object"),
                                   ("export", "dump tables to CSV or LaTeX")]}
    words = [a for a in argv if not a.startswith("-")] + [None, None]
    command, kind = words[0], words[1] if words[0] in KIND_DEST else None
    if command in KIND_DEST:
        commands[command].add_argument(
            KIND_DEST[command], choices=[k for c, k in OPTIONS if c == command],
            help="comes before its options; add --help after it to list them")
    if command == "verify":
        commands[command].set_defaults(**VERIFY_DEFAULTS)
    for flags, kwargs in OPTIONS.get((command, kind), ()):
        if kwargs.get("action") == "boolean_optional":
            kwargs = dict(kwargs, action=argparse.BooleanOptionalAction)
        commands[command].add_argument(*flags, **kwargs)
    if kind and (command, kind) in OPTIONS:     # usage names the kind first
        commands[command].formatter_class = lambda prog: KindFirst(f"{prog} {kind}")
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


def _cmd_jtable(args, out) -> int:
    from .jpoly import table_chunks
    for chunk in table_chunks(args.n_max, args.format, args.reciprocal,
                              superscripts=not args.ascii):
        out.write(chunk)
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


def _cmd_query(args, out) -> int:
    kind = args.kind
    if kind == "jpoly":
        from .jpoly import j_degree, j_entry
        poly = j_entry(args.n, args.r)
        if args.variant == "reciprocal":
            poly = poly.reversed_to(j_degree(args.n, args.r))
    elif kind == "qstirling2":
        from .qstirling import qstirling2
        poly = qstirling2(args.n, args.k)
    elif kind == "qstirling1":
        from .qstirling import qstirling1
        poly = qstirling1(args.n, args.k)
    elif kind == "qbinomial":
        from .qcalc import qbinomial
        poly = qbinomial(args.n, args.k)
    elif kind == "parking":
        from .oracles import parking_enumerator_poly
        poly = parking_enumerator_poly(args.m, args.r, cap=args.cap)
    else:  # forest-stat
        from .oracles import (forest_enumerator_poly, forest_records,
                              make_ranking, poly_from_counts)
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
            poly = poly_from_counts(counts)
        else:
            poly = forest_enumerator_poly(args.n, roots, ranking,
                                          variant=args.variant, cap=args.cap)
    out.write(_render_poly(poly, args) + "\n")
    return EXIT_OK


def _cmd_export(args, out) -> int:
    # Each chunk is written as soon as it is made, and the first is drawn
    # before -o is opened.  For the J table it holds rows 1 and 2, so a
    # failed identity there leaves no file (one in a later row exits 1 and
    # leaves the rows before it); for a Stirling triangle it is the header,
    # so a path that cannot be written fails before any row is made.
    if args.what == "jtable":
        from .jpoly import table_chunks
        chunks = table_chunks(args.n_max, args.format, args.reciprocal)
    else:
        from .qstirling import export_chunks
        chunks = export_chunks(args.kind, args.n_max)
    first = next(chunks)
    with _Output(None, args.output), (
            nullcontext(out) if args.output == "-" else open(args.output, "w")) as sink:
        sink.write(first)
        for chunk in chunks:
            sink.write(chunk)
    return EXIT_OK


COMMANDS = {"jtable": _cmd_jtable, "verify": _cmd_verify, "query": _cmd_query,
            "export": _cmd_export}


class _Output:
    """A command's output: an OSError in its write or in a with block on it
    is the usage fault "cannot write NAME: REASON", EPIPE aside.  Either way
    what stdout still buffers goes to devnull, so the exit flush passes."""

    def __init__(self, out, name):
        self.out, self.name = out, name

    def write(self, text):
        with self:
            self.out.write(text)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, OSError) and self.out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, OSError) and not isinstance(exc, BrokenPipeError):
            raise ValueError(f"cannot write {self.name}: {exc.strerror}") from exc


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
    out = _Output(out, "stdout")
    try:
        args = _well_formed(argv) or build_parser(argv).parse_args(argv)
        for name, low in (("n_max", 1), ("cap", 0), ("n", 0), ("r", 0),
                          ("k", 0), ("m", 0)):      # every number but --seed
            value = getattr(args, name, None)
            if value is not None and value < low:
                raise ValueError(f"--{name.replace('_', '-')} must be >= {low}")
        code = COMMANDS[args.command](args, out)
        with out:            # a reader gone early shows here, not at exit
            out.out.flush()
        return code
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (JTableShapeError, InexactDivisionError) as exc:   # a failed identity
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

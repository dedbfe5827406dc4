"""The benchmark's workloads: the qsym CLI calls of one round, drawn from a
seed, and the checks every call's output must pass.

A workload is a list of operations.  Each operation is one command line, run
in a fresh ``python -m qsym.cli`` process, and a check that parses its
stdout and tests it against the independent integer references in
``reference.py`` and against properties the objects must have.  A check
returns the work the output carries (coefficients, combinatorial objects,
passing check records) or raises ``CheckFailed``.  Checks of one run share a
context dict, so a later operation can be compared with an earlier one (a
forest enumerator with ``query jpoly`` for the same (n, r)).
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

from reference import Reference


class CheckFailed(Exception):
    """An output that does not parse or violates a checked property."""


@dataclass(frozen=True)
class Op:
    argv: tuple
    check: Callable[[str, dict], dict]


# The two queries kept as failures: the recursive lru_cache recurrences of
# qcalc.qbinomial and qstirling.qstirling2 exceed the interpreter's recursion
# limit near n = 500, and the traceback exits 1, the code the CLI reserves for
# "an identity failed".  Their arguments do not depend on the seed.
KNOWN_FAULT_QUERIES = (("query", "qbinomial", "--n", "500", "--k", "3"),
                       ("query", "qstirling2", "--n", "500", "--k", "3"))

# Counted as bookkeeping or skips, never as checks.
NOT_CHECKS = ("ranking-seeds",)
SKIP_SUFFIX = "-skipped-by-cap"

_TERM = re.compile(r"([+-]?)(\d+)?(q(?:\^(\d+))?)?")


# ---------------------------------------------------------------------------
# parsing and properties


def parse_plain(text: str) -> list:
    """Ascending integer coefficients of a plain-format polynomial such as
    ``2+3q-4q^2``; anything else raises CheckFailed."""
    text = text.strip()
    if text == "0":
        return []
    coeffs, pos = {}, 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        sign, digits, qpart, exp = m.groups()
        if m.end() == pos or (digits is None and qpart is None) or (pos and not sign):
            raise CheckFailed(f"unparsable polynomial near {text[pos:pos + 20]!r}")
        e = 0 if qpart is None else (int(exp) if exp else 1)
        if e in coeffs:
            raise CheckFailed(f"repeated power q^{e}")
        c = int(digits) if digits else 1
        coeffs[e] = -c if sign == "-" else c
        pos = m.end()
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def single_line(stdout: str) -> str:
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise CheckFailed(f"expected one output line, got {len(lines)}")
    return lines[0]


def horner(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def check_j(c, n: int, r: int, ref: Reference):
    """J(n, r): monic, positive integer coefficients, degree
    C(n-1,2) - C(r-1,2), constant term (n-r)!, r n^(n-r-1) forests at q = 1;
    for r = 1 also connected graphs at q = 2 and E_(n-1) at q = -1."""
    tag = f"J({n},{r})"
    require(len(c) - 1 == ref.j_degree(n, r), f"{tag} degree {len(c) - 1}")
    require(c[-1] == 1, f"{tag} not monic")
    require(all(x > 0 for x in c), f"{tag} has a non-positive coefficient")
    require(c[0] == ref.factorial(n - r), f"{tag} constant term {c[0]}")
    require(sum(c) == ref.forest_count(n, r), f"{tag}(1) = {sum(c)}")
    if r == 1:
        require(horner(c, 2) == ref.connected_graphs(n), f"{tag}(2) is not A001187({n})")
        require(horner(c, -1) == ref.zigzag(n - 1), f"{tag}(-1) is not E_{n - 1}")


def check_qbinomial(c, n: int, k: int, ref: Reference):
    tag = f"[{n} {k}]"
    require(len(c) - 1 == k * (n - k), f"{tag} degree {len(c) - 1}")
    require(c == c[::-1], f"{tag} not palindromic")
    require(all(x > 0 for x in c), f"{tag} has a non-positive coefficient")
    require(sum(c) == ref.binomial(n, k), f"{tag}(1) = {sum(c)}")


def check_stirling2(c, n: int, k: int, ref: Reference):
    """Carlitz S_q[n,k]: degree (k-1)(n-k), positive coefficients, constant
    term C(n-1, k-1), value S(n, k) at q = 1."""
    tag = f"S_q[{n},{k}]"
    require(len(c) - 1 == (k - 1) * (n - k), f"{tag} degree {len(c) - 1}")
    require(all(x > 0 for x in c), f"{tag} has a non-positive coefficient")
    require(c[0] == ref.binomial(n - 1, k - 1), f"{tag} constant term {c[0]}")
    require(sum(c) == ref.stirling2(n, k), f"{tag}(1) = {sum(c)}")


def check_stirling1(c, n: int, k: int, ref: Reference):
    tag = f"s_q[{n},{k}]"
    require(bool(c), f"{tag} is zero")
    require(sum(c) == ref.stirling1(n, k), f"{tag}(1) = {sum(c)}")
    if k == n:
        require(c == [1], f"{tag} diagonal is not 1")


def check_parking(c, m: int, r: int, ref: Reference):
    """The parking sum enumerator is J(m+r, r) reversed."""
    check_j(c[::-1], m + r, r, ref)
    require(sum(c) == ref.parking_count(m, r), f"parking({m},{r})(1) = {sum(c)}")


def _in_stratum(rng: random.Random, lo: int, hi: int, i: int, count: int) -> int:
    """A value from the i-th of count equal strata of [lo, hi]."""
    span = hi - lo + 1
    first = span * i // count
    return lo + rng.randrange(first, max(span * (i + 1) // count, first + 1))


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """One value from each of count equal strata of [lo, hi], so every seed
    draws the same spread of sizes."""
    return [_in_stratum(rng, lo, hi, i, count) for i in range(count)]


# ---------------------------------------------------------------------------
# tables: the three exports, large integer polynomials


TABLES_JTABLE_N = 17
TABLES_SECOND_N = 28
TABLES_FIRST_N = 14


def _csv_rows(stdout: str, header: list) -> list:
    rows = list(csv.reader(io.StringIO(stdout)))
    require(bool(rows) and rows[0] == header, "missing CSV header")
    try:
        return [(tuple(int(v) for v in row[:-1]), json.loads(row[-1]))
                for row in rows[1:]]
    except (ValueError, IndexError) as exc:
        raise CheckFailed(f"malformed CSV row: {exc}") from None


def _check_jtable(n_max: int, recip: bool, ref: Reference):
    def check(stdout, ctx):
        rows = _csv_rows(stdout, ["n", "r", "degree", "coeffs"])
        keys = [(n, r) for n in range(1, n_max + 1) for r in range(1, n + 1)]
        require([k[:2] for k, _ in rows] == keys, "jtable rows out of order")
        coeffs = 0
        for (n, r, degree), c in rows:
            require(all(isinstance(x, int) for x in c), f"J({n},{r}) not integral")
            require(degree == ref.j_degree(n, r), f"J({n},{r}) degree column")
            check_j(c[::-1] if recip else c, n, r, ref)
            coeffs += len(c)
        return {"coeffs": coeffs}
    return check


def _check_stirling(kind: str, n_max: int, ref: Reference):
    single = check_stirling2 if kind == "second" else check_stirling1

    def check(stdout, ctx):
        rows = _csv_rows(stdout, ["n", "k", "coeffs"])
        keys = [(n, k) for n in range(1, n_max + 1) for k in range(1, n + 1)]
        require([k for k, _ in rows] == keys, f"{kind}-kind rows out of order")
        table = {}
        for (n, k), c in rows:
            require(all(isinstance(x, int) for x in c), f"{kind}-kind ({n},{k}) not integral")
            single(c, n, k, ref)
            table[n, k] = c
        ctx[kind] = table
        if "first" in ctx and "second" in ctx:
            _check_inverse(ctx["second"], ctx["first"], min(TABLES_SECOND_N, TABLES_FIRST_N))
        return {"coeffs": sum(len(c) for c in table.values())}
    return check


def _check_inverse(second: dict, first: dict, size: int):
    """The first-kind triangle is the inverse of the second-kind one, so the
    integer matrices of their values at q = 2 and q = -1 are inverse."""
    for x in (2, -1):
        big = [[horner(second.get((i, j), []), x) for j in range(1, size + 1)]
               for i in range(1, size + 1)]
        small = [[horner(first.get((i, j), []), x) for j in range(1, size + 1)]
                 for i in range(1, size + 1)]
        for i in range(size):
            for j in range(size):
                got = sum(big[i][l] * small[l][j] for l in range(size))
                require(got == (1 if i == j else 0),
                        f"triangles not inverse at q = {x}, entry ({i + 1},{j + 1})")


def tables(seed: int, ref: Reference) -> list:
    rng = random.Random(seed)
    recip = rng.random() < 0.5
    ops = [Op(("export", "jtable", "--n-max", str(TABLES_JTABLE_N))
              + (("--reciprocal",) if recip else ()),
              _check_jtable(TABLES_JTABLE_N, recip, ref)),
           Op(("export", "stirling", "--kind", "second", "--n-max", str(TABLES_SECOND_N)),
              _check_stirling("second", TABLES_SECOND_N, ref)),
           Op(("export", "stirling", "--kind", "first", "--n-max", str(TABLES_FIRST_N)),
              _check_stirling("first", TABLES_FIRST_N, ref))]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracles: brute-force forest and parking enumerators against query jpoly

# (n, r) shapes of the forest enumerators, each run in both variants, and
# (m, r) shapes of the parking enumerators.  The seed draws only the root
# labels and the ranking seeds, so every seed does the same work.
FOREST_SHAPES = ((7, 1), (7, 2), (8, 3))
PARKING_SHAPES = ((6, 2), (6, 3))


def _check_jpoly_reference(n: int, r: int, ref: Reference):
    def check(stdout, ctx):
        c = parse_plain(single_line(stdout))
        check_j(c, n, r, ref)
        ctx["J", n, r] = c
        return {"coeffs": len(c)}
    return check


def _against_j(c, n: int, r: int, reverse: bool, ctx: dict, what: str):
    expected = ctx.get(("J", n, r))
    require(expected is not None, f"{what}: query jpoly --n {n} --r {r} gave no reference")
    require(c == (expected[::-1] if reverse else expected),
            f"{what} differs from query jpoly --n {n} --r {r}")


def _check_forest(n: int, r: int, variant: str, ref: Reference):
    def check(stdout, ctx):
        c = parse_plain(single_line(stdout))
        require(sum(c) == ref.forest_count(n, r), f"forests({n},{r})(1) = {sum(c)}")
        _against_j(c, n, r, variant == "reciprocal", ctx, f"forest-stat {variant} ({n},{r})")
        return {"coeffs": len(c), "objects": sum(c)}
    return check


def _check_parking_oracle(m: int, r: int, ref: Reference):
    def check(stdout, ctx):
        c = parse_plain(single_line(stdout))
        check_parking(c, m, r, ref)
        _against_j(c, m + r, r, True, ctx, f"parking ({m},{r})")
        return {"coeffs": len(c), "objects": sum(c)}
    return check


def oracles(seed: int, ref: Reference) -> list:
    rng = random.Random(seed)
    shapes = sorted(set(FOREST_SHAPES) | {(m + r, r) for m, r in PARKING_SHAPES})
    references = [Op(("query", "jpoly", "--n", str(n), "--r", str(r)),
                     _check_jpoly_reference(n, r, ref)) for n, r in shapes]
    work = []
    for n, r in FOREST_SHAPES:
        for variant in ("standard", "reciprocal"):
            roots = sorted(rng.sample(range(1, n + 1), r))
            work.append(Op(("query", "forest-stat", "--n", str(n),
                            "--roots", ",".join(map(str, roots)),
                            "--ranking", "seeded", "--seed", str(rng.randrange(1 << 32)),
                            "--variant", variant),
                           _check_forest(n, r, variant, ref)))
    for m, r in PARKING_SHAPES:
        work.append(Op(("query", "parking", "--m", str(m), "--r", str(r)),
                       _check_parking_oracle(m, r, ref)))
    rng.shuffle(work)
    return references + work


# ---------------------------------------------------------------------------
# verify: the certification batteries


def _coverage(records, identity: str, keys: tuple, expected: set):
    got = {tuple(rec.get(k) for k in keys) for rec in records
           if rec.get("identity") == identity}
    require(expected <= got, f"{identity} misses {sorted(expected - got)[:3]}")


def _check_verify(coverage: Callable[[list], None]):
    def check(stdout, ctx):
        try:
            records = json.loads(single_line(stdout))
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"verify output is not JSON: {exc}") from None
        require(isinstance(records, list) and bool(records), "no verify records")
        bad = [rec for rec in records if rec.get("status") != "pass"]
        require(not bad, f"{len(bad)} records not pass, first {bad[:1]}")
        coverage(records)
        checks = sum(1 for rec in records if rec["identity"] not in NOT_CHECKS
                     and not rec["identity"].endswith(SKIP_SUFFIX))
        return {"checks": checks}
    return check


def _triangle(lo_n: int, hi_n: int, lo_k: int, strict: bool = False) -> set:
    return {(n, k) for n in range(lo_n, hi_n + 1)
            for k in range(lo_k, n if strict else n + 1)}


def _cover_all(n_max: int, seed: int):
    def coverage(records):
        _coverage(records, "ranking-seeds", ("seeds",),
                  {(f"{seed},{seed + 1},{seed + 2}",)})
        _coverage(records, "forest-count", ("n", "r"), _triangle(2, n_max, 1, strict=True))
        _coverage(records, "parking-sum-enumerator", ("m", "r"),
                  {(n - r, r) for n, r in _triangle(1, n_max, 1)})
        _coverage(records, "carlitz-qbinomial-expansion", ("n", "k"), _triangle(0, n_max, 0))
        _coverage(records, "table-vs-specialization", ("n", "r"), _triangle(1, n_max, 1))
        _coverage(records, "transfer-second-kind", ("n", "r"), _triangle(1, min(n_max, 6), 1))
    return coverage


def _cover_qstirling(n_max: int):
    def coverage(records):
        for identity in ("carlitz-qbinomial-expansion", "carlitz-inverse-expansion"):
            _coverage(records, identity, ("n", "k"), _triangle(0, n_max, 0))
        _coverage(records, "stirling-triangle-inverse", ("n",),
                  {(n,) for n in range(1, n_max + 1)})
    return coverage


def _cover_jpoly(n_max: int):
    def coverage(records):
        _coverage(records, "table-vs-specialization", ("n", "r"), _triangle(1, n_max, 1))
        _coverage(records, "table-vs-composition-formula", ("n", "r"),
                  _triangle(2, n_max, 1, strict=True))
        _coverage(records, "reciprocal-column-recurrence", ("n", "r"),
                  _triangle(2, n_max, 1, strict=True))
    return coverage


VERIFY_ALL_N = 7
VERIFY_QSTIRLING_N = 12
VERIFY_JPOLY_N = 9


def verify(seed: int, ref: Reference) -> list:
    rng = random.Random(seed)
    battery_seed = rng.randrange(1 << 31)
    ops = [Op(("verify", "all", "--n-max", str(VERIFY_ALL_N), "--seed", str(battery_seed),
               "--format", "json"), _check_verify(_cover_all(VERIFY_ALL_N, battery_seed))),
           Op(("verify", "qstirling", "--n-max", str(VERIFY_QSTIRLING_N), "--format", "json"),
              _check_verify(_cover_qstirling(VERIFY_QSTIRLING_N))),
           Op(("verify", "jpoly", "--n-max", str(VERIFY_JPOLY_N), "--format", "json"),
              _check_verify(_cover_jpoly(VERIFY_JPOLY_N)))]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# queries: interactive single-object lookups

QUERIES_PER_KIND = 16
CHECKERS = {"jpoly": check_j, "qbinomial": check_qbinomial, "qstirling2": check_stirling2,
            "qstirling1": check_stirling1, "parking": check_parking}
# kind, size flag and its moderate range, second flag and its range given the size
QUERY_MENU = (
    ("jpoly", "--n", 4, 14, "--r", lambda n: (1, n)),
    ("qbinomial", "--n", 8, 32, "--k", lambda n: (1, n - 1)),
    ("qstirling2", "--n", 6, 26, "--k", lambda n: (1, n)),
    ("qstirling1", "--n", 3, 11, "--k", lambda n: (1, n)),
    ("parking", "--m", 1, 6, "--r", lambda m: (1, 8 - m)),
)


def _check_query(kind: str, params: tuple, ref: Reference):
    def check(stdout, ctx):
        c = parse_plain(single_line(stdout))
        CHECKERS[kind](c, *params, ref)
        return {"coeffs": len(c), "calls": 1}
    return check


def queries(seed: int, ref: Reference) -> list:
    """QUERIES_PER_KIND lookups of each kind of the menu, plus the two
    known-fault queries.  Sizes are one per stratum of their range; the i-th
    smallest size takes its second parameter from the i-th highest stratum
    of that parameter's range.  A query's cost depends on both, and the
    latency percentiles on which queries sit near them, so the strata are
    matched in this fixed order rather than at random: the seed draws each
    value within its stratum, and a round costs nearly the same for every
    seed."""
    rng = random.Random(seed)
    ops = []
    for kind, size_flag, lo, hi, other_flag, other_range in QUERY_MENU:
        for i, size in enumerate(_strata(rng, lo, hi, QUERIES_PER_KIND)):
            other = _in_stratum(rng, *other_range(size), QUERIES_PER_KIND - 1 - i,
                                QUERIES_PER_KIND)
            ops.append(Op(("query", kind, size_flag, str(size), other_flag, str(other)),
                          _check_query(kind, (size, other), ref)))
    for argv in KNOWN_FAULT_QUERIES:
        ops.append(Op(argv, _check_query(argv[1], (int(argv[3]), int(argv[5])), ref)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"tables": tables, "oracles": oracles, "verify": verify,
             "queries": queries}

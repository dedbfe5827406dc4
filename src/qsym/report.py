"""The identity batteries and the pass/fail records they produce.

A report is a flat list of records, one per checked or skipped instance.
A battery records each comparison as CheckReport.check(identity, lhs, rhs,
**params): it passes when lhs == rhs, and only a fail renders the two
sides, as its detail lhs=... rhs=....  Failure is data, not an exception:
callers inspect .passed and .first_failure.  A skipped instance is neither
a pass nor a failure.
The q-Stirling, J and oracle batteries live here, apart from the objects
they check, so only verify compiles them; each imports its layers as it
runs.  The J and oracle batteries are handed the J table and run to its
n_max; the J routes they compare it with, the exponential specialization
among them, are in jpoly.  The symmetric-function batteries stay in symfunc.

verify_suite is the one plan of the verify suites: which batteries each
runs and in what order, their size caps, the one J table and the one set
of qstirling.carlitz_tables it hands them, and which battery runs in a
forked child; its docstring says.
"""

from __future__ import annotations

import marshal
import os
from math import comb

from .exactpoly import (EnumerationCapExceeded, Frozen, InexactDivisionError,
                        UniPoly, one, powers, q, set_field, zero)
from .qcalc import alternating_binomial_sum, qbracket, qbracket_power_base


class CheckRecord(Frozen):
    # status is "pass", "fail" or "skip"
    __slots__ = ("identity", "status", "params", "detail")

    def __init__(self, identity: str, status: str, params: dict = None,
                 detail: str = ""):
        set_field(self, "identity", identity)
        set_field(self, "status", status)
        set_field(self, "params", {} if params is None else params)
        set_field(self, "detail", detail)

    def to_json_dict(self) -> dict:
        d = {"identity": self.identity}
        d.update(self.params)
        d["status"] = self.status
        if self.detail:
            d["detail"] = self.detail
        return d


class CheckReport:
    """Ordered collection of check records with merge and summary helpers."""

    def __init__(self, records=()):
        self.records = list(records)

    def add_pass(self, identity: str, **params):
        self.records.append(CheckRecord(identity, "pass", params))

    def add_fail(self, identity: str, detail: str = "", **params):
        self.records.append(CheckRecord(identity, "fail", params, detail))

    def add_skip(self, identity: str, **params):
        self.records.append(CheckRecord(identity, "skip", params))

    def check(self, identity: str, lhs, rhs, **params):
        """Record a pass when lhs == rhs, else a fail whose detail is
        lhs=... rhs=...: the computed route first, its reference second.
        Only a fail renders the two sides."""
        if lhs == rhs:
            self.add_pass(identity, **params)
        else:
            self.add_fail(identity, f"lhs={lhs} rhs={rhs}", **params)

    def merge(self, other: "CheckReport") -> "CheckReport":
        self.records.extend(other.records)
        return self

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    @property
    def first_failure(self):
        for r in self.records:
            if r.status == "fail":
                return r
        return None

    def to_json(self) -> str:
        """The records as one compact JSON array, encoded 64 records at a
        time: the encoder's pieces of a whole report would outweigh the
        text, and set the peak memory of a verify call."""
        import json
        records = self.records
        return "[" + ",".join(
            json.dumps([r.to_json_dict() for r in records[i:i + 64]],
                       separators=(",", ":"))[1:-1]
            for i in range(0, len(records), 64)) + "]"

    def summary_lines(self):
        """One line per identity: ok/FAIL/skip, the identity, and passed out of
        all instances; skip marks an identity whose instances all were."""
        by_identity = {}
        for r in self.records:
            by_identity.setdefault(r.identity, []).append(r)
        lines = []
        for name, recs in by_identity.items():
            passes = sum(r.status == "pass" for r in recs)
            if any(r.status == "fail" for r in recs):
                mark = "FAIL"
            elif all(r.status == "skip" for r in recs):
                mark = "skip"
            else:
                mark = "ok  "
            lines.append(f"{mark} {name} ({passes}/{len(recs)} instances)")
        return lines


def _spare_cpu() -> bool:
    """Whether a forked child could run beside this process: os.fork exists
    and the process may run on more than one CPU."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _fork_battery(battery):
    """Fork a child that runs battery() and sends its records back as
    (identity, status, params, detail) tuples, marshalled over a pipe;
    returns the child's pid and the read end as a file.

    The child never writes to stdout.  An exception prints its traceback
    to stderr (fd 2, past the stdio buffers) and the child exits 1.  It
    always leaves by os._exit, so it runs no atexit handler and never
    flushes the stdio buffers it inherited.  If os.fork raises, both ends
    of the pipe are closed before the exception leaves.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:               # no child: neither end is handed on
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            rows = [(r.identity, r.status, r.params, r.detail)
                    for r in battery().records]
            with os.fdopen(wfd, "wb") as pipe:
                marshal.dump(rows, pipe)
            status = 0
        except BaseException:
            import traceback
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, os.fdopen(rfd, "rb")


def run_batteries(batteries, forked: int = -1) -> CheckReport:
    """Merge the reports of the batteries (functions of no arguments), in
    order.

    Where there are at least two and _spare_cpu allows, batteries[forked]
    runs in a forked child while this process runs the others, in order;
    the child's records are merged in that battery's place, so the report is
    the same either way.  verify_suite's docstring says which battery that
    is.  A fault in the child raises ChildProcessError here.  If a battery
    here raises first, the child is killed and reaped before the exception
    leaves.  Fork only from a process with one thread, as the CLI is.
    """
    if len(batteries) < 2 or not _spare_cpu():
        reports = [battery() for battery in batteries]
    else:
        forked %= len(batteries)
        pid, pipe = _fork_battery(batteries[forked])
        try:
            reports = [None if i == forked else battery()
                       for i, battery in enumerate(batteries)]
            data = pipe.read()
        except BaseException:
            import signal
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            pipe.close()
            status = os.waitpid(pid, 0)[1]
        if status:
            raise ChildProcessError(f"the forked battery exited with status "
                                    f"{os.waitstatus_to_exitcode(status)}")
        reports[forked] = CheckReport(CheckRecord(*row)
                                      for row in marshal.loads(data))
    report = CheckReport()
    for part in reports:
        report.merge(part)
    return report


def verify_carlitz_identities(n_max: int, tables: tuple) -> CheckReport:
    """Exactly check the two expansions linking q-binomials to the triangle.

    (i)  [n k] = sum_j C(n,j) (q-1)^(j-k) S[j,k], (q-1)^i = (-1)^i (1-q)^i
    (ii) (1-q)^(n-k) S[n,k] = sum_l (-1)^(l-k) C(n,l) [l k]
    for every 0 <= k <= n <= n_max, tables being qstirling.carlitz_tables(m),
    m >= n_max.  Failures are recorded with the first counterexample, not
    raised.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    report = CheckReport()
    binom, stirling, _first, omq = tables
    for n in range(n_max + 1):
        for k in range(n + 1):
            lhs = binom(n, k)
            rhs = sum(((-1) ** (j - k) * comb(n, j) * omq[j - k]
                       * stirling.entry(j, k) for j in range(k, n + 1)), zero)
            report.check("carlitz-qbinomial-expansion", lhs, rhs, n=n, k=k)
            report.check("carlitz-inverse-expansion",
                         omq[n - k] * stirling.entry(n, k),
                         alternating_binomial_sum(binom, n, k, zero), n=n, k=k)
    return report


def _scaled_inverse_check(identity: str, n_max: int, tables,
                          scale) -> CheckReport:
    """Check, size by size, that the triangles with entries scale[i-j] times
    the second- resp. first-kind numbers are inverse matrices.  Each kind
    comes from its own recurrence, so this compares two independent
    computations.

    Both triangles are lower triangular, so the leading n x n block of
    their product is the product of their leading blocks, and row i of it
    sums over j <= l <= i only.  Size n passes when rows 1..n of the one
    product at n_max are rows of the identity.
    """
    report = CheckReport()
    A, B = ([[scale[i - j] * t.entry(i, j) for j in range(1, i + 1)]
             for i in range(1, n_max + 1)] for t in tables[1:3])
    ok = True
    for i in range(n_max):
        ok = ok and all(sum((A[i][l] * B[l][j] for l in range(j, i + 1)), zero)
                        == (one if i == j else zero) for j in range(i + 1))
        report.check(identity, ok, True, n=i + 1)
    return report


def verify_triangle_inverse(n_max: int, tables: tuple) -> CheckReport:
    """Check that the two triangles are exact matrix inverses, size by size."""
    return _scaled_inverse_check("stirling-triangle-inverse", n_max,
                                 tables, [one] * n_max)


def verify_conjugated_inverse(n_max: int, tables: tuple) -> CheckReport:
    """Check the scaled triangles A and B, with entries (1-q)^(i-j) times the
    second- resp. first-kind numbers, are inverse to each other.

    A is the conjugate of the second-kind triangle by diag((1-q)^(i-1)), so
    this is the matrix form of the transfer identities.
    """
    return _scaled_inverse_check("scaled-triangle-inverse", n_max,
                                 tables, tables[3])


def _row_recurrence_check(identity: str, table, exponent, entry) -> CheckReport:
    """entry(n, r) against the dense sum over j of [r]^j q^exponent(r, m, j)
    C(m, j) entry(m, j), m = n - r, for 1 <= r < n."""
    report = CheckReport()
    for n in range(2, table.n_max + 1):
        for r in range(1, n):
            m = n - r
            br = qbracket(r)
            acc, bpow = zero, one
            for j in range(1, m + 1):
                bpow = bpow * br
                acc = acc + (UniPoly.monomial(exponent(r, m, j), comb(m, j))
                             * bpow * entry(m, j))
            report.check(identity, entry(n, r), acc, n=n, r=r)
    return report


def reciprocal_recurrence_check(table) -> CheckReport:
    """The reciprocal satisfies the horizontal recurrence with coefficients
    [r]^j q^(r (n-r-j)) C(n-r, j) against row n-r of the reciprocal table."""
    from .jpoly import reciprocal
    return _row_recurrence_check("reciprocal-row-recurrence", table,
                                 lambda r, m, j: r * (m - j),
                                 lambda n, r: reciprocal(n, r, table))


def kung_yan_check(table) -> CheckReport:
    """The vertical recurrence down column r of the reciprocal table:
    (1-q)^(n-r) Jbar(n, r) = 1 - sum over l < n of C(n-r, l-r) q^(l(n-l))
    (1-q)^(l-r) Jbar(l, r); coefficients live in Z[q] with signs."""
    from .jpoly import reciprocal
    report = CheckReport()
    omq = powers(one - q, table.n_max)
    for n in range(2, table.n_max + 1):
        for r in range(1, n):
            lhs = omq[n - r] * reciprocal(n, r, table)
            rhs = one - sum((UniPoly.monomial(l * (n - l), comb(n - r, l - r))
                             * omq[l - r] * reciprocal(l, r, table)
                             for l in range(r, n)), zero)
            report.check("reciprocal-column-recurrence", lhs, rhs, n=n, r=r)
    return report


def extended_recurrence_check(table) -> CheckReport:
    """The row recurrence re-summed with dense products, against the table's
    Horner bracket_mul build, for 1 <= r < n.  The j = 0 term J(n - r, 0)
    is zero there; at r = 0 or r = n the sum is the convention itself."""
    return _row_recurrence_check("extended-row-recurrence", table,
                                 lambda r, m, j: comb(j, 2), table.entry)


def specialization_bracket_shift_check(n_max: int) -> CheckReport:
    """p_n^(r) collapses to a scaled r = 1 analog with brackets in base q^r:
    n! p_n^(r) = (1 - q^r) q^C(r,2) C(n, r) P_(n-r), P_m being m! times the
    Hessenberg determinant of symfunc.pn_bracket_determinant in base q^r.
    Along its last row, P_k = (-1)^(k-1) [k]_(q^r) a_k + sum over i < k of
    (-1)^(i-1) C(k, i) a_i P_(k-i): the a's alone, no b."""
    from .jpoly import _shifted_sum, exp_rows, scaled_p_nr
    report = CheckReport()
    b, bracket_p = exp_rows(n_max), {}
    for r in range(1, n_max):
        P = bracket_p[r] = [None]           # P_0 is never read
        for k in range(1, n_max - r + 1):
            P.append(_shifted_sum(
                [((-1) ** (k - 1), comb(k, 2), qbracket_power_base(k, r).coeffs)]
                + [((-1) ** (i - 1) * comb(k, i), comb(i, 2), P[k - i])
                   for i in range(1, k)]))
    for n in range(2, n_max + 1):
        for r in range(1, n):
            lhs, P, s = scaled_p_nr(b, n, r), bracket_p[r][n - r], comb(r, 2)
            rhs = _shifted_sum(((comb(n, r), s, P), (-comb(n, r), s + r, P)))
            report.check("specialization-bracket-shift", lhs, rhs, n=n, r=r)
    return report


def cross_formula_check(table) -> CheckReport:
    """The table against the composition formula (for n > r) and against
    the exponential specialization."""
    from .jpoly import (exp_rows, j_explicit_composition, j_from_scaled_p,
                        scaled_p_nr)
    report = CheckReport()
    n_max = table.n_max
    b = exp_rows(n_max)
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            expected = table.entry(n, r)
            if n > r:
                report.check("table-vs-composition-formula",
                             j_explicit_composition(n, r), expected, n=n, r=r)
            try:
                got = j_from_scaled_p(scaled_p_nr(b, n, r), n, r)
            except InexactDivisionError as exc:     # the claimed divisibility fails
                report.add_fail("table-vs-specialization", str(exc), n=n, r=r)
            else:
                report.check("table-vs-specialization", got, expected, n=n, r=r)
    return report


def reciprocal_composition_forms(m: int, r: int):
    """The two composition sums for the reciprocal of J(m + r, r), one
    composition_sum walk per exponent rule; s is the part sum before a new
    part a and l the last part (r before the first).

    Form one weights a composition u of m by q^(sigma(u) + r(m-u_1)): the
    first part adds 0 and each later one a(s-l) + r a.  Form two prepends
    the root count and uses q^sigma(r, u): each part adds a(r+s-l).
    """
    from .jpoly import composition_sum
    form_one = composition_sum(
        m, r, lambda e, a, l, s: e + a * (s - l) + r * a if s else e)
    form_two = composition_sum(m, r, lambda e, a, l, s: e + a * (r + s - l))
    return UniPoly(form_one), UniPoly(form_two)


def reciprocal_explicit_check(table) -> CheckReport:
    """Both composition sums for the reciprocal against the table's."""
    from .jpoly import reciprocal
    report = CheckReport()
    for n in range(2, table.n_max + 1):
        for r in range(1, n):
            expected = reciprocal(n, r, table)
            acc1, acc2 = reciprocal_composition_forms(n - r, r)
            report.check("reciprocal-composition-formula", acc1, expected,
                         n=n, r=r)
            report.check("reciprocal-rooted-composition-formula", acc2,
                         expected, n=n, r=r)
    return report


def forest_oracle_check(table, shapes, seed: int, cap: int) -> CheckReport:
    """Forest enumerators of the shapes (n, r), in order, against the
    closed-form table and its reciprocals.

    Rankings are the increasing, the decreasing, and three seeded ones
    (seeds seed, seed+1, seed+2).  Root sets are varied with n to exercise
    label independence.  A shape whose forest count exceeds the cap is
    recorded as skipped, not passed.
    """
    from .jpoly import reciprocal
    from .oracles import (DecreasingRanking, IncreasingRanking, SeededRanking,
                          _forest_enumerators)
    report = CheckReport()
    seeds = [seed, seed + 1, seed + 2]
    rankings = [IncreasingRanking(), DecreasingRanking()] + \
        [SeededRanking(s) for s in seeds]
    ranking_names = ["increasing", "decreasing"] + [f"seeded:{s}" for s in seeds]
    for n, r in shapes:
        # rotate the root labels so independence from the label choice
        # is exercised across the suite
        roots = tuple(((r + i + n - 2) % n) + 1 for i in range(r))
        try:
            std, rec = _forest_enumerators(n, roots, rankings,
                                           ("standard", "reciprocal"), cap)
        except EnumerationCapExceeded:
            report.add_skip("forest-oracle-skipped-by-cap", n=n, r=r)
            continue
        for identity, polys, expected in (
                ("forest-level-enumerator", std, table.entry(n, r)),
                ("forest-reciprocal-enumerator", rec, reciprocal(n, r, table))):
            for name, poly in zip(ranking_names, polys):
                report.check(identity, poly, expected, n=n, r=r, ranking=name)
        report.check("forest-count", std[0].evaluate(1), r * n ** (n - r - 1),
                     n=n, r=r)
    return report


def parking_oracle_check(table, cap: int) -> CheckReport:
    """The parking enumerator of every (m, r), m + r <= table.n_max, against
    the reciprocal table; a count past the cap is recorded as skipped."""
    from .jpoly import reciprocal
    from .oracles import parking_enumerator_poly
    report = CheckReport()
    for n in range(1, table.n_max + 1):
        for r in range(1, n + 1):
            m = n - r
            try:
                got = parking_enumerator_poly(m, r, cap)
            except EnumerationCapExceeded:
                report.add_skip("parking-oracle-skipped-by-cap", n=n, r=r)
                continue
            report.check("parking-sum-enumerator", got,
                         reciprocal(n, r, table), m=m, r=r)
    return report


def oracle_batteries(table, seed: int, cap: int) -> list:
    """The oracle battery, forest and parking enumerators against the
    closed-form table, as a list of batteries whose reports, merged in
    order, are its records: a ranking-seeds record, then forest_oracle_check
    of every shape 1 <= r < n <= table.n_max, row by row, then
    parking_oracle_check and reciprocal_explicit_check.

    Where there is a forest shape, the list is cut at the largest one, (n, 1)
    with n = table.n_max, into three: the ranking-seeds record and the
    shapes before it | that walk alone | the shapes after it, the parking
    oracle and the composition forms.  Otherwise it is one battery.
    """
    shapes = [(n, r) for n in range(2, table.n_max + 1) for r in range(1, n)]
    cut = shapes.index((table.n_max, 1)) if shapes else 0

    def head():
        report = CheckReport()
        report.add_pass("ranking-seeds", seeds=f"{seed},{seed + 1},{seed + 2}")
        return report.merge(forest_oracle_check(table, shapes[:cut], seed, cap))

    def tail():
        report = forest_oracle_check(table, shapes[cut + 1:], seed, cap)
        report.merge(parking_oracle_check(table, cap))
        return report.merge(reciprocal_explicit_check(table))

    if not shapes:
        return [lambda: head().merge(tail())]
    return [head, lambda: forest_oracle_check(table, shapes[cut:cut + 1], seed,
                                              cap), tail]


CONJUGATION_N_MAX = 8       # the scaled-triangle inverse check
SYMFUNC_N_MAX = 6           # the symmetric-function batteries
ORACLE_N_MAX = 7            # the oracle battery under verify all


def verify_suite(suite: str, n_max: int, seed: int, cap: int) -> CheckReport:
    """Run verify suite qstirling, symfunc, jpoly, oracles or all (those
    four in order) to n_max, but symfunc to SYMFUNC_N_MAX at most and,
    under all, the oracle battery to ORACLE_N_MAX; seed and cap go to it.

    A suite is a list of batteries in record order, and run_batteries runs
    one of them in a forked child where there are two or more:
    qstirling: the Carlitz expansions | the inverse and conjugated inverse
    checks (forked); jpoly: the cross formulas and the reciprocal's row
    recurrence | its column recurrence, the bracket shift and the extended
    recurrence (forked); oracles: oracle_batteries, cut at the
    largest forest shape (n, 1), whose walk alone is forked; all: the
    batteries of the other four, the (n, 1) walk forked, n =
    min(n_max, ORACLE_N_MAX).  Where the oracle battery has no forest shape
    (n_max 1) it is one battery: all forks its last battery, and symfunc
    and oracles fork nothing.  The J table and carlitz_tables, at the largest
    size read, are built once, before the fork.  Each battery imports its
    layers, and looks up its checks in this module, as it runs.
    """
    if suite in ("jpoly", "oracles", "all"):
        from .jpoly import build_jtable
        table = build_jtable(n_max)
    if suite in ("qstirling", "symfunc", "all"):
        from .qstirling import carlitz_tables
        tables = carlitz_tables(
            min(n_max, SYMFUNC_N_MAX) if suite == "symfunc" else n_max)

    def symfunc_battery():
        from .symfunc import symfunc_suite_report
        return symfunc_suite_report(min(n_max, SYMFUNC_N_MAX), tables)

    def shift_and_recurrences():
        report = kung_yan_check(table)
        report.merge(specialization_bracket_shift_check(n_max))
        return report.merge(extended_recurrence_check(table))

    plan = [("qstirling", lambda: verify_carlitz_identities(n_max, tables)),
            ("qstirling", lambda: verify_triangle_inverse(n_max, tables).merge(
                verify_conjugated_inverse(min(n_max, CONJUGATION_N_MAX),
                                          tables))),
            ("symfunc", symfunc_battery),
            ("jpoly", lambda: cross_formula_check(table).merge(
                reciprocal_recurrence_check(table))),
            ("jpoly", shift_and_recurrences)]
    oracles = []
    if suite in ("oracles", "all"):
        oracles = oracle_batteries(
            table.head(ORACLE_N_MAX) if suite == "all" else table, seed, cap)
    batteries = [battery for name, battery in plan
                 if suite in (name, "all")] + oracles
    # of three oracle batteries the middle one, the (n, 1) walk; else the last
    return run_batteries(batteries, -2 if len(oracles) == 3 else -1)

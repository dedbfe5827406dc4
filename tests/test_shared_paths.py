"""Code paths that share one implementation: BiPoly arithmetic over UniPoly
rows, the J-table writers of jtable and export, the dump of forest-stat, and
the J table and the q-binomial and q-Stirling triangles built once per
verify run and read by one entry rule."""

import io
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

import qsym.cli as cli
import qsym.jpoly as jpoly
import qsym.oracles as oracles
import qsym.qcalc as qcalc
import qsym.qstirling as qstirling
from qsym.exactpoly import DEFAULT_CAP, BiPoly, UniPoly
from qsym.jpoly import build_jtable
from qsym.report import verify_suite


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


# -- BiPoly against a dictionary reference --------------------------------------

def _random_coeff(rng, rational):
    c = rng.randint(-4, 4)
    return Fraction(c, rng.randint(1, 3)) if rational else c


def _random_terms(rng, rational):
    """{(i, j): c} with c != 0, sometimes with an all-zero row or column
    inside the rectangle."""
    h, w = rng.randint(0, 4), rng.randint(0, 4)
    zero_row, zero_col = rng.randrange(h + 1), rng.randrange(w + 1)
    terms = {}
    for i in range(h):
        for j in range(w):
            c = _random_coeff(rng, rational)
            if c and i != zero_row and j != zero_col:
                terms[(i, j)] = c
    return terms


def _bipoly(terms):
    """Build through a padded grid, one column and row wider than needed."""
    h = max((i for i, _ in terms), default=-1) + 2
    w = max((j for _, j in terms), default=-1) + 2
    return BiPoly([[terms.get((i, j), 0) for j in range(w)] for i in range(h)])


def _terms(b: BiPoly):
    return {(i, j): c for i, row in enumerate(b.rows)
            for j, c in enumerate(row) if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return {k: c for k, c in out.items() if c}


def _assert_minimal(b: BiPoly):
    if b.rows:
        assert any(b.rows[-1]), "top row is all zero"
        assert any(row[-1] for row in b.rows), "right column is all zero"
        assert len({len(row) for row in b.rows}) == 1


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
def test_bipoly_matches_dictionary_reference(rational):
    rng = random.Random(20 + rational)
    for _ in range(150):
        ta, tb = _random_terms(rng, rational), _random_terms(rng, rational)
        a, b = _bipoly(ta), _bipoly(tb)
        assert _terms(a) == ta
        results = {
            "add": (a + b, _ref_add(ta, tb)),
            "sub": (a - b, _ref_add(ta, tb, -1)),
            "mul": (a * b, _ref_mul(ta, tb)),
            "scalar": (a * 3 + 1, _ref_add({k: 3 * c for k, c in ta.items()},
                                           {(0, 0): 1})),
        }
        n = rng.randint(0, 3)
        ref_pow = {(0, 0): 1}
        for _ in range(n):
            ref_pow = _ref_mul(ref_pow, ta)
        results["pow"] = (a ** n, ref_pow)
        for name, (got, want) in results.items():
            assert _terms(got) == want, name
            _assert_minimal(got)
        slice_ref = {}
        for (i, j), c in ta.items():
            slice_ref[j] = slice_ref.get(j, 0) + c
        want = UniPoly([slice_ref.get(j, 0)
                        for j in range(max(slice_ref, default=-1) + 1)])
        assert a.at_p_one() == want


def test_bipoly_zero_rows_and_columns_normalize_away():
    b = BiPoly([[0, 0, 0], [0, 5, 0], [0, 0, 0]])
    assert b.rows == ((0, 0), (0, 5))
    assert (b - b).rows == ()
    assert (b * BiPoly()).rows == ()
    assert b ** 0 == BiPoly.constant(1)


# -- one writer for jtable and export -------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "latex"])
@pytest.mark.parametrize("flags", [(), ("--reciprocal",)], ids=["J", "reciprocal"])
def test_jtable_and_export_write_identical_bytes(fmt, flags):
    shown = run("jtable", "--n-max", "6", "--format", fmt, *flags)
    exported = run("export", "jtable", "--n-max", "6", "--format", fmt, *flags)
    assert shown[0] == exported[0] == 0
    assert shown[1] == exported[1] and shown[1]


# -- forest-stat --dump-forests -------------------------------------------------

@pytest.mark.parametrize("variant", ["standard", "reciprocal"])
def test_dump_forests_walks_the_candidates_once(monkeypatch, variant):
    argv = ("query", "forest-stat", "--n", "5", "--roots", "2,4",
            "--ranking", "seeded", "--seed", "3", "--variant", variant)
    _, plain = run(*argv)
    walks = []
    raw = oracles._raw_forests

    def counted(*args):
        walks.append(args)
        return raw(*args)

    monkeypatch.setattr(oracles, "_raw_forests", counted)
    code, dumped = run(*argv, "--dump-forests")
    assert code == 0 and len(walks) == 1
    lines = dumped.splitlines()
    assert lines[-1] + "\n" == plain
    assert len(lines) - 1 == 2 * 5 ** 2          # r n^(n-r-1) forests


# -- the J table is built once per verify run -----------------------------------

def test_verify_all_builds_one_jtable(monkeypatch):
    sizes = []

    def counted(n_max):
        sizes.append(n_max)
        return build_jtable(n_max)

    monkeypatch.setattr(jpoly, "build_jtable", counted)
    code, _ = run("verify", "all", "--n-max", "4")
    assert code == 0 and sizes == [4]
    # above the oracle battery's size under all, it reads the first rows
    sizes.clear()
    code, _ = run("verify", "all", "--n-max", "8")
    assert code == 0 and sizes == [8]


# -- the q-binomial rows and both q-Stirling triangles, once per verify run -----

def test_verify_all_builds_each_triangle_once(monkeypatch):
    builds = []
    triangle_rows = qcalc.triangle_rows

    def counted(weight):            # records the weight and the rows drawn
        drawn = []
        builds.append((weight(3, 2), drawn))
        for row in triangle_rows(weight):
            drawn.append(row)
            yield row

    for module in (qcalc, qstirling):
        monkeypatch.setattr(module, "triangle_rows", counted)
    monkeypatch.delattr(os, "fork")             # every battery in this process
    assert verify_suite("all", 7, 0, DEFAULT_CAP).passed
    # the weight at n = 3, k = 2: q^2 [1] binomial, [2] second, -[2] first kind
    assert Counter(w for w, _ in builds) == {(1, 2): 1, (2, 0, 1): 1,
                                             (2, 0, -1): 1}
    assert all(len(drawn) == 8 for _, drawn in builds)    # rows 0..7


# -- one entry rule for every triangle --------------------------------------------

def _tables():
    binom, second, first, _ = qstirling.carlitz_tables(6)
    return {"qbinomial": binom, "qstirling2": second.entry,
            "qstirling1": first.entry, "jtable": build_jtable(6).entry,
            "jtable-head": build_jtable(8).head(6).entry}


@pytest.mark.parametrize("name", sorted(_tables()))
def test_every_triangle_answers_by_one_rule(name):
    entry = _tables()[name]
    for n in range(-1, 10):
        assert entry(n, -1) == 0 and entry(n, n + 1) == 0 and entry(n, n + 3) == 0
    assert entry(0, 0) == 1
    with pytest.raises(ValueError, match=r"table only covers n <= 6"):
        entry(7, 3)

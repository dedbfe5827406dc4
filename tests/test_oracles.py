"""Brute-force forest and parking certifiers against the closed forms."""

import io
import itertools
import json
from fractions import Fraction
from math import comb

import pytest

import qsym.cli as cli
from qsym.exactpoly import UniPoly, one, zero
from qsym.jpoly import build_jtable, reciprocal
from qsym.oracles import (DecreasingRanking, EnumerationCapExceeded, Forest,
                          IncreasingRanking, SeededRanking, _forest_enumerators,
                          _raw_forests, enumerate_forests,
                          forest_enumerator_poly, forest_enumerator_polys,
                          forest_records, level_statistic, make_ranking,
                          parking_enumerator_poly, reciprocal_level_statistic,
                          sigma_statistic)
from qsym.report import reciprocal_explicit_check

from routes import is_parking_function, prefix_product_parking


def P(*coeffs):
    return UniPoly(coeffs)


# -- rankings ----------------------------------------------------------------

def test_increasing_and_decreasing_ranks():
    subset = (2, 5, 9)
    assert IncreasingRanking().ranks(subset) == {2: 1, 5: 2, 9: 3}
    assert DecreasingRanking().ranks(subset) == {2: 3, 5: 2, 9: 1}


def test_every_ranking_is_a_bijection():
    for ranking in (IncreasingRanking(), DecreasingRanking(),
                    SeededRanking(1), SeededRanking(9999)):
        for subset in ((1,), (3, 4), (1, 2, 5, 8), tuple(range(1, 9))):
            table = ranking.ranks(subset)
            assert sorted(table) == sorted(subset)
            assert sorted(table.values()) == list(range(1, len(subset) + 1))


def test_seeded_ranking_is_bit_exact():
    # frozen expectations pin the shuffle algorithm across platforms
    assert SeededRanking(42).ranks((1, 2, 3, 4, 5)) == {1: 1, 3: 2, 5: 3, 2: 4, 4: 5}
    assert SeededRanking(43).ranks((1, 2, 3, 4, 5)) == {3: 1, 4: 2, 1: 3, 2: 4, 5: 5}
    assert SeededRanking(42).ranks((2, 7)) == {2: 1, 7: 2}


def test_seeded_ranking_is_reproducible():
    # ranks depend on the seed and the subset only, not on the instance
    first, second = SeededRanking(7), SeededRanking(7)
    for subset in ((1, 3, 6), (2,), tuple(range(1, 9))):
        assert first.ranks(subset) == second.ranks(subset)
        assert first.ranks(subset) == first.ranks(subset)


def test_make_ranking():
    assert isinstance(make_ranking("increasing"), IncreasingRanking)
    assert isinstance(make_ranking("decreasing"), DecreasingRanking)
    assert make_ranking("seeded", seed=5).seed == 5
    for kind in ("sideways", "-"):
        with pytest.raises(ValueError):
            make_ranking(kind)


# -- forest enumeration --------------------------------------------------------

def test_three_vertex_forests_by_hand():
    forests = list(enumerate_forests(3, (1,)))
    assert len(forests) == 3
    parents = sorted(tuple(sorted(f.parent.items())) for f in forests)
    assert parents == [
        ((2, 1), (3, 1)),          # the star
        ((2, 1), (3, 2)),          # the path 1 <- 2 <- 3
        ((2, 3), (3, 1)),          # the path 1 <- 3 <- 2
    ]


def test_all_roots_gives_single_empty_forest():
    forests = list(enumerate_forests(4, (1, 2, 3, 4)))
    assert len(forests) == 1
    assert forests[0].parent == {}
    assert forests[0].levels == ((1, 2, 3, 4),)


def test_forest_counts_match_closed_form():
    for n in range(2, 7):
        for r in range(1, n):
            roots = tuple(range(1, r + 1))
            assert sum(1 for _ in enumerate_forests(n, roots)) == r * n ** (n - r - 1)
    assert sum(1 for _ in enumerate_forests(4, (1, 2))) == 8


def test_forest_levels_partition_vertices():
    for f in enumerate_forests(4, (2,)):
        seen = [v for level in f.levels for v in level]
        assert sorted(seen) == [1, 2, 3, 4]
        assert f.levels[0] == (2,)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded) as exc:
        list(enumerate_forests(12, (1,), cap=10_000))
    assert exc.value.projected == 12 ** 10            # r n^(n-r-1) forests


def test_enumerate_forests_streams():
    # the first of 12^10 forests comes at once: the star on root 1, every
    # non-root's first parent choice
    first = next(enumerate_forests(12, (1,), cap=10 ** 12))
    assert first.parent == {v: 1 for v in range(2, 13)}
    assert first.levels == ((1,), tuple(range(2, 13)))


def test_bad_roots_rejected():
    with pytest.raises(ValueError):
        list(enumerate_forests(3, ()))
    with pytest.raises(ValueError):
        list(enumerate_forests(3, (0, 1)))


# -- the pruned walks against the literal product filters -------------------------

def product_filter_forests(n, roots):
    """(parent, depth, levels) for every parent map of the non-roots, in
    product order, kept when every parent chain reaches a root."""
    nonroots = [v for v in range(1, n + 1) if v not in roots]
    for choice in itertools.product(range(1, n + 1), repeat=len(nonroots)):
        parent = [0] * (n + 1)
        for v, p in zip(nonroots, choice):
            parent[v] = p
        depth = [0 if v in roots else None for v in range(n + 1)]
        for v in nonroots:
            chain, x = [], v
            while depth[x] is None and len(chain) <= n:
                chain.append(x)
                x = parent[x]
            if depth[x] is None:                 # the chain went round a cycle
                break
            d = depth[x]
            for u in reversed(chain):
                d += 1
                depth[u] = d
        else:
            levels = tuple(tuple(v for v in range(1, n + 1) if depth[v] == d)
                           for d in range(max(depth[1:]) + 1))
            yield parent, depth[1:], levels


def levels_of(above, n):
    """The levels read off the walk's level masks, indexed by the depth of
    a child (above[d] holds bit v for each vertex v at depth d - 1): above[0]
    is 0, the masks are nonzero down to the deepest level, 0 past it, and
    together cover exactly the vertices 1..n."""
    assert above[0] == 0
    masks = above[1:]
    deepest = sum(1 for mask in masks if mask)
    assert not any(masks[deepest:])
    assert sum(masks) == (1 << (n + 1)) - 2
    return tuple(tuple(v for v in range(1, n + 1) if mask >> v & 1)
                 for mask in masks[:deepest])


def expanded_walk(n, roots):
    """The walk's depth groups expanded into one (parent, depth, levels) per
    forest, each frame's forests put in ascending order of the last
    non-root's parent.  Checks each group on the way: the roots' group
    opens each frame, its members are ascending and share one depth, the
    last non-root's parent is left 0 and its depth is one more, and sizes
    packs the sizes of levels 1, 2, ..."""
    nonroots = [v for v in range(1, n + 1) if v not in roots]
    last = nonroots[-1] if nonroots else 0
    frame = {}

    def visit(parent, depth, above, sizes, group):
        assert (depth[group[0]] == 0) == (not frame)
        levels = levels_of(above, n)
        assert sizes == sum(len(level) << (d * n.bit_length())
                            for d, level in enumerate(levels[1:]))
        assert list(group) == sorted(group)
        assert {depth[p] for p in group} == {depth[group[0]]}
        assert parent[last] == 0
        assert depth[last] == (depth[group[0]] + 1 if nonroots else 0)
        for p in group:
            expanded = list(parent)
            expanded[last] = p
            frame[p] = (expanded, depth[1:], levels)

    for _ in _raw_forests(n, roots, range(n + 1), visit):
        yield from map(frame.pop, sorted(frame))


# every root set up to n = 6, and two at n = 7 for deeper walks
WALK_CASES = [(n, roots) for n in range(1, 7) for r in range(1, n + 1)
              for roots in itertools.combinations(range(1, n + 1), r)]
WALK_CASES += [(7, (2, 6)), (7, (1, 3, 7))]


def test_pruned_forest_walk_matches_product_filter():
    for n, roots in WALK_CASES:
        got = list(expanded_walk(n, roots))
        assert got == list(product_filter_forests(n, roots)), roots
        forests = [Forest(n, roots, {v: parent[v] for v in range(1, n + 1)
                                     if v not in roots}, levels)
                   for parent, _depth, levels in got]
        assert list(enumerate_forests(n, roots)) == forests, roots


def test_some_root_walk_stands_for_every_root_choice():
    # parent 0 is "some root": expanded over its members and over the r^j
    # root choices of its j depth-1 vertices, each group gives its forests,
    # with the depths and levels the walk reports, and together every
    # forest once
    for n, roots in WALK_CASES:
        nonroots = [v for v in range(1, n + 1) if v not in roots]
        last = nonroots[-1] if nonroots else 0
        got = []

        def visit(parent, depth, above, _sizes, group):
            levels = levels_of(above, n)
            assert list(group) == [0] or 0 not in group
            for p in group:
                expanded = list(parent)
                expanded[last] = p
                top = [v for v in nonroots if expanded[v] == 0]
                assert top == sorted(levels[1] if nonroots else ())
                for pick in itertools.product(roots, repeat=len(top)):
                    for v, rt in zip(top, pick):
                        expanded[v] = rt
                    got.append((list(expanded), depth[1:], levels))

        for _ in _raw_forests(n, roots, range(n + 1), visit, some_root=True):
            pass
        want = list(product_filter_forests(n, roots))
        assert sorted(got) == sorted(want), roots


@pytest.mark.parametrize("variant", ["standard", "reciprocal"])
def test_dump_forests_matches_reference_rendering(variant):
    n, roots, ranking = 5, (2, 4), SeededRanking(3)
    statistic = {"standard": level_statistic,
                 "reciprocal": reciprocal_level_statistic}[variant]
    expected = []
    for parent, _depth, levels in product_filter_forests(n, roots):
        forest = Forest(n, roots, {v: parent[v] for v in range(1, n + 1)
                                   if v not in roots}, levels)
        obj = forest.to_json_dict(statistic(forest, ranking))
        expected.append(json.dumps(obj, separators=(",", ":")))
    out = io.StringIO()
    code = cli.main(["query", "forest-stat", "--n", "5", "--roots", "2,4",
                     "--ranking", "seeded", "--seed", "3", "--variant", variant,
                     "--dump-forests"], out=out)
    assert code == 0
    assert out.getvalue().splitlines()[:-1] == expected


def test_sorted_prefix_walk_matches_prefix_product_route():
    for m in range(9):
        for r in range(1, 10 - m):
            assert (parking_enumerator_poly(m, r)
                    == prefix_product_parking(m, r)), (m, r)


def test_parking_walk_matches_literal_filter():
    for m in range(7):
        for r in range(1, 8 - m):
            counts = {}
            for a in itertools.product(range(r + m - 1), repeat=m):
                if is_parking_function(a, r):
                    counts[sum(a)] = counts.get(sum(a), 0) + 1
            expected = UniPoly([counts.get(s, 0)
                                for s in range(max(counts, default=0) + 1)])
            assert parking_enumerator_poly(m, r) == expected, (m, r)


# -- the level statistic ---------------------------------------------------------

def test_level_statistic_hand_cases():
    rho = IncreasingRanking()
    by_parents = {tuple(sorted(f.parent.items())): f
                  for f in enumerate_forests(3, (1,))}
    star = by_parents[((2, 1), (3, 1))]
    path = by_parents[((2, 1), (3, 2))]
    assert level_statistic(star, rho) == 1    # C(2,2) and both parents rank 1
    assert level_statistic(path, rho) == 0    # singleton levels, all weights 1


def test_level_statistic_of_empty_graph():
    (empty,) = enumerate_forests(3, (1, 2, 3))
    assert level_statistic(empty, IncreasingRanking()) == 0
    assert reciprocal_level_statistic(empty, SeededRanking(3)) == 0


def test_statistic_range_bounds_attained():
    table = build_jtable(6)
    rho = IncreasingRanking()
    for n in range(2, 7):
        for r in range(1, n):
            poly = forest_enumerator_poly(n, tuple(range(1, r + 1)), rho)
            bound = comb(n - 1, 2) - comb(r - 1, 2)
            assert poly.degree() == bound          # maximum attained
            assert poly.constant_term() > 0        # minimum 0 attained


# -- packed scoring against the literal per-forest statistics --------------------

def suite_rankings():
    """The increasing, the decreasing and three seeded rankings, as the
    oracle suite uses them."""
    return [IncreasingRanking(), DecreasingRanking(),
            SeededRanking(5), SeededRanking(6), SeededRanking(7)]


def literal_enumerators(n, roots, rankings):
    """Per variant (standard, reciprocal) and ranking, sum q^statistic over
    enumerate_forests by the literal per-forest scorers."""
    counters = [[{} for _ in rankings] for _ in range(2)]
    for forest in enumerate_forests(n, roots):
        for statistic, row in zip((level_statistic, reciprocal_level_statistic),
                                  counters):
            for ranking, counter in zip(rankings, row):
                s = statistic(forest, ranking)
                counter[s] = counter.get(s, 0) + 1
    return [[UniPoly([c.get(s, 0) for s in range(max(c) + 1)]) for c in row]
            for row in counters]


def test_packed_scoring_matches_the_literal_statistics():
    # every root set at n <= 6, (8, {1, 5, 7}), whose five non-roots give
    # the last one up to five depth groups of parents, and (7, {4}) under
    # one ranking, where most groups have one member and nothing hangs
    # under the last non-root
    cases = [(n, roots, suite_rankings()) for n in range(1, 7)
             for r in range(1, n + 1)
             for roots in itertools.combinations(range(1, n + 1), r)]
    cases += [(8, (1, 5, 7), suite_rankings()), (7, (4,), [SeededRanking(11)])]
    for n, roots, rankings in cases:
        got = _forest_enumerators(n, roots, rankings,
                                  ("standard", "reciprocal"), 10 ** 7)
        assert got == literal_enumerators(n, roots, rankings), (n, roots)


def test_adjacent_lanes_at_the_largest_shortfall():
    # With r roots, all n - r non-roots under the root of rank r give the
    # largest shortfall, (n - r)(r - 1); r = 4 makes it largest at n = 7.
    # Both rankings attain it in the low lane, and the lane above must come
    # out as it does alone.
    n, roots = 7, (2, 3, 5, 7)
    increasing, decreasing = IncreasingRanking(), DecreasingRanking()
    alone = [forest_enumerator_poly(n, roots, ranking)
             for ranking in (increasing, decreasing)]
    for ranking in (increasing, decreasing):
        assert max(level_statistic(f, ranking)
                   - sum(comb(u, 2) for u in f.level_sizes()[1:])
                   for f in enumerate_forests(n, roots)) == 3 * 3
    assert forest_enumerator_polys(n, roots, [increasing, decreasing]) == alone
    assert (forest_enumerator_polys(n, roots, [decreasing, increasing])
            == alone[::-1])
    assert alone[0] == alone[1] == build_jtable(n).entry(n, len(roots))


def test_folded_tally_gives_the_per_ranking_polynomials():
    n, roots = 7, (1,)
    rankings = suite_rankings()
    got = _forest_enumerators(n, roots, rankings, ("standard", "reciprocal"),
                              10 ** 7)
    for variant, polys in zip(("standard", "reciprocal"), got):
        assert polys == [forest_enumerator_poly(n, roots, ranking, variant)
                         for ranking in rankings]


# -- enumerator versus the table --------------------------------------------------

def test_enumerator_hand_values():
    assert forest_enumerator_poly(3, (1,), IncreasingRanking()) == P(2, 1)
    assert forest_enumerator_poly(5, (1, 2, 3, 4, 5), IncreasingRanking()) == one
    assert forest_enumerator_poly(4, (3,), DecreasingRanking()) == P(6, 6, 3, 1)


def test_enumerator_matches_table_for_all_rankings():
    table = build_jtable(6)
    rankings = [IncreasingRanking(), DecreasingRanking(),
                SeededRanking(42), SeededRanking(43), SeededRanking(44)]
    for n in range(2, 7):
        for r in range(1, n):
            roots = tuple(range(1, r + 1))
            expected = table.entry(n, r)
            for poly in forest_enumerator_polys(n, roots, rankings):
                assert poly == expected, (n, r)


def test_enumerator_depends_only_on_root_count():
    table = build_jtable(5)
    rho = SeededRanking(4242)
    for roots in ((1, 2), (2, 5), (3, 4), (1, 5)):
        assert forest_enumerator_poly(5, roots, rho) == table.entry(5, 2)
    for roots in ((2,), (4,)):
        assert forest_enumerator_poly(4, roots, rho) == table.entry(4, 1)


def test_reciprocal_variant_matches_reversed_table():
    table = build_jtable(6)
    rankings = [IncreasingRanking(), SeededRanking(7)]
    for n in range(2, 7):
        for r in range(1, n):
            expected = reciprocal(n, r, table)
            for poly in forest_enumerator_polys(n, tuple(range(1, r + 1)),
                                                rankings, "reciprocal"):
                assert poly == expected, (n, r)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        forest_enumerator_poly(3, (1,), IncreasingRanking(), variant="upside-down")


def test_partitioned_enumeration_merges_to_the_same_polynomial():
    # split the candidate space by the first non-root's parent and merge the
    # partial sums: the result must be identical to the single-pass answer
    n, roots = 5, (2,)
    rho = SeededRanking(12)
    first_nonroot = 1
    partials = {}
    for f in enumerate_forests(n, roots):
        bucket = f.parent[first_nonroot]
        s = level_statistic(f, rho)
        partials.setdefault(bucket, []).append(s)
    merged = zero
    for bucket in sorted(partials):
        part = zero
        for s in partials[bucket]:
            part = part + UniPoly.monomial(s)
        merged = merged + part
    assert merged == forest_enumerator_poly(n, roots, rho)


# -- parking functions --------------------------------------------------------------

def test_is_parking_function_examples():
    assert is_parking_function((0, 0), 1)
    assert is_parking_function((0, 1), 1)
    assert not is_parking_function((1, 1), 1)
    assert is_parking_function((), 3)


def test_parking_enumerator_hand_cases():
    assert parking_enumerator_poly(0, 5) == one
    assert parking_enumerator_poly(2, 1) == P(1, 2)
    assert parking_enumerator_poly(2, 2) == P(1, 2, 3, 2)
    assert parking_enumerator_poly(1, 1) == one   # only the sequence (0)


def test_parking_matches_reciprocal_table():
    table = build_jtable(7)
    for n in range(1, 8):
        for r in range(1, n + 1):
            m = n - r
            assert parking_enumerator_poly(m, r) == reciprocal(n, r, table), (m, r)


def test_parking_count_matches_q1():
    for n in range(2, 7):
        for r in range(1, n):
            count = parking_enumerator_poly(n - r, r).evaluate(Fraction(1))
            assert count == r * n ** (n - r - 1)


def test_parking_cap_and_ranges():
    with pytest.raises(EnumerationCapExceeded):
        parking_enumerator_poly(12, 3, cap=1000)
    with pytest.raises(ValueError):
        parking_enumerator_poly(-1, 1)
    with pytest.raises(ValueError):
        parking_enumerator_poly(2, 0)


# -- composition statistics -----------------------------------------------------------

def test_sigma_statistic():
    assert sigma_statistic((4,)) == 0
    assert sigma_statistic((1, 2, 3)) == 3
    assert sigma_statistic((2, 1, 1, 1)) == 2 * 1 + 2 * 1 + 1 * 1
    assert sigma_statistic((3,)) == 0


def test_sigma_with_root_matches_shifted_form():
    # prepending the root count adds r * (total - first part)
    for u in ((1, 1, 2), (3,), (2, 2, 1, 1)):
        for r in (1, 2, 5):
            m = sum(u)
            assert (sigma_statistic((r,) + u)
                    == sigma_statistic(u) + r * (m - u[0]))


def test_reciprocal_explicit_check():
    assert reciprocal_explicit_check(build_jtable(7)).passed
    report = reciprocal_explicit_check(build_jtable(3))
    identities = {r.identity for r in report.records}
    assert identities == {"reciprocal-composition-formula",
                          "reciprocal-rooted-composition-formula"}


# -- streaming ------------------------------------------------------------------------

def test_forest_json_lines():
    lines = [line for _stat, line in forest_records(3, (1,), IncreasingRanking())]
    assert len(lines) == 3
    objs = [json.loads(l) for l in lines]
    assert {"parent", "levels", "stat"} <= set(objs[0])
    star = next(o for o in objs if o["parent"] == {"2": 1, "3": 1})
    assert star["levels"] == [[1], [2, 3]]
    assert star["stat"] == 1
    total = sum(1 for o in objs)
    assert total == 1 * 3 ** (3 - 1 - 1)

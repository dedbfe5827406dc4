"""Independent brute-force certifiers for the J polynomials.

Nothing here reuses the recurrence or the explicit formulas: forests are
generated as raw parent maps filtered by an acyclicity check (not built
level by level, which would mirror the proof structure being certified),
and parking functions as raw value tuples filtered by the sorted-prefix
condition.  Both walks are plain recursive backtracking, a nested function
making one choice, calling itself for the next and undoing its choice,
n - r - 1 calls (forests) or m - 1 calls (parking) deep, at most 7 under
the default cap.  Both prune: a partial parent map is dropped at the first
edge that closes a cycle, and a value prefix that no last value completes
is never visited, its admissible last values being counted directly.  The
cap bounds what is enumerated, the r n^(n-r-1) forests and the
r (r+m)^(m-1) parking functions, not the raw spaces the walks prune.

Both walks share work among objects that provably score alike.  The
parking walk visits only nondecreasing prefixes: a prefix's sorted values
alone decide whether it completes and what it contributes, so each sorted
prefix stands for all of its orderings.  The forest walk stops at the last
non-root v and groups the parents that close no cycle, the vertices of
known depth, by depth: v and the subtree hanging under it take the same
depths under every member of a group, so the group's forests share depths
and level masks and differ only in v's parent.  The scoring walk also takes
the r roots as one parent, "some root": the choice of root changes no depth
and no level mask, only a parent weight, so a forest with j vertices at
depth 1 stands for r^j forests.  _forest_enumerators scores each group once,
for every ranking, by one sum of packed table lookups in two C-level passes,
over each vertex's parent weights and the level masks indexed by its depth,
then adds each member's weight for v's parent and each root choice's.  The
walk hands each group to a visitor and yields after each frame, so the same
walk streams every forest in product order for --dump-forests, which walks
each root and scores by level_statistic and reciprocal_level_statistic, the
literal per-forest scorers.

Agreement of these enumerators with the closed-form polynomials is the
strongest correctness evidence the package produces.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

from .exactpoly import (DEFAULT_CAP, EnumerationCapExceeded, Frozen, UniPoly,
                        one, set_field)


# ---------------------------------------------------------------------------
# rankings: for every subset P of {1..n}, a bijection P -> {1..|P|}

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Ranking:
    """Deterministic per-subset rank assignment."""

    def ranks(self, subset: tuple) -> dict:
        """Map each element of the (ascending) subset tuple to its rank."""
        raise NotImplementedError


class IncreasingRanking(Ranking):
    def ranks(self, subset):
        return {v: i + 1 for i, v in enumerate(subset)}


class DecreasingRanking(Ranking):
    def ranks(self, subset):
        p = len(subset)
        return {v: p - i for i, v in enumerate(subset)}


class SeededRanking(Ranking):
    """Fisher-Yates order driven by a splitmix64 stream.

    The stream is seeded by the ranking seed XOR a fold of the subset, so
    ranks are reproducible bit for bit on any platform: only 64-bit integer
    arithmetic is involved, no platform RNG.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def ranks(self, subset):
        fold = 0
        for v in subset:
            fold = _mix64(fold ^ (v & _MASK64))
        state = self.seed ^ fold
        order = list(subset)
        for i in range(len(order) - 1, 0, -1):
            state = (state + _GAMMA) & _MASK64
            j = _mix64(state) % (i + 1)
            order[i], order[j] = order[j], order[i]
        return {v: i + 1 for i, v in enumerate(order)}


def make_ranking(kind: str, seed: int = 0) -> Ranking:
    if kind == "increasing":
        return IncreasingRanking()
    if kind == "decreasing":
        return DecreasingRanking()
    if kind == "seeded":
        return SeededRanking(seed)
    raise ValueError(f"unknown ranking kind {kind!r}")


# ---------------------------------------------------------------------------
# forests


class Forest(Frozen):
    """Labeled rooted forest on {1..n} with root set roots.

    parent maps every non-root to its parent; levels[i] is the ascending
    tuple of vertices at distance i from the roots, levels[0] being the
    roots themselves.
    """

    __slots__ = ("n", "roots", "parent", "levels")

    def __init__(self, n: int, roots: tuple, parent: dict, levels: tuple):
        set_field(self, "n", n)
        set_field(self, "roots", roots)
        set_field(self, "parent", parent)
        set_field(self, "levels", levels)

    def level_sizes(self) -> tuple:
        return tuple(len(l) for l in self.levels)

    def to_json_dict(self, stat: int) -> dict:
        return {"parent": {str(v): p for v, p in sorted(self.parent.items())},
                "levels": [list(l) for l in self.levels], "stat": stat}


def _check_roots(n: int, roots) -> tuple:
    rs = tuple(sorted(set(roots)))
    if not rs or any(not (1 <= v <= n) for v in rs):
        raise ValueError("roots must be a nonempty subset of {1..n}")
    return rs


def _raw_forests(n: int, roots: tuple, table, visit, some_root: bool = False):
    """Call visit(tags, depth, above, sizes, group) for each depth group of
    acyclic parent maps, and yield after each frame's groups.

    A recursive backtracking walk: walk(i, sizes) gives the i-th non-root
    but the last, v, each parent 1..n in ascending order, calls itself
    for the next non-root, then undoes the edge; the recursion nests
    n - r - 1 calls deep.  A parent is skipped when the edge to it closes a
    cycle, which is when the parent chain from it returns to the child; no
    extension of that branch is acyclic.  Beside each vertex's parent the
    walk keeps its tag, tags[u] = table[parent of u]; with table
    range(n + 1) the tags are the parents.  Depths are kept along the way:
    when the child attaches below a vertex whose depth is known, place
    gives it and the subtree already hanging under it theirs, and unplace
    clears them again.  The level masks are indexed by the depth of a
    child: above[d] has bit u for each vertex u at depth d - 1 (above[0]
    is 0, and so is every entry past the deepest level's children).  sizes
    packs the sizes of levels 1, 2, ..., n.bit_length() bits each.

    Once every non-root but v has a parent (a frame), the parents that close
    no cycle for v are exactly the vertices of known depth: every other
    vertex hangs, through its chain, below v.  They are grouped by depth.
    The forests of one group differ only in v's parent, since v and the
    subtree hanging under it take the same depths whichever member it hangs
    from; so the group shares the depths, v's too, the masks and sizes.
    When nothing hangs under v it is placed inline.  A frame visits its
    groups in ascending depth, the roots' group first, with v's tag
    table[0]; each group lists its members ascending.  Ordering each
    frame's forests by v's parent gives the order of the full product of
    parent choices, the last non-root varying fastest.

    With some_root, each non-root tries 0, "some root", then the non-roots:
    a group stands for its forests over every choice of root at depth 1,
    and the roots' group is (0,).  tags and depth are indexed by vertex;
    slot 0 stands for the missing parent of a root, and for some root, with
    tag table[0] and depth 0.  With no non-root at all, the edgeless forest
    is the one group (0,).  All the arrays are reused: visit keeps a copy
    of anything it holds past the call.
    """
    nonroots = [v for v in range(1, n + 1) if v not in roots]
    k = len(nonroots)
    parent = [0] * (n + 1)          # 0 for a root, some root or no parent yet
    tags = [table[0]] * (n + 1)
    depth = [-1] * (n + 1)
    depth[0] = 0
    above = [0] * (k + 2)           # a forest is at most k levels deep
    for rt in roots:
        depth[rt] = 0
        above[1] |= 1 << rt
    if k == 0:
        visit(tags, depth, above, 0, (0,))
        yield
        return
    size_bits = n.bit_length()
    unit = [0] + [1 << (d * size_bits) for d in range(k)]   # by depth
    children = [[] for _ in range(n + 1)]
    parents = [0] + nonroots if some_root else range(1, n + 1)
    last = nonroots[-1]
    members = {above[1]: [0]} if some_root else {}  # a level mask's vertices

    def place(u, d):    # u at depth d, its subtree below: (placed, sizes)
        placed, added = [u], 0
        depth[u] = d
        for x in placed:
            dx = depth[x]
            above[dx + 1] |= 1 << x
            added += unit[dx]
            for c in children[x]:
                depth[c] = dx + 1
                placed.append(c)
        return placed, added

    def unplace(placed):
        for u in placed:
            above[depth[u] + 1] ^= 1 << u
            depth[u] = -1

    def walk(i, sizes):
        if i == k - 1:
            hangs = children[last]
            for d in range(1, above.index(0, 1)):
                group = members.get(above[d])
                if group is None:
                    group = members[above[d]] = [u for u in range(1, n + 1)
                                                 if above[d] >> u & 1]
                if hangs:
                    placed, added = place(last, d)
                    visit(tags, depth, above, sizes + added, group)
                    unplace(placed)
                else:
                    depth[last] = d
                    above[d + 1] |= 1 << last
                    visit(tags, depth, above, sizes + unit[d], group)
                    above[d + 1] ^= 1 << last
            depth[last] = -1
            yield
            return
        v = nonroots[i]
        for p in parents:
            if depth[p] >= 0:
                placed, added = place(v, depth[p] + 1)
            else:
                # p hangs, through its chain, below an unassigned non-root;
                # the edge v -> p closes a cycle exactly when that is v
                x = p
                while parent[x]:
                    x = parent[x]
                if x == v:
                    continue
                placed, added = (), 0
            parent[v] = p
            tags[v] = table[p]
            children[p].append(v)
            yield from walk(i + 1, sizes + added)
            unplace(placed)
            children[p].pop()
            parent[v] = 0

    yield from walk(0, 0)


def _capped_roots(n: int, roots, cap: int) -> tuple:
    """The checked root set; raises EnumerationCapExceeded when its
    r n^(n-r-1) forests, as many as the parking functions of length n - r
    with offset r, exceed cap."""
    roots = _check_roots(n, roots)
    count = parking_candidates(n - len(roots), len(roots))
    if count > cap:
        raise EnumerationCapExceeded(count, cap)
    return roots


def enumerate_forests(n: int, roots, cap: int = DEFAULT_CAP):
    """Stream every rooted forest on {1..n} with the given root set, in the
    order of the full product of parent choices, the last non-root varying
    fastest."""
    roots = _capped_roots(n, roots, cap)
    nonroots = [v for v in range(1, n + 1) if v not in roots]
    frame = {}          # one frame's forests by the last non-root's parent

    def visit(parent, depth, _above, _sizes, group):
        head = [parent[v] for v in nonroots[:-1]]
        levels = [[] for _ in range(max(depth) + 1)]
        for v in range(1, n + 1):
            levels[depth[v]].append(v)
        levels = tuple(map(tuple, levels))
        for p in group:
            frame[p] = Forest(n, roots, dict(zip(nonroots, head + [p])), levels)

    for _ in _raw_forests(n, roots, range(n + 1), visit):
        yield from map(frame.pop, sorted(frame))


def sigma_statistic(u) -> int:
    """Sum of u_i * u_j over index pairs at distance >= 2."""
    total = 0
    for i in range(len(u)):
        for j in range(i + 2, len(u)):
            total += u[i] * u[j]
    return total


# The level-size part of each variant's statistic; the parent-rank shortfall
# is common to both.
_LEVEL_PARTS = {"standard": lambda sizes: sum(comb(u, 2) for u in sizes[1:]),
                "reciprocal": sigma_statistic}


def _forest_statistic(forest: Forest, ranks, variant: str) -> int:
    """The level part of the variant plus the parent-rank shortfall: the sum
    over non-roots of (ranks(level)[parent] - 1), level the parent's level."""
    depth = {v: i for i, level in enumerate(forest.levels) for v in level}
    rank_tables = [ranks(l) for l in forest.levels]
    shortfall = sum(rank_tables[depth[p]][p] - 1 for p in forest.parent.values())
    return _LEVEL_PARTS[variant](forest.level_sizes()) + shortfall


def level_statistic(forest: Forest, ranking: Ranking) -> int:
    """Inversion-type statistic: sum C(u_i, 2) over non-root levels, plus
    the parent-rank shortfall under the ranking; 0 for the edgeless
    (all-roots) forest.

    Worked arithmetic: a 13-vertex forest with 3 roots and level sizes
    (3, 4, 5, 1) contributes C(4,2) + C(5,2) + C(1,2) = 16 from the level
    sizes; if the ten non-root vertices see parent ranks summing to the
    shortfall (4-1) + 2(1-1) + 3(4-1) + (2-1) + (3-1) + 2(1-1) = 15, the
    statistic is 31.
    """
    return _forest_statistic(forest, ranking.ranks, "standard")


def reciprocal_level_statistic(forest: Forest, ranking: Ranking) -> int:
    """Companion statistic whose enumerator is the reciprocal polynomial:
    the distance-2 product sum of the level sizes (roots included) plus the
    same parent-rank shortfall."""
    return _forest_statistic(forest, ranking.ranks, "reciprocal")


def poly_from_counts(counter: dict) -> UniPoly:
    """The polynomial sum of c q^s over the (s, c) items of counter."""
    coeffs = [0] * (max(counter) + 1 if counter else 0)
    for s, c in counter.items():
        coeffs[s] = c
    return UniPoly(coeffs)


def _levels(n: int, roots: tuple) -> list:
    """Every level a forest on {1..n} with root set roots can have: the
    roots and each nonempty subset of the non-roots, as ascending tuples."""
    nonroots = [v for v in range(1, n + 1) if v not in roots]
    return [roots] + [level for size in range(1, len(nonroots) + 1)
                      for level in itertools.combinations(nonroots, size)]


def _packed_weights(n: int, roots: tuple, rankings):
    """(width, weight): weight[p][mask] packs, for every ranking, the rank
    of vertex p within the level with bitmask mask, less 1.

    Ranking j owns the bits from j * width up.  A forest's shortfall under
    one ranking is below n^2, so the sum of its vertices' weights never
    carries from one lane into the next.  The levels are the root set and
    every nonempty subset of the non-roots; slot 0 maps each, and 0, to 0.
    """
    width = (n * n).bit_length() + 1
    weight = [{0: 0}] + [{} for _ in range(n)]
    for level in _levels(n, roots):
        mask = sum(1 << v for v in level)
        tables = [ranking.ranks(level) for ranking in rankings]
        weight[0][mask] = 0
        for p in level:
            weight[p][mask] = sum((table[p] - 1) << (j * width)
                                  for j, table in enumerate(tables))
    return width, weight


def _forest_enumerators(n: int, roots, rankings, variants, cap: int):
    """Sum q^statistic over all forests for every variant and ranking, in one
    walk of the candidate space.

    Each depth group of the walk is scored once for all rankings, by
    C-level maps with no Python loop over its vertices: with the walk's
    tags[u] = weight[parent of u] and masks by child depth,
    sum(map(dict.__getitem__, tags, map(above.__getitem__, depth))) is
    every ranking's parent-rank shortfall at once, one per lane.  weight[0]
    is 0 at every mask, so slot 0, the roots, some root's children and the
    last non-root add nothing; each member of a group adds its own weight
    for the last non-root's parent.  As the tally folds, a key with j
    vertices at depth 1, its level-1 size, is spread over choices[j]: the
    packed sums of the roots' weights over the r^j root choices.  Forests
    are tallied by (level sizes, packed shortfalls), both packed into one int,
    and after the walk the tally is folded, once, into per-ranking shortfall
    counts for each level-size sequence.  Every variant's statistic is its
    level part plus one lane, so the polynomials are read off those counts
    at the end.  Returns one list of polynomials per variant, each indexed
    like rankings.
    """
    roots = _capped_roots(n, roots, cap)
    width, weight = _packed_weights(n, roots, rankings)
    lane = (1 << width) - 1
    # A key holds the shortfall lanes in its low bits and, above them, the
    # walk's sizes: levels 1, 2, ..., size_bits bits each.
    low = width * len(rankings)
    k = n - len(roots)              # the non-roots fill at most k levels
    size_bits = n.bit_length()
    size_mask = (1 << size_bits) - 1
    picks = [weight[rt][sum(1 << v for v in roots)] for rt in roots]
    choices = [{0: 1}]      # choices[j]: {packed sum: ways to pick j roots}
    for _ in range(k):
        step = {}
        for s, c in choices[-1].items():
            for w in picks:
                step[s + w] = step.get(s + w, 0) + c
        choices.append(step)

    tally = {}
    lookup = dict.__getitem__

    def visit(tags, depth, above, sizes, group):
        base = (sum(map(lookup, tags, map(above.__getitem__, depth)))
                + (sizes << low))
        mask = above[depth[group[0]] + 1]
        for p in group:
            key = base + weight[p][mask]
            tally[key] = tally.get(key, 0) + 1

    for _ in _raw_forests(n, roots, weight, visit, some_root=True):
        pass
    shortfalls = {}     # key >> low -> per ranking, {shortfall: count}
    for key, count in tally.items():
        lanes = shortfalls.get(key >> low)
        if lanes is None:
            lanes = shortfalls[key >> low] = [{} for _ in rankings]
        for w, c in choices[key >> low & size_mask].items():
            part, c = key + w, count * c
            for counter in lanes:
                s = part & lane
                counter[s] = counter.get(s, 0) + c
                part >>= width
    polys = []
    for variant in variants:
        counts = [{} for _ in rankings]
        for code, lanes in shortfalls.items():
            sizes = [len(roots)] + [code >> (d * size_bits) & size_mask
                                    for d in range(k)]
            part = _LEVEL_PARTS[variant](sizes)
            for counter, lane_counts in zip(counts, lanes):
                for s, count in lane_counts.items():
                    counter[part + s] = counter.get(part + s, 0) + count
        polys.append([poly_from_counts(counter) for counter in counts])
    return polys


def forest_enumerator_polys(n: int, roots, rankings, variant: str = "standard",
                            cap: int = DEFAULT_CAP):
    """Sum q^statistic over all forests, once per ranking, in a single pass.

    variant "standard" uses the level statistic, "reciprocal" the companion
    statistic; the returned polynomials are indexed like rankings.
    """
    if variant not in _LEVEL_PARTS:
        raise ValueError(f"unknown variant {variant!r}")
    return _forest_enumerators(n, roots, rankings, (variant,), cap)[0]


def forest_enumerator_poly(n: int, roots, ranking: Ranking,
                           variant: str = "standard",
                           cap: int = DEFAULT_CAP) -> UniPoly:
    return forest_enumerator_polys(n, roots, [ranking], variant, cap)[0]


# ---------------------------------------------------------------------------
# parking functions


def parking_candidates(m: int, r: int) -> int:
    """The r (r+m)^(m-1) = r (r+m)^m / (r+m) parking functions --cap counts."""
    return r * (r + m) ** m // (r + m)


def parking_enumerator_poly(m: int, r: int, cap: int = DEFAULT_CAP) -> UniPoly:
    """Sum of q^(a_1 + ... + a_m) over parking functions with offset r.

    Runs through the nondecreasing prefixes b of the first m - 1 values,
    each of which stands for its (m-1)! / prod_v c_v! orderings, c_v the
    number of times v occurs.  The walk keeps b_j <= r + j (0-based j), the
    sorted condition, so it visits exactly the prefixes that some last
    value completes.  They are completed exactly by the last values
    0..t-1, where t = r + f for the first position f with b_f = r + f, and
    t = r + m - 1 if there is none; lowering a value never breaks the sorted
    condition, so they form an initial segment.  Every ordering of b has
    the same sum and the same t, so b adds its ordering count to the
    coefficients from q^sum(b) to q^(sum(b)+t-1), one difference-array
    entry at each end.  walk(j, low, total, denom, run, t) tries each value
    b_j from low = b_(j-1) up and calls itself for position j + 1,
    carrying the sum of b[:j], its product of run-length factorials, the
    length of its last run and its t; the recursion nests m - 1 calls
    deep.  The cap counts the parking functions, and the empty case m = 0
    contributes the empty sum 1.
    """
    if m < 0 or r < 1:
        raise ValueError("need m >= 0 and r >= 1")
    projected = parking_candidates(m, r)
    if projected > cap:
        raise EnumerationCapExceeded(projected, cap)
    if m == 0:
        return one
    k = m - 1
    full = r + m - 1
    orderings = factorial(k)
    diff = [0] * (m * (full - 1) + 2)

    def walk(j, low, total, denom, run, t):
        if j == k:
            w = orderings // denom
            diff[total] += w
            diff[total + t] -= w
            return
        for v in range(low, r + j + 1):
            step = run + 1 if v == low else 1
            walk(j + 1, v, total + v, denom * step, step,
                 r + j if t == full and v == r + j else t)

    walk(0, 0, 0, 1, 0, full)
    return UniPoly(list(itertools.accumulate(diff[:-1])))


def forest_records(n: int, roots, ranking: Ranking,
                   variant: str = "standard", cap: int = DEFAULT_CAP):
    """(statistic, JSON object) per accepted forest, the object carrying
    the statistic too; each possible level is ranked once, up front."""
    import json
    roots = _capped_roots(n, roots, cap)
    ranks = {level: ranking.ranks(level) for level in _levels(n, roots)}
    for forest in enumerate_forests(n, roots, cap):
        stat = _forest_statistic(forest, ranks.__getitem__, variant)
        yield stat, json.dumps(forest.to_json_dict(stat), separators=(",", ":"))

"""Reference values computed apart from qsym, in pure integer arithmetic.

Nothing here imports qsym.  Each sequence is built by a classical rule that
shares no code with the package's recurrences, and ``self_test`` checks it
against published initial terms before any benchmark run uses it:

* connected labeled graphs on n vertices (OEIS A001187), equal to the
  tree-inversion enumerator at q = 2, i.e. J(n, 1)(2) (Mallows & Riordan,
  1968);
* Euler zigzag numbers by the boustrophedon (Seidel-Entringer) rule
  (OEIS A000111), equal to J(n, 1)(-1) = E_(n-1) (Kreweras, 1980);
* rooted-forest counts r n^(n-r-1) and parking-function counts
  r (m+r)^(m-1), the values at q = 1 of J(n, r) and of its reversal;
* Stirling numbers of the second kind (A008277) and signed Stirling numbers
  of the first kind (A008275), the q = 1 rows of the two q-Stirling
  triangles;
* binomial coefficients from Pascal's rule, the q = 1 value of the Gaussian
  binomial.

Run ``python3 bench/reference.py`` to execute the self-test alone.
"""

from __future__ import annotations

import sys

# Published initial terms, OEIS offsets: A001187 and A000111 start at n = 0;
# A008277 and A008275 are read by rows n = 1, 2, ... with 1 <= k <= n.
A001187 = (1, 1, 1, 4, 38, 728, 26704, 1866256, 251548592, 66296291072,
           34496488594816)
A000111 = (1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765,
           22368256, 199360981)
A008277 = (1, 1, 1, 1, 3, 1, 1, 7, 6, 1, 1, 15, 25, 10, 1, 1, 31, 90, 65, 15,
           1, 1, 63, 301, 350, 140, 21, 1, 1, 127, 966, 1701, 1050, 266, 28, 1)
A008275 = (1, -1, 1, 2, -3, 1, -6, 11, -6, 1, 24, -50, 35, -10, 1, -120, 274,
           -225, 85, -15, 1, 720, -1764, 1624, -735, 175, -21, 1)
PASCAL_ROW_10 = (1, 10, 45, 120, 210, 252, 210, 120, 45, 10, 1)


class Reference:
    """Memoized integer tables, extended on demand."""

    def __init__(self):
        self._pascal = [[1]]
        self._stirling2 = [[1]]          # S(n, k), row n, 0 <= k <= n
        self._stirling1 = [[1]]          # signed s(n, k)
        self._connected = [1]
        self._zigzag = [1]
        self._seidel_row = [1]           # last row of the boustrophedon
        self._factorial = [1]

    def binomial(self, n: int, k: int) -> int:
        if k < 0 or n < 0 or k > n:
            return 0
        rows = self._pascal
        while len(rows) <= n:
            prev = rows[-1]
            rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
        return rows[n][k]

    def factorial(self, n: int) -> int:
        f = self._factorial
        while len(f) <= n:
            f.append(f[-1] * len(f))
        return f[n]

    def stirling2(self, n: int, k: int) -> int:
        """S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
        if k < 0 or k > n:
            return 0
        rows = self._stirling2
        while len(rows) <= n:
            prev = rows[-1] + [0]
            rows.append([j * prev[j] + (prev[j - 1] if j >= 1 else 0)
                         for j in range(len(prev))])
        return rows[n][k]

    def stirling1(self, n: int, k: int) -> int:
        """Signed s(n, k) = s(n-1, k-1) - (n-1) s(n-1, k)."""
        if k < 0 or k > n:
            return 0
        rows = self._stirling1
        while len(rows) <= n:
            m = len(rows)
            prev = rows[-1] + [0]
            rows.append([(prev[j - 1] if j >= 1 else 0) - (m - 1) * prev[j]
                         for j in range(len(prev))])
        return rows[n][k]

    def connected_graphs(self, n: int) -> int:
        """Connected labeled graphs on n vertices: all graphs minus those
        whose vertex 1 lies in a component of size k < n."""
        c = self._connected
        while len(c) <= n:
            m = len(c)
            total = 1 << (m * (m - 1) // 2)
            for k in range(1, m):
                total -= self.binomial(m - 1, k - 1) * c[k] * (1 << ((m - k) * (m - k - 1) // 2))
            c.append(total)
        return c[n]

    def zigzag(self, n: int) -> int:
        """Euler zigzag number E_n by the boustrophedon (Seidel) triangle:
        each row is the running sums of the previous row read backwards,
        and E_n is the last entry of row n."""
        z, row = self._zigzag, self._seidel_row
        while len(z) <= n:
            nxt = [0]
            for v in reversed(row):
                nxt.append(nxt[-1] + v)
            row = nxt
            z.append(row[-1])
        self._seidel_row = row
        return z[n]

    @staticmethod
    def forest_count(n: int, r: int) -> int:
        """Rooted forests on n labeled vertices with r given roots."""
        return 1 if r == n else r * n ** (n - r - 1)

    @staticmethod
    def parking_count(m: int, r: int) -> int:
        """Parking functions of length m with r extra spots."""
        return 1 if m == 0 else r * (m + r) ** (m - 1)

    def j_degree(self, n: int, r: int) -> int:
        return self.binomial(n - 1, 2) - self.binomial(r - 1, 2)


def _rows(flat):
    """Split a triangle read by rows (row n has n entries) into its rows."""
    out, i = [], 0
    while i < len(flat):
        out.append(flat[i:i + len(out) + 1])
        i += len(out)
    return out


def self_test(ref: Reference | None = None) -> list:
    """Compare every sequence with its published initial terms; return the
    list of mismatches (empty when all agree)."""
    ref = ref or Reference()
    bad = []
    for n, want in enumerate(A001187):
        if ref.connected_graphs(n) != want:
            bad.append(f"A001187({n})")
    for n, want in enumerate(A000111):
        if ref.zigzag(n) != want:
            bad.append(f"A000111({n})")
    for n, row in enumerate(_rows(A008277), start=1):
        if [ref.stirling2(n, k) for k in range(1, n + 1)] != list(row):
            bad.append(f"A008277 row {n}")
    for n, row in enumerate(_rows(A008275), start=1):
        if [ref.stirling1(n, k) for k in range(1, n + 1)] != list(row):
            bad.append(f"A008275 row {n}")
    if [ref.binomial(10, k) for k in range(11)] != list(PASCAL_ROW_10):
        bad.append("Pascal row 10")
    # counting identities the two closed forms must satisfy at small sizes
    if [ref.forest_count(n, 1) for n in range(1, 6)] != [1, 1, 3, 16, 125]:
        bad.append("forest counts n^(n-2)")
    if [ref.parking_count(m, 1) for m in range(0, 5)] != [1, 1, 3, 16, 125]:
        bad.append("parking counts (m+1)^(m-1)")
    return bad


if __name__ == "__main__":
    mismatches = self_test()
    if mismatches:
        print("reference self-test FAILED: " + ", ".join(mismatches))
        sys.exit(1)
    print("reference self-test passed")

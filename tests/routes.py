"""Earlier routes to the J table and the first-kind q-Stirling triangle,
kept for the tests as references: dense polynomial products throughout, no
bracket_mul window sums and no triangle_rows.  And the literal parking
condition that the pruned parking walk is tested against."""

from math import comb

from qsym.exactpoly import UniPoly, one, zero
from qsym.qcalc import qbracket


def dense_jtable(n_max: int) -> dict:
    """{(n, r): J(n, r)} for 1 <= r <= n <= n_max, each entry the sum
    J(n, r) = sum_j [r]^j q^C(j,2) C(n-r, j) J(n-r, j) of dense products."""
    j = {}
    for n in range(1, n_max + 1):
        j[n, n] = one
        for r in range(1, n):
            m = n - r
            acc, bpow = zero, one
            for i in range(1, m + 1):
                bpow = bpow * qbracket(r)
                acc = acc + UniPoly.monomial(comb(i, 2), comb(m, i)) * bpow * j[m, i]
            j[n, r] = acc
    return j


def substituted_first_kind(n_max: int) -> list:
    """s[n-1][k-1] for 1 <= k <= n <= n_max: the lower-triangular inverse of
    the second-kind triangle S[n,k] = S[n-1,k-1] + [k] S[n-1,k], solved by
    forward substitution, s[n,n] = 1 and s[n,k] = -sum_(k<=j<n) S[n,j] s[j,k]."""
    second = [[one]]                      # S[n][k] for 0 <= k <= n
    for n in range(1, n_max + 1):
        prev = second[-1] + [zero]
        second.append([zero] + [prev[k - 1] + qbracket(k) * prev[k]
                                for k in range(1, n + 1)])
    s = [[zero] * n_max for _ in range(n_max)]
    for n in range(1, n_max + 1):
        s[n - 1][n - 1] = one
        for k in range(n - 1, 0, -1):
            acc = zero
            for j in range(k, n):
                acc = acc + second[n][j] * s[j - 1][k - 1]
            s[n - 1][k - 1] = -acc
    return [row[:n] for n, row in enumerate(s, 1)]


def is_parking_function(a, r: int) -> bool:
    """The i-th smallest value must be below r + i - 1 (1-based i)."""
    b = sorted(a)
    return all(b[i] < r + i for i in range(len(b)))

"""Reference numbers computed apart from the ``multinumbers`` package.

Textbook recurrences on plain integers and Fractions; nothing here imports
the program under test, so a check that compares the program's output with
these values cannot be passed by a bug the two share.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def stirling1_rows(n_max: int) -> list[list[int]]:
    """Unsigned Stirling numbers of the first kind [n; k] for n <= n_max.

    [n+1; k] = n [n; k] + [n; k-1], with [0; 0] = 1.
    """
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([n * prev[k] + (prev[k - 1] if k else 0) for k in range(n + 2)])
    return rows


def stirling2_rows(n_max: int) -> list[list[int]]:
    """Stirling numbers of the second kind {n; k} for n <= n_max.

    {n+1; k} = k {n; k} + {n; k-1}, with {0; 0} = 1.
    """
    rows = [[1]]
    for n in range(n_max):
        prev = rows[-1] + [0]
        rows.append([k * prev[k] + (prev[k - 1] if k else 0) for k in range(n + 2)])
    return rows


def lah_rows(n_max: int) -> list[list[int]]:
    """Unsigned Lah numbers L(n, k) = sum_j [n; j] {j; k} for n <= n_max."""
    first = stirling1_rows(n_max)
    second = stirling2_rows(n_max)
    return [
        [sum(first[n][j] * second[j][k] for j in range(k, n + 1)) for k in range(n + 1)]
        for n in range(n_max + 1)
    ]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n_max with B_1 = -1/2.

    sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1.
    """
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def bernoulli_order2(n_max: int) -> list[Fraction]:
    """Order-2 Bernoulli numbers, the EGF coefficients of (t/(e^t - 1))^2.

    The square of an EGF is the binomial convolution of its coefficients.
    """
    b = bernoulli_numbers(n_max)
    return [sum(comb(n, k) * b[k] * b[n - k] for k in range(n + 1)) for n in range(n_max + 1)]


def ordered_bell(n_max: int) -> list[int]:
    """Ordered Bell numbers a(0..n_max): a(n) = sum_{k=1}^{n} C(n, k) a(n-k).

    They are the raw moments of the geometric law that counts failures
    before the first success at success probability 1/2.
    """
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a

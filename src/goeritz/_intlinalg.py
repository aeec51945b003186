"""Exact integer matrix helpers.

Matrices are immutable tuples of row tuples of plain Python ints (arbitrary
precision).  Rational solutions come back fraction-free, as an integer
numerator matrix over one common denominator.  Everything here is exact; no
floating point appears anywhere in the package.
"""

from __future__ import annotations

import math
import operator

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(r) for r in rows)


def shape(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(r: int, c: int) -> IntMatrix:
    return tuple((0,) * c for _ in range(r))


def transpose(a) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a
    )


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def scale(s, a):
    return tuple(tuple(s * x for x in row) for row in a)


def require_ints(values, what: str) -> None:
    """ValueError unless every value is exactly an int: not bool, float, str."""
    bad = sorted(t.__name__ for t in set(map(type, values)) - {int})
    if bad:
        raise ValueError(f"{what}: only integers are allowed, got {bad[0]}")


def is_symmetric(a) -> bool:
    n, m = shape(a)
    return n == m and all(a[i][j] == a[j][i] for i in range(n) for j in range(i))


def is_permutation_matrix(a) -> bool:
    n, m = shape(a)
    if n != m:
        return False
    return all(sorted(row) == [0] * (n - 1) + [1] for row in a) and all(
        sorted(col) == [0] * (n - 1) + [1] for col in zip(*a)
    )


def permutation_images(a) -> tuple[int, ...]:
    """Images of the permutation matrix a: column i has its 1 in row p(i)."""
    if not is_permutation_matrix(a):
        raise ValueError("not a permutation matrix")
    return tuple(col.index(1) for col in zip(*a))


def permutation_order(images) -> int:
    """Order of the permutation i -> images[i]: the lcm of its cycle lengths."""
    order, seen = 1, set()
    for start in range(len(images)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = images[i], length + 1
        order = math.lcm(order, length or 1)
    return order


def matrix_power_order(a) -> int:
    """Order of a permutation matrix; ValueError for any other matrix."""
    return permutation_order(permutation_images(a))


def preserves_form(images, g) -> bool:
    """True iff g[p(i)][p(j)] == g[i][j] for all i, j, where p(i) = images[i]."""
    if len(images) != len(g):
        raise ValueError("permutation and form have different sizes")
    return all(
        [g[pi][pj] for pj in images] == list(row) for row, pi in zip(g, images)
    )


def leading_principal_minors(a) -> list[int]:
    """Leading principal minors d_1, d_2, ... of a symmetric integer matrix,
    up to and including the first zero: the pivots of one fraction-free
    Bareiss pass without row swaps.  Every stage of the elimination stays
    symmetric, so only the upper triangle is updated (mat[k][i] = mat[i][k])."""
    n = len(a)
    mat = [list(row) for row in a]
    minors, prev = [], 1
    for k in range(n):
        piv = mat[k][k]
        minors.append(piv)
        if piv == 0:
            break
        row_k = mat[k]
        for i in range(k + 1, n):
            f = row_k[i]
            mat[i][i:] = [
                (x * piv - f * y) // prev for x, y in zip(mat[i][i:], row_k[i:])
            ]
        prev = piv
    return minors


def kernel_basis(a) -> IntMatrix:
    """Z-basis of the integer kernel {v : a @ v = 0}, as columns of a matrix.

    The returned lattice is automatically saturated in Z^n.  Computed by
    integer column reduction of `a` while tracking the unimodular column
    transform.
    """
    m, n = shape(a)
    cols = [[a[i][j] for i in range(m)] for j in range(n)]
    w = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # w[j] = col j
    lead = 0
    for row in range(m):
        # gcd-eliminate entries of this row across columns lead..n-1
        while True:
            piv = None
            for j in range(lead, n):
                if cols[j][row] != 0 and (
                    piv is None or abs(cols[j][row]) < abs(cols[piv][row])
                ):
                    piv = j
            if piv is None:
                break
            cols[lead], cols[piv] = cols[piv], cols[lead]
            w[lead], w[piv] = w[piv], w[lead]
            done = True
            for j in range(lead + 1, n):
                if cols[j][row] != 0:
                    q = cols[j][row] // cols[lead][row]
                    for i in range(m):
                        cols[j][i] -= q * cols[lead][i]
                    for i in range(n):
                        w[j][i] -= q * w[lead][i]
                    if cols[j][row] != 0:
                        done = False
            if done:
                lead += 1
                break
    kernel_cols = [w[j] for j in range(lead, n)]
    return tuple(tuple(col[i] for col in kernel_cols) for i in range(n))


def column_hnf(a) -> IntMatrix:
    """Column-style Hermite normal form of a full-column-rank integer matrix.

    Pivots appear in increasing row order, one per column, are positive, and
    entries in a pivot row to the left of the pivot are reduced into
    [0, pivot).  This is the frozen canonical basis used for saturations.
    """
    m, n = shape(a)
    cols = [[a[i][j] for i in range(m)] for j in range(n)]
    lead = 0
    pivots: list[tuple[int, int]] = []  # (row, col)
    for row in range(m):
        if lead >= n:
            break
        while True:
            piv = None
            for j in range(lead, n):
                if cols[j][row] != 0 and (
                    piv is None or abs(cols[j][row]) < abs(cols[piv][row])
                ):
                    piv = j
            if piv is None:
                break
            cols[lead], cols[piv] = cols[piv], cols[lead]
            done = True
            for j in range(lead + 1, n):
                if cols[j][row] != 0:
                    q = cols[j][row] // cols[lead][row]
                    for i in range(m):
                        cols[j][i] -= q * cols[lead][i]
                    if cols[j][row] != 0:
                        done = False
            if done:
                if cols[lead][row] < 0:
                    cols[lead] = [-x for x in cols[lead]]
                for j in range(lead):
                    q = cols[j][row] // cols[lead][row]
                    if q:
                        for i in range(m):
                            cols[j][i] -= q * cols[lead][i]
                pivots.append((row, lead))
                lead += 1
                break
    if lead != n:
        raise ValueError("column_hnf requires full column rank")
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(m))


def hnf_coordinates(h, b) -> IntMatrix:
    """The integer x with h @ x = b, for h in column Hermite normal form (as
    returned by column_hnf) and every column of b in the lattice of h.

    The pivot rows of h form a lower triangular block with a positive
    diagonal, so x comes from integer forward substitution over those rows.
    """
    m, r = shape(h)
    x: list[list[int]] = []
    for j in range(r):
        p = next(i for i in range(m) if h[i][j])  # pivot row of column j
        acc = list(b[p])
        for t in range(j):
            c = h[p][t]
            if c:
                acc = [v - c * y for v, y in zip(acc, x[t])]
        d = h[p][j]
        assert all(v % d == 0 for v in acc), "b is not in the lattice of h"
        x.append([v // d for v in acc])
    return freeze(x)


def solve_fraction_free(a, b) -> tuple[IntMatrix, int]:
    """Solve a @ x = b over the rationals without leaving the integers.

    `a` is m x n with full column rank and `b` is m x k.  One fraction-free
    Gauss-Jordan pass (Bareiss) over [a | b] returns (num, det) with det != 0
    and a @ num = det * b, so x = num / det.  Every division is exact: after
    step s each entry is, up to sign, an (s+1) x (s+1) minor of [a | b].  Raises
    ValueError if a lacks full column rank or the system is inconsistent.
    """
    m, n = shape(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, m) if rows[i][k]), None)
        if piv is None:
            raise ValueError("solve_fraction_free requires full column rank")
        rows[k], rows[piv] = rows[piv], rows[k]
        row_k = rows[k]
        p = row_k[k]
        for i in range(m):
            if i != k:
                f = rows[i][k]
                rows[i] = [(x * p - f * y) // prev for x, y in zip(rows[i], row_k)]
        prev = p
    if any(any(row[n:]) for row in rows[n:]):
        raise ValueError("inconsistent linear system")
    return freeze(row[n:] for row in rows[:n]), prev

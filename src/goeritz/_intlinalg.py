"""Exact integer matrix helpers: the one home of each integer-matrix
algorithm and encoding in the package.

Matrices are immutable tuples of row tuples of plain Python ints (arbitrary
precision).  A permutation matrix is encoded by its images: column i has its
1 in row images[i] (`permutation_matrix`, `permutation_images`).  One gcd
column elimination (`_echelon`) computes both the integer kernel and the
column Hermite normal form.  Fraction-free Bareiss passes decide
definiteness, on sparse rows in minimum-degree order, and give the rational
solutions, which come back as an integer numerator matrix over one common
denominator.  Everything here is exact; no floating point appears anywhere in
the package.

The matrices met here are sparse (forms, actions, embeddings), and the
kernels cost what their nonzero entries ask for.  The product adds only
nonzero entries times the stored nonzero entries of b.  Both Bareiss passes
leave a row whose multiplier at a step is 0 as it is and stamp it with the
step its entries belong to: the dense pass would only multiply it by
minors[s + 1] / minors[s], and the factors of the skipped steps telescope,
so when the row is next read at step t one exact division,
x * minors[t] // minors[stamp], brings it up to date.
"""

from __future__ import annotations

import heapq
import itertools
import math

IntMatrix = tuple[tuple[int, ...], ...]


def freeze(rows) -> IntMatrix:
    return tuple(tuple(r) for r in rows)


def shape(a) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


def matmul(a, b):
    """a @ b, row by row: row i of the product adds x * b[k] for each nonzero
    entry x = a[i][k], over the nonzero entries of b[k] only.

    Like zip, it truncates rather than checks: the product has the width of
    the shortest row of b, and a row of a meets only the first len(b) rows of
    b, so callers check shapes first.
    """
    width = min(map(len, b), default=0)
    sparse_b = [[(j, y) for j, y in enumerate(row[:width]) if y] for row in b]
    product = []
    for row in a:
        acc = [0] * width
        for x, b_k in zip(row, sparse_b):
            if x:
                for j, y in b_k:
                    acc[j] += x * y
        product.append(tuple(acc))
    return tuple(product)


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
    """True iff a, with n rows and n entries in its first row, equals its
    transpose: for each i, row i before the diagonal equals column i above it.
    A short row leaves None in the columns it does not reach."""
    n, m = shape(a)
    cols = itertools.zip_longest(*a)
    return n == m and all(
        tuple(row[:i]) == col[:i] for i, (row, col) in enumerate(zip(a, cols))
    )


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


def permutation_matrix(images) -> IntMatrix:
    """The permutation matrix whose column i has its 1 in row images[i]."""
    n = len(images)
    mat = [[0] * n for _ in range(n)]
    for i, img in enumerate(images):
        mat[img][i] = 1
    return freeze(mat)


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


def preserves_form(images, g) -> bool:
    """True iff g[p(i)][p(j)] == g[i][j] for all i, j, where p(i) = images[i]."""
    if len(images) != len(g):
        raise ValueError("permutation and form have different sizes")
    return all(
        [g[pi][pj] for pj in images] == list(row) for row, pi in zip(g, images)
    )


def is_positive_definite(a, sign: int) -> bool:
    """True iff sign * a is positive definite, for a symmetric integer matrix a.

    One symmetric fraction-free (Bareiss) elimination on sparse rows: row i
    maps each column to its nonzero entry of sign * a.  Each step pivots on
    the live index whose row stores the fewest entries, ties going to the
    lowest index (minimum degree), so a sparse form gets little fill-in.

    Why it is correct.  Let k_1, k_2, ... be the pivots' indices and S_s the
    first s of them.  After s steps, entry (i, j) of the eliminated matrix is
    the bordered minor det(A[S_s + i, S_s + j]) of A = sign * a (Bareiss,
    Math. Comp. 1968), so the pivot of step s + 1 is the (s + 1)-th leading
    principal minor of P^T A P, P the permutation k_1, k_2, ...  P^T A P is
    congruent to A, so by Sylvester's criterion A is positive definite iff
    every pivot is positive, and the elimination stops at the first pivot
    that is not.

    Why every division is exact.  minors[s] is the s-th leading minor of
    P^T A P (minors[0] = 1).  Step s + 1, with pivot p and pivot row y, turns
    a row x whose entry f in the pivot column is nonzero into
    (p * x - f * y) // minors[s], entrywise: each quotient is a bordered minor
    of step s + 1, an integer.  A row with f = 0 would only be multiplied by
    minors[s + 1] / minors[s], so it is left as it is and stamp records the
    step its entries belong to.  When it is next read, at step s, each entry
    x becomes x * minors[s] // minors[stamp], again a bordered minor.  All
    those minors are positive, so no stored entry becomes zero by rescaling.
    """
    rows = {i: {j: sign * x for j, x in enumerate(row) if x} for i, row in enumerate(a)}
    stamp = [0] * len(rows)
    minors = [1]
    # (stored entries, index) of every live row; an entry whose count is out
    # of date is skipped, as its row pushed a new one when the count changed
    heap = sorted((len(row), i) for i, row in rows.items())
    while heap:
        size, k = heapq.heappop(heap)
        row_k = rows.get(k)
        if row_k is None or len(row_k) != size:
            continue
        del rows[k]
        s, prev = len(minors) - 1, minors[-1]
        row_k = _rescaled(row_k, prev, minors[stamp[k]])
        p = row_k.pop(k, 0)
        if p <= 0:
            return False
        for j, f in row_k.items():
            new = {
                c: p * x
                for c, x in _rescaled(rows[j], prev, minors[stamp[j]]).items()
                if c != k
            }
            for c, y in row_k.items():
                new[c] = new.get(c, 0) - f * y
            rows[j] = row_j = {c: v // prev for c, v in new.items() if v}
            stamp[j] = s + 1
            heapq.heappush(heap, (len(row_j), j))
        minors.append(p)
    return True


def _rescaled(row: dict[int, int], num: int, den: int) -> dict[int, int]:
    """The entries of row times num / den, each quotient known to be exact."""
    if num == den:
        return row
    return {c: x * num // den for c, x in row.items()}


def _echelon(cols: list[list[int]], rows: int) -> list[int]:
    """Column echelon form of the first `rows` rows by gcd elimination, in
    place; returns the pivot row of each of the first r = rank columns.

    Row by row, the columns from r on are reduced by integer division until
    one nonzero entry is left in that row, which becomes the pivot of column
    r.  Only unimodular column operations are used, so the columns keep their
    lattice, and the columns past r end up zero in the first `rows` rows.
    Columns from r on are zero above the current row, so each update starts
    there.
    """
    n = len(cols)
    lead = 0
    pivots = []
    for row in range(rows):
        if lead == n:
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
            tail = cols[lead][row:]
            p = tail[0]
            done = True
            for j in range(lead + 1, n):
                col = cols[j]
                if col[row] != 0:
                    q = col[row] // p
                    col[row:] = [x - q * y for x, y in zip(col[row:], tail)]
                    if col[row] != 0:
                        done = False
            if done:
                pivots.append(row)
                lead += 1
                break
    return pivots


def kernel_basis(a) -> IntMatrix:
    """Z-basis of the integer kernel {v : a @ v = 0}, as columns of a matrix.

    The returned lattice is automatically saturated in Z^n.  Each column of
    `a` is stacked over the matching identity column and the rows of `a` are
    eliminated; the identity parts past the rank are the kernel basis.
    """
    m, n = shape(a)
    cols = []
    for j in range(n):
        col = [row[j] for row in a] + [0] * n
        col[m + j] = 1
        cols.append(col)
    kernel = cols[len(_echelon(cols, m)):]
    return tuple(tuple(col[m + i] for col in kernel) for i in range(n))


def column_hnf(a) -> IntMatrix:
    """Column-style Hermite normal form of a full-column-rank integer matrix.

    Pivots appear in increasing row order, one per column, are positive, and
    entries in a pivot row to the left of the pivot are reduced into
    [0, pivot).  This is the frozen canonical basis used for saturations.
    """
    m, n = shape(a)
    cols = [[row[j] for row in a] for j in range(n)]
    pivots = _echelon(cols, m)
    if len(pivots) != n:
        raise ValueError("column_hnf requires full column rank")
    for k, row in enumerate(pivots):
        col = cols[k]
        if col[row] < 0:
            cols[k] = col = [-x for x in col]
        tail = col[row:]
        for j in range(k):
            q = cols[j][row] // tail[0]
            if q:
                cols[j][row:] = [x - q * y for x, y in zip(cols[j][row:], tail)]
    return tuple(tuple(col[i] for col in cols) for i in range(m))


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
    and a @ num = det * b, so x = num / det.  Raises ValueError if a lacks
    full column rank or the system is inconsistent.

    Step s (from 0) takes the first row at or below s that is nonzero in
    column s as its pivot row y, with pivot p, and turns every other row x
    with entry f != 0 in column s into (p * x - f * y) // minors[s], entrywise,
    where minors[s] is the pivot of step s - 1 (minors[0] = 1).  Each
    quotient is exact: after step s every entry is, up to sign, an
    (s+1) x (s+1) minor of [a | b].

    Rows with f = 0 are not rewritten.  The dense pass would only multiply
    them by minors[s + 1] / minors[s], so stamp records the step their
    entries belong to, and a row is brought up to date only when it is next
    read: as a pivot row, with a nonzero multiplier, or for the result.  At
    step t, each entry x of a row stamped s becomes
    x * minors[t] // minors[s].  That is exact, and equal to what the dense
    pass stores: the factors of the skipped steps telescope,
    (minors[s+1] / minors[s]) * ... * (minors[t] / minors[t-1])
    = minors[t] / minors[s], and the dense pass's entry at step t is an
    integer (a minor, as above).  Rescaling never makes an entry zero or
    nonzero, so the pivot search and the consistency check read stale rows
    as they are.  A row swap swaps the stamps too.
    """
    m, n = shape(a)
    rows = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    stamp = [0] * len(rows)
    minors = [1]
    for k in range(n):
        piv = next((i for i in range(k, m) if rows[i][k]), None)
        if piv is None:
            raise ValueError("solve_fraction_free requires full column rank")
        rows[k], rows[piv] = rows[piv], rows[k]
        stamp[k], stamp[piv] = stamp[piv], stamp[k]
        prev = minors[k]
        rows[k] = row_k = _rescaled_list(rows[k], prev, minors[stamp[k]])
        stamp[k] = k + 1
        p = row_k[k]
        for i in range(m):
            if i != k and rows[i][k]:
                row = _rescaled_list(rows[i], prev, minors[stamp[i]])
                f = row[k]
                rows[i] = [(x * p - f * y) // prev for x, y in zip(row, row_k)]
                stamp[i] = k + 1
        minors.append(p)
    if any(any(row[n:]) for row in rows[n:]):
        raise ValueError("inconsistent linear system")
    det = minors[n]
    return freeze(
        _rescaled_list(row[n:], det, minors[s]) for row, s in zip(rows, stamp[:n])
    ), det


def _rescaled_list(row: list[int], num: int, den: int) -> list[int]:
    """The entries of row times num / den, each quotient known to be exact."""
    if num == den:
        return row
    return [x * num // den for x in row]

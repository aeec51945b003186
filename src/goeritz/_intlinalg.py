"""Exact integer matrix helpers: the one home of each integer-matrix
algorithm and encoding in the package.

Matrices are immutable tuples of row tuples of plain Python ints (arbitrary
precision).  A permutation matrix is encoded by its images: column i has its
1 in row images[i] (`permutation_matrix`, `permutation_images`).  One gcd
column elimination (`column_hnf`) gives the Hermite basis of a column
lattice, and integer forward substitution on that basis gives rational
coordinates as an integer numerator matrix over one common denominator.
One symmetric elimination on primitive sparse rows, in minimum-degree order,
decides definiteness.  Everything here is exact; no floating point appears
anywhere in the package.

The matrices met here are sparse (forms, actions, embeddings), and the
kernels cost what their nonzero entries ask for.  The product adds only
nonzero entries times the stored nonzero entries of b, and the definiteness
elimination touches only the rows that meet the pivot column.
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


def permutation_images(a) -> tuple[int, ...]:
    """Images of the permutation matrix a: column i has its 1 in row p(i).

    The images are the rows of the first 1 of each column that has one.
    a is a permutation matrix iff they are a permutation of range(len(a))
    and the permutation matrix they give is a again; ValueError otherwise.
    """
    images = tuple(col.index(1) for col in zip(*a) if 1 in col)
    if sorted(images) != list(range(len(a))) or permutation_matrix(images) != freeze(a):
        raise ValueError("not a permutation matrix")
    return images


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

    One symmetric elimination on sparse rows: row i maps each column to its
    nonzero entry of sign * a.  Each step pivots on the live index whose row
    stores the fewest entries, ties going to the lowest index (minimum
    degree), so a sparse form gets little fill-in.  Pivot k, with stored
    pivot p = row_k[k], turns each row j that meets column k into
    p * row_j - row_j[k] * row_k without column k, divided by the gcd of its
    entries.

    Why it is correct.  Let S be the Schur complement, in A = sign * a, of
    the pivots taken so far (S = A at the start); S is symmetric.  S is
    positive definite iff S[k][k] > 0 and the Schur complement of that entry
    is positive definite, so A is positive definite iff every pivot of S is
    positive (Sylvester's criterion on A in pivot order, which is congruent
    to A).  Each stored row j is c_j times row j of S, some c_j > 0 (1 at
    the start), and p * row_j - row_j[k] * row_k is c_j * c_k * S[k][k]
    times row j of the next S: a positive multiple again when p > 0.  So
    p = c_k * S[k][k] has the sign of S[k][k], and the elimination stops at
    the first p <= 0.  The stored zero pattern is that of the symmetric S,
    so the rows that meet column k are the columns stored in row k, and the
    heap sees the counts of an elimination on S itself.  The multiplier is
    row_j[k], not row_k[j]: the two rows carry different factors c.

    Why entries stay small.  The gcd division leaves each row primitive,
    so it divides the row of a fraction-free (Bareiss) elimination in the
    same order, an integer row in the same direction (a leading minor times
    that row of S; Bareiss, Math. Comp. 1968): no entry grows past Bareiss.
    """
    rows = {i: {j: sign * x for j, x in enumerate(row) if x} for i, row in enumerate(a)}
    # (stored entries, index) of every live row; an entry whose count is out
    # of date is skipped, as its row pushed a new one when the count changed
    heap = sorted((len(row), i) for i, row in rows.items())
    while heap:
        size, k = heapq.heappop(heap)
        row_k = rows.get(k)
        if row_k is None or len(row_k) != size:
            continue
        del rows[k]
        p = row_k.pop(k, 0)
        if p <= 0:
            return False
        for j in row_k:
            f = rows[j].pop(k)
            new = {c: p * x for c, x in rows[j].items()}
            for c, y in row_k.items():
                new[c] = new.get(c, 0) - f * y
            g = math.gcd(*new.values())  # zeros leave it as it is; 0 divides nothing
            rows[j] = row_j = {c: v // g for c, v in new.items() if v}
            heapq.heappush(heap, (len(row_j), j))
    return True


def column_hnf(a) -> IntMatrix:
    """Hermite basis of the lattice spanned by the columns of a: an m x r
    matrix, r the rank of a.

    Pivots appear in increasing row order, one per column, are positive, and
    entries in a pivot row to the left of the pivot are reduced into
    [0, pivot).  Dependent columns (zero, repeated or combinations of others)
    are reduced to zero and dropped, so the basis depends only on the
    lattice.

    Row by row, the columns from r on (r the pivots found so far) are
    reduced by integer division until one nonzero entry is left in that
    row, which becomes the pivot of column r.  Only unimodular column
    operations are used, so the columns keep their lattice, and the columns
    past the rank end up zero.  Columns from r on are zero above the
    current row, so each update starts there.
    """
    m, n = shape(a)
    cols = [[row[j] for row in a] for j in range(n)]
    pivots = []
    for row in range(m):
        lead = len(pivots)
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
                break
    del cols[len(pivots):]
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


def hnf_coordinates(h, b) -> tuple[IntMatrix, int]:
    """(num, det) with h @ num = det * b, for h a Hermite basis (as returned
    by column_hnf), every column of b in the rational span of h, and det the
    product of the pivots of h.

    The pivot rows of h form a lower triangular block T whose diagonal holds
    the pivots, so det = det T and det * T^-1 is integral.  Row j of num,
    with pivot p in row i, is (det * b[i] - sum over t < j of h[i][t] *
    num[t]) / p by integer forward substitution: every division is exact,
    as the quotient is row j of (det * T^-1) @ (the pivot rows of b).
    """
    m, r = shape(h)
    pivots = [next(i for i in range(m) if h[i][j]) for j in range(r)]
    det = math.prod(h[i][j] for j, i in enumerate(pivots))
    num: list[list[int]] = []
    for j, i in enumerate(pivots):
        acc = [det * v for v in b[i]]
        for t in range(j):
            c = h[i][t]
            if c:
                acc = [v - c * y for v, y in zip(acc, num[t])]
        p = h[i][j]
        num.append([v // p for v in acc])
    return freeze(num), det

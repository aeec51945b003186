"""Exact integral lattice machinery.

Definiteness tests, exhaustive enumeration of embeddings of a definite Gram
lattice into the standard lattice (Z^m, +/-Id) up to signed-permutation
equivalence, canonical forms, and an independent brute-force oracle.

The automorphism group of (Z^m, +/-Id) consists exactly of the signed
permutation matrices (the only vectors of squared norm 1 are +/-e_i), so
"up to isomorphism of the target" means "up to a signed permutation of the
rows of the embedding matrix".  That action permutes and negates rows
independently, so the canonical form of an orbit is simply the row-sorted
matrix of sign-normalized rows; this total order is frozen and relied upon
throughout.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import _intlinalg as la


class SearchIncomplete(Exception):
    """Search budget exhausted before the enumeration finished.

    Distinct from "no embeddings exist": callers must not draw negative
    conclusions from an incomplete run.
    """

    def __init__(self, nodes: int):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class GramLattice:
    """A symmetric integer matrix: the Gram form of a lattice basis."""

    matrix: la.IntMatrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.freeze(self.matrix))
        la.require_ints(itertools.chain(*self.matrix), "Gram matrix entries")
        n = len(self.matrix)
        square = n and all(len(row) == n for row in self.matrix)
        if not square or not la.is_symmetric(self.matrix):
            raise ValueError("Gram matrix must be square and symmetric")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def negated(self) -> "GramLattice":
        return GramLattice(la.neg(self.matrix))


@dataclass(frozen=True)
class StandardTarget:
    """The standard definite lattice (Z^rank, sign * Id)."""

    rank: int
    sign: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("target rank must be positive")
        if self.sign not in (1, -1):
            raise ValueError("target sign must be +1 or -1")


@dataclass(frozen=True)
class SignedPermutation:
    """An element of the hyperoctahedral group on m coordinates.

    As a matrix, row r carries the single entry signs[r] in column perm[r].
    Acting on an embedding matrix it sends row r of the result to
    signs[r] * (row perm[r] of the input).
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "signs", tuple(self.signs))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm is not a permutation")
        if len(self.signs) != len(self.perm) or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +/-1, one per coordinate")

    @property
    def size(self) -> int:
        return len(self.perm)

    def matrix(self) -> la.IntMatrix:
        m = [[0] * self.size for _ in range(self.size)]
        for r, (p, s) in enumerate(zip(self.perm, self.signs)):
            m[r][p] = s
        return la.freeze(m)

    def apply_rows(self, mat: la.IntMatrix) -> la.IntMatrix:
        return tuple(
            tuple(s * x for x in mat[p]) for p, s in zip(self.perm, self.signs)
        )


@dataclass(frozen=True)
class LatticeEmbedding:
    """An m x n integer matrix whose columns realize the source Gram form."""

    matrix: la.IntMatrix
    source: GramLattice
    target: StandardTarget

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.freeze(self.matrix))
        m, n = la.shape(self.matrix)
        if m != self.target.rank or n != self.source.rank:
            raise ValueError("embedding matrix shape does not match source/target")
        if gram_of(self.matrix, self.target) != self.source.matrix:
            raise ValueError("matrix does not satisfy the Gram constraint")


def is_definite(lat: GramLattice, sign: int) -> bool:
    """Exact test that sign * G is positive definite: the sign of every pivot
    of one sparse symmetric elimination on primitive rows, each a positive
    multiple of a row of the current Schur complement, in minimum-degree
    order (`_intlinalg.is_positive_definite`)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return la.is_positive_definite(lat.matrix, sign)


def gram_of(phi: la.IntMatrix, target: StandardTarget) -> la.IntMatrix:
    """sign * (phi^T phi): the form the columns of phi realize."""
    if len(phi) != target.rank:
        raise ValueError("row count does not match target rank")
    return la.scale(target.sign, la.matmul(la.transpose(phi), phi))


def _sign_normalized(row: tuple[int, ...]) -> tuple[int, ...]:
    return min(row, tuple(-x for x in row))


def _canonical_rows(mat: la.IntMatrix) -> la.IntMatrix:
    """Minimal orbit representative under signed permutations of the rows.

    Frozen rule: replace each row by the lexicographically smaller of itself
    and its negation, then sort the rows ascending.  This is constant on
    orbits and idempotent because row permutations and row negations act
    independently.
    """
    return tuple(sorted(map(_sign_normalized, mat)))


def _match_rows(a: la.IntMatrix, b: la.IntMatrix) -> SignedPermutation | None:
    """Signed permutation T with T.a = b, i.e. b[r] = signs[r] * a[perm[r]].

    Exists iff the rows of a and b agree as multisets up to sign.  Rows equal
    up to sign are interchangeable, so a fixed index-order pairing within each
    sign-normalized class is complete; rows fixed by negation (zero rows) are
    matched identically in index order with sign +1, which realizes the
    identity on coordinates outside the span.
    """
    pool: dict[tuple[int, ...], list[int]] = {}
    for k in reversed(range(len(a))):  # so that pop() takes the lowest index
        pool.setdefault(_sign_normalized(a[k]), []).append(k)
    perm = [0] * len(a)
    signs = [1] * len(a)
    for r, row in enumerate(b):
        cands = pool.get(_sign_normalized(row))
        if not cands:
            return None
        k = cands.pop()
        perm[r] = k
        if a[k] == row:
            signs[r] = 1
        else:
            signs[r] = -1
    return SignedPermutation(tuple(perm), tuple(signs))


def _column_order(p: la.IntMatrix) -> list[int]:
    """Most-constrained-first order in which to place the domain columns.

    Start with the basis vector of smallest norm; then repeatedly take the
    unplaced vector with the most nonzero inner products with the columns
    already placed, breaking ties by smaller norm, then lower index.  Only
    the diagonal and the zero pattern of p are read, so the order does not
    change when basis vectors are negated.
    """
    n = len(p)
    order: list[int] = []
    rest = list(range(n))
    while rest:
        j = min(
            rest,
            key=lambda j: (-sum(1 for i in order if p[i][j]), p[j][j], j),
        )
        order.append(j)
        rest.remove(j)
    return order


def _sign_gauge(p: la.IntMatrix, order: list[int]) -> list[int]:
    """Column signs d that make d_i * d_j * p[i][j] negative whenever i is
    the first column placed before j (in order) with p[i][j] != 0.

    Forms that differ only by negated basis vectors have the same order
    and the same gauged matrix (d is fixed up to the sign of each connected
    component, and negating a whole component leaves the matrix as it is);
    every packaged fixture is already in this gauge (d = 1).
    """
    d = [1] * len(p)
    for k, j in enumerate(order):
        for i in order[:k]:
            if p[i][j]:
                d[j] = -d[i] if p[i][j] > 0 else d[i]
                break
    return d


def _require_square(f: la.IntMatrix, n: int) -> None:
    # Checked before any product: zip in la.matmul truncates silently.
    if len(f) != n or any(len(row) != n for row in f):
        raise ValueError("action matrix has wrong shape")


def is_isometry(f: la.IntMatrix, lat: GramLattice) -> bool:
    """True iff f^T G f = G."""
    f = la.freeze(f)
    _require_square(f, lat.rank)
    return la.matmul(la.matmul(la.transpose(f), lat.matrix), f) == lat.matrix


def _columns(f: la.IntMatrix) -> list[list[tuple[int, int]]]:
    """The nonzero terms (i, f[i][j]) of each column j of f."""
    return [[(i, row[j]) for i, row in enumerate(f) if row[j]] for j in range(len(f))]


def _half_powers(f: list[list[tuple[int, int]]]) -> list[list[list[tuple[int, int]]]]:
    """f^t for 1 <= t <= min(r/2, n), where r is the (finite) order of the
    n x n matrix f, given and returned as _columns.

    f^(r-t) is the inverse of f^t; for a signed permutation its row-match
    check repeats that of f^t, so it is left out.  At most 2n powers are
    formed, so the table stays polynomial in n even when r is not."""
    n = len(f)
    identity = [[(j, 1)] for j in range(n)]
    powers, prev = [], identity
    for _ in range(2 * n):
        nxt = []
        for terms in f:  # f^(t+1)[:, j] = sum over i of f[i][j] * f^t[:, i]
            acc: dict[int, int] = {}
            for i, c in terms:
                for a, b in prev[i]:
                    acc[a] = acc.get(a, 0) + c * b
            nxt.append([(a, v) for a, v in sorted(acc.items()) if v])
        if nxt == identity:  # f^r = 1 with r <= 2n
            break
        powers.append(nxt)
        prev = nxt
    return powers[: (len(powers) + 1) // 2]


def _row_checks(
    powers: list[list[list[tuple[int, int]]]],
) -> dict[int, list[tuple[int, int, list]]]:
    """checks[k]: (g, |J_k|, entering) for each power g (by its index in
    powers, given as _columns in search order) whose J grows at step k;
    entering lists each column j that enters J there, with the terms
    (i, g[i][j]) of its image column.  No check runs at the leaf, where the
    consumer's full row match decides."""
    checks: dict[int, list] = {}
    for g, power in enumerate(powers):
        # ready[j]: the step after which the image of column j is known
        ready = [max([j] + [i for i, _ in terms]) for j, terms in enumerate(power)]
        for k in set(ready) - {len(power) - 1}:
            entering = [(j, terms) for j, terms in enumerate(power) if ready[j] == k]
            checks.setdefault(k, []).append((g, sum(r <= k for r in ready), entering))
    return checks


@dataclass(slots=True)
class _Step:
    """The search state once the columns of one path are placed.

    cols: the placed columns in search order, each as its nonzero terms
    (t, x); placed[t]: the nonzero pairs (j, x) of row t, one for each placed
    column j (its index in search order) with entry x != 0 in row t, in
    search order; suffix[j][t]: the squared norm of the entries of column j
    after t; sides[g]: the id and the sign of each row of both sides of the
    check for power g, over its J, left rows first (see iter_embeddings);
    untried: the candidates for the next column not yet tried.

    Two row facts are read off placed.  Row t is zero on the placed columns
    iff placed[t] is empty, since it lists every nonzero entry of the row.
    Rows t and t-1 agree on the placed columns iff placed[t] == placed[t-1]:
    a pair tuple names each nonzero entry of its row with its column, in one
    order for all rows, so the row determines the tuple and the tuple the
    row.
    """

    cols: tuple[tuple[tuple[int, int], ...], ...]
    placed: list[tuple[tuple[int, int], ...]]
    suffix: list[list[int]]
    sides: list[tuple[list[int], list[int]]]
    untried: Iterator[tuple[int, ...]] = iter(())


def iter_embeddings(
    lat: GramLattice,
    corank: int,
    sign: int,
    max_nodes: int | None = None,
    action: la.IntMatrix | None = None,
) -> Iterator[LatticeEmbedding]:
    """Each embedding class of (Z^n, G) into (Z^{n+corank}, sign*Id), up to
    signed permutation of the target, once, in search order.

    Column-by-column backtracking, in the most-constrained-first order of
    _column_order, that builds one matrix per class: its lex-leader, whose
    rows, read in search order, are sign-normalized (first nonzero entry
    positive) and in non-increasing lexicographic order.  Normalizing each
    row's sign and then sorting the rows gives exactly one such matrix in
    each orbit, so every leaf is a distinct class and none is missed.  At
    coordinate t of a new column, a row that is zero on the placed columns
    (these rows come last) takes a value >= 1, or the column ends when its
    norm is spent; a row equal to row t-1 on every placed column (as any two
    zero rows are) takes a value <= row t-1's; every value is pruned by
    Cauchy-Schwarz against the suffix norms of the placed columns.  Only the
    columns whose inner product with the new column still has a nonzero gap
    are scanned, and, for a value v != 0, those with a nonzero entry in row
    t: a zero gap with a zero entry stays zero and passes.  A column with no
    nonzero entry left has its gap at zero, so the nonzero gaps, kept in a
    dict by column, lose it as it closes.  Each
    nonzero row adds at least 1 to trace(sign * G), so only min(m, trace)
    rows are searched; the rest are zero rows added to each class.  Each
    leaf is put back in domain basis order, canonicalized and yielded as it
    is found, so the order of the stream depends on the search order; no
    class list is kept.  The search runs on the form with the column signs
    of _sign_gauge, and each leaf gets those signs back before it is
    canonicalized: forms that differ only by negated basis vectors are
    searched alike, node for node, and yield the same classes (up to those
    signs).  The order is the same too when G is connected; when it is not,
    the gauge may negate a whole orthogonal summand, which leaves the gauged
    form as it is but can reorder the classes once those signs are given
    back.

    The search keeps one _Step per placed column on an explicit stack: the
    candidates not yet tried, the placed columns with the nonzero entries of
    each row and the suffix norms of each column, which a new column extends
    at its nonzero entries, and the row match state below; backtracking
    drops the step.  One transition makes
    each step from its parent and a candidate: it runs that step's row
    match checks and returns the child, or None on a cut.  Only the filling
    of a single column recurses, about once per searched row, and a search
    with more rows than the interpreter's recursion limit allows is a
    ValueError.
    Every call of that filling counts as one node and every value it scans
    as one more, so max_nodes bounds the work, however large the norms.
    The whole search takes 2,484 nodes for 12a1019 at corank 1, 1,503 for
    K_4 at corank 1 and 11,689 for K_5 at corank 2; the first 12a1019 class
    is yielded within 884.

    With an action, an integer isometry f of G in the domain basis, subtrees
    whose placed columns already rule out a signed permutation F with
    F.phi = phi.f are cut.  If F exists, then F^t.phi = phi.f^t for every
    power, so for any set J of domain columns the rows of phi[:, J] and of
    (phi.f^t)[:, J] agree as multisets up to sign, in every matrix of the
    orbit.  The form is definite, so f has finite order r; the powers f^t
    with 1 <= t <= min(r/2, n) are checked (for a signed permutation
    f^(r-t) repeats the check of f^t; the cap at n keeps the table
    polynomial when r is exponential in n).  The action is checked to be an
    isometry once, here, and carried in the search coordinates of the form,
    gauge signs included.  After column k of the search order is placed,
    J_k is the set of placed columns j whose column f^t[:, j] is supported
    on placed columns only, so (phi.f^t)[:, J_k] is known; whenever J_k is
    larger than J_{k-1}, the column is dropped if the two sides differ.
    The check is incremental.  The columns of J are read in the order they
    entered it, on both sides, and a row's sign is that of its first
    nonzero entry in that order, so a growing J only appends entries to the
    sign-normalized rows.  Each step keeps, for each power, the sign of
    every row of both sides and an id of its sign-normalized row.  The ids
    come from one intern table per search, which maps (old id, column j,
    normalized entry) to a fresh id when a nonzero entry is appended; a zero
    entry leaves the id as it is, and the empty row has id 0.  So an id
    stands for the sequence of a row's nonzero entries with their columns,
    and two rows of one check have equal ids iff their sign-normalized rows
    are equal.  The column must be in the key: without it, the rows
    (1, 0, 0) and (0, 0, 1) would both be the empty row with one entry 1
    appended.  A check sums the image columns entering J from the nonzero
    terms of the placed columns, once, interns the ids of the rows where
    they or the entering columns are nonzero, and compares the sorted ids.
    A cut subtree holds no class with a witness, so the stream is the
    unpruned one less some classes without a witness, in the same order.
    At the leaf the consumer's full row match decides, so no check runs
    there.  A check is charged 2 * rows * |J_k| nodes, the entries a check
    from scratch would build, not the work it does, so the charged counts do
    not depend on how the check is implemented: refuting K_4 at corank 1
    takes 1,308 nodes, K_5 at corank 2 4,361, and the first 12a1019 witness
    at corank 1 is yielded within 894.  With all the powers, the cost
    hardly depends on how f sits in the search order: the relabellings of
    K_5 by a permutation of its blocks and basis signs take 4,132 to 4,516
    nodes.

    Raises SearchIncomplete when the consumer asks for a class past
    max_nodes; yields nothing when the form is not sign-definite; raises
    ValueError when the action is not an isometry of G or the search needs
    too many rows.
    """
    n = lat.rank
    if corank < 0:
        raise ValueError("corank must be non-negative")
    if action is not None and not is_isometry(action, lat):
        raise ValueError("action is not an isometry of the form")
    if not is_definite(lat, sign):
        return
    m = n + corank
    target = StandardTarget(m, sign)
    p = la.scale(sign, lat.matrix)  # positive definite; phi^T phi = p
    # each nonzero row adds at least 1 to trace(p): only that many rows are searched
    rows = min(m, sum(p[j][j] for j in range(n)))
    order = _column_order(p)  # order[k]: the domain column placed at step k
    # the search runs on D.p.D, D = diag(d); a leaf psi is the class of psi.D
    d = _sign_gauge(p, order)
    q = [[d[a] * d[b] * p[a][b] for b in order] for a in order]  # in search order
    nodes = 0

    def tick(count: int = 1):
        nonlocal nodes
        nodes += count
        if max_nodes is not None and nodes > max_nodes:
            raise SearchIncomplete(nodes)

    def candidates(step: _Step) -> list[tuple[int, ...]]:
        """Every admissible column after the placed columns of step."""
        j = len(step.cols)
        placed, suffix = step.placed, step.suffix
        # tie[t]: row t equals row t-1 on the placed columns, once per step
        # rather than once per call of fill
        tie = [t > 0 and placed[t] == placed[t - 1] for t in range(rows)]
        out: list[tuple[int, ...]] = []
        vec = [0] * rows

        def fill(t: int, rem: int, gaps: dict[int, int]):
            # gaps: by placed column, what its inner product with the new
            # column still lacks, where that is not 0; never changed in place
            row = placed[t] if t < rows else ()  # () past the last row too
            if not row and rem == 0:  # row t is zero on the placed columns
                tick()
                out.append(tuple(vec))
                return
            if t == rows:
                tick()
                return
            bound = math.isqrt(rem)
            lo = -bound if row else 1
            hi = min(bound, vec[t - 1]) if tie[t] else bound
            tick(max(hi - lo + 1, 0) + 1)  # this call and the values it scans
            for v in range(lo, hi + 1):
                rem2 = rem - v * v
                left = gaps  # v = 0 leaves every gap as it is
                if v and row:
                    left = gaps.copy()
                    for c, x in row:
                        gap = left.pop(c, 0) - v * x
                        if gap:
                            left[c] = gap
                for c, gap in left.items():  # Cauchy-Schwarz
                    if gap * gap > rem2 * suffix[c][t]:
                        break
                else:
                    vec[t] = v
                    fill(t + 1, rem2, left)
                    vec[t] = 0

        try:
            fill(0, q[j][j], {c: gap for c, gap in enumerate(q[j][:j]) if gap})
        except RecursionError:
            raise ValueError(
                f"the search needs {rows} rows, too many for its column filling"
            ) from None
        return out

    powers = []
    if action is not None:
        h = [[d[a] * d[b] * action[a][b] for b in order] for a in order]  # like q
        powers = _half_powers(_columns(h))
    checks = _row_checks(powers)
    intern: dict[tuple[int, int, int], int] = {}  # (id, column, normalized entry): id

    def child(step: _Step, col: tuple[int, ...]) -> _Step | None:
        """The state once col is placed after step, or None when the rows of
        psi[:, J_k] and (psi.g)[:, J_k] differ for a power g checked at this
        step.  Each check is charged 2 * rows * |J_k|, the entries a check
        from scratch would build."""
        k = len(step.cols)
        cols = step.cols + (tuple((t, x) for t, x in enumerate(col) if x),)
        sides = list(step.sides)
        for g, size, entering in checks.get(k, ()):
            tick(2 * rows * size)
            ids, signs = (side[:] for side in sides[g])
            for j, terms in entering:  # both sides: psi[:, j], then (psi.g)[:, j]
                image: dict[int, int] = {}
                for i, c in terms:
                    for t, x in cols[i]:
                        image[rows + t] = image.get(rows + t, 0) + c * x
                for r, x in cols[j] + tuple(image.items()):
                    if x:
                        s = signs[r] = signs[r] or (x > 0) - (x < 0)
                        ids[r] = intern.setdefault((ids[r], j, s * x), len(intern) + 1)
            if sorted(ids[:rows]) != sorted(ids[rows:]):
                return None
            sides[g] = (ids, signs)
        # norms[t]: the squared norm of col[t:]
        norms = list(itertools.accumulate((x * x for x in reversed(col)), initial=0))
        norms.reverse()
        placed = step.placed[:]
        for t, x in cols[k]:
            placed[t] += ((k, x),)
        return _Step(cols, placed, step.suffix + [norms[1:]], sides)

    # while J is empty, every row of both sides has id 0 and sign 0
    empty = [0] * (2 * rows)
    root = _Step((), [()] * rows, [], [(empty, empty)] * len(powers))
    root.untried = iter(candidates(root))
    stack = [root]  # stack[k]: the state once k columns are placed
    while stack:
        step = stack[-1]
        col = next(step.untried, None)
        if col is None:
            stack.pop()
            continue
        step = child(step, col)
        if step is None:
            continue
        if len(step.cols) == n:
            mat = [[0] * n for _ in range(rows)]
            for j, terms in zip(order, step.cols):
                for t, x in terms:
                    mat[t][j] = d[j] * x
            # canonical rows sort zero rows last
            yield LatticeEmbedding(
                _canonical_rows(map(tuple, mat)) + ((0,) * n,) * (m - rows), lat, target
            )
        else:
            step.untried = iter(candidates(step))
            stack.append(step)


def enumerate_embeddings(
    lat: GramLattice,
    corank: int,
    sign: int,
    max_nodes: int | None = None,
) -> tuple[LatticeEmbedding, ...]:
    """All embeddings of (Z^n, G) into (Z^{n+corank}, sign*Id), up to signed
    permutation of the target: the classes of iter_embeddings, sorted by
    matrix, so the list does not depend on the search order.

    Raises SearchIncomplete when max_nodes is exceeded; returns () when the
    form is not sign-definite.
    """
    return tuple(
        sorted(iter_embeddings(lat, corank, sign, max_nodes), key=lambda e: e.matrix)
    )


def brute_force_embeddings(
    lat: GramLattice, corank: int, sign: int
) -> tuple[LatticeEmbedding, ...]:
    """Independent oracle: exhaustive column enumeration, no symmetry breaking.

    Enumerates every integer matrix satisfying the Gram constraints with
    entries bounded by the column-norm equation, then groups by canonical
    form.  Guarded to small instances; use enumerate_embeddings for real work.
    """
    n = lat.rank
    m = n + corank
    if m > 8 or any(abs(lat.matrix[i][i]) > 4 for i in range(n)):
        raise ValueError("brute-force oracle refused: instance exceeds its guard")
    if not is_definite(lat, sign):
        return ()
    p = la.scale(sign, lat.matrix)
    target = StandardTarget(m, sign)

    def vectors(norm: int):
        out: list[tuple[int, ...]] = []
        vec = [0] * m

        def rec(t: int, rem: int):
            if t == m:
                if rem == 0:
                    out.append(tuple(vec))
                return
            bound = math.isqrt(rem)
            for v in range(-bound, bound + 1):
                vec[t] = v
                rec(t + 1, rem - v * v)
                vec[t] = 0

        rec(0, norm)
        return out

    by_norm = {norm: vectors(norm) for norm in {p[j][j] for j in range(n)}}
    found: dict[la.IntMatrix, None] = {}
    cols: list[tuple[int, ...]] = []

    def place(j: int):
        if j == n:
            mat = tuple(tuple(col[i] for col in cols) for i in range(m))
            found[_canonical_rows(mat)] = None
            return
        for v in by_norm[p[j][j]]:
            if all(
                sum(x * y for x, y in zip(v, cols[i])) == p[i][j] for i in range(j)
            ):
                cols.append(v)
                place(j + 1)
                cols.pop()

    place(0)
    return tuple(LatticeEmbedding(mat, lat, target) for mat in sorted(found))

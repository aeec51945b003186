"""Seeded input generators and independent answer checks for the benchmark.

Everything here is the benchmark's own code: it builds inputs from a
random.Random and checks the program's answers without calling the program,
so that a defect in the package cannot hide in its own check.  Matrices are
tuples of row tuples, as in the package.
"""

from __future__ import annotations

from fractions import Fraction


def matmul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(a):
    return tuple(zip(*a))


def neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def signed_perm_matrix(images, signs):
    """Matrix P with P e_j = signs[j] * e_{images[j]}."""
    n = len(images)
    m = [[0] * n for _ in range(n)]
    for j, (i, s) in enumerate(zip(images, signs)):
        m[i][j] = s
    return tuple(map(tuple, m))


def is_signed_permutation(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        sorted(abs(x) for x in line) == [0] * (n - 1) + [1] for line in (*m, *zip(*m))
    )


def perm_images(f):
    """Images j -> i of a permutation matrix f (f e_j = e_i)."""
    return tuple(next(i for i in range(len(f)) if f[i][j]) for j in range(len(f)))


def rank(a) -> int:
    rows = [[Fraction(x) for x in row] for row in a]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                q = rows[i][c] / rows[r][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def gram(phi, sign):
    return tuple(tuple(sign * x for x in row) for row in matmul(transpose(phi), phi))


def witness_error(phi, form, f, sign, big_f) -> str | None:
    """Why (phi, F) is not an F-equivariant embedding of form, or None.

    Checks that F is a signed permutation, that F.phi = phi.f, and that the
    columns of phi realize sign * form's Gram matrix.
    """
    if not is_signed_permutation(big_f):
        return "intertwiner is not a signed permutation"
    if matmul(big_f, phi) != matmul(phi, f):
        return "F.phi != phi.f"
    if gram(phi, sign) != form:
        return "embedding does not realize the form"
    return None


# --- basis relabellings -----------------------------------------------------


def _orbit_signs(rng, images):
    """One random sign per orbit of the permutation j -> images[j]."""
    signs = [0] * len(images)
    for start in range(len(images)):
        if signs[start] == 0:
            s = rng.choice((1, -1))
            j = start
            while signs[j] == 0:
                signs[j] = s
                j = images[j]
    return signs


def relabelling(rng, f, images):
    """Signed permutation P = Q.D where Q permutes the basis by `images`
    and D has one sign per orbit of Q^T f Q, so that P^T f P is again a
    0/1 permutation matrix."""
    q = signed_perm_matrix(images, [1] * len(images))
    fq = matmul(matmul(transpose(q), f), q)
    return signed_perm_matrix(images, _orbit_signs(rng, perm_images(fq)))


def apply_relabelling(p, g, f):
    pt = transpose(p)
    return matmul(matmul(pt, g), p), matmul(matmul(pt, f), p)


def block_images(rng, blocks: int, size: int):
    """Permute `blocks` consecutive basis blocks of `size` as wholes.

    For the K_n forms (blocks of [[-3,1],[1,-2]]) this is an automorphism
    of G; for 12a1019 (two triangles X1..X3, X4..X6 joined X_i - X_{i+3})
    the simultaneous permutation of both triangles is one.
    """
    order = list(range(blocks))
    rng.shuffle(order)
    return [order[k] * size + a for k in range(blocks) for a in range(size)]


def triangle_images(rng):
    order = [0, 1, 2]
    rng.shuffle(order)
    return order + [i + 3 for i in order]


# --- periodic checkerboard diagrams ------------------------------------------


def periodic_diagram(rng, regions: int, period: int):
    """Random fundamental domain repeated `period` times around region 0.

    regions - 1 must be a multiple of period.  Region 1 + c*d + i is copy c
    of domain region i.  Returns (crossings, rotation) where rotation is the
    region permutation (region 0 fixed).  All weights are -1; the domain is
    a random tree joined to region 0, so the diagram is connected.
    """
    d = (regions - 1) // period
    assert d * period == regions - 1
    edges = []  # (copy offset of the second end, i, j)
    for i in range(1, d):
        edges.append((0, i, rng.randrange(i)))
    for _ in range(1 + rng.randrange(2)):
        edges.append((None, rng.randrange(d), None))  # edge to region 0
    for _ in range(max(1, d // 3)):
        edges.append((1, rng.randrange(d), rng.randrange(d)))  # next copy
    for _ in range(d // 2):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            edges.append((0, i, j))
    region = lambda c, i: 1 + (c % period) * d + i
    crossings = []
    for c in range(period):
        for off, i, j in edges:
            a = region(c, i)
            b = 0 if off is None else region(c + off, j)
            crossings.append((a, b, -1))
    rotation = (0,) + tuple(region(c + 1, i) for c in range(period) for i in range(d))
    return tuple(crossings), rotation


def relabel_regions(rng, regions: int, crossings, perm):
    """Rename regions 1..n by a random permutation tau (0 stays 0)."""
    tau = [0] + rng.sample(range(1, regions), regions - 1)
    new_perm = [0] * regions
    for r in range(regions):
        new_perm[tau[r]] = tau[perm[r]]
    return tuple((tau[i], tau[j], e) for i, j, e in crossings), tuple(new_perm)


def _edge_counts(crossings):
    counts: dict[tuple[int, int], int] = {}
    for i, j, e in crossings:
        key = (min(i, j), max(i, j))
        counts[key] = counts.get(key, 0) + e
    return counts


def is_automorphism(crossings, perm) -> bool:
    counts = _edge_counts(crossings)
    moved = {}
    for (i, j), w in counts.items():
        a, b = perm[i], perm[j]
        moved[(min(a, b), max(a, b))] = w
    return moved == counts


def perm_order(perm) -> int:
    k, cur = 1, tuple(perm)
    while cur != tuple(range(len(perm))):
        cur = tuple(perm[x] for x in cur)
        k += 1
    return k


def is_connected(regions: int, crossings) -> bool:
    adj = [[] for _ in range(regions)]
    for i, j, _ in crossings:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {0}, [0]
    while stack:
        for b in adj[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == regions


def expected_goeritz(regions: int, crossings):
    """Goeritz matrix computed directly: G[i][j] = -sum eta between regions
    i, j and G[i][i] = sum of eta at region i (region 0 deleted)."""
    g = [[0] * regions for _ in range(regions)]
    for i, j, e in crossings:
        g[i][j] -= e
        g[j][i] -= e
        g[i][i] += e
        g[j][j] += e
    return tuple(tuple(row[1:]) for row in g[1:])


def action_matrix(perm):
    """Permutation matrix of a region permutation on X_1..X_n."""
    n = len(perm) - 1
    return signed_perm_matrix([perm[i] - 1 for i in range(1, n + 1)], [1] * n)


def non_isometric_action(rng, crossings, perm):
    """A conjugate tau.perm.tau of the rotation by a transposition tau of two
    regions that is not an automorphism of the diagram: same order, region 0
    fixed, but not a symmetry.  None if every tried transposition is one."""
    n1 = len(perm)
    for _ in range(50):
        x, y = rng.sample(range(1, n1), 2)
        tau = list(range(n1))
        tau[x], tau[y] = y, x
        cand = tuple(tau[perm[tau[r]]] for r in range(n1))
        if not is_automorphism(crossings, cand):
            return cand
    return None


# --- embeddings with a known equivariance verdict ----------------------------

# Primitive |entry| shapes by squared norm; the norms with two or more shapes
# give orbits whose columns are isometric but not signed-permutation images.
_SHAPES = {
    5: [(2, 1), (1,) * 5],
    6: [(2, 1, 1), (1,) * 6],
    9: [(2, 2, 1), (2, 1, 1, 1, 1, 1)],
    10: [(3, 1), (2, 2, 1, 1), (2,) + (1,) * 6],
}
# Norms N with a doubled vector 2a (|a|^2 = N/4) and a primitive vector.
_DOUBLED = {4: ((1,), (1, 1, 1, 1)), 8: ((1, 1), (2, 1, 1, 1, 1)), 12: ((1, 1, 1), (3, 1, 1, 1))}


def _place(rng, shape, m, offset):
    col = [0] * m
    for k, x in enumerate(shape):
        col[offset + k] = x * rng.choice((1, -1))
    return col


def _from_columns(cols):
    return tuple(zip(*cols)) if cols else ()


def _cycle_action(sizes):
    """Block-diagonal permutation matrix shifting each block cyclically."""
    images, base = [], 0
    for s in sizes:
        images += [base + (t + 1) % s for t in range(s)]
        base += s
    return signed_perm_matrix(images, [1] * len(images))


def witness_block(rng, m: int):
    """(phi, f): columns F^t v_j for a signed permutation F of order p.

    F.phi = phi.f holds by construction, so the verdict is `witness`.
    """
    for _ in range(20):
        p = rng.randrange(2, min(5, m) + 1)
        cycles = m // p
        images, signs = list(range(m)), [1] * m
        for c in range(cycles):
            idx = list(range(c * p, (c + 1) * p))
            for t in range(p):
                images[idx[t]] = idx[(t + 1) % p]
            s = [rng.choice((1, -1)) for _ in range(p - 1)]
            s.append(1 if s.count(-1) % 2 == 0 else -1)
            for t in range(p):
                signs[idx[t]] = s[t]
        big_f = signed_perm_matrix(images, signs)
        orbits = max(1, m // p - rng.randrange(2))
        cols = []
        for _ in range(orbits):
            v = [rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(m)]
            for _ in range(p):
                cols.append(tuple(v))
                v = [sum(big_f[i][k] * v[k] for k in range(m)) for i in range(m)]
        phi = _from_columns(cols)
        if rank(phi) == len(cols):
            return phi, _cycle_action([p] * orbits)
    raise RuntimeError("could not draw a full-rank witness block")


def twin_block(rng, rational: bool):
    """(phi, f): one orbit of p disjoint-support columns of equal norm.

    rational=False: every column is primitive but the |entry| shapes differ,
    so the span test passes (the lattice is saturated and f permutes its
    basis) and row matching fails: `refuted_search`.
    rational=True: column 0 is 2a and column 1 is primitive, so a = phi(X_0)/2
    lies in the saturation and maps to phi(X_1)/2, which is not integral:
    `refuted_rational`.
    """
    p = rng.randrange(2, 5)
    if rational:
        norm = rng.choice(sorted(_DOUBLED))
        half, prim = _DOUBLED[norm]
        shapes = [tuple(2 * x for x in half), prim] + [
            rng.choice([tuple(2 * x for x in half), prim]) for _ in range(p - 2)
        ]
    else:
        norm = rng.choice(sorted(_SHAPES))
        options = _SHAPES[norm]
        first, second = rng.sample(options, 2)
        shapes = [first, second] + [rng.choice(options) for _ in range(p - 2)]
        rng.shuffle(shapes)
    m = sum(len(s) for s in shapes)
    cols, offset = [], 0
    for s in shapes:
        cols.append(_place(rng, s, m, offset))
        offset += len(s)
    return _from_columns(cols), _cycle_action([p])


def direct_sum(a, b):
    """Block sum of two (phi, f) pairs."""
    (pa, fa), (pb, fb) = a, b
    na, nb = len(fa), len(fb)
    phi = tuple(tuple(r) + (0,) * nb for r in pa) + tuple((0,) * na + tuple(r) for r in pb)
    f = tuple(tuple(r) + (0,) * nb for r in fa) + tuple((0,) * na + tuple(r) for r in fb)
    return phi, f


def conjugate(rng, phi, f):
    """Random signed permutation T of the target and relabelling P of the
    domain: (T.phi.P, P^T f P).  The verdict does not change."""
    m, n = len(phi), len(f)
    t = signed_perm_matrix(rng.sample(range(m), m), [rng.choice((1, -1)) for _ in range(m)])
    p = signed_perm_matrix(rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)])
    return matmul(matmul(t, phi), p), matmul(matmul(transpose(p), f), p)

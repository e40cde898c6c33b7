"""Independent dense oracles for the linear-algebra contracts.

Deliberately separate from the package implementation: dense list-of-lists
storage, corner-first pivoting, and Fraction Gaussian elimination, so that
agreement with the sparse production code is meaningful.  ``from_entries``
and ``from_dense`` build the package's column-major matrices for the tests,
and ``dense_transforms`` rebuilds U and V from a rows-logged and a
cols-logged Smith form by reading their logs afresh, without the package's
replay.
"""

from fractions import Fraction

from precrossed.homology import SparseIntMatrix


def from_entries(rows, cols, entries):
    """The SparseIntMatrix of a {(row, col): value} dict; zeros are left out, and
    each column holds its (row, value) pairs in the dict's order."""
    columns = [[] for _ in range(cols)]
    for (r, c), v in entries.items():
        if v:
            columns[c].append((r, v))
    return SparseIntMatrix(rows, cols, [tuple(col) for col in columns])


def from_dense(rows, cols, dense):
    """The SparseIntMatrix of a list of rows."""
    return from_entries(rows, cols, {
        (i, j): v for i, row in enumerate(dense) for j, v in enumerate(row)})


def dense_smith(matrix):
    """Invariant factors of an integer matrix by textbook dense elimination."""
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while True:
        candidates = [
            (abs(m[i][j]), i, j)
            for i in range(top, rows)
            for j in range(top, cols)
            if m[i][j]
        ]
        if not candidates:
            break
        _, pi, pj = min(candidates)
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            if m[top][top] < 0:
                m[top] = [-v for v in m[top]]
            dirty = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    if q:
                        m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // m[top][top]
                    if q:
                        for i in range(rows):
                            m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        dirty = True
                        break
            if dirty:
                continue
            d = m[top][top]
            culprit = None
            for i in range(top + 1, rows):
                for j in range(top + 1, cols):
                    if m[i][j] % d:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            m[top] = [a + b for a, b in zip(m[top], m[culprit])]
        diag.append(abs(m[top][top]))
        top += 1
    return diag


def dense_rank(matrix, p=None):
    """Rank over Q by Fraction Gaussian elimination, or over GF(p) on residues mod p."""
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    m = [[Fraction(v) if p is None else norm(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    for j in range(cols):
        pivot = next((i for i in range(rank, rows) if m[i][j]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][j] if p is None else pow(m[rank][j], -1, p)
        m[rank] = [norm(v * inv) for v in m[rank]]
        for i in range(rows):
            if i != rank and m[i][j]:
                factor = m[i][j]
                m[i] = [norm(a - factor * b) for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def first_column_basis(matrix, p=None):
    """The columns that raise the rank of the columns kept before them, over Q
    (p None) or GF(p): the greedy first column basis in index order."""
    kept = []
    for j in range(len(matrix[0]) if matrix else 0):
        trial = kept + [j]
        if dense_rank([[row[c] for c in trial] for row in matrix], p) == len(trial):
            kept.append(j)
    return kept


def dense_det(matrix):
    """Exact determinant over Q (for unimodularity checks)."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for j in range(n):
        pivot = next((i for i in range(j, n) if m[i][j]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != j:
            m[j], m[pivot] = m[pivot], m[j]
            det = -det
        det *= m[j][j]
        inv = 1 / m[j][j]
        for i in range(j + 1, n):
            if m[i][j]:
                factor = m[i][j] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[j])]
    return det


def dense_transforms(rows_run, cols_run):
    """Dense U, U^-1, V, V^-1 of a Smith form, so that U M V = D, from two
    runs of it: U and U^-1 from the one logged on "rows", V and V^-1 from the
    one logged on "cols".

    Each logged (i, t, q) is "line i -= q * line t", and (t, t, 0) negates row
    t: U starts as the identity and takes each row operation, V each column
    operation, and their inverses take the inverse operations on the other
    side.  Then the pivot orders put D on the diagonal: U's rows and V's
    columns are taken in ``row_order`` and ``col_order``.
    """
    def eye(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    rows, cols = rows_run.row_order, cols_run.col_order
    u, uinv = eye(len(rows)), eye(len(rows))
    for i, t, q in rows_run.row_ops:
        if i == t:
            assert q == 0
            u[t] = [-x for x in u[t]]
            for line in uinv:
                line[t] = -line[t]
        else:
            u[i] = [a - q * b for a, b in zip(u[i], u[t])]
            for line in uinv:  # U^-1 <- U^-1 (I + q e_i e_t^T)
                line[t] += q * line[i]
    v, vinv = eye(len(cols)), eye(len(cols))
    for j, t, q in cols_run.col_ops:
        assert j != t
        for line in v:
            line[j] -= q * line[t]
        vinv[t] = [a + q * b for a, b in zip(vinv[t], vinv[j])]
    return ([u[i] for i in rows], [[line[i] for i in rows] for line in uinv],
            [[line[j] for j in cols] for line in v], [vinv[j] for j in cols])


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def unit_heavy_matrix(rng, max_dim=14, rows=None, cols=None):
    """A sparse boundary-like test input: mostly +-1 entries, where most pivots
    are units, with a few planted 2s and 3s that leave a residual block.  A
    dimension not given is drawn from 1..max_dim."""
    rows = rows or rng.randint(1, max_dim)
    cols = cols or rng.randint(1, max_dim)
    dense = [
        [rng.choice((1, -1)) if rng.random() < 0.25 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    for _ in range(rng.randint(0, 3)):
        dense[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((2, -2, 3, -3))
    return dense


def _lattice_basis(vectors, n):
    """An echelon basis of the Z-span of integer vectors of length n, as
    (pivot coordinate, vector) pairs, by Euclid steps coordinate by coordinate."""
    vecs = [list(v) for v in vectors if any(v)]
    basis = []
    for i in range(n):
        while True:
            holders = [v for v in vecs if v[i]]
            if len(holders) <= 1:
                break
            p = min(holders, key=lambda v: abs(v[i]))
            for v in holders:
                if v is not p:
                    q = v[i] // p[i]
                    v[:] = [a - q * b for a, b in zip(v, p)]
            vecs = [v for v in vecs if any(v)]
        if holders:
            basis.append((i, holders[0]))
            vecs = [v for v in vecs if v is not holders[0]]
    return basis


def _group(diag, n):
    """(free rank, torsion orders) of Z^n modulo a lattice with invariant factors diag."""
    return n - len(diag), [d for d in diag if d > 1]


def cokernel_invariants(matrix, orders):
    """The group Z^n / (columns of M + orders), n = len(orders), as (free rank, torsion):
    the cokernel of M into the group with these cyclic orders (0 for Z)."""
    n = len(orders)
    relations = [[int(r == c) * d for c, d in enumerate(orders) if d] for r in range(n)]
    return _group(dense_smith([row + rel for row, rel in zip(matrix, relations)]), n)


def image_invariants(matrix, orders):
    """The image of M in Z^n / (orders), as (free rank, torsion): the lattice L spanned
    by M's columns and the relations, modulo the relations, written in a basis of L."""
    n = len(orders)
    relations = [[int(r == c) * d for r in range(n)] for c, d in enumerate(orders) if d]
    columns = [list(c) for c in zip(*matrix)] if matrix and matrix[0] else []
    basis = _lattice_basis(columns + relations, n)
    coords = []  # the relations in the basis of L, one column each
    for w in relations:
        w, c = list(w), []
        for i, b in basis:
            q, rem = divmod(w[i], b[i])
            assert rem == 0
            c.append(q)
            w = [a - q * v for a, v in zip(w, b)]
        assert not any(w)
        coords.append(c)
    rows = [list(r) for r in zip(*coords)] if coords else [[] for _ in basis]
    return _group(dense_smith(rows), len(basis))

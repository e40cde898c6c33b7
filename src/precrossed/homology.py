"""Exact homology of finite chain complexes over Z, Q, and prime fields.

Integer homology runs through a sparse Smith normal form on arbitrary
precision integers, in two phases.  The unit phase goes column by column and
eliminates each +-1 pivot exactly, taking the shortest row among the column's
+-1 holders.  The residual phase reduces what is left, pivoting on the
smallest nonzero magnitude with a row/column fill tie-break, with Euclid steps
and a divisibility fix-up.  ``ChainComplex.snf`` goes bottom-up and drops the
rows of d_k that are unit-phase pivot columns of d_(k-1) before it reduces
d_k, which keeps the invariant factors.  A logged run records the elementary
operations of one side, rows or columns, and the generator route replays the
side it reads where it needs a transform.  Field Betti numbers use ranks by
column insertion instead, computed bottom-up with the rows that the pivots
one degree down account for dropped.  Each column is reduced at its leading
(largest) row against one stored pivot vector per row, kept in two
row-indexed lists (leading entries, with dropped rows marked, and tuples of
the other pairs): normalized to a leading 1 over GF(p), and reduced by
fraction-free integer steps over Q.  The two coefficient routes share no
code.

Boundary matrices are built by one function, ``assemble_complex``, for every
complex: each simplex's faces are summed with signs +1, -1, ... in the order
given.  They are stored column-major in packed machine integers: column
offsets and rows as 4-byte ints and values as single bytes, each in one
``bytes`` object, with the nonzeros of a column in the order the faces of
its simplex first reach each row.  A field whose ints do not fit keeps them
as a tuple, so every entry stays exact.  Every reader walks a matrix once,
column by column (``SparseIntMatrix.walk``): the Smith form builds its own
row dicts and column holder dicts from it, and the field ranks copy one
column at a time.  The d o d check decodes d_(k-1) into column tuples, with
one shared (row, +-1) pair per row, and walks d_k against them.
"""

from __future__ import annotations

from itertools import islice

from ._values import pack, unpacked, value_type
from .errors import DegreeOutOfRange, NotChainMap

MATRIX_CAP = 5_000


class SparseIntMatrix(value_type("SparseIntMatrix", "rows cols starts index values")):
    """Integer matrix stored column-major in packed machine integers.

    Column c holds the nonzeros ``starts[c]:starts[c + 1]`` of ``index``, their
    rows, and of ``values``.  ``starts`` (cols + 1 offsets from 0) and
    ``index`` are packed as native 'i' ints and ``values`` as 'b' ints, each
    field one ``bytes`` (see ``_values.pack``); a field with an int that does
    not fit is a tuple of its ints instead.  Within a column, rows are
    distinct and lie in range(rows), and no value is zero.  ``walk`` reads
    the columns in place; ``columns``, the list of (row, value) pair tuples,
    and ``entries``, a {(row, col): value} dict, are copies for inspection.
    """

    __slots__ = ()

    @classmethod
    def from_columns(cls, rows: int, cols: int, columns) -> "SparseIntMatrix":
        """The matrix whose column c is the (row, value) pairs ``columns[c]``."""
        starts, index, values = [0], [], []
        for col in columns:
            for r, v in col:
                index.append(r)
                values.append(v)
            starts.append(len(index))
        return cls(rows, cols, pack(starts, "i"), pack(index, "i"), pack(values, "b"))

    def walk(self):
        """One iterator of (row, value) pairs per column, in column order.

        The columns are read off one pass over the nonzeros, so, as with the
        groups of ``itertools.groupby``, a column's iterator is only valid
        until the next one is taken; what was left unread of it is skipped.
        """
        starts = unpacked(self.starts, "i")
        pairs = zip(unpacked(self.index, "i"), unpacked(self.values, "b"))
        for a, b in zip(starts, starts[1:]):
            col = islice(pairs, b - a)
            yield col
            for _ in col:
                pass

    @property
    def columns(self) -> list[tuple[tuple[int, int], ...]]:
        return [tuple(col) for col in self.walk()]

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(r, c): v for c, col in enumerate(self.walk()) for r, v in col}


class SNFResult(value_type("SNFResult", "diag row_order col_order row_ops col_ops unit_cols")):
    """Diagonal d_1 | d_2 | ..., the unit phase's pivot columns, and from a
    logged run one side of the record of U M V = D.

    A log lists the operations of one side in the order made: (i, t, q) is
    "line i -= q * line t" on rows or on columns, and (t, t, 0) negates row t.
    With W the product E_n ... E_1 of a log as row operations, U = P
    W(row_ops) and V = W(col_ops)^T Q, where P M Q takes rows and columns in
    ``row_order`` and ``col_order``: the pivots, then the rest ascending.  A
    run logged on "rows" leaves ``col_ops`` None, one on "cols" leaves
    ``row_ops`` None, and an unlogged run leaves all four None.
    ``unit_cols`` are the columns that the unit phase pivoted on, in order."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.diag)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)


def _axpy(x: dict[int, int], q: int, y: dict[int, int]) -> None:
    """x += q * y in place, on sparse vectors; q is nonzero."""
    for k, v in y.items():
        nv = x.get(k, 0) + q * v
        if nv:
            x[k] = nv
        else:
            del x[k]


def _replay(ops: list[tuple[int, int, int]], rows: dict[int, dict[int, int]],
            inverse: bool = False, transpose: bool = False) -> None:
    """rows <- A rows in place, A being W, W^-1, W^T or W^-T for the product W
    of a Smith log (see SNFResult).  ``rows`` is a sparse row-major matrix,
    {line: {column: value}}, with absent lines zero.  The log runs forward for
    W and W^-T, backward for W^-1 and W^T."""
    for i, t, q in ops if inverse == transpose else reversed(ops):
        if transpose:
            i, t = t, i
        if not q:  # a negation (i = t) is its own inverse and transpose
            rows[i] = {k: -v for k, v in rows.get(i, {}).items()}
        elif t in rows:
            _axpy(rows.setdefault(i, {}), q if inverse else -q, rows[t])


class _Smith:
    """Sparse elimination state, in two phases of one algorithm.

    The unit phase eliminates every +-1 pivot in column order; the residual
    phase runs smallest-|v| pivoting with Euclid steps and a divisibility
    fix-up on what is left.  Nothing is swapped: each pivot is recorded as a
    (row, col) pair.  ``rows`` maps a row to its {col: value} entries, and
    ``cols`` maps a column to its holder rows, a dict used as a key set.
    With ``log`` "rows" or "cols", each operation on that side is appended to
    ``row_ops`` or ``col_ops``, in the format of SNFResult.  The rows in
    ``drop`` are left out, as if they were zero.
    """

    def __init__(self, mat: SparseIntMatrix, log: str | None, drop=frozenset()):
        self.ncols = mat.cols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, dict[int, None]] = {}
        for c, col in enumerate(mat.walk()):
            holders = {}
            for r, v in col:
                if r not in drop:
                    holders[r] = None
                    self.rows.setdefault(r, {})[c] = v
            if holders:
                self.cols[c] = holders
        # (i, t, q) triples, as in SNFResult, on the logged side only
        self.row_ops = [] if log == "rows" else None
        self.col_ops = [] if log == "cols" else None
        self.pivots: list[tuple[int, int]] = []
        self.diag: list[int] = []
        self.units = 0  # the unit phase's pivots are pivots[:units]

    # -- elementary operations (logged on request) ------------------------------

    def row_sub(self, i: int, t: int, q: int) -> None:
        """row_i -= q * row_t"""
        row_t = self.rows.get(t, {})
        row_i = self.rows.get(i)
        if row_i is None:
            row_i = self.rows[i] = {}
        for c, v in row_t.items():
            nv = row_i.get(c, 0) - q * v
            if nv:
                row_i[c] = nv
                self.cols.setdefault(c, {})[i] = None
            elif c in row_i:
                del row_i[c]
                del self.cols[c][i]
        if not row_i:
            del self.rows[i]
        if self.row_ops is not None:
            self.row_ops.append((i, t, q))

    def col_sub(self, j: int, t: int, q: int) -> None:
        """col_j -= q * col_t"""
        for r in list(self.cols.get(t, ())):
            row = self.rows[r]
            nv = row.get(j, 0) - q * row[t]
            if nv:
                row[j] = nv
                self.cols.setdefault(j, {})[r] = None
            elif j in row:
                del row[j]
                del self.cols[j][r]
        if self.col_ops is not None:
            self.col_ops.append((j, t, q))

    def negate_row(self, t: int) -> None:
        row = self.rows[t]
        for c in row:
            row[c] = -row[c]
        if self.row_ops is not None:
            self.row_ops.append((t, t, 0))

    def retire(self, i: int, j: int) -> None:
        """Record the positive pivot (i, j) and drop its row and column.

        Column j holds only the pivot.  Clearing the rest of row i with column
        operations would change no other entry, so they are only logged.
        """
        row = self.rows.pop(i)
        for c in row:
            del self.cols[c][i]
        del self.cols[j]
        d = row.pop(j)
        if self.col_ops is not None:
            self.col_ops.extend((c, j, v // d) for c, v in row.items())
        self.pivots.append((i, j))
        self.diag.append(d)

    # -- unit phase -----------------------------------------------------------

    def eliminate_units(self) -> None:
        """Pivot on a +-1 in each column that has one, the shortest row first."""
        rows = self.rows
        for j in range(self.ncols):
            units = [r for r in self.cols.get(j, ()) if rows[r][j] in (1, -1)]
            if not units:
                continue
            i = min(units, key=lambda r: (len(rows[r]), r))
            if rows[i][j] < 0:
                self.negate_row(i)
            for r in sorted(self.cols[j]):
                if r != i:
                    self.row_sub(r, i, rows[r][j])
            self.retire(i, j)

    # -- residual phase -------------------------------------------------------

    def pick(self) -> tuple[int, int]:
        """Smallest |v| in the residual, then the smallest fill (Markowitz) count."""
        cols = self.cols
        return min(
            ((abs(v), (len(row) - 1) * (len(cols[j]) - 1), i, j)
             for i, row in self.rows.items() for j, v in row.items())
        )[2:]

    def clear(self, t: int, s: int) -> tuple[int, int]:
        """Reduce row t and column s to the pivot at (t, s), which then divides
        every entry left; Euclid steps move the pivot.  Returns where it ends."""
        while True:
            if self.rows[t][s] < 0:
                self.negate_row(t)
            moved = False
            for i in sorted(r for r in self.cols[s] if r != t):
                q = self.rows[i][s] // self.rows[t][s]
                if q:
                    self.row_sub(i, t, q)
                if self.rows.get(i, {}).get(s, 0):
                    # remainder smaller than the pivot: it becomes the pivot (Euclid)
                    t, moved = i, True
                    break
            if moved:
                continue
            for j in sorted(c for c in self.rows[t] if c != s):
                q = self.rows[t][j] // self.rows[t][s]
                if q:
                    self.col_sub(j, s, q)
                if self.rows[t].get(j, 0):
                    s, moved = j, True
                    break
            if moved:
                continue
            d = self.rows[t][s]
            if d != 1:
                culprit = next(
                    (i for i, row in self.rows.items()
                     if i != t and any(v % d for v in row.values())),
                    None,
                )
                if culprit is not None:
                    self.row_sub(t, culprit, -1)  # row_t += row_culprit
                    continue
            return t, s

    def run(self) -> tuple[int, ...]:
        self.eliminate_units()
        self.units = len(self.pivots)
        while self.rows:
            self.retire(*self.clear(*self.pick()))
        return tuple(self.diag)


def smith_normal_form(mat: SparseIntMatrix, log: str | None = None, *,
                      drop_rows=()) -> SNFResult:
    """Diagonalize over Z; a run logged on "rows" or "cols" also records that
    side of U M V = D, det(U), det(V) = +-1.

    Logging never changes a pivot, so every run of one matrix gives the same
    diagonal and pivots.  The rows in ``drop_rows`` are taken as zero.
    """
    if log not in (None, "rows", "cols"):
        raise ValueError(f"log must be None, 'rows' or 'cols', not {log!r}")
    drop = frozenset(drop_rows)
    for r in drop:
        if not 0 <= r < mat.rows:
            raise ValueError(f"drop row {r} is outside range({mat.rows})")
    state = _Smith(mat, log, drop)
    diag = state.run()
    for a, b in zip(diag, diag[1:]):
        if b % a:
            raise AssertionError(f"invariant factors {a}, {b} break the divisibility chain")
    unit_cols = tuple(j for _, j in state.pivots[:state.units])
    if log is None:
        return SNFResult(diag, None, None, None, None, unit_cols)
    # the pivots' rows and columns, then the rest ascending
    orders = [([p[side] for p in state.pivots], n) for side, n in ((0, mat.rows), (1, mat.cols))]
    orders = [lines + sorted(set(range(n)).difference(lines)) for lines, n in orders]
    return SNFResult(diag, *orders, state.row_ops, state.col_ops, unit_cols)


def gaussian_rank(mat: SparseIntMatrix, p: int | None = None, *,
                  drop_rows=()) -> tuple[int, list[int]]:
    """(rank, pivot columns) by column insertion over GF(p), or over Q when p is None.

    The echelon is two lists indexed by row: the leading entry of the pivot
    vector stored under that row (0 if there is none, None for a row in
    ``drop_rows``) and the tuple of its other (row, entry) pairs.  Each column,
    copied without the dropped rows, is reduced while its largest row keys a
    stored pivot vector, and is stored under that row if left nonzero.  So a
    column is a pivot exactly when it is independent of the columns before it:
    the pivot columns are the first column basis in index order.
    """
    leads: list = [0] * mat.rows
    rests: list = [()] * mat.rows
    for r in drop_rows:
        if not 0 <= r < mat.rows:
            raise ValueError(f"drop row {r} is outside range({mat.rows})")
        leads[r] = None
    if p is None:
        from math import gcd  # only the Q route needs it
    pivots: list[int] = []
    for j, col in enumerate(mat.walk()):
        if p is None:
            v = {r: x for r, x in col if leads[r] is not None}
        else:
            v = {r: x % p for r, x in col if leads[r] is not None and x % p}
        while v:
            r = max(v)
            lead = leads[r]
            if not lead:
                break
            b = v.pop(r)
            if p is None:  # v <- a v - b w, then divided by the gcd of its entries
                g = gcd(lead, b)
                a, b = lead // g, b // g
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    v = {k: a * x for k, x in v.items()}
            for k, x in rests[r]:
                nv = v.get(k, 0) - b * x
                if p is not None:
                    nv %= p
                if nv:
                    v[k] = nv
                else:
                    del v[k]
            if p is None and a != 1 and v:
                g = gcd(*v.values())
                if g != 1:
                    v = {k: x // g for k, x in v.items()}
        if v:
            lead = v.pop(r)
            if p is not None:  # scaled to a leading 1
                inv, lead = pow(lead, -1, p), 1
                v = {k: x * inv % p for k, x in v.items()}
            leads[r], rests[r] = lead, tuple(v.items())
            pivots.append(j)
    return len(pivots), pivots


def field_characteristic(coeff: str) -> int | None:
    """Map a coefficient tag to a field characteristic; None means Q."""
    if coeff == "Q":
        return None
    if coeff.startswith("F"):
        p = int(coeff[1:])
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{coeff} is not a prime field")
        return p
    raise ValueError(f"unknown field coefficient tag {coeff!r}")


class HomologyGroup(value_type("HomologyGroup", "degree coeff betti torsion")):
    """H_degree with coefficients ``coeff``: a Betti rank plus torsion orders (over Z only)."""

    __slots__ = ()

    @classmethod
    def from_orders(cls, degree: int, orders) -> "HomologyGroup":
        """H_degree over Z with one cyclic summand per order: 0 is Z, d > 1 is Z/d, 1 is trivial."""
        return cls(degree, "Z", orders.count(0), tuple(d for d in orders if d > 1))

    def render(self) -> str:
        parts = []
        if self.betti == 1:
            parts.append(self.coeff)
        elif self.betti > 1:
            parts.append(f"{self.coeff}^{self.betti}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) or "0"

    def machine(self) -> str:
        return f"{self.degree};{self.coeff};{self.betti};{','.join(str(t) for t in self.torsion)}"


class ChainComplex:
    """Normalized chains: one ordered basis of simplices per degree plus boundary matrices.

    Construction checks every boundary's shape and that d o d = 0.
    """

    def __init__(self, bases: list, boundaries: list[SparseIntMatrix],
                 spec: object | None = None):
        self.bases = bases
        self.boundaries = boundaries
        self.spec = spec
        self._snf_cache: dict = {}
        self._rank_cache: dict = {}
        self._faces_checked: dict = {}
        if len(self.boundaries) != len(self.bases):
            raise AssertionError("one boundary matrix per degree expected")
        for k, mat in enumerate(self.boundaries):
            want_rows = 0 if k == 0 else len(self.bases[k - 1])
            shape = (mat.rows, mat.cols, len(unpacked(mat.starts, "i")) - 1)
            if shape != (want_rows, len(self.bases[k]), mat.cols):
                raise AssertionError(f"boundary {k} has shape {mat.rows}x{mat.cols}")
        for k in range(2, len(self.boundaries)):
            _assert_composes_to_zero(self.boundaries[k - 1], self.boundaries[k], k)

    @property
    def max_degree(self) -> int:
        return len(self.bases) - 1

    def dim(self, k: int) -> int:
        return len(self.bases[k])

    def snf(self, k: int) -> SNFResult:
        """Unlogged Smith form of d_k, computed bottom-up with unit-pivot compression.

        Before d_k is reduced, its rows indexed by the unit phase's pivot
        columns Q of d_(k-1) are dropped.  The unit phase only adds multiples
        of pivot rows to other rows, so the minor of d_(k-1) on its pivot rows
        R and on Q has determinant +-1.  On ker d_(k-1), which holds im d_k,
        the R rows then make the Q coordinates an integral function of the
        rest: dropping Q is an isomorphism of that saturated lattice onto
        Z^(rest), so the rank and the invariant factors of d_k are kept.
        Pivots of the residual phase give no such minor and are not dropped.
        """
        for j in range(k + 1):
            if j not in self._snf_cache:
                below = self._snf_cache[j - 1].unit_cols if j else ()
                self._snf_cache[j] = smith_normal_form(self.boundaries[j], drop_rows=below)
        return self._snf_cache[k]

    def field_rank(self, k: int, p: int | None) -> int:
        """Rank of d_k over GF(p), or over Q when p is None; kept apart from the Smith cache.

        Ranks are computed bottom-up with compression: the rows of d_k indexed
        by the pivot columns Q of d_(k-1) are dropped first.  Q is a column
        basis of d_(k-1), and d_(k-1) d_k = 0, so a column of d_k that vanishes
        off Q is zero: dropping Q is injective on im d_k, and the pivot columns
        of the compressed d_k are again a column basis of d_k.
        """
        for j in range(k + 1):
            if (j, p) not in self._rank_cache:
                below = self._rank_cache[j - 1, p][1] if j else ()
                self._rank_cache[j, p] = gaussian_rank(self.boundaries[j], p, drop_rows=below)
        return self._rank_cache[k, p][0]


def _assert_composes_to_zero(upper: SparseIntMatrix, lower: SparseIntMatrix, k: int) -> None:
    """Raise unless upper lower = 0, for upper = d_(k-1) and lower = d_k.

    ``upper`` is decoded once into column tuples, in which the (row, 1) and
    (row, -1) pairs of each row are one object, and ``lower`` is walked
    against them.
    """
    plus = [(r, 1) for r in range(upper.rows)]
    minus = [(r, -1) for r in range(upper.rows)]
    pairs = (plus[r] if v == 1 else minus[r] if v == -1 else (r, v)
             for r, v in zip(unpacked(upper.index, "i"), unpacked(upper.values, "b")))
    starts = unpacked(upper.starts, "i")
    acols = [tuple(islice(pairs, b - a)) for a, b in zip(starts, starts[1:])]
    del plus, minus
    for col in lower.walk():
        acc: dict[int, int] = {}
        for mid, v in col:
            for r, w in acols[mid]:
                acc[r] = acc.get(r, 0) + v * w
        if any(acc.values()):
            raise AssertionError(f"boundary composition in degree {k} is nonzero")


def assemble_complex(bases: list, faces, spec: object | None = None) -> ChainComplex:
    """The chain complex on ``bases``: d_k sums each simplex's faces with signs +1, -1, ...

    ``faces(k, basis)`` yields one iterable of faces per simplex of ``basis``,
    in basis order.  Each d_k is packed as soon as its columns are summed
    (``_boundary``), so the d o d check runs on packed matrices alone.
    """
    boundaries = [SparseIntMatrix.from_columns(0, len(bases[0]), [()] * len(bases[0]))]
    for k in range(1, len(bases)):
        boundaries.append(_boundary(k, bases[k - 1], bases[k], faces))
    return ChainComplex(bases, boundaries, spec)


def _boundary(k: int, below, basis, faces) -> SparseIntMatrix:
    """d_k from basis to below, packed.

    The faces are looked up one simplex at a time in an index of ``below``
    made for d_k alone, so no faces are kept and an empty basis takes no
    faces.  A column is summed in a dict, whose rows and values are appended
    to two lists; the index goes before they are packed, and the lists when
    this returns.
    """
    starts, index, values = [0], [], []
    if basis:
        lookup = {s: i for i, s in enumerate(below)}
        for simplex_faces in faces(k, basis):
            col: dict[int, int] = {}
            sign = 1
            for face in simplex_faces:
                r = lookup.get(face)
                if r is not None:  # a degenerate face contributes zero
                    val = col.get(r, 0) + sign
                    if val:
                        col[r] = val
                    else:
                        del col[r]
                sign = -sign
            index += col
            values += col.values()
            starts.append(len(index))
        del lookup
    return SparseIntMatrix(len(below), len(basis), pack(starts, "i"), pack(index, "i"),
                           pack(values, "b"))


def chain_complex(spec, m_max: int, length_bound: int | None = None,
                  cap: int | None = None) -> ChainComplex:
    """Normalized chain complex of a spec in degrees 0..m_max+1, on the bases
    ``spec.nondegenerate(k, length_bound, cap)`` and the faces ``spec.faces``.

    Enumeration counts against ``cap`` (MATRIX_CAP when None), so a basis over
    it is never built."""
    cap = MATRIX_CAP if cap is None else cap
    bases = [spec.nondegenerate(k, length_bound, cap=cap) for k in range(m_max + 2)]
    return assemble_complex(bases, spec.faces, spec)


def homology(comp: ChainComplex, m: int, coeff: str = "Z") -> HomologyGroup:
    """Betti rank and torsion of H_m with the requested coefficients."""
    if m < 0 or m + 1 > comp.max_degree:
        raise DegreeOutOfRange(f"H_{m} needs degree {m + 1}; complex stops at {comp.max_degree}")
    dim = comp.dim(m)
    if coeff == "Z":
        below = comp.snf(m + 1)
        return HomologyGroup(m, coeff, dim - comp.snf(m).rank - below.rank, below.torsion)
    p = field_characteristic(coeff)
    return HomologyGroup(m, coeff, dim - comp.field_rank(m, p) - comp.field_rank(m + 1, p), ())


class HomologyBasis(value_type("HomologyBasis", "degree orders chains snf asnf rows")):
    """Integral generators of H_m plus the data needed to classify any cycle.

    Vectors, the generator ``chains`` included, are sparse {index: value} dicts.
    ``orders``: 0 marks a free generator, d > 1 torsion of order d; ``snf``: the
    Smith form U d_m V = D, of rank r, logged on columns, whose columns r.. of V
    are a basis of the cycles; ``asnf``: U' A V' = D' of the boundaries'
    coordinates A in that basis, logged on rows; ``rows``: each generator's
    row of U'."""

    __slots__ = ()


def _transpose(rows: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """{line: {column: value}} -> {column: {line: value}}"""
    out: dict[int, dict[int, int]] = {}
    for i, row in rows.items():
        for c, v in row.items():
            out.setdefault(c, {})[i] = v
    return out


def _kernel_coords(snf: SNFResult, lines: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Rows r.. of V^-1 lines, renumbered from 0, for U d_m V = D of rank r: the
    unique coordinates in the cycle basis V[:, r:] of the columns of ``lines``
    (row-major, and spent), which are cycles iff the rows before r are 0."""
    _replay(snf.col_ops, lines, inverse=True, transpose=True)
    if any(lines.get(k) for k in snf.col_order[:snf.rank]):
        raise AssertionError("vector lies outside the kernel")
    return {k: lines[i] for k, i in enumerate(snf.col_order[snf.rank:]) if lines.get(i)}


def homology_generators(comp: ChainComplex, m: int) -> HomologyBasis:
    """Present H_m(Z) with explicit generator cycles (see HomologyBasis)."""
    if m < 0 or m + 1 > comp.max_degree:
        raise DegreeOutOfRange(f"H_{m} needs degree {m + 1}; complex stops at {comp.max_degree}")
    snf = smith_normal_form(comp.boundaries[m], log="cols")
    bnd = comp.boundaries[m + 1]
    # d_(m+1) row by row, then its kernel coordinates by column, each freed once A holds it
    coords = _transpose(_kernel_coords(snf, _transpose(dict(enumerate(map(dict, bnd.walk()))))))
    a = SparseIntMatrix.from_columns(comp.dim(m) - snf.rank, bnd.cols,
                                     (coords.pop(c, {}).items() for c in range(bnd.cols)))
    asnf = smith_normal_form(a, log="rows")
    rows = [i for i in range(a.rows) if i >= asnf.rank or asnf.diag[i] > 1]
    # V[:, r:] U'^-1 on the unit vectors of the rows whose factor in D' is not 1
    picked = {asnf.row_order[i]: {g: 1} for g, i in enumerate(rows)}
    _replay(asnf.row_ops, picked, inverse=True)
    lines = {snf.col_order[snf.rank + k]: row for k, row in picked.items()}
    _replay(snf.col_ops, lines, transpose=True)
    chains = _transpose(lines)
    gens = [(asnf.diag[i] if i < asnf.rank else 0, chains[g], i) for g, i in enumerate(rows)]
    # torsion orders ascending, free generators last; generators of one order
    # are listed shortest chain first, then by support
    gens.sort(key=lambda g: (g[0] == 0, g[0], len(g[1]), sorted(g[1])))
    return HomologyBasis(m, [d for d, _, _ in gens], [chain for _, chain, _ in gens],
                         snf, asnf, [i for _, _, i in gens])


def classify_cycle(basis: HomologyBasis, vec: dict[int, int]) -> tuple[int, ...]:
    """Generator coordinates of the class of a cycle, given as an {index: value}
    vector: U' applied to its coordinates (V^-1 vec)[r:], at the generators' rows."""
    coords = _kernel_coords(basis.snf, {i: {0: v} for i, v in vec.items() if v})
    _replay(basis.asnf.row_ops, coords)
    w = [coords.get(basis.asnf.row_order[i], {}).get(0, 0) for i in basis.rows]
    return tuple(x % d if d else x for x, d in zip(w, basis.orders))


class InducedMap(value_type("InducedMap", "degree matrix source_orders target_orders")):
    """Matrix of a simplicial map on homology generators (rows: target, cols: source)."""

    __slots__ = ()

    def is_isomorphism(self) -> bool:
        """Exact: f is an isomorphism iff the orders agree and f is onto.

        Finitely generated abelian groups are Hopfian, so an onto map between
        isomorphic ones is injective.  f is onto iff the Smith form of
        [M | diag(target torsion orders)] has rank n_target and every factor 1.
        """
        if self.source_orders != self.target_orders:
            return False
        columns = [tuple((r, row[c]) for r, row in enumerate(self.matrix) if row[c])
                   for c in range(len(self.source_orders))]
        columns += [((r, d),) for r, d in enumerate(self.target_orders) if d]
        n = len(self.target_orders)
        diag = smith_normal_form(SparseIntMatrix.from_columns(n, len(columns), columns)).diag
        return len(diag) == n and all(d == 1 for d in diag)


def induced_map(f, c_src: ChainComplex, c_tgt: ChainComplex, m: int) -> InducedMap:
    """Matrix of the induced map on H_m; verifies the rule commutes with faces first."""
    if c_src.spec is None or c_tgt.spec is None:
        raise NotChainMap("induced maps need spec-built complexes")
    # the top degree already checked for this (map, target); both hash by identity
    checked = c_src._faces_checked.get((f, c_tgt), 0)
    top = min(m + 1, c_src.max_degree)
    for k in range(checked + 1, top + 1):
        basis = c_src.bases[k]
        for s, faces in zip(basis, c_src.spec.faces(k, basis)):
            fs = f.apply(k, s)
            for i, face in enumerate(faces):
                if f.apply(k - 1, face) != c_tgt.spec.face(k, fs, i):
                    raise NotChainMap(
                        f"rule fails d_{i} at degree-{k} simplex {c_src.spec.encode(k, s)}"
                    )
        c_src._faces_checked[f, c_tgt] = k
    b_src = homology_generators(c_src, m)
    b_tgt = homology_generators(c_tgt, m)
    tgt_index = {s: i for i, s in enumerate(c_tgt.bases[m])}
    columns = []
    for chain in b_src.chains:
        pushed: dict[int, int] = {}
        for idx, coeff in chain.items():
            ti = tgt_index.get(f.apply(m, c_src.bases[m][idx]))
            if ti is not None:
                pushed[ti] = pushed.get(ti, 0) + coeff
        columns.append(classify_cycle(b_tgt, pushed))
    matrix = [
        [columns[c][r] for c in range(len(columns))] for r in range(len(b_tgt.orders))
    ]
    return InducedMap(m, matrix, b_src.orders, b_tgt.orders)

"""Exact dense linear algebra over Q or F_p.

Row-vector convention throughout: vectors are rows and linear maps act on the
right, v |-> v.M, so composition of maps reads left to right, matching path
composition in the algebra layer.

The kernels read `field.p` once and then work natively: int and `Fraction`
arithmetic over Q, `int` arithmetic reduced `% p` over F_p.  Entries stay
canonical (`fields.q_canon`): over Q an int when integral and a `Fraction`
only otherwise, over F_p an int in [0, p).  So integral work stays on
machine ints until a pivot division makes a fraction, and a row is
re-canonicalised only when a fraction took part in its update.

There is one elimination, `rref`, with no transform.  Kernels are read off
the free columns of the reduced system, written with its unknowns in
reverse order so that those columns give the canonical basis directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldSpec, q_canon, q_inv


class LinalgError(ValueError):
    pass


def _entry(p: int | None, x):
    """A caller's entry, checked: canonical over Q, an int over F_p."""
    if type(x) is int:
        return x
    if p is None and isinstance(x, Fraction):
        return q_canon(x)
    if isinstance(x, int):  # bool or another int subclass
        return int(x)
    raise LinalgError(f"matrix entry {x!r} is not an int{' or a Fraction' if p is None else ''}")


def _canon_row(row: list) -> list:
    return [x if type(x) is int else q_canon(x) for x in row]


def _has_fraction(row: list) -> bool:
    return not all(type(x) is int for x in row)


def mul_rows(p: int | None, a: list[list], b: list[list], ncols: int) -> list[list]:
    """The product of row lists a (n x k) and b (k x ncols): reduced over
    F_p, but over Q (p None) an integral value may come back as a Fraction,
    which `==` does not see.  `Matrix.mul` canonicalises it; the module
    checks, which only compare, share it as it is."""
    sparse = [[(j, y) for j, y in enumerate(rk) if y] for rk in b]
    out = []
    for ri in a:
        acc = [0] * ncols
        for x, rk in zip(ri, sparse):
            if x:
                for j, y in rk:
                    acc[j] += x * y
        out.append(acc if p is None else [x % p for x in acc])
    return out


class Matrix:
    """Immutable-by-convention dense matrix over a FieldSpec."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows, nrows: int | None = None, ncols: int | None = None):
        self.field = field
        p = field.p
        data = [[x if type(x) is int else _entry(p, x) for x in r] for r in rows]
        if nrows is None:
            nrows = len(data)
        if ncols is None:
            ncols = len(data[0]) if data else 0
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise LinalgError("ragged or mismatched matrix data")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = data

    @classmethod
    def _adopt(cls, field: FieldSpec, rows: list[list], nrows: int, ncols: int) -> "Matrix":
        """Take ownership of freshly built, well-shaped rows: no copy, no check."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = nrows
        m.ncols = ncols
        m.rows = rows
        return m

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls._adopt(field, [[0] * ncols for _ in range(nrows)], nrows, ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.rows[i][i] = one
        return m

    @classmethod
    def from_int_rows(cls, field: FieldSpec, rows) -> "Matrix":
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.key())

    def key(self):
        """Hashable canonical form (entries are already canonical per field)."""
        return (self.nrows, self.ncols, tuple(tuple(r) for r in self.rows))

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(x == zero for r in self.rows for x in r)

    def transpose(self) -> "Matrix":
        rows = [[r[j] for r in self.rows] for j in range(self.ncols)]
        return Matrix._adopt(self.field, rows, self.ncols, self.nrows)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise LinalgError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        p = self.field.p
        out = mul_rows(p, self.rows, other.rows, other.ncols)
        if p is None:
            out = [_canon_row(r) for r in out]
        return Matrix._adopt(self.field, out, self.nrows, other.ncols)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinalgError("shape mismatch in add")
        p = self.field.p
        if p is None:
            rows = [_canon_row([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(self.rows, other.rows)]
        else:
            rows = [[(a + b) % p for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._adopt(self.field, rows, self.nrows, self.ncols)

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(self.field.neg(self.field.one())))

    def scale(self, c) -> "Matrix":
        p = self.field.p
        if p is None:
            rows = [_canon_row([c * x for x in r]) for r in self.rows]
        else:
            rows = [[c * x % p for x in r] for r in self.rows]
        return Matrix._adopt(self.field, rows, self.nrows, self.ncols)

    def row(self, i) -> list:
        return list(self.rows[i])

    def det(self):
        if self.nrows != self.ncols:
            raise LinalgError("determinant of non-square matrix")
        p = self.field.p
        n = self.nrows
        work = [list(r) for r in self.rows]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col]), None)
            if piv is None:
                return 0
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det if p is None else -det % p
            prow = work[col]
            lead = prow[col]
            nz = [c for c in range(col + 1, n) if prow[c]]
            if p is None:
                det *= lead
                inv = q_inv(lead)
                for r in range(col + 1, n):
                    wr = work[r]
                    if wr[col]:
                        factor = wr[col] * inv
                        for c in nz:
                            wr[c] -= factor * prow[c]
            else:
                det = det * lead % p
                inv = pow(lead, -1, p)
                for r in range(col + 1, n):
                    wr = work[r]
                    if wr[col]:
                        factor = wr[col] * inv % p
                        for c in nz:
                            wr[c] = (wr[c] - factor * prow[c]) % p
        return det if p is not None else q_canon(det)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def block_diag(field: FieldSpec, blocks: list[Matrix]) -> Matrix:
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    out = Matrix.zeros(field, nr, nc)
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.nrows):
            out.rows[r0 + i][c0 : c0 + b.ncols] = list(b.rows[i])
        r0 += b.nrows
        c0 += b.ncols
    return out


def rref(m: Matrix):
    """Reduced row echelon form: (R, pivots), R the same shape as m.

    Over Q, frac[i] records whether row i holds a Fraction: an update that
    no Fraction took part in stays on ints and needs no canonical pass.
    """
    p = m.field.p
    nrows, ncols = m.nrows, m.ncols
    work = [list(r) for r in m.rows]
    frac = [p is None and _has_fraction(r) for r in work]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            frac[r], frac[piv] = frac[piv], frac[r]
        prow = work[r]
        lead = prow[col]
        if lead != 1:
            if p is not None:
                inv = pow(lead, -1, p)
                prow = work[r] = [x * inv % p for x in prow]
            elif lead == -1:
                prow = work[r] = [-x for x in prow]
            else:
                inv = q_inv(lead)
                prow = work[r] = _canon_row([x * inv for x in prow])
                frac[r] = _has_fraction(prow)
        pfrac = frac[r]
        for i in range(nrows):
            wi = work[i]
            factor = wi[col]
            if factor and i != r:
                if p is not None:
                    work[i] = [(x - factor * y) % p for x, y in zip(wi, prow)]
                elif pfrac or frac[i]:
                    work[i] = _canon_row([x - factor * y for x, y in zip(wi, prow)])
                    frac[i] = _has_fraction(work[i])
                else:
                    work[i] = [x - factor * y for x, y in zip(wi, prow)]
        pivots.append(col)
        r += 1
    return Matrix._adopt(m.field, work, nrows, ncols), pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace of the row space K^ambient, stored by its canonical
    reduced-echelon basis (pivot columns strictly increasing)."""

    ambient: int
    basis: Matrix  # dim x ambient, RREF rows
    pivots: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.nrows

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @classmethod
    def from_rows(cls, field: FieldSpec, ambient: int, rows) -> "Subspace":
        rows = [list(r) for r in rows]
        if any(len(r) != ambient for r in rows):
            raise LinalgError("row length != ambient dimension")
        if not rows:
            return cls(ambient, Matrix.zeros(field, 0, ambient), ())
        R, piv = rref(Matrix._adopt(field, rows, len(rows), ambient))
        rank = len(piv)
        return cls(ambient, Matrix._adopt(field, R.rows[:rank], rank, ambient), tuple(piv))

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls.from_rows(field, ambient, [])

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls.from_rows(field, ambient, Matrix.identity(field, ambient).rows)

    def reduce_vector(self, vec: list) -> list:
        """Subtract the projection onto this subspace (echelon reduction)."""
        p = self.field.p
        v = list(vec)
        for row, piv in zip(self.basis.rows, self.pivots):
            c = v[piv]
            if c:
                if p is None:
                    for j, y in enumerate(row):
                        if y:
                            v[j] -= c * y
                else:
                    for j, y in enumerate(row):
                        if y:
                            v[j] = (v[j] - c * y) % p
        return v if p is not None else _canon_row(v)

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce_vector(vec))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(r) for r in other.basis.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.basis == other.basis
        )

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise LinalgError("ambient mismatch in subspace sum")
        return Subspace.from_rows(self.field, self.ambient, self.basis.rows + other.basis.rows)


def _free_column_kernel(field: FieldSpec, rows: list[list], pivots: list[int], n: int) -> Subspace:
    """The kernel read off the first n columns of an RREF whose columns list
    the unknowns x_0..x_{n-1} last-first (column c holds x_{n-1-c}).

    Free column c gives x_{n-1-c} = 1, the other free unknowns 0 and each
    pivot unknown the negated entry of its row in column c.  Only pivots left
    of c touch it, so in the original order the vector leads with its 1 and
    vanishes on the other leads: the free-column vectors, taken from the
    right, are already the canonical basis of the kernel.
    """
    p = field.p
    pivot_set = set(pivots)
    basis = []
    leads = []
    for c in range(n - 1, -1, -1):
        if c in pivot_set:
            continue
        v = [0] * n
        v[n - 1 - c] = 1
        for i, pc in enumerate(pivots):
            if pc > c:
                break
            y = rows[i][c]
            if y:
                v[n - 1 - pc] = -y if p is None else p - y
        basis.append(v)
        leads.append(n - 1 - c)
    return Subspace(n, Matrix._adopt(field, basis, len(basis), n), tuple(leads))


def null_space(eqs: Matrix) -> Subspace:
    """The solution space of a homogeneous system, canonical.

    Each row of eqs is one equation over the unknowns x_0..x_{n-1}, n =
    eqs.ncols, listed last-first: column c holds the coefficient of
    x_{n-1-c}.  One transform-free elimination gives the basis.
    """
    R, piv = rref(eqs)
    return _free_column_kernel(eqs.field, R.rows, piv, eqs.ncols)


def left_kernel(m: Matrix) -> Subspace:
    """The kernel {x : x.m = 0}, canonical: the system m^T x^T = 0, one
    equation per column of m."""
    n = m.nrows
    rows = [[m.rows[i][j] for i in range(n - 1, -1, -1)] for j in range(m.ncols)]
    return null_space(Matrix._adopt(m.field, rows, m.ncols, n))


def matrix_rank(m: Matrix) -> int:
    """Rank, reducing the orientation with fewer rows."""
    return len(rref(m.transpose() if m.nrows > m.ncols else m)[1])


def rank_kernel_image(m: Matrix) -> tuple[int, Subspace, Subspace]:
    """Rank, kernel {x : x.m = 0} and image (row space) of m.

    rank + dim(kernel) = nrows; both subspaces come back canonical.
    """
    R, piv = rref(m)
    rank = len(piv)
    image = Subspace(m.ncols, Matrix._adopt(m.field, R.rows[:rank], rank, m.ncols), tuple(piv))
    return rank, left_kernel(m), image


def solve_right(a: Matrix, b: Matrix) -> tuple[Matrix, Subspace] | None:
    """Solve x.a = b.  Returns (particular x, kernel of v |-> v.a) or None.

    The full solution set of each row is (particular row) + kernel; the
    particular row sets every free unknown to 0, so it is the solution when
    the rows of a are independent.  Solved as a^T x^T = b^T, augmented by
    b's rows: a pivot in an augmented column means no solution.
    """
    if a.ncols != b.ncols:
        raise LinalgError(f"solve_right: a has {a.ncols} columns, b has {b.ncols}")
    f = a.field
    n = a.nrows
    rows = [[a.rows[i][j] for i in range(n - 1, -1, -1)] + [r[j] for r in b.rows] for j in range(a.ncols)]
    R, piv = rref(Matrix._adopt(f, rows, a.ncols, n + b.nrows))
    if piv and piv[-1] >= n:
        return None
    sol_rows = [[0] * n for _ in range(b.nrows)]
    for i, c in enumerate(piv):
        row = R.rows[i]
        for k, sol in enumerate(sol_rows):
            sol[n - 1 - c] = row[n + k]
    return Matrix._adopt(f, sol_rows, b.nrows, n), _free_column_kernel(f, R.rows, piv, n)


def quotient_with_section(field: FieldSpec, ambient: int, w: Subspace) -> tuple[Matrix, Matrix, int]:
    """Projection/section pair for K^ambient -> K^ambient / w.

    projection: ambient x q with kernel(v |-> v.projection) = w;
    section: q x ambient with section.projection = identity on the quotient.
    """
    if w.ambient != ambient:
        raise LinalgError("subspace does not sit in the requested ambient space")
    free = [c for c in range(ambient) if c not in w.pivots]
    q = len(free)
    proj = Matrix.zeros(field, ambient, q)
    one = field.one()
    for i in range(ambient):
        e = [field.zero()] * ambient
        e[i] = one
        red = w.reduce_vector(e)
        proj.rows[i] = [red[c] for c in free]
    sect = Matrix.zeros(field, q, ambient)
    for j, c in enumerate(free):
        sect.rows[j][c] = one
    return proj, sect, q

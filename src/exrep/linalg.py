"""Exact dense linear algebra over Q or F_p.

Row-vector convention throughout: vectors are rows and linear maps act on the
right, v |-> v.M, so composition of maps reads left to right, matching path
composition in the algebra layer.

The kernels read `field.p` once and then work natively: `Fraction`
arithmetic over Q, `int` arithmetic reduced `% p` over F_p.  Entries stay
canonical: a `Fraction` over Q, an int in [0, p) over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldSpec


class LinalgError(ValueError):
    pass


class Matrix:
    """Immutable-by-convention dense matrix over a FieldSpec."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, rows, nrows: int | None = None, ncols: int | None = None):
        self.field = field
        data = [list(r) for r in rows]
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
        z = Fraction(0) if field.p is None else 0
        return cls._adopt(field, [[z] * ncols for _ in range(nrows)], nrows, ncols)

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
        ncols = other.ncols
        sparse = [[(j, b) for j, b in enumerate(rk) if b] for rk in other.rows]
        zero = Fraction(0) if p is None else 0
        out = []
        for ri in self.rows:
            acc = [zero] * ncols
            for a, rk in zip(ri, sparse):
                if a:
                    for j, b in rk:
                        acc[j] += a * b
            out.append(acc if p is None else [x % p for x in acc])
        return Matrix._adopt(self.field, out, self.nrows, ncols)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinalgError("shape mismatch in add")
        p = self.field.p
        if p is None:
            rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        else:
            rows = [[(a + b) % p for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._adopt(self.field, rows, self.nrows, self.ncols)

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(self.field.neg(self.field.one())))

    def scale(self, c) -> "Matrix":
        p = self.field.p
        if p is None:
            rows = [[c * x for x in r] for r in self.rows]
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
        det = Fraction(1) if p is None else 1
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col]), None)
            if piv is None:
                return Fraction(0) if p is None else 0
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                det = -det if p is None else -det % p
            prow = work[col]
            lead = prow[col]
            nz = [c for c in range(col + 1, n) if prow[c]]
            if p is None:
                det *= lead
                inv = 1 / lead
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
        return det

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in r) for r in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if a.nrows != b.nrows:
        raise LinalgError("hstack row mismatch")
    return Matrix._adopt(a.field, [ra + rb for ra, rb in zip(a.rows, b.rows)], a.nrows, a.ncols + b.ncols)


def vstack(a: Matrix, b: Matrix) -> Matrix:
    if a.ncols != b.ncols:
        raise LinalgError("vstack column mismatch")
    return Matrix(a.field, a.rows + b.rows, a.nrows + b.nrows, a.ncols)


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


def rref(m: Matrix, with_transform: bool = False):
    """Reduced row echelon form.

    Returns (R, pivots) or (R, pivots, U) with U.m = R and U invertible.  The
    transform rides along as identity columns appended to m, so it undergoes
    exactly the row operations that reduce m.
    """
    p = m.field.p
    nrows, ncols = m.nrows, m.ncols
    if with_transform:
        one, zero = (Fraction(1), Fraction(0)) if p is None else (1, 0)
        work = [list(r) + [zero] * nrows for r in m.rows]
        for i, row in enumerate(work):
            row[ncols + i] = one
    else:
        work = [list(r) for r in m.rows]
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
        prow = work[r]
        lead = prow[col]
        if lead != 1:
            if p is None:
                inv = 1 / lead
                prow = work[r] = [x * inv for x in prow]
            else:
                inv = pow(lead, -1, p)
                prow = work[r] = [x * inv % p for x in prow]
        for i in range(nrows):
            wi = work[i]
            factor = wi[col]
            if factor and i != r:
                if p is None:
                    work[i] = [x - factor * y for x, y in zip(wi, prow)]
                else:
                    work[i] = [(x - factor * y) % p for x, y in zip(wi, prow)]
        pivots.append(col)
        r += 1
    if not with_transform:
        return Matrix._adopt(m.field, work, nrows, ncols), pivots
    R = Matrix._adopt(m.field, [row[:ncols] for row in work], nrows, ncols)
    U = Matrix._adopt(m.field, [row[ncols:] for row in work], nrows, nrows)
    return R, pivots, U


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
        return v

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


def rank_kernel_image(m: Matrix) -> tuple[int, Subspace, Subspace]:
    """Rank, kernel {x : x.m = 0} and image (row space) of m.

    rank + dim(kernel) = nrows; both subspaces come back canonical.
    """
    R, piv, U = rref(m, with_transform=True)
    rank = len(piv)
    image = Subspace(m.ncols, Matrix._adopt(m.field, R.rows[:rank], rank, m.ncols), tuple(piv))
    kernel = Subspace.from_rows(m.field, m.nrows, U.rows[rank:])
    return rank, kernel, image


def solve_right(a: Matrix, b: Matrix) -> tuple[Matrix, Subspace] | None:
    """Solve x.a = b.  Returns (particular x, kernel of v |-> v.a) or None.

    The full solution set of each row is (particular row) + kernel.
    """
    if a.ncols != b.ncols:
        raise LinalgError(f"solve_right: a has {a.ncols} columns, b has {b.ncols}")
    f = a.field
    p = f.p
    R, piv, U = rref(a, with_transform=True)
    rank = len(piv)
    # sparse views of the pivot rows of R and of their transform rows
    steps = [
        (col, [(j, y) for j, y in enumerate(R.rows[i]) if y], [(j, y) for j, y in enumerate(U.rows[i]) if y])
        for i, col in enumerate(piv)
    ]
    zero = Fraction(0) if p is None else 0
    sol_rows = []
    for r in b.rows:
        residual = list(r)
        coeffs = [zero] * a.nrows
        for col, rrow, urow in steps:
            c = residual[col]
            if c:
                if p is None:
                    for j, y in rrow:
                        residual[j] -= c * y
                else:
                    for j, y in rrow:
                        residual[j] = (residual[j] - c * y) % p
                for j, y in urow:
                    coeffs[j] += c * y
        if any(residual):
            return None
        sol_rows.append(coeffs if p is None else [x % p for x in coeffs])
    kernel = Subspace.from_rows(f, a.nrows, U.rows[rank:])
    return Matrix._adopt(f, sol_rows, b.nrows, a.nrows), kernel


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

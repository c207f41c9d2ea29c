"""Differential tests: the field-specialized kernels of exrep.linalg against a
reference copy of the generic kernels they replaced, which dispatch every
entry operation through FieldSpec.  Results must agree exactly: rows,
pivots, transforms and the Python type of every entry."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from exrep.fields import FieldSpec
from exrep.linalg import Matrix, Subspace, rref, solve_right

FIELDS = (FieldSpec(None), FieldSpec(2), FieldSpec(3), FieldSpec(5))


# ---------------------------------------------------------------------------
# reference kernels: one FieldSpec call per entry operation


def ref_rref(m: Matrix, with_transform: bool = False):
    f = m.field
    work = [list(r) for r in m.rows]
    trans = [[f.one() if i == j else f.zero() for j in range(m.nrows)] for i in range(m.nrows)] if with_transform else None
    pivots: list[int] = []
    r = 0
    for col in range(m.ncols):
        piv = next((i for i in range(r, m.nrows) if work[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            if trans is not None:
                trans[r], trans[piv] = trans[piv], trans[r]
        inv = f.inv(work[r][col])
        if work[r][col] != f.one():
            work[r] = [f.mul(inv, x) for x in work[r]]
            if trans is not None:
                trans[r] = [f.mul(inv, x) for x in trans[r]]
        for i in range(m.nrows):
            if i != r and work[i][col] != 0:
                factor = work[i][col]
                work[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(work[i], work[r])]
                if trans is not None:
                    trans[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(trans[i], trans[r])]
        pivots.append(col)
        r += 1
        if r == m.nrows:
            break
    if with_transform:
        return work, pivots, trans
    return work, pivots


def ref_mul(a: Matrix, b: Matrix) -> list[list]:
    f = a.field
    out = [[f.zero()] * b.ncols for _ in range(a.nrows)]
    for i in range(a.nrows):
        for k in range(a.ncols):
            x = a.rows[i][k]
            if x == 0:
                continue
            for j in range(b.ncols):
                y = b.rows[k][j]
                if y != 0:
                    out[i][j] = f.add(out[i][j], f.mul(x, y))
    return out


def ref_det(m: Matrix):
    f = m.field
    n = m.nrows
    work = [list(r) for r in m.rows]
    det = f.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return f.zero()
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = f.neg(det)
        det = f.mul(det, work[col][col])
        inv = f.inv(work[col][col])
        for r in range(col + 1, n):
            factor = f.mul(work[r][col], inv)
            if factor == 0:
                continue
            for c in range(col, n):
                work[r][c] = f.sub(work[r][c], f.mul(factor, work[col][c]))
    return det


# ---------------------------------------------------------------------------


def canonical(field: FieldSpec, x) -> bool:
    if field.p is None:
        return type(x) is Fraction
    return type(x) is int and 0 <= x < field.p


def same(got: list[list], want: list[list], field: FieldSpec) -> bool:
    return got == want and all(canonical(field, x) for r in got for x in r)


@st.composite
def entries(draw, field: FieldSpec):
    if field.p is None:
        # mostly zeros and small integers, like the intertwining systems
        return draw(st.one_of(
            st.just(Fraction(0)),
            st.integers(-4, 4).map(Fraction),
            st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
        ))
    return draw(st.one_of(st.just(0), st.integers(0, field.p - 1)))


@st.composite
def matrices(draw, field=None, nrows=None, ncols=None, max_dim=6):
    field = field if field is not None else draw(st.sampled_from(FIELDS))
    n = nrows if nrows is not None else draw(st.integers(0, max_dim))
    m = ncols if ncols is not None else draw(st.integers(0, max_dim))
    rows = [[draw(entries(field)) for _ in range(m)] for _ in range(n)]
    return Matrix(field, rows, n, m)


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(field, n, k)), draw(matrices(field, k, m))


@st.composite
def squares(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 6))
    return draw(matrices(field, n, n))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_reference(m):
    R, piv = rref(m)
    want_R, want_piv = ref_rref(m)
    assert piv == want_piv
    assert (R.nrows, R.ncols) == (m.nrows, m.ncols)
    assert same(R.rows, want_R, m.field)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_transform_matches_reference(m):
    R, piv, U = rref(m, with_transform=True)
    want_R, want_piv, want_U = ref_rref(m, with_transform=True)
    assert piv == want_piv
    assert same(R.rows, want_R, m.field)
    assert (U.nrows, U.ncols) == (m.nrows, m.nrows)
    assert same(U.rows, want_U, m.field)


@given(products())
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference(ab):
    a, b = ab
    got = a.mul(b)
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert same(got.rows, ref_mul(a, b), a.field)


@given(squares())
@settings(max_examples=150, deadline=None)
def test_det_matches_reference(m):
    got = m.det()
    want = ref_det(m)
    assert got == want and canonical(m.field, got)


@given(products(), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_add_scale_sub_match_reference(ab, c):
    a, _ = ab
    f = a.field
    c = f.from_int(c)
    assert same(a.scale(c).rows, [[f.mul(c, x) for x in r] for r in a.rows], f)
    assert same(a.add(a).rows, [[f.add(x, x) for x in r] for r in a.rows], f)
    assert same(a.sub(a).rows, [[f.zero()] * a.ncols for _ in range(a.nrows)], f)
    assert same(Matrix.zeros(f, a.nrows, a.ncols).rows, [[f.zero()] * a.ncols for _ in range(a.nrows)], f)


@given(products())
@settings(max_examples=100, deadline=None)
def test_solve_right_and_reduce_vector_agree_with_reference_rref(ab):
    x, a = ab
    f = a.field
    b = x.mul(a)  # solvable by construction
    sol, ker = solve_right(a, b)
    assert same(sol.mul(a).rows, b.rows, f)
    assert all(canonical(f, e) for r in sol.rows for e in r)
    R, piv, U = ref_rref(a, with_transform=True)
    kernel_rows = U[len(piv):]
    assert ker == Subspace.from_rows(f, a.nrows, kernel_rows)
    image = Subspace.from_rows(f, a.ncols, a.rows)
    assert image.basis.rows == R[: len(piv)]
    for row in b.rows:
        reduced = image.reduce_vector(row)
        assert all(canonical(f, e) and e == 0 for e in reduced)

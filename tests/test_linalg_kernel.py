"""Differential tests: the field-specialized kernels of exrep.linalg against a
reference copy of the generic kernels they replaced, which dispatch every
entry operation through FieldSpec.  Results must agree exactly: rows,
pivots and the Python type of every entry, which `canonical` pins to the
single form of each value (over Q an int when integral).

Kernels, ranks and solutions are now read from the free columns of one
transform-free elimination; the reference reads them, as the code it
replaced did, from an RREF with an appended transform.  `hom_basis` is
compared map for map with a reference copy of its transform-based form."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_modules import conjugated_sum

from exrep.algebra import corner_algebra, quotient_by_idempotent_ideal
from exrep.fields import FieldSpec
from exrep.goldens import bundled_algebra
from exrep.linalg import LinalgError, Matrix, Subspace, left_kernel, matrix_rank, rank_kernel_image, rref, solve_right
from exrep.modules import ModuleMap, hom_basis

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


def ref_canonical_rows(f: FieldSpec, rows: list[list], ambient: int) -> tuple[list[list], list[int]]:
    """The canonical (reduced echelon) basis of the span of rows."""
    if not rows:
        return [], []
    R, piv = ref_rref(Matrix(f, rows, len(rows), ambient))
    return R[: len(piv)], piv


def ref_rank_kernel_image(m: Matrix):
    """Rank, kernel rows and pivots, image rows and pivots, the kernel read
    from the rows of the transform below the rank."""
    R, piv, U = ref_rref(m, with_transform=True)
    rank = len(piv)
    kernel, kpiv = ref_canonical_rows(m.field, U[rank:], m.nrows)
    return rank, kernel, kpiv, R[:rank], piv


def ref_solve_right(a: Matrix, b: Matrix):
    """x.a = b from the transform of a: each pivot column of the residual
    adds its transform row to the coefficients."""
    f = a.field
    R, piv, U = ref_rref(a, with_transform=True)
    sol = []
    for r in b.rows:
        residual = list(r)
        coeffs = [f.zero()] * a.nrows
        for i, col in enumerate(piv):
            c = residual[col]
            if c != 0:
                residual = [f.sub(x, f.mul(c, y)) for x, y in zip(residual, R[i])]
                coeffs = [f.add(x, f.mul(c, y)) for x, y in zip(coeffs, U[i])]
        if any(x != 0 for x in residual):
            return None
        sol.append(coeffs)
    kernel, kpiv = ref_canonical_rows(f, U[len(piv):], a.nrows)
    return sol, kernel, kpiv


def ref_hom_basis(m, n) -> list[list]:
    """Hom(M, N) as the parent wrote it: the intertwining system E with one
    column per equation over the radical generators, reduced with its
    transform appended, the kernel read from the transform's last rows."""
    a = m.algebra
    f = a.field
    offsets, total = [], 0
    for v in range(a.n_vertices):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return []
    columns = []
    for i in a.radical_generators:
        b = a.basis[i]
        u, w = b.source, b.target
        rm, rn = m.action[i], n.action[i]
        for p in range(m.dims[u]):
            for q in range(n.dims[w]):
                col = [f.zero()] * total
                for k in range(m.dims[w]):
                    c = rm.rows[p][k]
                    if c != 0:
                        col[offsets[w] + k * n.dims[w] + q] = f.add(col[offsets[w] + k * n.dims[w] + q], c)
                for l in range(n.dims[u]):
                    c = rn.rows[l][q]
                    if c != 0:
                        col[offsets[u] + p * n.dims[u] + l] = f.sub(col[offsets[u] + p * n.dims[u] + l], c)
                columns.append(col)
    E = Matrix(f, [[col[r] for col in columns] for r in range(total)], total, len(columns))
    return ref_rank_kernel_image(E)[1]


# ---------------------------------------------------------------------------


def canonical(field: FieldSpec, x) -> bool:
    """The single form of a value: over Q an int when integral and a
    Fraction only otherwise, over F_p an int in [0, p)."""
    if field.p is None:
        return type(x) is int or (type(x) is Fraction and x.denominator != 1)
    return type(x) is int and 0 <= x < field.p


def test_canonical_admits_one_form_per_value():
    q, f3 = FieldSpec(None), FieldSpec(3)
    assert canonical(q, 2) and canonical(q, 0) and canonical(q, Fraction(1, 2))
    assert not canonical(q, Fraction(2, 1)) and not canonical(q, Fraction(0))
    assert not canonical(q, 2.0) and not canonical(q, True)
    assert canonical(f3, 2) and not canonical(f3, 3) and not canonical(f3, 2.0)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_matrix_constructor_canonicalises_and_rejects_floats(field):
    if field.p is None:
        m = Matrix(field, [[Fraction(2, 1), Fraction(1, 2)], [True, Fraction(-6, 3)]])
        assert m.rows == [[2, Fraction(1, 2)], [1, -2]]
        assert [type(x) for r in m.rows for x in r] == [int, Fraction, int, int]
        with pytest.raises(LinalgError):
            Matrix(field, [["1"]])
    else:
        m = Matrix(field, [[1, True]])
        assert [type(x) for r in m.rows for x in r] == [int, int]
        with pytest.raises(LinalgError):
            Matrix(field, [[Fraction(1, 2)]])
    with pytest.raises(LinalgError):
        Matrix(field, [[1, 0.5]])
    with pytest.raises(LinalgError):
        Matrix(field, [[1.0]])


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


@st.composite
def low_rank(draw):
    """x.y with inner dimension below both outer ones: rank-deficient."""
    field = draw(st.sampled_from(FIELDS))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n, m) - 1))
    return draw(matrices(field, n, k)).mul(draw(matrices(field, k, m)))


EDGE_SHAPES = [Matrix.zeros(f, n, m) for f in FIELDS for n, m in ((0, 3), (3, 0), (0, 0))]


def check_rank_kernel_image(m: Matrix) -> None:
    rank, ker, img = rank_kernel_image(m)
    want_rank, want_ker, want_kpiv, want_img, want_ipiv = ref_rank_kernel_image(m)
    assert rank == want_rank == matrix_rank(m)
    assert (ker.ambient, img.ambient) == (m.nrows, m.ncols)
    assert list(ker.pivots) == want_kpiv and same(ker.basis.rows, want_ker, m.field)
    assert list(img.pivots) == want_ipiv and same(img.basis.rows, want_img, m.field)
    assert left_kernel(m) == ker


@given(st.one_of(matrices(), low_rank()))
@settings(max_examples=200, deadline=None)
def test_rank_kernel_image_matches_reference_transform(m):
    check_rank_kernel_image(m)


@pytest.mark.parametrize("m", EDGE_SHAPES, ids=repr)
def test_kernels_of_empty_shapes(m):
    check_rank_kernel_image(m)
    assert left_kernel(m) == Subspace.full(m.field, m.nrows)


@st.composite
def systems(draw):
    """(a, b): b = x.a (solvable) or a random b (usually not), a often of
    deficient rank, so that the kernel is nonzero."""
    a = draw(st.one_of(matrices(), low_rank()))
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return a, draw(matrices(a.field, k, a.nrows)).mul(a)
    return a, draw(matrices(a.field, k, a.ncols))


@given(systems())
@settings(max_examples=200, deadline=None)
def test_solve_right_matches_reference_transform(ab):
    a, b = ab
    f = a.field
    got, want = solve_right(a, b), ref_solve_right(a, b)
    assert (got is None) == (want is None)
    if got is None:
        return
    sol, ker = got
    want_sol, want_ker, want_kpiv = want
    assert list(ker.pivots) == want_kpiv and same(ker.basis.rows, want_ker, f)
    assert (sol.nrows, sol.ncols) == (b.nrows, a.nrows)
    assert all(canonical(f, e) for r in sol.rows for e in r)
    # the two particular solutions differ by a kernel vector
    for x, y in zip(sol.rows, want_sol):
        assert ker.contains_vector([f.sub(s, t) for s, t in zip(x, y)])
    if ker.dim == 0:  # independent rows: the solution is unique
        assert same(sol.rows, want_sol, f)


def _hom_cases():
    out = []
    for name in ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab"):
        base = bundled_algebra(name)
        out.append((name, base))
        for eps in (("1",), ("1", "3"), ("2", "3")):
            tag = ",".join(eps)
            out.append((f"{name}/corner({tag})", corner_algebra(base, eps)[0]))
            out.append((f"{name}/quotient({tag})", quotient_by_idempotent_ideal(base, eps)[0]))
    return out


HOM_CASES = _hom_cases()


@pytest.mark.parametrize("name,algebra", HOM_CASES, ids=[c[0] for c in HOM_CASES])
def test_hom_basis_matches_transform_reference(name, algebra):
    rng = random.Random(name)
    kinds = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in algebra.vertices]
    mods = [conjugated_sum(algebra, rng.choices(kinds, k=rng.randint(1, 3)), rng) for _ in range(4)]
    nonzero = 0
    for m, n in itertools.product(mods, repeat=2):
        got = hom_basis(m, n)
        want = ref_hom_basis(m, n)
        assert len(got) == len(want)
        for h, row in zip(got, want):
            assert isinstance(h, ModuleMap) and h.commutes()
            assert same([h.flatten()], [row], algebra.field)
        nonzero += bool(got)
    assert nonzero


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

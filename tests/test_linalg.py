from fractions import Fraction

import pytest
from helpers import contains, int_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg_kernel import rank_kernel_image

from exrep.fields import F2, RATIONALS, FieldError, FieldSpec, field_from_name
from exrep.linalg import (
    LinalgError,
    Matrix,
    Subspace,
    quotient_with_section,
    solve_right,
)


def qmat(rows):
    return int_matrix(RATIONALS, rows)


def test_field_literals():
    assert RATIONALS.parse("3/6") == Fraction(1, 2)
    assert RATIONALS.fmt(Fraction(-1, 2)) == "-1/2"
    f5 = FieldSpec(5)
    assert f5.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert field_from_name("F7") == FieldSpec(7)
    with pytest.raises(FieldError):
        FieldSpec(6)
    with pytest.raises(FieldError):
        field_from_name("R")


def test_rank_kernel_image_identity():
    rank, ker, img = rank_kernel_image(Matrix.identity(RATIONALS, 2))
    assert rank == 2 and ker.dim == 0 and img.dim == 2


def test_rank_kernel_image_zero():
    rank, ker, img = rank_kernel_image(Matrix.zeros(RATIONALS, 2, 2))
    assert rank == 0 and ker.dim == 2


def test_rank_kernel_image_rank_one():
    rank, ker, _ = rank_kernel_image(qmat([[1, 2], [2, 4]]))
    assert rank == 1
    assert ker == Subspace.from_rows(RATIONALS, 2, [[2, -1]])
    # canonical form has a leading one
    assert ker.basis.rows[0] == [Fraction(1), Fraction(-1, 2)]


def test_solve_right_identity():
    b = qmat([[3, 4], [5, 6]])
    x, ker = solve_right(Matrix.identity(RATIONALS, 2), b)
    assert x == b and ker.dim == 0


def test_solve_right_no_solution():
    assert solve_right(Matrix.zeros(RATIONALS, 2, 2), qmat([[1, 0]])) is None


def test_solve_right_affine_family():
    a = qmat([[1], [1]])
    b = qmat([[1]])
    x, ker = solve_right(a, b)
    assert x.mul(a) == b
    assert ker.dim == 1


def test_solve_right_dimension_mismatch():
    with pytest.raises(LinalgError):
        solve_right(qmat([[1, 0]]), qmat([[1]]))


def test_quotient_with_section_trivial():
    proj, sect, q = quotient_with_section(RATIONALS, 3, Subspace.zero(RATIONALS, 3))
    assert q == 3
    assert sect.mul(proj) == Matrix.identity(RATIONALS, 3)


def test_quotient_with_section_full():
    _, _, q = quotient_with_section(RATIONALS, 2, Subspace.full(RATIONALS, 2))
    assert q == 0


def test_quotient_with_section_line_in_three_space():
    w = Subspace.from_rows(RATIONALS, 3, [[1, 1, 0]])
    proj, sect, q = quotient_with_section(RATIONALS, 3, w)
    assert q == 2
    assert sect.mul(proj) == Matrix.identity(RATIONALS, 2)
    _, ker, _ = rank_kernel_image(proj)
    assert ker == w


small_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def q_matrices(draw, max_dim=4):
    n = draw(st.integers(min_value=0, max_value=max_dim))
    m = draw(st.integers(min_value=0, max_value=max_dim))
    rows = draw(st.lists(st.lists(small_entries, min_size=m, max_size=m), min_size=n, max_size=n))
    return int_matrix(RATIONALS, rows)


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    rank, ker, img = rank_kernel_image(m)
    assert rank + ker.dim == m.nrows
    assert img.dim == rank
    for row in ker.basis.rows:
        assert Matrix(RATIONALS, [row], 1, m.nrows).mul(m).is_zero()


@given(q_matrices(max_dim=3), st.lists(st.lists(small_entries, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_canonicalization_is_span_invariant(m, mix):
    if m.nrows != 3:
        return
    mixed = int_matrix(RATIONALS, mix).mul(m)
    s1 = Subspace.from_rows(RATIONALS, m.ncols, m.rows + mixed.rows)
    s2 = Subspace.from_rows(RATIONALS, m.ncols, mixed.rows + m.rows + m.rows)
    assert contains(s1, Subspace.from_rows(RATIONALS, m.ncols, mixed.rows))
    assert s1 == Subspace.from_rows(RATIONALS, m.ncols, s1.basis.rows)  # idempotent
    assert contains(s2, s2)
    assert contains(s1, s2) and s2.dim <= s1.dim


@given(q_matrices())
@settings(max_examples=60, deadline=None)
def test_quotient_section_identities(m):
    w = Subspace.from_rows(RATIONALS, m.ncols, m.rows)
    proj, sect, q = quotient_with_section(RATIONALS, m.ncols, w)
    assert q == m.ncols - w.dim
    if q:
        assert sect.mul(proj) == Matrix.identity(RATIONALS, q)
    _, ker, _ = rank_kernel_image(proj)
    assert ker == w
    # section rows together with w span the ambient space
    span = Subspace.from_rows(RATIONALS, m.ncols, sect.rows + list(w.basis.rows))
    assert span.dim == m.ncols


@given(q_matrices(max_dim=3), q_matrices(max_dim=3))
@settings(max_examples=40, deadline=None)
def test_solve_right_correct(a, b):
    if a.ncols != b.ncols:
        return
    sol = solve_right(a, b)
    if sol is None:
        # some row of b must be outside the row space of a
        _, _, img = rank_kernel_image(a)
        assert any(not img.contains_vector(r) for r in b.rows)
    else:
        x, ker = sol
        assert x.mul(a) == b
        for row in ker.basis.rows:
            assert Matrix(RATIONALS, [row], 1, a.nrows).mul(a).is_zero()


@given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_f2_rank_nullity(rows):
    m = int_matrix(F2, rows)
    rank, ker, img = rank_kernel_image(m)
    assert rank + ker.dim == m.nrows

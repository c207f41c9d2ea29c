import itertools

import pytest
from helpers import left_module_Q

from exrep.algebra import build_algebra
from exrep.fields import RATIONALS
from exrep.modules import (
    ModuleError,
    hom_dim,
    iso_test,
    projective_module,
    thin_module,
    top_and_cover,
)
from exrep.quiver import Arrow, Quiver, RelationExpr
from exrep.split_extensions import (
    HOM_DOWN,
    HOM_UP,
    TENSOR_DOWN,
    TENSOR_UP,
    SplitExtensionError,
    build_split_extension,
)


@pytest.fixture(scope="module")
def se33(cycle3):
    return build_split_extension(cycle3, ["gamma"])


@pytest.fixture(scope="module")
def se34(cycle3_ab):
    return build_split_extension(cycle3_ab, ["gamma"])


@pytest.fixture(scope="module")
def se42(a3):
    return build_split_extension(a3, ["alpha"])


def thins(algebra):
    out = []
    for k in range(1, algebra.n_vertices + 1):
        for sup in itertools.combinations(algebra.vertices, k):
            try:
                out.append(thin_module(algebra, sup))
            except ModuleError:
                continue
    return out


def test_kernel_gamma_of_tight_cycle(se33):
    assert se33.dim_q == 1
    assert se33.A.dim == 5
    assert se33.is_projective_left is False


def test_kernel_gamma_of_loose_cycle(se34):
    assert se34.dim_q == 4
    assert se34.A.dim == 5
    assert se34.is_projective_left is True


def test_loose_cycle_left_module_decomposition(se34):
    left_r = se34.left_module_R()
    assert left_r.dims == (2, 4, 3)
    top, _, _ = top_and_cover(left_r)
    assert top == {"1": 1, "2": 1, "3": 3}
    # left Q is two copies of the left projective at vertex 3
    left_q = left_module_Q(se34)
    assert left_q.dims == (0, 2, 2)


def test_kernel_alpha_of_path_algebra(se42):
    assert se42.dim_q == 2
    assert se42.A.dim == 4
    assert se42.is_projective_left is True
    left_q = left_module_Q(se42)
    assert left_q.dims == (2, 0, 0)


def test_unknown_kernel_arrow(a3):
    with pytest.raises(Exception, match="delta"):
        build_split_extension(a3, ["delta"])


def test_splitting_failure_has_witness():
    # relation gamma*delta - alpha*beta: the normal form of the class is the
    # kernel-free path, so the complement picks up a product that escapes it
    quiver = Quiver(
        ("1", "2", "3", "4"),
        (
            Arrow("alpha", "1", "2"),
            Arrow("beta", "2", "4"),
            Arrow("gamma", "1", "3"),
            Arrow("delta", "3", "4"),
        ),
    )
    rel = RelationExpr(((None, ("gamma", "delta")), (RATIONALS.neg(RATIONALS.one()), ("alpha", "beta"))))
    r = build_algebra(quiver, [rel], RATIONALS, name="square")
    with pytest.raises(SplitExtensionError, match="does not split"):
        build_split_extension(r, ["gamma"])


def test_quotient_matches_fixture(se42, a42):
    assert se42.A.fingerprint == a42.fingerprint


def test_tensor_images_42(se42):
    A, R = se42.A, se42.R
    cases = [
        (("1",), ("1", "2", "3")),
        (("2", "3"), ("2", "3")),
        (("3",), ("3",)),
        (("2",), ("2",)),
    ]
    for sup, expected in cases:
        img = se42.apply(TENSOR_UP, thin_module(A, sup))
        assert iso_test(img, thin_module(R, expected)).isomorphic


def test_tensor_images_33(se33):
    A, R = se33.A, se33.R
    cases = [
        (("1",), ("1",)),
        (("1", "2"), ("1", "2")),
        (("2", "3"), ("2", "3")),
        (("3",), ("1", "3")),
    ]
    for sup, expected in cases:
        img = se33.apply(TENSOR_UP, thin_module(A, sup))
        assert iso_test(img, thin_module(R, expected)).isomorphic


def test_tensor_q_images_42(se42):
    A = se42.A
    assert iso_test(se42.tensor_with_Q(thin_module(A, ("1",))), thin_module(A, ("2", "3"))).isomorphic
    for sup in (("2",), ("3",), ("2", "3")):
        assert se42.tensor_with_Q(thin_module(A, sup)).is_zero


def test_round_trips(se33, se34, se42):
    for se in (se33, se34, se42):
        for m in thins(se.A):
            down_up = se.apply(TENSOR_DOWN, se.apply(TENSOR_UP, m))
            assert iso_test(down_up, m).isomorphic
        for n in thins(se.R)[:4]:
            back = se.apply(HOM_DOWN, se.apply(HOM_UP, se.apply(HOM_DOWN, n)))
            # HomDown o HomUp is the identity on mod(A); starting from mod(R)
            # we first land in mod(A)
            once = se.apply(HOM_DOWN, n)
            assert iso_test(back, once).isomorphic


def test_hom_up_down_identity(se33, se42):
    for se in (se33, se42):
        for m in thins(se.A):
            back = se.apply(HOM_DOWN, se.apply(HOM_UP, m))
            assert iso_test(back, m).isomorphic


def test_projectives_tensor_to_projectives(se33, se34, se42):
    for se in (se33, se34, se42):
        for v in se.A.vertices:
            img = se.apply(TENSOR_UP, projective_module(se.A, v))
            assert iso_test(img, projective_module(se.R, v)).isomorphic


def test_dimension_identity(se33, se34, se42):
    for se in (se33, se34, se42):
        for m in thins(se.A):
            up = se.apply(TENSOR_UP, m)
            tq = se.tensor_with_Q(m)
            assert up.dim_total == m.dim_total + tq.dim_total


def test_adjunction_dimensions(se33, se34, se42):
    from exrep.bimodules import hom_from_bimodule

    for se in (se33, se34, se42):
        for m in thins(se.A)[:4]:
            for n in thins(se.R)[:4]:
                lhs = hom_dim(se.apply(TENSOR_UP, m), n)
                rhs = hom_dim(m, hom_from_bimodule(se.R_as_A_R, n))
                assert lhs == rhs


def test_functor_memoization(se42):
    m = thin_module(se42.A, ("1",))
    first = se42.apply(TENSOR_UP, m)
    second = se42.apply(TENSOR_UP, thin_module(se42.A, ("1",)))
    assert first is second  # same fingerprint, cached


def test_category_mismatch_rejected(se42):
    with pytest.raises(ModuleError):
        se42.apply(TENSOR_UP, thin_module(se42.R, ("1", "2", "3")))

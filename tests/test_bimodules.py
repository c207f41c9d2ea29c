import itertools

import pytest

from exrep.bimodules import (
    Bimodule,
    BimoduleError,
    algebra_as_bimodule,
    hom_from_bimodule,
    restrict_along_surjection,
    tensor_with_bimodule,
)
from exrep.algebra import quotient_by_idempotent_ideal
from exrep.modules import (
    ModuleError,
    direct_sum,
    iso_test,
    simple_module,
    thin_module,
    zero_module,
)


def thins(algebra, *sizes):
    out = []
    for k in sizes:
        for sup in itertools.combinations(algebra.vertices, k):
            try:
                out.append(thin_module(algebra, sup))
            except ModuleError:
                continue
    return out


def test_regular_bimodule_validates(a3, cycle3_ab):
    for alg in (a3, cycle3_ab):
        x = algebra_as_bimodule(alg, alg, alg)
        assert x.violations() == []
        total = sum(sum(row) for row in x.dims)
        assert total == alg.dim


def test_unit_law_tensor(a3, cycle3_ab):
    for alg in (a3, cycle3_ab):
        regular = algebra_as_bimodule(alg, alg, alg)
        for m in thins(alg, 1, 2, 3):
            assert iso_test(tensor_with_bimodule(m, regular), m).isomorphic


def test_unit_law_hom(a3, cycle3_ab):
    for alg in (a3, cycle3_ab):
        regular = algebra_as_bimodule(alg, alg, alg)
        for m in thins(alg, 1, 2, 3):
            assert iso_test(hom_from_bimodule(regular, m), m).isomorphic


def test_hom_of_zero_module(a3):
    regular = algebra_as_bimodule(a3, a3, a3)
    out = hom_from_bimodule(regular, zero_module(a3))
    assert out.is_zero


def test_tensor_wrong_side_rejected(a3, a42):
    regular = algebra_as_bimodule(a3, a3, a3)
    with pytest.raises(ModuleError):
        tensor_with_bimodule(simple_module(a42, "1"), regular)


def test_tensor_functoriality_dims(a3):
    # tensor with the regular bimodule is dimension-preserving even on sums
    regular = algebra_as_bimodule(a3, a3, a3)
    m = direct_sum([thin_module(a3, ("1", "2")), simple_module(a3, "3")])
    t = tensor_with_bimodule(m, regular)
    assert t.dims == m.dims


def test_restriction_along_identity_quotient(a3):
    quot, morph = quotient_by_idempotent_ideal(a3, ("2", "3"))
    s1_bar = simple_module(quot, "1")
    pulled = restrict_along_surjection(s1_bar, morph)
    assert pulled.dims == (1, 0, 0)
    assert iso_test(pulled, simple_module(a3, "1")).isomorphic


def test_restriction_kernel_acts_as_zero(cycle3):
    # pull the simple at 1 over the arrow-killed quotient back to the cycle
    from exrep.split_extensions import build_split_extension

    se = build_split_extension(cycle3, ["gamma"])
    one_a = thin_module(se.A, ("1",))
    pulled = restrict_along_surjection(one_a, se.xi)
    assert pulled.dims == (1, 0, 0)
    assert iso_test(pulled, thin_module(cycle3, ("1",))).isomorphic


def test_tensor_functorial_on_maps(a3):
    from exrep.bimodules import tensor_with_bimodule_map
    from exrep.modules import hom_basis
    from exrep.split_extensions import build_split_extension

    se = build_split_extension(a3, ["alpha"])
    m = thin_module(se.A, ("2", "3"))
    n = thin_module(se.A, ("3",))
    for h in hom_basis(m, n):
        fh = tensor_with_bimodule_map(h, se.R_as_A_R)
        assert fh.commutes()
        assert fh.source.dims == se.apply("tensor-up", m).dims
        assert fh.target.dims == se.apply("tensor-up", n).dims
    # identity tensors to an invertible map
    ident = hom_basis(m, m)
    inv_found = any(tensor_with_bimodule_map(h, se.R_as_A_R).is_invertible() for h in ident)
    assert inv_found


def test_commutation_violation_detected(a3):
    x = algebra_as_bimodule(a3, a3, a3)
    # flip a sign in one left-action block: left/right commutation breaks
    i = a3.arrow_basis_index("alpha")
    bad_left = {k: {w: m.copy() for w, m in per.items()} for k, per in x.left.items()}
    target_block = bad_left[i][2]
    assert target_block.nrows == 1 and target_block.ncols == 1
    bad_left[i][2] = target_block.scale(a3.field.from_int(-1))
    with pytest.raises(BimoduleError):
        Bimodule(a3, a3, x.dims, bad_left, x.right, name="corrupted")


def test_corrupted_right_block_is_a_row_violation(a3):
    x = algebra_as_bimodule(a3, a3, a3)
    # alpha*beta: 1 -> 3 acting on row 1 sends X_{1,1} to X_{1,3}
    j = next(k for k in a3.radical_indices if a3.basis_label(k) == "alpha*beta")
    bad_right = {k: dict(per) for k, per in x.right.items()}
    bad_right[j][0] = bad_right[j][0].scale(a3.field.from_int(2))
    with pytest.raises(BimoduleError, match="row 0"):
        Bimodule(a3, a3, x.dims, x.left, bad_right, name="corrupted")


def test_corrupted_left_block_of_a_path_is_a_column_violation(a3):
    x = algebra_as_bimodule(a3, a3, a3)
    # alpha*beta: 1 -> 3 acting on column 3 sends X_{3,3} to X_{1,3}
    i = next(k for k in a3.radical_indices if a3.basis_label(k) == "alpha*beta")
    bad_left = {k: dict(per) for k, per in x.left.items()}
    bad_left[i][2] = bad_left[i][2].scale(a3.field.from_int(2))
    with pytest.raises(BimoduleError, match="column 2"):
        Bimodule(a3, a3, x.dims, bad_left, x.right, name="corrupted")

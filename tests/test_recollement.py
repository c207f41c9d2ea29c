import copy
import itertools
from types import SimpleNamespace

import pytest

from exrep.fields import RATIONALS
from exrep.linalg import Matrix

from exrep.modules import (
    ModuleError,
    hom_dim,
    iso_test,
    simple_module,
    thin_module,
)
from exrep.recollements import (
    I_SHRIEK,
    I_STAR,
    I_UPPER_STAR,
    J_LOWER,
    J_STAR,
    J_UPPER_STAR,
    _exactness_preserved,
    build_recollement,
    verify_recollement_laws,
)


def thins(algebra):
    out = []
    for k in range(1, algebra.n_vertices + 1):
        for sup in itertools.combinations(algebra.vertices, k):
            try:
                out.append(thin_module(algebra, sup))
            except ModuleError:
                continue
    return out


def test_construction_23(a3):
    rec = build_recollement(a3, ("2", "3"))
    assert rec.Abar.dim == 1 and rec.Abar.vertices == ("1",)
    assert rec.Atilde.dim == 3 and rec.Atilde.vertices == ("2", "3")


def test_construction_full_idempotent(a3):
    rec = build_recollement(a3, a3.vertices)
    assert rec.Abar.is_zero
    assert rec.Atilde.dim == a3.dim
    assert rec.istar_exact and rec.ishriek_exact
    # every functor through the zero quotient is the zero functor
    for m in thins(a3)[:3]:
        assert rec.apply(I_UPPER_STAR, m).is_zero
        assert rec.apply(I_SHRIEK, m).is_zero


def test_empty_idempotent_rejected(a3):
    with pytest.raises(Exception):
        build_recollement(a3, ())


def test_exactness_certificates(a3):
    expectations = {
        ("1",): (False, True),
        ("2",): (False, False),
        ("3",): (True, False),
        ("2", "3"): (True, False),
        ("1", "2"): (False, True),
    }
    for eps, (istar, ishriek) in expectations.items():
        rec = build_recollement(a3, eps)
        assert (rec.istar_exact, rec.ishriek_exact) == (istar, ishriek), eps


def test_istar_of_simple(a3):
    rec = build_recollement(a3, ("2", "3"))
    s1 = simple_module(rec.Abar, "1")
    img = rec.apply(I_STAR, s1)
    assert iso_test(img, simple_module(a3, "1")).isomorphic


def test_junits(a3):
    rec = build_recollement(a3, ("1",))
    for n in thins(rec.Atilde):
        assert iso_test(rec.apply(J_UPPER_STAR, rec.apply(J_LOWER, n)), n).isomorphic
        assert iso_test(rec.apply(J_UPPER_STAR, rec.apply(J_STAR, n)), n).isomorphic


def test_iunits(a3):
    rec = build_recollement(a3, ("2",))
    for x in thins(rec.Abar):
        assert iso_test(rec.apply(I_UPPER_STAR, rec.apply(I_STAR, x)), x).isomorphic
        assert iso_test(rec.apply(I_SHRIEK, rec.apply(I_STAR, x)), x).isomorphic


def test_vanishing_compositions(a3):
    rec = build_recollement(a3, ("2", "3"))
    for n in thins(rec.Atilde):
        assert rec.apply(I_UPPER_STAR, rec.apply(J_LOWER, n)).is_zero
        assert rec.apply(I_SHRIEK, rec.apply(J_STAR, n)).is_zero


def test_laws_clean_on_a3(a3):
    for eps in (("1",), ("2",), ("3",), ("2", "3"), a3.vertices):
        rec = build_recollement(a3, eps)
        rep = verify_recollement_laws(rec, thins(a3), seed=11)
        assert rep.ok, (eps, [f.law for f in rep.failures][:3])
        assert len(rep.checked) > 100


def test_laws_clean_on_a42(a42):
    for eps in (("1",), ("2",), ("3",)):
        rec = build_recollement(a42, eps)
        rep = verify_recollement_laws(rec, thins(a42), seed=11)
        assert rep.ok


def test_law_checker_computes_each_tensor_quotient_once(a3, monkeypatch):
    """Under the i^* certificate, j_!(n) and the maps j_! induces on a
    sample's inclusion and projection share tensor quotients: each module's
    quotient by each bimodule is computed once over the whole law check, and
    the induced maps equal the ones computed from scratch."""
    import exrep.bimodules as bimodules
    import exrep.recollements as recollements
    from exrep.bimodules import tensor_quotient, tensor_with_bimodule_map

    rec = build_recollement(a3, ("3",))
    assert rec.istar_exact
    seen, maps = [], []

    def counting(m, x):
        seen.append((m.fingerprint, x.name))
        return tensor_quotient(m, x)

    def checked_map(fmap, x, source, target):
        out = tensor_with_bimodule_map(fmap, x, source, target)
        maps.append((fmap, out))
        return out

    monkeypatch.setattr(bimodules, "tensor_quotient", counting)
    monkeypatch.setattr(recollements, "tensor_quotient", counting)
    monkeypatch.setattr(recollements, "tensor_with_bimodule_map", checked_map)
    rep = verify_recollement_laws(rec, thins(a3), seed=11)
    assert rep.ok
    assert len(seen) == len(set(seen))
    # over the one-vertex corner the j_! arguments are 0 and S(3); the
    # exactness check reuses both quotients that j_! built
    assert sum(1 for _, name in seen if name == rec.eps_A.name) == 2
    assert len(maps) == 2 * sum(1 for law in rep.checked if law == "j_! exact (i^* exact)")
    for fmap, out in maps:
        fresh = tensor_with_bimodule_map(fmap, rec.eps_A)
        assert out.mats == fresh.mats
        assert out.source.fingerprint == fresh.source.fingerprint
        assert out.target.fingerprint == fresh.target.fingerprint


def test_laws_catch_swapped_bimodule(a3):
    # misuse Aeps where epsA belongs: the (j_!, j^*) adjunction must fail
    rec = build_recollement(a3, ("2", "3"))
    broken = copy.copy(rec)
    broken._memo = {}
    from exrep.bimodules import algebra_as_bimodule

    broken.eps_A = algebra_as_bimodule(
        rec.A, rec.Atilde, rec.A,
        left_transport=rec.corner_incl,
        left_vertex_map={0: rec.A.vertex_index("3"), 1: rec.A.vertex_index("2")},
        name="deliberately swapped",
    )
    rep = verify_recollement_laws(broken, thins(a3), seed=11)
    assert not rep.ok
    assert any("j" in f.law for f in rep.failures)


def test_functor_source_category_enforced(a3):
    rec = build_recollement(a3, ("2", "3"))
    with pytest.raises(ModuleError):
        rec.apply(I_STAR, simple_module(a3, "1"))  # lives over A, not Abar


def test_full_faithfulness_dimensions(a3):
    rec = build_recollement(a3, ("1",))
    xs = thins(rec.Abar)
    for x in xs:
        for y in xs:
            assert hom_dim(x, y) == hom_dim(rec.apply(I_STAR, x), rec.apply(I_STAR, y))
    ns = thins(rec.Atilde)
    for n in ns:
        for n2 in ns:
            assert hom_dim(n, n2) == hom_dim(rec.apply(J_LOWER, n), rec.apply(J_LOWER, n2))
            assert hom_dim(n, n2) == hom_dim(rec.apply(J_STAR, n), rec.apply(J_STAR, n2))


@pytest.mark.parametrize(
    "incl,proj,dims,exact",
    [
        ([[1, 0]], [[0], [1]], (1, 2, 1), True),
        ([[2, 4]], [[2], [-1]], (1, 2, 1), True),
        ([[1, 0]], [[1], [0]], (1, 2, 1), False),  # image != kernel
        ([[0, 0]], [[0], [1]], (1, 2, 1), False),  # the inclusion is not injective
        ([[1, 0]], [[0], [1]], (1, 2, 2), False),  # dimensions are not additive
    ],
)
def test_exactness_preserved_reads_rank_image_and_kernel(incl, proj, dims, exact):
    small, mid, big = (SimpleNamespace(dims=(d,)) for d in dims)
    i = Matrix(RATIONALS, incl)
    p = Matrix(RATIONALS, proj)
    assert _exactness_preserved(small, mid, big, [i], [p]) is exact

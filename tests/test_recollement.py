import copy
import itertools
from types import SimpleNamespace

import pytest

import exrep.recollements as recollements
from exrep.fields import RATIONALS
from exrep.goldens import bundled_algebra, criterion_property_suite
from exrep.linalg import Matrix
from exrep.modules import (
    ModuleError,
    direct_sum,
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
    from exrep.bimodules import Bimodule

    # the rows e_2.A and e_3.A of eps.A in swapped order, with no left action
    x = rec.eps_A
    broken.eps_A = Bimodule(
        rec.Atilde, rec.A, [x.dims[1], x.dims[0]], {},
        {j: {0: per_u[1], 1: per_u[0]} for j, per_u in x.right.items()},
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


HOM_TABLE_CASES = [(name, eps) for name in ("a3", "a42") for eps in (("1",), ("2",), ("3",), ("2", "3"))]


def laws_without_hom_table(rec, samples, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(recollements, "_hom_table", lambda dims: hom_dim)
        return verify_recollement_laws(rec, samples, seed=11)


@pytest.mark.parametrize("name, eps", HOM_TABLE_CASES, ids=[f"{n}-{','.join(e)}" for n, e in HOM_TABLE_CASES])
def test_hom_table_gives_the_plain_report(name, eps, monkeypatch):
    """The law checker reads each Hom dimension once per (source, target)
    pair: every value it reads equals a fresh `hom_dim`, its report is
    exactly the one plain `hom_dim` calls give, and it solves one Hom per
    distinct pair.  The semisimple samples share dimension vectors with thin
    ones, so a table keyed by less than the module would read wrong values."""
    alg = bundled_algebra(name)
    samples = thins(alg) + [direct_sum([simple_module(alg, v) for v in sup]) for sup in (("1", "2"), ("2", "3"))]
    table, calls = recollements._hom_table, []

    def checked_table(dims):
        dim = table(dims)

        def checked(m, n):
            got = dim(m, n)
            assert got == hom_dim(m, n)
            return got

        return checked

    def counting(m, n):
        calls.append((m.fingerprint, n.fingerprint))
        return hom_dim(m, n)

    with monkeypatch.context() as patch:
        patch.setattr(recollements, "_hom_table", checked_table)
        patch.setattr(recollements, "hom_dim", counting)
        got = verify_recollement_laws(build_recollement(alg, eps), samples, seed=11)
    plain = laws_without_hom_table(build_recollement(alg, eps), samples, monkeypatch)
    assert (got.checked, got.failures, got.notes) == (plain.checked, plain.failures, plain.notes)
    assert got.ok
    assert len(calls) == len(set(calls))


def test_hom_table_reports_a_planted_wrong_functor(a3, monkeypatch):
    """j_* planted as its value plus S(1): the laws that compare Hom
    dimensions must still fail, exactly as without the table."""
    apply = recollements.Recollement.apply

    def planted(self, kind, m):
        out = apply(self, kind, m)
        return direct_sum([out, simple_module(self.A, "1")]) if kind == J_STAR else out

    monkeypatch.setattr(recollements.Recollement, "apply", planted)
    table = verify_recollement_laws(build_recollement(a3, ("2", "3")), thins(a3), seed=11)
    plain = laws_without_hom_table(build_recollement(a3, ("2", "3")), thins(a3), monkeypatch)
    assert table.failures == plain.failures
    failed = {f.law for f in table.failures}
    assert {"adjunction (j^*, j_*)", "j_* fully faithful"} <= failed


SUITE_EPS = (("1",), ("2",), ("3",), ("2", "3"))


def record_solves(patch) -> list:
    """Make the law checker's hom_dim record the memo keys of each pair it solves."""
    calls = []

    def counting(m, n):
        calls.append((m.memo_key, n.memo_key))
        return hom_dim(m, n)

    patch.setattr(recollements, "hom_dim", counting)
    return calls


def test_shared_hom_table_gives_the_fresh_reports(monkeypatch):
    """The property suite's eight law checks (a3 and a42, the same thin
    samples, four idempotent sets each) share one Hom table: each report is
    exactly the one a fresh table gives, and no pair is solved twice."""
    cases = [(bundled_algebra(name), eps) for name in ("a3", "a42") for eps in SUITE_EPS]
    shared: dict = {}
    with monkeypatch.context() as patch:
        calls = record_solves(patch)
        got = [verify_recollement_laws(build_recollement(alg, eps), thins(alg), seed=7, hom_dims=shared)
               for alg, eps in cases]
    fresh = [verify_recollement_laws(build_recollement(alg, eps), thins(alg), seed=7) for alg, eps in cases]
    for g, f in zip(got, fresh):
        assert (g.checked, g.failures, g.notes) == (f.checked, f.failures, f.notes)
        assert g.ok
    # one entry per solve, keyed by the two memo keys
    assert len(calls) == len(set(calls)) and set(calls) == set(shared)


def test_property_suite_solves_each_law_pair_once(monkeypatch):
    """`criterion_property_suite` passes one Hom table to its eight law checks."""
    calls = record_solves(monkeypatch)
    assert criterion_property_suite().ok
    assert calls and len(calls) == len(set(calls))


def test_shared_hom_table_reports_a_planted_wrong_functor(a3, monkeypatch):
    """A table already filled by a clean check must not hide a planted wrong
    j_* (value plus S(1)) from the next check that shares it."""
    shared: dict = {}
    assert verify_recollement_laws(build_recollement(a3, ("2", "3")), thins(a3), seed=11, hom_dims=shared).ok
    filled = len(shared)
    apply = recollements.Recollement.apply

    def planted(self, kind, m):
        out = apply(self, kind, m)
        return direct_sum([out, simple_module(self.A, "1")]) if kind == J_STAR else out

    monkeypatch.setattr(recollements.Recollement, "apply", planted)
    got = verify_recollement_laws(build_recollement(a3, ("2", "3")), thins(a3), seed=11, hom_dims=shared)
    plain = laws_without_hom_table(build_recollement(a3, ("2", "3")), thins(a3), monkeypatch)
    assert got.failures == plain.failures
    assert {"adjunction (j^*, j_*)", "j_* fully faithful"} <= {f.law for f in got.failures}
    assert len(shared) > filled


def test_corner_bimodules_are_built_on_first_use(a3):
    rec = build_recollement(a3, ("2", "3"))
    assert "eps_A" not in vars(rec) and "A_eps" not in vars(rec)
    assert rec.eps_A is rec.eps_A and rec.A_eps.right_algebra is rec.Atilde

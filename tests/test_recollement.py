import copy
import itertools
from types import SimpleNamespace

import pytest

import exrep.goldens as goldens_module
import exrep.recollements as recollements
from exrep.fields import RATIONALS
from exrep.goldens import bundled_algebra, criterion_property_suite
from exrep.linalg import Matrix
from exrep.modules import (
    ModuleError,
    _hom_kernel,
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
from exrep.scope import computation_scope


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


class SolveRecord(dict):
    """A scope's Hom table that records the key of every pair it stores:
    each store is one solve."""

    def __init__(self):
        super().__init__()
        self.solved = []

    def __setitem__(self, key, value):
        self.solved.append(key)
        super().__setitem__(key, value)


class NeverHits(dict):
    """A scope's Hom table that never answers: every read solves afresh."""

    def get(self, key, default=None):
        return default


def in_scope_with_hom_table(table, run):
    with computation_scope() as scope:
        scope.hom = table
        return run()


def fingerprints(key):
    m, n = key
    return (m[0].fingerprint, *m[1:]), (n[0].fingerprint, *n[1:])


def laws_without_hom_table(rec, samples):
    return in_scope_with_hom_table(NeverHits(), lambda: verify_recollement_laws(rec, samples, seed=11))


@pytest.mark.parametrize("name, eps", HOM_TABLE_CASES, ids=[f"{n}-{','.join(e)}" for n, e in HOM_TABLE_CASES])
def test_hom_table_gives_the_plain_report(name, eps, monkeypatch):
    """The law checker reads each Hom dimension once per (source, target)
    pair from its scope: every value it reads equals a fresh solve, its
    report is exactly the one a table that never answers gives, and it
    solves one Hom per distinct pair.  The semisimple samples share
    dimension vectors with thin ones, so a table keyed by less than the
    module would read wrong values."""
    alg = bundled_algebra(name)
    samples = thins(alg) + [direct_sum([simple_module(alg, v) for v in sup]) for sup in (("1", "2"), ("2", "3"))]

    def checked(m, n):
        got = hom_dim(m, n)
        assert got == len(_hom_kernel(m, n)[1])
        return got

    record = SolveRecord()
    with monkeypatch.context() as patch:
        patch.setattr(recollements, "hom_dim", checked)
        got = in_scope_with_hom_table(record, lambda: verify_recollement_laws(build_recollement(alg, eps), samples, seed=11))
    plain = laws_without_hom_table(build_recollement(alg, eps), samples)
    assert (got.checked, got.failures, got.notes) == (plain.checked, plain.failures, plain.notes)
    assert got.ok
    solved = [fingerprints(k) for k in record.solved]
    assert solved and len(solved) == len(set(solved))


def planted_wrong_j_star(monkeypatch):
    """j_* planted as its value plus S(1)."""
    apply = recollements.Recollement.apply

    def planted(self, kind, m):
        out = apply(self, kind, m)
        return direct_sum([out, simple_module(self.A, "1")]) if kind == J_STAR else out

    monkeypatch.setattr(recollements.Recollement, "apply", planted)


def test_hom_table_reports_a_planted_wrong_functor(a3, monkeypatch):
    """With j_* planted wrong, the laws that compare Hom dimensions must
    still fail, exactly as without the table."""
    planted_wrong_j_star(monkeypatch)
    table = verify_recollement_laws(build_recollement(a3, ("2", "3")), thins(a3), seed=11)
    plain = laws_without_hom_table(build_recollement(a3, ("2", "3")), thins(a3))
    assert table.failures == plain.failures
    failed = {f.law for f in table.failures}
    assert {"adjunction (j^*, j_*)", "j_* fully faithful"} <= failed


SUITE_EPS = (("1",), ("2",), ("3",), ("2", "3"))


def test_shared_hom_table_gives_the_fresh_reports():
    """The property suite's eight law checks (a3 and a42, the same thin
    samples, four idempotent sets each) join one scope: each report is
    exactly the one its own scope gives, and no pair is solved twice."""
    cases = [(bundled_algebra(name), eps) for name in ("a3", "a42") for eps in SUITE_EPS]
    record = SolveRecord()
    got = in_scope_with_hom_table(
        record, lambda: [verify_recollement_laws(build_recollement(alg, eps), thins(alg), seed=7) for alg, eps in cases]
    )
    fresh = [verify_recollement_laws(build_recollement(alg, eps), thins(alg), seed=7) for alg, eps in cases]
    for g, f in zip(got, fresh):
        assert (g.checked, g.failures, g.notes) == (f.checked, f.failures, f.notes)
        assert g.ok
    # one entry per solve, keyed by the two memo keys
    assert record.solved and len(record.solved) == len(set(record.solved)) and set(record.solved) == set(record)


def test_property_suite_solves_each_law_pair_once():
    """`criterion_property_suite`'s eight law checks join the scope it runs
    in, so they solve each pair once among themselves and with the rest of
    the suite."""
    record = SolveRecord()
    laws = recollements.verify_recollement_laws
    seen = []

    def counting_laws(*args, **kwargs):
        before = len(record.solved)
        rep = laws(*args, **kwargs)
        seen.append(len(record.solved) - before)
        return rep

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(goldens_module, "verify_recollement_laws", counting_laws)
        assert in_scope_with_hom_table(record, criterion_property_suite).ok
    assert len(seen) == 8 and all(seen)
    assert len(record.solved) == len(set(record.solved))


def test_shared_hom_table_reports_a_planted_wrong_functor(a3, monkeypatch):
    """A table already filled by a clean check in the same scope must not
    hide a planted wrong j_* (value plus S(1)) from the next check."""
    record = SolveRecord()

    def clean_then_planted():
        assert verify_recollement_laws(build_recollement(a3, ("2", "3")), thins(a3), seed=11).ok
        filled = len(record)
        planted_wrong_j_star(monkeypatch)
        got = verify_recollement_laws(build_recollement(a3, ("2", "3")), thins(a3), seed=11)
        return filled, got

    filled, got = in_scope_with_hom_table(record, clean_then_planted)
    plain = laws_without_hom_table(build_recollement(a3, ("2", "3")), thins(a3))
    assert got.failures == plain.failures
    assert {"adjunction (j^*, j_*)", "j_* fully faithful"} <= {f.law for f in got.failures}
    assert len(record) > filled


def test_corner_bimodules_are_built_on_first_use(a3):
    rec = build_recollement(a3, ("2", "3"))
    assert "eps_A" not in vars(rec) and "A_eps" not in vars(rec)
    assert rec.eps_A is rec.eps_A and rec.A_eps.right_algebra is rec.Atilde

import itertools
import random

import pytest
from helpers import ext_dims_from_tower_padded, flatten, int_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from exrep.algebra import corner_algebra
from exrep.fields import RATIONALS
from exrep.linalg import Matrix, Subspace, left_kernel, solve_right
from exrep.modules import (
    FinitePd,
    ModuleError,
    Periodic,
    brick_report,
    direct_sum,
    ext_dims,
    hom_basis,
    hom_dim,
    injective_module,
    is_projective_module,
    is_semibrick,
    iso_test,
    make_module,
    minimal_resolution,
    RightModule,
    module_from_arrow_maps,
    padded_resolution,
    projective_module,
    simple_module,
    thin_module,
    top_and_cover,
    zero_module,
)


def all_thins(algebra):
    out = []
    for k in range(1, algebra.n_vertices + 1):
        for sup in itertools.combinations(algebra.vertices, k):
            try:
                out.append(thin_module(algebra, sup))
            except ModuleError:
                continue
    return out


# -- constructors -----------------------------------------------------------


def test_projective_shapes(a3, a3_ab, cycle3):
    assert projective_module(a3_ab, "1").dims == (1, 1, 0)
    assert projective_module(cycle3, "3").dims == (1, 0, 1)
    assert projective_module(a3, "1").dims == (1, 1, 1)


def test_injective_is_dual_of_opposite_projective(a3):
    assert injective_module(a3, "3").dims == (1, 1, 1)
    assert injective_module(a3, "1").dims == (1, 0, 0)
    # socle: a unique copy of the simple at the defining vertex
    for v in a3.vertices:
        assert hom_dim(simple_module(a3, v), injective_module(a3, v)) == 1


def test_injective_socles_over_bound_cycle(cycle3_ab):
    # dual of the opposite projective at 2, which holds e_2, alpha, gamma*alpha
    # and beta*gamma*alpha
    assert injective_module(cycle3_ab, "2").dims == (1, 2, 1)
    for v in cycle3_ab.vertices:
        inj = injective_module(cycle3_ab, v)
        for u in cycle3_ab.vertices:
            expected = 1 if u == v else 0
            assert hom_dim(simple_module(cycle3_ab, u), inj) == expected


def test_thin_sincere(a3):
    t = thin_module(a3, ("1", "2", "3"))
    assert t.dims == (1, 1, 1)
    i = a3.arrow_basis_index("alpha")
    assert t.action[i] == Matrix.identity(RATIONALS, 1)


def test_thin_violating_relations_rejected(cycle3):
    with pytest.raises(ModuleError):
        thin_module(cycle3, ("1", "2", "3"))  # alpha*beta = 0 forces a contradiction


def test_explicit_module_must_satisfy_axioms(a3_ab):
    one = Matrix.identity(RATIONALS, 1)
    with pytest.raises(ModuleError):
        module_from_arrow_maps(a3_ab, (1, 1, 1), {"alpha": one, "beta": one})


def test_explicit_basis_maps_over_arrowless_corner(a3):
    # the corner on {1,3} has a single degree-two radical element and no
    # arrows, so modules there are given by per-basis action matrices
    from exrep.algebra import corner_algebra
    from exrep.modules import explicit_module

    corner, _ = corner_algebra(a3, ("1", "3"))
    (rad_idx,) = corner.radical_indices
    m = explicit_module(corner, (1, 1), {rad_idx: int_matrix(RATIONALS, [[2]])})
    assert brick_report(m) == (1, True)
    n = explicit_module(corner, (1, 1), {rad_idx: Matrix.zeros(RATIONALS, 1, 1)})
    assert brick_report(n) == (2, False)  # S1 + S3 over the corner
    assert not iso_test(m, n).isomorphic
    assert hom_dim(m, n) == 1


def test_make_module_dispatch(a3):
    assert make_module(a3, "simple:2").dims == (0, 1, 0)
    assert make_module(a3, "proj:2").dims == (0, 1, 1)
    assert make_module(a3, "inj:2").dims == (1, 1, 0)
    assert make_module(a3, "thin:1,2").dims == (1, 1, 0)
    with pytest.raises(ModuleError):
        make_module(a3, "weird:1")


# -- hom spaces --------------------------------------------------------------


def test_hom_simple_to_itself(a3):
    for v in a3.vertices:
        s = simple_module(a3, v)
        assert hom_dim(s, s) == 1


def test_hom_thin123_and_socle(a3):
    t123 = thin_module(a3, ("1", "2", "3"))
    s3 = simple_module(a3, "3")
    # the simple at the sink embeds (socle); there is no map out onto it
    assert hom_dim(s3, t123) == 1
    assert hom_dim(t123, s3) == 0


def test_hom_maps_are_verified(a3):
    t12 = thin_module(a3, ("1", "2"))
    t123 = thin_module(a3, ("1", "2", "3"))
    for h in hom_basis(t12, t123):
        assert h.commutes()


def test_hom_additivity(a3):
    mods = all_thins(a3)
    for m in mods[:4]:
        for n in mods[:4]:
            lhs = hom_dim(direct_sum([m, m]), n)
            assert lhs == 2 * hom_dim(m, n)
            rhs = hom_dim(m, direct_sum([n, n, n]))
            assert rhs == 3 * hom_dim(m, n)


def test_hom_mismatched_algebras(a3, a42):
    with pytest.raises(ModuleError):
        hom_dim(simple_module(a3, "1"), simple_module(a42, "1"))


# -- bricks and semibricks ---------------------------------------------------


def test_simple_is_brick(a3):
    assert brick_report(simple_module(a3, "1")) == (1, True)


def test_square_of_simple_is_not_brick(a3):
    s = simple_module(a3, "2")
    assert brick_report(direct_sum([s, s])) == (4, False)


def test_thin123_is_brick(a3):
    assert brick_report(thin_module(a3, ("1", "2", "3"))) == (1, True)


def test_semibrick_of_simples(a3):
    assert is_semibrick([simple_module(a3, v) for v in a3.vertices])


def test_singleton_semibrick(a3):
    assert is_semibrick([thin_module(a3, ("1", "2", "3"))])


def test_semibrick_fails_with_socle_map(a3):
    assert not is_semibrick([thin_module(a3, ("1", "2", "3")), simple_module(a3, "3")])


# -- iso testing -------------------------------------------------------------


def test_iso_self(a3):
    m = thin_module(a3, ("1", "2"))
    res = iso_test(m, m)
    assert res.isomorphic and res.conclusive


def test_iso_dim_mismatch(a3):
    res = iso_test(simple_module(a3, "1"), simple_module(a3, "2"))
    assert not res.isomorphic and res.conclusive


def test_iso_scaling(a3):
    t12 = thin_module(a3, ("1", "2"))
    scaled = module_from_arrow_maps(a3, (1, 1, 0), {"alpha": int_matrix(RATIONALS, [[7]])})
    res = iso_test(t12, scaled)
    assert res.isomorphic
    assert res.map.is_invertible()


def test_iso_same_dims_nonisomorphic(a3):
    # S1 + S2 vs the thin interval {1,2}: equal dimension vectors, no iso
    sum_simples = direct_sum([simple_module(a3, "1"), simple_module(a3, "2")])
    t12 = thin_module(a3, ("1", "2"))
    res = iso_test(sum_simples, t12)
    assert not res.isomorphic


def test_iso_zero_modules(a3):
    res = iso_test(zero_module(a3), zero_module(a3))
    assert res.isomorphic and res.conclusive


def test_direct_sum_of_zero_modules(a3):
    total = direct_sum([zero_module(a3), zero_module(a3)])
    assert total.is_zero


# -- covers and resolutions --------------------------------------------------


def test_cover_of_projective_is_iso(a3):
    p = projective_module(a3, "2")
    top, cover, cmap = top_and_cover(p)
    assert top == {"2": 1}
    ok = iso_test(cover, p)
    assert ok.isomorphic


def test_cover_of_simple_over_cycle(cycle3):
    s1 = simple_module(cycle3, "1")
    top, cover, _ = top_and_cover(s1)
    assert cover.dims == (1, 1, 0)


def test_cover_of_zero(a3):
    top, cover, _ = top_and_cover(zero_module(a3))
    assert top == {} and cover.is_zero


def test_cover_minimality(a3_ab, cycle3):
    from exrep.modules import kernel_of, radical_subspaces

    for alg in (a3_ab, cycle3):
        for m in all_thins(alg):
            _, cover, cmap = top_and_cover(m)
            ker, kincl = kernel_of(cmap)
            rad = radical_subspaces(cover)
            for v in range(alg.n_vertices):
                for row in kincl.mats[v].rows:
                    assert rad[v].contains_vector(row)


def test_resolution_of_projective(a3):
    res = minimal_resolution(projective_module(a3, "1"), max_steps=4)
    assert res.status == FinitePd(0)
    assert len(res.terms) == 1


def test_finite_resolution_golden(a3_ab):
    res = minimal_resolution(simple_module(a3_ab, "1"), max_steps=8)
    assert res.status == FinitePd(2)
    assert [t.dims for t in res.terms] == [(1, 1, 0), (0, 1, 1), (0, 0, 1)]


def test_periodic_resolution_golden(cycle3):
    res = minimal_resolution(simple_module(cycle3, "1"), max_steps=5)
    assert res.status == Periodic(0, 3)
    assert [t.dims for t in res.terms] == [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 1, 1)]


def test_periodic_resolution_with_nonzero_lead(cycle3):
    # a projective summand dies after the first cover, so the repetition
    # starts at the first syzygy rather than at the module itself
    m = direct_sum([projective_module(cycle3, "1"), simple_module(cycle3, "1")])
    res = minimal_resolution(m, max_steps=8)
    assert res.status == Periodic(1, 3)
    s1 = simple_module(cycle3, "1")
    e = ext_dims(m, s1, 9)
    assert e.dims == [2, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert ext_dims_from_tower_padded(m, s1, 6, "2") == e.dims[:7]


def test_resolution_exactness(cycle3, a3_ab):
    for alg in (cycle3, a3_ab):
        m = simple_module(alg, "1")
        res = minimal_resolution(m, max_steps=4)
        for i in range(1, len(res.terms)):
            comp = res.diffs[i].compose(res.diffs[i - 1])
            assert all(mat.is_zero() for mat in comp.mats)
            for v in range(alg.n_vertices):
                img = res.diffs[i].mats[v]
                assert Subspace.from_rows(alg.field, img.ncols, img.rows) == left_kernel(res.diffs[i - 1].mats[v])


# -- ext ----------------------------------------------------------------------


def test_ext0_equals_hom(a3, cycle3):
    for alg in (a3, cycle3):
        mods = all_thins(alg)
        for m in mods:
            for n in mods[:3]:
                assert ext_dims(m, n, 2).dims[0] == hom_dim(m, n)


def test_ext3_periodic_golden(cycle3):
    s1 = simple_module(cycle3, "1")
    res = ext_dims(s1, s1, 7)
    assert res.dims == [1, 0, 0, 1, 0, 0, 1, 0]
    assert res.all_higher_vanish_certified(1) is False


def test_ext_vanishing_certified(a3_ab):
    s1 = simple_module(a3_ab, "1")
    res = ext_dims(s1, s1, 4)
    assert res.dims == [1, 0, 0, 0, 0]
    assert res.all_higher_vanish_certified(1)


def test_ext1_of_simples_counts_arrows(a3):
    # over a path algebra: dim Ext^1(S_u, S_v) = number of arrows u -> v
    s1, s2, s3 = (simple_module(a3, v) for v in a3.vertices)
    assert ext_dims(s1, s2, 2).dims == [0, 1, 0]
    assert ext_dims(s2, s3, 2).dims == [0, 1, 0]
    assert ext_dims(s1, s3, 2).dims == [0, 0, 0]
    assert ext_dims(s2, s1, 2).dims == [0, 0, 0]


def test_padded_resolution_agreement(a3, a3_ab, cycle3):
    for alg in (a3, a3_ab, cycle3):
        thins = all_thins(alg)
        for m in thins:
            for n in thins[:3]:
                minimal = ext_dims(m, n, 4).dims
                for pad_vertex in alg.vertices:
                    assert ext_dims_from_tower_padded(m, n, 4, pad_vertex) == minimal


def test_padded_resolution_is_read_from_one_tower(cycle3):
    """One padded tower serves every target; its degree-0 term carries the
    extra projective summand, so the oracle is not the minimal resolution."""
    m = thin_module(cycle3, ["1", "2"])
    res = padded_resolution(m, "3")
    _, cover, _ = top_and_cover(m)
    extra = projective_module(cycle3, "3")
    assert res.terms[0].dims == tuple(c + e for c, e in zip(cover.dims, extra.dims))
    for v in cycle3.vertices:
        n = simple_module(cycle3, v)
        assert res.tower_dims(n, 4) == ext_dims(m, n, 4).dims == ext_dims_from_tower_padded(m, n, 4, "3")


def test_euler_form_oracle(a3):
    thins = all_thins(a3) + [zero_module(a3)]
    ai = a3.quiver
    for m in thins:
        for n in thins:
            euler = sum(dm * dn for dm, dn in zip(m.dims, n.dims))
            for arrow in ai.arrows:
                euler -= m.dims[a3.vertex_index(arrow.source)] * n.dims[a3.vertex_index(arrow.target)]
            res = ext_dims(m, n, 4)
            assert hom_dim(m, n) - res.dims[1] == euler
            assert res.dims[2:] == [0, 0, 0]


# -- projectivity -------------------------------------------------------------


def test_projectives_are_projective(a3, cycle3):
    for alg in (a3, cycle3):
        for v in alg.vertices:
            assert is_projective_module(projective_module(alg, v))


def test_simple_at_source_is_not_projective(a3):
    assert not is_projective_module(simple_module(a3, "1"))
    assert not is_projective_module(simple_module(a3, "2"))
    assert is_projective_module(simple_module(a3, "3"))  # sink


def test_zero_module_is_projective(a3):
    assert is_projective_module(zero_module(a3))


# -- randomized direct-sum properties -----------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=3))
@settings(max_examples=20, deadline=None)
def test_direct_sum_dims_and_end(picks):
    from exrep.goldens import bundled_algebra

    a3 = bundled_algebra("a3")
    pool = all_thins(a3)
    mods = [pool[p % len(pool)] for p in picks]
    total = direct_sum(mods)
    for v in range(a3.n_vertices):
        assert total.dims[v] == sum(m.dims[v] for m in mods)
    assert hom_dim(total, total) == sum(hom_dim(m, n) for m in mods for n in mods)


# -- Hom over generators of the radical -----------------------------------------


def full_hom_kernel(m, n):
    """Hom(M, N) from the intertwining equations of every radical basis
    element: row t of the system is the defect rho_M(b).f_w - f_u.rho_N(b),
    over all b, of the unit map f = e_t."""
    a = m.algebra
    f = a.field
    shapes = [(m.dims[v], n.dims[v]) for v in range(a.n_vertices)]
    total = sum(r * c for r, c in shapes)
    rows = []
    for t in range(total):
        unit = [f.one() if s == t else f.zero() for s in range(total)]
        mats, pos = [], 0
        for r, c in shapes:
            mats.append(Matrix(f, [unit[pos + k * c : pos + (k + 1) * c] for k in range(r)], r, c))
            pos += r * c
        defect = []
        for i in a.radical_indices:
            b = a.basis[i]
            d = m.action[i].mul(mats[b.target]).sub(mats[b.source].mul(n.action[i]))
            defect += [x for row in d.rows for x in row]
        rows.append(defect)
    return left_kernel(Matrix(f, rows, total, len(rows[0]) if rows else 0))


def conjugated_sum(algebra, specs, rng):
    """Direct sum of named summands, with each vertex space re-based by a
    random invertible integer matrix g_v: rho(b) becomes g_u.rho(b).g_w^-1."""
    base = direct_sum([make_module(algebra, s) for s in specs])
    f = algebra.field
    g, g_inv = [], []
    for d in base.dims:
        while True:
            mat = int_matrix(f, [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
            if d == 0 or mat.det() != 0:
                break
        g.append(mat)
        g_inv.append(solve_right(mat, Matrix.identity(f, d))[0])
    action = {}
    for i in algebra.radical_indices:
        b = algebra.basis[i]
        action[i] = g[b.source].mul(base.action[i]).mul(g_inv[b.target])
    return RightModule(algebra, base.dims, action)


def generator_test_algebras():
    from exrep.goldens import bundled_algebra

    return [
        bundled_algebra("a3_ab"),
        bundled_algebra("cycle3_ab"),
        corner_algebra(bundled_algebra("a3"), ["1", "3"])[0],
        corner_algebra(bundled_algebra("cycle3_ab"), ["2", "3"])[0],
    ]


@given(st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_hom_over_generators_equals_full_system(which, seed):
    alg = generator_test_algebras()[which]
    rng = random.Random(seed)
    kinds = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in alg.vertices]
    m = conjugated_sum(alg, rng.choices(kinds, k=rng.randint(1, 3)), rng)
    n = conjugated_sum(alg, rng.choices(kinds, k=rng.randint(1, 3)), rng)
    got = [flatten(h) for h in hom_basis(m, n)]
    assert got == full_hom_kernel(m, n).basis.rows

"""Differential tests: the bimodule functors computed from verified kernel
rows and action blocks against reference copies of the module-object
versions they replaced.

- `tensor_quotient` reads the induced B-action straight from the rows of
  rho_X and the projection blocks; the reference builds the ambient right
  module as a `direct_sum` of row copies and multiplies section, ambient
  action and projection.  Its balancing rows, recorded on their way to the
  RREF, must equal a reference written with one FieldSpec call per entry,
  and the reference projects with the reduce-loop copy kept in
  `test_linalg_kernel`.
- `tensor_with_bimodule_map` reads F (x) id from the projection rows; the
  reference assembles the whole F (x) id matrix and multiplies it between
  section and projection.
- `hom_from_bimodule` multiplies the left action into all `_hom_kernel` rows
  at once; the reference takes `hom_basis` maps, composes them with a left
  multiplication map one by one and flattens them.

`exrep tensor` and `exrep recollement map` print the matrices, so the
results must agree to the fingerprint, not only up to isomorphism.  Inputs
are every split-extension bimodule (Q included), every recollement bimodule
and the regular bimodule of the bundled fixtures, over Q and over F2 and F3,
applied to thin, simple, projective and injective modules and seeded direct
sums; the map version runs on seeded submodule inclusions and projections.

`is_projective_module` now compares the cover's dimensions with the
module's; a reference copy of the kernel test it replaced must agree on the
same modules and on both one-sided modules of every bimodule.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from helpers import flatten
from test_linalg_kernel import canonical, ref_quotient_with_section, same

import exrep.bimodules as bimodule_layer
from exrep.algebra import build_algebra
from exrep.bimodules import (
    Bimodule,
    algebra_as_bimodule,
    hom_from_bimodule,
    left_module_over_op,
    right_module_of,
    tensor_quotient,
    tensor_with_bimodule_map,
)
from exrep.exceptional import _refield
from exrep.fields import FieldSpec
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix, Subspace, solve_right
from exrep.modules import (
    ModuleError,
    ModuleMap,
    RightModule,
    direct_sum,
    generated_submodule,
    hom_basis,
    injective_module,
    is_projective_module,
    kernel_of,
    projective_module,
    quotient_module,
    simple_module,
    submodule,
    thin_module,
    top_and_cover,
    zero_module,
)
from exrep.quiver import Arrow, Quiver, RelationExpr
from exrep.recollements import build_recollement
from exrep.split_extensions import build_split_extension

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")
SPLITS = (("a3", "alpha"), ("a3_ab", "alpha"), ("cycle3", "gamma"), ("cycle3_ab", "gamma"))
Q, F2, F3 = FieldSpec(None), FieldSpec(2), FieldSpec(3)

# ---------------------------------------------------------------------------
# reference copies of the replaced functors


def ref_balancing_rows(m, x, w, offsets, amb):
    """The balancing relations at B-vertex w, one FieldSpec call per entry."""
    A, f = x.left_algebra, x.field
    rows = []
    for i in A.radical_generators:
        a = A.basis[i]
        v, v2 = a.source, a.target
        act, lam = m.action[i], x.left[i][w]
        for p in range(m.dims[v]):
            for t in range(x.dims[v2][w]):
                row = [f.zero()] * amb[w]
                for k in range(m.dims[v2]):
                    c = act.rows[p][k]
                    if c != 0:
                        idx = offsets[w][v2] + k * x.dims[v2][w] + t
                        row[idx] = f.add(row[idx], c)
                for s in range(x.dims[v][w]):
                    c = lam.rows[t][s]
                    if c != 0:
                        idx = offsets[w][v] + p * x.dims[v][w] + s
                        row[idx] = f.sub(row[idx], c)
                if any(e != 0 for e in row):
                    rows.append(row)
    return rows


def ref_tensor_quotient(m, x):
    """(module, projs, sects, offsets, ambient dims) through the ambient
    direct sum of row copies."""
    A, B = x.left_algebra, x.right_algebra
    f = x.field
    nv, nw = A.n_vertices, B.n_vertices
    copies = [x.rows[v] for v in range(nv) for _ in range(m.dims[v])]
    ambient = direct_sum(copies) if copies else zero_module(B)
    amb = list(ambient.dims)
    offsets = []
    for w in range(nw):
        offs, total = [], 0
        for v in range(nv):
            offs.append(total)
            total += m.dims[v] * x.dims[v][w]
        offsets.append(offs)
    projs, sects, dims = [], [], []
    for w in range(nw):
        rows = ref_balancing_rows(m, x, w, offsets, amb)
        p, s, q = ref_quotient_with_section(f, amb[w], Subspace.from_rows(f, amb[w], rows))
        projs.append(p)
        sects.append(s)
        dims.append(q)
    action = {}
    for j in B.radical_indices:
        b = B.basis[j]
        action[j] = sects[b.source].mul(ambient.action[j]).mul(projs[b.target])
    return RightModule(B, dims, action), projs, sects, offsets, amb


def ref_tensor_with_bimodule_map(fmap, x):
    A, B = x.left_algebra, x.right_algebra
    f = x.field
    src_mod, _, src_sects, src_off, src_amb = ref_tensor_quotient(fmap.source, x)
    tgt_mod, tgt_projs, _, tgt_off, tgt_amb = ref_tensor_quotient(fmap.target, x)
    mats = []
    for w in range(B.n_vertices):
        big = Matrix.zeros(f, src_amb[w], tgt_amb[w])
        for v in range(A.n_vertices):
            F = fmap.mats[v]
            for p in range(fmap.source.dims[v]):
                for t in range(x.dims[v][w]):
                    src_idx = src_off[w][v] + p * x.dims[v][w] + t
                    for k in range(fmap.target.dims[v]):
                        c = F.rows[p][k]
                        if c != 0:
                            big.rows[src_idx][tgt_off[w][v] + k * x.dims[v][w] + t] = c
        mats.append(src_sects[w].mul(big).mul(tgt_projs[w]))
    return ModuleMap(src_mod, tgt_mod, mats)


def ref_hom_from_bimodule(x, n):
    A = x.left_algebra
    f = x.field
    bases = [hom_basis(row, n) for row in x.rows]
    dims = [len(basis) for basis in bases]
    action = {}
    for i in A.radical_indices:
        a = A.basis[i]
        u, u2 = a.source, a.target
        mats = [x.left[i][w] for w in range(x.right_algebra.n_vertices)]
        lam = ModuleMap(x.rows[u2], x.rows[u], mats, check=False)
        width = sum(d * e for d, e in zip(x.rows[u2].dims, n.dims))
        target = Matrix(f, [flatten(h) for h in bases[u2]], dims[u2], width)
        moved = Matrix(f, [flatten(lam.compose(h)) for h in bases[u]], dims[u], width)
        sol = solve_right(target, moved)
        assert sol is not None
        action[i] = sol[0]
    return RightModule(A, dims, action)


# ---------------------------------------------------------------------------
# inputs


def algebra(name, fld):
    return _refield(bundled_algebra(name), fld)


def bimodules(fld, fixtures):
    out = []
    for name, arrow in SPLITS:
        if name not in fixtures:
            continue
        se = build_split_extension(algebra(name, fld), [arrow])
        for attr in ("R_as_A_R", "R_as_R_A", "A_as_R_A", "A_as_A_R", "Q"):
            out.append((f"{fld.name()}/{name}/{arrow}/{attr}", lambda se=se, attr=attr: getattr(se, attr)))
    for name in fixtures:
        alg = algebra(name, fld)
        out.append((f"{fld.name()}/{name}/regular", lambda alg=alg: algebra_as_bimodule(alg, alg, alg)))
        for k in range(1, alg.n_vertices + 1):
            for eps in itertools.combinations(alg.vertices, k):
                for attr in ("abar_A_Abar", "abar_Abar_A", "eps_A", "A_eps"):
                    label = f"{fld.name()}/{name}/{','.join(eps)}/{attr}"
                    out.append((label, lambda alg=alg, eps=eps, attr=attr: getattr(build_recollement(alg, eps), attr)))
    return out


CASES = bimodules(Q, FIXTURES) + bimodules(F2, ("a3", "a42", "cycle3_ab")) + bimodules(F3, ("a3_ab", "cycle3"))


def sample_modules(alg, rng):
    """Thin (where the algebra has a quiver), simple, projective and
    injective modules, and two seeded direct sums of them."""
    if alg.n_vertices == 0:
        return [zero_module(alg)]
    singles = []
    if alg.quiver is not None:
        for k in range(1, alg.n_vertices + 1):
            for sup in itertools.combinations(alg.vertices, k):
                try:
                    singles.append(thin_module(alg, sup))
                except ModuleError:
                    continue
    for v in alg.vertices:
        singles += [simple_module(alg, v), projective_module(alg, v), injective_module(alg, v)]
    return singles + [direct_sum(rng.sample(singles, k=min(len(singles), rng.randint(2, 3)))) for _ in range(2)]


def random_submodule(m, rng):
    f = m.field
    seeds = {}
    for v in range(m.algebra.n_vertices):
        if m.dims[v] and rng.random() < 0.7:
            vec = [f.from_int(rng.randint(-2, 2)) for _ in range(m.dims[v])]
            if any(vec):
                seeds[v] = [vec]
    return generated_submodule(m, seeds)


def check_tensor_quotient(m, x, monkeypatch):
    """`tensor_quotient(m, x)` against the reference: the module, the
    projections and, recorded on their way to `Subspace.from_rows`, the
    balancing rows of each B-vertex, row for row and in the canonical form
    of each entry.  Returns the reference's sections."""
    seen = []

    def recording(f, ambient, rows):
        seen.append([list(r) for r in rows])
        return Subspace.from_rows(f, ambient, rows)

    with monkeypatch.context() as patch:
        patch.setattr(bimodule_layer, "Subspace", SimpleNamespace(from_rows=recording))
        got = tensor_quotient(m, x)
    module, projs, sects, offsets, amb = ref_tensor_quotient(m, x)
    same_module(got.module, module)
    assert (got.projs, got.offsets, got.ambient_dims) == (projs, offsets, amb)
    assert len(seen) == len(amb)
    for w, rows in enumerate(seen):
        assert same(rows, ref_balancing_rows(m, x, w, offsets, amb), x.field)
    # the canonical section picks exactly the free indices
    assert [sorted(free) for free in got.free] == [[row.index(1) for row in s.rows] for s in sects]
    assert all(canonical(x.field, e) for mx in [*got.projs, *got.module.action.values()] for r in mx.rows for e in r)


def same_module(got, want):
    assert got.algebra.same_as(want.algebra)
    assert got.fingerprint == want.fingerprint


def same_map(got, want):
    same_module(got.source, want.source)
    same_module(got.target, want.target)
    assert got.mats == want.mats


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label, make", CASES, ids=[label for label, _ in CASES])
def test_bimodule_functors_match_module_object_reference(label, make, monkeypatch):
    x = make()
    rng = random.Random(label)
    for m in sample_modules(x.left_algebra, rng):
        check_tensor_quotient(m, x, monkeypatch)
        if not m.is_zero:
            spaces = random_submodule(m, rng)
            for fmap in (submodule(m, spaces)[1], quotient_module(m, spaces)[1]):
                same_map(tensor_with_bimodule_map(fmap, x), ref_tensor_with_bimodule_map(fmap, x))
    for n in sample_modules(x.right_algebra, rng):
        same_module(hom_from_bimodule(x, n), ref_hom_from_bimodule(x, n))


@pytest.mark.parametrize("fld", (Q, F3, FieldSpec(5)), ids=lambda f: f.name())
def test_tensor_over_a_loop_with_fraction_actions(fld, monkeypatch):
    """k[x]/x^2 acting with nonzero diagonals: the balancing relation of
    (p, t) puts rho_M(x)[p][p] and -lam(x)[t][t] into one entry, the only
    way both terms meet.  Over Q they sum to integral Fractions (3/2 - 1/2,
    -3/2 + 1/2), which must come out as ints."""
    loop = build_algebra(Quiver(("1",), (Arrow("x", "1", "1"),)), [RelationExpr(((None, ("x", "x")),))], fld, name="loop")
    x = loop.arrow_basis_index("x")

    def mat(rows):
        return Matrix(fld, [[fld.parse(e) for e in r.split()] for r in rows])

    nil = mat(["1/2 1/4", "-1 -1/2"])
    bimod = Bimodule(loop, loop, [[2]], {x: {0: nil}}, {x: {0: nil}})
    for act in (["3/2 9/4", "-1 -3/2"], ["0 1", "0 0"], ["1/2 1/4", "-1 -1/2"]):
        check_tensor_quotient(RightModule(loop, [2], {x: mat(act)}), bimod, monkeypatch)


def ref_is_projective_module(m):
    """Projective iff the kernel of the cover map is zero."""
    if m.is_zero:
        return True
    _, _, cmap = top_and_cover(m)
    return kernel_of(cmap)[0].is_zero


@pytest.mark.parametrize("label, make", CASES, ids=[label for label, _ in CASES])
def test_is_projective_module_matches_kernel_reference(label, make):
    x = make()
    for m in (left_module_over_op(x), right_module_of(x)):
        assert is_projective_module(m) == ref_is_projective_module(m)


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("fld", (Q, F2, F3), ids=lambda f: f.name())
def test_is_projective_module_on_fixture_modules(name, fld):
    for m in sample_modules(algebra(name, fld), random.Random(name)):
        assert is_projective_module(m) == ref_is_projective_module(m)

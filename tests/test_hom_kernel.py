"""Hom read from one verified kernel (`_hom_kernel`).

`hom_dim`, the brick test and Ext (by dimension shifting, from the Hom
dimensions of the syzygies) read the kernel rows directly, and `hom_basis`
cuts them into maps without re-checking each one; instead every row is
checked on every radical basis element in one batched pass
(`_check_intertwines`).  Three kinds of test pin that:

- differential: a reference copy of the per-map `hom_basis` it replaced
  (`Matrix.zeros` blocks, each map built with `ModuleMap(..., check=True)`)
  must agree entry for entry, and Ext read by `Resolution.ext` and
  `tower_dims` must agree at every degree with the cohomology of the Hom
  complex Hom(P_*, N) read map by map (`ref_ext_from_tower`, rank of
  `flatten(D.compose(h))`), over Q, F2 and F3; a tower padded at every
  vertex (`padded_resolution`, not minimal) reads the same Ext, past the
  certified period too;
- closed form, independent of the solver: dim Hom(e_v A, N) = dim N_v
  (Yoneda) and dim Hom(M, D(A e_v)) = dim M_v (duality);
- the check is live: a module broken only on a non-generator radical element,
  and a planted non-map row among valid ones, are both rejected, and the
  batched check agrees with `ModuleMap.commutes` row for row.
"""

import itertools
import random

import pytest
from helpers import flatten, int_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg_kernel import HOM_CASES
from test_memo_keys import FIXTURES
from test_modules import all_thins, conjugated_sum

from exrep.exceptional import _refield
from exrep.fields import FieldSpec
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix, matrix_rank, null_space
from exrep.modules import (
    ModuleError,
    ModuleMap,
    Periodic,
    Resolution,
    RightModule,
    _check_intertwines,
    _hom_kernel,
    hom_basis,
    hom_dim,
    injective_module,
    padded_resolution,
    projective_module,
    simple_module,
    thin_module,
)

FIELDS = (FieldSpec(None), FieldSpec(2), FieldSpec(3))


# ---------------------------------------------------------------------------
# reference: one ModuleMap per kernel vector, each verified on its own


def ref_hom_basis(m, n):
    a = m.algebra
    if not a.same_as(n.algebra):
        raise ModuleError("hom between modules over different algebras")
    f = a.field
    nv = a.n_vertices
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return []
    last = total - 1
    zero = f.zero()
    rows = []
    for i in a.radical_generators:
        b = a.basis[i]
        u, w = b.source, b.target
        rm = m.action[i].rows
        rn = n.action[i].rows
        du, dw = n.dims[u], n.dims[w]
        for p in range(m.dims[u]):
            for q in range(dw):
                eq = [zero] * total
                for k, c in enumerate(rm[p]):
                    if c:
                        col = last - (offsets[w] + k * dw + q)
                        eq[col] = f.add(eq[col], c)
                for l in range(du):
                    c = rn[l][q]
                    if c:
                        col = last - (offsets[u] + p * du + l)
                        eq[col] = f.sub(eq[col], c)
                rows.append(eq)
    kernel = null_space(Matrix._adopt(f, rows, len(rows), total))
    maps = []
    for row in kernel.basis.rows:
        mats = []
        for v in range(nv):
            mat = Matrix.zeros(f, m.dims[v], n.dims[v])
            for p in range(m.dims[v]):
                for q in range(n.dims[v]):
                    mat.rows[p][q] = row[offsets[v] + p * n.dims[v] + q]
            mats.append(mat)
        maps.append(ModuleMap(m, n, mats))
    return maps


def ref_hom_complex_rank(res, n, target):
    P_n = res.terms[n]
    basis_n = ref_hom_basis(P_n, target)
    dim_n = len(basis_n)
    if dim_n == 0:
        return 0, 0
    if n + 1 >= len(res.terms) or res.terms[n + 1].is_zero:
        return dim_n, 0
    D = res.diffs[n + 1]
    rows = [flatten(D.compose(h)) for h in basis_n]
    width = len(rows[0])
    if width == 0:
        return dim_n, 0
    return dim_n, matrix_rank(Matrix(target.field, rows, dim_n, width))


def ref_ext_from_tower(res, target, limit):
    dims = []
    prev_rank = 0
    for k in range(limit + 1):
        if k >= len(res.terms) or res.terms[k].is_zero:
            dims.append(0)
            prev_rank = 0
            continue
        dim_k, rank_k = ref_hom_complex_rank(res, k, target)
        dims.append(dim_k - rank_k - prev_rank)
        prev_rank = rank_k
    return dims


# ---------------------------------------------------------------------------
# cases


def _over(algebra, fld):
    return algebra if fld.is_rational else _refield(algebra, fld)


def _sample(algebra, rng, count, lo=1, hi=3):
    kinds = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in algebra.vertices]
    return [conjugated_sum(algebra, rng.choices(kinds, k=rng.randint(lo, hi)), rng) for _ in range(count)]


def _same_entries(x, y):
    return x == y and [type(e) for e in x] == [type(e) for e in y]


EXT_LIMIT = 3
CASES = [(name, alg, fld) for name, alg in HOM_CASES for fld in FIELDS]
CASE_IDS = [f"{name}/{fld.name()}" for name, _, fld in CASES]


@pytest.mark.parametrize("name,algebra,fld", CASES, ids=CASE_IDS)
def test_hom_readers_match_per_map_reference(name, algebra, fld):
    alg = _over(algebra, fld)
    rng = random.Random(f"{name}/{fld.name()}")
    mods = _sample(alg, rng, 4)
    nonzero = 0
    for m, n in itertools.product(mods, repeat=2):
        got, want = hom_basis(m, n), ref_hom_basis(m, n)
        assert hom_dim(m, n) == len(want) == len(got)
        for h, r in zip(got, want):
            assert isinstance(h, ModuleMap) and (h.source, h.target) == (m, n)
            for x, y in zip(h.mats, r.mats):
                assert (x.nrows, x.ncols) == (y.nrows, y.ncols)
                assert all(_same_entries(p, q) for p, q in zip(x.rows, y.rows))
        nonzero += bool(got)
    assert nonzero
    for m in mods[:2]:
        res = Resolution(m)
        res.extend_to(EXT_LIMIT + 2)
        for n in mods:
            want = ref_ext_from_tower(res, n, EXT_LIMIT)
            for k in range(EXT_LIMIT + 1):
                assert res.ext(n, k).dims == res.tower_dims(n, k) == want[: k + 1], (k, want)


PADDED_READS = (0, 1, 4)


@pytest.mark.parametrize("name", FIXTURES)
def test_padded_tower_reads_minimal_and_per_map_ext(name):
    """Every thin module, and a seeded re-based copy of it, padded at every
    vertex: `tower_dims` at degrees 0, 1 and 4 equals `Resolution.ext` and
    the per-map Hom complex of the padded tower, for every simple target.  A
    module with a certified syzygy period is also read a period past
    lead + period, where `Resolution.ext` continues the dimensions
    periodically and the padded tower is read step by step."""
    alg = bundled_algebra(name)
    rng = random.Random(f"padded/{name}")
    simples = [simple_module(alg, v) for v in alg.vertices]
    periodic = 0
    for thin in all_thins(alg):
        spec = "thin:" + ",".join(v for v, d in zip(alg.vertices, thin.dims) if d)
        for m in (thin, conjugated_sum(alg, [spec], rng)):
            reads = PADDED_READS
            status = Resolution(m).status(8)
            if isinstance(status, Periodic):
                periodic += 1
                reads += (status.lead + 2 * status.period + 1,)
            top = max(reads)
            for v in alg.vertices:
                padded = padded_resolution(m, v)
                padded.extend_to(top + 2)  # the per-map reference reads P_{k+1}
                for n in simples:
                    want = ref_ext_from_tower(padded, n, top)
                    for k in reads:
                        got = padded.tower_dims(n, k)
                        assert got == Resolution.of(m).ext(n, k).dims == want[: k + 1], (spec, v, k)
    assert periodic or name != "cycle3"


# ---------------------------------------------------------------------------
# closed forms: Yoneda and duality


@given(st.integers(0, len(HOM_CASES) - 1), st.sampled_from([FieldSpec(None), FieldSpec(3)]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_hom_from_projective_and_into_injective_closed_form(which, fld, seed):
    alg = _over(HOM_CASES[which][1], fld)
    rng = random.Random(seed)
    (x,) = _sample(alg, rng, 1)
    for idx, v in enumerate(alg.vertices):
        # Hom(e_v A, N) = N e_v, also with e_v A re-based at every vertex
        for p in (projective_module(alg, v), conjugated_sum(alg, [f"proj:{v}"], rng)):
            assert hom_dim(p, x) == len(hom_basis(p, x)) == x.dims[idx]
        # Hom(M, D(A e_v)) = D(M e_v)
        for i in (injective_module(alg, v), conjugated_sum(alg, [f"inj:{v}"], rng)):
            assert hom_dim(x, i) == len(hom_basis(x, i)) == x.dims[idx]


# ---------------------------------------------------------------------------
# the batched check is live


def _broken_thin123(a3):
    """Thin 1,2,3 over a3 with rho(alpha) = rho(beta) = 1 but rho(alpha*beta)
    = 0: broken only on a radical element that is not a generator."""
    (ab,) = [i for i in a3.radical_indices if i not in a3.radical_generators]
    action = {i: int_matrix(a3.field, [[0 if i == ab else 1]]) for i in a3.radical_indices}
    return RightModule(a3, (1, 1, 1), action, check=False)


def test_break_on_a_non_generator_is_caught(a3):
    bad = _broken_thin123(a3)
    good = thin_module(a3, ["1", "2", "3"])
    for m, n in ((good, bad), (bad, good)):
        with pytest.raises(ModuleError, match="do not intertwine"):
            hom_dim(m, n)
        with pytest.raises(ModuleError, match="do not intertwine"):
            hom_basis(m, n)


def _blocks(m, n, offsets, row):
    return [
        Matrix._adopt(m.field, [row[o + r * n.dims[v] : o + (r + 1) * n.dims[v]] for r in range(m.dims[v])], m.dims[v], n.dims[v])
        for v, o in enumerate(offsets)
    ]


def test_planted_non_map_row_is_rejected(a3, cycle3_ab):
    for alg in (a3, cycle3_ab):
        rng = random.Random(alg.name)
        m, n = _sample(alg, rng, 2, lo=2)
        offsets, rows = _hom_kernel(m, n)
        total = sum(a * b for a, b in zip(m.dims, n.dims))
        # a unit vector that is not a map, found among all of them
        bad = next(
            e for e in ([int(c == j) for c in range(total)] for j in range(total))
            if not ModuleMap(m, n, _blocks(m, n, offsets, e), check=False).commutes()
        )
        _check_intertwines(m, n, offsets, rows)
        for at in range(len(rows) + 1):
            with pytest.raises(ModuleError, match="do not intertwine"):
                _check_intertwines(m, n, offsets, rows[:at] + [bad] + rows[at:])


@given(st.integers(0, len(HOM_CASES) - 1), st.sampled_from(FIELDS), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_batched_check_agrees_with_commutes(which, fld, seed):
    alg = _over(HOM_CASES[which][1], fld)
    rng = random.Random(seed)
    m, n = _sample(alg, rng, 2)
    offsets, kernel = _hom_kernel(m, n)
    total = sum(a * b for a, b in zip(m.dims, n.dims))
    rows = []
    for _ in range(rng.randint(1, 4)):
        row = [0] * total
        for h in kernel:  # a random combination of maps ...
            c = rng.randint(-2, 2)
            row = [fld.add(x, fld.mul(fld.from_int(c), y)) for x, y in zip(row, h)]
        if total and rng.random() < 0.5:  # ... sometimes moved off the kernel
            j = rng.randrange(total)
            row[j] = fld.add(row[j], fld.from_int(rng.choice([1, -1])))
        rows.append(row)
    want = all(ModuleMap(m, n, _blocks(m, n, offsets, r), check=False).commutes() for r in rows)
    try:
        _check_intertwines(m, n, offsets, rows)
        got = True
    except ModuleError:
        got = False
    assert got == want

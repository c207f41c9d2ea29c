"""The scope's kernel tables: Hom kernels, covers, syzygies and Hom-complex
ranks, each solved once per module content and shared by every reader.

- Differential: on every fixture's simple, projective, injective and thin
  modules, scoped `_hom_kernel` rows, `top_and_cover`, resolution terms and
  differentials, and Ext read at bounds 24, 3, 6 and 4 in one scope equal
  the unscoped results.
- Each (step n, step n+1, target) rank is solved once however many bounds
  read it, and a rank read for one target never answers for another.
- Readers leave the shared rows and tops as they were solved.
- The padded first step of `padded_resolution` enters no table.
- One `goldens.run_all()` solves at most 898 Hom kernels, 90 covers and 366
  ranks, and two runs solve exactly the same.
"""

from collections import Counter

import pytest
from test_memo_keys import FIXTURES, modules

from exrep import goldens, modules as module_layer
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix
from exrep.modules import (
    Resolution,
    RightModule,
    _hom_kernel,
    brick_report,
    hom_basis,
    hom_dim,
    iso_test,
    make_module,
    padded_resolution,
    top_and_cover,
)
from exrep.scope import computation_scope
from exrep.split_extensions import HOM_DOWN, HOM_UP, build_split_extension

BOUNDS = (24, 3, 6, 4)


def cover_data(m):
    top, cover, cmap = top_and_cover(m)
    return top, cover.fingerprint, [mat.rows for mat in cmap.mats]


def prefix_data(res, steps):
    pre = res.prefix(steps)
    return (
        [t.fingerprint for t in pre.terms],
        [[mat.rows for mat in d.mats] for d in pre.diffs],
        [s.fingerprint for s in pre.syzygies],
        pre.status,
    )


@pytest.fixture(scope="module", params=FIXTURES)
def case(request):
    alg = bundled_algebra(request.param)
    return request.param, modules(alg)


def test_hom_kernels_and_covers_equal_unscoped(case):
    name, mods = case
    fresh_hom = {(i, j): _hom_kernel(m, n) for i, m in enumerate(mods) for j, n in enumerate(mods)}
    fresh_cover = [cover_data(m) for m in mods]
    with computation_scope() as scope:
        for _ in range(2):  # the second round reads the tables
            for i, m in enumerate(mods):
                assert cover_data(m) == fresh_cover[i], (name, i)
                for j, n in enumerate(mods):
                    assert _hom_kernel(m, n) == fresh_hom[i, j], (name, i, j)
        assert len(scope.covers) <= len(mods) and len(scope.hom) <= len(mods) ** 2


def test_resolutions_equal_unscoped(case):
    name, mods = case
    fresh = [prefix_data(Resolution(m), 5) for m in mods]
    with computation_scope():
        for i, m in enumerate(mods):
            assert prefix_data(Resolution.of(m), 5) == fresh[i], (name, i)
            # a second resolution object of the same module reads the same steps
            assert prefix_data(Resolution(m), 5) == fresh[i], (name, i)


def test_ext_at_every_bound_equals_unscoped(case):
    name, mods = case
    fresh = {}
    for i, m in enumerate(mods):
        res = Resolution(m)
        for j, n in enumerate(mods):
            for b in BOUNDS:
                fresh[i, j, b] = res.ext(n, b)
    with computation_scope():
        for b in BOUNDS:
            for i, m in enumerate(mods):
                for j, n in enumerate(mods):
                    assert Resolution.of(m).ext(n, b) == fresh[i, j, b], (name, i, j, b)


def record_rank_solves(monkeypatch):
    """The key of every rank solved, as (step n, step n+1, target)."""
    solved = []
    solve = module_layer._solve_hom_complex_rank

    def recording(res, n, target):
        solved.append((res.syzygies[n].memo_key, res.syzygies[n + 1].memo_key, target.memo_key))
        return solve(res, n, target)

    monkeypatch.setattr(module_layer, "_solve_hom_complex_rank", recording)
    return solved


def test_each_rank_is_solved_once_across_bounds(case, monkeypatch):
    name, mods = case
    solved = record_rank_solves(monkeypatch)
    with computation_scope() as scope:
        for b in BOUNDS:
            for m in mods:
                for n in mods:
                    Resolution.of(m).ext(n, b)
        assert solved and len(solved) == len(set(solved)) == len(scope.ranks), name
        assert set(solved) == set(scope.ranks)
    assert {key[2] for key in solved} == {n.memo_key for n in mods}


def test_readers_leave_shared_entries_as_solved(a3, cycle3):
    """Every reader of the shared rows and covers (Hom dimension and basis,
    the brick and iso tests, the Hom functors of a split extension, Ext,
    projectivity) leaves them exactly as a fresh solve gives them."""
    with computation_scope() as scope:
        for alg, arrow in ((a3, "alpha"), (cycle3, "gamma")):
            mods = modules(alg)
            se = build_split_extension(alg, [arrow])
            for m in mods:
                brick_report(m)
                top_and_cover(m)[0].clear()  # a caller's top is its own
                for n in mods:
                    hom_dim(m, n)
                    hom_basis(m, n)
                    iso_test(m, n)
                    Resolution.of(m).ext(n, 4)
                se.apply(HOM_DOWN, m)
            for m in modules(se.A):
                se.apply(HOM_UP, m)
        hom, covers = dict(scope.hom), dict(scope.covers)
    assert len(hom) > 100 and len(covers) > 10
    for (mk, nk), got in hom.items():
        assert got == module_layer._solve_hom_kernel(module_of(mk), module_of(nk))
    for mk, (top, cover, cmap) in covers.items():
        fresh_top, fresh_cover, fresh_cmap = module_layer._build_cover(module_of(mk))
        assert top == fresh_top and cover.fingerprint == fresh_cover.fingerprint
        assert [m.rows for m in cmap.mats] == [m.rows for m in fresh_cmap.mats]


def module_of(memo_key):
    """A module with the given memo key, rebuilt from its actions."""
    alg, dims, actions = memo_key
    return RightModule(alg, dims, {i: Matrix(alg.field, rows, r, c) for i, (r, c, rows) in actions}, check=False)


def assert_padded_step_not_shared(scope, m, padded):
    assert all(cover is not padded.terms[0] for _, cover, _ in scope.covers.values())
    assert all(ker is not padded.syzygies[1] for ker, _ in scope.syzygies.values())
    assert not any(key[:2] == (m.memo_key, padded.syzygies[1].memo_key) for key in scope.ranks)


@pytest.mark.parametrize("padded_first", (True, False), ids=("padded-first", "minimal-first"))
@pytest.mark.parametrize("name", FIXTURES)
def test_padded_first_step_enters_no_table(name, padded_first):
    """Read in either order in one scope, the padded and the minimal
    resolution give their unscoped Ext, and the padded cover, its syzygy and
    its degree-0 ranks are in no table."""
    alg = bundled_algebra(name)
    simples = [make_module(alg, f"simple:{v}") for v in alg.vertices]
    for m in modules(alg):
        want_padded = [padded_resolution(m, alg.vertices[0]).tower_dims(n, 4) for n in simples]
        want_minimal = [Resolution(m).ext(n, 4) for n in simples]
        with computation_scope() as scope:
            if not padded_first:
                assert [Resolution.of(m).ext(n, 4) for n in simples] == want_minimal
            padded = padded_resolution(m, alg.vertices[0])
            assert [padded.tower_dims(n, 4) for n in simples] == want_padded
            assert_padded_step_not_shared(scope, m, padded)
            assert [Resolution.of(m).ext(n, 4) for n in simples] == want_minimal
            assert_padded_step_not_shared(scope, m, padded)


def solve_counts(monkeypatch):
    counts = Counter()
    for name in ("_solve_hom_kernel", "_build_cover", "_solve_hom_complex_rank"):
        solve = getattr(module_layer, name)

        def counting(*args, _solve=solve, _name=name):
            counts[_name] += 1
            return _solve(*args)

        monkeypatch.setattr(module_layer, name, counting)
    return counts


def test_run_all_solves_each_kernel_once(monkeypatch):
    counts = solve_counts(monkeypatch)
    first = goldens.run_all()
    once = dict(counts)
    counts.clear()
    again = goldens.run_all()
    assert dict(counts) == once
    assert [(r.key, r.ok, r.detail) for r in first] == [(r.key, r.ok, r.detail) for r in again]
    assert once["_solve_hom_kernel"] <= 898
    assert once["_build_cover"] <= 90
    assert once["_solve_hom_complex_rank"] <= 366

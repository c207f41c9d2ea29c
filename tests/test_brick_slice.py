"""Brick enumeration on the generator slice against the full search.

`enumerate_bricks` draws one matrix per radical generator and fixes the
first generator to a rank normal form.  `_reference_enumerate_bricks` below
is the search it replaced: one matrix per radical basis element, every
point of each GL-orbit, in entry order.  Where the reference completes
within its budget, both must return the same bricks, entry for entry.

`enumerate_bricks` also rejects, without solving End M, every candidate on
a dimension vector with Tits form t(d) >= 2.  `_unpruned_enumerate_bricks`
is the same slice search with a Hom solve for every axiom-valid candidate;
both must return the same bricks and draw the same number of candidates.
"""

import itertools

import pytest
from helpers import int_matrix

from exrep import exceptional
from exrep.algebra import build_algebra, corner_algebra, quotient_by_idempotent_ideal
from exrep.exceptional import (
    BudgetExceeded,
    EnumerationConfig,
    EnumerationResult,
    _canonical_module_key,
    _entry_key,
    _rank_normal_forms,
    _refield,
    _tits_form,
    enumerate_bricks,
)
from exrep.fields import F2, FieldSpec
from exrep.fileio import parse_algebra_file
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix, rref
from exrep.modules import ModuleError, RightModule, brick_report, iso_test, module_from_arrow_maps, module_from_generators
from test_algebra import _rescaled

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")
BUDGET = EnumerationConfig().budget


def _reference_enumerate_bricks(algebra, cfg):
    """The enumeration before the slice: every radical basis element gets a
    matrix, the module axioms reject the rest, and the first brick met in
    entry order represents its isomorphism class."""
    if cfg.field.is_rational:
        raise ModuleError("enumeration needs a prime field; use e.g. F2 and re-verify over Q")
    work = _refield(algebra, cfg.field)
    if work.is_zero:
        return EnumerationResult([], True)
    f = cfg.field
    elements = [f.from_int(k) for k in range(f.p)]
    bricks = []
    notes = []
    count = 0
    complete = True
    try:
        for dims in itertools.product(range(cfg.dim_bound + 1), repeat=work.n_vertices):
            if sum(dims) == 0:
                continue
            shapes = []
            for i in work.radical_indices:
                b = work.basis[i]
                shapes.append((i, dims[b.source], dims[b.target]))
            entry_slots = sum(r * c for _, r, c in shapes)
            for assignment in itertools.product(elements, repeat=entry_slots):
                count += 1
                if count > cfg.budget:
                    raise BudgetExceeded
                action = {}
                pos = 0
                for i, r, c in shapes:
                    action[i] = Matrix(f, [list(assignment[pos + k * c : pos + (k + 1) * c]) for k in range(r)], r, c)
                    pos += r * c
                try:
                    m = RightModule(work, dims, action)
                except ModuleError:
                    continue
                if not brick_report(m)[1]:
                    continue
                if any(
                    rep.dims == m.dims and iso_test(rep, m, budget=cfg.budget).isomorphic
                    for rep in bricks
                ):
                    continue
                bricks.append(m)
    except BudgetExceeded:
        complete = False
        notes.append(f"candidate budget {cfg.budget} exceeded; result is a partial list")
    bricks.sort(key=_canonical_module_key)
    return EnumerationResult(bricks, complete, notes)


def _unpruned_enumerate_bricks(algebra, cfg):
    """The slice search with no Tits bound: every axiom-valid candidate goes
    through the brick test."""
    if cfg.field.is_rational:
        raise ModuleError("enumeration needs a prime field; use e.g. F2 and re-verify over Q")
    work = _refield(algebra, cfg.field)
    if work.is_zero:
        return EnumerationResult([], True)
    f = cfg.field
    elements = [f.from_int(k) for k in range(f.p)]
    gens = work.radical_generators
    first = work.radical_indices[0] if work.radical_indices else None
    pinned = first if first in gens and work.basis[first].source != work.basis[first].target else None
    free = [g for g in gens if g != pinned]
    bricks = []
    notes = []
    count = 0
    complete = True
    try:
        for dims in itertools.product(range(cfg.dim_bound + 1), repeat=work.n_vertices):
            if sum(dims) == 0:
                continue
            shapes = [(g, dims[work.basis[g].source], dims[work.basis[g].target]) for g in free]
            entry_slots = sum(r * c for _, r, c in shapes)
            pins = [{}]
            if pinned is not None:
                b = work.basis[pinned]
                pins = [{pinned: n} for n in _rank_normal_forms(f, dims[b.source], dims[b.target])]
            for pin, assignment in itertools.product(pins, itertools.product(elements, repeat=entry_slots)):
                count += 1
                if count > cfg.budget:
                    raise BudgetExceeded
                action = dict(pin)
                pos = 0
                for g, r, c in shapes:
                    action[g] = Matrix(f, [assignment[pos + k * c : pos + (k + 1) * c] for k in range(r)], r, c)
                    pos += r * c
                try:
                    m = module_from_generators(work, dims, action)
                except ModuleError:
                    continue
                if not brick_report(m)[1]:
                    continue
                twin = next(
                    (
                        k
                        for k, rep in enumerate(bricks)
                        if rep.dims == m.dims and iso_test(rep, m, budget=cfg.budget).isomorphic
                    ),
                    None,
                )
                if twin is None:
                    bricks.append(m)
                elif _entry_key(m) < _entry_key(bricks[twin]):
                    bricks[twin] = m
    except BudgetExceeded:
        complete = False
        notes.append(f"candidate budget {cfg.budget} exceeded; result is a partial list")
    bricks.sort(key=_canonical_module_key)
    return EnumerationResult(bricks, complete, notes, candidates=min(count, cfg.budget))


def _reference_candidates(algebra, cfg, indices=None) -> int:
    """Candidates the reference draws: p ** (entries of all radical matrices)
    summed over the dimension vectors; `indices` counts other slots instead."""
    total = 0
    for dims in itertools.product(range(cfg.dim_bound + 1), repeat=algebra.n_vertices):
        if sum(dims):
            slots = sum(
                dims[algebra.basis[i].source] * dims[algebra.basis[i].target]
                for i in (algebra.radical_indices if indices is None else indices)
            )
            total += cfg.field.p ** slots
    return total


def _outcome(result):
    return result.complete, [m.dims for m in result.items], [_canonical_module_key(m) for m in result.items]


def _assert_matches_reference(algebra, cfg):
    ref = _reference_enumerate_bricks(algebra, cfg)
    assert ref.complete
    assert _outcome(enumerate_bricks(algebra, cfg)) == _outcome(ref)


def _parse(text):
    name, quiver, relations, field = parse_algebra_file(text)
    return build_algebra(quiver, relations, field, name=name)


def _linear_a(n):
    lines = [f"algebra a{n}", "field Q", "vertices " + " ".join(str(v) for v in range(1, n + 1))]
    lines += [f"arrow x{v} {v} {v + 1}" for v in range(1, n)]
    return _parse("\n".join(lines + ["end"]) + "\n")


def _fixture_cases():
    out = []
    for name in FIXTURES:
        for p, bound in itertools.product((2, 3, 5), (1, 2)):
            cfg = EnumerationConfig(field=FieldSpec(p), dim_bound=bound)
            if _reference_candidates(bundled_algebra(name), cfg) <= BUDGET:
                out.append((name, p, bound))
    return out


FIXTURE_CASES = _fixture_cases()


def test_reference_completes_on_22_fixture_configurations():
    # of 5 fixtures x {F2, F3, F5} x dim bound {1, 2}, the 8 left out have
    # more than 200,000 reference candidates (a3, cycle3 at F3/F5 dim 2,
    # a3_ab at F5 dim 2, cycle3_ab at dim 2)
    assert len(FIXTURE_CASES) == 22


@pytest.mark.parametrize("name,p,bound", FIXTURE_CASES)
def test_fixture_bricks_match_reference(name, p, bound):
    _assert_matches_reference(bundled_algebra(name), EnumerationConfig(field=FieldSpec(p), dim_bound=bound))


SUBSETS = [
    (name, eps)
    for name in ("a3", "a42", "cycle3_ab")
    for k in (1, 2, 3)
    for eps in itertools.combinations(("1", "2", "3"), k)
]


@pytest.mark.parametrize("kind", ["corner", "quotient"])
@pytest.mark.parametrize("name,eps", SUBSETS)
def test_corner_and_quotient_bricks_match_reference(name, eps, kind):
    derive = corner_algebra if kind == "corner" else quotient_by_idempotent_ideal
    algebra, _ = derive(bundled_algebra(name), eps)
    compared = 0
    for p, bound in itertools.product((2, 3), (1, 2)):
        cfg = EnumerationConfig(field=FieldSpec(p), dim_bound=bound)
        if _reference_candidates(algebra, cfg) <= BUDGET:
            _assert_matches_reference(algebra, cfg)
            compared += 1
    assert compared >= 2


def test_loop_generator_skips_the_rank_slice(cycle3_ab):
    # e A e for e = e_2 over cycle3_ab: its one radical generator
    # beta*gamma*alpha is a loop, so no matrix is pinned and every point of
    # the 2 x 2 loop space is drawn
    corner, _ = corner_algebra(cycle3_ab, ["2"])
    (g,) = corner.radical_generators
    assert corner.basis[g].source == corner.basis[g].target
    cfg = EnumerationConfig(field=FieldSpec(3), dim_bound=2)
    assert enumerate_bricks(corner, cfg).candidates == _reference_candidates(corner, cfg) == 3 + 3**4


# a product ahead of a generator in basis order: quotients sort their basis
# by Peirce block, so a4 / (e_4) lists a*b before b, and the two-cycle
# quotient lists the loop a*b first, which is no generator, so no matrix is
# pinned there
INTERLEAVED = {
    "a4/4": ("algebra a4\nfield Q\nvertices 1 2 3 4\narrow a 1 2\narrow b 2 3\narrow c 3 4\nend\n", "4"),
    "two-cycle/3": ("algebra two\nfield Q\nvertices 1 2 3\narrow a 1 2\narrow b 2 1\nrelation b*a\nend\n", "3"),
}


@pytest.mark.parametrize("key", sorted(INTERLEAVED))
def test_interleaved_basis_orders_match_reference(key):
    text, eps = INTERLEAVED[key]
    algebra, _ = quotient_by_idempotent_ideal(_parse(text), [eps])
    first = algebra.radical_indices[0]
    gens = algebra.radical_generators
    assert any(i not in gens for i in algebra.radical_indices if i < max(gens))
    for p, bound in itertools.product((2, 3), (1, 2)):
        cfg = EnumerationConfig(field=FieldSpec(p), dim_bound=bound)
        if _reference_candidates(algebra, cfg) <= BUDGET:
            _assert_matches_reference(algebra, cfg)
    if first not in gens:
        cfg = EnumerationConfig(field=F2, dim_bound=2)
        assert enumerate_bricks(algebra, cfg).candidates == _reference_candidates(algebra, cfg, gens)


def test_word_coefficients_reach_the_modules(a3):
    # a3 with the basis element alpha*beta replaced by twice itself: its
    # action is 2 * rho(alpha) * rho(beta), so a wrong coefficient breaks
    # the module axioms on every candidate where alpha*beta acts
    k = next(i for i in a3.radical_indices if a3.basis[i].degree == 2)
    algebra = _rescaled(a3, k, a3.field.from_int(2))
    for p, bound in ((3, 1), (5, 1), (3, 2)):
        cfg = EnumerationConfig(field=FieldSpec(p), dim_bound=bound)
        result = enumerate_bricks(algebra, cfg)
        assert result.complete and len(result.items) == 6
        if _reference_candidates(algebra, cfg) <= BUDGET:
            _assert_matches_reference(algebra, cfg)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_linear_a_has_one_brick_per_interval(n):
    # the bricks of linear A_n are the n(n+1)/2 interval modules
    result = enumerate_bricks(_linear_a(n), EnumerationConfig(field=F2, dim_bound=1))
    assert result.complete
    assert len(result.items) == n * (n + 1) // 2
    intervals = {tuple(int(i <= v < j) for v in range(n)) for i in range(n) for j in range(i + 1, n + 1)}
    assert {m.dims for m in result.items} == intervals


def test_a3_over_f3_at_dim_two_now_completes(a3):
    cfg = EnumerationConfig(field=FieldSpec(3), dim_bound=2)
    # the full search would need 552,192 candidates, past the default budget
    assert _reference_candidates(a3, cfg) > cfg.budget
    result = enumerate_bricks(a3, cfg)
    assert result.complete and result.notes == []
    assert len(result.items) == 6
    assert result.candidates == 619


def test_slice_candidate_counts(a3, a3_ab):
    # the two cases of the bricks-fp benchmark: 5,052 -> 169 and 8,458 -> 619
    cases = [(a3, F2, 169, 5052), (a3_ab, FieldSpec(3), 619, 8458)]
    for algebra, fld, slice_count, full_count in cases:
        cfg = EnumerationConfig(field=fld, dim_bound=2)
        assert _reference_candidates(algebra, cfg) == full_count
        assert enumerate_bricks(algebra, cfg).candidates == slice_count


def test_budget_counts_slice_candidates(a3):
    # a3 over F2 at dim bound 1 draws 12 slice candidates (17 in the full search)
    assert enumerate_bricks(a3, EnumerationConfig(budget=12)).complete
    short = enumerate_bricks(a3, EnumerationConfig(budget=11))
    assert not short.complete and short.candidates == 11


@pytest.mark.parametrize("p,rows,cols", [(2, 2, 3), (3, 2, 2), (2, 3, 2), (5, 1, 3)])
def test_rank_normal_form_is_lex_least_of_its_rank(p, rows, cols):
    f = FieldSpec(p)
    least = {}
    for entries in itertools.product(range(p), repeat=rows * cols):
        mat = Matrix(f, [entries[k * cols : (k + 1) * cols] for k in range(rows)], rows, cols)
        rank = len(rref(mat)[1])
        least.setdefault(rank, entries)  # product() runs in lex order
    forms = _rank_normal_forms(f, rows, cols)
    assert len(forms) == len(least) == min(rows, cols) + 1
    for r, form in enumerate(forms):
        assert tuple(x for row in form.rows for x in row) == least[r]


def test_module_from_generators_matches_arrow_maps(cycle3_ab):
    f = cycle3_ab.field

    def both(alpha, beta, gamma):
        maps = {"alpha": alpha, "beta": beta, "gamma": gamma}
        gens = {cycle3_ab.arrow_basis_index(name): mat for name, mat in maps.items()}
        return (
            lambda: module_from_arrow_maps(cycle3_ab, (2, 2, 2), maps),
            lambda: module_from_generators(cycle3_ab, (2, 2, 2), gens),
        )

    gamma = int_matrix(f, [[1, 3], [0, 1]])
    # alpha.beta = [[0, 1], [0, 2]] breaks the relation alpha*beta = 0
    for build in both(int_matrix(f, [[1, 0], [2, 1]]), int_matrix(f, [[0, 1], [0, 0]]), gamma):
        with pytest.raises(ModuleError):
            build()
    by_arrows, by_words = both(int_matrix(f, [[1, 0], [0, 0]]), int_matrix(f, [[0, 0], [1, 1]]), gamma)
    assert by_words().fingerprint == by_arrows().fingerprint


# ---------------------------------------------------------------------------
# the Tits bound against the unpruned slice search


def _pruned_outcome(result):
    return (*_outcome(result), result.notes, result.candidates)


def _assert_matches_unpruned(algebra, cfg):
    """Same bricks, entries, notes and candidate count with and without the
    prune; returns the unpruned result."""
    ref = _unpruned_enumerate_bricks(algebra, cfg)
    assert _pruned_outcome(enumerate_bricks(algebra, cfg)) == _pruned_outcome(ref)
    return ref


@pytest.mark.parametrize("name,p,bound", FIXTURE_CASES)
def test_fixture_bricks_match_unpruned_search(name, p, bound):
    ref = _assert_matches_unpruned(bundled_algebra(name), EnumerationConfig(field=FieldSpec(p), dim_bound=bound))
    assert ref.complete and ref.items
    # no brick the full brick test finds lies where the bound rejects
    assert all(_tits_form(m.algebra, m.dims) <= 1 for m in ref.items)


@pytest.mark.parametrize("n", [4, 5])
def test_linear_a_matches_unpruned_search(n):
    ref = _assert_matches_unpruned(_linear_a(n), EnumerationConfig(field=F2, dim_bound=1))
    assert ref.complete and len(ref.items) == n * (n + 1) // 2


# corners whose radical has a generator of path degree 2: alpha*beta in
# e A e for e = e_1 + e_3 over a3, where a bound that counted only arrows
# would reject the brick of dimension vector (1, 1)
DEGREE_TWO_CORNERS = [("a3", ("1", "3")), ("cycle3_ab", ("2", "3"))]


@pytest.mark.parametrize("name,eps", DEGREE_TWO_CORNERS)
def test_degree_two_corners_match_unpruned_search(name, eps):
    corner, _ = corner_algebra(bundled_algebra(name), eps)
    assert any(corner.basis[g].degree == 2 for g in corner.radical_generators)
    for p, bound in itertools.product((2, 3), (1, 2)):
        ref = _assert_matches_unpruned(corner, EnumerationConfig(field=FieldSpec(p), dim_bound=bound))
        assert ref.complete and any(sum(m.dims) >= 2 for m in ref.items)


def test_budget_cut_matches_unpruned_search(a3):
    ref = _assert_matches_unpruned(a3, EnumerationConfig(budget=11))
    assert not ref.complete and ref.candidates == 11


def test_bound_skips_the_hom_solve(monkeypatch, a3, a3_ab):
    # the two cases of the bricks-fp benchmark: only the 23 axiom-valid
    # candidates on vectors with t(d) <= 1 reach the brick test (524 without
    # the bound)
    tested = []

    def counting(m):
        tested.append(_tits_form(m.algebra, m.dims))
        return brick_report(m)

    monkeypatch.setattr(exceptional, "brick_report", counting)
    for algebra, fld in ((a3, F2), (a3_ab, FieldSpec(3))):
        enumerate_bricks(algebra, EnumerationConfig(field=fld, dim_bound=2))
    assert tested and max(tested) <= 1
    assert len(tested) == 23

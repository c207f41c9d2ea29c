"""The single form of rational entries, and the row-level module checks.

Over Q an integral value is an int and only a non-integral one a Fraction.
The property tests walk the layers that build modules and maps (Hom bases,
resolutions, split-extension and recollement functors) over the five
fixtures and require every entry they hold to be in that form.
`RightModule.violations` and `ModuleMap.commutes` work on plain rows;
they are compared, verdict for verdict and message for message, with a
reference copy of their Matrix-based form on valid and corrupted modules
and maps over Q, F2 and F3.  `_stable_seed` is pinned to a copy of its
formula from when every rational entry was a Fraction."""

import itertools
import random
import zlib
from fractions import Fraction

import pytest
from helpers import flatten
from test_linalg_kernel import canonical
from test_modules import conjugated_sum

from exrep.algebra import Algebra, BasisElement
from exrep.exceptional import _refield
from exrep.fields import RATIONALS, FieldSpec
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix
from exrep.modules import (
    ModuleMap,
    RightModule,
    _stable_seed,
    direct_sum,
    hom_basis,
    make_module,
    minimal_resolution,
)
from exrep.recollements import (
    I_SHRIEK,
    I_STAR,
    I_UPPER_STAR,
    J_LOWER,
    J_STAR,
    J_UPPER_STAR,
    build_recollement,
)
from exrep.split_extensions import HOM_DOWN, HOM_UP, TENSOR_DOWN, TENSOR_UP, build_split_extension

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")


def module_entries(m: RightModule):
    return [x for mat in m.action.values() for r in mat.rows for x in r]


def assert_canonical_module(m: RightModule) -> None:
    assert all(canonical(m.field, x) for x in module_entries(m)), m


def assert_canonical_map(h: ModuleMap) -> None:
    assert all(canonical(h.source.field, x) for x in flatten(h)), h


def sample_modules(algebra, rng: random.Random, count: int) -> list[RightModule]:
    """Named modules plus conjugated sums, whose actions hold Fractions."""
    kinds = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in algebra.vertices]
    named = [make_module(algebra, s) for s in rng.sample(kinds, min(count, len(kinds)))]
    return named + [conjugated_sum(algebra, rng.choices(kinds, k=rng.randint(2, 3)), rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# the field layer


def test_field_operations_return_the_single_form():
    q = RATIONALS
    assert type(q.zero()) is int and type(q.one()) is int
    assert type(q.from_int(3)) is int
    assert q.parse("4/2") == 2 and type(q.parse("4/2")) is int
    assert q.parse("-3/6") == Fraction(-1, 2)
    assert q.inv(2) == Fraction(1, 2)
    assert type(q.inv(-1)) is int and q.inv(-1) == -1
    assert type(q.inv(Fraction(1, 3))) is int and q.inv(Fraction(1, 3)) == 3
    assert type(q.mul(Fraction(1, 2), 2)) is int
    assert type(q.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(q.sub(Fraction(3, 2), Fraction(1, 2))) is int
    assert type(q.div(3, 3)) is int
    assert q.div(1, 3) == Fraction(1, 3)
    assert [q.fmt(x) for x in (2, Fraction(1, 2), -1)] == ["2", "1/2", "-1"]


# ---------------------------------------------------------------------------
# every layer emits the single form


@pytest.mark.parametrize("name", FIXTURES)
def test_hom_bases_and_resolutions_are_canonical(name):
    algebra = bundled_algebra(name)
    rng = random.Random(name)
    mods = sample_modules(algebra, rng, 3)
    fractions = 0
    for m in mods:
        assert_canonical_module(m)
        fractions += any(type(x) is Fraction for x in module_entries(m))
        prefix = minimal_resolution(m, 5)
        for term in prefix.terms + prefix.syzygies:
            assert_canonical_module(term)
        for d in prefix.diffs:
            assert_canonical_map(d)
    for m, n in itertools.product(mods, repeat=2):
        for h in hom_basis(m, n):
            assert_canonical_map(h)
    assert fractions  # the samples reach the Fraction side of the form


SPLITS = [(name, a.name) for name in FIXTURES for a in bundled_algebra(name).quiver.arrows]


@pytest.mark.parametrize("name,arrow", SPLITS, ids=[f"{n}-{a}" for n, a in SPLITS])
def test_split_functor_images_are_canonical(name, arrow):
    se = build_split_extension(bundled_algebra(name), [arrow])
    rng = random.Random(f"{name}-{arrow}")
    for m in sample_modules(se.A, rng, 2):
        assert_canonical_module(se.apply(TENSOR_UP, m))
        assert_canonical_module(se.apply(HOM_UP, m))
    for n in sample_modules(se.R, rng, 2):
        assert_canonical_module(se.apply(TENSOR_DOWN, n))
        assert_canonical_module(se.apply(HOM_DOWN, n))


@pytest.mark.parametrize("name", FIXTURES)
def test_recollement_functor_images_are_canonical(name):
    algebra = bundled_algebra(name)
    rng = random.Random(name)
    mods = sample_modules(algebra, rng, 2)
    for eps in ([algebra.vertices[0]], list(algebra.vertices[1:])):
        rec = build_recollement(algebra, eps)
        for m in mods:
            bar = rec.apply(I_UPPER_STAR, m)
            til = rec.apply(J_UPPER_STAR, m)
            for image in (bar, til, rec.apply(I_SHRIEK, m), rec.apply(I_STAR, bar),
                          rec.apply(J_LOWER, til), rec.apply(J_STAR, til)):
                assert_canonical_module(image)


# ---------------------------------------------------------------------------
# the iso-test seed


def ref_stable_seed(m: RightModule, n: RightModule) -> int:
    """The seed formula when every rational entry was a Fraction."""

    def old(fp, field):
        if not field.is_rational:
            return fp
        alg, dims, actions = fp
        return (alg, dims, tuple((i, (r, c, tuple(tuple(Fraction(x) for x in row) for row in rows))) for i, (r, c, rows) in actions))

    return zlib.crc32(repr((old(m.fingerprint, m.field), old(n.fingerprint, n.field))).encode())


@pytest.mark.parametrize("name", FIXTURES)
def test_stable_seed_matches_the_fraction_formula(name):
    algebra = bundled_algebra(name)
    mods = sample_modules(algebra, random.Random(name), 3)
    mods += sample_modules(_refield(algebra, FieldSpec(3)), random.Random(name), 1)
    for m, n in itertools.product(mods, repeat=2):
        if m.algebra.same_as(n.algebra):
            assert _stable_seed(m, n) == ref_stable_seed(m, n)


def test_stable_seed_values_are_pinned():
    a3, c = bundled_algebra("a3"), bundled_algebra("cycle3_ab")
    m = conjugated_sum(c, ["proj:1", "inj:2"], random.Random(5))
    assert any(type(x) is Fraction for x in module_entries(m))
    assert _stable_seed(make_module(a3, "proj:1"), make_module(a3, "inj:3")) == 3551518648
    assert _stable_seed(m, make_module(c, "thin:1,2")) == 47877832
    assert _stable_seed(m, m) == 2439945769


# ---------------------------------------------------------------------------
# the row-level module checks against their Matrix-based form


def ref_violations(m: RightModule) -> list[str]:
    a = m.algebra
    f = m.field
    out = []
    for i in a.radical_indices:
        bi = a.basis[i]
        for j in a.radical_indices:
            bj = a.basis[j]
            if bi.target != bj.source:
                continue
            lhs = m.action[i].mul(m.action[j])
            rhs = Matrix.zeros(f, m.dims[bi.source], m.dims[bj.target])
            for k, c in a.mult(i, j).items():
                rhs = rhs.add(m.rho(k).scale(c))
            if lhs != rhs:
                out.append(f"pair ({a.basis_label(i)}, {a.basis_label(j)})")
    return out


def ref_commutes(h: ModuleMap) -> bool:
    a = h.source.algebra
    for i in a.radical_indices:
        b = a.basis[i]
        if h.source.action[i].mul(h.mats[b.target]) != h.mats[b.source].mul(h.target.action[i]):
            return False
    return True


def nudge(mat: Matrix, rng: random.Random) -> Matrix:
    """mat with one entry moved by a nonzero field element."""
    f = mat.field
    rows = [list(r) for r in mat.rows]
    r, s = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
    step = f.from_int(rng.choice([1, 2])) if f.p is None else f.from_int(rng.randrange(1, f.p))
    if f.p is None and rng.random() < 0.5:
        step = Fraction(1, 2)
    rows[r][s] = f.add(rows[r][s], step)
    return Matrix(f, rows, mat.nrows, mat.ncols)


CHECK_CASES = [(name, p) for name in FIXTURES for p in (None, 2, 3)]


@pytest.mark.parametrize("name,p", CHECK_CASES, ids=[f"{n}-{'Q' if p is None else f'F{p}'}" for n, p in CHECK_CASES])
def test_module_checks_match_matrix_reference(name, p):
    algebra = _refield(bundled_algebra(name), FieldSpec(p))
    rng = random.Random(f"{name}-{p}")
    kinds = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in algebra.vertices]
    mods = [direct_sum([make_module(algebra, s) for s in rng.sample(kinds, 2)]) for _ in range(6)]
    if p is None:
        mods += sample_modules(algebra, rng, 2)
    bad_modules = bad_maps = 0
    for m in mods:
        assert m.violations() == ref_violations(m) == []
        for _ in range(8):
            i = rng.choice([i for i in algebra.radical_indices if m.action[i].nrows and m.action[i].ncols] or [None])
            if i is None:
                break
            action = dict(m.action)
            action[i] = nudge(action[i], rng)
            bad = RightModule(algebra, m.dims, action, check=False)
            got = bad.violations()
            assert got == ref_violations(bad)
            bad_modules += bool(got)
    for m, n in itertools.product(rng.sample(mods, 5), repeat=2):
        for h in hom_basis(m, n):
            assert h.commutes() and ref_commutes(h)
            mats = [nudge(mat, rng) if mat.nrows and mat.ncols else mat for mat in h.mats]
            bad = ModuleMap(m, n, mats, check=False)
            assert bad.commutes() == ref_commutes(bad)
            bad_maps += not bad.commutes()
    # the corruptions reach the failing side (a42 has no composable pair)
    composable = any(algebra.basis[i].target == algebra.basis[j].source
                     for i, j in itertools.product(algebra.radical_indices, repeat=2))
    assert bad_maps and (bad_modules or not composable)


@pytest.mark.parametrize("p", [None, 3])
def test_violations_sum_structure_constants_and_idempotent_terms(p):
    """x.x = 2y + 2e_1 is no relation of a bound quiver algebra (its radical
    is nilpotent), but the check must still read rho(e_1) as the identity
    and reduce the accumulated sum over F_p."""
    f = FieldSpec(p)
    two = f.from_int(2)
    basis = (BasisElement(0, 0, 0, None), BasisElement(0, 0, 1, None), BasisElement(0, 0, 2, None))
    table = [[{0: 1}, {1: 1}, {2: 1}], [{1: 1}, {2: two, 0: two}, {}], [{2: 1}, {}, {}]]
    algebra = Algebra(f, ("1",), basis, table, name="x^2 = 2y + 2e")
    rng = random.Random(p)

    def rand():
        return Matrix(f, [[f.from_int(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])

    for _ in range(30):
        m = RightModule(algebra, (2,), {1: rand(), 2: rand()}, check=False)
        assert m.violations() == ref_violations(m)
        # y = (x.x - 2 I) / 2 makes the pair (x, x) hold
        x = rand()
        y = x.mul(x).sub(Matrix.identity(f, 2).scale(two)).scale(f.inv(two))
        m = RightModule(algebra, (2,), {1: x, 2: y}, check=False)
        got = m.violations()
        assert got == ref_violations(m) and "pair (b1, b1)" not in got

"""dim End M >= t(dim M), the bound `enumerate_bricks` prunes with.

t(d) = sum_v d_v^2 - sum_g d_s(g) d_t(g), with g over the radical
generators (`_tits_form`).  The End M system has sum_v d_v^2 unknowns and
d_s(g) d_t(g) equations per generator, so its kernel has dimension at least
t(d).  The property is checked on conjugated direct sums of simple,
projective, injective and thin modules over Q, F2 and F3, on the fixtures,
on k[x]/x^2 (a loop, t = 0 at every d) and on two corners whose radical has
a generator of path degree 2.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
from test_modules import conjugated_sum

from exrep.algebra import build_algebra, corner_algebra
from exrep.exceptional import _refield, _tits_form
from exrep.fields import RATIONALS, FieldSpec
from exrep.goldens import bundled_algebra
from exrep.modules import ModuleError, hom_dim, make_module
from exrep.quiver import Arrow, Quiver, RelationExpr

FIELDS = (RATIONALS, FieldSpec(2), FieldSpec(3))


def _loop():
    quiver = Quiver(("1",), (Arrow("x", "1", "1"),))
    return build_algebra(quiver, [RelationExpr(((None, ("x", "x")),))], RATIONALS, name="k[x]/x^2")


def _algebras():
    out = [bundled_algebra(name) for name in ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")]
    out.append(_loop())
    out += [corner_algebra(bundled_algebra(name), eps)[0] for name, eps in (("a3", ("1", "3")), ("cycle3_ab", ("2", "3")))]
    return out


def _specs(algebra):
    """The named modules that exist over algebra: thin supports need a
    quiver and must not break a relation."""
    vs = algebra.vertices
    specs = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in vs]
    if algebra.quiver is not None:
        for r in range(2, len(vs) + 1):
            for sup in itertools.combinations(vs, r):
                try:
                    make_module(algebra, "thin:" + ",".join(sup))
                except ModuleError:
                    continue
                specs.append("thin:" + ",".join(sup))
    return specs


CASES = [
    (alg, _specs(alg))
    for base in _algebras()
    for alg in (base if fld.is_rational else _refield(base, fld) for fld in FIELDS)
]


@given(st.integers(0, len(CASES) - 1), st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_end_dim_is_at_least_the_tits_form(which, seed):
    algebra, specs = CASES[which]
    rng = random.Random(seed)
    m = conjugated_sum(algebra, rng.choices(specs, k=rng.randint(1, 3)), rng)
    assert hom_dim(m, m) >= _tits_form(algebra, m.dims)


def test_cases_cover_every_field_and_thin_modules():
    assert {alg.field for alg, _ in CASES} == set(FIELDS)
    assert any(s.startswith("thin:") for _, specs in CASES for s in specs)


def test_bound_is_sharp_on_the_degree_two_corner():
    # over e A e for e = e_1 + e_3 of a3 the one generator alpha*beta joins
    # the two vertices, so t(1, 1) = 1: P_1 meets it as a brick, and
    # S_1 + S_3, of the same dimension vector, has End of dimension 2
    corner, _ = corner_algebra(bundled_algebra("a3"), ("1", "3"))
    p = make_module(corner, "proj:1")
    s = conjugated_sum(corner, ["simple:1", "simple:3"], random.Random(0))
    assert (p.dims, _tits_form(corner, p.dims), hom_dim(p, p)) == ((1, 1), 1, 1)
    assert (s.dims, _tits_form(corner, s.dims), hom_dim(s, s)) == ((1, 1), 1, 2)

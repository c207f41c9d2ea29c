"""The functor memos and the law checker's Hom table key modules by
`RightModule.memo_key`: the fingerprint with the algebra object in place of
its structure constants.

- Equal memo keys must mean equal fingerprints, on every fixture module and
  on every split-extension and recollement functor value built from them.
- A module over an equal but distinct algebra misses the memo and must get a
  value with the same fingerprint.
- `iso_test` still seeds its draws from the fingerprint's text: the seeds of
  a few fixture pairs are pinned.
"""

import itertools
from fractions import Fraction

import pytest

from exrep.algebra import build_algebra, corner_algebra, quotient_by_idempotent_ideal
from exrep.exceptional import _refield
from exrep.fields import RATIONALS, FieldSpec
from exrep.fileio import parse_algebra_file
from exrep.goldens import bundled_algebra, fixture_text
from exrep.linalg import Matrix
from exrep.modules import ModuleError, _stable_seed, make_module, module_from_arrow_maps
from exrep.recollements import I_STAR, J_LOWER, J_STAR, RECOLLEMENT_FUNCTORS, build_recollement
from exrep.split_extensions import HOM_UP, SPLIT_FUNCTORS, TENSOR_UP, build_split_extension

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")
SPLITS = (("a3", "alpha"), ("a3_ab", "alpha"), ("cycle3", "gamma"), ("cycle3_ab", "gamma"))


def rebuilt(name):
    """The fixture algebra built again: equal to `bundled_algebra(name)`, but
    a distinct object."""
    parsed_name, quiver, relations, fld = parse_algebra_file(fixture_text(f"{name}.alg"))
    return build_algebra(quiver, relations, fld, name=parsed_name)


def modules(alg):
    """Simple, projective and injective modules, and thin ones where the
    algebra has a quiver."""
    out = [make_module(alg, f"{kind}:{v}") for v in alg.vertices for kind in ("simple", "proj", "inj")]
    if alg.quiver is not None:
        for k in range(1, alg.n_vertices + 1):
            for sup in itertools.combinations(alg.vertices, k):
                try:
                    out.append(make_module(alg, "thin:" + ",".join(sup)))
                except ModuleError:
                    continue
    return out


def split_source(se, kind):
    return se.A if kind in (TENSOR_UP, HOM_UP) else se.R


def rec_source(rec, kind):
    return {I_STAR: rec.Abar, J_LOWER: rec.Atilde, J_STAR: rec.Atilde}.get(kind, rec.A)


def fixture_modules_and_values():
    out = []
    for name in FIXTURES:
        out += modules(bundled_algebra(name))
    for name, arrow in SPLITS:
        se = build_split_extension(bundled_algebra(name), [arrow])
        for kind in SPLIT_FUNCTORS:
            out += [se.apply(kind, m) for m in modules(split_source(se, kind))]
        out += [se.tensor_with_Q(m) for m in modules(se.A)]
    for name in ("a3", "a42", "cycle3_ab"):
        alg = bundled_algebra(name)
        for k in range(1, alg.n_vertices + 1):
            for eps in itertools.combinations(alg.vertices, k):
                rec = build_recollement(alg, eps)
                for kind in RECOLLEMENT_FUNCTORS:
                    out += [rec.apply(kind, m) for m in modules(rec_source(rec, kind))]
    return out


def test_equal_memo_keys_mean_equal_fingerprints():
    by_key, by_fingerprint = {}, {}
    mods = fixture_modules_and_values()
    for m in mods:
        assert by_key.setdefault(m.memo_key, m.fingerprint) == m.fingerprint
        # and over one algebra object the key is as fine as the fingerprint
        assert by_fingerprint.setdefault((id(m.algebra), m.fingerprint), m.memo_key) == m.memo_key
    assert len(by_key) < len(mods)  # values repeat, so equal keys were met


def test_equal_modules_share_one_memo_entry():
    se = build_split_extension(bundled_algebra("a3"), ["alpha"])
    rec = build_recollement(bundled_algebra("a3"), ("2", "3"))
    for spec in ("simple:2", "proj:1", "thin:1,2"):
        m, again = make_module(se.A, spec), make_module(se.A, spec)
        assert m is not again and m.memo_key == again.memo_key
        assert se.apply(TENSOR_UP, m) is se.apply(TENSOR_UP, again)
        assert se.tensor_with_Q(m) is se.tensor_with_Q(again)
        a, a_again = make_module(rec.A, spec), make_module(rec.A, spec)
        assert rec.apply("i^*", a) is rec.apply("i^*", a_again)


@pytest.mark.parametrize("name, arrow", SPLITS)
def test_split_extension_over_a_rebuilt_algebra(name, arrow):
    se = build_split_extension(bundled_algebra(name), [arrow])
    twin = build_split_extension(rebuilt(name), [arrow])
    assert twin.A is not se.A and twin.A.same_as(se.A) and twin.R.same_as(se.R)
    for kind in SPLIT_FUNCTORS:
        for m, m2 in zip(modules(split_source(se, kind)), modules(split_source(twin, kind))):
            assert m.memo_key != m2.memo_key and m.fingerprint == m2.fingerprint
            value, value2 = se.apply(kind, m), se.apply(kind, m2)
            assert value2 is not value and value2.fingerprint == value.fingerprint
    for m, m2 in zip(modules(se.A), modules(twin.A)):
        value, value2 = se.tensor_with_Q(m), se.tensor_with_Q(m2)
        assert value2 is not value and value2.fingerprint == value.fingerprint


@pytest.mark.parametrize("name", ("a3", "a42", "cycle3_ab"))
@pytest.mark.parametrize("eps", (("1",), ("2",), ("2", "3")), ids=",".join)
def test_recollement_over_a_rebuilt_algebra(name, eps):
    rec = build_recollement(bundled_algebra(name), eps)
    twin = rebuilt(name)
    twins = {
        id(rec.A): twin,
        id(rec.Abar): quotient_by_idempotent_ideal(twin, eps)[0],
        id(rec.Atilde): corner_algebra(twin, eps)[0],
    }
    for kind in RECOLLEMENT_FUNCTORS:
        source = rec_source(rec, kind)
        other = twins[id(source)]
        assert other is not source and other.same_as(source)
        for m, m2 in zip(modules(source), modules(other)):
            value, value2 = rec.apply(kind, m), rec.apply(kind, m2)
            assert value2 is not value and value2.fingerprint == value.fingerprint


def test_iso_test_seeds_are_pinned():
    a3, c3ab = bundled_algebra("a3"), bundled_algebra("cycle3_ab")
    a42_f3 = _refield(bundled_algebra("a42"), FieldSpec(3))
    half = module_from_arrow_maps(a3, [1, 1, 0], {"alpha": Matrix(RATIONALS, [[Fraction(1, 2)]])})
    assert _stable_seed(make_module(a3, "proj:1"), make_module(a3, "inj:3")) == 3551518648
    assert _stable_seed(make_module(c3ab, "proj:2"), make_module(c3ab, "inj:3")) == 3616954462
    assert _stable_seed(make_module(a42_f3, "proj:1"), make_module(a42_f3, "inj:2")) == 3081808409
    assert _stable_seed(half, make_module(a3, "thin:1,2")) == 4097825606

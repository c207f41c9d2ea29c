import itertools

import pytest
from test_paper_layer_refs import ref_is_semibrick

from exrep.exceptional import (
    CERTIFIED,
    EnumerationConfig,
    check_recollement_theorem,
    check_split_theorem,
    enumerate_bricks,
    enumerate_ces,
    is_exceptional,
    is_exceptional_sequence,
    semibrick_report,
)
from exrep.fields import RATIONALS
from exrep.goldens import bundled_sequence
from exrep.modules import (
    ModuleError,
    direct_sum,
    projective_module,
    simple_module,
    thin_module,
)
from exrep.recollements import build_recollement
from exrep.split_extensions import build_split_extension


def test_simple_projective_is_exceptional(a3):
    rep = is_exceptional(simple_module(a3, "3"))
    assert rep.verdict and rep.certainty == CERTIFIED
    assert rep.witnesses[0].condition == "E1" and rep.witnesses[0].dim == 1


def test_periodic_simple_is_not_exceptional(cycle3):
    rep = is_exceptional(thin_module(cycle3, ("1",)))
    assert not rep.verdict
    assert any(w.condition == "E2" and w.n == 3 and w.dim == 1 for w in rep.witnesses)
    assert rep.certainty == CERTIFIED  # a nonzero Ext is a definitive verdict


def test_sincere_thin_is_exceptional(a3):
    rep = is_exceptional(thin_module(a3, ("1", "2", "3")))
    assert rep.verdict and rep.certainty == CERTIFIED


def test_non_brick_not_exceptional(a3):
    s = simple_module(a3, "2")
    rep = is_exceptional(direct_sum([s, s]))
    assert not rep.verdict


def test_sequence_row_a_over_quotient(a42):
    mods = [thin_module(a42, ("3",)), thin_module(a42, ("2", "3")), thin_module(a42, ("1",))]
    rep = is_exceptional_sequence(mods)
    assert rep.verdict and rep.complete and rep.certainty == CERTIFIED


def test_sequence_image_of_row_a(a3):
    mods = [thin_module(a3, ("3",)), thin_module(a3, ("2", "3")), thin_module(a3, ("1", "2", "3"))]
    rep = is_exceptional_sequence(mods)
    assert rep.verdict and rep.complete


def test_repeated_module_is_not_a_sequence(a3):
    s1 = simple_module(a3, "1")
    rep = is_exceptional_sequence([s1, s1])
    assert not rep.verdict
    assert any(w.condition == "E1'" for w in rep.witnesses)


def test_projective_pair_order_matters(a3):
    p1 = projective_module(a3, "1")
    p2 = projective_module(a3, "2")
    assert is_exceptional_sequence([p2, p1]).verdict
    assert not is_exceptional_sequence([p1, p2]).verdict  # Hom(P2, P1) = K alpha


def test_semibrick_reports(a3):
    cases = {
        "simples": [simple_module(a3, v) for v in a3.vertices],
        "empty": [],
        "pair": [thin_module(a3, ("1", "2")), thin_module(a3, ("2", "3"))],
        "chain": [thin_module(a3, ("1", "2", "3")), simple_module(a3, "3")],
    }
    reports = {name: semibrick_report(mods) for name, mods in cases.items()}
    assert reports["simples"].verdict
    assert reports["empty"].verdict
    # (23) surjects onto its top S2, which embeds as the socle of (12)
    assert not reports["pair"].verdict
    assert any(w.condition == "cross-hom" and (w.i, w.j, w.dim) == (2, 1, 1) for w in reports["pair"].witnesses)
    assert not reports["chain"].verdict
    assert any(w.condition == "cross-hom" for w in reports["chain"].witnesses)
    # the report's verdict agrees with the plain predicate
    for name, mods in cases.items():
        assert reports[name].verdict == ref_is_semibrick(mods), name


# -- enumeration ---------------------------------------------------------------


def test_brick_counts(a3, a42):
    cfg = EnumerationConfig()
    assert len(enumerate_bricks(a3, cfg).items) == 6
    assert len(enumerate_bricks(a42, cfg).items) == 4


def test_bricks_of_zero_algebra(a3):
    from exrep.algebra import quotient_by_idempotent_ideal

    zero, _ = quotient_by_idempotent_ideal(a3, a3.vertices)
    assert enumerate_bricks(zero, EnumerationConfig()).items == []


def test_enumeration_needs_prime_field(a3):
    with pytest.raises(ModuleError):
        enumerate_bricks(a3, EnumerationConfig(field=RATIONALS))


def test_budget_flag(a3):
    result = enumerate_bricks(a3, EnumerationConfig(budget=5))
    assert not result.complete
    assert any("budget" in n for n in result.notes)


def test_ces_counts(a3, a42):
    cfg = EnumerationConfig()
    assert len(enumerate_ces(a42, cfg).items) == 9
    assert len(enumerate_ces(a3, cfg).items) == 16


def test_ces_one_vertex():
    from exrep.algebra import build_algebra
    from exrep.quiver import Quiver

    k = build_algebra(Quiver(("1",), ()), [], RATIONALS, name="k")
    result = enumerate_ces(k, EnumerationConfig())
    assert len(result.items) == 1
    assert [m.dims for m in result.items[0]] == [(1,)]


def test_ces_emitted_over_the_input_field(a42):
    result = enumerate_ces(a42, EnumerationConfig())
    for seq in result.items:
        for m in seq:
            assert m.algebra.field == RATIONALS


def test_ces_against_direct_permutation_oracle(a42):
    """Independent cross-check: filter all length-3 arrangements of the
    enumerated bricks directly through the sequence checker."""
    cfg = EnumerationConfig()
    bricks = enumerate_bricks(a42, cfg).items
    from exrep.exceptional import _lift_module

    lifted = [_lift_module(m, a42) for m in bricks]
    direct = set()
    for arrangement in itertools.permutations(range(len(lifted)), a42.n_vertices):
        mods = [lifted[i] for i in arrangement]
        if is_exceptional_sequence(mods).verdict:
            direct.add(arrangement)
    result = enumerate_ces(a42, cfg)
    assert len(result.items) == len(direct)
    # match by iso-class tuples
    def key(seq):
        return tuple(tuple(m.dims) for m in seq)

    assert {key(s) for s in result.items} == {key([lifted[i] for i in arr]) for arr in direct}


def test_ces_cross_check_on_bound_cycle(cycle3_ab):
    """Same exhaustive oracle on a non-hereditary algebra: certificates here
    come from syzygy periodicity rather than finite global dimension."""
    cfg = EnumerationConfig()
    from exrep.exceptional import _lift_module

    bricks = [_lift_module(m, cycle3_ab) for m in enumerate_bricks(cycle3_ab, cfg).items]
    assert len(bricks) == 8
    direct = sum(
        1
        for arr in itertools.permutations(range(len(bricks)), cycle3_ab.n_vertices)
        if is_exceptional_sequence([bricks[i] for i in arr], n_max=12).verdict
    )
    result = enumerate_ces(cycle3_ab, cfg, n_max=12)
    assert direct == len(result.items) == 13


def test_ces_admits_only_certified_bricks():
    """Over F2 with n_max = 0, S(1) of a3_ab is a brick whose self-Ext is only
    seen up to the bound: pd S(1) = 2, and two resolution steps do not reach
    the zero syzygy.  Such a brick must not enter a sequence, so every emitted
    sequence re-checks certified."""
    from exrep.algebra import build_algebra
    from exrep.fileio import parse_algebra_file
    from exrep.goldens import fixture_text

    name, quiver, relations, fld = parse_algebra_file(fixture_text("a3_ab.alg").replace("field Q", "field F 2"))
    a3_ab_f2 = build_algebra(quiver, relations, fld, name=name)
    s1 = simple_module(a3_ab_f2, "1")
    assert is_exceptional(s1, n_max=0).certainty == "up-to-bound:0"
    result = enumerate_ces(a3_ab_f2, EnumerationConfig(), n_max=0)
    assert result.complete
    assert len(result.items) == 6
    for seq in result.items:
        assert all(m.dims != s1.dims for m in seq)
        assert is_exceptional_sequence(list(seq), n_max=0).certainty == CERTIFIED


def test_ces_match_bundled_rows(a42):
    result = enumerate_ces(a42, EnumerationConfig())
    expected = set()
    for row in "abcdefghi":
        mods = bundled_sequence(row, a42)
        expected.add(tuple(tuple(m.dims) for m in mods))
    got = {tuple(tuple(m.dims) for m in seq) for seq in result.items}
    assert got == expected


# -- theorem checkers -----------------------------------------------------------


@pytest.fixture(scope="module")
def se42(a3):
    return build_split_extension(a3, ["alpha"])


def test_split_theorem_rows_adei(se42):
    for row in ("a", "d", "e", "i"):
        mods = bundled_sequence(row, se42.A)
        rep = check_split_theorem(se42, mods)
        assert rep.hypotheses_hold, row
        assert rep.conclusion.verdict, row
        assert not rep.implication_violated


def test_split_theorem_row_b_fails_hom_hypothesis(se42):
    mods = bundled_sequence("b", se42.A)
    rep = check_split_theorem(se42, mods)
    assert not rep.hypotheses[2].holds
    w = rep.hypotheses[2].witnesses[0]
    assert (w.i, w.j, w.dim) == (2, 3, 1)  # Hom(M_3, M_2 x Q) = Hom((23),(23)) = K
    assert not rep.conclusion.verdict
    assert not rep.implication_violated


def test_split_theorem_row_f_fails_like_row_b(se42):
    # (1) precedes (23), so Hom(M_2, M_1 x Q) = Hom((23),(23)) = K: the same
    # failure pattern as row (b); the image is not an exceptional sequence
    mods = bundled_sequence("f", se42.A)
    rep = check_split_theorem(se42, mods)
    assert not rep.hypotheses[2].holds
    w = rep.hypotheses[2].witnesses[0]
    assert (w.i, w.j, w.dim) == (1, 2, 1)
    assert not rep.conclusion.verdict
    assert not rep.implication_violated


def test_split_theorem_implication_never_violated(se42):
    for row in "abcdefghi":
        rep = check_split_theorem(se42, bundled_sequence(row, se42.A))
        assert not rep.implication_violated, row


def test_split_theorem_nonprojective_extension(cycle3):
    se = build_split_extension(cycle3, ["gamma"])
    one_a = thin_module(se.A, ("1",))
    rep = check_split_theorem(se, [one_a])
    assert not rep.hypotheses[1].holds  # xi is not projective
    assert not rep.conclusion.verdict   # Ext^3 of the image is nonzero
    assert not rep.implication_violated


def test_recollement_theorem_simple_case(a3):
    rec = build_recollement(a3, ("2", "3"))
    s1 = simple_module(rec.Abar, "1")
    rep = check_recollement_theorem(rec, [s1], [])
    assert rep.conclusions[0].verdict  # i_* S1 = S1 over A is exceptional
    assert not rep.implication_violated
    # i^! fails here, so the hypotheses are reported unmet
    assert not rep.hypotheses_hold
    assert any("not met" in n for n in rep.notes)


def test_recollement_theorem_zero_violations(a3):
    cfg = EnumerationConfig()
    for eps in (("1",), ("3",), a3.vertices):
        rec = build_recollement(a3, eps)
        ces_bar = enumerate_ces(rec.Abar, cfg).items
        ces_til = enumerate_ces(rec.Atilde, cfg).items
        for sb in ces_bar:
            for st in ces_til:
                rep = check_recollement_theorem(rec, list(sb), list(st))
                assert not rep.implication_violated


def test_lemma_ext_transport_identities(a3, cycle3, cycle3_ab):
    """For a projective extension, Ext over R of tensored modules agrees with
    Ext over A into the restricted image; the non-projective extension breaks
    this at degree 3 for the simple at the cycle entry."""
    from exrep.bimodules import hom_from_bimodule
    from exrep.modules import ext_dims
    from exrep.split_extensions import TENSOR_UP

    se34 = build_split_extension(cycle3_ab, ["gamma"])
    thins34 = [thin_module(se34.A, s) for s in (("1",), ("2",), ("3",), ("1", "2"), ("2", "3"))]
    for m in thins34:
        for n in thins34:
            up_m = se34.apply(TENSOR_UP, m)
            up_n = se34.apply(TENSOR_UP, n)
            lhs = ext_dims(up_m, up_n, 6).dims
            rhs = ext_dims(m, hom_from_bimodule(se34.R_as_A_R, up_n), 6).dims
            assert lhs == rhs, (m.dims, n.dims)

    se33 = build_split_extension(cycle3, ["gamma"])
    one = thin_module(se33.A, ("1",))
    up = se33.apply(TENSOR_UP, one)
    lhs = ext_dims(up, up, 3).dims[3]
    rhs = ext_dims(one, hom_from_bimodule(se33.R_as_A_R, up), 3).dims[3]
    assert (lhs, rhs) == (1, 0)

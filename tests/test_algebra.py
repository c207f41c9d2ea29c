import pytest
from helpers import radical_power_zero_exponent

from exrep.algebra import (
    Algebra,
    AlgebraError,
    build_algebra,
    corner_algebra,
    opposite_algebra,
    quotient_by_idempotent_ideal,
    verify_algebra_axioms,
)
from exrep.fields import RATIONALS, FieldSpec
from exrep.fileio import parse_algebra_file
from exrep.goldens import fixture_text
from exrep.quiver import Arrow, Quiver, QuiverError, RelationExpr


def rebuild(name, field_line=None):
    text = fixture_text(f"{name}.alg")
    if field_line:
        text = text.replace("field Q", field_line)
    parsed, quiver, relations, field = parse_algebra_file(text)
    return build_algebra(quiver, relations, field, name=parsed)


def test_dimensions_of_bundled_algebras(a3, a3_ab, cycle3, cycle3_ab, a42):
    assert a3.dim == 6
    assert a3_ab.dim == 5
    assert cycle3.dim == 6
    assert cycle3_ab.dim == 9
    assert a42.dim == 4


def test_a3_basis_normal_forms(a3):
    labels = [a3.basis_label(i) for i in range(a3.dim)]
    assert labels == ["e_1", "e_2", "e_3", "alpha", "beta", "alpha*beta"]


def test_cycle3_radical_squares_to_zero(cycle3):
    assert radical_power_zero_exponent(cycle3) == 2
    i, j = cycle3.arrow_basis_index("alpha"), cycle3.arrow_basis_index("beta")
    assert cycle3.mult(i, j) == {}


def test_dimensions_match_over_f2():
    for name in ("a3", "a3_ab", "cycle3", "cycle3_ab", "a42"):
        q_alg = rebuild(name)
        f_alg = rebuild(name, "field F 2")
        assert q_alg.dim == f_alg.dim, name


def test_non_finite_dimensional_rejected():
    quiver = Quiver(("1",), (Arrow("loop", "1", "1"),))
    with pytest.raises(AlgebraError, match="finite-dimensional"):
        build_algebra(quiver, [], RATIONALS, max_len=12)
    # a truncated loop is fine
    alg = build_algebra(quiver, [RelationExpr(((None, ("loop", "loop")),))], RATIONALS)
    assert alg.dim == 2


def test_short_relation_rejected():
    quiver = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    with pytest.raises(QuiverError, match="length"):
        build_algebra(quiver, [RelationExpr(((None, ("a",)),))], RATIONALS)


def test_peirce_partition(a3, cycle3_ab):
    for alg in (a3, cycle3_ab):
        total = 0
        for u in range(alg.n_vertices):
            for v in range(alg.n_vertices):
                total += sum(1 for b in alg.basis if (b.source, b.target) == (u, v))
        assert total == alg.dim


def test_corner_full_is_identity(a3):
    corner, morph = corner_algebra(a3, a3.vertices)
    assert corner.dim == a3.dim
    assert corner.table == a3.table
    assert morph.verify() == []


def test_corner_23_is_the_two_vertex_path_algebra(a3):
    corner, _ = corner_algebra(a3, ("2", "3"))
    assert corner.dim == 3
    assert corner.vertices == ("2", "3")
    assert sorted(b.degree for b in corner.basis) == [0, 0, 1]
    reference = build_algebra(
        Quiver(("2", "3"), (Arrow("beta", "2", "3"),)), [], RATIONALS
    )
    assert corner.fingerprint == reference.fingerprint


def test_opposite_of_commutative_table_is_itself():
    semisimple = build_algebra(Quiver(("1", "2", "3"), ()), [], RATIONALS)
    opp, _ = opposite_algebra(semisimple)
    assert opp.table == semisimple.table


def test_corner_13_contains_length_two_path(a3):
    corner, morph = corner_algebra(a3, ("1", "3"))
    assert corner.dim == 3
    degrees = sorted(b.degree for b in corner.basis)
    assert degrees == [0, 0, 2]
    assert morph.verify() == []
    assert verify_algebra_axioms(corner) == []


def test_corner_empty_rejected(a3):
    with pytest.raises(AlgebraError):
        corner_algebra(a3, ())


def test_quotient_by_all_vertices_is_zero(a3):
    quot, _ = quotient_by_idempotent_ideal(a3, a3.vertices)
    assert quot.dim == 0
    assert quot.is_zero


def test_quotient_23(a3):
    quot, morph = quotient_by_idempotent_ideal(a3, ("2", "3"))
    assert quot.dim == 1
    assert quot.vertices == ("1",)
    assert morph.verify() == []


def test_quotient_2(a3):
    quot, _ = quotient_by_idempotent_ideal(a3, ("2",))
    assert quot.dim == 2
    assert quot.vertices == ("1", "3")
    assert verify_algebra_axioms(quot) == []


def test_opposite_involution(a3, cycle3_ab):
    for alg in (a3, cycle3_ab):
        opp, morph = opposite_algebra(alg)
        assert morph.verify() == []
        assert verify_algebra_axioms(opp) == []
        opp2, _ = opposite_algebra(opp)
        assert opp2.table == alg.table


def test_opposite_of_a3_reverses_arrows(a3):
    opp, _ = opposite_algebra(a3)
    i = a3.arrow_basis_index("alpha")
    assert (opp.basis[i].source, opp.basis[i].target) == (1, 0)


def test_axioms_catch_broken_idempotent(a3):
    table = [[dict(cell) for cell in row] for row in a3.table]
    e1 = a3.idempotent_index[0]
    table[e1][e1] = {}
    broken = Algebra(a3.field, a3.vertices, a3.basis, table, name="broken")
    diags = verify_algebra_axioms(broken)
    assert any("idempotent" in d for d in diags)


def test_axioms_catch_broken_associativity(cycle3_ab):
    # kill (beta*gamma) * alpha while beta * (gamma*alpha) still reaches the
    # length-three normal form: (beta, gamma, alpha) stops associating
    alg = cycle3_ab
    bg = next(i for i, b in enumerate(alg.basis) if b.path == (1, 2))
    al = alg.arrow_basis_index("alpha")
    table = [[dict(cell) for cell in row] for row in alg.table]
    table[bg][al] = {}
    broken = Algebra(alg.field, alg.vertices, alg.basis, table, name="broken", quiver=alg.quiver)
    diags = verify_algebra_axioms(broken)
    assert any("associativity" in d for d in diags)
    assert any("beta" in d and "gamma" in d and "alpha" in d for d in diags)


def test_commutative_square_with_commutativity_relation():
    quiver = Quiver(
        ("1", "2", "3", "4"),
        (Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"), Arrow("d", "3", "4")),
    )
    rel = RelationExpr(((None, ("a", "b")), (RATIONALS.neg(RATIONALS.one()), ("c", "d"))))
    alg = build_algebra(quiver, [rel], RATIONALS)
    assert alg.dim == 9
    i, j = alg.arrow_basis_index("a"), alg.arrow_basis_index("b")
    k, l = alg.arrow_basis_index("c"), alg.arrow_basis_index("d")
    assert alg.mult(i, j) == alg.mult(k, l)  # both reduce to the same normal form
    assert verify_algebra_axioms(alg) == []


def test_zero_algebra_is_legal(a3):
    quot, _ = quotient_by_idempotent_ideal(a3, a3.vertices)
    assert quot.dim == 0
    assert verify_algebra_axioms(quot) == []
    assert quot.radical_indices == ()


# -- generators of the radical --------------------------------------------------


def test_radical_generators_are_the_arrows(a3, a3_ab, cycle3, cycle3_ab, a42):
    for alg in (a3, a3_ab, cycle3, cycle3_ab, a42):
        arrows = sorted(alg.arrow_basis_index(x.name) for x in alg.quiver.arrows)
        assert alg.radical_generators == tuple(arrows), alg.name


def test_radical_generators_of_corners_can_have_degree_two(a3, cycle3_ab):
    # e A e for e = e_1 + e_3 over a3: the only radical element is the path
    # alpha*beta of length 2, and it generates
    corner, _ = corner_algebra(a3, ["1", "3"])
    assert [corner.basis[i].degree for i in corner.radical_generators] == [2]
    assert [corner.basis[i].degree for i in corner.radical_indices] == [2]
    # e A e for e = e_2 + e_3 over cycle3_ab: beta (2 -> 3) and gamma*alpha
    # (3 -> 2) generate; their product beta*gamma*alpha is the rest of rad
    corner, _ = corner_algebra(cycle3_ab, ["2", "3"])
    gens = corner.radical_generators
    assert sorted(corner.basis[i].degree for i in gens) == [1, 2]
    (rest,) = [i for i in corner.radical_indices if i not in gens]
    assert corner.mult(*gens) == {rest: corner.field.one()}


def _word_value(alg, word):
    one = alg.field.one()
    value = {word[0]: one}
    for g in word[1:]:
        value = alg.mult_vec(value, {g: one})
    return value


def _anticommutative_square(field):
    quiver = Quiver(
        ("1", "2", "3", "4"),
        (Arrow("a", "1", "2"), Arrow("b", "2", "4"), Arrow("c", "1", "3"), Arrow("d", "3", "4")),
    )
    # a*b + 2 c*d = 0, so one of the two paths is -2 (or -1/2) times the other
    rel = RelationExpr(((None, ("a", "b")), (field.from_int(2), ("c", "d"))))
    return build_algebra(quiver, [rel], field, name="square")


def test_radical_words_rebuild_every_radical_element(a3, a3_ab, cycle3, cycle3_ab, a42):
    algebras = [_anticommutative_square(RATIONALS), _anticommutative_square(FieldSpec(5))]
    algebras.append(_rescaled(a3, next(i for i in a3.radical_indices if a3.basis[i].degree == 2), RATIONALS.from_int(3)))
    for base in (a3, a3_ab, cycle3, cycle3_ab, a42):
        algebras += [base, opposite_algebra(base)[0]]
        for eps in (["1"], ["2"], ["1", "3"], ["2", "3"]):
            algebras += [corner_algebra(base, eps)[0], quotient_by_idempotent_ideal(base, eps)[0]]
    for alg in algebras:
        f = alg.field
        words = alg.radical_words
        assert sorted(words) == list(alg.radical_indices), alg.name
        for g in alg.radical_generators:
            assert words[g] == (((g,), f.one()),), alg.name
        for k, combo in words.items():
            total: dict = {}
            for word, c in combo:
                assert all(w in alg.radical_generators for w in word)
                for i, x in _word_value(alg, word).items():
                    total[i] = f.add(total.get(i, f.zero()), f.mul(c, x))
            assert {i: x for i, x in total.items() if x != 0} == {k: f.one()}, (alg.name, k)


def _rescaled(alg, k, s):
    """The same algebra on the basis with b_k replaced by s * b_k."""
    f = alg.field

    def factor(i):
        return s if i == k else f.one()

    table = [
        [
            {m: f.div(f.mul(f.mul(c, factor(i)), factor(j)), factor(m)) for m, c in alg.mult(i, j).items()}
            for j in range(alg.dim)
        ]
        for i in range(alg.dim)
    ]
    return Algebra(f, alg.vertices, alg.basis, table, name=f"{alg.name}.rescaled")


def test_radical_words_carry_coefficients(a3):
    # with the basis element alpha*beta replaced by twice itself, the
    # product of the generators is half the basis element, so the word
    # carries the coefficient 2
    k = next(i for i in a3.radical_indices if a3.basis[i].degree == 2)
    alg = _rescaled(a3, k, a3.field.from_int(2))
    assert verify_algebra_axioms(alg) == []
    alpha, beta = alg.radical_generators
    assert alg.radical_words[k] == (((alpha, beta), 2),)
    assert _word_value(alg, (alpha, beta)) == {k: alg.field.from_int(1) / 2}

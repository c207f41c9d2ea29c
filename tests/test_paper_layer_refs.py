"""One implementation per job above the module calculus.

The paths these replaced are kept here as differential references:

- `ref_is_semibrick`, the former `modules.is_semibrick`;
- `ref_corner_algebra`, `ref_split_algebra` and
  `ref_quotient_by_idempotent_ideal`, the former corner, split-extension A
  (with its hand-built section) and section-based quotient constructions;
- `ref_self_ext_check`, `ref_cross_vanishes` and `ref_split_hypotheses`, the
  former exceptionality pair checks and the T3/T4 loop of the split theorem.
"""

import itertools
import random

import pytest

from exrep.algebra import (
    Algebra,
    AlgebraMorphismData,
    BasisElement,
    _vertex_subset,
    build_algebra,
    corner_algebra,
    quotient_by_idempotent_ideal,
)
from exrep.exceptional import (
    CERTIFIED,
    EnumerationConfig,
    ExceptionalReport,
    Witness,
    _FIELD_NOTE,
    _module_report,
    _sequence_report,
    _vanishing,
    check_split_theorem,
    enumerate_bricks,
    semibrick_report,
    up_to_bound,
)
from exrep.fields import F2, FieldSpec
from exrep.fileio import parse_algebra_file
from exrep.goldens import bundled_sequence, fixture_text
from exrep.linalg import Matrix, Subspace, quotient_with_section
from exrep.modules import ModuleError, Resolution, brick_report, hom_dim, make_module
from exrep.split_extensions import SplitExtensionError, build_split_extension

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")
FIELDS = {"Q": None, "F2": F2, "F3": FieldSpec(3)}
ROWS = "abcdefghi"


def fixture_over(name: str, fld) -> Algebra:
    """A bundled presentation built over fld (its own field when fld is None)."""
    parsed, quiver, relations, own = parse_algebra_file(fixture_text(f"{name}.alg"))
    return build_algebra(quiver, relations, own if fld is None else fld, name=parsed)


def subsets(vertices):
    return [eps for k in range(1, len(vertices) + 1) for eps in itertools.combinations(vertices, k)]


def module_pool(algebra: Algebra) -> list:
    out = []
    for kind in ("simple", "proj", "inj", "thin"):
        supports = [",".join(s) for s in subsets(algebra.vertices)] if kind == "thin" else algebra.vertices
        for sup in supports:
            try:
                out.append(make_module(algebra, f"{kind}:{sup}"))
            except ModuleError:
                pass
    return out


# ---------------------------------------------------------------------------
# references


def ref_is_semibrick(mods) -> bool:
    """The former `modules.is_semibrick`."""
    for i, m in enumerate(mods):
        if not brick_report(m)[1]:
            return False
        for j, n in enumerate(mods):
            if i != j and hom_dim(m, n) != 0:
                return False
    return True


def ref_corner_algebra(a: Algebra, eps_vertices):
    """The former `corner_algebra`."""
    eps = _vertex_subset(a, eps_vertices)
    keep = [i for i, b in enumerate(a.basis) if b.source in eps and b.target in eps]
    new_labels = tuple(v for vi, v in enumerate(a.vertices) if vi in eps)
    old_to_newv = {vi: new_labels.index(v) for vi, v in enumerate(a.vertices) if vi in eps}
    reindex = {old: new for new, old in enumerate(keep)}
    basis = tuple(
        BasisElement(old_to_newv[a.basis[i].source], old_to_newv[a.basis[i].target], a.basis[i].degree, a.basis[i].path)
        for i in keep
    )
    table = [[{reindex[k]: c for k, c in a.mult(i, j).items()} for j in keep] for i in keep]
    corner = Algebra(a.field, new_labels, basis, table, name=f"{a.name}.corner({','.join(new_labels)})")
    transport = Matrix.zeros(a.field, len(keep), a.dim)
    for new, old in enumerate(keep):
        transport.rows[new][old] = a.field.one()
    return corner, AlgebraMorphismData("corner", corner, a, transport)


def ref_split_algebra(se):
    """The former split-extension A on the complement of the kernel span, and
    the section `SplitExtension.__init__` built by hand from section_indices."""
    r, f, c_indices = se.R, se.R.field, se.section_indices
    reindex = {old: new for new, old in enumerate(c_indices)}
    basis = tuple(
        BasisElement(r.basis[i].source, r.basis[i].target, r.basis[i].degree, r.basis[i].path) for i in c_indices
    )
    table = [[{reindex[k]: c for k, c in r.mult(i, j).items()} for j in c_indices] for i in c_indices]
    a = Algebra(f, r.vertices, basis, table, name=f"{r.name}.mod({','.join(se.kernel_arrows)})",
                quiver=r.quiver, relations=r.relations)
    a_into_r = Matrix.zeros(f, a.dim, r.dim)
    for ai, ri in enumerate(c_indices):
        a_into_r.rows[ai][ri] = f.one()
    return a, AlgebraMorphismData("corner", a, r, a_into_r)


def ref_quotient_by_idempotent_ideal(a: Algebra, eps_vertices):
    """The former section-based `quotient_by_idempotent_ideal`."""
    eps = _vertex_subset(a, eps_vertices)
    f = a.field
    nv = a.n_vertices
    block_members: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(a.basis):
        block_members.setdefault((b.source, b.target), []).append(i)
    ideal_rows: dict[tuple[int, int], list[list]] = {k: [] for k in block_members}
    for i, bi in enumerate(a.basis):
        if bi.target not in eps:
            continue
        for j, bj in enumerate(a.basis):
            if bj.source != bi.target:
                continue
            prod = a.mult(i, j)
            if not prod:
                continue
            block = (bi.source, bj.target)
            members = block_members[block]
            row = [f.zero()] * len(members)
            pos = {m: t for t, m in enumerate(members)}
            for k, c in prod.items():
                row[pos[k]] = c
            ideal_rows[block].append(row)
    new_labels = tuple(v for vi, v in enumerate(a.vertices) if vi not in eps)
    keep_v = [vi for vi in range(nv) if vi not in eps]
    old_to_newv = {vi: t for t, vi in enumerate(keep_v)}
    proj_cols: list[list] = [[] for _ in range(a.dim)]
    new_basis: list[BasisElement] = []
    sections = []
    block_offsets: dict[tuple[int, int], int] = {}
    for (u, v), members in sorted(block_members.items()):
        if u in eps or v in eps:
            continue
        W = Subspace.from_rows(f, len(members), ideal_rows[(u, v)])
        proj, sect, q = quotient_with_section(f, len(members), W)
        block_offsets[(u, v)] = len(new_basis)
        sections.append(((u, v), proj, sect))
        for t in range(q):
            rep = members[[c for c in range(len(members)) if c not in W.pivots][t]]
            b = a.basis[rep]
            new_basis.append(BasisElement(old_to_newv[u], old_to_newv[v], b.degree, b.path))
        for mi, m in enumerate(members):
            proj_cols[m].append(((u, v), proj.rows[mi]))
    dim_q = len(new_basis)
    transport = Matrix.zeros(f, a.dim, dim_q)
    for m in range(a.dim):
        for blk, row in proj_cols[m]:
            off = block_offsets[blk]
            for t, c in enumerate(row):
                transport.rows[m][off + t] = c
    sect_vectors: list[dict[int, object]] = []
    for (u, v), proj, sect in sections:
        members = block_members[(u, v)]
        for r in sect.rows:
            sect_vectors.append({members[c]: x for c, x in enumerate(r) if x != 0})

    def project(vec):
        out = {}
        for m, c in vec.items():
            for t, x in enumerate(transport.rows[m]):
                if x != 0:
                    v = f.add(out.get(t, f.zero()), f.mul(c, x))
                    if v == 0:
                        out.pop(t, None)
                    else:
                        out[t] = v
        return out

    table = [[project(a.mult_vec(sect_vectors[i], sect_vectors[j])) for j in range(dim_q)] for i in range(dim_q)]
    quot = Algebra(
        f, new_labels, tuple(new_basis), table,
        name=f"{a.name}.mod_ideal({','.join(a.vertices[v] for v in sorted(eps))})",
    )
    return quot, AlgebraMorphismData("quotient", a, quot, transport)


def ref_self_ext_check(src: Resolution, n_max: int):
    """The former `_self_ext_check`: (vanish, certified, witnesses, result)."""
    res = src.ext(src.module, n_max)
    wit = [Witness("E2", None, None, n, d) for n, d in enumerate(res.dims) if n >= 1 and d != 0]
    return not wit, res.all_higher_vanish_certified(1), wit, res


def ref_cross_vanishes(later: Resolution, earlier, n_max: int, i: int, j: int):
    """The former `_cross_vanishes`: (ok, certified, witnesses)."""
    witnesses = []
    h = hom_dim(later.module, earlier)
    if h != 0:
        witnesses.append(Witness("E1'", i, j, None, h))
    res = later.ext(earlier, n_max)
    for n, d in enumerate(res.dims):
        if n >= 1 and d != 0:
            witnesses.append(Witness("E2'", i, j, n, d))
    return not witnesses, res.all_higher_vanish_certified(1), witnesses


def ref_module_report(src: Resolution, n_max: int) -> ExceptionalReport:
    """The former `_module_report`, over `ref_self_ext_check`."""
    m = src.module
    end_dim, brick = brick_report(m)
    witnesses = [Witness("E1", None, None, None, end_dim)]
    vanish, certified, ext_wit, _ = ref_self_ext_check(src, n_max)
    witnesses += ext_wit
    verdict = brick and vanish
    if not verdict:
        certainty = CERTIFIED if (not brick or ext_wit) else up_to_bound(n_max)
    else:
        certainty = CERTIFIED if certified else up_to_bound(n_max)
    rep = ExceptionalReport("module", verdict, certainty, None, witnesses)
    if m.field.is_rational:
        rep.notes.append(_FIELD_NOTE)
    return rep


def ref_sequence_report(resolutions, n_max: int) -> ExceptionalReport:
    """The former `_sequence_report`, over `ref_module_report` and `ref_cross_vanishes`."""
    mods = [r.module for r in resolutions]
    if not mods:
        return ExceptionalReport("sequence", True, CERTIFIED, None, [])
    a = mods[0].algebra
    verdict, all_certified, witnesses = True, True, []
    for k, src in enumerate(resolutions):
        rep = ref_module_report(src, n_max)
        if not rep.verdict:
            verdict = False
            witnesses += [
                Witness(w.condition, k + 1, k + 1, w.n, w.dim) for w in rep.witnesses if w.condition != "E1" or w.dim != 1
            ]
        if rep.certainty != CERTIFIED:
            all_certified = False
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            ok, certified, wit = ref_cross_vanishes(resolutions[j], mods[i], n_max, i + 1, j + 1)
            if not ok:
                verdict = False
                witnesses += wit
            if not certified:
                all_certified = False
    certainty = CERTIFIED if (all_certified or not verdict) else up_to_bound(n_max)
    rep = ExceptionalReport("sequence", verdict, certainty, len(mods) == a.n_vertices, witnesses)
    if a.field.is_rational:
        rep.notes.append(_FIELD_NOTE)
    return rep


def ref_split_hypotheses(se, mods, n_max: int):
    """The former T3/T4 loop of `check_split_theorem`: (hom witnesses, ext
    witnesses, ext certified)."""
    resolutions = [Resolution.of(m) for m in mods]
    tq = [se.tensor_with_Q(m) for m in mods]
    hom_wit, ext_wit, ext_certified = [], [], True
    for i in range(len(mods)):
        for j in range(i, len(mods)):
            d = hom_dim(mods[j], tq[i])
            if d != 0:
                hom_wit.append(Witness("T3", i + 1, j + 1, None, d))
            res = resolutions[j].ext(tq[i], n_max)
            for n, dd in enumerate(res.dims):
                if n >= 1 and dd != 0:
                    ext_wit.append(Witness("T4", i + 1, j + 1, n, dd))
            if not res.all_higher_vanish_certified(1):
                ext_certified = False
    return hom_wit, ext_wit, ext_certified


# ---------------------------------------------------------------------------
# semibricks


@pytest.mark.parametrize("fix", FIXTURES)
def test_semibrick_report_matches_the_reference_predicate(fix):
    a = fixture_over(fix, None)
    pool = module_pool(a)
    rng = random.Random(fix)
    cases = [[m] for m in pool] + [rng.sample(pool, rng.randint(2, 4)) for _ in range(30)] + [[]]
    assert any(ref_is_semibrick(c) for c in cases if len(c) > 1)
    assert not all(ref_is_semibrick(c) for c in cases)
    for mods in cases:
        assert semibrick_report(mods).verdict == ref_is_semibrick(mods), [m.dims for m in mods]


# ---------------------------------------------------------------------------
# sub-basis algebras


def assert_same_algebra(got: Algebra, want: Algebra) -> None:
    assert got.fingerprint == want.fingerprint
    assert [(b.source, b.target, b.degree, b.path) for b in got.basis] == [
        (b.source, b.target, b.degree, b.path) for b in want.basis
    ]
    assert got.name == want.name
    assert got.quiver is want.quiver
    assert got.relations == want.relations
    # the same cells, in the same key order
    assert [[list(c.items()) for c in row] for row in got.table] == [[list(c.items()) for c in row] for row in want.table]


def assert_same_transport(got: AlgebraMorphismData, want: AlgebraMorphismData) -> None:
    assert got.kind == want.kind
    assert got.matrix.rows == want.matrix.rows
    assert (got.matrix.nrows, got.matrix.ncols) == (want.matrix.nrows, want.matrix.ncols)


@pytest.mark.parametrize("fld", list(FIELDS), ids=list(FIELDS))
@pytest.mark.parametrize("fix", FIXTURES)
def test_corner_and_quotient_match_the_references(fix, fld):
    """Every non-empty eps: basis, name, table, quiver, relations and transport."""
    a = fixture_over(fix, FIELDS[fld])
    for eps in subsets(a.vertices):
        for build, ref in (
            (corner_algebra, ref_corner_algebra),
            (quotient_by_idempotent_ideal, ref_quotient_by_idempotent_ideal),
        ):
            got, got_morph = build(a, eps)
            want, want_morph = ref(a, eps)
            assert_same_algebra(got, want)
            assert_same_transport(got_morph, want_morph)
            assert got_morph.source is (got if build is corner_algebra else a)
            assert not got_morph.verify()


@pytest.mark.parametrize("fld", list(FIELDS), ids=list(FIELDS))
@pytest.mark.parametrize("fix", FIXTURES)
def test_split_algebra_and_section_match_the_reference(fix, fld):
    """Every arrow of every fixture as kernel; a split that fails, fails."""
    r = fixture_over(fix, FIELDS[fld])
    built = 0
    for arrow in r.quiver.arrows:
        try:
            se = build_split_extension(r, [arrow.name])
        except SplitExtensionError:
            continue
        built += 1
        want, want_section = ref_split_algebra(se)
        assert_same_algebra(se.A, want)
        assert_same_transport(se.section, want_section)
        assert se.section.source is se.A and se.section.target is r
        assert not se.section.verify()
    assert built


# ---------------------------------------------------------------------------
# exceptionality pair checks


def random_sequences(algebra: Algebra, seed: int, count: int) -> list[list]:
    pool = module_pool(algebra)
    rng = random.Random(seed)
    return [rng.sample(pool, rng.randint(1, min(4, len(pool)))) for _ in range(count)]


@pytest.mark.parametrize("n_max", [24, 3])
@pytest.mark.parametrize("fix", FIXTURES)
def test_module_and_sequence_reports_match_the_references(fix, n_max):
    """The nine sequence files (over a42 and a3) and seeded random sequences."""
    a = fixture_over(fix, None)
    seqs = random_sequences(a, sum(map(ord, fix)) + n_max, 12)
    if fix in ("a42", "a3"):
        seqs += [bundled_sequence(row, a) for row in ROWS]
    verdicts = set()
    for mods in seqs:
        res = [Resolution.of(m) for m in mods]
        for src in res:
            assert _module_report(src, n_max).to_json_dict() == ref_module_report(src, n_max).to_json_dict()
        got = _sequence_report(res, n_max)
        assert got.to_json_dict() == ref_sequence_report(res, n_max).to_json_dict(), [m.dims for m in mods]
        verdicts.add((got.verdict, got.certainty))
    assert len(verdicts) > 1


@pytest.mark.parametrize("fix", FIXTURES)
def test_pair_graph_matches_the_reference(fix):
    """Every ordered pair of distinct F2 bricks, through the compatibility
    test of the `enumerate_ces` pair graph."""
    a = fixture_over(fix, F2)
    res = [Resolution.of(m) for m in enumerate_bricks(a, EnumerationConfig(field=F2)).items]
    for x, y in itertools.permutations(range(len(res)), 2):
        ok, certified, wit = ref_cross_vanishes(res[y], res[x].module, 24, 1, 2)
        got, got_certified = _vanishing(res[y], res[x].module, 24, "E1'", "E2'", 1, 2)
        assert (got, got_certified) == (wit, certified)
        assert ok == (not got)


SPLITS = (("a3", "alpha"), ("a3_ab", "alpha"), ("cycle3", "gamma"), ("cycle3_ab", "gamma"))


@pytest.mark.parametrize("n_max", [24, 3])
@pytest.mark.parametrize("fix, arrow", SPLITS)
def test_split_hypotheses_match_the_reference(fix, arrow, n_max):
    """Hypotheses (3) and (4): the nine sequence files over a3/alpha, and
    seeded random sequences over each split's A."""
    se = build_split_extension(fixture_over(fix, None), [arrow])
    seqs = random_sequences(se.A, sum(map(ord, fix)) + n_max, 10)
    if (fix, arrow) == ("a3", "alpha"):
        seqs += [bundled_sequence(row, se.A) for row in ROWS]
    holds = set()
    for mods in seqs:
        rep = check_split_theorem(se, mods, n_max)
        hom_wit, ext_wit, ext_certified = ref_split_hypotheses(se, mods, n_max)
        hyp3, hyp4 = rep.hypotheses[2], rep.hypotheses[3]
        assert (hyp3.holds, hyp3.certified, hyp3.witnesses) == (not hom_wit, True, hom_wit)
        assert (hyp4.holds, hyp4.certified, hyp4.witnesses) == (not ext_wit, ext_certified, ext_wit)
        holds.add((hyp3.holds, hyp4.holds))
    if (fix, arrow) == ("a3", "alpha"):
        assert (False, True) in holds and (True, True) in holds

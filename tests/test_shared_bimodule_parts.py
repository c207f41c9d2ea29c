"""Q and j^* come from the shared bimodule parts: `algebra_as_bimodule` with a
span, and `restrict_along_surjection` along the corner inclusion.  The
dedicated builders they replaced are kept here as differential references,
and so is the matrix-sum form of `restrict_along_surjection`."""

import itertools
import random
import re

import pytest
from test_memo_keys import SPLITS
from test_modules import conjugated_sum

from exrep.algebra import AlgebraMorphismData, build_algebra
from exrep.bimodules import Bimodule, BimoduleError, algebra_as_bimodule, restrict_along_surjection
from exrep.exceptional import _refield
from exrep.fileio import parse_algebra_file
from exrep.fields import F2, FieldSpec
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix
from exrep.modules import ModuleError, RightModule, make_module
from exrep.recollements import J_UPPER_STAR, build_recollement
from exrep.split_extensions import (
    HOM_UP,
    SPLIT_FUNCTORS,
    TENSOR_UP,
    SplitExtensionError,
    build_split_extension,
)

FIXTURES = ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab")
F3 = FieldSpec(3)


def ref_build_q_bimodule(se) -> Bimodule:
    """The kernel span as an (A,A)-bimodule inside R (the former
    `SplitExtension._build_q_bimodule`)."""
    r, a, f = se.R, se.A, se.R.field
    members: dict[tuple[int, int], list[int]] = {}
    for t in se.q_indices:
        b = r.basis[t]
        members.setdefault((b.source, b.target), []).append(t)
    pos = {t: k for mem in members.values() for k, t in enumerate(mem)}
    # A and R share vertex labels, in the same order
    dims = [[len(members.get((u, w), [])) for w in range(a.n_vertices)] for u in range(a.n_vertices)]
    left: dict[int, dict[int, Matrix]] = {}
    right: dict[int, dict[int, Matrix]] = {}
    for i in a.radical_indices:
        ai = a.basis[i]
        ri = se.section_indices[i]
        per_w = {}
        for w in range(a.n_vertices):
            src = members.get((ai.target, w), [])
            dst = members.get((ai.source, w), [])
            mat = Matrix.zeros(f, len(src), len(dst))
            for rr, t in enumerate(src):
                for k, c in r.mult(ri, t).items():
                    if k not in pos:
                        raise SplitExtensionError("kernel span is not a left ideal")
                    mat.rows[rr][pos[k]] = c
            per_w[w] = mat
        left[i] = per_w
        per_u = {}
        for u in range(a.n_vertices):
            src = members.get((u, ai.source), [])
            dst = members.get((u, ai.target), [])
            mat = Matrix.zeros(f, len(src), len(dst))
            for rr, t in enumerate(src):
                for k, c in r.mult(t, ri).items():
                    if k not in pos:
                        raise SplitExtensionError("kernel span is not a right ideal")
                    mat.rows[rr][pos[k]] = c
            per_u[u] = mat
        right[i] = per_u
    return Bimodule(a, a, dims, left, right, name="Q")


def ref_corner_restrict(rec, m: RightModule) -> RightModule:
    """(-)eps: keep the eps-vertex spaces and the corner actions (the former
    `Recollement._corner_restrict`)."""
    at = rec.Atilde
    dims = [m.dims[rec.A.vertex_index(v)] for v in at.vertices]
    action: dict[int, Matrix] = {}
    for i in at.radical_indices:
        # corner basis elements are basis elements of A
        a_idx = next(iter(rec.corner_incl.image_vec(i)))
        action[i] = m.action[a_idx]
    return RightModule(at, dims, action)


def _subsets(vertices):
    for k in range(1, len(vertices) + 1):
        yield from itertools.combinations(vertices, k)


def _specs(algebra):
    specs = [f"{kind}:{v}" for kind in ("simple", "proj", "inj") for v in algebra.vertices]
    return specs + ["thin:" + ",".join(sup) for sup in _subsets(algebra.vertices)]


def _modules(algebra):
    out = []
    for spec in _specs(algebra):
        try:
            out.append(make_module(algebra, spec))
        except ModuleError:
            continue
    return out


@pytest.mark.parametrize("fix,arrow", [("a3", "alpha"), ("a3", "beta"), ("cycle3", "gamma"), ("cycle3_ab", "gamma")])
def test_q_matches_the_dedicated_builder(fix, arrow):
    se = build_split_extension(bundled_algebra(fix), [arrow])
    ref = ref_build_q_bimodule(se)
    assert se.Q.dims == ref.dims
    assert se.Q.left.keys() == ref.left.keys() and se.Q.right.keys() == ref.right.keys()
    for i, per_w in ref.left.items():
        for w, mat in per_w.items():
            assert se.Q.left[i][w].rows == mat.rows, (i, w)
            assert (se.Q.left[i][w].nrows, se.Q.left[i][w].ncols) == (mat.nrows, mat.ncols)
    for j, per_u in ref.right.items():
        for u, mat in per_u.items():
            assert se.Q.right[j][u].rows == mat.rows, (j, u)
            assert (se.Q.right[j][u].nrows, se.Q.right[j][u].ncols) == (mat.nrows, mat.ncols)


@pytest.mark.parametrize("fix", FIXTURES)
def test_j_upper_star_matches_the_corner_restriction(fix):
    a = bundled_algebra(fix)
    mods = _modules(a)
    assert mods
    for eps in _subsets(a.vertices):
        rec = build_recollement(a, eps)
        for m in mods:
            got = rec.apply(J_UPPER_STAR, m)
            assert got.algebra is rec.Atilde
            assert got.fingerprint == ref_corner_restrict(rec, m).fingerprint, (eps, m.dims)


def test_j_upper_star_rejects_a_module_over_the_corner(a3):
    rec = build_recollement(a3, ("2", "3"))
    with pytest.raises(ModuleError, match=re.escape(f"over {rec.Atilde.name}, expected {a3.name}")):
        rec.apply(J_UPPER_STAR, make_module(rec.Atilde, "simple:2"))


@pytest.mark.parametrize("functor", SPLIT_FUNCTORS)
def test_split_functors_name_both_algebras_on_a_wrong_module(a3, functor):
    # each functor takes modules over one of R and A; hand it one over the other
    se = build_split_extension(a3, ["alpha"])
    wrong = se.R if functor in (TENSOR_UP, HOM_UP) else se.A
    right = se.A if wrong is se.R else se.R
    with pytest.raises(ModuleError, match=re.escape(f"over {wrong.name}, expected {right.name}")):
        se.apply(functor, make_module(wrong, "simple:1"))


def test_span_that_is_not_an_ideal_is_rejected(a3):
    # alpha alone is not an ideal: alpha.beta leaves its span
    alpha = a3.arrow_basis_index("alpha")
    with pytest.raises(BimoduleError, match="not a right ideal"):
        algebra_as_bimodule(a3, a3, a3, span=[alpha])



def ref_restrict_along_surjection(m: RightModule, morph) -> RightModule:
    """The former `restrict_along_surjection`: each action a zero matrix plus
    c rho(k) per image term, added as matrices."""
    src, tgt = morph.source, morph.target
    f = src.field
    tgt_index = {v: i for i, v in enumerate(tgt.vertices)}
    dims = [m.dims[tgt_index[v]] if v in tgt_index else 0 for v in src.vertices]
    action: dict[int, Matrix] = {}
    for i in src.radical_indices:
        b = src.basis[i]
        mat = Matrix.zeros(f, dims[b.source], dims[b.target])
        for k, c in morph.image_vec(i).items():
            mat = mat.add(m.rho(k).scale(c))
        action[i] = mat
    return RightModule(src, dims, action)


def _restriction_inputs(algebra, rng):
    """Simple, projective and injective modules (thin ones too where the
    algebra has a quiver), and a conjugated sum of two of them."""
    specs = [f"{kind}:{v}" for kind in ("simple", "proj", "inj") for v in algebra.vertices]
    if algebra.quiver is not None:
        specs += ["thin:" + ",".join(sup) for sup in _subsets(algebra.vertices)]
    specs = [s for s in specs if _builds(algebra, s)]
    mods = [make_module(algebra, s) for s in specs]
    if specs:
        mods.append(conjugated_sum(algebra, [specs[0], specs[-1]], rng))
    return mods


def _builds(algebra, spec) -> bool:
    try:
        make_module(algebra, spec)
    except ModuleError:
        return False
    return True


@pytest.mark.parametrize("fld", [None, F2, F3], ids=["fixture", "F2", "F3"])
@pytest.mark.parametrize("fix", FIXTURES)
def test_restriction_matches_the_matrix_sum_reference(fix, fld):
    """Along xi, pi and the corner inclusion, on every non-empty eps."""
    a = bundled_algebra(fix) if fld is None else _refield(bundled_algebra(fix), fld)
    rng = random.Random(fix)
    cases = []
    for name, arrow in SPLITS:
        if name == fix:
            se = build_split_extension(a, [arrow])
            cases += [(se.xi, m) for m in _restriction_inputs(se.A, rng)]
    for eps in _subsets(a.vertices):
        rec = build_recollement(a, eps)
        cases += [(rec.pi, x) for x in _restriction_inputs(rec.Abar, rng)]
        cases += [(rec.corner_incl, m) for m in _restriction_inputs(a, rng)]
    assert any(morph.kind == "quotient" for morph, _ in cases) and any(morph.kind == "corner" for morph, _ in cases)
    for morph, m in cases:
        got = restrict_along_surjection(m, morph)
        assert got.algebra is morph.source
        assert got.fingerprint == ref_restrict_along_surjection(m, morph).fingerprint, (morph.kind, m.dims)


def arrow_scaling(algebra, scales):
    """The algebra map that multiplies arrow k by scales[k]: a path's basis
    element goes to itself times the product of its arrows' scales (an
    algebra map whenever the relations are monomial)."""
    f = algebra.field
    mat = Matrix.zeros(f, algebra.dim, algebra.dim)
    for i, b in enumerate(algebra.basis):
        c = 1
        for arrow in b.path:
            c *= scales[arrow]
        mat.rows[i][i] = f.from_int(c)
    morph = AlgebraMorphismData("quotient", algebra, algebra, mat)
    assert not morph.verify()
    return morph


@pytest.mark.parametrize("fld", [None, F3], ids=["fixture", "F3"])
@pytest.mark.parametrize("fix", ("a3", "a3_ab", "cycle3_ab"))
def test_restriction_along_a_scaling_matches_the_reference(fix, fld):
    """Coefficients other than 1, whose products leave 0..p-1 over F3."""
    a = bundled_algebra(fix) if fld is None else _refield(bundled_algebra(fix), fld)
    morph = arrow_scaling(a, [2, 5, 4][: len(a.quiver.arrows)])
    rng = random.Random(fix)
    for m in _restriction_inputs(a, rng) + [conjugated_sum(a, ["proj:1", "inj:3"], rng)]:
        got = restrict_along_surjection(m, morph)
        assert got.fingerprint == ref_restrict_along_surjection(m, morph).fingerprint, m.dims


KRONECKER = """algebra kronecker
field {field}
vertices 1 2
arrow a 1 2
arrow b 1 2
end
"""


@pytest.mark.parametrize("field", ["Q", "F3"])
def test_restriction_along_a_shear_matches_the_reference(field):
    """a -> a + b, b -> 2b on the Kronecker algebra: an image with two terms."""
    name, quiver, relations, fld = parse_algebra_file(KRONECKER.format(field=field))
    k = build_algebra(quiver, relations, fld, name=name)
    a, b = k.arrow_basis_index("a"), k.arrow_basis_index("b")
    mat = Matrix.identity(fld, k.dim)
    mat.rows[a][b] = fld.one()
    mat.rows[b][b] = fld.from_int(2)
    morph = AlgebraMorphismData("quotient", k, k, mat)
    assert not morph.verify()
    rng = random.Random(field)
    for m in _restriction_inputs(k, rng) + [conjugated_sum(k, ["proj:1", "inj:2", "simple:1"], rng)]:
        got = restrict_along_surjection(m, morph)
        assert got.fingerprint == ref_restrict_along_surjection(m, morph).fingerprint, m.dims

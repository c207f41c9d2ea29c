"""Q and j^* come from the shared bimodule parts: `algebra_as_bimodule` with a
span, and `restrict_along_surjection` along the corner inclusion.  The
dedicated builders they replaced are kept here as differential references."""

import itertools
import re

import pytest

from exrep.bimodules import Bimodule, BimoduleError, algebra_as_bimodule
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


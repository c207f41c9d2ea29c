"""Differential tests: the bimodule functors built from the module layer
(`hom_from_bimodule` through `hom_basis` of each row, the forgetful functors
as direct sums of rows or columns) against a reference copy of the
hand-written versions they replaced, which solved their own intertwining
system over every radical element and assembled the forgetful modules block
by block.  Dimensions and action matrices must agree exactly."""

import itertools
import random

import pytest

from exrep.algebra import opposite_algebra
from exrep.bimodules import BimoduleError, hom_from_bimodule, left_module_over_op, right_module_of
from exrep.goldens import bundled_algebra
from exrep.linalg import Matrix, left_kernel, solve_right
from exrep.modules import ModuleError, RightModule, direct_sum, projective_module, simple_module, thin_module
from exrep.recollements import build_recollement
from exrep.split_extensions import build_split_extension

# ---------------------------------------------------------------------------
# reference functors


def ref_hom_from_bimodule(x, n):
    A, B = x.left_algebra, x.right_algebra
    f = x.field
    nu, nw = A.n_vertices, B.n_vertices
    bases, offsets_per_u, ambients = [], [], []
    for u in range(nu):
        offs, total = [], 0
        for w in range(nw):
            offs.append(total)
            total += x.dims[u][w] * n.dims[w]
        offsets_per_u.append(offs)
        ambients.append(total)
    for u in range(nu):
        total = ambients[u]
        if total == 0:
            bases.append([])
            continue
        n_eqs = sum(x.dims[u][B.basis[j].source] * n.dims[B.basis[j].target] for j in B.radical_indices)
        E = Matrix.zeros(f, total, n_eqs)
        eq = 0
        offs = offsets_per_u[u]
        for j in B.radical_indices:
            w, w2 = B.basis[j].source, B.basis[j].target
            rho_x, rho_n = x.right[j][u], n.action[j]
            for p in range(x.dims[u][w]):
                for q in range(n.dims[w2]):
                    for k in range(x.dims[u][w2]):
                        c = rho_x.rows[p][k]
                        if c != 0:
                            idx = offs[w2] + k * n.dims[w2] + q
                            E.rows[idx][eq] = f.add(E.rows[idx][eq], c)
                    for l in range(n.dims[w]):
                        c = rho_n.rows[l][q]
                        if c != 0:
                            idx = offs[w] + p * n.dims[w] + l
                            E.rows[idx][eq] = f.sub(E.rows[idx][eq], c)
                    eq += 1
        kernel = left_kernel(E)
        sols = []
        for row in kernel.basis.rows:
            mats = []
            for w in range(nw):
                mat = Matrix.zeros(f, x.dims[u][w], n.dims[w])
                for p in range(x.dims[u][w]):
                    for q in range(n.dims[w]):
                        mat.rows[p][q] = row[offs[w] + p * n.dims[w] + q]
                mats.append(mat)
            sols.append(mats)
        bases.append(sols)
    dims = [len(b) for b in bases]
    action = {}
    for i in A.radical_indices:
        u, u2 = A.basis[i].source, A.basis[i].target
        mat = Matrix.zeros(f, dims[u], dims[u2])
        for r, sol in enumerate(bases[u]):
            if dims[u2] == 0:
                continue
            moved = [x.left[i][w].mul(sol[w]) for w in range(nw)]
            flat = [e for w in range(nw) for row_ in moved[w].rows for e in row_]
            amb_rows = [[e for w in range(nw) for row_ in sol2[w].rows for e in row_] for sol2 in bases[u2]]
            sol_m = solve_right(Matrix(f, amb_rows, dims[u2], ambients[u2]), Matrix(f, [flat], 1, ambients[u2]))
            if sol_m is None:
                raise BimoduleError("hom action left the solution space")
            mat.rows[r] = sol_m[0].rows[0]
        action[i] = mat
    return RightModule(A, dims, action)


def ref_left_module_over_op(x):
    a = x.left_algebra
    opp, _ = opposite_algebra(a)
    nw = x.right_algebra.n_vertices
    offsets = [[sum(x.dims[u][:w]) for w in range(nw)] for u in range(a.n_vertices)]
    dims = [sum(row) for row in x.dims]
    action = {}
    for i in a.radical_indices:
        u, u2 = a.basis[i].source, a.basis[i].target
        mat = Matrix.zeros(a.field, dims[u2], dims[u])
        for w in range(nw):
            lam = x.left[i][w]
            for p in range(x.dims[u2][w]):
                for q in range(x.dims[u][w]):
                    mat.rows[offsets[u2][w] + p][offsets[u][w] + q] = lam.rows[p][q]
        action[i] = mat
    return RightModule(opp, dims, action)


def ref_right_module_of(x):
    b_alg = x.right_algebra
    nu = x.left_algebra.n_vertices
    offsets = [[sum(x.dims[v][w] for v in range(u)) for u in range(nu)] for w in range(b_alg.n_vertices)]
    dims = [sum(x.dims[u][w] for u in range(nu)) for w in range(b_alg.n_vertices)]
    action = {}
    for j in b_alg.radical_indices:
        w, w2 = b_alg.basis[j].source, b_alg.basis[j].target
        mat = Matrix.zeros(x.field, dims[w], dims[w2])
        for u in range(nu):
            rho = x.right[j][u]
            for p in range(x.dims[u][w]):
                for q in range(x.dims[u][w2]):
                    mat.rows[offsets[w][u] + p][offsets[w2][u] + q] = rho.rows[p][q]
        action[j] = mat
    return RightModule(b_alg, dims, action)


# ---------------------------------------------------------------------------
# inputs


def split_bimodules():
    out = []
    for name, arrow in (("a3", "alpha"), ("cycle3", "gamma"), ("cycle3_ab", "gamma")):
        se = build_split_extension(bundled_algebra(name), [arrow])
        for attr in ("R_as_A_R", "R_as_R_A", "A_as_R_A", "A_as_A_R", "Q"):
            out.append((f"{name}/{arrow}/{attr}", getattr(se, attr)))
    return out


def recollement_bimodules():
    out = []
    for name in ("a3", "a42", "cycle3_ab"):
        alg = bundled_algebra(name)
        for k in range(1, alg.n_vertices + 1):
            for eps in itertools.combinations(alg.vertices, k):
                rec = build_recollement(alg, eps)
                for attr in ("abar_A_Abar", "abar_Abar_A", "eps_A", "A_eps"):
                    out.append((f"{name}/{','.join(eps)}/{attr}", getattr(rec, attr)))
    return out


BIMODULES = split_bimodules() + recollement_bimodules()


def sample_modules(alg, rng):
    """Thin modules (simples where the algebra has no quiver) and two seeded
    direct sums of thin, simple and projective modules."""
    if alg.n_vertices == 0:
        return [RightModule(alg, [], {})]
    thins = []
    if alg.quiver is not None:
        for k in range(1, alg.n_vertices + 1):
            for sup in itertools.combinations(alg.vertices, k):
                try:
                    thins.append(thin_module(alg, sup))
                except ModuleError:
                    continue
    singles = thins or [simple_module(alg, v) for v in alg.vertices]
    pool = singles + [projective_module(alg, v) for v in alg.vertices]
    return singles + [direct_sum(rng.sample(pool, k=min(len(pool), rng.randint(2, 3)))) for _ in range(2)]


def same_module(got, want):
    assert got.algebra.same_as(want.algebra)
    assert got.dims == want.dims
    assert got.action == want.action


@pytest.mark.parametrize("label, x", BIMODULES, ids=[label for label, _ in BIMODULES])
def test_bimodule_functors_match_reference(label, x):
    same_module(left_module_over_op(x), ref_left_module_over_op(x))
    same_module(right_module_of(x), ref_right_module_of(x))
    for n in sample_modules(x.right_algebra, random.Random(label)):
        same_module(hom_from_bimodule(x, n), ref_hom_from_bimodule(x, n))

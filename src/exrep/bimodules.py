"""Bimodules and the functor calculus built from them.

An (A,B)-bimodule is bigraded by vertex pairs, with left action matrices for
the radical basis of A and right action matrices for the radical basis of B;
the two actions commute.  Each row e_u X is a right B-module and each column
X e_w a right module over the opposite of A, so the module layer does the
rest: the axioms are the rows' and columns' module axioms plus "left
multiplication is a map of rows" (`ModuleMap.commutes`), Hom out of X is read
from the verified `_hom_kernel` rows of each row, and forgetting one side is a
direct sum of rows or of columns.  Tensoring a right A-module with an
(A,B)-bimodule and taking right-B-linear maps out of one are the two
workhorses: together with restriction along an algebra map they realize
every functor used by the split-extension and recollement layers.

Conventions: for a left action by a: u -> u' the matrix lam(a)[w] sends the
block X_{u',w} to X_{u,w} (row convention, so x.lam is "multiply by a on the
left"); for a right action by b: w -> w' the matrix rho(b)[u] sends X_{u,w}
to X_{u,w'}.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .algebra import Algebra, AlgebraMorphismData, opposite_algebra
from .linalg import Matrix, Subspace, _canon_row, mul_rows, quotient_with_section, solve_right
from .modules import ModuleError, ModuleMap, RightModule, _hom_kernel, _rows_through, direct_sum, zero_module


class BimoduleError(ValueError):
    pass


class Bimodule:
    def __init__(
        self,
        left_algebra: Algebra,
        right_algebra: Algebra,
        dims: list[list[int]],
        left: dict[int, dict[int, Matrix]],
        right: dict[int, dict[int, Matrix]],
        name: str = "bimodule",
    ):
        if left_algebra.field != right_algebra.field:
            raise BimoduleError("bimodule algebras over different fields")
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dims = [list(row) for row in dims]
        self.name = name
        f = left_algebra.field
        nu, nw = left_algebra.n_vertices, right_algebra.n_vertices
        if len(self.dims) != nu or any(len(r) != nw for r in self.dims):
            raise BimoduleError("dims grid has the wrong shape")
        self.left: dict[int, dict[int, Matrix]] = {}
        for i in left_algebra.radical_indices:
            b = left_algebra.basis[i]
            per_w = {}
            for w in range(nw):
                m = left.get(i, {}).get(w)
                if m is None:
                    m = Matrix.zeros(f, self.dims[b.target][w], self.dims[b.source][w])
                if (m.nrows, m.ncols) != (self.dims[b.target][w], self.dims[b.source][w]):
                    raise BimoduleError(f"left action of {left_algebra.basis_label(i)} has wrong shape at column {w}")
                per_w[w] = m
            self.left[i] = per_w
        self.right: dict[int, dict[int, Matrix]] = {}
        for j in right_algebra.radical_indices:
            b = right_algebra.basis[j]
            per_u = {}
            for u in range(nu):
                m = right.get(j, {}).get(u)
                if m is None:
                    m = Matrix.zeros(f, self.dims[u][b.source], self.dims[u][b.target])
                if (m.nrows, m.ncols) != (self.dims[u][b.source], self.dims[u][b.target]):
                    raise BimoduleError(f"right action of {right_algebra.basis_label(j)} has wrong shape at row {u}")
                per_u[u] = m
            self.right[j] = per_u
        bad = self.violations()
        if bad:
            raise BimoduleError("bimodule axioms fail: " + bad[0])

    @property
    def field(self):
        return self.left_algebra.field

    @cached_property
    def rows(self) -> list[RightModule]:
        """e_u X for each left vertex u, as a right module over the right algebra."""
        return [
            RightModule(self.right_algebra, dims, {j: per_u[u] for j, per_u in self.right.items()}, check=False)
            for u, dims in enumerate(self.dims)
        ]

    @cached_property
    def columns(self) -> list[RightModule]:
        """X e_w for each right vertex w, as a right module over the opposite
        of the left algebra (a: u -> u2 acts there from u2 to u)."""
        opp, _ = opposite_algebra(self.left_algebra)
        return [
            RightModule(opp, [row[w] for row in self.dims], {i: per_w[w] for i, per_w in self.left.items()}, check=False)
            for w in range(self.right_algebra.n_vertices)
        ]

    def left_map(self, i: int) -> ModuleMap:
        """Left multiplication by radical element i (u -> u2): e_u2 X -> e_u X."""
        a = self.left_algebra.basis[i]
        mats = [self.left[i][w] for w in range(self.right_algebra.n_vertices)]
        return ModuleMap(self.rows[a.target], self.rows[a.source], mats, check=False)

    def violations(self) -> list[str]:
        """Right multiplicativity per row, left multiplicativity per column
        (the module axiom over the opposite algebra), and commuting actions."""
        out = [f"row {u}: {bad}" for u, row in enumerate(self.rows) for bad in row.violations()]
        out += [f"column {w}: {bad}" for w, col in enumerate(self.columns) for bad in col.violations()]
        for i in self.left_algebra.radical_indices:
            if not self.left_map(i).commutes():
                out.append(f"actions do not commute: left {self.left_algebra.basis_label(i)}")
        return out

    def __repr__(self):
        return f"Bimodule({self.name}: {self.left_algebra.name} x {self.right_algebra.name})"


# ---------------------------------------------------------------------------
# standard constructions


def algebra_as_bimodule(
    carrier: Algebra,
    left_algebra: Algebra,
    right_algebra: Algebra,
    left_transport: AlgebraMorphismData | None = None,
    right_transport: AlgebraMorphismData | None = None,
    span: list[int] | None = None,
    name: str | None = None,
) -> Bimodule:
    """The carrier algebra, or the span of some of its basis elements, as an
    (L, R)-bimodule.

    Left/right transports send basis elements of the acting algebras into the
    carrier (identity if omitted, for the carrier acting on itself); acting
    vertices match carrier vertices by label.  Actions are carrier
    multiplication after transport.  `span` lists the carrier basis indices
    that carry the bimodule (all of them if omitted); it must be a two-sided
    ideal for the transported actions, and a product that leaves it raises
    BimoduleError.
    """
    f = carrier.field

    def _vmap(alg: Algebra) -> dict[int, int]:
        return {vi: carrier.vertex_index(v) for vi, v in enumerate(alg.vertices) if v in carrier.vertices}

    lmap = _vmap(left_algebra)
    rmap = _vmap(right_algebra)
    members: dict[tuple[int, int], list[int]] = {}
    for t in range(carrier.dim) if span is None else span:
        b = carrier.basis[t]
        members.setdefault((b.source, b.target), []).append(t)
    pos = {t: k for mem in members.values() for k, t in enumerate(mem)}

    def block(u: int, w: int) -> list[int]:
        if u not in lmap or w not in rmap:
            return []
        return members.get((lmap[u], rmap[w]), [])

    dims = [[len(block(u, w)) for w in range(right_algebra.n_vertices)] for u in range(left_algebra.n_vertices)]

    def actions(alg: Algebra, transport: AlgebraMorphismData | None, side: str, n_other: int, blocks, product):
        out: dict[int, dict[int, Matrix]] = {}
        for i in alg.radical_indices:
            vec = {i: f.one()} if transport is None else transport.image_vec(i)
            per = {}
            for z in range(n_other):
                src_block, dst_block = blocks(alg.basis[i], z)
                m = Matrix.zeros(f, len(src_block), len(dst_block))
                for r, t in enumerate(src_block):
                    for k, c in product(vec, {t: f.one()}).items():
                        if k not in pos:
                            raise BimoduleError(f"span is not a {side} ideal: {carrier.basis_label(k)} leaves it")
                        m.rows[r][pos[k]] = c
                per[z] = m
            out[i] = per
        return out

    left = actions(left_algebra, left_transport, "left", right_algebra.n_vertices,
                   lambda a, w: (block(a.target, w), block(a.source, w)), carrier.mult_vec)
    right = actions(right_algebra, right_transport, "right", left_algebra.n_vertices,
                    lambda b, u: (block(u, b.source), block(u, b.target)), lambda vec, t: carrier.mult_vec(t, vec))
    return Bimodule(
        left_algebra,
        right_algebra,
        dims,
        left,
        right,
        name=name or f"{left_algebra.name}|{carrier.name}|{right_algebra.name}",
    )


# ---------------------------------------------------------------------------
# functors


class TensorQuotient(NamedTuple):
    """M tensor_A X as a quotient of its ambient space, per B-vertex w: the
    module, the projection of each quotient, the free (non-pivot) ambient
    indices that its canonical section picks, the offset of each block
    M_v (x) X_{v,w} in the ambient space, and the ambient dimension."""

    module: RightModule
    projs: list[Matrix]
    free: list[set[int]]
    offsets: list[list[int]]
    ambient_dims: list[int]


def tensor_quotient(m: RightModule, x: Bimodule) -> TensorQuotient:
    """The quotient data behind M tensor_A X (functoriality needs all of it).

    The ambient space at w is dim M_v copies of each X_{v,w}: index (v, p, t)
    is basis vector t of copy p.  Balancing relations are written only for
    the generators of the radical: a relation is linear in a, and the
    relation for a.b at (m, x) is the relation for b at (m.a, x) plus the
    relation for a at (m, b.x), so the generators span every relation (rad is
    spanned by their products).  b: w -> w2 in B sends free index (v, p, t)
    to row t of rho_X(b) at v times the projection rows of copy (v, p) at w2.
    """
    A, B = x.left_algebra, x.right_algebra
    if not m.algebra.same_as(A):
        raise ModuleError(f"tensor: module is over {m.algebra.name}, expected {A.name}")
    f = x.field
    nv, nw = A.n_vertices, B.n_vertices
    offsets: list[list[int]] = []
    amb: list[int] = []
    for w in range(nw):
        offs = []
        total = 0
        for v in range(nv):
            offs.append(total)
            total += m.dims[v] * x.dims[v][w]
        offsets.append(offs)
        amb.append(total)
    prime = f.p
    projs, free, dims = [], [], []
    for w in range(nw):
        rows = []
        for i in A.radical_generators:
            a = A.basis[i]
            v, v2 = a.source, a.target  # a: v -> v2
            act = m.action[i].rows      # M_v -> M_v2
            lam = x.left[i][w].rows     # X_{v2,w} -> X_{v,w}
            d, d2 = x.dims[v][w], x.dims[v2][w]
            o, o2 = offsets[w][v], offsets[w][v2]
            for p in range(m.dims[v]):
                for t in range(d2):
                    row = [0] * amb[w]
                    for k, c in enumerate(act[p]):
                        if c:
                            row[o2 + k * d2 + t] += c
                    for s, c in enumerate(lam[t], o + p * d):
                        if c:
                            row[s] -= c
                    if prime is not None:
                        row = [e % prime for e in row]
                    elif v == v2:  # only a loop can put both terms in one entry
                        row = _canon_row(row)
                    if any(row):
                        rows.append(row)
        relations = Subspace.from_rows(f, amb[w], rows)
        proj, _, q = quotient_with_section(f, amb[w], relations)
        projs.append(proj)
        free.append(set(range(amb[w])).difference(relations.pivots))
        dims.append(q)
    action: dict[int, Matrix] = {}
    for j in B.radical_indices:
        w, w2 = B.basis[j].source, B.basis[j].target
        rows = []
        for v in range(nv):
            d, d2 = x.dims[v][w], x.dims[v][w2]
            for p in range(m.dims[v]):
                o, o2 = offsets[w][v] + p * d, offsets[w2][v] + p * d2
                picked = [r for t, r in enumerate(x.right[j][v].rows) if o + t in free[w]]
                if picked:
                    rows += mul_rows(f.p, picked, projs[w2].rows[o2 : o2 + d2], dims[w2])
        action[j] = Matrix(f, rows, dims[w], dims[w2])
    return TensorQuotient(RightModule(B, dims, action), projs, free, offsets, amb)


def tensor_with_bimodule(m: RightModule, x: Bimodule) -> RightModule:
    """M tensor_A X for M a right A-module and X an (A,B)-bimodule.

    The space over a B-vertex w is (direct sum over v of M_v (x) X_{v,w})
    modulo the balancing relations (m.a)(x)x - m(x)(a.x) for radical a; the
    right B-action is induced through the canonical section of the quotient.
    """
    return tensor_quotient(m, x).module


def tensor_with_bimodule_map(
    fmap: ModuleMap, x: Bimodule, source: TensorQuotient | None = None, target: TensorQuotient | None = None
) -> ModuleMap:
    """Functoriality of - tensor X: the induced map between the tensors.

    F (x) id sends free source index (v, p, t) at w to sum_k F_v[p][k] times
    the target projection row of (v, k, t).  `source` and `target` are the
    `tensor_quotient`s of fmap's source and target when the caller already
    holds them; missing ones are computed.
    """
    A, B = x.left_algebra, x.right_algebra
    f = x.field
    if source is None:
        source = tensor_quotient(fmap.source, x)
    if target is None:
        target = tensor_quotient(fmap.target, x)
    mats = []
    for w in range(B.n_vertices):
        proj, q = target.projs[w].rows, target.module.dims[w]
        rows = []
        for v in range(A.n_vertices):
            d, F = x.dims[v][w], fmap.mats[v].rows
            o, o2 = source.offsets[w][v], target.offsets[w][v]
            end = o2 + fmap.target.dims[v] * d
            # by_t[t][p]: row p of F_v times the target rows (v, k, t), k = 0, 1, ..
            by_t = [mul_rows(f.p, F, proj[o2 + t : end : d], q) for t in range(d)]
            rows += [by_t[t][p] for p in range(len(F)) for t in range(d) if o + p * d + t in source.free[w]]
        mats.append(Matrix(f, rows, source.module.dims[w], q))
    return ModuleMap(source.module, target.module, mats)


def hom_from_bimodule(x: Bimodule, n: RightModule) -> RightModule:
    """Hom_B(X, N) as a right A-module, for X an (A,B)-bimodule and N over B.

    The space over an A-vertex u is Hom_B(e_u X, N), the verified kernel
    rows of `_hom_kernel` for the row e_u X.  The right A-action is
    (h.a)_w = lam(a)[w].h_w for a: u -> u2, computed for all rows at once
    (per right vertex w one product of lam(a)[w] with the w-blocks side by
    side) and solved against the rows of Hom_B(e_u2 X, N).
    """
    A, B = x.left_algebra, x.right_algebra
    if not n.algebra.same_as(B):
        raise ModuleError(f"hom: module is over {n.algebra.name}, expected {B.name}")
    f = x.field
    kernels = [_hom_kernel(row, n) for row in x.rows]
    dims = [len(rows) for _, rows in kernels]
    action: dict[int, Matrix] = {}
    for i in A.radical_indices:
        a = A.basis[i]
        u, u2 = a.source, a.target
        offsets, rows = kernels[u]
        if not rows:
            action[i] = Matrix.zeros(f, 0, dims[u2])
            continue
        moved = _rows_through(f.p, x.left[i], rows, offsets, n.dims)
        width = sum(d * e for d, e in zip(x.dims[u2], n.dims))
        target = Matrix._adopt(f, kernels[u2][1], dims[u2], width)
        sol = solve_right(target, Matrix(f, moved, len(rows), width))
        if sol is None:
            raise BimoduleError("hom action left the solution space (internal error)")
        action[i] = sol[0]
    return RightModule(A, dims, action)


def left_module_over_op(x: Bimodule) -> RightModule:
    """Forget the right action: the left structure as a right module over the
    opposite of the left algebra (the direct sum of the columns)."""
    return direct_sum(x.columns) if x.columns else zero_module(opposite_algebra(x.left_algebra)[0])


def right_module_of(x: Bimodule) -> RightModule:
    """Forget the left action: the underlying right module over the right
    algebra (the direct sum of the rows)."""
    return direct_sum(x.rows) if x.rows else zero_module(x.right_algebra)


def restrict_along_surjection(m: RightModule, morph: AlgebraMorphismData) -> RightModule:
    """Pull a module over the target of an algebra map back to the source.

    The map may be any algebra map that matches vertices by label: the
    quotient maps xi and pi (whose kernels act as zero) or a corner inclusion
    (whose source vertices are some of the target's, so restricting keeps
    their spaces).  Source basis elements act as their images; a source
    vertex missing from the target carries the zero space.
    """
    src, tgt = morph.source, morph.target
    if not m.algebra.same_as(tgt):
        raise ModuleError(f"restriction: module is over {m.algebra.name}, expected {tgt.name}")
    f = src.field
    p = f.p
    tgt_index = {v: i for i, v in enumerate(tgt.vertices)}
    dims = [m.dims[tgt_index[v]] if v in tgt_index else 0 for v in src.vertices]
    action: dict[int, Matrix] = {}
    for i in src.radical_indices:
        b = src.basis[i]
        # sum c rho(k) over the image terms, accumulated in place on plain
        # rows; an algebra map sends the radical into the radical, so every
        # k is a radical basis element
        rows = [[0] * dims[b.target] for _ in range(dims[b.source])]
        for k, c in morph.image_vec(i).items():
            for row, rk in zip(rows, m.action[k].rows):
                for s, y in enumerate(rk):
                    if y:
                        row[s] += c * y
        if p is not None:
            rows = [[x % p for x in row] for row in rows]
        action[i] = Matrix(f, rows, dims[b.source], dims[b.target])
    return RightModule(src, dims, action)

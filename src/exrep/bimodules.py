"""Bimodules and the functor calculus built from them.

An (A,B)-bimodule is bigraded by vertex pairs, with left action matrices for
the radical basis of A and right action matrices for the radical basis of B;
the two actions commute.  Each row e_u X is a right B-module and each column
X e_w a right module over the opposite of A, so the module layer does the
rest: the axioms are the rows' and columns' module axioms plus "left
multiplication is a map of rows" (`ModuleMap.commutes`), Hom out of X is
`hom_basis` row by row, and forgetting one side is a direct sum of rows or of
columns.  Tensoring a right A-module with an (A,B)-bimodule and taking
right-B-linear maps out of one are the two workhorses: together with
restriction along an algebra surjection they realize every functor used by the
split-extension and recollement layers.

Conventions: for a left action by a: u -> u' the matrix lam(a)[w] sends the
block X_{u',w} to X_{u,w} (row convention, so x.lam is "multiply by a on the
left"); for a right action by b: w -> w' the matrix rho(b)[u] sends X_{u,w}
to X_{u,w'}.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .algebra import Algebra, AlgebraMorphismData, opposite_algebra
from .linalg import Matrix, Subspace, quotient_with_section, solve_right
from .modules import ModuleError, ModuleMap, RightModule, direct_sum, hom_basis, zero_module


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
    left_vertex_map: dict[int, int] | None = None,
    right_vertex_map: dict[int, int] | None = None,
    name: str | None = None,
) -> Bimodule:
    """The carrier algebra as an (L, R)-bimodule.

    Left/right transports send basis elements of the acting algebras into the
    carrier (identity if omitted, for the carrier acting on itself); vertex
    maps send acting-algebra vertices to carrier vertices (label match if
    omitted).  Actions are carrier multiplication after transport.
    """
    f = carrier.field

    def _vmap(alg: Algebra, given) -> dict[int, int]:
        if given is not None:
            return given
        return {vi: carrier.vertex_index(v) for vi, v in enumerate(alg.vertices) if v in carrier.vertices}

    lmap = _vmap(left_algebra, left_vertex_map)
    rmap = _vmap(right_algebra, right_vertex_map)
    members: dict[tuple[int, int], list[int]] = {}
    for t, b in enumerate(carrier.basis):
        members.setdefault((b.source, b.target), []).append(t)
    pos = {t: k for mem in members.values() for k, t in enumerate(mem)}

    def block(u: int, w: int) -> list[int]:
        if u not in lmap or w not in rmap:
            return []
        return members.get((lmap[u], rmap[w]), [])

    dims = [[len(block(u, w)) for w in range(right_algebra.n_vertices)] for u in range(left_algebra.n_vertices)]

    def transported(alg: Algebra, transport: AlgebraMorphismData | None, i: int) -> dict[int, object]:
        if transport is None:
            return {i: f.one()}
        return transport.image_vec(i)

    left: dict[int, dict[int, Matrix]] = {}
    for i in left_algebra.radical_indices:
        a = left_algebra.basis[i]
        vec = transported(left_algebra, left_transport, i)
        per_w = {}
        for w in range(right_algebra.n_vertices):
            src_block = block(a.target, w)
            dst_block = block(a.source, w)
            m = Matrix.zeros(f, len(src_block), len(dst_block))
            for r, t in enumerate(src_block):
                prod = carrier.mult_vec(vec, {t: f.one()})
                for k, c in prod.items():
                    m.rows[r][pos[k]] = c
            per_w[w] = m
        left[i] = per_w
    right: dict[int, dict[int, Matrix]] = {}
    for j in right_algebra.radical_indices:
        b = right_algebra.basis[j]
        vec = transported(right_algebra, right_transport, j)
        per_u = {}
        for u in range(left_algebra.n_vertices):
            src_block = block(u, b.source)
            dst_block = block(u, b.target)
            m = Matrix.zeros(f, len(src_block), len(dst_block))
            for r, t in enumerate(src_block):
                prod = carrier.mult_vec({t: f.one()}, vec)
                for k, c in prod.items():
                    m.rows[r][pos[k]] = c
            per_u[u] = m
        right[j] = per_u
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
    module, the projection and section of each quotient, the offset of each
    block M_v (x) X_{v,w} in the ambient space, and the ambient dimension."""

    module: RightModule
    projs: list[Matrix]
    sects: list[Matrix]
    offsets: list[list[int]]
    ambient_dims: list[int]


def tensor_quotient(m: RightModule, x: Bimodule) -> TensorQuotient:
    """The quotient data behind M tensor_A X (functoriality needs all of it).

    The ambient right B-module is the direct sum of dim M_v copies of e_v X.
    Balancing relations are written only for the generators of the radical:
    a relation is linear in a, and the relation for a.b at (m, x) is the
    relation for b at (m.a, x) plus the relation for a at (m, b.x), so the
    generators span every relation (rad is spanned by their products).
    """
    A, B = x.left_algebra, x.right_algebra
    if not m.algebra.same_as(A):
        raise ModuleError("tensor: module is not over the bimodule's left algebra")
    f = x.field
    nv, nw = A.n_vertices, B.n_vertices
    copies = [x.rows[v] for v in range(nv) for _ in range(m.dims[v])]
    ambient = direct_sum(copies) if copies else zero_module(B)
    amb = list(ambient.dims)
    offsets: list[list[int]] = []
    for w in range(nw):
        offs = []
        total = 0
        for v in range(nv):
            offs.append(total)
            total += m.dims[v] * x.dims[v][w]
        offsets.append(offs)
    projs, sects, dims = [], [], []
    for w in range(nw):
        rows = []
        for i in A.radical_generators:
            a = A.basis[i]
            v, v2 = a.source, a.target  # a: v -> v2
            act = m.action[i]           # M_v -> M_v2
            lam = x.left[i][w]          # X_{v2,w} -> X_{v,w}
            for p in range(m.dims[v]):
                for t in range(x.dims[v2][w]):
                    row = [f.zero()] * amb[w]
                    for k in range(m.dims[v2]):
                        c = act.rows[p][k]
                        if c != 0:
                            row[offsets[w][v2] + k * x.dims[v2][w] + t] = f.add(
                                row[offsets[w][v2] + k * x.dims[v2][w] + t], c
                            )
                    for s in range(x.dims[v][w]):
                        c = lam.rows[t][s]
                        if c != 0:
                            row[offsets[w][v] + p * x.dims[v][w] + s] = f.sub(
                                row[offsets[w][v] + p * x.dims[v][w] + s], c
                            )
                    if any(e != 0 for e in row):
                        rows.append(row)
        p, s, q = quotient_with_section(f, amb[w], Subspace.from_rows(f, amb[w], rows))
        projs.append(p)
        sects.append(s)
        dims.append(q)
    action: dict[int, Matrix] = {}
    for j in B.radical_indices:
        b = B.basis[j]
        action[j] = sects[b.source].mul(ambient.action[j]).mul(projs[b.target])
    return TensorQuotient(RightModule(B, dims, action), projs, sects, offsets, amb)


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

    `source` and `target` are the `tensor_quotient`s of fmap's source and
    target when the caller already holds them; missing ones are computed.
    """
    A, B = x.left_algebra, x.right_algebra
    f = x.field
    if source is None:
        source = tensor_quotient(fmap.source, x)
    if target is None:
        target = tensor_quotient(fmap.target, x)
    src_mod, _, src_sects, src_off, src_amb = source
    tgt_mod, tgt_projs, _, tgt_off, tgt_amb = target
    mats = []
    for w in range(B.n_vertices):
        big = Matrix.zeros(f, src_amb[w], tgt_amb[w])
        for v in range(A.n_vertices):
            F = fmap.mats[v]
            for p in range(fmap.source.dims[v]):
                for t in range(x.dims[v][w]):
                    src_idx = src_off[w][v] + p * x.dims[v][w] + t
                    for k in range(fmap.target.dims[v]):
                        c = F.rows[p][k]
                        if c != 0:
                            big.rows[src_idx][tgt_off[w][v] + k * x.dims[v][w] + t] = c
        mats.append(src_sects[w].mul(big).mul(tgt_projs[w]))
    return ModuleMap(src_mod, tgt_mod, mats)


def hom_from_bimodule(x: Bimodule, n: RightModule) -> RightModule:
    """Hom_B(X, N) as a right A-module, for X an (A,B)-bimodule and N over B.

    The space over an A-vertex u is Hom_B(e_u X, N) (`hom_basis` of the row);
    the right A-action is (f.a)(x) = f(a.x), read off by solving the
    precomposed basis maps against the target row's basis.
    """
    A, B = x.left_algebra, x.right_algebra
    if not n.algebra.same_as(B):
        raise ModuleError("hom: module is not over the bimodule's right algebra")
    f = x.field
    bases = [hom_basis(row, n) for row in x.rows]
    dims = [len(basis) for basis in bases]
    action: dict[int, Matrix] = {}
    for i in A.radical_indices:
        a = A.basis[i]
        u, u2 = a.source, a.target
        lam = x.left_map(i)
        width = sum(d * e for d, e in zip(x.rows[u2].dims, n.dims))
        target = Matrix(f, [h.flatten() for h in bases[u2]], dims[u2], width)
        moved = Matrix(f, [lam.compose(h).flatten() for h in bases[u]], dims[u], width)
        sol = solve_right(target, moved)
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
    """Pull a module over the target of an algebra surjection back to the source.

    Source basis elements act as their images; the kernel acts as zero.
    Vertices of the target must be a (label-preserving) subset of the source's.
    """
    src, tgt = morph.source, morph.target
    if not m.algebra.same_as(tgt):
        raise ModuleError("restriction: module is not over the morphism target")
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

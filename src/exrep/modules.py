"""Right modules over structure-constant algebras.

A module stores one space per vertex and one action matrix per degree->=1
basis element of the algebra; the constructor always re-checks full
multiplicativity, so every RightModule in circulation is a verified
representation.  On top of that sit Hom spaces, endomorphism/brick data,
isomorphism testing, projective covers, minimal resolutions with periodicity
certificates, and Ext dimensions.

Hom(M, N) is solved exactly as one linear system (`_hom_kernel`), whose
kernel rows are verified on every radical basis element in one batched check
before any reader sees them: `hom_dim`, the brick test and the Hom complex
behind Ext count or multiply those rows directly, and `hom_basis` cuts them
into `ModuleMap`s without checking each map again.  An open scope solves
each kernel, cover, syzygy and rank once (`exrep.scope`).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, opposite_algebra
from .fields import FieldSpec
from .linalg import (
    Matrix,
    Subspace,
    block_diag,
    left_kernel,
    matrix_rank,
    mul_rows,
    null_space,
    quotient_with_section,
    solve_right,
)
from .scope import scoped


class ModuleError(ValueError):
    pass


class RightModule:
    def __init__(self, algebra: Algebra, dims, action: dict[int, Matrix], check: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.n_vertices:
            raise ModuleError(f"expected {algebra.n_vertices} vertex dimensions, got {len(self.dims)}")
        if any(d < 0 for d in self.dims):
            raise ModuleError("negative vertex dimension")
        self.action: dict[int, Matrix] = {}
        for i in algebra.radical_indices:
            b = algebra.basis[i]
            m = action.get(i)
            if m is None:
                m = Matrix.zeros(algebra.field, self.dims[b.source], self.dims[b.target])
            if (m.nrows, m.ncols) != (self.dims[b.source], self.dims[b.target]):
                raise ModuleError(
                    f"action of {algebra.basis_label(i)} should be "
                    f"{self.dims[b.source]}x{self.dims[b.target]}, got {m.nrows}x{m.ncols}"
                )
            self.action[i] = m
        if check:
            bad = self.violations()
            if bad:
                raise ModuleError("module axioms fail: " + bad[0])

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim_total(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.dim_total == 0

    def rho(self, i: int) -> Matrix:
        """Action matrix of any basis element (identity block for idempotents)."""
        b = self.algebra.basis[i]
        if b.degree == 0:
            return Matrix.identity(self.field, self.dims[b.source])
        return self.action[i]

    def violations(self) -> list[str]:
        """All failures of rho(b).rho(b') = sum c_k rho(b_k) on composable pairs.

        Both sides are built as plain rows: the sum accumulates c_k rho(b_k)
        in place, c_k on the diagonal for an idempotent b_k.
        """
        a = self.algebra
        p = self.field.p
        out = []
        for i in a.radical_indices:
            bi = a.basis[i]
            rows_i = self.action[i].rows
            for j in a.radical_indices:
                bj = a.basis[j]
                if bi.target != bj.source:
                    continue
                width = self.dims[bj.target]
                lhs = mul_rows(p, rows_i, self.action[j].rows, width)
                rhs = [[0] * width for _ in range(self.dims[bi.source])]
                for k, c in a.mult(i, j).items():
                    if a.basis[k].degree == 0:
                        for r, row in enumerate(rhs):
                            row[r] += c
                        continue
                    for row, rk in zip(rhs, self.action[k].rows):
                        for s, y in enumerate(rk):
                            if y:
                                row[s] += c * y
                if p is not None:
                    rhs = [[x % p for x in row] for row in rhs]
                if lhs != rhs:
                    out.append(f"pair ({a.basis_label(i)}, {a.basis_label(j)})")
        return out

    @cached_property
    def fingerprint(self):
        return (
            self.algebra.fingerprint,
            self.dims,
            tuple((i, self.action[i].key()) for i in self.algebra.radical_indices),
        )

    @cached_property
    def memo_key(self):
        """The fingerprint with the algebra object (hashed by identity) in place
        of its table, for memos: tuples do not cache their hash.  Equal keys
        mean equal modules; over an equal but distinct algebra a memo misses."""
        _, dims, actions = self.fingerprint
        return (self.algebra, dims, actions)

    def __repr__(self):
        return f"RightModule(dims={self.dims} over {self.algebra.name})"


class ModuleMap:
    """A homomorphism of right modules, one matrix per vertex.

    Verified on construction (`commutes`) unless the caller passes
    check=False because the matrices are a map by construction, as for
    compositions, identities and `hom_basis` (whose rows `_hom_kernel` has
    verified)."""

    def __init__(self, source: RightModule, target: RightModule, mats: list[Matrix], check: bool = True):
        if not source.algebra.same_as(target.algebra):
            raise ModuleError("map between modules over different algebras")
        self.source = source
        self.target = target
        self.mats = list(mats)
        for v, m in enumerate(self.mats):
            if (m.nrows, m.ncols) != (source.dims[v], target.dims[v]):
                raise ModuleError(f"map block at vertex {v} has wrong shape")
        if check and not self.commutes():
            raise ModuleError("matrices do not intertwine the actions")

    def commutes(self) -> bool:
        a = self.source.algebra
        p = a.field.p
        for i in a.radical_indices:
            b = a.basis[i]
            width = self.target.dims[b.target]
            lhs = mul_rows(p, self.source.action[i].rows, self.mats[b.target].rows, width)
            rhs = mul_rows(p, self.mats[b.source].rows, self.target.action[i].rows, width)
            if lhs != rhs:
                return False
        return True

    def is_invertible(self) -> bool:
        if self.source.dims != self.target.dims:
            return False
        f = self.source.field
        for m in self.mats:
            if m.nrows and m.det() == f.zero():
                return False
        return True

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self then other (row convention: matrices multiply in that order)."""
        if self.target is not other.source and self.target.fingerprint != other.source.fingerprint:
            raise ModuleError("composition mismatch")
        return ModuleMap(self.source, other.target, [a.mul(b) for a, b in zip(self.mats, other.mats)], check=False)

    def __repr__(self):
        return f"ModuleMap({self.source.dims} -> {self.target.dims})"


def identity_map(m: RightModule) -> ModuleMap:
    return ModuleMap(m, m, [Matrix.identity(m.field, d) for d in m.dims], check=False)


def zero_module(algebra: Algebra) -> RightModule:
    return RightModule(algebra, [0] * algebra.n_vertices, {}, check=False)


# ---------------------------------------------------------------------------
# constructors


def explicit_module(algebra: Algebra, dims, basis_maps: dict[int, Matrix]) -> RightModule:
    return RightModule(algebra, dims, basis_maps)


def module_from_arrow_maps(algebra: Algebra, dims, arrow_maps: dict[str, Matrix]) -> RightModule:
    """Extend per-arrow matrices to all radical basis elements along their
    normal-form paths, then verify (this is where relations get enforced)."""
    if algebra.quiver is None:
        raise ModuleError(f"algebra {algebra.name} has no arrows; give per-basis actions instead")
    f = algebra.field
    dims = tuple(int(d) for d in dims)
    per_arrow: dict[int, Matrix] = {}
    for name, mat in arrow_maps.items():
        ai = algebra.quiver.arrow_index(name)
        per_arrow[ai] = mat
    action: dict[int, Matrix] = {}
    for i in algebra.radical_indices:
        b = algebra.basis[i]
        if b.path is None:
            raise ModuleError("algebra basis lacks path provenance")
        cur = Matrix.identity(f, dims[b.source])
        for ai in b.path:
            arrow = algebra.quiver.arrows[ai]
            s = algebra.vertex_index(arrow.source)
            t = algebra.vertex_index(arrow.target)
            step = per_arrow.get(ai, Matrix.zeros(f, dims[s], dims[t]))
            if (step.nrows, step.ncols) != (dims[s], dims[t]):
                raise ModuleError(f"map for arrow {arrow.name} should be {dims[s]}x{dims[t]}")
            cur = cur.mul(step)
        action[i] = cur
    return RightModule(algebra, dims, action)


def module_from_generators(algebra: Algebra, dims, gen_action: dict[int, Matrix]) -> RightModule:
    """Extend matrices for `algebra.radical_generators` to every radical
    basis element along `algebra.radical_words`, then verify; the axioms
    then fail exactly when a relation among the generators fails."""
    f = algebra.field
    products: dict[tuple[int, ...], Matrix] = {}

    def product(word: tuple[int, ...]) -> Matrix:
        out = products.get(word)
        if out is None:
            last = gen_action[word[-1]]
            out = products[word] = last if len(word) == 1 else product(word[:-1]).mul(last)
        return out

    action: dict[int, Matrix] = {}
    for i, combo in algebra.radical_words.items():
        if len(combo) == 1 and combo[0][1] == 1:
            action[i] = product(combo[0][0])
            continue
        b = algebra.basis[i]
        acc = Matrix.zeros(f, dims[b.source], dims[b.target])
        for word, c in combo:
            acc = acc.add(product(word).scale(c))
        action[i] = acc
    return RightModule(algebra, dims, action)


def simple_module(algebra: Algebra, vertex: str) -> RightModule:
    v = algebra.vertex_index(vertex)
    dims = [1 if u == v else 0 for u in range(algebra.n_vertices)]
    return RightModule(algebra, dims, {})


def projective_module(algebra: Algebra, vertex: str) -> RightModule:
    """e_v A: spaces spanned by basis elements with source v, right regular action."""
    v = algebra.vertex_index(vertex)
    members: dict[int, list[int]] = {u: [] for u in range(algebra.n_vertices)}
    for i, b in enumerate(algebra.basis):
        if b.source == v:
            members[b.target].append(i)
    dims = [len(members[u]) for u in range(algebra.n_vertices)]
    f = algebra.field
    action: dict[int, Matrix] = {}
    pos = {m: t for u in members for t, m in enumerate(members[u])}
    for i in algebra.radical_indices:
        b = algebra.basis[i]
        mat = Matrix.zeros(f, dims[b.source], dims[b.target])
        for r, m in enumerate(members[b.source]):
            for k, c in algebra.mult(m, i).items():
                mat.rows[r][pos[k]] = c
        action[i] = mat
    return RightModule(algebra, dims, action)


def injective_module(algebra: Algebra, vertex: str) -> RightModule:
    """Vector-space dual of the projective at v over the opposite algebra."""
    opp, _ = opposite_algebra(algebra)
    p_op = projective_module(opp, vertex)
    action = {i: p_op.action[i].transpose() for i in algebra.radical_indices}
    return RightModule(algebra, p_op.dims, action)


def thin_module(algebra: Algebra, support) -> RightModule:
    """Dimension 1 on the support, 0 elsewhere; supported arrows act as 1."""
    if algebra.quiver is None:
        raise ModuleError("thin modules need an algebra with quiver provenance")
    sup = {algebra.vertex_index(v) if isinstance(v, str) else int(v) for v in support}
    dims = [1 if u in sup else 0 for u in range(algebra.n_vertices)]
    f = algebra.field
    arrow_maps = {}
    for a in algebra.quiver.arrows:
        s, t = algebra.vertex_index(a.source), algebra.vertex_index(a.target)
        if s in sup and t in sup:
            arrow_maps[a.name] = Matrix.identity(f, 1)
    return module_from_arrow_maps(algebra, dims, arrow_maps)


def make_module(algebra: Algebra, spec: str) -> RightModule:
    """Named constructors: simple:<v>, proj:<v>, inj:<v>, thin:<v1,v2,...>."""
    if ":" not in spec:
        raise ModuleError(f"not a named module constructor: {spec!r}")
    kind, arg = spec.split(":", 1)
    if kind == "simple":
        return simple_module(algebra, arg)
    if kind == "proj":
        return projective_module(algebra, arg)
    if kind == "inj":
        return injective_module(algebra, arg)
    if kind == "thin":
        return thin_module(algebra, [v for v in arg.split(",") if v])
    raise ModuleError(f"unknown module constructor {kind!r}")


def direct_sum(summands: list[RightModule]) -> RightModule:
    if not summands:
        raise ModuleError("direct sum of an empty list needs an algebra; use zero_module")
    a = summands[0].algebra
    for m in summands[1:]:
        if not a.same_as(m.algebra):
            raise ModuleError("direct sum across different algebras")
    dims = [sum(m.dims[v] for m in summands) for v in range(a.n_vertices)]
    action = {}
    for i in a.radical_indices:
        action[i] = block_diag(a.field, [m.action[i] for m in summands])
    return RightModule(a, dims, action, check=False)


# ---------------------------------------------------------------------------
# hom spaces


def _hom_kernel(m: RightModule, n: RightModule) -> tuple[list[int], list[list]]:
    """`_solve_hom_kernel(m, n)`, once per pair in an open scope (read-only)."""
    return scoped("hom", lambda: (m.memo_key, n.memo_key), lambda: _solve_hom_kernel(m, n))


def _solve_hom_kernel(m: RightModule, n: RightModule) -> tuple[list[int], list[list]]:
    """Hom(M, N) as the canonical kernel of the intertwining system, verified.

    Returns (offsets, rows): each row is one basis map flattened vertex by
    vertex, its block at vertex v starting at offsets[v] and read row-major
    (dims m_v x n_v).  Equations are written only for the generators of the
    radical (a basis of rad/rad^2, `Algebra.radical_generators`).  That is
    enough: rad is nilpotent (`verify_algebra_axioms`), so rad = G + rad^2
    unrolls to rad being spanned by products of generators, and since M and N
    satisfy the module axioms, rho(xy) = rho(x).rho(y) carries intertwining
    from the generators to every radical element.  The system is reduced once
    and the basis read from its free columns (`null_space`); the rows are then
    checked on every radical basis element (`_check_intertwines`).
    """
    a = m.algebra
    if not a.same_as(n.algebra):
        raise ModuleError("hom between modules over different algebras")
    f = a.field
    offsets = []
    total = 0
    for v in range(a.n_vertices):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return offsets, []
    # one equation row per generator i and entry (p, q) of its block, over
    # the unknowns last-first (`null_space`):
    # sum_k rm[p][k] f_w[k][q] - sum_l f_u[p][l] rn[l][q] = 0
    last = total - 1
    zero = f.zero()
    rows = []
    for i in a.radical_generators:
        b = a.basis[i]
        u, w = b.source, b.target
        rm = m.action[i].rows
        rn = n.action[i].rows
        du, dw = n.dims[u], n.dims[w]
        for p in range(m.dims[u]):
            for q in range(dw):
                eq = [zero] * total
                for k, c in enumerate(rm[p]):
                    if c:
                        col = last - (offsets[w] + k * dw + q)
                        eq[col] = f.add(eq[col], c)
                for l in range(du):
                    c = rn[l][q]
                    if c:
                        col = last - (offsets[u] + p * du + l)
                        eq[col] = f.sub(eq[col], c)
                rows.append(eq)
    kernel = null_space(Matrix._adopt(f, rows, len(rows), total)).basis.rows
    _check_intertwines(m, n, offsets, kernel)
    return offsets, kernel


def _check_intertwines(m: RightModule, n: RightModule, offsets: list[int], rows: list[list]) -> None:
    """Raise unless every row (laid out as `_hom_kernel` returns it) is a map
    M -> N: rho_M(b).h_w = h_u.rho_N(b) on every radical basis element
    b: u -> w, the equations `ModuleMap.commutes` checks.  All k rows go
    through two products per element: rho_M(b) times the w-blocks side by
    side (m_w x k.n_w), and the u-blocks stacked (k.m_u x n_u) times rho_N(b).
    """
    if not rows:
        return
    a = m.algebra
    p = a.field.p
    k = len(rows)
    # per vertex v: the v-blocks of the k maps side by side, and stacked
    side, stack = [], []
    for v, o in enumerate(offsets):
        dm, dn = m.dims[v], n.dims[v]
        side.append(_side_by_side(rows, o, dm, dn))
        stack.append([row[o + r * dn : o + (r + 1) * dn] for row in rows for r in range(dm)])
    for i in a.radical_indices:
        b = a.basis[i]
        u, w = b.source, b.target
        dw = n.dims[w]
        if not m.dims[u] or not dw:
            continue
        lhs = mul_rows(p, m.action[i].rows, side[w], k * dw)
        rhs = mul_rows(p, stack[u], n.action[i].rows, dw)
        # row r of map j: lhs[r][j.dw : (j+1).dw] against rhs[j.m_u + r]
        if [lr[s : s + dw] for s in range(0, k * dw, dw) for lr in lhs] != rhs:
            raise ModuleError("matrices do not intertwine the actions")


def _side_by_side(rows: list[list], o: int, dm: int, dn: int) -> list[list]:
    """The dm x dn blocks at offset o of the flattened maps in rows, placed
    side by side: a dm x (k.dn) matrix."""
    return [[x for row in rows for x in row[o + r * dn : o + (r + 1) * dn]] for r in range(dm)]


def _rows_through(p, mats, rows: list[list], offsets: list[int], dims: list[int]) -> list[list]:
    """Each flattened map h in rows (block v at offsets[v], mats[v].ncols x
    dims[v]) multiplied on the left by mats: the flattened blocks mats[v].h_v,
    concatenated over v.  One product per v, with the v-blocks of all rows
    side by side; a v with no rows in mats[v] or no columns adds nothing."""
    moved = [[] for _ in rows]
    for v, o in enumerate(offsets):
        dn, mat = dims[v], mats[v]
        if not dn or not mat.nrows:
            continue
        prod = mul_rows(p, mat.rows, _side_by_side(rows, o, mat.ncols, dn), len(rows) * dn)
        for j, out in enumerate(moved):
            for pr in prod:
                out += pr[j * dn : (j + 1) * dn]
    return moved


def hom_basis(m: RightModule, n: RightModule) -> list[ModuleMap]:
    """Canonical basis of Hom(M, N) as maps: the rows of `_hom_kernel`,
    already checked on every radical basis element, cut into vertex blocks."""
    offsets, kernel = _hom_kernel(m, n)
    f = m.field
    maps = []
    for row in kernel:
        mats = []
        for v, o in enumerate(offsets):
            dm, dn = m.dims[v], n.dims[v]
            mats.append(Matrix._adopt(f, [row[o + r * dn : o + (r + 1) * dn] for r in range(dm)], dm, dn))
        maps.append(ModuleMap(m, n, mats, check=False))
    return maps


def hom_dim(m: RightModule, n: RightModule) -> int:
    """dim Hom(M, N): the number of `_hom_kernel` rows."""
    return len(_hom_kernel(m, n)[1])


def brick_report(m: RightModule) -> tuple[int, bool]:
    end_dim = hom_dim(m, m)
    return end_dim, end_dim == 1


def is_semibrick(mods: list[RightModule]) -> bool:
    for i, m in enumerate(mods):
        if not brick_report(m)[1]:
            return False
        for j, n in enumerate(mods):
            if i != j and hom_dim(m, n) != 0:
                return False
    return True


# ---------------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    map: ModuleMap | None
    conclusive: bool

    @property
    def isomorphic(self) -> bool:
        return self.map is not None


class _Literal(str):
    """Text that repr() prints as it is."""

    def __repr__(self):
        return str(self)


def _seed_fingerprint(m: RightModule):
    """m.fingerprint with each rational entry as the text `Fraction(a, b)`,
    the form every rational entry had when these seeds were fixed."""
    if not m.field.is_rational:
        return m.fingerprint
    alg, dims, actions = m.fingerprint
    return (
        alg,
        dims,
        tuple(
            (i, (r, c, tuple(tuple(_Literal(f"Fraction({x.numerator}, {x.denominator})") for x in row) for row in rows)))
            for i, (r, c, rows) in actions
        ),
    )


def _stable_seed(m: RightModule, n: RightModule) -> int:
    """A seed fixed by the two modules; the same for an int entry as for the
    Fraction of equal value, so iso_test's draws do not depend on the form."""
    return zlib.crc32(repr((_seed_fingerprint(m), _seed_fingerprint(n))).encode())


def iso_test(m: RightModule, n: RightModule, budget: int = 512, retries: int = 32) -> IsoResult:
    """Look for an invertible intertwiner.

    Equal dimension vectors are required; then an invertible element of
    Hom(M, N) is sought - over a prime field by enumerating coefficient
    combinations up to the budget (exhaustive small cases are conclusive),
    over Q by evaluating the block-determinant polynomial at pseudo-random
    integer points.  A found map is verified exactly.
    """
    if not m.algebra.same_as(n.algebra):
        raise ModuleError("iso test across different algebras")
    if m.dims != n.dims:
        return IsoResult(None, True)
    if m.is_zero:
        return IsoResult(ModuleMap(m, n, [Matrix.zeros(m.field, d, d) for d in m.dims], check=False), True)
    if m is n or m.fingerprint == n.fingerprint:
        return IsoResult(identity_map(m), True)
    basis = hom_basis(m, n)
    if not basis:
        return IsoResult(None, True)
    f = m.field

    def combine(coeffs) -> ModuleMap:
        mats = []
        for v in range(m.algebra.n_vertices):
            acc = Matrix.zeros(f, m.dims[v], n.dims[v])
            for c, h in zip(coeffs, basis):
                if c != 0:
                    acc = acc.add(h.mats[v].scale(c))
            mats.append(acc)
        return ModuleMap(m, n, mats, check=False)

    if not f.is_rational:
        p = f.p
        total = p ** len(basis)
        exhaustive = total <= budget
        for idx in range(1, min(total, budget + 1)):
            coeffs = []
            t = idx
            for _ in basis:
                coeffs.append(t % p)
                t //= p
            cand = combine(coeffs)
            if cand.is_invertible():
                return IsoResult(cand, True)
        return IsoResult(None, exhaustive)
    rng = random.Random(_stable_seed(m, n))
    for _ in range(retries):
        coeffs = [f.from_int(rng.randint(-9, 9)) for _ in basis]
        cand = combine(coeffs)
        if cand.is_invertible():
            return IsoResult(cand, True)
    return IsoResult(None, False)


# ---------------------------------------------------------------------------
# submodules, quotients, kernels


def submodule(m: RightModule, spaces: list[Subspace]) -> tuple[RightModule, ModuleMap]:
    """The submodule with the given per-vertex subspaces (must be stable)."""
    a = m.algebra
    dims = [s.dim for s in spaces]
    action = {}
    for i in a.radical_indices:
        b = a.basis[i]
        moved = spaces[b.source].basis.mul(m.action[i])
        sol = solve_right(spaces[b.target].basis, moved)
        if sol is None:
            raise ModuleError(f"subspaces not stable under {a.basis_label(i)}")
        action[i] = sol[0]
    sub = RightModule(a, dims, action, check=False)
    incl = ModuleMap(sub, m, [s.basis for s in spaces])
    return sub, incl


def quotient_module(m: RightModule, spaces: list[Subspace]) -> tuple[RightModule, ModuleMap]:
    """The quotient by a stable family of subspaces, with the projection map."""
    a = m.algebra
    f = m.field
    projs, sects, dims = [], [], []
    for v in range(a.n_vertices):
        p, s, q = quotient_with_section(f, m.dims[v], spaces[v])
        projs.append(p)
        sects.append(s)
        dims.append(q)
    action = {}
    for i in a.radical_indices:
        b = a.basis[i]
        action[i] = sects[b.source].mul(m.action[i]).mul(projs[b.target])
    quot = RightModule(a, dims, action)
    proj = ModuleMap(m, quot, projs)
    return quot, proj


def kernel_of(fmap: ModuleMap) -> tuple[RightModule, ModuleMap]:
    return submodule(fmap.source, [left_kernel(mat) for mat in fmap.mats])


def generated_submodule(m: RightModule, seeds: dict[int, list[list]]) -> list[Subspace]:
    """Per-vertex subspaces of the submodule generated by the seed row vectors."""
    a = m.algebra
    f = m.field
    rows: dict[int, list[list]] = {v: [list(r) for r in seeds.get(v, [])] for v in range(a.n_vertices)}
    changed = True
    spaces = {v: Subspace.from_rows(f, m.dims[v], rows[v]) for v in rows}
    while changed:
        changed = False
        for i in a.radical_indices:
            b = a.basis[i]
            src = spaces[b.source]
            if src.dim == 0:
                continue
            moved = src.basis.mul(m.action[i])
            for r in moved.rows:
                if not spaces[b.target].contains_vector(r):
                    spaces[b.target] = spaces[b.target].sum_with(
                        Subspace.from_rows(f, m.dims[b.target], [r])
                    )
                    changed = True
    return [spaces[v] for v in range(a.n_vertices)]


# ---------------------------------------------------------------------------
# radical, top, covers


def radical_subspaces(m: RightModule) -> list[Subspace]:
    """M.rad at each vertex: the span of all images of radical actions."""
    a = m.algebra
    rows: dict[int, list] = {v: [] for v in range(a.n_vertices)}
    for i in a.radical_indices:
        b = a.basis[i]
        rows[b.target].extend(m.action[i].rows)
    return [Subspace.from_rows(m.field, m.dims[v], rows[v]) for v in range(a.n_vertices)]


def top_and_cover(m: RightModule) -> tuple[dict[str, int], RightModule, ModuleMap]:
    """`_build_cover(m)`, once per module in an open scope, with a fresh top."""
    top, cover, cmap = scoped("covers", lambda: m.memo_key, lambda: _build_cover(m))
    return dict(top), cover, cmap


def _build_cover(m: RightModule) -> tuple[dict[str, int], RightModule, ModuleMap]:
    """Top multiplicities, the projective cover, and the cover map.

    The top is computed per vertex as M / M.rad; lifts of a top basis are the
    canonical section rows, ties in ordering broken by vertex declaration
    order.  The returned map is surjective with kernel inside rad(P).
    """
    a = m.algebra
    f = m.field
    rad = radical_subspaces(m)
    top: dict[str, int] = {}
    generators: list[tuple[int, list]] = []  # (vertex, generating row in M_v)
    for v in range(a.n_vertices):
        _, sect, q = quotient_with_section(f, m.dims[v], rad[v])
        if q:
            top[a.vertices[v]] = q
        for r in sect.rows:
            generators.append((v, list(r)))
    summands = [projective_module(a, a.vertices[v]) for v, _ in generators]
    cover = direct_sum(summands) if summands else zero_module(a)
    # cover map: the generator of e_v A goes to its lift, b |-> lift . rho(b)
    mats = []
    members: list[list[tuple[int, int]]] = [[] for _ in range(a.n_vertices)]
    # basis bookkeeping of the direct sum: per vertex, blocks in summand order
    for s, (v, _) in enumerate(generators):
        for i, b in enumerate(a.basis):
            if b.source == v:
                members[b.target].append((s, i))
    for u in range(a.n_vertices):
        mat = Matrix.zeros(f, cover.dims[u], m.dims[u])
        for r, (s, i) in enumerate(members[u]):
            v, lift = generators[s]
            row_vec = Matrix(f, [lift], 1, m.dims[v]).mul(m.rho(i))
            mat.rows[r] = row_vec.rows[0]
        mats.append(mat)
    cover_map = ModuleMap(cover, m, mats)
    for v in range(a.n_vertices):
        if matrix_rank(cover_map.mats[v]) != m.dims[v]:
            raise ModuleError("projective cover map failed to be surjective")
    return top, cover, cover_map


# ---------------------------------------------------------------------------
# resolutions


@dataclass(frozen=True)
class FinitePd:
    pd: int

    def __str__(self):
        return f"finite projective dimension {self.pd}"


@dataclass(frozen=True)
class Periodic:
    lead: int
    period: int

    def __str__(self):
        return f"syzygies periodic: omega^{self.lead} = omega^{self.lead + self.period}"


@dataclass(frozen=True)
class TruncatedAt:
    steps: int

    def __str__(self):
        return f"truncated at {self.steps} steps"


@dataclass
class ResolutionPrefix:
    module: RightModule
    terms: list[RightModule]          # P_0 .. P_k
    diffs: list[ModuleMap]            # diffs[0]: P_0 -> M; diffs[i]: P_i -> P_{i-1}
    syzygies: list[RightModule]       # omega^0 = M, omega^1, ...
    status: FinitePd | Periodic | TruncatedAt


class Resolution:
    """The minimal projective resolution of one module, grown on demand.

    Append-only: step s adds the cover P_{s-1} of omega^{s-1}, its composed
    differential and the syzygy omega^s, and nothing recorded ever changes.
    Growth stops at a zero syzygy.  The first syzygy isomorphic to an earlier
    one is recorded when it is found, so `status(k)` reports exactly what a
    fresh resolution of k steps reports, however far this one has grown.
    One object serves every Ext read from its module: `Resolution.of` hands
    out the one an open scope holds for the module (see `exrep.scope`), and
    the scope shares each step from `_shared_from` on, keyed by its omega^s.
    """

    def __init__(self, m: RightModule):
        self.module = m
        self.syzygies: list[RightModule] = [m]
        self.inclusions: list[ModuleMap | None] = [None]  # omega^i -> P_{i-1}
        self.terms: list[RightModule] = []
        self.diffs: list[ModuleMap] = []
        self._shared_from = 0
        self._scanned = 0  # syzygies 1.._scanned were compared with every earlier one
        self._period: Periodic | None = None

    @classmethod
    def of(cls, m: RightModule) -> "Resolution":
        """The minimal resolution of m: one per module in an open scope."""
        return scoped("resolutions", lambda: m.memo_key, lambda: cls(m))

    def steps(self) -> int:
        return len(self.terms)

    def _push(self, cover: RightModule, cmap: ModuleMap, kernel: tuple[RightModule, ModuleMap]) -> None:
        """Append the step cover -> omega^{last}: cmap onto it, kernel its `kernel_of`."""
        incl = self.inclusions[-1]
        self.terms.append(cover)
        self.diffs.append(cmap if incl is None else cmap.compose(incl))
        self.syzygies.append(kernel[0])
        self.inclusions.append(kernel[1])

    def extend_to(self, steps: int) -> None:
        """Grow to `steps` covers, stopping at a zero syzygy (the module itself
        always gets its cover)."""
        while self.steps() < steps and not (self.steps() and self.syzygies[-1].is_zero):
            last = self.syzygies[-1]
            _, cover, cmap = top_and_cover(last)
            self._push(cover, cmap, scoped("syzygies", lambda: last.memo_key, lambda: kernel_of(cmap)))

    def status(self, max_steps: int) -> FinitePd | Periodic | TruncatedAt:
        """FinitePd(k) once omega^{k+1} vanishes within max_steps; Periodic(j, q)
        when omega^{j+q} is the first syzygy isomorphic to an earlier one (the
        earliest such omega^j); TruncatedAt(max_steps) otherwise."""
        for s in range(1, max_steps + 1):
            self.extend_to(s)
            if self.syzygies[s].is_zero:
                return FinitePd(s - 1)
            if s > self._scanned:
                self._scanned = s
                self._period = self._earlier_copy(s)
            if self._period is not None and self._period.lead + self._period.period == s:
                return self._period
        return TruncatedAt(max_steps)

    def _earlier_copy(self, s: int) -> Periodic | None:
        """Periodic(j, s - j) for the earliest omega^j isomorphic to omega^s."""
        for j in range(s):
            if self.syzygies[j].dims == self.syzygies[s].dims and iso_test(self.syzygies[j], self.syzygies[s]).isomorphic:
                return Periodic(j, s - j)
        return None

    def prefix(self, max_steps: int) -> ResolutionPrefix:
        """The first max_steps covers and the status of that prefix."""
        if max_steps < 1:
            raise ModuleError("max_steps must be >= 1")
        status = self.status(max_steps)
        self.extend_to(max_steps)
        return ResolutionPrefix(
            module=self.module,
            terms=self.terms[:max_steps],
            diffs=self.diffs[:max_steps],
            syzygies=self.syzygies[: max_steps + 1],
            status=status,
        )

    def tower_dims(self, n: RightModule, n_max: int) -> list[int]:
        """dim Ext^0..Ext^n_max(M, N) read off this tower as it stands, with
        no certificate; for a tower that is not minimal (`padded_resolution`)."""
        self.extend_to(n_max + 2)
        return _ext_from_tower(self, n, n_max)

    def ext(self, n: RightModule, n_max: int = 8) -> ExtResult:
        """Ext^0..Ext^n_max(M, N) for this resolution's module M; see `ext_dims`.
        In an open scope every bound reads the ranks already found; each read
        gets its own dimensions."""
        m = self.module
        if not m.algebra.same_as(n.algebra):
            raise ModuleError("ext between modules over different algebras")
        if n_max < 0:
            raise ModuleError("n_max must be >= 0")
        if m.is_zero:
            return ExtResult([0] * (n_max + 1), AllHigherVanish(-1))
        status = self.status(n_max + 2)
        if isinstance(status, FinitePd):
            limit = min(n_max, status.pd)
            certainty: ExactUpTo | AllHigherVanish | EventuallyPeriodic = AllHigherVanish(status.pd)
        elif isinstance(status, Periodic):
            limit = min(n_max, status.lead + status.period)
            self.extend_to(limit + 2)
            certainty = EventuallyPeriodic(status.lead, status.period)
        else:
            limit = n_max
            certainty = ExactUpTo(n_max)

        dims = _ext_from_tower(self, n, limit)
        while len(dims) <= n_max:
            k = len(dims)
            if isinstance(status, FinitePd):
                dims.append(0)
            elif isinstance(status, Periodic):
                j, q = status.lead, status.period
                dims.append(dims[j + 1 + (k - j - 1) % q])
            else:
                break
        return ExtResult(dims, certainty)


def minimal_resolution(m: RightModule, max_steps: int = 24) -> ResolutionPrefix:
    """Iterate projective covers for max_steps (early exit on a zero syzygy).

    Status: FinitePd(k) once a syzygy vanishes; Periodic(j, q) when an
    isomorphism omega^j = omega^{j+q} is certified (scanning new syzygies
    against all earlier ones, earliest hit first); TruncatedAt otherwise.
    Terms keep being computed up to max_steps even after periodicity is found,
    so callers can read as many covers as they asked for.
    """
    return Resolution.of(m).prefix(max_steps)


def is_projective_module(m: RightModule) -> bool:
    """True iff the first syzygy is zero: `top_and_cover` has checked by rank
    that the cover map is onto, so iff the cover has the dimensions of M."""
    return m.is_zero or top_and_cover(m)[1].dims == m.dims


# ---------------------------------------------------------------------------
# Ext


@dataclass(frozen=True)
class ExactUpTo:
    n: int


@dataclass(frozen=True)
class AllHigherVanish:
    pd: int


@dataclass(frozen=True)
class EventuallyPeriodic:
    lead: int
    period: int


@dataclass
class ExtResult:
    dims: list[int]
    certainty: ExactUpTo | AllHigherVanish | EventuallyPeriodic

    def all_higher_vanish_certified(self, from_n: int = 1) -> bool:
        """Does this result certify Ext^n = 0 for every n >= from_n?"""
        if any(d != 0 for d in self.dims[from_n:]):
            return False
        if isinstance(self.certainty, AllHigherVanish):
            return True
        if isinstance(self.certainty, EventuallyPeriodic):
            return len(self.dims) - 1 >= self.certainty.lead + self.certainty.period
        return False


def _hom_complex_rank(res: Resolution, n: int, target: RightModule) -> tuple[int, int]:
    """`_solve_hom_complex_rank` once per (omega^n, omega^{n+1}, N) in an open
    scope; step n+1 is grown first, so no entry misses it."""
    res.extend_to(n + 2)
    if n < res._shared_from:
        return _solve_hom_complex_rank(res, n, target)
    syz = res.syzygies
    return scoped(
        "ranks",
        lambda: (syz[n].memo_key, syz[n + 1].memo_key, target.memo_key),
        lambda: _solve_hom_complex_rank(res, n, target),
    )


def _solve_hom_complex_rank(res: Resolution, n: int, target: RightModule) -> tuple[int, int]:
    """(dim Hom(P_n, N), rank of the map Hom(P_n, N) -> Hom(P_{n+1}, N)).

    h |-> D_{n+1}.h for every kernel row h at once: per vertex v one product
    of D_{n+1} at v with the v-blocks of all rows side by side."""
    P_n = res.terms[n]
    offsets, kernel = _hom_kernel(P_n, target)
    dim_n = len(kernel)
    if dim_n == 0:
        return 0, 0
    if n + 1 >= len(res.terms) or res.terms[n + 1].is_zero:
        return dim_n, 0
    rows = _rows_through(target.field.p, res.diffs[n + 1].mats, kernel, offsets, target.dims)
    width = len(rows[0])
    if width == 0:
        return dim_n, 0
    return dim_n, matrix_rank(Matrix(target.field, rows, dim_n, width))


def _ext_from_tower(res: Resolution, target: RightModule, limit: int) -> list[int]:
    """dim Ext^k(M, N) for k = 0..limit: the cohomology of Hom(P_*, N) along
    the resolution's projective terms (a missing or zero term contributes 0)."""
    dims = []
    prev_rank = 0
    for k in range(limit + 1):
        if k >= len(res.terms) or res.terms[k].is_zero:
            dims.append(0)
            prev_rank = 0
            continue
        dim_k, rank_k = _hom_complex_rank(res, k, target)
        dims.append(dim_k - rank_k - prev_rank)
        prev_rank = rank_k
    return dims


def ext_dims(m: RightModule, n: RightModule, n_max: int = 8) -> ExtResult:
    """Dimensions of Ext^0..Ext^n_max(M, N) with a vanishing certificate.

    Ext is read off the minimal resolution of M; a finite resolution
    certifies all higher groups vanish, a certified syzygy period makes the
    dimensions eventually periodic (minimal resolutions are unique up to
    isomorphism from the lead syzygy on).  This is the one-target case of
    `Resolution.ext`.
    """
    return Resolution.of(m).ext(n, n_max)


def padded_resolution(m: RightModule, pad_vertex: str) -> Resolution:
    """A deliberately non-minimal resolution of m, an independence oracle
    against the minimal one.

    The degree-0 cover is padded with an extra projective summand mapping to
    zero; from the padded syzygy onward covers are again minimal.  Read it
    with `Resolution.tower_dims`: its periodicity and finiteness certificates
    assume a minimal resolution.
    """
    a = m.algebra
    f = m.field
    _, cover, cmap = top_and_cover(m)
    extra = projective_module(a, pad_vertex)
    padded = direct_sum([cover, extra])
    mats = []
    for v in range(a.n_vertices):
        z = Matrix.zeros(f, extra.dims[v], m.dims[v])
        mats.append(Matrix(f, cmap.mats[v].rows + z.rows, padded.dims[v], m.dims[v]))
    pmap = ModuleMap(padded, m, mats)
    res = Resolution(m)
    res._push(padded, pmap, kernel_of(pmap))
    res._shared_from = 1  # the padded step is nobody else's
    return res

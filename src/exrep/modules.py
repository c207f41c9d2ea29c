"""Right modules over structure-constant algebras.

A module stores one space per vertex and one action matrix per degree->=1
basis element of the algebra; the constructor always re-checks full
multiplicativity, so every RightModule in circulation is a verified
representation.  On top of that sit Hom spaces (solved exactly as one linear
system), endomorphism/brick data, isomorphism testing, projective covers,
minimal resolutions with periodicity certificates, and Ext dimensions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, opposite_algebra
from .fields import FieldSpec
from .linalg import Matrix, Subspace, block_diag, quotient_with_section, rank_kernel_image, solve_right


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
        """All failures of rho(b).rho(b') = sum c_k rho(b_k) on composable pairs."""
        a = self.algebra
        f = self.field
        out = []
        for i in a.radical_indices:
            bi = a.basis[i]
            for j in a.radical_indices:
                bj = a.basis[j]
                if bi.target != bj.source:
                    continue
                lhs = self.action[i].mul(self.action[j])
                rhs = Matrix.zeros(f, self.dims[bi.source], self.dims[bj.target])
                for k, c in a.mult(i, j).items():
                    rhs = rhs.add(self.rho(k).scale(c))
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

    def __repr__(self):
        return f"RightModule(dims={self.dims} over {self.algebra.name})"


class ModuleMap:
    """A homomorphism of right modules, one matrix per vertex; always verified."""

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
        for i in a.radical_indices:
            b = a.basis[i]
            lhs = self.source.action[i].mul(self.mats[b.target])
            rhs = self.mats[b.source].mul(self.target.action[i])
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

    def flatten(self) -> list:
        return [x for m in self.mats for r in m.rows for x in r]

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


def hom_basis(m: RightModule, n: RightModule) -> list[ModuleMap]:
    """Canonical basis of Hom(M, N): kernel of the intertwining system.

    Equations are written only for the generators of the radical (a basis of
    rad/rad^2, `Algebra.radical_generators`).  That is enough: rad is
    nilpotent (`verify_algebra_axioms`), so rad = G + rad^2 unrolls to rad
    being spanned by products of generators, and since M and N satisfy the
    module axioms, rho(xy) = rho(x).rho(y) carries intertwining from the
    generators to every radical element.  Each map is still re-verified on
    all radical basis elements.
    """
    a = m.algebra
    if not a.same_as(n.algebra):
        raise ModuleError("hom between modules over different algebras")
    f = a.field
    nv = a.n_vertices
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += m.dims[v] * n.dims[v]
    if total == 0:
        return []
    gens = a.radical_generators
    n_eqs = 0
    for i in gens:
        b = a.basis[i]
        n_eqs += m.dims[b.source] * n.dims[b.target]
    E = Matrix.zeros(f, total, n_eqs)
    eq = 0
    for i in gens:
        b = a.basis[i]
        u, w = b.source, b.target
        rm = m.action[i]
        rn = n.action[i]
        for p in range(m.dims[u]):
            for q in range(n.dims[w]):
                # sum_k rm[p][k] f_w[k][q] - sum_l f_u[p][l] rn[l][q] = 0
                for k in range(m.dims[w]):
                    c = rm.rows[p][k]
                    if c != 0:
                        E.rows[offsets[w] + k * n.dims[w] + q][eq] = f.add(
                            E.rows[offsets[w] + k * n.dims[w] + q][eq], c
                        )
                for l in range(n.dims[u]):
                    c = rn.rows[l][q]
                    if c != 0:
                        E.rows[offsets[u] + p * n.dims[u] + l][eq] = f.sub(
                            E.rows[offsets[u] + p * n.dims[u] + l][eq], c
                        )
                eq += 1
    _, kernel, _ = rank_kernel_image(E)
    maps = []
    for row in kernel.basis.rows:
        mats = []
        for v in range(nv):
            mat = Matrix.zeros(f, m.dims[v], n.dims[v])
            for p in range(m.dims[v]):
                for q in range(n.dims[v]):
                    mat.rows[p][q] = row[offsets[v] + p * n.dims[v] + q]
            mats.append(mat)
        maps.append(ModuleMap(m, n, mats))  # re-verified independently of the solver
    return maps


def hom_dim(m: RightModule, n: RightModule) -> int:
    return len(hom_basis(m, n))


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


def _stable_seed(m: RightModule, n: RightModule) -> int:
    import zlib

    return zlib.crc32(repr((m.fingerprint, n.fingerprint)).encode())


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
        count = 0
        exhaustive = total <= budget
        for idx in range(1, min(total, budget + 1)):
            coeffs = []
            t = idx
            for _ in basis:
                coeffs.append(t % p)
                t //= p
            count += 1
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
    f = m.field
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
    spaces = []
    for v in range(fmap.source.algebra.n_vertices):
        _, ker, _ = rank_kernel_image(fmap.mats[v])
        spaces.append(ker)
    return submodule(fmap.source, spaces)


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
        rank, _, _ = rank_kernel_image(cover_map.mats[v])
        if rank != m.dims[v]:
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


class _CoverTower:
    """Iterated projective covers with composed differentials."""

    def __init__(self, m: RightModule):
        self.module = m
        self.syzygies: list[RightModule] = [m]
        self.inclusions: list[ModuleMap | None] = [None]  # omega^i -> P_{i-1}
        self.terms: list[RightModule] = []
        self.diffs: list[ModuleMap] = []

    def steps(self) -> int:
        return len(self.terms)

    def extend_once(self) -> None:
        om = self.syzygies[-1]
        _, cover, cmap = top_and_cover(om)
        incl = self.inclusions[-1]
        if incl is None:
            diff = cmap
        else:
            diff = cmap.compose(incl)
        self.terms.append(cover)
        self.diffs.append(diff)
        ker, kincl = kernel_of(cmap)
        self.syzygies.append(ker)
        self.inclusions.append(kincl)

    def extend_to(self, steps: int, stop_on_zero: bool = True) -> None:
        while self.steps() < steps:
            if stop_on_zero and self.syzygies[-1].is_zero and self.steps() > 0:
                break
            self.extend_once()


def _resolve(m: RightModule, max_steps: int, stop_at_detection: bool = False):
    tower = _CoverTower(m)
    status: FinitePd | Periodic | TruncatedAt | None = None
    while tower.steps() < max_steps:
        tower.extend_once()
        s = len(tower.syzygies) - 1
        if tower.syzygies[-1].is_zero:
            status = FinitePd(tower.steps() - 1)
            break
        if not isinstance(status, Periodic):
            for j in range(s):
                if tower.syzygies[j].dims != tower.syzygies[s].dims:
                    continue
                res = iso_test(tower.syzygies[j], tower.syzygies[s])
                if res.isomorphic:
                    status = Periodic(j, s - j)
                    break
        if stop_at_detection and status is not None:
            break
    if status is None:
        status = TruncatedAt(max_steps)
    return tower, status


def minimal_resolution(m: RightModule, max_steps: int = 24) -> ResolutionPrefix:
    """Iterate projective covers for max_steps (early exit on a zero syzygy).

    Status: FinitePd(k) once a syzygy vanishes; Periodic(j, q) when an
    isomorphism omega^j = omega^{j+q} is certified (scanning new syzygies
    against all earlier ones, earliest hit first); TruncatedAt otherwise.
    Terms keep being computed up to max_steps even after periodicity is found,
    so callers can read as many covers as they asked for.
    """
    if max_steps < 1:
        raise ModuleError("max_steps must be >= 1")
    tower, status = _resolve(m, max_steps)
    return ResolutionPrefix(
        module=m,
        terms=tower.terms,
        diffs=tower.diffs,
        syzygies=tower.syzygies,
        status=status,
    )


def is_projective_module(m: RightModule) -> bool:
    """True iff the first syzygy is zero."""
    if m.is_zero:
        return True
    _, _, cmap = top_and_cover(m)
    ker, _ = kernel_of(cmap)
    return ker.is_zero


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


def _hom_complex_rank(tower: _CoverTower, n: int, target: RightModule) -> tuple[int, int]:
    """(dim Hom(P_n, N), rank of the map Hom(P_n, N) -> Hom(P_{n+1}, N))."""
    P_n = tower.terms[n]
    basis_n = hom_basis(P_n, target)
    dim_n = len(basis_n)
    if dim_n == 0:
        return 0, 0
    if n + 1 >= len(tower.terms) or tower.terms[n + 1].is_zero:
        return dim_n, 0
    D = tower.diffs[n + 1]
    rows = [D.compose(h).flatten() for h in basis_n]
    width = len(rows[0])
    if width == 0:
        return dim_n, 0
    rank, _, _ = rank_kernel_image(Matrix(target.field, rows, dim_n, width))
    return dim_n, rank


def _ext_from_tower(tower: _CoverTower, target: RightModule, limit: int) -> list[int]:
    """dim Ext^k(M, N) for k = 0..limit: the cohomology of Hom(P_*, N) along
    the tower's projective terms (a missing or zero term contributes 0)."""
    dims = []
    prev_rank = 0
    for k in range(limit + 1):
        if k >= len(tower.terms) or tower.terms[k].is_zero:
            dims.append(0)
            prev_rank = 0
            continue
        dim_k, rank_k = _hom_complex_rank(tower, k, target)
        dims.append(dim_k - rank_k - prev_rank)
        prev_rank = rank_k
    return dims


def ext_dims(m: RightModule, n: RightModule, n_max: int = 8) -> ExtResult:
    """Dimensions of Ext^0..Ext^n_max(M, N) with a vanishing certificate.

    Ext is read off the minimal resolution of M; a finite resolution
    certifies all higher groups vanish, a certified syzygy period makes the
    dimensions eventually periodic (minimal resolutions are unique up to
    isomorphism from the lead syzygy on).
    """
    if not m.algebra.same_as(n.algebra):
        raise ModuleError("ext between modules over different algebras")
    if n_max < 0:
        raise ModuleError("n_max must be >= 0")
    if m.is_zero:
        return ExtResult([0] * (n_max + 1), AllHigherVanish(-1))
    tower, status = _resolve(m, max(1, n_max + 2), stop_at_detection=True)
    if isinstance(status, FinitePd):
        limit = min(n_max, status.pd)
        certainty: ExactUpTo | AllHigherVanish | EventuallyPeriodic = AllHigherVanish(status.pd)
    elif isinstance(status, Periodic):
        limit = min(n_max, status.lead + status.period)
        tower.extend_to(limit + 2, stop_on_zero=False)
        certainty = EventuallyPeriodic(status.lead, status.period)
    else:
        limit = n_max
        certainty = ExactUpTo(n_max)

    dims = _ext_from_tower(tower, n, limit)
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


def ext_dims_from_tower_padded(m: RightModule, n: RightModule, n_max: int, pad_vertex: str) -> list[int]:
    """Ext dimensions from a deliberately non-minimal resolution.

    The degree-0 cover is padded with an extra projective summand mapping to
    zero; from the padded syzygy onward covers are again minimal.  Used as an
    independence oracle against the minimal-resolution computation.
    """
    a = m.algebra
    f = m.field
    if m.is_zero:
        return [0] * (n_max + 1)
    _, cover, cmap = top_and_cover(m)
    extra = projective_module(a, pad_vertex)
    padded = direct_sum([cover, extra])
    mats = []
    for v in range(a.n_vertices):
        z = Matrix.zeros(f, extra.dims[v], m.dims[v])
        mats.append(Matrix(f, cmap.mats[v].rows + z.rows, padded.dims[v], m.dims[v]))
    pmap = ModuleMap(padded, m, mats)
    tower = _CoverTower(m)
    tower.terms.append(padded)
    tower.diffs.append(pmap)
    ker, kincl = kernel_of(pmap)
    tower.syzygies.append(ker)
    tower.inclusions.append(kincl)
    tower.extend_to(n_max + 2)
    return _ext_from_tower(tower, n, n_max)

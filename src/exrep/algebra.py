"""Finite-dimensional structure-constant algebras.

An algebra here is a basis with a vertex bigrading (Peirce decomposition), a
complete set of orthogonal idempotents (one per vertex, degree 0) and a full
multiplication table.  `build_algebra` compiles a bound quiver presentation to
this form by eliminating the relation ideal from the path space, length by
length; corners eAe, quotients A/AeA and opposites are derived from existing
algebras and keep the same verified shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import FieldSpec
from .linalg import Matrix, Subspace, quotient_with_section, solve_right
from .quiver import Quiver, RelationExpr


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class BasisElement:
    source: int
    target: int
    degree: int
    path: tuple[int, ...] | None  # arrow indices of the normal form, if known


class Algebra:
    """Immutable structure-constant algebra over a FieldSpec."""

    def __init__(
        self,
        field: FieldSpec,
        vertices: tuple[str, ...],
        basis: tuple[BasisElement, ...],
        table: list[list[dict[int, object]]],
        name: str = "algebra",
        quiver: Quiver | None = None,
        relations: tuple[RelationExpr, ...] | None = None,
    ):
        self.field = field
        self.vertices = tuple(vertices)
        self.basis = tuple(basis)
        self.table = table
        self.name = name
        self.quiver = quiver
        self.relations = relations
        self.idempotent_index: dict[int, int] = {}
        for i, b in enumerate(self.basis):
            if b.degree == 0:
                if b.source != b.target:
                    raise AlgebraError("degree-0 element with mismatched endpoints")
                if b.source in self.idempotent_index:
                    raise AlgebraError(f"two idempotents at vertex {self.vertices[b.source]}")
                self.idempotent_index[b.source] = i
        if set(self.idempotent_index) != set(range(len(self.vertices))):
            raise AlgebraError("missing vertex idempotent")
        self.radical_indices = tuple(i for i, b in enumerate(self.basis) if b.degree >= 1)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def vertex_index(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise AlgebraError(f"unknown vertex {label!r} of algebra {self.name}") from None

    def mult(self, i: int, j: int) -> dict[int, object]:
        return self.table[i][j]

    def mult_vec(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        f = self.field
        out: dict[int, object] = {}
        for i, ci in x.items():
            for j, cj in y.items():
                c = f.mul(ci, cj)
                if c == 0:
                    continue
                for k, ck in self.table[i][j].items():
                    v = f.add(out.get(k, f.zero()), f.mul(c, ck))
                    if v == 0:
                        out.pop(k, None)
                    else:
                        out[k] = v
        return out

    def arrow_basis_index(self, arrow_name: str) -> int:
        """Basis index of a declared arrow (requires quiver provenance)."""
        if self.quiver is None:
            raise AlgebraError(f"algebra {self.name} has no quiver provenance")
        ai = self.quiver.arrow_index(arrow_name)
        for i, b in enumerate(self.basis):
            if b.path == (ai,):
                return i
        raise AlgebraError(f"arrow {arrow_name!r} is not a basis normal form")

    def basis_label(self, i: int) -> str:
        b = self.basis[i]
        if b.degree == 0:
            return f"e_{self.vertices[b.source]}"
        if b.path is not None and self.quiver is not None:
            return "*".join(self.quiver.arrows[a].name for a in b.path)
        return f"b{i}"

    @cached_property
    def radical_generators(self) -> tuple[int, ...]:
        """Radical basis indices whose classes form a basis of rad/rad^2.

        rad^2 is the span of all products of radical basis elements, and each
        product lies in one Peirce block, so every block is handled on its
        own.  Indices are picked greedily in basis order: one joins when its
        basis vector is outside the span of rad^2 and the indices picked
        before it.  Path degree is no guide: a corner eAe keeps the path
        lengths of A, so a generator of eAe can have degree 2.
        """
        f = self.field
        blocks: dict[tuple[int, int], list[int]] = {}
        for i, b in enumerate(self.basis):
            blocks.setdefault((b.source, b.target), []).append(i)
        products: dict[tuple[int, int], list[dict[int, object]]] = {blk: [] for blk in blocks}
        for i in self.radical_indices:
            for j in self.radical_indices:
                cell = self.table[i][j]
                if cell:
                    products[(self.basis[i].source, self.basis[j].target)].append(cell)
        out = []
        for blk, members in blocks.items():
            pos = {k: t for t, k in enumerate(members)}
            rows = []
            for cell in products[blk]:
                row = [f.zero()] * len(members)
                for k, c in cell.items():
                    row[pos[k]] = c
                rows.append(row)
            span = Subspace.from_rows(f, len(members), rows)
            for t, k in enumerate(members):
                if self.basis[k].degree == 0:
                    continue
                unit = [f.one() if s == t else f.zero() for s in range(len(members))]
                if not span.contains_vector(unit):
                    out.append(k)
                    span = span.sum_with(Subspace.from_rows(f, len(members), [unit]))
        return tuple(sorted(out))

    @cached_property
    def radical_words(self) -> dict[int, tuple[tuple[tuple[int, ...], object], ...]]:
        """Each radical basis element as a combination of generator words.

        Maps a radical index to ((word, coefficient), ...), where a word is a
        tuple of `radical_generators` multiplied left to right.  Words grow
        one generator at a time from the generators themselves; a word is
        kept when its value is independent of the words kept before it in
        its Peirce block, and only kept words are grown further.  Since rad
        is spanned by products of generators, the kept words of a block form
        a basis of its radical part, and every basis element is solved
        against that basis inside its block.
        """
        f = self.field
        one = f.one()
        members: dict[tuple[int, int], list[int]] = {}
        for i in self.radical_indices:
            b = self.basis[i]
            members.setdefault((b.source, b.target), []).append(i)
        kept: dict[tuple[int, int], list[tuple[tuple[int, ...], list]]] = {blk: [] for blk in members}
        spans = {blk: Subspace.zero(f, len(ms)) for blk, ms in members.items()}

        def keep(word: tuple[int, ...], value: dict[int, object]) -> bool:
            blk = (self.basis[word[0]].source, self.basis[word[-1]].target)
            pos = members[blk]
            row = [value.get(k, f.zero()) for k in pos]
            if spans[blk].contains_vector(row):
                return False
            spans[blk] = spans[blk].sum_with(Subspace.from_rows(f, len(pos), [row]))
            kept[blk].append((word, row))
            return True

        frontier = [((g,), {g: one}) for g in self.radical_generators]
        frontier = [(w, v) for w, v in frontier if keep(w, v)]
        while frontier:
            grown = []
            for word, value in frontier:
                for g in self.radical_generators:
                    if self.basis[g].source != self.basis[word[-1]].target:
                        continue
                    longer = (*word, g)
                    product = self.mult_vec(value, {g: one})
                    if product and keep(longer, product):
                        grown.append((longer, product))
            frontier = grown
        out: dict[int, tuple[tuple[tuple[int, ...], object], ...]] = {}
        for blk, pos in members.items():
            words = kept[blk]
            if len(words) != len(pos):
                raise AlgebraError(f"radical generators do not span the radical of {self.name}")
            values = Matrix(f, [row for _, row in words], len(words), len(pos))
            coords, _ = solve_right(values, Matrix.identity(f, len(pos)))
            for k, crow in zip(pos, coords.rows):
                out[k] = tuple((w, c) for (w, _), c in zip(words, crow) if c != 0)
        return out

    @cached_property
    def fingerprint(self):
        tab = tuple(
            tuple(tuple(sorted((k, self.field.fmt(c)) for k, c in cell.items())) for cell in row)
            for row in self.table
        )
        return (
            self.field,
            self.vertices,
            tuple((b.source, b.target, b.degree) for b in self.basis),
            tab,
        )

    def same_as(self, other: "Algebra") -> bool:
        return self is other or self.fingerprint == other.fingerprint

    def __repr__(self):
        return f"Algebra({self.name}, dim={self.dim}, field={self.field.name()})"


# ---------------------------------------------------------------------------
# building from a quiver presentation


class _Reducer:
    """Echelonized span of ideal multiples inside the truncated path space.

    Rows are kept fully reduced; each row is normalized on its pivot, the
    largest path (graded, then lexicographic by arrow declaration order) in
    its support.  Reduction modulo the span is therefore canonical.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: dict[tuple, dict[tuple, object]] = {}  # pivot path -> row

    def reduce(self, vec: dict[tuple, object]) -> dict[tuple, object]:
        f = self.field
        vec = dict(vec)
        changed = True
        while changed:
            changed = False
            for p in sorted(vec, key=lambda q: (len(q[0]), q[0]), reverse=True):
                c = vec.get(p)
                if c is None or c == 0:
                    continue
                row = self.rows.get(p)
                if row is None:
                    continue
                for q, cq in row.items():
                    v = f.sub(vec.get(q, f.zero()), f.mul(c, cq))
                    if v == 0:
                        vec.pop(q, None)
                    else:
                        vec[q] = v
                changed = True
                break
        return vec

    def insert(self, vec: dict[tuple, object]) -> None:
        f = self.field
        vec = self.reduce(vec)
        if not vec:
            return
        pivot = max(vec, key=lambda q: (len(q[0]), q[0]))
        inv = f.inv(vec[pivot])
        row = {q: f.mul(inv, c) for q, c in vec.items()}
        # back-substitute into existing rows to stay fully reduced
        for piv2, row2 in list(self.rows.items()):
            c = row2.get(pivot)
            if c is not None and c != 0:
                new2 = dict(row2)
                for q, cq in row.items():
                    v = f.sub(new2.get(q, f.zero()), f.mul(c, cq))
                    if v == 0:
                        new2.pop(q, None)
                    else:
                        new2[q] = v
                self.rows[piv2] = new2
        self.rows[pivot] = row

    def in_span(self, path: tuple) -> bool:
        return not self.reduce({path: self.field.one()})


def _generate_paths(quiver: Quiver, max_length: int):
    """Paths keyed as ((arrow indices), source index), grouped by length.

    Stops early at the first empty length (acyclic quivers run out).
    """
    nv = len(quiver.vertices)
    by_len: list[list[tuple]] = [[((), v) for v in range(nv)]]
    arrows_from: dict[int, list[int]] = {v: [] for v in range(nv)}
    for i, a in enumerate(quiver.arrows):
        arrows_from[quiver.vertex_index(a.source)].append(i)
    targets = [quiver.vertex_index(a.target) for a in quiver.arrows]
    length = 0
    while length < max_length:
        nxt = []
        for (arrs, src) in by_len[length]:
            end = targets[arrs[-1]] if arrs else src
            for ai in arrows_from[end]:
                nxt.append((arrs + (ai,), src))
        if not nxt:
            break
        by_len.append(sorted(nxt))
        length += 1
    return by_len


def build_algebra(
    quiver: Quiver,
    relations: list[RelationExpr] | tuple[RelationExpr, ...],
    field: FieldSpec,
    max_len: int = 64,
    name: str = "algebra",
) -> Algebra:
    """Compile KQ/I to a structure-constant algebra.

    For increasing truncation length the span of all multiples u*r*v of the
    relations is eliminated from the path space; the build stops once every
    path of some length lies in that span (then all longer paths do too), and
    the truncation is extended far enough to reduce any product of two normal
    forms.  Non-stabilization by max_len raises.
    """
    relations = tuple(relations)
    for r in relations:
        r.validate(quiver)
    targets = [quiver.vertex_index(a.target) for a in quiver.arrows]

    def endpoint(p: tuple) -> tuple[int, int]:
        arrs, src = p
        return src, (targets[arrs[-1]] if arrs else src)

    max_rel_len = max((len(path) for r in relations for _, path in r.terms), default=0)
    T = max(2, max_rel_len)
    while True:
        by_len = _generate_paths(quiver, T)
        reached = len(by_len) - 1
        exhausted = reached < T  # the quiver ran out of paths before the truncation
        red = _Reducer(field)
        # eliminate all multiples u*r*v whose every term fits the truncation
        for rel in relations:
            src_lbl, tgt_lbl = rel.validate(quiver)
            rel_src = quiver.vertex_index(src_lbl)
            rel_tgt = quiver.vertex_index(tgt_lbl)
            longest = max(len(p) for _, p in rel.terms)
            arrow_idx_terms = [
                (field.one() if c is None else c, tuple(quiver.arrow_index(nm) for nm in p))
                for c, p in rel.terms
            ]
            for lu in range(0, reached + 1):
                if lu + longest > T:
                    break
                for u in by_len[lu]:
                    if endpoint(u)[1] != rel_src:
                        continue
                    for lv in range(0, reached + 1):
                        if lu + longest + lv > T:
                            break
                        for v in by_len[lv]:
                            if endpoint(v)[0] != rel_tgt:
                                continue
                            vec: dict[tuple, object] = {}
                            for c, arrs in arrow_idx_terms:
                                pth = (u[0] + arrs + v[0], u[1])
                                vec[pth] = field.add(vec.get(pth, field.zero()), c)
                            red.insert({k: c for k, c in vec.items() if c != 0})
        # stabilization: first length whose every path lies in the eliminated span
        stab = None
        for ell in range(1, reached + 2):
            if ell > reached:
                if exhausted:
                    stab = ell  # no paths of this length exist at all
                break
            if all(red.in_span(p) for p in by_len[ell]):
                stab = ell
                break
        if stab is not None:
            normal = [
                p
                for ln in range(0, min(stab, reached + 1))
                for p in by_len[ln]
                if p not in red.rows
            ]
            D = max((len(p[0]) for p in normal), default=0)
            need = max(stab, 2 * D)
            if exhausted:
                need = min(need, reached)  # no longer paths exist, nothing to reduce
            if need <= T:
                break
            T = need
        else:
            T += max(1, max_rel_len)
        if T > max_len:
            raise AlgebraError("algebra not finite-dimensional or bound too small")

    # trivial paths first in vertex order, then by (length, arrow indices)
    normal.sort(key=lambda p: (len(p[0]), p[0], p[1]))
    index_of = {p: i for i, p in enumerate(normal)}
    basis = tuple(
        BasisElement(source=endpoint(p)[0], target=endpoint(p)[1], degree=len(p[0]), path=p[0])
        for p in normal
    )
    table: list[list[dict[int, object]]] = [[{} for _ in normal] for _ in normal]
    for i, p in enumerate(normal):
        for j, q in enumerate(normal):
            if endpoint(p)[1] != endpoint(q)[0]:
                continue
            prod = (p[0] + q[0], p[1])
            vec = red.reduce({prod: field.one()})
            cell = {}
            for pth, c in vec.items():
                k = index_of.get(pth)
                if k is None:
                    raise AlgebraError(
                        "product of normal forms escaped the computed basis; raise max_len"
                    )
                cell[k] = c
            table[i][j] = cell
    alg = Algebra(field, quiver.vertices, basis, table, name=name, quiver=quiver, relations=relations)
    diags = verify_algebra_axioms(alg)
    if diags:
        raise AlgebraError("constructed table violates axioms: " + "; ".join(diags))
    return alg


# ---------------------------------------------------------------------------
# derived algebras


@dataclass(frozen=True)
class AlgebraMorphismData:
    """Basis-level transport matrix for a derived-algebra construction.

    kind 'quotient' and 'corner' carry genuine algebra maps (surjection onto
    the quotient, inclusion of the corner); 'opposite' carries the identity
    transport realizing an anti-isomorphism.
    """

    kind: str  # "quotient" | "corner" | "opposite"
    source: Algebra
    target: Algebra
    matrix: Matrix  # dim(source) x dim(target); row i = image of source basis i

    def image_vec(self, i: int) -> dict[int, object]:
        row = self.matrix.rows[i]
        return {k: c for k, c in enumerate(row) if c != 0}

    def verify(self) -> list[str]:
        """Check the transport realizes an algebra (anti-)map on all basis pairs."""
        src, tgt, f = self.source, self.target, self.source.field
        out = []
        for i in range(src.dim):
            for j in range(src.dim):
                lhs: dict[int, object] = {}
                for k, c in src.mult(i, j).items():
                    for t, ct in self.image_vec(k).items():
                        v = f.add(lhs.get(t, f.zero()), f.mul(c, ct))
                        lhs[t] = v
                lhs = {k: c for k, c in lhs.items() if c != 0}
                a, b = (j, i) if self.kind == "opposite" else (i, j)
                rhs = tgt.mult_vec(self.image_vec(a), self.image_vec(b))
                if lhs != rhs:
                    out.append(f"transport fails on basis pair ({i},{j})")
        return out


def _sub_basis_algebra(
    a: Algebra, keep: list[int], labels: tuple[str, ...], name: str,
    quiver: Quiver | None = None, relations: tuple[RelationExpr, ...] | None = None,
) -> tuple[Algebra, AlgebraMorphismData]:
    """The algebra on the basis elements keep of a (their products must stay
    in their span) over the vertices labels, with the inclusion into a as its
    "corner" transport."""
    new_vertex = {a.vertex_index(v): t for t, v in enumerate(labels)}
    reindex = {old: new for new, old in enumerate(keep)}
    basis = tuple(
        BasisElement(new_vertex[b.source], new_vertex[b.target], b.degree, b.path) for b in (a.basis[i] for i in keep)
    )
    table = [[{reindex[k]: c for k, c in a.mult(i, j).items()} for j in keep] for i in keep]
    sub = Algebra(a.field, labels, basis, table, name=name, quiver=quiver, relations=relations)
    inclusion = Matrix.zeros(a.field, len(keep), a.dim)
    for new, old in enumerate(keep):
        inclusion.rows[new][old] = a.field.one()
    return sub, AlgebraMorphismData("corner", sub, a, inclusion)


def corner_algebra(a: Algebra, eps_vertices) -> tuple[Algebra, AlgebraMorphismData]:
    """The corner eAe for e the sum of the chosen vertex idempotents."""
    eps = _vertex_subset(a, eps_vertices)
    keep = [i for i, b in enumerate(a.basis) if b.source in eps and b.target in eps]
    labels = tuple(v for vi, v in enumerate(a.vertices) if vi in eps)
    return _sub_basis_algebra(a, keep, labels, f"{a.name}.corner({','.join(labels)})")


def quotient_by_idempotent_ideal(a: Algebra, eps_vertices) -> tuple[Algebra, AlgebraMorphismData]:
    """The quotient A/AeA, with the surjection A -> A/AeA as transport.  In each
    Peirce block off eps, the basis elements on the free columns of AeA's RREF
    represent the quotient basis, and their products are projected."""
    eps = _vertex_subset(a, eps_vertices)
    f = a.field
    # AeA is spanned by products b*b' with target(b) = source(b') in eps;
    # each such product lies in a single Peirce block, so work blockwise.
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
    keep_v = [vi for vi in range(a.n_vertices) if vi not in eps]
    old_to_newv = {vi: t for t, vi in enumerate(keep_v)}
    reps: list[int] = []  # the basis element of A behind each quotient basis element
    rows: list[list] = [[] for _ in a.basis]  # the transport, one block of columns at a time
    for (u, v), members in sorted(block_members.items()):
        if u in eps or v in eps:
            continue
        W = Subspace.from_rows(f, len(members), ideal_rows[(u, v)])
        proj, _, q = quotient_with_section(f, len(members), W)
        reps += [members[c] for c in range(len(members)) if c not in W.pivots]
        pos = {m: mi for mi, m in enumerate(members)}
        for m, row in enumerate(rows):
            row += proj.rows[pos[m]] if m in pos else [f.zero()] * q
    transport = Matrix(f, rows, a.dim, len(reps))

    def project(vec: dict[int, object]) -> dict[int, object]:
        out: dict[int, object] = {}
        for m, c in vec.items():
            row = transport.rows[m]
            for t, x in enumerate(row):
                if x != 0:
                    v = f.add(out.get(t, f.zero()), f.mul(c, x))
                    if v == 0:
                        out.pop(t, None)
                    else:
                        out[t] = v
        return out

    basis = tuple(
        BasisElement(old_to_newv[b.source], old_to_newv[b.target], b.degree, b.path) for b in (a.basis[i] for i in reps)
    )
    table = [[project(a.mult(i, j)) for j in reps] for i in reps]
    quot = Algebra(
        f, tuple(a.vertices[vi] for vi in keep_v), basis, table,
        name=f"{a.name}.mod_ideal({','.join(a.vertices[v] for v in sorted(eps))})",
    )
    morph = AlgebraMorphismData("quotient", a, quot, transport)
    return quot, morph


def opposite_algebra(a: Algebra) -> tuple[Algebra, AlgebraMorphismData]:
    """Same basis, transposed table, swapped endpoint tags."""
    basis = tuple(
        BasisElement(b.target, b.source, b.degree, b.path) for b in a.basis
    )
    table = [[dict(a.table[j][i]) for j in range(a.dim)] for i in range(a.dim)]
    opp = Algebra(a.field, a.vertices, basis, table, name=f"{a.name}.op")
    morph = AlgebraMorphismData("opposite", a, opp, Matrix.identity(a.field, a.dim))
    return opp, morph


def _vertex_subset(a: Algebra, labels) -> set[int]:
    labels = list(labels)
    if not labels:
        raise AlgebraError("empty vertex subset")
    return {a.vertex_index(v) if isinstance(v, str) else int(v) for v in labels}


# ---------------------------------------------------------------------------
# axioms


def verify_algebra_axioms(a: Algebra) -> list[str]:
    """Exhaustive finite checks; an empty list certifies the table.

    Checks: Peirce grading of the table, idempotent laws, associativity on all
    basis triples, and nilpotency of the span of degree->=1 elements.
    """
    f = a.field
    out: list[str] = []
    for i, bi in enumerate(a.basis):
        for j, bj in enumerate(a.basis):
            cell = a.mult(i, j)
            if bi.target != bj.source:
                if cell:
                    out.append(f"nonzero product across mismatched endpoints ({i},{j})")
                continue
            for k in cell:
                bk = a.basis[k]
                if (bk.source, bk.target) != (bi.source, bj.target):
                    out.append(f"product ({i},{j}) leaves its Peirce block")
                    break
    for v, e in a.idempotent_index.items():
        for i, b in enumerate(a.basis):
            if b.source == v:
                expected = {i: f.one()}
                if a.mult(e, i) != expected:
                    out.append(f"idempotent axiom failed: e_{a.vertices[v]} * {a.basis_label(i)}")
            if b.target == v:
                expected = {i: f.one()}
                if a.mult(i, e) != expected:
                    out.append(f"idempotent axiom failed: {a.basis_label(i)} * e_{a.vertices[v]}")
    for i in range(a.dim):
        for j in range(a.dim):
            if a.basis[i].target != a.basis[j].source:
                continue
            ij = a.mult(i, j)
            for k in range(a.dim):
                if a.basis[j].target != a.basis[k].source:
                    continue
                left = a.mult_vec(ij, {k: f.one()})
                right = a.mult_vec({i: f.one()}, a.mult(j, k))
                if left != right:
                    out.append(
                        "associativity broken on triple "
                        f"({a.basis_label(i)}, {a.basis_label(j)}, {a.basis_label(k)})"
                    )
    # radical nilpotency: powers of the span of degree>=1 elements must die
    if a.radical_indices:
        max_deg = max(a.basis[i].degree for i in a.radical_indices)
        current = [{i: f.one()} for i in a.radical_indices]
        power = 1
        while current and power <= max_deg + 1:
            nxt = []
            for x in current:
                for r in a.radical_indices:
                    prod = a.mult_vec(x, {r: f.one()})
                    if prod:
                        nxt.append(prod)
            current = nxt
            power += 1
        if current:
            out.append(f"degree->=1 span is not nilpotent within {max_deg + 1} steps")
    return out
